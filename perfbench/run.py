"""Benchmark of the gapbumps pipeline, run from the root of a checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

One process, one client, closed loop, BLAS pinned to BLAS_THREADS threads.
The package is imported from the checkout's `src/`. With --trace 0 the
run measures set-up and then operations for S seconds of operation time,
checks every result, and prints the end-to-end metrics. With --trace 1
it runs S/2 seconds untraced, then one set-up and S/2 seconds of the same
inputs with every public layer function wrapped (tracer.py), and prints
per-layer metrics: counts and times per operation (unit ".../op"), or
per set-up for the set-up layers (".../setup"). The traced phase must
give results identical to the untraced one. Spans are written to
`.perfbench_out/trace-<workload>-seed<N>.json`.

The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# one OpenBLAS thread: faster and steadier than two on a 2-core machine,
# and results differ in the last digits between thread counts
BLAS_THREADS = 1
SETUP_REPS = 3
TAIL_BEYOND = 10


@dataclass
class Phase:
    """Operations of one timed loop, in input order."""

    state: object
    inputs: list = field(default_factory=list)
    results: list = field(default_factory=list)  # result, or None when the op raised
    times: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)  # exception type -> count

    @property
    def completed(self) -> int:
        return sum(r is not None for r in self.results)

    @property
    def ops_per_s(self) -> float:
        return self.completed / sum(self.times)


def run_phase(wl, state, seed: int, budget: float, tracer=None) -> Phase:
    """Run whole input blocks until `budget` seconds of operation time."""
    import numpy as np

    phase = Phase(state)
    blocks = wl.blocks(np.random.default_rng(seed))
    while sum(phase.times) < budget:
        for inp in next(blocks):
            result = None
            start = time.perf_counter()
            try:
                with tracer.span("op") if tracer else nullcontext():
                    result = wl.op(state, inp)
            except Exception as err:  # a failed operation is counted, not fatal
                name = type(err).__name__
                phase.errors[name] = phase.errors.get(name, 0) + 1
            phase.times.append(time.perf_counter() - start)
            phase.inputs.append(inp)
            phase.results.append(result)
    return phase


def clear_caches() -> None:
    """Empty every functools cache in the package, so set-up starts cold."""
    for name, mod in list(sys.modules.items()):
        if name == "gapbumps" or name.startswith("gapbumps."):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with
    TAIL_BEYOND samples beyond it; the median when there are too few."""
    s = sorted(times)
    i = len(s) - TAIL_BEYOND - 1
    if i < len(s) // 2:
        return statistics.median(s), 50.0, len(s) // 2
    return s[i], 100.0 * (i + 1) / len(s), len(s) - i - 1


def count_failures(wl, phases: list[Phase]) -> int:
    failed = 0
    for ph in phases:
        for inp, result in zip(ph.inputs, ph.results):
            if result is None or not wl.check(ph.state, inp, result):
                failed += 1
    return failed


def end_to_end(setup_s: float, ph: Phase, failed: int, peak_rss_mb: float) -> dict:
    value, pct, beyond = tail(ph.times)
    print(f"# op_tail_s is p{pct:.1f} of {len(ph.times)} operations, {beyond} beyond it")
    n = len(ph.times)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ph.ops_per_s, "1/s"),
        "op_p50_s": (statistics.median(ph.times), "s"),
        "op_tail_s": (value, "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "ok_frac": ((n - failed) / n, "ratio"),
    }


# -- per-layer metrics from the traced phase -------------------------------------

WITH_SELF = (
    "operator.diagonalize",
    "functional.a_value_and_gradient",
    "functional.a_hessian",
    "solver.find_critical_point",
    "reduction.solve_w",
    "multibump.solve_multibump",
    "cli.main",
)
BUSY_ONLY = (
    "operator.midgap_shift",
    "operator.transform",
    "functional.a_gradient",
    "functional.a_hessvec",
    "linalg.eigh",
    "linalg.eigvalsh",
    "linalg.solve",
    "solver.deflated_search",
    "solver.orbit_distance",
    "multibump.build_problem",
    "torus.translate",
)


def layer_metrics(tracer, traced: Phase, untraced: Phase) -> dict:
    spans = tracer.spans
    own = tracer.self_times()
    root = tracer.roots()
    ops = [i for i, s in enumerate(spans) if s.parent < 0 and s.name == "op"]
    setups = [i for i, s in enumerate(spans) if s.parent < 0 and s.name == "setup"]
    op_set, setup_set = set(ops), set(setups)
    n_ops, n_setups = len(ops), len(setups)
    in_ops = [i for i in range(len(spans)) if root[i] in op_set]
    in_setup = [i for i in range(len(spans)) if root[i] in setup_set]

    def select(scope, name, parent=None, ok=None):
        return [
            i for i in scope
            if spans[i].name == name
            and (parent is None or spans[spans[i].parent].name == parent)
            and (ok is None or (spans[i].error is None) == ok)
        ]

    m: dict = {}
    for name in WITH_SELF + BUSY_ONLY:
        sel = select(in_ops, name)
        m[f"{name}.calls"] = (len(sel) / n_ops, "count/op")
        m[f"{name}.busy_s"] = (sum(spans[i].duration for i in sel) / n_ops, "s/op")
        if name in WITH_SELF:
            m[f"{name}.self_s"] = (sum(own[i] for i in sel) / n_ops, "s/op")
    sel = select(in_setup, "reduction.detect_kernel")
    m["reduction.detect_kernel.calls"] = (len(sel) / n_setups, "count/setup")
    m["reduction.detect_kernel.busy_s"] = (sum(spans[i].duration for i in sel) / n_setups, "s/setup")
    for name in ("presets.default_potential", "presets.degenerate_problem", "operator.diagonalize"):
        busy = sum(spans[i].duration for i in select(in_setup, name)) / n_setups
        m[f"{name}.{'setup_busy_s' if name.startswith('operator') else 'busy_s'}"] = (busy, "s/setup")
    sizes = [spans[i].info for i in select(in_ops + in_setup, "operator.diagonalize", ok=True)]
    m["operator.eigenfields_mb"] = (max(sizes, default=0) / 2**20, "MiB")
    m["linalg.n_cubed_sum"] = (
        sum(spans[i].info ** 3 for i in in_ops
            if spans[i].name.startswith("linalg.") and spans[i].info is not None) / n_ops,
        "count/op",
    )

    fcp_ok = select(in_ops, "solver.find_critical_point", ok=True)
    m["solver.newton_iters"] = (sum(spans[i].info for i in fcp_ok) / n_ops, "count/op")
    for err in ("NoConvergence", "TrivialCollapse"):
        n = sum(spans[i].error == err for i in select(in_ops, "solver.find_critical_point"))
        m[f"solver.find_critical_point.failed.{err}"] = (n / n_ops, "count/op")
    # every Newton step factors one Hessian; each converged call adds one
    # more for its record
    steps = len(select(in_ops, "functional.a_hessian", parent="solver.find_critical_point"))
    steps -= len(fcp_ok)
    grads = len(select(in_ops, "functional.a_gradient", parent="solver.find_critical_point"))
    m["solver.grad_evals_per_newton_step"] = (grads / steps if steps else 0.0, "ratio")
    searches = select(in_ops, "solver.deflated_search", ok=True)
    tries = sum(spans[i].info[0] for i in searches)
    converged = len(select(in_ops, "solver.find_critical_point", parent="solver.deflated_search", ok=True))
    distinct = sum(spans[i].info[1] for i in searches)
    m["solver.converged_per_try"] = (converged / tries if tries else 0.0, "ratio")
    m["solver.distinct_per_try"] = (distinct / tries if tries else 0.0, "ratio")

    m["reduction.solve_w.newton_iters"] = (
        sum(spans[i].info for i in select(in_ops, "reduction.solve_w", ok=True)) / n_ops, "count/op")
    glued = select(in_ops, "multibump.solve_multibump", ok=True)
    m["multibump.phase2_iters"] = (sum(spans[i].info[0] for i in glued) / n_ops, "count/op")
    m["multibump.polish_iters"] = (sum(spans[i].info[1] for i in glued) / n_ops, "count/op")
    polish = select(in_ops, "solver.find_critical_point", parent="multibump.solve_multibump")
    m["multibump.polish_s"] = (sum(spans[i].duration for i in polish) / n_ops, "s/op")
    # a_hessian directly under solve_multibump comes from the private
    # projected Newton; the polish's Hessians sit under find_critical_point
    m["multibump.projected_newton_steps"] = (
        len(select(in_ops, "functional.a_hessian", parent="multibump.solve_multibump")) / n_ops,
        "count/op")
    m["multibump.reduced_evals"] = (
        len(select(in_ops, "functional.a_value_and_gradient", parent="multibump.solve_multibump"))
        / n_ops, "count/op")

    m["trace.overhead_frac"] = (1.0 - traced.ops_per_s / untraced.ops_per_s, "ratio")
    m["trace.attributed_frac"] = (
        1.0 - sum(own[i] for i in ops) / sum(spans[i].duration for i in ops), "ratio")
    return m


def spans_add_up(tracer, traced: Phase) -> bool:
    """Per operation, the self times of its spans sum to its wall time."""
    own = tracer.self_times()
    root = tracer.roots()
    ops = [i for i, s in enumerate(tracer.spans) if s.parent < 0 and s.name == "op"]
    total = {i: 0.0 for i in ops}
    for i, r in enumerate(root):
        if r in total:
            total[r] += own[i]
    return len(ops) == len(traced.times) and all(
        abs(total[i] - wall) <= 1e-3 * wall + 1e-4 for i, wall in zip(ops, traced.times)
    )


# -- environment -----------------------------------------------------------------


def environment(args) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target and target.is_file() else ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "gapbumps").rglob("*.py")):
        digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "gapbumps" / "__init__.py").is_file():
        print(f"error: no gapbumps package under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import gapbumps
    import workloads  # numpy, scipy and the package's modules
    import_s = time.perf_counter() - t0
    if Path(gapbumps.__file__).resolve().parent != SRC / "gapbumps":
        print(f"error: gapbumps imported from {gapbumps.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=OUT))
    try:
        wl = workloads.WORKLOADS[args.workload](scratch)
        builds = []
        for _ in range(SETUP_REPS):
            state = None  # keep one set-up alive at a time, for peak_rss_mb
            clear_caches()
            start = time.perf_counter()
            state = wl.setup()
            builds.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(builds)
        print("# env " + json.dumps(environment(args), sort_keys=True))

        if not args.trace:
            phase = run_phase(wl, state, args.seed, args.seconds)
            # before the checks, which hold data of their own
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            failed = count_failures(wl, [phase])
            correct = failed == 0 and wl.check_run()
            metrics = end_to_end(setup_s, phase, failed, peak_rss_mb)
            phases = [phase]
        else:
            from tracer import Tracer

            untraced = run_phase(wl, state, args.seed, args.seconds / 2)
            clear_caches()
            tracer = Tracer()
            tracer.install(extra=(workloads,))
            try:
                with tracer.span("setup"):
                    traced_state = wl.setup()
                traced = run_phase(wl, traced_state, args.seed, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            phases = [untraced, traced]
            failed = count_failures(wl, phases)
            same = all(
                a is not None and b is not None and wl.digest(a) == wl.digest(b)
                for a, b in zip(untraced.results, traced.results)
            )
            adds_up = spans_add_up(tracer, traced)
            print(f"# traced results identical to untraced: {same}; span self times add up: {adds_up}")
            correct = failed == 0 and wl.check_run() and same and adds_up
            metrics = layer_metrics(tracer, traced, untraced)
            (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
                {"fields": ["name", "parent", "start", "end", "error"],
                 "spans": [[s.name, s.parent, s.start, s.end, s.error] for s in tracer.spans]}))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for ph in phases:
        if ph.errors:
            print(f"# operations raised: {ph.errors}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": sum(len(ph.times) for ph in phases),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
