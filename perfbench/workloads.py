"""The benchmark's workloads: set-up, seeded inputs, one operation, checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned. Inputs come in blocks drawn from the
run's seed; a run always finishes the block it has started, so a block's
mix of inputs is never cut by the clock.

Checks recompute what they test from the returned fields with
``a_value_and_gradient``; no number stored by the program is trusted.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from gapbumps import cli, presets
from gapbumps.functional import Nonlinearity, a_value_and_gradient
from gapbumps.multibump import build_problem, bump_energy_split, solve_multibump
from gapbumps.operator import PeriodicPotential, diagonalize
from gapbumps.reduction import detect_kernel, kernel_combination, solve_w
from gapbumps.solver import (
    SolverOptions,
    deflated_search,
    find_critical_point,
    initial_ansatz,
    orbit_distance,
)
from gapbumps.torus import GridField, TorusDomain


def _residual(S, nl, field: GridField) -> tuple[float, float, float]:
    """(energy, residual, energy norm) recomputed from a field."""
    a = S.a_from_field(field)
    J, g = a_value_and_gradient(S, nl, a)
    return float(J), float(np.linalg.norm(g)), float(np.linalg.norm(a))


def _base(S, nl, ansatz: dict):
    init = initial_ansatz(ansatz["center"], ansatz["width"], ansatz["amplitude"], S.domain, S)
    return find_critical_point(init, S, nl)


class Workload:
    """Shared defaults; `scratch` is a directory the workload may write to."""

    def __init__(self, scratch: Path) -> None:
        self.scratch = scratch

    def check_run(self) -> bool:
        """Checks across all operations of the run."""
        return True


class SolveK64(Workload):
    """`gapbumps solve --k 64` from a seeded integer ansatz center, M = 16.

    What a user of `gapbumps solve` pays on every run, dense N = 1024
    scaling included: config load, diagonalize, Newton, record, files.
    """

    name = "solve-k64"
    cells = 64

    def __init__(self, scratch: Path) -> None:
        super().__init__(scratch)
        self.energies: list[float] = []
        self._S = None

    def setup(self):
        out = Path(tempfile.mkdtemp(prefix="solve-", dir=self.scratch))
        os.environ["GAPBUMPS_OUT"] = str(out)
        return out

    def blocks(self, rng: np.random.Generator):
        while True:
            yield [int(rng.integers(-self.cells // 2, self.cells // 2))]

    def op(self, out: Path, center: int) -> bytes:
        argv = ["solve", "--k", str(self.cells), "--ansatz-center", str(center)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"gapbumps {' '.join(argv)} exited with {code}")
        return (out / "solution.json").read_bytes()

    def check(self, state, center: int, result: bytes) -> bool:
        rec = json.loads(result)
        dom = TorusDomain(**rec["domain"])
        if (dom.dim, dom.cells, dom.samples_per_cell) != (1, self.cells, 16):
            return False
        if self._S is None:
            self._S = diagonalize(PeriodicPotential(**rec["potential"]), dom)
        nl = Nonlinearity(**rec["nonlinearity"])
        J, res, norm = _residual(self._S, nl, GridField(dom, np.asarray(rec["values"])))
        self.energies.append(J)
        return res <= 1e-10 and norm >= presets.EPS1_K8 and J >= presets.EPS2_K8

    def check_run(self) -> bool:
        # every operation solves a translate of one solution
        if not self.energies:
            return True
        J0 = self.energies[0]
        return all(abs(J - J0) <= 1e-9 * abs(J0) for J in self.energies)

    def digest(self, result: bytes) -> bytes:
        return result


class GlueK32(Workload):
    """One row of `gapbumps sweep`: build_problem + solve_multibump at k = 32.

    The separation decides whether the finite-difference reduced Newton
    step (phase 2) runs: 0 iterations from spacing 12 up, 1 at 7 to 11,
    2 at 4 to 6. A block holds each m = 2 spacing once and each m = 3
    spacing twice, in a seeded order with seeded first cells, so m = 2 and
    m = 3 weigh about equally and every run has the same mix of classes.
    That mix puts the median inside the 0.9-1 s class (m = 3 with one
    phase-2 iteration, m = 2 with two), not on an edge between classes
    where one slow operation would move it.
    """

    name = "glue-k32"
    cells = 32
    spacings = {2: range(4, 17), 3: range(4, 11)}
    repeats = {2: 1, 3: 2}

    def setup(self):
        nl = Nonlinearity()
        S = diagonalize(presets.default_potential(), TorusDomain(1, self.cells, 16))
        base = _base(S, nl, presets.BASE_ANSATZ)
        kb = detect_kernel(base, S, nl, tau=presets.TAU_FORCED)
        J0 = _residual(S, nl, base.field)[0]
        return S, nl, kb, J0

    def blocks(self, rng: np.random.Generator):
        pairs = [(m, s) for m, ss in self.spacings.items() for s in ss
                 for _ in range(self.repeats[m])]
        while True:
            block = []
            for i in rng.permutation(len(pairs)):
                m, s = pairs[i]
                first = int(rng.integers(0, self.cells))
                block.append(tuple(((first + j * s) % self.cells,) for j in range(m)))
            yield block

    def op(self, state, centers):
        S, nl, kb, _ = state
        return solve_multibump(build_problem(kb, list(centers), S), S, nl)

    def check(self, state, centers, res) -> bool:
        S, nl, _, J0 = state
        res_norm = _residual(S, nl, res.field)[1]
        bumps = bump_energy_split(res.field, S, nl, centers)
        return res_norm <= 1e-8 and all(abs(e - J0) <= 0.05 * J0 for e in bumps)

    def digest(self, res) -> bytes:
        return res.field.values.tobytes()


class Reduce2D(Workload):
    """One row of `gapbumps reduce` on the dealiased 2-d fixture: solve_w.

    The only workload on the fine-grid path, where a_hessian's 5184 x 576
    product dominates. Offsets t * delta0 with t in (-0.8, 0.8), one per
    stratum of width 0.2 in every block.
    """

    name = "reduce-2d"
    strata = 8

    def setup(self):
        domain, V, nl = presets.degenerate_problem()
        S = diagonalize(V, domain)
        return detect_kernel(_base(S, nl, presets.DEGENERATE_ANSATZ), S, nl)

    def blocks(self, rng: np.random.Generator):
        edges = np.linspace(-0.8, 0.8, self.strata + 1)
        while True:
            t = edges[:-1] + (edges[1:] - edges[:-1]) * rng.uniform(size=self.strata)
            yield [float(v) for v in rng.permutation(t)]

    def op(self, kb, t: float):
        return solve_w(kb, kernel_combination(kb, np.array([t * kb.delta0])))

    def check(self, kb, t: float, s) -> bool:
        w = kb.S.a_from_field(s.w)
        orth = float(np.abs(kb.E.T @ w).max())
        a = kb.base_a + kb.E @ np.array([t * kb.delta0]) + w
        g = a_value_and_gradient(kb.S, kb.nl, a)[1]
        projected = g - kb.E @ (kb.E.T @ g)
        return orth <= 1e-10 and float(np.linalg.norm(projected)) <= 1e-8

    def digest(self, s) -> bytes:
        return s.w.values.tobytes()


class DeflateK8(Workload):
    """deflated_search([base], tries=5) at k = 8, seeded rng per operation.

    N = 128, so per-call overhead and failed tries dominate, not BLAS; a
    large-N optimisation that costs more than it saves shows here. It runs
    by name but is not in BENCHMARK.json: which tries fail is drawn fresh
    per seed, and over five 30 s runs the quartile spread of op_tail_s was
    0.31 of its median and of ops_per_s 0.16, wider than any bound allowed.
    """

    name = "deflate-k8"
    tries = 5

    def setup(self):
        nl = Nonlinearity()
        S = diagonalize(presets.default_potential(), TorusDomain(1, 8, 16))
        return S, nl, _base(S, nl, presets.BASE_ANSATZ)

    def blocks(self, rng: np.random.Generator):
        while True:
            yield [int(rng.integers(2**32))]

    def op(self, state, op_seed: int):
        S, nl, base = state
        return deflated_search([base], self.tries, S, nl, rng=np.random.default_rng(op_seed))

    def check(self, state, op_seed: int, found) -> bool:
        S, nl, base = state
        opts = SolverOptions()
        for rec in found:
            _, res, norm = _residual(S, nl, rec.field)
            if res > 1e-10 or norm < opts.collapse_norm:
                return False
            if orbit_distance(rec.field, base.field, S)[0] <= opts.deflation_radius:
                return False
        return True

    def digest(self, found) -> bytes:
        return b"".join(rec.field.values.tobytes() for rec in found)


WORKLOADS = {w.name: w for w in (SolveK64, GlueK32, Reduce2D, DeflateK8)}
