"""Command-line front end: config handling, dispatch, persistence.

Commands: bands, spectrum, solve, reduce, multibump, sweep, verify.
Every command writes through one `_Output`: artifacts land in the
directory named by GAPBUMPS_OUT (default: the working directory), and
once the command returns `main` adds a manifest recording the config
hash, package versions, the seconds of every phase and the total, and
the artifact names in write order. Result files themselves carry no
timings, so identical config and seed reproduce them byte for byte.

Exit codes: 0 success, 2 bad config or arguments, 3 numeric failure
(no gap, collapse, no convergence, unstable gluing), 4 failed
verification. Errors are reported by `main` alone, so the hint for a
spectrum without a gap reads the same on every command.
"""

from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import json
import math
import os
import platform
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__, presets
from .functional import NegativeWeight, Nonlinearity, a_value_and_gradient
from .multibump import (
    CentersCollide,
    GluingUnstable,
    KernelOverlap,
    SeparationTooSmall,
    build_problem,
    separation_sweep,
    solve_multibump,
)
from .operator import (
    NoCertifiedGap,
    NotInvertible,
    PeriodicPotential,
    band_samples,
    diagonalize,
    midgap_shift,
)
from .reduction import (
    W_RESIDUAL_TOL,
    AllKernel,
    KernelBasis,
    OutOfBall,
    classify_origin,
    detect_kernel,
    kernel_combination,
    solve_w,
)
from .solver import (
    NoConvergence,
    SolverOptions,
    TrivialCollapse,
    _make_record,
    draw_ansatz,
    find_critical_point,
    hessian_census,
    initial_ansatz,
)
from .torus import GridField, TorusDomain
from .verify import json_text, run_verification, strictly_decreasing


class ConfigError(Exception):
    pass


# Canonical config shape. Every field must have the JSON type of its
# default (an integer also counts as a number); None marks an optional
# field whose type _TYPES names. Unknown keys are rejected so typos fail
# loudly instead of silently using a default.
_DEFAULT_CONFIG: dict = {
    "domain": {"dim": 1, "cells": 8, "samples_per_cell": 16},
    "potential": {
        "kind": "cosine",
        "amplitude": 30.0,
        "shift": "auto-midgap",
        "samples": None,
        "axes": None,
    },
    "nonlinearity": {"p": 4.0, "h": None, "dealias_factor": 1.0},
    "solver": asdict(SolverOptions()),
    "seed": 0,
    "ansatz": {"center": None, "width": 0.5, "amplitude": 6.0},
}


def _is_number(value) -> bool:
    """A finite number: JSON and float flags also parse NaN and Infinity."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _list_of(item):
    return lambda v: isinstance(v, list) and all(map(item, v))


# JSON types by field name, else by the type of the field's default
_TYPES = {
    int: ("an integer", _is_integer),
    float: ("a number", _is_number),
    str: ("a string", lambda v: isinstance(v, str)),
    "samples": ("a list of numbers", _list_of(_is_number)),
    "center": ("a list of numbers", _list_of(_is_number)),
    "axes": ("a list of integers", _list_of(_is_integer)),
    "shift": ("a number or 'auto-midgap'", lambda v: v == "auto-midgap" or _is_number(v)),
}
# object fields that default to null, merged over these defaults when given
_OBJECT_FIELDS = {"h": asdict(PeriodicPotential())}


def _merge(defaults: dict, given, path: str, required=()) -> dict:
    """`given` over `defaults`, each field type-checked; `required` keys must be given."""
    if not isinstance(given, dict):
        raise ConfigError(f"config field {path!r} must be an object")
    for key in required:
        if key not in given:
            raise ConfigError(f"missing config field '{path}.{key}'")
    out = copy.deepcopy(defaults)
    for key, value in given.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config field {where!r}")
        default = defaults[key]
        nested = default if isinstance(default, dict) else _OBJECT_FIELDS.get(key)
        if value is None and default is None:
            pass
        elif nested is not None:
            value = _merge(nested, value, where)
        else:
            name, valid = _TYPES.get(key) or _TYPES[type(default)]
            if not valid(value):
                raise ConfigError(f"config field {where!r} must be {name}, got {value!r}")
        out[key] = value
    return out


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration: the canonical dict plus resolved objects.

    `raw` keeps the shift spec verbatim ("auto-midgap" stays a string),
    so dumping it reproduces the input file; `potential` carries the
    resolved numeric shift used by every computation.
    """

    raw: dict
    domain: TorusDomain
    potential: PeriodicPotential
    nonlinearity: Nonlinearity
    solver: SolverOptions
    seed: int
    ansatz: dict

    def to_dict(self) -> dict:
        return copy.deepcopy(self.raw)

    @property
    def config_hash(self) -> str:
        js = json.dumps(self.raw, sort_keys=True)
        return hashlib.sha256(js.encode()).hexdigest()[:16]


def _domain_from_dict(d: dict) -> TorusDomain:
    try:
        return TorusDomain(**d)
    except ValueError as e:
        raise ConfigError(f"domain: {e}") from e


def _potential_from_dict(d: dict, dim: int, path: str = "potential") -> PeriodicPotential:
    """A checked potential dict (every field present) as a PeriodicPotential
    on a `dim`-dimensional torus; `path` names it in errors."""
    if any(not 0 <= ax < dim for ax in d["axes"] or ()):
        raise ConfigError(f"config field '{path}.axes' must name axes 0..{dim - 1}: {d['axes']}")
    shift = d["shift"]
    try:
        if shift == "auto-midgap":
            if d["kind"] != "cosine":
                raise ConfigError(f"{path}.shift 'auto-midgap' requires kind 'cosine'")
            axes = len(set(d["axes"])) if d["axes"] is not None else dim
            shift = midgap_shift(float(d["amplitude"]), axes)
        return PeriodicPotential(
            kind=d["kind"],
            amplitude=float(d["amplitude"]),
            shift=float(shift),
            samples=tuple(d["samples"]) if d["samples"] else None,
            axes=tuple(d["axes"]) if d["axes"] is not None else None,
        )
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e


def _nonlinearity_from_dict(d: dict, dim: int) -> Nonlinearity:
    """A checked nonlinearity dict (every field present) as a Nonlinearity."""
    try:
        return Nonlinearity(
            p=float(d["p"]),
            weight=None if d["h"] is None else _potential_from_dict(d["h"], dim, "nonlinearity.h"),
            dealias_factor=float(d["dealias_factor"]),
        )
    except ValueError as e:
        raise ConfigError(f"nonlinearity: {e}") from e


def _read_text(path) -> str:
    """A file from outside the program as text; unreadable or not UTF-8 is a ConfigError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read {path}: {e}") from e


def load_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    """Defaults <- file <- flag overrides, validated field by field."""
    given: dict = {}
    if path is not None:
        text = _read_text(path)
        try:
            given = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(
                f"{path}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}"
            ) from e
        if not isinstance(given, dict):
            raise ConfigError(f"{path}: top level must be an object")
    # flags join the file's fields, so both pass the one schema check
    for dotted, value in (overrides or {}).items():
        *parents, leaf = dotted.split(".")
        node = given
        for p in parents:
            node = node.setdefault(p, {}) if isinstance(node, dict) else node
        if isinstance(node, dict):  # otherwise _merge refuses the file's value
            node[leaf] = value
    raw = _merge(_DEFAULT_CONFIG, given, "")

    if raw["seed"] < 0:
        raise ConfigError(f"seed must be non-negative, got {raw['seed']}")
    domain = _domain_from_dict(raw["domain"])
    potential = _potential_from_dict(raw["potential"], domain.dim)
    nl = _nonlinearity_from_dict(raw["nonlinearity"], domain.dim)
    try:
        solver = SolverOptions(**raw["solver"])
    except ValueError as e:
        raise ConfigError(f"solver: {e}") from e

    ansatz = dict(raw["ansatz"])
    if not ansatz["width"] > 0:
        raise ConfigError(f"ansatz.width must be positive, got {ansatz['width']!r}")
    if ansatz["center"] is None:
        ansatz["center"] = [0.0] * domain.dim
    if len(ansatz["center"]) != domain.dim:
        raise ConfigError(
            f"ansatz.center has {len(ansatz['center'])} coordinates, domain is {domain.dim}-d"
        )
    return RunConfig(
        raw=raw,
        domain=domain,
        potential=potential,
        nonlinearity=nl,
        solver=solver,
        seed=raw["seed"],
        ansatz=ansatz,
    )


# -- persistence -----------------------------------------------------------------


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json_text(payload))


def _finite_or_none(value: float) -> float | None:
    """A float for strict JSON: None stands for an unbounded value."""
    return value if np.isfinite(value) else None


def _write_csv(path: Path, header: list[str], rows) -> None:
    """A header line and one line per row, floats as their repr, in csv's
    default dialect (CRLF line ends). A float array's rows are written as
    one join of its repr'd columns: nothing in a float's repr needs
    quoting."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if isinstance(rows, np.ndarray):
            columns = [map(repr, column) for column in rows.T.tolist()]
            fh.write("".join(line + "\r\n" for line in map(",".join, zip(*columns))))
            return
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def write_field_csv(path: Path, field: GridField) -> None:
    dim = field.domain.dim
    header = [f"x{i + 1}" for i in range(dim)] + ["value"]
    columns = [g.reshape(-1) for g in field.domain.meshgrid()] + [field.flat]
    _write_csv(path, header, np.stack(columns, axis=1))


def read_field_csv(path: Path, domain: TorusDomain) -> GridField:
    reader = csv.reader(_read_text(path).splitlines())
    header = next(reader, [])
    if len(header) != domain.dim + 1:
        raise ConfigError(
            f"{path}: expected {domain.dim + 1} columns for a {domain.dim}-d field, "
            f"got {len(header)}"
        )
    try:
        return GridField(domain, np.asarray([float(row[-1]) for row in reader if row]))
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e


def _record_from_file(path: str, cfg: RunConfig):
    """Load a solution: record JSON (self-describing) or bare field CSV.

    A CSV has no fingerprints, so the active config supplies domain,
    potential and nonlinearity. Either way only the field is read: every
    diagnostic is recomputed from it, and a field that is not a critical
    point (residual above W_RESIDUAL_TOL) is refused.
    Returns (record, decomposition, nonlinearity).
    """
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"no such solution file: {path}")
    if p.suffix == ".csv":
        S, nl = diagonalize(cfg.potential, cfg.domain), cfg.nonlinearity
        field = read_field_csv(p, cfg.domain)
    else:
        try:
            d = json.loads(_read_text(p))
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from e
        if not isinstance(d, dict):
            raise ConfigError(f"{path}: not a solution record (top level must be an object)")
        for key in ("domain", "potential", "nonlinearity", "values"):
            if key not in d:
                raise ConfigError(f"{path}: not a solution record (missing {key!r})")
        try:
            # a record carries every field its writers emit; they omit others at their defaults
            checked = {
                key: _merge(_DEFAULT_CONFIG[key], d[key], key, required)
                for key, required in (
                    ("domain", _DEFAULT_CONFIG["domain"]),
                    ("potential", PeriodicPotential().to_dict()),
                    ("nonlinearity", Nonlinearity().to_dict()),
                )
            }
            domain = _domain_from_dict(checked["domain"])
            field = GridField(domain, np.asarray(d["values"]))
            V = _potential_from_dict(checked["potential"], domain.dim)
            nl = _nonlinearity_from_dict(checked["nonlinearity"], domain.dim)
        except ConfigError as e:
            raise ConfigError(f"{path}: {e}") from e
        except (AttributeError, KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"{path}: malformed record: {e!r}") from e
        S = diagonalize(V, domain)
    # the loaded field is kept verbatim; a-coordinates round-trip it only to roundoff
    a = S.a_from_field(field)
    rec = replace(_make_record(a, *a_value_and_gradient(S, nl, a), S, nl), field=field)
    if rec.residual > W_RESIDUAL_TOL:
        raise ConfigError(
            f"{path}: not a critical point (recomputed residual {rec.residual:.3e} "
            f"exceeds {W_RESIDUAL_TOL:g})"
        )
    return rec, S, nl


class _Output:
    """One command's output: GAPBUMPS_OUT, its clock, the artifact names in
    write order and the seconds of each timed phase."""

    def __init__(self) -> None:
        self.dir = Path(os.environ.get("GAPBUMPS_OUT", "."))
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise ConfigError(f"GAPBUMPS_OUT is not a usable directory: {e}") from e
        self.started = time.monotonic()
        self.artifacts: list[str] = []
        self.timings: dict[str, float] = {}

    def path(self, name: str) -> Path:
        """Where artifact `name` goes; registers it for the manifest."""
        self.artifacts.append(name)
        return self.dir / name

    @contextmanager
    def timed(self, phase: str):
        """Record the seconds the block takes as `<phase>_s`."""
        start = time.monotonic()
        yield
        self.timings[f"{phase}_s"] = time.monotonic() - start

    def write_manifest(self, command: str, cfg: RunConfig) -> None:
        timings = {name: round(seconds, 3) for name, seconds in self.timings.items()}
        timings["total_s"] = round(time.monotonic() - self.started, 3)
        _write_json(
            self.dir / "manifest.json",
            {
                "command": command,
                "config_hash": cfg.config_hash,
                "seed": cfg.seed,
                "versions": {
                    "gapbumps": __version__,
                    "python": platform.python_version(),
                    "numpy": np.__version__,
                    "scipy": scipy.__version__,
                },
                "timings": timings,
                "artifacts": self.artifacts,
            },
        )


# -- commands --------------------------------------------------------------------


def _parse_centers(text: str, dim: int) -> list[tuple[int, ...]]:
    centers = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            coords = tuple(int(c) for c in part.split(","))
        except ValueError:
            raise ConfigError(f"--centers: center {part!r} is not a list of integers") from None
        if len(coords) != dim:
            raise ConfigError(
                f"center {part!r} has {len(coords)} coordinates, domain is {dim}-d"
            )
        centers.append(coords)
    if not centers:
        raise ConfigError("no centers given")
    return centers


def cmd_bands(args, cfg: RunConfig, out: _Output) -> int:
    if not 1 <= args.bands <= args.modes:
        raise ConfigError(f"--bands must lie in [1, --modes = {args.modes}], got {args.bands}")
    if args.quasimomenta < 1:
        raise ConfigError(f"--quasimomenta must be at least 1, got {args.quasimomenta}")
    thetas, vals = band_samples(cfg.potential, args.bands, args.quasimomenta, args.modes)
    rows = [
        (float(thetas[t]), b, float(vals[t, b]))
        for t in range(len(thetas))
        for b in range(args.bands)
    ]
    _write_csv(out.path("bands.csv"), ["theta", "band", "lambda"], rows)
    return 0


def cmd_spectrum(args, cfg: RunConfig, out: _Output) -> int:
    S = diagonalize(cfg.potential, cfg.domain)
    _write_csv(
        out.path("spectrum.csv"),
        ["i", "lambda"],
        [(i, float(lam)) for i, lam in enumerate(S.eigenvalues)],
    )
    # an infinite edge is written as null: certified, unbounded on that side
    gap = {
        "j": S.j,
        "alpha": _finite_or_none(S.alpha) if S.has_gap else None,
        "beta": _finite_or_none(S.beta) if S.has_gap else None,
        "certified": S.has_gap,
    }
    _write_json(out.path("gap.json"), gap)
    return 0


def cmd_solve(args, cfg: RunConfig, out: _Output) -> int:
    if args.tries < 1:
        raise ConfigError(f"--tries must be at least 1, got {args.tries}")
    with out.timed("diagonalize"):
        S = diagonalize(cfg.potential, cfg.domain)
    with out.timed("newton"):
        rng = np.random.default_rng(cfg.seed)
        center = tuple(float(c) for c in cfg.ansatz["center"])
        width = float(cfg.ansatz["width"])
        amplitude = float(cfg.ansatz["amplitude"])
        last_error: Exception | None = None
        for attempt in range(args.tries):
            try:
                init = initial_ansatz(center, width, amplitude, cfg.domain, S)
                rec = find_critical_point(init, S, cfg.nonlinearity, cfg.solver)
                break
            except (NoConvergence, TrivialCollapse) as e:
                last_error = e
                # jitter for the next try; the deflated search draws the same way
                center, width, amplitude = draw_ansatz(rng, cfg.domain)
        else:  # every try failed (--tries is at least 1)
            raise last_error
    with out.timed("census"):
        census = hessian_census(S, cfg.nonlinearity, S.a_from_field(rec.field))
    _write_json(out.path("solution.json"), rec.to_dict() | census)
    write_field_csv(out.path("solution.csv"), rec.field)
    print(
        f"J = {rec.energy:.12g}, |u|_k = {rec.norm_k:.12g}, "
        f"residual = {rec.residual:.3e}, {rec.iterations} iterations"
    )
    return 0


def _kernel_from_file(path: str, cfg: RunConfig, tau: float) -> KernelBasis:
    """Kernel basis of the solution stored at `path`, split at --tau."""
    if not 0 < tau < np.inf:
        raise ConfigError(f"--tau must be positive and finite, got {tau:g}")
    return detect_kernel(*_record_from_file(path, cfg), tau=tau)


def cmd_reduce(args, cfg: RunConfig, out: _Output) -> int:
    if args.stencil < 1:
        raise ConfigError(f"--stencil must be at least 1, got {args.stencil}")
    with out.timed("load"):
        kb = _kernel_from_file(args.solution, cfg, args.tau)
    if kb.l == 0:
        raise ConfigError(f"--tau {args.tau:g} leaves the kernel block empty, nothing to classify")
    radius = args.radius if args.radius is not None else 0.5 * kb.delta0
    if not 0 < radius <= kb.delta0:
        raise ConfigError(f"--radius must lie in (0, delta0 = {kb.delta0:.6g}], got {radius:g}")
    with out.timed("classify"):
        cls = classify_origin(kb)
    _write_json(
        out.path("reduce.json"),
        {
            "l": kb.l,
            "eta": kb.eta,
            "delta0": kb.delta0,
            "morse_index": cls.morse_index,
            "degenerate": cls.degenerate_flag,
            "reduced_hessian": [[float(v) for v in row] for row in cls.reduced_hessian],
        },
    )
    hs = np.linspace(-radius, radius, 2 * args.stencil + 1)
    rows = []
    with out.timed("profile"):
        for axis in range(kb.l):
            for h in hs:
                x = np.zeros(kb.l)
                x[axis] = h
                s = solve_w(kb, kernel_combination(kb, x))
                rows.append((axis, float(h), s.I, float(np.linalg.norm(s.dI))))
    _write_csv(out.path("reduce.csv"), ["axis", "h", "I", "dI_norm"], rows)
    print(
        f"l = {kb.l}, eta = {kb.eta:.6g}, morse index {cls.morse_index}, "
        f"degenerate = {cls.degenerate_flag}"
    )
    return 0


def _target_decomposition(args, base_S):
    """The torus the glued problem lives on; reuse the base's when it matches."""
    base_dom = base_S.domain
    cells = args.k if args.k is not None else base_dom.cells
    if cells < base_dom.cells:
        raise ConfigError(f"--k must be at least the base's {base_dom.cells} cells, got {cells}")
    if cells == base_dom.cells:
        return base_S
    target = TorusDomain(base_dom.dim, cells, base_dom.samples_per_cell)
    return diagonalize(base_S.potential, target)


def cmd_multibump(args, cfg: RunConfig, out: _Output) -> int:
    with out.timed("load"):
        kb = _kernel_from_file(args.base, cfg, args.tau)
        S = _target_decomposition(args, kb.S)
    centers = _parse_centers(args.centers, kb.S.domain.dim)
    try:
        with out.timed("glue"):
            prob = build_problem(kb, centers, S)
            res = solve_multibump(prob, S, kb.nl, cfg.solver)
    except (CentersCollide, SeparationTooSmall) as e:
        raise ConfigError(f"--centers: {e}") from e
    _write_json(
        out.path("multibump.json"),
        {
            "centers": [list(c) for c in centers],
            "separation": _finite_or_none(prob.l_sep),  # null for a single bump
            "residual": res.residual,
            "correction_norm": res.correction_norm,
            "reduced_coords_norm": res.reduced_coords_norm,
            "bump_energies": list(res.bump_energies),
            "drift": res.drift,
            "phase2_iters": res.phase2_iters,
            "polish_iters": res.polish_iters,
        },
    )
    write_field_csv(out.path("multibump.csv"), res.field)
    print(
        f"{len(centers)} bumps, separation {prob.l_sep}, residual = {res.residual:.3e}, "
        f"|w| = {res.correction_norm:.3e}"
    )
    return 0


def cmd_sweep(args, cfg: RunConfig, out: _Output) -> int:
    try:
        l_values = [int(v) for v in args.seps.split(",")]
    except ValueError as e:
        raise ConfigError(f"--seps: {e}") from e
    if min(l_values) < 1 or sorted(l_values) != l_values:
        raise ConfigError(f"--seps must be positive and ascending, got {args.seps}")
    if args.m < 1:
        raise ConfigError(f"--m must be at least 1, got {args.m}")
    with out.timed("load"):
        kb = _kernel_from_file(args.base, cfg, args.tau)
        S = _target_decomposition(args, kb.S)
    with out.timed("sweep"):
        rows = separation_sweep(kb, args.m, l_values, S, cfg.solver)
    header = ["l_sep", "w_norm", "x_norm", "residual", "energy_defect", "failed"]
    _write_csv(out.path("sweep.csv"), header, ([row.get(k, "") for k in header] for row in rows))
    good = [r for r in rows if "failed" not in r]
    ws = [r["w_norm"] for r in good]
    xs = [r["x_norm"] for r in good]
    # monotonicity is only meaningful with at least two surviving rows
    summary = {
        "m": args.m,
        "l_values": l_values,
        "rows_failed": len(rows) - len(good),
        "monotone_w": strictly_decreasing(ws) if len(good) >= 2 else None,
        "monotone_x": strictly_decreasing(xs) if len(good) >= 2 else None,
        "rows": rows,
    }
    _write_json(out.path("sweep.json"), summary)
    return 0


def cmd_verify(args, cfg: RunConfig, out: _Output) -> int:
    report = run_verification(seed=cfg.seed)
    out.path("report.json").write_text(report.to_json())
    out.timings |= {f"{name.removeprefix('check_')}_s": s for name, s in report.seconds.items()}
    for entry in report.entries:
        print(f"{'PASS' if entry.passed else 'FAIL'}  {entry.name}")
    if not report.passed:
        failed = [e.name for e in report.entries if not e.passed]
        print(f"{len(failed)} checks failed: {', '.join(failed)}", file=sys.stderr)
        return 4
    print(f"all {len(report.entries)} checks passed")
    return 0


# -- argument parsing ------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gapbumps",
        description="critical points and multibump gluing for gap-indefinite energies",
    )
    parser.add_argument("--config", help="JSON config file (defaults are built in)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bands", help="Floquet band samples as CSV")
    p.add_argument("--bands", type=int, default=16)
    p.add_argument("--quasimomenta", type=int, default=48)
    p.add_argument("--modes", type=int, default=16)
    p.set_defaults(fn=cmd_bands)

    p = sub.add_parser("spectrum", help="torus eigenvalues and the gap report")
    p.add_argument("--k", type=int, dest="domain.cells", metavar="K", help="override domain.cells")
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("solve", help="Newton search from a Gaussian ansatz")
    p.add_argument("--k", type=int, dest="domain.cells", metavar="K", help="override domain.cells")
    p.add_argument("--seed", type=int, help="override config seed")
    p.add_argument("--tries", type=int, default=1, help="restarts with jittered ansatz")
    p.add_argument("--ansatz-center", dest="ansatz.center", help="comma-separated coordinates")
    p.add_argument("--ansatz-width", dest="ansatz.width", type=float)
    p.add_argument("--ansatz-amplitude", dest="ansatz.amplitude", type=float)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("reduce", help="kernel detection and reduced-energy profile")
    p.add_argument("--solution", required=True, help="solution record JSON or field CSV")
    p.add_argument("--tau", type=float, default=presets.TAU_FORCED,
                   help="relative Hessian threshold for the near-kernel")
    p.add_argument("--radius", type=float, help="profile radius in (0, delta0] (default delta0/2)")
    p.add_argument("--stencil", type=int, default=3, help="profile offsets per side, >= 1")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("multibump", help="glue translated copies of a base solution")
    p.add_argument("--base", required=True, help="solution record JSON or field CSV")
    p.add_argument("--centers", required=True, help='integer centers, e.g. "0;16" or "0,0;8,0"')
    p.add_argument("--k", type=int, help="target torus cells (default: config domain)")
    p.add_argument("--tau", type=float, default=presets.TAU_FORCED)
    p.set_defaults(fn=cmd_multibump)

    p = sub.add_parser("sweep", help="multibump gluing across separations")
    p.add_argument("--base", required=True)
    p.add_argument("--m", type=int, default=2, help="number of bumps")
    p.add_argument("--seps", default="4,8,16", help="comma-separated separations")
    p.add_argument("--k", type=int, help="target torus cells (default: config domain)")
    p.add_argument("--tau", type=float, default=presets.TAU_FORCED)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("verify", help="run every numerical check and write the report")
    p.add_argument("--seed", type=int, help="override config seed")
    p.set_defaults(fn=cmd_verify)

    return parser


def _overrides(args) -> dict:
    """Flags whose dest is a config path: its first part a top-level key.

    --k is domain.cells for spectrum and solve only; on multibump and
    sweep its dest is `k`, the target torus, and the config domain stays
    the one a field CSV base is read on.
    """
    out = {
        dest: value
        for dest, value in vars(args).items()
        if value is not None and dest.split(".")[0] in _DEFAULT_CONFIG
    }
    if "ansatz.center" in out:
        try:
            out["ansatz.center"] = [float(c) for c in out["ansatz.center"].split(",")]
        except ValueError as e:
            raise ConfigError(f"--ansatz-center: {e}") from e
    return out


_NUMERIC_ERRORS = (
    NotInvertible,
    NoCertifiedGap,
    NoConvergence,
    TrivialCollapse,
    AllKernel,
    OutOfBall,
    KernelOverlap,
    GluingUnstable,
    np.linalg.LinAlgError,
)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, _overrides(args))
        out = _Output()
        code = args.fn(args, cfg, out)
    except (ConfigError, NegativeWeight) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 3
    except MemoryError as e:  # numpy's _ArrayMemoryError names the array it refused
        print(f"out of memory: {' '.join(str(e).split()) or 'allocation failed'}", file=sys.stderr)
        return 3
    out.write_manifest(args.command, cfg)
    return code


if __name__ == "__main__":
    sys.exit(main())
