"""End-to-end verification harness.

Runs every headline numerical claim as a named check against pinned
tolerances and collects the results into a report suitable for JSON
output. All randomness derives from one session seed, so a rerun with
the same seed reproduces the report byte for byte.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import presets
from .functional import (
    Nonlinearity,
    a_gradient,
    a_hessvec,
    a_value_and_gradient,
    interaction_defect,
)
from .operator import (
    PeriodicPotential,
    band_structure,
    diagonalize,
    midgap_shift,
    norm_equivalence_report,
    project_positive,
)
from .multibump import build_problem, separation_sweep, solve_multibump, superposition_compare
from .reduction import detect_kernel, kernel_combination, solve_w
from .solver import (
    deflated_search,
    find_critical_point,
    initial_ansatz,
    linking_upper_bound,
    sphere_level,
    validate_solution,
)
from .torus import GridField, TorusDomain, spectral_gradient, translate


@dataclass(frozen=True)
class CheckEntry:
    name: str
    claim: str
    operation: str
    measured: dict
    tolerance: str
    passed: bool


@dataclass
class LemmaReport:
    """Check entries in report order. `seconds` (each check's wall time)
    and `producer` (each entry's check) stay out of the JSON."""

    seed: int
    entries: list[CheckEntry] = field(default_factory=list)
    seconds: dict[str, float] = field(default_factory=dict, compare=False)
    producer: dict[str, str] = field(default_factory=dict, compare=False)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "passed": self.passed,
            "entries": [asdict(e) for e in self.entries],
        }

    def to_json(self) -> str:
        """The bytes `gapbumps verify` writes to report.json."""
        return json_text(self.to_dict())


def json_text(payload) -> str:
    """Every JSON artifact's text: sorted keys, indent 2, a final newline."""
    # strict JSON: a non-finite float is a bug in the payload, not an artifact
    return json.dumps(payload, sort_keys=True, indent=2, default=_scalar, allow_nan=False) + "\n"


def _scalar(x):
    # numpy scalars are not JSON types (np.float64 alone is a float subclass)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return float(x)
    if isinstance(x, np.bool_):
        return bool(x)
    raise TypeError(f"not JSON-serializable: {type(x).__name__}")


def strictly_decreasing(xs: list[float]) -> bool:
    return all(a > b for a, b in zip(xs, xs[1:]))


class VerificationSession:
    """Shared lazy state for the check suite.

    Base solutions and decompositions are cached per torus size, so the
    expensive pieces (diagonalizations, Newton runs) happen once
    even though several checks lean on them.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self.potential = presets.default_potential()
        self.nl = Nonlinearity()
        self._S: dict[int, object] = {}
        self._base: dict[int, object] = {}
        self._kb: dict[int, object] = {}
        self._deg: tuple | None = None

    def rng(self, offset: int) -> np.random.Generator:
        return np.random.default_rng(self.seed * 1000 + offset)

    def S(self, cells: int):
        if cells not in self._S:
            self._S[cells] = diagonalize(
                self.potential, TorusDomain(1, cells, 16)
            )
        return self._S[cells]

    def base(self, cells: int):
        if cells not in self._base:
            S = self.S(cells)
            init = initial_ansatz(
                presets.BASE_ANSATZ["center"],
                presets.BASE_ANSATZ["width"],
                presets.BASE_ANSATZ["amplitude"],
                S.domain,
                S,
            )
            self._base[cells] = find_critical_point(init, S, self.nl)
        return self._base[cells]

    def kb(self, cells: int):
        if cells not in self._kb:
            self._kb[cells] = detect_kernel(
                self.base(cells), self.S(cells), self.nl, tau=presets.TAU_FORCED
            )
        return self._kb[cells]

    def degenerate(self):
        if self._deg is None:
            domain, V, nl2 = presets.degenerate_problem()
            S2 = diagonalize(V, domain)
            init = initial_ansatz(
                presets.DEGENERATE_ANSATZ["center"],
                presets.DEGENERATE_ANSATZ["width"],
                presets.DEGENERATE_ANSATZ["amplitude"],
                domain,
                S2,
            )
            rec2 = find_critical_point(init, S2, nl2)
            kb2 = detect_kernel(rec2, S2, nl2)
            self._deg = (S2, nl2, rec2, kb2)
        return self._deg

    # ---- checks, one per acceptance criterion ----

    def check_spectral_gap(self) -> list[CheckEntry]:
        rows = {}
        ok = True
        for k in (4, 8, 16):
            S = self.S(k)
            center = 0.5 * (S.beta - S.alpha)
            half = 0.5 * (S.alpha + S.beta)
            offset = abs(center) / half
            good = S.has_gap and S.j == k and offset <= 0.10
            ok = ok and good
            rows[f"k={k}"] = {
                "j": S.j,
                "alpha": S.alpha,
                "beta": S.beta,
                "center_offset": offset,
            }
        return [
            CheckEntry(
                name="spectral_gap",
                claim="0 lies inside a certified spectral gap, centered to 10%, "
                "with j(k) = k negative directions",
                operation="operator.diagonalize",
                measured=rows,
                tolerance="j == k exactly; |gap center| <= 0.1 half-width",
                passed=ok,
            )
        ]

    def check_band_consistency(self) -> list[CheckEntry]:
        bands = band_structure(self.potential, bands=16, quasimomenta=48, modes=16)
        worst = 0.0
        for k in (4, 8, 16):
            for lam in self.S(k).eigenvalues:
                dist = min(
                    0.0 if lo - 1e-18 <= lam <= hi + 1e-18 else min(abs(lam - lo), abs(lam - hi))
                    for lo, hi in bands
                )
                worst = max(worst, dist)
        entry1 = CheckEntry(
            name="band_consistency",
            claim="every periodic-torus eigenvalue lies inside a quasimomentum band",
            operation="operator.band_structure",
            measured={"max_distance_to_band": worst},
            tolerance="<= 1e-6",
            passed=worst <= 1e-6,
        )
        raw = PeriodicPotential(amplitude=presets.AMPLITUDE)
        b1, b2 = band_structure(raw, bands=2, quasimomenta=64, modes=64)
        edge_err = max(
            abs(b1[0] - presets.BAND1_A30[0]),
            abs(b1[1] - presets.BAND1_A30[1]),
            abs(b2[0] - presets.BAND2_A30[0]),
            abs(b2[1] - presets.BAND2_A30[1]),
        )
        shift_err = abs(midgap_shift(presets.AMPLITUDE) - presets.S_STAR_A30)
        entry2 = CheckEntry(
            name="band_edges_regression",
            claim="band edges and the mid-gap shift match the frozen scan",
            operation="operator.band_structure / operator.midgap_shift",
            measured={"edge_error": edge_err, "shift_error": shift_err},
            tolerance="edges <= 1e-9; shift <= 1e-6",
            passed=edge_err <= 1e-9 and shift_err <= 1e-6,
        )
        return [entry1, entry2]

    def check_norm_equivalence(self) -> list[CheckEntry]:
        lo8, hi8 = norm_equivalence_report(self.S(8), 40, self.rng(3))
        lo16, hi16 = norm_equivalence_report(self.S(16), 40, self.rng(3))
        dlo = abs(lo8 - lo16) / lo16
        dhi = abs(hi8 - hi16) / hi16
        return [
            CheckEntry(
                name="norm_equivalence",
                claim="energy/Sobolev norm-ratio bounds are stable in the torus size",
                operation="operator.norm_equivalence_report",
                measured={
                    "k8": [lo8, hi8],
                    "k16": [lo16, hi16],
                    "rel_change": [dlo, dhi],
                },
                tolerance="each bound varies < 5% between k=8 and k=16",
                passed=dlo < 0.05 and dhi < 0.05,
            )
        ]

    def check_calculus(self) -> list[CheckEntry]:
        S = self.S(4)
        rng = self.rng(4)
        eps = 1e-5
        worst_g = 0.0
        worst_h = 0.0
        for trial in range(100):
            nl = self.nl if trial % 2 == 0 else Nonlinearity(dealias_factor=1.5)
            a = rng.standard_normal(S.num_modes) / (1.0 + np.abs(S.eigenvalues)) ** 0.5
            v = rng.standard_normal(S.num_modes)
            v /= np.linalg.norm(v)
            J, g = a_value_and_gradient(S, nl, a)
            Jp = a_value_and_gradient(S, nl, a + eps * v)[0]
            Jm = a_value_and_gradient(S, nl, a - eps * v)[0]
            scale = max(1.0, abs(float(g @ v)))
            worst_g = max(worst_g, abs((Jp - Jm) / (2 * eps) - float(g @ v)) / scale)
            hv = a_hessvec(S, nl, a, v)
            gp = a_gradient(S, nl, a + eps * v)
            gm = a_gradient(S, nl, a - eps * v)
            fd = (gp - gm) / (2 * eps)
            worst_h = max(
                worst_h,
                float(np.linalg.norm(fd - hv)) / max(1.0, float(np.linalg.norm(hv))),
            )
        return [
            CheckEntry(
                name="calculus_fd",
                claim="analytic gradient and Hessian-vector products match "
                "central differences over 100 random probes",
                operation="functional.a_value_and_gradient / functional.a_hessvec",
                measured={"max_gradient_err": worst_g, "max_hessvec_err": worst_h},
                tolerance="gradient <= 1e-6, hessvec <= 1e-5 (relative)",
                passed=worst_g <= 1e-6 and worst_h <= 1e-5,
            )
        ]

    def check_nontrivial_solution(self) -> list[CheckEntry]:
        rec = self.base(8)
        checks = validate_solution(
            rec,
            self.S(8),
            self.nl,
            (presets.EPS1_K8, presets.EPS2_K8),
            rng=self.rng(5),
        )
        reg_J = abs(rec.energy - presets.BASE_ENERGY_K8) / presets.BASE_ENERGY_K8
        reg_n = abs(rec.norm_k - presets.BASE_NORM_K8) / presets.BASE_NORM_K8
        ok = all(p for p, _ in checks.values()) and reg_J <= 1e-6 and reg_n <= 1e-6
        return [
            CheckEntry(
                name="nontrivial_solution",
                claim="Newton from the canonical ansatz yields a nontrivial critical "
                "point above the size and level floors, with shift-invariant energy",
                operation="solver.find_critical_point / solver.validate_solution",
                measured={
                    "energy": rec.energy,
                    "norm_k": rec.norm_k,
                    "residual": checks["residual"][1],
                    "translation_defect": checks["translation_invariance"][1],
                    "regression_rel": [reg_J, reg_n],
                },
                tolerance="residual <= 1e-10; norm >= eps1; energy >= eps2; "
                "translation <= 1e-12; regression <= 1e-6",
                passed=ok,
            )
        ]

    def check_linking(self) -> list[CheckEntry]:
        S = self.S(8)
        rec = self.base(8)
        delta = sphere_level(S, self.nl, presets.R_STAR, samples=48, rng=self.rng(6))
        za = S.a_from_field(project_positive(rec.field, S))
        z = S.field_from_a(za / np.linalg.norm(za))
        rho = presets.RHO_FACTOR * rec.norm_k
        bound = linking_upper_bound(S, self.nl, z, rho, samples=32, rng=self.rng(7))
        sandwich = 0.0 < delta <= rec.energy <= bound.value + 1e-9
        entry1 = CheckEntry(
            name="linking_sandwich",
            claim="positive sphere level <= solution energy <= bounded max over "
            "the linking set, with vanishing boundary sup",
            operation="solver.sphere_level / solver.linking_upper_bound",
            measured={
                "sphere_level": delta,
                "energy": rec.energy,
                "upper_bound": bound.value,
                "boundary_sup": bound.boundary_sup,
                "r_star": presets.R_STAR,
                "rho": rho,
            },
            tolerance="0 < delta <= J(u*) <= bound; boundary sup <= 1e-6",
            passed=bool(sandwich and bound.boundary_sup <= 1e-6),
        )
        delta16 = sphere_level(
            self.S(16), self.nl, presets.R_STAR, samples=48, rng=self.rng(6)
        )
        rel = abs(delta16 - delta) / abs(delta)
        entry2 = CheckEntry(
            name="sphere_level_stability",
            claim="the sphere level at the tuned radius is insensitive to torus size",
            operation="solver.sphere_level",
            measured={"delta_k8": delta, "delta_k16": delta16, "rel_change": rel},
            tolerance="relative change <= 10%",
            passed=rel <= 0.10,
        )
        return [entry1, entry2]

    def check_reduction_identities(self) -> list[CheckEntry]:
        entries = []
        kb = self.kb(8)
        s0 = solve_w(kb, GridField.zeros(kb.S.domain))
        entries.append(
            CheckEntry(
                name="reduction_at_base",
                claim="zero kernel offset at a critical point gives zero correction "
                "and zero reduced gradient",
                operation="reduction.solve_w",
                measured={
                    "w_norm": s0.w_norm,
                    "dI_max": float(np.abs(s0.dI).max()),
                },
                tolerance="both <= 1e-9",
                passed=s0.w_norm <= 1e-9 and float(np.abs(s0.dI).max()) <= 1e-9,
            )
        )
        S2, nl2, rec2, kb2 = self.degenerate()
        du = spectral_gradient(rec2.field)[1]
        da = S2.a_from_field(du)
        da /= np.linalg.norm(da)
        align = abs(float(da @ kb2.E[:, 0]))
        s0d = solve_w(kb2, GridField.zeros(S2.domain))
        entries.append(
            CheckEntry(
                name="degenerate_kernel",
                claim="the symmetry fixture exposes a one-dimensional kernel spanned "
                "by the transverse derivative of the base",
                operation="reduction.detect_kernel",
                measured={
                    "l": kb2.l,
                    "eta": kb2.eta,
                    "alignment_defect": 1.0 - align,
                    "w0_norm": s0d.w_norm,
                    "dI0_max": float(np.abs(s0d.dI).max()),
                },
                tolerance="l == 1; alignment defect <= 1e-6; w(0), dI(0) <= 1e-9",
                passed=kb2.l == 1
                and (1.0 - align) <= 1e-6
                and s0d.w_norm <= 1e-9
                and float(np.abs(s0d.dI).max()) <= 1e-9,
            )
        )
        eps = 1e-4
        worst_fd = 0.0
        worst_orth = 0.0
        for x in np.linspace(-0.8 * kb2.delta0, 0.8 * kb2.delta0, 20):
            s = solve_w(kb2, kernel_combination(kb2, np.array([x])))
            sp = solve_w(kb2, kernel_combination(kb2, np.array([x + eps])))
            sm = solve_w(kb2, kernel_combination(kb2, np.array([x - eps])))
            fd = (sp.I - sm.I) / (2 * eps)
            worst_fd = max(worst_fd, abs(fd - float(s.dI[0])))
            worst_orth = max(
                worst_orth,
                float(np.abs(kb2.E.T @ S2.a_from_field(s.w)).max()),
            )
        entries.append(
            CheckEntry(
                name="reduced_gradient_fd",
                claim="the reduced gradient equals finite differences of the reduced "
                "energy; corrections stay orthogonal to the kernel",
                operation="reduction.solve_w",
                measured={
                    "max_fd_mismatch": worst_fd,
                    "max_orthogonality_defect": worst_orth,
                },
                tolerance="fd mismatch <= 1e-6 over 20 points; orthogonality <= 1e-10",
                passed=worst_fd <= 1e-6 and worst_orth <= 1e-10,
            )
        )
        return entries

    def check_superposition_limit(self) -> list[CheckEntry]:
        kb = self.kb(48)
        pts = [
            np.array(p)
            for p in [(0.0, 0.0), (0.05, 0.05), (0.05, -0.05), (-0.08, 0.03), (0.02, 0.07)]
        ]
        cache: dict = {}
        c0s, c1s = [], []
        for sep in (4, 8, 16):
            c0, c1, _ = superposition_compare(
                kb, [(0,), (sep,)], pts, base_cache=cache
            )
            c0s.append(c0)
            c1s.append(c1)
        ok = strictly_decreasing(c0s) and strictly_decreasing(c1s)
        return [
            CheckEntry(
                name="superposition_limit",
                claim="the joint reduced energy of two translates approaches the sum "
                "of single-bump reduced energies as separation grows",
                operation="multibump.superposition_compare",
                measured={"separations": [4, 8, 16], "value_gaps": c0s, "gradient_gaps": c1s},
                tolerance="both gap sequences strictly decreasing",
                passed=ok,
            )
        ]

    def check_interaction_decay(self) -> list[CheckEntry]:
        S = self.S(48)
        base = self.base(48)
        one = GridField.constant(S.domain, 1.0)
        defects = []
        for sep in (4, 8, 16):
            pair = [base.field, translate(base.field, (-sep,))]
            defects.append(interaction_defect(pair, one, one, self.nl))
        return [
            CheckEntry(
                name="interaction_decay",
                claim="the nonlinear coupling defect of two translated bumps decays "
                "with their separation",
                operation="functional.interaction_defect",
                measured={"separations": [4, 8, 16], "defects": defects},
                tolerance="strictly decreasing",
                passed=strictly_decreasing(defects),
            )
        ]

    def check_multibump(self) -> list[CheckEntry]:
        entries = []
        S32 = self.S(32)
        kb32 = self.kb(32)
        res1 = solve_multibump(build_problem(kb32, [(0,)], S32), S32, self.nl)
        gap1 = float(
            np.abs(res1.field.values - self.base(32).field.values).max()
        )
        entries.append(
            CheckEntry(
                name="multibump_identity",
                claim="gluing a single copy at the origin returns the base solution",
                operation="multibump.solve_multibump",
                measured={
                    "w_norm": res1.correction_norm,
                    "x_norm": res1.reduced_coords_norm,
                    "field_gap": gap1,
                },
                tolerance="w <= 1e-9; x == 0; field gap <= 1e-8",
                passed=res1.correction_norm <= 1e-9
                and res1.reduced_coords_norm == 0.0
                and gap1 <= 1e-8,
            )
        )
        # the sweep's row at separation 16 glues the two-bump witness;
        # a failed row has no norms: null in the report, and its entries fail
        rows = separation_sweep(kb32, 2, [4, 8, 16], S32)
        two = next((r for r in rows if r["l_sep"] == 16.0), {})
        J0_32 = self.base(32).energy
        dev2 = max((abs(e - J0_32) / J0_32 for e in two.get("bump_energies", ())), default=None)
        S48 = self.S(48)
        kb48 = self.kb(48)
        res3 = solve_multibump(
            build_problem(kb48, [(0,), (16,), (32,)], S48), S48, self.nl
        )
        J0_48 = self.base(48).energy
        dev3 = max(abs(e - J0_48) / J0_48 for e in res3.bump_energies)
        entries.append(
            CheckEntry(
                name="multibump_witnesses",
                claim="two- and three-bump gluings converge to genuine critical "
                "points whose energy splits evenly across the bumps",
                operation="multibump.solve_multibump",
                measured={
                    "residual_2bump": two.get("residual"),
                    "residual_3bump": res3.residual,
                    "bump_energy_dev": [dev2, dev3],
                },
                tolerance="residuals <= 1e-8; per-bump energy within 5% of the base",
                passed=dev2 is not None
                and two["residual"] <= 1e-8
                and res3.residual <= 1e-8
                and dev2 <= 0.05
                and dev3 <= 0.05,
            )
        )
        ws = [r.get("w_norm") for r in rows]
        xs = [r.get("x_norm") for r in rows]
        ok = (
            all("failed" not in r for r in rows)
            and strictly_decreasing(ws)
            and strictly_decreasing(xs)
        )
        entries.append(
            CheckEntry(
                name="multibump_decay",
                claim="the gluing correction and the reduced coordinates both die "
                "off as the bumps separate",
                operation="multibump.separation_sweep",
                measured={
                    "separations": [4, 8, 16],
                    "w_norms": ws,
                    "x_norms": xs,
                    "energy_defects": [r.get("energy_defect") for r in rows],
                },
                tolerance="w and |x| strictly decreasing",
                passed=ok,
            )
        )
        return entries

    def check_multiplicity(self) -> list[CheckEntry]:
        S = self.S(8)
        found = deflated_search(
            [self.base(8)], 50, S, self.nl, rng=self.rng(11)
        )
        return [
            CheckEntry(
                name="multiplicity_witness",
                claim="random restarts produce at least two solutions distinct from "
                "the base and from each other modulo translations",
                operation="solver.deflated_search",
                measured={
                    "tries": 50,
                    "distinct_found": len(found),
                    "energies": sorted(r.energy for r in found),
                },
                tolerance=">= 2 distinct nontrivial solutions",
                passed=len(found) >= 2,
            )
        ]

    @property
    def checks(self) -> tuple:
        """Every check, bound to this session, in report order."""
        return (
            self.check_spectral_gap,
            self.check_band_consistency,
            self.check_norm_equivalence,
            self.check_calculus,
            self.check_nontrivial_solution,
            self.check_linking,
            self.check_reduction_identities,
            self.check_superposition_limit,
            self.check_interaction_decay,
            self.check_multibump,
            self.check_multiplicity,
        )

    def run_all(self) -> LemmaReport:
        """Every check once, each timed on the wall clock."""
        report = LemmaReport(seed=self.seed)
        for check in self.checks:
            started = time.monotonic()
            entries = check()
            report.seconds[check.__name__] = time.monotonic() - started
            report.producer.update((e.name, check.__name__) for e in entries)
            report.entries.extend(entries)
        return report


def run_verification(seed: int = 0, determinism: bool = True) -> LemmaReport:
    """Full suite; optionally reruns it to certify seed-determinism."""
    report = VerificationSession(seed).run_all()
    if determinism:
        second = VerificationSession(seed).run_all()
        report.seconds["determinism"] = sum(second.seconds.values())
        identical = report.to_json() == second.to_json()
        report.entries.append(
            CheckEntry(
                name="determinism",
                claim="the whole suite reruns byte-identically under the same seed",
                operation="verify.run_verification",
                measured={"identical": identical},
                tolerance="byte-identical JSON",
                passed=identical,
            )
        )
    return report
