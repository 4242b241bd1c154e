"""Gluing widely separated copies of a base solution into one solution.

Lyapunov-Schmidt in one loop: at each kernel offset x the superposition
is corrected orthogonally to the joint near-kernel, and a reduced Newton
step moves x towards a critical point of the reduced energy; the first
correction, at x = 0, is the classical phase 1. Unconstrained Newton then
polishes the result. Separation sweeps record how the correction, the
kernel coordinates, and the energy defect die off as the copies move
apart; the superposition diagnostic compares the joint reduced energy
with the sum of single-bump ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from numpy.typing import NDArray

from .functional import Nonlinearity, energy_density, hessian_model, solve_symmetric
from .operator import SpectralDecomposition
from .reduction import (
    GapReference, KernelBasis, _embed_field, _projected_newton, joint_kernel_matrix, kernel_combination, solve_w,
)
from .solver import NoConvergence, SolverOptions, find_critical_point
from .torus import GridField, min_image

# phase 2 (reduced Newton) stops once |X^T grad J| falls to this
REDUCED_TOL = 1e-9
MAX_REDUCED_ITERS = 30
# the gluing refuses closer centers, and needs a near-orthonormal joint block from here
SEPARATION_FLOOR = 4.0


class CentersCollide(ValueError):
    """Two bump centers coincide on the torus."""


class SeparationTooSmall(ValueError):
    """Minimal center separation is under the configured floor."""


class KernelOverlap(ValueError):
    """Translated kernel fields far from orthonormal at separated centers."""


class GluingUnstable(RuntimeError):
    """Final polish drifted far from the assembled multibump."""


def periodic_separation(
    centers: list[tuple[int, ...]], cells: int
) -> float:
    """Smallest pairwise center distance, each axis wrapped."""
    if len(centers) < 2:
        return float("inf")
    c = np.asarray(centers, dtype=float)
    i, j = np.triu_indices(len(centers), 1)
    d = min_image(c[i] - c[j], cells)
    return float(np.sqrt((d * d).sum(axis=1)).min())


@dataclass(frozen=True)
class MultibumpProblem:
    """A gluing instance: base kernel data, target centers, target space.

    glued_a is the sum of the base's copies at the centers in
    a-coordinates. joint_raw holds the translated kernel fields as
    a-columns: the x-coordinate basis, near-orthonormal for separated
    centers, whose span the correction stays orthogonal to.
    """

    kb: KernelBasis
    centers: tuple[tuple[int, ...], ...]
    S: SpectralDecomposition
    l_sep: float
    glued_a: NDArray[np.float64]
    joint_raw: NDArray[np.float64]

    @property
    def m(self) -> int:
        return len(self.centers)

    @property
    def joint_dim(self) -> int:
        return int(self.joint_raw.shape[1])

    @property
    def gram_offdiag(self) -> float:
        """The largest entry of X^T X - I, X = joint_raw."""
        if not self.joint_dim:
            return 0.0
        gram = self.joint_raw.T @ self.joint_raw
        return float(np.abs(gram - np.eye(self.joint_dim)).max())


def build_problem(
    kb: KernelBasis,
    centers: list[tuple[int, ...]],
    S: SpectralDecomposition,
) -> MultibumpProblem:
    """Glue translated copies of kb's base at `centers` on the torus of S.

    The base is embedded once (with the boundary cutoff, from a smaller
    torus) and turned to each center (S.translate). Refuses colliding
    centers, and translated kernel fields far from orthonormal although
    the centers sit SEPARATION_FLOOR cells apart.
    """
    seen = set()
    for b in centers:
        if len(b) != S.domain.dim:
            raise ValueError(f"center {b} has wrong dimension")
        key = tuple(int(c) % S.domain.cells for c in b)
        if key in seen:
            raise CentersCollide(f"center {b} duplicates another modulo {S.domain.cells}")
        seen.add(key)
    base_a = S.a_from_field(_embed_field(kb.base.field, S.domain))
    l_sep = periodic_separation(centers, S.domain.cells)
    raw = joint_kernel_matrix(kb, centers, S)
    prob = MultibumpProblem(
        kb=kb,
        centers=tuple(tuple(int(c) for c in b) for b in centers),
        S=S,
        l_sep=l_sep,
        glued_a=sum((S.translate(base_a, b) for b in centers), np.zeros(S.num_modes)),
        joint_raw=raw,
    )
    if l_sep >= SEPARATION_FLOOR and prob.joint_dim:
        if prob.gram_offdiag > 0.1:
            raise KernelOverlap(
                f"translated kernel fields too far from orthonormal "
                f"(offdiag {prob.gram_offdiag:.3f}) despite separation {l_sep}"
            )
    return prob


@dataclass(frozen=True)
class MultibumpResult:
    field: GridField
    residual: float
    correction_norm: float
    reduced_coords_norm: float
    bump_energies: tuple[float, ...]
    polish_iters: int
    phase2_iters: int
    drift: float


def _voronoi_labels(
    mesh: list[NDArray[np.float64]], cells: int, centers: tuple[tuple[int, ...], ...]
) -> NDArray[np.int_]:
    """The nearest center to each point of a coordinate mesh on the torus
    of `cells` cells, axes wrapped; ties go to the lowest center index so
    the split is deterministic."""
    best_d = np.full(mesh[0].shape, np.inf)
    labels = np.zeros(mesh[0].shape, dtype=int)
    for idx, b in enumerate(centers):
        sq = np.zeros(mesh[0].shape)
        for ax, g in enumerate(mesh):
            d = min_image(g - float(b[ax]), cells)
            sq = sq + d * d
        closer = sq < best_d - 1e-12
        best_d = np.where(closer, sq, best_d)
        labels = np.where(closer, idx, labels)
    return labels


def bump_energy_split(
    u: GridField,
    S: SpectralDecomposition,
    nl: Nonlinearity,
    centers: tuple[tuple[int, ...], ...],
) -> tuple[float, ...]:
    """J(u) split among the bumps: each of J's own terms summed over the
    points nearest each center, so the parts sum to J to rounding.

    The quadratic part is 1/2 u (-Lap + V) u on the torus grid, with
    (-Lap + V) u = values_from_a(lambda a); the nonlinear part is qw F on
    the nonlinearity's evaluation grid, labelled on that grid.
    """
    dom = u.domain
    Lu = S.values_from_a(S.eigenvalues * S.a_from_field(u))
    quad = 0.5 * dom.spacing**dom.dim * u.values * Lu
    F, mesh = energy_density(S, nl, u)
    quad_labels = _voronoi_labels(dom.meshgrid(), dom.cells, centers)
    F_labels = _voronoi_labels(mesh, dom.cells, centers)
    return tuple(
        float(quad[quad_labels == i].sum() - F[F_labels == i].sum())
        for i in range(len(centers))
    )


def solve_multibump(
    prob: MultibumpProblem,
    S: SpectralDecomposition,
    nl: Nonlinearity,
    opts: SolverOptions = SolverOptions(),
) -> MultibumpResult:
    """Glue translated copies of the base into a genuine critical point.

    Each iteration corrects the glued point at the current kernel
    coordinates x orthogonally to the joint kernel block, warm-started
    from the previous correction. It stops once the reduced gradient
    X^T grad J is at most REDUCED_TOL, and otherwise takes a reduced
    Newton step (the Hessian model's `reduced_hessian`) clipped to the
    trust ball. Iteration 0 corrects at x = 0: that is phase 1, and
    phase2_iters counts the Newton steps after it. Every correction
    shares one `GapReference.at_start`: the first corrector model, the
    glued start, counts the joint block's gap once, and the later ones
    certify their monitor from it. An empty kernel block gives a reduced
    gradient of size 0 and stops at iteration 0. Phase 3 polishes with
    the full unprojected solver and checks that the polish stayed within
    the deflation radius. Every phase works on prob.S and the energy of
    prob.kb.nl; `S` must be that decomposition and `nl` equal that
    nonlinearity, or ValueError is raised.
    """
    if S is not prob.S:
        raise ValueError("S is not the decomposition the problem was built on (prob.S)")
    if nl != prob.kb.nl:
        raise ValueError("nl differs from the nonlinearity the kernel was split with (prob.kb.nl)")
    if prob.m >= 2 and prob.l_sep < SEPARATION_FLOOR:
        raise SeparationTooSmall(
            f"separation {prob.l_sep:g} below floor {SEPARATION_FLOOR:g}"
        )
    raw = prob.joint_raw
    ball = prob.kb.delta0
    reference = GapReference.at_start(prob.kb)
    x = np.zeros(prob.joint_dim)
    w = None
    for phase2_iters in range(MAX_REDUCED_ITERS):
        center = prob.glued_a + raw @ x
        try:
            w, _, _, g = _projected_newton(prob.S, nl, center, raw, prob.kb.eta, w, reference)
        except NoConvergence as err:
            raise NoConvergence(f"phase 1 (projected correction): {err}") from err
        a_full = center + w
        G = raw.T @ g
        if float(np.linalg.norm(G)) <= REDUCED_TOL:
            break
        Hred = hessian_model(prob.S, nl, a_full, raw).reduced_hessian()
        try:
            step = solve_symmetric(Hred, -G)
        except scipy.linalg.LinAlgError as err:
            raise NoConvergence(f"phase 2 (reduced Newton): {err}") from err
        x = x + step
        if float(np.linalg.norm(x)) > ball:
            x *= ball / float(np.linalg.norm(x))
    else:
        raise NoConvergence(
            f"phase 2 (reduced Newton): no convergence in {MAX_REDUCED_ITERS} iters"
        )

    assembled = prob.S.field_from_a(a_full)
    try:
        polished = find_critical_point(assembled, prob.S, nl, opts)
    except NoConvergence as err:
        raise NoConvergence(f"phase 3 (polish): {err}") from err
    drift = float(np.linalg.norm(prob.S.a_from_field(polished.field) - a_full))
    if drift > opts.deflation_radius:
        raise GluingUnstable(
            f"polish drifted {drift:.3e} from the assembly "
            f"(radius {opts.deflation_radius:g})"
        )
    return MultibumpResult(
        field=polished.field,
        residual=polished.residual,
        correction_norm=float(np.linalg.norm(w)),
        reduced_coords_norm=float(np.linalg.norm(x)),
        bump_energies=bump_energy_split(polished.field, prob.S, nl, prob.centers),
        polish_iters=polished.iterations,
        phase2_iters=phase2_iters,
        drift=drift,
    )


def separation_sweep(
    kb: KernelBasis,
    m: int,
    l_values: list[int],
    S: SpectralDecomposition,
    opts: SolverOptions = SolverOptions(),
) -> list[dict]:
    """solve_multibump per separation, with the base's nonlinearity kb.nl;
    failed rows carry their error.

    Centers sit at 0, l, 2l, ... along the first axis. Rows report the
    correction norm, reduced-coordinate norm, residual, and the energy
    defect against m copies of the base level.
    """
    if sorted(l_values) != list(l_values):
        raise ValueError("l_values must be ascending")
    base_J = kb.base.energy
    rows: list[dict] = []
    for l in l_values:
        centers = [
            (i * l,) + (0,) * (S.domain.dim - 1) for i in range(m)
        ]
        row: dict = {"l_sep": float(l), "centers": centers}
        try:
            prob = build_problem(kb, centers, S)
            res = solve_multibump(prob, S, kb.nl, opts)
        except (ValueError, RuntimeError) as err:
            row["failed"] = f"{type(err).__name__}: {err}"
            rows.append(row)
            continue
        row.update(
            {
                "w_norm": res.correction_norm,
                "x_norm": res.reduced_coords_norm,
                "residual": res.residual,
                "energy_defect": float(
                    sum(res.bump_energies) - m * base_J
                ),
                "bump_energies": list(res.bump_energies),
            }
        )
        rows.append(row)
    return rows


def superposition_compare(
    kb: KernelBasis,
    centers: list[tuple[int, ...]],
    sample_points: list[NDArray[np.float64]],
    base_cache: dict | None = None,
) -> tuple[float, float, list[dict]]:
    """Joint reduced energy of several translates vs the sum of singles.

    Every sample point x concatenates one length-l coordinate block per
    center. The joint side corrects the glued problem of build_problem
    at x, every sample point's corrector certified from one
    `GapReference.at_start`, which the first model counted measures; the
    single-bump side evaluates the base reduced energy at each block.
    Returns the largest value gap, the largest gradient gap, and the
    per-point rows.
    """
    if len(centers) < 1:
        raise ValueError("need at least one center")
    prob = build_problem(kb, centers, kb.S)
    m = prob.m
    l = kb.l
    cache = {} if base_cache is None else base_cache

    def single(x_block: NDArray[np.float64]):
        key = tuple(np.round(x_block, 14))
        if key not in cache:
            cache[key] = solve_w(kb, kernel_combination(kb, x_block))
        return cache[key]

    reference = GapReference.at_start(kb)
    rows: list[dict] = []
    max_c0 = 0.0
    max_c1 = 0.0
    for x in sample_points:
        x = np.asarray(x, dtype=float)
        if x.shape != (m * l,):
            raise ValueError(f"sample point must have {m * l} coordinates")
        center = prob.glued_a + prob.joint_raw @ x
        _, iters, I_joint, g = _projected_newton(prob.S, kb.nl, center, prob.joint_raw, kb.eta, reference=reference)
        dI_joint = prob.joint_raw.T @ g
        singles = [single(x[i * l : (i + 1) * l]) for i in range(m)]
        I_sum = sum(s.I for s in singles)
        dI_sum = np.concatenate([s.dI for s in singles])
        c0 = abs(float(I_joint) - I_sum)
        c1 = float(np.abs(dI_joint - dI_sum).max()) if l else 0.0
        max_c0 = max(max_c0, c0)
        max_c1 = max(max_c1, c1)
        rows.append(
            {
                "x": x.tolist(),
                "I_joint": float(I_joint),
                "I_sum": float(I_sum),
                "value_gap": c0,
                "gradient_gap": c1,
                "newton_iters": iters,
                "gram_offdiag": prob.gram_offdiag,
            }
        )
    return max_c0, max_c1, rows
