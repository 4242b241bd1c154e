"""Gluing widely separated copies of a base solution into one solution.

Three phases: correct the raw superposition orthogonally to the joint
near-kernel, move the kernel coordinates to a critical point of the
reduced energy, then polish with unconstrained Newton. Separation sweeps
record how the correction, the kernel coordinates, and the energy defect
die off as the copies move apart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from numpy.typing import NDArray

from .functional import Nonlinearity, a_gradient, a_value_and_gradient
from .operator import SpectralDecomposition
from .reduction import KernelBasis, _projected_newton, fd_hessian, joint_kernel_matrix
from .solver import NoConvergence, SolverOptions, find_critical_point
from .torus import GridField, TorusDomain, embed_with_cutoff, spectral_gradient, translate


class CentersCollide(ValueError):
    """Two bump centers coincide on the torus."""


class SeparationTooSmall(ValueError):
    """Minimal center separation is under the configured floor."""


class GluingUnstable(RuntimeError):
    """Final polish drifted far from the assembled multibump."""


def periodic_separation(
    centers: list[tuple[int, ...]], cells: int
) -> float:
    """Smallest pairwise center distance, each axis wrapped."""
    if len(centers) < 2:
        return float("inf")
    best = np.inf
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            sq = 0.0
            for a, b in zip(centers[i], centers[j]):
                d = abs(a - b) % cells
                d = min(d, cells - d)
                sq += float(d) ** 2
            best = min(best, np.sqrt(sq))
    return float(best)


def _require_distinct(centers: list[tuple[int, ...]], cells: int) -> None:
    seen = set()
    for b in centers:
        key = tuple(int(c) % cells for c in b)
        if key in seen:
            raise CentersCollide(f"center {b} duplicates another modulo {cells}")
        seen.add(key)


def superpose(
    base: GridField,
    centers: list[tuple[int, ...]],
    domain: TorusDomain,
) -> GridField:
    """Sum of copies of `base` translated to each center.

    The base is embedded (with the boundary cutoff) first when it lives
    on a smaller torus of the same resolution.
    """
    _require_distinct(centers, domain.cells)
    f = base if base.domain.compatible(domain) else embed_with_cutoff(base, domain)
    total = np.zeros(domain.shape)
    for b in centers:
        # translate(f, -b) = f(. - b): the copy sits at b
        total = total + translate(f, tuple(-int(c) for c in b)).values
    return GridField(domain, total)


@dataclass(frozen=True)
class MultibumpProblem:
    """A gluing instance: base kernel data, target centers, target space.

    joint_raw holds the translated kernel fields as a-columns (the
    x-coordinate basis, near-orthonormal for separated centers);
    joint_gram is kept for the orthogonality diagnostic.
    """

    kb: KernelBasis
    centers: tuple[tuple[int, ...], ...]
    S: SpectralDecomposition
    l_sep: float
    joint_raw: NDArray[np.float64]
    joint_gram: NDArray[np.float64]

    @property
    def m(self) -> int:
        return len(self.centers)

    @property
    def joint_dim(self) -> int:
        return int(self.joint_raw.shape[1])

    @property
    def gram_offdiag(self) -> float:
        if not self.joint_gram.size:
            return 0.0
        return float(np.abs(self.joint_gram - np.eye(self.joint_gram.shape[0])).max())


def build_problem(
    kb: KernelBasis,
    centers: list[tuple[int, ...]],
    S: SpectralDecomposition,
) -> MultibumpProblem:
    k = S.domain.cells
    for b in centers:
        if len(b) != S.domain.dim:
            raise ValueError(f"center {b} has wrong dimension")
    _require_distinct(centers, k)
    l_sep = periodic_separation(centers, k)
    raw, gram = joint_kernel_matrix(kb, centers, S)
    prob = MultibumpProblem(
        kb=kb,
        centers=tuple(tuple(int(c) for c in b) for b in centers),
        S=S,
        l_sep=l_sep,
        joint_raw=raw,
        joint_gram=gram,
    )
    if l_sep >= 4 and prob.joint_dim:
        if prob.gram_offdiag > 0.1:
            raise ValueError(
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
    domain: TorusDomain, centers: tuple[tuple[int, ...], ...]
) -> NDArray[np.int_]:
    # nearest center per grid point, axes wrapped; ties go to the lowest
    # center index so the split is deterministic
    k = float(domain.cells)
    grids = domain.meshgrid()
    best_d = np.full(domain.shape, np.inf)
    labels = np.zeros(domain.shape, dtype=int)
    for idx, b in enumerate(centers):
        sq = np.zeros(domain.shape)
        for ax, g in enumerate(grids):
            d = g - float(b[ax])
            d -= k * np.round(d / k)
            sq = sq + d * d
        closer = sq < best_d - 1e-12
        best_d = np.where(closer, sq, best_d)
        labels = np.where(closer, idx, labels)
    return labels


def energy_density(
    u: GridField, S: SpectralDecomposition, nl: Nonlinearity
) -> NDArray[np.float64]:
    """Pointwise integrand of J: half the quadratic density minus F."""
    Vvals = S.potential.evaluate(u.domain)
    grads = spectral_gradient(u)
    quad = np.zeros(u.domain.shape)
    for g in grads:
        quad = quad + g.values**2
    h = nl.weight_values(u.domain)
    return 0.5 * (quad + Vvals * u.values**2) - nl.F(u.values, h)


def bump_energy_split(
    u: GridField,
    S: SpectralDecomposition,
    nl: Nonlinearity,
    centers: tuple[tuple[int, ...], ...],
) -> tuple[float, ...]:
    dens = energy_density(u, S, nl)
    labels = _voronoi_labels(u.domain, centers)
    cell = u.domain.spacing ** u.domain.dim
    return tuple(
        float(dens[labels == i].sum() * cell) for i in range(len(centers))
    )


def solve_multibump(
    prob: MultibumpProblem,
    S: SpectralDecomposition,
    nl: Nonlinearity,
    opts: SolverOptions = SolverOptions(),
    separation_floor: float = 4.0,
    w_tol: float = 1e-9,
    reduced_tol: float = 1e-9,
    max_reduced_iters: int = 30,
) -> MultibumpResult:
    """Glue translated copies of the base into a genuine critical point.

    Phase 1 solves the joint-kernel-projected equation at x = 0; phase 2
    runs Newton on the reduced coordinates (gradient from pairings,
    Hessian from central second differences), staying inside the trust
    ball; phase 3 polishes with the full unprojected solver and checks
    the polish stayed put. An empty kernel block skips phase 2.
    """
    if prob.m >= 2 and prob.l_sep < separation_floor:
        raise SeparationTooSmall(
            f"separation {prob.l_sep:g} below floor {separation_floor:g}"
        )
    glued = superpose(prob.kb.base.field, list(prob.centers), S.domain)
    glued_a = S.a_from_field(glued)
    raw = prob.joint_raw
    if prob.joint_dim:
        Eo, _ = np.linalg.qr(raw)
    else:
        Eo = raw

    def correction(x: NDArray[np.float64], w0: NDArray[np.float64] | None):
        center = glued_a + (raw @ x if x.size else 0.0)
        try:
            w, iters, _ = _projected_newton(
                S, nl, center, Eo, tol=w_tol, w0=w0, push=prob.kb.hessian_scale
            )
        except NoConvergence as err:
            raise NoConvergence(f"phase 1 (projected correction): {err}") from err
        return center + w, w

    x = np.zeros(prob.joint_dim)
    a_full, w = correction(x, None)

    phase2_iters = 0
    if prob.joint_dim:
        ball = prob.kb.delta0
        fd_step = 1e-3

        def reduced_value(xv: NDArray[np.float64]) -> float:
            # warm-started from the current correction w
            return float(a_value_and_gradient(S, nl, correction(xv, w)[0])[0])

        for iteration in range(max_reduced_iters):
            a_full, w = correction(x, w)
            g_full = a_gradient(S, nl, a_full)
            G = raw.T @ g_full
            if float(np.linalg.norm(G)) <= reduced_tol:
                phase2_iters = iteration
                break
            Hred = fd_hessian(reduced_value, x, fd_step)
            try:
                step = scipy.linalg.solve(Hred, -G, assume_a="sym")
            except scipy.linalg.LinAlgError as err:
                raise NoConvergence(f"phase 2 (reduced Newton): {err}") from err
            xn = x + step
            if float(np.linalg.norm(xn)) > ball:
                xn *= ball / float(np.linalg.norm(xn))
            x = xn
        else:
            raise NoConvergence(
                f"phase 2 (reduced Newton): no convergence in {max_reduced_iters} iters"
            )
        a_full, w = correction(x, w)

    assembled = S.field_from_a(a_full)
    try:
        polished = find_critical_point(assembled, S, nl, opts)
    except NoConvergence as err:
        raise NoConvergence(f"phase 3 (polish): {err}") from err
    drift = float(np.linalg.norm(S.a_from_field(polished.field) - a_full))
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
        bump_energies=bump_energy_split(polished.field, S, nl, prob.centers),
        polish_iters=polished.iterations,
        phase2_iters=phase2_iters,
        drift=drift,
    )


def separation_sweep(
    kb: KernelBasis,
    m: int,
    l_values: list[int],
    S: SpectralDecomposition,
    nl: Nonlinearity,
    opts: SolverOptions = SolverOptions(),
) -> list[dict]:
    """solve_multibump per separation; failed rows carry their error.

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
            res = solve_multibump(prob, S, nl, opts)
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
