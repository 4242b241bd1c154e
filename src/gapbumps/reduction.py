"""Finite-dimensional reduction at a converged solution.

Splits the space at a base critical point into a low-dimensional
near-kernel of the Hessian and its orthogonal complement, solves the
complement equation by projected Newton, and studies the resulting
reduced energy: its gradient, its Morse data at the origin, and how
close it comes to a sum of one-bump reduced energies when the base is
translated to several sites.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from numpy.typing import NDArray

from .functional import Nonlinearity, a_gradient, a_hessian, a_value_and_gradient
from .operator import SpectralDecomposition
from .solver import KERNEL_TAU, NoConvergence, SolutionRecord, kernel_split
from .torus import GridField, embed_with_cutoff, translate


class AllKernel(RuntimeError):
    """Every Hessian direction fell under the kernel threshold."""


class OutOfBall(ValueError):
    """Requested kernel offset lies outside the trust ball."""


W_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class KernelBasis:
    """Near-kernel directions of the Hessian at `base`, plus context.

    Columns of E are exact Hessian eigenvectors in energy coordinates,
    so they are orthonormal in (.,.)_k and the complement block of the
    Hessian stays block-diagonal to solver accuracy. eta bounds the
    inverse of that complement block; delta0 = 0.3/eta is the radius of
    the offset ball inside which solve_w is trusted.
    """

    base: SolutionRecord
    S: SpectralDecomposition
    nl: Nonlinearity
    tau: float
    E: NDArray[np.float64]
    eta: float
    hessian_scale: float
    base_a: NDArray[np.float64]

    @property
    def l(self) -> int:
        return int(self.E.shape[1])

    @property
    def delta0(self) -> float:
        return 0.3 / self.eta

    @property
    def fields(self) -> tuple[GridField, ...]:
        return tuple(
            self.S.field_from_a(self.E[:, j]) for j in range(self.E.shape[1])
        )

    def coords_of(self, h: GridField) -> NDArray[np.float64]:
        return self.E.T @ self.S.a_from_field(h)


@dataclass(frozen=True)
class ReducedSample:
    x: NDArray[np.float64]
    w: GridField
    I: float
    dI: NDArray[np.float64]
    newton_iters: int
    w_norm: float


def detect_kernel(
    rec: SolutionRecord,
    S: SpectralDecomposition,
    nl: Nonlinearity,
    tau: float = KERNEL_TAU,
) -> KernelBasis:
    """Diagonalize the Hessian at `rec`, split off |mu| < tau * scale.

    tau is relative to the spectral radius of the Hessian. Everything
    selected goes into the kernel block Lambda; eta comes from the
    smallest surviving |mu|.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    a = S.a_from_field(rec.field)
    H = a_hessian(S, nl, a)
    mu, vecs = scipy.linalg.eigh(H)
    near, scale = kernel_split(mu, tau)
    if near.all():
        raise AllKernel(f"all {mu.size} directions below tau*scale = {tau * scale:g}")
    excluded_min = float(np.abs(mu[~near]).min())
    E = vecs[:, near].copy()
    return KernelBasis(
        base=rec,
        S=S,
        nl=nl,
        tau=tau,
        E=E,
        eta=1.0 / excluded_min,
        hessian_scale=scale,
        base_a=a,
    )


def kernel_combination(kb: KernelBasis, x: NDArray[np.float64]) -> GridField:
    x = np.asarray(x, dtype=float)
    if x.shape != (kb.l,):
        raise ValueError(f"expected {kb.l} coordinates, got shape {x.shape}")
    return kb.S.field_from_a(kb.E @ x)


def _projected_newton(
    S: SpectralDecomposition,
    nl: Nonlinearity,
    a_center: NDArray[np.float64],
    E: NDArray[np.float64],
    tol: float = W_RESIDUAL_TOL,
    max_iters: int = 60,
    eta_ceiling: float | None = None,
    push: float = 1.0,
    w0: NDArray[np.float64] | None = None,
) -> tuple[NDArray[np.float64], int, float]:
    """Solve P grad J(a_center + w) = 0 for w orthogonal to span(E).

    The linear solve uses PHP + push*E E^T, whose kernel-block
    eigenvalues sit at `push`; right-hand sides in the complement keep
    the correction there automatically, and we re-project anyway to
    stop roundoff drift. Monitors the complement conditioning and
    aborts once 1/min|eig| exceeds eta_ceiling (set from the first
    iterate when not given).

    Returns (w, iterations, eta at first iterate).
    """

    def project(v: NDArray[np.float64]) -> NDArray[np.float64]:
        return v - E @ (E.T @ v) if E.size else v

    w = np.zeros_like(a_center) if w0 is None else project(w0.copy())
    eta_first = np.nan
    for iteration in range(max_iters):
        g = a_gradient(S, nl, a_center + w)
        R = project(g)
        if float(np.linalg.norm(R)) <= tol:
            return w, iteration, eta_first
        H = a_hessian(S, nl, a_center + w)
        if E.size:
            HE = H @ E
            M = H - HE @ E.T - E @ HE.T + E @ (E.T @ HE) @ E.T + push * (E @ E.T)
            M = 0.5 * (M + M.T)
        else:
            M = H
        eigs = np.abs(scipy.linalg.eigvalsh(M))
        eta_now = 1.0 / float(eigs.min())
        if iteration == 0:
            eta_first = eta_now
            if eta_ceiling is None:
                eta_ceiling = 2.0 * eta_now
        if eta_now > eta_ceiling:
            raise NoConvergence(
                f"complement block degenerating: 1/min|eig| = {eta_now:.3e} "
                f"exceeds ceiling {eta_ceiling:.3e}"
            )
        d = scipy.linalg.solve(M, -R, assume_a="sym")
        w = project(w + d)
    raise NoConvergence(f"projected equation not solved in {max_iters} iterations")


def solve_w(
    kb: KernelBasis,
    h: GridField,
    w0: GridField | None = None,
    residual_tol: float = W_RESIDUAL_TOL,
    max_iters: int = 60,
) -> ReducedSample:
    """Correction w(h) orthogonal to the kernel block, plus I and dI.

    h must lie in the kernel block and inside the delta0 ball. The
    reduced gradient dI pairs the full gradient with the kernel fields;
    no w-derivative term appears because the complement equation kills
    it.
    """
    ha = kb.S.a_from_field(h)
    hnorm = float(np.linalg.norm(ha))
    in_block = float(np.linalg.norm(ha - kb.E @ (kb.E.T @ ha)))
    if in_block > 1e-8 * max(1.0, hnorm):
        raise ValueError("h has a component outside the kernel block")
    if hnorm > kb.delta0:
        raise OutOfBall(f"|||h||| = {hnorm:.4g} exceeds delta0 = {kb.delta0:.4g}")
    a_center = kb.base_a + ha
    w0_a = kb.S.a_from_field(w0) if w0 is not None else None
    w_a, iters, _ = _projected_newton(
        kb.S,
        kb.nl,
        a_center,
        kb.E,
        tol=residual_tol,
        max_iters=max_iters,
        eta_ceiling=2.0 * kb.eta,
        push=kb.hessian_scale,
        w0=w0_a,
    )
    a_full = a_center + w_a
    I, g = a_value_and_gradient(kb.S, kb.nl, a_full)
    return ReducedSample(
        x=kb.E.T @ ha,
        w=kb.S.field_from_a(w_a),
        I=float(I),
        dI=kb.E.T @ g,
        newton_iters=iters,
        w_norm=float(np.linalg.norm(w_a)),
    )


def fd_hessian(
    value, x: NDArray[np.float64], step: float
) -> NDArray[np.float64]:
    """Hessian of `value` at x by central second differences.

    Off-diagonal entries use the symmetric four-point formula, so the
    matrix is symmetric by construction.
    """
    n = x.size
    H = np.zeros((n, n))
    f0 = value(x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = step
        H[i, i] = (value(x + ei) - 2.0 * f0 + value(x - ei)) / step**2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = step
            H[i, j] = H[j, i] = (
                value(x + ei + ej)
                + value(x - ei - ej)
                - value(x + ei - ej)
                - value(x - ei + ej)
            ) / (4.0 * step**2)
    return H


@dataclass(frozen=True)
class OriginClassification:
    morse_index: int
    degenerate_flag: bool
    reduced_hessian: NDArray[np.float64]


def classify_origin(
    kb: KernelBasis,
    grid_radius: float | None = None,
    stencil: int = 3,
) -> OriginClassification:
    """Morse data of the reduced energy at x = 0 by central differences.

    The reduced Hessian comes from fd_hessian, symmetric by construction.
    Eigenvalues within 1e-6 of the Hessian scale flag a degenerate origin.
    """
    if kb.l == 0:
        raise ValueError("kernel block is empty, nothing to classify")
    if stencil < 3 or stencil % 2 == 0:
        raise ValueError("stencil must be an odd integer >= 3")
    radius = kb.delta0 * 0.5 if grid_radius is None else grid_radius
    if radius <= 0 or radius > kb.delta0:
        raise ValueError("grid_radius must lie in (0, delta0]")
    step = radius / (stencil // 2)
    cache: dict[tuple[float, ...], float] = {}

    def I_at(x: NDArray[np.float64]) -> float:
        key = tuple(np.round(x, 14))
        if key not in cache:
            cache[key] = solve_w(kb, kernel_combination(kb, x)).I
        return cache[key]

    Hred = fd_hessian(I_at, np.zeros(kb.l), step)
    eigs = scipy.linalg.eigvalsh(Hred)
    # degeneracy is judged against the full Hessian's spectral radius;
    # the reduced matrix's own max would make a flat profile look sharp
    near = np.abs(eigs) < 1e-6 * kb.hessian_scale
    morse = int(((eigs < 0) & ~near).sum())
    return OriginClassification(morse, bool(near.any()), Hred)


def _embed_field(f: GridField, target_S: SpectralDecomposition) -> GridField:
    if f.domain.compatible(target_S.domain):
        return f
    return embed_with_cutoff(f, target_S.domain)


def joint_kernel_matrix(
    kb: KernelBasis,
    centers: list[tuple[int, ...]],
    target_S: SpectralDecomposition,
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Translated kernel fields at each center, as columns in a-coords.

    Returns (raw columns, their Gram matrix in (.,.)_k). Raw columns
    keep the product structure x_{i,j}; orthonormalize separately when
    a projector is needed.
    """
    cols = []
    for b in centers:
        shift = tuple(-int(c) for c in b)  # translate(f, -b) = f(. - b), copy at b
        for j in range(kb.l):
            e = _embed_field(kb.S.field_from_a(kb.E[:, j]), target_S)
            cols.append(target_S.a_from_field(translate(e, shift)))
    raw = np.column_stack(cols) if cols else np.zeros((target_S.num_modes, 0))
    return raw, raw.T @ raw


def superposition_compare(
    kb: KernelBasis,
    centers: list[tuple[int, ...]],
    sample_points: list[NDArray[np.float64]],
    target_S: SpectralDecomposition | None = None,
    base_cache: dict | None = None,
) -> tuple[float, float, list[dict]]:
    """Joint reduced energy of several translates vs the sum of singles.

    Every sample point x concatenates one length-l coordinate block per
    center. The joint side glues the translated base copies, forms the
    joint kernel block from translated kernel fields, and solves the
    projected equation; the single-bump side evaluates the base reduced
    energy at each block. Returns the largest value gap, the largest
    gradient gap, and the per-point rows.
    """
    if len(centers) < 1:
        raise ValueError("need at least one center")
    S_t = kb.S if target_S is None else target_S
    m = len(centers)
    l = kb.l

    base_embedded = _embed_field(kb.base.field, S_t)
    glued_a = np.zeros(S_t.num_modes)
    for b in centers:
        shift = tuple(-int(c) for c in b)
        glued_a = glued_a + S_t.a_from_field(translate(base_embedded, shift))

    raw, gram = joint_kernel_matrix(kb, centers, S_t)
    if raw.shape[1]:
        Eo, _ = np.linalg.qr(raw)
    else:
        Eo = raw

    cache = {} if base_cache is None else base_cache

    def single(x_block: NDArray[np.float64]) -> ReducedSample:
        key = tuple(np.round(x_block, 14))
        if key not in cache:
            cache[key] = solve_w(kb, kernel_combination(kb, x_block))
        return cache[key]

    rows: list[dict] = []
    max_c0 = 0.0
    max_c1 = 0.0
    for x in sample_points:
        x = np.asarray(x, dtype=float)
        if x.shape != (m * l,):
            raise ValueError(f"sample point must have {m * l} coordinates")
        a_center = glued_a + (raw @ x if raw.size else 0.0)
        w_a, iters, _ = _projected_newton(
            kb.S if target_S is None else target_S,
            kb.nl,
            a_center,
            Eo,
            tol=W_RESIDUAL_TOL,
        )
        a_full = a_center + w_a
        I_joint, g = a_value_and_gradient(S_t, kb.nl, a_full)
        dI_joint = raw.T @ g if raw.size else np.zeros(0)
        singles = [single(x[i * l : (i + 1) * l]) for i in range(m)]
        I_sum = sum(s.I for s in singles)
        dI_sum = (
            np.concatenate([s.dI for s in singles]) if l else np.zeros(0)
        )
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
                "gram_offdiag": float(
                    np.abs(gram - np.eye(gram.shape[0])).max() if gram.size else 0.0
                ),
            }
        )
    return max_c0, max_c1, rows
