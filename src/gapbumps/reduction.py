"""Finite-dimensional reduction at a converged solution.

Splits the space at a base critical point into a low-dimensional
near-kernel of the Hessian and its orthogonal complement, solves the
complement equation by projected Newton, and studies the resulting
reduced energy: its gradient, its analytic Hessian and its Morse data at
the origin. Translated copies of the kernel fields span the joint block
of a multibump problem.
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
MAX_W_ITERS = 60


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


def _complement_matrix(
    H: NDArray[np.float64], E: NDArray[np.float64], push: float
) -> NDArray[np.float64]:
    """PHP + push*E E^T with P = 1 - E E^T, symmetrized.

    The complement block is PHP; the kernel block is lifted to `push`,
    so the matrix is invertible and its inverse acts as (PHP)^-1 on the
    complement.
    """
    if not E.size:
        return H
    HE = H @ E
    M = H - HE @ E.T - E @ HE.T + E @ (E.T @ HE) @ E.T + push * (E @ E.T)
    return 0.5 * (M + M.T)


def _projected_newton(
    S: SpectralDecomposition,
    nl: Nonlinearity,
    a_center: NDArray[np.float64],
    E: NDArray[np.float64],
    push: float,
    eta_ceiling: float | None = None,
    w0: NDArray[np.float64] | None = None,
) -> tuple[NDArray[np.float64], int]:
    """Solve P grad J(a_center + w) = 0 for w orthogonal to span(E).

    Newton from w0 (projected) or from 0, until |P grad J| <= W_RESIDUAL_TOL
    or MAX_W_ITERS iterations. The linear solve uses _complement_matrix,
    whose kernel-block eigenvalues sit at `push` (the Hessian scale, so
    they never pass for the smallest complement eigenvalue); right-hand
    sides in the complement keep the correction there automatically, and
    we re-project anyway to stop roundoff drift. Monitors the complement
    conditioning and aborts once 1/min|eig| exceeds eta_ceiling (set from
    the first iterate when not given).

    Returns (w, iterations).
    """

    def project(v: NDArray[np.float64]) -> NDArray[np.float64]:
        return v - E @ (E.T @ v) if E.size else v

    w = np.zeros_like(a_center) if w0 is None else project(w0.copy())
    for iteration in range(MAX_W_ITERS):
        g = a_gradient(S, nl, a_center + w)
        R = project(g)
        if float(np.linalg.norm(R)) <= W_RESIDUAL_TOL:
            return w, iteration
        M = _complement_matrix(a_hessian(S, nl, a_center + w), E, push)
        eigs = np.abs(scipy.linalg.eigvalsh(M))
        eta_now = 1.0 / float(eigs.min())
        if eta_ceiling is None:
            eta_ceiling = 2.0 * eta_now
        if eta_now > eta_ceiling:
            raise NoConvergence(
                f"complement block degenerating: 1/min|eig| = {eta_now:.3e} "
                f"exceeds ceiling {eta_ceiling:.3e}"
            )
        d = scipy.linalg.solve(M, -R, assume_a="sym")
        w = project(w + d)
    raise NoConvergence(f"projected equation not solved in {MAX_W_ITERS} iterations")


def solve_w(kb: KernelBasis, h: GridField) -> ReducedSample:
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
    w_a, iters = _projected_newton(
        kb.S, kb.nl, a_center, kb.E, kb.hessian_scale, eta_ceiling=2.0 * kb.eta
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


def reduced_hessian(
    S: SpectralDecomposition,
    nl: Nonlinearity,
    a: NDArray[np.float64],
    X: NDArray[np.float64],
    E: NDArray[np.float64],
    push: float,
) -> NDArray[np.float64]:
    """Hessian of x -> J(a + Xx + w(x)) at x = 0, w solving P grad J = 0.

    P = 1 - E E^T projects off the orthonormal columns of E, and `a`
    must already solve the projected equation (w(0) = 0). The reduced
    gradient is X^T grad J, so its derivative is X^T H (X + w'), and
    differentiating the projected equation gives w' = -(PHP)^-1 PHX: the
    result is the Schur complement X^T H X - B^T (PHP)^-1 B with B = PHX.
    (PHP)^-1 acts through _complement_matrix, whose kernel block `push`
    never meets B.
    """
    H = a_hessian(S, nl, a)
    HX = H @ X
    B = HX - E @ (E.T @ HX)
    M = _complement_matrix(H, E, push)
    Hred = X.T @ HX - B.T @ scipy.linalg.solve(M, B, assume_a="sym")
    return 0.5 * (Hred + Hred.T)


@dataclass(frozen=True)
class OriginClassification:
    morse_index: int
    degenerate_flag: bool
    reduced_hessian: NDArray[np.float64]


def classify_origin(kb: KernelBasis) -> OriginClassification:
    """Morse data of the reduced energy at x = 0 from its analytic Hessian.

    Eigenvalues within 1e-6 of the Hessian scale flag a degenerate origin.
    """
    if kb.l == 0:
        raise ValueError("kernel block is empty, nothing to classify")
    w = kb.S.a_from_field(solve_w(kb, GridField.zeros(kb.S.domain)).w)
    Hred = reduced_hessian(kb.S, kb.nl, kb.base_a + w, kb.E, kb.E, kb.hessian_scale)
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
