"""Finite-dimensional reduction at a converged solution.

Splits the space at a base critical point into a near-kernel of the
Hessian and its complement, solves the complement equation by Newton,
and studies the reduced energy: its gradient, its analytic Hessian (a
Schur complement) and its Morse data at the origin. Every Hessian is a
`hessian_model` whose invariant subspace U contains the kernel block X,
so all of it happens in K = U^T H U and X's frame (the Householder QR
of U^T X, Q = [Q1 Q2]), while off span U the Hessian is D = +-1.
Translated kernel fields span the joint block of a multibump problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from numpy.typing import NDArray

from .functional import Householder, Nonlinearity, a_gradient, a_value_and_gradient, hessian_model
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

    tau is relative to the spectral radius of the spectrum: K's Ritz
    values and the +-1 off span U. The selected vectors (U z, and the
    complement of U once tau * scale > 1) make the kernel block Lambda;
    eta comes from the smallest surviving |mu|.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    a = S.a_from_field(rec.field)
    H = hessian_model(S, nl, a)
    ritz, Z = scipy.linalg.eigh(H.K)
    mu = np.concatenate([ritz, H.off_signs])
    near, scale = kernel_split(mu, tau)
    if near.all():
        raise AllKernel(f"all {mu.size} directions below tau*scale = {tau * scale:g}")
    excluded_min = float(np.abs(mu[~near]).min())
    E = H.embed(Z[:, near[: ritz.size]])
    if near[ritz.size :].any():
        E = np.hstack([E, H.complement()])
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


class _Frame(Householder):
    """The kernel block's frame: Q = [Q1 Q2] of the Householder QR
    X = Q1 R of its l columns, so Q2 is an orthonormal basis of the
    complement. An empty block is the identity frame.
    """

    def coords(self, v: NDArray[np.float64]) -> NDArray[np.float64]:
        """Q2^T v."""
        return self.apply(v, "T")[self.n :]

    def embed(self, z: NDArray[np.float64]) -> NDArray[np.float64]:
        """Q2 z."""
        return self.apply(np.concatenate([np.zeros(self.n), z]))

    def sandwich(self, H: NDArray[np.float64]) -> NDArray[np.float64]:
        """Q^T H Q, symmetrized."""
        T = self.apply(self.apply(H, "T"), side="R")
        return 0.5 * (T + T.T)


def _projected_newton(
    S: SpectralDecomposition,
    nl: Nonlinearity,
    a_center: NDArray[np.float64],
    X: NDArray[np.float64],
    eta_ceiling: float | None = None,
    w0: NDArray[np.float64] | None = None,
) -> tuple[NDArray[np.float64], int]:
    """Solve P grad J(a_center + w) = 0 for w orthogonal to span(X).

    Newton on the complement coordinates z of X's frame in N-space, from
    those of w0 or from 0, until |Q2^T grad J| <= W_RESIDUAL_TOL or
    MAX_W_ITERS iterations. Each step solves with C = (Q^T K Q)[l:, l:]
    inside K and takes -D g off span U. Monitors C's eigenvalues and the
    +-1 off span U, and aborts once 1/min|eig| exceeds eta_ceiling (set
    from the first iterate when not given).

    Returns (w, iterations).
    """
    frame = _Frame(X)
    z = np.zeros(a_center.size - frame.n) if w0 is None else frame.coords(w0)
    for iteration in range(MAX_W_ITERS):
        w = frame.embed(z)
        g = a_gradient(S, nl, a_center + w)
        if float(np.linalg.norm(frame.coords(g))) <= W_RESIDUAL_TOL:
            return w, iteration
        H = hessian_model(S, nl, a_center + w, X)
        inner = _Frame(H.UX)
        C = inner.sandwich(H.K)[inner.n :, inner.n :]
        eigs = np.abs(np.concatenate([scipy.linalg.eigvalsh(C), H.off_signs]))
        eta_now = 1.0 / float(eigs.min())
        if eta_ceiling is None:
            eta_ceiling = 2.0 * eta_now
        if eta_now > eta_ceiling:
            raise NoConvergence(
                f"complement block degenerating: 1/min|eig| = {eta_now:.3e} "
                f"exceeds ceiling {eta_ceiling:.3e}"
            )
        gU = H.coords(g)
        dz = scipy.linalg.solve(C, -inner.coords(gU), assume_a="sym")
        z = z + frame.coords(H.embed(inner.embed(dz)) - H.signs * (g - H.embed(gU)))
        del H  # the next model is built without this one's K alive
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
    w_a, iters = _projected_newton(kb.S, kb.nl, a_center, kb.E, eta_ceiling=2.0 * kb.eta)
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
) -> NDArray[np.float64]:
    """Hessian of x -> J(a + Xx + w(x)) at x = 0, w solving P grad J = 0.

    P projects off span(X), and `a` must already solve the projected
    equation (w(0) = 0). The reduced gradient is X^T grad J, so its
    derivative is X^T H (X + w'), and differentiating the projected
    equation gives w' = -(PHP)^-1 PHX; off span U, H does not couple to
    X. In the frame U^T X = Q1 R and T = Q^T K Q, that is the Schur
    complement R^T (T11 - T12 T22^-1 T21) R.
    """
    H = hessian_model(S, nl, a, X)
    frame = _Frame(H.UX)
    l, R = frame.n, frame.R
    T = frame.sandwich(H.K)
    schur = T[:l, :l] - T[:l, l:] @ scipy.linalg.solve(T[l:, l:], T[l:, :l], assume_a="sym")
    Hred = R.T @ schur @ R
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
    Hred = reduced_hessian(kb.S, kb.nl, kb.base_a + w, kb.E)
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
