"""Finite-dimensional reduction at a converged solution.

Splits the space at a base critical point into a low-dimensional
near-kernel of the Hessian and its orthogonal complement, solves the
complement equation by Newton in complement coordinates, and studies the
resulting reduced energy: its gradient, its analytic Hessian (a Schur
complement of Q^T H Q) and its Morse data at the origin. A kernel block
is one frame, the Householder QR of its columns, whose Q = [Q1 Q2]
gives both the block and the complement coordinates. Translated copies
of the kernel fields span the joint block of a multibump problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from numpy.typing import NDArray

from .functional import Householder, Nonlinearity, a_gradient, a_hessian, a_value_and_gradient
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

    Newton on the complement coordinates z = Q2^T w of X's frame, from
    those of w0 or from 0, until |Q2^T grad J| <= W_RESIDUAL_TOL or
    MAX_W_ITERS iterations. Each step solves with the complement block
    C = (Q^T H Q)[l:, l:], so w = Q2 z never leaves the complement.
    Monitors C's conditioning and aborts once 1/min|eig C| exceeds
    eta_ceiling (set from the first iterate when not given).

    Returns (w, iterations).
    """
    frame = _Frame(X)
    l = frame.n
    z = np.zeros(a_center.size - l) if w0 is None else frame.coords(w0)
    for iteration in range(MAX_W_ITERS):
        w = frame.embed(z)
        R = frame.coords(a_gradient(S, nl, a_center + w))
        if float(np.linalg.norm(R)) <= W_RESIDUAL_TOL:
            return w, iteration
        C = frame.sandwich(a_hessian(S, nl, a_center + w))[l:, l:]
        eigs = np.abs(scipy.linalg.eigvalsh(C))
        eta_now = 1.0 / float(eigs.min())
        if eta_ceiling is None:
            eta_ceiling = 2.0 * eta_now
        if eta_now > eta_ceiling:
            raise NoConvergence(
                f"complement block degenerating: 1/min|eig| = {eta_now:.3e} "
                f"exceeds ceiling {eta_ceiling:.3e}"
            )
        z = z + scipy.linalg.solve(C, -R, assume_a="sym")
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
    equation gives w' = -(PHP)^-1 PHX. In X's frame, X = Q1 R and
    T = Q^T H Q, that is the Schur complement R^T (T11 - T12 T22^-1 T21) R.
    """
    frame = _Frame(X)
    l, R = frame.n, frame.R
    T = frame.sandwich(a_hessian(S, nl, a))
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
