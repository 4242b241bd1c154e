"""Finite-dimensional reduction at a converged solution.

Splits the space at a base critical point into a near-kernel of the
Hessian and its complement, solves the complement equation by Newton,
and studies the reduced energy: its gradient, its analytic Hessian (a
Schur complement) and its Morse data at the origin. Every Hessian is a
`hessian_model` whose invariant subspace U contains the kernel block X,
so all of it is solves and LDL^T inertia counts with K = U^T H U bordered
by B = U^T X, [[K, B], [B^T, 0]], while off span U the Hessian is D = +-1.
Translated kernel fields span the joint block of a multibump problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from numpy.typing import NDArray

from .functional import (
    HessianModel, Nonlinearity, a_gradient, a_value_and_gradient, hessian_model,
)
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


def _bordered(K: NDArray, B: NDArray) -> NDArray[np.float64]:
    """[[K, B], [B^T, 0]]."""
    l = B.shape[1]
    return np.block([[K, B], [B.T, np.zeros((l, l))]])


def _shifted(A: NDArray[np.float64], m: int, shift: float) -> NDArray[np.float64]:
    """A Fortran-order copy of A, `shift` added to its leading m diagonal
    entries: the bordered matrix of K + shift I, ready for dsytrf in place."""
    A = A.copy(order="F")
    A[np.diag_indices(m)] += shift
    return A


def _negative_count(A: NDArray[np.float64]) -> int:
    """The number of negative eigenvalues of the symmetric matrix A.

    By Sylvester's law of inertia it is that of D in the Bunch-Kaufman
    factorization A = L D L^T (LAPACK dsytrf, which overwrites A): one per
    negative 1 x 1 pivot, and one per 2 x 2 pivot, whose determinant
    Bunch-Kaufman pivoting keeps negative. A 2 x 2 pivot marks both of
    its rows with a negative ipiv.
    """
    # the blocked code's workspace: the default n runs unblocked, 2x slower at n = 512
    lwork = int(scipy.linalg.lapack.dsytrf_lwork(A.shape[0], lower=1)[0])
    ldu, ipiv, _ = scipy.linalg.lapack.dsytrf(A, lower=1, lwork=lwork, overwrite_a=1)
    one_by_one = ldu.diagonal()[ipiv > 0]
    return int(np.count_nonzero(one_by_one < 0.0) + np.count_nonzero(ipiv < 0) // 2)


def _complement_degenerates(H: HessianModel, A: NDArray[np.float64], ceiling: float) -> bool:
    """Whether 1/min|eig| of the complement block exceeds `ceiling`.

    A = [[K, B], [B^T, 0]] is H's bordered matrix, B = U^T X. With B of
    full column rank l, [[K - s I, B], [B^T, 0]] has exactly l more
    negative eigenvalues than C - s I, C the complement block inside U
    (Sylvester's law of inertia; Gould 1985). So C has an eigenvalue in
    (-s, s), s = 1/ceiling, exactly when the count drops from shift -s to
    shift +s. Off span U the eigenvalues are +-1.
    """
    if H.off_signs.size and ceiling < 1.0:
        return True
    s = 1.0 / ceiling
    m = H.subspace_dim
    return _negative_count(_shifted(A, m, -s)) > _negative_count(_shifted(A, m, s))


def _projected_newton(
    S: SpectralDecomposition,
    nl: Nonlinearity,
    a_center: NDArray[np.float64],
    X: NDArray[np.float64],
    eta_ceiling: float,
    w0: NDArray[np.float64] | None = None,
) -> tuple[NDArray[np.float64], int]:
    """Solve P grad J(a_center + w) = 0 for w orthogonal to span(X).

    Newton on w, from w0 (orthogonal to X) or from 0, until
    |g - Q1 Q1^T g| <= W_RESIDUAL_TOL, X = Q1 R, or MAX_W_ITERS
    iterations. Inside U each step solves the bordered system
    [[K, B], [B^T, 0]] [y; lambda] = [-U^T g; 0], B = U^T X, so U y is
    orthogonal to X; off span U it takes -D g. Aborts once the complement
    block's 1/min|eig| exceeds eta_ceiling (`_complement_degenerates`).

    Returns (w, iterations).
    """
    Q1 = np.linalg.qr(X)[0]
    w = np.zeros_like(a_center) if w0 is None else w0
    for iteration in range(MAX_W_ITERS):
        g = a_gradient(S, nl, a_center + w)
        if float(np.linalg.norm(g - Q1 @ (Q1.T @ g))) <= W_RESIDUAL_TOL:
            return w, iteration
        H = hessian_model(S, nl, a_center + w, X)
        A = _bordered(H.K, H.UX)
        if _complement_degenerates(H, A, eta_ceiling):
            raise NoConvergence(
                f"complement block degenerating: 1/min|eig| exceeds ceiling {eta_ceiling:.3e}"
            )
        gU = H.coords(g)
        rhs = np.concatenate([-gU, np.zeros(X.shape[1])])
        y = scipy.linalg.solve(A, rhs, assume_a="sym")[: gU.size]
        w = w + H.embed(y) - H.signs * (g - H.embed(gU))
        del H, A  # the next model is built without this one's K alive
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
    w_a, iters = _projected_newton(kb.S, kb.nl, a_center, kb.E, 2.0 * kb.eta)
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
    X. Inside U, with B = U^T X, the bordered system
    [[K, B], [B^T, 0]] [Y; Lambda] = [-K B; 0] gives Y = U^T w', so the
    reduced Hessian is the Schur complement B^T K (B + Y).
    """
    H = hessian_model(S, nl, a, X)
    B = H.UX
    m, l = B.shape
    KB = H.K @ B
    rhs = np.vstack([-KB, np.zeros((l, l))])
    Y = scipy.linalg.solve(_bordered(H.K, B), rhs, assume_a="sym")[:m]
    Hred = KB.T @ (B + Y)
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
