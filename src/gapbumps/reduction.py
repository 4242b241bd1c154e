"""Finite-dimensional reduction at a converged solution.

Splits the space at a base critical point into a near-kernel of the
Hessian and its complement, solves the complement equation by Newton,
and studies the reduced energy: its gradient, its analytic Hessian (a
Schur complement) and its Morse data at the origin. Every Hessian is a
`hessian_model` whose invariant subspace U contains the kernel block X;
the model's bordered matrix [[K, U^T X], [X^T U, 0]] gives the Newton
step, the inertia monitor and the reduced Hessian, so this module keeps
only the loops. Translated kernel fields span the joint block of a
multibump problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from numpy.typing import NDArray

from .functional import Nonlinearity, a_value_and_gradient, hessian_model
from .operator import SpectralDecomposition, first_largest
from .solver import KERNEL_TAU, NoConvergence, SolutionRecord, kernel_split
from .torus import GridField, TorusDomain, embed_with_cutoff


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
    eta comes from the smallest surviving |mu|. Each U z has the sign that
    makes its field's first value of largest magnitude positive.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    a = S.a_from_field(rec.field)
    H = hessian_model(S, nl, a)
    # divide and conquer: MRRR keeps K's clustered Ritz vectors orthogonal only to ~1e-12
    ritz, Z = scipy.linalg.eigh(H.K, driver="evd")
    mu = np.concatenate([ritz, H.off_signs])
    near, scale = kernel_split(mu, tau)
    if near.all():
        raise AllKernel(f"all {mu.size} directions below tau*scale = {tau * scale:g}")
    excluded_min = float(np.abs(mu[~near]).min())
    E = H.embed(Z[:, near[: ritz.size]])
    for e in E.T:  # the sign of each vector from its field, not from eigh
        v = S.values_from_a(e).reshape(-1)
        e *= np.sign(v[first_largest(np.abs(v))])
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


def _projected_newton(
    S: SpectralDecomposition,
    nl: Nonlinearity,
    a_center: NDArray[np.float64],
    X: NDArray[np.float64],
    eta: float,
    w0: NDArray[np.float64] | None = None,
) -> tuple[NDArray[np.float64], int, float, NDArray[np.float64]]:
    """Solve P grad J(a_center + w) = 0 for w orthogonal to span(X).

    Newton on w, from w0 (orthogonal to X) or from 0, until
    |g - Q1 Q1^T g| <= W_RESIDUAL_TOL, X = Q1 R, or MAX_W_ITERS
    iterations, each step the model's `projected_step`. Aborts once the
    complement block's 1/min|eig| exceeds the ceiling 2 eta, eta the
    kernel basis's bound at the base.

    Returns (w, iterations, J, g), J and g the energy and gradient at
    a_center + w.
    """
    ceiling = 2.0 * eta
    Q1 = np.linalg.qr(X)[0]
    w = np.zeros_like(a_center) if w0 is None else w0
    for iteration in range(MAX_W_ITERS):
        J, g = a_value_and_gradient(S, nl, a_center + w)
        if float(np.linalg.norm(g - Q1 @ (Q1.T @ g))) <= W_RESIDUAL_TOL:
            return w, iteration, J, g
        H = hessian_model(S, nl, a_center + w, X)
        if H.complement_degenerates(ceiling):
            raise NoConvergence(
                f"complement block degenerating: 1/min|eig| exceeds ceiling {ceiling:.3e}"
            )
        w = H.projected_step(w, g)
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
    w_a, iters, I, g = _projected_newton(kb.S, kb.nl, kb.base_a + ha, kb.E, kb.eta)
    return ReducedSample(
        x=kb.E.T @ ha,
        w=kb.S.field_from_a(w_a),
        I=float(I),
        dI=kb.E.T @ g,
        newton_iters=iters,
        w_norm=float(np.linalg.norm(w_a)),
    )


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
    Hred = hessian_model(kb.S, kb.nl, kb.base_a + w, kb.E).reduced_hessian()
    eigs = scipy.linalg.eigvalsh(Hred)
    # degeneracy is judged against the full Hessian's spectral radius;
    # the reduced matrix's own max would make a flat profile look sharp
    near = np.abs(eigs) < 1e-6 * kb.hessian_scale
    morse = int(((eigs < 0) & ~near).sum())
    return OriginClassification(morse, bool(near.any()), Hred)


def _embed_field(f: GridField, domain: TorusDomain) -> GridField:
    """f itself on a compatible domain, else embedded with the boundary cutoff."""
    if f.domain.compatible(domain):
        return f
    return embed_with_cutoff(f, domain)


def joint_kernel_matrix(
    kb: KernelBasis,
    centers: list[tuple[int, ...]],
    target_S: SpectralDecomposition,
) -> NDArray[np.float64]:
    """Translated kernel fields at each center, as columns in a-coords,
    center by center: the block is expressed on target_S once (embedded
    from another torus) and turned to each center (translate). The raw
    columns keep the product structure x_{i,j}; orthonormalize
    separately when a projector is needed.
    """
    E = kb.E
    if kb.S is not target_S:
        E = np.empty((target_S.num_modes, kb.l))
        for j, e in enumerate(kb.E.T):
            E[:, j] = target_S.a_from_field(_embed_field(kb.S.field_from_a(e), target_S.domain))
    cols = [target_S.translate(E, b) for b in centers]
    return np.hstack(cols) if cols else np.zeros((target_S.num_modes, 0))
