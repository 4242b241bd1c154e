"""Finite-dimensional reduction at a converged solution.

Splits the space at a base critical point into a near-kernel of the
Hessian and its complement, solves the complement equation by Newton,
and studies the reduced energy: its gradient, its analytic Hessian (a
Schur complement) and its Morse data at the origin. Every Hessian is a
`hessian_model` with the kernel block X: its bordered matrix
[[H, X], [X^T, 0]], reached through the (r+l) capacitance of the r
active rows, gives the Newton step, the inertia monitor and the reduced
Hessian, so this module keeps only the loops. The kernel split counts
by inertia, as the census does, and takes its vectors from Lanczos on
the base model's inverse. Translated kernel fields span the joint block
of a multibump problem.

The monitor checks that the complement block stays invertible, the fact
the reduction rests on. The kernel basis keeps the base's weights and
its measured gap, so `solve_w` proves that by Weyl's inequality from the
base wherever the model's weights allow (`HessianModel.gap_certified`)
and counts by inertia only where they do not: one factorization per
model, the step's, instead of three. The gluing has no base for its
joint block, so it measures one at its glued start (`GapReference`): one
pair of counts per problem, and Weyl's inequality from that model on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from numpy.typing import NDArray

from .functional import HessianModel, Nonlinearity, a_value_and_gradient, hessian_model
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

    base_weight (qw f' at every evaluation point) and gap (min|mu| off
    the block, 1/eta as detected) are the base model's, for the Weyl
    certificate of `solve_w`'s monitor. gap is kept apart from eta, so a
    caller's ceiling never feeds the certificate.
    """

    base: SolutionRecord
    S: SpectralDecomposition
    nl: Nonlinearity
    tau: float
    E: NDArray[np.float64]
    eta: float
    hessian_scale: float
    base_a: NDArray[np.float64]
    base_weight: NDArray[np.float64]
    gap: float

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
    """Split the Hessian at `rec` into -tau * scale <= mu < tau * scale and the rest.

    scale (the spectral radius) and the block's order l come by inertia,
    as the census's do (`kernel_split`), and the vectors by Lanczos
    (ARPACK's eigsh, from the seeded start of `_lanczos_lowest`). While
    tau * scale <= 1 the block and the nearest eigenvalue beyond it are
    the l + 1 largest |nu| of H^-1, nu = 1/mu (shift-invert at 0; Lehoucq,
    Sorensen & Yang, ARPACK Users' Guide, SIAM 1998): the model's one
    factorization serves every Lanczos step. Above 1 the +-1 bulk joins
    a nonempty block, which is then the complement of the eigenvectors
    below -tau * scale, found by Lanczos on H itself. Lanczos can miss a
    copy of a repeated eigenvalue, so its values must reproduce the
    counts; a split that does not raises NoConvergence, as does an ARPACK
    failure. eta comes from the smallest |mu| off the block. Each vector
    has the sign that makes its field's first value of largest magnitude
    positive.
    """
    import scipy.sparse.linalg  # ARPACK: only the kernel split needs it

    if tau <= 0:
        raise ValueError("tau must be positive")
    a = S.a_from_field(rec.field)
    H = hessian_model(S, nl, a)
    n = S.num_modes
    scale, negative, l = kernel_split(H, tau)
    if l == n:
        raise AllKernel(f"all {n} directions below tau*scale = {tau * scale:g}")
    edge = tau * scale
    bulk = edge > 1.0 and l > 0  # an empty block takes Lanczos on H^-1, for eta alone
    op = scipy.sparse.linalg.LinearOperator((n, n), matvec=H.matvec if bulk else H.inverse(), dtype=float)
    start = np.random.default_rng(0).standard_normal(n)
    try:
        if bulk:
            mu, V = scipy.sparse.linalg.eigsh(op, k=negative, which="SA", tol=0, v0=start)
        else:
            nu, V = scipy.sparse.linalg.eigsh(op, k=l + 1, which="LM", tol=0, v0=start)
            mu = 1.0 / nu
    except scipy.sparse.linalg.ArpackError as e:
        raise NoConvergence(f"kernel split: {e}") from e
    near = (mu >= -edge) & (mu < edge)  # the counts' rule
    if np.count_nonzero(mu < -edge if bulk else near) != (negative if bulk else l):
        raise NoConvergence(f"Lanczos missed an eigenvalue of the kernel split at tau*scale = {edge:g}")
    excluded_min = float(np.abs(mu[~near]).min())
    E = scipy.linalg.null_space(V.T) if bulk else V[:, near][:, np.argsort(mu[near])]
    for e in E.T:  # the sign of each vector from its field, not from Lanczos
        v = S.values_from_a(e).reshape(-1)
        e *= np.sign(v[first_largest(np.abs(v))])
    return KernelBasis(
        base=rec,
        S=S,
        nl=nl,
        tau=tau,
        E=E,
        eta=1.0 / excluded_min,
        hessian_scale=scale,
        base_a=a,
        base_weight=H.weight,
        gap=excluded_min,
    )


def kernel_combination(kb: KernelBasis, x: NDArray[np.float64]) -> GridField:
    x = np.asarray(x, dtype=float)
    if x.shape != (kb.l,):
        raise ValueError(f"expected {kb.l} coordinates, got shape {x.shape}")
    return kb.S.field_from_a(kb.E @ x)


class GapReference:
    """The premise of `HessianModel.gap_certified` for the models of one
    block X: the weights of a model whose complement of span X has no
    eigenvalue in [-gap, gap), and that gap.

    `solve_w` takes the base's (`KernelBasis.base_weight` and `gap`). A
    glued problem has no base for its joint block and measures its own
    (`at_start`): the first model that `_projected_newton` counts with it
    counts at +-gap instead of at +-s. If the count does not rise, that
    count proves the model's own verdict and its weights become the
    reference; if it rises, the gap is dropped and every model counts.
    """

    def __init__(self, gap: float, weight: NDArray[np.float64] | None = None) -> None:
        self.gap: float | None = gap
        self.weight = weight

    @classmethod
    def at_start(cls, kb: KernelBasis) -> GapReference | None:
        """A reference to measure for a problem glued from kb's base, at
        t = (kb.gap + s) / 2, halfway between the base's gap and the
        monitor's shift s = 1/(2 kb.eta), so that later models certify
        while their distance from the first stays under t - s. None where
        t <= s, which leaves no margin, or t >= 1, where the count would
        reach the +-1 bulk."""
        s = 0.5 / kb.eta
        t = 0.5 * (kb.gap + s)
        return cls(t) if s < t < 1.0 else None

    def certifies(self, H: HessianModel, ceiling: float) -> bool:
        """Whether H's complement block is proven free of eigenvalues in
        [-s, s), s = 1/ceiling below the gap, without counting at +-s."""
        if self.weight is not None:
            return H.gap_certified(self.weight, self.gap, ceiling)
        if self.gap is None:
            return False
        if H.negative_count(self.gap) > H.negative_count(-self.gap):
            self.gap = None
            return False
        self.weight = H.weight
        return True


def _projected_newton(
    S: SpectralDecomposition,
    nl: Nonlinearity,
    a_center: NDArray[np.float64],
    X: NDArray[np.float64],
    eta: float,
    w0: NDArray[np.float64] | None = None,
    reference: GapReference | None = None,
) -> tuple[NDArray[np.float64], int, float, NDArray[np.float64]]:
    """Solve P grad J(a_center + w) = 0 for w orthogonal to span(X).

    Newton on w, from w0 (orthogonal to X) or from 0, until
    |g - Q1 Q1^T g| <= W_RESIDUAL_TOL, X = Q1 R, or MAX_W_ITERS
    iterations, each step the model's `projected_step`. Aborts once the
    complement block's 1/min|eig| exceeds the ceiling 2 eta, eta the
    kernel basis's bound at the base. `reference` (a `GapReference` for
    X, shared by every call on the same X) lets a model skip that
    monitor's two inertia counts where it proves their verdict; one still
    to be measured is measured on the first model counted. The step
    itself is the same either way.

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
        certified = reference is not None and reference.certifies(H, ceiling)
        if not certified and H.complement_degenerates(ceiling):
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
    reference = GapReference(kb.gap, kb.base_weight)
    w_a, iters, I, g = _projected_newton(kb.S, kb.nl, kb.base_a + ha, kb.E, kb.eta, reference=reference)
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
