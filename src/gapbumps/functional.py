"""The indefinite energy J, its gradient and Hessian in the gap metric.

J(u) = 1/2 ||T u||_k^2 - 1/2 ||P u||_k^2 - int F(x, u) with the power
nonlinearity f(x,t) = h(x) |t|^(p-2) t. Everything is expressed through the
eigencoefficients of the operator decomposition: in the weighted a-basis
the quadratic part is D = diag(sign lambda) and the gradient is the plain
Euclidean representative, so Newton systems need no mass matrix.

The Hessian there is D - G^T G, one row of G per evaluation point.
`hessian_model` is its one representation for Newton, the kernel split
and the gluing. Where the solution is a localized bump most rows carry
a negligible weight f', and G keeps the r active ones: Newton solves
through the r x r capacitance G D G^T and builds nothing else. The
census and the kernel split also need an H-invariant subspace U that
contains the active rows of G and any block X the caller names, the
Rayleigh-Ritz matrix K = U^T H U on it (exact to rounding) and D = +-1
off it; the model builds that frame on first use. Otherwise U = I and K
is the dense `a_hessian`. The reduction and the gluing reach the
complement of span X through the model's bordered matrix
[[K, U^T X], [X^T U, 0]] alone: its Newton step, its LDL^T inertia
monitor and its Schur complement, the reduced Hessian.

Nonlinear terms are collocated on the grid by default. The `dealias` flag
evaluates them on a zero-padded fine grid instead (factor 3/2 by default;
the cubic terms of p=4 need factor >= 3 for exact quadrature, which the
degenerate translation fixture uses so its symmetry survives discretely).
Either grid is one `_EvalGrid`: u reaches the evaluation points through
an interpolation matrix along each axis and forces return through its
transpose (collocation: the identity), so the finite-difference
identities hold at machine accuracy on either grid.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
from numpy.typing import NDArray

from .operator import PeriodicPotential, SpectralDecomposition
from .torus import GridField

__all__ = [
    "HessianModel",
    "Nonlinearity",
    "hessian_model",
    "interaction_defect",
]


@dataclass(frozen=True)
class Nonlinearity:
    """The data (h, p, q, gamma) of f(x,t) = h(x) |t|^(p-2) t.

    q and gamma are growth/coercivity exponents carried along for the
    hypothesis checks (2 < q <= p, gamma > 2; gamma = p makes the
    coercivity inequality an identity). p >= 3 keeps f' locally Lipschitz
    at t = 0, which Newton relies on.
    """

    p: float = 4.0
    q: float = 3.0
    gamma: float = 4.0
    weight: PeriodicPotential | None = None
    dealias: bool = False
    dealias_factor: float = 1.5

    def __post_init__(self) -> None:
        if self.p < 3.0:
            raise ValueError(f"p must be >= 3 (got {self.p}) so f' stays Lipschitz at 0")
        if not (2.0 < self.q <= self.p):
            raise ValueError(f"q must satisfy 2 < q <= p, got q={self.q}, p={self.p}")
        if self.gamma <= 2.0:
            raise ValueError(f"gamma must exceed 2, got {self.gamma}")
        if self.dealias and self.dealias_factor < 1.0:
            raise ValueError("dealias_factor must be >= 1")
        if self.weight is not None:
            probe = self.weight.profile(np.linspace(0.0, 1.0, 257)) - self.weight.shift
            if probe.min() < 0.0:
                raise ValueError("weight h must be nonnegative")

    def f(self, t: NDArray, h) -> NDArray:
        return h * np.abs(t) ** (self.p - 2.0) * t

    def F(self, t: NDArray, h) -> NDArray:
        return h * np.abs(t) ** self.p / self.p

    def fprime(self, t: NDArray, h) -> NDArray:
        return (self.p - 1.0) * h * np.abs(t) ** (self.p - 2.0)

    def weight_values(self, domain) -> NDArray[np.float64] | float:
        """h at the grid points of `domain`, refused where it dips below 0.

        The construction-time probe covers one axis only; a weight acting
        on several axes can still go negative on the full grid.
        """
        if self.weight is None:
            return 1.0
        return _require_nonnegative(self.weight.evaluate(domain))

    def to_dict(self) -> dict:
        d: dict = {"p": self.p, "q": self.q, "gamma": self.gamma}
        if self.weight is not None:
            d["h"] = self.weight.to_dict()
        if self.dealias:
            d["dealias"] = True
            d["dealias_factor"] = self.dealias_factor
        return d


def _require_nonnegative(h: NDArray[np.float64]) -> NDArray[np.float64]:
    if h.min() < 0.0:
        raise ValueError(f"weight h must be nonnegative (grid minimum {h.min():.3g})")
    return h


# -- evaluation grid of the nonlinear terms ---------------------------------------


def _interpolation_matrix(n: int, factor: float) -> NDArray[np.float64]:
    """Zero-padded trigonometric interpolation from n to nf >= factor * n
    equispaced points of a period (nf even), as an nf x n matrix.

    An even n's Nyquist mode is split evenly between +-n/2, so that its
    interpolant is the real cosine; with nf = n the matrix is the identity.
    """
    nf = int(np.ceil(n * factor))
    nf += nf % 2
    spec = np.fft.rfft(np.eye(n), axis=0)
    if nf > n and n % 2 == 0:
        spec[n // 2] *= 0.5
    return np.fft.irfft(spec, nf, axis=0) * (nf / n)


def _along_axes(M: NDArray[np.float64], x: NDArray[np.float64], dim: int) -> NDArray[np.float64]:
    """M applied along each of the last `dim` (1 or 2) axes of x."""
    x = x @ M.T
    return M @ x if dim == 2 else x


@dataclass(frozen=True, eq=False)
class _EvalGrid:
    """The points where the nonlinear terms are evaluated, and their data.

    P (nf x n, the same on every axis) maps grid values to the evaluation
    points; None stands for the identity of the collocated grid. h and qw
    are the weight and the quadrature weight there, and fields holds the
    eigenfields sampled there, one column each.
    """

    P: NDArray[np.float64] | None
    h: NDArray[np.float64] | float
    qw: float
    fields: NDArray[np.float64]
    dim: int

    def samples(self, values: NDArray[np.float64]) -> NDArray[np.float64]:
        """Grid values (the grid axes last) at the evaluation points."""
        return values if self.P is None else _along_axes(self.P, values, self.dim)

    def adjoint(self, fine: NDArray[np.float64]) -> NDArray[np.float64]:
        """The transpose of `samples`."""
        return fine if self.P is None else _along_axes(self.P.T, fine, self.dim)


# fine grids per decomposition; a grid holds no reference back to its key
_FINE_GRIDS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _eval_grid(S: SpectralDecomposition, nl: Nonlinearity) -> _EvalGrid:
    """The collocated grid, or the (cached) zero-padded fine grid of `nl.dealias`."""
    dom = S.domain
    if not nl.dealias:
        return _EvalGrid(None, nl.weight_values(dom), dom.spacing**dom.dim, S.eigenfields, dom.dim)
    grids = _FINE_GRIDS.setdefault(S, {})
    key = (nl.dealias_factor, nl.weight)
    if key not in grids:
        P = _interpolation_matrix(dom.points_per_axis, nl.dealias_factor)
        nf = P.shape[0]
        h: NDArray | float = 1.0
        if nl.weight is not None:
            coords = -0.5 * dom.cells + dom.cells * np.arange(nf) / nf
            mesh = np.meshgrid(*([coords] * dom.dim), indexing="ij")
            h = _require_nonnegative(nl.weight.evaluate_on(mesh))
        # the transpose of the Fortran-order eigenfield matrix is a C-order view
        fine = _along_axes(P, S.eigenfields.T.reshape((-1,) + dom.shape), dom.dim)
        fields = fine.reshape(S.num_modes, -1).T
        grids[key] = _EvalGrid(P, h, dom.volume / nf**dom.dim, fields, dom.dim)
    return grids[key]


def _nl_integral_and_force(S, nl, values):
    """int F(x, u) and the gradient d/du of it against plain grid values."""
    grid = _eval_grid(S, nl)
    samples = grid.samples(values)
    Fint = grid.qw * float(np.sum(nl.F(samples, grid.h)))
    return Fint, grid.adjoint(grid.qw * nl.f(samples, grid.h))


# -- weighted-coordinate calculus (used by solvers) ------------------------------


def a_value_and_gradient(
    S: SpectralDecomposition, nl: Nonlinearity, a: NDArray[np.float64]
) -> tuple[float, NDArray[np.float64]]:
    """J and its (.,.)_k-gradient at the point with weighted coordinates a."""
    values = S.values_from_a(a)
    Fint, fterm = _nl_integral_and_force(S, nl, values)
    J = 0.5 * float(np.dot(S.signs * a, a)) - Fint
    g = S.signs * a - (S.eigenfields.T @ fterm.reshape(-1)) / S.weights
    return J, g

def a_gradient(S, nl, a: NDArray[np.float64]) -> NDArray[np.float64]:
    return a_value_and_gradient(S, nl, a)[1]


def a_hessian(
    S: SpectralDecomposition, nl: Nonlinearity, a: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Dense symmetric Hessian of J in the weighted coordinates.

    The nonlinear block F^T diag(qw f') F, with F the eigenfields sampled
    at the evaluation points (`_EvalGrid.fields`, the eigenfields
    themselves on the collocated grid), is built as the Gram product
    G^T G of G = F diag(sqrt(qw f')). That is legitimate because
    f' = (p-1) h |u|^(p-2) is nonnegative: p >= 3 and h >= 0, which
    `weight_values` and `_eval_grid` enforce. NumPy evaluates G^T G as a
    symmetric rank-k update, half the flops of the general product, which
    fills both triangles from one; dividing by the symmetric
    outer(weights, weights) keeps the result exactly symmetric.
    """
    grid = _eval_grid(S, nl)
    samples = grid.samples(S.values_from_a(a))
    G = grid.fields * np.sqrt(grid.qw * nl.fprime(samples, grid.h)).reshape(-1)[:, None]
    A = G.T @ G
    A /= np.outer(S.weights, S.weights)
    np.negative(A, out=A)
    A[np.diag_indices_from(A)] += S.signs
    return A


def a_hessvec(
    S: SpectralDecomposition, nl: Nonlinearity, a: NDArray, v: NDArray
) -> NDArray[np.float64]:
    """Hessian-vector product in weighted coordinates, no dense assembly."""
    grid = _eval_grid(S, nl)
    samples = grid.samples(S.values_from_a(a))
    vsamples = grid.samples(S.values_from_a(v))
    prod = grid.adjoint(grid.qw * nl.fprime(samples, grid.h) * vsamples)
    return S.signs * v - (S.eigenfields.T @ prod.reshape(-1)) / S.weights


class _SignBlock:
    """An orthonormal basis Q of one sign block whose first `dim` columns
    contain those of C, the block's part of [G^T X] (width x c): the
    identity when c >= width or C is None (the dense model), otherwise
    the Householder QR C = Q R (Golub & Van Loan, Matrix Computations,
    5.1-5.2), so that Q^T C = R (QC) needs no product. Q stays in
    LAPACK's compact form and `apply` takes its reflectors one at a time:
    O(width c) per vector. No columns give Q = I.
    """

    def __init__(self, width: int, C: NDArray[np.float64] | None) -> None:
        self.width = width
        self.raw, self.QC, self.dim = None, C, width
        if C is not None and C.shape[1] < width:
            self.dim = C.shape[1]
            self.raw, self.QC = scipy.linalg.qr(C, mode="raw") if self.dim else (None, C[:0])

    def apply(self, v: NDArray[np.float64], trans: str = "N") -> NDArray[np.float64]:
        """Q v, or Q^T v (trans "T")."""
        if self.raw is None:
            return v
        work = v.size // v.shape[0]
        return scipy.linalg.lapack.dormqr("L", trans, *self.raw, v, lwork=max(1, work))[0]

    def coords(self, v: NDArray[np.float64]) -> NDArray[np.float64]:
        """Q^T v, first dim rows."""
        return self.apply(v, "T")[: self.dim]

    def embed(self, z: NDArray[np.float64]) -> NDArray[np.float64]:
        """Q z."""
        return self.apply(np.concatenate([z, np.zeros((self.width - self.dim,) + z.shape[1:])]))


class HessianModel:
    """H = D - G^T G, D = diag(sign lambda), and an H-invariant subspace U
    that contains span X.

    Newton needs only `solve` and `matvec`. With G (r x N, one row per
    active evaluation point) they go through the r x r capacitance
    (1+mu) I - G D G^T by the Sherman-Morrison-Woodbury identity (Hager,
    Updating the inverse of a matrix, SIAM Review 31, 1989); by the
    matrix determinant lemma H + mu D is singular exactly when it is.

    The frame is built on first use, for the census, the kernel split,
    the reduction and the gluing. D keeps the negative block (the first
    j coordinates) and the positive block apart, so orthonormalizing each
    block's part of [G^T X] on its own gives U = blockdiag(Q-, Q+) with
    range(G^T) and span X inside span U: an H-invariant span, with
    H = D = +-1 on its complement. Only orthogonal transforms and the
    m x m matrix K = U^T H U (Rayleigh-Ritz, exact to rounding) are
    involved, m = subspace_dim. Without G, U = I and K is the dense
    Hessian itself. UX = U^T X. `projected_step`, `complement_degenerates`
    and `reduced_hessian` work on the complement of span X through the
    bordered (KKT) matrix [[K, B], [B^T, 0]], B = UX (Nocedal & Wright,
    Numerical Optimization, ch. 16).
    """

    def __init__(
        self, signs: NDArray, j: int, X: NDArray, G: NDArray | None = None, K: NDArray | None = None
    ) -> None:
        self.signs, self.j, self.X, self.G = signs, j, X, G
        self.backend = "dense" if G is None else "low-rank"
        if G is None:
            self.K = K

    @cached_property
    def _C(self) -> NDArray[np.float64] | None:
        """[G^T X] as a Fortran-order view (of G alone without X): QR copies it cheaply."""
        if self.G is None:
            return None
        return (np.concatenate([self.G, self.X.T]) if self.X.shape[1] else self.G).T

    @cached_property
    def neg(self) -> _SignBlock:
        return _SignBlock(self.j, None if self._C is None else self._C[: self.j])

    @cached_property
    def pos(self) -> _SignBlock:
        return _SignBlock(self.signs.size - self.j, None if self._C is None else self._C[self.j :])

    @cached_property
    def K(self) -> NDArray[np.float64]:
        r = self.G.shape[0]
        GU = np.hstack([self.neg.QC[:, :r].T, self.pos.QC[:, :r].T])
        K = -(GU.T @ GU)
        K[np.diag_indices_from(K)] += np.repeat([-1.0, 1.0], [self.neg.dim, self.pos.dim])
        return K

    @cached_property
    def subspace_dim(self) -> int:
        return self.neg.dim + self.pos.dim

    @cached_property
    def off_signs(self) -> NDArray[np.float64]:
        """The eigenvalues of H off span U, negative block first."""
        neg, pos = self.neg, self.pos
        return np.repeat([-1.0, 1.0], [neg.width - neg.dim, pos.width - pos.dim])

    @cached_property
    def UX(self) -> NDArray[np.float64]:
        return self.coords(self.X)

    @cached_property
    def _gdg(self) -> NDArray[np.float64]:
        """G D G^T, as the symmetric rank-k updates G G^T - 2 G- G-^T;
        the capacitance is (1+mu) I minus it."""
        neg = self.G[:, : self.j]
        P = self.G @ self.G.T
        P -= 2.0 * (neg @ neg.T)
        return P

    def coords(self, v: NDArray[np.float64]) -> NDArray[np.float64]:
        """U^T v."""
        j = self.j
        return np.concatenate([self.neg.coords(v[:j]), self.pos.coords(v[j:])])

    def embed(self, z: NDArray[np.float64]) -> NDArray[np.float64]:
        """U z."""
        m = self.neg.dim
        return np.concatenate([self.neg.embed(z[:m]), self.pos.embed(z[m:])])

    def complement(self) -> NDArray[np.float64]:
        """An orthonormal basis of the complement of span U, ordered as
        off_signs: each block's Householder columns past its dim."""
        return scipy.linalg.block_diag(*(
            b.apply(np.eye(b.width, b.width - b.dim, -b.dim)) for b in (self.neg, self.pos)
        ))

    def matvec(self, v: NDArray[np.float64]) -> NDArray[np.float64]:
        if self.G is None:
            return self.K @ v
        return self.signs * v - self.G.T @ (self.G @ v)

    def solve(self, rhs: NDArray[np.float64], mu: float) -> NDArray[np.float64]:
        """d with (H + mu D) d = rhs.

        With G, d = D (rhs + G^T y) / (1+mu), y solving
        ((1+mu) I - G D G^T) y = G D rhs.
        """
        if self.G is None:
            return scipy.linalg.solve(self.K + np.diag(mu * self.signs), rhs, assume_a="sym")
        cap = -self._gdg
        cap[np.diag_indices_from(cap)] += 1.0 + mu
        y = scipy.linalg.solve(cap, self.G @ (self.signs * rhs), assume_a="sym")
        return self.signs * (rhs + self.G.T @ y) / (1.0 + mu)

    def eigenvalues(self) -> NDArray[np.float64]:
        """All N eigenvalues, ascending: K's, and the off_signs."""
        return np.sort(np.concatenate([scipy.linalg.eigvalsh(self.K), self.off_signs]))

    @cached_property
    def bordered(self) -> NDArray[np.float64]:
        """[[K, B], [B^T, 0]], B = UX: the complement of span X inside U."""
        B, l = self.UX, self.X.shape[1]
        return np.block([[self.K, B], [B.T, np.zeros((l, l))]])

    def projected_step(self, w: NDArray[np.float64], g: NDArray[np.float64]) -> NDArray[np.float64]:
        """w plus the Newton step for the gradient g orthogonal to X.

        Inside U, [[K, B], [B^T, 0]] [y; lambda] = [-U^T g; 0] makes U y
        orthogonal to X; off span U, H = D takes -D g.
        """
        gU = self.coords(g)
        rhs = np.concatenate([-gU, np.zeros(self.X.shape[1])])
        y = scipy.linalg.solve(self.bordered, rhs, assume_a="sym")[: gU.size]
        return w + self.embed(y) - self.signs * (g - self.embed(gU))

    def complement_degenerates(self, ceiling: float) -> bool:
        """Whether 1/min|eig| of H on the complement of span X exceeds `ceiling`.

        With B of full column rank l, [[K - s I, B], [B^T, 0]] has exactly
        l more negative eigenvalues than C - s I, C the complement block
        inside U (Sylvester's law of inertia; Gould 1985). So C has an
        eigenvalue in (-s, s), s = 1/ceiling, exactly when the count drops
        from shift -s to shift +s. Off span U the eigenvalues are +-1.
        """
        if self.off_signs.size and ceiling < 1.0:
            return True
        s, m = 1.0 / ceiling, self.subspace_dim
        return _negative_count(self.bordered, -s, m) > _negative_count(self.bordered, s, m)

    def reduced_hessian(self) -> NDArray[np.float64]:
        """The Hessian of x -> J(a + Xx + w(x)) at x = 0, w solving P grad J = 0
        (P projects off span X; the model's point a must have w(0) = 0).

        It is X^T H (X + w'), and the projected equation gives
        w' = -(PHP)^-1 PHX; off span U, H does not couple to X. Inside U,
        [[K, B], [B^T, 0]] [Y; Lambda] = [-K B; 0] gives Y = U^T w', so it is
        the Schur complement B^T K (B + Y), symmetrized.
        """
        B, l = self.UX, self.X.shape[1]
        KB = self.K @ B
        rhs = np.vstack([-KB, np.zeros((l, l))])
        Y = scipy.linalg.solve(self.bordered, rhs, assume_a="sym")[: self.subspace_dim]
        Hred = KB.T @ (B + Y)
        return 0.5 * (Hred + Hred.T)


def _negative_count(A: NDArray[np.float64], shift: float, m: int) -> int:
    """The number of negative eigenvalues of the symmetric matrix A with
    `shift` added to its leading m diagonal entries.

    By Sylvester's law of inertia it is that of D in the Bunch-Kaufman
    factorization L D L^T (LAPACK dsytrf, on a Fortran-order copy): one per
    negative 1 x 1 pivot, and one per 2 x 2 pivot, whose determinant
    Bunch-Kaufman pivoting keeps negative. A 2 x 2 pivot marks both of
    its rows with a negative ipiv.
    """
    A = A.copy(order="F")
    A[np.diag_indices(m)] += shift
    # the blocked code's workspace: the default n runs unblocked, 2x slower at n = 512
    lwork = int(scipy.linalg.lapack.dsytrf_lwork(A.shape[0], lower=1)[0])
    ldu, ipiv, _ = scipy.linalg.lapack.dsytrf(A, lower=1, lwork=lwork, overwrite_a=1)
    one_by_one = ldu.diagonal()[ipiv > 0]
    return int(np.count_nonzero(one_by_one < 0.0) + np.count_nonzero(ipiv < 0) // 2)


def _active_rows(
    S: SpectralDecomposition, nl: Nonlinearity, a: NDArray[np.float64]
) -> tuple[NDArray[np.float64], NDArray[np.intp]]:
    """Each evaluation point's weight qw * f', and the points where it
    exceeds eps * the largest weight; the others fall below the rounding
    of the Gram sum G^T G."""
    grid = _eval_grid(S, nl)
    weight = (grid.qw * nl.fprime(grid.samples(S.values_from_a(a)), grid.h)).reshape(-1)
    return weight, np.flatnonzero(weight > np.finfo(float).eps * weight.max())


def _gram_factor(
    S: SpectralDecomposition, nl: Nonlinearity, weight: NDArray, rows: NDArray[np.intp]
) -> NDArray[np.float64]:
    """The rows of G, G^T G the nonlinear block of the Hessian in a-coordinates."""
    G = _eval_grid(S, nl).fields[rows]
    G *= np.sqrt(weight[rows])[:, None]
    G /= S.weights
    return G


def hessian_model(
    S: SpectralDecomposition,
    nl: Nonlinearity,
    a: NDArray[np.float64],
    X: NDArray[np.float64] | None = None,
) -> HessianModel:
    """The Hessian of J at a, its subspace U containing X (N x l, default none).

    A fixed rule picks U before anything is built: with r active rows
    (`_active_rows`) on either evaluation grid, the Householder blocks of
    [G^T X], factored on first use, when min(j, r+l) + min(N - j, r+l)
    <= N/2; otherwise U = I and K is the dense `a_hessian`.
    """
    n, j = S.num_modes, S.j
    X = np.zeros((n, 0)) if X is None else X
    weight, rows = _active_rows(S, nl, a)
    c = rows.size + X.shape[1]
    if min(j, c) + min(n - j, c) > n // 2:
        return HessianModel(S.signs, j, X, K=a_hessian(S, nl, a))
    return HessianModel(S.signs, j, X, G=_gram_factor(S, nl, weight, rows))


# -- field-level diagnostics ---------------------------------------------------


def interaction_defect(
    u_list: list[GridField],
    phi: GridField,
    psi: GridField,
    nl: Nonlinearity,
) -> float:
    """int |f'(x, sum u_i) - sum f'(x, u_i)| |phi| |psi| dx.

    Measures how far f' is from additive over the superposition; decays to
    zero as the summands separate. Plain collocation quadrature: the
    integrand's absolute values leave the trigonometric space anyway.
    """
    if not u_list:
        raise ValueError("need at least one summand")
    dom = u_list[0].domain
    for u in u_list[1:]:
        if not u.domain.compatible(dom):
            raise ValueError("summands live on incompatible domains")
    h = nl.weight_values(dom)
    total = np.zeros(dom.shape)
    split = np.zeros(dom.shape)
    for u in u_list:
        total = total + u.values
        split = split + nl.fprime(u.values, h)
    defect = np.abs(nl.fprime(total, h) - split) * np.abs(phi.values) * np.abs(psi.values)
    return float(dom.spacing**dom.dim * defect.sum())
