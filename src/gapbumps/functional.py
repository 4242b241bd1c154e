"""The indefinite energy J, its gradient and Hessian in the gap metric.

J(u) = 1/2 ||T u||_k^2 - 1/2 ||P u||_k^2 - int F(x, u) with the power
nonlinearity f(x,t) = h(x) |t|^(p-2) t. Everything is expressed through the
eigencoefficients of the operator decomposition: in the weighted a-basis
the quadratic part is D = diag(sign lambda) and the gradient is the plain
Euclidean representative, so Newton systems need no mass matrix.

The Hessian there is D - G^T G, one row of G per evaluation point.
`hessian_model` is its one representation. Where the solution is a
localized bump most rows carry a negligible weight f', and G keeps the
r active ones. G is never formed for the linear algebra: G v and G^T y
are transforms of the decomposition, and since D / w^2 = 1 / lambda,
G D G^T is the torus Green's function E Lambda^-1 E^T at the active
points, a gather from the decomposition's Green table, built once per
evaluation grid; a second table, on the negative modes, gives
G (D - sigma I)^-1 G^T at any shift sigma. A model has two forms. With
r <= N it carries the rows:
- Newton solves through the r x r capacitance (1+mu) I - G D G^T;
- the reduction and the gluing reach the complement of a block X
  (l columns) through the (r+l) bordered capacitance: its solve gives
  the projected Newton step and the reduced Hessian, its LDL^T
  inertia the degeneracy monitor. A factorization of order r + l
  replaces one of order N + l, and no N x N matrix is formed;
- the census and the kernel split, which need Ritz data, read one
  route: the Rayleigh-Ritz matrix K on an H-invariant frame U that
  contains the active rows and X, built on first use, exact to rounding
  however wide U is (Parlett, The Symmetric Eigenvalue Problem, ch. 11).
Only when more rows are active than there are modes (the dealiased 2-d
fixture) is the model the dense `a_hessian` alone, backend "dense",
with bordered matrices of order N + l.

Nonlinear terms are evaluated on the grid of `Nonlinearity.dealias_factor`:
the torus grid itself at the default factor 1 (collocation), a zero-padded
fine grid above it (the cubic terms of p=4 need factor >= 3 for exact
quadrature, which the degenerate translation fixture uses so its symmetry
survives discretely). The fine grid has a whole number of points per
cell, so it repeats cell by cell and the fibers' eigenvectors
interpolated to its in-cell points serve it as they serve the torus
grid. Either grid is one `_EvalGrid`, built once per decomposition: u
reaches the evaluation points through an interpolation matrix along each
axis and forces return through its transpose (collocation: the
identity), so the finite-difference identities hold at machine accuracy
on either grid. Values, gradients and Hessian-vector products need
nothing else. The dense Hessian's nonlinear block is the decomposition's
E^T M E for the grid form M of `_EvalGrid.form`.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
from numpy.typing import NDArray

from .operator import GreenTable, PeriodicPotential, SpectralDecomposition
from .torus import GridField

__all__ = [
    "HessianModel",
    "NegativeWeight",
    "Nonlinearity",
    "hessian_model",
    "interaction_defect",
    "solve_symmetric",
]


@dataclass(frozen=True)
class Nonlinearity:
    """f(x,t) = h(x) |t|^(p-2) t, F = h |t|^p / p: the growth and coercivity
    exponents of the hypotheses are both p. p >= 3 keeps f' locally
    Lipschitz at t = 0, which Newton relies on; h (None: h = 1) must be
    nonnegative. dealias_factor >= 1 picks the evaluation grid: 1 is the
    torus grid, more zero-pads each axis to at least that many points.
    """

    p: float = 4.0
    weight: PeriodicPotential | None = None
    dealias_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.p < 3.0:
            raise ValueError(f"p must be >= 3 (got {self.p}) so f' stays Lipschitz at 0")
        if self.dealias_factor < 1.0:
            raise ValueError(f"dealias_factor must be >= 1, got {self.dealias_factor}")
        if self.weight is not None:
            probe = self.weight.profile(np.linspace(0.0, 1.0, 257)) - self.weight.shift
            _require_nonnegative(probe)

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
        d: dict = {"p": self.p}
        if self.weight is not None:
            d["h"] = self.weight.to_dict()
        if self.dealias_factor != 1.0:
            d["dealias_factor"] = self.dealias_factor
        return d


class NegativeWeight(ValueError):
    """The weight h takes a negative value where the energy evaluates it."""


def _require_nonnegative(h: NDArray[np.float64]) -> NDArray[np.float64]:
    if h.min() < 0.0:
        raise NegativeWeight(f"weight h must be nonnegative (minimum {h.min():.3g})")
    return h


# -- evaluation grid of the nonlinear terms ---------------------------------------


def _interpolation_matrix(n: int, factor: float, cells: int = 1) -> NDArray[np.float64]:
    """Zero-padded trigonometric interpolation from n to nf >= factor * n
    equispaced points of a period, as an nf x n matrix: nf is the smallest
    even multiple of `cells` there, so that on a torus of that many cells
    the fine points repeat cell by cell.

    An even n's Nyquist mode is split evenly between +-n/2, so that its
    interpolant is the real cosine; with nf = n the matrix is the identity.
    """
    nf = -(-int(np.ceil(n * factor)) // cells) * cells
    if nf % 2:  # an odd multiple of an odd cell count: the next one is even
        nf += cells
    spec = np.fft.rfft(np.eye(n), axis=0)
    if nf > n and n % 2 == 0:
        spec[n // 2] *= 0.5
    return np.fft.irfft(spec, nf, axis=0) * (nf / n)


def _along_axes(M: NDArray[np.float64], x: NDArray[np.float64], dim: int) -> NDArray[np.float64]:
    """M applied along each of the last `dim` (1 or 2) axes of x."""
    x = x @ M.T
    return M @ x if dim == 2 else x


@dataclass(eq=False)
class _EvalGrid:
    """The points where the nonlinear terms are evaluated, and their data.

    P (nf x n, the same on every axis) maps grid values to the evaluation
    points; None stands for the identity of the collocated grid. h and qw
    are the weight and the quadrature weight there. green is the
    decomposition's Green table on these points and negative_green its
    part on the negative modes, each built on first use by a model's
    capacitance. The grid holds no reference to the
    decomposition, so the weak-key cache can let go.
    """

    P: NDArray[np.float64] | None
    h: NDArray[np.float64] | float
    qw: float
    dim: int
    green: GreenTable | None = None
    negative_green: GreenTable | None = None

    def samples(self, values: NDArray[np.float64]) -> NDArray[np.float64]:
        """Grid values (the grid axes last) at the evaluation points."""
        return values if self.P is None else _along_axes(self.P, values, self.dim)

    def adjoint(self, fine: NDArray[np.float64]) -> NDArray[np.float64]:
        """The transpose of `samples`."""
        return fine if self.P is None else _along_axes(self.P.T, fine, self.dim)

    def form(self, w: NDArray[np.float64]) -> NDArray[np.float64]:
        """M = Q^T diag(w) Q for weights w at the evaluation points, Q the
        sampling map of `samples`: w itself (diagonal) on the collocated
        grid, else n^dim x n^dim (Q = P in 1-d, P x P in 2-d).

        In 1-d it is the symmetric rank-k update R^T R, R = diag(sqrt w) P
        (w >= 0 where the Hessian forms it: `a_hessian`). In 2-d,
        PP[a, (i, j)] = P[a, i] P[a, j] gives every axis-1 sum as one
        product, T = w PP, and the axis-0 sum as a second, PP^T T,
        which indexes M as ((i0 j0), (i1 j1)) (sum factorization; Deville,
        Fischer & Mund, High-Order Methods for Incompressible Fluid Flow,
        ch. 4).
        """
        P = self.P
        if P is None:
            return w.reshape(-1)
        nf, n = P.shape
        if self.dim == 1:
            R = np.sqrt(w).reshape(nf, 1) * P
            return R.T @ R
        PP = (P[:, :, None] * P[:, None, :]).reshape(nf, n * n)
        M = PP.T @ (w.reshape(nf, nf) @ PP)
        return M.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)


def _eval_mesh(domain, nf: int) -> list[NDArray[np.float64]]:
    """The coordinates of nf equispaced points per axis on the torus of `domain`."""
    coords = -0.5 * domain.cells + domain.cells * np.arange(nf) / nf
    return np.meshgrid(*([coords] * domain.dim), indexing="ij")


# evaluation grids per decomposition; a grid holds no reference back to its key
_GRIDS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _eval_grid(S: SpectralDecomposition, nl: Nonlinearity) -> _EvalGrid:
    """The (cached) grid of `nl.dealias_factor` on S's torus: nf points per
    axis, the smallest even multiple of k at or above factor * kM, so the
    fine points repeat cell by cell. At factor 1 the points -k/2 + k i/nf
    and the weight volume / nf^dim are the torus grid's own, bit for bit,
    because M is a power of two."""
    grids = _GRIDS.setdefault(S, {})
    key = (nl.dealias_factor, nl.weight)
    if key not in grids:
        dom = S.domain
        n = dom.points_per_axis
        P = None if nl.dealias_factor == 1.0 else _interpolation_matrix(n, nl.dealias_factor, dom.cells)
        nf = n if P is None else P.shape[0]
        h: NDArray | float = 1.0
        if nl.weight is not None:
            h = _require_nonnegative(nl.weight.evaluate_on(_eval_mesh(dom, nf)))
        grids[key] = _EvalGrid(P, h, dom.volume / nf**dom.dim, dom.dim)
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
    g = S.signs * a - S.a_from_dual(fterm)
    return J, g

def a_gradient(S, nl, a: NDArray[np.float64]) -> NDArray[np.float64]:
    return a_value_and_gradient(S, nl, a)[1]


def a_hessian(
    S: SpectralDecomposition, nl: Nonlinearity, a: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Dense symmetric Hessian of J in the weighted coordinates:
    D - E^T M E / (w w^T), M = `_EvalGrid.form` of the weights qw f'.

    M is diagonal on the collocated grid, where the block is a Gram product:
    f' = (p-1) h |u|^(p-2) >= 0 because p >= 3 and h >= 0 (`Nonlinearity`,
    `_eval_grid`). On a fine grid M is sum-factorized, so no N_f x N
    matrix is formed.
    """
    grid = _eval_grid(S, nl)
    weight = grid.qw * nl.fprime(grid.samples(S.values_from_a(a)), grid.h)
    A = S.a_form(grid.form(weight))
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
    return S.signs * v - S.a_from_dual(prod)


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

    def apply(self, v: NDArray[np.float64]) -> NDArray[np.float64]:
        """Q v."""
        if self.raw is None:
            return v
        work = v.size // v.shape[0]
        return scipy.linalg.lapack.dormqr("L", "N", *self.raw, v, lwork=max(1, work))[0]

    def embed(self, z: NDArray[np.float64]) -> NDArray[np.float64]:
        """Q z."""
        return self.apply(np.concatenate([z, np.zeros((self.width - self.dim,) + z.shape[1:])]))


def _columns(f, V: NDArray[np.float64], rows: int) -> NDArray[np.float64]:
    """f applied to each column of V, as the columns of a rows x c array."""
    out = np.empty((rows, V.shape[1]))
    for i, v in enumerate(V.T):
        out[:, i] = f(v)
    return out


class _MatrixRows:
    """An explicit r x N matrix G as a model's rows."""

    def __init__(self, G: NDArray[np.float64], signs: NDArray[np.float64]) -> None:
        self.matrix, self.signs, self.size = G, signs, G.shape[0]

    def dot(self, v: NDArray[np.float64]) -> NDArray[np.float64]:
        return self.matrix @ v

    def tdot(self, y: NDArray[np.float64]) -> NDArray[np.float64]:
        return self.matrix.T @ y

    @cached_property
    def gdg(self) -> NDArray[np.float64]:
        return (self.matrix * self.signs) @ self.matrix.T

    @cached_property
    def gqg(self) -> NDArray[np.float64]:
        neg = self.matrix[:, self.signs < 0.0]
        return neg @ neg.T


class _SampledRows:
    """G = diag(scale) Q_R E / w: the rows at the active evaluation points R
    of the sampling map Q, scaled by sqrt(qw f'), reached through S's
    transforms. G v is scale times values_from_a(v) sampled at R, G^T y
    is a_from_dual of the adjoint of scale y placed at R, one transform
    per column. Because D / w^2 = 1 / lambda, G D G^T = diag(scale)
    (Q L^-1 Q^T)[R, R] diag(scale) with L^-1 = E Lambda^-1 E^T: a gather
    from the grid's Green table; G P- G^T (P- the projection on the
    negative modes) is the same gather from the table of weights
    1 / |lambda| on the negative modes. The r x N matrix itself is built
    on first use, for the frame only.
    """

    def __init__(
        self, S: SpectralDecomposition, grid: _EvalGrid, points: NDArray[np.intp], scale: NDArray[np.float64]
    ) -> None:
        self.S, self.grid, self.points, self.scale = S, grid, points, scale
        self.size = points.size
        n = S.domain.points_per_axis
        self.shape = (n if grid.P is None else grid.P.shape[0],) * S.domain.dim

    def dot(self, v: NDArray[np.float64]) -> NDArray[np.float64]:
        if v.ndim == 2:
            return _columns(self.dot, v, self.size)
        return self.scale * self.grid.samples(self.S.values_from_a(v)).reshape(-1)[self.points]

    def tdot(self, y: NDArray[np.float64]) -> NDArray[np.float64]:
        if y.ndim == 2:
            return _columns(self.tdot, y, self.S.num_modes)
        fine = np.zeros(self.shape)
        fine.reshape(-1)[self.points] = self.scale * y
        return self.S.a_from_dual(self.grid.adjoint(fine))

    def _gather(self, table: str) -> NDArray[np.float64]:
        # a table depends on S and the grid's points only: one of each per grid
        if getattr(self.grid, table) is None:
            setattr(self.grid, table, self.S.green(self.grid.P, negative=table == "negative_green"))
        C = getattr(self.grid, table).block(self.points)
        C *= self.scale[:, None]
        C *= self.scale
        return C

    @cached_property
    def gdg(self) -> NDArray[np.float64]:
        return self._gather("green")

    @cached_property
    def gqg(self) -> NDArray[np.float64]:
        return self._gather("negative_green")

    @cached_property
    def matrix(self) -> NDArray[np.float64]:
        return self.S.a_rows(self.points, self.scale, self.grid.P)


class HessianModel:
    """H = D - G^T G, D = diag(sign lambda), at one point, with a block X
    (N x l) whose complement the reduction and the gluing work on.

    Every linear solve and inertia count goes through G (r x N, one row
    per active evaluation point, r <= N), an explicit matrix or
    `hessian_model`'s sampled rows, which reach G, G^T and the Gram
    blocks through transforms and Green tables. Newton's `solve` uses the
    r x r capacitance (1+mu) I - G D G^T by the Sherman-Morrison-Woodbury
    identity (Hager, Updating the inverse of a matrix, SIAM Review 31,
    1989); by the matrix determinant lemma H + mu D is singular exactly
    when it is. The complement of span X is reached through the bordered
    (KKT) matrix A(sigma) = [[H - sigma I, X], [X^T, 0]] (Nocedal &
    Wright, Numerical Optimization, ch. 16), and A(sigma) through the
    (r+l) x (r+l) capacitance R(sigma) (`capacitance`): its solve at
    sigma = 0 gives `projected_step` and `reduced_hessian`, and its
    inertia at sigma = +-s gives `complement_degenerates`
    (`negative_count`). Nothing of order N is formed or factored there.

    Ritz data (K, `eigenvalues`, `embed`, `complement`, `off_signs`) is
    for the census and the kernel split only, and built on first use.
    With G it comes from a frame: D keeps the negative block (the first
    j coordinates) and the positive block apart, so orthonormalizing
    each block's part of [G^T X] on its own gives U = blockdiag(Q-, Q+)
    with range(G^T) and span X inside span U: an H-invariant span, with
    H = D = +-1 on its complement. Only orthogonal transforms and the
    m x m matrix K = U^T H U (Rayleigh-Ritz, exact to rounding) are
    involved, m = subspace_dim; a block that its columns fill is the
    identity. That is the one Ritz route of the rows form. The other
    form, backend "dense", is the dense Hessian K alone, with U = I, for
    more active rows than modes: every solve and count runs on K and the
    bordered matrix of order N + l.
    """

    def __init__(
        self,
        signs: NDArray,
        j: int,
        X: NDArray,
        G: NDArray | _SampledRows | None = None,
        K: NDArray | None = None,
    ) -> None:
        self.signs, self.j, self.X = signs, j, X
        self.G = _MatrixRows(G, signs) if isinstance(G, np.ndarray) else G
        self._dense = K
        self.backend = "low-rank" if K is None else "dense"

    @cached_property
    def _C(self) -> NDArray[np.float64] | None:
        """[G^T X] as a Fortran-order view (of G alone without X): QR copies it cheaply."""
        if self._dense is not None:
            return None
        G = self.G.matrix
        return (np.concatenate([G, self.X.T]) if self.X.shape[1] else G).T

    @cached_property
    def neg(self) -> _SignBlock:
        return _SignBlock(self.j, None if self._C is None else self._C[: self.j])

    @cached_property
    def pos(self) -> _SignBlock:
        return _SignBlock(self.signs.size - self.j, None if self._C is None else self._C[self.j :])

    @cached_property
    def K(self) -> NDArray[np.float64]:
        if self._dense is not None:
            return self._dense
        r = self.G.size
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

    def eigenvalues(self) -> NDArray[np.float64]:
        """All N eigenvalues, ascending: K's, and the off_signs."""
        return np.sort(np.concatenate([scipy.linalg.eigvalsh(self.K), self.off_signs]))

    def _D(self, v: NDArray[np.float64]) -> NDArray[np.float64]:
        """D v, for one column or several."""
        return (self.signs * v.T).T

    def matvec(self, v: NDArray[np.float64]) -> NDArray[np.float64]:
        """H v, for one column or several."""
        if self.G is None:
            return self.K @ v
        return self._D(v) - self.G.tdot(self.G.dot(v))

    def solve(self, rhs: NDArray[np.float64], mu: float) -> NDArray[np.float64]:
        """d with (H + mu D) d = rhs.

        With G, d = D (rhs + G^T y) / (1+mu), y solving
        ((1+mu) I - G D G^T) y = G D rhs.
        """
        if self.G is None:
            return solve_symmetric(self.K + np.diag(mu * self.signs), rhs)
        cap = np.negative(self.G.gdg, order="F")
        cap[np.diag_indices_from(cap)] += 1.0 + mu
        y = solve_symmetric(cap, self.G.dot(self.signs * rhs))
        return self.signs * (rhs + self.G.tdot(y)) / (1.0 + mu)

    @cached_property
    def _split_X(self) -> tuple[NDArray, NDArray, NDArray, NDArray]:
        """G X+, G X-, X+^T X+ and X-^T X-, X+ and X- X's rows of positive
        and of negative sign: 2l transforms that every shift shares."""
        neg = (self.signs < 0.0)[:, None]
        Xp, Xn = np.where(neg, 0.0, self.X), np.where(neg, self.X, 0.0)
        return self.G.dot(Xp), self.G.dot(Xn), Xp.T @ Xp, Xn.T @ Xn

    def capacitance(self, sigma: float) -> NDArray[np.float64]:
        """R(sigma) = [[I - G Ds^-1 G^T, -G Ds^-1 X], [-X^T Ds^-1 G^T, -X^T Ds^-1 X]],
        Ds = D - sigma I (|sigma| != 1), of order r + l, in Fortran order.

        Ds^-1 is 1/(1 - sigma) on the positive modes and -1/(1 + sigma)
        on the negative ones, so G Ds^-1 G^T = (G D G^T + 2 sigma/(1 + sigma)
        G P- G^T) / (1 - sigma), two gathers; at sigma = 0 it is Newton's
        G D G^T itself, bit for bit.
        """
        r, l = self.G.size, self.X.shape[1]
        GXp, GXn, XXp, XXn = self._split_X
        p, q = 1.0 / (1.0 - sigma), 1.0 / (1.0 + sigma)
        R = np.empty((r + l, r + l), order="F")
        C = R[:r, :r]
        if sigma == 0.0:
            np.negative(self.G.gdg, out=C)
        else:
            np.multiply(self.G.gqg, 2.0 * sigma * q, out=C)
            C += self.G.gdg
            C *= -p
        R[np.diag_indices(r)] += 1.0
        R[:r, r:] = q * GXn - p * GXp
        R[r:, :r] = R[:r, r:].T
        R[r:, r:] = q * XXn - p * XXp
        return R

    def negative_count(self, sigma: float) -> int:
        """The number of negative eigenvalues of [[H - sigma I, X], [X^T, 0]].

        Eliminating the I block or the D - sigma I block of
        [[D - sigma I, X, G^T], [X^T, 0, 0], [G, 0, I]] gives
        n-(D - sigma I) + n-(R(sigma)) (Haynsworth, Determination of the
        inertia of a partitioned Hermitian matrix, Linear Algebra Appl. 1,
        1968). At sigma = +-1, D - sigma I is singular and R(sigma) does
        not exist: the count runs there on the bordered matrix of order
        N + l, H built column by column, as it does on K without G. Only a
        ceiling of exactly 1 asks for that shift.
        """
        if self.G is None or abs(sigma) == 1.0:
            H = self.K if self.G is None else self.matvec(np.eye(self.signs.size))
            return _negative_count(_bordered(H, self.X, sigma))
        return int(np.count_nonzero(self.signs < sigma)) + _negative_count(self.capacitance(sigma))

    def complement_degenerates(self, ceiling: float) -> bool:
        """Whether 1/min|eig| of H on the complement of span X exceeds `ceiling`.

        With X of full column rank l, [[H - sigma I, X], [X^T, 0]] has
        exactly l more negative eigenvalues than C - sigma I, C the
        complement block (Sylvester's law of inertia; Gould 1985). So C has
        an eigenvalue in [-s, s), s = 1/ceiling, exactly when the count
        rises from shift -s to shift +s.
        """
        s = 1.0 / ceiling
        return self.negative_count(s) > self.negative_count(-s)

    def _bordered_solve(self, b: NDArray[np.float64]) -> NDArray[np.float64]:
        """y (N x c) with [[H, X], [X^T, 0]] [y; lambda] = [b; 0], b N x c.

        With G, R(0) [z; lambda] = [-G D b; -X^T D b] and
        y = D (b - X lambda - G^T z).
        """
        l = self.X.shape[1]
        if self.G is None:
            rhs = np.concatenate([b, np.zeros((l, b.shape[1]))])
            return solve_symmetric(_bordered(self.K, self.X, 0.0), rhs)[: b.shape[0]]
        r = self.G.size
        Db = self._D(b)
        zl = solve_symmetric(self.capacitance(0.0), -np.concatenate([self.G.dot(Db), self.X.T @ Db]))
        return self._D(b - self.X @ zl[r:] - self.G.tdot(zl[:r]))

    def projected_step(self, w: NDArray[np.float64], g: NDArray[np.float64]) -> NDArray[np.float64]:
        """w plus the Newton step y for the gradient g orthogonal to X:
        H y + X lambda = -g, X^T y = 0."""
        return w + self._bordered_solve(-g[:, None])[:, 0]

    def reduced_hessian(self) -> NDArray[np.float64]:
        """The Hessian of x -> J(a + Xx + w(x)) at x = 0, w solving P grad J = 0
        (P projects off span X; the model's point a must have w(0) = 0).

        It is X^T H (X + w'), and the projected equation gives
        H w' + X Lambda = -H X with X^T w' = 0: so (H X)^T (X + w'),
        symmetrized.
        """
        HX = self.matvec(self.X)
        Hred = HX.T @ (self.X + self._bordered_solve(-HX))
        return 0.5 * (Hred + Hred.T)


def _bordered(K: NDArray[np.float64], X: NDArray[np.float64], sigma: float) -> NDArray[np.float64]:
    """[[K - sigma I, X], [X^T, 0]], written in place in Fortran order."""
    n, l = X.shape
    A = np.empty((n + l, n + l), order="F")
    A[:n, :n] = K
    A[np.diag_indices(n)] -= sigma
    A[:n, n:] = X
    A[n:, :n] = X.T
    A[n:, n:] = 0.0
    return A


def _ldlt(A: NDArray[np.float64]):
    """The Bunch-Kaufman factorization A = U D U^T of A's upper triangle
    (LAPACK dsytrf): (factors, ipiv, info), in place of a Fortran-order A
    and in a copy of any other. It takes the blocked code's workspace:
    the default runs unblocked, 2x slower at n = 512."""
    lwork = int(scipy.linalg.lapack.dsytrf_lwork(A.shape[0], lower=0)[0])
    return scipy.linalg.lapack.dsytrf(A, lower=0, lwork=lwork, overwrite_a=1)


def solve_symmetric(A: NDArray[np.float64], b: NDArray[np.float64]) -> NDArray[np.float64]:
    """x with A x = b for a symmetric A (its upper triangle is read) and one
    right-hand side or several: LAPACK dsytrf, then dsytrs. These are the
    bits of scipy.linalg.solve(A, b, assume_a="sym"), without its
    condition estimate and copies, so an ill-conditioned A gives no
    LinAlgWarning: a Fortran-order A is overwritten by its factors.
    Raises LinAlgError on an exactly zero pivot; an empty system has an
    empty solution."""
    if A.shape[0] == 0:
        return np.zeros(b.shape)
    ldu, ipiv, info = _ldlt(A)
    if info > 0:
        raise scipy.linalg.LinAlgError(f"singular matrix: zero pivot in row {info}")
    return scipy.linalg.lapack.dsytrs(ldu, ipiv, b, lower=0)[0]


def _negative_count(A: NDArray[np.float64]) -> int:
    """The number of negative eigenvalues of the symmetric matrix A, which
    it overwrites when A is in Fortran order.

    By Sylvester's law of inertia it is that of D in the Bunch-Kaufman
    factorization U D U^T (`_ldlt`): one per negative 1 x 1 pivot, and one
    per 2 x 2 pivot, whose determinant Bunch-Kaufman pivoting keeps
    negative. A 2 x 2 pivot marks both of its rows with a negative ipiv.
    """
    ldu, ipiv, _ = _ldlt(A)
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
) -> _SampledRows:
    """The rows of G, G^T G the nonlinear block of the Hessian in a-coordinates:
    the sampling map's rows at the active points, scaled by sqrt(weight)."""
    return _SampledRows(S, _eval_grid(S, nl), rows, np.sqrt(weight[rows]))


def hessian_model(
    S: SpectralDecomposition,
    nl: Nonlinearity,
    a: NDArray[np.float64],
    X: NDArray[np.float64] | None = None,
) -> HessianModel:
    """The Hessian of J at a, with the block X (N x l, default none).

    The number r of active rows (`_active_rows`, on either evaluation
    grid) picks the model's form before anything is built. With r <= N
    the model carries the sampled rows (backend "low-rank"): every solve
    and count goes through a capacitance of order at most r + l <= N + l,
    and its Ritz data comes from the Householder blocks of [G^T X], built
    on first use. With r > N it is the dense `a_hessian` alone ("dense").
    """
    X = np.zeros((S.num_modes, 0)) if X is None else X
    weight, rows = _active_rows(S, nl, a)
    if rows.size > S.num_modes:
        return HessianModel(S.signs, S.j, X, K=a_hessian(S, nl, a))
    return HessianModel(S.signs, S.j, X, G=_gram_factor(S, nl, weight, rows))


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
