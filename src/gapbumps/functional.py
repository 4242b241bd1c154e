"""The indefinite energy J, its gradient and Hessian in the gap metric.

J(u) = 1/2 ||T u||_k^2 - 1/2 ||P u||_k^2 - int F(x, u) with the power
nonlinearity f(x,t) = h(x) |t|^(p-2) t. Everything is expressed through the
eigencoefficients of the operator decomposition: in the weighted a-basis
the quadratic part is D = diag(sign lambda) and the gradient is the plain
Euclidean representative, so Newton systems need no mass matrix.

The Hessian there is D - G^T G, one row of G per evaluation point.
`hessian_model` is its one representation. Where the solution is a
localized bump most rows carry a weight f' that cannot matter, and G
keeps the r active ones: dropping rows removes a positive semidefinite
part of G^T G of norm at most max(dropped f') / min|lambda|, so a point
is kept when its f' exceeds ROW_CUT * (max f' + min|lambda|), and by
Weyl's inequality no eigenvalue moves by more than ROW_CUT * (1 +
max f' / min|lambda|), the bound on ||H|| (`_active_rows`). With the
exact gradient, Newton on the cut Hessian is an inexact Newton method
(Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19, 1982). G is
never formed for the linear algebra: G v and G^T y are transforms of
the decomposition, and since D / w^2 = 1 / lambda,
G D G^T is the torus Green's function E Lambda^-1 E^T at the active
points, a gather from the decomposition's Green table, built once per
evaluation grid; a second table, on the negative modes, gives
G (D - sigma I)^-1 G^T at any shift sigma. A model has two forms. With
r <= N it carries the rows:
- Newton solves through the r x r capacitance (1+mu) I - G D G^T;
- the reduction and the gluing reach the complement of a block X
  (l columns) through the (r+l) bordered capacitance: its one
  factorization per model (`HessianModel.bordered_solver`) solves for
  the projected Newton step and the reduced Hessian, and the corrector
  keeps it across chord steps; its LDL^T inertia at two shifts is the
  degeneracy monitor. A factorization of order r + l
  replaces one of order N + l, and no N x N matrix is formed. Where a
  reference model's gap and the weights' change prove the monitor's
  verdict by Weyl's inequality, its counts are skipped
  (`gap_certified`, `_weight_distance`);
- the census counts by the same inertia, at shifts set by a Lanczos
  spectral radius (`spectral_radius`);
- the kernel split takes its counts from the census and its vectors
  from Lanczos on `HessianModel.inverse`: Newton's capacitance at
  mu = 0, factored once and applied to each Lanczos vector (shift-invert
  at 0; Parlett, The Symmetric Eigenvalue Problem, ch. 13).
When more rows are active than there are modes (the dealiased 2-d
fixture), the model is dense, backend "dense", held in the torus grid's
values z = T^-1 a (T = h W E^T), where T^T H T = h (-Lap + V) - M for
the grid form M of `_EvalGrid.form`: its solves and counts run on
matrices congruent to H's (`_Congruence`), O(N^2) per model beyond the
factorization.

Nonlinear terms are evaluated on the grid of `Nonlinearity.dealias_factor`:
the torus grid itself at the default factor 1 (collocation), a zero-padded
fine grid above it (the cubic terms of p=4 need factor >= 3 for exact
quadrature, which the degenerate translation fixture uses so its symmetry
survives discretely). The fine grid has a whole number of points per
cell, so it repeats cell by cell, and its fiber table (the fibers'
eigenvectors at its in-cell points) serves it as the fibers serve the
torus grid. Either grid is one `_EvalGrid`, built once per
decomposition: u reaches its points straight from the a-coordinates,
and forces return through the transpose of that transform, so the
finite-difference identities hold at machine accuracy on either grid.
Values, gradients, Hessian-vector products, Green tables and rows of G
need no nf x n matrix. The reference `a_hessian`, which the tests
compare models against, is D - E^T M E / (w w^T) for the same grid form M.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
from numpy.typing import NDArray

from .operator import FiberTable, GreenTable, PeriodicPotential, SpectralDecomposition
from .torus import GridField

__all__ = [
    "HessianModel",
    "NegativeWeight",
    "Nonlinearity",
    "ROW_CUT",
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


def _interpolation_rows(n: int, factor: float, cells: int) -> NDArray[np.float64]:
    """The first cell's rows of zero-padded trigonometric interpolation
    from n to nf >= factor * n equispaced points of a period, nf the
    smallest even multiple of `cells` there, so that on a torus of that
    many cells the fine points repeat cell by cell: nf / cells x n.

    Row s is the kernel at x_s = s n / nf torus steps, one FFT of
    e^{2 pi i xi x_s / n} over the integer frequencies xi, over n. n = k M
    is even (M is a power of two), and its Nyquist mode is split evenly
    between +-n/2: its interpolant is the real cosine cos(pi x_s).
    """
    nf = -(-int(np.ceil(n * factor)) // cells) * cells
    if nf % 2:  # an odd multiple of an odd cell count: the next one is even
        nf += cells
    s = np.arange(nf // cells)
    xi = np.fft.fftfreq(n, 1.0 / n).astype(int)
    waves = np.exp(2j * np.pi * (np.outer(s, xi) % nf) / nf)  # xi x_s / n = xi s / nf, reduced exactly
    waves[:, n // 2] = np.cos(np.pi * (s * n % (2 * nf)) / nf)
    return np.fft.fft(waves, axis=1).real / n


@dataclass(eq=False)
class _EvalGrid:
    """The points where the nonlinear terms are evaluated, and their data.

    nf points per axis, reached from a-coordinates through the
    decomposition's fiber table on them (None: the torus grid), built from
    rows, the interpolation's first cell of rows (per_cell x n). h and qw
    are the weight and the quadrature weight there. green is the
    decomposition's Green table on these points and negative_green its
    part on the negative modes, each built on first use by a model's
    capacitance. The grid holds arrays only, so the weak-key cache can
    let go.
    """

    fibers: FiberTable | None
    rows: NDArray[np.float64] | None
    nf: int
    h: NDArray[np.float64] | float
    qw: float
    green: GreenTable | None = None
    negative_green: GreenTable | None = None

    def form(self, w: NDArray[np.float64]) -> NDArray[np.float64]:
        """M = Q^T diag(w) Q for weights w at the evaluation points (shaped
        like the grid), Q the sampling map onto them: w itself (diagonal)
        on the collocated grid, else n^dim x n^dim (Q = P in 1-d, P x P in 2-d).

        P (nf x n) is tiled from the first cell's rows: row block c is the
        first rolled by c cells of torus points. In 1-d M is the symmetric
        rank-k update R^T R, R = diag(sqrt w) P (w = qw f' >= 0 wherever a
        Hessian forms it). In 2-d, PP[a, (i, j)] = P[a, i] P[a, j]
        gives every axis-1 sum as one product, T = w PP, and the axis-0 sum
        as a second, PP^T T, which indexes M as ((i0 j0), (i1 j1)) (sum
        factorization; Deville, Fischer & Mund, High-Order Methods for
        Incompressible Fluid Flow, ch. 4). Its middle axes are swapped in
        place, block by block, so a model builds one n^2 x n^2 array here,
        not two.
        """
        if self.rows is None:
            return w.reshape(-1)
        per_cell, n = self.rows.shape
        nf, cells = self.nf, self.nf // per_cell
        P = np.concatenate([np.roll(self.rows, c * n // cells, axis=1) for c in range(cells)])
        if w.ndim == 1:
            R = np.sqrt(w).reshape(nf, 1) * P
            return R.T @ R
        PP = (P[:, :, None] * P[:, None, :]).reshape(nf, n * n)
        M = PP.T @ (w.reshape(nf, nf) @ PP)
        for block in M.reshape(n, n, n, n):  # to ((i0 i1), (j0 j1)), one n^3 block at a time
            block[...] = block.transpose(1, 0, 2)
        return M


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
        rows, fibers, nf = None, None, n
        if nl.dealias_factor != 1.0:
            rows = _interpolation_rows(n, nl.dealias_factor, dom.cells)
            fibers = S.fiber_samples(rows)
            nf = rows.shape[0] * dom.cells
        h: NDArray | float = 1.0
        if nl.weight is not None:
            h = _require_nonnegative(nl.weight.evaluate_on(_eval_mesh(dom, nf)))
        grids[key] = _EvalGrid(fibers, rows, nf, h, dom.volume / nf**dom.dim)
    return grids[key]


def energy_density(S: SpectralDecomposition, nl: Nonlinearity, u: GridField) -> tuple[NDArray, list[NDArray]]:
    """qw F(x, u) at each evaluation point, the nonlinear part of J point
    by point, and the points' coordinate mesh."""
    grid = _eval_grid(S, nl)
    # on the torus grid, u's own values: a round trip through a would move their last bits
    values = u.values if grid.fibers is None else S.values_from_a(S.a_from_field(u), grid.fibers)
    return grid.qw * nl.F(values, grid.h), _eval_mesh(S.domain, grid.nf)


# -- weighted-coordinate calculus (used by solvers) ------------------------------

# the Hessian's row cut, relative to the bound on ||H|| (`_active_rows`)
ROW_CUT = 1e-10


def a_value_and_gradient(
    S: SpectralDecomposition, nl: Nonlinearity, a: NDArray[np.float64]
) -> tuple[float, NDArray[np.float64]]:
    """J and its (.,.)_k-gradient at the point with weighted coordinates a."""
    grid = _eval_grid(S, nl)
    samples = S.values_from_a(a, grid.fibers)
    J = 0.5 * float(np.dot(S.signs * a, a)) - grid.qw * float(np.sum(nl.F(samples, grid.h)))
    g = S.signs * a - S.a_from_dual(grid.qw * nl.f(samples, grid.h), grid.fibers)
    return J, g

def a_gradient(S, nl, a: NDArray[np.float64]) -> NDArray[np.float64]:
    return a_value_and_gradient(S, nl, a)[1]


def a_hessian(S: SpectralDecomposition, nl: Nonlinearity, a: NDArray[np.float64]) -> NDArray[np.float64]:
    """Dense symmetric Hessian of J in the weighted coordinates:
    D - E^T M E / (w w^T), M = `_EvalGrid.form` of the weights qw f'.

    The reference the tests compare `hessian_model` against; the package
    itself never forms it. M is diagonal on the collocated grid, where the
    block is a Gram product: f' = (p-1) h |u|^(p-2) >= 0 because p >= 3
    and h >= 0 (`Nonlinearity`, `_eval_grid`). On a fine grid M is
    sum-factorized, so no N_f x N matrix is formed.
    """
    grid = _eval_grid(S, nl)
    weight = grid.qw * nl.fprime(S.values_from_a(a, grid.fibers), grid.h)
    A = S.a_form(grid.form(weight))
    np.negative(A, out=A)
    A[np.diag_indices_from(A)] += S.signs
    return A


def a_hessvec(
    S: SpectralDecomposition, nl: Nonlinearity, a: NDArray, v: NDArray
) -> NDArray[np.float64]:
    """Hessian-vector product in weighted coordinates, no dense assembly."""
    grid = _eval_grid(S, nl)
    prod = grid.qw * nl.fprime(S.values_from_a(a, grid.fibers), grid.h) * S.values_from_a(v, grid.fibers)
    return S.signs * v - S.a_from_dual(prod, grid.fibers)


def _columns(f, V: NDArray[np.float64], rows: int) -> NDArray[np.float64]:
    """f applied to each column of V, as the columns of a rows x c array."""
    out = np.empty((rows, V.shape[1]))
    for i, v in enumerate(V.T):
        out[:, i] = f(v)
    return out


class _MatrixRows:
    """An explicit r x N matrix G as a model's rows. Its Gram blocks are
    formed per call; the model caches them (`HessianModel._gdg`)."""

    def __init__(self, G: NDArray[np.float64], signs: NDArray[np.float64]) -> None:
        self.matrix, self.signs, self.size = G, signs, G.shape[0]

    def dot(self, v: NDArray[np.float64]) -> NDArray[np.float64]:
        return self.matrix @ v

    def tdot(self, y: NDArray[np.float64]) -> NDArray[np.float64]:
        return self.matrix.T @ y

    @property
    def gdg(self) -> NDArray[np.float64]:
        return (self.matrix * self.signs) @ self.matrix.T

    @property
    def gqg(self) -> NDArray[np.float64]:
        neg = self.matrix[:, self.signs < 0.0]
        return neg @ neg.T


class _SampledRows:
    """G = diag(scale) Q_R E / w: the rows at the active evaluation points R
    of the sampling map Q, scaled by sqrt(qw f'), reached through S's
    transforms onto the grid (its fiber table). G v is scale times
    values_from_a(v) at R, G^T y is a_from_dual of scale y placed at R,
    one transform per column. Because D / w^2 = 1 / lambda, G D G^T =
    diag(scale) (Q L^-1 Q^T)[R, R] diag(scale) with L^-1 = E Lambda^-1
    E^T: a gather from the grid's Green table; G P- G^T (P- the
    projection on the negative modes) is the same gather from the table
    of weights 1 / |lambda| on the negative modes. No r x N matrix is
    formed. The rows hold what their transforms need and gather a block
    per call: the model caches the blocks, so a solver that keeps the
    rows keeps no r x r array (`HessianModel.bordered_solver`).
    """

    def __init__(
        self, S: SpectralDecomposition, grid: _EvalGrid, points: NDArray[np.intp], scale: NDArray[np.float64]
    ) -> None:
        self.S, self.grid, self.points, self.scale = S, grid, points, scale
        self.size = points.size

    def dot(self, v: NDArray[np.float64]) -> NDArray[np.float64]:
        if v.ndim == 2:
            return _columns(self.dot, v, self.size)
        return self.scale * self.S.values_from_a(v, self.grid.fibers).reshape(-1)[self.points]

    def tdot(self, y: NDArray[np.float64]) -> NDArray[np.float64]:
        if y.ndim == 2:
            return _columns(self.tdot, y, self.S.num_modes)
        fine = np.zeros((self.grid.nf,) * self.S.domain.dim)
        fine.reshape(-1)[self.points] = self.scale * y
        return self.S.a_from_dual(fine, self.grid.fibers)

    def _gather(self, table: str) -> NDArray[np.float64]:
        # a table depends on S and the grid's points only: one of each per grid
        if getattr(self.grid, table) is None:
            setattr(self.grid, table, self.S.green(self.grid.fibers, negative=table == "negative_green"))
        C = getattr(self.grid, table).block(self.points)
        C *= self.scale[:, None]
        C *= self.scale
        return C

    @property
    def gdg(self) -> NDArray[np.float64]:
        return self._gather("green")

    @property
    def gqg(self) -> NDArray[np.float64]:
        return self._gather("negative_green")


def _each(f, v: NDArray[np.float64]) -> NDArray[np.float64]:
    """f applied to v, or to each column of v (a map of R^N to itself)."""
    return f(v) if v.ndim == 1 else _columns(f, v, v.shape[0])


class _GridValues:
    """The coordinates z = T^-1 a, the values on the torus grid of the field
    with a-coordinates a: T = h W E^T, h the spacing to the power dim and
    W = diag sqrt|lambda|. T z is a_from_values(z) and T^T x = h E W x is
    h values_from_a(|lambda| x), one transform per column."""

    def __init__(self, S: SpectralDecomposition) -> None:
        self.S = S

    def apply(self, z: NDArray[np.float64]) -> NDArray[np.float64]:
        """T z."""
        return _each(self.S.a_from_values, z)

    def transpose(self, x: NDArray[np.float64]) -> NDArray[np.float64]:
        """T^T x."""
        h = self.S.domain.spacing**self.S.domain.dim
        return _each(lambda v: h * self.S.values_from_a(np.abs(self.S.eigenvalues) * v).reshape(-1), x)


class _SameCoordinates:
    """T = I: a dense model given by its a-coordinate Hessian."""

    @staticmethod
    def apply(v: NDArray[np.float64]) -> NDArray[np.float64]:
        return v

    transpose = apply


class _Congruence:
    """The dense Hessian K held as B = T^T K T in the coordinates
    z = T^-1 a of an invertible T, with L = T^T D T and
    T^T T = L + 2 F F^T, F of j columns (`_grid_hessian`; T = I, L = D
    and F the negative unit columns for a K given as such).

    By Sylvester's law of inertia every count and solve runs on B, with
    no product of order N^3: K + mu D is congruent to B + mu L, and the
    bordered [[K - sigma I, X], [X^T, 0]] to
    [[B - sigma (L + 2 F F^T), T^T X], [X^T T, 0]]. The rank-j term stays
    out of the N x N block: j more border rows, [F^T, 0, I / (2 sigma)],
    give it as their Schur complement, and their block adds j negative
    eigenvalues when sigma < 0 (Haynsworth).
    """

    def __init__(
        self,
        B: NDArray[np.float64],
        L: NDArray[np.float64],
        F: NDArray[np.float64],
        T: _GridValues | type[_SameCoordinates] = _SameCoordinates,
    ) -> None:
        self.B, self.L, self.F, self.T = B, L, F, T

    def inverse(self, mu: float):
        """rhs -> d = T z with (B + mu L) z = T^T rhs, (K + mu D) d = rhs,
        from one factorization of B + mu L."""
        A = np.multiply(self.L, mu, order="F")
        A += self.B
        solve = symmetric_solver(A)
        return lambda rhs: self.T.apply(solve(self.T.transpose(rhs)))

    def bordered(self, TX: NDArray[np.float64], sigma: float) -> NDArray[np.float64]:
        """[[B - sigma L, T^T X, F], [X^T T, 0, 0], [F^T, 0, I / (2 sigma)]]
        in Fortran order, without F's rows at sigma = 0, where B is copied
        in as it is. The matrix is symmetric, so it is filled in C order
        and handed over transposed."""
        n, l = TX.shape
        m = self.F.shape[1] if sigma else 0
        Z = np.empty((n + l + m,) * 2)
        if sigma:
            np.multiply(self.L, -sigma, out=Z[:n, :n])
            Z[:n, :n] += self.B
        else:
            Z[:n, :n] = self.B
        Z[:n, n : n + l] = TX
        Z[:n, n + l :] = self.F[:, :m]
        Z[n:, :n] = Z[:n, n:].T
        Z[n:, n:] = 0.0
        if m:
            border = np.arange(n + l, n + l + m)
            Z[border, border] = 0.5 / sigma
        return Z.T

    def negative_count(self, TX: NDArray[np.float64], sigma: float) -> int:
        """n-([[K - sigma I, X], [X^T, 0]]), TX = T^T X."""
        return _negative_count(self.bordered(TX, sigma)) - (self.F.shape[1] if sigma < 0.0 else 0)

    def bordered_solver(self, TX: NDArray[np.float64]):
        """b -> y = T z with [[B, T^T X], [X^T T, 0]] [z; lambda] = [T^T b; 0],
        b N x c, from one LDL^T. It holds the factors and T, not B."""
        n, l = TX.shape
        solve, T = symmetric_solver(self.bordered(TX, 0.0)), self.T

        def apply(b: NDArray[np.float64]) -> NDArray[np.float64]:
            return T.apply(solve(np.concatenate([T.transpose(b), np.zeros((l, b.shape[1]))]))[:n])

        return apply


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
    (r+l) x (r+l) capacitance R(sigma) (`capacitance`): its inertia at
    sigma = +-s gives `complement_degenerates` (`negative_count`), and
    `bordered_solver` factors R(0) once into a solver of A(0), which
    `projected_step` and `reduced_hessian` apply and the reduction's
    corrector keeps across its chord steps. That solver holds the
    factors, G's transforms, X and the signs: not the model, whose Gram
    blocks (`_gdg`, `_gqg`) it caches, so a kept solver keeps no model
    alive. Nothing of order N is formed or factored there. A model from
    `hessian_model` keeps its evaluation-point weights qw f' (`weight`)
    and their floor qw min|lambda|, so that `gap_certified` can bound its
    distance from a reference model.
    The census and the kernel split need no more: `spectral_radius` is
    Lanczos on `matvec`, their counts are `negative_count`s, and the
    kernel's vectors come from Lanczos on `inverse`, one factorization
    applied to every Lanczos vector.

    The other form, backend "dense", is for more active rows than modes
    (or a K given as such): `dense`, a `_Congruence`, holds B = T^T K T
    in grid coordinates, and every solve and count runs on B and its
    bordered matrix of order N + l (+ j), congruent to K's. G then keeps
    every evaluation point, for `matvec`.
    """

    def __init__(
        self,
        signs: NDArray,
        j: int,
        X: NDArray,
        G: NDArray | _SampledRows | None = None,
        K: NDArray | None = None,
        dense: _Congruence | None = None,
        weight: NDArray | None = None,
        floor: float = 0.0,
    ) -> None:
        self.signs, self.j, self.X = signs, j, X
        self.weight, self.floor = weight, floor
        self.G = _MatrixRows(G, signs) if isinstance(G, np.ndarray) else G
        if K is not None:
            dense = _Congruence(K, np.diag(signs), np.eye(signs.size)[:, signs < 0.0])
        self.dense = dense
        self.backend = "low-rank" if dense is None else "dense"

    def _D(self, v: NDArray[np.float64]) -> NDArray[np.float64]:
        """D v, for one column or several."""
        return (self.signs * v.T).T

    @cached_property
    def _gdg(self) -> NDArray[np.float64]:
        """G D G^T, shared by every capacitance of the model."""
        return self.G.gdg

    @cached_property
    def _gqg(self) -> NDArray[np.float64]:
        """G P- G^T, shared by every shifted capacitance of the model."""
        return self.G.gqg

    def matvec(self, v: NDArray[np.float64]) -> NDArray[np.float64]:
        """H v, for one column or several."""
        if self.G is None:
            return self.dense.B @ v
        return self._D(v) - self.G.tdot(self.G.dot(v))

    def spectral_radius(self) -> float:
        """max |mu| over the spectrum of H (a model without X), from
        `_lanczos_lowest` on `matvec`, certified by inertia.

        H <= D <= I, so no eigenvalue exceeds 1, and with a negative block
        (j >= 1) the lowest is at most -1: the radius is -mu_min, the
        lowest Ritz value's limit from above. One count, no eigenvalue
        below -(1 + RADIUS_RTOL) times the radius, certifies that Lanczos
        missed no lower mode. Without one (j = 0) the top may be the
        radius: a second run on -H finds it, and a second count above it
        certifies it. A failed certificate raises LinAlgError.
        """
        n = self.signs.size
        radius = -_lanczos_lowest(self.matvec, n)
        if radius < 1.0:
            radius = max(radius, -_lanczos_lowest(lambda v: -self.matvec(v), n))
        edge = (1.0 + RADIUS_RTOL) * radius
        missed = self.negative_count(-edge)
        if edge < 1.0:
            missed += n - self.negative_count(edge)
        if missed:
            raise scipy.linalg.LinAlgError(
                f"Lanczos radius {radius:.17g} misses {missed} eigenvalue(s) beyond it"
            )
        return radius

    def inverse(self, mu: float = 0.0):
        """rhs -> d with (H + mu D) d = rhs, for one right-hand side, from
        one factorization.

        With G, d = D (rhs + G^T y) / (1+mu), y solving
        ((1+mu) I - G D G^T) y = G D rhs; on the dense form, d = T z with
        (B + mu L) z = T^T rhs.
        """
        if self.dense is not None:
            return self.dense.inverse(mu)
        cap = np.negative(self._gdg, order="F")
        cap[np.diag_indices_from(cap)] += 1.0 + mu
        solve = symmetric_solver(cap)

        def apply(rhs: NDArray[np.float64]) -> NDArray[np.float64]:
            y = solve(self.G.dot(self.signs * rhs))
            return self.signs * (rhs + self.G.tdot(y)) / (1.0 + mu)

        return apply

    def solve(self, rhs: NDArray[np.float64], mu: float) -> NDArray[np.float64]:
        """d with (H + mu D) d = rhs (`inverse`)."""
        return self.inverse(mu)(rhs)

    @cached_property
    def _TX(self) -> NDArray[np.float64]:
        """T^T X on the dense form: l transforms that every shift shares."""
        return self.dense.T.transpose(self.X)

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
            np.negative(self._gdg, out=C)
        else:
            np.multiply(self._gqg, 2.0 * sigma * q, out=C)
            C += self._gdg
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
        N + l, H built column by column. Only a ceiling of exactly 1 asks
        for that shift. The dense form counts on its congruent bordered
        matrix at every shift (`_Congruence`).
        """
        if self.dense is not None:
            return self.dense.negative_count(self._TX, sigma)
        if abs(sigma) == 1.0:
            return _negative_count(_bordered(self.matvec(np.eye(self.signs.size)), self.X, sigma))
        return int(np.count_nonzero(self.signs < sigma)) + _negative_count(self.capacitance(sigma))

    def complement_degenerates(self, ceiling: float) -> bool:
        """Whether 1/min|eig| of H on the complement of span X exceeds `ceiling`.

        With X of full column rank l, [[H - sigma I, X], [X^T, 0]] has
        exactly l more negative eigenvalues than C - sigma I, C the
        complement block (Sylvester's law of inertia; Gould 1985). So C has
        an eigenvalue in [-s, s), s = 1/ceiling, exactly when the count
        rises from shift -s to shift +s: two factorizations, which
        `gap_certified` spares where it proves the answer False.
        """
        s = 1.0 / ceiling
        return self.negative_count(s) > self.negative_count(-s)

    def bordered_solver(self):
        """b -> y (N x c) with [[H, X], [X^T, 0]] [y; lambda] = [b; 0],
        from one LDL^T, the only one of R(0).

        With G, R(0) [z; lambda] = [-G D b; -X^T D b] and
        y = D (b - X lambda - G^T z); on the dense form, y = T z with
        [[B, T^T X], [X^T T, 0]] [z; lambda] = [T^T b; 0]
        (`_Congruence.bordered_solver`). The solver holds the factors and
        what applying them needs, not the model or its Gram blocks.
        """
        if self.dense is not None:
            return self.dense.bordered_solver(self._TX)
        solve = symmetric_solver(self.capacitance(0.0))
        G, X, signs, r = self.G, self.X, self.signs, self.G.size

        def apply(b: NDArray[np.float64]) -> NDArray[np.float64]:
            Db = (signs * b.T).T
            zl = solve(-np.concatenate([G.dot(Db), X.T @ Db]))
            return (signs * (b - X @ zl[r:] - G.tdot(zl[:r])).T).T

        return apply

    def projected_step(self, w: NDArray[np.float64], g: NDArray[np.float64]) -> NDArray[np.float64]:
        """w plus the Newton step y for the gradient g orthogonal to X:
        H y + X lambda = -g, X^T y = 0."""
        return w + self.bordered_solver()(-g[:, None])[:, 0]

    def reduced_hessian(self) -> NDArray[np.float64]:
        """The Hessian of x -> J(a + Xx + w(x)) at x = 0, w solving P grad J = 0
        (P projects off span X; the model's point a must have w(0) = 0).

        It is X^T H (X + w'), and the projected equation gives
        H w' + X Lambda = -H X with X^T w' = 0: so (H X)^T (X + w'),
        symmetrized.
        """
        HX = self.matvec(self.X)
        Hred = HX.T @ (self.X + self.bordered_solver()(-HX))
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


def symmetric_solver(A: NDArray[np.float64]):
    """b -> x with A x = b for a symmetric A (its upper triangle is read),
    one right-hand side or several: LAPACK dsytrf once, then dsytrs per
    call. These are the bits of scipy.linalg.solve(A, b, assume_a="sym"),
    without its condition estimate and copies, so an ill-conditioned A
    gives no LinAlgWarning: a Fortran-order A is overwritten by its
    factors. Raises LinAlgError on an exactly zero pivot; an empty system
    has an empty solution."""
    if A.shape[0] == 0:
        return lambda b: np.zeros(b.shape)
    ldu, ipiv, info = _ldlt(A)
    if info > 0:
        raise scipy.linalg.LinAlgError(f"singular matrix: zero pivot in row {info}")
    return lambda b: scipy.linalg.lapack.dsytrs(ldu, ipiv, b, lower=0)[0]


def solve_symmetric(A: NDArray[np.float64], b: NDArray[np.float64]) -> NDArray[np.float64]:
    """x with A x = b (`symmetric_solver`)."""
    return symmetric_solver(A)(b)


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


# the spectral radius: Lanczos stops when its lowest Ritz value moves by less
# than LANCZOS_RTOL of itself in one step, and the certificate counts below
# (1 + RADIUS_RTOL) times the radius, a margin far above the Ritz value's
# rounding
LANCZOS_RTOL = 1e-14
RADIUS_RTOL = 1e-8


def _lanczos_lowest(matvec, n: int) -> float:
    """The lowest Ritz value of the symmetric operator `matvec` on R^n,
    from Lanczos with full reorthogonalization (each new vector twice
    against all before it: Parlett, The Symmetric Eigenvalue Problem,
    ch. 13) and the tridiagonal's eigenvalues.

    The start is a fixed, seeded Gaussian vector: a structured one, such as
    all ones, can stay orthogonal to the lowest mode of a symmetric base.
    The lowest Ritz value falls monotonically to the lowest eigenvalue, and
    an extreme one converges first; the run stops when it moves by at most
    LANCZOS_RTOL of itself in one step, or when the Krylov space is
    invariant (at most n steps).
    """
    Q = np.empty((min(n, 64), n))
    Q[0] = np.random.default_rng(0).standard_normal(n)
    Q[0] /= np.linalg.norm(Q[0])
    alpha: list[float] = []
    beta: list[float] = []
    lowest = np.inf
    for m in range(n):
        w = matvec(Q[m])
        alpha.append(float(Q[m] @ w))
        for _ in range(2):
            w -= Q[: m + 1].T @ (Q[: m + 1] @ w)
        previous = lowest
        lowest = float(scipy.linalg.eigvalsh_tridiagonal(np.array(alpha), np.array(beta))[0])
        b = float(np.linalg.norm(w))
        tol = LANCZOS_RTOL * abs(lowest)
        if m + 1 == n or b <= tol or previous - lowest <= tol:
            break
        if m + 1 == Q.shape[0]:
            Q = np.concatenate([Q, np.empty_like(Q)])[:n]
        beta.append(b)
        Q[m + 1] = w / b
    return lowest


def _active_rows(
    S: SpectralDecomposition, nl: Nonlinearity, a: NDArray[np.float64]
) -> tuple[NDArray[np.float64], NDArray[np.intp]]:
    """Each evaluation point's weight w = qw * f', and the points kept as
    rows of G: those with w > ROW_CUT * (max w + qw * min|lambda|).

    Dropping the other rows removes a positive semidefinite part of
    G^T G of norm at most max(dropped f') / min|lambda| on either grid
    (E^T E = I/h, Q^T Q <= (nf/n)^dim, qw = h (n/nf)^dim), which the rule
    keeps at or below ROW_CUT * rho, rho = 1 + max f' / min|lambda| >= ||H||.
    By Weyl's inequality no eigenvalue of the model moves by more."""
    grid = _eval_grid(S, nl)
    weight = (grid.qw * nl.fprime(S.values_from_a(a, grid.fibers), grid.h)).reshape(-1)
    return weight, np.flatnonzero(weight > ROW_CUT * (weight.max() + _weight_floor(S, nl)))


def _weight_floor(S: SpectralDecomposition, nl: Nonlinearity) -> float:
    """qw * min|lambda|: changing every weight by at most c moves the
    Hessian by at most c / floor in norm (`_active_rows`)."""
    return _eval_grid(S, nl).qw * float(np.abs(S.eigenvalues).min())


def _weight_distance(
    weight: NDArray[np.float64], reference: NDArray[np.float64], floor: float, rtol: float = 0.0
) -> float:
    """A bound on ||H - H_ref||, the models (`hessian_model`) of the weights
    `weight` and `reference` at the same evaluation points, plus rtol * rho.

    The full Hessians differ by -E^T Q^T diag(w - w_ref) Q E / (w w^T),
    and by the argument of `_active_rows` for a signed diagonal, that has
    norm at most max|w - w_ref| / floor. Each model's row cut moves it by
    at most ROW_CUT * rho more, rho = 1 + max w / floor >= ||H|| over both.
    """
    rho = 1.0 + max(float(weight.max()), float(reference.max())) / floor
    return float(np.abs(weight - reference).max()) / floor + (2.0 * ROW_CUT + rtol) * rho


def gap_certified(
    weight: NDArray[np.float64], floor: float, reference: NDArray[np.float64], gap: float, ceiling: float
) -> bool:
    """Whether Weyl's inequality proves complement_degenerates(ceiling)
    False, without a count, for the model of the weights `weight` (floor
    qw min|lambda|) and a block X: `reference` is the weights of a model
    whose complement of span X has no eigenvalue within `gap` of 0.

    The complement of span X is the same subspace in both models, and
    compressing onto it moves no eigenvalue by more than ||H - H_ref||
    (Kato, Perturbation Theory for Linear Operators, V.4). So with
    d the bound of `_weight_distance`, every eigenvalue of this
    complement block has |mu| >= gap - d, and none lies in [-s, s),
    s = 1/ceiling, once d < gap - s. The margin RADIUS_RTOL * rho in d
    covers the rounding of the reference's gap and of X as its
    eigenvectors. It reads weights only, so no model need be built: a
    model's own (`HessianModel.weight`) or a point's (`_active_rows`).
    """
    return _weight_distance(weight, reference, floor, RADIUS_RTOL) < gap - 1.0 / ceiling


def _gram_factor(
    S: SpectralDecomposition, nl: Nonlinearity, weight: NDArray, rows: NDArray[np.intp]
) -> _SampledRows:
    """The rows of G, G^T G the nonlinear block of the Hessian in a-coordinates:
    the sampling map's rows at the active points, scaled by sqrt(weight)."""
    return _SampledRows(S, _eval_grid(S, nl), rows, np.sqrt(weight[rows]))


# L and F of `_grid_hessian` per decomposition; they hold no reference back to their key
_OPERATORS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _grid_operator(S: SpectralDecomposition) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """(L, F) of the dense form in grid coordinates, built once per
    decomposition: L = T^T D T = h (-Lap + V) (`grid_operator`) and
    F = T^T on the negative modes' unit columns (eigenvalues ascend),
    h E- |Lambda-|^(1/2), N x j, so that L + 2 F F^T = T^T T =
    h^2 E |Lambda| E^T."""
    if S not in _OPERATORS:
        _OPERATORS[S] = (S.grid_operator(), _GridValues(S).transpose(np.eye(S.num_modes, S.j)))
    return _OPERATORS[S]


def _grid_hessian(S: SpectralDecomposition, nl: Nonlinearity, weight: NDArray[np.float64]) -> _Congruence:
    """The dense Hessian of the weights qw f' at the evaluation points, in
    the coordinates z = T^-1 a of the torus grid's values: B = T^T K T =
    L - M, M = `_EvalGrid.form` of the weights, with L and F from
    `_grid_operator`. O(N^2) per model beyond M. Only a fine grid has
    more points than modes, so M is a matrix here, and B takes its place."""
    grid = _eval_grid(S, nl)
    L, F = _grid_operator(S)
    M = grid.form(weight.reshape((grid.nf,) * S.domain.dim))
    return _Congruence(np.subtract(L, M, out=M), L, F, _GridValues(S))


def hessian_model(
    S: SpectralDecomposition,
    nl: Nonlinearity,
    a: NDArray[np.float64],
    X: NDArray[np.float64] | None = None,
) -> HessianModel:
    """The Hessian of J at a, with the block X (N x l, default none).

    The number r of rows that `_active_rows` keeps (on either evaluation
    grid) picks the model's form before anything is built. With r <= N
    the model is the Hessian of those rows, within ROW_CUT * (1 + max f' /
    min|lambda|) of the full one in norm, and carries them (backend
    "low-rank"): every solve and count goes through a capacitance of
    order at most r + l <= N + l. With r > N it is the full Hessian in
    the torus grid's coordinates ("dense", `_grid_hessian`): solves and
    counts on N x N matrices congruent to K's, products through the rows
    of every evaluation point.
    """
    X = np.zeros((S.num_modes, 0)) if X is None else X
    weight, rows = _active_rows(S, nl, a)
    floor = _weight_floor(S, nl)
    if rows.size > S.num_modes:
        every = _gram_factor(S, nl, weight, np.arange(weight.size))
        dense = _grid_hessian(S, nl, weight)
        return HessianModel(S.signs, S.j, X, G=every, dense=dense, weight=weight, floor=floor)
    return HessianModel(S.signs, S.j, X, G=_gram_factor(S, nl, weight, rows), weight=weight, floor=floor)


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
