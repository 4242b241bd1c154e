"""The indefinite energy J, its gradient and Hessian in the gap metric.

J(u) = 1/2 ||T u||_k^2 - 1/2 ||P u||_k^2 - int F(x, u) with the power
nonlinearity f(x,t) = h(x) |t|^(p-2) t. Everything is expressed through the
eigencoefficients of the operator decomposition: in the weighted a-basis
the quadratic part is D = diag(sign lambda) and the gradient is the plain
Euclidean representative, so Newton systems need no mass matrix.

The Hessian there is D - G^T G, one row of G per evaluation point. Where
the solution is a localized bump most rows carry a negligible weight f',
and `hessian_model` then solves and diagonalizes the Hessian through the
H-invariant subspace that the active rows span (a Rayleigh-Ritz matrix of
that dimension, exact to rounding); otherwise it wraps the dense
`a_hessian`.

Nonlinear terms are collocated on the grid by default. The `dealias` flag
evaluates them on a zero-padded fine grid instead (factor 3/2 by default;
the cubic terms of p=4 need factor >= 3 for exact quadrature, which the
degenerate translation fixture uses so its symmetry survives discretely).
The padded evaluation and its adjoint are an exact transpose pair, so the
finite-difference identities hold at machine accuracy either way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from numpy.typing import NDArray

from .operator import PeriodicPotential, SpectralDecomposition
from .torus import GridField

__all__ = [
    "DenseHessian",
    "HessianModel",
    "LowRankHessian",
    "Nonlinearity",
    "evaluate_J",
    "gradient",
    "hessvec",
    "hessian_matrix",
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


# -- padded (dealiased) evaluation ----------------------------------------------


def _fine_size(n: int, factor: float) -> int:
    nf = int(np.ceil(n * factor))
    return nf + (nf % 2)


def _pad_axis(spec: NDArray[np.complex128], axis: int, nf: int) -> NDArray:
    """Zero-pad one axis of an fftshift-ed spectrum, splitting the Nyquist mode."""
    n = spec.shape[axis]
    shape = list(spec.shape)
    shape[axis] = nf
    out = np.zeros(shape, dtype=complex)
    cf = nf // 2

    def sl(arr, lo, hi):
        index = [slice(None)] * arr.ndim
        index[axis] = slice(lo, hi)
        return tuple(index)

    out[sl(out, cf - n // 2 + 1, cf + n // 2)] = spec[sl(spec, 1, n)]
    nyq = spec[sl(spec, 0, 1)] * 0.5
    out[sl(out, cf - n // 2, cf - n // 2 + 1)] = nyq
    out[sl(out, cf + n // 2, cf + n // 2 + 1)] += nyq
    return out


def _crop_axis(spec: NDArray[np.complex128], axis: int, n: int) -> NDArray:
    """Adjoint of _pad_axis on an fftshift-ed spectrum."""
    nf = spec.shape[axis]
    shape = list(spec.shape)
    shape[axis] = n
    out = np.zeros(shape, dtype=complex)
    cf = nf // 2

    def sl(arr, lo, hi):
        index = [slice(None)] * arr.ndim
        index[axis] = slice(lo, hi)
        return tuple(index)

    out[sl(out, 1, n)] = spec[sl(spec, cf - n // 2 + 1, cf + n // 2)]
    out[sl(out, 0, 1)] = 0.5 * (
        spec[sl(spec, cf - n // 2, cf - n // 2 + 1)]
        + spec[sl(spec, cf + n // 2, cf + n // 2 + 1)]
    )
    return out


def _upsample(values: NDArray[np.float64], nf: int) -> NDArray[np.float64]:
    spec = np.fft.fftshift(np.fft.fftn(values))
    for ax in range(values.ndim):
        spec = _pad_axis(spec, ax, nf)
    scale = (nf / values.shape[0]) ** values.ndim
    return np.fft.ifftn(np.fft.ifftshift(spec)).real * scale

def _upsample_adjoint(fine: NDArray[np.float64], n: int) -> NDArray[np.float64]:
    spec = np.fft.fftshift(np.fft.fftn(fine))
    for ax in range(fine.ndim):
        spec = _crop_axis(spec, ax, n)
    return np.fft.ifftn(np.fft.ifftshift(spec)).real


def _dealias_cache(S: SpectralDecomposition, nl: Nonlinearity) -> dict:
    """Per-decomposition cache of fine-grid data for padded evaluation."""
    store = getattr(S, "_dealias_store", None)
    if store is None:
        store = {}
        object.__setattr__(S, "_dealias_store", store)
    key = (nl.dealias_factor, nl.weight)
    if key not in store:
        dom = S.domain
        n = dom.points_per_axis
        nf = _fine_size(n, nl.dealias_factor)
        if nl.weight is None:
            hfine: NDArray | float = 1.0
        else:
            coords = -0.5 * dom.cells + dom.cells * np.arange(nf) / nf
            mesh = np.meshgrid(*([coords] * dom.dim), indexing="ij")
            hfine = _require_nonnegative(nl.weight.evaluate_on(mesh))
        store[key] = {
            "nf": nf,
            "hfine": hfine,
            "quad_weight": dom.volume / nf**dom.dim,
            "fine_fields": None,  # lazily built matrix of upsampled eigenfields
        }
    return store[key]


def _nl_env(S: SpectralDecomposition, nl: Nonlinearity, values: NDArray):
    """Evaluation environment: (samples of u, weight there, quadrature weight, cache)."""
    if not nl.dealias:
        hcoarse = nl.weight_values(S.domain)
        return values, hcoarse, S.domain.spacing**S.domain.dim, None
    cache = _dealias_cache(S, nl)
    return _upsample(values, cache["nf"]), cache["hfine"], cache["quad_weight"], cache


def _nl_integral_and_force(S, nl, values):
    """int F(x, u) and the gradient d/du of it against plain grid values."""
    samples, h, qw, cache = _nl_env(S, nl, values)
    Fint = qw * float(np.sum(nl.F(samples, h)))
    force = nl.f(samples, h)
    if cache is None:
        fterm = qw * force
    else:
        fterm = qw * _upsample_adjoint(force, S.domain.points_per_axis)
    return Fint, fterm


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


def _fine_fields(S: SpectralDecomposition, cache: dict) -> NDArray[np.float64]:
    """The eigenfields upsampled to the fine grid, one column each (cached)."""
    if cache["fine_fields"] is None:
        fine = np.empty((cache["nf"] ** S.domain.dim, S.num_modes))
        for i in range(S.num_modes):
            col = S.eigenfields[:, i].reshape(S.domain.shape)
            fine[:, i] = _upsample(col, cache["nf"]).reshape(-1)
        cache["fine_fields"] = fine
    return cache["fine_fields"]


def a_hessian(
    S: SpectralDecomposition, nl: Nonlinearity, a: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Dense symmetric Hessian of J in the weighted coordinates.

    The nonlinear block F^T diag(f') F, with F the eigenfields sampled on
    the evaluation grid, is built as the Gram product G^T G of
    G = F diag(sqrt f'). That is legitimate because f' = (p-1) h |u|^(p-2)
    is nonnegative: p >= 3 and h >= 0, which `weight_values` and the
    fine-grid cache enforce. NumPy evaluates G^T G as a symmetric rank-k
    update, half the flops of the general product, which fills both
    triangles from one; dividing by the symmetric outer(weights, weights)
    keeps the result exactly symmetric.
    """
    values = S.values_from_a(a)
    samples, h, qw, cache = _nl_env(S, nl, values)
    fields = S.eigenfields if cache is None else _fine_fields(S, cache)
    G = fields * np.sqrt(qw * nl.fprime(samples, h)).reshape(-1)[:, None]
    A = G.T @ G
    A /= np.outer(S.weights, S.weights)
    np.negative(A, out=A)
    A[np.diag_indices_from(A)] += S.signs
    return A


def a_hessvec(
    S: SpectralDecomposition, nl: Nonlinearity, a: NDArray, v: NDArray
) -> NDArray[np.float64]:
    """Hessian-vector product in weighted coordinates, no dense assembly."""
    values = S.values_from_a(a)
    vvalues = S.values_from_a(v)
    samples, h, qw, cache = _nl_env(S, nl, values)
    if cache is None:
        prod = qw * nl.fprime(samples, h) * vvalues
    else:
        vfine = _upsample(vvalues, cache["nf"])
        prod = qw * _upsample_adjoint(
            nl.fprime(samples, h) * vfine, S.domain.points_per_axis
        )
    return S.signs * v - (S.eigenfields.T @ prod.reshape(-1)) / S.weights


class DenseHessian:
    """The Hessian as the dense N x N matrix of `a_hessian`."""

    backend = "dense"

    def __init__(self, S: SpectralDecomposition, nl: Nonlinearity, a: NDArray) -> None:
        self.signs = S.signs
        self.matrix = a_hessian(S, nl, a)
        self.subspace_dim = S.num_modes

    def matvec(self, v: NDArray[np.float64]) -> NDArray[np.float64]:
        return self.matrix @ v

    def solve(self, rhs: NDArray[np.float64], mu: float) -> NDArray[np.float64]:
        """d with (H + mu * diag(sign lambda)) d = rhs."""
        M = self.matrix.copy()
        M[np.diag_indices_from(M)] += mu * self.signs
        return scipy.linalg.solve(M, rhs, assume_a="sym")

    def eigenvalues(self) -> NDArray[np.float64]:
        return scipy.linalg.eigvalsh(self.matrix)


class _SignBlock:
    """An orthonormal basis Q of one sign block containing its part of range(G^T).

    With G_b the block's columns of G (rows x width): the identity when
    the block is no wider than G has rows, nothing when G has no rows,
    and otherwise the Householder QR G_b^T = Q R, kept in LAPACK's
    compact form, so that G_b Q = R^T needs no product. Q is applied one
    vector at a time, for which LAPACK's unblocked path needs a workspace
    of one entry.
    """

    def __init__(self, Gb: NDArray[np.float64]) -> None:
        rows, self.width = Gb.shape
        self.dim = min(rows, self.width)
        if 0 < rows < self.width:
            self.householder, R = scipy.linalg.qr(Gb.T, mode="raw")
            self.GQ = R.T
        else:
            self.householder, self.GQ = None, Gb[:, : self.dim]

    def coords(self, v: NDArray[np.float64]) -> NDArray[np.float64]:
        """Q^T v."""
        if self.householder is None:
            return v[: self.dim]
        return scipy.linalg.lapack.dormqr("L", "T", *self.householder, v, lwork=1)[0][: self.dim]

    def embed(self, z: NDArray[np.float64]) -> NDArray[np.float64]:
        """Q z."""
        c = np.zeros(self.width)
        c[: self.dim] = z
        if self.householder is None:
            return c
        return scipy.linalg.lapack.dormqr(
            "L", "N", *self.householder, c, lwork=1, overwrite_c=1
        )[0]


class LowRankHessian:
    """H = D - G^T G through the H-invariant subspace spanned by range(G^T).

    D = diag(sign lambda) keeps the negative block (the first j
    coordinates) and the positive block apart, so orthonormalizing each
    block's part of G^T on its own gives U = blockdiag(Q-, Q+) with
    range(G^T) inside span U. That span is H-invariant and H = D on its
    complement; K = U^T H U = blockdiag(-I, I) - (GU)^T (GU) carries every
    other eigenvalue and the whole solve. Only orthogonal transforms and
    one m x m symmetric matrix are involved, m = columns of U.
    """

    backend = "low-rank"

    def __init__(self, signs: NDArray[np.float64], j: int, G: NDArray[np.float64]) -> None:
        self.signs, self.j, self.G = signs, j, G
        self.neg, self.pos = _SignBlock(G[:, :j]), _SignBlock(G[:, j:])
        self.subspace_dim = self.neg.dim + self.pos.dim
        self.K_signs = np.concatenate([-np.ones(self.neg.dim), np.ones(self.pos.dim)])
        GU = np.hstack([self.neg.GQ, self.pos.GQ])
        self.K = -(GU.T @ GU)
        self.K[np.diag_indices_from(self.K)] += self.K_signs

    def _coords(self, v: NDArray[np.float64]) -> NDArray[np.float64]:
        return np.concatenate([self.neg.coords(v[: self.j]), self.pos.coords(v[self.j :])])

    def _embed(self, z: NDArray[np.float64]) -> NDArray[np.float64]:
        m = self.neg.dim
        return np.concatenate([self.neg.embed(z[:m]), self.pos.embed(z[m:])])

    def matvec(self, v: NDArray[np.float64]) -> NDArray[np.float64]:
        return self.signs * v - self.G.T @ (self.G @ v)

    def solve(self, rhs: NDArray[np.float64], mu: float) -> NDArray[np.float64]:
        """d with (H + mu * diag(sign lambda)) d = rhs; off span U that is (1+mu) D."""
        y = self._coords(rhs)
        M = self.K.copy()
        M[np.diag_indices_from(M)] += mu * self.K_signs
        z = scipy.linalg.solve(M, y, assume_a="sym")
        return self._embed(z) + self.signs * (rhs - self._embed(y)) / (1.0 + mu)

    def eigenvalues(self) -> NDArray[np.float64]:
        """All N eigenvalues, ascending: K's, and -1 / +1 off span U."""
        return np.sort(np.concatenate([
            scipy.linalg.eigvalsh(self.K),
            -np.ones(self.neg.width - self.neg.dim),
            np.ones(self.pos.width - self.pos.dim),
        ]))


HessianModel = DenseHessian | LowRankHessian


def _active_rows(
    S: SpectralDecomposition, nl: Nonlinearity, a: NDArray[np.float64]
) -> tuple[NDArray[np.float64], NDArray[np.intp]]:
    """Each collocation point's weight qw * f', and the points where it
    exceeds eps * the largest weight; the others fall below the rounding
    of the Gram sum G^T G."""
    samples, h, qw, _ = _nl_env(S, nl, S.values_from_a(a))
    weight = (qw * nl.fprime(samples, h)).reshape(-1)
    return weight, np.flatnonzero(weight > np.finfo(float).eps * weight.max())


def _gram_factor(
    S: SpectralDecomposition, weight: NDArray[np.float64], rows: NDArray[np.intp]
) -> NDArray[np.float64]:
    """The rows of G, G^T G the nonlinear block of the Hessian in a-coordinates."""
    G = S.eigenfields[rows] * np.sqrt(weight[rows])[:, None]
    G /= S.weights
    return G


def hessian_model(
    S: SpectralDecomposition, nl: Nonlinearity, a: NDArray[np.float64]
) -> HessianModel:
    """The Hessian of J at a, with matvec, solve and eigenvalues.

    A fixed rule picks the backend before anything is built: on a
    collocated grid with r active rows (`_active_rows`), the low-rank one
    when its invariant subspace, of dimension min(j, r) + min(N - j, r),
    is at most N/2; otherwise, and always on the dealiased fine grid, the
    dense one.
    """
    if not nl.dealias:
        weight, rows = _active_rows(S, nl, a)
        n, j, r = S.num_modes, S.j, rows.size
        if min(j, r) + min(n - j, r) <= n // 2:
            return LowRankHessian(S.signs, j, _gram_factor(S, weight, rows))
    return DenseHessian(S, nl, a)


# -- public field-level operations ------------------------------------------------


def evaluate_J(u: GridField, S: SpectralDecomposition, nl: Nonlinearity) -> float:
    """J(u) = 1/2 ||T u||_k^2 - 1/2 ||P u||_k^2 - int F(x, u)."""
    S.require_gap()
    a = S.a_from_field(u)
    values = S.values_from_a(a)
    Fint, _ = _nl_integral_and_force(S, nl, values)
    return 0.5 * float(np.dot(S.signs * a, a)) - Fint


def gradient(u: GridField, S: SpectralDecomposition, nl: Nonlinearity) -> GridField:
    """Riesz representative of dJ(u) in (.,.)_k, returned as a field."""
    S.require_gap()
    g = a_gradient(S, nl, S.a_from_field(u))
    return S.field_from_a(g)


def hessvec(
    u: GridField, v: GridField, S: SpectralDecomposition, nl: Nonlinearity
) -> GridField:
    """Second derivative of J at u applied to v, in the (.,.)_k metric."""
    S.require_gap()
    hv = a_hessvec(S, nl, S.a_from_field(u), S.a_from_field(v))
    return S.field_from_a(hv)


def hessian_matrix(
    u: GridField, S: SpectralDecomposition, nl: Nonlinearity
) -> NDArray[np.float64]:
    S.require_gap()
    return a_hessian(S, nl, S.a_from_field(u))


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
