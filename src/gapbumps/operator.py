"""The periodic Schrödinger operator -Lap + V on a torus grid.

Assembly is Fourier-pseudospectral: the Laplacian is the exact Fourier
multiplier |xi|^2 on the grid's trigonometric space and V multiplies
pointwise in physical space. V is 1-periodic and the torus Q_k holds whole
cells, so the operator splits exactly into k^dim Bloch fibers of size
M^dim, one per quasimomentum theta = 2*pi*j/k (Floquet-Bloch theory). The
spectrum is built from those fibers: each conjugate pair {j, -j} costs one
complex Hermitian eigenproblem and yields two real eigenfields per band,
the real and imaginary parts of its Bloch waves. The cost is
O(k^dim * M^(3*dim)) for the fibers, instead of O(N^3) for a dense
eigensolve; each fiber eigenvector's phase is fixed inside its fiber.

The decomposition keeps the fibers, not the N x N eigenfield matrix E.
Every product with E is one product with each fiber's eigenvectors plus
an FFT over the cell axes (O(N M^dim + N log k)); a row of E at a grid
point is a gather from the fibers, and the Green's function
E Lambda^-1 E^T is a table over cell differences (GreenTable); a fine
grid that repeats cell by cell takes its FiberTable in place of the
fibers. E itself is built on first access, which only a_form makes,
for the reference dense Hessian; the Hessian's dense route uses the
table of h^2 E Lambda E^T instead (grid_operator).

A lattice translation turns each Bloch pair: a whole-cell shift by b
multiplies the Bloch wave at theta by e^{-i theta.b} (translate), so the
overlaps with every translate are one FFT over the cell axes (overlaps).

The spectral gap around zero is certified from the eigenvalues. A field
is represented by its weighted coordinates a_i = sqrt(|lambda_i|)
<u, phi_i>_L2 against the L2-orthonormal eigenfields
(SpectralDecomposition.a_from_values), in which the energy inner product
(u, v)_k = sum |lambda_i| <u, phi_i> <v, phi_i> that drives all
downstream Newton/reduction algebra is plain Euclidean.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Iterator, NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import eigh, eigvalsh

from .torus import GridField, TorusDomain

GAP_CERTIFY_TOL = 1e-6  # 0 counts as "in a gap" only if min |lambda| exceeds this
INVERTIBLE_TOL = 1e-10
PHASE_TIE_RTOL = 1e-9  # ties for the largest modulus: even V gives |u(x)| = |u(-x)|


class NotInvertible(Exception):
    """Zero is (numerically) an eigenvalue: not inside a spectral gap."""


class NoCertifiedGap(ValueError):
    """The operation needs a certified spectral gap around 0."""


@dataclass(frozen=True)
class PeriodicPotential:
    """Bounded 1-periodic potential, V(x) = sum_a profile(x_a) - shift.

    kind "cosine" uses profile(t) = amplitude * cos(2*pi*t); kind
    "tabulated" interpolates `samples` (one unit cell, uniform grid)
    trigonometrically. `axes` restricts which coordinate axes the profile
    acts on (default all); a potential constant along an axis is how the
    degenerate translation fixture is built in 2-d.
    """

    kind: str = "cosine"
    amplitude: float = 0.0
    shift: float = 0.0
    samples: tuple[float, ...] | None = None
    axes: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("cosine", "tabulated"):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind == "tabulated":
            if not self.samples:
                raise ValueError("tabulated potential needs samples")
            object.__setattr__(self, "samples", tuple(float(v) for v in self.samples))
        if self.axes is not None:
            object.__setattr__(self, "axes", tuple(int(a) for a in self.axes))

    def profile(self, t: NDArray[np.float64]) -> NDArray[np.float64]:
        """The per-axis 1-periodic profile, before the constant shift."""
        t = np.asarray(t, dtype=np.float64)
        if self.kind == "cosine":
            return self.amplitude * np.cos(2.0 * np.pi * t)
        # trigonometric interpolation of the tabulated cell
        tab = np.asarray(self.samples, dtype=np.float64)
        m = tab.size
        spec = np.fft.rfft(tab) / m
        freq = np.arange(spec.size)
        phase = np.exp(2j * np.pi * np.outer(t.reshape(-1), freq))
        scale = np.ones(spec.size)
        scale[1:] = 2.0
        if m % 2 == 0:
            scale[-1] = 1.0  # Nyquist mode is its own conjugate
        vals = (phase * (scale * spec)).real.sum(axis=1)
        return vals.reshape(t.shape)

    def evaluate(self, domain: TorusDomain) -> NDArray[np.float64]:
        """V at the grid points, shaped like the domain."""
        return self.evaluate_on(domain.meshgrid())

    def evaluate_on(self, mesh: Sequence[NDArray[np.float64]]) -> NDArray[np.float64]:
        """V at the points of a coordinate mesh, one array per axis."""
        out = np.zeros(mesh[0].shape)
        axes = self.axes if self.axes is not None else tuple(range(len(mesh)))
        for ax, x in enumerate(mesh):
            if ax in axes:
                out = out + self.profile(x)
        return out - self.shift

    def to_dict(self) -> dict:
        d: dict = {"kind": self.kind, "amplitude": self.amplitude, "shift": self.shift}
        if self.samples is not None:
            d["samples"] = list(self.samples)
        if self.axes is not None:
            d["axes"] = list(self.axes)
        return d


# -- Floquet-Bloch fibers ---------------------------------------------------------


def _fiber_matrix(
    V_cell: NDArray[np.float64], theta: Sequence[float]
) -> NDArray[np.complex128]:
    """Bloch fiber of -Lap + V on one unit cell at quasimomentum theta.

    V_cell holds V on an M-point cell grid per axis (shape (M,) * dim).
    Bloch-wave form D F_theta D*: F_theta = -(grad + i theta)^2 + V is the
    periodic cell operator, its Laplacian part the Fourier multiplier
    |2*pi*m + theta|^2 with m in FFT order, and D = diag(e^{i theta . x_cell}). The fiber acts on the cell samples of a
    Bloch wave psi(x + n) = e^{i theta . n} psi(x) directly, and only
    differences of cell coordinates enter. With M a torus's samples_per_cell
    and theta = 2*pi*j/k the fiber is exactly that torus operator restricted
    to quasimomentum j, same truncation; at theta in {0, pi}^dim it is real
    up to rounding.
    """
    modes = V_cell.shape[0]
    freqs = 2.0 * np.pi * np.fft.fftfreq(modes, d=1.0 / modes)
    d = np.arange(1 - modes, modes)  # cell-index differences m - n
    diff = np.arange(modes)[:, None] - np.arange(modes)[None, :] + (modes - 1)
    blocks = []
    for th in theta:
        # Toeplitz in m - n: the circulant F_theta's column times D's phases
        g = np.fft.ifft((freqs + th) ** 2)[d % modes] * np.exp(1j * th * d / modes)
        blocks.append(g[diff])
    if V_cell.ndim == 1:
        fiber = blocks[0]
    else:
        eye = np.eye(modes)
        fiber = np.kron(blocks[0], eye) + np.kron(eye, blocks[1])
    fiber[np.diag_indices_from(fiber)] += V_cell.reshape(-1)
    return fiber


def _quasimomenta(domain: TorusDomain) -> Iterator[tuple[tuple[int, ...], bool]]:
    """One j of each conjugate pair {j, -j mod k}, and whether j = -j.

    Fibers at j and -j are complex conjugates, so one eigensolve serves both.
    A self-conjugate j (2j = 0 mod k on every axis) has a real fiber.
    """
    k = domain.cells
    for j in product(range(k), repeat=domain.dim):
        partner = tuple(-i % k for i in j)
        if j <= partner:
            yield j, j == partner


def first_largest(mod: NDArray[np.float64]) -> NDArray[np.intp]:
    """Along axis 0, the first index whose modulus is within PHASE_TIE_RTOL
    of the largest: the entry that a phase or sign rule makes positive."""
    return np.argmax(mod >= (1.0 - PHASE_TIE_RTOL) * mod.max(axis=0), axis=0)


def _fiber_eigh(V_cell: NDArray[np.float64], j: tuple[int, ...], k: int, real: bool):
    """Eigenvalues and eigenvectors of the fiber at theta = 2*pi*j/k, each
    eigenvector times the unit phase that makes its first entry of largest
    modulus (ties within PHASE_TIE_RTOL: the lowest index) real and positive."""
    fiber = _fiber_matrix(V_cell, 2.0 * np.pi * np.asarray(j) / k)
    # a real eigensolver keeps degenerate eigenvectors of a real fiber real;
    # divide and conquer keeps close eigenvectors orthogonal to ~1e-15
    vals, U = eigh(fiber.real if real else fiber, driver="evd")
    p = U[first_largest(np.abs(U)), np.arange(U.shape[1])]
    return vals, U * (np.conj(p) / np.abs(p))


def _cell_samples(values: NDArray[np.float64], domain: TorusDomain) -> NDArray[np.float64]:
    """The torus grid's samples on its first unit cell."""
    return values[(slice(0, domain.samples_per_cell),) * domain.dim]


def _cell_split(points: NDArray[np.intp], cells: int, per_cell: int, dim: int):
    """Flat indices on a grid of cells * per_cell points per axis, split into
    each point's cell (r x dim) and its flat index inside the cell (r)."""
    idx = np.unravel_index(points, (cells * per_cell,) * dim)
    cell = np.stack([i // per_cell for i in idx], axis=1)
    return cell, np.ravel_multi_index(tuple(i % per_cell for i in idx), (per_cell,) * dim)


class FiberTable(NamedTuple):
    """Each U_f at the in-cell points of a grid that repeats cell by cell, and per_cell."""

    vectors: NDArray[np.complex128]  # (fibers, per_cell^dim, bands)
    per_cell: int


@dataclass(frozen=True, eq=False)
class GreenTable:
    """E f(Lambda) E^T between the points of a grid that repeats cell by
    cell (the Green's function for f(lambda) = 1 / lambda), stored by cell
    difference: g[d, s, t] couples in-cell point s of cell n + d with
    point t of cell n, for every n (Floquet-Bloch: the operator and its
    functions commute with whole-cell shifts)."""

    g: NDArray[np.float64]
    cells: int
    per_cell: int
    dim: int

    def block(self, points: NDArray[np.intp]) -> NDArray[np.float64]:
        """The r x r block at the flat grid indices `points`, gathered by cell
        blocks: a u x u index of cell differences over the u cells that
        hold a point, each point's row of its u blocks copied whole, then
        the points' columns kept. A copy of the table's entries in
        O(r u per_cell^dim), with nothing of the whole grid's size."""
        k, width, shape = self.cells, self.per_cell**self.dim, (self.cells,) * self.dim
        cell, sub = _cell_split(points, k, self.per_cell, self.dim)
        ids, slot = np.unique(np.ravel_multi_index(tuple(cell.T), shape), return_inverse=True)
        cells = np.unravel_index(ids, shape)
        diff = np.zeros((ids.size, ids.size), dtype=np.intp)
        for c in cells:
            diff = diff * k + (c[:, None] - c[None, :]) % k
        strips = self.g[diff[slot], sub[:, None]].reshape(points.size, ids.size * width)
        return strips[:, slot * width + sub]


@dataclass(eq=False)
class SpectralDecomposition:
    """All eigenpairs of -Lap + V on Q_k, plus gap and splitting data.

    eigenvalues ascend. The eigenfields are L2-orthonormal real Bloch
    waves: a self-conjugate quasimomentum contributes its real fiber
    eigenvectors, every other pair {j, -j} the real and imaginary parts of
    one complex Bloch wave per band, adjacent and with equal eigenvalues.
    They are kept by fiber, not as a matrix: fiber_vectors[f] holds the
    eigenvectors U_f of the fiber at quasimomenta[f] (one j per pair),
    columns[f, b] the eigenfield index of band b's real and imaginary part
    (num_modes where a self-conjugate fiber has none), and frame each
    eigenfield's normalization, sqrt(c / k^dim) M^(dim/2) (c = 2 for a
    pair, else 1). Eigenfield (f, b) is frame times Re or Im of the Bloch
    wave psi(x_cell + n) = e^{i theta.n} U_f[x_cell, b], and U_f[:, b] has
    its first entry of largest modulus real and positive, so no sign or
    phase comes from the eigensolver. Transforms are products with each
    fiber plus an FFT over the cell axes; the N x N matrix `eigenfields`
    is built on first access only (the reference dense Hessian reads it).

    Inside an eigenspace of several bands or fibers that basis is one
    choice of many: projections, energies, Newton steps and random draws
    (random_coefficients) do not depend on it. j counts negative
    eigenvalues; gap is the certified interval (-alpha, beta) around zero
    avoided by the spectrum, or None when zero is not safely inside a gap.
    """

    domain: TorusDomain
    potential: PeriodicPotential
    eigenvalues: NDArray[np.float64]
    j: int
    gap: tuple[float, float] | None
    quasimomenta: NDArray[np.intp]
    fiber_vectors: NDArray[np.complex128]
    columns: NDArray[np.intp]
    frame: NDArray[np.float64]
    weights: NDArray[np.float64] = field(init=False, repr=False)
    signs: NDArray[np.float64] = field(init=False, repr=False)
    torus_fibers: FiberTable = field(init=False, repr=False)  # the fiber table of the torus grid

    def __post_init__(self) -> None:
        for arr in (self.eigenvalues, self.fiber_vectors, self.columns, self.frame):
            arr.setflags(write=False)
        # weighted coordinates: a = weights * <u, phi>_L2 makes (.,.)_k Euclidean
        self.weights = np.sqrt(np.abs(self.eigenvalues))
        self.signs = np.sign(self.eigenvalues)
        self.torus_fibers = FiberTable(self.fiber_vectors, self.domain.samples_per_cell)

    @property
    def has_gap(self) -> bool:
        return self.gap is not None

    @property
    def alpha(self) -> float:
        self.require_gap()
        return self.gap[0]

    @property
    def beta(self) -> float:
        self.require_gap()
        return self.gap[1]

    @property
    def num_modes(self) -> int:
        return self.eigenvalues.size

    def eigenfield(self, i: int) -> GridField:
        unit = np.zeros(self.num_modes)
        unit[i] = 1.0
        return GridField(self.domain, self._fields(unit))

    @cached_property
    def eigenfields(self) -> NDArray[np.float64]:
        """The eigenfields as the columns of one (num_points, num_points)
        matrix: a_rows times the weights, gathered in `cells` blocks of rows."""
        vecs = np.empty((self.domain.num_points, self.num_modes), order="F")
        for rows in np.array_split(np.arange(self.domain.num_points), self.domain.cells):
            vecs[rows] = self.a_rows(rows, 1.0) * self.weights
        vecs.setflags(write=False)
        return vecs

    def require_gap(self) -> None:
        if self.gap is None:
            raise NoCertifiedGap("operation requires a certified spectral gap around 0")

    # -- Bloch transforms -----------------------------------------------------------
    @cached_property
    def _spectrum_rows(self) -> NDArray[np.intp]:
        """Each fiber's row in a (k^dim, ...) array over all quasimomenta."""
        return np.ravel_multi_index(tuple(self.quasimomenta.T), (self.domain.cells,) * self.domain.dim)

    def _cell_sums(self, x: NDArray) -> NDArray[np.complex128]:
        """sum_n e^{i theta_f.n} x[n] at each fiber's quasimomentum, for x
        indexed by cell first: (k^dim, ...) -> (fibers, ...)."""
        k, dim = self.domain.cells, self.domain.dim
        X = np.fft.ifftn(x.reshape((k,) * dim + x.shape[1:]), axes=tuple(range(dim)), norm="forward")
        return X.reshape(x.shape)[self._spectrum_rows]

    def _cell_waves(self, v: NDArray[np.complex128]) -> NDArray[np.float64]:
        """Re sum_f e^{i theta_f.n} v[f] at every cell n: (fibers, ...) -> (k^dim, ...)."""
        k, dim = self.domain.cells, self.domain.dim
        spec = np.zeros((k**dim,) + v.shape[1:], dtype=np.complex128)
        spec[self._spectrum_rows] = v
        spec = np.fft.ifftn(spec.reshape((k,) * dim + v.shape[1:]), axes=tuple(range(dim)), norm="forward")
        return spec.real.reshape((k**dim,) + v.shape[1:])

    def _by_cell(self, x: NDArray[np.float64], per_cell: int) -> NDArray[np.float64]:
        """Grid values as (k^dim, per_cell^dim): the cell, then the point inside it."""
        k, dim = self.domain.cells, self.domain.dim
        x = x.reshape((k, per_cell) * dim)
        return (x.transpose(0, 2, 1, 3) if dim == 2 else x).reshape(k**dim, per_cell**dim)

    def _by_grid(self, u: NDArray[np.float64], per_cell: int) -> NDArray[np.float64]:
        """The inverse of _by_cell, shaped like that grid."""
        k, dim = self.domain.cells, self.domain.dim
        u = u.reshape((k,) * dim + (per_cell,) * dim)
        return (u.transpose(0, 2, 1, 3) if dim == 2 else u).reshape((k * per_cell,) * dim)

    def _pairs(self, z: NDArray[np.float64]) -> NDArray[np.complex128]:
        """(num_modes, ...) -> (fibers, bands, ...): x - i y for the
        coefficients x, y of the Re and Im field (y = 0 on a real fiber)."""
        zf = np.concatenate([z, np.zeros((1,) + z.shape[1:])])  # the spare slot
        return zf[self.columns[..., 0]] - 1j * zf[self.columns[..., 1]]

    def _unpairs(self, c: NDArray[np.complex128]) -> NDArray[np.float64]:
        """The inverse of _pairs: (fibers, bands, ...) -> (num_modes, ...)."""
        out = np.empty((self.num_modes + 1,) + c.shape[2:])
        out[self.columns[..., 1]] = -c.imag  # a self-conjugate fiber's lands in the spare slot
        out[self.columns[..., 0]] = c.real
        return out[:-1]

    def _fields(self, z: NDArray[np.float64], fibers: FiberTable | None = None) -> NDArray[np.float64]:
        """E z (Q E z on a fiber table's grid), shaped like the grid. A pair's two
        eigenfields with coefficients x, y sum to Re(psi (x - i y)) times their frames."""
        U, per_cell = fibers or self.torus_fibers
        c = self._pairs(z * self.frame)
        return self._by_grid(self._cell_waves(np.matmul(U, c[..., None])[..., 0]), per_cell)

    def _coefficients(self, x: NDArray[np.float64], fibers: FiberTable | None = None) -> NDArray[np.float64]:
        """E^T x ((Q E)^T x): per fiber, U^T times the cell sums of x, then Re and Im."""
        U, per_cell = fibers or self.torus_fibers
        Y = np.matmul(self._cell_sums(self._by_cell(x, per_cell))[:, None, :], U)[:, 0]
        return self._unpairs(Y.conj()) * self.frame

    # -- lattice translations ------------------------------------------------------
    def translate(self, a: NDArray[np.float64], b: Sequence[int]) -> NDArray[np.float64]:
        """The a-coordinates (one column or several) of u(. - b), the copy
        of u at the lattice vector b: each pair's x - i y times
        e^{-i theta.b}, with the sign of each frame (a reflected pair turns
        the other way); a real fiber's field only flips sign. O(N)."""
        b = np.atleast_1d(np.asarray(b, dtype=int))
        if b.size != self.domain.dim:
            raise ValueError(f"shift has {b.size} components, domain is {self.domain.dim}-d")
        k = self.domain.cells
        phase = np.exp(-2j * np.pi * ((self.quasimomenta @ b) % k) / k)
        s = np.sign(self.frame).reshape((-1,) + (1,) * (np.ndim(a) - 1))
        return self._unpairs(self._pairs(a * s) * phase.reshape((-1,) + (1,) * np.ndim(a))) * s

    def overlaps(self, a: NDArray[np.float64], c: NDArray[np.float64]) -> NDArray[np.float64]:
        """a . translate(c, -n) for every lattice vector n, the cells in
        row-major order: Re sum_f e^{i theta_f.n} sum_bands conj(a_f) c_f
        over the pairs, one FFT over the cell axes."""
        s = np.sign(self.frame)
        return self._cell_waves(np.sum(np.conj(self._pairs(a * s)) * self._pairs(c * s), axis=1))

    # -- weighted a-coordinates a_i = sqrt(|lambda_i|) <u, phi_i>_L2 -------------
    def a_from_values(self, values: NDArray[np.float64]) -> NDArray[np.float64]:
        quad_weight = self.domain.spacing**self.domain.dim
        return self.weights * (quad_weight * self._coefficients(values))

    def a_from_field(self, u: GridField) -> NDArray[np.float64]:
        if not u.domain.compatible(self.domain):
            raise ValueError("field and decomposition domains differ")
        return self.a_from_values(u.values)

    def values_from_a(self, a: NDArray[np.float64], fibers: FiberTable | None = None) -> NDArray[np.float64]:
        return self._fields(a / self.weights, fibers)

    def a_from_dual(self, v: NDArray[np.float64], fibers: FiberTable | None = None) -> NDArray[np.float64]:
        """E^T v / weights (v on the grid of `fibers`), the transpose of values_from_a."""
        return self._coefficients(v, fibers) / self.weights

    def random_coefficients(self, rng: np.random.Generator) -> NDArray[np.float64]:
        """sqrt(h) E^T xi for grid white noise xi: the law of rng.standard_normal(num_modes)
        (E sqrt(h) is orthogonal), but a field that does not depend on the basis inside an eigenspace."""
        h = self.domain.spacing**self.domain.dim
        return np.sqrt(h) * self._coefficients(rng.standard_normal(self.domain.num_points))

    def a_form(self, M: NDArray[np.float64]) -> NDArray[np.float64]:
        """E^T M E / (w w^T), exactly symmetric, for a grid quadratic form M:
        nonnegative weights (diagonal; G^T G with G = diag(sqrt M) E / w,
        which NumPy runs as a symmetric rank-k update) or a symmetric N x N
        matrix (E^T (M E), divided by w on both sides in place, then
        symmetrized by A += A^T)."""
        E = self.eigenfields
        if M.ndim == 1:
            G = E * np.sqrt(M)[:, None]
            G /= self.weights
            return G.T @ G
        A = E.T @ (M @ E)
        A /= self.weights
        A /= self.weights[:, None]
        A += A.T
        A *= 0.5
        return A

    def fiber_samples(self, rows: NDArray[np.float64]) -> FiberTable:
        """The table of the grid that the interpolation Q onto a grid that
        repeats cell by cell reaches, from Q's first cell of rows (per_cell x
        n per axis). Q maps a Bloch wave cell by cell: on the fiber at
        theta_j through Q_j[s, t] = sum_n Q[s, n M + t] e^{i theta_j n}."""
        k, m, dim = self.domain.cells, self.domain.samples_per_cell, self.domain.dim
        per_cell = rows.shape[0]
        Pj = np.fft.ifft(rows.reshape(per_cell, k, m), axis=1, norm="forward")
        A = [Pj[:, self.quasimomenta[:, ax]].transpose(1, 0, 2) for ax in range(dim)]
        if dim == 1:
            return FiberTable(np.matmul(A[0], self.fiber_vectors), per_cell)
        U = self.fiber_vectors
        fine = np.einsum("fas,fbt,fstc->fabc", A[0], A[1], U.reshape(-1, m, m, U.shape[2]), optimize=True)
        return FiberTable(fine.reshape(U.shape[0], per_cell**2, U.shape[2]), per_cell)

    def a_rows(
        self, points: NDArray[np.intp], scale: NDArray[np.float64], fibers: FiberTable | None = None
    ) -> NDArray[np.float64]:
        """diag(scale) Q E / w at the rows `points` of Q, the interpolation
        onto the grid of a fiber table (None: the torus grid, Q = I), as an
        r x N matrix. Row (n, s) of Q E is frame times Re, Im of
        e^{i theta.n} (Q U)[s]: a gather from the table, O(r N)."""
        k, dim = self.domain.cells, self.domain.dim
        U, per_cell = fibers or self.torus_fibers
        cell, sub = _cell_split(points, k, per_cell, dim)
        roots = np.exp(2j * np.pi * np.arange(k) / k)
        W = U.transpose(0, 2, 1)[:, :, sub]  # (fibers, bands, r)
        W *= roots[(self.quasimomenta @ cell.T) % k][:, None, :]
        GT = self._unpairs(np.conjugate(W, out=W))
        GT *= (self.frame / self.weights)[:, None]
        GT *= scale
        return GT.T

    def green(self, fibers: FiberTable | None = None, negative: bool = False) -> GreenTable:
        """E Lambda^-1 E^T on the torus grid, or Q E Lambda^-1 E^T Q^T on
        the grid of a fiber table (`_spectral_table` of frame^2 / lambda).
        With `negative`, the weights are frame^2 / |lambda| on the negative
        eigenvalues and 0 elsewhere: E P- |Lambda|^-1 E^T."""
        lead = self.columns[..., 0]
        lam = self.eigenvalues[lead]
        weight = self.frame[lead] ** 2 / lam
        if negative:
            weight = np.where(lam < 0.0, -weight, 0.0)
        return self._spectral_table(weight, fibers)

    def grid_operator(self) -> NDArray[np.float64]:
        """L = h^2 E Lambda E^T = h (-Lap + V) on the torus grid (h the
        spacing to the power dim), N x N in the grid's row-major order: the
        `_spectral_table` of h^2 frame^2 lambda, gathered whole. With
        T = h W E^T, the map u -> a, this is T^T D T."""
        lead = self.columns[..., 0]
        h = self.domain.spacing**self.domain.dim
        weight = h * h * self.frame[lead] ** 2 * self.eigenvalues[lead]
        return self._spectral_table(weight).block(np.arange(self.domain.num_points))

    def _spectral_table(self, weight: NDArray[np.float64], fibers: FiberTable | None = None) -> GreenTable:
        """E f(Lambda) E^T between the points of the torus grid or of a fiber
        table's grid, from the weights frame^2 f(lambda) of each fiber's
        bands (fibers x bands; a pair's frame^2 carries its factor 2): by
        Floquet-Bloch, the table of g[d] = Re sum_f e^{i theta_f.d} U_f
        diag(weight_f) U_f^H over the cell differences d."""
        U, per_cell = fibers or self.torus_fibers
        B = np.matmul(U * weight[:, None, :], U.conj().transpose(0, 2, 1))
        return GreenTable(self._cell_waves(B), self.domain.cells, per_cell, self.domain.dim)

    def field_from_a(self, a: NDArray[np.float64]) -> GridField:
        return GridField(self.domain, self.values_from_a(a))


def diagonalize(V: PeriodicPotential, domain: TorusDomain) -> SpectralDecomposition:
    """Every eigenpair of -Lap + V on the torus, assembled from Bloch fibers.

    Each representative quasimomentum j (_quasimomenta) costs one
    M^dim x M^dim eigensolve: real symmetric when j = -j, complex Hermitian
    otherwise, where the real and imaginary parts of each Bloch wave, scaled
    by sqrt(2 / k^dim), are two orthonormal real eigenfields with the same
    eigenvalue. Each eigenvector's phase is fixed inside its fiber
    (_fiber_eigh). All eigenvalues are stably sorted together; the fibers
    are kept with each eigenfield's sorted index and normalization, and
    nothing is built on the whole grid. Cost O(k^dim * M^(3*dim)) flops,
    against O(N^3) for the dense eigensolve.

    Raises NotInvertible when some |lambda_i| < 1e-10 (zero effectively in
    the spectrum). The gap interval is certified only when
    min |lambda_i| > 1e-6; between the two thresholds the decomposition is
    returned with gap=None.
    """
    k, dim = domain.cells, domain.dim
    V_cell = _cell_samples(V.evaluate(domain), domain)
    fibers = [
        (j, real, *_fiber_eigh(V_cell, j, k, real))
        for j, real in _quasimomenta(domain)
    ]
    # one entry per eigenfield, in fiber order: a paired band gives (Re, Im)
    vals = np.concatenate([lam if real else np.repeat(lam, 2) for _, real, lam, _ in fibers])
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    min_abs = float(np.min(np.abs(vals)))
    if min_abs < INVERTIBLE_TOL:
        raise NotInvertible(
            f"|lambda|_min = {min_abs:.3e}: 0 lies in the spectrum, not in a spectral gap "
            "of -Lap+V; adjust the potential shift (try 'auto-midgap')"
        )
    column = np.empty_like(order)
    column[order] = np.arange(order.size)
    n, width = domain.num_points, domain.samples_per_cell**dim
    columns = np.full((len(fibers), width, 2), n)
    frame = np.empty(n)
    start = 0
    for f, (_, real, _, _) in enumerate(fibers):
        # a pair's fields (Re, Im) sit in adjacent sorted columns; frames make them L2-orthonormal
        cols = column[start : start + (1 if real else 2) * width].reshape(width, -1)
        columns[f, :, : cols.shape[1]] = cols
        start += cols.size
        frame[cols] = np.sqrt((1.0 if real else 2.0) / k**dim) * domain.samples_per_cell ** (dim / 2.0)
    j = int(np.sum(vals < 0.0))
    gap: tuple[float, float] | None = None
    if min_abs > GAP_CERTIFY_TOL:
        alpha = float(-vals[j - 1]) if j > 0 else np.inf
        beta = float(vals[j]) if j < vals.size else np.inf
        gap = (alpha, beta)
    return SpectralDecomposition(
        domain=domain,
        potential=V,
        eigenvalues=vals,
        j=j,
        gap=gap,
        quasimomenta=np.array([q for q, *_ in fibers]).reshape(len(fibers), dim),
        fiber_vectors=np.array([U for *_, U in fibers], dtype=np.complex128),
        columns=columns,
        frame=frame,
    )


def project_positive(u: GridField, S: SpectralDecomposition) -> GridField:
    """T_k u: the component spanned by eigenfields with lambda_i > 0."""
    S.require_gap()
    return S.field_from_a(S.a_from_field(u) * (S.eigenvalues > 0.0))


# -- Floquet-Bloch bands (1-d) --------------------------------------------------


def band_samples(
    V: PeriodicPotential,
    bands: int,
    quasimomenta: int,
    modes: int = 32,
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Eigenvalues of the Bloch fibers at theta = 2*pi*t/quasimomenta.

    Returns (thetas, vals) with vals[t, b] the b-th eigenvalue at theta_t.
    Band extrema sit at theta in {0, pi}; an even quasimomenta count hits
    both exactly.
    """
    if bands > modes:
        raise ValueError(f"bands={bands} exceeds fiber size modes={modes}")
    thetas = 2.0 * np.pi * np.arange(quasimomenta) / quasimomenta
    vals = np.empty((quasimomenta, bands))
    cell = V.profile(np.arange(modes) / modes) - V.shift
    for t, theta in enumerate(thetas):
        vals[t] = eigvalsh(_fiber_matrix(cell, (theta,)))[:bands]
    return thetas, vals


def band_structure(
    V: PeriodicPotential,
    bands: int,
    quasimomenta: int = 32,
    modes: int = 32,
) -> list[tuple[float, float]]:
    """Floquet band intervals [min_theta lambda_b, max_theta lambda_b], 1-d only."""
    _, vals = band_samples(V, bands, quasimomenta, modes)
    return [(float(vals[:, b].min()), float(vals[:, b].max())) for b in range(bands)]


def midgap_shift(amplitude: float, axes: int = 1) -> float:
    """Shift s placing 0 at the midpoint of the first gap of sum_a A cos(2*pi*x_a)
    over `axes` axes (a free axis is not counted).

    The bands are Minkowski sums of `axes` copies of the 1-d bands: the
    gap lies between axes * hi1 and (axes - 1) lo1 + lo2 (in 1-d, between
    the top of band 1 and the bottom of band 2), so that the shifted
    potential has one full band below zero. Every band edge of
    a 1-d Hill operator sits at theta = 0 or pi (Reed-Simon IV, XIII.16),
    so the two 64-mode fibers there suffice. Both thetas are exact in
    floating point, the same matrices a 64-point quasimomentum scan
    builds, so the shift equals that scan's bit for bit.
    """
    if axes < 1:
        raise ValueError(f"the cosine must act on at least one axis, got {axes}")
    base = PeriodicPotential(kind="cosine", amplitude=amplitude, shift=0.0)
    (lo1, hi1), (lo2, _) = band_structure(base, 2, 2, 64)
    top, bottom = axes * hi1, (axes - 1) * lo1 + lo2
    # touching bands come back separated by eigensolver noise; a sliver
    # below the resolution scale is not a usable gap
    scale = max(1.0, abs(top), abs(bottom))
    if bottom - top <= 1e-9 * scale:
        raise ValueError(f"no gap between bands 1 and 2 for amplitude {amplitude} on {axes} axes")
    return 0.5 * (top + bottom)


def norm_equivalence_report(S: SpectralDecomposition) -> tuple[float, float]:
    """Estimate the equivalence constants between ||.||_k and H^1 on Q_k.

    Ratios ||u||_k / ||u||_H1 are measured over all eigenfields; the min
    and max estimate c_low and c_high.
    """
    from .torus import h1_norm

    S.require_gap()
    ratios = [float(S.weights[i]) / h1_norm(S.eigenfield(i)) for i in range(S.num_modes)]
    return min(ratios), max(ratios)
