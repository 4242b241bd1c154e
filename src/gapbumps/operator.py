"""The periodic Schrödinger operator -Lap + V on a torus grid.

Assembly is Fourier-pseudospectral: the Laplacian is the exact Fourier
multiplier |xi|^2 on the grid's trigonometric space and V multiplies
pointwise in physical space. V is 1-periodic and the torus Q_k holds whole
cells, so the operator splits exactly into k^dim Bloch fibers of size
M^dim, one per quasimomentum theta = 2*pi*j/k (Floquet-Bloch theory). The
spectrum is built from those fibers: each conjugate pair {j, -j} costs one
complex Hermitian eigenproblem and yields two real eigenfields per band,
the real and imaginary parts of its Bloch waves. The cost is
O(k^dim * M^(3*dim)) for the fibers plus O(N^2) to write the N x N
eigenfield matrix, instead of O(N^3) for a dense eigensolve.

The spectral gap around zero is certified from the eigenvalues. A field
is represented by its weighted coordinates a_i = sqrt(|lambda_i|)
<u, phi_i>_L2 against the L2-orthonormal eigenfields
(SpectralDecomposition.a_from_values), in which the energy inner product
(u, v)_k = sum |lambda_i| <u, phi_i> <v, phi_i> that drives all
downstream Newton/reduction algebra is plain Euclidean.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterator, Sequence

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import eigh, eigvalsh

from .torus import GridField, TorusDomain

GAP_CERTIFY_TOL = 1e-6  # 0 counts as "in a gap" only if min |lambda| exceeds this
INVERTIBLE_TOL = 1e-10


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


def _fiber_eigh(V_cell: NDArray[np.float64], j: tuple[int, ...], k: int, real: bool):
    """Eigenvalues and eigenvectors of the fiber at theta = 2*pi*j/k."""
    fiber = _fiber_matrix(V_cell, 2.0 * np.pi * np.asarray(j) / k)
    # a real eigensolver keeps degenerate eigenvectors of a real fiber real;
    # divide and conquer keeps close eigenvectors orthogonal to ~1e-15
    return eigh(fiber.real if real else fiber, driver="evd")


def _cell_samples(values: NDArray[np.float64], domain: TorusDomain) -> NDArray[np.float64]:
    """The torus grid's samples on its first unit cell."""
    return values[(slice(0, domain.samples_per_cell),) * domain.dim]


def _bloch_columns(
    U: NDArray[np.complex128], j: tuple[int, ...], domain: TorusDomain
) -> NDArray[np.complex128]:
    """Fiber eigenvectors U extended to the torus: psi(x_cell + n) = e^{i theta.n} u(x_cell).

    Row-major over the grid, one column per fiber eigenvector, Euclidean
    norm sqrt(k^dim) per column.
    """
    k, m, dim = domain.cells, domain.samples_per_cell, domain.dim
    # one table of k-th roots of unity; (j * n) mod k indexes e^{2 pi i j n / k}
    roots = np.exp(2j * np.pi * np.arange(k) / k)
    cols = U.reshape((1, m) * dim + (U.shape[1],))
    for ax in range(dim):
        shape = [1] * cols.ndim
        shape[2 * ax] = k
        cols = cols * roots[(j[ax] * np.arange(k)) % k].reshape(shape)
    return cols.reshape(domain.num_points, U.shape[1])


@dataclass(eq=False)
class SpectralDecomposition:
    """All eigenpairs of -Lap + V on Q_k, plus gap and splitting data.

    eigenvalues ascend; eigenfields holds the L2-orthonormal real
    eigenvectors as columns of a (num_points, num_points) matrix, each with
    its largest-magnitude entry positive. They are Bloch waves: a
    self-conjugate quasimomentum contributes its real fiber eigenvectors,
    every other pair {j, -j} the real and imaginary parts of one complex
    Bloch wave per band, adjacent and with equal eigenvalues. Inside a
    degenerate eigenspace that basis is one choice of many: projections,
    energies and Newton steps do not depend on it, but random draws made
    coefficient by coefficient (solver.sphere_level) do. j counts negative
    eigenvalues; gap is the certified interval (-alpha, beta) around zero
    avoided by the spectrum, or None when zero is not safely inside a gap.
    """

    domain: TorusDomain
    potential: PeriodicPotential
    eigenvalues: NDArray[np.float64]
    eigenfields: NDArray[np.float64]
    j: int
    gap: tuple[float, float] | None
    weights: NDArray[np.float64] = field(init=False, repr=False)
    signs: NDArray[np.float64] = field(init=False, repr=False)
    def __post_init__(self) -> None:
        for arr in (self.eigenvalues, self.eigenfields):
            arr.setflags(write=False)
        # weighted coordinates: a = weights * <u, phi>_L2 makes (.,.)_k Euclidean
        self.weights = np.sqrt(np.abs(self.eigenvalues))
        self.signs = np.sign(self.eigenvalues)

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
        return GridField(self.domain, self.eigenfields[:, i])

    def require_gap(self) -> None:
        if self.gap is None:
            raise NoCertifiedGap("operation requires a certified spectral gap around 0")

    # -- weighted a-coordinates a_i = sqrt(|lambda_i|) <u, phi_i>_L2 -------------
    def a_from_values(self, values: NDArray[np.float64]) -> NDArray[np.float64]:
        quad_weight = self.domain.spacing**self.domain.dim
        return self.weights * (quad_weight * (self.eigenfields.T @ values.reshape(-1)))

    def a_from_field(self, u: GridField) -> NDArray[np.float64]:
        return self.a_from_values(u.values)

    def values_from_a(self, a: NDArray[np.float64]) -> NDArray[np.float64]:
        return (self.eigenfields @ (a / self.weights)).reshape(self.domain.shape)

    def a_from_dual(self, v: NDArray[np.float64]) -> NDArray[np.float64]:
        """E^T v / weights, the transpose of values_from_a."""
        return (self.eigenfields.T @ v.reshape(-1)) / self.weights

    def a_form(self, M: NDArray[np.float64]) -> NDArray[np.float64]:
        """E^T M E / (w w^T), exactly symmetric, for a grid quadratic form M:
        nonnegative weights (diagonal; G^T G with G = diag(sqrt M) E, which
        NumPy runs as a symmetric rank-k update) or a symmetric N x N matrix
        (E^T (M E), symmetrized by A += A^T)."""
        E = self.eigenfields
        if M.ndim == 1:
            G = E * np.sqrt(M)[:, None]
            A = G.T @ G
        else:
            A = E.T @ (M @ E)
            A += A.T
            A *= 0.5
        A /= np.outer(self.weights, self.weights)
        return A

    def a_rows(self, R: NDArray, scale: NDArray[np.float64]) -> NDArray[np.float64]:
        """diag(scale) R E / w for rows R (r x N) of a sampling map; an index
        array R selects rows of the identity, a gather of E's rows."""
        G = self.eigenfields[R] if R.ndim == 1 else R @ self.eigenfields
        G *= scale[:, None]
        G /= self.weights
        return G

    def field_from_a(self, a: NDArray[np.float64]) -> GridField:
        return GridField(self.domain, self.values_from_a(a))


def diagonalize(V: PeriodicPotential, domain: TorusDomain) -> SpectralDecomposition:
    """Every eigenpair of -Lap + V on the torus, assembled from Bloch fibers.

    Each representative quasimomentum j (_quasimomenta) costs one
    M^dim x M^dim eigensolve: real symmetric when j = -j, complex Hermitian
    otherwise, where the real and imaginary parts of each Bloch wave, scaled
    by sqrt(2 / k^dim), are two orthonormal real eigenfields with the same
    eigenvalue. All eigenvalues are stably sorted together and the columns
    are written into one preallocated N x N array. Cost
    O(k^dim * M^(3*dim) + N^2), against O(N^3) for the dense eigensolve.

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
    vecs = np.empty((domain.num_points, domain.num_points), order="F")
    start = 0
    for q, real, _, U in fibers:
        psi = _bloch_columns(U, q, domain)
        if real:
            block = psi.real
        else:
            block = np.empty((psi.shape[0], 2 * psi.shape[1]))
            block[:, 0::2] = psi.real
            block[:, 1::2] = psi.imag
        # L2-orthonormal columns; deterministic sign: largest entry positive
        block *= np.sqrt((1.0 if real else 2.0) / k**dim) * domain.samples_per_cell ** (dim / 2.0)
        lead = np.argmax(np.abs(block), axis=0)
        block *= np.sign(block[lead, np.arange(block.shape[1])])
        vecs[:, column[start : start + block.shape[1]]] = block
        start += block.shape[1]
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
        eigenfields=vecs,
        j=j,
        gap=gap,
    )


def project_positive(u: GridField, S: SpectralDecomposition) -> GridField:
    """T_k u: the component spanned by eigenfields with lambda_i > 0."""
    S.require_gap()
    if not u.domain.compatible(S.domain):
        raise ValueError("field and decomposition domains differ")
    return S.field_from_a(S.a_from_values(u.values) * (S.eigenvalues > 0.0))


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


def midgap_shift(amplitude: float) -> float:
    """Shift s placing 0 at the midpoint of the first gap of A cos(2*pi*x).

    The first gap lies between the top of band 1 and the bottom of band 2
    of the unshifted profile; its midpoint is returned, so that
    V = A cos(2*pi*x) - s has one full band below zero. Every band edge of
    a 1-d Hill operator sits at theta = 0 or pi (Reed-Simon IV, XIII.16),
    so the two 64-mode fibers there suffice. Both thetas are exact in
    floating point, the same matrices a 64-point quasimomentum scan
    builds, so the shift equals that scan's bit for bit.
    """
    base = PeriodicPotential(kind="cosine", amplitude=amplitude, shift=0.0)
    (lo1, hi1), (lo2, hi2) = band_structure(base, 2, 2, 64)
    # touching bands come back separated by eigensolver noise; a sliver
    # below the resolution scale is not a usable gap
    scale = max(1.0, abs(hi1), abs(lo2))
    if lo2 - hi1 <= 1e-9 * scale:
        raise ValueError(f"no gap between bands 1 and 2 for amplitude {amplitude}")
    del lo1, hi2
    return 0.5 * (hi1 + lo2)


def norm_equivalence_report(
    S: SpectralDecomposition,
    trials: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Estimate the equivalence constants between ||.||_k and H^1 on Q_k.

    Ratios ||u||_k / ||u||_H1 are measured over all eigenfields plus
    `trials` random fields with H^1-summable spectra; the min and max
    estimate c_low and c_high.
    """
    from .torus import h1_norm

    S.require_gap()
    lo, hi = np.inf, 0.0
    n = S.num_modes
    decay = 1.0 / (1.0 + np.abs(S.eigenvalues))
    for trial in range(n + trials):
        if trial < n:
            a = np.zeros(n)
            a[trial] = S.weights[trial]
        else:
            a = S.weights * (rng.standard_normal(n) * decay)
        ratio = float(np.linalg.norm(a)) / h1_norm(S.field_from_a(a))
        lo = min(lo, ratio)
        hi = max(hi, ratio)
    return float(lo), float(hi)


def orbit_shifts(domain: TorusDomain) -> list[tuple[int, ...]]:
    """All k^N integer translations of the torus, lexicographic order."""
    return [tuple(b) for b in product(range(domain.cells), repeat=domain.dim)]
