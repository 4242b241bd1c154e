"""The periodic Schrödinger operator -Lap + V on a torus grid.

Assembly is Fourier-pseudospectral: the Laplacian is the exact Fourier
multiplier |xi|^2 on the grid's trigonometric space and V multiplies
pointwise in physical space. The dense symmetric eigenproblem gives every
eigenpair; the spectral gap around zero is certified from the eigenvalues,
and the energy inner product (u, v)_k = sum |lambda_i| c_i d_i built from
the eigencoefficients drives all downstream Newton/reduction algebra.

Fields are expanded as c_i = <u, phi_i>_L2 against the L2-orthonormal
eigenfields (SpectralDecomposition.c_from_values). Solvers work in the
weighted coordinates a_i = sqrt(|lambda_i|) c_i, in which (., .)_k is plain
Euclidean; the spectral projections and the quadratic form stay in c.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import eigh

from .torus import GridField, TorusDomain

GAP_CERTIFY_TOL = 1e-6  # 0 counts as "in a gap" only if min |lambda| exceeds this
INVERTIBLE_TOL = 1e-10


class NotInvertible(Exception):
    """Zero is (numerically) an eigenvalue: not inside a spectral gap."""


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

    def bound(self) -> float:
        """An upper bound for max |V| (hypothesis: V is bounded)."""
        if self.kind == "cosine":
            return abs(self.amplitude) * 2 + abs(self.shift)
        return float(np.max(np.abs(self.samples)) * 2 + abs(self.shift))

    def to_dict(self) -> dict:
        d: dict = {"kind": self.kind, "amplitude": self.amplitude, "shift": self.shift}
        if self.samples is not None:
            d["samples"] = list(self.samples)
        if self.axes is not None:
            d["axes"] = list(self.axes)
        return d


def _laplacian_block(domain: TorusDomain) -> NDArray[np.float64]:
    """Dense one-axis pseudospectral -d^2/dx^2 (symmetric circulant)."""
    mult = domain.wavenumbers() ** 2
    col = np.fft.ifft(mult).real  # first column; real by even symmetry
    n = domain.points_per_axis
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return col[idx]


def operator_matrix(V: PeriodicPotential, domain: TorusDomain) -> NDArray[np.float64]:
    """Dense matrix of -Lap + V on the grid (row-major flattening)."""
    lap1 = _laplacian_block(domain)
    if domain.dim == 1:
        mat = lap1.copy()
    else:
        n = domain.points_per_axis
        eye = np.eye(n)
        mat = np.kron(lap1, eye) + np.kron(eye, lap1)
    mat[np.diag_indices_from(mat)] += V.evaluate(domain).reshape(-1)
    return mat


@dataclass(eq=False)
class SpectralDecomposition:
    """All eigenpairs of -Lap + V on Q_k, plus gap and splitting data.

    eigenfields holds the L2-orthonormal eigenvectors as columns of a
    (num_points, num_points) matrix; j counts negative eigenvalues; gap is
    the certified interval (-alpha, beta) around zero avoided by the
    spectrum, or None when zero is not safely inside a gap.
    """

    domain: TorusDomain
    potential: PeriodicPotential
    eigenvalues: NDArray[np.float64]
    eigenfields: NDArray[np.float64]
    potential_values: NDArray[np.float64]
    j: int
    gap: tuple[float, float] | None
    weights: NDArray[np.float64] = field(init=False, repr=False)
    signs: NDArray[np.float64] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for arr in (self.eigenvalues, self.eigenfields, self.potential_values):
            arr.setflags(write=False)
        # weighted coordinates: a = weights * c makes (.,.)_k Euclidean
        self.weights = np.sqrt(np.abs(self.eigenvalues))
        self.signs = np.sign(self.eigenvalues)

    @property
    def has_gap(self) -> bool:
        return self.gap is not None

    @property
    def alpha(self) -> float:
        if self.gap is None:
            raise ValueError("no certified gap")
        return self.gap[0]

    @property
    def beta(self) -> float:
        if self.gap is None:
            raise ValueError("no certified gap")
        return self.gap[1]

    @property
    def num_modes(self) -> int:
        return self.eigenvalues.size

    def eigenfield(self, i: int) -> GridField:
        return GridField(self.domain, self.eigenfields[:, i])

    def require_gap(self) -> None:
        if self.gap is None:
            raise ValueError("operation requires a certified spectral gap around 0")

    # -- coefficients c and weighted a-coordinates a = weights * c --------------
    def c_from_values(self, values: NDArray[np.float64]) -> NDArray[np.float64]:
        quad_weight = self.domain.spacing**self.domain.dim
        return quad_weight * (self.eigenfields.T @ values.reshape(-1))

    def values_from_c(self, c: NDArray[np.float64]) -> NDArray[np.float64]:
        return (self.eigenfields @ c).reshape(self.domain.shape)

    def a_from_values(self, values: NDArray[np.float64]) -> NDArray[np.float64]:
        return self.weights * self.c_from_values(values)

    def a_from_field(self, u: GridField) -> NDArray[np.float64]:
        return self.a_from_values(u.values)

    def values_from_a(self, a: NDArray[np.float64]) -> NDArray[np.float64]:
        return self.values_from_c(a / self.weights)

    def field_from_a(self, a: NDArray[np.float64]) -> GridField:
        return GridField(self.domain, self.values_from_a(a))


def diagonalize(V: PeriodicPotential, domain: TorusDomain) -> SpectralDecomposition:
    """Solve the dense symmetric eigenproblem for -Lap + V on the torus.

    Raises NotInvertible when some |lambda_i| < 1e-10 (zero effectively in
    the spectrum). The gap interval is certified only when
    min |lambda_i| > 1e-6; between the two thresholds the decomposition is
    returned with gap=None.
    """
    mat = operator_matrix(V, domain)
    vals, vecs = eigh(mat)
    min_abs = float(np.min(np.abs(vals)))
    if min_abs < INVERTIBLE_TOL:
        raise NotInvertible(
            f"|lambda|_min = {min_abs:.3e}: 0 lies in the spectrum, not in a spectral gap"
        )
    # L2-orthonormal columns; deterministic sign: largest entry positive
    vecs = vecs * domain.samples_per_cell ** (domain.dim / 2.0)
    lead = np.argmax(np.abs(vecs), axis=0)
    flips = np.sign(vecs[lead, np.arange(vecs.shape[1])])
    vecs *= flips
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
        potential_values=V.evaluate(domain),
        j=j,
        gap=gap,
    )


def energy_inner(u: GridField, v: GridField, S: SpectralDecomposition) -> float:
    return float(np.dot(S.a_from_field(u), S.a_from_field(v)))


def energy_norm(u: GridField, S: SpectralDecomposition) -> float:
    return float(np.linalg.norm(S.a_from_field(u)))


def _coefficients(u: GridField, S: SpectralDecomposition) -> NDArray[np.float64]:
    if not u.domain.compatible(S.domain):
        raise ValueError("field and decomposition domains differ")
    return S.c_from_values(u.values)


def project_negative(u: GridField, S: SpectralDecomposition) -> GridField:
    """P_k u: the component spanned by eigenfields with lambda_i < 0."""
    S.require_gap()
    c = _coefficients(u, S) * (S.eigenvalues < 0.0)
    return GridField(S.domain, S.values_from_c(c))


def project_positive(u: GridField, S: SpectralDecomposition) -> GridField:
    """T_k u: the component spanned by eigenfields with lambda_i > 0."""
    S.require_gap()
    c = _coefficients(u, S) * (S.eigenvalues > 0.0)
    return GridField(S.domain, S.values_from_c(c))


def quadratic_form(u: GridField, S: SpectralDecomposition) -> float:
    """int |grad u|^2 + V u^2, evaluated as sum lambda_i c_i^2."""
    c = _coefficients(u, S)
    return float(np.sum(S.eigenvalues * c * c))


# -- Floquet-Bloch bands (1-d) --------------------------------------------------


def _fiber_matrix(
    V: PeriodicPotential, theta: float, modes: int
) -> NDArray[np.complex128]:
    """Bloch fiber of -d2/dx2 + V on the unit cell at phase theta.

    Physical-space form on a `modes`-point cell grid: conjugating the Bloch
    wave e^{i theta x} shifts the Fourier symbol to (2*pi*m + theta)^2. With
    modes equal to a torus's samples_per_cell the fiber eigenvalues at
    theta = 2*pi*j/k are exactly the torus eigenvalues, same truncation.
    """
    freqs = 2.0 * np.pi * np.fft.fftfreq(modes, d=1.0 / modes)
    mult = (freqs + theta) ** 2
    col = np.fft.ifft(mult)
    idx = (np.arange(modes)[:, None] - np.arange(modes)[None, :]) % modes
    fiber = col[idx]
    cell = np.arange(modes) / modes
    fiber[np.diag_indices(modes)] += V.profile(cell) - V.shift
    return fiber


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
    for t, theta in enumerate(thetas):
        fiber = _fiber_matrix(V, theta, modes)
        vals[t] = eigh(fiber, eigvals_only=True)[:bands]
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


def midgap_shift(
    amplitude: float, quasimomenta: int = 64, modes: int = 64
) -> float:
    """Shift s placing 0 at the midpoint of the first gap of A cos(2*pi*x).

    The first two bands of the unshifted profile are computed and the
    midpoint of the interval between them is returned; V = A cos(2*pi*x) - s
    then has one full band below zero.
    """
    base = PeriodicPotential(kind="cosine", amplitude=amplitude, shift=0.0)
    (lo1, hi1), (lo2, hi2) = band_structure(base, 2, quasimomenta, modes)
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
            c = np.zeros(n)
            c[trial] = 1.0
        else:
            c = rng.standard_normal(n) * decay
        u = GridField(S.domain, S.values_from_c(c))
        ratio = float(np.linalg.norm(S.weights * c)) / h1_norm(u)
        lo = min(lo, ratio)
        hi = max(hi, ratio)
    return float(lo), float(hi)


def orbit_shifts(domain: TorusDomain) -> list[tuple[int, ...]]:
    """All k^N integer translations of the torus, lexicographic order."""
    from itertools import product

    return [tuple(b) for b in product(range(domain.cells), repeat=domain.dim)]
