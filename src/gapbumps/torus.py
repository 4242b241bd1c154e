"""Periodic grids on the cubes Q_k = (-k/2, k/2)^N and real fields on them.

Everything downstream (operators, energies, solvers) lives on a uniform
grid that wraps periodically, with an integer number M of samples per unit
cell so that translation by a lattice vector is an exact circular shift.
Quadrature is the periodic trapezoidal rule, which is spectrally accurate
for smooth integrands; derivatives are Fourier differentiation, exact on
the grid's trigonometric space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray


@dataclass(frozen=True)
class TorusDomain:
    """Uniform periodic grid over Q_k = (-k/2, k/2)^N.

    Args:
        dim: spatial dimension N, 1 or 2.
        cells: edge length k, counted in unit cells.
        samples_per_cell: samples M per unit cell per axis; a power of two
            >= 8 so that grids at different k share sample locations and
            FFT sizes stay friendly.
    """

    dim: int
    cells: int
    samples_per_cell: int = 16

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.cells < 1:
            raise ValueError(f"cells must be >= 1, got {self.cells}")
        m = self.samples_per_cell
        if m < 8 or m & (m - 1):
            raise ValueError(f"samples_per_cell must be a power of two >= 8, got {m}")

    @property
    def points_per_axis(self) -> int:
        return self.cells * self.samples_per_cell

    @property
    def spacing(self) -> float:
        return 1.0 / self.samples_per_cell

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dim

    @property
    def num_points(self) -> int:
        return self.points_per_axis**self.dim

    @property
    def volume(self) -> float:
        return float(self.cells**self.dim)

    def axis_coords(self) -> NDArray[np.float64]:
        """Grid coordinates along one axis, x_i = -k/2 + i/M."""
        n = self.points_per_axis
        return -0.5 * self.cells + self.spacing * np.arange(n)

    def meshgrid(self) -> list[NDArray[np.float64]]:
        x = self.axis_coords()
        return list(np.meshgrid(*([x] * self.dim), indexing="ij"))

    def wavenumbers(self) -> NDArray[np.float64]:
        """Angular wavenumbers 2*pi*m/k along one axis, in FFT order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.points_per_axis, d=self.spacing)

    def compatible(self, other: "TorusDomain") -> bool:
        return (
            self.dim == other.dim
            and self.cells == other.cells
            and self.samples_per_cell == other.samples_per_cell
        )


@dataclass(frozen=True)
class GridField:
    """Real field sampled on a TorusDomain grid, row-major over axes."""

    domain: TorusDomain
    values: NDArray[np.float64]

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.size != self.domain.num_points:
            raise ValueError(
                f"expected {self.domain.num_points} values, got {vals.size}"
            )
        vals = vals.reshape(self.domain.shape).copy()
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        vals.setflags(write=False)  # fields are immutable once built
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_function(cls, domain: TorusDomain, fn) -> "GridField":
        return cls(domain, fn(*domain.meshgrid()))

    @classmethod
    def zeros(cls, domain: TorusDomain) -> "GridField":
        return cls(domain, np.zeros(domain.shape))

    @classmethod
    def constant(cls, domain: TorusDomain, value: float) -> "GridField":
        return cls(domain, np.full(domain.shape, float(value)))

    @property
    def flat(self) -> NDArray[np.float64]:
        return self.values.reshape(-1)


def integrate(f: GridField) -> float:
    """Integral over Q_k: equal-weight periodic trapezoidal rule."""
    return float(f.domain.spacing**f.domain.dim * f.values.sum())


def l2_inner(f: GridField, g: GridField) -> float:
    if not f.domain.compatible(g.domain):
        raise ValueError("fields live on incompatible domains")
    return float(f.domain.spacing**f.domain.dim * np.vdot(f.values, g.values).real)


def l2_norm(f: GridField) -> float:
    return float(np.sqrt(max(l2_inner(f, f), 0.0)))


def min_image(d: NDArray[np.float64], cells: int) -> NDArray[np.float64]:
    """Displacements wrapped to their minimum image on the k-periodic torus."""
    k = float(cells)
    return d - k * np.round(d / k)


def translate(f: GridField, b: Sequence[int]) -> GridField:
    """Return f(. + b) for an integer lattice vector b, an exact circular shift.

    Component b_i moves the field by b_i unit cells = b_i * M samples along
    axis i, wrapping periodically; b is reduced mod k implicitly.
    """
    b = np.atleast_1d(np.asarray(b, dtype=int))
    if b.size != f.domain.dim:
        raise ValueError(f"shift has {b.size} components, domain is {f.domain.dim}-d")
    m = f.domain.samples_per_cell
    shifted = np.roll(f.values, shift=tuple(-int(bi) * m for bi in b), axis=tuple(range(f.domain.dim)))
    return GridField(f.domain, shifted)


def _ramp_profile(t: NDArray[np.float64]) -> NDArray[np.float64]:
    # Quintic smoothstep 6t^5 - 15t^4 + 10t^3: C^2, flat at both ends,
    # max slope 15/8 on [0,1] i.e. 15/4 over the physical half-cell band.
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


CUTOFF_GRAD_BOUND = 15.0 / 4.0


def cutoff_field(domain: TorusDomain) -> GridField:
    """The cutoff chi_k: 1 on Q_{k-1}, 0 outside Q_k, C^2 ramp in between.

    Product of per-axis profiles; the ramp occupies the half-cell band
    (k-1)/2 <= |x| <= k/2 on each axis, so |grad chi| <= 15/4 everywhere,
    independent of k.
    """
    k = domain.cells
    chi = np.ones(domain.shape)
    for x in domain.meshgrid():
        t = (np.abs(x) - 0.5 * (k - 1)) / 0.5
        chi = chi * (1.0 - _ramp_profile(t))
    return GridField(domain, chi)


def embed_with_cutoff(f: GridField, target: TorusDomain) -> GridField:
    """Multiply f by chi_k and zero-extend onto the larger torus, centered.

    Requires matching dim and samples_per_cell and target.cells >= f.domain.cells;
    sample locations of the source grid are a subset of the target's, so the
    extension is exact placement, no interpolation.
    """
    src = f.domain
    if target.dim != src.dim or target.samples_per_cell != src.samples_per_cell:
        raise ValueError("embedding requires matching dim and samples_per_cell")
    if target.cells < src.cells:
        raise ValueError(
            f"cannot embed cells={src.cells} into smaller cells={target.cells}"
        )
    cut = cutoff_field(src).values * f.values
    if target.cells == src.cells:
        return GridField(target, cut)
    out = np.zeros(target.shape)
    # both grids sample x = 0; offset aligns the source block centered in the target
    off = (target.points_per_axis - src.points_per_axis) // 2
    n = src.points_per_axis
    index = tuple(slice(off, off + n) for _ in range(src.dim))
    out[index] = cut
    return GridField(target, out)


def spectral_gradient(f: GridField) -> list[GridField]:
    """Partial derivatives by Fourier differentiation (exact on the grid's modes)."""
    spec = np.fft.fftn(f.values)
    xi = f.domain.wavenumbers()
    grads = []
    for ax in range(f.domain.dim):
        shape = [1] * f.domain.dim
        shape[ax] = xi.size
        d = np.fft.ifftn(spec * (1j * xi.reshape(shape))).real
        grads.append(GridField(f.domain, d))
    return grads


def h1_norm(f: GridField) -> float:
    """Sobolev norm sqrt(int |grad f|^2 + f^2) with the spectral gradient."""
    acc = l2_inner(f, f)
    for g in spectral_gradient(f):
        acc += l2_inner(g, g)
    return float(np.sqrt(max(acc, 0.0)))
