"""Plain references for the tests: -Lap + V on a torus grid, the
eigenfield matrix of a decomposition built from its Bloch waves, and the
orbit distance one grid shift at a time.

The matrices take O(N^2) memory. The tests diagonalize the operator densely
to check the Bloch-fiber construction of operator.diagonalize, compare the
fiber transforms and row gathers against the eigenfield matrix, and compare
the one-FFT orbit distance with the shift loop; the package itself does
none of these this way.
"""

from itertools import product

import numpy as np
from numpy.typing import NDArray

from gapbumps.operator import PeriodicPotential, SpectralDecomposition
from gapbumps.torus import GridField, TorusDomain, translate


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


def bloch_rows(U: NDArray[np.complex128], j, domain: TorusDomain) -> NDArray[np.complex128]:
    """Fiber eigenvectors U extended to the torus: psi(x_cell + n) = e^{i theta.n} u(x_cell).

    One row per fiber eigenvector, row-major over the grid, Euclidean
    norm sqrt(k^dim) per row.
    """
    k, m, dim = domain.cells, domain.samples_per_cell, domain.dim
    # one table of k-th roots of unity; (j * n) mod k indexes e^{2 pi i j n / k}
    roots = np.exp(2j * np.pi * np.arange(k) / k)
    rows = U.T.reshape((U.shape[1],) + (1, m) * dim)
    for ax in range(dim):
        shape = [1] * rows.ndim
        shape[1 + 2 * ax] = k
        rows = rows * roots[(j[ax] * np.arange(k)) % k].reshape(shape)
    return rows.reshape(U.shape[1], domain.num_points)


def eigenfield_matrix(S: SpectralDecomposition) -> NDArray[np.float64]:
    """S's eigenfields as the columns of an N x N matrix: frame times the
    real and imaginary parts of each fiber's Bloch waves on the whole grid."""
    n = S.num_modes
    vecs = np.empty((S.domain.num_points, n))
    for q, U, cols in zip(S.quasimomenta, S.fiber_vectors, S.columns):
        psi = bloch_rows(U, tuple(q), S.domain)
        parts = (psi.real,) if cols[0, 1] == n else (psi.real, psi.imag)
        for part, c in zip(parts, cols.T):
            vecs[:, c] = (part * S.frame[c][:, None]).T
    return vecs


def orbit_distance(u: GridField, v: GridField, S: SpectralDecomposition) -> tuple[float, tuple[int, ...]]:
    """min over lattice shifts b of |||u - v(. + b)|||: each shift of v made
    on the grid and transformed (k^dim transforms); ties resolve to the
    lexicographically smallest shift."""
    au = S.a_from_field(u)
    best = np.inf
    best_shift: tuple[int, ...] = (0,) * u.domain.dim
    for b in product(range(u.domain.cells), repeat=u.domain.dim):
        d = float(np.linalg.norm(au - S.a_from_field(translate(v, b))))
        if d < best - 1e-15:
            best, best_shift = d, b
    return best, best_shift
