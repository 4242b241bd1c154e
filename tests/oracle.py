"""Plain references for the tests: -Lap + V on a torus grid, the
eigenfield matrix of a decomposition built from its Bloch waves, the
dense interpolation matrix onto a fine grid, the Hessian's rows sampled
from them, the kernel split of a dense spectrum, and the orbit
distance one grid shift at a time.

The matrices take O(N^2) memory. The tests diagonalize the operator densely
to check the Bloch-fiber construction of operator.diagonalize, compare the
fiber transforms and row gathers against the eigenfield matrix and the
interpolation matrix, compare a Hessian model with the dense Hessian of
the rows it keeps, and compare the one-FFT orbit distance with the shift
loop; the package itself does none of these this way.
"""

from itertools import product

import numpy as np
from numpy.typing import NDArray

from gapbumps.functional import ROW_CUT, Nonlinearity, _active_rows, _eval_grid, a_hessian
from gapbumps.operator import PeriodicPotential, SpectralDecomposition
from gapbumps.solver import KERNEL_TAU, ORBIT_TIE_RTOL
from gapbumps.torus import GridField, TorusDomain, translate


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


def fine_samples(S: SpectralDecomposition, factor: float, values: NDArray[np.float64]) -> NDArray[np.float64]:
    """Grid values (the grid axes last) interpolated by the dense matrix onto
    the evaluation grid of `factor` on S's torus; factor 1 leaves them."""
    if factor == 1.0:
        return values
    P = _interpolation_matrix(S.domain.points_per_axis, factor, S.domain.cells)
    return _along_axes(P, values, S.domain.dim)


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


def oracle_rows(S: SpectralDecomposition, nl: Nonlinearity, a: NDArray[np.float64], F=None) -> NDArray[np.float64]:
    """diag(sqrt(qw f')) F over the whole evaluation grid, F the
    eigenfields sampled there column by column (N_f x N), from the given
    eigenfield matrix or by default the one built from the Bloch waves."""
    grid = _eval_grid(S, nl)
    F = eigenfield_matrix(S) if F is None else F
    F = fine_samples(S, nl.dealias_factor, F.T.reshape((-1,) + S.domain.shape)).reshape(S.num_modes, -1).T
    samples = fine_samples(S, nl.dealias_factor, S.values_from_a(a))
    return F * np.sqrt(grid.qw * nl.fprime(samples, grid.h)).reshape(-1)[:, None]


def kept_hessian(S: SpectralDecomposition, nl: Nonlinearity, a: NDArray[np.float64]) -> NDArray[np.float64]:
    """D - G^T G over the rows that `_active_rows` keeps, G the oracle's
    rows divided by the weights: the matrix a rows model stands for."""
    G = oracle_rows(S, nl, a)[_active_rows(S, nl, a)[1]] / S.weights
    return np.diag(S.signs) - G.T @ G


def dense_kernel_split(mu: NDArray[np.float64], tau: float = KERNEL_TAU) -> tuple[NDArray[np.bool_], float]:
    """Mask of the eigenvalues mu in [-tau * scale, tau * scale), and the
    scale, the spectral radius max |mu|: the split that the package's
    `kernel_split` makes by inertia, half-open as its two counts are,
    from a dense spectrum."""
    scale = float(np.abs(mu).max())
    edge = tau * scale
    return (mu >= -edge) & (mu < edge), scale


def assert_within_weyl_bound(S: SpectralDecomposition, nl: Nonlinearity, a: NDArray[np.float64], kept) -> None:
    """The full Hessian differs from `kept_hessian` by the dropped rows'
    Gram part: its norm is at most max(dropped f') / min|lambda| (plus the
    rounding of two summation orders, 1e-13 of the spectral radius), which
    the cut keeps at or below ROW_CUT * (1 + max f' / min|lambda|)."""
    weight, rows = _active_rows(S, nl, a)
    fprime = weight / _eval_grid(S, nl).qw
    lam = float(np.abs(S.eigenvalues).min())
    bound = np.delete(fprime, rows).max(initial=0.0) / lam
    full = a_hessian(S, nl, a)
    assert np.abs(np.linalg.eigvalsh(full - kept)).max() <= bound + 1e-13 * np.abs(np.linalg.eigvalsh(full)).max()
    assert bound <= ROW_CUT * (1.0 + fprime.max() / lam)


def orbit_distance(u: GridField, v: GridField, S: SpectralDecomposition) -> tuple[float, tuple[int, ...]]:
    """min over lattice shifts b of |||u - v(. + b)|||: each shift of v made
    on the grid and transformed (k^dim transforms); distances within
    ORBIT_TIE_RTOL (|a_u| + |a_v|) of the least tie, and ties resolve to
    the lexicographically smallest shift."""
    au, av = S.a_from_field(u), S.a_from_field(v)
    shifts = list(product(range(u.domain.cells), repeat=u.domain.dim))
    dists = [float(np.linalg.norm(au - S.a_from_field(translate(v, b)))) for b in shifts]
    tie = min(dists) + ORBIT_TIE_RTOL * (np.linalg.norm(au) + np.linalg.norm(av))
    first = next(i for i, d in enumerate(dists) if d <= tie)
    return dists[first], shifts[first]
