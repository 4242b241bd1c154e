"""Plain references for the tests: -Lap + V on a torus grid, the
eigenfield matrix of a decomposition built from its Bloch waves, the
Hessian's rows sampled from it, and the orbit distance one grid shift at
a time.

The matrices take O(N^2) memory. The tests diagonalize the operator densely
to check the Bloch-fiber construction of operator.diagonalize, compare the
fiber transforms and row gathers against the eigenfield matrix, compare a
Hessian model with the dense Hessian of the rows it keeps, and compare
the one-FFT orbit distance with the shift loop; the package itself does
none of these this way.
"""

from itertools import product

import numpy as np
from numpy.typing import NDArray

from gapbumps.functional import ROW_CUT, Nonlinearity, _active_rows, _along_axes, _eval_grid, a_hessian
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


def oracle_rows(S: SpectralDecomposition, nl: Nonlinearity, a: NDArray[np.float64], F=None) -> NDArray[np.float64]:
    """diag(sqrt(qw f')) F over the whole evaluation grid, F the
    eigenfields sampled there column by column (N_f x N), from the given
    eigenfield matrix or by default the one built from the Bloch waves."""
    grid = _eval_grid(S, nl)
    F = eigenfield_matrix(S) if F is None else F
    if grid.P is not None:
        fine = _along_axes(grid.P, F.T.reshape((-1,) + S.domain.shape), grid.dim)
        F = fine.reshape(S.num_modes, -1).T
    samples = grid.samples(S.values_from_a(a))
    return F * np.sqrt(grid.qw * nl.fprime(samples, grid.h)).reshape(-1)[:, None]


def kept_hessian(S: SpectralDecomposition, nl: Nonlinearity, a: NDArray[np.float64]) -> NDArray[np.float64]:
    """D - G^T G over the rows that `_active_rows` keeps, G the oracle's
    rows divided by the weights: the matrix a rows model stands for."""
    G = oracle_rows(S, nl, a)[_active_rows(S, nl, a)[1]] / S.weights
    return np.diag(S.signs) - G.T @ G


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
