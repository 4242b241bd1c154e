"""Dense assembly of -Lap + V on a torus grid, the tests' reference.

An O(N^2)-memory matrix that the tests diagonalize densely to check the
Bloch-fiber construction of operator.diagonalize; the package itself never
assembles it.
"""

import numpy as np
from numpy.typing import NDArray

from gapbumps.operator import PeriodicPotential
from gapbumps.torus import TorusDomain


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
