"""Canonical problem instances and measured fixtures.

Numbers marked "measured" were produced by running this package's own
pipeline at the stated discretization and are frozen for regression; they
are not claims about the continuum limit.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .functional import Nonlinearity
from .operator import PeriodicPotential, midgap_shift, torus_spectrum
from .torus import TorusDomain

# default cosine amplitude; every canned instance uses it
AMPLITUDE = 30.0

# midgap_shift(30.0) at the reference resolution, frozen for regression
S_STAR_A30 = 6.995076895015949

# first two spectral bands for amplitude 30, frozen from a fine scan
BAND1_A30 = (-9.456616202686, -7.488194058424)
BAND2_A30 = (21.478347848465, 37.597262557382)

# one-bump base on Q_8 at M = 16 from the canonical ansatz (measured)
BASE_ENERGY_K8 = 107.23531707537835
BASE_NORM_K8 = 20.88097221392602

# validation floors: half the measured base size and level
EPS1_K8 = 0.5 * BASE_NORM_K8
EPS2_K8 = 0.5 * BASE_ENERGY_K8

# positive-sphere radius with a comfortably positive minimum (measured scan)
R_STAR = 1.0

# bounding radius for the max-over-link-set estimate, in units of |u*|
RHO_FACTOR = 2.0

# relative threshold that captures exactly the softest Hessian direction
# at the one-bump base (|mu| gaps: 0.118 < 0.128 < 0.139); turns the
# nondegenerate base into a one-dimensional reduction exercise
TAU_FORCED = 0.128

# canonical Gaussian seed for the one-bump base
BASE_ANSATZ = {"center": (0.0,), "width": 0.5, "amplitude": 6.0}

# seed for the two-dimensional degenerate fixture's base
DEGENERATE_ANSATZ = {"center": (0.0, 0.0), "width": 0.4, "amplitude": 6.0}


@lru_cache(maxsize=None)
def default_potential() -> PeriodicPotential:
    """Cosine potential shifted so 0 sits mid-gap (resolved at runtime)."""
    return PeriodicPotential(amplitude=AMPLITUDE, shift=midgap_shift(AMPLITUDE))


@lru_cache(maxsize=None)
def degenerate_shift(cells: int = 3, samples_per_cell: int = 8) -> float:
    """Shift centering 0 in the widest low-lying gap of the 2-d fixture.

    The fixture potential varies along axis 0 only; transverse momenta
    shift whole copies of the axis-0 spectrum upward, so the continuum
    gap closes and the usable gap must be read off the finite-torus
    spectrum (its Bloch fibers at the torus quasimomenta) instead.
    """
    domain = TorusDomain(2, cells, samples_per_cell)
    V0 = PeriodicPotential(amplitude=AMPLITUDE, shift=0.0, axes=(0,))
    eigs = torus_spectrum(V0, domain)
    window = eigs[(eigs > -14.0) & (eigs < 2.0)]
    gaps = np.diff(window)
    i = int(np.argmax(gaps))
    return float(0.5 * (window[i] + window[i + 1]))


def degenerate_problem(
    cells: int = 3, samples_per_cell: int = 8
) -> tuple[TorusDomain, PeriodicPotential, Nonlinearity]:
    """2-d torus, potential constant along axis 1, alias-free quartics.

    Dealiasing at factor 3 makes the energy exactly invariant under
    continuous axis-1 translations of trigonometric fields, so the base
    solution carries a genuine one-dimensional Hessian kernel spanned by
    its axis-1 derivative.
    """
    domain = TorusDomain(2, cells, samples_per_cell)
    V = PeriodicPotential(
        amplitude=AMPLITUDE,
        shift=degenerate_shift(cells, samples_per_cell),
        axes=(0,),
    )
    return domain, V, Nonlinearity(dealias=True, dealias_factor=3.0)
