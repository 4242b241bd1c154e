"""Canonical problem instances and measured fixtures.

Numbers marked "measured" were produced by running this package's own
pipeline at the stated discretization and are frozen for regression; they
are not claims about the continuum limit.
"""

from __future__ import annotations

from functools import lru_cache

from .functional import Nonlinearity
from .operator import PeriodicPotential, midgap_shift
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

# shift of the 2-d fixture (measured): Q_3 at M = 8, the profile acting
# along axis 0 only. Transverse momenta shift whole copies of the axis-0
# spectrum upward, so the continuum gap closes and the usable gap is read
# off the finite torus: the midpoint of the widest gap in (-14, 2) of the
# torus spectrum of the unshifted potential, its Bloch fibers solved for
# eigenvalues only (scipy.linalg.eigh, driver "evd"). operator.diagonalize's
# eigenpair solve puts that midpoint 7.9e-14 higher; tests/test_operator.py
# re-derives it from there.
DEGENERATE_SHIFT = -6.553895865408411

# seed for the two-dimensional degenerate fixture's base
DEGENERATE_ANSATZ = {"center": (0.0, 0.0), "width": 0.4, "amplitude": 6.0}


@lru_cache(maxsize=None)
def default_potential() -> PeriodicPotential:
    """Cosine potential shifted so 0 sits mid-gap (resolved at runtime)."""
    return PeriodicPotential(amplitude=AMPLITUDE, shift=midgap_shift(AMPLITUDE))


def degenerate_problem() -> tuple[TorusDomain, PeriodicPotential, Nonlinearity]:
    """2-d torus, potential constant along axis 1, alias-free quartics.

    The nonlinearity's dealias_factor 3 evaluates the quartic energy
    exactly, which makes it invariant under continuous axis-1 translations
    of trigonometric fields, so the base solution carries a genuine
    one-dimensional Hessian kernel spanned by its axis-1 derivative.
    """
    V = PeriodicPotential(amplitude=AMPLITUDE, shift=DEGENERATE_SHIFT, axes=(0,))
    return TorusDomain(2, 3, 8), V, Nonlinearity(dealias_factor=3.0)
