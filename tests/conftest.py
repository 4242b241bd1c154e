"""Shared fixtures. Everything expensive is session-scoped: the
decompositions, the Newton runs and the kernel splits they feed, which
every module reuses as the same canonical objects."""

import os
import sys

# one BLAS thread unless the environment says otherwise: the suite's
# matrices are small, and threads contend on a shared machine
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest

from gapbumps import functional, presets
from gapbumps.functional import Nonlinearity
from gapbumps.operator import diagonalize
from gapbumps.reduction import detect_kernel
from gapbumps.solver import find_critical_point, initial_ansatz
from gapbumps.torus import TorusDomain


@pytest.fixture(scope="session")
def potential():
    return presets.default_potential()


@pytest.fixture(scope="session")
def nl():
    return Nonlinearity()


@pytest.fixture(scope="session")
def S4(potential):
    return diagonalize(potential, TorusDomain(1, 4, 16))


@pytest.fixture(scope="session")
def S8(potential):
    return diagonalize(potential, TorusDomain(1, 8, 16))


@pytest.fixture(scope="session")
def base8(S8, nl):
    init = initial_ansatz(
        presets.BASE_ANSATZ["center"],
        presets.BASE_ANSATZ["width"],
        presets.BASE_ANSATZ["amplitude"],
        S8.domain,
        S8,
    )
    return find_critical_point(init, S8, nl)


@pytest.fixture(scope="session")
def S32(potential):
    return diagonalize(potential, TorusDomain(1, 32, 16))


@pytest.fixture(scope="session")
def base32(S32, nl):
    A = presets.BASE_ANSATZ
    return find_critical_point(initial_ansatz(A["center"], A["width"], A["amplitude"], S32.domain, S32), S32, nl)


@pytest.fixture(scope="session")
def S64(potential):
    return diagonalize(potential, TorusDomain(1, 64, 16))


@pytest.fixture(scope="session")
def ansatz64(S64):
    A = presets.BASE_ANSATZ
    return initial_ansatz(A["center"], A["width"], A["amplitude"], S64.domain, S64)


@pytest.fixture(scope="session")
def base64(S64, ansatz64, nl):
    return find_critical_point(ansatz64, S64, nl)


@pytest.fixture(scope="session")
def kb8(base8, S8, nl):
    return detect_kernel(base8, S8, nl, tau=presets.TAU_FORCED)


@pytest.fixture(scope="session")
def degenerate():
    """(S, nl, record, kernel basis) of the 2-d translation fixture."""
    domain, V, nl2 = presets.degenerate_problem()
    S2 = diagonalize(V, domain)
    init = initial_ansatz(
        presets.DEGENERATE_ANSATZ["center"],
        presets.DEGENERATE_ANSATZ["width"],
        presets.DEGENERATE_ANSATZ["amplitude"],
        domain,
        S2,
    )
    rec = find_critical_point(init, S2, nl2)
    return S2, nl2, rec, detect_kernel(rec, S2, nl2)


@pytest.fixture()
def evaluations(monkeypatch):
    """The points a_value_and_gradient is called at from now on, through
    every module that binds it (a_gradient calls it too)."""
    points = []
    original = functional.a_value_and_gradient

    def counted(S, nl, a):
        points.append(a)
        return original(S, nl, a)

    for name, module in list(sys.modules.items()):
        if name.startswith("gapbumps") and getattr(module, "a_value_and_gradient", None) is original:
            monkeypatch.setattr(module, "a_value_and_gradient", counted)
    return points


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
