"""The reduction and the gluing do not depend on the eigenbasis.

Inside a degenerate eigenspace of -Lap + V (a Bloch pair) the eigenfields
are one orthonormal choice of many. Each case rebuilds the decomposition
with every such group of eigenfields turned by a seeded random orthogonal
matrix, and requires the kernel split, the complement correction, the
reduced Hessian, the Hessian census and a two-bump glue to agree with the
original basis to rounding. The base solution is found once, in the
original basis: a record is a field, not coordinates.
"""

import numpy as np
import pytest

from gapbumps import presets
from gapbumps.functional import hessian_model
from gapbumps.multibump import build_problem, solve_multibump
from gapbumps.operator import SpectralDecomposition, diagonalize
from gapbumps.reduction import classify_origin, detect_kernel, kernel_combination, solve_w
from gapbumps.solver import find_critical_point, hessian_census, initial_ansatz
from gapbumps.torus import TorusDomain

RTOL, ATOL = 1e-10, 1e-12


def _rotated(S: SpectralDecomposition, seed: int) -> SpectralDecomposition:
    """S with the eigenfields of each group of equal eigenvalues
    (|d lambda| <= 1e-10 max(1, |lambda|) between neighbours) turned by a
    seeded random orthogonal matrix."""
    rng = np.random.default_rng(seed)
    lam = S.eigenvalues
    breaks = np.abs(np.diff(lam)) > 1e-10 * np.maximum(1.0, np.abs(lam[1:]))
    starts = np.concatenate([[0], np.flatnonzero(breaks) + 1, [lam.size]])
    fields = np.array(S.eigenfields, order="F")
    turned = 0
    for lo, hi in zip(starts[:-1], starts[1:]):
        if hi - lo > 1:
            Q = np.linalg.qr(rng.standard_normal((hi - lo, hi - lo)))[0]
            fields[:, lo:hi] = fields[:, lo:hi] @ Q
            turned += 1
    assert turned > lam.size // 4  # most eigenvalues are Bloch pairs
    return SpectralDecomposition(S.domain, S.potential, lam.copy(), fields, S.j, S.gap)


def _close(a, b):
    np.testing.assert_allclose(a, b, rtol=RTOL, atol=ATOL)


@pytest.fixture(scope="module", params=[(16, "dense"), (64, "low-rank")], ids=["k16", "k64"])
def bases(request, potential, nl):
    """(backend, base record, S, S rotated) at k cells, M = 16."""
    k, backend = request.param
    S = diagonalize(potential, TorusDomain(1, k, 16))
    A = presets.BASE_ANSATZ
    base = find_critical_point(
        initial_ansatz(A["center"], A["width"], A["amplitude"], S.domain, S), S, nl
    )
    return backend, base, S, _rotated(S, seed=k)


@pytest.fixture(scope="module")
def kernels(bases, nl):
    _, base, S, R = bases
    return (
        detect_kernel(base, S, nl, tau=presets.TAU_FORCED),
        detect_kernel(base, R, nl, tau=presets.TAU_FORCED),
    )


class TestBasisRotation:
    def test_kernel_split(self, bases, kernels, nl):
        backend, base, S, _ = bases
        kb, kr = kernels
        assert hessian_model(S, nl, kb.base_a).backend == backend
        assert kb.l == kr.l == 1
        _close(kr.eta, kb.eta)
        _close(kr.hessian_scale, kb.hessian_scale)

    def test_complement_correction(self, kernels):
        kb, kr = kernels
        h = kernel_combination(kb, np.array([0.5 * kb.delta0]))
        s, r = solve_w(kb, h), solve_w(kr, h)
        assert s.newton_iters >= 1
        _close(r.I, s.I)
        _close(np.linalg.norm(r.dI), np.linalg.norm(s.dI))
        _close(r.w.values, s.w.values)

    def test_reduced_hessian(self, kernels):
        kb, kr = kernels
        _close(classify_origin(kr).reduced_hessian, classify_origin(kb).reduced_hessian)

    def test_hessian_census(self, bases, nl):
        _, base, S, R = bases
        assert hessian_census(R, nl, R.a_from_field(base.field)) == hessian_census(
            S, nl, S.a_from_field(base.field)
        )

    def test_two_bump_glue(self, bases, kernels, nl):
        _, _, S, R = bases
        kb, kr = kernels
        centers = [(0,), (9,)]
        s = solve_multibump(build_problem(kb, centers, S), S, nl)
        r = solve_multibump(build_problem(kr, centers, R), R, nl)
        assert s.phase2_iters >= 1  # the reduced Hessian is part of the path
        _close(r.field.values, s.field.values)
        _close(r.correction_norm, s.correction_norm)
        _close(r.reduced_coords_norm, s.reduced_coords_norm)
