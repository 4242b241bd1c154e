"""The reduction and the gluing do not depend on the eigenbasis.

Inside a degenerate eigenspace of -Lap + V (a Bloch pair) the eigenfields
are one orthonormal choice of many. Each case rebuilds the decomposition
with every Bloch pair turned by a seeded random orthogonal 2 x 2 matrix,
and requires the kernel split, the complement correction, the
reduced Hessian, the Hessian census and a two-bump glue to agree with the
original basis to rounding. The base solution is found once, in the
original basis: a record is a field, not coordinates.
"""

import dataclasses

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
    """S with each Bloch pair (the real and imaginary eigenfield of one band
    of a fiber {j, -j}, equal eigenvalues) turned by a seeded random
    orthogonal 2 x 2 matrix Q. The pair is c [Re psi, Im psi] diag(s), c
    the frame's magnitude; with diag(s) Q = R(phi) diag(1, t), the turned
    pair is c [Re psi', Im psi'] diag(1, t) for psi' = psi e^{-i phi}: a
    phase on the fiber eigenvector and a sign on the frame."""
    rng = np.random.default_rng(seed)
    vectors, frame = np.array(S.fiber_vectors), np.array(S.frame)
    turned = 0
    for f, b in zip(*np.nonzero(S.columns[..., 1] < S.num_modes)):
        re, im = S.columns[f, b]
        Q = np.linalg.qr(rng.standard_normal((2, 2)))[0]
        Q = np.sign(frame[[re, im]])[:, None] * Q
        t = np.sign(np.linalg.det(Q))
        vectors[f, :, b] *= np.exp(-1j * np.arctan2(Q[1, 0], Q[0, 0]))
        frame[im] = t * np.abs(frame[re])
        frame[re] = np.abs(frame[re])
        turned += 1
    assert turned > S.num_modes // 4  # most eigenvalues are Bloch pairs
    return dataclasses.replace(S, fiber_vectors=vectors, frame=frame)


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
