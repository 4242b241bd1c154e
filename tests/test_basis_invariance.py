"""The reduction, the gluing and the random draws do not depend on the eigenbasis.

Inside a degenerate eigenspace of -Lap + V (a Bloch pair) the eigenfields
are one orthonormal choice of many. Each case rebuilds the decomposition
with every Bloch pair turned by a seeded random orthogonal 2 x 2 matrix,
and requires the kernel split, the complement correction, the
reduced Hessian, the Hessian census, a two-bump glue, a lattice
translation, the sphere level and the linking bound to agree with the
original basis to rounding. The base solution is found once, in the
original basis: a record is a field, not coordinates. diagonalize itself
returns one basis whatever phase the eigensolver gives each fiber
eigenvector.
"""

import dataclasses

import numpy as np
import pytest

from gapbumps import operator, presets
from gapbumps.functional import hessian_model
from gapbumps.multibump import build_problem, solve_multibump
from gapbumps.operator import SpectralDecomposition, diagonalize, project_positive
from gapbumps.reduction import classify_origin, detect_kernel, kernel_combination, solve_w
from gapbumps.solver import (
    find_critical_point,
    hessian_census,
    initial_ansatz,
    linking_upper_bound,
    orbit_distance,
    sphere_level,
)
from gapbumps.torus import TorusDomain, translate

RTOL, ATOL = 1e-10, 1e-12


def _rotated(S: SpectralDecomposition, seed: int) -> SpectralDecomposition:
    """S with each Bloch pair (the real and imaginary eigenfield of one band
    of a fiber {j, -j}, equal eigenvalues) turned by a seeded random
    orthogonal 2 x 2 matrix Q. The pair is c [Re psi, Im psi], c the
    frame; with Q = R(phi) diag(1, t), the turned pair is
    c [Re psi', Im psi'] diag(1, t) for psi' = psi e^{-i phi}: a phase on
    the fiber eigenvector and a sign on the frame."""
    rng = np.random.default_rng(seed)
    vectors, frame = np.array(S.fiber_vectors), np.array(S.frame)
    turned = 0
    for f, b in zip(*np.nonzero(S.columns[..., 1] < S.num_modes)):
        im = S.columns[f, b, 1]
        Q = np.linalg.qr(rng.standard_normal((2, 2)))[0]
        vectors[f, :, b] *= np.exp(-1j * np.arctan2(Q[1, 0], Q[0, 0]))
        frame[im] *= np.sign(np.linalg.det(Q))
        turned += 1
    assert turned > S.num_modes // 4  # most eigenvalues are Bloch pairs
    return dataclasses.replace(S, fiber_vectors=vectors, frame=frame)


def _close(a, b):
    np.testing.assert_allclose(a, b, rtol=RTOL, atol=ATOL)


@pytest.fixture(scope="module", params=[16, 64], ids=["k16", "k64"])
def bases(request, potential, nl):
    """(base record, S, S rotated) at k cells, M = 16. Every row of the
    Hessian is active at k = 16 (r = N) and few of them at k = 64."""
    k = request.param
    S = diagonalize(potential, TorusDomain(1, k, 16))
    A = presets.BASE_ANSATZ
    base = find_critical_point(
        initial_ansatz(A["center"], A["width"], A["amplitude"], S.domain, S), S, nl
    )
    return base, S, _rotated(S, seed=k)


@pytest.fixture(scope="module")
def kernels(bases, nl):
    base, S, R = bases
    return (
        detect_kernel(base, S, nl, tau=presets.TAU_FORCED),
        detect_kernel(base, R, nl, tau=presets.TAU_FORCED),
    )


class TestBasisRotation:
    def test_kernel_split(self, bases, kernels, nl):
        _, S, _ = bases
        kb, kr = kernels
        assert hessian_model(S, nl, kb.base_a).backend == "low-rank"
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
        base, S, R = bases
        assert hessian_census(R, nl, R.a_from_field(base.field)) == hessian_census(
            S, nl, S.a_from_field(base.field)
        )

    def test_two_bump_glue(self, bases, kernels, nl):
        _, S, R = bases
        kb, kr = kernels
        centers = [(0,), (9,)]
        s = solve_multibump(build_problem(kb, centers, S), S, nl)
        r = solve_multibump(build_problem(kr, centers, R), R, nl)
        assert s.phase2_iters >= 1  # the reduced Hessian is part of the path
        _close(r.field.values, s.field.values)
        _close(r.correction_norm, s.correction_norm)
        _close(r.reduced_coords_norm, s.reduced_coords_norm)

    def test_translation(self, bases):
        # a reflected pair (negative frame) turns the other way in coordinates
        base, S, R = bases
        moved = translate(base.field, (-3,))
        _close(R.field_from_a(R.translate(R.a_from_field(base.field), (3,))).values, moved.values)
        assert orbit_distance(base.field, moved, R)[1] == orbit_distance(base.field, moved, S)[1] == (3,)

    def test_sphere_level(self, bases, nl):
        _, S, R = bases
        levels = [sphere_level(T, nl, presets.R_STAR, samples=4, rng=np.random.default_rng(0)) for T in (R, S)]
        _close(*levels)

    def test_linking_upper_bound(self, bases, nl):
        base, S, R = bases
        bounds = []
        for T in (R, S):
            za = T.a_from_field(project_positive(base.field, T))
            z = T.field_from_a(za / np.linalg.norm(za))
            bounds.append(linking_upper_bound(T, nl, z, 2.0 * base.norm_k, samples=4, rng=np.random.default_rng(0)))
        _close(*bounds)


@pytest.mark.parametrize("case", ["1d_k16", "2d_fixture"])
def test_diagonalize_ignores_the_eigensolver_phase(monkeypatch, potential, case):
    """Each fiber eigenvector times a random unit phase (+-1 on a real fiber)
    as the eigensolver returns it: the same fibers, frames and eigenfields."""
    if case == "2d_fixture":
        domain, V, _ = presets.degenerate_problem()
    else:
        domain, V = TorusDomain(1, 16, 16), potential
    S = diagonalize(V, domain)
    rng = np.random.default_rng(7)
    eigh = operator.eigh

    def rephased(A, **kwargs):
        vals, U = eigh(A, **kwargs)
        if np.isrealobj(U):
            return vals, U * rng.choice([-1.0, 1.0], U.shape[1])
        return vals, U * np.exp(2j * np.pi * rng.uniform(size=U.shape[1]))

    monkeypatch.setattr(operator, "eigh", rephased)
    R = diagonalize(V, domain)
    for got, want in ((R.fiber_vectors, S.fiber_vectors), (R.frame, S.frame), (R.eigenfields, S.eigenfields)):
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
