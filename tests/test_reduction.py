import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gapbumps import presets, reduction
from gapbumps.functional import (
    HessianModel, _negative_count, a_gradient, a_hessian, hessian_model,
)
from gapbumps.multibump import build_problem, superposition_compare
from gapbumps.reduction import (
    AllKernel,
    OutOfBall,
    _projected_newton,
    classify_origin,
    detect_kernel,
    joint_kernel_matrix,
    kernel_combination,
    solve_w,
)
from gapbumps.solver import NoConvergence, kernel_split
from gapbumps.torus import GridField, spectral_gradient, translate


class TestDetection:
    def test_forced_threshold_captures_the_soft_direction(self, kb8):
        assert kb8.l == 1
        assert kb8.eta > 0
        assert np.allclose(kb8.E.T @ kb8.E, np.eye(1), atol=1e-12)

    def test_threshold_above_everything_raises(self, base8, S8, nl):
        with pytest.raises(AllKernel):
            detect_kernel(base8, S8, nl, tau=1.1)

    def test_tiny_threshold_gives_empty_kernel(self, base8, S8, nl):
        kb = detect_kernel(base8, S8, nl, tau=1e-12)
        assert kb.l == 0
        with pytest.raises(ValueError):
            classify_origin(kb)

    def test_nonpositive_tau_rejected(self, base8, S8, nl):
        with pytest.raises(ValueError):
            detect_kernel(base8, S8, nl, tau=0.0)

    def test_combination_shape_guard(self, kb8):
        with pytest.raises(ValueError):
            kernel_combination(kb8, np.zeros(3))


class TestCorrection:
    def test_zero_offset_needs_no_correction(self, kb8):
        s = solve_w(kb8, GridField.zeros(kb8.S.domain))
        assert s.w_norm <= 1e-9
        assert np.abs(s.dI).max() <= 1e-9
        assert s.I == pytest.approx(kb8.base.energy, rel=1e-12)

    def test_correction_is_second_order_in_the_offset(self, kb8):
        # the kernel directions are exact Hessian eigenvectors, so the
        # correction w(h) vanishes quadratically, not linearly
        ts = np.array([0.05, 0.1, 0.2])
        ws = []
        for t in ts:
            s = solve_w(kb8, kernel_combination(kb8, np.array([t * kb8.delta0])))
            ws.append(s.w_norm)
        slope = np.polyfit(np.log(ts), np.log(ws), 1)[0]
        assert slope >= 1.9

    def test_reduced_gradient_matches_fd(self, kb8):
        x = 0.3 * kb8.delta0
        eps = 1e-5
        s = solve_w(kb8, kernel_combination(kb8, np.array([x])))
        Ip = solve_w(kb8, kernel_combination(kb8, np.array([x + eps]))).I
        Im = solve_w(kb8, kernel_combination(kb8, np.array([x - eps]))).I
        assert (Ip - Im) / (2 * eps) == pytest.approx(float(s.dI[0]), abs=1e-6)

    def test_correction_stays_orthogonal(self, kb8):
        s = solve_w(kb8, kernel_combination(kb8, np.array([0.4 * kb8.delta0])))
        overlap = kb8.E.T @ kb8.S.a_from_field(s.w)
        assert np.abs(overlap).max() <= 1e-10

    def test_degenerating_complement_block_aborts(self, kb8):
        # a ceiling of 2 eta / 10 lies under the complement's 1/min|eig|
        kb = dataclasses.replace(kb8, eta=kb8.eta / 10)
        with pytest.raises(NoConvergence, match="complement block degenerating"):
            solve_w(kb, kernel_combination(kb8, np.array([0.4 * kb8.delta0])))

    def test_offset_outside_the_ball_rejected(self, kb8):
        with pytest.raises(OutOfBall):
            solve_w(kb8, kernel_combination(kb8, np.array([1.5 * kb8.delta0])))

    def test_offset_outside_the_block_rejected(self, kb8):
        with pytest.raises(ValueError):
            solve_w(kb8, kb8.base.field)

    def test_basis_rotation_reparametrizes_the_reduced_energy(self, kb8):
        # flipping the basis vector flips the coordinate, nothing else
        flipped = dataclasses.replace(kb8, E=-kb8.E)
        x = 0.35 * kb8.delta0
        s_plus = solve_w(kb8, kernel_combination(kb8, np.array([x])))
        s_flip = solve_w(flipped, kernel_combination(flipped, np.array([-x])))
        assert s_flip.I == pytest.approx(s_plus.I, rel=1e-10)
        assert float(s_flip.dI[0]) == pytest.approx(-float(s_plus.dI[0]), abs=1e-9)


@pytest.fixture(scope="module")
def kb2dir(base8, S8, nl):
    # tau between the second and third relative |mu| gaps picks up two
    # near-kernel directions
    kb = detect_kernel(base8, S8, nl, tau=0.16)
    assert kb.l == 2
    return kb


class TestTwoDirectionBlock:
    def test_rotation_invariance(self, kb2dir):
        theta = 0.3
        Q = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        rotated = dataclasses.replace(kb2dir, E=kb2dir.E @ Q)
        x = np.array([0.2, -0.1]) * kb2dir.delta0
        s_orig = solve_w(kb2dir, kernel_combination(kb2dir, x))
        s_rot = solve_w(rotated, kernel_combination(rotated, Q.T @ x))
        assert s_rot.I == pytest.approx(s_orig.I, rel=1e-9)
        assert np.allclose(s_rot.dI, Q.T @ s_orig.dI, atol=1e-8)

    def test_reduced_hessian_matches_second_differences(self, kb2dir):
        # central second differences of the reduced energy at an
        # off-origin point are the reference for the Schur complement;
        # I is about 107, so rounding over step^2 rules out smaller steps
        x0 = np.array([0.2, -0.1]) * kb2dir.delta0
        step = 1e-2 * kb2dir.delta0

        def I(x):
            return solve_w(kb2dir, kernel_combination(kb2dir, x)).I

        fd = np.zeros((2, 2))
        e = np.eye(2) * step
        for i in range(2):
            fd[i, i] = (I(x0 + e[i]) - 2.0 * I(x0) + I(x0 - e[i])) / step**2
        fd[0, 1] = fd[1, 0] = (
            I(x0 + e[0] + e[1])
            + I(x0 - e[0] - e[1])
            - I(x0 + e[0] - e[1])
            - I(x0 - e[0] + e[1])
        ) / (4.0 * step**2)
        s = solve_w(kb2dir, kernel_combination(kb2dir, x0))
        a = kb2dir.base_a + kb2dir.E @ x0 + kb2dir.S.a_from_field(s.w)
        H = hessian_model(kb2dir.S, kb2dir.nl, a, kb2dir.E).reduced_hessian()
        assert np.abs(H - fd).max() <= 1e-5 * np.abs(fd).max()

    def test_classification_matches_the_hessian_signs(self, kb2dir):
        # directions with |mu| = 0.33 (positive) and -0.39 (negative)
        cls = classify_origin(kb2dir)
        assert cls.morse_index == 1
        assert not cls.degenerate_flag


def _oracle_complement(H, E, push):
    """PHP + push E E^T with P = 1 - E E^T: the complement block with the
    kernel block lifted to `push`, as a dense N x N matrix."""
    HE = H @ E
    M = H - HE @ E.T - E @ HE.T + E @ (E.T @ HE) @ E.T + push * (E @ E.T)
    return 0.5 * (M + M.T)


@pytest.fixture(scope="module", params=["kb2dir", "two_bumps_k8"])
def block(request, kb2dir, kb8, S8):
    """(S, nl, a, X) with X the block's columns: kb2dir's orthonormal
    E, or the joint block of two bumps at k = 8, which is not."""
    if request.param == "kb2dir":
        return kb2dir.S, kb2dir.nl, kb2dir.base_a, kb2dir.E
    prob = build_problem(kb8, [(0,), (4,)], S8)
    assert prob.gram_offdiag > 1e-6
    return S8, kb8.nl, prob.glued_a, prob.joint_raw


def _first_step(S, nl, a, X, eta, monkeypatch):
    """The first Newton step of _projected_newton from w = 0, ceiling 2 eta."""
    calls = []

    def gradient_once(S, nl, a):
        # the second residual test reads zero, so one step is returned
        calls.append(a)
        g = a_gradient(S, nl, a)
        return g if len(calls) == 1 else 0.0 * g

    monkeypatch.setattr(reduction, "a_gradient", gradient_once)
    w, iters = _projected_newton(S, nl, a, X, eta)
    assert iters == 1
    return w


class TestFrame:
    """The kernel block X and its complement, reached through the bordered
    matrix [[K, B], [B^T, 0]], B = U^T X, against the lifted dense oracle."""

    def test_complement_eigenvalues_match_the_lifted_oracle(self, block):
        # the bordered inertia counts the complement block's eigenvalues in
        # (-s, s) as the oracle's spectrum without the push does, and the
        # monitor trips exactly when the ceiling falls under 1/min|eig|
        S, nl, a, X = block
        H = a_hessian(S, nl, a)
        l = X.shape[1]
        push = 10.0 * float(np.abs(np.linalg.eigvalsh(H)).max())
        oracle = np.linalg.eigvalsh(_oracle_complement(H, np.linalg.qr(X)[0], push))
        assert np.allclose(oracle[-l:], push, rtol=1e-10)
        mags = np.sort(np.abs(oracle[:-l]))
        model = hessian_model(S, nl, a, X)
        A, m = model.bordered, model.subspace_dim
        gaps = np.flatnonzero(mags[1:] > (1.0 + 1e-6) * mags[:-1])
        for s in np.sqrt(mags[gaps] * mags[gaps + 1])[:: max(1, gaps.size // 10)]:
            counted = _negative_count(A, -s, m) - _negative_count(A, s, m)
            off_u = model.off_signs.size if s > 1.0 else 0  # the +-1 outside K
            assert counted == np.count_nonzero(mags < s) - off_u
        eta = 1.0 / mags[0]
        assert model.complement_degenerates(eta * (1.0 - 1e-6))
        assert not model.complement_degenerates(eta * (1.0 + 1e-6))

    def test_unit_eigenvalues_off_u_trip_a_ceiling_below_one(self):
        # H = I - G^T G on R^4: U = span(e1, e2), +1 on e0 and e3 off it;
        # inside U the complement of X = e2 holds only 1 - 9 = -8
        model = HessianModel(np.ones(4), 0, np.eye(4)[:, [2]], G=np.array([[0.0, 3.0, 0.0, 0.0]]))
        assert model.off_signs.size == 2 and np.allclose(np.sort(np.diag(model.K)), [-8.0, 1.0])
        assert model.complement_degenerates(0.5)  # 1/min|eig| = 1 > 0.5
        assert not model.complement_degenerates(1.5)

    def test_reduced_hessian_matches_the_lifted_oracle(self, block):
        S, nl, a, X = block
        H = a_hessian(S, nl, a)
        E = np.linalg.qr(X)[0]
        HX = H @ X
        B = HX - E @ (E.T @ HX)
        M = _oracle_complement(H, E, float(np.abs(np.linalg.eigvalsh(H)).max()))
        oracle = X.T @ HX - B.T @ np.linalg.solve(M, B)
        got = hessian_model(S, nl, a, X).reduced_hessian()
        assert np.abs(got - oracle).max() <= 1e-10 * np.abs(oracle).max()

    def test_newton_step_matches_the_lifted_oracle(self, block, monkeypatch):
        S, nl, a, X = block
        a = a + 0.05 * X[:, 0] / np.linalg.norm(X[:, 0])  # off the base's zero residual
        H = a_hessian(S, nl, a)
        E = np.linalg.qr(X)[0]
        g = a_gradient(S, nl, a)
        M = _oracle_complement(H, E, float(np.abs(np.linalg.eigvalsh(H)).max()))
        oracle = -np.linalg.solve(M, g - E @ (E.T @ g))
        got = _first_step(S, nl, a, X, 5e5, monkeypatch)
        assert np.linalg.norm(got - oracle) <= 1e-10 * np.linalg.norm(oracle)
        assert np.abs(X.T @ got).max() <= 1e-12 * np.linalg.norm(got) * np.abs(X).max()


def _symmetric(entries, n, zeros):
    """The symmetric n x n matrix of `entries` (its lower triangle, by
    rows), with its first `zeros` diagonal entries set to zero."""
    A = np.zeros((n, n))
    A[np.tril_indices(n)] = entries
    A = A + np.tril(A, -1).T
    A[np.arange(zeros), np.arange(zeros)] = 0.0
    return A


class TestNegativeCount:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 9))
    def test_matches_the_eigenvalue_signs(self, data, n):
        entries = data.draw(st.lists(
            st.floats(-10.0, 10.0, allow_nan=False), min_size=n * (n + 1) // 2,
            max_size=n * (n + 1) // 2,
        ), label="entries")
        A = _symmetric(entries, n, data.draw(st.integers(0, n), label="zeros"))
        eigs = np.linalg.eigvalsh(A)
        # a zero eigenvalue's sign is rounding; the count is exact elsewhere
        assume(np.abs(eigs).min() > 1e-8 * max(1.0, np.abs(eigs).max()))
        assert _negative_count(A, 0.0, 0) == int((eigs < 0).sum())

    def test_two_by_two_pivots_count_one_negative_each(self):
        # a zero diagonal forces Bunch-Kaufman onto a 2 x 2 pivot
        A = _symmetric([0.0, 3.0, 0.0, 1.0, 2.0, -5.0], 3, 2)
        _, ipiv, _ = scipy.linalg.lapack.dsytrf(A, lower=1)
        assert (ipiv < 0).sum() == 2
        assert _negative_count(A, 0.0, 0) == int((np.linalg.eigvalsh(A) < 0).sum()) == 2


class TestClassification:
    def test_base_origin_is_a_nondegenerate_minimum(self, kb8):
        cls = classify_origin(kb8)
        assert cls.morse_index == 0
        assert not cls.degenerate_flag
        # the reduced second derivative reproduces the Hessian eigenvalue
        mu = 0.3305859
        assert cls.reduced_hessian[0, 0] == pytest.approx(mu, rel=1e-3)


class TestDegenerateFixture:
    def test_kernel_is_the_translation_derivative(self, degenerate):
        S2, _, rec, kb = degenerate
        assert kb.l == 1
        da = S2.a_from_field(spectral_gradient(rec.field)[1])
        da /= np.linalg.norm(da)
        assert abs(float(da @ kb.E[:, 0])) == pytest.approx(1.0, abs=1e-6)

    def test_origin_is_flagged_degenerate(self, degenerate):
        _, _, _, kb = degenerate
        cls = classify_origin(kb)
        assert cls.degenerate_flag

    def test_reduced_energy_is_flat_along_the_orbit(self, degenerate):
        _, _, rec, kb = degenerate
        for x in (0.25, 0.5):
            s = solve_w(kb, kernel_combination(kb, np.array([x * kb.delta0])))
            assert s.I == pytest.approx(rec.energy, abs=1e-9)
            assert abs(float(s.dI[0])) < 1e-8


class TestSuperposition:
    def test_joint_block_stays_near_orthonormal(self, kb8, S8):
        raw = joint_kernel_matrix(kb8, [(0,), (4,)], S8)
        assert raw.shape == (S8.num_modes, 2)
        gram = raw.T @ raw
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() < 0.1

    def test_gaps_shrink_with_separation(self, kb8, S8):
        pts = [np.zeros(2), np.array([0.02, -0.02])]
        cache: dict = {}
        c0_near, c1_near, rows = superposition_compare(
            kb8, [(0,), (3,)], pts, base_cache=cache
        )
        c0_far, c1_far, _ = superposition_compare(
            kb8, [(0,), (4,)], pts, base_cache=cache
        )
        assert len(rows) == len(pts)
        assert set(rows[0]) >= {"value_gap", "gradient_gap"}
        assert c0_far < c0_near
        assert c1_far < c1_near


# -- dense N x N formulas, the oracles of the model-based reduction ----------------


def _dense_kernel(rec, S, nl, tau):
    """(E, eta, scale) of the kernel split from eigh of the dense Hessian."""
    mu, vecs = scipy.linalg.eigh(a_hessian(S, nl, S.a_from_field(rec.field)))
    near, scale = kernel_split(mu, tau)
    return vecs[:, near], 1.0 / float(np.abs(mu[~near]).min()), scale


def _dense_reduced_hessian(S, nl, a, X):
    """The Schur complement of Q^T H Q in X's frame X = Q1 R, Q = [Q1 Q2],
    H the dense Hessian."""
    Q, R = np.linalg.qr(X, mode="complete")
    l = X.shape[1]
    R = R[:l]
    T = Q.T @ a_hessian(S, nl, a) @ Q
    schur = T[:l, :l] - T[:l, l:] @ np.linalg.solve(T[l:, l:], T[l:, :l])
    return R.T @ schur @ R


def _dense_complement_step(S, nl, a, X):
    """One Newton step from a orthogonal to X, with the dense complement block."""
    Q2 = np.linalg.qr(X, mode="complete")[0][:, X.shape[1] :]
    C = Q2.T @ a_hessian(S, nl, a) @ Q2
    return Q2 @ np.linalg.solve(C, -Q2.T @ a_gradient(S, nl, a))


def _sin_largest_angle(A, B):
    """sin of the largest principal angle between the spans of orthonormal A and B."""
    return float(np.linalg.norm(B - A @ (A.T @ B), 2))


@pytest.fixture(scope="module")
def kb64(base64, S64, nl):
    return detect_kernel(base64, S64, nl, tau=presets.TAU_FORCED)


class TestCompressedModel:
    """At 1-d k = 64 the Hessian model's subspace U is compressed
    (m <= N/2); every reduction step is checked against the dense matrix."""

    def test_kernel_split_matches_dense_eigh(self, kb64, base64, S64, nl):
        assert hessian_model(S64, nl, kb64.base_a).backend == "low-rank"
        E, eta, scale = _dense_kernel(base64, S64, nl, presets.TAU_FORCED)
        assert kb64.l == E.shape[1] == 1
        assert kb64.eta == pytest.approx(eta, rel=1e-12)
        assert kb64.hessian_scale == pytest.approx(scale, rel=1e-12)
        assert _sin_largest_angle(E, kb64.E) <= 1e-12

    def test_unit_bulk_joins_the_block(self, base64, S64, nl):
        # tau * scale = 0.5 * 2.8 > 1 puts the +-1 eigenvalues off span U
        # under the threshold: the block takes the complement of U whole
        kb = detect_kernel(base64, S64, nl, tau=0.5)
        E, eta, scale = _dense_kernel(base64, S64, nl, 0.5)
        assert kb.l == E.shape[1] > S64.num_modes // 2
        assert kb.eta == pytest.approx(eta, rel=1e-12)
        assert kb.hessian_scale == pytest.approx(scale, rel=1e-12)
        assert np.abs(kb.E.T @ kb.E - np.eye(kb.l)).max() <= 1e-12
        assert _sin_largest_angle(E, kb.E) <= 1e-10

    def test_reduced_hessian_matches_the_dense_schur_complement(self, kb64):
        # a non-orthonormal two-column block at a point off the base
        S, nl = kb64.S, kb64.nl
        shifted = S.a_from_field(translate(kb64.S.field_from_a(kb64.E[:, 0]), (1,)))
        X = np.column_stack([kb64.E[:, 0], shifted])
        a = kb64.base_a + 0.3 * kb64.delta0 * kb64.E[:, 0]
        assert hessian_model(S, nl, a, X).backend == "low-rank"
        oracle = _dense_reduced_hessian(S, nl, a, X)
        got = hessian_model(S, nl, a, X).reduced_hessian()
        assert np.abs(got - oracle).max() <= 1e-10 * np.abs(oracle).max()

    def test_projected_newton_step_matches_the_dense_solve(self, kb64, monkeypatch):
        S, nl, X = kb64.S, kb64.nl, kb64.E
        a = kb64.base_a + 0.3 * kb64.delta0 * X[:, 0]
        assert hessian_model(S, nl, a, X).backend == "low-rank"
        w = _first_step(S, nl, a, X, kb64.eta, monkeypatch)
        oracle = _dense_complement_step(S, nl, a, X)
        assert np.linalg.norm(w - oracle) <= 1e-12 * np.linalg.norm(oracle)

    def test_no_matrix_beyond_half_the_modes(self, base64, S64, nl, monkeypatch):
        orders = {}

        def recording(owner, name):
            fn = getattr(owner, name)

            def wrapped(A, *args, **kwargs):
                orders.setdefault(name, []).append(A.shape[0])
                return fn(A, *args, **kwargs)

            monkeypatch.setattr(owner, name, wrapped)

        for name in ("eigh", "eigvalsh", "solve"):
            recording(reduction.scipy.linalg, name)
        recording(reduction.scipy.linalg.lapack, "dsytrf")  # the LDL^T of the eta monitor
        kb = detect_kernel(base64, S64, nl, tau=presets.TAU_FORCED)
        classify_origin(kb)
        s = solve_w(kb, kernel_combination(kb, np.array([0.3 * kb.delta0])))
        assert s.newton_iters >= 1
        assert {"eigh", "solve", "dsytrf"} <= orders.keys()
        # a bordered matrix adds the block's l columns to the model's m <= N/2
        assert max(max(o) for o in orders.values()) <= S64.num_modes // 2 + kb.l
