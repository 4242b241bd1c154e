import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gapbumps import presets, reduction
from gapbumps.functional import (
    HessianModel, Nonlinearity, _negative_count, a_gradient, a_hessian, a_value_and_gradient,
    hessian_model,
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
from gapbumps.operator import diagonalize
from gapbumps.solver import NoConvergence, find_critical_point, initial_ansatz, kernel_split
from gapbumps.torus import GridField, TorusDomain, spectral_gradient, translate


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

    def test_kernel_signs_come_from_the_fields(self, base8, S8, nl, kb2dir, monkeypatch):
        eigh = scipy.linalg.eigh

        def negated(*args, **kwargs):
            vals, vecs = eigh(*args, **kwargs)
            return vals, -vecs

        monkeypatch.setattr(scipy.linalg, "eigh", negated)
        np.testing.assert_array_equal(detect_kernel(base8, S8, nl, tau=0.16).E, kb2dir.E)

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

    def test_each_corrector_point_is_evaluated_once(self, kb8, evaluations):
        s = solve_w(kb8, kernel_combination(kb8, np.array([0.3 * kb8.delta0])))
        assert s.newton_iters >= 1
        assert len(evaluations) == s.newton_iters + 1

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
        J, g = a_value_and_gradient(S, nl, a)
        return J, (g if len(calls) == 1 else 0.0 * g)

    monkeypatch.setattr(reduction, "a_value_and_gradient", gradient_once)
    w, iters, _, _ = _projected_newton(S, nl, a, X, eta)
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
        gaps = np.flatnonzero(mags[1:] > (1.0 + 1e-6) * mags[:-1])
        for s in np.sqrt(mags[gaps] * mags[gaps + 1])[:: max(1, gaps.size // 10)]:
            counted = model.negative_count(s) - model.negative_count(-s)
            assert counted == np.count_nonzero(mags < s)
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


def _explicit_case(r, n=60, j=20, seed=7):
    """(model for a block, dense H, gradient) of H = D - G^T G on R^n with r
    random rows, scaled so that H stays well conditioned; r = n makes the
    spectrum generic, with no eigenvalue at exactly +-1."""
    rng = np.random.default_rng(seed)
    signs = np.repeat([-1.0, 1.0], [j, n - j])
    G = 0.5 * rng.standard_normal((r, n)) / np.sqrt(n)
    H = np.diag(signs) - G.T @ G
    return (lambda X: HessianModel(signs, j, X, G=G)), H, rng.standard_normal(n)


@pytest.fixture(scope="module")
def kb32(potential, nl):
    S = diagonalize(potential, TorusDomain(1, 32, 16))
    A = presets.BASE_ANSATZ
    base = find_critical_point(initial_ansatz(A["center"], A["width"], A["amplitude"], S.domain, S), S, nl)
    return detect_kernel(base, S, nl, tau=presets.TAU_FORCED)


@pytest.fixture(scope="module", params=["k8", "k32", "fine", "explicit", "no_rows", "all_rows"])
def capacitance_case(request, kb8, kb32, nl):
    """(model for a block X, dense H, gradient, a block X): the glued
    copies of k = 8 (every row active, r = N) and of k = 32 at "0;6;12",
    one bump on the factor-1.5 grid at k = 32 (r = 423 of the 768 fine
    points, N = 512), and H = D - G^T G with r = 25, 0 and N explicit rows."""
    name = request.param
    if name in ("explicit", "no_rows", "all_rows"):
        model, H, g = _explicit_case({"explicit": 25, "no_rows": 0, "all_rows": 60}[name])
        return model, H, g, np.random.default_rng(3).standard_normal((H.shape[0], 2))
    if name == "fine":
        S, fine = kb32.S, Nonlinearity(dealias_factor=1.5)
        A = presets.BASE_ANSATZ
        init = initial_ansatz(A["center"], A["width"], A["amplitude"], S.domain, S)
        a = S.a_from_field(find_critical_point(init, S, fine).field)
        X = np.column_stack([a, S.translate(a, (1,))]) / np.linalg.norm(a)
        nl = fine
    else:
        kb, centers = (kb8, [(0,), (4,)]) if name == "k8" else (kb32, [(0,), (6,), (12,)])
        S = kb.S
        prob = build_problem(kb, centers, S)
        X = prob.joint_raw
        a = prob.glued_a + 0.05 * X[:, 0]
    model = hessian_model(S, nl, a, X)
    assert model.G is not None and model.G.size <= S.num_modes
    return (lambda X: hessian_model(S, nl, a, X)), a_hessian(S, nl, a), a_gradient(S, nl, a), X


def _bordered_oracle(H, X):
    l = X.shape[1]
    return np.block([[H, X], [X.T, np.zeros((l, l))]])


def _complement_spectrum(H, X):
    """The eigenvalues of H on the orthogonal complement of span X."""
    Q2 = np.linalg.qr(X, mode="complete")[0][:, X.shape[1] :]
    return np.linalg.eigvalsh(Q2.T @ H @ Q2)


class TestCapacitance:
    """The projected step, the reduced Hessian and the inertia counts
    through the (r+l) capacitance, against the dense bordered matrix
    [[H, X], [X^T, 0]] and the dense complement block."""

    @pytest.mark.parametrize("l", ["block", 0])
    def test_projected_step(self, capacitance_case, l):
        model, H, g, X = capacitance_case
        X = X if l == "block" else X[:, :0]
        n = H.shape[0]
        oracle = np.linalg.solve(_bordered_oracle(H, X), np.concatenate([-g, np.zeros(X.shape[1])]))[:n]
        got = model(X).projected_step(np.zeros(n), g)
        assert np.linalg.norm(got - oracle) <= 1e-12 * np.linalg.norm(oracle)

    @pytest.mark.parametrize("l", ["block", 0])
    def test_reduced_hessian(self, capacitance_case, l):
        model, H, _, X = capacitance_case
        X = X if l == "block" else X[:, :0]
        n, l = X.shape
        HX = H @ X
        Y = np.linalg.solve(_bordered_oracle(H, X), np.vstack([-HX, np.zeros((l, l))]))[:n]
        oracle = HX.T @ (X + Y)
        got = model(X).reduced_hessian()
        assert got.shape == (l, l)
        if l:
            assert np.abs(got - 0.5 * (oracle + oracle.T)).max() <= 1e-10 * np.abs(oracle).max()

    @pytest.mark.parametrize("l", ["block", 0])
    def test_counts_bracket_the_complement_eigenvalues(self, capacitance_case, l):
        # shifts just below and just above the smallest |mu|, the lowest
        # and the highest complement eigenvalue (with its cluster of equal
        # ones): the count steps by the cluster's size, l + #{mu < sigma} each
        model, H, _, X = capacitance_case
        X = X if l == "block" else X[:, :0]
        model = model(X)
        mu = _complement_spectrum(H, X)
        tol = 1e-8 * np.abs(mu).max()
        for target in (mu[np.argmin(np.abs(mu))], mu[0], mu[-1]):
            others = np.abs(mu - target)
            gap = others[others > tol].min(initial=1.0)
            for sigma in (target - 0.5 * gap, target + 0.5 * gap):
                assert model.negative_count(sigma) == X.shape[1] + np.count_nonzero(mu < sigma)
        eta = 1.0 / np.abs(mu).min()
        assert model.complement_degenerates(eta * (1.0 - 1e-6))
        assert not model.complement_degenerates(eta * (1.0 + 1e-6))

    @pytest.mark.parametrize("l", [2, 0])
    def test_unit_shifts_count_on_the_bordered_matrix(self, l):
        # at sigma = +-1, D - sigma I is singular: with every row active
        # the spectrum has no eigenvalue at exactly +-1, and the count is
        # exact there as at its neighbours
        model, H, _ = _explicit_case(60)
        X = np.random.default_rng(3).standard_normal((60, l))
        mu = _complement_spectrum(H, X)
        assert np.abs(np.abs(mu) - 1.0).min() > 1e-3
        m = model(X)
        for sigma in (-1.0, 1.0, -1.0 - 1e-3, 1.0 + 1e-3, -1.0 + 1e-3, 1.0 - 1e-3):
            assert m.negative_count(sigma) == l + np.count_nonzero(mu < sigma)
        assert m.complement_degenerates(1.0) == (np.abs(mu).min() < 1.0)


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
        assert _negative_count(A) == int((eigs < 0).sum())

    def test_two_by_two_pivots_count_one_negative_each(self):
        # a zero diagonal forces Bunch-Kaufman onto a 2 x 2 pivot
        A = _symmetric([0.0, 3.0, 0.0, 1.0, 2.0, -5.0], 3, 2)
        _, ipiv, _ = scipy.linalg.lapack.dsytrf(A, lower=1)
        assert (ipiv < 0).sum() == 2
        assert _negative_count(A) == int((np.linalg.eigvalsh(A) < 0).sum()) == 2


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
    (m <= N/2); every reduction step is checked against the dense matrix.
    The kernel split is also checked at k = 8, where U is the whole space,
    and at k = 32, where it is wider than N/2."""

    @pytest.mark.parametrize("k", [8, 32, 64], ids=["k8", "k32", "k64"])
    def test_kernel_split_matches_dense_eigh(self, request, nl, k):
        S, base = request.getfixturevalue(f"S{k}"), request.getfixturevalue(f"base{k}")
        kb = detect_kernel(base, S, nl, tau=presets.TAU_FORCED)
        assert hessian_model(S, nl, kb.base_a).backend == "low-rank"
        E, eta, scale = _dense_kernel(base, S, nl, presets.TAU_FORCED)
        assert kb.l == E.shape[1] == 1
        assert kb.eta == pytest.approx(eta, rel=1e-12)
        assert kb.hessian_scale == pytest.approx(scale, rel=1e-12)
        assert _sin_largest_angle(E, kb.E) <= 1e-12

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

        for name in ("eigh", "eigvalsh"):
            recording(reduction.scipy.linalg, name)
        # the LDL^T of every symmetric solve and of the eta monitor
        recording(reduction.scipy.linalg.lapack, "dsytrf")
        kb = detect_kernel(base64, S64, nl, tau=presets.TAU_FORCED)
        classify_origin(kb)
        s = solve_w(kb, kernel_combination(kb, np.array([0.3 * kb.delta0])))
        assert s.newton_iters >= 1
        assert {"eigh", "dsytrf"} <= orders.keys()
        # a capacitance adds the block's l columns to the r <= N/2 active rows
        assert max(max(o) for o in orders.values()) <= S64.num_modes // 2 + kb.l
