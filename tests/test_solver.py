import numpy as np
import pytest
import scipy.linalg

from gapbumps import presets, solver
from gapbumps.functional import (
    HessianModel,
    Nonlinearity,
    _active_rows,
    a_hessian,
    a_value_and_gradient,
    hessian_model,
)
from gapbumps.operator import PeriodicPotential, SpectralDecomposition, diagonalize, project_positive
from gapbumps.reduction import detect_kernel
from gapbumps.solver import (
    NoConvergence,
    SolverOptions,
    TrivialCollapse,
    _newton_direction,
    deflated_search,
    find_critical_point,
    hessian_census,
    initial_ansatz,
    linking_upper_bound,
    orbit_distance,
    same_orbit,
    sphere_level,
    validate_solution,
)
from gapbumps.torus import GridField, TorusDomain, l2_norm, translate
from oracle import orbit_distance as loop_orbit_distance


class TestOptions:
    def test_defaults_are_valid(self):
        SolverOptions()

    def test_nonpositive_tolerance_rejected(self):
        with pytest.raises(ValueError):
            SolverOptions(newton_tol=0.0)

    def test_backtrack_must_stay_below_one(self):
        with pytest.raises(ValueError):
            SolverOptions(backtrack=1.0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            SolverOptions().newton_tol = 1e-3


class TestAnsatz:
    def test_lives_in_the_positive_subspace(self, S8):
        u = initial_ansatz((0.0,), 0.5, 6.0, S8.domain, S8)
        assert np.linalg.norm(S8.a_from_field(u)[S8.signs < 0]) < 1e-12
        assert l2_norm(u) > 0

    def test_centering_wraps(self, S8):
        # centering at the torus edge equals centering at the equivalent
        # point, because distances are minimum-image
        u_edge = initial_ansatz((4.0,), 0.5, 6.0, S8.domain, S8)
        u_wrap = initial_ansatz((-4.0,), 0.5, 6.0, S8.domain, S8)
        assert np.allclose(u_edge.values, u_wrap.values, atol=1e-12)

    def test_bad_width_rejected(self, S8):
        with pytest.raises(ValueError):
            initial_ansatz((0.0,), -0.1, 6.0, S8.domain, S8)

    def test_wrong_center_dim_rejected(self, S8):
        with pytest.raises(ValueError):
            initial_ansatz((0.0, 0.0), 0.5, 6.0, S8.domain, S8)


class TestNewton:
    def test_base_solution_quality(self, base8):
        assert base8.residual <= 1e-10
        assert base8.energy > 0
        assert base8.norm_k > 0
        assert base8.iterations < 50

    def test_convergence_is_eventually_quadratic(self, base8):
        hist = [r for r in base8.residual_history if r > 1e-13]
        assert len(hist) >= 3
        for r0, r1 in list(zip(hist, hist[1:]))[-2:]:
            assert r1 <= 10.0 * r0**1.5

    def test_record_recomputes(self, base8, S8, nl):
        from gapbumps.functional import a_gradient

        g = a_gradient(S8, nl, S8.a_from_field(base8.field))
        assert float(np.linalg.norm(g)) == pytest.approx(base8.residual, rel=1e-6, abs=1e-12)
        J = a_value_and_gradient(S8, nl, S8.a_from_field(base8.field))[0]
        assert J == pytest.approx(base8.energy, rel=1e-12)

    def test_small_starts_collapse_to_zero(self, S8, nl):
        init = initial_ansatz((0.0,), 0.5, 0.5, S8.domain, S8)
        with pytest.raises(TrivialCollapse):
            find_critical_point(init, S8, nl)

    def test_iteration_cap_enforced(self, S8, nl):
        init = initial_ansatz((0.0,), 0.5, 6.0, S8.domain, S8)
        with pytest.raises(NoConvergence):
            find_critical_point(init, S8, nl, SolverOptions(newton_tol=1e-10, max_iters=2))

    def test_solution_is_localized(self, base8, S8):
        x = S8.domain.axis_coords()
        vals = np.abs(base8.field.values)
        assert vals[np.abs(x) >= 3.0].max() < 1e-2 * vals.max()


class TestValidation:
    def test_base_passes_all_checks(self, base8, S8, nl, rng):
        checks = validate_solution(
            base8, S8, nl, (presets.EPS1_K8, presets.EPS2_K8), rng=rng
        )
        assert set(checks) == {
            "norm_floor",
            "energy_floor",
            "residual",
            "translation_invariance",
        }
        assert all(passed for passed, _ in checks.values())

    def test_absurd_floor_fails(self, base8, S8, nl, rng):
        checks = validate_solution(base8, S8, nl, (1e6, 1e6), rng=rng)
        assert not checks["norm_floor"][0]
        assert not checks["energy_floor"][0]


class TestOrbits:
    def test_translate_stays_on_the_orbit(self, base8, S8):
        shifted = translate(base8.field, (3,))
        dist, shift = orbit_distance(base8.field, shifted, S8)
        assert dist < 1e-9
        assert shift == (5,)  # the inverse shift mod 8 recovers u

    def test_sign_flip_leaves_the_orbit(self, base8, S8):
        minus = GridField(S8.domain, -base8.field.values)
        assert not same_orbit(base8.field, minus, S8, radius=0.5)

    def test_distance_is_an_energy_norm(self, base8, S8):
        zero = GridField.zeros(S8.domain)
        dist, _ = orbit_distance(base8.field, zero, S8)
        assert dist == pytest.approx(np.linalg.norm(S8.a_from_field(base8.field)), rel=1e-12)

    def test_the_shift_loop_agrees(self, base8, S8, degenerate, rng):
        # the grid loop of every shift is the reference, ties included: two
        # bumps k/2 apart reach every translate at two shifts
        pair = GridField(S8.domain, base8.field.values + translate(base8.field, (4,)).values)
        noise = GridField(S8.domain, rng.standard_normal(S8.domain.shape))
        S2, _, rec2, _ = degenerate
        noise2 = GridField(S2.domain, rng.standard_normal(S2.domain.shape))
        cases = [(S8, base8.field, translate(base8.field, (s,))) for s in range(8)]
        cases += [(S8, pair, translate(pair, (s,))) for s in range(8)]
        cases += [
            (S8, base8.field, GridField(S8.domain, -base8.field.values)),
            (S8, base8.field, GridField.zeros(S8.domain)),
            (S8, noise, base8.field),
            (S2, noise2, translate(noise2, (2, 1))),
            (S2, rec2.field, noise2),
        ]
        for S, u, v in cases:
            want, want_shift = loop_orbit_distance(u, v, S)
            got, shift = orbit_distance(u, v, S)
            assert shift == want_shift
            assert abs(got - want) <= 1e-9 * max(1.0, want)
        assert orbit_distance(pair, translate(pair, (1,)), S8)[1] == (3,)  # 7 as well
        # the 2-d base is a stripe, the same in every cell along axis 0 to
        # rounding, so three shifts reach it: the smallest wins (the loop
        # returns the one whose grid shift gives u back bit for bit)
        dist, shift = orbit_distance(rec2.field, translate(rec2.field, (2, 1)), S2)
        assert dist < 1e-12 and shift == (0, 2)

    def test_all_shifts_cost_a_fixed_number_of_transforms(self, potential, monkeypatch):
        S = diagonalize(potential, TorusDomain(1, 512, 16))
        x = S.domain.axis_coords()
        u = GridField(S.domain, np.exp(-(x**2)) + 0.5 * np.exp(-((x - 3.0) ** 2)))
        v = translate(u, (100,))
        calls = []
        for name in ("_coefficients", "_fields", "translate"):
            original = getattr(SpectralDecomposition, name)

            def counted(self, *args, _name=name, _fn=original):
                calls.append(_name)
                return _fn(self, *args)

            monkeypatch.setattr(SpectralDecomposition, name, counted)

        def grid_shift(*args):
            raise AssertionError("orbit_distance shifted a field on the grid")

        monkeypatch.setattr(solver, "translate", grid_shift)
        dist, shift = orbit_distance(u, v, S)
        assert shift == (412,) and dist < 1e-9
        # two transforms and one exact re-measure, where the loop made 512 of each
        assert calls.count("_coefficients") == 2 and calls.count("translate") == 1
        assert "_fields" not in calls


class TestLinkingGeometry:
    def test_sphere_level_is_positive_and_below_the_solution(self, S8, nl, base8):
        delta = sphere_level(S8, nl, presets.R_STAR, samples=16, rng=np.random.default_rng(0))
        assert 0.0 < delta <= base8.energy

    def test_sphere_level_grows_with_radius_when_small(self, S8, nl):
        lo = sphere_level(S8, nl, 0.3, samples=16, rng=np.random.default_rng(0))
        hi = sphere_level(S8, nl, 1.0, samples=16, rng=np.random.default_rng(0))
        assert 0.0 < lo < hi

    def test_upper_bound_caps_the_solution_level(self, S8, nl, base8):
        za = S8.a_from_field(project_positive(base8.field, S8))
        z = S8.field_from_a(za / np.linalg.norm(za))
        bound = linking_upper_bound(
            S8, nl, z, 2.0 * base8.norm_k, samples=8, rng=np.random.default_rng(0)
        )
        assert bound.value >= base8.energy - 1e-9
        assert bound.boundary_sup <= 1e-6

    def test_non_unit_direction_rejected(self, S8, nl, base8):
        z = base8.field  # norm is ~20, not 1
        with pytest.raises(ValueError):
            linking_upper_bound(S8, nl, z, 10.0, samples=2, rng=np.random.default_rng(0))


class TestDeflation:
    def test_finds_something_new(self, base8, S8, nl):
        found = deflated_search([base8], 8, S8, nl, rng=np.random.default_rng(5))
        assert found, "eight tries found nothing"
        for rec in found:
            assert rec.residual <= 1e-10
            assert rec.norm_k > SolverOptions().collapse_norm
            assert not same_orbit(rec.field, base8.field, S8, radius=0.5)
        for i, a in enumerate(found):
            for b in found[i + 1 :]:
                assert not same_orbit(a.field, b.field, S8, radius=0.5)


def _assert_matches_dense(model, H, signs, rng):
    """matvec, solve at two ridges and the spectrum against a dense H."""
    n = H.shape[0]
    v = rng.standard_normal(n)
    mu_dense = scipy.linalg.eigvalsh(H)
    scale = float(np.abs(mu_dense).max())
    assert np.linalg.norm(model.matvec(v) - H @ v) <= 1e-13 * scale * np.linalg.norm(v)
    for mu in (1e-8, 1e-2):
        ridged = H + mu * np.diag(signs)
        d = model.solve(v, mu)
        # backward error at rounding level; the forward error against the
        # dense solve is as large as the conditioning makes it
        assert np.linalg.norm(ridged @ d - v) <= 1e-13 * scale * np.linalg.norm(d)
        dense = scipy.linalg.solve(ridged, v, assume_a="sym")
        ridged_mu = np.abs(scipy.linalg.eigvalsh(ridged))
        cond = ridged_mu.max() / ridged_mu.min()
        assert np.linalg.norm(d - dense) <= 1e-14 * cond * np.linalg.norm(dense)
    mu_model = model.eigenvalues()
    assert mu_model.shape == (n,)
    assert np.all(np.diff(mu_model) >= 0)
    assert np.abs(mu_model - mu_dense).max() <= 1e-13 * scale


class TestLowRankHessian:
    """The Hessian model on its frame U, against the dense matrix."""

    @pytest.mark.parametrize(
        "k, point, columns",
        [
            (64, "ansatz", 0),
            (64, "solution", 0),
            (64, "dealiased", 0),
            (8, "solution", 0),
            (32, "solution", 0),
            (64, "solution", 200),
        ],
        ids=["ansatz", "solution", "dealiased", "k8", "k32", "wide_block"],
    )
    def test_matches_dense_on_a_long_torus(self, request, nl, rng, k, point, columns):
        # at k = 64 the frame is compressed; at k = 8 every row is active and
        # both sign blocks are the identity; at k = 32, and at k = 64 with
        # 200 columns of X, the frame is wider than N/2
        S = request.getfixturevalue(f"S{k}")
        if point == "ansatz":
            field = request.getfixturevalue("ansatz64")
        else:
            field = request.getfixturevalue(f"base{k}").field
        if point == "dealiased":
            nl = Nonlinearity(dealias_factor=1.5)
        a = S.a_from_field(field)
        model = hessian_model(S, nl, a, np.eye(S.num_modes)[:, :columns])
        c = model.G.size + columns
        assert model.subspace_dim == min(S.j, c) + min(S.num_modes - S.j, c)
        if k == 64 and not columns:
            assert model.subspace_dim <= S.num_modes // 2
        _assert_matches_dense(model, a_hessian(S, nl, a), S.signs, rng)

    def test_matches_dense_on_a_collocated_2d_torus(self, degenerate, rng):
        S2, _, rec, _ = degenerate
        a = S2.a_from_field(rec.field)
        model = hessian_model(S2, Nonlinearity(), a)
        assert model.backend == "low-rank"
        _assert_matches_dense(model, a_hessian(S2, Nonlinearity(), a), S2.signs, rng)

    def test_no_negative_eigenvalues(self, nl, rng):
        # a shift that puts the whole spectrum above zero: j = 0, so the
        # negative block is empty
        S = diagonalize(PeriodicPotential(amplitude=30.0, shift=-15.0), TorusDomain(1, 16, 16))
        assert S.j == 0
        a = S.a_from_field(initial_ansatz((0.0,), 0.5, 6.0, S.domain, S))
        model = hessian_model(S, nl, a)
        assert model.neg.dim == 0
        _assert_matches_dense(model, a_hessian(S, nl, a), S.signs, rng)

    def test_no_active_rows_at_zero(self, S64, nl, rng):
        a = np.zeros(S64.num_modes)
        model = hessian_model(S64, nl, a)
        assert model.backend == "low-rank"
        assert model.subspace_dim == 0 and model.K.shape == (0, 0)
        _assert_matches_dense(model, np.diag(S64.signs), S64.signs, rng)

    @pytest.mark.parametrize(
        "n, j, r",
        [(40, 40, 7), (40, 0, 7), (40, 3, 7), (40, 20, 50), (40, 0, 0)],
        ids=["no_positive_block", "no_negative_block", "identity_negative_block",
             "identity_blocks", "no_rows"],
    )
    def test_block_shapes(self, rng, n, j, r):
        # two X columns join the rows of G: U contains them too
        signs = np.concatenate([-np.ones(j), np.ones(n - j)])
        G = rng.standard_normal((r, n))
        X = rng.standard_normal((n, 2))
        model = HessianModel(signs, j, X, G=G)
        assert model.subspace_dim == min(j, r + 2) + min(n - j, r + 2)
        # X has no part off span U
        assert np.linalg.norm(model.complement().T @ X) <= 1e-13 * np.linalg.norm(X)
        _assert_matches_dense(model, np.diag(signs) - G.T @ G, signs, rng)

    def test_backend_rule(self, S8, nl, base8, S64, base64, degenerate):
        # the model carries its rows whenever r <= N, however wide its frame:
        # every row is active at k = 8, and X's 200 columns widen the frame
        # at k = 64 past N/2
        assert hessian_model(S8, nl, S8.a_from_field(base8.field)).backend == "low-rank"
        a = S64.a_from_field(base64.field)
        assert hessian_model(S64, nl, a).backend == "low-rank"
        X = np.eye(S64.num_modes)[:, :200]
        assert hessian_model(S64, nl, a, X).backend == "low-rank"
        # the rule reads r the same way on either grid: a localized bump
        # keeps few fine rows active, the 2-d fixture's solution more than N
        dealiased = Nonlinearity(dealias_factor=1.5)
        assert hessian_model(S64, dealiased, a).backend == "low-rank"
        S2, nl2, rec, _ = degenerate
        a2 = S2.a_from_field(rec.field)
        assert _active_rows(S2, nl2, a2)[1].size > S2.num_modes
        assert hessian_model(S2, nl2, a2).backend == "dense"

    def test_newton_builds_no_frame(self, S64, nl, ansatz64, monkeypatch):
        # Newton solves through the capacitance and never factors [G^T];
        # the census builds the frame once, its negative and positive block
        from gapbumps import functional

        qrs, blocks = [], []
        real_qr, real_block = scipy.linalg.qr, functional._SignBlock

        def qr(*args, **kwargs):
            qrs.append(args[0].shape)
            return real_qr(*args, **kwargs)

        class CountedBlock(real_block):
            def __init__(self, width, C):
                blocks.append(width)
                super().__init__(width, C)

        monkeypatch.setattr(scipy.linalg, "qr", qr)
        monkeypatch.setattr(functional, "_SignBlock", CountedBlock)
        rec = find_critical_point(ansatz64, S64, nl)
        assert rec.iterations == 6
        assert not qrs and not blocks
        census = hessian_census(S64, nl, S64.a_from_field(rec.field))
        assert len(blocks) == 2 and qrs
        assert tuple(census.values()) == (66, 0, "low-rank", 347)

    @pytest.mark.parametrize("k", [8, 32, 256], ids=["k8", "k32", "k256"])
    def test_solve_and_census_never_build_the_eigenfield_matrix(self, potential, nl, monkeypatch, k):
        # every product with E on a rows model is a fiber transform or a
        # gather, whether its frame is the whole space (k = 8), wider than
        # N/2 (k = 32) or compressed (k = 256): neither the dense Hessian
        # nor the N x N matrix (N = 4096 at k = 256) is formed
        from gapbumps import functional

        def refuse(*args):
            raise AssertionError("a_hessian called on a model with r <= N")

        monkeypatch.setattr(functional, "a_hessian", refuse)
        S = diagonalize(potential, TorusDomain(1, k, 16))
        A = presets.BASE_ANSATZ
        rec = find_critical_point(initial_ansatz(A["center"], A["width"], A["amplitude"], S.domain, S), S, nl)
        census = hessian_census(S, nl, S.a_from_field(rec.field))
        kb = detect_kernel(rec, S, nl, tau=presets.TAU_FORCED)
        assert rec.residual <= 1e-10 and census["hessian_backend"] == "low-rank"
        assert kb.l == 1
        assert "eigenfields" not in vars(S)

    def test_ridge_escalates_past_a_singular_capacitance(self, rng):
        # H = I - G^T G on R^4: at mu = 0.5625 the capacitance
        # 1.5625 - 1.25^2 is exactly 0, so H + mu D is singular and the
        # ridge grows tenfold
        G = np.array([[1.25, 0.0, 0.0, 0.0]])
        signs = np.ones(4)
        model = HessianModel(signs, 0, np.zeros((4, 0)), G=G)
        g = rng.standard_normal(4)
        d, mu = _newton_direction(model, g, SolverOptions(tikhonov=0.5625, tikhonov_cap=10.0))
        assert mu == 5.625
        ridged = (1.0 + mu) * np.diag(signs) - G.T @ G
        eps = np.finfo(float).eps
        backward = np.linalg.norm(ridged @ d + g)
        assert backward <= 4 * eps * np.linalg.norm(ridged, 2) * np.linalg.norm(d)

    def test_ridge_escalates_past_a_singular_dense_solve(self, rng):
        # without rows the model solves on K: at mu = 0.5625, K + mu D has
        # an exact zero pivot, the solve raises, and the ridge grows tenfold
        signs = np.ones(2)
        model = HessianModel(signs, 0, np.zeros((2, 0)), K=np.diag([-0.5625, 1.0]))
        g = rng.standard_normal(2)
        with pytest.raises(scipy.linalg.LinAlgError):
            model.solve(-g, 0.5625)
        d, mu = _newton_direction(model, g, SolverOptions(tikhonov=0.5625, tikhonov_cap=10.0))
        assert mu == 5.625
        np.testing.assert_allclose((np.diag([-0.5625, 1.0]) + mu * np.diag(signs)) @ d, -g, rtol=1e-14)

    def test_long_torus_record(self, S64, nl, base64):
        assert base64.residual <= 1e-12
        census = hessian_census(S64, nl, S64.a_from_field(base64.field))
        assert census["hessian_backend"] == "low-rank"
        assert census["hessian_subspace_dim"] <= S64.num_modes // 2
        assert census["negative_hessian_count"] == 66
        assert census["kernel_dim_estimate"] == 0


def _first_model_solves(S8, nl, monkeypatch, solve):
    """Newton from BASE_ANSATZ at k = 8 with the first Hessian model's
    solve replaced by solve(H, rhs, mu); returns (init, record, that model)."""
    from gapbumps import solver

    real_model = solver.hessian_model
    built = []

    class FirstModel:
        def __init__(self, H):
            self.H = H

        def solve(self, rhs, mu):
            return solve(self.H, rhs, mu)

        def matvec(self, v):
            return self.H.matvec(v)

    def model(S, nl, a):
        built.append(real_model(S, nl, a))
        return FirstModel(built[-1]) if len(built) == 1 else built[-1]

    monkeypatch.setattr(solver, "hessian_model", model)
    A = presets.BASE_ANSATZ
    init = initial_ansatz(A["center"], A["width"], A["amplitude"], S8.domain, S8)
    rec = find_critical_point(init, S8, nl)
    return init, rec, FirstModel(built[0])


class TestNewtonHistory:
    @pytest.mark.parametrize("which", ["base8", "base64"])
    def test_one_entry_per_iteration(self, request, which):
        rec = request.getfixturevalue(which)
        opts = SolverOptions()
        assert len(rec.step_history) == len(rec.mu_history) == rec.iterations
        assert len(rec.residual_history) == rec.iterations + 1
        assert all(0.0 < step <= 1.0 for step in rec.step_history)
        assert all(mu is None or opts.tikhonov <= mu <= opts.tikhonov_cap for mu in rec.mu_history)

    def test_descent_fallback_is_recorded_without_mu(self, S8, nl, monkeypatch):
        # the first model turns the Newton step around, so that step is
        # not a descent direction and steepest descent on the merit is taken
        _, rec, _ = _first_model_solves(S8, nl, monkeypatch, lambda H, rhs, mu: -H.solve(rhs, mu))
        assert rec.residual <= 1e-10
        assert rec.mu_history[0] is None
        assert all(mu == SolverOptions().tikhonov for mu in rec.mu_history[1:])

    def test_no_newton_direction_falls_back_to_steepest_descent(self, S8, nl, monkeypatch):
        # the first model's solve fails at every ridge up to tikhonov_cap
        def singular(H, rhs, mu):
            raise scipy.linalg.LinAlgError("singular")

        init, rec, first = _first_model_solves(S8, nl, monkeypatch, singular)
        assert rec.residual <= 1e-10
        assert rec.mu_history[0] is None
        assert all(mu == SolverOptions().tikhonov for mu in rec.mu_history[1:])
        g = a_value_and_gradient(S8, nl, S8.a_from_field(init))[1]
        assert _newton_direction(first, g, SolverOptions()) == (None, None)

    def test_each_point_is_evaluated_once(self, S8, nl, evaluations):
        A = presets.BASE_ANSATZ
        init = initial_ansatz(A["center"], A["width"], A["amplitude"], S8.domain, S8)
        rec = find_critical_point(init, S8, nl)
        # the start, then one trial per line-search halving of each step
        halvings = [round(np.log(s) / np.log(SolverOptions().backtrack)) for s in rec.step_history]
        assert len(evaluations) == 1 + sum(1 + h for h in halvings) == 8

    def test_record_names_its_backend(self, base8, S8, nl):
        census = hessian_census(S8, nl, S8.a_from_field(base8.field))
        # every row is active at k = 8: the frame is the whole space
        assert (census["hessian_backend"], census["hessian_subspace_dim"]) == ("low-rank", S8.num_modes)
        d = base8.to_dict()
        assert d["step_history"] == list(base8.step_history)
        assert d["mu_history"] == list(base8.mu_history)
        # the record keeps Newton's account only; the census is asked for
        assert not set(census) & set(d)
