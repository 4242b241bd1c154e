import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from gapbumps.functional import (
    HessianModel,
    Nonlinearity,
    _EvalGrid,
    _active_rows,
    _eval_grid,
    _gram_factor,
    _interpolation_rows,
    a_gradient,
    a_hessian,
    a_hessvec,
    a_value_and_gradient,
    hessian_model,
    interaction_defect,
    solve_symmetric,
)
from gapbumps import presets
from gapbumps.operator import PeriodicPotential, diagonalize
from gapbumps.solver import initial_ansatz
from gapbumps.torus import GridField, TorusDomain, translate
from oracle import _along_axes, _interpolation_matrix, fine_samples, oracle_rows


class TestHypotheses:
    def test_p_below_three_rejected(self):
        with pytest.raises(ValueError):
            Nonlinearity(p=2.5)

    def test_negative_weight_rejected(self):
        h = PeriodicPotential(amplitude=3.0)  # dips to -3
        with pytest.raises(ValueError):
            Nonlinearity(weight=h)

    def test_weight_negative_only_on_a_2d_grid_rejected(self):
        # cos(2 pi x) + cos(2 pi y) + 1.5 passes the one-axis probe
        # (minimum 0.5) but reaches -0.5 on the 2-d torus
        h = PeriodicPotential(amplitude=1.0, shift=-1.5)
        domain, V = TorusDomain(2, 2, 8), presets.default_potential()
        with pytest.raises(ValueError, match="nonnegative"):
            Nonlinearity(weight=h).weight_values(domain)
        S = diagonalize(V, domain)
        with pytest.raises(ValueError, match="nonnegative"):
            a_value_and_gradient(S, Nonlinearity(weight=h, dealias_factor=1.5), np.zeros(S.num_modes))

    def test_dealias_factor_floor(self):
        with pytest.raises(ValueError):
            Nonlinearity(dealias_factor=0.5)


class TestValueAndSymmetry:
    def test_zero_field_has_zero_energy(self, S4, nl):
        assert a_value_and_gradient(S4, nl, np.zeros(S4.num_modes))[0] == 0.0

    def test_even_nonlinearity_makes_J_even(self, S4, nl, rng):
        a = rng.standard_normal(S4.num_modes)
        J = a_value_and_gradient(S4, nl, a)[0]
        assert a_value_and_gradient(S4, nl, -a)[0] == pytest.approx(J, rel=1e-12)

    def test_gradient_is_odd(self, S4, nl, rng):
        a = rng.standard_normal(S4.num_modes)
        assert np.allclose(a_gradient(S4, nl, -a), -a_gradient(S4, nl, a), atol=1e-12)

    def test_small_fields_are_dominated_by_the_quadratic_part(self, S4, nl, rng):
        a = rng.standard_normal(S4.num_modes)
        a /= np.linalg.norm(a)
        quad = 0.5 * float(S4.signs @ (a * a))
        for eps in (1e-3, 1e-4):
            J = a_value_and_gradient(S4, nl, eps * a)[0]
            # remainder is the quartic integral, so the defect scales like eps^4
            assert abs(J - eps**2 * quad) < 10 * eps**4

    def test_energy_is_translation_invariant(self, S8, nl, rng):
        a = rng.standard_normal(S8.num_modes) / (1 + np.abs(S8.eigenvalues))
        u = S8.field_from_a(a)
        J = a_value_and_gradient(S8, nl, a)[0]
        for b in ((1,), (5,)):
            Jb = a_value_and_gradient(S8, nl, S8.a_from_field(translate(u, b)))[0]
            assert Jb == pytest.approx(J, rel=1e-10, abs=1e-12)


class TestDerivatives:
    def _probe(self, S, rng):
        a = rng.standard_normal(S.num_modes) / (1.0 + np.abs(S.eigenvalues)) ** 0.5
        v = rng.standard_normal(S.num_modes)
        return a, v / np.linalg.norm(v)

    @pytest.mark.parametrize("mode", ["collocation", "dealias"])
    def test_gradient_matches_fd(self, S4, rng, mode):
        nl = Nonlinearity() if mode == "collocation" else Nonlinearity(dealias_factor=1.5)
        a, v = self._probe(S4, rng)
        eps = 1e-5
        Jp = a_value_and_gradient(S4, nl, a + eps * v)[0]
        Jm = a_value_and_gradient(S4, nl, a - eps * v)[0]
        g = a_gradient(S4, nl, a)
        assert (Jp - Jm) / (2 * eps) == pytest.approx(float(g @ v), rel=1e-7, abs=1e-9)

    @pytest.mark.parametrize("mode", ["collocation", "dealias"])
    def test_hessvec_matches_fd(self, S4, rng, mode):
        nl = Nonlinearity() if mode == "collocation" else Nonlinearity(dealias_factor=1.5)
        a, v = self._probe(S4, rng)
        eps = 1e-5
        fd = (a_gradient(S4, nl, a + eps * v) - a_gradient(S4, nl, a - eps * v)) / (2 * eps)
        hv = a_hessvec(S4, nl, a, v)
        assert np.linalg.norm(fd - hv) < 1e-6 * max(1.0, np.linalg.norm(hv))

    def test_hessian_is_symmetric_and_matches_hessvec(self, S4, nl, rng):
        a, v = self._probe(S4, rng)
        H = a_hessian(S4, nl, a)
        assert np.allclose(H, H.T, atol=1e-12)
        assert np.allclose(H @ v, a_hessvec(S4, nl, a, v), atol=1e-10)

    def test_hessian_at_zero_is_the_sign_matrix(self, S4, nl):
        H = a_hessian(S4, nl, np.zeros(S4.num_modes))
        assert np.allclose(H, np.diag(S4.signs), atol=1e-12)

    def test_field_level_gradient_agrees(self, S4, nl, rng):
        # (grad J(u), v)_k = B(u, v) - int f(u) v, with B the quadratic
        # form and the integral collocated on the grid
        a, v = rng.standard_normal(S4.num_modes), rng.standard_normal(S4.num_modes)
        u, vf = S4.field_from_a(a), S4.field_from_a(v)
        quad = float(S4.signs @ (a * v))
        nonlinear = S4.domain.spacing * float(np.sum(nl.f(u.values, 1.0) * vf.values))
        got = float(a_gradient(S4, nl, a) @ v)
        assert got == pytest.approx(quad - nonlinear, rel=1e-9)

    def test_weighted_nonlinearity_fd(self, S4, rng):
        # h(x) = 2 + 0.5 cos(2 pi x), strictly positive
        h = PeriodicPotential(amplitude=0.5, shift=-2.0)
        nl = Nonlinearity(weight=h)
        a, v = self._probe(S4, rng)
        eps = 1e-5
        Jp = a_value_and_gradient(S4, nl, a + eps * v)[0]
        Jm = a_value_and_gradient(S4, nl, a - eps * v)[0]
        g = a_gradient(S4, nl, a)
        assert (Jp - Jm) / (2 * eps) == pytest.approx(float(g @ v), rel=1e-7, abs=1e-9)


def _symmetrized_hessian(S, nl, a):
    """a_hessian's formula over its own sampled eigenfield matrix:
    diag(signs) - (G / w)^T (G / w), then symmetrized."""
    G = oracle_rows(S, nl, a, S.eigenfields) / S.weights
    A = np.diag(S.signs) - G.T @ G
    return 0.5 * (A + A.T)


def _fresh(S):
    """A new decomposition object with the same arrays: its own, empty grid cache."""
    return dataclasses.replace(S)


def _ansatz(S):
    A = presets.BASE_ANSATZ
    return initial_ansatz(A["center"], A["width"], A["amplitude"], S.domain, S)


class TestHessianAssembly:
    """The in-place assembly is exactly symmetric, so it needs no symmetrization."""

    def test_same_entries_on_a_collocated_torus(self, S8, nl, base8):
        a = S8.a_from_field(base8.field)
        H = a_hessian(S8, nl, a)
        assert np.array_equal(H, _symmetrized_hessian(S8, nl, a))
        assert np.array_equal(H, H.T)

    def test_same_entries_on_the_dealiased_2d_fixture(self, degenerate):
        # factor 3 takes the sum-factorized route: the same product summed
        # in another order, so it agrees to rounding, not bit for bit
        S2, nl2, rec, _ = degenerate
        a = S2.a_from_field(rec.field)
        H = a_hessian(S2, nl2, a)
        oracle = _symmetrized_hessian(S2, nl2, a)
        assert np.abs(H - oracle).max() <= 1e-13 * np.abs(oracle).max()
        assert np.array_equal(H, H.T)

    @pytest.mark.parametrize("case", ["1d-1.5", "2d-1.5"])
    def test_fine_grids_match_the_oracle(self, potential, degenerate, case):
        # as the factor-3 fixture above: E^T M E is the oracle's G^T G summed
        # in another order, equal to rounding and exactly symmetric
        dim, factor = case.split("-")
        if dim == "1d":
            S = diagonalize(potential, TorusDomain(1, 32, 16))
            nl = Nonlinearity(dealias_factor=float(factor))
            a = S.a_from_field(_ansatz(S))
        else:
            S2, nl2, rec, _ = degenerate
            S, nl = S2, dataclasses.replace(nl2, dealias_factor=float(factor))
            a = S.a_from_field(rec.field)
        H = a_hessian(S, nl, a)
        oracle = _symmetrized_hessian(S, nl, a)
        assert np.abs(H - oracle).max() <= 1e-13 * np.abs(oracle).max()
        assert np.array_equal(H, H.T)


class TestFineLowRankRows:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_rows_match_the_oracle_and_solve(self, potential, degenerate, rng, dim):
        # 1-d: a long torus at factor 1.5, where the rule picks the low-rank
        # model; 2-d: the factor-3 fixture, whose every point is active
        if dim == 1:
            S, nl = diagonalize(potential, TorusDomain(1, 128, 16)), Nonlinearity(dealias_factor=1.5)
            a = S.a_from_field(_ansatz(S))
            assert hessian_model(S, nl, a).backend == "low-rank"
        else:
            S, nl, rec, _ = degenerate
            a = S.a_from_field(rec.field)
        weight, rows = _active_rows(S, nl, a)
        G = _gram_factor(S, nl, weight, rows)
        oracle = oracle_rows(S, nl, a)[rows] / S.weights
        assert rows.size > 0
        rows_matrix = S.a_rows(G.points, G.scale, G.grid.fibers)
        assert np.abs(rows_matrix - oracle).max() <= 1e-13 * np.abs(oracle).max()
        if dim == 1:  # the fixture's Hessian is singular on its translation kernel
            model = HessianModel(S.signs, S.j, np.zeros((S.num_modes, 0)), G=G)
            rhs = rng.standard_normal(S.num_modes)
            residual = model.matvec(model.solve(rhs, 0.0)) - rhs
            assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(rhs)


class TestGreenCapacitance:
    """G D G^T, gathered from the Green table of the evaluation grid,
    against the explicit product of the oracle's sampled rows."""

    @pytest.mark.parametrize("case", ["1d-1", "1d-1.5", "2d-1", "2d-3"])
    def test_matches_the_explicit_product(self, S64, base64, degenerate, case):
        dim, factor = case.split("-")
        if dim == "1d":
            S, nl, field = S64, Nonlinearity(dealias_factor=float(factor)), base64.field
        else:
            S2, nl2, rec, _ = degenerate
            S, nl, field = S2, dataclasses.replace(nl2, dealias_factor=float(factor)), rec.field
        a = S.a_from_field(field)
        weight, rows = _active_rows(S, nl, a)
        rows = rows[:: max(1, rows.size // 300)]  # any subset of rows has its block
        G = oracle_rows(S, nl, a)[rows] / S.weights
        oracle = (G * S.signs) @ G.T
        rows_model = _gram_factor(_fresh(S), nl, weight, rows)
        assert rows.size > 100
        assert np.abs(rows_model.gdg - oracle).max() <= 1e-13 * np.abs(oracle).max()
        # the negative modes' part, from the second table
        neg = G[:, S.signs < 0]
        oracle = neg @ neg.T
        assert np.abs(rows_model.gqg - oracle).max() <= 1e-13 * np.abs(oracle).max()

    def test_the_table_is_cached_with_the_grid(self, S8, nl, base8):
        S = _fresh(S8)
        a = S.a_from_field(base8.field)
        weight, rows = _active_rows(S, nl, a)
        assert _eval_grid(S, nl).green is None
        _gram_factor(S, nl, weight, rows).gdg
        table = _eval_grid(S, nl).green
        _gram_factor(S, nl, weight, rows[::2]).gdg
        assert table is not None and _eval_grid(S, nl).green is table

    def test_newton_gather_allocates_nothing_of_the_grid_size(self, potential, nl):
        # at k = 1024 (N = 16384) one N x N array takes 2 GiB, and even
        # an r x N matrix of the r = 223 active rows 29 MiB; the gather,
        # its Green table included, stays under a 128th of the former
        S = diagonalize(potential, TorusDomain(1, 1024, 16))
        weight, rows = _active_rows(S, nl, S.a_from_field(_ansatz(S)))
        G = _gram_factor(S, nl, weight, rows)
        tracemalloc.start()
        try:
            G.gdg
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = S.num_modes
        assert rows.size < n // 64
        assert peak <= 8 * n * n / 128


class TestSolveSymmetric:
    """The one symmetric factor-and-solve: LAPACK dsytrf and dsytrs."""

    @pytest.mark.parametrize("n", [348, 513, 577])
    def test_same_bits_as_scipy_solve(self, rng, n):
        A = rng.standard_normal((n, n))
        A += A.T
        for b in (rng.standard_normal(n), rng.standard_normal((n, 3))):
            np.testing.assert_array_equal(solve_symmetric(A, b), scipy.linalg.solve(A, b, assume_a="sym"))

    def test_a_zero_pivot_raises(self):
        # rank one: Bunch-Kaufman leaves an exact 0 in the second pivot
        with pytest.raises(scipy.linalg.LinAlgError):
            solve_symmetric(np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones(2))

    def test_an_empty_system_has_an_empty_solution(self):
        assert solve_symmetric(np.zeros((0, 0)), np.zeros(0)).shape == (0,)
        assert solve_symmetric(np.zeros((0, 0)), np.zeros((0, 2))).shape == (0, 2)


class TestDealiasing:
    def test_band_limited_quartic_is_quadrature_exact(self, S4):
        # modes below a quarter of the band keep u^4 inside the grid's
        # trigonometric space, where collocation is already exact
        domain = S4.domain
        x = domain.meshgrid()[0]
        u = GridField(domain, 1.3 * np.cos(2 * np.pi * x / 4) + 0.7 * np.sin(2 * np.pi * x))
        a = S4.a_from_field(u)
        plain = a_value_and_gradient(S4, Nonlinearity(), a)[0]
        padded = a_value_and_gradient(S4, Nonlinearity(dealias_factor=3.0), a)[0]
        assert plain == pytest.approx(padded, rel=1e-12)

    def test_hessian_stays_symmetric_under_padding(self, S4, rng):
        nl = Nonlinearity(dealias_factor=1.5)
        a = rng.standard_normal(S4.num_modes)
        H = a_hessian(S4, nl, a)
        assert np.allclose(H, H.T, atol=1e-12)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_factor_one_is_collocation(self, S4, degenerate, dim):
        # the fine-grid points and quadrature weight at factor 1 are the
        # torus grid's own, bit for bit
        S = _fresh(S4 if dim == 1 else degenerate[0])
        for weight in (None, PeriodicPotential(amplitude=0.5, shift=-2.0)):
            nl = Nonlinearity(weight=weight, dealias_factor=1.0)
            grid = _eval_grid(S, nl)
            assert grid.fibers is None and grid.rows is None and grid.nf == S.domain.points_per_axis
            assert grid.qw == S.domain.spacing**dim
            h = nl.weight_values(S.domain)
            assert np.array_equal(grid.h, h) and np.shape(grid.h) == np.shape(h)
            assert _eval_grid(S, nl) is grid


def _grid(n, factor, cells=1):
    """A bare evaluation grid with n points per axis; only the rows and nf matter."""
    rows = _interpolation_rows(n, factor, cells)
    return _EvalGrid(None, rows, rows.shape[0] * cells, 1.0, 1.0)


# (dim, cells, samples per cell) of small tori; 2-d at M = 8 keeps the tables small
_TABLE_DOMAINS_1D = st.tuples(st.just(1), st.integers(1, 4), st.sampled_from([8, 16]))
_TABLE_DOMAINS = st.one_of(_TABLE_DOMAINS_1D, st.tuples(st.just(2), st.integers(1, 4), st.just(8)))


def _table_case(potential, degenerate, dim, cells, m, factor):
    """A decomposition on a small torus, 1-d or 2-d, and its fiber table at `factor`."""
    V = potential if dim == 1 else degenerate[0].potential
    S = diagonalize(V, TorusDomain(dim, cells, m))
    return S, _eval_grid(S, Nonlinearity(dealias_factor=factor))


class TestInterpolation:
    """The fiber table is the one route onto a fine grid; the dense nf x n
    interpolation matrix of the oracle is its reference."""

    @pytest.mark.parametrize("cells, m", [(1, 16), (3, 8), (8, 16), (64, 16)])
    @pytest.mark.parametrize("factor", [1.0, 1.3, 1.5, 3.0])
    def test_rows_are_the_first_cell_of_the_dense_matrix(self, cells, m, factor):
        # one FFT per row; tiled by whole-cell shifts, the whole matrix
        n = cells * m
        P = _interpolation_matrix(n, factor, cells)
        rows = _interpolation_rows(n, factor, cells)
        tiled = np.concatenate([np.roll(rows, c * m, axis=1) for c in range(cells)])
        assert tiled.shape == P.shape
        assert np.abs(tiled - P).max() <= 1e-14

    @settings(max_examples=40, deadline=None)
    @given(case=_TABLE_DOMAINS_1D, factor=st.floats(1.0, 3.0), data=st.data())
    def test_band_limited_and_nyquist_modes_are_reproduced(self, potential, degenerate, case, factor, data):
        S, grid = _table_case(potential, degenerate, *case, factor)
        n, nf = S.domain.points_per_axis, grid.nf
        assert nf >= factor * n and nf % 2 == 0
        x, y = np.arange(n) / n, np.arange(nf) / nf
        m = data.draw(st.integers(0, n // 2 - 1), label="mode")
        phase = data.draw(st.floats(0.0, 2 * np.pi), label="phase")
        for coarse, fine in [
            (np.cos(2 * np.pi * m * x + phase), np.cos(2 * np.pi * m * y + phase)),
            (np.cos(np.pi * n * x), np.cos(np.pi * n * y)),  # the Nyquist mode's interpolant is the real cosine
        ]:
            got = S.values_from_a(S.a_from_values(coarse), grid.fibers)
            assert np.allclose(got, fine, rtol=0, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(case=_TABLE_DOMAINS, factor=st.floats(1.0, 3.0), seed=st.integers(0, 2**32 - 1))
    def test_samples_and_adjoint_are_transposes(self, potential, degenerate, case, factor, seed):
        # and the values are the dense matrix's interpolation of the grid values
        S, grid = _table_case(potential, degenerate, *case, factor)
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(S.num_modes)
        w = rng.standard_normal((grid.nf,) * S.domain.dim)
        fine = S.values_from_a(a, grid.fibers)
        lhs = float(np.sum(fine * w))
        rhs = float(np.dot(a, S.a_from_dual(w, grid.fibers)))
        scale = np.linalg.norm(fine) * np.linalg.norm(w)
        assert abs(lhs - rhs) <= 1e-13 * scale
        want = fine_samples(S, factor, S.values_from_a(a))
        assert np.abs(fine - want).max() <= 1e-13 * np.abs(want).max()

    @settings(max_examples=30, deadline=None)
    @given(
        cells=st.integers(1, 3),
        m=st.integers(1, 4).map(lambda half: 2 * half),
        factor=st.floats(1.0, 3.0),
        dim=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gram_is_the_weighted_gram_of_the_sampling_map(self, cells, m, factor, dim, seed):
        n = cells * m
        grid = _grid(n, factor, cells)
        nf = grid.nf
        w = np.random.default_rng(seed).uniform(0.0, 1.0, (nf,) * dim)
        P = _interpolation_matrix(n, factor, cells)
        samples = _along_axes(P, np.eye(n**dim).reshape((-1,) + (n,) * dim), dim)
        Smat = samples.reshape(n**dim, -1).T
        oracle = Smat.T @ (w.reshape(-1, 1) * Smat)
        M = grid.form(w)
        assert np.abs(M - oracle).max() <= 1e-13 * np.abs(oracle).max()

    @settings(max_examples=60, deadline=None)
    @given(cells=st.integers(1, 9), m=st.sampled_from([8, 16]), factor=st.floats(1.0, 3.0))
    def test_fine_grid_repeats_cell_by_cell(self, cells, m, factor):
        # the smallest even multiple of the cell count at or above factor * n
        n = cells * m
        nf = _interpolation_rows(n, factor, cells).shape[0] * cells
        step = cells if cells % 2 == 0 else 2 * cells
        assert nf % step == 0 and nf >= factor * n and nf - step < factor * n
        assert nf == _interpolation_matrix(n, factor, cells).shape[0]

    @pytest.mark.parametrize("factor", [1.0, 1.5, 3.0])
    @pytest.mark.parametrize("cells, m", [(8, 16), (64, 16), (3, 8), (5, 8)])
    def test_usual_factors_keep_their_grids(self, cells, m, factor):
        n = cells * m
        assert _interpolation_rows(n, factor, cells).shape[0] * cells == _interpolation_matrix(n, factor).shape[0]

    def test_an_odd_torus_takes_the_next_even_multiple(self, degenerate):
        # Q_3 at M = 8 and factor 1.3: ceil(31.2) = 32 points per axis on
        # one cell's rule, 36 = 12 per cell on the torus
        S, nl2, _, _ = degenerate
        assert _interpolation_matrix(24, 1.3).shape[0] == 32
        assert _eval_grid(_fresh(S), dataclasses.replace(nl2, dealias_factor=1.3)).nf == 36

    def test_factor_one_is_the_identity(self):
        assert np.allclose(_interpolation_rows(24, 1.0, 1), np.eye(24), rtol=0, atol=1e-15)

    def test_the_grid_holds_nothing_of_the_fine_matrix_size(self, potential, nl):
        # at k = 256 and factor 1.5 the nf x n matrix would take 192 MiB;
        # the grid keeps one cell's rows and the fiber table, and a
        # gradient adds nothing to it
        S = diagonalize(potential, TorusDomain(1, 256, 16))
        nl15 = Nonlinearity(dealias_factor=1.5)
        a_gradient(S, nl15, S.a_from_field(_ansatz(S)))
        grid = _eval_grid(S, nl15)
        per_cell, n = 24, S.domain.points_per_axis
        assert grid.nf == 256 * per_cell
        arrays = [x for v in vars(grid).values() for x in (v if isinstance(v, tuple) else (v,))]
        assert max(np.size(x) for x in arrays) <= per_cell * n


class TestInteractionDefect:
    def test_single_summand_has_no_defect(self, S8, nl):
        u = S8.eigenfield(S8.j)
        one = GridField.constant(S8.domain, 1.0)
        assert interaction_defect([u], one, one, nl) == 0.0

    def test_empty_list_rejected(self, S8, nl):
        one = GridField.constant(S8.domain, 1.0)
        with pytest.raises(ValueError):
            interaction_defect([], one, one, nl)

    def test_disjoint_supports_have_tiny_defect(self, S8, nl):
        x = S8.domain.meshgrid()[0]
        left = GridField(S8.domain, np.exp(-((x + 2) ** 2) * 8))
        right = GridField(S8.domain, np.exp(-((x - 2) ** 2) * 8))
        one = GridField.constant(S8.domain, 1.0)
        overlapping = interaction_defect([left, GridField(S8.domain, left.values)], one, one, nl)
        apart = interaction_defect([left, right], one, one, nl)
        assert apart < 1e-6 * overlapping
