import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from gapbumps import presets
from gapbumps.functional import _along_axes, _interpolation_matrix
from gapbumps.operator import (
    NoCertifiedGap,
    NotInvertible,
    PeriodicPotential,
    band_structure,
    diagonalize,
    midgap_shift,
    norm_equivalence_report,
    project_positive,
)
from gapbumps.torus import GridField, TorusDomain, l2_inner, translate
from oracle import eigenfield_matrix, operator_matrix


class TestPotential:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            PeriodicPotential(kind="sawtooth")

    def test_tabulated_needs_samples(self):
        with pytest.raises(ValueError):
            PeriodicPotential(kind="tabulated")

    def test_tabulated_interpolates_its_own_nodes(self):
        nodes = np.arange(8) / 8.0
        vals = np.cos(2 * np.pi * nodes) + 0.3 * np.sin(4 * np.pi * nodes)
        V = PeriodicPotential(kind="tabulated", samples=tuple(vals))
        assert np.allclose(V.profile(nodes), vals, atol=1e-12)

    def test_tabulated_matches_cosine(self):
        nodes = np.arange(16) / 16.0
        tab = PeriodicPotential(kind="tabulated", samples=tuple(np.cos(2 * np.pi * nodes)))
        cos = PeriodicPotential(kind="cosine", amplitude=1.0)
        probe = np.linspace(0, 1, 101)
        assert np.allclose(tab.profile(probe), cos.profile(probe), atol=1e-12)

    def test_axes_restriction(self):
        d = TorusDomain(2, 2, 8)
        V = PeriodicPotential(amplitude=5.0, axes=(0,))
        vals = V.evaluate(d)
        # constant along the second axis by construction
        assert np.allclose(vals, vals[:, :1])

    def test_dict_round_trip(self):
        V = PeriodicPotential(amplitude=30.0, shift=6.9, axes=(0,))
        d = V.to_dict()
        back = PeriodicPotential(
            kind=d["kind"],
            amplitude=d["amplitude"],
            shift=d["shift"],
            axes=tuple(d["axes"]),
        )
        assert back == V


class TestFreeAndConstant:
    def test_zero_potential_puts_zero_in_the_spectrum(self):
        with pytest.raises(NotInvertible):
            diagonalize(PeriodicPotential(), TorusDomain(1, 1, 16))

    def test_constant_one_is_positive_definite(self):
        # V = 1: spectrum {1 + (pi m)^2} on Q_2, no negative directions
        S = diagonalize(PeriodicPotential(shift=-1.0), TorusDomain(1, 2, 16))
        assert S.j == 0
        assert S.has_gap
        assert S.beta == pytest.approx(1.0, abs=1e-10)
        assert S.eigenvalues[0] == pytest.approx(1.0, abs=1e-10)
        assert S.eigenvalues[1] == pytest.approx(1.0 + np.pi**2, rel=1e-12)
        assert S.eigenvalues[2] == pytest.approx(1.0 + np.pi**2, rel=1e-12)

    def test_shift_above_the_spectrum_leaves_no_positive_direction(self):
        # the largest eigenvalue of -Lap on Q_2 at 32 points is (16 pi)^2 < 5000
        S = diagonalize(PeriodicPotential(shift=5000.0), TorusDomain(1, 2, 16))
        assert S.j == S.num_modes
        assert S.beta == np.inf
        assert S.alpha == pytest.approx(5000.0 - (16 * np.pi) ** 2, rel=1e-9)


class TestDecomposition:
    def test_matrix_is_symmetric(self, potential):
        mat = operator_matrix(potential, TorusDomain(1, 2, 16))
        assert np.allclose(mat, mat.T, atol=1e-10)

    def test_eigenvalues_ascending(self, S4):
        assert np.all(np.diff(S4.eigenvalues) >= -1e-12)

    def test_eigenfields_l2_orthonormal(self, S4):
        for i in (0, 3, 17):
            for j in (0, 3, 29):
                got = l2_inner(S4.eigenfield(i), S4.eigenfield(j))
                assert got == pytest.approx(float(i == j), abs=1e-10)

    def test_negative_count_matches_cells(self, S4, S8):
        assert S4.j == 4
        assert S8.j == 8

    def test_gap_is_certified_empty(self, S4):
        lo = min(S4.alpha, S4.beta)
        assert lo > 1.0
        assert np.abs(S4.eigenvalues).min() >= lo - 1e-12

    def test_uncertified_gap_has_its_own_error(self, S4):
        # an uncertified S is a numeric outcome, not a bad argument
        S = dataclasses.replace(S4, gap=None)
        with pytest.raises(NoCertifiedGap):
            S.alpha
        with pytest.raises(NoCertifiedGap):
            project_positive(GridField.zeros(S.domain), S)

    def test_a_field_from_another_domain_is_refused(self, potential):
        # both grids have 128 points: without the check the values are read as S's
        S = diagonalize(potential, TorusDomain(1, 16, 8))
        u = GridField(TorusDomain(1, 8, 16), np.ones(128))
        with pytest.raises(ValueError, match="domains differ"):
            S.a_from_field(u)
        with pytest.raises(ValueError, match="domains differ"):
            project_positive(u, S)

    def test_a_coordinates_round_trip(self, S4, rng):
        a = rng.standard_normal(S4.num_modes)
        back = S4.a_from_field(S4.field_from_a(a))
        assert np.allclose(back, a, atol=1e-9)

    def test_energy_norm_is_euclidean_in_a(self, S4, rng):
        # |||u|||^2 = sum |lambda_i| <u, phi_i>_L2^2 is the Euclidean norm of a
        u = S4.field_from_a(rng.standard_normal(S4.num_modes))
        c = np.array([l2_inner(u, S4.eigenfield(i)) for i in range(S4.num_modes)])
        assert float(np.linalg.norm(S4.a_from_field(u))) ** 2 == pytest.approx(
            float(np.abs(S4.eigenvalues) @ (c * c)), rel=1e-10
        )

    def test_eigenvalues_translation_invariant(self, S8, potential):
        # the lattice shift commutes with the operator, so the shifted
        # eigenfield keeps its Rayleigh quotient; the energy product is
        # the modulus-weighted one, hence |lambda|
        u = S8.eigenfield(5)
        v = translate(u, (3,))
        assert float(np.linalg.norm(S8.a_from_field(v))) ** 2 == pytest.approx(
            abs(S8.eigenvalues[5]), rel=1e-9
        )


def _eigenspaces(vals, tol):
    """Index ranges of clusters of ascending eigenvalues closer than tol."""
    breaks = np.flatnonzero(np.diff(vals) > tol) + 1
    edges = [0, *breaks.tolist(), vals.size]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _cases():
    V = presets.default_potential()
    domain2, V2, _ = presets.degenerate_problem()
    return [
        *((V, TorusDomain(1, k, 16)) for k in (2, 3, 5, 8)),
        (V, TorusDomain(2, 2, 8)),
        (V2, domain2),
    ]


def test_degenerate_shift_is_the_widest_gap_midpoint():
    # the frozen 2-d fixture shift, re-derived from diagonalize: the two
    # eigensolver modes differ at rounding level, far below the tolerance
    V0 = PeriodicPotential(amplitude=presets.AMPLITUDE, shift=0.0, axes=(0,))
    eigs = diagonalize(V0, TorusDomain(2, 3, 8)).eigenvalues
    window = eigs[(eigs > -14.0) & (eigs < 2.0)]
    i = int(np.argmax(np.diff(window)))
    midpoint = 0.5 * (window[i] + window[i + 1])
    assert midpoint == pytest.approx(presets.DEGENERATE_SHIFT, rel=0.0, abs=1e-10)
    domain, V, _ = presets.degenerate_problem()
    assert domain == TorusDomain(2, 3, 8)
    assert V == dataclasses.replace(V0, shift=presets.DEGENERATE_SHIFT)


class TestDenseOracle:
    """The fiber diagonalize against a dense eigensolve of the assembled matrix.

    band_consistency reads the same Bloch fibers on both of its sides, so
    these comparisons with scipy.linalg.eigh(operator_matrix(...)) are the
    independent witness that the fibers reproduce the torus operator. Odd k
    has only the theta = 0 self-conjugate fiber; the 2-d fixture has
    eigenspaces spanning several fibers.
    """

    @pytest.mark.parametrize(
        "V, domain", _cases(), ids=["k2", "k3", "k5", "k8", "2d_k2", "2d_fixture"]
    )
    def test_matches_dense_eigh(self, V, domain):
        A = operator_matrix(V, domain)
        dense_vals, dense_vecs = scipy.linalg.eigh(A)
        S = diagonalize(V, domain)
        E, vals = S.eigenfields, S.eigenvalues
        tol = 1e-13 * np.abs(dense_vals).max()
        assert np.abs(vals - dense_vals).max() <= tol
        # eigenfields are L2-normalized: Euclidean norm M^(dim/2)
        unit = domain.samples_per_cell ** (domain.dim / 2.0)
        assert np.linalg.norm(A @ E - E * vals, axis=0).max() / unit <= tol
        h = domain.spacing**domain.dim
        assert np.abs(h * (E.T @ E) - np.eye(vals.size)).max() <= 1e-13
        # each eigenspace is the dense one, whatever basis spans it
        for block in _eigenspaces(dense_vals, 1e-8 * np.abs(dense_vals).max()):
            P = h * E[:, block] @ E[:, block].T
            Q = dense_vecs[:, block] @ dense_vecs[:, block].T
            assert np.abs(P - Q).max() <= 1e-9

    def test_large_torus_sampled_columns(self, potential):
        domain = TorusDomain(1, 128, 16)
        S = diagonalize(potential, domain)
        assert S.j == 128
        assert np.all(np.diff(S.eigenvalues) >= 0.0)
        cols = np.random.default_rng(0).choice(S.num_modes, 64, replace=False)
        E = S.eigenfields[:, cols]
        gram = domain.spacing * (E.T @ E)
        assert np.abs(gram - np.eye(cols.size)).max() <= 1e-13


def _transform_case(case, S8, S64, degenerate):
    """(S, fine interpolation matrix P) of a case: 1-d at factor 1.5, the
    2-d fixture at its own factor 3."""
    if case == "2d_fixture":
        S = degenerate[0]
        return S, _interpolation_matrix(S.domain.points_per_axis, 3.0, S.domain.cells)
    S = {"1d_k8": S8, "1d_k64": S64}[case]
    return S, _interpolation_matrix(S.domain.points_per_axis, 1.5, S.domain.cells)


class TestFiberTransforms:
    """The transforms run per fiber plus an FFT over the cell axes, and
    a_rows and S.eigenfields gather rows from the fibers; the eigenfield
    matrix E built from the Bloch waves on the whole grid is their oracle,
    to rounding."""

    CASES = ["1d_k8", "1d_k64", "2d_fixture"]

    @staticmethod
    def _close(got, want):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("case", CASES)
    def test_transforms_match_the_dense_matrix(self, S8, S64, degenerate, rng, case):
        S, _ = _transform_case(case, S8, S64, degenerate)
        E, w, h = eigenfield_matrix(S), S.weights, S.domain.spacing**S.domain.dim
        a, x = rng.standard_normal(S.num_modes), rng.standard_normal(S.num_modes)
        self._close(S.values_from_a(a).reshape(-1), E @ (a / w))
        self._close(S.a_from_values(x.reshape(S.domain.shape)), w * (h * (E.T @ x)))
        self._close(S.a_from_dual(x), (E.T @ x) / w)
        self._close(S.eigenfield(5).flat, E[:, 5])
        self._close(S.eigenfields, E)

    @pytest.mark.parametrize("grid", ["torus", "fine"])
    @pytest.mark.parametrize("case", CASES)
    def test_rows_match_the_dense_matrix(self, S8, S64, degenerate, rng, case, grid):
        S, P = _transform_case(case, S8, S64, degenerate)
        E, dim = eigenfield_matrix(S), S.domain.dim
        if grid == "torus":
            P, QE = None, E
        else:
            QE = _along_axes(P, E.T.reshape((-1,) + S.domain.shape), dim).reshape(S.num_modes, -1).T
        points = rng.choice(QE.shape[0], 40, replace=False)
        scale = rng.uniform(0.5, 2.0, points.size)
        self._close(S.a_rows(points, scale, P), QE[points] * scale[:, None] / S.weights)

    def test_the_dense_matrix_is_built_on_first_access_only(self, potential, rng):
        S = diagonalize(potential, TorusDomain(1, 16, 16))
        S.a_from_dual(S.values_from_a(rng.standard_normal(S.num_modes)))
        assert "eigenfields" not in vars(S)
        E = S.eigenfields
        assert S.eigenfields is E and not E.flags.writeable


_TRANSLATION_DOMAINS = {"1d_k8": (1, 8, 16), "1d_k9": (1, 9, 16), "2d_k3": (2, 3, 8), "2d_k4": (2, 4, 8)}


@pytest.fixture(scope="module")
def translation_cases(S8, degenerate):
    """Decompositions of even and odd 1-d tori and 2-d ones: the fixture's
    own (k = 3) and its potential on k = 4."""
    V2 = degenerate[0].potential
    cases = {"1d_k8": S8, "2d_k3": degenerate[0]}
    for name in ("1d_k9", "2d_k4"):
        dim, k, m = _TRANSLATION_DOMAINS[name]
        cases[name] = diagonalize(presets.default_potential() if dim == 1 else V2, TorusDomain(dim, k, m))
    return cases


class TestTranslations:
    """A lattice shift turns each Bloch pair of a-coordinates; a shift on the
    grid followed by a transform is its oracle, to rounding."""

    @pytest.mark.parametrize("case", ["1d_k8", "1d_k9", "2d_k3"])
    def test_rotation_matches_the_grid_shift(self, translation_cases, rng, case):
        S = translation_cases[case]
        u = GridField(S.domain, rng.standard_normal(S.domain.shape))
        a = S.a_from_field(u)
        for b in np.ndindex(*(S.domain.cells,) * S.domain.dim):
            want = S.a_from_field(translate(u, tuple(-c for c in b)))  # u(. - b)
            assert np.linalg.norm(S.translate(a, b) - want) <= 1e-14 * np.linalg.norm(want)

    def test_columns_turn_together(self, translation_cases, rng):
        S = translation_cases["2d_k3"]
        A = rng.standard_normal((S.num_modes, 3))
        got = S.translate(A, (1, 2))
        for j in range(3):
            assert np.array_equal(got[:, j], S.translate(A[:, j], (1, 2)))
        assert S.translate(A[:, :0], (1, 2)).shape == (S.num_modes, 0)

    def test_wrong_length_shift_raises(self, S8):
        with pytest.raises(ValueError, match="components"):
            S8.translate(np.zeros(S8.num_modes), (1, 0))

    @pytest.mark.parametrize("case", ["1d_k9", "2d_k4"])
    def test_overlaps_are_the_inner_products_with_every_translate(self, translation_cases, rng, case):
        S = translation_cases[case]
        a, c = rng.standard_normal(S.num_modes), rng.standard_normal(S.num_modes)
        want = [a @ S.translate(c, tuple(-i for i in n)) for n in np.ndindex(*(S.domain.cells,) * S.domain.dim)]
        assert np.abs(S.overlaps(a, c) - want).max() <= 1e-13 * np.linalg.norm(a) * np.linalg.norm(c)

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(sorted(_TRANSLATION_DOMAINS)),
        st.integers(0, 2**32 - 1),
        st.lists(st.integers(-12, 12), min_size=4, max_size=4),
    )
    def test_group_laws(self, translation_cases, case, seed, shifts):
        S = translation_cases[case]
        dim, k = S.domain.dim, S.domain.cells
        a = np.random.default_rng(seed).standard_normal(S.num_modes)
        b, c = np.array(shifts[:dim]), np.array(shifts[2 : 2 + dim])
        scale = np.linalg.norm(a)
        # T_b T_c = T_{b+c}
        assert np.linalg.norm(S.translate(S.translate(a, c), b) - S.translate(a, b + c)) <= 1e-14 * scale
        # a whole period on any axis is the identity
        for ax in range(dim):
            period = np.zeros(dim, dtype=int)
            period[ax] = shifts[ax] * k
            assert np.array_equal(S.translate(a, period), a)
        # a shift is an isometry of the energy norm
        assert np.linalg.norm(S.translate(a, b)) == pytest.approx(scale, rel=1e-14)


class TestSplitting:
    def test_projections_are_complementary(self, S4, rng):
        u = S4.field_from_a(rng.standard_normal(S4.num_modes))
        plus = project_positive(u, S4)
        minus = S4.field_from_a(S4.a_from_field(u) * (S4.signs < 0))
        assert np.allclose(plus.values + minus.values, u.values, atol=1e-9)
        assert abs(float(S4.a_from_field(plus) @ S4.a_from_field(minus))) < 1e-10

    def test_quadratic_form_signs(self, S4, rng):
        u = S4.field_from_a(rng.standard_normal(S4.num_modes))
        a_plus = S4.a_from_field(project_positive(u, S4))
        a_minus = S4.a_from_field(u) * (S4.signs < 0)
        quad = float(S4.signs @ (S4.a_from_field(u) ** 2))
        assert quad == pytest.approx(
            float(a_plus @ a_plus) - float(a_minus @ a_minus), rel=1e-9
        )


class TestBands:
    def test_default_potential_has_a_gap_at_zero(self, potential):
        (lo1, hi1), (lo2, hi2) = band_structure(potential, 2, 32, 32)
        assert hi1 < 0.0 < lo2

    def test_midgap_shift_centers_zero(self):
        s = midgap_shift(30.0)
        shifted = PeriodicPotential(amplitude=30.0, shift=s)
        (_, hi1), (lo2, _) = band_structure(shifted, 2, 32, 32)
        assert hi1 + lo2 == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("amplitude", [1.0, 5.0, 12.0, 30.0, 60.0, 120.0])
    def test_midgap_shift_matches_the_full_quasimomentum_scan(self, amplitude):
        # band edges sit at theta in {0, pi}: the two-fiber shift equals
        # the midpoint of a 64-point scan bit for bit
        raw = PeriodicPotential(amplitude=amplitude)
        (_, hi1), (lo2, _) = band_structure(raw, 2, 64, 64)
        assert midgap_shift(amplitude) == 0.5 * (hi1 + lo2)

    def test_midgap_shift_on_two_axes_centres_the_2d_gap(self):
        # the separable 2-d bands are Minkowski sums of the 1-d ones
        S = diagonalize(PeriodicPotential(amplitude=30.0, shift=midgap_shift(30.0, 2)), TorusDomain(2, 4, 8))
        assert S.alpha == pytest.approx(S.beta, rel=1e-6)
        with pytest.raises(ValueError, match="no gap"):
            midgap_shift(5.0, 2)  # there is a 1-d gap, but twice band 1 reaches band 2

    def test_no_gap_for_the_free_operator(self):
        with pytest.raises(ValueError):
            midgap_shift(0.0)

    def test_band_count_guard(self, potential):
        with pytest.raises(ValueError):
            band_structure(potential, bands=40, quasimomenta=8, modes=16)


class TestNormEquivalence:
    def test_bounds_bracket_one_sided_samples(self, S4):
        lo, hi = norm_equivalence_report(S4)
        assert 0.0 < lo < hi
