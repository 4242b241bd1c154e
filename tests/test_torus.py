import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapbumps.torus import (
    CUTOFF_GRAD_BOUND,
    GridField,
    TorusDomain,
    cutoff_field,
    embed_with_cutoff,
    h1_norm,
    integrate,
    l2_inner,
    l2_norm,
    spectral_gradient,
    translate,
)


def gaussian(domain, width=0.5):
    sq = sum(x**2 for x in domain.meshgrid())
    return GridField(domain, np.exp(-sq / (2 * width**2)))


class TestDomain:
    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            TorusDomain(3, 4, 16)

    def test_rejects_non_power_of_two_samples(self):
        with pytest.raises(ValueError):
            TorusDomain(1, 4, 12)

    def test_axis_covers_the_cube(self):
        d = TorusDomain(1, 4, 16)
        x = d.axis_coords()
        assert x[0] == -2.0
        assert x[-1] == 2.0 - d.spacing
        assert len(x) == 64

    def test_grids_of_different_sizes_share_sample_locations(self):
        small = set(np.round(TorusDomain(1, 4, 16).axis_coords(), 12))
        big = set(np.round(TorusDomain(1, 8, 16).axis_coords(), 12))
        assert small <= big


class TestGridField:
    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            GridField(TorusDomain(1, 2, 16), np.zeros(7))

    def test_nan_rejected(self):
        vals = np.zeros(32)
        vals[3] = np.nan
        with pytest.raises(ValueError):
            GridField(TorusDomain(1, 2, 16), vals)

    def test_values_frozen(self):
        f = GridField.zeros(TorusDomain(1, 2, 16))
        with pytest.raises(ValueError):
            f.values[0] = 1.0


class TestQuadrature:
    def test_integral_of_one_is_the_volume(self):
        for dim, cells in ((1, 4), (2, 3)):
            d = TorusDomain(dim, cells, 8)
            assert integrate(GridField.constant(d, 1.0)) == pytest.approx(cells**dim)

    def test_oscillation_integrates_to_zero(self):
        d = TorusDomain(1, 4, 16)
        f = GridField.from_function(d, lambda x: np.cos(2 * np.pi * x))
        assert abs(integrate(f)) < 1e-13

    def test_parseval(self, rng):
        d = TorusDomain(1, 2, 16)
        f = GridField(d, rng.standard_normal(d.shape))
        spec = np.fft.fft(f.values) / f.values.size
        assert l2_norm(f) ** 2 == pytest.approx(
            d.volume * float(np.sum(np.abs(spec) ** 2)), rel=1e-12
        )


class TestTranslate:
    def test_full_period_is_identity(self):
        d = TorusDomain(1, 4, 8)
        f = gaussian(d)
        assert np.array_equal(translate(f, (4,)).values, f.values)

    def test_composition(self):
        d = TorusDomain(2, 3, 8)
        f = gaussian(d)
        one_step = translate(translate(f, (1, 0)), (0, 2))
        assert np.array_equal(one_step.values, translate(f, (1, 2)).values)

    def test_moves_the_peak_the_right_way(self):
        # f(. + b) carries the feature at b to the origin
        d = TorusDomain(1, 8, 16)
        sq = (d.axis_coords() - 2.0) ** 2
        f = GridField(d, np.exp(-sq))
        g = translate(f, (2,))
        x = d.axis_coords()
        assert x[np.argmax(g.values)] == 0.0

    def test_preserves_integrals(self):
        d = TorusDomain(1, 4, 8)
        f = gaussian(d)
        assert integrate(translate(f, (3,))) == pytest.approx(integrate(f), rel=1e-14)

    def test_wrong_dim_rejected(self):
        with pytest.raises(ValueError):
            translate(gaussian(TorusDomain(1, 4, 8)), (1, 1))


@st.composite
def _field_and_shifts(draw, count):
    """A random field on a random 1-d or 2-d torus, and `count` integer shifts."""
    dim = draw(st.sampled_from([1, 2]), label="dim")
    d = TorusDomain(dim, draw(st.integers(1, 5), label="cells"), draw(st.sampled_from([8, 16])))
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    f = GridField(d, np.random.default_rng(seed).standard_normal(d.shape))
    lattice = st.tuples(*[st.integers(-12, 12)] * dim)
    return f, [np.array(draw(lattice, label="shift")) for _ in range(count)]


class TestTranslateGroupLaws:
    """translate is a circular shift, so the laws hold with exact equality."""

    @settings(max_examples=40, deadline=None)
    @given(_field_and_shifts(2))
    def test_composition_adds_shifts(self, case):
        f, (b, c) = case
        assert np.array_equal(translate(translate(f, b), c).values, translate(f, b + c).values)

    @settings(max_examples=40, deadline=None)
    @given(_field_and_shifts(0), st.integers(-3, 3), st.data())
    def test_zero_and_whole_periods_are_the_identity(self, case, m, data):
        f, _ = case
        d = f.domain
        assert np.array_equal(translate(f, np.zeros(d.dim, dtype=int)).values, f.values)
        i = data.draw(st.integers(0, d.dim - 1), label="axis")
        period = np.zeros(d.dim, dtype=int)
        period[i] = m * d.cells
        assert np.array_equal(translate(f, period).values, f.values)

    @settings(max_examples=40, deadline=None)
    @given(_field_and_shifts(1))
    def test_the_opposite_shift_is_the_inverse(self, case):
        f, (b,) = case
        assert np.array_equal(translate(translate(f, b), -b).values, f.values)

    @settings(max_examples=20, deadline=None)
    @given(_field_and_shifts(0), st.data())
    def test_wrong_length_shift_raises(self, case, data):
        f, _ = case
        length = data.draw(st.integers(0, 4).filter(lambda n: n != f.domain.dim), label="length")
        with pytest.raises(ValueError):
            translate(f, np.ones(length, dtype=int))


class TestCutoffAndEmbedding:
    def test_cutoff_plateau_and_support(self):
        d = TorusDomain(1, 8, 16)
        chi = cutoff_field(d).values
        x = d.axis_coords()
        assert np.all(chi[np.abs(x) <= 3.5] == 1.0)
        assert np.all(chi[np.abs(x) >= 4.0] == 0.0)
        assert np.all((0.0 <= chi) & (chi <= 1.0))

    def test_cutoff_gradient_bound(self):
        # the quintic ramp keeps |chi'| <= 15/4 regardless of k
        for cells in (4, 8, 16):
            d = TorusDomain(1, cells, 32)
            g = spectral_gradient(cutoff_field(d))[0]
            assert np.abs(g.values).max() <= CUTOFF_GRAD_BOUND * 1.01

    def test_embedding_is_exact_on_the_plateau(self):
        src = TorusDomain(1, 8, 16)
        tgt = TorusDomain(1, 16, 16)
        f = gaussian(src)
        g = embed_with_cutoff(f, tgt)
        xs = src.axis_coords()
        xt = tgt.axis_coords()
        inner_s = np.abs(xs) <= 3.5
        inner_t = np.abs(xt) <= 3.5
        assert np.allclose(g.values[inner_t], f.values[inner_s], atol=0, rtol=0)
        assert np.all(g.values[np.abs(xt) >= 4.0] == 0.0)

    def test_embedding_into_same_size_just_cuts(self):
        d = TorusDomain(1, 4, 8)
        f = GridField.constant(d, 2.0)
        g = embed_with_cutoff(f, d)
        assert np.array_equal(g.values, 2.0 * cutoff_field(d).values)

    def test_shrinking_rejected(self):
        f = gaussian(TorusDomain(1, 8, 8))
        with pytest.raises(ValueError):
            embed_with_cutoff(f, TorusDomain(1, 4, 8))

    def test_mismatched_sampling_rejected(self):
        f = gaussian(TorusDomain(1, 4, 8))
        with pytest.raises(ValueError):
            embed_with_cutoff(f, TorusDomain(1, 8, 16))


class TestCalculusOnTheGrid:
    def test_gradient_of_plane_wave_is_exact(self):
        d = TorusDomain(1, 2, 16)
        xi = 2 * np.pi * 3 / 2  # third mode on Q_2
        f = GridField.from_function(d, lambda x: np.sin(xi * x))
        g = spectral_gradient(f)[0]
        expect = xi * np.cos(xi * d.axis_coords())
        assert np.allclose(g.values, expect, atol=1e-11)

    def test_gradient_integrates_to_zero(self, rng):
        d = TorusDomain(2, 2, 8)
        f = GridField(d, rng.standard_normal(d.shape))
        for g in spectral_gradient(f):
            assert abs(integrate(g)) < 1e-12

    def test_h1_dominates_l2(self, rng):
        d = TorusDomain(1, 4, 8)
        f = GridField(d, rng.standard_normal(d.shape))
        assert h1_norm(f) >= l2_norm(f)

    def test_integration_by_parts(self, rng):
        d = TorusDomain(1, 2, 16)
        f = GridField(d, rng.standard_normal(d.shape))
        g = GridField(d, rng.standard_normal(d.shape))
        df = spectral_gradient(f)[0]
        dg = spectral_gradient(g)[0]
        assert l2_inner(df, g) == pytest.approx(-l2_inner(f, dg), abs=1e-11)
