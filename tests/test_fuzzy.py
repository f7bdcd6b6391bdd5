import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pmurel.fuzzy import (
    DEFAULT_ALPHA_GRID,
    TriangularFuzzyNumber,
    alpha_cut,
    defuzzify,
    fuzzy_availability,
    fuzzy_unavailability,
    _band,
    uniform_alpha_grid,
)

FAILURE = TriangularFuzzyNumber(0.6566, 0.06566)
REPAIR = TriangularFuzzyNumber(22.2898, 2.22898)
CRISP_FAILURE = TriangularFuzzyNumber(0.6566)
CRISP_REPAIR = TriangularFuzzyNumber(22.2898)
# mu / (lambda + mu) at the crisp rates
CRISP_AVAILABILITY = 22.2898 / (22.2898 + 0.6566)

GRID_11 = tuple(i / 10.0 for i in range(11))

# each grid the band rule rejects, and its message
BAD_GRIDS = {
    (): (ValueError, "a band needs at least one alpha level"),
    (0.5, 0.2): (ValueError, r"level 1: alpha levels must be strictly increasing, got 0.2 after 0.5"),
    (0.0, 1.5): (ValueError, r"level 1: alpha must lie in \[0, 1\], got 1.5"),
    (0.1, 0.1): (ValueError, r"level 1: alpha levels must be strictly increasing, got 0.1 after 0.1"),
    # a scalar is not a grid of one level, nor are rows a grid
    0.5: (TypeError, r"an alpha grid is a 1-D sequence of levels, got shape \(\)"),
    ((0.0, 1.0),): (TypeError, r"an alpha grid is a 1-D sequence of levels, got shape \(1, 2\)"),
    (10**400,): (ValueError, "level 0: alpha must be finite, got an integer too large for a float"),
}


class TestTriangularFuzzyNumber:
    def test_rejects_negative_halfwidth(self):
        with pytest.raises(ValueError):
            TriangularFuzzyNumber(1.0, -0.1)

    def test_rejects_support_below_zero(self):
        with pytest.raises(ValueError):
            TriangularFuzzyNumber(0.5, 0.6)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            TriangularFuzzyNumber(math.nan, 0.0)
        with pytest.raises(ValueError):
            TriangularFuzzyNumber(1.0, math.nan)

    def test_membership_shape(self):
        f = TriangularFuzzyNumber(2.0, 1.0)
        assert f.membership(2.0) == 1.0
        assert f.membership(1.0) == 0.0
        assert f.membership(3.0) == 0.0
        assert f.membership(2.5) == pytest.approx(0.5)
        assert f.membership(5.0) == 0.0

    def test_crisp_membership(self):
        f = TriangularFuzzyNumber(2.0, 0.0)
        assert f.membership(2.0) == 1.0
        assert f.membership(2.0000001) == 0.0


class TestAlphaCut:
    def test_core_collapses_at_alpha_one(self):
        assert alpha_cut(FAILURE, (1.0,)).tolist() == [[1.0, 0.6566, 0.6566]]

    def test_support_at_alpha_zero(self):
        (alpha, lo, hi), = alpha_cut(FAILURE, (0.0,))
        assert alpha == 0.0
        assert lo == pytest.approx(0.59094, abs=1e-12)
        assert hi == pytest.approx(0.72226, abs=1e-12)

    def test_midlevel(self):
        (_, lo, hi), = alpha_cut(FAILURE, (0.5,))
        assert lo == pytest.approx(0.62377, abs=1e-12)
        assert hi == pytest.approx(0.68943, abs=1e-12)

    @pytest.mark.parametrize("alpha", [-0.1, 1.1, math.nan])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError, match=rf"^level 1: alpha must lie in \[0, 1\], got {alpha}$"):
            alpha_cut(FAILURE, (0.0, alpha))

    def test_is_a_read_only_array_of_alpha_lo_hi_rows(self):
        band = alpha_cut(FAILURE)
        assert band.dtype == np.float64 and band.shape == (11, 3)
        assert band[:, 0].tolist() == list(DEFAULT_ALPHA_GRID) == list(GRID_11)
        with pytest.raises(ValueError):
            band[0, 1] = 0.0

    def test_nesting_random(self, rng):
        # 50 random fuzzy numbers, 11 alpha levels: higher alpha never widens
        for _ in range(50):
            center = rng.uniform(0.1, 50.0)
            _, lo, hi = alpha_cut(TriangularFuzzyNumber(center, rng.uniform(0.0, 1.0) * center), GRID_11).T
            assert np.all(lo[1:] >= lo[:-1]) and np.all(hi[1:] <= hi[:-1])
            assert np.all(lo >= lo[0]) and np.all(hi <= hi[0])


class TestAvailability:
    def test_crisp_rates_reproduce_closed_form(self):
        band = fuzzy_availability(CRISP_FAILURE, CRISP_REPAIR, GRID_11)
        assert band[:, 1:] == pytest.approx(np.full((11, 2), CRISP_AVAILABILITY), rel=1e-15)
        assert CRISP_AVAILABILITY == pytest.approx(0.971385, abs=1e-6)

    def test_equal_rates_give_half(self):
        band = fuzzy_availability(
            TriangularFuzzyNumber(3.7), TriangularFuzzyNumber(3.7), GRID_11
        )
        assert np.all(band[:, 1:] == 0.5)

    def test_band_straddles_crisp_value(self):
        band = fuzzy_availability(FAILURE, REPAIR, GRID_11)
        alpha, lo, hi = band[0]
        assert alpha == 0.0
        assert lo < CRISP_AVAILABILITY < hi
        assert band[-1, 1] == pytest.approx(CRISP_AVAILABILITY, rel=1e-15)

    @pytest.mark.parametrize("alpha_index", [0, 5])
    def test_brute_force_grid_containment(self, alpha_index):
        # exact interval image: 100x100 sampling of the rate box stays inside
        # the returned interval and the endpoints sit on box corners
        alpha = GRID_11[alpha_index]
        _, cut_lo, cut_hi = fuzzy_availability(FAILURE, REPAIR, GRID_11)[alpha_index]
        (_, lam_lo, lam_hi), = alpha_cut(FAILURE, (alpha,)).tolist()
        (_, mu_lo, mu_hi), = alpha_cut(REPAIR, (alpha,)).tolist()
        seen_lo, seen_hi = math.inf, -math.inf
        for i in range(100):
            l = lam_lo + (lam_hi - lam_lo) * i / 99.0
            for j in range(100):
                m = mu_lo + (mu_hi - mu_lo) * j / 99.0
                a = m / (l + m)
                seen_lo, seen_hi = min(seen_lo, a), max(seen_hi, a)
                assert cut_lo - 1e-12 <= a <= cut_hi + 1e-12
        assert seen_lo == pytest.approx(cut_lo, rel=1e-12)
        assert seen_hi == pytest.approx(cut_hi, rel=1e-12)
        assert mu_lo / (mu_lo + lam_hi) == cut_lo
        assert mu_hi / (mu_hi + lam_lo) == cut_hi

    def test_rejects_identically_zero_rates(self):
        zero = TriangularFuzzyNumber(0.0, 0.0)
        with pytest.raises(ValueError, match="^level 0: availability undefined: failure and repair rates "
                                             "are both identically zero at alpha=0.0$"):
            fuzzy_availability(zero, zero, GRID_11)

    def test_zero_failure_rate_gives_certain_availability(self):
        band = fuzzy_availability(
            TriangularFuzzyNumber(0.0, 0.0), REPAIR, GRID_11
        )
        assert np.all(band[:, 1:] == 1.0)

    def test_zero_repair_rate_gives_zero_availability(self):
        band = fuzzy_availability(
            FAILURE, TriangularFuzzyNumber(0.0, 0.0), GRID_11
        )
        assert np.all(band[:, 1:] == 0.0)

    @pytest.mark.parametrize("grid", list(BAD_GRIDS))
    def test_rejects_bad_grids(self, grid):
        for band in (
            lambda: alpha_cut(FAILURE, grid),
            lambda: fuzzy_availability(FAILURE, REPAIR, grid),
            lambda: fuzzy_unavailability(FAILURE, REPAIR, grid),
        ):
            error, message = BAD_GRIDS[grid]
            with pytest.raises(error, match=f"^{message}$"):
                band()


# rates log-uniform over [1e-12, 1e12]
RATES = st.floats(-12.0, 12.0).map(lambda e: 10.0**e)


def assert_ordered_and_nested(band, grid):
    """``band`` is a read-only (levels, 3) float64 array over ``grid``, each
    cut in order and nested in the one before it within the band rule's
    few ulps."""
    assert band.dtype == np.float64 and not band.flags.writeable
    alpha, lo, hi = band.T
    assert alpha.tolist() == list(grid)
    assert np.all(lo <= hi)
    assert np.all(lo[1:] >= lo[:-1] - 1e-12) and np.all(hi[1:] <= hi[:-1] + 1e-12)


class TestBandsOverAllRates:
    @settings(max_examples=300, deadline=None)
    @given(lam=RATES, mu=RATES, fraction=st.floats(0.0, 1.0, exclude_max=True), levels=st.integers(1, 40))
    # lambda/mu near 1e-16: both corners round to within an ulp of 1, in
    # either order
    @example(lam=1.11e-9, mu=8.5e6, fraction=0.1, levels=11)
    def test_cuts_are_ordered_nested_and_hold_the_crisp_value(self, lam, mu, fraction, levels):
        failure = TriangularFuzzyNumber(lam, fraction * lam)
        repair = TriangularFuzzyNumber(mu, fraction * mu)
        grid = uniform_alpha_grid(levels)
        crisp = mu / (lam + mu)
        for band, value in ((fuzzy_availability(failure, repair, grid), crisp),
                            (fuzzy_unavailability(failure, repair, grid), 1.0 - crisp)):
            assert_ordered_and_nested(band, grid)
            alpha, lo, hi = band[-1]
            assert alpha == 1.0 and lo <= value <= hi

    @settings(max_examples=300, deadline=None)
    @given(rate=RATES, fraction=st.floats(0.0, 1.0), levels=st.integers(1, 40))
    # a support that reaches zero
    @example(rate=1e-12, fraction=1.0, levels=40)
    def test_rate_cuts_are_ordered_nested_and_hold_the_center(self, rate, fraction, levels):
        grid = uniform_alpha_grid(levels)
        band = alpha_cut(TriangularFuzzyNumber(rate, fraction * rate), grid)
        assert_ordered_and_nested(band, grid)
        assert band[0, 1] >= 0.0
        assert band[-1].tolist() == [1.0, rate, rate]


def scalar_bands(failure, repair, grid):
    """The four bands of ``failure`` and ``repair`` as (alpha, lo, hi) rows,
    level by level in plain floats: the reference the numpy bands equal."""
    bands = ([], [], [], [])
    for a in grid:
        spreads = [(1.0 - a) * f.halfwidth for f in (failure, repair)]
        cuts = [(f.center - s, f.center + s) for f, s in zip((failure, repair), spreads)]
        (lam_lo, lam_hi), (mu_lo, mu_hi) = cuts
        lo = mu_lo / (mu_lo + lam_hi) if mu_lo + lam_hi > 0.0 else 1.0
        hi = mu_hi / (mu_hi + lam_lo) if mu_hi + lam_lo > 0.0 else 0.0
        lo, hi = min(lo, hi), max(lo, hi)
        for band, (band_lo, band_hi) in zip(bands, cuts + [(lo, hi), (1.0 - hi, 1.0 - lo)]):
            band.append([a, band_lo, band_hi])
    return list(bands)


class TestScalarReference:
    @settings(max_examples=300, deadline=None)
    @given(lam=st.one_of(st.just(0.0), RATES), mu=RATES, fraction=st.floats(0.0, 1.0),
           levels=st.integers(1, 40), repair_first=st.booleans())
    def test_bands_equal_the_per_level_loop(self, lam, mu, fraction, levels, repair_first):
        if repair_first:
            # the zero rate is the repair rate
            lam, mu = mu, lam
        failure = TriangularFuzzyNumber(lam, fraction * lam)
        repair = TriangularFuzzyNumber(mu, fraction * mu)
        grid = uniform_alpha_grid(levels)
        bands = [alpha_cut(failure, grid), alpha_cut(repair, grid),
                 fuzzy_availability(failure, repair, grid), fuzzy_unavailability(failure, repair, grid)]
        assert [band.tolist() for band in bands] == scalar_bands(failure, repair, grid)
        mids = [[0.5 * (lo + hi) for _, lo, hi in rows] for rows in scalar_bands(failure, repair, grid)]
        assert [defuzzify(band) for band in bands] == [math.fsum(m) / len(m) for m in mids]


class TestUnavailability:
    def test_crisp_value(self):
        band = fuzzy_unavailability(CRISP_FAILURE, CRISP_REPAIR, GRID_11)
        assert band[:, 1] == pytest.approx(np.full(11, 1.0 - CRISP_AVAILABILITY), rel=1e-12)
        assert band[0, 1] == pytest.approx(0.028615, abs=1e-6)

    def test_equal_rates(self):
        band = fuzzy_unavailability(
            TriangularFuzzyNumber(1.0), TriangularFuzzyNumber(1.0), GRID_11
        )
        assert np.all(band[:, 1:] == 0.5)

    def test_complement_identity_exact(self):
        avail = fuzzy_availability(FAILURE, REPAIR, GRID_11)
        unavail = fuzzy_unavailability(FAILURE, REPAIR, GRID_11)
        assert np.array_equal(unavail[:, 0], avail[:, 0])
        assert np.array_equal(unavail[:, 1], 1.0 - avail[:, 2])
        assert np.array_equal(unavail[:, 2], 1.0 - avail[:, 1])


class TestDefuzzify:
    def test_triangle_centroid_is_center(self):
        assert defuzzify(TriangularFuzzyNumber(0.6566, 0.06566)) == 0.6566
        assert defuzzify(TriangularFuzzyNumber(22.2898, 2.22898)) == 22.2898

    def test_crisp_availability_index(self):
        band = fuzzy_availability(CRISP_FAILURE, CRISP_REPAIR, GRID_11)
        assert defuzzify(band) == pytest.approx(CRISP_AVAILABILITY, rel=1e-15)

    def test_symmetric_rate_band(self):
        band = alpha_cut(FAILURE, GRID_11)
        assert defuzzify(band) == pytest.approx(0.6566, rel=1e-15)
        # rows that make a band are the band
        assert defuzzify(band.tolist()) == defuzzify(band)

    def test_rejects_other_types(self):
        for value in (0.5, [0.0, 0.1, 0.2], [[0.0, 0.1]]):
            with pytest.raises(TypeError, match=r"^a band is a \(levels, 3\) array of \(alpha, lo, hi\) rows, "):
                defuzzify(value)


class TestFuzzyIndex:
    """The band rule over a whole band, as defuzzify meets it: what the
    FuzzyIndex type checked before bands were arrays."""

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="^a band needs at least one alpha level$"):
            defuzzify(np.empty((0, 3)))

    def test_rejects_non_nested_cuts(self):
        # the first level that breaks the rule is named
        with pytest.raises(ValueError, match=r"^level 2: alpha-cuts are not nested at alpha=1.0$"):
            defuzzify([(0.0, 0.4, 0.6), (0.5, 0.45, 0.55), (1.0, 0.3, 0.5)])

    def test_rejects_unsorted_alphas(self):
        message = "^level 1: alpha levels must be strictly increasing, got 0.5 after 0.5$"
        with pytest.raises(ValueError, match=message):
            defuzzify([(0.5, 0.4, 0.6), (0.5, 0.45, 0.55)])

    def test_nesting_allows_a_few_ulps(self):
        assert defuzzify([(0.0, 0.4, 0.6), (1.0, 0.4 - 1e-13, 0.6 + 1e-13)]) == pytest.approx(0.5)

    def test_rejects_availability_outside_unit_interval(self):
        # the corner formulas stay in [0, 1], so the rule is met directly
        for quantity in ("availability", "unavailability"):
            message = rf"^level 0: {quantity} values must lie in \[0, 1\], got \[0.0, 1.5\] at alpha=0.0$"
            with pytest.raises(ValueError, match=message):
                _band([(0.0, 0.0, 1.5), (1.0, 0.5, 0.5)], quantity)
        # a rate band may leave [0, 1]
        assert _band([(1.0, -0.5, 1.5)]).tolist() == [[1.0, -0.5, 1.5]]

    def test_rows_roundtrip(self):
        band = fuzzy_availability(FAILURE, REPAIR, GRID_11)
        rows = band.tolist()
        assert len(rows) == 11
        assert rows[0][0] == 0.0 and rows[-1][0] == 1.0
        for (alpha, lo, hi), row in zip(rows, band):
            assert (alpha, lo, hi) == tuple(row)


class TestAlphaCutInterval:
    """The band rule on one level: what the AlphaCutInterval type checked
    before bands were arrays."""

    def test_rejects_reversed_endpoints(self):
        with pytest.raises(ValueError, match=r"^level 0: interval endpoints out of order: \[1.0, 0.5\]$"):
            defuzzify([(0.5, 1.0, 0.5)])

    def test_rejects_alpha_outside_unit(self):
        with pytest.raises(ValueError, match=r"^level 0: alpha must lie in \[0, 1\], got 1.5$"):
            defuzzify([(1.5, 0.0, 1.0)])
