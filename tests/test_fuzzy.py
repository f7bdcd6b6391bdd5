import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pmurel.fuzzy import (
    AlphaCutInterval,
    FuzzyIndex,
    TriangularFuzzyNumber,
    alpha_cut,
    defuzzify,
    fuzzy_availability,
    fuzzy_unavailability,
    uniform_alpha_grid,
)

FAILURE = TriangularFuzzyNumber(0.6566, 0.06566)
REPAIR = TriangularFuzzyNumber(22.2898, 2.22898)
CRISP_FAILURE = TriangularFuzzyNumber(0.6566)
CRISP_REPAIR = TriangularFuzzyNumber(22.2898)
# mu / (lambda + mu) at the crisp rates
CRISP_AVAILABILITY = 22.2898 / (22.2898 + 0.6566)

GRID_11 = tuple(i / 10.0 for i in range(11))


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
        cut = alpha_cut(FAILURE, 1.0)
        assert cut.lo == cut.hi == 0.6566

    def test_support_at_alpha_zero(self):
        cut = alpha_cut(FAILURE, 0.0)
        assert cut.lo == pytest.approx(0.59094, abs=1e-12)
        assert cut.hi == pytest.approx(0.72226, abs=1e-12)

    def test_midlevel(self):
        cut = alpha_cut(FAILURE, 0.5)
        assert cut.lo == pytest.approx(0.62377, abs=1e-12)
        assert cut.hi == pytest.approx(0.68943, abs=1e-12)

    @pytest.mark.parametrize("alpha", [-0.1, 1.1, math.nan])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError):
            alpha_cut(FAILURE, alpha)

    def test_nesting_random(self, rng):
        # 50 random fuzzy numbers, 11 alpha levels: higher alpha never widens
        for _ in range(50):
            center = rng.uniform(0.1, 50.0)
            f = TriangularFuzzyNumber(center, rng.uniform(0.0, 1.0) * center)
            outer = alpha_cut(f, 0.0)
            for a_lo, a_hi in zip(GRID_11, GRID_11[1:]):
                lo_cut, hi_cut = alpha_cut(f, a_lo), alpha_cut(f, a_hi)
                assert hi_cut.lo >= lo_cut.lo
                assert hi_cut.hi <= lo_cut.hi
                assert lo_cut.lo >= outer.lo and lo_cut.hi <= outer.hi


class TestAvailability:
    def test_crisp_rates_reproduce_closed_form(self):
        band = fuzzy_availability(CRISP_FAILURE, CRISP_REPAIR, GRID_11)
        for cut in band.cuts:
            assert cut.lo == pytest.approx(CRISP_AVAILABILITY, rel=1e-15)
            assert cut.hi == pytest.approx(CRISP_AVAILABILITY, rel=1e-15)
        assert CRISP_AVAILABILITY == pytest.approx(0.971385, abs=1e-6)

    def test_equal_rates_give_half(self):
        band = fuzzy_availability(
            TriangularFuzzyNumber(3.7), TriangularFuzzyNumber(3.7), GRID_11
        )
        for cut in band.cuts:
            assert cut.lo == 0.5 and cut.hi == 0.5

    def test_band_straddles_crisp_value(self):
        band = fuzzy_availability(FAILURE, REPAIR, GRID_11)
        cut0 = band.cuts[0]
        assert cut0.alpha == 0.0
        assert cut0.lo < CRISP_AVAILABILITY < cut0.hi
        core = band.cuts[-1]
        assert core.lo == pytest.approx(CRISP_AVAILABILITY, rel=1e-15)

    @pytest.mark.parametrize("alpha_index", [0, 5])
    def test_brute_force_grid_containment(self, alpha_index):
        # exact interval image: 100x100 sampling of the rate box stays inside
        # the returned interval and the endpoints sit on box corners
        alpha = GRID_11[alpha_index]
        band = fuzzy_availability(FAILURE, REPAIR, GRID_11)
        cut = band.cuts[alpha_index]
        lam, mu = alpha_cut(FAILURE, alpha), alpha_cut(REPAIR, alpha)
        seen_lo, seen_hi = math.inf, -math.inf
        for i in range(100):
            l = lam.lo + (lam.hi - lam.lo) * i / 99.0
            for j in range(100):
                m = mu.lo + (mu.hi - mu.lo) * j / 99.0
                a = m / (l + m)
                seen_lo, seen_hi = min(seen_lo, a), max(seen_hi, a)
                assert cut.lo - 1e-12 <= a <= cut.hi + 1e-12
        assert seen_lo == pytest.approx(cut.lo, rel=1e-12)
        assert seen_hi == pytest.approx(cut.hi, rel=1e-12)
        assert mu.lo / (mu.lo + lam.hi) == cut.lo
        assert mu.hi / (mu.hi + lam.lo) == cut.hi

    def test_rejects_identically_zero_rates(self):
        zero = TriangularFuzzyNumber(0.0, 0.0)
        with pytest.raises(ValueError):
            fuzzy_availability(zero, zero, GRID_11)

    def test_zero_failure_rate_gives_certain_availability(self):
        band = fuzzy_availability(
            TriangularFuzzyNumber(0.0, 0.0), REPAIR, GRID_11
        )
        for cut in band.cuts:
            assert cut.lo == 1.0 and cut.hi == 1.0

    def test_zero_repair_rate_gives_zero_availability(self):
        band = fuzzy_availability(
            FAILURE, TriangularFuzzyNumber(0.0, 0.0), GRID_11
        )
        for cut in band.cuts:
            assert cut.lo == 0.0 and cut.hi == 0.0

    @pytest.mark.parametrize("grid", [(), (0.5, 0.2), (0.0, 1.5), (0.1, 0.1)])
    def test_rejects_bad_grids(self, grid):
        with pytest.raises(ValueError):
            fuzzy_availability(FAILURE, REPAIR, grid)


# rates log-uniform over [1e-12, 1e12]
RATES = st.floats(-12.0, 12.0).map(lambda e: 10.0**e)


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
            assert band.alphas == grid
            for cut in band.cuts:
                assert cut.lo <= cut.hi
            # nested within the few ulps FuzzyIndex allows
            for outer, inner in zip(band.cuts, band.cuts[1:]):
                assert inner.lo >= outer.lo - 1e-12 and inner.hi <= outer.hi + 1e-12
            core = band.cuts[-1]
            assert core.alpha == 1.0 and core.lo <= value <= core.hi


class TestUnavailability:
    def test_crisp_value(self):
        band = fuzzy_unavailability(CRISP_FAILURE, CRISP_REPAIR, GRID_11)
        for cut in band.cuts:
            assert cut.lo == pytest.approx(1.0 - CRISP_AVAILABILITY, rel=1e-12)
        assert band.cuts[0].lo == pytest.approx(0.028615, abs=1e-6)

    def test_equal_rates(self):
        band = fuzzy_unavailability(
            TriangularFuzzyNumber(1.0), TriangularFuzzyNumber(1.0), GRID_11
        )
        for cut in band.cuts:
            assert cut.lo == 0.5 and cut.hi == 0.5

    def test_complement_identity_exact(self):
        avail = fuzzy_availability(FAILURE, REPAIR, GRID_11)
        unavail = fuzzy_unavailability(FAILURE, REPAIR, GRID_11)
        for a_cut, u_cut in zip(avail.cuts, unavail.cuts):
            assert u_cut.lo == 1.0 - a_cut.hi
            assert u_cut.hi == 1.0 - a_cut.lo


class TestDefuzzify:
    def test_triangle_centroid_is_center(self):
        assert defuzzify(TriangularFuzzyNumber(0.6566, 0.06566)) == 0.6566
        assert defuzzify(TriangularFuzzyNumber(22.2898, 2.22898)) == 22.2898

    def test_crisp_availability_index(self):
        band = fuzzy_availability(CRISP_FAILURE, CRISP_REPAIR, GRID_11)
        assert defuzzify(band) == pytest.approx(CRISP_AVAILABILITY, rel=1e-15)

    def test_symmetric_rate_band(self):
        band = FuzzyIndex(
            "failure-rate", tuple(alpha_cut(FAILURE, a) for a in GRID_11)
        )
        assert defuzzify(band) == pytest.approx(0.6566, rel=1e-15)

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            defuzzify(0.5)


class TestFuzzyIndex:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FuzzyIndex("availability", ())

    def test_rejects_unknown_quantity(self):
        cut = AlphaCutInterval(0.0, 0.1, 0.2)
        with pytest.raises(ValueError):
            FuzzyIndex("volatility", (cut,))

    def test_rejects_non_nested_cuts(self):
        cuts = (
            AlphaCutInterval(0.0, 0.4, 0.6),
            AlphaCutInterval(1.0, 0.3, 0.5),
        )
        with pytest.raises(ValueError):
            FuzzyIndex("failure-rate", cuts)

    def test_rejects_unsorted_alphas(self):
        cuts = (
            AlphaCutInterval(0.5, 0.4, 0.6),
            AlphaCutInterval(0.5, 0.45, 0.55),
        )
        with pytest.raises(ValueError):
            FuzzyIndex("failure-rate", cuts)

    def test_rejects_availability_outside_unit_interval(self):
        with pytest.raises(ValueError):
            FuzzyIndex("availability", (AlphaCutInterval(0.0, 0.5, 1.2),))

    def test_rows_roundtrip(self):
        band = fuzzy_availability(FAILURE, REPAIR, GRID_11)
        rows = band.rows()
        assert len(rows) == 11
        assert rows[0][0] == 0.0 and rows[-1][0] == 1.0
        for (alpha, lo, hi), cut in zip(rows, band.cuts):
            assert (alpha, lo, hi) == (cut.alpha, cut.lo, cut.hi)


class TestAlphaCutInterval:
    def test_rejects_reversed_endpoints(self):
        with pytest.raises(ValueError):
            AlphaCutInterval(0.5, 1.0, 0.5)

    def test_rejects_alpha_outside_unit(self):
        with pytest.raises(ValueError):
            AlphaCutInterval(1.5, 0.0, 1.0)
