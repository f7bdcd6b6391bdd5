import math
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmurel.curves import (
    HardwareParams,
    InteractionParams,
    SoftwareParams,
    interaction_reliability_closed_form,
    nhpp_mean_value,
    pmu_reliability_curve,
    software_reliability,
    weibull_reliability,
)

HW = HardwareParams(rate=0.6566, shape=1.0)
SW = SoftwareParams(total_faults=10.0, detection_rate=0.1, startup_time=5.0)
INTER = InteractionParams(lambda1=8.92e-4, lambda2=3.92e-3)

T_GRID = [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0]


class TestParams:
    def test_hardware_validation(self):
        with pytest.raises(ValueError):
            HardwareParams(rate=-0.1, shape=1.0)
        with pytest.raises(ValueError):
            HardwareParams(rate=1.0, shape=0.0)
        with pytest.raises(ValueError):
            HardwareParams(rate=math.nan, shape=1.0)

    def test_software_validation(self):
        with pytest.raises(ValueError):
            SoftwareParams(total_faults=-1.0, detection_rate=0.1)
        with pytest.raises(ValueError):
            SoftwareParams(total_faults=1.0, detection_rate=-0.1)
        with pytest.raises(ValueError):
            SoftwareParams(total_faults=1.0, detection_rate=0.1, startup_time=-1.0)

    def test_interaction_validation(self):
        # 0 is a path never taken, as in the chain the rates come from
        for p in (InteractionParams(0.0, 1.0), InteractionParams(1.0, 0.0), InteractionParams(0.0, 0.0)):
            assert interaction_reliability_closed_form(p, 5.0) == 1.0
        with pytest.raises(ValueError):
            InteractionParams(lambda1=1.0, lambda2=-1.0)
        with pytest.raises(ValueError):
            InteractionParams(lambda1=math.nan, lambda2=1.0)


class TestWeibull:
    def test_starts_at_one(self):
        assert weibull_reliability(HW, 0.0) == 1.0
        assert weibull_reliability(HardwareParams(3.0, 2.5), 0.0) == 1.0

    def test_exponential_special_case(self):
        # shape 1 reduces to exp(-rate * t)
        assert weibull_reliability(HW, 1.0) == pytest.approx(
            0.5186116198182851, rel=1e-15
        )

    def test_shape_two_power_identity(self):
        p = HardwareParams(rate=0.6566, shape=2.0)
        r1, r2 = weibull_reliability(p, 1.0), weibull_reliability(p, 2.0)
        assert r2 == pytest.approx(r1**4, rel=1e-12)

    def test_rejects_negative_time_and_nan(self):
        with pytest.raises(ValueError):
            weibull_reliability(HW, -0.5)
        with pytest.raises(ValueError):
            weibull_reliability(HW, math.nan)

    def test_overflowing_power(self):
        # 1e200**2 is beyond the float range
        assert weibull_reliability(HardwareParams(rate=0.6566, shape=2.0), 1e200) == 0.0
        assert weibull_reliability(HardwareParams(rate=0.0, shape=2.0), 1e200) == 1.0


class TestMeanValue:
    def test_zero_at_origin(self):
        assert nhpp_mean_value(SoftwareParams(100.0, 0.01), 0.0) == 0.0

    def test_saturates_at_total_faults(self):
        p = SoftwareParams(10.0, 0.1)
        assert nhpp_mean_value(p, 1000.0) == pytest.approx(10.0, abs=1e-9)

    def test_direct_value(self):
        p = SoftwareParams(10.0, 0.1)
        assert nhpp_mean_value(p, 5.0) == pytest.approx(3.9346934028736658, rel=1e-15)

    def test_nondecreasing(self):
        p = SoftwareParams(10.0, 0.1)
        values = [nhpp_mean_value(p, t) for t in T_GRID]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            nhpp_mean_value(SW, -1.0)


class TestSoftwareReliability:
    def test_one_at_zero(self):
        assert software_reliability(SW, 0.0) == 1.0

    def test_direct_value(self):
        r = software_reliability(SW, 10.0)
        assert r == pytest.approx(0.021622842592665156, rel=1e-12)
        assert abs(r - 0.02165) < 1e-4

    def test_long_startup_approaches_one(self):
        p = SoftwareParams(10.0, 0.1, startup_time=1e6)
        assert software_reliability(p, 10.0) == pytest.approx(1.0, abs=1e-12)

    def test_increasing_in_startup_time(self):
        startups = [0.0, 1.0, 5.0, 20.0, 100.0]
        rels = [
            software_reliability(SoftwareParams(10.0, 0.1, T), 10.0) for T in startups
        ]
        assert all(b > a for a, b in zip(rels, rels[1:]))

    def test_zero_startup_matches_mean_value_exactly(self):
        p = SoftwareParams(10.0, 0.1, startup_time=0.0)
        for t in T_GRID:
            assert software_reliability(p, t) == math.exp(-nhpp_mean_value(p, t))

    @staticmethod
    def assert_matches_decimal_oracle(p, t):
        # m(t + T) - m(T) as defined, in 40 digits from the same float
        # inputs.  A relative error e in that exponent x is one of x * e in
        # R_sw; the direct form's e is a few ulps plus b T ulps, from
        # rounding b T before its exponential.
        with localcontext() as ctx:
            ctx.prec = 40
            a, b, big_t, u = map(Decimal, (p.total_faults, p.detection_rate, p.startup_time, t))
            x = a * (-b * big_t).exp() - a * (-b * (u + big_t)).exp()
            exact = (-x).exp()
        tol = Decimal(2.0**-52) * (2 + x * (b * big_t + 8))
        r = software_reliability(p, t)
        assert abs(Decimal(r) - exact) <= tol * exact + Decimal(2.0**-1074)

    @settings(max_examples=300, deadline=None)
    @given(
        a=st.floats(-2.0, 12.0).map(lambda e: 10.0**e),
        b=st.floats(-3.0, 1.0).map(lambda e: 10.0**e),
        scaled_startup=st.floats(0.0, 30.0),
        scaled_t=st.floats(0.0, 10.0),
    )
    def test_matches_decimal_oracle(self, a, b, scaled_startup, scaled_t):
        # after a long startup m(t + T) and m(T) agree in most of their
        # digits, so their difference would keep few
        self.assert_matches_decimal_oracle(SoftwareParams(a, b, scaled_startup / b), scaled_t / b)

    def test_no_digits_cancel_at_many_faults(self):
        # the difference of the mean values was off by up to 1.9e-10 here
        p = SoftwareParams(total_faults=1e6, detection_rate=1.0, startup_time=20.0)
        for t in T_GRID:
            self.assert_matches_decimal_oracle(p, t)
        # an exponent of about 1.9e286, which the difference rounded to 0
        p = SoftwareParams(total_faults=1e308, detection_rate=10.0, startup_time=5.0)
        for t in T_GRID[1:]:
            assert software_reliability(p, t) == 0.0
            self.assert_matches_decimal_oracle(p, t)


class TestInteractionClosedForm:
    def test_one_at_zero(self):
        assert interaction_reliability_closed_form(INTER, 0.0) == 1.0

    def test_direct_value(self):
        r = interaction_reliability_closed_form(INTER, 100.0)
        assert r == pytest.approx(0.9850559483317051, rel=1e-12)
        assert abs(r - 0.98506) < 1e-5

    def test_equal_rates_limit(self):
        p = InteractionParams(1e-3, 1e-3)
        assert interaction_reliability_closed_form(p, 1000.0) == pytest.approx(
            2.0 * math.exp(-1.0), rel=1e-15
        )

    def test_continuity_at_degeneracy(self):
        # generic formula one part in 1e6 away from equal rates vs the limit
        nearly = InteractionParams(1e-3, 1e-3 * (1.0 + 1e-6))
        equal = InteractionParams(1e-3, 1e-3)
        for t in [0.0, 10.0, 100.0, 1000.0, 5000.0]:
            delta = abs(
                interaction_reliability_closed_form(nearly, t)
                - interaction_reliability_closed_form(equal, t)
            )
            assert delta < 1e-6

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            interaction_reliability_closed_form(INTER, -1.0)

    @settings(max_examples=300, deadline=None)
    @given(
        l1=st.floats(-4.0, 1.0).map(lambda e: 10.0**e),
        gap=st.floats(-9.0, 1.0).map(lambda e: 10.0**e),
        swap=st.booleans(),
        scaled_t=st.floats(0.0, 30.0),
    )
    def test_matches_decimal_oracle_at_every_rate_gap(self, l1, gap, swap, scaled_t):
        # the generic form evaluated in 50 digits from the same float inputs;
        # relative gaps reach down to 1e-9, where subtracting the two
        # exponentials loses half the double digits
        l2 = l1 * (1.0 + gap)
        if swap:
            l1, l2 = l2, l1
        t = scaled_t / max(l1, l2)
        with localcontext() as ctx:
            ctx.prec = 50
            a, b, u = Decimal(l1), Decimal(l2), Decimal(t)
            if a == b:
                exact = (1 + a * u) * (-a * u).exp()
            else:
                exact = (b * (-a * u).exp() - a * (-b * u).exp()) / (b - a)
        r = interaction_reliability_closed_form(InteractionParams(l1, l2), t)
        assert abs(Decimal(r) - exact) <= Decimal(1e-14) * exact


class TestCurveInvariants:
    def test_all_curves_start_at_one_and_decrease(self, rng):
        # 20 random parameter sets per curve family; the grid stops at 5 so
        # the steepest Weibull draws stay clear of exp() underflow
        t_grid = [0.0, 0.1, 0.5, 1.0, 2.0, 5.0]
        for _ in range(20):
            hw = HardwareParams(rate=rng.uniform(0.01, 3.0), shape=rng.uniform(0.5, 3.0))
            sw = SoftwareParams(
                total_faults=rng.uniform(0.1, 50.0),
                detection_rate=rng.uniform(0.01, 1.0),
                startup_time=rng.uniform(0.0, 10.0),
            )
            l1 = rng.uniform(1e-4, 1e-2)
            inter = InteractionParams(lambda1=l1, lambda2=l1 * rng.uniform(1.0, 10.0))
            # the columns R_hw, R_sw, R_int and R_pmu
            for values in list(zip(*pmu_reliability_curve(hw, sw, inter, t_grid)))[1:]:
                assert values[0] == 1.0
                assert all(0.0 < v <= 1.0 for v in values)
                assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


class TestComposite:
    def test_one_at_zero(self):
        assert pmu_reliability_curve(HW, SW, INTER, [0.0])[0] == (0.0, 1.0, 1.0, 1.0, 1.0)

    def test_product_identity(self):
        rows = pmu_reliability_curve(HW, SW, INTER, T_GRID)
        assert [row[0] for row in rows] == T_GRID
        for t, r_hw, r_sw, r_int, r_pmu in rows:
            assert r_hw == weibull_reliability(HW, t)
            assert r_sw == software_reliability(SW, t)
            assert r_int == interaction_reliability_closed_form(INTER, t)
            assert r_pmu == r_hw * r_sw * r_int

    def test_degenerate_factors_collapse_to_weibull(self):
        # no software faults and interaction rates too small to register
        # leave hardware only
        no_faults = SoftwareParams(total_faults=0.0, detection_rate=0.1)
        idle = InteractionParams(lambda1=1e-300, lambda2=1e-300)
        for t, r_hw, _, _, r_pmu in pmu_reliability_curve(HW, no_faults, idle, T_GRID):
            assert r_pmu == r_hw == weibull_reliability(HW, t)
