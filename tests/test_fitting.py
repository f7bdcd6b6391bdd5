import math

import pytest

from pmurel.fitting import FitResult, effective_rate, fit_lambda1, fit_scan, sse
from pmurel.simulate import ExposureTable


def exact_fit_table():
    # T_i = 1000 i with X_i = T_i / 1500: a table the two-stage model with
    # lambda1 = 1e-3, lambda2 = 2e-3 reproduces without residual
    times = tuple(1000.0 * i for i in range(1, 9))
    counts = tuple(t / 1500.0 for t in times)
    return ExposureTable(counts, times)


def random_table(rng, n=8):
    times = tuple(float(t) for t in rng.uniform(100.0, 5000.0, size=n))
    counts = tuple(float(x) for x in rng.uniform(0.0, 10.0, size=n))
    return ExposureTable(counts, times)


class TestSse:
    def test_exact_fit_has_zero_residual(self):
        assert sse(exact_fit_table(), 1e-3, 2e-3) == pytest.approx(0.0, abs=1e-25)

    def test_perturbed_rate_is_positive(self):
        assert sse(exact_fit_table(), 1.1e-3, 2e-3) > 0.0

    def test_single_row_hand_value(self):
        table = ExposureTable((2.0,), (1500.0,))
        assert sse(table, 1e-3, 2e-3) == pytest.approx(1.0, rel=1e-12)

    def test_accepts_zero_and_rejects_negative_rates(self):
        # a zero rate is the limit effective_rate defines: the model mean is 0
        table = exact_fit_table()
        assert sse(table, 0.0, 1e-3) == sse(table, 0.0, 0.0) == math.fsum(x**2 for x in table.counts)
        with pytest.raises(ValueError, match="^lambda2 must be finite and >= 0, got -0.001$"):
            sse(table, 1e-3, -1e-3)


class TestFitLambda1:
    def test_recovers_exact_fit(self):
        result = fit_lambda1(exact_fit_table(), 2.0)
        assert result.lambda1 == pytest.approx(1e-3, rel=1e-12)
        assert result.lambda2 == pytest.approx(2e-3, rel=1e-12)
        assert result.sse <= 1e-18
        assert result.g == 2.0

    def test_matches_golden_section_minimizer(self, rng, golden_section):
        # the closed form must agree with brute-force 1-D minimization
        for _ in range(20):
            table = random_table(rng)
            g = float(rng.uniform(0.5, 8.0))
            closed = fit_lambda1(table, g)
            brute = golden_section(
                lambda l1: sse(table, l1, g * l1), 1e-9, 1.0
            )
            assert brute == pytest.approx(closed.lambda1, rel=1e-8)
            # no lambda1 nearby does better than the closed-form estimate
            for factor in (0.999, 1.001):
                nearby = closed.lambda1 * factor
                assert closed.sse <= sse(table, nearby, g * nearby)

    def test_count_scaling_is_linear(self):
        table = exact_fit_table()
        doubled = ExposureTable(
            tuple(2.0 * x for x in table.counts), table.times
        )
        tripled = ExposureTable(
            tuple(3.0 * x for x in table.counts), table.times
        )
        base = fit_lambda1(table, 2.0)
        assert fit_lambda1(doubled, 2.0).lambda1 == 2.0 * base.lambda1
        assert fit_lambda1(tripled, 2.0).lambda1 == pytest.approx(
            3.0 * base.lambda1, rel=1e-12
        )

    def test_all_zero_counts_estimate_zero_rate(self):
        table = ExposureTable((0.0,) * 8, tuple(1000.0 * i for i in range(1, 9)))
        result = fit_lambda1(table, 2.0)
        assert result.lambda1 == 0.0
        assert result.sse == 0.0
        # the zero rates go through sse like any other
        assert result == FitResult(lambda1=0.0, lambda2=0.0, g=2.0, sse=0.0)
        # failures only where there is no exposure fit 0 too, and leave them all as residual
        table = ExposureTable((3.0, 0.0, 2.0), (0.0, 5.0, 0.0))
        assert fit_lambda1(table, 2.0) == FitResult(lambda1=0.0, lambda2=0.0, g=2.0, sse=13.0)

    def test_zero_rates_have_zero_effective_rate(self):
        # an all-zero table fits lambda1 = lambda2 = 0; the effective rate is
        # then its limit 0, not a division by zero
        table = ExposureTable((0.0,) * 8, tuple(1000.0 * i for i in range(1, 9)))
        result = fit_lambda1(table, 2.0)
        assert effective_rate(result.lambda1, result.lambda2) == 0.0
        assert effective_rate(0.0, 2e-3) == 0.0
        assert effective_rate(1e-3, 0.0) == 0.0

    def test_rejects_zero_exposure_time(self):
        table = ExposureTable((1.0, 2.0), (0.0, 0.0))
        with pytest.raises(ValueError):
            fit_lambda1(table, 2.0)

    def test_rejects_nonpositive_ratio(self):
        with pytest.raises(ValueError):
            fit_lambda1(exact_fit_table(), 0.0)
        with pytest.raises(ValueError):
            fit_lambda1(exact_fit_table(), -2.0)


class TestFitScan:
    def test_singleton_scan_equals_single_fit(self):
        table = exact_fit_table()
        assert fit_scan(table, [2.0]) == [fit_lambda1(table, 2.0)]

    def test_every_ratio_reaches_zero_residual_on_exact_table(self):
        # the model is under-identified: each G reproduces the table exactly
        # with a different rate pair
        results = fit_scan(exact_fit_table(), [1.0, 2.0, 4.0])
        lambdas = {r.lambda1 for r in results}
        assert len(lambdas) == 3
        for r in results:
            assert r.sse <= 1e-18

    def test_effective_rate_is_ratio_invariant(self, rng):
        for _ in range(10):
            table = random_table(rng)
            results = fit_scan(table, [1.0, 2.0, 4.0])
            rates = [effective_rate(r.lambda1, r.lambda2) for r in results]
            for rate in rates[1:]:
                assert rate == pytest.approx(rates[0], rel=1e-12)

    def test_residual_is_ratio_invariant(self, rng):
        table = random_table(rng)
        results = fit_scan(table, [0.5, 1.0, 2.0, 4.0, 8.0])
        for r in results[1:]:
            assert r.sse == pytest.approx(results[0].sse, abs=1e-9)

    def test_results_ordered_by_ratio(self):
        results = fit_scan(exact_fit_table(), [4.0, 1.0, 2.0])
        assert [r.g for r in results] == [1.0, 2.0, 4.0]

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            fit_scan(exact_fit_table(), [])
        with pytest.raises(ValueError):
            fit_scan(exact_fit_table(), [1.0, -2.0])


class TestFitResult:
    def test_rate_pair_must_match_ratio(self):
        with pytest.raises(ValueError):
            FitResult(lambda1=1e-3, lambda2=3e-3, g=2.0, sse=0.0)

    def test_rejects_negative_sse(self):
        with pytest.raises(ValueError):
            FitResult(lambda1=1e-3, lambda2=2e-3, g=2.0, sse=-1.0)

    def test_holds_ratio_identity_exactly(self):
        result = fit_lambda1(exact_fit_table(), 3.0)
        assert result.lambda2 == result.g * result.lambda1
