import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.stats import poisson

from pmurel import markov
from pmurel.config import TimeGrid
from pmurel.curves import InteractionParams, interaction_reliability_closed_form
from pmurel.markov import (
    ALLOWED_TRANSITIONS,
    STATES,
    GeneratorMatrix,
    TransientSolution,
    build_unified_model,
    operational_mass,
    transient_grid,
)

FAILURE_STATES = ("F_HW", "F_INT", "F_SW")

REDUCED_RATES = {"UP->HD3": 8.92e-4, "HD3->F_INT": 3.92e-3}
# Restart and recovery rates 1e5 times the slow ones: stiff enough that one
# grid interval needs several uniformization sub-steps.
STIFF_RATES = {
    "UP->HD1": 1e-3,
    "UP->HD2": 2e-3,
    "UP->HD3": 8.92e-4,
    "UP->SD": 5e-2,
    "HD1->F_HW": 1e-2,
    "HD2->F_HW": 5e-3,
    "HD2->UP": 50.0,
    "HD3->F_INT": 3.92e-3,
    "SD->F_SW": 1e-2,
    "SD->UP": 500.0,
}
# STIFF_RATES with a software restart of about one minute (525600 per year):
# 821251 sub-steps per interval of the default grid [0, 5000].
RESTART_RATES = {**STIFF_RATES, "SD->UP": 525600.0}
ORACLE_TIMES = [0.0, 10.0, 100.0, 500.0, 1000.0, 5000.0]
TWO_STATES = GeneratorMatrix(("A", "B"), np.array([[-1.0, 1.0], [0.0, 0.0]]))


def state_at(g, init, t):
    """The distribution at time t of the chain started from ``init``."""
    return transient_grid(g, init, [t]).probs[0]


def reliability(g, times):
    """Operational mass at each of ``times`` of the chain started in UP."""
    return operational_mass(transient_grid(g, g.point_mass("UP"), times))


def random_generator(rng, max_states=8):
    n = int(rng.integers(2, max_states + 1))
    states = tuple(f"S{i}" for i in range(n))
    m = rng.uniform(0.0, 3.0, size=(n, n))
    m[rng.random((n, n)) < 0.4] = 0.0
    np.fill_diagonal(m, 0.0)
    np.fill_diagonal(m, -m.sum(axis=1))
    return GeneratorMatrix(states, m)


class TestBuildUnifiedModel:
    def test_empty_map_gives_zero_generator(self):
        g = build_unified_model({})
        assert g.states == STATES
        assert np.all(g.matrix == 0.0)

    def test_zero_generator_stays_in_up(self):
        g = build_unified_model({})
        for t in [0.0, 1.0, 100.0, 1e4]:
            assert state_at(g, g.point_mass("UP"), t)[g.index("UP")] == pytest.approx(1.0, abs=1e-12)

    def test_reduced_chain_entries(self):
        g = build_unified_model(REDUCED_RATES)
        assert g.rate("UP", "HD3") == 8.92e-4
        assert g.rate("HD3", "F_INT") == 3.92e-3
        assert g.rate("UP", "UP") == -8.92e-4
        assert g.rate("HD3", "HD3") == -3.92e-3
        assert g.rate("F_INT", "F_INT") == 0.0

    def test_row_sums_are_zero(self, rng):
        for _ in range(10):
            rates = {name: float(rng.uniform(0.0, 5.0)) for name in ALLOWED_TRANSITIONS}
            g = build_unified_model(rates)
            assert np.abs(g.matrix.sum(axis=1)).max() <= 1e-12 * max(1.0, np.abs(g.matrix).max())

    def test_rejects_unlisted_transition(self):
        for name in ("HD1->UP", "UP->F_SW"):
            with pytest.raises(ValueError, match=f"^transition '{name}' is not part of the model; allowed: UP->HD1, "):
                build_unified_model({name: 0.1})

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            build_unified_model({"UP->HD3": -1.0})

    def test_failure_states_absorbing_by_default(self):
        g = build_unified_model(REDUCED_RATES)
        for state in FAILURE_STATES:
            i = g.index(state)
            assert np.all(g.matrix[i] == 0.0)


class TestGeneratorMatrix:
    def test_rejects_negative_off_diagonal(self):
        with pytest.raises(ValueError):
            GeneratorMatrix(("A", "B"), np.array([[0.5, -0.5], [0.0, 0.0]]))

    def test_rejects_nonzero_row_sums(self):
        with pytest.raises(ValueError):
            GeneratorMatrix(("A", "B"), np.array([[-1.0, 0.5], [0.0, 0.0]]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            GeneratorMatrix(("A", "B"), np.zeros((3, 3)))

    # A generator built from named rates is build_unified_model's job: an
    # unknown state, a self-transition and a malformed name are unlisted there.
    def test_from_rates_rejects_unknown_state(self):
        with pytest.raises(ValueError, match="^transition 'UP->XX' is not part of the model; allowed: UP->HD1, "):
            build_unified_model({"UP->XX": 1.0})

    def test_from_rates_rejects_self_transition(self):
        with pytest.raises(ValueError, match="^transition 'UP->UP' is not part of the model; allowed: UP->HD1, "):
            build_unified_model({"UP->UP": 1.0})

    def test_matrix_is_read_only(self):
        g = build_unified_model(REDUCED_RATES)
        with pytest.raises(ValueError):
            g.matrix[0, 0] = 1.0

    def test_parse_transition(self):
        # the name's source and destination give the entry's row and column
        g = build_unified_model({"UP->HD3": 1.0})
        assert g.matrix[g.index("UP"), g.index("HD3")] == 1.0
        assert np.count_nonzero(g.matrix) == 2
        with pytest.raises(ValueError, match="^transition 'UP-HD3' is not part of the model; allowed: UP->HD1, "):
            build_unified_model({"UP-HD3": 1.0})


class TestStateDistribution:
    # the initial distribution: a plain vector, checked by transient_grid
    def test_point_mass(self):
        g = build_unified_model(REDUCED_RATES)
        p = g.point_mass("HD3")
        assert p.tolist() == [float(s == "HD3") for s in STATES]
        assert not p.flags.writeable

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="^initial distribution: probabilities must sum to 1"):
            transient_grid(TWO_STATES, [0.6, 0.6], [1.0])

    def test_rejects_negative_probability(self):
        with pytest.raises(ValueError, match=r"^initial distribution: probabilities must lie in \[0, 1\]"):
            transient_grid(TWO_STATES, np.array([1.2, -0.2]), [1.0])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="^initial distribution: probabilities must sum to 1"):
            transient_grid(TWO_STATES, [math.nan, 0.5], [1.0])

    def test_unknown_state_is_named(self):
        for lookup in (lambda: TWO_STATES.point_mass("UP"), lambda: TWO_STATES.index("UP")):
            with pytest.raises(ValueError, match="^unknown state 'UP'$"):
                lookup()


class TestTransientDistribution:
    def test_identity_at_time_zero(self):
        g = build_unified_model(REDUCED_RATES)
        init = g.point_mass("HD3")
        assert np.array_equal(state_at(g, init, 0.0), init)

    def test_rejects_negative_time(self):
        g = build_unified_model({})
        init = g.point_mass("UP")
        with pytest.raises(ValueError):
            state_at(g, init, -1.0)
        with pytest.raises(ValueError):
            state_at(g, init, math.nan)

    def test_rejects_mismatched_states(self):
        # one probability per state of the generator, as a flat vector
        g = build_unified_model({})
        for init in ([1.0, 0.0], np.full((1, len(STATES)), 1.0 / len(STATES))):
            with pytest.raises(ValueError, match="^initial distribution must hold one probability per state"):
                state_at(g, init, 1.0)

    def test_two_state_chain_reaches_steady_availability(self):
        # UP <-> HD2 with the crisp failure/repair rates behaves as the
        # two-state repairable component; mu/(lambda+mu) is the limit
        g = build_unified_model({"UP->HD2": 0.6566, "HD2->UP": 22.2898})
        p_up = state_at(g, g.point_mass("UP"), 5.0)[g.index("UP")]
        assert p_up == pytest.approx(22.2898 / (22.2898 + 0.6566), abs=1e-6)

    def test_reduced_chain_matches_closed_form_spot(self):
        g = build_unified_model(REDUCED_RATES)
        d = state_at(g, g.point_mass("UP"), 100.0)
        assert d[g.index("UP")] + d[g.index("HD3")] == pytest.approx(0.9850559483317051, abs=1e-8)

    def test_probability_conservation_random_generators(self, rng):
        for _ in range(50):
            g = random_generator(rng)
            init = rng.dirichlet(np.ones(len(g.states)))
            t = float(rng.uniform(0.0, 10.0))
            out = state_at(g, init, t)
            assert abs(float(out.sum()) - 1.0) <= 1e-9

    def test_matches_matrix_exponential_oracle(self, rng):
        for _ in range(20):
            g = random_generator(rng)
            p0 = rng.dirichlet(np.ones(len(g.states)))
            t = float(rng.uniform(0.0, 10.0))
            ours = state_at(g, p0, t)
            oracle = p0 @ expm(g.matrix * t)
            assert np.abs(ours - oracle).max() <= 1e-8

    def test_chapman_kolmogorov_consistency(self, rng):
        g = build_unified_model(REDUCED_RATES)
        init = g.point_mass("UP")
        for _ in range(20):
            s, t = (float(v) for v in rng.uniform(0.0, 2000.0, size=2))
            via_stop = state_at(g, state_at(g, init, s), t)
            direct = state_at(g, init, s + t)
            assert np.abs(via_stop - direct).max() <= 1e-8

    def test_monotone_absorption_without_recovery(self):
        rates = {
            "UP->HD1": 0.02,
            "UP->HD2": 0.01,
            "UP->HD3": 0.03,
            "UP->SD": 0.015,
            "HD1->F_HW": 0.1,
            "HD2->F_HW": 0.05,
            "HD3->F_INT": 0.2,
            "SD->F_SW": 0.08,
        }
        g = build_unified_model(rates)
        failed_mass = [
            sum(state_at(g, g.point_mass("UP"), t)[g.index(s)] for s in FAILURE_STATES)
            for t in [0.0, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0]
        ]
        assert failed_mass[0] == 0.0
        assert all(b >= a - 1e-12 for a, b in zip(failed_mass, failed_mass[1:]))

    def test_stiff_rates(self):
        # rate ratio of 5e5 between the two stages
        m = np.array([[-500.0, 500.0], [1e-3, -1e-3]])
        g = GeneratorMatrix(("A", "B"), m)
        ours = state_at(g, g.point_mass("A"), 50.0)
        oracle = np.array([1.0, 0.0]) @ expm(m * 50.0)
        assert np.abs(ours - oracle).max() <= 1e-8


class TestInteractionReliability:
    def test_starts_at_one(self):
        g = build_unified_model(REDUCED_RATES)
        assert reliability(g, [0.0]).tolist() == [1.0]

    def test_zero_generator_always_one(self):
        g = build_unified_model({})
        assert reliability(g, [0.0, 10.0, 1e4]) == pytest.approx([1.0] * 3, abs=1e-12)

    def test_oracle_equivalence_with_closed_form(self):
        # the reduced two-rate chain and the hypoexponential survival are the
        # same function expressed two ways; 5605 is five mean first-stage
        # waiting times, past the last pinned grid point
        g = build_unified_model(REDUCED_RATES)
        p = InteractionParams(lambda1=8.92e-4, lambda2=3.92e-3)
        times = sorted(ORACLE_TIMES + [2500.0, 5605.0])
        for t, markov in zip(times, reliability(g, times)):
            assert abs(markov - interaction_reliability_closed_form(p, t)) <= 1e-8

    def test_three_state_chain_directly(self):
        g = GeneratorMatrix(
            ("UP", "HD3", "F_INT"),
            np.array([[-8.92e-4, 8.92e-4, 0.0], [0.0, -3.92e-3, 3.92e-3], [0.0, 0.0, 0.0]]),
        )
        p = InteractionParams(lambda1=8.92e-4, lambda2=3.92e-3)
        for t, markov in zip(ORACLE_TIMES, reliability(g, ORACLE_TIMES)):
            assert markov == pytest.approx(interaction_reliability_closed_form(p, t), abs=1e-8)

    def test_operational_mass_is_not_clamped(self):
        # inside the probability rule's tolerances the operational sum may
        # exceed 1 by rounding; it is reported as it is
        probs = np.zeros((1, len(STATES)))
        probs[0, [0, 1, 5]] = 0.5, 0.5 + 5e-13, -5e-13
        solution = TransientSolution(STATES, (0.0,), probs, 0.0, 0, 0)
        assert operational_mass(solution).tolist() == [0.5 + (0.5 + 5e-13)]
        assert operational_mass(solution)[0] > 1.0

    def test_nonincreasing_when_exits_are_absorbing(self):
        g = build_unified_model(REDUCED_RATES)
        values = reliability(g, ORACLE_TIMES).tolist()
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)


# Each allowed transition is absent or has a rate log-uniform in [1e-4, 1e3].
stiff_rates = st.dictionaries(
    st.sampled_from(ALLOWED_TRANSITIONS),
    st.floats(-4.0, 3.0).map(lambda e: 10.0**e),
    min_size=1,
)
# Grids start anywhere in [0, 10] and advance by uneven steps: repeated
# points, steps with a Poisson mean far below 1, and long ones.
grid_steps = st.one_of(st.just(0.0), st.floats(1e-10, 1e-7), st.floats(1e-3, 5.0))
grids = st.tuples(st.floats(0.0, 10.0), st.lists(grid_steps, max_size=8)).map(
    lambda sg: [float(v) for v in sg[0] + np.cumsum([0.0] + sg[1])]
)


class TestTransientGrid:
    @settings(max_examples=60, deadline=None)
    @given(rates=stiff_rates, times=grids, start=st.sampled_from(STATES))
    def test_matches_matrix_exponential_oracle(self, rates, times, start):
        g = build_unified_model(rates)
        init = g.point_mass(start)
        solution = transient_grid(g, init, times)
        assert solution.times == tuple(times)
        assert solution.states == STATES
        assert solution.probs.shape == (len(times), len(STATES))
        assert not solution.probs.flags.writeable
        assert solution.error_bound <= 1e-10
        for t, probs in zip(times, solution.probs):
            oracle = init @ expm(g.matrix * t)
            assert np.abs(probs - oracle).max() <= 1e-9
            assert abs(float(probs.sum()) - 1.0) <= 1e-12

    def test_chained_solves_conserve_mass(self):
        # each call adds its truncated Poisson tail back, so the sum does not
        # drift; dropping the tail ran out of tolerance after 14 calls
        g = build_unified_model(STIFF_RATES)
        init = dist = g.point_mass("UP")
        for _ in range(100):
            dist = state_at(g, dist, 0.2)
        assert abs(float(dist.sum()) - 1.0) <= 1e-9
        assert np.abs(dist - init @ expm(g.matrix * 20.0)).max() <= 1e-9

    def test_stiff_grid_diagnostics(self):
        g = build_unified_model(STIFF_RATES)
        times = [i * (20.0 / 50) for i in range(51)]
        solution = transient_grid(g, g.point_mass("UP"), times)
        # rate 500.01 over 50 intervals of 0.4: ceil(200.004 / 64) = 4 sub-steps each
        assert solution.steps == 200
        assert 0.0 < solution.error_bound <= 1e-10
        assert solution.poisson_terms > 0

    def test_exact_cases(self):
        init = np.full(len(STATES), 1.0 / len(STATES))
        zero = transient_grid(build_unified_model({}), init, [0.0, 1.0, 1e4])
        assert all(np.array_equal(p, init) for p in zero.probs)
        assert (zero.steps, zero.poisson_terms, zero.error_bound) == (0, 0, 0.0)
        g = build_unified_model(STIFF_RATES)
        solution = transient_grid(g, init, [0.0, 0.0, 3.0, 3.0, 3.0])
        first, again, later, *repeats = solution.probs
        assert np.array_equal(first, init)
        assert np.array_equal(again, init)
        assert all(np.array_equal(p, later) for p in repeats)
        assert transient_grid(g, init, []).probs.shape == (0, len(STATES))

    @pytest.mark.parametrize("t", [1e-7, 1e-12])
    def test_tiny_poisson_means_take_the_poisson_path(self, t):
        g = build_unified_model(STIFF_RATES)
        init = g.point_mass("UP")
        solution = transient_grid(g, init, [t])
        assert solution.steps == 1
        assert solution.poisson_terms >= 2
        assert solution.error_bound <= 1e-10
        oracle = init @ expm(g.matrix * t)
        assert np.abs(solution.probs[0] - oracle).max() <= 1e-12
        zero = transient_grid(build_unified_model({}), init, [t, 2 * t])
        assert all(np.array_equal(p, init) for p in zero.probs)
        assert zero.steps == 0

    @pytest.mark.parametrize(
        "times", [[1.0, 0.5], [-1.0], [0.0, math.nan], [math.inf], [2.0, 3.0, 2.5]]
    )
    def test_rejects_bad_times(self, times):
        g = build_unified_model(STIFF_RATES)
        with pytest.raises(ValueError):
            transient_grid(g, g.point_mass("UP"), times)

    def test_overflowing_poisson_mean_names_its_interval(self):
        # [0, 1] has a finite mean of 1e308, [1, 100] an infinite one, whose
        # sub-steps cannot be counted
        g = build_unified_model({"UP->HD3": 1e308, "HD3->F_INT": 3.92e-3})
        message = r"^the Poisson mean of the interval \[1, 100\] at uniformization rate 1e\+308 overflows$"
        with pytest.raises(ValueError, match=message):
            transient_grid(g, g.point_mass("UP"), [0.0, 1.0, 100.0])

    @pytest.mark.parametrize("stop", [2e4, 5e4, 1e5])
    def test_long_stiff_horizons_meet_the_budget(self, stop):
        # up to 781266 sub-steps, each with a budget of about 1e-16: below the
        # rounding of 1 - sum(weights), so only a bound taken from the terms
        # themselves is met and stays positive
        g = build_unified_model(STIFF_RATES)
        init = g.point_mass("UP")
        solution = transient_grid(g, init, [0.0, stop])
        assert 0.0 < solution.error_bound <= 1e-10
        for t, probs in zip(solution.times, solution.probs):
            assert np.abs(probs - init @ expm(g.matrix * t)).max() <= 1e-9

    @pytest.mark.parametrize(
        "rates, tol",
        [
            (RESTART_RATES, 1e-7),
            ({"UP->HD3": 1e6, "HD3->F_INT": 1.0}, 1e-12),
            # expm is the less accurate of the two here
            ({**STIFF_RATES, "SD->UP": 5.256e7}, 1e-6),
        ],
    )
    def test_fast_rates_take_one_product_per_interval(self, rates, tol):
        # tens of millions of sub-steps and more over the default grid: each
        # interval is one product with M_h^n, which repeated squaring forms
        # in about log2(n) matrix products, so the solve does not take
        # minutes; its rows are rescaled to sum to 1, so the rounding of
        # billions of sub-steps does not break the probability rule
        g = build_unified_model(rates)
        init = g.point_mass("UP")
        solution = transient_grid(g, init, TimeGrid(0.0, 5000.0, 51).values())
        assert solution.steps > 40_000_000
        assert 0.0 < solution.error_bound <= 1e-10
        for t, probs in zip(solution.times, solution.probs):
            assert np.abs(probs - init @ expm(g.matrix * t)).max() <= tol
            assert abs(float(probs.sum()) - 1.0) <= 1e-9

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 10: error_bound counts the Poisson truncation "
                       "only, and the rounding of the interval powers exceeds it on fast chains")
    @pytest.mark.parametrize("fast", [1e12, 1e15])
    def test_error_bound_covers_the_rounding(self, fast):
        # UP -> HD3 -> F_INT, whose HD3 mass is exactly
        # l1 / (l1 - l2) * (exp(-l2 t) - exp(-l1 t)); the solve is off by
        # 1.6e-7 and 9.6e-5 against bounds of 6.7e-11 and 8.3e-11
        slow = 3.92e-3
        g = build_unified_model({"UP->HD3": fast, "HD3->F_INT": slow})
        solution = transient_grid(g, g.point_mass("UP"), [0.0, 2500.0, 5000.0])
        exact = [fast / (fast - slow) * (math.exp(-slow * t) - math.exp(-fast * t)) for t in solution.times]
        assert np.abs(solution.probs[:, g.index("HD3")] - exact).max() <= solution.error_bound

    def test_zero_budget_is_met(self, monkeypatch):
        # the terms fall to 0, so even no budget at all ends the sum
        monkeypatch.setattr(markov, "_POISSON_TRUNCATION_EPS", 0.0)
        g = build_unified_model(REDUCED_RATES)
        init = g.point_mass("UP")
        solution = transient_grid(g, init, [0.0, 100.0])
        assert solution.error_bound == 0.0
        assert np.abs(solution.probs[1] - init @ expm(g.matrix * 100.0)).max() <= 1e-12


class TestPoissonWeights:
    @settings(max_examples=300, deadline=None)
    @given(
        mean=st.floats(0.0, 64.0, exclude_min=True),
        eps=st.floats(-200.0, -6.0).map(lambda e: 10.0**e),
    )
    def test_bound_covers_the_omitted_terms_and_k_is_the_first(self, mean, eps):
        weights, bound = markov._poisson_weights(mean, eps)
        k = len(weights) - 1
        assert poisson.sf(k, mean) * (1.0 - 1e-12) <= bound <= eps
        assert k + 1 > mean
        for j in range(k):
            if j + 1 > mean:
                assert weights[j] * (mean / (j + 1)) / (1.0 - mean / (j + 2)) > eps
