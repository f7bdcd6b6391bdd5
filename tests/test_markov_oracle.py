"""Exact-equality oracle for the uniformization solver.

The reference below builds each step matrix from scratch, one power chain
per distinct sub-step length, with the weights and the products interleaved
in one loop, and raises it to each interval's number of sub-steps anew, its
rows rescaled to sum to 1.  ``transient_grid`` shares one table of powers
across the grid, forms each distinct interval power once and checks the
whole result in one pass; it must reproduce the reference bit for bit, so
every comparison here is ``==``, never approximate.

Both stop summing at the first index K past the Poisson mean at which the
bound B_K = w_K (mean/(K+1)) / (1 - mean/(K+2)) on the omitted terms is at
most the per-step budget.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmurel import markov
from pmurel.config import TimeGrid
from pmurel.markov import (
    ALLOWED_TRANSITIONS,
    STATES,
    TransientSolution,
    build_unified_model,
    transient_grid,
)

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


def reference_step_matrix(p, mean, eps):
    weight = math.exp(-mean)
    power = np.eye(p.shape[0])
    m = weight * power
    k = 0
    while k + 1 <= mean or weight * (mean / (k + 1)) / (1.0 - mean / (k + 2)) > eps:
        k += 1
        power = power @ p
        weight *= mean / k
        m += weight * power
    m += (1.0 - m.sum(axis=1))[:, np.newaxis] * power
    return m, weight * (mean / (k + 1)) / (1.0 - mean / (k + 2)), k + 1


def reference_transient_grid(g, initial, times):
    times = tuple(float(t) for t in times)
    q = g.matrix
    rate = float(np.max(-np.diag(q)))
    intervals = [b - a for a, b in zip((0.0,) + times, times)]
    splits = [math.ceil(rate * dt / 64.0) for dt in intervals]
    steps = sum(splits)
    step_eps = 1e-10 / max(1, steps)
    p = np.eye(q.shape[0]) + q / rate if steps else None
    step_matrices = {}
    error_bound = 0.0
    poisson_terms = 0
    x = initial
    rows = []
    for dt, n in zip(intervals, splits):
        if n:
            h = dt / n
            if h not in step_matrices:
                m, bound, terms = reference_step_matrix(p, rate * h, step_eps)
                step_matrices[h] = m, bound
                poisson_terms += terms
            m, bound = step_matrices[h]
            power = np.linalg.matrix_power(m, n)
            x = x @ (power / power.sum(axis=1, keepdims=True) if n > 1 else m)
            error_bound += n * bound
        rows.append(x)
    probs = np.array(rows).reshape(len(times), len(q))
    return TransientSolution(g.states, times, probs, error_bound, steps, poisson_terms)


def assert_same_solution(ours, reference):
    assert ours.states == reference.states
    assert ours.times == reference.times
    assert ours.probs.shape == reference.probs.shape
    assert np.array_equal(ours.probs, reference.probs)
    assert ours.error_bound == reference.error_bound
    assert ours.steps == reference.steps
    assert ours.poisson_terms == reference.poisson_terms


# Each allowed transition is absent or has a rate log-uniform in [1e-4, 1e3].
unified_rates = st.dictionaries(
    st.sampled_from(ALLOWED_TRANSITIONS),
    st.floats(-4.0, 3.0).map(lambda e: 10.0**e),
    min_size=1,
)
# Grids start anywhere in [0, 10] and advance by uneven steps: repeated
# points, tiny steps and long ones, so one solve meets several distinct
# sub-step lengths and Poisson means.
grid_steps = st.one_of(st.just(0.0), st.floats(1e-12, 1e-6), st.floats(1e-3, 5.0))
grids = st.tuples(st.floats(0.0, 10.0), st.lists(grid_steps, min_size=1, max_size=10)).map(
    lambda sg: [float(v) for v in sg[0] + np.cumsum([0.0] + sg[1])]
)


class TestSharedPowerTable:
    @settings(max_examples=150, deadline=None)
    @given(rates=unified_rates, times=grids, start=st.sampled_from(STATES))
    def test_matches_per_step_length_reference(self, rates, times, start):
        g = build_unified_model(rates)
        init = g.point_mass(start)
        assert_same_solution(
            transient_grid(g, init, times), reference_transient_grid(g, init, times)
        )

    @pytest.mark.parametrize(
        "rates, grid",
        [
            (STIFF_RATES, TimeGrid(0.0, 20.0, 51)),
            ({"UP->HD3": 8.92e-4, "HD3->F_INT": 3.92e-3}, TimeGrid(0.0, 5000.0, 51)),
            (STIFF_RATES, TimeGrid(0.3, 7.7, 13)),
            ({**STIFF_RATES, "SD->UP": 525600.0}, TimeGrid(0.0, 5000.0, 51)),
        ],
    )
    def test_matches_reference_on_configured_grids(self, rates, grid):
        g = build_unified_model(rates)
        init = g.point_mass("UP")
        ours = transient_grid(g, init, grid.values())
        assert_same_solution(ours, reference_transient_grid(g, init, grid.values()))

    @pytest.mark.parametrize(
        "factor, rule", [(0.5, "must sum to 1"), (-1.0, r"must lie in \[0, 1\]")]
    )
    def test_invalid_result_names_the_grid_time(self, monkeypatch, factor, rule):
        step_matrix = markov._step_matrix
        monkeypatch.setattr(markov, "_step_matrix", lambda *args: factor * step_matrix(*args))
        g = build_unified_model(STIFF_RATES)
        init = g.point_mass("UP")
        # one sub-step per interval, so the first wrong step shows at t = 0.1
        with pytest.raises(ValueError, match=rf"at t = 0\.1: probabilities {rule}"):
            transient_grid(g, init, [0.0, 0.0, 0.1, 0.2])
