"""Exact-equality oracle for the Monte Carlo engine.

The reference functions below are a scalar engine: one scalar draw per
event, traces as tuples of (ttf, ttr) pairs, and exposure bucketing by scalar
``searchsorted`` calls and a loop over the intervals each up period covers.
Its random streams come from numpy's own ``SeedSequence``, not from the
engine's ``_substream_block``, so the substream derivation is checked too.  The block
engine must reproduce them bit for bit, so every comparison here is ``==``,
never approximate.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmurel import simulate
from pmurel.simulate import (
    ReplicationTrace,
    SimulationConfig,
    build_exposure_table,
    run_replication,
    run_simulation,
)

BLOCK = simulate._SUBSTREAM_BLOCK


def reference_sample_exponential(rate, rng):
    u = rng.random()
    while u <= 0.0:
        u = rng.random()
    return -math.log(u) / rate


@dataclass(frozen=True)
class ReferenceTrace:
    cycles: tuple
    n_failures: int
    up_time: float
    down_time: float

    def failure_times(self):
        times = []
        clock = 0.0
        for ttf, ttr in self.cycles:
            clock += ttf
            times.append(clock)
            clock += ttr
        return times

    def up_periods(self, mission_time):
        periods = []
        clock = 0.0
        for ttf, ttr in self.cycles:
            periods.append((clock, clock + ttf))
            clock += ttf + ttr
        if clock < mission_time:
            periods.append((clock, mission_time))
        return periods


def reference_run_replication(cfg, replication_index):
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=cfg.master_seed, spawn_key=(replication_index,))
    )
    horizon = cfg.mission_time
    clock = 0.0
    cycles = []
    up_time = 0.0
    down_time = 0.0
    while True:
        ttf = reference_sample_exponential(cfg.failure_rate, rng)
        if clock + ttf >= horizon:
            up_time += horizon - clock
            break
        up_time += ttf
        clock += ttf
        ttr = reference_sample_exponential(cfg.repair_rate, rng)
        credited = min(ttr, horizon - clock)
        down_time += credited
        cycles.append((ttf, credited))
        clock += credited
        if clock >= horizon:
            break
    return ReferenceTrace(tuple(cycles), len(cycles), up_time, down_time)


def reference_build_exposure_table(traces, cfg):
    """(counts, times) as the scalar engine summed them."""
    n = cfg.n_intervals
    edges = np.linspace(0.0, cfg.mission_time, n + 1)
    counts = [0] * n
    times = [0.0] * n
    for trace in traces:
        for ft in trace.failure_times():
            idx = int(np.searchsorted(edges, ft, side="left"))
            idx = min(max(idx, 1), n)
            counts[idx - 1] += 1
        for start, end in trace.up_periods(cfg.mission_time):
            first = max(int(np.searchsorted(edges, start, side="right")) - 1, 0)
            for i in range(first, n):
                overlap = min(end, edges[i + 1]) - max(start, edges[i])
                if overlap <= 0.0:
                    break
                times[i] += overlap
    return tuple(float(c) for c in counts), tuple(float(t) for t in times)


def assert_same_trace(trace, ref, mission_time):
    assert trace.cycles == ref.cycles
    assert trace.n_failures == ref.n_failures
    assert (trace.up_time, trace.down_time) == (ref.up_time, ref.down_time)
    assert trace.failure_times() == ref.failure_times()
    assert trace.up_periods(mission_time) == ref.up_periods(mission_time)


def assert_same_table(traces, reference_traces, cfg):
    table = build_exposure_table(traces, cfg)
    assert (table.counts, table.times) == reference_build_exposure_table(reference_traces, cfg)


def config(failure_rate=0.6566, repair_rate=22.2898, mission_time=10.0, n_intervals=8, **kw):
    return SimulationConfig(
        failure_rate=failure_rate,
        repair_rate=repair_rate,
        mission_time=mission_time,
        n_intervals=n_intervals,
        **kw,
    )


@settings(max_examples=150, deadline=None)
@given(
    failure_rate=st.floats(0.01, 50.0),
    repair_rate=st.floats(0.01, 100.0),
    mission_time=st.floats(0.01, 100.0),
    n_intervals=st.integers(1, 70),
    master_seed=st.integers(0, 2**63),
    n_replications=st.integers(1, 12),
)
def test_engine_matches_scalar_reference(
    failure_rate, repair_rate, mission_time, n_intervals, master_seed, n_replications
):
    # keep each example to at most a few hundred cycles per replication
    mission_time = min(mission_time, 300.0 / failure_rate)
    cfg = config(failure_rate, repair_rate, mission_time, n_intervals,
                 master_seed=master_seed, n_replications=n_replications)
    traces = [run_replication(cfg, i) for i in range(n_replications)]
    references = [reference_run_replication(cfg, i) for i in range(n_replications)]
    for trace, ref in zip(traces, references):
        assert_same_trace(trace, ref, mission_time)
    assert_same_table(traces, references, cfg)


@pytest.mark.parametrize("n_replications", [1, BLOCK - 1, BLOCK, BLOCK + 1])
def test_block_edges_match_scalar_reference(n_replications):
    # the block is cut at n_replications, and BLOCK + 1 starts a second one
    simulate._replication_block.cache_clear()
    cfg = config(n_replications=n_replications, master_seed=n_replications)
    traces = [run_replication(cfg, i) for i in range(n_replications)]
    references = [reference_run_replication(cfg, i) for i in range(n_replications)]
    for trace, ref in zip(traces, references):
        assert_same_trace(trace, ref, cfg.mission_time)
    assert_same_table(traces, references, cfg)
    exposure = run_simulation(cfg).exposure
    assert (exposure.counts, exposure.times) == reference_build_exposure_table(references, cfg)


def mission_with_native_round(draws, failure_rate=0.6566, repair_rate=22.2898):
    """A mission whose native round (two draws per expected cycle plus 4σ+8
    slack) holds ``draws`` uniforms: 2c + 4√c + 8 = draws + 1."""
    root = (-4.0 + math.sqrt(16.0 + 8.0 * (draws - 7.0))) / 4.0
    return root * root * (1.0 / failure_rate + 1.0 / repair_rate)


@pytest.mark.parametrize("offset", [-2, 0, 2])
def test_stream_kinds_at_the_threshold_match_scalar_reference(offset):
    # just below, at and above the widest native round drawn from array streams
    simulate._replication_block.cache_clear()
    draws = simulate.ARRAY_STREAM_DRAWS + offset
    cfg = config(mission_time=mission_with_native_round(draws), n_replications=60, master_seed=draws)
    kind, width = simulate._draw_plan(cfg.failure_rate, cfg.repair_rate, cfg.mission_time)
    if offset <= 0:
        assert kind is simulate._ArrayStreams and width < draws
    else:
        assert (kind, width) == (simulate._NativeStreams, draws)
    traces = [run_replication(cfg, i) for i in range(cfg.n_replications)]
    references = [reference_run_replication(cfg, i) for i in range(cfg.n_replications)]
    for trace, ref in zip(traces, references):
        assert_same_trace(trace, ref, cfg.mission_time)
    assert_same_table(traces, references, cfg)


@pytest.mark.parametrize("kind", ["_ArrayStreams", "_NativeStreams"])
@pytest.mark.parametrize("mission_time", [0.3, 10.0, 40.0])
def test_two_draw_rounds_match_scalar_reference(kind, mission_time, monkeypatch):
    # one cycle per round: every row resumes its real stream many times
    simulate._replication_block.cache_clear()
    monkeypatch.setattr(simulate, "_draw_plan", lambda *rates_and_mission: (getattr(simulate, kind), 2))
    cfg = config(mission_time=mission_time, n_replications=25, master_seed=2**63 - 25)
    traces = [run_replication(cfg, i) for i in range(cfg.n_replications)]
    references = [reference_run_replication(cfg, i) for i in range(cfg.n_replications)]
    for trace, ref in zip(traces, references):
        assert_same_trace(trace, ref, cfg.mission_time)
    assert_same_table(traces, references, cfg)


@pytest.mark.parametrize(
    "n_replications,index",
    [(10, 3 * BLOCK + 17), (5, 4000), (5, 5), (BLOCK + 1, BLOCK), (BLOCK + 1, BLOCK + 3), (1, 2**40)],
)
def test_single_call_matches_scalar_reference(n_replications, index):
    # an index in a later block, or at or past n_replications, called on its own
    simulate._replication_block.cache_clear()
    cfg = config(n_replications=n_replications, master_seed=7)
    assert_same_trace(run_replication(cfg, index), reference_run_replication(cfg, index), cfg.mission_time)


@settings(max_examples=20, deadline=None)
@given(calls=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 4 * BLOCK)), min_size=2, max_size=10))
def test_out_of_order_calls_match_scalar_reference(calls):
    # three configurations and five blocks against a cache of two blocks;
    # short missions keep each block cheap
    configs = [
        config(mission_time=0.5, n_replications=3 * BLOCK + 5, master_seed=1),
        config(mission_time=0.5, n_replications=2, master_seed=1),
        config(failure_rate=2.0, mission_time=0.5, n_replications=BLOCK + 1, master_seed=3),
    ]
    for which, index in calls:
        cfg = configs[which]
        trace = run_replication(cfg, index)
        assert_same_trace(trace, reference_run_replication(cfg, index), cfg.mission_time)


@pytest.mark.parametrize(
    "index,error",
    [(-1, ValueError), (-(2**64), ValueError), (1.5, TypeError), (2.0, TypeError),
     (np.float64(3.0), TypeError)],
)
def test_bad_indices_raise_as_replication_rng_does(index, error):
    cfg = config(n_replications=4)
    with pytest.raises(error):
        run_replication(cfg, index)


# mission 10 in 8 intervals: interior edges at 1.25, 2.5, ..., 8.75
HAND_BUILT = {
    "failure_on_interior_edge": ((2.5, 0.5),),
    "up_period_ends_on_edge": ((1.25, 0.5), (0.75, 1.25)),
    "up_period_starts_on_edge": ((1.0, 0.25), (3.75, 0.5)),
    "no_failures": (),
    "ends_mid_repair": ((4.0, 0.5), (5.0, 0.5)),
    "ends_mid_repair_off_edge": ((9.9, 0.1),),
    "failure_on_last_edge": ((8.75, 1.25),),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_hand_built_trace_matches_reference(name):
    cfg = config(n_replications=1)
    cycles = HAND_BUILT[name]
    up = cfg.mission_time - sum(ttr for _, ttr in cycles)
    trace = ReplicationTrace(cycles=cycles, up_time=up, down_time=0.0)
    ref = ReferenceTrace(cycles, len(cycles), up, 0.0)
    assert trace.cycles == cycles
    assert trace.failure_times() == ref.failure_times()
    assert trace.up_periods(cfg.mission_time) == ref.up_periods(cfg.mission_time)
    assert_same_table([trace], [ref], cfg)


def test_hand_built_traces_together_match_reference():
    cfg = config(n_replications=len(HAND_BUILT))
    names = sorted(HAND_BUILT)
    traces = [ReplicationTrace(HAND_BUILT[k], 0.0, 0.0) for k in names]
    references = [ReferenceTrace(HAND_BUILT[k], len(HAND_BUILT[k]), 0.0, 0.0) for k in names]
    assert_same_table(traces, references, cfg)


@settings(max_examples=150, deadline=None)
@given(
    quarters=st.lists(
        st.lists(st.tuples(st.integers(1, 12), st.integers(0, 12)), max_size=12),
        min_size=1,
        max_size=6,
    ),
    n_intervals=st.integers(1, 9),
    mission_time=st.sampled_from([1.0, 3.0, 10.0, 0.7]),
)
def test_edge_aligned_traces_match_reference(quarters, n_intervals, mission_time):
    # cycle lengths in quarter interval widths land failures and period
    # boundaries on interval edges (and past the horizon) as often as not
    cfg = config(mission_time=mission_time, n_intervals=n_intervals, n_replications=len(quarters))
    width = mission_time / n_intervals
    cycle_lists = [tuple((a * width / 4, b * width / 4) for a, b in q) for q in quarters]
    traces = [ReplicationTrace(c, 0.0, 0.0) for c in cycle_lists]
    references = [ReferenceTrace(c, len(c), 0.0, 0.0) for c in cycle_lists]
    for trace, ref in zip(traces, references):
        assert trace.failure_times() == ref.failure_times()
        assert trace.up_periods(mission_time) == ref.up_periods(mission_time)
    assert_same_table(traces, references, cfg)
