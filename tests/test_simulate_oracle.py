"""Exact-equality oracle for the Monte Carlo engine.

The reference functions below are a scalar engine: one scalar draw per
event, traces as tuples of (ttf, ttr) pairs walked on one clock, and
exposure bucketing by scalar ``searchsorted`` calls and a loop over the
intervals each up period covers.
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

pytestmark = pytest.mark.usefixtures("fresh_tiles")


# fdlibm's e_log.c (Sun Microsystems, 1993), as the engine's _log takes it
LN2_HI, LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10
LG1, LG2, LG3 = 6.666666666666735130e-01, 3.999999999940941908e-01, 2.857142874366239149e-01
LG4, LG5 = 2.222219843214978396e-01, 1.818357216161805012e-01
LG6, LG7 = 1.531383769920937332e-01, 1.479819860511658591e-01


def reference_log(x):
    """fdlibm's log of one float in (0, 1], step by step in Python floats,
    whose operations round as the engine's numpy ufuncs do."""
    m, k = math.frexp(x)
    if m < math.sqrt(0.5):
        m, k = 2.0 * m, k - 1
    f = m - 1.0
    s = f / (2.0 + f)
    z = s * s
    w = z * z
    r = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7))) + w * (LG2 + w * (LG4 + w * LG6))
    hfsq = 0.5 * f * f
    return k * LN2_HI - ((hfsq - (s * (hfsq + r) + k * LN2_LO)) - f)


def reference_sample_exponential(rate, rng):
    # u = 0 is the inverse transform's limit, an infinite time
    u = rng.random()
    return math.inf if u == 0.0 else -reference_log(u) / rate


def reference_events(cycles):
    """The (ttf, ttr, failure time) rows of ``cycles`` as a read-only
    (n_failures x 3) array, each failure time on the one clock."""
    rows = []
    clock = 0.0
    for ttf, ttr in cycles:
        clock += ttf
        rows.append((ttf, ttr, clock))
        clock += ttr
    events = np.array(rows, dtype=float).reshape(-1, 3)
    events.flags.writeable = False
    return events


def assert_same_events(events, reference):
    assert events.shape == reference.shape
    assert (events == reference).all()


@dataclass(frozen=True)
class ReferenceTrace:
    cycles: tuple
    n_failures: int
    up_time: float
    down_time: float

    @property
    def events(self):
        return reference_events(self.cycles)

    def up_periods(self, mission_time):
        # each period ends at its failure time and the next starts where the
        # repair leaves the same clock
        periods = []
        clock = 0.0
        for ttf, ttr in self.cycles:
            start = clock
            clock += ttf
            periods.append((start, clock))
            clock += ttr
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
        if clock >= horizon or credited < ttr:
            # a repair that reaches the horizon ends the mission, and so
            # does a clipped one whose end rounds short of it: that
            # remainder, at most an ulp, is up time
            up_time += max(horizon - clock, 0.0)
            break
    return ReferenceTrace(tuple(cycles), len(cycles), up_time, down_time)


def engine_trace(ref):
    """``ref`` as an engine trace, made as ``run_replication`` makes one."""
    trace = object.__new__(ReplicationTrace)
    simulate._set_trace(trace, ref.events, ref.up_time)
    return trace


def reference_build_exposure_table(traces, cfg):
    """(counts, times) as the scalar engine summed them."""
    n = cfg.n_intervals
    edges = np.linspace(0.0, cfg.mission_time, n + 1)
    counts = [0] * n
    times = [0.0] * n
    for trace in traces:
        for ft in trace.events[:, 2].tolist():
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
    assert_same_events(trace.events, ref.events)
    assert trace.n_failures == ref.n_failures
    assert (trace.up_time, trace.down_time) == (ref.up_time, ref.down_time)
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


def test_capped_rounds_match_scalar_reference():
    # about 12800 cycles per mission: each row needs more draws than the
    # capped round of 16382 holds, so it carries its clock across rounds
    cfg = config(mission_time=20000.0, n_replications=3, master_seed=20000)
    assert simulate._draw_plan(cfg.failure_rate, cfg.repair_rate, cfg.mission_time) == (
        simulate._NativeStreams, 16382)
    traces = [run_replication(cfg, i) for i in range(cfg.n_replications)]
    references = [reference_run_replication(cfg, i) for i in range(cfg.n_replications)]
    for trace, ref in zip(traces, references):
        assert 2 * trace.n_failures > 16382
        assert_same_trace(trace, ref, cfg.mission_time)
    assert_same_table(traces, references, cfg)


@pytest.mark.parametrize("kind", ["_ArrayStreams", "_NativeStreams"])
@pytest.mark.parametrize("mission_time", [0.3, 10.0, 40.0])
def test_two_draw_rounds_match_scalar_reference(kind, mission_time, monkeypatch):
    # one cycle per round: every row draws many windows from its real stream
    monkeypatch.setattr(simulate, "_draw_plan", lambda *rates_and_mission: (getattr(simulate, kind), 2))
    cfg = config(mission_time=mission_time, n_replications=25, master_seed=2**63 - 25)
    traces = [run_replication(cfg, i) for i in range(cfg.n_replications)]
    references = [reference_run_replication(cfg, i) for i in range(cfg.n_replications)]
    for trace, ref in zip(traces, references):
        assert_same_trace(trace, ref, cfg.mission_time)
    assert_same_table(traces, references, cfg)


def test_repairs_cut_short_match_scalar_reference():
    # rates 0.5 and 0.02 over 7.3: 1882 of 2000 missions end in a clipped
    # repair, and in 163 of them fail_at + (horizon - fail_at) rounds an ulp
    # below the horizon; that remainder is up time, in up_time, as a last
    # up period and in the exposure table
    cfg = config(0.5, 0.02, 7.3, n_replications=2000, master_seed=5)
    horizon = cfg.mission_time
    traces = [run_replication(cfg, i) for i in range(cfg.n_replications)]
    references = [reference_run_replication(cfg, i) for i in range(cfg.n_replications)]
    clipped, short = [], []
    for i, (trace, ref) in enumerate(zip(traces, references)):
        assert_same_trace(trace, ref, horizon)
        rng = np.random.default_rng(np.random.SeedSequence(cfg.master_seed, spawn_key=(i,)))
        uniforms = rng.random(2 * trace.n_failures).tolist()
        if not trace.n_failures or trace.events[-1, 1] == -reference_log(uniforms[-1]) / cfg.repair_rate:
            continue
        clipped.append(trace)
        _, repair, failure = trace.events[-1].tolist()
        remainder = max(horizon - (failure + repair), 0.0)
        assert remainder <= math.ulp(horizon)
        up = 0.0
        for ttf in trace.events[:, 0].tolist():
            up += ttf
        assert trace.up_time == up + remainder
        periods = trace.up_periods(horizon)
        if remainder:
            short.append((trace, ref))
            assert periods[-1] == (failure + repair, horizon)
        assert len(periods) == trace.n_failures + (remainder > 0.0)
    assert (len(clipped), len(short)) == (1882, 163)
    short_traces, short_references = zip(*short)
    table = build_exposure_table(short_traces, cfg)
    assert sum(table.times) == pytest.approx(sum(t.up_time for t in short_traces), rel=1e-15)
    assert_same_table(short_traces, short_references, cfg)
    exposure = run_simulation(cfg).exposure
    assert (exposure.counts, exposure.times) == reference_build_exposure_table(references, cfg)


@pytest.mark.parametrize(
    "n_replications,index",
    [(10, 3 * BLOCK + 17), (5, 4000), (5, 5), (BLOCK + 1, BLOCK), (BLOCK + 1, BLOCK + 3), (1, 2**40)],
)
def test_single_call_matches_scalar_reference(n_replications, index):
    # an index in a later block, or at or past n_replications, called on its own
    cfg = config(n_replications=n_replications, master_seed=7)
    assert_same_trace(run_replication(cfg, index), reference_run_replication(cfg, index), cfg.mission_time)


@settings(max_examples=20, deadline=None)
@given(calls=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 4 * BLOCK)), min_size=2, max_size=10))
def test_out_of_order_calls_match_scalar_reference(calls):
    # three configurations and five blocks against one held tile and one
    # kept block of seed words; short missions keep each block cheap
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
    ref = ReferenceTrace(cycles, len(cycles), up, 0.0)
    trace = engine_trace(ref)
    assert trace.up_periods(cfg.mission_time) == ref.up_periods(cfg.mission_time)
    assert_same_table([trace], [ref], cfg)


def test_hand_built_traces_together_match_reference():
    cfg = config(n_replications=len(HAND_BUILT))
    names = sorted(HAND_BUILT)
    references = [ReferenceTrace(HAND_BUILT[k], len(HAND_BUILT[k]), 0.0, 0.0) for k in names]
    assert_same_table(map(engine_trace, references), references, cfg)


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
    references = [ReferenceTrace(c, len(c), 0.0, 0.0) for c in cycle_lists]
    traces = [engine_trace(ref) for ref in references]
    for trace, ref in zip(traces, references):
        assert trace.up_periods(mission_time) == ref.up_periods(mission_time)
    assert_same_table(traces, references, cfg)


def ulps_apart(a, b):
    """Distance in ulps between float arrays of the same sign."""
    return np.abs(np.asarray(a, dtype=float).view(np.int64) - np.asarray(b, dtype=float).view(np.int64))


# uniforms as the engine draws them, k * 2**-53 with k in 1 ... 2**53
uniform_lists = st.lists(st.integers(1, 2**53), min_size=1, max_size=64).map(
    lambda ks: np.array(ks, dtype=float) * 2.0**-53
)


class TestLogPort:
    """The engine's log, ``simulate._log``, against the platform's
    ``math.log`` and the scalar port above."""

    @settings(max_examples=300, deadline=None)
    @given(uniforms=uniform_lists)
    def test_within_one_ulp_of_math_log(self, uniforms):
        platform = [math.log(u) for u in uniforms.tolist()]
        assert ulps_apart(simulate._log(uniforms), platform).max() <= 1

    @settings(max_examples=300, deadline=None)
    @given(uniforms=uniform_lists)
    def test_scalar_port_equals_vector_port(self, uniforms):
        scalar = [reference_log(u) for u in uniforms.tolist()]
        assert ulps_apart(simulate._log(uniforms), scalar).max() == 0

    def test_powers_of_two_equal_math_log(self):
        powers = 2.0 ** -np.arange(54.0)
        assert simulate._log(powers).tolist() == [math.log(p) for p in powers.tolist()]

    def test_log_of_one_is_positive_zero(self):
        for zero in (simulate._log(np.array([1.0]))[0], reference_log(1.0)):
            assert zero == 0.0 and math.copysign(1.0, zero) == 1.0
