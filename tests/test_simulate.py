import math
import os
import random
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmurel import simulate
from pmurel.csvout import write_csv
from pmurel.simulate import (
    ExposureTable,
    ReplicationTrace,
    SimulationConfig,
    build_exposure_table,
    run_replication,
    run_simulation,
)
from test_simulate_oracle import (
    ReferenceTrace,
    assert_same_events,
    assert_same_trace,
    engine_trace,
    reference_events,
    reference_run_replication,
)

FAILURE_RATE = 0.6566
REPAIR_RATE = 22.2898
MISSION = 10.0
CLOSED_FORM_AVAILABILITY = REPAIR_RATE / (FAILURE_RATE + REPAIR_RATE)
RENEWAL_MEAN_FAILURES = MISSION / (1.0 / FAILURE_RATE + 1.0 / REPAIR_RATE)


pytestmark = pytest.mark.usefixtures("fresh_tiles")


def base_config(**overrides):
    kwargs = dict(
        failure_rate=FAILURE_RATE,
        repair_rate=REPAIR_RATE,
        mission_time=MISSION,
        n_replications=10000,
        master_seed=42,
        n_intervals=8,
    )
    kwargs.update(overrides)
    return SimulationConfig(**kwargs)


class TestConfig:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("failure_rate", 0.0),
            ("repair_rate", -1.0),
            ("mission_time", 0.0),
            ("n_replications", 0),
            ("n_intervals", 0),
            ("master_seed", -1),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            base_config(**{field: value})

    @pytest.mark.parametrize(
        "field,value",
        [("master_seed", 42.0), ("master_seed", 1.5), ("n_replications", 3.0), ("n_intervals", 8.0)],
    )
    def test_rejects_non_integers_when_built(self, field, value):
        # an integral float such as 3.0 would otherwise fail only inside run_simulation
        with pytest.raises(TypeError):
            base_config(**{field: value})


class TestSampleExponential:
    """Exponential durations as the engine takes them: ``_walk``, the one
    place that turns a draw into a time, takes -ln(u)/rate of the substream's
    uniforms u and skips exact zeros."""

    def test_inverse_transform_identity(self):
        # u = e^-1 (to 2**-53) maps to one mean waiting time; TINY's failure
        # time lies past the horizon of ten
        u = round(math.exp(-1.0) * 2**53) * 2.0**-53
        for rate in (0.6566, 2.0, 22.2898):
            events, *_ = simulate._walk(_ScriptedStream(u, u, TINY, 0.5), rate, rate, 10.0 / rate, 4)
            assert events[0, 0] == -port_log(u) / rate == pytest.approx(1.0 / rate, rel=1e-12)

    def test_zero_uniform_draw_is_rejected(self):
        events, *_ = simulate._walk(_ScriptedStream(0.0, 0.5, 0.5, TINY), 1.0, 1.0, 10.0, 4)
        assert events[0, 0] == -port_log(0.5)

    def test_rejects_nonpositive_rate(self):
        # the rates a draw is divided by are checked where a campaign is built
        for name in ("failure_rate", "repair_rate"):
            for rate in (0.0, -1.0, math.nan, math.inf):
                with pytest.raises(ValueError):
                    base_config(**{name: rate})

    def test_sample_mean_matches_analytic(self):
        # 64 missions of about 2000 failures each, with all but instant repairs
        cfg = base_config(repair_rate=1e9, mission_time=2000.0 / FAILURE_RATE, n_replications=64)
        ttf = np.concatenate([run_replication(cfg, i).events[:, 0] for i in range(64)])
        assert len(ttf) > 100000
        assert abs(ttf.mean() * FAILURE_RATE - 1.0) < 0.01

    def test_fixed_seed_reproduces_sequence(self, fresh_tiles):
        cfg = base_config(n_replications=50)
        first = [run_replication(cfg, i) for i in range(50)]
        fresh_tiles()
        for i, trace in enumerate(first):
            again = run_replication(cfg, i)
            assert again is not trace
            assert np.array_equal(again.events, trace.events)
            assert (again.up_time, again.down_time) == (trace.up_time, trace.down_time)

    def test_different_replications_differ(self):
        cfg = base_config(n_replications=2)
        assert not np.array_equal(run_replication(cfg, 0).events, run_replication(cfg, 1).events)


def port_log(u):
    """The engine's log of one uniform, ``simulate._log``: not the
    platform's ``math.log``, which may round it otherwise."""
    return float(simulate._log(np.array([u]))[0])


def seed_sequence_rng(seed, index):
    """A replication's substream as numpy's own SeedSequence builds it."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


BLOCK = simulate._SUBSTREAM_BLOCK
EDGE_SEEDS = [0, 1, 42, 2**32 - 1, 2**32, 2**64 + 7, 2**96 + 5, 2**200 + 3]
EDGE_INDICES = [
    0, 1, BLOCK - 1, BLOCK, 2 * BLOCK - 1, 2 * BLOCK, 2**31,
    2**32 - BLOCK - 1, 2**32 - BLOCK, 2**32 - 1, 2**32, 2**32 + BLOCK,
    2**40 + 3, 2**64 - 1, 2**64, 2**70 + 5,
]
block_edges = st.builds(
    lambda block, offset: block * BLOCK + offset,
    st.integers(0, 2**60),
    st.sampled_from([0, 1, BLOCK - 1]),
)


def substream_words(seed, index):
    """The PCG64 seed words of replication ``index``'s substream."""
    block, row = divmod(index, BLOCK)
    return simulate._substream_block(seed, block)[row]


def assert_seed_sequence_words(seed, index):
    want = np.random.SeedSequence(entropy=seed, spawn_key=(index,)).generate_state(4, np.uint64)
    assert np.array_equal(substream_words(seed, index), want)


def replication_trace(seed, index):
    """Replication ``index`` of a one-replication campaign under ``seed``."""
    return run_replication(base_config(master_seed=seed, n_replications=1), index)


class TestReplicationRng:
    """Each replication's random substream: its seed words, the rows of
    ``_substream_block``, against numpy's own SeedSequence, and the checks on
    the seed and the index."""

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_block_edges_match_seed_sequence(self, seed):
        for index in EDGE_INDICES:
            assert_seed_sequence_words(seed, index)

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64), st.integers(2**96, 2**160)),
        index=st.one_of(st.sampled_from(EDGE_INDICES), block_edges, st.integers(0, 2**80)),
    )
    def test_matches_seed_sequence(self, seed, index):
        assert_seed_sequence_words(seed, index)

    @settings(max_examples=50, deadline=None)
    @given(calls=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3 * BLOCK)), min_size=2, max_size=12))
    def test_call_order_does_not_matter(self, calls):
        # out of order, and interleaving more seeds and blocks than are kept
        for seed, index in calls:
            assert_seed_sequence_words(seed, index)

    @pytest.mark.parametrize("seed,index", [(-1, 0), (0, -1), (-(2**64), 5), (3, -(2**40))])
    def test_negative_arguments_raise_value_error(self, seed, index):
        for build in (replication_trace, seed_sequence_rng):
            with pytest.raises(ValueError):
                build(seed, index)

    @pytest.mark.parametrize("seed,index", [(1.5, 0), (0, 1.5), (2.0, 0), (0, np.float64(3.0))])
    def test_non_integer_arguments_raise_type_error(self, seed, index):
        for build in (replication_trace, seed_sequence_rng):
            with pytest.raises(TypeError):
                build(seed, index)

    @pytest.mark.parametrize(
        "seed,index,same_as",
        [(True, False, (1, 0)), (False, True, (0, 1)), (np.int64(9), np.uint64(BLOCK), (9, BLOCK))],
    )
    def test_booleans_and_numpy_integers_are_accepted(self, seed, index, same_as, fresh_tiles):
        trace = replication_trace(seed, index)
        fresh_tiles()
        want = replication_trace(*same_as)
        assert np.array_equal(trace.events, want.events)
        assert (trace.up_time, trace.down_time) == (want.up_time, want.down_time)


class TestStreams:
    @pytest.mark.parametrize("kind", ["_ArrayStreams", "_NativeStreams"])
    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.one_of(st.sampled_from(EDGE_SEEDS[:4]), st.integers(0, 2**63)),
        indices=st.lists(st.one_of(block_edges, st.integers(0, 3 * BLOCK)), min_size=1, max_size=6),
        data=st.data(),
    )
    def test_windows_match_pcg64_after_advance(self, kind, seed, indices, data):
        # rounds over subsets of the rows, each followed by resuming some of
        # them at a draw index of their window; numpy's PCG64 does the same
        # with random_raw and advance
        words = np.array([substream_words(seed, i) for i in indices])
        streams = getattr(simulate, kind)(words)
        assert len(streams) == len(indices)
        references = [np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(i,))) for i in indices]
        for _ in range(data.draw(st.integers(1, 4), label="rounds")):
            width = data.draw(st.integers(2, 2 * simulate.ARRAY_STREAM_DRAWS), label="width")
            rows = sorted(data.draw(st.sets(st.integers(0, len(indices) - 1), min_size=1), label="rows"))
            raw = streams.draw(np.array(rows), width)
            assert raw.dtype == np.uint64
            for got, r in zip(raw.tolist(), rows):
                assert got == references[r].random_raw(width).tolist()
            which = sorted(data.draw(st.sets(st.integers(0, len(rows) - 1)), label="resumed"))
            draws = [data.draw(st.integers(0, width), label="resume at") for _ in which]
            streams.resume(np.array(which, dtype=np.intp), np.array(draws, dtype=np.intp))
            for w, d in zip(which, draws):
                references[rows[w]].advance(d - width)
        for r, reference in enumerate(references):
            assert streams.draw(np.array([r]), 2)[0].tolist() == reference.random_raw(2).tolist()


class TestRunReplication:
    def test_survives_whole_mission(self):
        cfg = base_config(failure_rate=1e-12, n_replications=1)
        trace = run_replication(cfg, 0)
        assert trace.n_failures == 0
        assert_same_events(trace.events, reference_events(()))
        assert trace.up_time == MISSION
        assert trace.down_time == 0.0

    def test_instantaneous_repair_limit(self):
        cfg = base_config(repair_rate=1e9, n_replications=1)
        trace = run_replication(cfg, 0)
        assert trace.up_time / MISSION > 0.9999

    def test_up_and_down_cover_the_mission(self):
        cfg = base_config(n_replications=1)
        for i in range(50):
            trace = run_replication(cfg, i)
            assert trace.up_time + trace.down_time == pytest.approx(MISSION, abs=1e-9)
            assert (trace.events[:, :2] > 0.0).all()

    def test_failure_times_ordered_and_within_mission(self):
        cfg = base_config(n_replications=1)
        trace = run_replication(cfg, 11)
        times = trace.events[:, 2].tolist()
        assert times == sorted(times)
        assert all(0.0 < ft < MISSION for ft in times)

    def test_up_periods_match_up_time(self):
        cfg = base_config(n_replications=1)
        for i in range(20):
            trace = run_replication(cfg, i)
            covered = sum(e - s for s, e in trace.up_periods(MISSION))
            assert covered == pytest.approx(trace.up_time, abs=1e-9)

    def test_up_periods_run_on_the_one_clock(self):
        # every up period but the tail ends exactly at its failure time, and
        # none of the 559 missions whose last repair was clipped at the
        # horizon lists an up period after it
        cfg = base_config(n_replications=20000)
        clipped = 0
        for i in range(cfg.n_replications):
            trace = run_replication(cfg, i)
            periods = trace.up_periods(MISSION)
            assert [end for _, end in periods[: trace.n_failures]] == trace.events[:, 2].tolist()
            if trace.n_failures and trace.events[-1, 2] + trace.events[-1, 1] >= MISSION:
                clipped += 1
                assert len(periods) == trace.n_failures
        assert clipped == 559


class _ScriptedStream:
    """Stands in for the substreams of a tile of one replication: serves
    scripted uniforms as the raw outputs they come from, recording where each
    draw starts and its size.
    """

    def __init__(self, *values):
        self.raw = []
        for u in values:
            raw = int(u * 2**53) << 11
            assert (raw >> 11) * 2.0**-53 == u, f"{u} is not a multiple of 2**-53"
            self.raw.append(raw)
        self.position = 0
        self.draws = []

    def __len__(self):
        return 1

    def draw(self, rows, size):
        assert rows.tolist() == [0]
        if self.position + size > len(self.raw):
            raise AssertionError("the replication drew past its scripted uniforms")
        if len(self.draws) == 20:
            raise AssertionError("the replication keeps drawing without moving on")
        self.draws.append((self.position, size))
        self.position += size
        return np.array([self.raw[self.position - size:self.position]], dtype=np.uint64)

    def resume(self, which, draws):
        assert which.tolist() in ([], [0])
        if len(which):
            self.position = self.draws[-1][0] + int(draws[0])


# the smallest nonzero uniform; its failure time (about 56) outlives any
# mission used below
TINY = 2.0**-53


class TestDrawPath:
    # scripted draws must neither use nor leave a held tile: the module's
    # fresh_tiles drops it before and after each test
    def scripted(self, monkeypatch, width, *values):
        stream = _ScriptedStream(*values)
        monkeypatch.setattr(simulate, "_draw_plan", lambda *rates_and_mission: (lambda words: stream, width))
        return stream

    def test_block_size_is_capped(self, monkeypatch):
        # draws per replication and round: array streams take two per
        # expected cycle (6.4 here); native ones, past ARRAY_STREAM_DRAWS,
        # add slack, and are capped at the round budget of TILE_ROWS * 16
        # states less one, made even, for huge expected counts
        assert simulate._draw_plan(FAILURE_RATE, REPAIR_RATE, MISSION) == (simulate._ArrayStreams, 14)
        assert simulate._draw_plan(FAILURE_RATE, REPAIR_RATE, 60.0) == (simulate._NativeStreams, 108)
        assert simulate._draw_plan(1e300, 1e300, 1e10) == (simulate._NativeStreams, 16382)
        assert simulate.TILE_ROWS * 16 == 16384
        # the budget is read at call time, and the kind comes from the round
        # before its cap: with one-row tiles a native round holds 14 draws
        monkeypatch.setattr(simulate, "TILE_ROWS", 1)
        assert simulate._draw_plan(FAILURE_RATE, REPAIR_RATE, 60.0) == (simulate._NativeStreams, 14)
        assert simulate._draw_plan(FAILURE_RATE, REPAIR_RATE, MISSION) == (simulate._ArrayStreams, 14)

    def test_zero_inside_a_block_is_skipped(self, monkeypatch):
        # 0.5 fails, 0.0 is skipped, 0.9 repairs, TINY outlives the mission
        self.scripted(monkeypatch, 8, 0.5, 0.0, 0.9, TINY, 0.5, 0.5, 0.5, 0.5)
        trace = run_replication(base_config(n_replications=1), 0)
        assert_same_events(trace.events, reference_events(
            ((-port_log(0.5) / FAILURE_RATE, -port_log(0.9) / REPAIR_RATE),)))

    def test_exhausted_block_tops_up_from_the_same_substream(self, monkeypatch, fresh_tiles):
        cfg = base_config(mission_time=100.0, n_replications=5)
        expected = [run_replication(cfg, i) for i in range(5)]
        for streams in (simulate._ArrayStreams, simulate._NativeStreams):
            fresh_tiles()
            seeded = []

            def recording_streams(words, streams=streams):
                seeded.append(words.copy())
                return streams(words)

            monkeypatch.setattr(simulate, "_draw_plan", lambda *rates_and_mission: (recording_streams, 4))
            for i, want in enumerate(expected):
                got = run_replication(cfg, i)
                assert got.n_failures > 2  # needs more draws than one round holds
                assert np.array_equal(got.events, want.events)
                assert (got.up_time, got.down_time) == (want.up_time, want.down_time)
            assert np.array_equal(np.concatenate(seeded), simulate._substream_block(cfg.master_seed, 0)[:5])

    def test_top_up_continues_the_block_stream(self, monkeypatch):
        # the first round's last failure time has no repair draw, so the next
        # round starts at it; its zero is skipped both times
        stream = self.scripted(monkeypatch, 4, 0.5, 0.9, 0.25, 0.0, 0.8, TINY)
        trace = run_replication(base_config(n_replications=1), 0)
        assert stream.draws == [(0, 4), (2, 4)]
        assert_same_events(trace.events, reference_events((
            (-port_log(0.5) / FAILURE_RATE, -port_log(0.9) / REPAIR_RATE),
            (-port_log(0.25) / FAILURE_RATE, -port_log(0.8) / REPAIR_RATE),
        )))

    def test_window_without_two_nonzero_draws_widens(self, monkeypatch):
        # two draws per round: the second round holds 0.25 and a zero, too few
        # for a cycle, so the third starts at 0.25 again with twice the draws
        stream = self.scripted(monkeypatch, 2, 0.5, 0.9, 0.25, 0.0, 0.8, TINY)
        trace = run_replication(base_config(n_replications=1), 0)
        assert stream.draws == [(0, 2), (2, 2), (2, 4)]
        assert_same_events(trace.events, reference_events((
            (-port_log(0.5) / FAILURE_RATE, -port_log(0.9) / REPAIR_RATE),
            (-port_log(0.25) / FAILURE_RATE, -port_log(0.8) / REPAIR_RATE),
        )))

    def test_failure_exactly_at_the_horizon_ends_the_walk(self, monkeypatch):
        # a first failure time equal to the horizon counts as reaching it,
        # as the scalar loop's clock + ttf >= horizon does: no failure, the
        # whole mission up, and no draw after the first round
        u = seed_sequence_rng(2023, 1).random()
        horizon = -port_log(u) / FAILURE_RATE
        stream = self.scripted(monkeypatch, 8, u, 0.5, TINY, 0.5, 0.5, 0.5, 0.5, 0.5)
        trace = run_replication(base_config(mission_time=horizon, n_replications=1), 0)
        assert_same_events(trace.events, reference_events(()))
        assert (trace.up_time, trace.down_time) == (horizon, 0.0)
        assert stream.draws == [(0, 8)]

    def test_times_use_the_log_port(self, monkeypatch):
        # a uniform whose time the port and the platform's math.log round
        # apart: the engine takes the port's, whatever the platform
        uniforms = seed_sequence_rng(2023, 0).random(1000)
        ported = (-simulate._log(uniforms) / FAILURE_RATE).tolist()
        differing = [
            (u, t) for u, t in zip(uniforms.tolist(), ported) if t != -math.log(u) / FAILURE_RATE
        ]
        if not differing:
            pytest.skip("math.log agrees with the port on every sampled uniform here")
        u, want = differing[0]
        # u's failure time is below 50 unless u < 6e-15; TINY's is above 50
        self.scripted(monkeypatch, 8, u, 0.5, TINY, 0.5, 0.5, 0.5, 0.5, 0.5)
        trace = run_replication(base_config(mission_time=50.0, n_replications=1), 0)
        assert trace.events[0, 0] == want == trace.events[0, 2]


class TestReplicationTrace:
    def test_is_immutable(self):
        # run_replication is the one maker of traces, and what they hold
        # cannot change
        for args in ((), ((), 0.0)):
            with pytest.raises(TypeError, match="run_replication"):
                ReplicationTrace(*args)
        cfg = base_config(n_replications=1)
        trace = run_replication(cfg, 0)
        assert_same_trace(trace, reference_run_replication(cfg, 0), MISSION)
        with pytest.raises(AttributeError):
            trace.up_time = 1.0
        with pytest.raises(AttributeError):
            trace.events = trace.events.copy()
        with pytest.raises(ValueError):
            trace.events[0, 0] = 2.0

    def test_down_time_adds_the_repairs_in_cycle_order(self):
        # sixteen repairs whose running sum, as the walk's clock adds, differs
        # from numpy's pairwise one
        repairs = [1.0] + [2.0**-53] * 15
        trace = engine_trace(ReferenceTrace(tuple((1.0, r) for r in repairs), 16, 0.0, 1.0))
        assert trace.down_time == 1.0 != float(np.sum(repairs))

    def test_simulated_traces_are_read_only_views_of_their_tile(self):
        cfg = base_config(n_replications=20)
        first, second = run_replication(cfg, 3), run_replication(cfg, 4)
        assert first.events.base is second.events.base
        with pytest.raises(ValueError):
            first.events[0, 0] = 2.0
        with pytest.raises(AttributeError):
            first.up_time = 1.0


def output_bytes(summary, out):
    """The bytes of the summary and exposure CSVs written for ``summary``
    into the new directory ``out``."""
    out.mkdir()
    write_csv(
        out / "summary.csv",
        ["availability", "mean_failures", "availability_se", "mean_failures_se"],
        [(summary.availability, summary.mean_failures, summary.availability_se, summary.mean_failures_se)],
    )
    write_csv(out / "exposure.csv", ["interval", "X_i", "T_i"], summary.exposure.rows())
    return (out / "summary.csv").read_bytes() + (out / "exposure.csv").read_bytes()


class TestRunSimulation:
    def test_reproducible_bit_for_bit(self):
        cfg = base_config(n_replications=2000)
        assert run_simulation(cfg) == run_simulation(cfg)

    @pytest.mark.parametrize("chunk", [1, 7, simulate.EXPOSURE_CHUNK])
    def test_identical_for_any_chunk_size(self, chunk, monkeypatch, tmp_path):
        # two whole substream blocks and part of a third, so the streamed run
        # replaces the held tile and the kept seed words while it still
        # buckets; a budget below a trace's pair bound makes every run a
        # single trace
        n = 2 * simulate._SUBSTREAM_BLOCK + 37
        cfg = base_config(n_replications=n)
        default = output_bytes(run_simulation(cfg), tmp_path / "default")
        monkeypatch.setattr(simulate, "EXPOSURE_CHUNK", chunk)
        summary = run_simulation(cfg)
        assert output_bytes(summary, tmp_path / f"chunk{chunk}") == default
        assert summary.exposure == build_exposure_table([run_replication(cfg, i) for i in range(n)], cfg)

    def test_memory_grows_by_the_per_replication_arrays_only(self, fresh_tiles):
        # Whatever its length, the streamed campaign holds one walked tile,
        # one block of seed words, one exposure run of traces and its
        # pairs, plus 16 bytes per replication for the up fractions and
        # failure counts; holding every trace costs hundreds.  Both sizes hold
        # the same tile and block sizes, so those cancel.
        def peak(blocks):
            cfg = base_config(n_replications=blocks * simulate._SUBSTREAM_BLOCK)
            fresh_tiles()
            tracemalloc.start()
            try:
                run_simulation(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                fresh_tiles()

        run_simulation(base_config(n_replications=10))  # fills the module's other caches
        added = 4 * simulate._SUBSTREAM_BLOCK
        assert peak(7) - peak(3) <= 64 * added

    def test_memory_does_not_grow_with_mission_time(self, fresh_tiles):
        # Ten times the mission means ten times the events per trace; only one
        # tile of them is alive at a time, and a tile's rows shrink as its
        # rounds widen, so the peak stays put.  Holding whole blocks of traces
        # grows it by about 6 MiB here.
        def peak(mission_time):
            cfg = base_config(mission_time=mission_time, n_replications=1000)
            fresh_tiles()
            tracemalloc.start()
            try:
                run_simulation(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                fresh_tiles()

        run_simulation(base_config(n_replications=10))  # fills the module's other caches
        assert peak(400.0) - peak(40.0) <= 2**20

    def test_memory_does_not_grow_with_interval_count(self, fresh_tiles):
        # A period expands into one (interval, overlap) pair per interval it
        # covers: about 130 per period at a thousand intervals over ten
        # years, against 2 at eight.  A run of traces is cut to keep their
        # pair bounds within EXPOSURE_CHUNK, so the peak stays put; runs cut
        # at 4096 periods instead, whatever their pairs, grow it by about
        # 30 MiB here.
        def peak(n_intervals):
            cfg = base_config(n_replications=3000, n_intervals=n_intervals)
            fresh_tiles()
            tracemalloc.start()
            try:
                run_simulation(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                fresh_tiles()

        run_simulation(base_config(n_replications=10))  # fills the module's other caches
        assert peak(1000) - peak(8) <= 2**20

    def test_revisited_tiles_are_walked_again_to_the_same_traces(self, monkeypatch, fresh_tiles):
        # runs of 101 consecutive indices in shuffled order, over two whole
        # blocks and part of a third: runs come back to tiles already
        # replaced by another, in both whole blocks
        n = 2 * simulate._SUBSTREAM_BLOCK + 37
        cfg = base_config(n_replications=n)
        want = [run_replication(cfg, i) for i in range(n)]
        fresh_tiles()

        walked = []
        walk_tile = simulate._walk_tile

        def recording_walk_tile(cfg, index):
            tile = walk_tile(cfg, index)
            walked.append(tile[0])
            return tile

        monkeypatch.setattr(simulate, "_walk_tile", recording_walk_tile)
        runs = [range(lo, min(lo + 101, n)) for lo in range(0, n, 101)]
        random.Random(12).shuffle(runs)
        for i in (i for run in runs for i in run):
            got = run_replication(cfg, i)
            assert np.array_equal(got.events, want[i].events)
            assert (got.up_time, got.down_time) == (want[i].up_time, want[i].down_time)
        for block in (0, 1):
            tiles = [first for first in walked if first // simulate._SUBSTREAM_BLOCK == block]
            assert len(tiles) > len(set(tiles))

    def test_the_last_tile_stays_held_as_one_event_array(self, monkeypatch, fresh_tiles):
        # after an in-process campaign, calls for its last tile's indices walk
        # nothing: they cut their traces from the held tile's one event array
        n = simulate._SUBSTREAM_BLOCK + 37
        cfg = base_config(n_replications=n)
        monkeypatch.setattr(simulate, "_walker_pays", lambda cfg: False)
        run_simulation(cfg)
        walked = []

        def recording_walk_tile(cfg, index, real=simulate._walk_tile):
            walked.append(index)
            return real(cfg, index)

        monkeypatch.setattr(simulate, "_walk_tile", recording_walk_tile)
        last = range(simulate._SUBSTREAM_BLOCK, n)
        traces = [run_replication(cfg, i) for i in last]
        assert walked == []
        events = simulate._held[2]
        assert all(trace.events.base is events and not trace.events.flags.writeable for trace in traces)
        fresh_tiles()
        for i, trace in zip(last, traces):
            want = run_replication(cfg, i)
            assert np.array_equal(trace.events, want.events)
            assert trace.up_time == want.up_time
        assert walked == [last[0]]

    @staticmethod
    def bucketed(cfg, monkeypatch):
        """``run_simulation(cfg)`` in this process, and the trace of each
        index that it bucketed."""
        traces = []

        def recording_run_replication(cfg, index, real=simulate.run_replication):
            traces.append(real(cfg, index))
            return traces[-1]

        with monkeypatch.context() as patch:
            patch.setattr(simulate, "_walker_pays", lambda cfg: False)
            patch.setattr(simulate, "run_replication", recording_run_replication)
            return run_simulation(cfg), traces

    # TILE_ROWS at sizes that cut a block into runt tiles and into none, on a
    # campaign of each stream kind that ends 37 rows into its second block.
    # Array rounds hold 14 draws at mission 10, so 7 rows are tiles of 7.
    # Native rounds hold 108 draws at mission 60: one row caps them at 14,
    # 100 rows are tiles of 12 and 4096 rows tiles of 512.
    @pytest.mark.parametrize(
        "mission,kind,rows",
        [pytest.param(MISSION, "_ArrayStreams", rows, id=f"array_rows_{rows}") for rows in (1, 7, 1024, 4096)]
        + [pytest.param(60.0, "_NativeStreams", rows, id=f"native_rows_{rows}") for rows in (1, 100, 4096)],
    )
    def test_identical_for_any_tile_size(self, mission, kind, rows, monkeypatch, tmp_path, fresh_tiles):
        cfg = base_config(mission_time=mission, n_replications=simulate._SUBSTREAM_BLOCK + 37)
        assert simulate._draw_plan(cfg.failure_rate, cfg.repair_rate, cfg.mission_time)[0] is getattr(simulate, kind)
        default, default_traces = self.bucketed(cfg, monkeypatch)
        fresh_tiles()
        monkeypatch.setattr(simulate, "TILE_ROWS", rows)
        summary, traces = self.bucketed(cfg, monkeypatch)
        assert output_bytes(summary, tmp_path / "tiled") == output_bytes(default, tmp_path / "default")
        assert len(traces) == len(default_traces) == cfg.n_replications
        for got, want in zip(traces, default_traces):
            assert np.array_equal(got.events, want.events)
            assert (got.up_time, got.down_time) == (want.up_time, want.down_time)

    @staticmethod
    def walked_tiles(cfg, monkeypatch):
        """The (first index, rows) of each tile that an in-process
        ``run_simulation(cfg)`` walked, in order."""
        walked = []

        def recording_walk_tile(cfg, index, real=simulate._walk_tile):
            tile = real(cfg, index)
            walked.append((tile[0], len(tile[2])))
            return tile

        monkeypatch.setattr(simulate, "_walk_tile", recording_walk_tile)
        monkeypatch.setattr(simulate, "_walker_pays", lambda cfg: False)
        run_simulation(cfg)
        return walked

    def test_full_blocks_of_array_streams_walk_in_equal_tiles(self, monkeypatch):
        n = 2 * simulate._SUBSTREAM_BLOCK + 37
        walked = self.walked_tiles(base_config(n_replications=n), monkeypatch)
        rows = simulate.TILE_ROWS
        full_blocks = [(first, rows) for first in range(0, 2 * simulate._SUBSTREAM_BLOCK, rows)]
        assert walked == full_blocks + [(2 * simulate._SUBSTREAM_BLOCK, 37)]

    def test_full_blocks_of_native_streams_walk_in_equal_tiles(self, monkeypatch):
        # rounds of 108 draws at mission 60: 128 rows of 109 states fit the
        # budget of 1024 x 16, 256 would not
        n = 2 * simulate._SUBSTREAM_BLOCK + 37
        walked = self.walked_tiles(base_config(mission_time=60.0, n_replications=n), monkeypatch)
        full_blocks = [(first, 128) for first in range(0, 2 * simulate._SUBSTREAM_BLOCK, 128)]
        assert walked == full_blocks + [(2 * simulate._SUBSTREAM_BLOCK, 37)]

    @pytest.mark.parametrize(
        "mission,n_replications,kind,widest",
        [pytest.param(MISSION, simulate._SUBSTREAM_BLOCK + 37, "_ArrayStreams", 14, id="array"),
         pytest.param(60.0, 300, "_NativeStreams", 108, id="native"),
         pytest.param(2000.0, 9, "_NativeStreams", 2702, id="native_wide"),
         pytest.param(20000.0, 3, "_NativeStreams", 16382, id="capped")],
    )
    def test_every_round_keeps_within_the_budget(self, mission, n_replications, kind, widest, monkeypatch):
        # every draw(rows, width) of a campaign holds at most TILE_ROWS * 16
        # states, rows x (width + 1); at mission 20000 the rounds are capped
        streams = getattr(simulate, kind)
        rounds = []

        def recording_draw(self, rows, width, real=streams.draw):
            rounds.append((len(rows), width))
            return real(self, rows, width)

        monkeypatch.setattr(streams, "draw", recording_draw)
        monkeypatch.setattr(simulate, "_walker_pays", lambda cfg: False)
        run_simulation(base_config(mission_time=mission, n_replications=n_replications))
        assert max(width for _, width in rounds) == widest
        assert all(rows * (width + 1) <= simulate.TILE_ROWS * 16 for rows, width in rounds)

    def test_threads_interleaving_campaigns_get_their_own_traces(self, fresh_tiles):
        # six threads on two cores, each calling its own campaign in index
        # order 50 times over, replace the one held tile under each other;
        # a call that read the held tile in two steps could mix two tiles
        configs = [base_config(n_replications=120, master_seed=seed) for seed in range(6)]
        want = [[run_replication(cfg, i) for i in range(cfg.n_replications)] for cfg in configs]
        fresh_tiles()
        start = threading.Barrier(len(configs))
        wrong = []

        def calls(cfg, expected):
            start.wait()
            for _ in range(50):
                for i, trace in enumerate(expected):
                    got = run_replication(cfg, i)
                    if not (np.array_equal(got.events, trace.events)
                            and (got.up_time, got.down_time) == (trace.up_time, trace.down_time)):
                        wrong.append((cfg.master_seed, i))

        threads = [threading.Thread(target=calls, args=pair) for pair in zip(configs, want)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_narrow_rounds_never_import_numpy_random(self, tmp_path):
        # the default campaign draws from array streams; a fresh interpreter
        # shows whether anything imported numpy.random
        src = os.path.dirname(os.path.dirname(simulate.__file__))
        code = (
            "import sys; from pmurel.cli import main; "
            "assert main(['pipeline', '--out', sys.argv[1]]) == 0; "
            "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))"
        )
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        assert done.stdout.strip() == "[]"

    def test_single_replication_equals_trace(self):
        cfg = base_config(n_replications=1)
        summary = run_simulation(cfg)
        trace = run_replication(cfg, 0)
        assert summary.availability == trace.up_time / MISSION
        assert summary.mean_failures == trace.n_failures
        assert summary.availability_se == 0.0
        assert summary.mean_failures_se == 0.0

    def test_availability_near_closed_form(self):
        summary = run_simulation(base_config())
        assert abs(summary.availability - CLOSED_FORM_AVAILABILITY) < 0.002
        # pinned for the fixed seed so regressions cannot hide inside the
        # statistical tolerance
        assert summary.availability == pytest.approx(0.9716672728995316, rel=1e-12)

    def test_mean_failures_near_renewal_value(self):
        summary = run_simulation(base_config())
        assert abs(summary.mean_failures - RENEWAL_MEAN_FAILURES) < 0.02 * RENEWAL_MEAN_FAILURES

    def test_faster_repair_raises_availability(self):
        slow = run_simulation(base_config(n_replications=2000))
        fast = run_simulation(base_config(n_replications=2000, repair_rate=2 * REPAIR_RATE))
        assert fast.availability > slow.availability


def expected_interval_up_time(failure_rate, repair_rate, start, end):
    """Integral of P_up over [start, end] for the alternating renewal process
    that starts up: P_up(t) = mu/(l+mu) + l/(l+mu) * exp(-(l+mu) t)."""
    total = failure_rate + repair_rate
    decay = -math.exp(-total * start) * math.expm1(-total * (end - start))
    return repair_rate / total * (end - start) + failure_rate / total**2 * decay


class TestExactExposureExpectation:
    """E[T_i] is n times the integral of P_up over interval i and
    E[X_i] = lambda * E[T_i]; every bin must lie within 5 standard errors,
    taken from the per-replication tables."""

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        failure_rate=st.floats(0.2, 5.0),
        repair_rate=st.floats(0.5, 50.0),
        mission_time=st.floats(1.0, 20.0),
        n_intervals=st.integers(1, 10),
    )
    def test_every_bin_within_five_standard_errors(
        self, failure_rate, repair_rate, mission_time, n_intervals
    ):
        n = 2000
        cfg = base_config(failure_rate=failure_rate, repair_rate=repair_rate, mission_time=mission_time,
                          n_intervals=n_intervals, n_replications=n, master_seed=11)
        tables = [build_exposure_table([run_replication(cfg, i)], cfg) for i in range(n)]
        edges = np.linspace(0.0, mission_time, n_intervals + 1)
        up = np.array([expected_interval_up_time(failure_rate, repair_rate, a, b)
                       for a, b in zip(edges[:-1], edges[1:])])
        for per_replication, expected in (
            (np.array([t.times for t in tables]), up),
            (np.array([t.counts for t in tables]), failure_rate * up),
        ):
            se = per_replication.std(axis=0, ddof=1)
            assert np.all(se > 0.0)
            z = (per_replication.sum(axis=0) - n * expected) / (math.sqrt(n) * se)
            assert np.all(np.abs(z) <= 5.0), z
        # the campaign's table is the sum of the per-replication ones
        summary = run_simulation(cfg).exposure
        assert summary.counts == tuple(np.sum([t.counts for t in tables], axis=0).tolist())
        assert summary.times == pytest.approx(np.sum([t.times for t in tables], axis=0), rel=1e-12)


class TestExposureTable:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ExposureTable((), ())

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            ExposureTable((1.0,), (1.0, 2.0))

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            ExposureTable((-1.0,), (1.0,))
        with pytest.raises(ValueError):
            ExposureTable((1.0,), (-1.0,))

    def test_rows_are_one_indexed(self):
        table = ExposureTable((1.0, 2.0), (3.0, 4.0))
        assert table.rows() == [(1, 1.0, 3.0), (2, 2.0, 4.0)]


class TestBuildExposureTable:
    def test_hand_built_trace_bucketing(self):
        # mission 10 split into 8 intervals of width 1.25; one failure at
        # t = 2.5 lands in interval 2 (boundary belongs to the earlier,
        # right-closed interval)
        cfg = base_config(n_replications=1)
        trace = engine_trace(ReferenceTrace(((2.5, 0.5),), 1, 9.5, 0.5))
        table = build_exposure_table([trace], cfg)
        assert table.counts == (0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        # up periods [0, 2.5] and [3.0, 10]: interval 3 loses the repair time
        assert table.times == (1.25, 1.25, 0.75, 1.25, 1.25, 1.25, 1.25, 1.25)

    def test_interior_failure_bucketing(self):
        cfg = base_config(n_replications=1)
        trace = engine_trace(ReferenceTrace(((9.99, 0.01),), 1, 9.99, 0.01))
        table = build_exposure_table([trace], cfg)
        assert table.counts[7] == 1.0

    def test_no_failures_gives_full_uptime(self):
        cfg = base_config(failure_rate=1e-12, n_replications=20)
        traces = [run_replication(cfg, i) for i in range(cfg.n_replications)]
        table = build_exposure_table(traces, cfg)
        assert all(x == 0.0 for x in table.counts)
        assert sum(table.times) == pytest.approx(cfg.n_replications * MISSION, rel=1e-12)

    def test_partition_identities(self):
        cfg = base_config(n_replications=500)
        traces = [run_replication(cfg, i) for i in range(cfg.n_replications)]
        table = build_exposure_table(traces, cfg)
        assert sum(table.counts) == sum(t.n_failures for t in traces)
        assert sum(table.times) == pytest.approx(
            sum(t.up_time for t in traces), abs=1e-9 * cfg.n_replications
        )

    @settings(max_examples=60, deadline=None)
    @given(
        mission_time=st.sampled_from([10.0, 2000.0]),
        n_intervals=st.sampled_from([1, 8, 1000]),
        index=st.integers(0, 2 * simulate._SUBSTREAM_BLOCK),
        quarters=st.lists(st.tuples(st.integers(1, 12), st.integers(0, 12)), max_size=12),
    )
    def test_a_trace_covers_at_most_its_pair_bound(self, mission_time, n_intervals, index, quarters):
        # the bound _chunks cuts runs by; cycles in quarter interval widths
        # put period ends on interval edges (and past the horizon) as often
        # as not
        cfg = base_config(mission_time=mission_time, n_intervals=n_intervals, n_replications=index + 1)
        width = mission_time / n_intervals
        cycles = tuple((a * width / 4, b * width / 4) for a, b in quarters)
        hand_made = engine_trace(ReferenceTrace(cycles, len(cycles), 0.0, 0.0))
        edges = np.linspace(0.0, mission_time, n_intervals + 1)
        for trace in (run_replication(cfg, index), hand_made):
            ((rows, _),) = simulate._chunks([trace], mission_time, n_intervals)
            starts, ends = simulate._up_periods(rows)
            _, n_pairs = simulate._cover(starts, ends, np.searchsorted(edges, ends, side="left"), edges)
            assert n_pairs.sum() <= len(trace.events) + n_intervals

    @pytest.mark.parametrize("chunk", [7, simulate.EXPOSURE_CHUNK])
    def test_one_shot_generator_equals_list(self, chunk, monkeypatch):
        monkeypatch.setattr(simulate, "EXPOSURE_CHUNK", chunk)
        cfg = base_config(n_replications=500)
        traces = [run_replication(cfg, i) for i in range(cfg.n_replications)]
        assert build_exposure_table((t for t in traces), cfg) == build_exposure_table(traces, cfg)

    def test_rejects_empty_trace_list(self):
        for empty in ([], iter(())):
            with pytest.raises(ValueError, match="^need at least one replication trace$"):
                build_exposure_table(empty, base_config())
