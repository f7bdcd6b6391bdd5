import math
import os
import subprocess
import sys

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

FAILURE_RATE = 0.6566
REPAIR_RATE = 22.2898
MISSION = 10.0
CLOSED_FORM_AVAILABILITY = REPAIR_RATE / (FAILURE_RATE + REPAIR_RATE)
RENEWAL_MEAN_FAILURES = MISSION / (1.0 / FAILURE_RATE + 1.0 / REPAIR_RATE)


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
            assert events[0, 0] == -math.log(u) / rate == pytest.approx(1.0 / rate, rel=1e-12)

    def test_zero_uniform_draw_is_rejected(self):
        events, *_ = simulate._walk(_ScriptedStream(0.0, 0.5, 0.5, TINY), 1.0, 1.0, 10.0, 4)
        assert events[0, 0] == -math.log(0.5)

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

    def test_fixed_seed_reproduces_sequence(self):
        cfg = base_config(n_replications=50)
        first = [run_replication(cfg, i) for i in range(50)]
        simulate._replication_block.cache_clear()
        for i, trace in enumerate(first):
            again = run_replication(cfg, i)
            assert again is not trace
            assert np.array_equal(again.events, trace.events)
            assert (again.up_time, again.down_time) == (trace.up_time, trace.down_time)

    def test_different_replications_differ(self):
        cfg = base_config(n_replications=2)
        assert run_replication(cfg, 0).cycles != run_replication(cfg, 1).cycles


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
    def test_booleans_and_numpy_integers_are_accepted(self, seed, index, same_as):
        trace = replication_trace(seed, index)
        simulate._replication_block.cache_clear()
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
        assert trace.cycles == ()
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
            assert trace.n_failures == len(trace.cycles)
            assert all(ttf > 0.0 and ttr > 0.0 for ttf, ttr in trace.cycles)

    def test_failure_times_ordered_and_within_mission(self):
        cfg = base_config(n_replications=1)
        trace = run_replication(cfg, 11)
        times = trace.failure_times()
        assert times == sorted(times)
        assert all(0.0 < ft < MISSION for ft in times)

    def test_up_periods_match_up_time(self):
        cfg = base_config(n_replications=1)
        for i in range(20):
            trace = run_replication(cfg, i)
            covered = sum(e - s for s, e in trace.up_periods(MISSION))
            assert covered == pytest.approx(trace.up_time, abs=1e-9)


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
    @pytest.fixture(autouse=True)
    def fresh_blocks(self):
        # scripted draws must neither use nor leave a kept block
        simulate._replication_block.cache_clear()
        yield
        simulate._replication_block.cache_clear()

    def scripted(self, monkeypatch, width, *values):
        stream = _ScriptedStream(*values)
        monkeypatch.setattr(simulate, "_draw_plan", lambda *rates_and_mission: (lambda words: stream, width))
        return stream

    def test_block_size_is_capped(self):
        # draws per replication and round: array streams take two per
        # expected cycle (6.4 here); native ones, past ARRAY_STREAM_DRAWS,
        # add slack, and are capped for huge expected counts
        assert simulate._draw_plan(FAILURE_RATE, REPAIR_RATE, MISSION) == (simulate._ArrayStreams, 14)
        assert simulate._draw_plan(1e300, 1e300, 1e10) == (simulate._NativeStreams, simulate.MAX_ROUND_DRAWS)

    def test_zero_inside_a_block_is_skipped(self, monkeypatch):
        # 0.5 fails, 0.0 is skipped, 0.9 repairs, TINY outlives the mission
        self.scripted(monkeypatch, 8, 0.5, 0.0, 0.9, TINY, 0.5, 0.5, 0.5, 0.5)
        trace = run_replication(base_config(n_replications=1), 0)
        assert trace.cycles == ((-math.log(0.5) / FAILURE_RATE, -math.log(0.9) / REPAIR_RATE),)

    def test_exhausted_block_tops_up_from_the_same_substream(self, monkeypatch):
        cfg = base_config(mission_time=100.0, n_replications=5)
        expected = [run_replication(cfg, i) for i in range(5)]
        for streams in (simulate._ArrayStreams, simulate._NativeStreams):
            simulate._replication_block.cache_clear()
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
        assert trace.cycles == (
            (-math.log(0.5) / FAILURE_RATE, -math.log(0.9) / REPAIR_RATE),
            (-math.log(0.25) / FAILURE_RATE, -math.log(0.8) / REPAIR_RATE),
        )

    def test_window_without_two_nonzero_draws_widens(self, monkeypatch):
        # two draws per round: the second round holds 0.25 and a zero, too few
        # for a cycle, so the third starts at 0.25 again with twice the draws
        stream = self.scripted(monkeypatch, 2, 0.5, 0.9, 0.25, 0.0, 0.8, TINY)
        trace = run_replication(base_config(n_replications=1), 0)
        assert stream.draws == [(0, 2), (2, 2), (2, 4)]
        assert trace.cycles == (
            (-math.log(0.5) / FAILURE_RATE, -math.log(0.9) / REPAIR_RATE),
            (-math.log(0.25) / FAILURE_RATE, -math.log(0.8) / REPAIR_RATE),
        )

    def test_walk_that_np_log_ends_too_early_moves_on(self, monkeypatch):
        # np.log puts the first failure exactly at the horizon and math.log
        # just before it, so the walk must take the repair draw as well
        script = [None, 0.5, TINY, 0.5, 0.5, 0.5, 0.5, 0.5]
        uniforms = seed_sequence_rng(2023, 1).random(100000)
        exact = np.array([-math.log(u) for u in uniforms.tolist()]) / FAILURE_RATE
        for u in uniforms[np.log(uniforms) / -FAILURE_RATE > exact].tolist():
            script[0] = u
            horizon = float(np.log(np.array([script]))[0, 0] / -FAILURE_RATE)
            if horizon > -math.log(u) / FAILURE_RATE:
                break
        else:
            pytest.skip("np.log never exceeds math.log on the sampled uniforms here")
        stream = self.scripted(monkeypatch, 8, *script)
        trace = run_replication(base_config(mission_time=horizon, n_replications=1), 0)
        ttf = -math.log(u) / FAILURE_RATE
        assert trace.cycles == ((ttf, horizon - ttf),)
        assert stream.draws == [(0, 8)]

    def test_times_use_math_log(self, monkeypatch):
        uniforms = seed_sequence_rng(2023, 0).random(100000)
        differing = [
            u for u in uniforms.tolist()
            if -math.log(u) / FAILURE_RATE != float(-np.log(u) / FAILURE_RATE)
        ]
        if not differing:
            pytest.skip("np.log and math.log agree on every sampled uniform here")
        u = differing[0]
        # u's failure time is below 50 unless u < 6e-15; TINY's is above 50
        self.scripted(monkeypatch, 8, u, 0.5, TINY, 0.5, 0.5, 0.5, 0.5, 0.5)
        trace = run_replication(base_config(mission_time=50.0, n_replications=1), 0)
        assert trace.cycles[0][0] == -math.log(u) / FAILURE_RATE
        assert trace.failure_times()[0] == -math.log(u) / FAILURE_RATE


class TestReplicationTrace:
    def test_rejects_inconsistent_cycles(self):
        with pytest.raises(ValueError):
            ReplicationTrace(cycles=((0.0, 0.5),), up_time=9.5, down_time=0.5)
        with pytest.raises(ValueError):
            ReplicationTrace(cycles=((1.0, -0.5),), up_time=9.5, down_time=0.5)

    def test_is_immutable(self):
        trace = ReplicationTrace(cycles=((1.0, 0.5),), up_time=9.5, down_time=0.5)
        with pytest.raises(AttributeError):
            trace.up_time = 1.0
        with pytest.raises(ValueError):
            trace.events[0, 0] = 2.0
        assert trace.cycles == ((1.0, 0.5),)

    @pytest.mark.parametrize(
        "up_time,down_time",
        [(math.nan, -3.0), (math.inf, 0.0), (-1.0, 0.0), (0.0, math.nan), (0.0, math.inf), (9.0, -1e-9)],
    )
    def test_rejects_impossible_totals(self, up_time, down_time):
        with pytest.raises(ValueError):
            ReplicationTrace(cycles=(), up_time=up_time, down_time=down_time)

    def test_simulated_traces_are_read_only_views_of_their_tile(self):
        cfg = base_config(n_replications=20)
        first, second = run_replication(cfg, 3), run_replication(cfg, 4)
        assert first.events.base is second.events.base
        with pytest.raises(ValueError):
            first.events[0, 0] = 2.0
        with pytest.raises(AttributeError):
            first.up_time = 1.0


class TestRunSimulation:
    def test_reproducible_bit_for_bit(self):
        cfg = base_config(n_replications=2000)
        assert run_simulation(cfg) == run_simulation(cfg)

    @pytest.mark.parametrize("chunk", [1, 7, simulate.EXPOSURE_CHUNK])
    def test_identical_for_any_chunk_size(self, chunk, monkeypatch, tmp_path):
        cfg = base_config(n_replications=2000)

        def output_bytes(summary, name):
            path = tmp_path / f"{name}.csv"
            write_csv(
                path,
                ["availability", "mean_failures", "availability_se", "mean_failures_se"],
                [(summary.availability, summary.mean_failures,
                  summary.availability_se, summary.mean_failures_se)],
            )
            write_csv(tmp_path / f"{name}_exposure.csv", ["interval", "X_i", "T_i"],
                      summary.exposure.rows())
            return path.read_bytes() + (tmp_path / f"{name}_exposure.csv").read_bytes()

        default = output_bytes(run_simulation(cfg), "default")
        monkeypatch.setattr(simulate, "EXPOSURE_CHUNK", chunk)
        assert output_bytes(run_simulation(cfg), f"chunk{chunk}") == default

    @pytest.mark.parametrize("tile", [1, 75, 4 * simulate.TILE_ELEMENTS])
    def test_identical_for_any_tile_size(self, tile, monkeypatch):
        cfg = base_config(n_replications=300)
        simulate._replication_block.cache_clear()
        default = [run_replication(cfg, i) for i in range(cfg.n_replications)]
        simulate._replication_block.cache_clear()
        monkeypatch.setattr(simulate, "TILE_ELEMENTS", tile)
        for i, want in enumerate(default):
            got = run_replication(cfg, i)
            assert np.array_equal(got.events, want.events)
            assert (got.up_time, got.down_time) == (want.up_time, want.down_time)
        simulate._replication_block.cache_clear()

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
        trace = ReplicationTrace(
            cycles=((2.5, 0.5),), up_time=9.5, down_time=0.5
        )
        table = build_exposure_table([trace], cfg)
        assert table.counts == (0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        # up periods [0, 2.5] and [3.0, 10]: interval 3 loses the repair time
        assert table.times == (1.25, 1.25, 0.75, 1.25, 1.25, 1.25, 1.25, 1.25)

    def test_interior_failure_bucketing(self):
        cfg = base_config(n_replications=1)
        trace = ReplicationTrace(
            cycles=((9.99, 0.01),), up_time=9.99, down_time=0.01
        )
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

    def test_rejects_empty_trace_list(self):
        with pytest.raises(ValueError):
            build_exposure_table([], base_config())
