"""The forked walker of run_simulation: the same results whatever the layout,
and no process or file descriptor left behind on any path."""

import functools
import os
import pickle
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from pmurel import simulate
from pmurel.cli import main
from pmurel.simulate import SimulationConfig, build_exposure_table, run_replication, run_simulation

BLOCK = simulate._SUBSTREAM_BLOCK
# above the walker's threshold and ending in a partial block
N_WALKED = simulate.WALKER_MIN_REPLICATIONS + 1234

pytestmark = [
    pytest.mark.skipif(not hasattr(os, "fork"), reason="the walker needs os.fork"),
    pytest.mark.usefixtures("fresh_tiles"),
]


def config(mission_time=10.0, n_replications=N_WALKED, master_seed=42):
    return SimulationConfig(failure_rate=0.6566, repair_rate=22.2898, mission_time=mission_time,
                            n_replications=n_replications, master_seed=master_seed)


@pytest.fixture
def forks(monkeypatch):
    """Select the walker whatever the machine, and count the forks."""
    calls = []
    real_fork = os.fork

    def counting_fork():
        calls.append(None)
        return real_fork()

    monkeypatch.setattr(simulate, "_walker_pays", lambda cfg: True)
    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


@pytest.fixture
def deadline():
    """Fail, rather than hang, a run that takes over a minute."""
    def expire(signum, frame):
        raise TimeoutError("the run hung")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def open_fds():
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else []


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSelection:
    def test_large_campaigns_on_two_cpus_walk_forked(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert simulate._walker_pays(config(n_replications=simulate.WALKER_MIN_REPLICATIONS))
        assert not simulate._walker_pays(config(n_replications=simulate.WALKER_MIN_REPLICATIONS - 1))
        # the long-mission benchmark campaign: one block, per-event work
        assert not simulate._walker_pays(config(mission_time=2000.0, n_replications=200))

    def test_one_cpu_walks_in_process(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
        assert not simulate._walker_pays(config())

    @pytest.mark.parametrize("name", ["fork", "sched_getaffinity"])
    def test_a_platform_without_it_walks_in_process(self, name, monkeypatch):
        monkeypatch.delattr(os, name)
        assert not simulate._walker_pays(config())

    def test_run_replication_never_forks(self, monkeypatch):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("run_replication forked"))
        run_replication(config(), N_WALKED - 1)


class TestSameResultsWhateverTheLayout:
    @pytest.mark.parametrize("mission_time,kind", [(10.0, "_ArrayStreams"), (60.0, "_NativeStreams")])
    def test_walker_equals_in_process_and_single_calls(self, mission_time, kind, forks, monkeypatch,
                                                       fresh_tiles):
        cfg = config(mission_time=mission_time, master_seed=2**40 + 3)
        plan = simulate._draw_plan(cfg.failure_rate, cfg.repair_rate, cfg.mission_time)
        assert plan[0] is getattr(simulate, kind)
        assert cfg.n_replications % BLOCK
        forked = run_simulation(cfg)
        assert len(forks) == 1
        monkeypatch.setattr(simulate, "_walker_pays", lambda cfg: False)
        fresh_tiles()
        assert run_simulation(cfg) == forked
        assert len(forks) == 1
        fresh_tiles()
        traces = (run_replication(cfg, i) for i in range(cfg.n_replications))
        assert build_exposure_table(traces, cfg) == forked.exposure
        assert_no_children()


class TestSeedWordsAreHashedWhereTilesAreWalked:
    @pytest.fixture
    def hashed(self, monkeypatch):
        """Count the blocks of seed words this process hashes."""
        blocks = []
        real = simulate._substream_block.__wrapped__

        def counting(master_seed, block):
            blocks.append(block)
            return real(master_seed, block)

        monkeypatch.setattr(simulate, "_substream_block", functools.lru_cache(maxsize=1)(counting))
        return blocks

    def test_a_forked_campaign_hashes_none_in_the_calling_process(self, hashed, forks):
        run_simulation(config())
        assert len(forks) == 1
        assert hashed == []

    def test_an_in_process_campaign_hashes_each_block_once(self, hashed, monkeypatch):
        monkeypatch.setattr(simulate, "_walker_pays", lambda cfg: False)
        run_simulation(config())
        assert hashed == list(range(-(-N_WALKED // BLOCK)))


class TestProcessHygiene:
    def test_successful_run_leaves_no_process_or_descriptor(self, forks, deadline):
        before = open_fds()
        run_simulation(config())
        assert len(forks) == 1
        assert open_fds() == before
        assert_no_children()

    @pytest.mark.parametrize("how,ended,tiles_sent", [
        pytest.param(how, ended, tiles, id=f"{how}-{ended}" + ("-after_two_tiles" if tiles else ""))
        for how, ended in (("raise", "exited with status 1"), ("kill", "was killed by signal 9"))
        for tiles in (0, 2)
    ])
    def test_failed_walker_raises_with_its_status(self, how, ended, tiles_sent, forks, deadline, monkeypatch):
        # each tile is flushed to the pipe before the next is walked, so a
        # walker that fails in a walk has sent every tile before it
        real_walk = simulate._walk
        walks = []

        def failing_walk(*args):
            walks.append(None)
            if len(walks) <= tiles_sent:
                return real_walk(*args)
            if how == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise ValueError("walk failed")

        monkeypatch.setattr(simulate, "_walk", failing_walk)
        before = open_fds()
        sent = tiles_sent * simulate.TILE_ROWS
        with pytest.raises(RuntimeError, match=f"walker process {ended} after sending {sent} of {N_WALKED} "):
            run_simulation(config())
        assert len(forks) == 1
        assert open_fds() == before
        assert_no_children()

    def test_a_tile_cut_short_never_reaches_the_bucketing(self, forks, deadline, monkeypatch):
        # the walker writes half of its third tile's pickle and exits: the
        # caller buckets the two whole tiles before it, then raises
        real_dump = pickle.dump
        dumps = []

        def dump_half_of_the_third(tile, pipe, protocol):
            dumps.append(None)
            if len(dumps) < 3:
                return real_dump(tile, pipe, protocol=protocol)
            data = pickle.dumps(tile, protocol=protocol)
            pipe.write(data[: len(data) // 2])
            pipe.flush()
            os._exit(1)

        real_hold = simulate._hold
        held = []

        def recording_hold(cfg, first, events, counts, up):
            held.append((first, events.copy(), counts.copy(), up.copy()))
            return real_hold(cfg, first, events, counts, up)

        monkeypatch.setattr(pickle, "dump", dump_half_of_the_third)
        monkeypatch.setattr(simulate, "_hold", recording_hold)
        cfg = config()
        rows = simulate.TILE_ROWS
        before = open_fds()
        with pytest.raises(RuntimeError, match=f"exited with status 1 after sending {2 * rows} of"):
            run_simulation(cfg)
        assert [first for first, *_ in held] == [0, rows]
        for first, *arrays in held:
            for got, want in zip(arrays, simulate._walk_tile(cfg, first)[1:], strict=True):
                assert np.array_equal(got, want)
        assert open_fds() == before
        assert_no_children()

    def test_failed_walker_exits_the_cli_with_status_3(self, tmp_path, forks, deadline, monkeypatch, capsys):
        monkeypatch.setattr(simulate, "_walk", lambda *args: 1 / 0)
        assert main(["simulate", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "walker process exited with status 1" in err
        assert not (tmp_path / "summary.csv").exists()
        assert_no_children()

    @pytest.mark.parametrize("walker", ["blocked", "walking"])
    def test_failing_consumer_kills_the_walker(self, walker, forks, deadline, monkeypatch):
        # "blocked": the walker fills the pipe long before the consumer
        # fails, then blocks writing.  "walking": it is still inside a long
        # walk.  Either way the consumer must not wait for it to end.
        real_walk, real_build = simulate._walk, simulate.build_exposure_table
        walked = []

        def slow_walk(*args):
            walked.append(None)
            if walker == "walking" and len(walked) > 2:
                time.sleep(30.0)
            return real_walk(*args)

        def failing_build(traces, cfg):
            def first_traces():
                for k, trace in enumerate(traces):
                    if k == 100:
                        time.sleep(0.5)
                        raise ValueError("consumer failed")
                    yield trace

            return real_build(first_traces(), cfg)

        monkeypatch.setattr(simulate, "_walk", slow_walk)
        monkeypatch.setattr(simulate, "build_exposure_table", failing_build)
        before = open_fds()
        start = time.monotonic()
        with pytest.raises(ValueError, match="consumer failed"):
            run_simulation(config(n_replications=8 * BLOCK))
        assert time.monotonic() - start < 10.0
        assert open_fds() == before
        assert_no_children()

    def test_failed_fork_walks_in_process(self, deadline, monkeypatch, fresh_tiles):
        cfg = config()
        expected = run_simulation(cfg)
        fresh_tiles()

        def failing_fork():
            raise BlockingIOError("no process to spare")

        monkeypatch.setattr(simulate, "_walker_pays", lambda cfg: True)
        monkeypatch.setattr(os, "fork", failing_fork)
        before = open_fds()
        assert run_simulation(cfg) == expected
        assert open_fds() == before

    def test_buffered_output_is_written_once(self, tmp_path):
        # stdout to a pipe is block-buffered: a walker that flushed its copy
        # of the buffer on exit would print the first line twice
        src = os.path.dirname(os.path.dirname(simulate.__file__))
        code = (
            "import os; from pmurel import simulate; "
            "print('before the run'); "
            "forks = []; fork = os.fork; "
            "os.fork = lambda: forks.append(None) or fork(); "
            "simulate._walker_pays = lambda cfg: True; "
            "simulate.run_simulation(simulate.SimulationConfig(0.6566, 22.2898, 10.0, n_replications=3 * 4096 + 5)); "
            "print('forks', len(forks))"
        )
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = src
        done = subprocess.run([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=120, check=True)
        assert done.stdout == "before the run\nforks 1\n"
        assert done.stderr == ""

