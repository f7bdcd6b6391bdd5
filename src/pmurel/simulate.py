"""Sequential Monte Carlo simulation of failure/repair cycles over a mission.

Each replication alternates exponentially distributed time-to-failure and
time-to-repair draws (the constant-rate premise of the state model) and
accumulates a clock until the mission horizon.  Replications are aggregated
into availability and failure-count estimates plus the interval-bucketed
exposure table consumed by the rate-fitting module.

Reproducibility contract: replication i draws from its own substream, the
PCG64 stream of ``SeedSequence(entropy=master_seed, spawn_key=(i,))``, and
every reduction (the summary statistics and each exposure-table bin) adds in
replication order.  Replications run one after another in the calling
thread; there are no workers.  The same configuration therefore produces
bit-identical results, whatever the block size of the draws or the chunk
size of the bucketing.

The engine is array-native: uniforms are drawn in blocks, each replication's
history is one small float array, and exposure bucketing is a handful of
numpy calls per chunk of traces.  Draws go through ``math.log``, not
``np.log``, which differs from it in the last bit on some platforms, and every
clock and bin adds in event order, so the results equal those of a scalar
one-draw-at-a-time loop bit for bit (``tests/test_simulate_oracle.py`` keeps
such a loop as its reference).

Substreams are built without a SeedSequence object per replication:
SeedSequence's algorithm is evaluated in numpy ``uint32`` arithmetic for a
whole aligned block of replication indices at once, and each substream's
PCG64 is seeded from its row of that block.  Tests check the substreams'
states against numpy's own SeedSequence for equality.  A substream's
``bit_generator.seed_seq`` is a private holder of its seed words, so
``Generator.spawn()`` on a substream is not supported.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

# Up periods bucketed per numpy pass in build_exposure_table (whole traces,
# at least this many periods); bounds its temporaries without changing any
# result.
EXPOSURE_CHUNK = 16384

# Cap on the uniforms drawn at once by one replication.
MAX_DRAW_BLOCK = 4096


@dataclass(frozen=True)
class SimulationConfig:
    """Inputs of one simulation campaign (rates per unit time, times in the
    same unit)."""

    failure_rate: float
    repair_rate: float
    mission_time: float
    n_replications: int = 10000
    master_seed: int = 42
    n_intervals: int = 8

    def __post_init__(self) -> None:
        for name in ("failure_rate", "repair_rate"):
            v = getattr(self, name)
            if not math.isfinite(v) or v <= 0.0:
                raise ValueError(f"{name} must be finite and > 0, got {v}")
        if not math.isfinite(self.mission_time) or self.mission_time <= 0.0:
            raise ValueError(f"mission_time must be > 0, got {self.mission_time}")
        # operator.index rejects floats (TypeError), even integral ones such
        # as 3.0, which the replication loop and the substreams cannot use.
        for name in ("n_replications", "n_intervals"):
            v = getattr(self, name)
            if operator.index(v) < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {v}")
        _nonnegative_int(self.master_seed, "master_seed")


# SeedSequence's hash constants and pool size (numpy's bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_POOL_SIZE = 4

# Replication indices whose substream seeds are hashed together.  A power of
# two below 2**32, so no block straddles a change in the number of 32-bit
# words of its indices.
_SUBSTREAM_BLOCK = 4096


def _nonnegative_int(value, name: str) -> int:
    """``value`` as an int, rejected as SeedSequence rejects it: a
    non-integer (e.g. 1.5) raises TypeError, a negative one ValueError."""
    n = operator.index(value)
    if n < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {n}")
    return n


def _words32(n: int) -> list[int]:
    """Little-endian 32-bit words of a nonnegative int, as SeedSequence splits
    it: 0 is one zero word."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _seed_sequence_state(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence.generate_state(4, np.uint64)`` for each row of
    ``entropy``, a (rows, words) uint32 array of assembled entropy words with
    at least the pool size of words per row.

    Mirrors SeedSequence's ``mix_entropy`` and ``generate_state`` one column
    at a time; the hash constant advances identically for every row.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(entropy[:, i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, entropy.shape[1]):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))

    hash_const = _INIT_B
    state = np.empty((len(entropy), 2 * _POOL_SIZE), dtype=np.uint32)
    for dst in range(2 * _POOL_SIZE):
        value = pool[dst % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state[:, dst] = value ^ (value >> _XSHIFT)
    return state.astype("<u4").view("<u8").astype(np.uint64)


# A pure function of its arguments returning a read-only array, so sharing the
# two most recent blocks between callers changes no result.
@functools.lru_cache(maxsize=2)
def _substream_block(master_seed: int, block: int) -> np.ndarray:
    """PCG64 seed words of replications ``block * _SUBSTREAM_BLOCK`` onwards,
    one row of four uint64 per replication."""
    run = _words32(master_seed)
    # SeedSequence pads the run entropy to the pool size when a spawn key is given.
    run += [0] * (_POOL_SIZE - len(run))
    spawn = _words32(block * _SUBSTREAM_BLOCK)
    entropy = np.empty((_SUBSTREAM_BLOCK, len(run) + len(spawn)), dtype=np.uint32)
    entropy[:] = run + spawn
    # Only the lowest word of the index varies within a block.
    entropy[:, len(run)] += np.arange(_SUBSTREAM_BLOCK, dtype=np.uint32)
    words = _seed_sequence_state(entropy)
    words.flags.writeable = False
    return words


@functools.cache
def _seed_words_class() -> type:
    """The class of a substream's seed-word holder, defined on first use
    because importing numpy.random takes about 12 ms that commands without a
    Monte Carlo run need not pay.  PCG64 accepts it as a SeedSequence because
    it subclasses ISeedSequence (a registered virtual subclass would cost
    about 1 µs more per PCG64)."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        """Stands in for one substream's SeedSequence: hands PCG64 the state
        words computed for it.  It cannot spawn."""

        def __init__(self, words: np.ndarray) -> None:
            self._words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError("a substream's seed holds exactly PCG64's four uint64 words")
            return self._words

        def __reduce__(self):
            return _seed_words, (self._words,)

    return SeedWords


def _seed_words(words: np.ndarray):
    """A seed-word holder for ``words``; unpickling a substream calls it too."""
    return _seed_words_class()(words)


def replication_rng(master_seed: int, replication_index: int) -> np.random.Generator:
    """Independent random substream for one replication.

    A fresh Generator whose PCG64 state equals that of
    ``np.random.default_rng(np.random.SeedSequence(entropy=master_seed,
    spawn_key=(replication_index,)))``, so any replication's stream can be
    constructed directly without generating the preceding ones.  Arguments
    are checked as SeedSequence checks them (negative: ValueError,
    non-integer: TypeError; booleans count as 0 and 1).

    The SeedSequence hash is evaluated in numpy for the whole aligned block
    of indices holding ``replication_index`` and kept for the next calls.
    The Generator's ``bit_generator.seed_seq`` is a private word holder, not
    a SeedSequence, so ``Generator.spawn()`` is not supported.
    """
    seed = _nonnegative_int(master_seed, "master_seed")
    block, row = divmod(_nonnegative_int(replication_index, "replication_index"), _SUBSTREAM_BLOCK)
    # A copy, so a Generator that is kept does not keep its whole block alive.
    words = _substream_block(seed, block)[row].copy()
    return np.random.Generator(np.random.PCG64(_seed_words(words)))


def sample_exponential(rate: float, rng: np.random.Generator) -> float:
    """One exponential draw via inverse transform, -ln(u)/rate.

    u is uniform on (0, 1): an exact-zero draw is rejected so the sample is
    always strictly positive and finite.
    """
    if not math.isfinite(rate) or rate <= 0.0:
        raise ValueError(f"rate must be finite and > 0, got {rate}")
    u = rng.random()
    while u <= 0.0:
        u = rng.random()
    return -math.log(u) / rate


def _draw_block(cfg: SimulationConfig) -> int:
    """Uniforms one replication draws at a time: its expected number of draws
    (two per renewal cycle) plus slack, so that most replications draw once."""
    cycles = cfg.mission_time / (1.0 / cfg.failure_rate + 1.0 / cfg.repair_rate)
    return int(min(2.0 * cycles + 4.0 * math.sqrt(cycles) + 8.0, MAX_DRAW_BLOCK))


def _uniforms(rng: np.random.Generator, block: int):
    """The nonzero uniforms of ``rng`` in stream order, drawn ``block`` at a
    time.  A block draw yields the same values as that many scalar draws, and
    exact zeros are skipped as ``sample_exponential`` rejects them."""
    while True:
        for u in rng.random(block).tolist():
            if u > 0.0:
                yield u


class ReplicationTrace:
    """Failure/repair history of one replication, truncated at the mission end.

    ``events`` holds one row (time_to_failure, repair_time, failure_time,
    next_up_start) per failure that occurred before the mission horizon; the
    repair time of the last row is clipped at the horizon if the mission ended
    mid-repair.  ``failure_time`` is the clock walked as ``clock += ttf;
    clock += ttr`` and ``next_up_start`` the start of the following up period,
    walked as ``clock += ttf + ttr``.  A final up period that ran out the
    mission clock appears in ``up_time`` only.

    The constructor takes the (time_to_failure, repair_time) pairs;
    ``run_replication`` builds traces directly from its recorded rows.
    Instances are immutable.
    """

    __slots__ = ("events", "up_time", "down_time")

    def __init__(self, cycles, n_failures: int, up_time: float, down_time: float) -> None:
        if n_failures != len(cycles):
            raise ValueError(f"n_failures {n_failures} != {len(cycles)} cycles")
        rows = []
        clock = start = 0.0
        for ttf, ttr in cycles:
            if not (math.isfinite(ttf) and math.isfinite(ttr) and ttf > 0.0 and ttr >= 0.0):
                raise ValueError(f"cycle ({ttf}, {ttr}) needs ttf > 0 and ttr >= 0")
            clock += ttf
            fail_at = clock
            clock += ttr
            start += ttf + ttr
            rows += (ttf, ttr, fail_at, start)
        _set_trace(self, rows, up_time, down_time)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def cycles(self) -> tuple[tuple[float, float], ...]:
        """(time_to_failure, repair_time) per failure, in order."""
        return tuple(map(tuple, self.events[:, :2].tolist()))

    @property
    def n_failures(self) -> int:
        return len(self.events)

    def failure_times(self) -> list[float]:
        """Absolute occurrence time of each failure, in order."""
        return self.events[:, 2].tolist()

    def up_periods(self, mission_time: float) -> list[tuple[float, float]]:
        """Operating intervals [start, end] within [0, mission_time]."""
        starts = [0.0, *self.events[:, 3].tolist()]
        periods = [(s, s + ttf) for s, ttf in zip(starts, self.events[:, 0].tolist())]
        if starts[-1] < mission_time:
            periods.append((starts[-1], mission_time))
        return periods


def _set_trace(trace: ReplicationTrace, rows: list[float], up_time: float, down_time: float) -> None:
    events = np.array(rows, dtype=float).reshape(-1, 4)
    events.flags.writeable = False
    object.__setattr__(trace, "events", events)
    object.__setattr__(trace, "up_time", up_time)
    object.__setattr__(trace, "down_time", down_time)


def run_replication(cfg: SimulationConfig, replication_index: int) -> ReplicationTrace:
    """Simulate one mission: alternate failure and repair draws until the
    clock passes the horizon, crediting the final partial period only up to
    the horizon."""
    draws = _uniforms(replication_rng(cfg.master_seed, replication_index), _draw_block(cfg))
    failure_rate, repair_rate, horizon = cfg.failure_rate, cfg.repair_rate, cfg.mission_time
    log = math.log
    clock = start = 0.0
    up_time = down_time = 0.0
    rows: list[float] = []
    for u in draws:
        ttf = -log(u) / failure_rate
        if clock + ttf >= horizon:
            up_time += horizon - clock
            break
        up_time += ttf
        clock += ttf
        fail_at = clock
        ttr = -log(next(draws)) / repair_rate
        gap = horizon - clock
        credited = gap if gap < ttr else ttr
        down_time += credited
        clock += credited
        start += ttf + credited
        rows += (ttf, credited, fail_at, start)
        if clock >= horizon:
            break
    trace = object.__new__(ReplicationTrace)
    _set_trace(trace, rows, up_time, down_time)
    return trace


@dataclass(frozen=True)
class ExposureTable:
    """Aggregate exposure per mission sub-interval.

    counts[i] is the number of failures observed in interval i+1 across all
    replications; times[i] is the operating (up) time accumulated there.
    Simulation output always has whole-valued counts, but the type admits
    fractional ones so that analytically constructed tables (e.g. exact-fit
    fixtures) can be expressed too.
    """

    counts: tuple[float, ...]
    times: tuple[float, ...]

    def __post_init__(self) -> None:
        counts = tuple(float(c) for c in self.counts)
        times = tuple(float(t) for t in self.times)
        if len(counts) != len(times) or not counts:
            raise ValueError("counts and times must be equally sized and nonempty")
        if not all(math.isfinite(c) and c >= 0.0 for c in counts):
            raise ValueError("exposure counts must be finite and >= 0")
        if not all(math.isfinite(t) and t >= 0.0 for t in times):
            raise ValueError("exposure times must be finite and >= 0")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "times", times)

    @property
    def n_intervals(self) -> int:
        return len(self.counts)

    def rows(self) -> list[tuple[int, float, float]]:
        """(interval, X_i, T_i) rows, interval numbered from 1."""
        return [(i + 1, x, t) for i, (x, t) in enumerate(zip(self.counts, self.times))]


def _up_periods(chunk, events: np.ndarray, mission_time: float) -> tuple[np.ndarray, np.ndarray]:
    """Starts and ends of the chunk's up periods, in trace order and, within a
    trace, cycle order with the tail period last.  Every trace gets a tail
    (start, mission_time); one that starts at or after the horizon is empty
    and overlaps no interval."""
    lengths = np.fromiter((len(t.events) for t in chunk), dtype=np.intp, count=len(chunk))
    row_ends = np.cumsum(lengths)
    starts = np.insert(events[:, 3], row_ends - lengths, 0.0)
    cycle_starts = np.delete(starts, row_ends + np.arange(len(chunk)))
    ends = np.insert(cycle_starts + events[:, 0], row_ends, mission_time)
    return starts, ends


def _overlaps(starts: np.ndarray, ends: np.ndarray, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(interval, overlap) pairs of up periods with the intervals they cover,
    period by period in order and by increasing interval within a period.

    Period [s, e] covers interval i from the one holding s (the last edge
    <= s) up to the last whose left edge lies below e, and none if e <= s.
    """
    n = len(edges) - 1
    first = np.maximum(np.searchsorted(edges, starts, side="right") - 1, 0)
    last = np.minimum(np.searchsorted(edges, ends, side="left"), n)
    n_pairs = np.where(ends > starts, last - first, 0)
    period = np.repeat(np.arange(len(starts)), n_pairs)
    interval = first[period] + np.arange(len(period)) - np.repeat(np.cumsum(n_pairs) - n_pairs, n_pairs)
    overlap = np.minimum(ends[period], edges[interval + 1]) - np.maximum(starts[period], edges[interval])
    return interval, overlap


def _chunks(traces):
    """Consecutive runs of traces holding at least EXPOSURE_CHUNK up periods
    each (the last run may hold fewer)."""
    chunk, periods = [], 0
    for trace in traces:
        chunk.append(trace)
        periods += len(trace.events) + 1
        if periods >= EXPOSURE_CHUNK:
            yield chunk
            chunk, periods = [], 0
    if chunk:
        yield chunk


def build_exposure_table(traces, cfg: SimulationConfig) -> ExposureTable:
    """Bucket failures and operating time into equal mission sub-intervals.

    A failure landing exactly on an interior boundary belongs to the earlier
    (right-closed) interval; the final interval is closed at the horizon.
    Each interval's time adds its overlaps in trace order and, within a
    trace, period order: the running totals lead each chunk's weights, so
    every bin is summed in the same order whatever the chunk size.
    """
    traces = list(traces)
    if not traces:
        raise ValueError("need at least one replication trace")
    n = cfg.n_intervals
    edges = np.linspace(0.0, cfg.mission_time, n + 1)
    bins = np.arange(n)
    counts = np.zeros(n, dtype=np.int64)
    times = np.zeros(n)
    for chunk in _chunks(traces):
        events = np.concatenate([t.events for t in chunk])
        failed_in = np.clip(np.searchsorted(edges, events[:, 2], side="left"), 1, n) - 1
        counts += np.bincount(failed_in, minlength=n)
        interval, overlap = _overlaps(*_up_periods(chunk, events, cfg.mission_time), edges)
        times = np.bincount(
            np.concatenate((bins, interval)), weights=np.concatenate((times, overlap)), minlength=n
        )
    return ExposureTable(tuple(counts), tuple(times))


@dataclass(frozen=True)
class SimulationSummary:
    """Campaign-level reliability indices."""

    availability: float
    mean_failures: float
    availability_se: float
    mean_failures_se: float
    exposure: ExposureTable


def run_simulation(cfg: SimulationConfig) -> SimulationSummary:
    """Run all replications in index order and aggregate them."""
    traces = [run_replication(cfg, i) for i in range(cfg.n_replications)]

    n = cfg.n_replications
    up_fractions = np.array([t.up_time / cfg.mission_time for t in traces])
    failures = np.array([t.n_failures for t in traces], dtype=float)
    availability = float(up_fractions.sum() / n)
    mean_failures = float(failures.sum() / n)
    if n > 1:
        availability_se = float(up_fractions.std(ddof=1) / math.sqrt(n))
        mean_failures_se = float(failures.std(ddof=1) / math.sqrt(n))
    else:
        availability_se = 0.0
        mean_failures_se = 0.0
    return SimulationSummary(
        availability=availability,
        mean_failures=mean_failures,
        availability_se=availability_se,
        mean_failures_se=mean_failures_se,
        exposure=build_exposure_table(traces, cfg),
    )
