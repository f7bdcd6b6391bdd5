"""Sequential Monte Carlo simulation of failure/repair cycles over a mission.

Each replication alternates exponentially distributed time-to-failure and
time-to-repair draws (the constant-rate premise of the state model) and
accumulates a clock until the mission horizon.  Replications are aggregated
into availability and failure-count estimates plus the interval-bucketed
exposure table consumed by the rate-fitting module.

Reproducibility contract: replication i draws from its own substream, the
PCG64 stream of ``SeedSequence(entropy=master_seed, spawn_key=(i,))``, and
every reduction (the summary statistics and each exposure-table bin) adds in
replication order.  The same configuration therefore produces bit-identical
results, whatever the tile size of the block engine, the chunk size of the
bucketing, or the process that walks the tiles.

The engine simulates a tile at a time: a ``run_replication`` call walks the
replications of the tile of rows holding its index, within an aligned block
of ``_SUBSTREAM_BLOCK`` indices, at once, as arrays.  Each of the two most
recent blocks keeps the last tile walked for it, so the calls for the rest of
that tile return kept traces whose events are views of the tile's one event
array.  ``run_simulation`` streams: it takes the campaign's walked tiles in
index order, holds each in its block, and buckets the traces a chunk at a
time as they are drawn, a handful of numpy calls per chunk, keeping only
each replication's up fraction and failure count.  A campaign of any length
or mission time therefore holds one tile of traces per kept block, one
exposure chunk and 16 bytes per replication.  Each
replication draws the raw outputs of numpy's PCG64 for its substream, times
go through ``math.log``, not ``np.log``, which differs from it in the last
bit on some platforms, and every clock and bin adds in event order, so the
results equal those of a scalar one-draw-at-a-time loop bit for bit
(``tests/test_simulate_oracle.py`` keeps such a loop as its reference).

Walking the tiles and bucketing them take about the same time, so a large
campaign does both at once: ``run_simulation`` forks one walker process
(``os.fork``), which walks the tiles in index order and writes each tile's
arrays to a pipe while the calling process buckets the tiles before it.
It does so only where the platform can fork, the process may run on at
least two CPUs and the campaign has at least ``WALKER_MIN_REPLICATIONS``
replications; there is no option for it.  Everything else, a
``run_replication`` call of its own too, walks in the calling thread.  The
walker is reaped before ``run_simulation`` returns or raises, and killed
first if it has not sent every tile.  Its memory is that of a separate
process: the walk's temporaries do not count in the caller's resident set.
Calls from several threads at once stay correct.

The engine draws in rounds, a window of uniforms for every row still walking,
from one of two kinds of substream, chosen per campaign from its expected
number of renewal cycles (``_draw_plan``).  Native streams are numpy's own
PCG64 objects: about 2 µs to build per replication and a call per row and
round, but little per draw, so their rounds hold the expected draws plus
slack.  Array streams compute the same outputs for all rows of a tile at once
in numpy ``uint64`` arithmetic, the 128-bit LCG state in two limbs and a
window's states jumped to from per-column constants: no object and no call
per row, but 30 to 40 ns per draw, so their rounds hold just the expected
draws.  Campaigns of short replications, whose native round would hold at
most ``ARRAY_STREAM_DRAWS`` draws, take array streams, and never import
``numpy.random``; longer ones take native streams.  Both give the same draws,
so the choice changes no result.

Substreams are built without a SeedSequence object per replication:
SeedSequence's algorithm is evaluated in numpy ``uint32`` arithmetic for a
whole aligned block of replication indices at once (``_substream_block``),
and each substream's PCG64 is seeded from its row of that block.  Tests
check the rows against numpy's own SeedSequence for equality.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from ._checks import integer, nonnegative, positive

# Up periods bucketed per numpy pass in build_exposure_table (whole traces,
# at least this many periods); bounds its temporaries without changing any
# result.
EXPOSURE_CHUNK = 16384

# Cap on the uniforms one replication draws per round of the block engine.
MAX_ROUND_DRAWS = 4096

# Elements (replications x draws) of each working array of one round; the
# block engine walks a block in tiles of rows under this budget, which bounds
# its temporaries without changing any result.
TILE_ELEMENTS = 8192


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
        for name in ("failure_rate", "repair_rate", "mission_time"):
            positive(name, getattr(self, name))
        # An integral float such as 3.0 raises here, not inside the
        # replication loop or the substreams, which cannot use it.
        for name, minimum in (("n_replications", 1), ("n_intervals", 1), ("master_seed", 0)):
            object.__setattr__(self, name, integer(name, getattr(self, name), minimum))


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

    return SeedWords


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
    ``run_replication`` returns traces whose ``events`` are read-only views
    of one event array per tile of its block.  Up and down times must be
    finite and >= 0.  Instances are immutable.
    """

    __slots__ = ("events", "up_time", "down_time")

    def __init__(self, cycles, up_time: float, down_time: float) -> None:
        nonnegative("up_time", up_time)
        nonnegative("down_time", down_time)
        rows = []
        clock = start = 0.0
        for i, (ttf, ttr) in enumerate(cycles):
            positive(f"time_to_failure of cycle {i}", ttf)
            nonnegative(f"repair_time of cycle {i}", ttr)
            clock += ttf
            fail_at = clock
            clock += ttr
            start += ttf + ttr
            rows += (ttf, ttr, fail_at, start)
        events = np.array(rows, dtype=float).reshape(-1, 4)
        events.flags.writeable = False
        _set_trace(self, events, up_time, down_time)

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


# The slots' own setters, which ReplicationTrace.__setattr__ does not reach.
_SET_EVENTS, _SET_UP_TIME, _SET_DOWN_TIME = (
    ReplicationTrace.__dict__[name].__set__ for name in ReplicationTrace.__slots__
)


def _set_trace(trace: ReplicationTrace, events: np.ndarray, up_time: float, down_time: float) -> None:
    """Fill a trace with a read-only (n_failures x 4) event array."""
    _SET_EVENTS(trace, events)
    _SET_UP_TIME(trace, up_time)
    _SET_DOWN_TIME(trace, down_time)


class _NativeStreams:
    """numpy's own PCG64 for each row of substream seed words.

    ``draw(rows, width)`` returns the next ``width`` raw outputs of each of
    the given rows, one row each; ``resume(which, draws)`` moves the rows at
    positions ``which`` of the last draw back to draw index ``draws`` of
    their window, the first draw they did not use.  The other rows go on
    after their window.
    """

    def __init__(self, words: np.ndarray) -> None:
        from numpy.random import PCG64

        seed_words = _seed_words_class()
        self._streams = [PCG64(seed_words(w)) for w in words]

    def __len__(self) -> int:
        return len(self._streams)

    def draw(self, rows: np.ndarray, width: int) -> np.ndarray:
        self._window = rows, width
        return np.array([self._streams[r].random_raw(width) for r in rows.tolist()])

    def resume(self, which: np.ndarray, draws: np.ndarray) -> None:
        rows, width = self._window
        for r, d in zip(rows[which].tolist(), draws.tolist()):
            self._streams[r].advance(d - width)


# numpy's PCG64 (O'Neill's PCG XSL-RR 128/64): a 128-bit LCG, state = state *
# _PCG_MULT + inc, whose output is the xor of the state's halves rotated
# right by the state's top six bits.  Array streams hold each 128-bit value
# as two uint64 limbs, every constant below is an np.uint64 (a signed
# integer operand would promote a limb to float64), and array operations
# wrap modulo 2**64 as the limb arithmetic needs.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64, _MASK128 = (1 << 64) - 1, (1 << 128) - 1
_LOW32 = np.uint64(0xFFFFFFFF)
_U1, _U11, _U32, _U58, _U63, _U64 = (np.uint64(k) for k in (1, 11, 32, 58, 63, 64))


def _limbs(values: list[int]) -> tuple[np.ndarray, ...]:
    """128-bit constants as uint64 arrays: the high limb, the low limb and
    the low limb's low and high 32 bits."""
    hi = np.array([v >> 64 for v in values], dtype=np.uint64)
    lo = np.array([v & _MASK64 for v in values], dtype=np.uint64)
    return hi, lo, lo & _LOW32, lo >> _U32


def _times(a: tuple[np.ndarray, ...], b: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) of a * b mod 2**128, for constants ``a`` in ``_limbs`` form
    and values ``b`` = (hi, lo); the shapes broadcast.  The low limbs'
    128-bit product is summed from its four 32-bit partial products."""
    a_hi, a_lo, a0, a1 = a
    b_hi, b_lo = b
    b0, b1 = b_lo & _LOW32, b_lo >> _U32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    hi = a1 * b1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32) + a_lo * b_hi + a_hi * b_lo
    return hi, a_lo * b_lo


def _jump(a, state, step) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) of a * state + step mod 2**128: the PCG64 state reached by
    the LCG steps whose jump constants are ``a`` and c, given ``step``, the
    (hi, lo) of c * inc, which depends on the stream and not on its state."""
    hi, lo = _times(a, state)
    step_hi, step_lo = step
    lo += step_lo
    hi += step_hi
    hi += lo < step_lo
    return hi, lo


# pcg_setseq_128_srandom_r: state 0, one step, add the seed state, one step,
# so state = M * seed_state + (M + 1) * inc.
_SEED_JUMP = _limbs([_PCG_MULT]), _limbs([_PCG_MULT + 1])


@functools.lru_cache(maxsize=8)
def _window_jumps(width: int) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Jump constants from a state to the states after 0, 1, ..., width LCG
    steps: A_k = M**k and C_k = M**(k-1) + ... + M + 1, modulo 2**128."""
    a, c = [1], [0]
    for _ in range(width):
        a.append(a[-1] * _PCG_MULT & _MASK128)
        c.append((c[-1] * _PCG_MULT + 1) & _MASK128)
    return _limbs(a), _limbs(c)


class _ArrayStreams:
    """numpy's PCG64 for each row of substream seed words, stepped for all
    rows at once in numpy uint64 arithmetic; the same operations as
    ``_NativeStreams``.

    A row is seeded as ``PCG64`` seeds itself from its four words (seed state,
    then stream), inc = 2 * stream + 1.  A draw computes the states after 0
    to ``width`` steps of every drawing row from per-column jump constants,
    state_k = A_k * state + C_k * inc, and returns their outputs; a row
    resumes by taking its state at its first unused draw, as
    ``PCG64.advance`` would leave it.  The products C_k * inc of every row
    are computed once per window width and reused in every round of that
    width, so a round takes one 128-bit product per draw.
    """

    def __init__(self, words: np.ndarray) -> None:
        seq_hi, seq_lo = words[:, 2], words[:, 3]
        self._inc = (seq_hi << _U1) | (seq_lo >> _U63), (seq_lo << _U1) | _U1
        seed_a, seed_c = _SEED_JUMP
        self._state = _jump(seed_a, (words[:, 0], words[:, 1]), _times(seed_c, self._inc))
        self._steps = {}

    def __len__(self) -> int:
        return len(self._inc[0])

    def draw(self, rows: np.ndarray, width: int) -> np.ndarray:
        state_hi, state_lo = self._state
        a, c = _window_jumps(width)
        if width not in self._steps:
            inc_hi, inc_lo = self._inc
            self._steps[width] = _times(c, (inc_hi[:, None], inc_lo[:, None]))
        step_hi, step_lo = self._steps[width]
        hi, lo = _jump(a, (state_hi[rows, None], state_lo[rows, None]), (step_hi[rows], step_lo[rows]))
        self._window = rows, hi, lo
        state_hi[rows], state_lo[rows] = hi[:, -1], lo[:, -1]
        hi, lo = hi[:, 1:], lo[:, 1:]
        x = hi ^ lo
        rot = hi >> _U58
        return (x >> rot) | (x << ((_U64 - rot) & _U63))

    def resume(self, which: np.ndarray, draws: np.ndarray) -> None:
        rows, hi, lo = self._window
        state_hi, state_lo = self._state
        state_hi[rows[which]], state_lo[rows[which]] = hi[which, draws], lo[which, draws]


# The widest native round (see _draw_plan) still drawn from array streams:
# where whole campaigns cost the same on either kind (array streams were
# faster at native rounds of 54 draws and slower at 60; run_simulation with
# 400000 / mission_time replications, 2-core Xeon).
ARRAY_STREAM_DRAWS = 56


def _draw_plan(failure_rate: float, repair_rate: float, mission_time: float) -> tuple[type, int]:
    """The substream kind of a campaign and the uniforms each replication
    draws per round, even, so that a round holds whole cycles.

    A native round costs a call per row, so it holds the expected number of
    draws (two per renewal cycle) plus slack, so that most replications
    finish in one round, capped at ``MAX_ROUND_DRAWS``.  Array streams step
    every row at a cost per draw, so up to a native round of
    ``ARRAY_STREAM_DRAWS`` they serve instead, with rounds of just the
    expected draws.
    """
    cycles = mission_time / (1.0 / failure_rate + 1.0 / repair_rate)
    draws = min(2.0 * cycles + 4.0 * math.sqrt(cycles) + 8.0, MAX_ROUND_DRAWS)
    width = 2 * int(draws / 2.0)
    if width > ARRAY_STREAM_DRAWS:
        return _NativeStreams, width
    return _ArrayStreams, max(2, 2 * math.ceil(cycles))


def _walk(streams, failure_rate: float, repair_rate: float, horizon: float, width: int):
    """Simulate one replication per row of ``streams`` to the horizon.

    Each round draws ``width`` raw outputs for every row still walking and
    steps all of them at once.  Returns the events of every replication,
    in row order and cycle order within a row, the number of events of
    each, and each one's up and down time.

    A raw draw becomes ``(raw >> 11) * 2**-53``, the value ``Generator.random``
    returns, and exact zeros are skipped.  Times are ``-math.log(u) / rate``:
    ``np.log`` only locates each walk's end, to choose the draws whose exact
    logs are taken.  Every clock and total is an ``np.add.accumulate`` over
    durations in event order led by the running value, so it rounds as
    ``clock += ttf; clock += ttr`` does.  A replication that runs out of
    draws, or whose repair was clipped at the horizon without its clock
    reaching it, carries its totals into the next round and resumes its
    stream at its first unused draw.
    """
    n = len(streams)
    # running clock, start of the next up period, up time and down time
    clock0, start0, up0, down0 = np.zeros((4, n))
    counts = np.zeros(n, dtype=np.intp)
    active = np.arange(n)
    rounds = []
    neg_rates = np.tile([-failure_rate, -repair_rate], width // 2)
    cols = np.arange(width)
    while len(active):
        rows = np.arange(len(active))
        u = (streams.draw(active, width) >> _U11) * 2.0**-53
        avail = np.full(len(active), width)
        skips = None
        zero = u == 0.0
        if zero.any():
            # the nonzero draws first, in stream order; the rest log to 0
            skips = np.argsort(zero, axis=1, kind="stable")
            u = np.take_along_axis(u, skips, axis=1)
            avail -= zero.sum(axis=1)
            u[cols >= avail[:, None]] = 1.0
        dur = np.log(u)
        clock = dur / neg_rates
        clock[:, 0] += clock0[active]
        np.add.accumulate(clock, axis=1, out=clock)
        crossed = clock >= horizon
        first = crossed.argmax(axis=1)
        # at least one whole cycle, so that a row np.log ends too early still
        # moves on
        usable = np.minimum(np.where(crossed[rows, first], np.maximum(first, 1) + 1, width), avail)
        exact = cols < usable[:, None]
        dur[exact] = np.fromiter(map(math.log, memoryview(u[exact])), float, int(usable.sum()))
        dur /= neg_rates
        np.copyto(clock, dur)
        clock[:, 0] += clock0[active]
        np.add.accumulate(clock, axis=1, out=clock)

        ttf, ttr = dur[:, 0::2], dur[:, 1::2]
        fail_at, repaired = clock[:, 0::2], clock[:, 1::2]
        gap = horizon - fail_at
        clipped = gap < ttr
        stop = np.empty_like(exact)
        np.greater_equal(fail_at, horizon, out=stop[:, 0::2])
        np.logical_or(clipped, repaired >= horizon, out=stop[:, 1::2])
        stop &= exact
        end = stop.argmax(axis=1)
        ended = stop[rows, end]
        n_cycles = np.where(ended, (end + 1) // 2, usable // 2)
        by_failure = ended & (end % 2 == 0)
        clip = np.flatnonzero(ended & (end % 2 == 1) & clipped[rows, end // 2])
        credited = ttr.copy()
        credited[clip, end[clip] // 2] = gap[clip, end[clip] // 2]

        started = ttf + credited
        started[:, 0] += start0[active]
        np.add.accumulate(started, axis=1, out=started)
        up = ttf.copy()
        up[:, 0] += up0[active]
        np.add.accumulate(up, axis=1, out=up)
        down = credited.copy()
        down[:, 0] += down0[active]
        np.add.accumulate(down, axis=1, out=down)

        last, walked = np.maximum(n_cycles - 1, 0), n_cycles > 0
        clock_k = np.where(walked, fail_at[rows, last] + credited[rows, last], clock0[active])
        up_k = np.where(walked, up[rows, last], up0[active])
        up0[active] = np.where(by_failure, up_k + (horizon - clock_k), up_k)
        down0[active] = np.where(walked, down[rows, last], down0[active])
        start0[active] = np.where(walked, started[rows, last], start0[active])
        clock0[active] = clock_k
        counts[active] += n_cycles
        walk = cols[: width // 2] < n_cycles[:, None]
        events = np.column_stack((ttf[walk], credited[walk], fail_at[walk], started[walk]))
        rounds.append((active, n_cycles, events))

        going = ~(by_failure | (clock_k >= horizon))
        consumed = np.where(ended, end + 1, 2 * n_cycles)
        back = np.flatnonzero(going & (consumed < avail))
        streams.resume(back, consumed[back] if skips is None else skips[back, consumed[back]])
        if (consumed[going] == 0).any():
            # a row's window held fewer than two nonzero draws: widen the next
            # one, or the row would draw the same window again
            width *= 2
            neg_rates = np.tile(neg_rates, 2)
            cols = np.arange(width)
        active = active[going]

    events = np.concatenate([e for _, _, e in rounds])
    if len(rounds) > 1:
        owner = np.concatenate([np.repeat(a, k) for a, k, _ in rounds])
        events = events[np.argsort(owner, kind="stable")]
    return events, counts, up0, down0


class _TracesByRow(dict):
    """Traces of the first rows of a substream block, by row, walked a tile
    of rows under ``TILE_ELEMENTS`` at a time on demand, or held as
    ``run_simulation`` hands the walked tiles over.

    Only the tile last held is kept: a row in it is a dict lookup, and any
    other row walks the tile holding it in place of the held one.  Each
    trace's events are a view of its tile's read-only event array.
    """

    __slots__ = ("_rates", "_kind", "_width", "_tile", "_words")

    def __init__(self, failure_rate, repair_rate, mission_time, words: np.ndarray) -> None:
        self._rates = failure_rate, repair_rate, mission_time
        self._kind, self._width = _draw_plan(*self._rates)
        self._tile = max(1, TILE_ELEMENTS // self._width)
        self._words = words

    def tiles(self) -> range:
        """The first row of each tile, in order."""
        return range(0, len(self._words), self._tile)

    def walk(self, lo: int):
        """``_walk`` over the tile whose first row is ``lo``."""
        streams = self._kind(self._words[lo:lo + self._tile])
        return _walk(streams, *self._rates, self._width)

    def hold(self, lo: int, events: np.ndarray, counts: np.ndarray, up: np.ndarray, down: np.ndarray) -> None:
        """Keep the walked tile whose first row is ``lo`` in place of the
        held one."""
        self.clear()
        events.flags.writeable = False
        ends = np.cumsum(counts).tolist()
        for r, start, end, up_time, down_time in zip(
            range(lo, lo + len(counts)), [0, *ends], ends, up.tolist(), down.tolist()
        ):
            trace = object.__new__(ReplicationTrace)
            _set_trace(trace, events[start:end], up_time, down_time)
            self[r] = trace

    def __missing__(self, row: int) -> ReplicationTrace:
        lo = row - row % self._tile
        self.hold(lo, *self.walk(lo))
        return self[row]


# A pure function of its arguments whose rows are immutable traces, so sharing
# the two most recent blocks between callers changes no result.  Each block
# holds one tile of traces, whichever of its rows was asked for last.
@functools.lru_cache(maxsize=2)
def _replication_block(failure_rate, repair_rate, mission_time, master_seed: int, block: int, n_rows: int):
    """Traces of the first ``n_rows`` replications of a substream block, by
    row; the draw plan and tile size are worked out here, once per block."""
    words = _substream_block(master_seed, block)[:n_rows]
    return _TracesByRow(failure_rate, repair_rate, mission_time, words)


def _block_of(cfg: SimulationConfig, index: int) -> tuple[_TracesByRow, int]:
    """The kept block holding replication ``index``, cut at
    ``cfg.n_replications`` (the whole block for an index past it), and the
    index's row in it."""
    block, row = divmod(index, _SUBSTREAM_BLOCK)
    n_rows = cfg.n_replications - block * _SUBSTREAM_BLOCK
    if not row < n_rows < _SUBSTREAM_BLOCK:
        n_rows = _SUBSTREAM_BLOCK
    traces = _replication_block(cfg.failure_rate, cfg.repair_rate, cfg.mission_time, cfg.master_seed, block, n_rows)
    return traces, row


def run_replication(cfg: SimulationConfig, replication_index: int) -> ReplicationTrace:
    """Simulate one mission: alternate failure and repair draws until the
    clock passes the horizon, crediting the final partial period only up to
    the horizon.

    Replications are simulated a tile of rows at a time: a call simulates
    the tile holding its index, within the index's aligned block of
    ``_SUBSTREAM_BLOCK`` indices cut at ``cfg.n_replications`` (the whole
    block for an index past it).  Each of the two most recent blocks keeps
    the last tile it walked, so a later call for an index in a kept tile
    returns its kept trace, and any other index walks its tile again, to
    the same trace values.  Indices are checked as SeedSequence checks a
    spawn key.
    """
    traces, row = _block_of(cfg, integer("replication_index", replication_index, 0))
    return traces[row]


def _tiles(cfg: SimulationConfig):
    """Walk the campaign's tiles in index order, in this process: yields the
    first index of each tile and ``_walk``'s four arrays for it."""
    for first in range(0, cfg.n_replications, _SUBSTREAM_BLOCK):
        traces, _ = _block_of(cfg, first)
        for lo in traces.tiles():
            yield first + lo, *traces.walk(lo)


# Campaigns of at least this many replications walk in a forked process
# (_walker_pays).  A first run_simulation in a fresh process at mission 10,
# forked against in-process (medians of 12 alternating pairs, 2-core Xeon):
# about even at 4097 replications, 10 ms faster at 6144 (8 of 12 pairs),
# 31 ms at 8192 (12 of 12) and 46 ms at 10000 (12 of 12).  At 200
# replications of 2000-year missions the walker gained nothing (2 ms, 7 of
# 12), and the benchmark's pipeline at that size took 0.177-0.205 s with it
# against 0.174-0.186 s without (4 pairs).
WALKER_MIN_REPLICATIONS = 8192

# Requested size of the walker's pipe, enough for several tiles: the calling
# process buckets in bursts, and with the default 64 KiB pipe the walker
# stalls on a full pipe during each burst.
_PIPE_BYTES = 1 << 20


def _walker_pays(cfg: SimulationConfig) -> bool:
    """Whether ``run_simulation`` walks in a forked process: the platform can
    fork, this process may run on at least two CPUs, and the campaign is
    large enough to pay for the fork."""
    return (
        cfg.n_replications >= WALKER_MIN_REPLICATIONS
        and hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
    )


def _read_array(pipe, shape, dtype) -> np.ndarray | None:
    """The next array of ``shape`` from ``pipe``, or None at an early end."""
    out = np.empty(shape, dtype)
    return out if pipe.readinto(out) == out.nbytes else None


def _forked_tiles(cfg: SimulationConfig):
    """``_tiles(cfg)`` walked in a forked process, the walker, which writes
    each tile's arrays to a pipe as the caller reads the ones before.

    The walker ends with ``os._exit`` whatever happens, so it never runs
    the caller's exit handlers or flushes its buffers; a failure's text
    goes to file descriptor 2.  The walker is reaped before the generator
    ends, and killed first unless every tile was read: closing the
    generator early, or an error while reading, never leaves it running
    or waits on one blocked on a full pipe.  A walker that ends early
    raises RuntimeError with its exit status.  Where the fork itself fails,
    the tiles are walked in this process.
    """
    # Unix-only modules that only a forked campaign needs
    import fcntl
    import signal

    read_fd, write_fd = os.pipe()
    try:
        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
    except OSError:
        pass  # the default size
    try:
        pid = os.fork()
    except OSError:  # out of processes or memory: walk here instead
        os.close(read_fd)
        os.close(write_fd)
        yield from _tiles(cfg)
        return
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                for first, events, counts, up, down in _tiles(cfg):
                    sizes = np.array([len(counts), len(events)], dtype=np.intp)
                    for array in (sizes, events, counts, up, down):
                        pipe.write(array)
            code = 0
        except BaseException:
            import traceback

            os.write(2, f"Monte Carlo walker failed:\n{traceback.format_exc()}".encode())
        finally:
            os._exit(code)

    os.close(write_fd)
    status = None
    try:
        with open(read_fd, "rb") as pipe:
            first = 0
            while first < cfg.n_replications:
                sizes = _read_array(pipe, 2, np.intp)
                if sizes is None:
                    break
                rows, n_events = sizes.tolist()
                layout = ((n_events, 4), float), (rows, np.intp), (rows, float), (rows, float)
                tile = [_read_array(pipe, shape, dtype) for shape, dtype in layout]
                if any(array is None for array in tile):
                    break
                yield first, *tile
                first += rows
        _, status = os.waitpid(pid, 0)
    finally:
        if status is None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if first < cfg.n_replications or code:
        ended = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise RuntimeError(
            f"the Monte Carlo walker process {ended} after sending {first} of "
            f"{cfg.n_replications} replications"
        )


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
        counts = tuple(nonnegative(f"counts[{i}]", c) for i, c in enumerate(self.counts))
        times = tuple(nonnegative(f"times[{i}]", t) for i, t in enumerate(self.times))
        if len(counts) != len(times) or not counts:
            raise ValueError("counts and times must be equally sized and nonempty")
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
    ``traces`` may be any iterable, a one-shot generator too: it is read once,
    a chunk at a time, so only the current chunk's traces are held.
    """
    n = cfg.n_intervals
    edges = np.linspace(0.0, cfg.mission_time, n + 1)
    bins = np.arange(n)
    counts = np.zeros(n, dtype=np.int64)
    times = np.zeros(n)
    chunk = None
    for chunk in _chunks(traces):
        events = np.concatenate([t.events for t in chunk])
        failed_in = np.clip(np.searchsorted(edges, events[:, 2], side="left"), 1, n) - 1
        counts += np.bincount(failed_in, minlength=n)
        interval, overlap = _overlaps(*_up_periods(chunk, events, cfg.mission_time), edges)
        times = np.bincount(
            np.concatenate((bins, interval)), weights=np.concatenate((times, overlap)), minlength=n
        )
    if chunk is None:
        raise ValueError("need at least one replication trace")
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
    """Run all replications in index order and aggregate them in one pass,
    bucketing each trace as it is drawn and keeping its up fraction and
    failure count, not the trace.  The tiles are walked in a forked process
    where ``_walker_pays`` says so, in this one otherwise, to the same
    traces."""
    n = cfg.n_replications
    up_fractions = np.empty(n)
    failures = np.empty(n)

    def replications(tiles):
        for first, events, counts, up, down in tiles:
            traces, row = _block_of(cfg, first)
            traces.hold(row, events, counts, up, down)
            for i in range(first, first + len(counts)):
                trace = run_replication(cfg, i)
                up_fractions[i] = trace.up_time / cfg.mission_time
                failures[i] = trace.n_failures
                yield trace

    with contextlib.closing(_forked_tiles(cfg) if _walker_pays(cfg) else _tiles(cfg)) as tiles:
        exposure = build_exposure_table(replications(tiles), cfg)
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
        exposure=exposure,
    )
