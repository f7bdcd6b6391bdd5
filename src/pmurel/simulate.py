"""Sequential Monte Carlo simulation of failure/repair cycles over a mission.

Each replication alternates exponentially distributed time-to-failure and
time-to-repair draws (the constant-rate premise of the state model) on one
clock, ``clock += ttf; clock += ttr``, and carries only that clock and its up
time.  It takes every draw of its substream in order, by two rules.  A
uniform u is the time ``-log(u) / rate``, and u = 0 an infinite one, the
inverse transform's limit.  The first failure at or past the horizon, or
repair clipped at or reaching it, ends the mission, whose remainder
``max(horizon - clock, 0)`` is up time: at most an ulp of the horizon after
a clipped repair.  A replication's events have three columns (time to
failure, credited repair, failure time): a failure time ends its up period,
bit for bit, the next starts at it plus the credited repair, where the clock
goes on, and the down time is derived from the events.  Replications are
aggregated into availability and failure-count estimates plus the
interval-bucketed exposure table consumed by the rate-fitting module.

Reproducibility contract: replication i draws from its own substream, the
PCG64 stream of ``SeedSequence(entropy=master_seed, spawn_key=(i,))``, and
every reduction (the summary statistics and each exposure-table bin) adds in
replication order.  The same configuration therefore produces bit-identical
results, whatever the tile size of the block engine, the budget of the
bucketing, or the process that walks the tiles.

The engine simulates a tile at a time: a ``run_replication`` call walks the
replications of the tile of rows holding its index, within an aligned block
of ``_SUBSTREAM_BLOCK`` indices, at once, as arrays.  The module holds the
one tile walked last, as its arrays, so a call for the rest of that tile
cuts its trace from them, the events a view of the tile's one event array;
a call for any other tile, or for another campaign, walks its tile in place
of the held one.  Calls from several threads at once therefore stay
correct, and campaigns interleaved call by call walk their tiles again, to
the same traces.  ``run_simulation`` streams: it takes the campaign's walked
tiles in index order, holds each, and buckets the traces a run at a time as
they are drawn, a handful of numpy calls per run, keeping only each
replication's up fraction and failure count.  A campaign of any length,
mission time or number of intervals therefore holds one walked tile, one
run of traces and its (interval, overlap) pairs, the interval totals and 16
bytes per replication.
Each replication draws the raw outputs of numpy's PCG64 for its substream,
times go through the module's own natural log (``_log``, a port of fdlibm's
in IEEE ``+ - * /`` alone), not the platform's libm, and every clock and bin
adds in event order.  So the
results depend on the seed alone, not on the platform, and equal those of a
scalar one-draw-at-a-time loop over the same log bit for bit
(``tests/test_simulate_oracle.py`` keeps such a loop as its reference).

A campaign whose bucketing pays for a fork walks and buckets at once:
``run_simulation`` forks one walker process (``os.fork``), which walks the
tiles in index order and pickles each to a pipe that only it writes, while
the calling process buckets the tiles before it.  It does so only where the
platform can fork, the process may run on at least two CPUs, the campaign
has more than one tile, and the caller's work that the walk overlaps
reaches ``WALKER_MIN_WORK`` expected cycles: ``TRACE_CYCLES`` per
replication for its trace, which grows with the replications, plus the
campaign's expected renewal cycles, which its bucketing grows with
(``_walker_pays``, whose constants record the campaigns they were measured
on).  There is no option for it.  A native-stream campaign loads
``numpy.random`` before the fork, as an in-process walk would, so the
walker never loads it.  Everything else, a ``run_replication`` call of its
own too, walks in the calling thread.  The walker is reaped before
``run_simulation`` returns or raises, and killed first if it has not sent
every tile.  Its memory is that of a separate process: the walk's
temporaries, and the seed words it hashes, do not count in the caller's
resident set.

The engine draws in rounds, a window of uniforms for every row still walking,
which each round uses whole: a row ends in it or draws the next window after
it.  Windows come from one of two kinds of substream, chosen per campaign
from its expected number of renewal cycles (``_draw_plan``).  Native streams
are numpy's own PCG64 objects: about 2 µs to build per replication and a
call per row and round, but little per draw, so their rounds hold the
expected draws plus slack.  Array streams compute the same outputs for all rows of a tile at once
in numpy ``uint64`` arithmetic, the 128-bit LCG state in two limbs and a
window's states jumped to from per-column constants: no object and no call
per row, but 30 to 40 ns per draw, so their rounds hold just the expected
draws.  Campaigns of short replications, whose native round would hold at
most ``ARRAY_STREAM_DRAWS`` draws, take array streams, and never import
``numpy.random``; longer ones take native streams.  Both give the same draws,
so the choice changes no result.  One budget of ``TILE_ROWS * 16`` states
bounds every round of either kind: a tile holds ``TILE_ROWS`` rows, halved
while its rows times the round's draws plus one exceed the budget, so each a
divisor of the block, and a native round is capped at the budget less one.

Substreams are built without a SeedSequence object per replication:
SeedSequence's algorithm is evaluated in numpy ``uint32`` arithmetic for a
whole aligned block of replication indices at once (``_substream_block``,
which keeps the last block hashed for the tiles after it), and each
substream's PCG64 is seeded from its row of that block.  Tests check the
rows against numpy's own SeedSequence for equality.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import pickle
from dataclasses import dataclass

import numpy as np

from ._checks import integer, nonnegative, positive

# (interval, overlap) pairs per numpy pass of build_exposure_table (_chunks);
# it bounds the pass's temporaries without changing any result.
EXPOSURE_CHUNK = 8192

# Rows of a tile of the block engine (_walk_tile), a divisor of
# _SUBSTREAM_BLOCK (no runt tiles).  A round's rows x (draws + 1) states keep
# within the budget of TILE_ROWS x 16, the temporaries of a 15-draw round of
# a full tile: a wide round halves its tile's rows, and no round holds more
# than the budget less one draws (_draw_plan).  None of it changes a result.
TILE_ROWS = 1024


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


@functools.lru_cache(maxsize=1)
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
    """Failure/repair history of one replication, truncated at the mission
    end, as ``run_replication`` returns it; nothing else makes one.

    ``events`` holds one row (time_to_failure, repair_time, failure_time)
    per failure before the mission horizon, on the one clock of the module
    docstring; the last repair is clipped at the horizon if the mission
    ended mid-repair.  A final up period that ran out the mission clock
    appears in ``up_time``, not in ``events``; so does the remainder, at
    most an ulp of the horizon, where rounding leaves a clipped repair's end
    below it, and ``up_periods`` lists it.  ``events`` is a read-only view
    of the walked tile's one event array, and instances are immutable.
    """

    __slots__ = ("events", "up_time")

    def __new__(cls, *args, **kwargs):
        raise TypeError(f"{cls.__name__} has no public constructor: run_replication makes every trace")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def n_failures(self) -> int:
        return len(self.events)

    @property
    def down_time(self) -> float:
        """The repair times added one after another in cycle order (a
        sequential sum, not numpy's pairwise one)."""
        return float(np.add.accumulate(np.append(0.0, self.events[:, 1]))[-1])

    def up_periods(self, mission_time: float) -> list[tuple[float, float]]:
        """Operating intervals [start, end] within [0, mission_time]: each
        ends at its failure time, the next starts at it plus the repair."""
        _, repairs, failures = self.events.T.tolist()
        starts = [0.0, *(f + r for f, r in zip(failures, repairs))]
        periods = list(zip(starts, failures))
        if starts[-1] < mission_time:
            periods.append((starts[-1], mission_time))
        return periods


# The slots' own setters, which ReplicationTrace.__setattr__ does not reach.
_SET_EVENTS, _SET_UP_TIME = (ReplicationTrace.__dict__[name].__set__ for name in ReplicationTrace.__slots__)


def _set_trace(trace: ReplicationTrace, events: np.ndarray, up_time: float) -> None:
    """Fill a trace with a read-only (n_failures x 3) event array."""
    _SET_EVENTS(trace, events)
    _SET_UP_TIME(trace, up_time)


class _NativeStreams:
    """numpy's own PCG64 for each row of substream seed words.

    ``draw(rows, width)`` returns the next ``width`` raw outputs of each of
    the given rows, one row each; the next draw of a row goes on after them.
    """

    def __init__(self, words: np.ndarray) -> None:
        from numpy.random import PCG64

        seed_words = _seed_words_class()
        self._streams = [PCG64(seed_words(w)) for w in words]

    def __len__(self) -> int:
        return len(self._streams)

    def draw(self, rows: np.ndarray, width: int) -> np.ndarray:
        return np.array([self._streams[r].random_raw(width) for r in rows.tolist()])


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
    state_k = A_k * state + C_k * inc, keeps the last and returns the
    outputs of the others.  The products C_k * inc of every row
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
        state_hi[rows], state_lo[rows] = hi[:, -1], lo[:, -1]
        hi, lo = hi[:, 1:], lo[:, 1:]
        x = hi ^ lo
        rot = hi >> _U58
        return (x >> rot) | (x << ((_U64 - rot) & _U63))


# The widest native round (see _draw_plan) still drawn from array streams:
# where whole campaigns cost the same on either kind (run_simulation with
# 400000 / mission_time replications, median CPU time of 7 runs per process,
# alternating pairs, 2-core Xeon, tiles of both kinds within one round
# budget: array streams faster at native rounds of 80-88 draws in 8-9 of 10
# pairs, even at 90 (13 of 20), slower at 92 (6 of 20) and 96 (0 of 10)).
ARRAY_STREAM_DRAWS = 88


def _draw_plan(failure_rate: float, repair_rate: float, mission_time: float) -> tuple[type, int]:
    """The substream kind of a campaign and the uniforms each replication
    draws per round, even, so that a round holds whole cycles.

    A native round costs a call per row, so it holds the expected number of
    draws (two per renewal cycle) plus slack, so that most replications
    finish in one round.  Array streams step every row at a cost per draw,
    so up to a native round of ``ARRAY_STREAM_DRAWS`` they serve instead,
    with rounds of just the expected draws.  The kind is chosen from the
    native round as it comes; only then is a native round capped at the
    round budget less one (``TILE_ROWS * 16 - 1``), so one row of it keeps
    within the budget.
    """
    cycles = mission_time / (1.0 / failure_rate + 1.0 / repair_rate)
    draws = 2.0 * cycles + 4.0 * math.sqrt(cycles) + 8.0
    if draws < ARRAY_STREAM_DRAWS + 2:  # made even, at most ARRAY_STREAM_DRAWS
        return _ArrayStreams, max(2, 2 * math.ceil(cycles))
    return _NativeStreams, 2 * int(min(draws, TILE_ROWS * 16 - 1) / 2.0)


# fdlibm's e_log.c (Sun Microsystems, 1993): ln 2 split in two, and the
# coefficients of its minimax polynomial in s = f / (2 + f).
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10
_LG1, _LG2, _LG3 = 6.666666666666735130e-01, 3.999999999940941908e-01, 2.857142874366239149e-01
_LG4, _LG5 = 2.222219843214978396e-01, 1.818357216161805012e-01
_LG6, _LG7 = 1.531383769920937332e-01, 1.479819860511658591e-01
_SQRT_HALF = math.sqrt(0.5)


def _log(x: np.ndarray) -> np.ndarray:
    """Natural log of uniforms in [2**-53, 1], elementwise: fdlibm's
    ``__ieee754_log`` in its general form, without its branches for zero,
    negative, subnormal, infinite or NaN input, or for f near 0.

    With x = m * 2**k and m in [√½, √2), f = m - 1 and s = f / (2 + f),
    log x = k ln2_hi - ((f²/2 - (s (f²/2 + R) + k ln2_lo)) - f), R a
    polynomial in s².  It takes ``frexp`` and IEEE ``+ - * /`` alone, and
    numpy ufuncs apply one rounded operation each, with no fused
    multiply-add, so the result is the same on every IEEE-754 platform.
    It is within one ulp of the true log, and log 1 is +0.0.
    """
    m, k = np.frexp(x)
    low = m < _SQRT_HALF
    m *= 1.0 + low  # doubles m where it is low, exactly
    k -= low
    f = m - 1.0
    s = f / (2.0 + f)
    z = s * s
    w = z * z
    r = z * (_LG1 + w * (_LG3 + w * (_LG5 + w * _LG7)))
    r += w * (_LG2 + w * (_LG4 + w * _LG6))
    hfsq = 0.5 * f * f
    r += hfsq
    r *= s
    r += k * _LN2_LO
    hfsq -= r
    hfsq -= f
    out = k * _LN2_HI
    out -= hfsq
    return out


def _walk(streams, failure_rate: float, repair_rate: float, horizon: float, width: int):
    """Simulate one replication per row of ``streams`` to the horizon.

    Each round draws ``width`` raw outputs for every row still walking and
    steps all of them at once.  Returns the events of every replication,
    in row order and cycle order within a row, the number of events of
    each, and each one's up time: the two running values of a row, with
    its clock.

    A raw draw becomes ``(raw >> 11) * 2**-53``, the value ``Generator.random``
    returns, and its time ``-_log(u) / rate``, the package's own log, so it
    is the same bits on every platform; u = 0, one draw in 2**53, is an
    infinite time.  Each round takes its times and clocks once.  Every
    clock and total is an ``np.add.accumulate`` over durations in event
    order led by the running value, so it rounds as ``clock += ttf; clock
    += ttr`` does.  A row ends at its first stop, a failure at or past the
    horizon or a repair clipped at it or reaching it, its remainder
    ``max(horizon - clock, 0)`` added to its up time; a row without a stop
    in its window carries its clock and up time into the next round.
    """
    n = len(streams)
    # running clock and up time
    clock0, up0 = np.zeros((2, n))
    counts = np.zeros(n, dtype=np.intp)
    active = np.arange(n)
    rounds = []
    neg_rates = np.tile([-failure_rate, -repair_rate], width // 2)
    cycles = np.arange(width // 2)
    while len(active):
        rows = np.arange(len(active))
        u = (streams.draw(active, width) >> _U11) * 2.0**-53
        dur = _log(u)
        dur /= neg_rates
        dur[u == 0.0] = np.inf
        clock = dur.copy()
        clock[:, 0] += clock0[active]
        np.add.accumulate(clock, axis=1, out=clock)

        ttf, ttr = dur[:, 0::2], dur[:, 1::2]
        fail_at, repaired = clock[:, 0::2], clock[:, 1::2]
        gap = horizon - fail_at
        clipped = gap < ttr
        stop = np.empty(u.shape, dtype=bool)
        np.greater_equal(fail_at, horizon, out=stop[:, 0::2])
        np.logical_or(clipped, repaired >= horizon, out=stop[:, 1::2])
        end = stop.argmax(axis=1)
        ended = stop[rows, end]
        n_cycles = np.where(ended, (end + 1) // 2, width // 2)
        clip = np.flatnonzero(ended & (end % 2 == 1) & clipped[rows, end // 2])
        credited = ttr.copy()
        credited[clip, end[clip] // 2] = gap[clip, end[clip] // 2]

        up = ttf.copy()
        up[:, 0] += up0[active]
        np.add.accumulate(up, axis=1, out=up)

        last, walked = np.maximum(n_cycles - 1, 0), n_cycles > 0
        clock_k = np.where(walked, fail_at[rows, last] + credited[rows, last], clock0[active])
        up_k = np.where(walked, up[rows, last], up0[active])
        up0[active] = np.where(ended, up_k + np.maximum(horizon - clock_k, 0.0), up_k)
        clock0[active] = clock_k
        counts[active] += n_cycles
        walk = cycles < n_cycles[:, None]
        events = np.column_stack((ttf[walk], credited[walk], fail_at[walk]))
        rounds.append((active, n_cycles, events))
        active = active[~ended]

    events = np.concatenate([e for _, _, e in rounds])
    if len(rounds) > 1:
        owner = np.concatenate([np.repeat(a, k) for a, k, _ in rounds])
        events = events[np.argsort(owner, kind="stable")]
    return events, counts, up0


def _tile_rows(width: int) -> int:
    """Rows of a tile whose rounds draw ``width`` uniforms: ``TILE_ROWS``,
    halved while ``rows * (width + 1)`` exceeds the round budget of
    ``TILE_ROWS * 16`` states."""
    rows = TILE_ROWS
    while rows > 1 and rows * (width + 1) > TILE_ROWS * 16:
        rows //= 2
    return rows


def _walk_tile(cfg: SimulationConfig, index: int):
    """Walk the tile of rows holding replication ``index``: returns the
    tile's first index and ``_walk``'s three arrays for it.

    A tile is a run of ``_tile_rows`` rows, whatever the stream kind,
    within the index's aligned block of ``_SUBSTREAM_BLOCK`` indices, which
    is cut at ``cfg.n_replications`` (the whole block for an index past
    it).
    """
    rates = cfg.failure_rate, cfg.repair_rate, cfg.mission_time
    kind, width = _draw_plan(*rates)
    rows = _tile_rows(width)
    block, row = divmod(index, _SUBSTREAM_BLOCK)
    n_rows = cfg.n_replications - block * _SUBSTREAM_BLOCK
    if not row < n_rows < _SUBSTREAM_BLOCK:
        n_rows = _SUBSTREAM_BLOCK
    lo = row - row % rows
    words = _substream_block(cfg.master_seed, block)[lo:min(lo + rows, n_rows)]
    return block * _SUBSTREAM_BLOCK + lo, *_walk(kind(words), *rates, width)


def _tiles(cfg: SimulationConfig):
    """Walk the campaign's tiles in index order, in this process: yields the
    first index of each tile and ``_walk``'s three arrays for it."""
    index = 0
    while index < cfg.n_replications:
        first, events, counts, up = _walk_tile(cfg, index)
        yield first, events, counts, up
        index = first + len(counts)


# The one walked tile kept: (key, first index, read-only events, row starts,
# up times).  _hold replaces the tuple whole, so a reader sees one tile or
# the other, never a mix.
_held = (None, 0, None, [0], [])


def _tile_key(cfg: SimulationConfig) -> tuple:
    """What a row's trace depends on besides its index: the rates, the
    mission time and the seed, not the campaign's length."""
    return cfg.failure_rate, cfg.repair_rate, cfg.mission_time, cfg.master_seed


def _hold(cfg: SimulationConfig, first: int, events, counts, up) -> tuple:
    """Keep the walked tile whose first index is ``first`` in place of the
    held one: its event array, made read-only, the index of each row's
    first event and each row's up time.  Returns the new held tuple."""
    global _held
    events.flags.writeable = False
    held = _held = _tile_key(cfg), first, events, [0, *np.cumsum(counts).tolist()], up.tolist()
    return held


def run_replication(cfg: SimulationConfig, replication_index: int) -> ReplicationTrace:
    """Simulate one mission: alternate failure and repair draws until the
    clock passes the horizon, crediting the final partial period only up to
    the horizon.

    Replications are simulated a tile of rows at a time (``_walk_tile``):
    a call for an index in the held tile of the same rates, mission time and
    seed cuts its trace from that tile's arrays, its events a read-only view
    of the tile's event array, and any other index walks its tile in place
    of the held one, to the same trace values.  So calls out of index order
    may walk a whole tile each, up to ``TILE_ROWS`` rows.  Indices are
    checked as SeedSequence checks a spawn key.
    """
    index = integer("replication_index", replication_index, 0)
    key, first, events, starts, up = _held
    if key != _tile_key(cfg) or not first <= index < first + len(up):
        _, first, events, starts, up = _hold(cfg, *_walk_tile(cfg, index))
    row = index - first
    trace = object.__new__(ReplicationTrace)
    _set_trace(trace, events[starts[row]:starts[row + 1]], up[row])
    return trace


# A campaign walks forked (_walker_pays) when the caller's work that the walk
# overlaps reaches WALKER_MIN_WORK expected renewal cycles: a replication's
# trace path (run_replication and its share of a bucketing run, about 1.8 µs)
# costs about TRACE_CYCLES cycles of bucketing (about 48 ns each), and each
# expected cycle one.  The line comes from timing a fresh process's first
# run_simulation forked against in-process at the default rates (2-core
# Xeon, 20 alternating pairs, numpy.random loaded before the fork): missions
# x years, work, median paired difference forked less in-process, pairs the
# walker won.
#   below the line:  2048 x 10, 95k, +3.5 ms, 1;  3072 x 10, 143k, +1.1 ms,
#   7;  300 x 100, 31k, +3.7 ms, 2;  1000 x 100, 104k, +1.4 ms, 3;
#   1500 x 100, 156k, -0.2 ms, 10;  20 x 2000, 26k, +4.1 ms, 2;
#   50 x 2000, 66k, +3.8 ms, 5;  100 x 2000, 132k, -1.2 ms, 12;
#   8 x 20000, 102k, +8.1 ms, 4;  12 x 20000, 154k, -3.3 ms, 13.
#   above it:  4096 x 10, 190k, -1.2 ms, 12;  8192 x 10, 380k, -7.9 ms, 18;
#   2000 x 100, 208k, -1.5 ms, 14;  200 x 2000, 263k, -6.3 ms, 12;
#   16 x 20000, 205k, -1.4 ms, 11.
# Between about 130k and 210k the sign changed from one series to the next
# (100 x 2000 lost by 4.1 ms in 24 pairs, 12 x 20000 by 2.9 ms in 16, and
# 1500 x 100 was even in 24), so the line sits mid-band.  The benchmark's
# pipeline of 200 x 2000 years read 0.0913 s forked against 0.0966 s walked
# in-process (medians of 10 alternating pairs of 34 s runs, 10 of 10).
TRACE_CYCLES = 40
WALKER_MIN_WORK = 160_000

# Requested size of the walker's pipe, enough for several tiles: the calling
# process buckets in bursts, and with the default 64 KiB pipe the walker
# stalls on a full pipe during each burst.
_PIPE_BYTES = 1 << 20


def _walker_pays(cfg: SimulationConfig) -> bool:
    """Whether ``run_simulation`` walks in a forked process: the platform can
    fork, this process may run on at least two CPUs, the campaign has more
    than one tile, and its replications' work, ``TRACE_CYCLES`` plus the
    expected cycles each, reaches ``WALKER_MIN_WORK``."""
    can_fork = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    if not (can_fork and len(os.sched_getaffinity(0)) >= 2):
        return False
    _, width = _draw_plan(cfg.failure_rate, cfg.repair_rate, cfg.mission_time)
    cycles = cfg.mission_time / (1.0 / cfg.failure_rate + 1.0 / cfg.repair_rate)
    work = cfg.n_replications * (TRACE_CYCLES + cycles)
    return cfg.n_replications > _tile_rows(width) and work >= WALKER_MIN_WORK


def _forked_tiles(cfg: SimulationConfig):
    """``_tiles(cfg)`` walked in a forked process, the walker, which pickles
    each tile to a pipe as the caller reads the ones before.

    The walker ends with ``os._exit`` whatever happens, so it never runs
    the caller's exit handlers or flushes its buffers; a failure's text
    goes to file descriptor 2.  The walker is reaped before the generator
    ends, and killed first unless every tile was read: closing the
    generator early, or an error while reading, never leaves it running
    or waits on one blocked on a full pipe.  Only whole tiles are yielded;
    a walker that ends early, or leaves a tile cut short, raises
    RuntimeError with its exit status and the replications received.
    Where the fork itself fails, the tiles are walked in this process.
    """
    # Unix-only modules that only a forked campaign needs
    import fcntl
    import signal

    if _draw_plan(cfg.failure_rate, cfg.repair_rate, cfg.mission_time)[0] is _NativeStreams:
        # load numpy.random here, as an in-process walk would, not in the
        # walker after the fork
        _seed_words_class()
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
                for tile in _tiles(cfg):
                    pickle.dump(tile, pipe, protocol=5)
                    pipe.flush()  # a small tile would wait in the buffer
            code = 0
        except BaseException:
            import traceback

            os.write(2, f"Monte Carlo walker failed:\n{traceback.format_exc()}".encode())
        finally:
            os._exit(code)

    os.close(write_fd)
    status = None
    received = 0
    try:
        with open(read_fd, "rb") as pipe:
            while received < cfg.n_replications:
                try:
                    first, events, counts, up = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):
                    break
                yield first, events, counts, up
                received = first + len(counts)
        _, status = os.waitpid(pid, 0)
    finally:
        if status is None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if received < cfg.n_replications or code:
        ended = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise RuntimeError(
            f"the Monte Carlo walker process {ended} after sending {received} of "
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

    def rows(self) -> list[tuple[int, float, float]]:
        """(interval, X_i, T_i) rows, interval numbered from 1."""
        return [(i + 1, x, t) for i, (x, t) in enumerate(zip(self.counts, self.times))]


def _chunks(traces, mission_time: float, n_intervals: int):
    """Consecutive runs of traces, each as one array of rows and its number
    of traces, cut before a trace whose pair bound ``len(events) +
    n_intervals`` (``_cover``) would take the run past EXPOSURE_CHUNK.  A
    trace's rows are its events and then a tail row (0, -mission_time,
    mission_time): the failure-time column holds the ends of the run's up
    periods, tails included, and failure time plus repair the start of the
    next period, +0.0 after a tail."""
    tail = np.array([[0.0, -mission_time, mission_time]])
    rows, pairs = [], 0
    for trace in traces:
        bound = len(trace.events) + n_intervals
        if rows and pairs + bound > EXPOSURE_CHUNK:
            yield np.concatenate(rows), len(rows) // 2
            rows, pairs = [], 0
        rows += trace.events, tail
        pairs += bound
    if rows:
        yield np.concatenate(rows), len(rows) // 2


def _up_periods(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Starts and ends of the up periods of a run of ``_chunks`` rows, in
    trace order and, within a trace, cycle order with the tail period last,
    as ``up_periods`` has them.  Every trace gets a tail (start,
    mission_time); one that starts at or after the horizon is empty and
    overlaps no interval."""
    ends = rows[:, 2]
    starts = np.empty(len(rows))
    starts[0] = 0.0
    np.add(ends[:-1], rows[:-1, 1], out=starts[1:])
    return starts, ends


def _cover(starts: np.ndarray, ends: np.ndarray, ends_at: np.ndarray, edges: np.ndarray):
    """The first interval each up period covers and its number of pairs:
    [s, e] covers the interval holding s (the last edge <= s) up to the one
    before ``ends_at``, the first edge >= e, and none if e <= s.  A trace's
    periods are disjoint and in order, so each interior edge splits at most
    one: they cover at most ``len(events) + n_intervals`` pairs."""
    first = np.maximum(np.searchsorted(edges, starts, side="right") - 1, 0)
    return first, np.where(ends > starts, np.minimum(ends_at, len(edges) - 1) - first, 0)


def build_exposure_table(traces, cfg: SimulationConfig) -> ExposureTable:
    """Bucket failures and operating time into equal mission sub-intervals.

    A failure landing exactly on an interior boundary belongs to the earlier
    (right-closed) interval; the final interval is closed at the horizon.
    Each interval's time adds its overlaps in trace order and, within a
    trace, period order, the running totals first, so every bin is summed in
    the same order whatever the budget.  ``traces`` may be any iterable, a
    one-shot generator too: it is read once, a run (``_chunks``) at a time,
    so the pass holds O(EXPOSURE_CHUNK + n_intervals) memory, or a longest
    trace's, whatever the number of replications.
    """
    n = cfg.n_intervals
    edges = np.linspace(0.0, cfg.mission_time, n + 1)
    bins = np.arange(n)
    counts = np.zeros(n, dtype=np.int64)
    times = np.zeros(n)
    rows = None
    for rows, n_traces in _chunks(traces, cfg.mission_time, n):
        starts, ends = _up_periods(rows)
        ends_at = np.searchsorted(edges, ends, side="left")
        counts += np.bincount(np.clip(ends_at, 1, n) - 1, minlength=n)
        counts[-1] -= n_traces  # the tails end at the horizon, not in a failure
        first, n_pairs = _cover(starts, ends, ends_at, edges)
        period = np.repeat(np.arange(len(rows)), n_pairs)
        # the k-th pair of period p covers interval first[p] + k
        interval = np.repeat(first + n_pairs - np.cumsum(n_pairs), n_pairs) + np.arange(len(period))
        overlap = np.minimum(ends[period], edges[interval + 1]) - np.maximum(starts[period], edges[interval])
        weights = np.concatenate((times, overlap))
        times = np.bincount(np.concatenate((bins, interval)), weights=weights, minlength=n)
    if rows is None:
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
    bucketing each trace as it is drawn and keeping each tile's up fractions
    and failure counts, not its traces.  The tiles are walked in a forked
    process where ``_walker_pays`` says so, in this one otherwise, to the
    same traces."""
    n = cfg.n_replications
    up_fractions = np.empty(n)
    failures = np.empty(n)

    def replications(tiles):
        for first, events, counts, up in tiles:
            _hold(cfg, first, events, counts, up)
            up_fractions[first:first + len(counts)] = up / cfg.mission_time
            failures[first:first + len(counts)] = counts
            for i in range(first, first + len(counts)):
                yield run_replication(cfg, i)

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
