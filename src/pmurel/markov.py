"""Continuous-time Markov model of coupled hardware-software failure.

The unified state model has eight explicit states:

    UP      healthy and fully functional
    HD1     partial hardware degradation, detected but not recoverable
    HD2     partial hardware degradation, detected and recoverable by software
    HD3     undetected hardware degradation, heading to failure
    SD      software degradation (accumulating errors)
    F_HW    hardware-caused total failure (reached from HD1/HD2)
    F_INT   hardware-software interaction failure (reached from HD3)
    F_SW    software-caused total failure (reached from SD)

The three F_* states together form the total-failure aggregate.  The chain's
interaction reliability is the probability mass still inside the operational
subset {UP, HD1, HD2, HD3} at time t.

Transient distributions are solved by uniformization: with rate the largest
exit rate, the generator Q is embedded into the discrete chain
P = I + Q/rate, and exp(Q h) = sum_k Poisson(rate*h, k) P^k.

``transient_grid`` solves one chain over a whole nondecreasing time grid and
is the only solve path; ``transient_distribution`` is its one-point case.

* Grid stepping.  The solve steps from each grid point to the next, never
  from t = 0.  Each interval dt is split into ceil(rate*dt / 64) equal
  sub-steps (none if dt = 0 or the generator is zero) so the Poisson weights
  never underflow.  P does not depend on the sub-step length, so one table
  of powers P^0..P^K serves the grid: for each distinct sub-step length h,
  M_h = sum_{k<=K_h} w_k P^k is summed from it once, and each sub-step is
  one vector-matrix product.
* Budget split.  The truncation budget of 1e-10 is split evenly over all
  sub-steps of the grid: K_h is the first index at which the tail
  1 - sum_{k<=K_h} w_k is at most 1e-10 / (number of sub-steps).
* Tail-mass accounting.  The truncated weight 1 - sum_{k<=K_h} w_k is added
  onto the last power P^K_h, row by row so that the rounding of the powers
  goes with it.  Every row of M_h then sums to 1, and chained solves
  conserve probability.  Each sub-step still moves any entry by at most its
  tail mass away from the exact solution, and since both sum to 1 the error
  at a grid point is at most the sum of the tail masses before it.  The
  total is reported as the achieved bound.
* Nothing is clipped or cut short silently.  Uniformization adds only
  nonnegative terms.  A Poisson sum that stalls short of its target raises
  ArithmeticError; the whole grid is checked by the StateDistribution rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ._checks import nonnegative

STATES: tuple[str, ...] = ("UP", "HD1", "HD2", "HD3", "SD", "F_HW", "F_INT", "F_SW")
OPERATIONAL_STATES: tuple[str, ...] = ("UP", "HD1", "HD2", "HD3")
FAILURE_STATES: tuple[str, ...] = ("F_HW", "F_INT", "F_SW")

# The only transitions the unified model admits.  Failure states are
# absorbing; HD2 -> UP is software-driven recovery and SD -> UP an optional
# restart, both defaulting to rate 0.
ALLOWED_TRANSITIONS: tuple[str, ...] = (
    "UP->HD1",
    "UP->HD2",
    "UP->HD3",
    "UP->SD",
    "HD1->F_HW",
    "HD2->F_HW",
    "HD2->UP",
    "HD3->F_INT",
    "SD->F_SW",
    "SD->UP",
)

_ROW_SUM_TOL = 1e-12
_POISSON_TRUNCATION_EPS = 1e-10
# Cap on the Poisson mean per uniformization step; larger horizons are split.
_MAX_STEP_MEAN = 64.0


def parse_transition(name: str) -> tuple[str, str]:
    """Split a 'SRC->DST' transition label."""
    src, sep, dst = name.partition("->")
    if not sep or not src or not dst:
        raise ValueError(f"malformed transition name {name!r}; expected 'SRC->DST'")
    return src, dst


@dataclass(frozen=True)
class GeneratorMatrix:
    """Transition-rate matrix of a labeled CTMC.

    Off-diagonal entry [i, j] is the rate of the i -> j transition; each
    diagonal entry is the negative row sum, so rows sum to zero.
    """

    states: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        states = tuple(self.states)
        if len(set(states)) != len(states) or not states:
            raise ValueError("states must be a nonempty tuple of unique names")
        m = np.array(self.matrix, dtype=float)
        n = len(states)
        if m.shape != (n, n):
            raise ValueError(f"matrix shape {m.shape} does not match {n} states")
        if not np.all(np.isfinite(m)):
            raise ValueError("generator entries must be finite")
        off = m.copy()
        np.fill_diagonal(off, 0.0)
        if np.any(off < 0.0):
            raise ValueError("off-diagonal generator entries must be >= 0")
        rows = m.sum(axis=1)
        if np.any(np.abs(rows) > _ROW_SUM_TOL * max(1.0, np.abs(m).max())):
            raise ValueError(f"generator rows must sum to 0, got {rows}")
        m.setflags(write=False)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_rates(cls, states, rates: Mapping[str, float]) -> "GeneratorMatrix":
        """Build a generator from 'SRC->DST' labeled rates.

        Unnamed transitions default to rate 0; the diagonal is filled with
        negative row sums.
        """
        states = tuple(states)
        index = {s: i for i, s in enumerate(states)}
        m = np.zeros((len(states), len(states)))
        for name, rate in rates.items():
            src, dst = parse_transition(name)
            for s in (src, dst):
                if s not in index:
                    raise ValueError(f"unknown state {s!r} in transition {name!r}")
            if src == dst:
                raise ValueError(f"self-transition {name!r} is not allowed")
            m[index[src], index[dst]] += nonnegative(f"rate for {name}", rate)
        np.fill_diagonal(m, 0.0)
        np.fill_diagonal(m, -m.sum(axis=1))
        return cls(states, m)

    def index(self, state: str) -> int:
        try:
            return self.states.index(state)
        except ValueError:
            raise ValueError(f"unknown state {state!r}") from None

    def rate(self, src: str, dst: str) -> float:
        return float(self.matrix[self.index(src), self.index(dst)])


def _check_probabilities(rows: np.ndarray, times=None) -> None:
    # The StateDistribution rule for each row of ``rows``: entries in [0, 1]
    # and a sum of 1, up to rounding (a NaN fails the sum).  The first bad row
    # raises ValueError, named by its entry of ``times`` if given.
    sums = rows.sum(axis=1)
    out_of_range = np.any((rows < -1e-12) | (rows > 1.0 + 1e-12), axis=1)
    for i in np.flatnonzero(out_of_range | ~(np.abs(sums - 1.0) <= 1e-9))[:1]:
        where = "" if times is None else f"at t = {times[i]!r}: "
        if out_of_range[i]:
            raise ValueError(f"{where}probabilities must lie in [0, 1], got {rows[i]}")
        raise ValueError(f"{where}probabilities must sum to 1, got {sums[i]!r}")


@dataclass(frozen=True)
class StateDistribution:
    """Probability per state at one instant."""

    states: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self) -> None:
        states = tuple(self.states)
        p = np.array(self.probs, dtype=float)
        if p.shape != (len(states),):
            raise ValueError("probability vector length does not match states")
        _check_probabilities(p[np.newaxis])
        p.setflags(write=False)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "probs", p)

    @classmethod
    def _of_rows(cls, states: tuple[str, ...], rows: np.ndarray, times) -> tuple:
        # One distribution per row, a view of ``rows``, checked in one pass.
        _check_probabilities(rows, times)
        rows.setflags(write=False)
        distributions = tuple(object.__new__(cls) for _ in rows)
        for d, row in zip(distributions, rows):
            vars(d).update(states=states, probs=row)
        return distributions

    @classmethod
    def point_mass(cls, states, state: str) -> "StateDistribution":
        states = tuple(states)
        p = np.zeros(len(states))
        p[states.index(state)] = 1.0
        return cls(states, p)

    def __getitem__(self, state: str) -> float:
        return float(self.probs[self.states.index(state)])

    def as_dict(self) -> dict[str, float]:
        return {s: float(p) for s, p in zip(self.states, self.probs)}


def build_unified_model(rates: Mapping[str, float]) -> GeneratorMatrix:
    """Generator of the eight-state model from named transition rates.

    Only the transitions in ALLOWED_TRANSITIONS may be given; anything else
    is rejected.  Unspecified rates default to 0, which leaves the failure
    states absorbing and disables the optional recovery paths.
    """
    for name in rates:
        if name not in ALLOWED_TRANSITIONS:
            raise ValueError(
                f"transition {name!r} is not part of the model; "
                f"allowed: {', '.join(ALLOWED_TRANSITIONS)}"
            )
    return GeneratorMatrix.from_rates(STATES, rates)


def _poisson_weights(mean: float, eps: float) -> tuple[list[float], float]:
    # Poisson(mean, k) for k = 0..K, K the first index at which the tail mass
    # 1 - sum(weights), exact once the sum passes 1/2, is at most eps; and
    # that tail.  mean must be small enough that exp(-mean) does not
    # underflow (guaranteed by the sub-step splitting in transient_grid).
    weight = cumulative = math.exp(-mean)
    weights = [weight]
    # Past mean + 12*sqrt(mean) the Poisson tail is far below any eps we
    # use; a sum still short of 1 - eps there has stalled in rounding.
    k_max = int(mean + 12.0 * math.sqrt(mean) + 60.0)
    while 1.0 - cumulative > eps:
        k = len(weights)
        if k > k_max:
            raise ArithmeticError(
                f"Poisson weights of mean {mean!r} stalled at {cumulative!r} after "
                f"{k} terms, short of the truncation target 1 - {eps!r}"
            )
        weight *= mean / k
        cumulative += weight
        weights.append(weight)
    return weights, 1.0 - cumulative


def _step_matrix(powers: np.ndarray, weights: list[float]) -> np.ndarray:
    # sum_{k<=K} w_k P^k from the power table P^0, P^1, ..., summed in order
    # of k, plus each row's shortfall from 1 (tail mass and rounding of the
    # powers) onto the same row of P^K, so every row sums to 1.
    k = len(weights)
    m = np.add.reduce(np.array(weights)[:, np.newaxis, np.newaxis] * powers[:k], axis=0)
    m += (1.0 - m.sum(axis=1))[:, np.newaxis] * powers[k - 1]
    return m


@dataclass(frozen=True)
class TransientSolution:
    """Distributions of one chain over a time grid, with solver diagnostics.

    ``error_bound`` is the achieved Poisson truncation bound: no entry of any
    distribution is further than this from the exact solution, apart from
    floating-point rounding.  ``steps`` counts the uniformization sub-steps
    and ``poisson_terms`` the Poisson terms summed into the step matrices.
    """

    times: tuple[float, ...]
    distributions: tuple[StateDistribution, ...]
    error_bound: float
    steps: int
    poisson_terms: int


def transient_grid(g: GeneratorMatrix, initial: StateDistribution, times) -> TransientSolution:
    """Distributions at each of ``times`` of the chain started from ``initial``.

    ``times`` must be finite, >= 0 and nondecreasing; repeated times are
    allowed.  The solve steps from each grid point to the next with Poisson
    truncation error at most 1e-10 over the whole grid.
    """
    times = tuple(float(t) for t in times)
    if initial.states != g.states:
        raise ValueError("initial distribution is labeled for different states")
    for a, b in zip((0.0,) + times, times):
        if not math.isfinite(b) or b < a:
            raise ValueError(f"times must be finite, >= 0 and nondecreasing, got {b} after {a}")

    q = g.matrix
    rate = float(np.max(-np.diag(q)))
    intervals = [b - a for a, b in zip((0.0,) + times, times)]
    # Sub-steps per interval: 0 for an empty interval or a zero generator.
    splits = [math.ceil(rate * dt / _MAX_STEP_MEAN) for dt in intervals]
    steps = sum(splits)
    step_eps = _POISSON_TRUNCATION_EPS / max(1, steps)
    # Poisson weights and tail mass per distinct sub-step length (exact key).
    lengths = dict.fromkeys(dt / n for dt, n in zip(intervals, splits) if n)
    poisson = {h: _poisson_weights(rate * h, step_eps) for h in lengths}
    step_matrices = {}
    if poisson:
        p = np.eye(len(q)) + q / rate
        powers = np.empty((max(len(w) for w, _ in poisson.values()), *p.shape))
        powers[0] = np.eye(len(q))
        for k in range(1, len(powers)):
            powers[k] = powers[k - 1] @ p
        step_matrices = {h: (_step_matrix(powers, w), tail) for h, (w, tail) in poisson.items()}

    x = initial.probs
    rows = np.empty((len(times), len(q)))
    error_bound = 0.0
    for i, (dt, n) in enumerate(zip(intervals, splits)):
        if n:
            m, tail = step_matrices[dt / n]
            for _ in range(n):
                x = x @ m
            error_bound += n * tail
        rows[i] = x
    poisson_terms = sum(len(w) for w, _ in poisson.values())
    distributions = StateDistribution._of_rows(g.states, rows, times)
    return TransientSolution(times, distributions, error_bound, steps, poisson_terms)


def transient_distribution(
    g: GeneratorMatrix, initial: StateDistribution, t: float
) -> StateDistribution:
    """Distribution at time t of the chain started from ``initial``.

    The one-point case of ``transient_grid``: Poisson truncation error at
    most 1e-10 over the whole horizon.
    """
    return transient_grid(g, initial, (t,)).distributions[0]


def operational_mass(dist: StateDistribution) -> float:
    """Probability of the operational states {UP, HD1, HD2, HD3} present in ``dist``."""
    return sum(dist[s] for s in OPERATIONAL_STATES if s in dist.states)


def interaction_reliability_markov(g: GeneratorMatrix, t: float) -> float:
    """Probability the chain started in UP is still operational at time t.

    Operational means any of {UP, HD1, HD2, HD3} that exist in the model;
    the chain is started as a point mass on UP.
    """
    up = StateDistribution.point_mass(g.states, "UP")
    return operational_mass(transient_distribution(g, up, t))
