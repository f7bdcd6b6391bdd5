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

``build_unified_model`` builds this chain from its named rates, each one of
ALLOWED_TRANSITIONS.  Any other chain is given as a matrix to the general
constructor, ``GeneratorMatrix(states, matrix)``, which checks it.

Transient distributions are solved by uniformization: with rate the largest
exit rate, the generator Q is embedded into the discrete chain
P = I + Q/rate, and exp(Q h) = sum_k Poisson(rate*h, k) P^k.

``transient_grid`` solves one chain over a whole nondecreasing time grid and
is the only solve path.

* Grid stepping.  The solve steps from each grid point to the next, never
  from t = 0.  Each interval dt is split into n = ceil(rate*dt / 64) equal
  sub-steps (none if dt = 0 or the generator is zero) so the Poisson weights
  never underflow.  P does not depend on the sub-step length, so one table
  of powers P^0..P^K serves the grid: for each distinct sub-step length h,
  M_h = sum_{k<=K_h} w_k P^k is summed from it once.  Each interval is one
  vector-matrix product with M_h^n, formed once per distinct (h, n) by
  repeated squaring (``np.linalg.matrix_power``; Moler and Van Loan, SIAM
  Review 45, 2003): about log2(n) matrix products, not n vector products,
  and M_h itself when n = 1.
* Stop rule.  The budget of 1e-10 is split evenly over all sub-steps of
  the grid.  Past the mean each Poisson term is at most mean/(K+2) times
  the one before, so the omitted terms sum to at most
  B_K = w_K (mean/(K+1)) / (1 - mean/(K+2)), a bound taken from the terms
  as in Fox and Glynn (CACM 31, 1988).  K_h is the first index past the
  mean with B_K at most the per-sub-step budget.  Unlike 1 - sum(w), B_K
  cannot stall in rounding or go negative.
* Tail-mass accounting.  Each row's shortfall from 1 (omitted terms and
  rounding of the powers) is added onto the last power P^K_h, so every row
  of M_h sums to 1 and chained solves conserve probability.  Rounding moves
  the row sums of M_h^n by about n ulps, past the probability rule's 1e-9 at
  millions of sub-steps per interval, so for n > 1 each row is divided by
  its sum.  A sub-step still moves any entry by at most B_K from the exact
  solution, so the error at a grid point is at most the sum of the bounds
  before it: the achieved bound reported.
* Nothing is clipped.  Uniformization adds only nonnegative terms, and the
  initial vector and the whole grid are checked by one probability rule,
  ``_check_probabilities``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ._checks import nonnegative

STATES: tuple[str, ...] = ("UP", "HD1", "HD2", "HD3", "SD", "F_HW", "F_INT", "F_SW")
OPERATIONAL_STATES: tuple[str, ...] = ("UP", "HD1", "HD2", "HD3")

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

    def index(self, state: str) -> int:
        try:
            return self.states.index(state)
        except ValueError:
            raise ValueError(f"unknown state {state!r}") from None

    def point_mass(self, state: str) -> np.ndarray:
        """Read-only distribution with all its mass on ``state``."""
        p = np.zeros(len(self.states))
        p[self.index(state)] = 1.0
        p.setflags(write=False)
        return p

    def rate(self, src: str, dst: str) -> float:
        return float(self.matrix[self.index(src), self.index(dst)])


def _check_probabilities(rows: np.ndarray, where) -> None:
    # The probability rule for each row of ``rows``: entries in [0, 1] and a
    # sum of 1, up to rounding (a NaN fails the sum).  The first bad row i
    # raises ValueError, its message prefixed by ``where(i)``.
    sums = rows.sum(axis=1)
    out_of_range = np.any((rows < -1e-12) | (rows > 1.0 + 1e-12), axis=1)
    for i in np.flatnonzero(out_of_range | ~(np.abs(sums - 1.0) <= 1e-9))[:1]:
        if out_of_range[i]:
            raise ValueError(f"{where(i)}probabilities must lie in [0, 1], got {rows[i]}")
        raise ValueError(f"{where(i)}probabilities must sum to 1, got {sums[i]!r}")


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
    m = np.zeros((len(STATES), len(STATES)))
    for name, rate in rates.items():
        src, dst = name.split("->")
        m[STATES.index(src), STATES.index(dst)] = nonnegative(f"rate for {name}", rate)
    np.fill_diagonal(m, -m.sum(axis=1))
    return GeneratorMatrix(STATES, m)


def _poisson_weights(mean: float, eps: float) -> tuple[list[float], float]:
    # Poisson(mean, k) for k = 0..K, K the first index with K + 1 > mean and
    # B_K <= eps (module docstring); and B_K.  The sub-steps keep mean <= 64,
    # so exp(-mean) does not underflow and the terms fall below any eps.
    weight = math.exp(-mean)
    weights = [weight]
    while True:
        k = len(weights)  # K + 1
        if k > mean:
            bound = weight * (mean / k) / (1.0 - mean / (k + 1))
            if bound <= eps:
                return weights, bound
        weight *= mean / k
        weights.append(weight)


def _step_matrix(powers: np.ndarray, weights: list[float]) -> np.ndarray:
    # sum_{k<=K} w_k P^k from the power table P^0, P^1, ..., summed in order
    # of k, plus each row's shortfall from 1 (omitted terms and rounding of
    # the powers) onto the same row of P^K, so every row sums to 1.
    k = len(weights)
    m = np.add.reduce(np.array(weights)[:, np.newaxis, np.newaxis] * powers[:k], axis=0)
    m += (1.0 - m.sum(axis=1))[:, np.newaxis] * powers[k - 1]
    return m


@dataclass(frozen=True)
class TransientSolution:
    """Probabilities of one chain over a time grid, with solver diagnostics.

    ``probs`` is a read-only (len(times) x len(states)) array: row i is the
    distribution at ``times[i]``, column j the probability of ``states[j]``.
    ``error_bound`` is the achieved Poisson truncation bound: no entry is
    further than this from the exact solution, apart from the rounding in
    the interval powers.  That rounding grows with the number of sub-steps
    and may exceed the bound on fast chains: 8.9e-12 at 4.1e7 sub-steps,
    8.0e-9 at 4.1e10, 1.6e-7 at 7.8e13 and 9.6e-5 at 7.8e16.
    ``steps`` counts the uniformization sub-steps and ``poisson_terms`` the
    Poisson terms summed into the step matrices.
    """

    states: tuple[str, ...]
    times: tuple[float, ...]
    probs: np.ndarray
    error_bound: float
    steps: int
    poisson_terms: int


def transient_grid(g: GeneratorMatrix, initial, times) -> TransientSolution:
    """Probabilities at each of ``times`` of the chain started from ``initial``.

    ``initial`` holds one probability per state of ``g.states``, in that
    order, e.g. ``g.point_mass("UP")``.  ``times`` must be finite, >= 0 and
    nondecreasing; repeated times are allowed.  The solve steps from each
    grid point to the next with Poisson truncation error at most 1e-10 over
    the whole grid; the rounding of the interval powers is not counted in
    that bound (see ``TransientSolution``).
    """
    x = np.array(initial, dtype=float)
    if x.shape != (len(g.states),):
        raise ValueError(f"initial distribution must hold one probability per state, got shape {x.shape}")
    _check_probabilities(x[np.newaxis], lambda i: "initial distribution: ")
    q = g.matrix
    rate = float(np.max(-np.diag(q)))
    times = tuple(float(t) for t in times)
    for a, b in zip((0.0,) + times, times):
        if not math.isfinite(b) or b < a:
            raise ValueError(f"times must be finite, >= 0 and nondecreasing, got {b} after {a}")
        if math.isinf(rate * (b - a)):
            raise ValueError(
                f"the Poisson mean of the interval [{a:g}, {b:g}] at uniformization rate {rate:g} overflows"
            )

    intervals = [b - a for a, b in zip((0.0,) + times, times)]
    # Sub-steps per interval: 0 for an empty interval or a zero generator.
    splits = [math.ceil(rate * dt / _MAX_STEP_MEAN) for dt in intervals]
    steps = sum(splits)
    step_eps = _POISSON_TRUNCATION_EPS / max(1, steps)
    # Poisson weights and tail bound per distinct sub-step length (exact key).
    lengths = dict.fromkeys(dt / n for dt, n in zip(intervals, splits) if n)
    poisson = {h: _poisson_weights(rate * h, step_eps) for h in lengths}
    step_matrices = {}
    if poisson:
        p = np.eye(len(q)) + q / rate
        powers = np.empty((max(len(w) for w, _ in poisson.values()), *p.shape))
        powers[0] = np.eye(len(q))
        for k in range(1, len(powers)):
            powers[k] = powers[k - 1] @ p
        step_matrices = {h: (_step_matrix(powers, w), bound) for h, (w, bound) in poisson.items()}

    interval_matrices = {}
    probs = np.empty((len(times), len(q)))
    error_bound = 0.0
    for i, (dt, n) in enumerate(zip(intervals, splits)):
        if n:
            h = dt / n
            m, bound = step_matrices[h]
            if (h, n) not in interval_matrices:
                power = np.linalg.matrix_power(m, n)
                interval_matrices[h, n] = power / power.sum(axis=1, keepdims=True) if n > 1 else m
            x = x @ interval_matrices[h, n]
            error_bound += n * bound
        probs[i] = x
    _check_probabilities(probs, lambda i: f"at t = {times[i]!r}: ")
    probs.setflags(write=False)
    poisson_terms = sum(len(w) for w, _ in poisson.values())
    return TransientSolution(g.states, times, probs, error_bound, steps, poisson_terms)


def operational_mass(solution: TransientSolution) -> np.ndarray:
    """Probability of the operational states {UP, HD1, HD2, HD3} present in
    the chain, one per time of ``solution``: their columns added left to
    right, not clamped to 1."""
    mass = np.zeros(len(solution.times))
    for s in OPERATIONAL_STATES:
        if s in solution.states:
            mass = mass + solution.probs[:, solution.states.index(s)]
    return mass
