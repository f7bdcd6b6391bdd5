"""Type-1 fuzzy uncertainty for repairable-component reliability parameters.

Failure and repair rates whose point estimates are unreliable (sparse field
data) are represented as symmetric triangular fuzzy numbers.  Uncertainty is
pushed through the two-state availability model A = mu / (lambda + mu) by
alpha-cut interval arithmetic.  Because A is increasing in the repair rate mu
and decreasing in the failure rate lambda, the exact interval image at every
membership level alpha is attained at corners of the (lambda, mu) box:

    A_lo = mu_lo / (mu_lo + lambda_hi)
    A_hi = mu_hi / (mu_hi + lambda_lo)

which avoids the spurious widening of naive interval division.

All functions here are pure; the value types are frozen dataclasses and safe
to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

DEFAULT_ALPHA_GRID: tuple[float, ...] = tuple(i / 10.0 for i in range(11))

# Quantities a FuzzyIndex may carry.  Availability-like quantities are
# additionally constrained to [0, 1].
QUANTITIES = ("availability", "unavailability", "failure-rate", "repair-rate")
_UNIT_INTERVAL_QUANTITIES = frozenset({"availability", "unavailability"})

# Slack for the nesting check; endpoint formulas are monotone in alpha but
# may wobble by a few ulps.
_NESTING_TOL = 1e-12


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return value


@dataclass(frozen=True)
class TriangularFuzzyNumber:
    """Symmetric triangular membership function over a nonnegative rate.

    Membership is 1 at ``center``, 0 outside
    ``[center - halfwidth, center + halfwidth]`` and linear in between.
    The support may not extend below zero (rates cannot go negative).
    """

    center: float
    halfwidth: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", _require_finite("center", self.center))
        object.__setattr__(self, "halfwidth", _require_finite("halfwidth", self.halfwidth))
        if self.halfwidth < 0.0:
            raise ValueError(f"halfwidth must be >= 0, got {self.halfwidth}")
        if self.center - self.halfwidth < 0.0:
            raise ValueError(
                "support extends below zero: "
                f"center={self.center}, halfwidth={self.halfwidth}"
            )

    @property
    def support(self) -> tuple[float, float]:
        return (self.center - self.halfwidth, self.center + self.halfwidth)

    def membership(self, x: float) -> float:
        """Degree of membership of ``x``, in [0, 1]."""
        x = _require_finite("x", x)
        if self.halfwidth == 0.0:
            return 1.0 if x == self.center else 0.0
        return max(0.0, 1.0 - abs(x - self.center) / self.halfwidth)


@dataclass(frozen=True)
class AlphaCutInterval:
    """Crisp interval of values whose membership is at least ``alpha``."""

    alpha: float
    lo: float
    hi: float

    def __post_init__(self) -> None:
        for name in ("alpha", "lo", "hi"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: [{self.lo}, {self.hi}]")

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)


@dataclass(frozen=True)
class FuzzyIndex:
    """A fuzzy-valued reliability quantity as a stack of alpha-cut intervals.

    ``cuts`` are ordered by strictly increasing alpha and must be nested:
    a higher membership level never widens the interval.
    """

    quantity: str
    cuts: tuple[AlphaCutInterval, ...]

    def __post_init__(self) -> None:
        if self.quantity not in QUANTITIES:
            raise ValueError(
                f"unknown quantity {self.quantity!r}; expected one of {QUANTITIES}"
            )
        object.__setattr__(self, "cuts", tuple(self.cuts))
        if not self.cuts:
            raise ValueError("a FuzzyIndex needs at least one alpha-cut interval")
        prev = None
        for cut in self.cuts:
            if prev is not None:
                if cut.alpha <= prev.alpha:
                    raise ValueError("alpha levels must be strictly increasing")
                if cut.lo < prev.lo - _NESTING_TOL or cut.hi > prev.hi + _NESTING_TOL:
                    raise ValueError(
                        f"alpha-cuts are not nested at alpha={cut.alpha}"
                    )
            prev = cut
        if self.quantity in _UNIT_INTERVAL_QUANTITIES:
            for cut in self.cuts:
                if cut.lo < 0.0 or cut.hi > 1.0:
                    raise ValueError(
                        f"{self.quantity} values must lie in [0, 1], "
                        f"got [{cut.lo}, {cut.hi}] at alpha={cut.alpha}"
                    )

    @property
    def alphas(self) -> tuple[float, ...]:
        return tuple(cut.alpha for cut in self.cuts)

    def rows(self) -> list[tuple[float, float, float]]:
        """(alpha, lo, hi) triples, one per grid level, for CSV export."""
        return [(cut.alpha, cut.lo, cut.hi) for cut in self.cuts]


def alpha_cut(f: TriangularFuzzyNumber, alpha: float) -> AlphaCutInterval:
    """Alpha-cut of a symmetric triangular number.

    Returns ``[center - (1 - alpha) * halfwidth, center + (1 - alpha) * halfwidth]``;
    at alpha = 1 this collapses to the core.
    """
    spread = (1.0 - alpha) * f.halfwidth
    return AlphaCutInterval(alpha, f.center - spread, f.center + spread)


def _check_alpha_grid(alpha_grid) -> tuple[float, ...]:
    grid = tuple(float(a) for a in alpha_grid)
    if not grid:
        raise ValueError("alpha grid must not be empty")
    prev = None
    for a in grid:
        _require_finite("alpha", a)
        if not 0.0 <= a <= 1.0:
            raise ValueError(f"alpha grid values must lie in [0, 1], got {a}")
        if prev is not None and a <= prev:
            raise ValueError("alpha grid must be strictly increasing")
        prev = a
    return grid


def _availability_endpoints(lam: AlphaCutInterval, mu: AlphaCutInterval) -> tuple[float, float]:
    if lam.hi == 0.0 and mu.hi == 0.0:
        raise ValueError(
            "availability undefined: failure and repair rates are both "
            f"identically zero at alpha={lam.alpha}"
        )
    # 0/0 corners only occur when one rate is identically zero; the limits
    # are then 1 (failure rate zero) and 0 (repair rate zero).
    lo = mu.lo / (mu.lo + lam.hi) if mu.lo + lam.hi > 0.0 else 1.0
    hi = mu.hi / (mu.hi + lam.lo) if mu.hi + lam.lo > 0.0 else 0.0
    return lo, hi


def fuzzy_availability(
    failure: TriangularFuzzyNumber,
    repair: TriangularFuzzyNumber,
    alpha_grid=DEFAULT_ALPHA_GRID,
) -> FuzzyIndex:
    """Availability band of a two-state repairable component.

    For each alpha the failure/repair alpha-cuts are mapped to the exact
    interval image of A = mu / (lambda + mu) via the monotone-endpoint
    formula (see module docstring).
    """
    grid = _check_alpha_grid(alpha_grid)
    cuts = []
    for a in grid:
        lo, hi = _availability_endpoints(alpha_cut(failure, a), alpha_cut(repair, a))
        cuts.append(AlphaCutInterval(a, lo, hi))
    return FuzzyIndex("availability", tuple(cuts))


def fuzzy_unavailability(
    failure: TriangularFuzzyNumber,
    repair: TriangularFuzzyNumber,
    alpha_grid=DEFAULT_ALPHA_GRID,
) -> FuzzyIndex:
    """Unavailability band: the complement image [1 - A_hi, 1 - A_lo] per alpha."""
    avail = fuzzy_availability(failure, repair, alpha_grid)
    cuts = tuple(
        AlphaCutInterval(cut.alpha, 1.0 - cut.hi, 1.0 - cut.lo) for cut in avail.cuts
    )
    return FuzzyIndex("unavailability", cuts)


def defuzzify(value: TriangularFuzzyNumber | FuzzyIndex) -> float:
    """Map a fuzzy quantity to a single crisp value.

    For a symmetric triangular number the centroid is its center, returned
    exactly.  For a FuzzyIndex the result is the mean of the interval
    midpoints across the alpha grid, a deterministic discrete centroid that
    reduces to the crisp value when every interval is degenerate.
    """
    if isinstance(value, TriangularFuzzyNumber):
        return value.center
    if isinstance(value, FuzzyIndex):
        mids = [cut.midpoint for cut in value.cuts]
        return math.fsum(mids) / len(mids)
    raise TypeError(f"cannot defuzzify {type(value).__name__}")
