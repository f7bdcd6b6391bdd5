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

A band is a read-only float64 array of shape (levels, 3) whose rows are
``(alpha, lo, hi)``, one per membership level, as in the band CSVs.  Bands
leave this module but never enter it: ``alpha_cut``, ``fuzzy_availability``
and ``fuzzy_unavailability`` make them, and one rule checks each band made,
so every band a caller holds meets it.  All functions here are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import finite, integer, nonnegative

# Slack for the nesting check; endpoint formulas are monotone in alpha but
# may wobble by a few ulps.
_NESTING_TOL = 1e-12


@dataclass(frozen=True)
class TriangularFuzzyNumber:
    """Symmetric triangular membership function over a nonnegative rate.

    Membership is 1 at ``center``, 0 outside
    ``[center - halfwidth, center + halfwidth]`` and linear in between.
    The support may not extend below zero (rates cannot go negative), and
    its upper end must be finite.
    """

    center: float
    halfwidth: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", finite("center", self.center))
        object.__setattr__(self, "halfwidth", nonnegative("halfwidth", self.halfwidth))
        finite("center + halfwidth", self.center + self.halfwidth)
        if self.center - self.halfwidth < 0.0:
            raise ValueError(
                "support extends below zero: "
                f"center={self.center}, halfwidth={self.halfwidth}"
            )


def _check(ok: np.ndarray, message, first: int = 0) -> None:
    """A ValueError with ``message(i)``, ``i`` the first failing level; ``ok[0]`` is level ``first``."""
    if not ok.all():
        i = first + int(ok.argmin())
        raise ValueError(f"level {i}: {message(i)}")


def _band(band: np.ndarray, unit_interval: str = "") -> np.ndarray:
    """``band``, a (levels, 3) float64 array of (alpha, lo, hi) rows, made
    read-only once it meets the band rule: at least one level; each alpha in
    [0, 1], strictly increasing; each ``lo <= hi``, both finite; each cut
    nested in the one before it within ``_NESTING_TOL``; and, where
    ``unit_interval`` names the quantity, every endpoint in [0, 1].  A
    ValueError names the first level that breaks a rule."""
    if not len(band):
        raise ValueError("a band needs at least one alpha level")
    alpha, lo, hi = band.T
    _check((alpha >= 0.0) & (alpha <= 1.0), lambda i: f"alpha must lie in [0, 1], got {alpha[i]}")
    _check(alpha[1:] > alpha[:-1],
           lambda i: f"alpha levels must be strictly increasing, got {alpha[i]} after {alpha[i - 1]}", 1)
    for name, column in (("lo", lo), ("hi", hi)):
        _check(np.isfinite(column), lambda i: f"{name} must be finite, got {column[i]}")
    _check(lo <= hi, lambda i: f"interval endpoints out of order: [{lo[i]}, {hi[i]}]")
    _check((lo[1:] >= lo[:-1] - _NESTING_TOL) & (hi[1:] <= hi[:-1] + _NESTING_TOL),
           lambda i: f"alpha-cuts are not nested at alpha={alpha[i]}", 1)
    if unit_interval:
        _check((lo >= 0.0) & (hi <= 1.0), lambda i: (
            f"{unit_interval} values must lie in [0, 1], got [{lo[i]}, {hi[i]}] at alpha={alpha[i]}"))
    band.flags.writeable = False
    return band


def alpha_level_count(levels: int) -> int:
    """``levels`` if it can count the membership levels of a grid: an integer >= 1."""
    return integer("alpha_levels", levels, 1)


def uniform_alpha_grid(levels: int) -> tuple[float, ...]:
    """``levels`` evenly spaced membership levels from 0 to 1; a single level
    is the core, 1.0, alone."""
    levels = alpha_level_count(levels)
    if levels == 1:
        return (1.0,)
    return tuple(i / (levels - 1) for i in range(levels))


DEFAULT_ALPHA_GRID = uniform_alpha_grid(11)


def alpha_cut(f: TriangularFuzzyNumber, alpha_grid=DEFAULT_ALPHA_GRID) -> np.ndarray:
    """Band of a symmetric triangular number over ``alpha_grid``: the cut at
    each alpha is ``center -/+ (1 - alpha) * halfwidth``, which collapses to
    the core at alpha = 1."""
    shape = np.shape(alpha_grid)
    if len(shape) != 1:
        raise TypeError(f"an alpha grid is a 1-D sequence of levels, got shape {shape}")
    try:
        alpha = np.asarray(alpha_grid, dtype=np.float64)
    except OverflowError:
        # an int too large for a float, named as the band rule names it
        for i, a in enumerate(alpha_grid):
            finite(f"level {i}: alpha", a)
        raise
    # a bad alpha may overflow here; the band rule then names it
    with np.errstate(all="ignore"):
        spread = (1.0 - alpha) * f.halfwidth
    return _band(np.column_stack((alpha, f.center - spread, f.center + spread)))


def fuzzy_availability(failure: TriangularFuzzyNumber, repair: TriangularFuzzyNumber,
                       alpha_grid=DEFAULT_ALPHA_GRID) -> np.ndarray:
    """Availability band of a two-state repairable component: at each alpha,
    the hull of A = mu / (lambda + mu) at the corners (mu_lo, lambda_hi) and
    (mu_hi, lambda_lo) of the rate cuts (see module docstring).  The first
    corner is the lower end in exact arithmetic, but where lambda/mu is below
    about 1e-15 both round to within an ulp of 1, in either order."""
    lam, mu = alpha_cut(failure, alpha_grid), alpha_cut(repair, alpha_grid)
    (alpha, lam_lo, lam_hi), (_, mu_lo, mu_hi) = lam.T, mu.T
    _check((lam_hi > 0.0) | (mu_hi > 0.0), lambda i: (
        f"availability undefined: failure and repair rates are both identically zero at alpha={alpha[i]}"))
    # 0/0 corners only occur when one rate is identically zero; the limits
    # are then 1 (failure rate zero) and 0 (repair rate zero).
    with np.errstate(all="ignore"):
        lo = np.where(mu_lo + lam_hi > 0.0, mu_lo / (mu_lo + lam_hi), 1.0)
        hi = np.where(mu_hi + lam_lo > 0.0, mu_hi / (mu_hi + lam_lo), 0.0)
    return _band(np.column_stack((alpha, np.minimum(lo, hi), np.maximum(lo, hi))), "availability")


def fuzzy_unavailability(failure: TriangularFuzzyNumber, repair: TriangularFuzzyNumber,
                         alpha_grid=DEFAULT_ALPHA_GRID) -> np.ndarray:
    """Unavailability band: the complement image [1 - A_hi, 1 - A_lo] per alpha."""
    alpha, lo, hi = fuzzy_availability(failure, repair, alpha_grid).T
    return _band(np.column_stack((alpha, 1.0 - hi, 1.0 - lo)), "unavailability")


def defuzzify(value: TriangularFuzzyNumber) -> float:
    """The crisp value of a symmetric triangular number: its centroid, the
    center, returned exactly.  Any other value raises TypeError."""
    if not isinstance(value, TriangularFuzzyNumber):
        raise TypeError(f"defuzzify takes a TriangularFuzzyNumber, got {type(value).__name__}")
    return value.center
