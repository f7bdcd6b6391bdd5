"""The value rules of every engine and config type, each in one place.

Every number pmurel takes comes from a user (a config document, a flag or a
library call) and meets one of these rules.  A rule returns the value it
accepts, as a float (an int for ``integer``), and otherwise raises naming the
value and what it got, e.g. ``shape must be finite and > 0, got 0.0``.
"""

from __future__ import annotations

import math
import operator


def _rule(name: str, v, rule: str, holds) -> float:
    """``float(v)`` if ``v`` is finite and ``holds(v)``, else a ValueError
    saying ``name`` must be ``rule``.  An int too large for a float, on which
    ``math.isfinite`` raises OverflowError, is not finite."""
    try:
        ok = math.isfinite(v) and holds(v)
    except OverflowError:
        raise ValueError(f"{name} must be {rule}, got an integer too large for a float") from None
    if not ok:
        raise ValueError(f"{name} must be {rule}, got {v}")
    return float(v)


def finite(name: str, v) -> float:
    return _rule(name, v, "finite", lambda v: True)


def positive(name: str, v) -> float:
    return _rule(name, v, "finite and > 0", lambda v: v > 0.0)


def nonnegative(name: str, v) -> float:
    return _rule(name, v, "finite and >= 0", lambda v: v >= 0.0)


def integer(name: str, v, minimum: int) -> int:
    """``v`` as an int, checked as SeedSequence checks its entropy: a
    non-integer, even an integral float such as 3.0, raises TypeError, and an
    integer below ``minimum`` raises ValueError."""
    try:
        n = operator.index(v)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {v!r}") from None
    if n < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {n}")
    return n
