"""Closed-form component reliability curves and their composite product.

Three factors multiply into the overall PMU reliability:

* hardware: Weibull survival exp(-rate * t**shape),
* software: conditional survival of a fault-detection process with
  exponentially saturating mean value function m(t) = a * (1 - exp(-b t)),
  given prior test/startup exposure T, i.e. exp(-[m(t + T) - m(T)]),
* hardware-software interaction: survival of the two-stage chain
  UP -> degraded -> failed, the hypoexponential form
  (l2 * exp(-l1 t) - l1 * exp(-l2 t)) / (l2 - l1).

Rates and times carry one user-declared unit (years by default); nothing
here converts units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def _check_time(t: float) -> float:
    t = float(t)
    if math.isnan(t):
        raise ValueError("time must not be NaN")
    if t < 0.0:
        raise ValueError(f"time must be >= 0, got {t}")
    return t


@dataclass(frozen=True)
class HardwareParams:
    """Weibull hardware model: failure rate (per unit time) and shape."""

    rate: float
    shape: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.rate) or self.rate < 0.0:
            raise ValueError(f"rate must be finite and >= 0, got {self.rate}")
        if not math.isfinite(self.shape) or self.shape <= 0.0:
            raise ValueError(f"shape must be finite and > 0, got {self.shape}")


@dataclass(frozen=True)
class SoftwareParams:
    """Fault-detection software model.

    total_faults: expected number of faults eventually detected (a),
    detection_rate: per-fault detection rate (b),
    startup_time: test/startup exposure already accumulated before t = 0.
    """

    total_faults: float
    detection_rate: float
    startup_time: float = 0.0

    def __post_init__(self) -> None:
        for name in ("total_faults", "detection_rate", "startup_time"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class InteractionParams:
    """Two-stage interaction chain rates.

    lambda1: rate of undetected hardware degradation (UP -> HD3),
    lambda2: rate at which that degradation induces system failure
    (HD3 -> interaction failure).
    """

    lambda1: float
    lambda2: float

    def __post_init__(self) -> None:
        for name in ("lambda1", "lambda2"):
            v = getattr(self, name)
            if not math.isfinite(v) or v <= 0.0:
                raise ValueError(f"{name} must be finite and > 0, got {v}")


def weibull_reliability(p: HardwareParams, t: float) -> float:
    """Hardware survival probability exp(-rate * t**shape)."""
    t = _check_time(t)
    return math.exp(-p.rate * t**p.shape)


def nhpp_mean_value(p: SoftwareParams, t: float) -> float:
    """Expected faults detected by time t: m(t) = a * (1 - exp(-b t))."""
    t = _check_time(t)
    return p.total_faults * -math.expm1(-p.detection_rate * t)


def software_reliability(p: SoftwareParams, t: float) -> float:
    """Software survival over [0, t] given startup exposure T.

    Probability that no fault surfaces during t further units of operation,
    exp(-[m(t + T) - m(T)]).  Equals 1 at t = 0 and increases with T (more
    prior testing leaves fewer faults to find).
    """
    t = _check_time(t)
    expected = nhpp_mean_value(p, t + p.startup_time) - nhpp_mean_value(p, p.startup_time)
    return math.exp(-expected)


def interaction_reliability_closed_form(p: InteractionParams, t: float) -> float:
    """Survival of the two-stage chain UP -> degraded -> failed.

    The hypoexponential form (l2 e^{-l1 t} - l1 e^{-l2 t}) / (l2 - l1) is
    symmetric in the two rates.  With l1 the smaller rate it is evaluated as
    e^{-l1 t} (1 - l1 expm1(-(l2 - l1) t) / (l2 - l1)), which adds only
    nonnegative terms and so loses no digits at any rate gap; ordering the
    rates keeps expm1 in [-1, 0], so nothing overflows.  Equal rates give
    the limit (1 + l t) e^{-l t}.
    """
    t = _check_time(t)
    l1, l2 = sorted((p.lambda1, p.lambda2))
    if l1 == l2:
        return (1.0 + l1 * t) * math.exp(-l1 * t)
    gap = l2 - l1
    return math.exp(-l1 * t) * (1.0 - l1 * math.expm1(-gap * t) / gap)


def pmu_reliability_curve(
    hw: HardwareParams,
    sw: SoftwareParams,
    inter: InteractionParams,
    times,
) -> list[tuple[float, float, float, float, float]]:
    """The rows (t, R_hw, R_sw, R_int, R_pmu) of ``curve.csv``, one per time
    of ``times`` in order: the three closed-form curves and their product
    R_pmu = R_hw * R_sw * R_int."""
    rows = []
    for t in times:
        r_hw = weibull_reliability(hw, t)
        r_sw = software_reliability(sw, t)
        r_int = interaction_reliability_closed_form(inter, t)
        rows.append((t, r_hw, r_sw, r_int, r_hw * r_sw * r_int))
    return rows
