"""Least-squares estimation of the interaction rates from exposure data.

The two-stage interaction chain predicts, per interval i, an expected
failure count of T_i / (1/lambda1 + 1/lambda2): operating time divided by the
mean time through both stages.  Only that harmonic combination is
identified by the data, so the estimator is parameterized by the fixed ratio
G = lambda2 / lambda1, and for each G the squared-residual sum

    SSE = sum_i [X_i - T_i / (1/lambda1 + 1/lambda2)]^2

has the closed-form minimizer

    lambda1 = (1 + 1/G) * sum_i(X_i T_i) / sum_i(T_i^2),   lambda2 = G * lambda1.

Scanning G exposes the non-uniqueness honestly: every G reproduces the same
effective rate and the same residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .simulate import ExposureTable


@dataclass(frozen=True)
class FitResult:
    """Estimated rate pair at a fixed ratio g, with its residual sum."""

    lambda1: float
    lambda2: float
    g: float
    sse: float

    def __post_init__(self) -> None:
        # lambda1 == 0 happens on an all-zero failure table; negative never.
        if not math.isfinite(self.lambda1) or self.lambda1 < 0.0:
            raise ValueError(f"lambda1 must be finite and >= 0, got {self.lambda1}")
        if not math.isfinite(self.g) or self.g <= 0.0:
            raise ValueError(f"g must be finite and > 0, got {self.g}")
        if abs(self.lambda2 - self.g * self.lambda1) > 1e-12 * max(self.lambda2, 1e-300):
            raise ValueError("lambda2 must equal g * lambda1")
        if not math.isfinite(self.sse) or self.sse < 0.0:
            raise ValueError(f"sse must be finite and >= 0, got {self.sse}")


def effective_rate(lambda1: float, lambda2: float) -> float:
    """Rate of the combined two-stage passage, 1 / (1/lambda1 + 1/lambda2)."""
    return 1.0 / (1.0 / lambda1 + 1.0 / lambda2)


def sse(table: ExposureTable, lambda1: float, lambda2: float) -> float:
    """Squared-residual sum of the exposure table against the model mean."""
    for name, v in (("lambda1", lambda1), ("lambda2", lambda2)):
        if not math.isfinite(v) or v <= 0.0:
            raise ValueError(f"{name} must be finite and > 0, got {v}")
    rate = effective_rate(lambda1, lambda2)
    return math.fsum((x - t * rate) ** 2 for x, t in zip(table.counts, table.times))


def fit_lambda1(table: ExposureTable, g: float) -> FitResult:
    """Closed-form least-squares estimate of lambda1 at a fixed ratio g."""
    if not math.isfinite(g) or g <= 0.0:
        raise ValueError(f"g must be finite and > 0, got {g}")
    sum_xt = math.fsum(x * t for x, t in zip(table.counts, table.times))
    sum_tt = math.fsum(t * t for t in table.times)
    if sum_tt == 0.0:
        raise ValueError("cannot fit: every interval has zero exposure time")
    lambda1 = (1.0 + 1.0 / g) * sum_xt / sum_tt
    lambda2 = g * lambda1
    if lambda1 > 0.0:
        residual = sse(table, lambda1, lambda2)
    else:
        residual = math.fsum(float(x) ** 2 for x in table.counts)
    return FitResult(lambda1=lambda1, lambda2=lambda2, g=g, sse=residual)


def fit_scan(table: ExposureTable, g_grid) -> list[FitResult]:
    """Fits across a grid of ratios, returned in ascending ratio order."""
    grid = sorted(float(g) for g in g_grid)
    if not grid:
        raise ValueError("ratio grid must not be empty")
    return [fit_lambda1(table, g) for g in grid]
