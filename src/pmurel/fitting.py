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

from ._checks import nonnegative, positive
from .simulate import ExposureTable


@dataclass(frozen=True)
class FitResult:
    """Estimated rate pair at a fixed ratio g, with its residual sum."""

    lambda1: float
    lambda2: float
    g: float
    sse: float

    def __post_init__(self) -> None:
        # Both rates are 0 on an all-zero failure table; negative never.
        nonnegative("lambda1", self.lambda1)
        nonnegative("lambda2", self.lambda2)
        positive("g", self.g)
        if abs(self.lambda2 - self.g * self.lambda1) > 1e-12 * max(self.lambda2, 1e-300):
            raise ValueError("lambda2 must equal g * lambda1")
        nonnegative("sse", self.sse)


def effective_rate(lambda1: float, lambda2: float) -> float:
    """Rate of the combined two-stage passage, 1 / (1/lambda1 + 1/lambda2):
    0 if either rate is 0, which is its limit there."""
    if lambda1 == 0.0 or lambda2 == 0.0:
        return 0.0
    return 1.0 / (1.0 / lambda1 + 1.0 / lambda2)


def sse(table: ExposureTable, lambda1: float, lambda2: float) -> float:
    """Squared-residual sum of the exposure table against the model mean; a
    rate of 0 gives the mean 0, the limit ``effective_rate`` takes there."""
    nonnegative("lambda1", lambda1)
    nonnegative("lambda2", lambda2)
    rate = effective_rate(lambda1, lambda2)
    return math.fsum((x - t * rate) ** 2 for x, t in zip(table.counts, table.times))


def fit_lambda1(table: ExposureTable, g: float) -> FitResult:
    """Closed-form least-squares estimate of lambda1 at a fixed ratio g."""
    positive("g", g)
    sum_xt = math.fsum(x * t for x, t in zip(table.counts, table.times))
    sum_tt = math.fsum(t * t for t in table.times)
    if sum_tt == 0.0:
        raise ValueError("cannot fit: every interval has zero exposure time")
    lambda1 = (1.0 + 1.0 / g) * sum_xt / sum_tt
    lambda2 = g * lambda1
    return FitResult(lambda1=lambda1, lambda2=lambda2, g=g, sse=sse(table, lambda1, lambda2))


def ratio_grid(g_grid) -> tuple[float, ...]:
    """``g_grid`` in ascending order: at least one ratio G, each finite and > 0."""
    grid = tuple(sorted(positive("ratio G", g) for g in g_grid))
    if not grid:
        raise ValueError("ratio grid must not be empty")
    return grid


def fit_scan(table: ExposureTable, g_grid) -> list[FitResult]:
    """Fits across a grid of ratios, returned in ascending ratio order."""
    return [fit_lambda1(table, g) for g in ratio_grid(g_grid)]
