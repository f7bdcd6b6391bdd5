import math

import numpy as np
import pytest

from pmurel import simulate


@pytest.fixture
def golden_section():
    """Brute-force 1-D minimizer, independent of any closed-form estimate.

    Golden-section search localizes the minimum; one parabolic vertex step
    through three spaced points then pins it past the rounding plateau that
    limits pure interval shrinking.
    """

    def _golden(f, lo, hi, tol=1e-12):
        phi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c, d = b - phi * (b - a), a + phi * (b - a)
        fc, fd = f(c), f(d)
        while (b - a) > tol * max(1.0, abs(a) + abs(b)):
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - phi * (b - a)
                fc = f(c)
            else:
                a, c, fc = c, d, fd
                d = a + phi * (b - a)
                fd = f(d)
        x = 0.5 * (a + b)
        h = 1e-3 * max(abs(x), 1e-12)
        x1, x2, x3 = x - h, x, x + h
        f1, f2, f3 = f(x1), f(x2), f(x3)
        denom = (x2 - x1) * (f2 - f3) - (x2 - x3) * (f2 - f1)
        if denom != 0.0:
            x = x2 - 0.5 * (
                (x2 - x1) ** 2 * (f2 - f3) - (x2 - x3) ** 2 * (f2 - f1)
            ) / denom
        return x

    return _golden


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def fresh_tiles():
    """Start and end with no walked tile held and no block of seed words
    kept by the Monte Carlo engine; call the fixture's value to drop them
    mid-test."""

    def forget():
        simulate._held = (None, 0, None, [0], [])
        simulate._substream_block.cache_clear()

    forget()
    yield forget
    forget()
