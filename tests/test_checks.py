"""One sweep of the value rules over every public value type and numeric field.

Each row names a field as its error names it, a value the field accepts, the
values it rejects, and how to build the field's owner with one value put in.
Every rejection must name the field, and the accepted value must build.
"""

import math
import re

import numpy as np
import pytest

from pmurel import (
    ExposureTable,
    FitResult,
    HardwareParams,
    InteractionParams,
    SimulationConfig,
    SoftwareParams,
    TriangularFuzzyNumber,
    alpha_cut,
    build_unified_model,
    fit_lambda1,
    interaction_reliability_closed_form,
    nhpp_mean_value,
    run_replication,
    software_reliability,
    sse,
    weibull_reliability,
)
from pmurel._checks import finite, integer, nonnegative, positive
from pmurel.config import FitSection, FuzzySection, TimeGrid
from pmurel.fuzzy import _band, uniform_alpha_grid

NAN, INF = math.nan, math.inf
FINITE = (NAN, INF, -INF)
NONNEGATIVE = FINITE + (-1.0,)
POSITIVE = NONNEGATIVE + (0.0,)

TABLE = ExposureTable((1.0, 2.0), (1.0, 2.0))
HW = HardwareParams(rate=0.5, shape=1.0)
SW = SoftwareParams(total_faults=1.0, detection_rate=0.1)
INTER = InteractionParams(lambda1=1e-3, lambda2=2e-3)
SIM = SimulationConfig(failure_rate=0.5, repair_rate=5.0, mission_time=1.0, n_replications=4)


def sim(**values):
    return SimulationConfig(**{"failure_rate": 0.5, "repair_rate": 5.0, "mission_time": 1.0, **values})


def fuzzy(**values):
    return FuzzySection(
        **{"failure_rate_center": 0.5, "repair_rate_center": 5.0,
           "repair_rate_unit": "events_per_year", **values}
    )


def fit_result(**values):
    return FitResult(**{"lambda1": 1.0, "lambda2": 2.0, "g": 2.0, "sse": 0.0, **values})


# (field as its error names it, an accepted value, rejected values, build)
SCALAR_FIELDS = [
    ("failure_rate", 0.5, POSITIVE, lambda v: sim(failure_rate=v)),
    ("repair_rate", 5.0, POSITIVE, lambda v: sim(repair_rate=v)),
    ("mission_time", 1.0, POSITIVE, lambda v: sim(mission_time=v)),
    ("counts[1]", 0.5, NONNEGATIVE, lambda v: ExposureTable((1.0, v), (1.0, 1.0))),
    ("times[0]", 0.0, NONNEGATIVE, lambda v: ExposureTable((1.0, 1.0), (v, 1.0))),
    ("rate", 0.0, NONNEGATIVE, lambda v: HardwareParams(rate=v, shape=1.0)),
    ("shape", 2.0, POSITIVE, lambda v: HardwareParams(rate=0.5, shape=v)),
    ("total_faults", 0.0, NONNEGATIVE, lambda v: SoftwareParams(total_faults=v, detection_rate=0.1)),
    ("detection_rate", 0.0, NONNEGATIVE, lambda v: SoftwareParams(total_faults=1.0, detection_rate=v)),
    ("startup_time", 0.0, NONNEGATIVE,
     lambda v: SoftwareParams(total_faults=1.0, detection_rate=0.1, startup_time=v)),
    ("lambda1", 1e-3, NONNEGATIVE, lambda v: InteractionParams(lambda1=v, lambda2=2e-3)),
    ("lambda2", 2e-3, NONNEGATIVE, lambda v: InteractionParams(lambda1=1e-3, lambda2=v)),
    ("time", 0.0, NONNEGATIVE, lambda v: weibull_reliability(HW, v)),
    ("time", 0.0, NONNEGATIVE, lambda v: nhpp_mean_value(SW, v)),
    ("time", 0.0, NONNEGATIVE, lambda v: software_reliability(SW, v)),
    ("time", 0.0, NONNEGATIVE, lambda v: interaction_reliability_closed_form(INTER, v)),
    # 2 * v, not 2.0 * v: the product of a float and an int too large for one overflows
    ("lambda1", 0.0, NONNEGATIVE, lambda v: fit_result(lambda1=v, lambda2=2 * v)),
    ("lambda2", 2.0, NONNEGATIVE, lambda v: fit_result(lambda2=v)),
    ("g", 2.0, POSITIVE, lambda v: fit_result(g=v)),
    ("sse", 0.0, NONNEGATIVE, lambda v: fit_result(sse=v)),
    ("lambda1", 0.0, NONNEGATIVE, lambda v: sse(TABLE, v, 1.0)),
    ("lambda2", 0.0, NONNEGATIVE, lambda v: sse(TABLE, 1.0, v)),
    ("g", 2.0, POSITIVE, lambda v: fit_lambda1(TABLE, v)),
    ("time grid start", 0.0, NONNEGATIVE, lambda v: TimeGrid(v, 10.0, 3)),
    ("time grid stop", 1.0, POSITIVE, lambda v: TimeGrid(0.0, v, 3)),
    ("failure_rate_center", 0.5, POSITIVE, lambda v: fuzzy(failure_rate_center=v)),
    ("repair_rate_center", 5.0, POSITIVE, lambda v: fuzzy(repair_rate_center=v)),
    ("halfwidth_fraction", 0.0, NONNEGATIVE, lambda v: fuzzy(halfwidth_fraction=v)),
    ("ratio G", 2.0, POSITIVE, lambda v: FitSection((1.0, v))),
    ("rate for UP->HD3", 0.0, NONNEGATIVE, lambda v: build_unified_model({"UP->HD3": v})),
    ("center", 0.0, NONNEGATIVE, lambda v: TriangularFuzzyNumber(v, 0.0)),
    ("halfwidth", 0.0, NONNEGATIVE, lambda v: TriangularFuzzyNumber(1.0, v)),
    # one level of an alpha grid, as the band rule meets it
    ("alpha", 0.0, NONNEGATIVE, lambda v: alpha_cut(TriangularFuzzyNumber(1.0, 0.1), (v,))),
]

# One level of a band the fuzzy module made, as the band rule meets it.  No
# call takes a band in, so an endpoint is always a float64 of the module's own
# array, never an int too large for a float.
BAND_FIELDS = [
    ("lo", -1.0, FINITE, lambda v: _band(np.array([[0.5, v, 1.0]]))),
    ("hi", 1.0, FINITE, lambda v: _band(np.array([[0.5, 0.0, v]]))),
]

# (field as its error names it, its minimum, build); non-integers, even
# integral floats, raise TypeError as SeedSequence does.
INTEGER_FIELDS = [
    ("n_replications", 1, lambda v: sim(n_replications=v)),
    ("n_intervals", 1, lambda v: sim(n_intervals=v)),
    ("master_seed", 0, lambda v: sim(master_seed=v)),
    ("replication_index", 0, lambda v: run_replication(SIM, v)),
    ("time grid count", 2, lambda v: TimeGrid(0.0, 1.0, v)),
    ("alpha_levels", 1, lambda v: fuzzy(alpha_levels=v)),
    ("alpha_levels", 1, uniform_alpha_grid),
]
NON_INTEGERS = (2.5, 3.0, np.float64(3.0), NAN, INF)


def _integer_id(name, build) -> str:
    """A row's field name, with the function it calls where that is not a
    lambda, so two rows of one field keep distinct ids."""
    return name if build.__name__ == "<lambda>" else f"{name}-{build.__name__}"


def _cases(fields):
    return [pytest.param(name, v, build, id=f"{name}={v}") for name, _, bad, build in fields for v in bad]


@pytest.mark.parametrize("name,value,build", _cases(SCALAR_FIELDS + BAND_FIELDS))
def test_rejected_value_names_its_field(name, value, build):
    # the name as a whole word: "g" must not match the "g" of "got"
    with pytest.raises(ValueError, match=rf"(?<!\w){re.escape(name)}(?!\w)"):
        build(value)


# A JSON integer of 401 digits: math.isfinite raises OverflowError on it, and
# every field rejects it with a ValueError naming the field instead, and saying
# what it got without printing its 401 digits.
HUGE = 10**400


@pytest.mark.parametrize("sign", [1, -1], ids=["huge", "-huge"])
@pytest.mark.parametrize(
    "name,build", [pytest.param(name, build, id=name) for name, _, _, build in SCALAR_FIELDS]
)
def test_int_too_large_for_a_float_names_its_field(name, build, sign):
    with pytest.raises(ValueError, match=rf"(?<!\w){re.escape(name)}(?!\w)") as raised:
        build(sign * HUGE)
    assert str(raised.value).endswith("got an integer too large for a float")


@pytest.mark.parametrize(
    "build,value",
    [pytest.param(build, v, id=name) for name, v, _, build in SCALAR_FIELDS + BAND_FIELDS]
    + [pytest.param(build, minimum, id=_integer_id(name, build)) for name, minimum, build in INTEGER_FIELDS],
)
def test_accepted_value_builds(build, value):
    build(value)


@pytest.mark.parametrize("name,minimum,build", INTEGER_FIELDS, ids=[_integer_id(f[0], f[2]) for f in INTEGER_FIELDS])
def test_integer_field_below_minimum_names_it(name, minimum, build):
    for value in {minimum - 1, -1}:
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= {minimum}, got {value}$"):
            build(value)


@pytest.mark.parametrize(
    "name,value,build",
    [pytest.param(name, v, build, id=f"{_integer_id(name, build)}={v!r}")
     for name, _, build in INTEGER_FIELDS for v in NON_INTEGERS],
)
def test_non_integer_raises_type_error_naming_the_field(name, value, build):
    with pytest.raises(TypeError, match=f"^{name} must be an integer, got "):
        build(value)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: TriangularFuzzyNumber(1e308, 0.9e308), id="triangle"),
        pytest.param(lambda: fuzzy(failure_rate_center=1e308, halfwidth_fraction=0.9), id="failure_rate_center"),
        pytest.param(lambda: fuzzy(repair_rate_center=1e308, halfwidth_fraction=0.9), id="repair_rate_center"),
    ],
)
def test_triangle_whose_support_overflows_is_rejected(build):
    with pytest.raises(ValueError, match=r"^center \+ halfwidth must be finite, got inf$"):
        build()


def test_empty_ratio_grid_is_rejected():
    with pytest.raises(ValueError, match="ratio grid must not be empty"):
        FitSection(())


@pytest.mark.parametrize(
    "rule,value,message",
    [
        (finite, NAN, "v must be finite, got nan"),
        (positive, 0.0, "v must be finite and > 0, got 0.0"),
        (positive, INF, "v must be finite and > 0, got inf"),
        (nonnegative, -1.0, "v must be finite and >= 0, got -1.0"),
        (finite, -HUGE, "v must be finite, got an integer too large for a float"),
        (positive, HUGE, "v must be finite and > 0, got an integer too large for a float"),
        (nonnegative, HUGE, "v must be finite and >= 0, got an integer too large for a float"),
    ],
)
def test_rule_message_format(rule, value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        rule("v", value)


def test_rules_return_the_value():
    assert finite("v", -2) == -2.0 and type(finite("v", -2)) is float
    assert positive("v", np.float64(0.5)) == 0.5
    assert nonnegative("v", 0) == 0.0
    assert type(fuzzy(halfwidth_fraction=0).halfwidth_fraction) is float
    assert integer("v", np.int64(3), 0) == 3 and type(integer("v", np.int64(3), 0)) is int
