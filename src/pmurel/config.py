"""Run configuration: one JSON document, validated strictly on load.

The document is versioned through its ``schema`` field and groups one
section per pipeline stage (fuzzy, curves, markov, simulation, fit).
Unknown keys anywhere are rejected by name, so typos never silently fall
back to defaults.  Command-line flags override file values after loading.

Sections hold the engine's own types: the keys of ``curves.hardware`` and
``curves.software`` are the fields of ``HardwareParams`` and
``SoftwareParams``, those of ``simulation`` the fields of ``SimulationConfig``
but its two rates, and those types check their values; ``markov``
transitions are checked by building their generator, which the section
keeps.  Each value has one home.  The interaction rates are the ``markov``
transitions ``UP->HD3`` and ``HD3->F_INT``: the curve's ``InteractionParams``
are read from them (``MarkovSection.interaction``).  The Monte Carlo rates
are the ``fuzzy`` section's crisp rates (``FuzzySection.crisp_rates``):
``RunConfig.simulation`` is built from the ``simulation`` section and those
rates, and ``RunConfig`` rejects a ``SimulationConfig`` at any other rates.
The rest of the document is read by one generic loader, ``_build``, that
follows the field types of ``RunConfig`` down to its sections.  Each default
is declared once: a section's default on ``RunConfig`` and a key's default
on its section type, and a document may omit either.  This module checks
only the JSON shape (objects, numbers, integers, required keys) and the
rules of the types it defines itself; a rule the engine holds, the section
calls (``fitting.ratio_grid``, ``fuzzy.alpha_level_count``).  The engine
types and the section types reject a value with a ValueError, which
``checked`` turns into a ConfigError naming where the value came from: a
section path or a flag.

The repair rate's unit is deliberately an explicit required field:
``repair_rate_unit`` is either ``"events_per_year"`` (the value is a rate,
the documented default interpretation) or ``"hours_per_repair"`` (the value
is a mean repair duration in hours, converted to 8760/value events per
year, so it needs ``time_unit`` ``"years"``).  Apart from that one
conversion, all rates and times share the single declared ``time_unit`` and
are never converted implicitly.

Documents of the older schemas ``pmu-reliability/1`` and ``/2`` still load.
They may hold second copies of a value beside its home (``_COPIES``): the
``/1`` ``curves.interaction`` and the ``/1`` and ``/2`` ``simulation``
rates.  Each copy is taken out and must equal its home exactly.
"""

from __future__ import annotations

import functools
import json
import typing
from dataclasses import MISSING, astuple, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

from ._checks import finite, integer, nonnegative, positive
from .curves import HardwareParams, InteractionParams, SoftwareParams
from .fitting import ratio_grid
from .fuzzy import DEFAULT_ALPHA_GRID, TriangularFuzzyNumber, alpha_level_count, defuzzify
from .markov import GeneratorMatrix, build_unified_model
from .simulate import SimulationConfig

SCHEMA = "pmu-reliability/3"
SCHEMA_2 = "pmu-reliability/2"
SCHEMA_1 = "pmu-reliability/1"
HOURS_PER_YEAR = 8760.0

REPAIR_RATE_UNITS = ("events_per_year", "hours_per_repair")


class ConfigError(Exception):
    """A configuration document failed validation."""


# Resolved field annotations per class: get_type_hints evaluates the
# annotation strings on every call, and a class's hints never change.
_field_types = functools.cache(typing.get_type_hints)


def _object(value, context: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{context} must be a JSON object")
    return value


def _check_keys(mapping, allowed, context: str) -> None:
    for key in _object(mapping, context):
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in {context}")


def _number(value, key: str, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{key}' in section '{path}' must be a finite number, got {value!r}")
    return checked(f"section '{path}'", finite, key, value)


def _integer(value, key: str, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"'{key}' in section '{path}' must be an integer, got {value!r}")
    return value


def checked(context: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, with a ValueError it raises re-raised as a
    ConfigError naming ``context``, e.g. ``"section 'fit'"`` or ``"--seed"``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _build(cls, d, path: str, **given):
    """Build the dataclass ``cls`` from the JSON object ``d`` found at
    ``path`` (e.g. ``"curves.hardware"``; ``""`` for the whole document,
    named "configuration"), one key per ``__init__`` field but those whose
    values are ``given``.

    Unknown keys are rejected by name; omitted fields take their dataclass
    default or default factory, or are reported missing.  Each value is read
    by its field's annotated type: a nested dataclass is built by its own
    ``from_dict`` if it has one and the same way otherwise, a
    ``dict[str, float]`` is an object of numbers, ``int`` must be an integer
    and ``float`` a finite number; any other value is passed on as it is.
    ``cls`` checks the values itself, and the ``ValueError`` it raises is
    re-raised as a ConfigError naming ``path``.
    """
    context = f"section '{path}'" if path else "configuration"
    keys = [f for f in fields(cls) if f.init and f.name not in given]
    _check_keys(d, {f.name for f in keys}, context)
    hints = _field_types(cls)
    values = {}
    for f in keys:
        if f.name not in d:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"missing required key '{f.name}' in {context}")
            continue
        kind, value, inner = hints[f.name], d[f.name], f"{path}.{f.name}".lstrip(".")
        if hasattr(kind, "from_dict"):
            value = kind.from_dict(value)
        elif is_dataclass(kind):
            value = _build(kind, value, inner)
        elif typing.get_origin(kind) is dict:
            value = {k: _number(v, k, inner) for k, v in _object(value, f"section '{inner}'").items()}
        elif kind is int:
            value = _integer(value, f.name, path)
        elif kind is float:
            value = _number(value, f.name, path)
        values[f.name] = value
    return checked(context, cls, **values, **given)


@dataclass(frozen=True)
class TimeGrid:
    start: float
    stop: float
    count: int

    def __post_init__(self) -> None:
        nonnegative("time grid start", self.start)
        if finite("time grid stop", self.stop) <= self.start:
            raise ValueError("time grid stop must exceed start")
        integer("time grid count", self.count, 2)

    def values(self) -> list[float]:
        """``count`` evenly spaced points from ``start`` to exactly ``stop``."""
        step = (self.stop - self.start) / (self.count - 1)
        # start + (count - 1) * step can miss stop by an ulp, so stop is
        # appended as given.
        return [self.start + i * step for i in range(self.count - 1)] + [self.stop]


@dataclass(frozen=True)
class FuzzySection:
    """Fuzzy rate inputs: centers, relative half-width, alpha resolution."""

    failure_rate_center: float
    repair_rate_center: float
    repair_rate_unit: str
    halfwidth_fraction: float = 0.1
    alpha_levels: int = len(DEFAULT_ALPHA_GRID)

    def __post_init__(self) -> None:
        if self.repair_rate_unit not in REPAIR_RATE_UNITS:
            raise ValueError(
                f"repair_rate_unit must be one of {REPAIR_RATE_UNITS}, "
                f"got {self.repair_rate_unit!r}"
            )
        for name in ("failure_rate_center", "repair_rate_center"):
            positive(name, getattr(self, name))
        fraction = nonnegative("halfwidth_fraction", self.halfwidth_fraction)
        if not fraction < 1.0:
            raise ValueError(f"halfwidth_fraction must lie in [0, 1), got {fraction}")
        object.__setattr__(self, "halfwidth_fraction", fraction)
        alpha_level_count(self.alpha_levels)
        # a support that overflows is rejected here, on load, not on first use
        self.failure_number()
        self.repair_number()

    def failure_number(self) -> TriangularFuzzyNumber:
        c = self.failure_rate_center
        return TriangularFuzzyNumber(c, self.halfwidth_fraction * c)

    def repair_number(self) -> TriangularFuzzyNumber:
        c = self.repair_rate_center
        if self.repair_rate_unit == "hours_per_repair":
            c = positive("repair_rate_center in events per year", HOURS_PER_YEAR / c)
        return TriangularFuzzyNumber(c, self.halfwidth_fraction * c)

    def crisp_rates(self) -> tuple[float, float]:
        """The defuzzified failure and repair rates, at which every command
        simulates."""
        return defuzzify(self.failure_number()), defuzzify(self.repair_number())

    @classmethod
    def from_dict(cls, d) -> "FuzzySection":
        if "repair_rate_unit" not in _object(d, "section 'fuzzy'"):
            raise ConfigError(
                "missing required key 'repair_rate_unit' in section 'fuzzy'; "
                "set it to 'events_per_year' (default interpretation) or "
                "'hours_per_repair'"
            )
        return _build(cls, d, "fuzzy")


@dataclass(frozen=True)
class CurvesSection:
    """Hardware and software curve parameters and the curves' time grid; the
    interaction rates are the chain's (``MarkovSection.interaction``)."""

    hardware: HardwareParams
    software: SoftwareParams
    time_grid: TimeGrid


@dataclass(frozen=True)
class MarkovSection:
    """Named transition rates of the unified model and the solve grid;
    ``generator`` is built from the rates once, which checks them."""

    transitions: dict[str, float]
    time_grid: TimeGrid
    generator: GeneratorMatrix = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "generator", build_unified_model(self.transitions))

    def interaction(self) -> InteractionParams:
        """The two-stage curve's rates: the chain's ``UP->HD3`` and ``HD3->F_INT``."""
        return InteractionParams(self.generator.rate("UP", "HD3"), self.generator.rate("HD3", "F_INT"))


@dataclass(frozen=True)
class FitSection:
    """The rate ratios G to fit at, held in ascending order as ``fit.csv``
    lists them, and checked by ``ratio_grid``, as ``fit_scan`` checks them."""

    grid: tuple[float, ...] = (2.0,)

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid", ratio_grid(self.grid))

    @classmethod
    def from_dict(cls, d) -> "FitSection":
        """The section from its JSON object, or from the ``--g``/``--g-grid``
        flags given as the same keys."""
        _check_keys(d, {"g", "g_grid"}, "section 'fit'")
        if "g" in d and "g_grid" in d:
            raise ConfigError("section 'fit' must not set both 'g' and 'g_grid'")
        if "g_grid" not in d:
            return checked("section 'fit'", cls, (_number(d["g"], "g", "fit"),)) if "g" in d else cls()
        grid = d["g_grid"]
        if not isinstance(grid, list):
            raise ConfigError(f"'g_grid' must be a list of numbers, got {grid!r}")
        return checked("section 'fit'", cls, tuple(_number(g, "g_grid", "fit") for g in grid))


@dataclass(frozen=True)
class RunConfig:
    """The whole validated configuration document; each section defaults to
    the crisp study rates with a 10% uncertainty band.  ``simulation`` runs
    at the fuzzy section's crisp rates; omitted, it is a 10-year campaign."""

    fuzzy: FuzzySection = field(default_factory=lambda: FuzzySection(0.6566, 22.2898, "events_per_year"))
    curves: CurvesSection = field(default_factory=lambda: CurvesSection(
        HardwareParams(rate=0.6566, shape=1.0),
        SoftwareParams(total_faults=10.0, detection_rate=0.1, startup_time=5.0),
        TimeGrid(0.0, 10.0, 101),
    ))
    markov: MarkovSection = field(default_factory=lambda: MarkovSection(
        {"UP->HD3": 8.92e-4, "HD3->F_INT": 3.92e-3}, TimeGrid(0.0, 5000.0, 51)))
    simulation: SimulationConfig | None = None
    fit: FitSection = field(default_factory=FitSection)
    time_unit: str = "years"
    output_dir: str = "out"

    def __post_init__(self) -> None:
        for name in ("time_unit", "output_dir"):
            value = getattr(self, name)
            if not isinstance(value, str) or not value:
                raise ValueError(f"'{name}' must be a nonempty string, got {value!r}")
        if self.fuzzy.repair_rate_unit == "hours_per_repair" and self.time_unit != "years":
            raise ValueError(
                "repair_rate_unit 'hours_per_repair' gives events per year, so it needs "
                f"time_unit 'years', got time_unit {self.time_unit!r}"
            )
        rates = self.fuzzy.crisp_rates()
        if self.simulation is None:
            object.__setattr__(self, "simulation", SimulationConfig(*rates, mission_time=10.0))
        simulated = (self.simulation.failure_rate, self.simulation.repair_rate)
        if simulated != rates:
            raise ValueError(
                f"simulation rates {simulated} differ from the fuzzy section's crisp rates {rates}"
            )


# Second copies of a value that older schemas declared beside its home, as
# (the schemas holding the copy, its section and key, the home's name, the
# home's value in a built RunConfig).  A copy is taken out of its section on
# load, read as its home's type, and must equal the home's value exactly.
_COPIES = (
    ((SCHEMA_1,), "curves", "interaction", "markov.transitions UP->HD3/HD3->F_INT",
     lambda cfg: cfg.markov.interaction()),
    ((SCHEMA_1, SCHEMA_2), "simulation", "failure_rate", "the crisp rate of fuzzy.failure_rate_center",
     lambda cfg: cfg.simulation.failure_rate),
    ((SCHEMA_1, SCHEMA_2), "simulation", "repair_rate", "the crisp rate of fuzzy.repair_rate_center",
     lambda cfg: cfg.simulation.repair_rate),
)


def _values(value) -> str:
    return ", ".join(map(repr, astuple(value) if is_dataclass(value) else (value,)))


def config_from_dict(doc) -> RunConfig:
    """Validate a parsed JSON document into a RunConfig."""
    _check_keys(doc, {"schema", *(f.name for f in fields(RunConfig))}, "configuration")
    schema = doc.get("schema")
    if schema not in (SCHEMA, SCHEMA_2, SCHEMA_1):
        raise ConfigError(
            f"unsupported schema {schema!r}; expected {SCHEMA!r} (or the older {SCHEMA_2!r} or {SCHEMA_1!r})")
    body = {k: v for k, v in doc.items() if k != "schema"}
    copies = []
    for schemas, section, key, home, value in _COPIES:
        d = body.get(section)
        if schema in schemas and isinstance(d, dict) and key in d:
            body[section] = {k: v for k, v in d.items() if k != key}
            copies.append((section, key, d[key], home, value))
    # the simulation section is built last, at the crisp rates of the fuzzy one
    cfg = _build(RunConfig, {k: v for k, v in body.items() if k != "simulation"}, "")
    if "simulation" in body:
        lam, mu = cfg.fuzzy.crisp_rates()
        sim = _build(SimulationConfig, body["simulation"], "simulation", failure_rate=lam, repair_rate=mu)
        cfg = replace(cfg, simulation=sim)
    for section, key, copy, home, value in copies:
        expected, path = value(cfg), f"{section}.{key}"
        given = (_build(type(expected), copy, path) if is_dataclass(expected)
                 else _number(copy, key, section))
        if given != expected:
            raise ConfigError(f"{path} ({_values(given)}) disagrees with {home} ({_values(expected)})")
    return cfg


def load_config(path) -> RunConfig:
    """Read and validate a JSON configuration file."""
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return config_from_dict(doc)


def default_config() -> RunConfig:
    """Built-in defaults: the crisp study rates with a 10% uncertainty band."""
    return RunConfig()
