"""Run configuration: one JSON document, validated strictly on load.

The document is versioned through its ``schema`` field and groups one
section per pipeline stage (fuzzy, curves, markov, simulation, fit).
Unknown keys anywhere are rejected by name, so typos never silently fall
back to defaults.  Command-line flags override file values after loading.

Sections hold the engine's own types: the keys of ``curves.hardware``,
``curves.software``, ``curves.interaction`` and ``simulation`` are the fields
of ``HardwareParams``, ``SoftwareParams``, ``InteractionParams`` and
``SimulationConfig``, and those types check their values; ``markov``
transitions are checked by building their generator, which the section
keeps.  Defaults are built only for the sections a document omits.  This
module checks only the JSON shape (objects, numbers, integers, required
keys) and the sections it defines itself.  The engine types and the section
types reject a value with a ValueError, which ``checked`` turns into a
ConfigError naming where the value came from: a section path or a flag.

The repair rate's unit is deliberately an explicit required field:
``repair_rate_unit`` is either ``"events_per_year"`` (the value is a rate,
the documented default interpretation) or ``"hours_per_repair"`` (the value
is a mean repair duration in hours, converted to 8760/value events per
year).  Apart from that one conversion, all rates and times share the single
declared ``time_unit`` and are never converted implicitly.
"""

from __future__ import annotations

import functools
import json
import math
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path

from .curves import HardwareParams, InteractionParams, SoftwareParams
from .fuzzy import TriangularFuzzyNumber
from .markov import GeneratorMatrix, build_unified_model
from .simulate import SimulationConfig

SCHEMA = "pmu-reliability/1"
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
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"'{key}' in section '{path}' must be a finite number, got {value!r}")
    return float(value)


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


def _build(cls, d, path: str):
    """Build the dataclass ``cls`` from the JSON object ``d`` found at
    ``path`` (e.g. ``"curves.hardware"``), one key per ``__init__`` field.

    Unknown keys are rejected by name; omitted fields take their dataclass
    default or are reported missing.  Each value is read by its field's
    annotated type: a nested dataclass is built the same way, a
    ``dict[str, float]`` is an object of numbers, ``int`` must be an integer
    and ``float`` a finite number; any other value is passed on as it is.
    ``cls`` checks the values itself, and the ``ValueError`` it raises is
    re-raised as a ConfigError naming ``path``.
    """
    context = f"section '{path}'"
    keys = [f for f in fields(cls) if f.init]
    _check_keys(d, {f.name for f in keys}, context)
    hints = _field_types(cls)
    values = {}
    for f in keys:
        if f.name not in d:
            if f.default is MISSING:
                raise ConfigError(f"missing required key '{f.name}' in {context}")
            continue
        kind, value = hints[f.name], d[f.name]
        if is_dataclass(kind):
            value = _build(kind, value, f"{path}.{f.name}")
        elif typing.get_origin(kind) is dict:
            inner = f"{path}.{f.name}"
            value = {k: _number(v, k, inner) for k, v in _object(value, f"section '{inner}'").items()}
        elif kind is int:
            value = _integer(value, f.name, path)
        elif kind is float:
            value = _number(value, f.name, path)
        values[f.name] = value
    return checked(context, cls, **values)


@dataclass(frozen=True)
class TimeGrid:
    start: float
    stop: float
    count: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.start) or self.start < 0.0:
            raise ValueError(f"time grid start must be >= 0, got {self.start}")
        if not math.isfinite(self.stop) or self.stop <= self.start:
            raise ValueError("time grid stop must exceed start")
        if self.count < 2:
            raise ValueError(f"time grid count must be >= 2, got {self.count}")

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
    alpha_levels: int = 11

    def __post_init__(self) -> None:
        if self.repair_rate_unit not in REPAIR_RATE_UNITS:
            raise ValueError(
                f"repair_rate_unit must be one of {REPAIR_RATE_UNITS}, "
                f"got {self.repair_rate_unit!r}"
            )
        for name in ("failure_rate_center", "repair_rate_center"):
            v = getattr(self, name)
            if not math.isfinite(v) or v <= 0.0:
                raise ValueError(f"{name} must be > 0, got {v}")
        if not 0.0 <= self.halfwidth_fraction < 1.0:
            raise ValueError(
                f"halfwidth_fraction must lie in [0, 1), got {self.halfwidth_fraction}"
            )
        if self.alpha_levels < 1:
            raise ValueError(f"alpha_levels must be >= 1, got {self.alpha_levels}")

    def failure_number(self) -> TriangularFuzzyNumber:
        c = self.failure_rate_center
        return TriangularFuzzyNumber(c, self.halfwidth_fraction * c)

    def repair_number(self) -> TriangularFuzzyNumber:
        c = self.repair_rate_center
        if self.repair_rate_unit == "hours_per_repair":
            c = HOURS_PER_YEAR / c
        return TriangularFuzzyNumber(c, self.halfwidth_fraction * c)

    def alpha_grid(self) -> tuple[float, ...]:
        if self.alpha_levels == 1:
            return (1.0,)
        return tuple(i / (self.alpha_levels - 1) for i in range(self.alpha_levels))

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
    """Component curve parameters and the grid they are evaluated on."""

    hardware: HardwareParams
    software: SoftwareParams
    interaction: InteractionParams
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


@dataclass(frozen=True)
class FitSection:
    """The rate ratios G to fit at, each finite and > 0 (the rule of
    ``fit_lambda1``); ``fit.csv`` lists them in ascending order."""

    grid: tuple[float, ...] = (2.0,)

    def __post_init__(self) -> None:
        for g in self.grid:
            if not math.isfinite(g) or g <= 0.0:
                raise ValueError(f"ratio G must be finite and > 0, got {g}")

    def ratios(self) -> list[float]:
        return list(self.grid)

    @classmethod
    def from_dict(cls, d) -> "FitSection":
        """The section from its JSON object, or from the ``--g``/``--g-grid``
        flags given as the same keys."""
        _check_keys(d, {"g", "g_grid"}, "section 'fit'")
        if "g" in d and "g_grid" in d:
            raise ConfigError("section 'fit' must not set both 'g' and 'g_grid'")
        if "g_grid" not in d:
            return checked("section 'fit'", cls, (_number(d.get("g", 2.0), "g", "fit"),))
        grid = d["g_grid"]
        if not isinstance(grid, list) or not grid:
            raise ConfigError(f"'g_grid' must be a nonempty list of numbers, got {grid!r}")
        return checked("section 'fit'", cls, tuple(_number(g, "g_grid", "fit") for g in grid))


@dataclass(frozen=True)
class RunConfig:
    """The whole validated configuration document."""

    fuzzy: FuzzySection
    curves: CurvesSection
    markov: MarkovSection
    simulation: SimulationConfig
    fit: FitSection
    time_unit: str = "years"
    output_dir: str = "out"


def config_from_dict(doc) -> RunConfig:
    """Validate a parsed JSON document into a RunConfig."""
    _check_keys(doc, {"schema", *(f.name for f in fields(RunConfig))}, "configuration")
    schema = doc.get("schema")
    if schema != SCHEMA:
        raise ConfigError(f"unsupported schema {schema!r}; expected {SCHEMA!r}")
    time_unit = doc.get("time_unit", RunConfig.time_unit)
    if not isinstance(time_unit, str) or not time_unit:
        raise ConfigError("'time_unit' must be a nonempty string")
    output_dir = doc.get("output_dir", RunConfig.output_dir)
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("'output_dir' must be a nonempty string")
    parsers = {
        "fuzzy": FuzzySection.from_dict,
        "curves": lambda d: _build(CurvesSection, d, "curves"),
        "markov": lambda d: _build(MarkovSection, d, "markov"),
        "simulation": lambda d: _build(SimulationConfig, d, "simulation"),
        "fit": FitSection.from_dict,
    }
    sections = {
        name: parse(doc[name]) if name in doc else _DEFAULT_SECTIONS[name]()
        for name, parse in parsers.items()
    }
    return RunConfig(**sections, time_unit=time_unit, output_dir=output_dir)


def load_config(path) -> RunConfig:
    """Read and validate a JSON configuration file."""
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return config_from_dict(doc)


# Built-in defaults, one factory per section: the crisp study rates with a
# 10% uncertainty band.  A load builds only the sections its document omits.
_DEFAULT_SECTIONS = {
    "fuzzy": lambda: FuzzySection(
        failure_rate_center=0.6566,
        repair_rate_center=22.2898,
        repair_rate_unit="events_per_year",
        halfwidth_fraction=0.1,
        alpha_levels=11,
    ),
    "curves": lambda: CurvesSection(
        hardware=HardwareParams(rate=0.6566, shape=1.0),
        software=SoftwareParams(total_faults=10.0, detection_rate=0.1, startup_time=5.0),
        interaction=InteractionParams(lambda1=8.92e-4, lambda2=3.92e-3),
        time_grid=TimeGrid(start=0.0, stop=10.0, count=101),
    ),
    "markov": lambda: MarkovSection(
        transitions={"UP->HD3": 8.92e-4, "HD3->F_INT": 3.92e-3},
        time_grid=TimeGrid(start=0.0, stop=5000.0, count=51),
    ),
    "simulation": lambda: SimulationConfig(
        failure_rate=0.6566,
        repair_rate=22.2898,
        mission_time=10.0,
        n_replications=10000,
        master_seed=42,
        n_intervals=8,
    ),
    "fit": FitSection,
}


def default_config() -> RunConfig:
    """Built-in defaults: the crisp study rates with a 10% uncertainty band."""
    return RunConfig(**{name: make() for name, make in _DEFAULT_SECTIONS.items()})
