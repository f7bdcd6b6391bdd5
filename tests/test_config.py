import json
import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pmurel.config import (
    SCHEMA,
    SCHEMA_1,
    SCHEMA_2,
    ConfigError,
    FitSection,
    FuzzySection,
    RunConfig,
    TimeGrid,
    config_from_dict,
    default_config,
    load_config,
)
from pmurel.curves import InteractionParams
from pmurel.fitting import fit_scan
from pmurel.fuzzy import uniform_alpha_grid
from pmurel.markov import build_unified_model
from pmurel.simulate import ExposureTable, SimulationConfig


# a curves section of a schema 2 or 3 document
CURVES = {
    "hardware": {"rate": 1.0, "shape": 2.0},
    "software": {"total_faults": 1.0, "detection_rate": 0.1},
    "time_grid": {"start": 0.0, "stop": 10.0, "count": 3},
}


def minimal_doc(**extra):
    doc = {"schema": SCHEMA}
    doc.update(extra)
    return doc


class TestDefaults:
    def test_default_config_is_valid_and_crisp(self):
        cfg = default_config()
        assert cfg.fuzzy.failure_rate_center == 0.6566
        assert cfg.fuzzy.repair_rate_center == 22.2898
        assert cfg.fuzzy.repair_rate_unit == "events_per_year"
        assert cfg.simulation.mission_time == 10.0
        assert cfg.simulation.n_replications == 10000
        assert cfg.fit.grid == (2.0,)
        assert cfg.time_unit == "years"

    def test_defaults_live_on_the_run_config_fields(self):
        assert default_config() == RunConfig()

    def test_alpha_grid_has_eleven_levels(self):
        grid = uniform_alpha_grid(default_config().fuzzy.alpha_levels)
        assert len(grid) == 11
        assert grid[0] == 0.0 and grid[-1] == 1.0

    def test_fuzzy_numbers_carry_ten_percent_halfwidth(self):
        fz = default_config().fuzzy
        assert fz.failure_number().halfwidth == pytest.approx(0.06566)
        assert fz.repair_number().halfwidth == pytest.approx(2.22898)


class TestSchemaAndKeys:
    def test_missing_schema_rejected(self):
        with pytest.raises(ConfigError, match="schema"):
            config_from_dict({})

    def test_wrong_schema_rejected(self):
        with pytest.raises(ConfigError, match="schema"):
            config_from_dict({"schema": "pmu-reliability/999"})

    def test_interaction_rates_are_a_copy_only_in_schema_1(self):
        curves = {**CURVES, "interaction": {"lambda1": 1e-3, "lambda2": 2e-3}}
        with pytest.raises(ConfigError, match="^unknown key 'interaction' in section 'curves'$"):
            config_from_dict(minimal_doc(curves=curves))

    def test_unknown_top_level_key_named(self):
        with pytest.raises(ConfigError, match="fuzy"):
            config_from_dict(minimal_doc(fuzy={}))

    def test_unknown_section_key_named(self):
        doc = minimal_doc(
            fuzzy={
                "failure_rate_center": 1.0,
                "repair_rate_center": 2.0,
                "repair_rate_unit": "events_per_year",
                "halfwidths": 0.1,
            }
        )
        with pytest.raises(ConfigError, match="halfwidths"):
            config_from_dict(doc)

    def test_sections_fall_back_to_defaults(self):
        cfg = config_from_dict(minimal_doc())
        assert cfg == default_config()

    def test_readme_configuration_block_is_the_default(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("\n## Configuration\n", 1)[1]
        block = re.search(r"```json\n(.*?)\n```", section, re.DOTALL).group(1)
        assert config_from_dict(json.loads(block)) == default_config()


class TestSchema1:
    """Schema 1 documents declared the chain's interaction rates a second
    time, as ``curves.interaction``."""

    def v1(self, interaction, **sections):
        return {"schema": SCHEMA_1, "curves": {**CURVES, "interaction": interaction}, **sections}

    def test_document_without_the_copy_loads_as_schema_2(self):
        assert config_from_dict({"schema": SCHEMA_1}) == default_config()
        assert config_from_dict({"schema": SCHEMA_1, "curves": CURVES}) == config_from_dict(
            minimal_doc(curves=CURVES))

    @pytest.mark.parametrize("rates", [(8.92e-4, 3.92e-3), (2e-3, 5e-3), (0, 1)])
    def test_agreeing_copy_loads_as_if_absent(self, rates):
        markov = {"transitions": {"UP->HD3": rates[0], "HD3->F_INT": rates[1]},
                  "time_grid": {"start": 0.0, "stop": 10.0, "count": 3}}
        doc = self.v1(dict(zip(("lambda1", "lambda2"), rates)), markov=markov)
        cfg = config_from_dict(doc)
        assert cfg == config_from_dict(minimal_doc(curves=CURVES, markov=markov))
        assert cfg.markov.interaction() == InteractionParams(*rates)

    def test_disagreeing_copy_names_both_keys(self):
        doc = self.v1({"lambda1": 1e-3, "lambda2": 3.92e-3})
        message = ("curves.interaction (0.001, 0.00392) disagrees with "
                   "markov.transitions UP->HD3/HD3->F_INT (0.000892, 0.00392)")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            config_from_dict(doc)

    def test_bad_copy_is_checked_as_a_section(self):
        with pytest.raises(ConfigError, match="^section 'curves.interaction': lambda2 must be finite and >= 0"):
            config_from_dict(self.v1({"lambda1": 8.92e-4, "lambda2": -1.0}))
        with pytest.raises(ConfigError, match="^unknown key 'lambda3' in section 'curves.interaction'$"):
            config_from_dict(self.v1({"lambda1": 8.92e-4, "lambda2": 3.92e-3, "lambda3": 1.0}))
        with pytest.raises(ConfigError, match="^section 'curves.interaction' must be a JSON object$"):
            config_from_dict(self.v1(None))


class TestSimulationRateCopies:
    """Schema 1 and 2 documents declared the Monte Carlo rates a second time,
    as ``simulation.failure_rate`` and ``simulation.repair_rate``."""

    SIMULATION = {"mission_time": 5.0, "n_replications": 10}

    def doc(self, schema, fuzzy=None, **rates):
        doc = {"schema": schema, "simulation": {**self.SIMULATION, **rates}}
        if fuzzy is not None:
            doc["fuzzy"] = fuzzy
        return doc

    @pytest.mark.parametrize("schema", [SCHEMA_1, SCHEMA_2])
    @pytest.mark.parametrize("rates", [{}, {"failure_rate": 0.6566}, {"failure_rate": 0.6566, "repair_rate": 22.2898}])
    def test_agreeing_copies_load_as_if_absent(self, schema, rates):
        assert config_from_dict(self.doc(schema, **rates)) == config_from_dict(self.doc(SCHEMA))

    @pytest.mark.parametrize("schema", [SCHEMA_1, SCHEMA_2])
    def test_copies_of_the_crisp_hours_per_repair_rate_load(self, schema):
        fuzzy = {"failure_rate_center": 1.0, "repair_rate_center": 9.5, "repair_rate_unit": "hours_per_repair"}
        cfg = config_from_dict(self.doc(schema, fuzzy, failure_rate=1.0, repair_rate=8760.0 / 9.5))
        assert cfg == config_from_dict(self.doc(SCHEMA, fuzzy))
        assert (cfg.simulation.failure_rate, cfg.simulation.repair_rate) == (1.0, 8760.0 / 9.5)
        message = ("simulation.repair_rate (9.5) disagrees with the crisp rate of "
                   "fuzzy.repair_rate_center (922.1052631578947)")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            config_from_dict(self.doc(schema, fuzzy, repair_rate=9.5))

    @pytest.mark.parametrize("schema", [SCHEMA_1, SCHEMA_2])
    def test_disagreeing_copy_names_both_keys(self, schema):
        message = ("simulation.failure_rate (0.5) disagrees with the crisp rate of "
                   "fuzzy.failure_rate_center (0.6566)")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            config_from_dict(self.doc(schema, failure_rate=0.5, repair_rate=22.2898))

    def test_bad_copy_is_checked_as_a_number(self):
        with pytest.raises(ConfigError, match="^'repair_rate' in section 'simulation' must be a finite number"):
            config_from_dict(self.doc(SCHEMA_2, repair_rate="fast"))

    def test_schema_3_holds_no_copy(self):
        for key in ("failure_rate", "repair_rate"):
            with pytest.raises(ConfigError, match=f"^unknown key '{key}' in section 'simulation'$"):
                config_from_dict(self.doc(SCHEMA, **{key: 1.0}))

    def test_simulation_runs_at_the_crisp_rates(self):
        fuzzy = {"failure_rate_center": 1.0, "repair_rate_center": 10.0, "repair_rate_unit": "events_per_year"}
        cfg = config_from_dict({"schema": SCHEMA, "fuzzy": fuzzy})
        assert cfg.simulation == SimulationConfig(1.0, 10.0, mission_time=10.0)
        assert cfg.fuzzy.crisp_rates() == (1.0, 10.0)


class TestFuzzySection:
    def base(self, **overrides):
        d = {
            "failure_rate_center": 0.6566,
            "repair_rate_center": 22.2898,
            "repair_rate_unit": "events_per_year",
        }
        d.update(overrides)
        return d

    def test_repair_rate_unit_is_required(self):
        d = self.base()
        del d["repair_rate_unit"]
        with pytest.raises(ConfigError, match="repair_rate_unit"):
            FuzzySection.from_dict(d)

    def test_unknown_unit_rejected(self):
        with pytest.raises(ConfigError, match="repair_rate_unit"):
            FuzzySection.from_dict(self.base(repair_rate_unit="fortnights"))

    def test_hours_per_repair_converts(self):
        section = FuzzySection.from_dict(self.base(repair_rate_unit="hours_per_repair"))
        assert section.repair_number().center == pytest.approx(8760.0 / 22.2898)

    def test_events_per_year_passes_through(self):
        section = FuzzySection.from_dict(self.base())
        assert section.repair_number().center == 22.2898

    def test_rejects_nonpositive_centers(self):
        with pytest.raises(ConfigError):
            FuzzySection.from_dict(self.base(failure_rate_center=0.0))

    def test_rejects_bad_halfwidth_fraction(self):
        with pytest.raises(ConfigError):
            FuzzySection.from_dict(self.base(halfwidth_fraction=1.0))

    def test_single_alpha_level_is_core_only(self):
        section = FuzzySection.from_dict(self.base(alpha_levels=1))
        assert uniform_alpha_grid(section.alpha_levels) == (1.0,)

    def test_alpha_levels_are_checked_without_building_the_grid(self):
        # the grid of 10**6 levels takes about 31 MiB; only the fuzzy stage builds it
        tracemalloc.start()
        try:
            FuzzySection(**self.base(alpha_levels=10**6))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestRunConfig:
    @pytest.mark.parametrize("field", ["time_unit", "output_dir"])
    @pytest.mark.parametrize("value", ["", 5, None])
    def test_strings_must_be_nonempty(self, field, value):
        with pytest.raises(ValueError, match=field):
            RunConfig(**{field: value})
        with pytest.raises(ConfigError, match=f"^configuration: '{field}' must be a nonempty string"):
            config_from_dict(minimal_doc(**{field: value}))

    def hours_per_repair(self):
        return FuzzySection(0.6566, 9.5, "hours_per_repair")

    def test_hours_per_repair_needs_years_in_a_document(self):
        doc = minimal_doc(time_unit="days", fuzzy={
            "failure_rate_center": 0.6566,
            "repair_rate_center": 9.5,
            "repair_rate_unit": "hours_per_repair",
        })
        with pytest.raises(ConfigError, match="^configuration: repair_rate_unit .* time_unit 'days'$"):
            config_from_dict(doc)
        doc["time_unit"] = "years"
        assert config_from_dict(doc).fuzzy == self.hours_per_repair()

    def test_hours_per_repair_needs_years_in_a_library_call(self):
        cfg = RunConfig(fuzzy=self.hours_per_repair())
        with pytest.raises(ValueError, match="time_unit 'hours'"):
            replace(cfg, time_unit="hours")
        with pytest.raises(ValueError, match="repair_rate_unit"):
            replace(RunConfig(time_unit="days"), fuzzy=self.hours_per_repair())
        assert replace(RunConfig(time_unit="days"), output_dir="elsewhere").time_unit == "days"

    def test_simulation_runs_at_the_crisp_rates_in_a_library_call(self):
        fuzzy = FuzzySection(1.0, 9.5, "hours_per_repair")
        cfg = RunConfig(fuzzy=fuzzy)
        assert cfg.simulation == SimulationConfig(1.0, 8760.0 / 9.5, mission_time=10.0)
        assert RunConfig(fuzzy=fuzzy, simulation=cfg.simulation) == cfg
        with pytest.raises(ValueError, match=r"^simulation rates \(0.6566, 22.2898\) differ from the fuzzy "
                                             r"section's crisp rates \(1.0, 922.1052631578947\)$"):
            RunConfig(fuzzy=fuzzy, simulation=default_config().simulation)
        with pytest.raises(ValueError, match="crisp rates"):
            replace(cfg, fuzzy=default_config().fuzzy)


class TestFitSection:
    def test_grid_variant(self):
        # held in ascending order, as fit.csv lists the ratios
        assert FitSection.from_dict({"g_grid": [4, 1, 2]}).grid == (1.0, 2.0, 4.0)

    def test_default_ratio_is_the_section_default(self):
        assert FitSection.from_dict({}) == FitSection() == FitSection((2.0,))

    @pytest.mark.parametrize("grid,message", [
        ([], "ratio grid must not be empty"),
        ([1, -2], "ratio G must be finite and > 0, got -2"),
    ], ids=["empty", "negative"])
    def test_fit_scan_and_section_share_the_ratio_rule(self, grid, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            fit_scan(ExposureTable((1.0,), (1.0,)), grid)
        with pytest.raises(ValueError, match=f"^{message}$"):
            FitSection(grid)

    def test_rejects_both(self):
        with pytest.raises(ConfigError):
            FitSection.from_dict({"g": 2.0, "g_grid": [1.0]})

    def test_rejects_empty_grid(self):
        with pytest.raises(ConfigError):
            FitSection.from_dict({"g_grid": []})

    def test_rejects_nonpositive_entries(self):
        with pytest.raises(ConfigError, match="section 'fit'"):
            FitSection.from_dict({"g_grid": [1.0, 0.0]})
        with pytest.raises(ConfigError, match="section 'fit'"):
            FitSection.from_dict({"g": -1.0})
        # the rule of fit_lambda1: finite and > 0
        for g in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                FitSection((1.0, g))


class TestTimeGrid:
    def test_values_span_inclusive(self):
        grid = TimeGrid(0.0, 10.0, 11)
        values = grid.values()
        assert values[0] == 0.0 and values[-1] == 10.0
        assert len(values) == 11

    @given(
        start=st.floats(0.0, 1e6),
        width=st.floats(1e-6, 1e6),
        count=st.integers(2, 500),
    )
    @example(start=0.0, width=0.9, count=4)
    def test_values_end_at_stop_and_never_decrease(self, start, width, count):
        stop = start + width
        values = TimeGrid(start, stop, count).values()
        assert len(values) == count
        assert values[0] == start and values[-1] == stop
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_rejects_bad_grids(self):
        # a ValueError, as the engine types raise, so that a load names the
        # section holding the grid
        with pytest.raises(ValueError):
            TimeGrid(-1.0, 10.0, 11)
        with pytest.raises(ValueError):
            TimeGrid(5.0, 5.0, 11)
        with pytest.raises(ValueError):
            TimeGrid(0.0, 10.0, 1)


class TestLoadConfig:
    def test_round_trip_file(self, tmp_path):
        doc = minimal_doc(
            fuzzy={
                "failure_rate_center": 1.0,
                "repair_rate_center": 10.0,
                "repair_rate_unit": "events_per_year",
            },
            simulation={
                "mission_time": 5.0,
                "n_replications": 100,
                "master_seed": 7,
            },
        )
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        cfg = load_config(path)
        assert cfg.simulation.failure_rate == 1.0
        assert cfg.simulation.master_seed == 7
        assert cfg.simulation.n_intervals == 8

    def test_invalid_json_is_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)

    def test_missing_file_raises_os_error(self, tmp_path):
        with pytest.raises(OSError):
            load_config(tmp_path / "absent.json")

    def test_markov_section_validates_transitions(self):
        doc = minimal_doc(
            markov={
                "transitions": {"UP->NOWHERE": 1.0},
                "time_grid": {"start": 0.0, "stop": 10.0, "count": 3},
            }
        )
        with pytest.raises(ConfigError, match="UP->NOWHERE"):
            config_from_dict(doc)

    def test_markov_section_holds_its_generator(self):
        transitions = {"UP->SD": 0.5, "SD->UP": 50.0}
        grid = {"start": 0.0, "stop": 10.0, "count": 3}
        doc = minimal_doc(markov={"transitions": transitions, "time_grid": grid})
        section = config_from_dict(doc).markov
        assert np.array_equal(section.generator.matrix, build_unified_model(transitions).matrix)
        assert replace(section, transitions={"UP->HD1": 1.0}).generator.rate("UP", "HD1") == 1.0
        doc["markov"]["generator"] = {}
        with pytest.raises(ConfigError, match="unknown key 'generator'"):
            config_from_dict(doc)

    def test_simulation_section_rejects_rates(self):
        # they are the fuzzy section's crisp rates
        doc = minimal_doc(
            simulation={"failure_rate": 0.6566, "mission_time": 5.0, "n_replications": 10, "master_seed": 1}
        )
        with pytest.raises(ConfigError, match="^unknown key 'failure_rate' in section 'simulation'$"):
            config_from_dict(doc)
        del doc["simulation"]["mission_time"]
        del doc["simulation"]["failure_rate"]
        with pytest.raises(ConfigError, match="^missing required key 'mission_time' in section 'simulation'$"):
            config_from_dict(doc)

    def test_boolean_is_not_a_number(self):
        doc = minimal_doc(
            simulation={
                "mission_time": True,
                "n_replications": 10,
                "master_seed": 1,
            }
        )
        with pytest.raises(ConfigError, match="'mission_time' in section 'simulation' must be a finite number"):
            config_from_dict(doc)

    def test_bad_curve_values_fail_at_load(self):
        doc = minimal_doc(
            curves={
                "hardware": {"rate": 1.0, "shape": -2.0},
                "software": {"total_faults": 1.0, "detection_rate": 0.1},
                "time_grid": {"start": 0.0, "stop": 10.0, "count": 3},
            }
        )
        with pytest.raises(ConfigError, match="^section 'curves.hardware': shape must be"):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "doc,message",
        [
            (
                minimal_doc(curves={
                    "hardware": {"rate": 1.0, "shape": 1.0},
                    "software": {"total_faults": 1.0, "detection_rate": 0.1},
                    "time_grid": {"start": 5.0, "stop": 5.0, "count": 3},
                }),
                "section 'curves.time_grid': time grid stop must exceed start",
            ),
            (
                minimal_doc(markov={
                    "transitions": {"UP->HD3": 1.0},
                    "time_grid": {"start": 0.0, "stop": 10.0, "count": 1},
                }),
                "section 'markov.time_grid': time grid count must be an integer >= 2, got 1",
            ),
            (
                minimal_doc(fuzzy={
                    "failure_rate_center": 0.0,
                    "repair_rate_center": 2.0,
                    "repair_rate_unit": "events_per_year",
                }),
                "section 'fuzzy': failure_rate_center must be finite and > 0, got 0.0",
            ),
            (
                minimal_doc(fuzzy={
                    "failure_rate_center": 1e308,
                    "repair_rate_center": 2.0,
                    "repair_rate_unit": "events_per_year",
                    "halfwidth_fraction": 0.9,
                }),
                "section 'fuzzy': center + halfwidth must be finite, got inf",
            ),
            (
                # 8760 hours a year over 1e-320 hours a repair overflows
                minimal_doc(fuzzy={
                    "failure_rate_center": 0.5,
                    "repair_rate_center": 1e-320,
                    "repair_rate_unit": "hours_per_repair",
                }),
                "section 'fuzzy': repair_rate_center in events per year must be finite and > 0, got inf",
            ),
        ],
    )
    def test_section_errors_name_their_path(self, doc, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            config_from_dict(doc)

    def test_bad_simulation_values_fail_at_load(self):
        doc = minimal_doc(
            simulation={
                "mission_time": 10.0,
                "n_replications": 0,
                "master_seed": 1,
            }
        )
        with pytest.raises(ConfigError, match="n_replications"):
            config_from_dict(doc)
