import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pmurel.config import (
    SCHEMA,
    ConfigError,
    FitSection,
    FuzzySection,
    TimeGrid,
    config_from_dict,
    default_config,
    load_config,
)
from pmurel.markov import build_unified_model


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
        assert cfg.fit.ratios() == [2.0]
        assert cfg.time_unit == "years"

    def test_alpha_grid_has_eleven_levels(self):
        grid = default_config().fuzzy.alpha_grid()
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
        assert section.alpha_grid() == (1.0,)


class TestFitSection:
    def test_grid_variant(self):
        section = FitSection.from_dict({"g_grid": [1.0, 2.0, 4.0]})
        assert section.ratios() == [1.0, 2.0, 4.0]

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
            simulation={
                "failure_rate": 1.0,
                "repair_rate": 10.0,
                "mission_time": 5.0,
                "n_replications": 100,
                "master_seed": 7,
            }
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

    def test_simulation_section_requires_rates(self):
        doc = minimal_doc(
            simulation={"mission_time": 5.0, "n_replications": 10, "master_seed": 1}
        )
        with pytest.raises(ConfigError, match="failure_rate"):
            config_from_dict(doc)

    def test_boolean_is_not_a_number(self):
        doc = minimal_doc(
            simulation={
                "failure_rate": True,
                "repair_rate": 10.0,
                "mission_time": 5.0,
                "n_replications": 10,
                "master_seed": 1,
            }
        )
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    def test_bad_curve_values_fail_at_load(self):
        doc = minimal_doc(
            curves={
                "hardware": {"rate": 1.0, "shape": -2.0},
                "software": {"total_faults": 1.0, "detection_rate": 0.1},
                "interaction": {"lambda1": 1e-3, "lambda2": 2e-3},
                "time_grid": {"start": 0.0, "stop": 10.0, "count": 3},
            }
        )
        with pytest.raises(ConfigError, match="curves"):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "doc,message",
        [
            (
                minimal_doc(curves={
                    "hardware": {"rate": 1.0, "shape": 1.0},
                    "software": {"total_faults": 1.0, "detection_rate": 0.1},
                    "interaction": {"lambda1": 1e-3, "lambda2": 2e-3},
                    "time_grid": {"start": 5.0, "stop": 5.0, "count": 3},
                }),
                "section 'curves.time_grid': time grid stop must exceed start",
            ),
            (
                minimal_doc(markov={
                    "transitions": {"UP->HD3": 1.0},
                    "time_grid": {"start": 0.0, "stop": 10.0, "count": 1},
                }),
                "section 'markov.time_grid': time grid count must be >= 2, got 1",
            ),
            (
                minimal_doc(fuzzy={
                    "failure_rate_center": 0.0,
                    "repair_rate_center": 2.0,
                    "repair_rate_unit": "events_per_year",
                }),
                "section 'fuzzy': failure_rate_center must be > 0, got 0.0",
            ),
        ],
    )
    def test_section_errors_name_their_path(self, doc, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            config_from_dict(doc)

    def test_bad_simulation_values_fail_at_load(self):
        doc = minimal_doc(
            simulation={
                "failure_rate": 0.5,
                "repair_rate": 5.0,
                "mission_time": 10.0,
                "n_replications": 0,
                "master_seed": 1,
            }
        )
        with pytest.raises(ConfigError, match="n_replications"):
            config_from_dict(doc)
