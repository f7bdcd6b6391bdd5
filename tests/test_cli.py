import json
import sys

import pytest

from pmurel import markov
from pmurel.cli import main
from pmurel.config import SCHEMA
from pmurel.csvout import write_csv
from pmurel.simulate import ExposureTable

CRISP_AVAILABILITY = 22.2898 / (22.2898 + 0.6566)


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def write_config(tmp_path, **sections):
    doc = {"schema": SCHEMA}
    doc.update(sections)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def small_sim_section(n=1000, seed=42):
    return {
        "failure_rate": 0.6566,
        "repair_rate": 22.2898,
        "mission_time": 10.0,
        "n_replications": n,
        "master_seed": seed,
    }


class TestFuzzyCommand:
    def test_writes_all_bands_and_crisp(self, tmp_path):
        out = tmp_path / "out"
        assert main(["fuzzy", "--out", str(out)]) == 0
        for name in (
            "availability.csv",
            "unavailability.csv",
            "failure_rate.csv",
            "repair_rate.csv",
        ):
            header, rows = read_csv(out / name)
            assert header == ["alpha", "lo", "hi"]
            assert len(rows) == 11
        header, rows = read_csv(out / "crisp.csv")
        assert header == ["quantity", "value"]
        values = {name: float(v) for name, v in rows}
        assert values["failure_rate"] == 0.6566
        assert values["repair_rate"] == 22.2898

    def test_zero_halfwidth_collapses_bands(self, tmp_path):
        cfg = write_config(
            tmp_path,
            fuzzy={
                "failure_rate_center": 0.6566,
                "repair_rate_center": 22.2898,
                "repair_rate_unit": "events_per_year",
                "halfwidth_fraction": 0.0,
            },
        )
        out = tmp_path / "out"
        assert main(["fuzzy", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("availability.csv", "failure_rate.csv", "repair_rate.csv"):
            _, rows = read_csv(out / name)
            for _, lo, hi in rows:
                assert lo == hi

    def test_band_values_round_trip(self, tmp_path):
        out = tmp_path / "out"
        main(["fuzzy", "--out", str(out)])
        _, rows = read_csv(out / "availability.csv")
        core = rows[-1]
        assert float(core[0]) == 1.0
        assert float(core[1]) == pytest.approx(CRISP_AVAILABILITY, rel=1e-15)


class TestCurveCommand:
    def test_curve_csv_shape_and_origin(self, tmp_path):
        out = tmp_path / "out"
        assert main(["curve", "--out", str(out)]) == 0
        header, rows = read_csv(out / "curve.csv")
        assert header == ["t", "R_hw", "R_sw", "R_int", "R_pmu"]
        assert len(rows) == 101
        first = [float(v) for v in rows[0]]
        assert first == [0.0, 1.0, 1.0, 1.0, 1.0]
        for row in rows:
            t, r_hw, r_sw, r_int, r_pmu = (float(v) for v in row)
            assert r_pmu == r_hw * r_sw * r_int


class TestMarkovCommand:
    def test_builds_the_generator_once(self, tmp_path, monkeypatch):
        # loading builds the configured generator and no default one, and the
        # command reuses it
        build, calls = markov.build_unified_model, []

        def spy(rates):
            calls.append(dict(rates))
            return build(rates)

        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name.split(".")[0] == "pmurel" and getattr(module, "build_unified_model", None) is build:
                monkeypatch.setattr(module, "build_unified_model", spy)
        stiff = {
            "UP->HD1": 1e-3, "UP->HD2": 2e-3, "UP->HD3": 8.92e-4, "UP->SD": 5e-2,
            "HD1->F_HW": 1e-2, "HD2->F_HW": 5e-3, "HD2->UP": 50.0, "HD3->F_INT": 3.92e-3,
            "SD->F_SW": 1e-2, "SD->UP": 500.0,
        }
        grid = {"start": 0.0, "stop": 20.0, "count": 51}
        path = write_config(tmp_path, markov={"transitions": stiff, "time_grid": grid})
        assert main(["markov", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert calls == [stiff]
        assert len(read_csv(tmp_path / "out" / "markov.csv")[1]) == 51

    def test_short_poisson_sum_exits_3(self, tmp_path, monkeypatch, capsys):
        # no truncation budget: the default grid's Poisson sum stalls short of 1
        monkeypatch.setattr(markov, "_POISSON_TRUNCATION_EPS", 0.0)
        assert main(["markov", "--out", str(tmp_path)]) == 3
        assert "stalled" in capsys.readouterr().err
        assert not (tmp_path / "markov.csv").exists()

    def test_markov_csv_headers_and_origin(self, tmp_path):
        out = tmp_path / "out"
        assert main(["markov", "--out", str(out)]) == 0
        header, rows = read_csv(out / "markov.csv")
        assert header == [
            "t",
            "Q_UP",
            "Q_HD1",
            "Q_HD2",
            "Q_HD3",
            "Q_SD",
            "Q_F_HW",
            "Q_F_INT",
            "Q_F_SW",
            "R_interaction",
        ]
        first = [float(v) for v in rows[0]]
        assert first[0] == 0.0
        assert first[1] == 1.0
        assert first[-1] == 1.0
        last = [float(v) for v in rows[-1]]
        assert last[-1] < 1.0


class TestSimulateCommand:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, simulation=small_sim_section())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in ("summary.csv", "exposure.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_flag_changes_results(self, tmp_path):
        cfg = write_config(tmp_path, simulation=small_sim_section())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(cfg), "--out", str(out1)])
        main(["simulate", "--config", str(cfg), "--out", str(out2), "--seed", "7"])
        assert (out1 / "summary.csv").read_bytes() != (out2 / "summary.csv").read_bytes()

    def test_exposure_has_one_row_per_interval(self, tmp_path):
        cfg = write_config(tmp_path, simulation=small_sim_section())
        out = tmp_path / "out"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        header, rows = read_csv(out / "exposure.csv")
        assert header == ["interval", "X_i", "T_i"]
        assert [int(r[0]) for r in rows] == list(range(1, 9))


class TestFitCommand:
    def write_exact_exposure(self, path):
        times = tuple(1000.0 * i for i in range(1, 9))
        counts = tuple(t / 1500.0 for t in times)
        write_csv(path, ["interval", "X_i", "T_i"], ExposureTable(counts, times).rows())

    def test_fit_on_exact_fixture(self, tmp_path):
        exposure = tmp_path / "exposure.csv"
        self.write_exact_exposure(exposure)
        out = tmp_path / "out"
        assert main(
            ["fit", "--out", str(out), "--exposure", str(exposure), "--g", "2"]
        ) == 0
        header, rows = read_csv(out / "fit.csv")
        assert header == ["G", "lambda1", "lambda2", "sse"]
        g, lambda1, lambda2, residual = (float(v) for v in rows[0])
        assert g == 2.0
        assert lambda1 == pytest.approx(1e-3, rel=1e-12)
        assert lambda2 == pytest.approx(2e-3, rel=1e-12)
        assert residual <= 1e-18

    def test_fit_defaults_to_out_dir_exposure(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        self.write_exact_exposure(out / "exposure.csv")
        assert main(["fit", "--out", str(out)]) == 0
        _, rows = read_csv(out / "fit.csv")
        assert len(rows) == 1

    def test_grid_scan(self, tmp_path):
        exposure = tmp_path / "exposure.csv"
        self.write_exact_exposure(exposure)
        out = tmp_path / "out"
        assert main(
            ["fit", "--out", str(out), "--exposure", str(exposure),
             "--g-grid", "1", "2", "4"]
        ) == 0
        _, rows = read_csv(out / "fit.csv")
        assert [float(r[0]) for r in rows] == [1.0, 2.0, 4.0]

    def test_conflicting_ratio_flags(self, tmp_path):
        exposure = tmp_path / "exposure.csv"
        self.write_exact_exposure(exposure)
        code = main(
            ["fit", "--out", str(tmp_path), "--exposure", str(exposure),
             "--g", "2", "--g-grid", "1", "2"]
        )
        assert code == 2

    @pytest.mark.parametrize("flags", [["--g", "0"], ["--g", "nan"], ["--g", "inf"], ["--g-grid", "1", "-1"]])
    def test_bad_ratio_flag_is_config_error(self, tmp_path, flags):
        # checked before the exposure file, which does not exist here, is read
        assert main(["fit", "--out", str(tmp_path), *flags]) == 2

    def test_missing_exposure_is_io_error(self, tmp_path):
        assert main(["fit", "--out", str(tmp_path)]) == 4

    def test_zero_exposure_time_is_runtime_error(self, tmp_path):
        exposure = tmp_path / "exposure.csv"
        write_csv(exposure, ["interval", "X_i", "T_i"], [(1, 1.0, 0.0), (2, 2.0, 0.0)])
        assert main(["fit", "--out", str(tmp_path), "--exposure", str(exposure)]) == 3

    def test_malformed_exposure_is_runtime_error(self, tmp_path):
        exposure = tmp_path / "exposure.csv"
        exposure.write_text("wrong,header,here\n1,2,3\n")
        assert main(["fit", "--out", str(tmp_path), "--exposure", str(exposure)]) == 3


class TestPipelineCommand:
    def test_full_pipeline_with_defaults(self, tmp_path):
        out = tmp_path / "out"
        assert main(["pipeline", "--out", str(out), "--seed", "42"]) == 0
        for name in (
            "availability.csv",
            "unavailability.csv",
            "failure_rate.csv",
            "repair_rate.csv",
            "crisp.csv",
            "summary.csv",
            "exposure.csv",
            "fit.csv",
            "curve.csv",
            "report.txt",
        ):
            assert (out / name).exists(), name
        header, rows = read_csv(out / "summary.csv")
        summary = dict(zip(header, (float(v) for v in rows[0])))
        assert abs(summary["availability"] - CRISP_AVAILABILITY) < 0.002
        assert summary["mean_failures"] == pytest.approx(6.378, rel=0.02)
        report = (out / "report.txt").read_text()
        assert "availability" in report
        assert "lambda1" in report

    def test_pipeline_reproducible(self, tmp_path):
        cfg = write_config(tmp_path, simulation=small_sim_section())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["pipeline", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in ("summary.csv", "exposure.csv", "fit.csv", "curve.csv", "report.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_report_gives_the_curve_grid_start(self, tmp_path):
        curves = {
            "hardware": {"rate": 0.6566, "shape": 1.0},
            "software": {"total_faults": 10.0, "detection_rate": 0.1},
            "interaction": {"lambda1": 8.92e-4, "lambda2": 3.92e-3},
            "time_grid": {"start": 0.3, "stop": 7.7, "count": 5},
        }
        cfg = write_config(tmp_path, curves=curves, simulation=small_sim_section(n=100))
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
        report = (out / "report.txt").read_text()
        assert "[4] component reliability curves over [0.3, 7.7]" in report
        _, rows = read_csv(out / "curve.csv")
        assert float(rows[-1][0]) == 7.7


class TestConfigHandling:
    def test_dry_run_writes_nothing(self, tmp_path):
        out = tmp_path / "out"
        assert main(["pipeline", "--out", str(out), "--dry-run"]) == 0
        assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        assert main(["simulate", "--config", str(missing)]) == 4
        assert str(missing) in capsys.readouterr().err

    def test_invalid_json_config(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        assert main(["simulate", "--config", str(path)]) == 2

    def test_unknown_key_named_in_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"schema": SCHEMA, "simulatoin": {}}))
        assert main(["simulate", "--config", str(path)]) == 2
        assert "simulatoin" in capsys.readouterr().err

    def test_negative_seed_rejected(self):
        assert main(["simulate", "--seed", "-1", "--dry-run"]) == 2

    def test_bad_time_grid_named_in_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        grid = {"start": 0.0, "stop": 0.0, "count": 3}
        path.write_text(json.dumps({"schema": SCHEMA, "markov": {"transitions": {}, "time_grid": grid}}))
        assert main(["markov", "--config", str(path)]) == 2
        assert "section 'markov.time_grid'" in capsys.readouterr().err

    def test_config_output_dir_respected(self, tmp_path):
        out = tmp_path / "configured"
        cfg = write_config(tmp_path, output_dir=str(out))
        assert main(["fuzzy", "--config", str(cfg)]) == 0
        assert (out / "crisp.csv").exists()
