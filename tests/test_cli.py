import json
import math
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pmurel import cli, markov
from pmurel.cli import main
from pmurel.config import SCHEMA, config_from_dict, default_config, load_config
from pmurel.csvout import write_csv
from pmurel.curves import InteractionParams, interaction_reliability_closed_form
from pmurel.markov import build_unified_model, operational_mass, transient_grid
from pmurel.simulate import ExposureTable

CRISP_AVAILABILITY = 22.2898 / (22.2898 + 0.6566)

# every transition of the unified model, with fast repairs and restarts
STIFF = {
    "UP->HD1": 1e-3, "UP->HD2": 2e-3, "UP->HD3": 8.92e-4, "UP->SD": 5e-2,
    "HD1->F_HW": 1e-2, "HD2->F_HW": 5e-3, "HD2->UP": 50.0, "HD3->F_INT": 3.92e-3,
    "SD->F_SW": 1e-2, "SD->UP": 500.0,
}


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


def spy_on(monkeypatch, name):
    """Record the arguments of every call of ``markov.<name>`` made through
    any pmurel module's reference to it; return the list of calls."""
    original, calls = getattr(markov, name), []

    def spy(*args):
        calls.append(args)
        return original(*args)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").split(".")[0] == "pmurel" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, spy)
    return calls


def small_sim_section(n=1000, seed=42):
    return {
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

    def test_interaction_curve_follows_the_chain(self, tmp_path):
        rates = {"UP->HD3": 2e-3, "HD3->F_INT": 5e-3}
        grid = {"start": 0.0, "stop": 10.0, "count": 3}
        path = write_config(tmp_path, markov={"transitions": rates, "time_grid": grid})
        assert main(["curve", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        chain = build_unified_model(rates)
        rows = [[float(v) for v in row] for row in read_csv(tmp_path / "out" / "curve.csv")[1]]
        times = [row[0] for row in rows]
        transient = operational_mass(transient_grid(chain, chain.point_mass("UP"), times))
        for (t, _, _, r_int, _), r_chain in zip(rows, transient):
            assert r_int == interaction_reliability_closed_form(InteractionParams(2e-3, 5e-3), t)
            assert abs(r_int - r_chain) <= 1e-10

    def test_chain_without_up_to_hd3_never_fails_by_interaction(self, tmp_path):
        grid = {"start": 0.0, "stop": 10.0, "count": 3}
        path = write_config(tmp_path, markov={"transitions": {"UP->HD1": 0.1}, "time_grid": grid})
        assert main(["curve", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert [float(row[3]) for row in read_csv(tmp_path / "out" / "curve.csv")[1]] == [1.0] * 101


class TestMarkovCommand:
    def test_builds_the_generator_once(self, tmp_path, monkeypatch):
        # loading builds the configured generator and no default one, and the
        # command reuses it
        calls = spy_on(monkeypatch, "build_unified_model")
        grid = {"start": 0.0, "stop": 20.0, "count": 51}
        path = write_config(tmp_path, markov={"transitions": STIFF, "time_grid": grid})
        assert main(["markov", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert calls == [(STIFF,)]
        assert len(read_csv(tmp_path / "out" / "markov.csv")[1]) == 51

    def test_solver_error_exits_3(self, tmp_path, monkeypatch, capsys):
        def fail(*args):
            raise ArithmeticError("no solution")

        monkeypatch.setattr(cli, "transient_grid", fail)
        assert main(["markov", "--out", str(tmp_path)]) == 3
        assert "error: no solution" in capsys.readouterr().err
        assert not (tmp_path / "markov.csv").exists()

    @pytest.mark.parametrize("stiff", [False, True])
    def test_r_interaction_is_the_chain_operational_mass(self, tmp_path, stiff):
        # the column adds the UP..HD3 columns of its own row; and a one-point
        # solve, which steps from 0 rather than from the previous grid point,
        # agrees within the two bounds
        grid = {"start": 0.0, "stop": 20.0, "count": 51}
        sections = {"markov": {"transitions": STIFF, "time_grid": grid}} if stiff else {}
        path = write_config(tmp_path, **sections)
        assert main(["markov", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        _, rows = read_csv(tmp_path / "out" / "markov.csv")
        gen = load_config(path).markov.generator
        assert len(rows) == 51
        for row in rows:
            t, *probs, r = (float(v) for v in row)
            assert r == 0 + probs[0] + probs[1] + probs[2] + probs[3]
            assert abs(r - operational_mass(transient_grid(gen, gen.point_mass("UP"), [t]))[0]) <= 2e-10

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

    @pytest.mark.parametrize("command", ["simulate", "pipeline"])
    def test_campaign_too_large_for_memory_exits_3(self, tmp_path, capsys, command):
        # 8e17 bytes per replication array is beyond any address space, so
        # the allocation is refused at once; the pipeline names its stage
        cfg = write_config(tmp_path, simulation=small_sim_section(n=10**17))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        stage = "pipeline stage 'simulate' failed: " if command == "pipeline" else ""
        assert err.startswith(f"error: {stage}Unable to allocate") and err.count("\n") == 1

    def test_memory_error_without_a_message_says_out_of_memory(self, tmp_path, capsys, monkeypatch):
        def exhausted(sim):
            raise MemoryError

        monkeypatch.setattr(cli, "run_simulation", exhausted)
        assert main(["simulate", "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == "error: out of memory\n"
        assert main(["pipeline", "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == "error: pipeline stage 'simulate' failed: out of memory\n"

    def test_runs_at_the_crisp_rates_as_the_pipeline_does(self, tmp_path):
        fuzzy = {"failure_rate_center": 1.0, "repair_rate_center": 9.5,
                 "repair_rate_unit": "hours_per_repair"}
        cfg = write_config(tmp_path, fuzzy=fuzzy, simulation=small_sim_section())
        runs = {command: tmp_path / command for command in ("simulate", "pipeline")}
        for command, out in runs.items():
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("summary.csv", "exposure.csv"):
            assert (runs["simulate"] / name).read_bytes() == (runs["pipeline"] / name).read_bytes()
        assert "lambda = 1 per year" in (runs["pipeline"] / "report.txt").read_text()


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

    def test_missing_exposure_creates_no_output_dir(self, tmp_path):
        out = tmp_path / "out"
        assert main(["fit", "--exposure", str(tmp_path / "absent.csv"), "--out", str(out)]) == 4
        assert not out.exists()

    def test_zero_exposure_time_is_runtime_error(self, tmp_path):
        exposure = tmp_path / "exposure.csv"
        write_csv(exposure, ["interval", "X_i", "T_i"], [(1, 1.0, 0.0), (2, 2.0, 0.0)])
        assert main(["fit", "--out", str(tmp_path), "--exposure", str(exposure)]) == 3

    @pytest.mark.parametrize("intervals,bad", [((2, 2, 9), 0), ((2, 1), 0), ((1, 3), 1), ((1, 2, 2), 2)])
    def test_intervals_out_of_sequence_are_runtime_error(self, tmp_path, capsys, intervals, bad):
        # the intervals must read 1, 2, ..., n; the first row that does not is named
        exposure = tmp_path / "exposure.csv"
        write_csv(exposure, ["interval", "X_i", "T_i"], [(i, 1.0, 2.5) for i in intervals])
        assert main(["fit", "--out", str(tmp_path), "--exposure", str(exposure)]) == 3
        assert f"exposure row '{intervals[bad]},1,2.5' must be interval {bad + 1}" in capsys.readouterr().err

    def test_malformed_exposure_is_runtime_error(self, tmp_path):
        exposure = tmp_path / "exposure.csv"
        exposure.write_text("wrong,header,here\n1,2,3\n")
        assert main(["fit", "--out", str(tmp_path), "--exposure", str(exposure)]) == 3

    @pytest.mark.parametrize("rows,message", [
        ("", "counts and times must be equally sized and nonempty"),
        ("1,nan,2.5\n", "counts[0] must be finite and >= 0, got nan"),
        ("1,1,0\n", "cannot fit: every interval has zero exposure time"),
        ("1,1e308,1\n2,1e308,1\n", "intermediate overflow in fsum"),
    ], ids=["header-only", "nan-count", "no-exposure", "overflow"])
    def test_exposure_errors_name_the_file(self, tmp_path, capsys, rows, message):
        exposure = tmp_path / "exposure.csv"
        exposure.write_text("interval,X_i,T_i\n" + rows)
        assert main(["fit", "--out", str(tmp_path), "--exposure", str(exposure)]) == 3
        assert capsys.readouterr().err == f"error: {exposure}: {message}\n"


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
            "markov.csv",
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

    def test_zero_failure_campaign_reports_zero_effective_rate(self, tmp_path):
        # no mission fails, so the fit gives lambda1 = lambda2 = 0
        fuzzy = {"failure_rate_center": 1e-6, "repair_rate_center": 22.2898,
                 "repair_rate_unit": "events_per_year"}
        cfg = write_config(tmp_path, fuzzy=fuzzy, simulation=small_sim_section())
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
        assert "effective rate 0\n" in (out / "report.txt").read_text()

    def test_report_compares_the_chain_with_the_closed_form(self, tmp_path):
        cfg = write_config(tmp_path, simulation=small_sim_section(n=100))
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
        report = (out / "report.txt").read_text()
        assert "at t=5000: chain 0.01496844826424, closed-form R_int 0.01496844826423\n" in report
        assert "largest |chain - closed-form R_int| over the grid: 6e-14\n" in report

    def test_report_says_a_chain_with_other_exits_differs_by_design(self, tmp_path):
        grid = {"start": 0.0, "stop": 20.0, "count": 5}
        cfg = write_config(tmp_path, simulation=small_sim_section(n=100),
                           markov={"transitions": STIFF, "time_grid": grid})
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
        report = (out / "report.txt").read_text()
        assert "differs from the two-stage closed form by design" in report
        assert "largest |chain" not in report
        assert len(read_csv(out / "markov.csv")[1]) == 5

    @pytest.mark.parametrize("stiff", [False, True])
    def test_report_quotes_the_one_chain_solve(self, tmp_path, monkeypatch, stiff):
        # [5] reads its chain numbers from markov.csv's solve, the only one
        calls = spy_on(monkeypatch, "transient_grid")
        sections = {"simulation": small_sim_section(n=100)}
        if stiff:
            sections["markov"] = {"transitions": STIFF, "time_grid": {"start": 0.0, "stop": 20.0, "count": 51}}
        cfg = write_config(tmp_path, **sections)
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(calls) == 1
        report = (out / "report.txt").read_text()
        rows = [[float(v) for v in row] for row in read_csv(out / "markov.csv")[1]]
        assert f"operational mass at t={rows[-1][0]:g}: chain {rows[-1][-1]:.14f}," in report
        inter = load_config(cfg).markov.interaction()
        gap = max(abs(row[-1] - interaction_reliability_closed_form(inter, row[0])) for row in rows)
        if stiff:
            assert "over the grid" not in report
        else:
            assert f"largest |chain - closed-form R_int| over the grid: {gap:.2g}\n" in report

    @pytest.mark.parametrize("fail", ["config", "monkeypatch"])
    def test_failed_stage_leaves_the_output_directory_as_found(self, tmp_path, monkeypatch, fail):
        # an earlier run's files keep their bytes and no file is added, when
        # the campaign is too large for memory or the last stage fails
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(write_config(tmp_path, simulation=small_sim_section(n=100))),
                     "--out", str(out)]) == 0
        (out / "notes.txt").write_text("kept\n")
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        # other rates, so that any file written would change
        fuzzy = {"failure_rate_center": 1.0, "repair_rate_center": 22.2898,
                 "repair_rate_unit": "events_per_year"}
        if fail == "config":
            cfg = write_config(tmp_path, fuzzy=fuzzy, simulation=small_sim_section(n=10**17))
        else:
            cfg = write_config(tmp_path, fuzzy=fuzzy, simulation=small_sim_section(n=100))
            monkeypatch.setattr(cli, "transient_grid", lambda *args: 1 / 0)
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 3
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

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

    @pytest.mark.parametrize(
        "content",
        [
            b"\xff\xfe{}",
            # past Python's digit limit; without one, time_unit must be a string
            b'{"schema": "pmu-reliability/3", "time_unit": ' + b"1" * 5000 + b"}",
            b"[" * 100000,
        ],
        ids=["not-utf-8", "5000-digits", "deep-array"],
    )
    def test_unparseable_config_is_config_error(self, tmp_path, capsys, content):
        path = tmp_path / "config.json"
        path.write_bytes(content)
        assert main(["fuzzy", "--config", str(path), "--dry-run"]) == 2
        assert str(path) in capsys.readouterr().err

    def test_nul_in_output_dir_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, output_dir="x\0y")
        assert main(["fuzzy", "--config", str(cfg), "--dry-run"]) == 2
        assert "'output_dir' must not hold a NUL byte" in capsys.readouterr().err

    def test_unknown_key_named_in_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"schema": SCHEMA, "simulatoin": {}}))
        assert main(["simulate", "--config", str(path)]) == 2
        assert "simulatoin" in capsys.readouterr().err

    def test_negative_seed_rejected(self):
        assert main(["simulate", "--seed", "-1", "--dry-run"]) == 2

    @pytest.mark.parametrize("out,problem", [
        ("x\0y", "'output_dir' must not hold a NUL byte"),
        ("", "'output_dir' must be a nonempty string"),
    ], ids=["nul", "empty"])
    def test_bad_out_is_config_error_naming_the_flag(self, tmp_path, monkeypatch, capsys, out, problem):
        # an empty --out is rejected, not ignored in favour of the config's
        # directory; nothing is written to either
        monkeypatch.chdir(tmp_path)
        assert main(["fuzzy", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: --out: ") and problem in err
        assert list(tmp_path.iterdir()) == []

    def test_bad_time_grid_named_in_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        grid = {"start": 0.0, "stop": 0.0, "count": 3}
        path.write_text(json.dumps({"schema": SCHEMA, "markov": {"transitions": {}, "time_grid": grid}}))
        assert main(["markov", "--config", str(path)]) == 2
        assert "section 'markov.time_grid'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,section,name",
        [
            ("fit", {"fit": {"g": 10**400}}, "g"),
            ("fit", {"fit": {"g_grid": [1.0, -(10**400)]}}, "g_grid"),
            ("markov", {"markov": {"transitions": {"UP->HD3": 10**400}}}, "UP->HD3"),
            ("simulate", {"simulation": {**small_sim_section(), "mission_time": 10**400}}, "mission_time"),
        ],
    )
    def test_integer_too_large_for_a_float_is_config_error(self, tmp_path, capsys, command, section, name):
        # a JSON integer of 401 digits: math.isfinite raises OverflowError on it
        cfg = write_config(tmp_path, **section)
        assert main([command, "--config", str(cfg), "--dry-run"]) == 2
        assert f"{name} must be finite, got an integer too large for a float" in capsys.readouterr().err

    def test_hours_per_repair_needs_years(self, tmp_path, capsys):
        fuzzy = {"failure_rate_center": 0.6566, "repair_rate_center": 9.5,
                 "repair_rate_unit": "hours_per_repair"}
        cfg = write_config(tmp_path, time_unit="days", fuzzy=fuzzy)
        out = tmp_path / "out"
        assert main(["fuzzy", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "repair_rate_unit" in err and "time_unit" in err
        assert not out.exists()

    def test_config_output_dir_respected(self, tmp_path):
        out = tmp_path / "configured"
        cfg = write_config(tmp_path, output_dir=str(out))
        assert main(["fuzzy", "--config", str(cfg)]) == 0
        assert (out / "crisp.csv").exists()


# The default document, every key written out.
DEFAULT_DOC = {
    "schema": SCHEMA,
    "fuzzy": {"failure_rate_center": 0.6566, "repair_rate_center": 22.2898, "repair_rate_unit": "events_per_year",
              "halfwidth_fraction": 0.1, "alpha_levels": 11},
    "curves": {
        "hardware": {"rate": 0.6566, "shape": 1.0},
        "software": {"total_faults": 10.0, "detection_rate": 0.1, "startup_time": 5.0},
        "time_grid": {"start": 0.0, "stop": 10.0, "count": 101},
    },
    "markov": {"transitions": {"UP->HD3": 8.92e-4, "HD3->F_INT": 3.92e-3},
               "time_grid": {"start": 0.0, "stop": 5000.0, "count": 51}},
    "simulation": {"mission_time": 10.0, "n_replications": 10000, "master_seed": 42, "n_intervals": 8},
    "fit": {"g_grid": [2.0]},
    "time_unit": "years",
    "output_dir": "out",
}


def leaves(doc, path=()):
    """The path of every leaf of ``doc``, through objects and lists."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    if not items:
        return [path]
    return [leaf for key, value in items for leaf in leaves(value, path + (key,))]


def replaced(doc, path, value):
    """``doc`` with ``value`` at ``path``; only the containers on the path are copied."""
    if not path:
        return value
    doc = dict(doc) if isinstance(doc, dict) else list(doc)
    doc[path[0]] = replaced(doc[path[0]], path[1:], value)
    return doc


ODD_VALUES = [None, True, False, 10**400, math.nan, math.inf, -0.0, 1e-320, "odd", [1.0], {"odd": 1.0}]
DEFAULT_LEAVES = leaves(DEFAULT_DOC)


def test_the_default_document_is_the_default_config():
    assert config_from_dict(DEFAULT_DOC) == default_config()


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(swaps=st.lists(st.tuples(st.sampled_from(DEFAULT_LEAVES), st.sampled_from(ODD_VALUES)), min_size=1, max_size=2))
def test_odd_values_are_config_errors_or_load(tmp_path, capsys, swaps):
    # a leaf or two of the default document swapped for odd JSON: every
    # command loads it or exits 2, and no exception escapes main
    doc = DEFAULT_DOC
    for path, value in swaps:
        doc = replaced(doc, path, value)
    cfg = tmp_path / "odd.json"
    cfg.write_text(json.dumps(doc))
    for command in ("pipeline", "fuzzy", "markov", "simulate", "curve"):
        assert main([command, "--config", str(cfg), "--dry-run"]) in (0, 2), capsys.readouterr().err


class TestWriteCsv:
    def test_creates_a_missing_parent_directory(self, tmp_path):
        path = tmp_path / "a" / "b" / "table.csv"
        write_csv(path, ["x", "y"], [(1, 0.5)])
        assert path.read_text() == "x,y\n1,0.5\n"
