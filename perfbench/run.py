"""Benchmark of the pmurel CLI on three batch workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The load is a closed loop: one client runs one
command at a time, each execution in a fresh interpreter (``execute.py``)
that calls the real entry point ``pmurel.cli.main``.  No execution starts
after S seconds; the one in progress then finishes.  The seed is the Monte
Carlo master seed, passed to the program through ``--seed``.

Every execution's outputs are checked against oracles computed here, outside
the timed region, and their sha256 digests must repeat bit for bit within a
run.  An execution that exits non-zero or fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics: ``wall_s``, the median wall
time of one execution after imports; ``work_per_s``, the work of one
execution (failure/repair cycles for a pipeline, grid points solved for
markov) per second of ``wall_s``; ``setup_s``, the median time for a fresh
interpreter to import the CLI and load and validate the configuration (at
least seven samples); and ``peak_rss_mb``, the median peak resident memory of
a fresh process that runs the workload once.  ``--trace 1`` alternates
untraced and traced executions and reports the per-layer metrics of
``tracing.py``, the tracing overhead and the source line counts.

Times are reported at a fixed machine speed.  Every process also times
``execute.reference_job`` right after set-up and again right after an
execution.  A set-up time is scaled by ``REFERENCE_S`` over the reference
time after it, and an execution's times by ``REFERENCE_S`` over the mean of
the two reference times around it.  On a shared machine whose speed drifts
by tens of percent over minutes, this keeps runs made at different moments
comparable; the raw seconds are printed on the information line.

Information lines (environment, sample counts and quartiles, digests) come
first; the last line of standard output is the result object.  A copy of
everything is written to ``.bench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
PINNED = HERE / "pinned_digests.json"

SETUP_SAMPLES = 7
# Nominal time of execute.reference_job, roughly its median on the 2-core
# Xeon the benchmark was written on; every reported time is rescaled to it.
REFERENCE_S = 0.2
EXECUTION_TIMEOUT_S = 170.0
LAYER_MODULES = ("config", "fuzzy", "simulate", "fitting", "curves", "markov", "csvout", "cli")

# The built-in simulation defaults, restated because a config section
# replaces the default section as a whole.
_SIMULATION = {"failure_rate": 0.6566, "repair_rate": 22.2898, "mission_time": 10.0, "n_intervals": 8}

STIFF_CHAIN = {
    "UP->HD1": 1e-3,
    "UP->HD2": 2e-3,
    "UP->HD3": 8.92e-4,
    "UP->SD": 5e-2,
    "HD1->F_HW": 1e-2,
    "HD2->F_HW": 5e-3,
    "HD2->UP": 50.0,
    "HD3->F_INT": 3.92e-3,
    "SD->F_SW": 1e-2,
    "SD->UP": 500.0,
}


@dataclass(frozen=True)
class Workload:
    command: str
    sections: dict  # config sections that replace the built-in defaults
    size: str
    why: str


WORKLOADS = {
    "pipeline_100k": Workload(
        "pipeline",
        {"simulation": {**_SIMULATION, "n_replications": 100000}},
        "default config, 100000 missions of 10 years (about 636k failure/repair cycles)",
        "the user-facing path at scale; per-replication costs (substreams, "
        "exposure bucketing of many short traces) dominate",
    ),
    "pipeline_long_missions": Workload(
        "pipeline",
        {"simulation": {**_SIMULATION, "mission_time": 2000.0, "n_replications": 200,
                        "n_intervals": 64}},
        "default config, 200 missions of 2000 years, 64 intervals (about 255k cycles)",
        "same simulate code with per-event work dominant and substream cost near 0, so a "
        "per-replication saving that costs per-event work shows here",
    ),
    "markov_stiff": Workload(
        "markov",
        {"markov": {"transitions": STIFF_CHAIN,
                    "time_grid": {"start": 0.0, "stop": 20.0, "count": 51}}},
        "eight-state chain with SD->UP=500, HD2->UP=50, 51-point grid over [0, 20]",
        "the uniformization solve alone, stiff enough that a grid-aware solver shows; "
        "the Monte Carlo code is never called",
    ),
}


def _median(values):
    return statistics.median(values) if values else float("nan")


def _quartiles(values):
    if len(values) < 2:
        return [values[0], values[0]] if values else []
    q = statistics.quantiles(values, n=4)
    return [q[0], q[2]]


def _read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return header, rows


def _floats(path: Path) -> tuple[list[str], list[list[float]]]:
    header, rows = _read_rows(path)
    return header, [[float(v) for v in row] for row in rows]


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def csv_digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.csv"))}


def check_pipeline(out: Path, sim: dict) -> tuple[list[str], float, dict]:
    """Acceptance checks C1, C4, C6 and the exposure and curve identities.

    Returns the problems found, the cycle count and no accuracy figures.
    """
    problems = []
    crisp = {name: float(value) for name, value in _read_rows(out / "crisp.csv")[1]}
    lam, mu = crisp["failure_rate"], crisp["repair_rate"]
    (availability, mean_failures, availability_se, _), = _floats(out / "summary.csv")[1]
    if abs(availability - mu / (lam + mu)) > max(0.002, 5.0 * availability_se):
        problems.append(f"C1: availability {availability} vs mu/(lambda+mu) {mu / (lam + mu)}")
    renewal = sim["mission_time"] / (1.0 / lam + 1.0 / mu)
    if abs(mean_failures - renewal) > 0.02 * renewal:
        problems.append(f"C6: mean_failures {mean_failures} vs renewal value {renewal}")
    exposure = _floats(out / "exposure.csv")[1]
    cycles = mean_failures * sim["n_replications"]
    total = sum(row[1] for row in exposure)
    if len(exposure) != sim["n_intervals"] or abs(total - cycles) > 1e-6 * max(1.0, total):
        problems.append(f"exposure: {len(exposure)} intervals, sum X_i {total} vs {cycles}")
    fits = _floats(out / "fit.csv")[1]
    rates = [1.0 / (1.0 / l1 + 1.0 / l2) for _, l1, l2, _ in fits]
    if not fits or not all(_close(r, rates[0], 1e-12) for r in rates) \
            or not all(_close(l2, g * l1, 1e-12) for g, l1, l2, _ in fits):
        problems.append(f"C4: fit rows disagree on the effective rate: {rates}")
    for t, r_hw, r_sw, r_int, r_pmu in _floats(out / "curve.csv")[1]:
        if not _close(r_pmu, r_hw * r_sw * r_int, 1e-13):
            problems.append(f"curve: R_pmu != R_hw*R_sw*R_int at t={t}")
            break
    return problems, round(cycles), {}


class MarkovOracle:
    """Distribution at time t of a chain started in UP, from scipy's expm."""

    def __init__(self, transitions: dict) -> None:
        import numpy as np

        self.states = sorted({state for name in transitions for state in name.split("->")})
        index = {state: i for i, state in enumerate(self.states)}
        q = np.zeros((len(self.states), len(self.states)))
        for name, rate in transitions.items():
            src, dst = name.split("->")
            q[index[src], index[dst]] = rate
        self._q = q - np.diag(q.sum(axis=1))
        self._up = index["UP"]

    def __call__(self, t: float) -> dict[str, float]:
        from scipy.linalg import expm

        return dict(zip(self.states, expm(self._q * t)[self._up]))


def check_markov(out: Path, grid: dict, oracle: MarkovOracle) -> tuple[list[str], float, dict]:
    """Mass conservation within 1e-9 and agreement with expm within 1e-8."""
    header, rows = _floats(out / "markov.csv")
    columns = [h for h in header if h.startswith("Q_")]
    problems, max_err, defect = [], 0.0, 0.0
    for row in rows:
        probs = dict(zip(header, row))
        expected = oracle(probs["t"])
        defect = max(defect, abs(math.fsum(probs[c] for c in columns) - 1.0))
        max_err = max(max_err, *(abs(probs[f"Q_{s}"] - p) for s, p in expected.items()))
    if len(rows) != grid["count"] or len(columns) != len(oracle.states):
        problems.append(f"markov: {len(rows)} grid points and {len(columns)} states, expected "
                        f"{grid['count']} and {len(oracle.states)}")
    if defect > 1e-9:
        problems.append(f"markov: row sums deviate from 1 by {defect}")
    if max_err > 1e-8:
        problems.append(f"markov: max deviation from expm {max_err}")
    return problems, float(len(rows)), {"markov.max_abs_err": max_err, "markov.mass_defect": defect}


def check_outputs(workload: Workload, out: Path, oracle: MarkovOracle | None):
    if oracle is not None:
        return check_markov(out, workload.sections["markov"]["time_grid"], oracle)
    return check_pipeline(out, workload.sections["simulation"])


def execute(mode: str, cli_args: list[str], spans: Path, budget: float) -> dict:
    """Run execute.py in a fresh interpreter and return its report."""
    cmd = [sys.executable, str(HERE / "execute.py"), str(SRC), repr(time.time()), mode,
           str(spans), "--", *cli_args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        return {"rc": None, "error": f"timed out after {budget:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"rc": proc.returncode, "error": proc.stderr.strip()[-500:]}
    if proc.returncode != 0:
        report["rc"] = proc.returncode
    if report.get("rc") != 0:
        report["error"] = proc.stderr.strip()[-500:]
    return report


def source_lines() -> dict[str, float]:
    package = SRC / "pmurel"

    def lines(paths) -> int:
        return sum(len(p.read_text().splitlines()) for p in paths)

    result = {}
    for module in LAYER_MODULES:
        path = package / f"{module}.py"
        files = [path] if path.is_file() else sorted((package / module).rglob("*.py"))
        result[f"src.lines.{module}"] = lines(files)
    result["src.lines.total"] = lines(sorted(package.rglob("*.py")))
    return result


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    versions = {}
    for name in ("numpy", "scipy"):
        try:
            versions[name] = __import__(name).__version__
        except ImportError:
            versions[name] = None
    return {"python": platform.python_version(), **versions,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "seed": seed}


def pinned_status(workload: str, seed: int, digests: dict[str, str]) -> dict[str, list[str]]:
    """Compare with the digests pinned from the seed commit; information only,
    since a change may alter documented output bytes."""
    pins = json.loads(PINNED.read_text())["workloads"].get(workload, {})
    expected = {**pins.get("*", {}), **pins.get(str(seed), {})}
    status = {"match": [], "mismatch": [], "unpinned": []}
    for name, digest in digests.items():
        key = "unpinned" if name not in expected else (
            "match" if expected[name] == digest else "mismatch")
        status[key].append(name)
    return status


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    workload = WORKLOADS[name]
    work = WORK / name
    out = work / "out"
    work.mkdir(parents=True, exist_ok=True)
    config = work / "config.json"
    config.write_text(json.dumps({"schema": "pmu-reliability/1", **workload.sections}, indent=2))
    cli_args = [workload.command, "--config", str(config), "--out", str(out), "--seed", str(seed)]
    started = time.perf_counter()

    def remaining() -> float:
        return max(5.0, EXECUTION_TIMEOUT_S - (time.perf_counter() - started))

    # Warm-up: the first interpreter in a checkout compiles the package.
    execute("setup", cli_args, work / "spans.csv", remaining())

    modes = ("run", "trace") if trace else ("run",)
    walls = {mode: [] for mode in modes}
    setups, rss, layers, counts, accuracy = [], [], [], {}, {}
    oracle = MarkovOracle(STIFF_CHAIN) if workload.command == "markov" else None
    raw = {"setup": [], **{mode: [] for mode in modes}}

    executions = []  # every process's own measurements, for the result file

    def record_setup(report: dict) -> None:
        executions.append({key: report.get(key) for key in
                           ("rc", "setup_s", "wall_s", "reference_s", "peak_rss_mb")})
        setups.append(report["setup_s"] * REFERENCE_S / report["reference_s"][0])
        raw["setup"].append(report["setup_s"])

    attempted, failed, problems, first_digests, work_done = 0, 0, [], None, None
    deadline = time.perf_counter() + seconds
    while True:
        mode = modes[attempted % len(modes)]
        shutil.rmtree(out, ignore_errors=True)
        spans = work / f"spans-seed{seed}-{attempted}.csv"
        report = execute(mode, cli_args, spans, remaining())
        attempted += 1
        found = []
        if "setup_s" in report:
            record_setup(report)
        if report.get("rc") != 0:
            found.append(f"exit status {report.get('rc')}: {report.get('error', '')}")
        else:
            speed = REFERENCE_S / statistics.fmean(report["reference_s"])
            walls[mode].append(report["wall_s"] * speed)
            raw[mode].append(report["wall_s"])
            try:
                found, work_done, acc = check_outputs(workload, out, oracle)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                found, acc = [f"unreadable output: {exc!r}"], {}
            digests = csv_digests(out)
            first_digests = first_digests or digests
            if digests != first_digests:
                found.append("output digests differ from the run's first execution")
            if mode == "run":
                rss.append(report["peak_rss_mb"])
            else:
                layers.append({key: value * speed for key, value in report["layers"].items()})
                counts = report["counts"]
                for key, value in acc.items():
                    accuracy[key] = max(accuracy.get(key, 0.0), value)
                if workload.command == "pipeline" and report.get("exposure_rebuilt_equal") is not True:
                    found.append("exposure table rebuilt from traced replications differs")
        if found:
            failed += 1
            problems.append({"execution": attempted - 1, "mode": mode, "problems": found})
        if attempted >= len(modes) and time.perf_counter() >= deadline:
            break
    while len(setups) < SETUP_SAMPLES and remaining() > 10.0:
        report = execute("setup", cli_args, work / "spans.csv", remaining())
        if report.get("rc") != 0:
            break
        record_setup(report)

    if not walls["run"] or work_done is None or (trace and not layers):
        raise RuntimeError(f"no execution of {name} completed: {problems[:3]}")
    wall = _median(walls["run"])
    if trace:
        metrics = {key: (_median([layer[key] for layer in layers]), "s") for key in layers[0]}
        metrics.update({key: (value, "count") for key, value in counts.items()})
        metrics["markov.max_abs_err"] = (accuracy.get("markov.max_abs_err", 0.0), "prob")
        metrics["markov.mass_defect"] = (accuracy.get("markov.mass_defect", 0.0), "prob")
        metrics.update({key: (value, "count") for key, value in source_lines().items()})
        metrics["trace.overhead_s"] = (_median(walls["trace"]) - wall, "s")
    else:
        metrics = {
            "wall_s": (wall, "s"),
            "work_per_s": (work_done / wall, "1/s"),
            "setup_s": (_median(setups), "s"),
            "peak_rss_mb": (_median(rss), "MiB"),
        }
    work_name = "cycles_per_s" if workload.command == "pipeline" else "solves_per_s"
    info = {
        "environment": environment(seed),
        "workload": {"name": name, "command": workload.command, "size": workload.size,
                     "why": workload.why},
        "samples": {mode: len(values) for mode, values in walls.items()} | {"setup": len(setups)},
        "wall_s": {mode: {"median": _median(v), "quartiles": _quartiles(v)}
                   for mode, v in walls.items()},
        "setup_s_quartiles": _quartiles(setups),
        "raw_s": {key: {"median": _median(v), "quartiles": _quartiles(v)}
                  for key, v in raw.items()},
        work_name: work_done / wall,
        "failed_share": failed / attempted,
        "problems": problems[:5],
        "digests": first_digests,
        "pinned": pinned_status(name, seed, first_digests or {}),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    (work / f"result-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"info": info, "result": result, "executions": executions}, indent=2))
    return info, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "pmurel" / "cli.py").is_file():
        print(f"error: {SRC / 'pmurel'} not found; run from a pmurel checkout", file=sys.stderr)
        return 2
    info, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
