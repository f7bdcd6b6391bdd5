"""Batch command-line front end.

Subcommands mirror the pipeline stages: ``fuzzy`` (uncertainty bands and
crisp rates), ``curve`` (component reliability curves), ``markov`` (state
probabilities of the unified model), ``simulate`` (Monte Carlo campaign at
the fuzzy section's crisp rates, the only rates a configuration gives it),
``fit`` (interaction-rate estimation from an exposure table) and
``pipeline`` (fuzzy, simulate, fit, curve and markov in that order, with a
plain-text report).

Every command reads one JSON configuration document (built-in defaults when
``--config`` is omitted) and writes CSV files into the output directory.
A command computes all its files before it writes any, so a ``pipeline``
stage that fails leaves the output directory as it found it.
Exit statuses: 0 success, 2 configuration error, 3 runtime/numerical error
(running out of memory too), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import gc
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .config import (
    ConfigError,
    CurvesSection,
    FitSection,
    FuzzySection,
    MarkovSection,
    RunConfig,
    checked,
    default_config,
    load_config,
)
from .csvout import write_csv
from .curves import InteractionParams, interaction_reliability_closed_form, pmu_reliability_curve
from .fitting import FitResult, effective_rate, fit_scan
from .fuzzy import alpha_cut, fuzzy_availability, fuzzy_unavailability, uniform_alpha_grid
from .markov import operational_mass, transient_grid
from .simulate import ExposureTable, SimulationConfig, SimulationSummary, run_simulation

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_IO = 4

EXPOSURE_HEADER = ["interval", "X_i", "T_i"]


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON configuration file")
    common.add_argument("--out", metavar="DIR", help="output directory (default from config)")
    common.add_argument("--seed", type=int, metavar="U64", help="override the simulation master seed")
    common.add_argument("--dry-run", action="store_true", help="validate configuration and exit")

    parser = argparse.ArgumentParser(
        prog="pmurel",
        description="Reliability analysis toolkit for phasor measurement units.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("fuzzy", parents=[common], help="fuzzy rate bands and crisp rates")
    sub.add_parser("curve", parents=[common], help="component reliability curves")
    sub.add_parser("markov", parents=[common], help="transient state probabilities")
    sub.add_parser("simulate", parents=[common], help="Monte Carlo failure/repair campaign")
    fit = sub.add_parser("fit", parents=[common], help="estimate interaction rates")
    fit.add_argument("--g", type=float, metavar="RATIO", help="single rate ratio to fit at")
    fit.add_argument(
        "--g-grid", type=float, nargs="+", metavar="RATIO", help="grid of rate ratios to scan"
    )
    fit.add_argument(
        "--exposure",
        metavar="PATH",
        help="exposure CSV to fit (default: <out>/exposure.csv)",
    )
    sub.add_parser("pipeline", parents=[common], help="run every stage in order")
    return parser


def _resolve_config(args) -> RunConfig:
    """The configuration with the flags applied; the section types check a
    flag's value as they check a document's."""
    cfg = load_config(args.config) if args.config else default_config()
    if args.out is not None:
        cfg = checked("--out", replace, cfg, output_dir=args.out)
    if args.seed is not None:
        simulation = checked("--seed", replace, cfg.simulation, master_seed=args.seed)
        cfg = replace(cfg, simulation=simulation)
    flags = vars(args)
    ratios = {key: flags[key] for key in ("g", "g_grid") if flags.get(key) is not None}
    if ratios:
        cfg = replace(cfg, fit=FitSection.from_dict(ratios))
    return cfg


def _write(out: Path, files: dict) -> None:
    """Write each file into ``out``: a (header, rows) table as CSV, a string
    as it is, in the order they were added."""
    for name, content in files.items():
        if isinstance(content, str):
            (out / name).write_text(content)
        else:
            write_csv(out / name, *content)


def _fuzzy(fz: FuzzySection, files: dict) -> tuple[float, float]:
    """Add the rate and availability bands and crisp.csv to ``files``; return
    the crisp (defuzzified) failure and repair rates."""
    failure, repair = fz.failure_number(), fz.repair_number()
    grid = uniform_alpha_grid(fz.alpha_levels)
    bands = {
        "failure_rate.csv": alpha_cut(failure, grid),
        "repair_rate.csv": alpha_cut(repair, grid),
        "availability.csv": fuzzy_availability(failure, repair, grid),
        "unavailability.csv": fuzzy_unavailability(failure, repair, grid),
    }
    lam, mu = fz.crisp_rates()
    for name, band in bands.items():
        files[name] = (["alpha", "lo", "hi"], band.tolist())
    files["crisp.csv"] = (["quantity", "value"], [("failure_rate", lam), ("repair_rate", mu)])
    return lam, mu


def _simulate(sim: SimulationConfig, files: dict) -> SimulationSummary:
    """Run the Monte Carlo campaign; add summary.csv and exposure.csv."""
    summary = run_simulation(sim)
    files["summary.csv"] = (
        ["availability", "mean_failures", "availability_se", "mean_failures_se"],
        [(summary.availability, summary.mean_failures,
          summary.availability_se, summary.mean_failures_se)],
    )
    files["exposure.csv"] = (EXPOSURE_HEADER, summary.exposure.rows())
    return summary


def _fit(table: ExposureTable, ratios, files: dict) -> list[FitResult]:
    """Fit the interaction rates at each ratio; add fit.csv."""
    results = fit_scan(table, ratios)
    files["fit.csv"] = (["G", "lambda1", "lambda2", "sse"],
                        [(r.g, r.lambda1, r.lambda2, r.sse) for r in results])
    return results


def _curve(cv: CurvesSection, inter: InteractionParams, files: dict) -> list[tuple]:
    """Add curve.csv and return its rows (t, R_hw, R_sw, R_int, R_pmu)."""
    rows = pmu_reliability_curve(cv.hardware, cv.software, inter, cv.time_grid.values())
    files["curve.csv"] = (["t", "R_hw", "R_sw", "R_int", "R_pmu"], rows)
    return rows


def _markov(mk: MarkovSection, files: dict) -> list[tuple[float, float]]:
    """Solve the chain from UP over the grid; add markov.csv and return its
    (t, R_interaction) pairs."""
    gen = mk.generator
    solution = transient_grid(gen, gen.point_mass("UP"), mk.time_grid.values())
    mass = operational_mass(solution)
    rows = [(t, *p, r) for t, p, r in zip(solution.times, solution.probs, mass)]
    header = ["t"] + [f"Q_{s}" for s in gen.states] + ["R_interaction"]
    files["markov.csv"] = (header, rows)
    return list(zip(solution.times, mass.tolist()))


def _read_exposure_csv(path: Path) -> ExposureTable:
    lines = path.read_text().splitlines()
    if not lines or lines[0].split(",") != EXPOSURE_HEADER:
        raise ValueError(f"not an exposure table; expected header '{','.join(EXPOSURE_HEADER)}'")
    counts, times = [], []
    for line in lines[1:]:
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 3:
            raise ValueError(f"malformed exposure row: {line!r}")
        if fields[0].strip() != str(len(counts) + 1):
            raise ValueError(f"exposure row {line!r} must be interval {len(counts) + 1}")
        counts.append(float(fields[1]))
        times.append(float(fields[2]))
    return ExposureTable(tuple(counts), tuple(times))


def _fit_command(cfg: RunConfig, files: dict, args) -> None:
    """Fit the table in ``--exposure`` or ``<out>/exposure.csv``, naming it in an error."""
    path = Path(args.exposure) if args.exposure else Path(cfg.output_dir) / "exposure.csv"
    try:
        _fit(_read_exposure_csv(path), cfg.fit.grid, files)
    except (ValueError, ArithmeticError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _pipeline(cfg: RunConfig, files: dict, args) -> None:
    def stage(name, fn, *fn_args):
        try:
            return fn(*fn_args, files)
        except MemoryError as exc:
            # numpy's subclass of MemoryError cannot be rebuilt from a message
            raise MemoryError(f"pipeline stage '{name}' failed: {str(exc) or 'out of memory'}") from exc
        except (ConfigError, OSError, ValueError, ArithmeticError, RuntimeError) as exc:
            raise type(exc)(f"pipeline stage '{name}' failed: {exc}") from exc

    lam, mu = stage("fuzzy", _fuzzy, cfg.fuzzy)
    sim = cfg.simulation
    summary = stage("simulate", _simulate, sim)
    results = stage("fit", _fit, summary.exposure, cfg.fit.grid)
    inter = cfg.markov.interaction()
    curve = stage("curve", _curve, cfg.curves, inter)
    chain = stage("markov", _markov, cfg.markov)

    unit = cfg.time_unit[:-1] if cfg.time_unit.endswith("s") else cfg.time_unit
    renewal = sim.mission_time / (1.0 / lam + 1.0 / mu)
    grid = cfg.curves.time_grid
    _, r_hw, r_sw, r_int, r_pmu = curve[-1]
    gen = cfg.markov.generator
    # the closed form solves the chain exactly when UP and HD3 have no other exits
    two_stage = -gen.rate("UP", "UP") == inter.lambda1 and -gen.rate("HD3", "HD3") == inter.lambda2
    t_end, r_end = chain[-1]
    gap = max(abs(r - interaction_reliability_closed_form(inter, t)) for t, r in chain)
    report = [
        "PMU reliability pipeline report",
        "===============================",
        f"time unit: {cfg.time_unit}",
        "",
        "[1] fuzzy rate selection (alpha-cut propagation, centroid defuzzification)",
        f"    crisp failure rate : {lam:.6g} per {unit}",
        f"    crisp repair rate  : {mu:.6g} per {unit}",
        f"    two-state availability mu/(lambda+mu) : {mu / (lam + mu):.6f}",
        "    files: failure_rate.csv repair_rate.csv availability.csv "
        "unavailability.csv crisp.csv",
        "",
        f"[2] Monte Carlo campaign ({sim.n_replications} missions of "
        f"{sim.mission_time:g} {cfg.time_unit}, seed {sim.master_seed})",
        f"    availability estimate : {summary.availability:.6f}"
        f" (se {summary.availability_se:.2g})",
        f"    mean failures/mission : {summary.mean_failures:.4f}"
        f" (se {summary.mean_failures_se:.2g}; renewal-theory value {renewal:.4f})",
        "    files: summary.csv exposure.csv",
        "",
        "[3] interaction-rate least squares on the exposure table",
        *(
            f"    G={r.g:g}: lambda1={r.lambda1:.6g}, lambda2={r.lambda2:.6g},"
            f" sse={r.sse:.6g}, effective rate {effective_rate(r.lambda1, r.lambda2):.6g}"
            for r in results
        ),
        "    (the effective rate is the only identified quantity;"
        " it is the same for every G)",
        f"    it estimates the simulated failure rate lambda = {sim.failure_rate:.6g} per {unit},"
        " not the interaction rates UP->HD3 and HD3->F_INT of markov.transitions",
        "    file: fit.csv",
        "",
        f"[4] component reliability curves over [{grid.start:g}, {grid.stop:g}]",
        f"    at the horizon: hardware {r_hw:.6g}, software {r_sw:.6g},"
        f" interaction {r_int:.6g}, product {r_pmu:.6g}",
        "    file: curve.csv",
        "",
        f"[5] unified Markov chain from UP over [{cfg.markov.time_grid.start:g},"
        f" {cfg.markov.time_grid.stop:g}], solved by uniformization",
        f"    operational mass at t={t_end:g}: chain {r_end:.14f},"
        f" closed-form R_int {interaction_reliability_closed_form(inter, t_end):.14f}",
        f"    largest |chain - closed-form R_int| over the grid: {gap:.2g}" if two_stage else
        "    the chain leaves UP or HD3 by other transitions than UP->HD3 and HD3->F_INT,"
        " so it differs from the two-stage closed form by design",
        "    file: markov.csv",
    ]
    files["report.txt"] = "\n".join(report) + "\n"


# Each command's adapter: it reads its sections of the configuration and
# adds its files, by name, to the dict it is given.
_COMMANDS = {
    "fuzzy": lambda cfg, files, args: _fuzzy(cfg.fuzzy, files),
    "curve": lambda cfg, files, args: _curve(cfg.curves, cfg.markov.interaction(), files),
    "markov": lambda cfg, files, args: _markov(cfg.markov, files),
    "simulate": lambda cfg, files, args: _simulate(cfg.simulation, files),
    "fit": _fit_command,
    "pipeline": _pipeline,
}


def main(argv=None) -> int:
    # The objects imports created live as long as the process. Freezing them
    # keeps them out of every later garbage collection, so a collection that
    # falls inside a command scans only that command's objects (a generation-1
    # pass over the import-time objects takes about 1.7 ms on a 2-core Xeon).
    gc.freeze()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        if args.dry_run:
            return EXIT_OK
        files = {}
        _COMMANDS[args.command](cfg, files, args)
        _write(Path(cfg.output_dir), files)
        return EXIT_OK
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        path = getattr(exc, "filename", None)
        detail = f"{exc.strerror}: {path}" if path else str(exc)
        print(f"i/o error: {detail}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
