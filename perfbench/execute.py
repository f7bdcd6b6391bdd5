"""One fresh-process execution of the pmurel CLI, as the benchmark times it.

    python3 perfbench/execute.py SRC SPAWN_TIME MODE SPANS -- CLI_ARGS...

SRC is the directory holding the ``pmurel`` package and SPAWN_TIME the
parent's ``time.time()`` just before it started this process.  The process
first runs ``pmurel.cli.main(CLI_ARGS + ["--dry-run"])``: importing the CLI
and loading and validating the configuration is the set-up every invocation
pays.  The process then times ``reference_job``, and MODE ``setup`` stops
there.  ``run`` times one ``main(CLI_ARGS)`` and the reference job again;
``trace`` does the same with the layer spans of ``tracing.py`` recorded and
written to SPANS afterwards.  The last line of standard output is one JSON
object with the measurements.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np

REFERENCE_ROUNDS = 10000


def reference_job() -> float:
    """Wall time of a fixed job with pmurel's instruction mix.

    Scalar draws and logs, scalar ``searchsorted`` calls and small
    matrix-vector products, as in the Monte Carlo and uniformization code,
    but independent of the package.  It holds no memory and imports nothing
    the markov command does not, so it can run before an execution without
    moving its peak resident set.  A shared machine's speed drifts by tens
    of percent over minutes; timed in the same process right before and
    after an execution, this job drifts with it, so the benchmark can divide
    the drift out.
    """
    start = time.perf_counter()
    edges = np.linspace(0.0, 10.0, 9)
    step = np.full((8, 8), 0.125)
    vec = np.full(8, 0.125)
    state, clock, hits = 1, 0.0, 0
    for _ in range(REFERENCE_ROUNDS):
        for _ in range(6):
            state = (state * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
            clock -= math.log(1.0 - (state >> 11) * 2.0**-53)
            hits += int(np.searchsorted(edges, clock % 10.0))
        vec = vec @ step
    return time.perf_counter() - start


def _peak_rss_mb() -> float:
    """High-water resident set of this process image.

    ru_maxrss would also count the parent's pages at the fork that started
    this process, so the kernel's per-image VmHWM is preferred.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _traced_checks(tracer) -> dict:
    """Counts from the kept calls, and whether the exposure table rebuilt
    from the traced replications equals the one run_simulation returned."""
    from pmurel import simulate

    replications = tracer.kept["simulate.run_replication"]
    traces = [trace for _, trace in sorted(replications, key=lambda call: call[0][1])]
    written = [Path(args[0]) for args, _ in tracer.kept["csvout.write_csv"]]
    counts = {
        "simulate.substreams": tracer.count("simulate.replication_rng"),
        "simulate.cycles": sum(t.n_failures for t in traces),
        "simulate.up_periods": 0,
        "markov.solves": tracer.count("markov.transient_distribution"),
        "curves.points": tracer.outermost("curves."),
        "csvout.bytes": sum(p.stat().st_size for p in written),
    }
    result = {"counts": counts}
    simulations = tracer.kept["simulate.run_simulation"]
    if simulations:
        (cfg, *_), summary = simulations[-1]
        counts["simulate.up_periods"] = sum(len(t.up_periods(cfg.mission_time)) for t in traces)
        # The original, unwrapped function: the rebuild is not part of the trace.
        build = getattr(simulate.build_exposure_table, "__wrapped__", simulate.build_exposure_table)
        result["exposure_rebuilt_equal"] = (
            len(traces) == cfg.n_replications and build(traces, cfg) == summary.exposure
        )
    return result


def main() -> int:
    spawn_time = float(sys.argv[2])
    src, mode, spans_path = sys.argv[1], sys.argv[3], sys.argv[4]
    cli_args = sys.argv[sys.argv.index("--") + 1:]
    sys.path.insert(0, src)
    import pmurel.cli

    rc = pmurel.cli.main(cli_args + ["--dry-run"])
    report = {"rc": rc, "setup_s": time.time() - spawn_time, "reference_s": [reference_job()]}
    if mode != "setup" and rc == 0:
        tracer = None
        if mode == "trace":
            from tracing import Tracer  # perfbench/, the script's directory

            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        rc = pmurel.cli.main(cli_args)
        report["wall_s"] = time.perf_counter() - start
        report["rc"] = rc
        report["peak_rss_mb"] = _peak_rss_mb()
        report["reference_s"].append(reference_job())
        if tracer is not None:
            report["layers"] = tracer.layer_seconds()
            report.update(_traced_checks(tracer))
            tracer.write(spans_path, Path(spans_path).stem)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
