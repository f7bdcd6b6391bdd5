"""Span tracing of pmurel's layers, recorded from outside the package.

``Tracer.install`` replaces the public functions listed in ``LAYERS`` with
wrappers, in every loaded ``pmurel`` module that holds a reference to them.
Each call records one span ``(id, parent, name, start_ns, end_ns)`` in
memory; spans are written out only once the traced execution has finished.
A module or function missing from the package is skipped, so a refactor that
drops one leaves its metric at 0 instead of breaking the benchmark.
"""

from __future__ import annotations

import csv
import functools
import importlib
import sys
import time
from collections import defaultdict

# module -> {public function: per-layer time metric}.  A metric sums the
# self times of its spans (span duration minus the durations of its direct
# children), so together the metrics add up to the duration of cli.main.
LAYERS: dict[str, dict[str, str]] = {
    "cli": {"main": "cli.self_s"},
    "config": {"load_config": "config.load_s"},
    "fuzzy": dict.fromkeys(
        ("alpha_cut", "fuzzy_availability", "fuzzy_unavailability", "defuzzify"),
        "fuzzy.bands_s",
    ),
    "simulate": {
        "replication_rng": "simulate.substream_s",
        "run_replication": "simulate.replication_s",
        "build_exposure_table": "simulate.exposure_s",
        "run_simulation": "simulate.reduce_s",
    },
    "fitting": dict.fromkeys(("fit_scan", "fit_lambda1", "sse", "effective_rate"), "fitting.fit_s"),
    "curves": dict.fromkeys(
        (
            "weibull_reliability",
            "software_reliability",
            "interaction_reliability_closed_form",
            "composite_pmu_reliability",
        ),
        "curves.eval_s",
    ),
    "markov": dict.fromkeys(
        ("build_unified_model", "transient_distribution", "interaction_reliability_markov"),
        "markov.solve_s",
    ),
    "csvout": {"write_csv": "csvout.write_s"},
}

TIME_METRICS: tuple[str, ...] = tuple(dict.fromkeys(m for fns in LAYERS.values() for m in fns.values()))

# Calls whose arguments and results are kept for the counts and the
# exposure-table cross-check.
_KEPT = ("simulate.run_replication", "simulate.run_simulation", "csvout.write_csv")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int] | None] = []
        self.kept: dict[str, list[tuple[tuple, object]]] = defaultdict(list)
        self._stack: list[int] = []
        self._metric: dict[str, str] = {}

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        kept = self.kept[name] if name in _KEPT else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (span_id, parent, name, start, end)
            if kept is not None:
                kept.append((args, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every listed function wherever a pmurel module refers to it."""
        for module_name, functions in LAYERS.items():
            try:
                module = importlib.import_module(f"pmurel.{module_name}")
            except ModuleNotFoundError:
                continue
            for fn_name, metric in functions.items():
                original = getattr(module, fn_name, None)
                if original is None:
                    continue
                name = f"{module_name}.{fn_name}"
                self._metric[name] = metric
                wrapped = self._wrap(name, original)
                for loaded in list(sys.modules.values()):
                    if getattr(loaded, "__name__", "").split(".")[0] != "pmurel":
                        continue
                    for attr, value in list(vars(loaded).items()):
                        if value is original:
                            setattr(loaded, attr, wrapped)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[2] == name)

    def outermost(self, prefix: str) -> int:
        """Spans of one module that no other span of that module encloses."""
        names = {s[0]: s[2] for s in self.spans}
        return sum(
            1 for s in self.spans
            if s[2].startswith(prefix) and not names.get(s[1], "").startswith(prefix)
        )

    def layer_seconds(self) -> dict[str, float]:
        """Self time per layer metric, in seconds."""
        child_ns = defaultdict(int)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals = dict.fromkeys(TIME_METRICS, 0)
        for span_id, _, name, start, end in self.spans:
            totals[self._metric[name]] += end - start - child_ns[span_id]
        return {metric: ns / 1e9 for metric, ns in totals.items()}

    def write(self, path, execution: str) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["execution", "span", "parent", "name", "start_ns", "end_ns"])
            for span in self.spans:
                out.writerow((execution, *span))
