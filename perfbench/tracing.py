"""Spans around the program's layers, recorded where the calling module looks them up.

Each site replaces a module attribute (for example ``drtopt.pipeline.solve_instance``)
with a wrapper that records a span: name, start, end and the index of the
enclosing span.  Spans stay in memory and are written out when the run ends.
A layer's self time is its spans' durations minus those of their children.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter

# (module, attribute the caller looks up, span name)
SITES = (
    ("data", "load_od_counts", "data.load"),
    ("forecasting", "check_stationarity", "data.adf"),
    ("forecasting", "build_features", "data.features"),
    ("forecasting", "train_model", "forecasting.train"),
    ("forecasting", "predict_forecasts", "forecasting.predict"),
    ("qr", "fit_lqr", "forecasting.family_fit"),
    ("boosting", "fit_gboost", "forecasting.family_fit"),
    ("qr", "linprog", "qr.lp"),
    ("boosting", "pinball_minimizing_constant", "qr.leaf"),
    ("copula", "fit_correlation", "copula.fit"),
    ("pipeline", "sample_joint", "copula.sample"),
    ("tndfs", "prepare_instance", "tndfs.prepare"),
    ("pipeline", "solve_instance", "tndfs.solve"),
    ("tndfs", "assign_flows", "tndfs.flow"),
    ("tndfs", "linprog", "tndfs.flow_lp"),
    ("pipeline", "evaluate_allocation", "tndfs.evaluate"),
    ("pipeline", "optimize_lag", "pipeline.decide"),
    ("pipeline", "optimize_point", "pipeline.baseline"),
    ("pipeline", "optimize_ground_truth", "pipeline.baseline"),
    ("metrics", "evaluate", "metrics.evaluate"),
)

# per-layer metric -> unit
PER_LAYER = {
    "data.load_s": "s",
    "data.adf_calls": "count",
    "data.adf_s": "s",
    "data.features_calls": "count",
    "data.features_s": "s",
    "qr.lp_solves": "count",
    "qr.lp_not_converged": "count",
    "qr.leaf_calls": "count",
    "qr.solve_s": "s",
    "boosting.trees": "count",
    "forecasting.family_fit_self_s": "s",
    "forecasting.train_s": "s",
    "forecasting.predict_calls": "count",
    "forecasting.predict_s": "s",
    "copula.fit_s": "s",
    "copula.samples": "count",
    "copula.sample_s": "s",
    "tndfs.prepare_s": "s",
    "tndfs.solves": "count",
    "tndfs.solve_s": "s",
    "tndfs.solve_p50_ms": "ms",
    "tndfs.flow_assignments": "count",
    "tndfs.flow_lp_solves": "count",
    "tndfs.flow_s": "s",
    "tndfs.evaluations": "count",
    "tndfs.evaluate_s": "s",
    "pipeline.decisions": "count",
    "pipeline.decide_self_s": "s",
    "pipeline.baseline_solves": "count",
    "pipeline.baseline_s": "s",
    "metrics.predict_s": "s",
    "metrics.evaluate_s": "s",
    "trace.overhead_pct": "%",
}


class Patches:
    """Module attributes replaced by wrappers, and put back on restore()."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, make) -> None:
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


class Tracer:
    """Records a span per call at every site in SITES, plus a few counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches = Patches()

    def install(self, modules: dict) -> None:
        for mod, attr, name in SITES:
            self._patches.wrap(modules[mod], attr, lambda f, name=name: self.span(name, f))

    def uninstall(self) -> None:
        self._patches.restore()

    def span(self, name: str, func):
        """func wrapped to record a span named name per call."""
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if name == "qr.lp" and result.status != 0:
                counts["qr.lp_not_converged"] += 1
            elif name == "copula.sample":
                counts["copula.samples"] += len(result)
            elif name == "forecasting.family_fit" and hasattr(result, "trees"):
                counts["boosting.trees"] += sum(len(t) for t in result.trees.values())
            return result

        return wrapper

    def metrics(self, overhead_pct: float) -> dict:
        total: Counter = Counter()
        calls: Counter = Counter()
        child: Counter = Counter()  # span name -> time covered by its children
        for name, start, end, parent in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[self.spans[parent][0]] += end - start
        solves = [end - start for name, start, end, _ in self.spans if name == "tndfs.solve"]
        values = {
            "data.load_s": total["data.load"],
            "data.adf_calls": calls["data.adf"],
            "data.adf_s": total["data.adf"],
            "data.features_calls": calls["data.features"],
            "data.features_s": total["data.features"],
            "qr.lp_solves": calls["qr.lp"],
            "qr.lp_not_converged": self.counts["qr.lp_not_converged"],
            "qr.leaf_calls": calls["qr.leaf"],
            "qr.solve_s": total["qr.lp"] + total["qr.leaf"],
            "boosting.trees": self.counts["boosting.trees"],
            "forecasting.family_fit_self_s": total["forecasting.family_fit"] - child["forecasting.family_fit"],
            "forecasting.train_s": total["forecasting.train"],
            "forecasting.predict_calls": calls["forecasting.predict"],
            "forecasting.predict_s": total["forecasting.predict"],
            "copula.fit_s": total["copula.fit"],
            "copula.samples": self.counts["copula.samples"],
            "copula.sample_s": total["copula.sample"],
            "tndfs.prepare_s": total["tndfs.prepare"],
            "tndfs.solves": calls["tndfs.solve"],
            "tndfs.solve_s": total["tndfs.solve"],
            "tndfs.solve_p50_ms": 1e3 * statistics.median(solves) if solves else 0.0,
            "tndfs.flow_assignments": calls["tndfs.flow"],
            "tndfs.flow_lp_solves": calls["tndfs.flow_lp"],
            "tndfs.flow_s": total["tndfs.flow"],
            "tndfs.evaluations": calls["tndfs.evaluate"],
            "tndfs.evaluate_s": total["tndfs.evaluate"],
            "pipeline.decisions": calls["pipeline.decide"],
            "pipeline.decide_self_s": total["pipeline.decide"] - child["pipeline.decide"],
            "pipeline.baseline_solves": calls["pipeline.baseline"],
            "pipeline.baseline_s": total["pipeline.baseline"],
            "metrics.predict_s": total["metrics.predict"],
            "metrics.evaluate_s": total["metrics.evaluate"],
            "trace.overhead_pct": overhead_pct,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}

    def dump(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                [{"name": n, "start": s - t0, "end": e - t0, "parent": p} for n, s, e, p in self.spans],
                fh,
            )
            fh.write("\n")
