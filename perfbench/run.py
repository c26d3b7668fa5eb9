#!/usr/bin/env python3
"""Benchmark of the online predict-sample-solve loop of drtopt.

    python3 perfbench/run.py --workload campus4-linear --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; drtopt is imported from ``src/``.  The
benchmark generates the workload's counts CSV, network and config with
``drtopt.synth`` under ``perfbench/work/`` and drives the program through the
public functions the CLI uses: load and set up, ``forecasting.train_model``,
then for each decision hour ``predict_forecasts`` and ``pipeline.optimize_lag``
with the CLI's seeds, then the median, 95%-quantile and hindsight baselines.

Times are rescaled to a nominal host speed by reference slices run between
calls into the program (see refclock.py).  With ``--trace 1`` the run records
spans at every layer instead and prints the per-layer metrics.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
README.md lists the workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

# one process, one thread: BLAS threads would compete with the measured work
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from drtopt import boosting, config, copula, data, forecasting, metrics, pipeline, qr, synth, tndfs  # noqa: E402

import checks  # noqa: E402
import refclock  # noqa: E402
import tracing  # noqa: E402


@dataclass(frozen=True)
class Workload:
    locations: int
    fleet: int  # K
    routes: int  # nu
    capacity: float  # passengers per bus trip
    family: str
    k: int  # scenarios per decision
    hours: int | None  # decision hours, spread over the test week; None = all
    gboost: dict | None = None
    daytime: tuple[int, int] | None = None  # only weekday hours in this range


# Every workload's counts and network come from synth seed SYNTH_SEED (the
# 4-location demo of the CLI's README); the run's --seed is the config seed,
# from which the CLI derives each decision hour's scenario seed.
SYNTH_SEED = 7
WORKLOADS = {
    # the paper's case-study shape; capacity never binds
    "campus4-linear": Workload(4, fleet=2, routes=2, capacity=40.0, family="linear", k=100, hours=None),
    # size-3 route sets: the solver's enumeration is nearly all of a decision
    "campus5-nu3": Workload(5, fleet=3, routes=3, capacity=40.0, family="linear", k=10, hours=12),
    # small shuttles: some allocations bind and reach the flow LP; boosted trees
    "shuttle4-gboost": Workload(
        4, fleet=3, routes=2, capacity=14.0, family="gboost", k=400, hours=None, daytime=(10, 16),
        gboost={"learning_rate": 0.3, "max_depth": 2, "n_trees": 6},
    ),
}
SETUP_REPEATS = 7
EXHAUSTIVE_SAMPLES = 3  # scenarios of the first decision hour checked by enumeration
OVERHEAD_MIN_S = 3.0  # untraced decision time compared against traced in --trace 1


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float, help="minimum length of the decision phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def make_inputs(name: str, seed: int, out: Path) -> Path:
    """Write counts.csv, network.json and config.json for one workload and seed."""
    wl = WORKLOADS[name]
    spec = synth.SyntheticSpec(n_locations=wl.locations, seed=SYNTH_SEED)
    dataset = synth.generate_synthetic(spec)
    network = synth.network_for(spec, dataset, fleet_size=wl.fleet, capacity=wl.capacity, max_routes=wl.routes)
    out.mkdir(parents=True, exist_ok=True)
    data.save_od_counts(out / "counts.csv", dataset)
    tndfs.save_instance(network, out / "network.json")

    lags = forecasting.evaluation_lags(dataset, data.campus_2017_split())
    if wl.daytime is not None:
        hour = lags.astype("int64") % 24
        weekday = (lags.astype("datetime64[D]").astype("int64") + 3) % 7 < 5
        lags = lags[weekday & (hour >= wl.daytime[0]) & (hour <= wl.daytime[1])]
    if wl.hours is not None:
        lags = lags[np.linspace(0, len(lags) - 1, wl.hours).round().astype(int)]
    doc = config.default_config_doc("counts.csv", "network.json", seed)
    doc["model"]["family"] = wl.family
    if wl.gboost:
        doc["model"]["gboost"] = wl.gboost
    doc["optimize"] = {"k": wl.k, "lags": [data.format_hour(t) for t in lags]}
    with open(out / "config.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    return out / "config.json"


# ---------------------------------------------------------------------------
# The program's steps, called the way the CLI calls them
# ---------------------------------------------------------------------------


@dataclass
class Setup:
    cfg: object
    dataset: object
    instance: object
    mapping: dict  # dataset pair -> instance pair
    prep: object
    copula: object
    lags: list


def set_up(cfg_path: Path) -> Setup:
    """Load config, counts and network; prepare the instance; fit the copula."""
    cfg = config.load_config(cfg_path)
    dataset = data.load_od_counts(cfg.counts_csv)
    instance = tndfs.load_instance(cfg.network)
    by_label = {loc.label: loc.id for loc in dataset.locations}
    mapping = {
        data.ODPair(by_label[o.label], by_label[d.label]): data.ODPair(o.id, d.id)
        for o in instance.demand_nodes
        for d in instance.demand_nodes
        if o.id != d.id and o.label in by_label and d.label in by_label
    }
    prep = tndfs.prepare_instance(instance)
    history = {}
    for data_pair, inst_pair in sorted(mapping.items()):
        s = dataset.series[data_pair]
        keep = cfg.split.in_train(s.timestamps) & ~cfg.split.mask_array(s.timestamps)
        history[inst_pair] = s.counts[keep].astype(float)
    cop = copula.fit_correlation(history, cfg.copula_min_lags)
    lags = [np.datetime64(t, "h") for t in sorted(data.parse_hour(t) for t in cfg.lags)]
    return Setup(cfg, dataset, instance, mapping, prep, cop, lags)


def lag_seed(cfg, i: int) -> int:
    return int(np.random.SeedSequence(cfg.seed, spawn_key=(i, 0)).generate_state(1)[0])


def decide(s: Setup, model, i: int):
    """One hour's decision: predict the hour, then sample, solve and pick the mode."""
    lag = s.lags[i]
    raw = forecasting.predict_forecasts(model, s.dataset, s.cfg.split, np.array([lag]))[lag]
    fc = {s.mapping[p]: f for p, f in raw.items() if p in s.mapping}
    result = pipeline.optimize_lag(s.copula, fc, s.instance, s.cfg.k, lag_seed(s.cfg, i), s.cfg.threads, s.prep, lag)
    return fc, result


def truth_at(s: Setup, lag) -> dict:
    out = {}
    for data_pair, inst_pair in s.mapping.items():
        series = s.dataset.series[data_pair]
        idx = int(np.searchsorted(series.timestamps, lag))
        if idx >= len(series) or series.timestamps[idx] != lag:
            raise ValueError(f"no observation for {data_pair} at {data.format_hour(lag)}")
        out[inst_pair] = float(series.counts[idx])
    return out


def warm_up(cfg_path: Path, clock) -> None:
    """Untimed: imports, HiGHS, the solver and the kernel run once before timing."""
    for _ in range(10):
        clock.slice()
    s = set_up(cfg_path)
    rng = np.random.default_rng(0)
    X = np.column_stack([np.ones(60), rng.normal(size=60)])
    qr.fit_lqr(X, X[:, 1] + rng.normal(size=60), (0.5,))
    mean = {p: 10.0 for p in s.prep.pairs}
    tndfs.solve_instance(s.instance, tndfs.DemandVector(mean), s.prep)


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


def run(args) -> dict:
    wl = WORKLOADS[args.workload]
    work = HERE / "work" / f"{args.workload}-s{args.seed}"
    cfg_path = make_inputs(args.workload, args.seed, work)
    (HERE / "runs").mkdir(exist_ok=True)
    net = checks.Net.load(work / "network.json")

    broken = checks.self_test()
    if broken:
        raise SystemExit(f"self-test: checks {broken} accept a planted wrong output")

    clock = refclock.RefClock()
    warm_up(cfg_path, clock)
    modules = {"data": data, "forecasting": forecasting, "qr": qr, "boosting": boosting,
               "copula": copula, "pipeline": pipeline, "tndfs": tndfs, "metrics": metrics}
    tracer = tracing.Tracer() if args.trace else None
    predict_all = forecasting.predict_forecasts  # the evaluation's predict, traced apart from decisions
    if tracer:
        tracer.install(modules)
        predict_all = tracer.span("metrics.predict", predict_all)
    timed = not args.trace

    phases = [("setup", time.perf_counter())]
    # set-up, repeated
    setup_times = []
    for _ in range(SETUP_REPEATS):
        if timed:
            clock.slice()
        t0 = time.perf_counter()
        s = set_up(cfg_path)
        setup_times.append((t0, time.perf_counter()))
    if timed:
        clock.slice()

    phases.append(("fit", time.perf_counter()))
    # fit, with reference slices around each per-pair fit
    fits = []  # (X, y, fitted per-pair model)
    patches = tracing.Patches()

    def capture(fit):
        def wrapper(X, y, *a, **kw):
            model = fit(X, y, *a, **kw)
            fits.append((X, y, model))
            return model
        return wrapper

    def sliced(fit):
        def wrapper(*a, **kw):
            clock.slice()
            try:
                return fit(*a, **kw)
            finally:
                clock.slice()
        return wrapper

    def ticked(step):
        def wrapper(*a, **kw):
            try:
                return step(*a, **kw)
            finally:
                clock.tick()
        return wrapper

    for mod, attr in ((qr, "fit_lqr"), (boosting, "fit_gboost")):
        patches.wrap(mod, attr, capture)
        if timed:
            patches.wrap(mod, attr, sliced)
    if timed:  # and within the fits, every TICK_S at the next LP or leaf
        patches.wrap(qr, "linprog", ticked)
        patches.wrap(boosting, "pinball_minimizing_constant", ticked)
    failures = {"fit": []}  # operation ("fit" or (pass, hour)) -> failed checks
    errors = {}  # operation -> exception it raised
    t0 = time.perf_counter()
    try:
        model = forecasting.train_model(s.dataset, s.cfg.split, s.cfg.model, s.cfg.quantiles)
    except Exception as exc:  # the fit is one operation; report it as failed
        errors["fit"] = repr(exc)
        model = None
    fit_span = (t0, time.perf_counter())
    patches.restore()
    if timed:
        clock.slice()

    phases.append(("decide", time.perf_counter()))
    # decisions: whole passes over the decision hours until --seconds have gone
    hours = len(s.lags)
    first = [None] * hours
    hour_spans = []
    passes = 0
    if timed:  # within an hour, a slice every TICK_S at the next scenario solve
        patches.wrap(pipeline, "solve_instance", ticked)
    start = time.perf_counter()
    while model is not None:
        for i in range(hours):
            if timed:
                clock.slice()
            t0 = time.perf_counter()
            try:
                out = decide(s, model, i)
            except Exception as exc:  # an hour's decision is one operation
                errors[(passes, i)] = repr(exc)
                continue
            hour_spans.append((t0, time.perf_counter()))
            if passes == 0:
                first[i] = out
            elif first[i] is not None and out[1].chosen_key != first[i][1].chosen_key:
                failures[(passes, i)] = ["decision differs from the first pass"]
        passes += 1
        if args.trace or time.perf_counter() - start >= args.seconds:
            break
    patches.restore()
    if timed:
        clock.slice()

    phases.append(("baselines", time.perf_counter()))
    # baselines and quality on observed demand (untimed)
    baselines = {}
    for i, done in enumerate(first):
        if done is None:
            continue
        fc, _ = done
        try:
            truth = truth_at(s, s.lags[i])
            baselines[i] = (
                pipeline.optimize_point(fc, pipeline.MEDIAN_LEVEL, s.instance, s.prep),
                pipeline.optimize_point(fc, pipeline.ROBUST_LEVEL, s.instance, s.prep),
                pipeline.optimize_ground_truth(truth, s.instance, s.prep),
                truth,
            )
        except Exception as exc:  # fails the first pass's decision of this hour
            errors[(0, i)] = repr(exc)
    report = by_pair = truths = None
    if model is not None:
        try:
            eval_lags = forecasting.evaluation_lags(s.dataset, s.cfg.split)
            forecasts = predict_all(model, s.dataset, s.cfg.split, eval_lags)
            by_pair = {p: [forecasts[t][p] for t in eval_lags] for p in model.pair_order}
            truths = {}
            for p in model.pair_order:
                series = s.dataset.series[p]
                truths[p] = series.counts[np.searchsorted(series.timestamps, eval_lags)].astype(float)
            report = metrics.evaluate(by_pair, truths, s.cfg.quantiles)
        except Exception as exc:  # fails the fit's operation
            errors["fit"] = repr(exc)

    phases.append(("overhead", time.perf_counter()))
    overhead = None
    if tracer:
        tracer.uninstall()
        overhead = trace_overhead(s, model, modules, sorted(baselines), clock) if baselines else None

    phases.append(("checks", time.perf_counter()))
    # checks (untimed, original functions)
    realized = []
    if report is not None:
        try:
            for X, y, fitted in fits:
                if hasattr(fitted, "coef"):
                    failures["fit"] += checks.lp_optimality(X, y, fitted.coef)
                else:
                    failures["fit"] += checks.loss_path(fitted.train_loss)
            failures["fit"] += checks.quantile_order(f for fcs in by_pair.values() for f in fcs)
            failures["fit"] += checks.mtl_matches(by_pair, truths, s.cfg.quantiles, report.total_mtl)
        except Exception as exc:
            errors["fit"] = repr(exc)
    for i, done in enumerate(first):
        if i not in baselines:
            continue
        try:
            failures[(0, i)], value = check_hour(s, net, i, done, baselines[i])
        except Exception as exc:
            errors[(0, i)] = repr(exc)
            continue
        realized.append(value)
    if model is None:  # no decision can be made without a model
        errors.update({(0, i): "no model" for i in range(hours)})

    attempted = 1 + max(passes, 1) * hours
    failed_ops = set(errors) | {op for op, f in failures.items() if f}
    check_failed = any(failures.values())

    phases.append(("end", time.perf_counter()))
    record = {
        "phase_s": {a[0]: b[1] - a[1] for a, b in zip(phases, phases[1:])},
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": passes, "hours": hours, "k": wl.k, "errors": {str(k): v for k, v in errors.items()},
        "check_failures": {str(k): v for k, v in failures.items() if v},
    }
    if report is None or not realized:
        raise SystemExit(f"{args.workload}: nothing left to measure; errors: {record['errors']}")
    if tracer:
        metrics_out = tracer.metrics(overhead)
        record["per_layer"] = metrics_out
        tracer.dump(HERE / "runs" / f"{args.workload}-s{args.seed}-spans.json")
    else:
        metrics_out, detail = end_to_end(clock, setup_times, fit_span, hour_spans, wl.k, report, realized)
        record.update(detail)
    return {
        "record": record,
        "result": {"correct": not check_failed, "attempted": attempted,
                   "failed": len(failed_ops), "metrics": metrics_out},
    }


def check_hour(s: Setup, net, i: int, done, baseline) -> tuple[list[str], float]:
    """Every check on one hour's decision; returns failures and the realized savings."""
    fc, result = done
    median, robust, gt, truth = baseline
    cfg, inst, prep = s.cfg, s.instance, s.prep
    pairs = s.copula.pair_order
    samples = copula.sample_joint(s.copula, fc, cfg.k, lag_seed(cfg, i))
    rows = [dict(zip(pairs, map(float, row))) for row in samples]

    fails = checks.quantile_order(fc.values())
    fails += checks.samples_in_support(samples, fc, pairs)
    fails += checks.histogram_mode(result.histogram, result.chosen_key, cfg.k)
    chosen_on = [tndfs.evaluate_allocation(inst, result.chosen.allocation, tndfs.DemandVector(r), prep)
                 for r in rows]
    fails += checks.optimum_dominates(result.sample_objectives, [d.objective for d in chosen_on])

    operated = tndfs.evaluate_allocation(inst, result.chosen.allocation, tndfs.DemandVector(truth), prep)
    chosen_row = rows[result.sample_keys.index(result.chosen_key)]
    for design, demand in (
        (result.chosen, chosen_row),
        (operated, truth),
        (median, {p: f.values[pipeline.MEDIAN_LEVEL] for p, f in fc.items()}),
        (robust, {p: f.values[pipeline.ROBUST_LEVEL] for p, f in fc.items()}),
        (gt, truth),
    ):
        fails += checks.design_feasible(design, demand, net)
    on_truth = {
        "P": operated.objective,
        "M": tndfs.evaluate_allocation(inst, median.allocation, tndfs.DemandVector(truth), prep).objective,
        "R": tndfs.evaluate_allocation(inst, robust.allocation, tndfs.DemandVector(truth), prep).objective,
    }
    fails += checks.hindsight_dominates(gt.objective, on_truth)
    if i == 0:
        for j in range(min(EXHAUSTIVE_SAMPLES, cfg.k)):
            fails += checks.matches_exhaustive(net, rows[j], float(result.sample_objectives[j]))
        fails += checks.matches_exhaustive(net, truth, gt.objective)
    return fails, operated.objective


def trace_overhead(s: Setup, model, modules, hours, clock) -> float:
    """Per cent by which tracing slows decisions: hours run untraced and traced in turn.

    Each decision is rescaled by reference slices like the untraced run's times.
    """
    probe = tracing.Tracer()
    spans = {False: [], True: []}
    for n, i in enumerate(hours):
        for with_trace in ((False, True) if n % 2 == 0 else (True, False)):
            if with_trace:
                probe.install(modules)
            clock.slice()
            t0 = time.perf_counter()
            decide(s, model, i)
            spans[with_trace].append((t0, time.perf_counter()))
            if with_trace:
                probe.uninstall()
        probe.spans.clear()
        if n >= 1 and sum(b - a for a, b in spans[False]) >= OVERHEAD_MIN_S:
            break
    clock.slice()
    plain, traced = (sum(clock.measure(a, b)[0] for a, b in spans[t]) for t in (False, True))
    return 100.0 * (traced / plain - 1.0)


def end_to_end(clock, setup_times, fit_span, hour_spans, k, report, realized) -> tuple[dict, dict]:
    setups = [clock.measure(a, b) for a, b in setup_times]
    fit = clock.measure(*fit_span)
    per_hour = [clock.measure(a, b) for a, b in hour_spans]
    decide_s = sum(h[0] for h in per_hour)

    def med(rows, col):
        return statistics.median(r[col] for r in rows)

    values = {
        "setup_s": (med(setups, 0), med(setups, 1), med(setups, 2)),
        "fit_s": fit,
        "decide_p50_ms": (1e3 * med(per_hour, 0), 1e3 * med(per_hour, 1), med(per_hour, 2)),
        "scenarios_per_s": (k * len(per_hour) / decide_s, k * len(per_hour) / sum(h[1] for h in per_hour),
                            sum(h[2] * h[1] for h in per_hour) / sum(h[1] for h in per_hour)),
        "mtl": (report.total_mtl, None, None),
        "realized_savings": (statistics.fmean(realized), None, None),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, None, None),
    }
    units = {"setup_s": "s", "fit_s": "s", "decide_p50_ms": "ms", "scenarios_per_s": "1/s",
             "mtl": "pax", "realized_savings": "pax-min", "peak_rss_mb": "MB"}
    metrics_out = {name: {"value": v[0], "unit": units[name]} for name, v in values.items()}
    slices = clock.durations()
    detail = {
        "raw": {name: v[1] for name, v in values.items() if v[1] is not None},
        "ref_slice_ms": {name: 1e3 * v[2] for name, v in values.items() if v[2] is not None},
        "slice_ms": {"count": len(slices), "median": 1e3 * statistics.median(slices),
                     "nominal": 1e3 * refclock.NOMINAL_SLICE_S},
        "hour_ms": [[1e3 * h[0], 1e3 * h[1]] for h in per_hour],
        "setup_s": [[h[0], h[1]] for h in setups],
    }
    return metrics_out, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    out = run(args)
    record, result = out["record"], out["result"]
    with open(HERE / "runs" / f"{args.workload}-s{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({**record, "result": result}, fh, indent=1)
        fh.write("\n")
    print(f"{args.workload} seed {args.seed}: {result['attempted']} operations, {result['failed']} failed, "
          f"{record['passes']} pass(es) over {record['hours']} hours at k={record['k']}")
    for problem in list(record["errors"].values()) + [m for v in record["check_failures"].values() for m in v][:20]:
        print("  FAILED", problem)
    for name, m in result["metrics"].items():
        extra = ""
        if name in record.get("raw", {}):
            extra = f"  raw {record['raw'][name]:.6g}  ref slice {record['ref_slice_ms'][name]:.4f} ms"
        print(f"  {name:32s} {m['value']:>14.6g} {m['unit']:8s}{extra}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    warnings.simplefilter("ignore", UserWarning)  # ADF notes; counted in the trace instead
    sys.exit(main())
