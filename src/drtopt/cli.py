"""Command-line shell: synth, train, predict, evaluate, optimize, pipeline.

Logs go to stderr; data artifacts go to files under the configured output
directory.  All randomness flows from the configured seed, so reruns are
byte-identical.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from datetime import date
from pathlib import Path

import numpy as np

from . import __version__, config as config_mod, forecasting, metrics, pipeline, synth
from .config import CONFIG_SCHEMA_VERSION, PipelineConfig, load_config
from .copula import export_correlation, export_samples, fit_correlation, sample_joint
from .data import aligned_train_series, counts_at, format_hour, load_od_counts, parse_hour, save_od_counts
from .forecasting import MODEL_SCHEMA_VERSION
from .tndfs import INSTANCE_SCHEMA_VERSION, load_instance, prepare_instance, save_instance

log = logging.getLogger("drtopt")


def _write_json(doc: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _version_text() -> str:
    return (
        f"drtopt {__version__} "
        f"(config schema {CONFIG_SCHEMA_VERSION}, model schema {MODEL_SCHEMA_VERSION}, "
        f"network schema {INSTANCE_SCHEMA_VERSION})"
    )


# ---------------------------------------------------------------------------
# Shared pipeline plumbing
# ---------------------------------------------------------------------------


def _instance_pair_map(dataset, instance):
    """The network's OD pairs and each pair's counts row, matched by the labels of its demand nodes.

    Every demand node must match a data location: a node that matched none
    would read zero demand in every scenario.  A pair without counts is
    named by its labels.
    """
    labels, known = {node.id: node.label for node in instance.demand_nodes}, set(dataset.labels)
    unmatched = [label for label in labels.values() if label not in known]
    if unmatched and len(unmatched) < len(labels):
        raise ValueError(f"network demand nodes {unmatched} match no data location")
    pairs = [] if unmatched else instance.od_pairs()
    if not pairs:
        raise ValueError("no demand-node labels in the network match the data locations")
    return pairs, dataset.rows_of(pairs, labels)


def _network_forecasts(model, dataset, split, lags, pairs, rows):
    """The model's forecasts at `lags`, each keyed by the network pair matched to its pair's counts row."""
    slot = np.full(len(dataset.pairs), -1)
    slot[rows] = np.arange(len(pairs))
    joined = zip(model.pair_order, slot[dataset.rows_of(model.pair_order, model.labels)].tolist())
    keys = [(p, pairs[j]) for p, j in joined if j >= 0]
    forecasts = forecasting.predict_forecasts(model, dataset, split, lags)
    return {lag: {net: per_pair[p] for p, net in keys} for lag, per_pair in forecasts.items()}


def _optimization_lags(cfg: PipelineConfig, dataset) -> np.ndarray:
    if cfg.lags:
        return np.array(sorted(parse_hour(t) for t in cfg.lags), dtype="datetime64[h]")
    return forecasting.evaluation_lags(dataset, cfg.split)


def _fit_copula_mapped(cfg: PipelineConfig, dataset, pairs, rows):
    series = aligned_train_series(dataset, cfg.split, rows)
    return fit_correlation({p: s.values for p, s in zip(pairs, series)}, cfg.copula_min_lags)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    profile_kwargs = {}
    if args.flat_profile:
        profile_kwargs["tod_profile"] = (1.0,) * 24
        profile_kwargs["dow_profile"] = (1.0,) * 7
        profile_kwargs["exam_period"] = None
    spec = synth.SyntheticSpec(
        n_locations=args.locations,
        start=date.fromisoformat(args.start),
        end=date.fromisoformat(args.end),
        rho=args.rho,
        dispersion=args.dispersion,
        base_scale=args.scale,
        seed=args.seed,
        **profile_kwargs,
    )
    dataset = synth.generate_synthetic(spec)
    save_od_counts(out_dir / "counts.csv", dataset)
    instance = synth.network_for(spec, dataset)
    save_instance(instance, out_dir / "network.json")
    _write_json(config_mod.default_config_doc("counts.csv", "network.json", args.seed), out_dir / "config.json")
    log.info("wrote %s, %s, %s", out_dir / "counts.csv", out_dir / "network.json", out_dir / "config.json")
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    dataset = load_od_counts(cfg.counts_csv)
    spec = cfg.model
    if cfg.gboost_grid:
        best, scores = forecasting.gboost_grid_search(
            dataset, cfg.split, spec, list(cfg.gboost_grid), cfg.quantiles
        )
        log.info(
            "grid search over %d points: chose lr=%g depth=%d trees=%d (loss %.3f)",
            len(scores), best.learning_rate, best.max_depth, best.n_trees, min(scores),
        )
        spec = replace(spec, gboost=best)
    model = forecasting.train_model(dataset, cfg.split, spec, cfg.quantiles)
    out = Path(args.model_out) if args.model_out else cfg.output_dir / "model.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    forecasting.save_model(model, out)
    log.info("trained %s/%s model -> %s", spec.family, spec.scope, out)
    return 0


def cmd_predict(args) -> int:
    cfg = load_config(args.config)
    dataset = load_od_counts(cfg.counts_csv)
    model = forecasting.load_model(args.model)
    lags = _optimization_lags(cfg, dataset)
    forecasts = forecasting.predict_forecasts(model, dataset, cfg.split, lags)
    out = Path(args.out) if args.out else cfg.output_dir / "forecasts.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    forecasting.forecasts_to_csv(forecasts, model.labels, out)
    log.info("wrote %d lags of forecasts -> %s", len(forecasts), out)
    return 0


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config)
    dataset = load_od_counts(cfg.counts_csv)
    model = forecasting.load_model(args.model)
    missing = [q for q in cfg.quantiles if q not in model.levels]
    if missing:
        raise ValueError(
            f"config.quantiles: levels {missing} are not in model {args.model} (trained on {list(model.levels)})"
        )
    missing = [q for q in metrics.BAND if q not in model.levels]
    if missing:
        raise ValueError(
            f"model {args.model} lacks the band levels {missing} that ICP and MIL score "
            f"(trained on {list(model.levels)})"
        )
    lags = forecasting.evaluation_lags(dataset, cfg.split)
    forecasts = forecasting.predict_forecasts(model, dataset, cfg.split, lags)
    report = metrics.evaluate_at(forecasts, dataset, model.pair_order, lags, cfg.quantiles, model.labels)
    out = Path(args.out) if args.out else cfg.output_dir / "evaluation.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    metrics.report_csv(report, out, model.labels)
    print(metrics.report_table(report, name=f"{cfg.model.family}/{cfg.model.scope}"))
    return 0


def cmd_optimize(args) -> int:
    cfg = load_config(args.config)
    if cfg.network is None:
        raise ValueError("config.network: required for optimization")
    dataset = load_od_counts(cfg.counts_csv)
    model = forecasting.load_model(args.model)
    instance = load_instance(cfg.network)
    pairs, rows = _instance_pair_map(dataset, instance)
    lags = _optimization_lags(cfg, dataset)

    copula_model = _fit_copula_mapped(cfg, dataset, pairs, rows)
    forecasts = _network_forecasts(model, dataset, cfg.split, lags, pairs, rows)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    export_correlation(copula_model, cfg.output_dir / "correlation.csv")
    prep = prepare_instance(instance)
    for i, lag in enumerate(lags):
        seed = pipeline.scenario_seed(cfg.seed, i)
        result = pipeline.optimize_lag(copula_model, forecasts[lag], instance, cfg.k, seed, prepared=prep)
        if args.dump_samples:
            samples = sample_joint(copula_model, forecasts[lag], cfg.k, seed)
            export_samples(samples, copula_model.pair_order, cfg.output_dir / f"samples_{format_hour(lag)}.csv")
        _write_json(pipeline.scenario_to_json_dict(result), cfg.output_dir / f"scenario_{format_hour(lag)}.json")
        log.info(
            "%s: chose %s (%d/%d samples, mean savings %.2f min)",
            format_hour(lag),
            result.chosen.itinerary(),
            result.histogram[result.chosen_key],
            cfg.k,
            result.mean_time_savings,
        )
    return 0


def cmd_pipeline(args) -> int:
    cfg = load_config(args.config)
    if cfg.network is None:
        raise ValueError("config.network: required for the comparison pipeline")
    dataset = load_od_counts(cfg.counts_csv)
    instance = load_instance(cfg.network)
    pairs, rows = _instance_pair_map(dataset, instance)
    lags = _optimization_lags(cfg, dataset)
    copula_model = _fit_copula_mapped(cfg, dataset, pairs, rows)

    model_forecasts = {}
    for path in args.model:
        model = forecasting.load_model(path)
        for strategy, level in (("median (M)", pipeline.MEDIAN_LEVEL), ("upper-quantile (R)", pipeline.ROBUST_LEVEL)):
            if level not in model.levels:
                raise ValueError(
                    f"model {path} lacks level {level}, which the {strategy} strategy solves at "
                    f"(trained on {list(model.levels)})"
                )
        name = f"{model.spec.family}/{model.spec.scope}"
        if name in model_forecasts:
            name = f"{name}#{len(model_forecasts)}"
        model_forecasts[name] = _network_forecasts(model, dataset, cfg.split, lags, pairs, rows)

    observed = counts_at(dataset, rows, lags)
    comparison = pipeline.compare_strategies(lags, model_forecasts, observed, instance, copula_model, cfg.k, cfg.seed)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    pipeline.comparison_to_csv(comparison, cfg.output_dir / "comparison.csv")
    table = pipeline.comparison_table(comparison)
    (cfg.output_dir / "comparison.txt").write_text(table + "\n", encoding="utf-8")
    print(table)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drtopt",
        description="Demand forecasting and route/frequency optimization for responsive transit",
    )
    parser.add_argument("--version", action="version", version=_version_text())
    parser.add_argument("--log-level", default="INFO", help="stderr logging level")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset, network, and config")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--locations", type=int, default=4)
    p.add_argument("--start", default="2017-11-17")
    p.add_argument("--end", default="2018-01-14")
    p.add_argument("--rho", type=float, default=0.4)
    p.add_argument("--dispersion", type=float, default=4.0)
    p.add_argument("--scale", type=float, default=30.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--flat-profile", action="store_true", help="constant intensity (for calibration checks)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="fit the configured demand model")
    p.add_argument("--config", required=True)
    p.add_argument("--model-out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="emit forecast CSV for the optimization lags")
    p.add_argument("--config", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score a trained model on the test range")
    p.add_argument("--config", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("optimize", help="scenario-optimize each configured lag")
    p.add_argument("--config", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--dump-samples", action="store_true", help="write per-lag sample CSVs for audit")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("pipeline", help="full comparison: sampling vs point estimates vs ground truth")
    p.add_argument("--config", required=True)
    p.add_argument("--model", action="append", required=True, help="trained model JSON (repeatable)")
    p.set_defaults(func=cmd_pipeline)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=getattr(logging, args.log_level.upper(), logging.INFO),
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
