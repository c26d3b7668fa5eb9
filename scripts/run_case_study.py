#!/usr/bin/env python3
"""End-to-end case study on generated data.

Generates a campus-like season of hourly OD counts, fits several demand
models, scores them on the held-out week, and runs the scenario-based route
optimization for one test day, comparing against median / worst-case point
estimates and the hindsight solution.

    python scripts/run_case_study.py --out-dir runs/demo --seed 7
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from drtopt import forecasting, metrics, pipeline, synth
from drtopt.boosting import GBoostHyper
from drtopt.copula import export_correlation, fit_correlation
from drtopt.data import CAMPUS_2017_EXAMS, aligned_train_series, campus_2017_split, counts_at, save_od_counts
from drtopt.forecasting import ModelSpec
from drtopt.tndfs import save_instance


def model_specs(quick: bool) -> dict[str, ModelSpec]:
    specs = {
        "hp": ModelSpec(family="hp"),
        "linear": ModelSpec(family="linear", exam_period=CAMPUS_2017_EXAMS),
    }
    if not quick:
        specs["linear_pooled"] = ModelSpec(
            family="linear", scope="pooled", exam_period=CAMPUS_2017_EXAMS
        )
        specs["gboost"] = ModelSpec(
            family="gboost", exam_period=CAMPUS_2017_EXAMS, gboost=GBoostHyper(0.2, 2, 40)
        )
    return specs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="runs/case_study")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--locations", type=int, default=4)
    ap.add_argument("--samples", type=int, default=100)
    ap.add_argument("--hours", type=int, nargs=2, default=(8, 18), metavar=("FROM", "TO"))
    ap.add_argument("--capacity", type=float, default=12.0, help="passengers per vehicle trip")
    ap.add_argument("--quick", action="store_true", help="fewer models, fewer samples")
    args = ap.parse_args(argv)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    k = 25 if args.quick else args.samples
    split = campus_2017_split()

    print(f"generating {args.locations}-location dataset (seed {args.seed})")
    spec = synth.SyntheticSpec(n_locations=args.locations, rho=0.5, seed=args.seed)
    dataset = synth.generate_synthetic(spec)
    save_od_counts(out / "counts.csv", dataset)
    instance = synth.network_for(spec, dataset, capacity=args.capacity)
    save_instance(instance, out / "network.json")

    lags = np.array(
        [np.datetime64(f"2018-01-08T{h:02d}", "h") for h in range(args.hours[0], args.hours[1] + 1)]
    )

    eval_lags = forecasting.evaluation_lags(dataset, split)
    model_forecasts = {}
    for name, mspec in model_specs(args.quick).items():
        t0 = time.time()
        model = forecasting.train_model(dataset, split, mspec)
        forecasting.save_model(model, out / f"model_{name}.json")

        forecasts = forecasting.predict_forecasts(model, dataset, split, eval_lags)
        report = metrics.evaluate_at(forecasts, dataset, model.pair_order, eval_lags, model.levels, model.labels)
        metrics.report_csv(report, out / f"evaluation_{name}.csv", model.labels)
        print(metrics.report_table(report, name=name))
        print(f"  ({time.time() - t0:.1f}s to fit + score)")

        model_forecasts[name] = {
            np.datetime64(t, "h"): forecasts[np.datetime64(t, "h")] for t in lags
        }

    history = aligned_train_series(dataset, split, range(len(dataset.pairs)))
    copula_model = fit_correlation({s.pair: s.values for s in history})
    export_correlation(copula_model, out / "correlation.csv", dataset.labels)

    observed = counts_at(dataset, dataset.rows_of(instance.od_pairs()), lags)

    print(f"\ncomparing strategies over {len(lags)} lags with k={k} samples")
    t0 = time.time()
    rows = pipeline.compare_strategies(
        lags, model_forecasts, observed, instance, copula_model, k=k, seed=args.seed
    )
    pipeline.comparison_to_csv(rows, out / "comparison.csv")
    table = pipeline.comparison_table(rows)
    (out / "comparison.txt").write_text(table + "\n", encoding="utf-8")
    print(table)
    print(f"({time.time() - t0:.1f}s to optimize)")

    gt_matches = {
        s: sum(row.matches[s] for row in rows) / len(rows) for s in pipeline.STRATEGIES
    }
    print("\nfraction of (lag, model) cells matching the hindsight solution:")
    for s, frac in gt_matches.items():
        print(f"  {s}: {frac:.2f}")
    print(f"\nartifacts in {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
