"""Scenario-based supply optimization and the strategy comparison harness.

For each lag: draw k joint demand samples from the copula over the forecast
marginals, solve the route/frequency problem per sample, and operate the
most frequent allocation.  The harness compares this against solving with
median and upper-quantile point estimates and with ground-truth demand.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass

import numpy as np

from .copula import GaussianCopulaModel, sample_joint
from .data import ODPair, format_hour
from .qr import QuantileForecast
from .tndfs import (
    DemandVector,
    NetworkInstance,
    RouteDesign,
    _Prepared,
    allocation_values,
    check_demand,
    evaluate_allocation,  # not called here; the benchmark traces it under this module's name
    prepare_instance,
    row_design,
    row_key,
    solve_batch,
    solve_instance,
)

log = logging.getLogger(__name__)

AllocationKey = tuple  # sorted ((stops, buses), ...) as produced by RouteDesign.key()


@dataclass
class ScenarioResult:
    lag: np.datetime64
    sample_keys: list[AllocationKey]
    sample_objectives: np.ndarray
    histogram: dict[AllocationKey, int]
    chosen: RouteDesign
    chosen_key: AllocationKey
    mean_time_savings: float  # mean per-sample optimal objective
    chosen_expected_savings: float  # chosen allocation re-evaluated on every sample


def pick_mode(rows: np.ndarray, objectives: np.ndarray) -> int:
    """Most frequent table row; ties break to the higher mean objective, then the lowest (smallest-key) row."""
    rows, objectives = np.asarray(rows), np.asarray(objectives)
    distinct, counts = np.unique(rows, return_counts=True)
    top = distinct[counts == counts.max()]  # ascending: the first of equal means is the lowest row
    return int(top[np.argmax([np.mean(objectives[rows == row]) for row in top])])


def scenario_seed(seed: int, hour: int, model: int = 0) -> int:
    """The sampling seed of the `hour`-th optimized lag of the `model`-th model (in name order) under `seed`."""
    return int(np.random.SeedSequence(seed, spawn_key=(hour, model)).generate_state(1)[0])


def optimize_lag(
    copula_model: GaussianCopulaModel,
    forecasts: dict[ODPair, QuantileForecast],
    instance: NetworkInstance,
    k: int = 100,
    seed: int = 0,
    threads: int = 1,
    prepared: _Prepared | None = None,
    lag: np.datetime64 | None = None,
) -> ScenarioResult:
    """Sample k joint demands, solve each, and operate the modal allocation.

    `threads` is kept for compatibility and has no effect: the scenario
    solves hold the interpreter lock, so a thread pool only slowed them.
    """
    if k < 1:
        raise ValueError("need at least one sample")
    prep = prepared if prepared is not None else prepare_instance(instance)
    samples = sample_joint(copula_model, forecasts, k, seed)
    check_demand(copula_model.pair_order, samples)
    col = {p: j for j, p in enumerate(copula_model.pair_order)}  # pairs it lacks read a zero column
    lam = np.column_stack([samples, np.zeros(k)])[:, [col.get(p, len(col)) for p in prep.pairs]]

    rows, objectives = solve_batch(prep, lam)
    distinct, first, counts = np.unique(rows, return_index=True, return_counts=True)
    seen = np.argsort(first)  # the rows in the order samples first won them
    key_of = {row: row_key(prep, row) for row in distinct.tolist()}
    mode = pick_mode(rows, objectives)
    chosen = row_design(prep, mode, lam[first[np.searchsorted(distinct, mode)]])
    # the routes in the design's (stops) order, the order evaluate_allocation prices them in
    alloc = tuple((route.id, buses) for route, buses in chosen.allocation)
    if lag is None:
        lag = next(iter(forecasts.values())).lag
    return ScenarioResult(
        lag=np.datetime64(lag, "h"),
        sample_keys=[key_of[row] for row in rows.tolist()],
        sample_objectives=objectives,
        histogram={key_of[row]: count for row, count in zip(distinct[seen].tolist(), counts[seen].tolist())},
        chosen=chosen,
        chosen_key=key_of[mode],
        mean_time_savings=float(np.mean(objectives)),
        chosen_expected_savings=float(np.mean(allocation_values(prep, alloc, lam))),
    )


def optimize_point(
    forecasts: dict[ODPair, QuantileForecast],
    level: float,
    instance: NetworkInstance,
    prepared: _Prepared | None = None,
) -> RouteDesign:
    """Single solve with every pair's demand collapsed to one quantile."""
    rates = {}
    for pair, fc in forecasts.items():
        if level not in fc.values:
            raise KeyError(f"forecast for {pair} lacks level {level}")
        rates[pair] = fc.values[level]
    return solve_instance(instance, DemandVector(rates), prepared)


def optimize_ground_truth(
    truth: dict[ODPair, float],
    instance: NetworkInstance,
    prepared: _Prepared | None = None,
) -> RouteDesign:
    """Single solve with observed demand (the hindsight baseline)."""
    return solve_instance(instance, DemandVector(dict(truth)), prepared)


# ---------------------------------------------------------------------------
# Strategy comparison (sampling vs point estimates vs ground truth)
# ---------------------------------------------------------------------------

STRATEGIES = ("P", "M", "R")  # sampling / median / upper-quantile
MEDIAN_LEVEL = 0.50
ROBUST_LEVEL = 0.95


@dataclass
class ComparisonRow:
    lag: np.datetime64
    model: str
    gt_key: AllocationKey
    gt_itinerary: str
    strategy_keys: dict[str, AllocationKey]
    strategy_itineraries: dict[str, str]
    matches: dict[str, bool]
    occurrences: dict[AllocationKey, int]  # sampling histogram
    mean_time_savings: float


def compare_strategies(
    lags,
    model_forecasts: dict[str, dict[np.datetime64, dict[ODPair, QuantileForecast]]],
    observed: np.ndarray,
    instance: NetworkInstance,
    copula_model: GaussianCopulaModel,
    k: int = 100,
    seed: int = 0,
) -> list[ComparisonRow]:
    """Hindsight vs sampling/median/upper-quantile designs, one row per (lag, model).

    `observed` is the hindsight demand, `instance.od_pairs()` by `lags`, as `data.counts_at` returns it.
    """
    prep = prepare_instance(instance)
    pairs = instance.od_pairs()
    observed = np.asarray(observed, dtype=np.float64)
    if observed.shape != (len(pairs), len(lags)):
        raise ValueError(f"observed demand of shape {observed.shape}, not (pairs, lags) = {(len(pairs), len(lags))}")
    rows = []
    model_names = sorted(model_forecasts)
    for lag_idx, lag in enumerate(lags):
        lag = np.datetime64(lag, "h")
        gt = optimize_ground_truth(dict(zip(pairs, observed[:, lag_idx].tolist())), instance, prep)
        for model_idx, name in enumerate(model_names):
            forecasts = model_forecasts[name][lag]
            lag_seed = scenario_seed(seed, lag_idx, model_idx)
            scenario = optimize_lag(copula_model, forecasts, instance, k, lag_seed, prepared=prep, lag=lag)
            median = optimize_point(forecasts, MEDIAN_LEVEL, instance, prep)
            robust = optimize_point(forecasts, ROBUST_LEVEL, instance, prep)
            designs = {"P": scenario.chosen, "M": median, "R": robust}
            keys = {s: design.key() for s, design in designs.items()}
            itineraries = {s: design.itinerary() for s, design in designs.items()}
            rows.append(
                ComparisonRow(
                    lag=lag,
                    model=name,
                    gt_key=gt.key(),
                    gt_itinerary=gt.itinerary(),
                    strategy_keys=keys,
                    strategy_itineraries=itineraries,
                    matches={s: keys[s] == gt.key() for s in STRATEGIES},
                    occurrences=scenario.histogram,
                    mean_time_savings=scenario.mean_time_savings,
                )
            )
    return rows


def comparison_to_csv(rows: list[ComparisonRow], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["lag", "model", "strategy", "itinerary", "matches_gt", "occurrences", "mean_time_savings"]
        )
        for row in rows:
            writer.writerow([format_hour(row.lag), row.model, "GT", row.gt_itinerary, "", "", ""])
            sampled = [row.occurrences.get(row.strategy_keys["P"], 0), f"{row.mean_time_savings:.6f}"]
            for s in STRATEGIES:
                cells = [row.strategy_itineraries[s], int(row.matches[s]), *(sampled if s == "P" else ["", ""])]
                writer.writerow([format_hour(row.lag), row.model, s, *cells])


def comparison_table(rows: list[ComparisonRow]) -> str:
    """Aligned text table; asterisks mark agreement with the hindsight solution."""
    out = [f"{'lag':<16} {'model':<16} {'GT':<24} {'P':<28} {'M':<24} {'R':<24}"]
    for row in rows:
        cells = {s: "*" if row.matches[s] else row.strategy_itineraries[s] for s in STRATEGIES}
        cells["P"] += f" ({row.occurrences.get(row.strategy_keys['P'], 0)})"
        out.append(
            f"{format_hour(row.lag):<16} {row.model:<16} {row.gt_itinerary:<24} "
            f"{cells['P']:<28} {cells['M']:<24} {cells['R']:<24}"
        )
    return "\n".join(out)


def scenario_to_json_dict(result: ScenarioResult) -> dict:
    ranked = sorted(result.histogram.items(), key=lambda kv: (-kv[1], kv[0]))
    return {
        "lag": format_hour(result.lag),
        "histogram": [
            {
                "allocation": [{"stops": list(stops), "buses": k} for stops, k in key],
                "count": count,
            }
            for key, count in ranked
        ],
        "chosen": result.chosen.to_json_dict(),
        "mean_time_savings": result.mean_time_savings,
        "chosen_expected_savings": result.chosen_expected_savings,
    }
