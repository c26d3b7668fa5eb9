"""References for `drtopt.metrics`: the measures scored one forecast at a time.

These are MTL, ICP, MIL, crossings and `evaluate` as they were before the
scorer took one (pairs x levels x lags) array: each rebuilds its arrays from
the `QuantileForecast` dicts of one pair's lags, reads a band's ends from
each forecast, and counts crossings with a Python loop over level pairs.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from drtopt.metrics import EvalReport, PairMetrics
from drtopt.qr import tilted_loss


def _aligned(forecasts, truths) -> np.ndarray:
    truths = np.asarray(truths, dtype=np.float64)
    if len(forecasts) != len(truths):
        raise ValueError(f"{len(forecasts)} forecasts vs {len(truths)} truths: lags misaligned")
    return truths


def _band(forecast, lo: float, hi: float) -> tuple[float, float]:
    if lo not in forecast.values or hi not in forecast.values:
        raise KeyError(f"forecast lacks band levels {lo}/{hi}")
    return forecast.values[lo], forecast.values[hi]


def reference_mtl(forecasts, truths, levels) -> float:
    truths = _aligned(forecasts, truths)
    if len(forecasts) == 0:
        return 0.0
    total = 0.0
    for q in levels:
        preds = np.array([f.values[q] for f in forecasts])
        total += float(np.mean(tilted_loss(q, truths, preds)))
    return total


def reference_icp(forecasts, truths, lo: float = 0.05, hi: float = 0.95) -> float:
    truths = _aligned(forecasts, truths)
    bands = np.array([_band(f, lo, hi) for f in forecasts])
    inside = (bands[:, 0] <= truths) & (truths <= bands[:, 1])
    return float(np.mean(inside))


def reference_mil(forecasts, lo: float = 0.05, hi: float = 0.95) -> float:
    bands = np.array([_band(f, lo, hi) for f in forecasts])
    return float(np.mean(bands[:, 1] - bands[:, 0]))


def reference_crossings(forecasts, levels) -> int:
    levels = sorted(levels)
    total = 0
    for f in forecasts:
        vals = [f.values[q] for q in levels]
        total += sum(1 for i, j in combinations(range(len(levels)), 2) if vals[i] > vals[j])
    return total


def reference_evaluate(forecasts_by_pair, truths_by_pair, levels) -> EvalReport:
    per_pair = {}
    for pair in sorted(forecasts_by_pair):
        fc = forecasts_by_pair[pair]
        truth = truths_by_pair[pair]
        per_pair[pair] = PairMetrics(
            mtl=reference_mtl(fc, truth, levels),
            icp=reference_icp(fc, truth),
            mil=reference_mil(fc),
            crossings=reference_crossings(fc, levels),
        )
    icps = np.array([m.icp for m in per_pair.values()])
    mils = np.array([m.mil for m in per_pair.values()])
    crosses = np.array([float(m.crossings) for m in per_pair.values()])
    return EvalReport(
        per_pair=per_pair,
        total_mtl=float(sum(m.mtl for m in per_pair.values())),
        mean_icp=float(np.mean(icps)),
        std_icp=float(np.std(icps)),
        mean_mil=float(np.mean(mils)),
        std_mil=float(np.std(mils)),
        mean_crossings=float(np.mean(crosses)),
        std_crossings=float(np.std(crosses)),
    )
