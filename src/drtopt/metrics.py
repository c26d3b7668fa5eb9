"""Evaluation measures for quantile forecasts: loss, coverage, width, crossings.

Each measure scores one float64 array of forecasts, (..., levels, lags),
against truths (..., lags), and reduces its lags axis.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .data import ODDataset, ODPair, counts_at, pair_name
from .qr import QuantileForecast, tilted_loss

BAND = (0.05, 0.95)  # the levels bounding the interval that ICP and MIL score


def stack_forecasts(forecasts: list[list[QuantileForecast]], levels) -> np.ndarray:
    """Each pair's list of per-lag forecasts, at `levels`, as one array (pairs x levels x lags)."""
    n = len(forecasts[0]) if forecasts else 0
    if any(len(per_lag) != n for per_lag in forecasts):
        raise ValueError("every pair needs forecasts at the same number of lags")
    values = [[[f.values[q] for f in per_lag] for q in levels] for per_lag in forecasts]
    return np.array(values, dtype=np.float64).reshape(len(forecasts), len(levels), n)


def _checked(values, levels, truths=None):
    """`values` and `truths` as C-ordered float64: a mean over lags then sums each row as a 1-D mean does."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.ndim < 2 or values.shape[-2] != len(levels):
        raise ValueError(f"forecasts of shape {values.shape} for {len(levels)} levels: need (..., levels, lags)")
    if values.shape[-1] == 0:
        raise ValueError("no lags to score")
    if truths is None:
        return values
    truths = np.ascontiguousarray(truths, dtype=np.float64)
    if truths.shape != values.shape[:-2] + values.shape[-1:]:
        raise ValueError(f"forecasts of shape {values.shape} vs truths of shape {truths.shape}: lags misaligned")
    return values, truths


def _band(values: np.ndarray, levels, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    levels = list(levels)
    if lo not in levels or hi not in levels:
        raise KeyError(f"forecast lacks band levels {lo}/{hi}")
    return values[..., levels.index(lo), :], values[..., levels.index(hi), :]


def mtl(values, truths, levels):
    """Mean tilted loss over lags, summed over quantile levels in the order given."""
    values, truths = _checked(values, levels, truths)
    total = 0.0
    for j, q in enumerate(levels):
        total = total + np.mean(tilted_loss(q, truths, values[..., j, :]), axis=-1)
    return total


def icp(values, truths, levels, lo: float = BAND[0], hi: float = BAND[1]):
    """Fraction of truths inside the [lo, hi] quantile band (edges count as inside)."""
    values, truths = _checked(values, levels, truths)
    lower, upper = _band(values, levels, lo, hi)
    return np.mean((lower <= truths) & (truths <= upper), axis=-1)


def mil(values, levels, lo: float = BAND[0], hi: float = BAND[1]):
    """Mean width of the [lo, hi] quantile band."""
    lower, upper = _band(_checked(values, levels), levels, lo, hi)
    return np.mean(upper - lower, axis=-1)


def crossings(values, levels):
    """Count of strict pairwise quantile inversions summed over lags."""
    ordered = np.asarray(values)[..., np.argsort(levels, kind="stable"), :]
    below, above = np.triu_indices(len(levels), 1)
    return np.count_nonzero(ordered[..., below, :] > ordered[..., above, :], axis=(-2, -1))


@dataclass
class PairMetrics:
    mtl: float
    icp: float
    mil: float
    crossings: int


@dataclass
class EvalReport:
    """Per-pair measures plus across-pair aggregates (population std)."""

    per_pair: dict[ODPair, PairMetrics]
    total_mtl: float
    mean_icp: float
    std_icp: float
    mean_mil: float
    std_mil: float
    mean_crossings: float
    std_crossings: float


def _report(pairs: list, forecasts: list[list[QuantileForecast]], truths, levels) -> EvalReport:
    """The measures of each of `pairs` from its per-lag forecasts and truths, in sorted pair order."""
    order = sorted(range(len(pairs)), key=pairs.__getitem__)
    at = (*levels, *(q for q in BAND if q not in levels))  # `levels` first, then any band level they lack
    values, truths = stack_forecasts([forecasts[i] for i in order], at), np.asarray(truths, dtype=np.float64)[order]
    scored = values[:, : len(levels)]
    losses, icps, mils = mtl(scored, truths, levels), icp(values, truths, at), mil(values, at)
    crosses = crossings(scored, levels)
    per_pair = {pairs[i]: PairMetrics(float(loss), float(cover), float(width), int(cross))
                for i, loss, cover, width, cross in zip(order, losses, icps, mils, crosses)}
    spreads = (float(f(x)) for x in (icps, mils, crosses.astype(np.float64)) for f in (np.mean, np.std))
    return EvalReport(per_pair, float(sum(m.mtl for m in per_pair.values())), *spreads)


def evaluate(forecasts_by_pair: dict[ODPair, list[QuantileForecast]], truths_by_pair: dict, levels) -> EvalReport:
    """Score each pair's per-lag forecasts against its truths (an array) at the same lags."""
    pairs = list(forecasts_by_pair)
    return _report(pairs, [forecasts_by_pair[p] for p in pairs], [truths_by_pair[p] for p in pairs], levels)


def evaluate_at(forecasts, dataset: ODDataset, pairs, lags, levels, labels) -> EvalReport:
    """Score per-lag forecasts of `pairs`, whose ids index `labels`, against the counts observed at `lags`."""
    per_pair = [[forecasts[np.datetime64(t, "h")][p] for t in lags] for p in pairs]
    return _report(list(pairs), per_pair, counts_at(dataset, dataset.rows_of(pairs, labels), lags), levels)


def report_csv(report: EvalReport, path, labels=None) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pair", "mtl", "icp", "mil", "crossings"])
        for pair, m in sorted(report.per_pair.items()):
            writer.writerow([pair_name(pair, labels), f"{m.mtl:.6f}", f"{m.icp:.6f}", f"{m.mil:.6f}", m.crossings])
        writer.writerow(["TOTAL_MTL", f"{report.total_mtl:.6f}", "", "", ""])


def report_table(report: EvalReport, name: str = "model") -> str:
    """Aligned text summary mirroring the per-model comparison layout."""
    lines = [
        f"{'Model':<24} {'Total MTL':>12} {'Mean ICP':>18} {'Mean MIL':>20} {'Mean #cross':>20}",
        f"{name:<24} {report.total_mtl:>12.3f} "
        f"{report.mean_icp:>9.3f} (±{report.std_icp:.3f}) "
        f"{report.mean_mil:>10.3f} (±{report.std_mil:.3f}) "
        f"{report.mean_crossings:>10.3f} (±{report.std_crossings:.3f})",
    ]
    return "\n".join(lines)
