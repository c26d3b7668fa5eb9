"""Evaluation measures for quantile forecasts: loss, coverage, width, crossings."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .data import ODDataset, ODPair, counts_at, pair_name
from .qr import QuantileForecast, tilted_loss


def _aligned(forecasts: list[QuantileForecast], truths) -> np.ndarray:
    truths = np.asarray(truths, dtype=np.float64)
    if len(forecasts) != len(truths):
        raise ValueError(f"{len(forecasts)} forecasts vs {len(truths)} truths: lags misaligned")
    return truths


def mtl(forecasts: list[QuantileForecast], truths, levels) -> float:
    """Mean tilted loss summed over quantile levels, averaged over lags."""
    truths = _aligned(forecasts, truths)
    if len(forecasts) == 0:
        return 0.0
    total = 0.0
    for q in levels:
        preds = np.array([f.values[q] for f in forecasts])
        total += float(np.mean(tilted_loss(q, truths, preds)))
    return total


def icp(forecasts: list[QuantileForecast], truths, lo: float = 0.05, hi: float = 0.95) -> float:
    """Fraction of truths inside the [lo, hi] quantile band (edges count as inside)."""
    truths = _aligned(forecasts, truths)
    bands = np.array([f.band(lo, hi) for f in forecasts])
    inside = (bands[:, 0] <= truths) & (truths <= bands[:, 1])
    return float(np.mean(inside))


def mil(forecasts: list[QuantileForecast], lo: float = 0.05, hi: float = 0.95) -> float:
    """Mean width of the [lo, hi] quantile band."""
    bands = np.array([f.band(lo, hi) for f in forecasts])
    return float(np.mean(bands[:, 1] - bands[:, 0]))


def crossings(forecasts: list[QuantileForecast], levels) -> int:
    """Count of strict pairwise quantile inversions summed over lags."""
    levels = sorted(levels)
    total = 0
    for f in forecasts:
        vals = [f.values[q] for q in levels]
        total += sum(1 for i, j in combinations(range(len(levels)), 2) if vals[i] > vals[j])
    return total


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


def evaluate(
    forecasts_by_pair: dict[ODPair, list[QuantileForecast]],
    truths_by_pair: dict[ODPair, np.ndarray],
    levels,
) -> EvalReport:
    per_pair = {}
    for pair in sorted(forecasts_by_pair):
        fc = forecasts_by_pair[pair]
        truth = truths_by_pair[pair]
        per_pair[pair] = PairMetrics(
            mtl=mtl(fc, truth, levels),
            icp=icp(fc, truth),
            mil=mil(fc),
            crossings=crossings(fc, levels),
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


def evaluate_at(forecasts, dataset: ODDataset, pairs, lags, levels, labels) -> EvalReport:
    """Score per-lag forecasts of `pairs`, whose ids index `labels`, against the counts observed at `lags`."""
    by_pair = {p: [forecasts[np.datetime64(t, "h")][p] for t in lags] for p in pairs}
    return evaluate(by_pair, dict(zip(pairs, counts_at(dataset, pairs, lags, labels))), levels)


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
