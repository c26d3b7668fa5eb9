"""Gaussian copula over per-OD demand marginals.

Historical counts are rank-transformed into a standard-normal layer where a
single correlation matrix is estimated offline; joint demand samples are then
drawn by pushing correlated normals through the inverse forecast CDFs, all
pairs at once.
"""

from __future__ import annotations

import csv
import logging
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special

from .data import ODPair, pair_name
from .qr import QuantileForecast

log = logging.getLogger(__name__)

MIN_EIGENVALUE = 1e-8


def marginal_knots(pair_order, forecasts: dict[ODPair, QuantileForecast]) -> tuple[np.ndarray, np.ndarray]:
    """Knots of every pair's piecewise-linear forecast CDF: levels (L + 2), values (pairs x L + 2).

    Each CDF runs through the pair's forecast quantiles, from (0, 0) up to
    level 1 at the top quantile plus the bottom one.  Equal values are kept
    as jumps (an all-zero forecast is a point mass at zero).  Every pair must
    forecast the same levels.  Raises naming the first bad pair in `pair_order`.
    """
    maps = [forecasts[pair].values for pair in pair_order]
    levels = sorted(maps[0])
    # the pairs before the first whose levels differ from the first pair's
    shared = next((i for i, m in enumerate(maps) if m.keys() != maps[0].keys()), len(maps))
    quantiles = np.array([[m[q] for q in levels] for m in maps[:shared]], dtype=np.float64)
    values = np.column_stack([np.zeros(shared), quantiles, quantiles[:, -1] + quantiles[:, 0]])
    knot_levels = np.array([0.0, *levels, 1.0])
    failures = (
        (np.any(values[:, 1:] < values[:, :-1], axis=1), "forecast quantiles must be non-decreasing to form a CDF"),
        (~np.isfinite(values).all(axis=1) | ~np.isfinite(knot_levels).all(), "knots must be finite, got values {}"),
        (np.full(shared, np.any(np.diff(knot_levels) <= 0)), "knot levels must be strictly increasing"),
    )
    bad = np.column_stack([failed for failed, _ in failures])
    if bad.any():
        i = int(np.argmax(bad.any(axis=1)))
        message = failures[int(np.argmax(bad[i]))][1].format(values[i].tolist())
        raise ValueError(f"forecast for {pair_order[i]}: {message}")
    if shared < len(maps):
        pair = pair_order[shared]
        marginal_knots([pair], forecasts)  # the pair's own knots are checked first
        raise ValueError(f"forecast for {pair}: levels {sorted(maps[shared])} differ from {levels} of {pair_order[0]}")
    return knot_levels, values


def marginal_inverse(knot_levels: np.ndarray, values: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Generalized inverse of every pair's CDF at its column of u (samples x pairs).

    A level range inside a jump maps to the jump value.
    """
    q = knot_levels
    j = np.clip(np.searchsorted(q, u, side="left"), 1, len(q) - 1)
    cols = np.arange(values.shape[0])
    lo, hi = values[cols, j - 1], values[cols, j]
    # zero width (hi == lo): stays at the jump
    inner = lo + (u - q[j - 1]) / (q[j] - q[j - 1]) * (hi - lo)
    return np.where(u <= q[0], values[:, 0], np.where(u >= q[-1], values[:, -1], inner))


# ---------------------------------------------------------------------------
# Correlation estimation in the Gaussian layer
# ---------------------------------------------------------------------------


@dataclass
class GaussianCopulaModel:
    pair_order: tuple[ODPair, ...]
    corr: np.ndarray
    chol: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.pair_order)


def gaussian_scores(column: np.ndarray) -> np.ndarray:
    """Rank-based normal scores, ranks mapped to (0,1) via (r - 0.5)/n.

    Tied values share the average of their ranks, and a NaN makes every
    score NaN, as in `scipy.stats.rankdata`; each score is the standard
    normal quantile in `scipy.stats.norm.ppf`'s arithmetic (scale 1, loc 0).
    """
    n = len(column)
    order = np.argsort(column, kind="stable")
    ordered = column[order]
    firsts = np.flatnonzero(np.r_[n > 0, ordered[1:] != ordered[:-1]])  # each tie group's first position
    sizes = np.diff(np.r_[firsts, n])
    ranks = np.empty(n)
    ranks[order] = np.repeat(firsts + 1 + (sizes - 1) / 2, sizes)
    if np.isnan(column).any():
        ranks[:] = np.nan
    return special.ndtri((ranks - 0.5) / n) * 1.0 + 0.0


def repair_correlation(corr: np.ndarray, min_eig: float = MIN_EIGENVALUE) -> np.ndarray:
    """Clip eigenvalues and renormalize the diagonal until positive definite.

    A repair logs one warning with the smallest eigenvalue of the input and
    the largest absolute change of an entry.
    """
    out = (corr + corr.T) / 2.0
    eigval, eigvec = np.linalg.eigh(out)
    smallest = eigval.min()
    for _ in range(100):
        if eigval.min() >= min_eig:
            np.fill_diagonal(out, 1.0)
            if smallest < min_eig:
                log.warning(
                    "repaired correlation matrix: smallest eigenvalue %.6g before repair, largest entry change %.6g",
                    smallest,
                    np.max(np.abs(out - corr)),
                )
            return out
        eigval = np.maximum(eigval, min_eig)
        out = (eigvec * eigval) @ eigvec.T
        d = np.sqrt(np.diag(out))
        out = out / np.outer(d, d)
        out = (out + out.T) / 2.0
        eigval, eigvec = np.linalg.eigh(out)
    raise ValueError("could not repair correlation matrix to positive definite")


def fit_correlation(history: dict[ODPair, np.ndarray], min_lags: int = 30) -> GaussianCopulaModel:
    """Estimate the copula correlation from aligned historical count series.

    Each series is transformed to the Gaussian layer by rank normal scores;
    the correlation of the transformed matrix is repaired to positive definite
    and Cholesky factored.  All series must share timestamps (same length here).
    """
    pair_order = tuple(sorted(history))
    if not pair_order:
        raise ValueError("no OD pairs in history")
    lengths = {len(history[p]) for p in pair_order}
    if len(lengths) != 1:
        raise ValueError("historical series are not aligned on the same lags")
    n = lengths.pop()
    if n < min_lags:
        raise ValueError(f"need at least {min_lags} aligned lags to fit correlation, got {n}")

    scores = np.column_stack([gaussian_scores(np.asarray(history[p], dtype=np.float64)) for p in pair_order])
    if not np.all(np.isfinite(scores)):
        raise ValueError("non-finite values in the Gaussian-layer transform")

    stds = scores.std(axis=0)
    degenerate = stds == 0.0
    if degenerate.any():
        warnings.warn(
            f"{int(degenerate.sum())} constant series contribute no correlation; zeroed",
            stacklevel=2,
        )
        stds = np.where(degenerate, 1.0, stds)
    centered = (scores - scores.mean(axis=0)) / stds
    corr = centered.T @ centered / n
    corr[degenerate, :] = 0.0
    corr[:, degenerate] = 0.0
    np.fill_diagonal(corr, 1.0)

    corr = repair_correlation(corr)
    chol = np.linalg.cholesky(corr)
    return GaussianCopulaModel(pair_order, corr, chol)


def sample_joint(
    model: GaussianCopulaModel,
    forecasts: dict[ODPair, QuantileForecast],
    k: int,
    seed: int,
) -> np.ndarray:
    """Draw k joint demand vectors (k x n_pairs), columns in model.pair_order."""
    missing = [p for p in model.pair_order if p not in forecasts]
    if missing:
        raise ValueError(f"forecasts missing for pairs {missing}")
    knot_levels, values = marginal_knots(model.pair_order, forecasts)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((k, model.dim)) @ model.chol.T
    return marginal_inverse(knot_levels, values, special.ndtr(z))


def export_samples(samples: np.ndarray, pair_order, path, labels=None) -> None:
    """Audit CSV of joint demand samples, one row per sample."""
    samples = np.atleast_2d(samples)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample"] + [pair_name(p, labels) for p in pair_order])
        for i, row in enumerate(samples):
            writer.writerow([i] + [f"{v:.10g}" for v in row])


def export_correlation(model: GaussianCopulaModel, path, labels=None) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([pair_name(p, labels) for p in model.pair_order])
        for row in model.corr:
            writer.writerow([f"{v:.12g}" for v in row])
