"""Gaussian copula over per-OD demand marginals.

Historical counts are rank-transformed into a standard-normal layer where a
single correlation matrix is estimated offline; joint demand samples are then
drawn by pushing correlated normals through the inverse forecast CDFs.
"""

from __future__ import annotations

import csv
import logging
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .data import ODPair, pair_name
from .qr import QuantileForecast

log = logging.getLogger(__name__)

MIN_EIGENVALUE = 1e-8


@dataclass
class EmpiricalCDF:
    """A piecewise-linear CDF through (value, level) knots."""

    values: np.ndarray  # non-decreasing
    levels: np.ndarray  # strictly increasing, ends at 1

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.levels = np.asarray(self.levels, dtype=np.float64)
        if len(self.values) != len(self.levels) or len(self.values) == 0:
            raise ValueError("values and levels must be non-empty and aligned")
        if not (np.all(np.isfinite(self.values)) and np.all(np.isfinite(self.levels))):
            raise ValueError(f"knots must be finite, got values {self.values.tolist()}")
        if np.any(np.diff(self.values) < 0):
            raise ValueError("knot values must be non-decreasing")
        if np.any(np.diff(self.levels) <= 0):
            raise ValueError("knot levels must be strictly increasing")

    def cdf(self, x):
        """Right-continuous CDF value; zero-width segments appear as jumps."""
        x = np.asarray(x, dtype=np.float64)
        v, q = self.values, self.levels
        flat_x = np.atleast_1d(x)
        # last knot with value <= x: the highest level at a repeated value,
        # making jumps right-continuous; the clip only guards lanes outside
        # the knots, which the outer branches overwrite
        j = np.clip(np.searchsorted(v, flat_x, side="right") - 1, 0, len(v) - 1)
        nxt = np.minimum(j + 1, len(v) - 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = q[j] + (flat_x - v[j]) / (v[nxt] - v[j]) * (q[nxt] - q[j])
        inner = np.where(v[j] == flat_x, q[j], inner)
        flat = np.where(flat_x < v[0], 0.0, np.where(flat_x >= v[-1], 1.0, inner))
        return float(flat[0]) if np.ndim(x) == 0 else flat

    def inverse(self, u):
        """Generalized inverse; a level range inside a jump maps to the jump value."""
        u = np.asarray(u, dtype=np.float64)
        v, q = self.values, self.levels
        flat_u = np.atleast_1d(u)
        j = np.clip(np.searchsorted(q, flat_u, side="left"), 1, len(q) - 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            # zero width (v[j] == v[j - 1]): stays at the jump
            inner = v[j - 1] + (flat_u - q[j - 1]) / (q[j] - q[j - 1]) * (v[j] - v[j - 1])
        flat = np.where(flat_u <= q[0], v[0], np.where(flat_u >= q[-1], v[-1], inner))
        return float(flat[0]) if np.ndim(u) == 0 else flat


def ecdf_from_forecast(forecast: QuantileForecast | dict[float, float]) -> EmpiricalCDF:
    """Piecewise-linear CDF through forecast quantiles with synthetic endpoints.

    The lower endpoint is (0, 0); the upper endpoint places level 1 at the top
    quantile plus the bottom quantile.  Equal-valued knots collapse into jumps;
    an all-zero forecast degenerates to a point mass at zero.
    """
    values_map = forecast.values if isinstance(forecast, QuantileForecast) else forecast
    levels = sorted(values_map)
    knot_v = [0.0] + [float(values_map[q]) for q in levels]
    knot_q = [0.0] + [float(q) for q in levels]
    top = knot_v[-1] + float(values_map[levels[0]])
    knot_v.append(top)
    knot_q.append(1.0)

    if any(b < a for a, b in zip(knot_v, knot_v[1:])):
        raise ValueError("forecast quantiles must be non-decreasing to form a CDF")
    # zero-width segments are kept: they are probability jumps (an all-equal
    # forecast concentrates the inter-quantile mass at that single value)
    return EmpiricalCDF(knot_v, knot_q)


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
    """Rank-based normal scores, ranks mapped to (0,1) via (r - 0.5)/n."""
    n = len(column)
    ranks = stats.rankdata(column, method="average")
    return stats.norm.ppf((ranks - 0.5) / n)


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
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((k, model.dim)) @ model.chol.T
    u = stats.norm.cdf(z)
    out = np.empty((k, model.dim))
    for j, pair in enumerate(model.pair_order):
        try:
            marginal = ecdf_from_forecast(forecasts[pair])
        except ValueError as exc:
            raise ValueError(f"forecast for {pair}: {exc}") from None
        out[:, j] = marginal.inverse(u[:, j])
    return out


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


def import_correlation(path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader if row]
    corr = np.array(rows)
    if corr.shape != (len(header), len(header)):
        raise ValueError(f"{path}: correlation matrix shape {corr.shape} does not match header")
    return header, corr
