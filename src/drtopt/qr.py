"""Quantile-regression demand models over hourly OD counts.

Each model family maps a lag to a set of estimated quantiles of the demand
distribution.  Training minimizes mean tilted (pinball) loss; the linear
family is fit exactly as a linear program.  Post-processing clips count-scale
predictions at zero and optionally sorts quantiles to remove crossings
(`forecasting.to_count_scale`).
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from .data import HourlySeries, ODCountSeries, ODPair, hour_of, weekday_of

log = logging.getLogger(__name__)

DEFAULT_QUANTILES = (0.05, 0.25, 0.50, 0.75, 0.95)


def tilted_loss(q: float, y, y_hat):
    """Pinball loss max(q*(y-y_hat), (q-1)*(y-y_hat)); vectorized."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile level must be in (0,1), got {q}")
    err = np.asarray(y, dtype=np.float64) - np.asarray(y_hat, dtype=np.float64)
    return np.maximum(q * err, (q - 1.0) * err)


def pinball_minimizing_constant(sample, q: float) -> float:
    """The constant minimizing mean tilted loss over a finite sample.

    The loss is convex and piecewise linear in the constant, with kinks only
    at sample points, so its minimum lies at an order statistic, the
    ceil(n*q)-th.  The result is the distinct sample value whose computed
    loss `np.mean(tilted_loss(q, sample, v))` is least, the lowest on ties:
    the value that evaluating every distinct value would pick.  Only a window
    of values around that order statistic is evaluated.  It widens on each
    side until the edge value's loss exceeds the window's least by more than
    the rounding bound: a computed loss is within relative (n + 4) * eps of
    the exact one (its terms are non-negative), and past an edge the exact
    loss only grows, so no value outside the window can compute lower.

    The values come from one sort, as np.unique's do, so of two equal values
    (0.0 and -0.0) the result is the one np.unique keeps.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile level must be in (0,1), got {q}")
    sample = np.asarray(sample, dtype=np.float64)
    if sample.size == 0:
        raise ValueError("cannot fit a constant to an empty sample")
    if not np.all(np.isfinite(sample)):
        raise ValueError("non-finite values in sample")
    s = np.sort(sample, axis=None)
    n = len(s)

    def loss(i: int) -> float:
        return float(np.mean(tilted_loss(q, sample, s[i])))

    def first(i: int) -> int:  # index of the first copy of s[i]
        return int(np.searchsorted(s, s[i], side="left"))

    # the slopes are q and fl(q - 1), so the exact minimizer is the
    # ceil(n*q')-th order statistic for a q' within a few ulps of q: start
    # from positions floor(n*q) through ceil(n*q) + 1, counted from 1
    lo = first(min(max(int(np.floor(n * q)) - 1, 0), n - 1))
    hi = first(min(int(np.ceil(n * q)), n - 1))
    starts = [lo] + [i for i in range(lo + 1, hi + 1) if s[i] != s[i - 1]]
    losses = [loss(i) for i in starts]
    slack = 4.0 * (n + 4) * np.finfo(np.float64).eps
    while True:
        bound = min(losses) * (1.0 + slack) + np.finfo(np.float64).tiny
        grew = False
        if starts[0] > 0 and losses[0] <= bound:
            starts.insert(0, first(starts[0] - 1))
            losses.insert(0, loss(starts[0]))
            grew = True
        nxt = int(np.searchsorted(s, s[starts[-1]], side="right"))
        if nxt < n and losses[-1] <= bound:
            starts.append(nxt)
            losses.append(loss(nxt))
            grew = True
        if not grew:
            return float(s[starts[int(np.argmin(losses))]])


@dataclass
class QuantileForecast:
    """Estimated demand quantiles for one OD pair at one lag (count scale)."""

    pair: ODPair
    lag: np.datetime64
    values: dict[float, float]

    def levels(self) -> tuple[float, ...]:
        return tuple(sorted(self.values))

    def band(self, lo: float = 0.05, hi: float = 0.95) -> tuple[float, float]:
        if lo not in self.values or hi not in self.values:
            raise KeyError(f"forecast lacks band levels {lo}/{hi}")
        return self.values[lo], self.values[hi]


# ---------------------------------------------------------------------------
# Historical percentiles
# ---------------------------------------------------------------------------


@dataclass
class HPModel:
    """Per (day-of-week, time-of-day) bucket of historical counts."""

    pair: ODPair
    levels: tuple[float, ...]
    buckets: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]  # (dow,tod) -> (ts, counts)


def fit_hp(train: ODCountSeries, levels=DEFAULT_QUANTILES) -> HPModel:
    dows = weekday_of(train.timestamps)
    tods = hour_of(train.timestamps)
    buckets: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    for key in {(int(d), int(h)) for d, h in zip(dows, tods)}:
        sel = (dows == key[0]) & (tods == key[1])
        buckets[key] = (train.timestamps[sel], train.counts[sel].astype(np.float64))
    return HPModel(train.pair, tuple(levels), buckets)


def predict_hp(model: HPModel, t: np.datetime64) -> QuantileForecast:
    """Quantiles of same-weekday same-hour history strictly before t.

    Uses the linear-interpolation percentile; levels 0 and 1 give the bucket
    min and max.
    """
    t = np.datetime64(t, "h")
    key = (int(weekday_of(t)), int(hour_of(t)))
    if key not in model.buckets:
        raise ValueError(f"no history for weekday {key[0]} hour {key[1]}")
    ts, values = model.buckets[key]
    values = values[ts < t]
    if len(values) == 0:
        raise ValueError(f"no history before {t} in bucket weekday {key[0]} hour {key[1]}")
    est = {float(q): float(np.percentile(values, 100.0 * q)) for q in model.levels}
    return QuantileForecast(model.pair, t, est)


# ---------------------------------------------------------------------------
# Linear quantile regression
# ---------------------------------------------------------------------------


@dataclass
class LinearQRModel:
    levels: tuple[float, ...]
    coef: dict[float, np.ndarray]
    converged: dict[float, bool] = field(default_factory=dict)


def _solve_pinball_lp(XT: np.ndarray, col_sums: np.ndarray, y: np.ndarray, q: float) -> tuple[np.ndarray, bool]:
    """Exact pinball-loss minimization through the dual LP.

    Koenker & Bassett (1978): max y'a subject to X'a = (1-q) X'1 and
    0 <= a <= 1.  Its n variables and p equality rows are far smaller than
    the primal's p + 2n variables and n rows, and the coefficients are the
    negated equality marginals.  XT is X transposed and col_sums is X'1.
    """
    res = linprog(-y, A_eq=XT, b_eq=(1.0 - q) * col_sums, bounds=(0.0, 1.0), method="highs")
    if res.x is None:
        raise RuntimeError(f"quantile LP failed at q={q}: {res.message}")
    if res.status != 0:
        log.warning("quantile LP did not converge cleanly at q=%s: %s", q, res.message)
    return -res.eqlin.marginals, res.status == 0


def fit_lqr(X: np.ndarray, y: np.ndarray, levels=DEFAULT_QUANTILES) -> LinearQRModel:
    """Fit one coefficient vector per quantile level by exact LP.

    Requires at least twice as many rows as features and finite inputs.  The
    pinball loss of each fit is the minimum; the coefficients are one of the
    minimizers when X is rank-deficient or the optimum is degenerate.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError("X must be 2-D and aligned with y")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite values in training data")
    if len(X) < 2 * X.shape[1]:
        raise ValueError(f"need >= {2 * X.shape[1]} rows to fit {X.shape[1]} features, got {len(X)}")
    XT, col_sums = X.T, X.sum(axis=0)
    coef, converged = {}, {}
    for q in levels:
        beta, ok = _solve_pinball_lp(XT, col_sums, y, float(q))
        coef[float(q)] = beta
        converged[float(q)] = ok
    return LinearQRModel(tuple(float(q) for q in levels), coef, converged)


def lqr_raw_predict(model: LinearQRModel, X: np.ndarray) -> dict[float, np.ndarray]:
    """Working-scale output per quantile level, one value per row of X.

    Each row is its own `beta @ x` product, so a forecast does not depend on
    which other lags are predicted alongside it.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    out = {}
    for q in model.levels:
        beta = model.coef[q]
        if beta.shape != X.shape[1:]:
            raise ValueError(f"feature length {X.shape[1:]} does not match model layout {beta.shape}")
        out[q] = np.array([beta @ x for x in X])
    return out


# ---------------------------------------------------------------------------
# Seasonal normalization of the differenced series
# ---------------------------------------------------------------------------


@dataclass
class SeasonalStats:
    """Per (day-of-week, hour) mean and population std of the train series."""

    mean: dict[tuple[int, int], float]
    std: dict[tuple[int, int], float]

    def scale_at(self, t: np.datetime64) -> tuple[float, float]:
        key = (int(weekday_of(t)), int(hour_of(t)))
        m = self.mean.get(key, 0.0)
        s = self.std.get(key, 1.0)
        return (m, s) if s > 0 else (0.0, 1.0)


def fit_seasonal_stats(train: HourlySeries) -> SeasonalStats:
    dows = weekday_of(train.timestamps)
    tods = hour_of(train.timestamps)
    mean, std = {}, {}
    degenerate = 0
    for key in {(int(d), int(h)) for d, h in zip(dows, tods)}:
        sel = (dows == key[0]) & (tods == key[1])
        v = train.values[sel]
        mean[key] = float(np.mean(v))
        s = float(np.std(v))
        std[key] = s
        if s == 0.0:
            degenerate += 1
    if degenerate:
        warnings.warn(
            f"{degenerate} seasonal cell(s) have zero variance; passing them through unscaled",
            stacklevel=2,
        )
    return SeasonalStats(mean, std)


def seasonal_normalize(series: HourlySeries, stats: SeasonalStats) -> HourlySeries:
    """(y - bucket mean) / bucket std; zero-variance buckets pass through."""
    scales = np.array([stats.scale_at(t) for t in series.timestamps])
    values = (series.values - scales[:, 0]) / scales[:, 1]
    return HourlySeries(series.pair, series.timestamps, values)


# ---------------------------------------------------------------------------
# Hyperparameter grid search
# ---------------------------------------------------------------------------


def grid_search(score_fn, grid):
    """Pick the grid point with minimal score; ties go to the earliest point.

    score_fn maps a grid point to a total mean-tilted-loss value on the
    tuning test set.  Returns (best_point, scores).
    """
    grid = list(grid)
    if not grid:
        raise ValueError("empty hyperparameter grid")
    scores = [float(score_fn(point)) for point in grid]
    best = int(np.argmin(scores))  # argmin takes the first minimum
    return grid[best], scores
