"""Slow references for `qr`: the pinball-loss LPs and the enumerated pinball constant.

`reference_dual_lp` is the dual LP by HiGHS, as `qr.fit_lqr` solved every
level before the interior-point fit (Koenker & Bassett, 1978):
max y'a subject to X'a = (1-q) X'1 and 0 <= a <= 1, with the coefficients
the negated equality marginals.  `reference_pinball_lp` is the formulation
that the dual LP replaced: min q*1'u + (1-q)*1'v over (beta, u, v) subject
to X beta + u - v = y and u, v >= 0, with p + 2n variables and n equality
rows.  All are exact, so their pinball losses agree to LP tolerance; their
coefficients agree only where the minimizer is unique.

`reference_pinball_constant` is `qr.pinball_minimizing_constant` by
enumeration: the mean tilted loss at every distinct sample value, the
lowest value on ties.

`reference_lqr_raw_predict` is `qr.lqr_raw_predict` for one model, as the
library predicted each pair before the models were stacked: one `beta @ x`
per row and level.

`reference_fit_hp` and `reference_predict_hp` are the historical
percentiles as `qr` fitted and predicted them before the model was the
pair's train series: the series re-bucketed into a (weekday, hour) ->
(timestamps, float counts) dict, and one forecast per lag, with one
`np.percentile` call per level over the bucket's values strictly before it.

`reference_seasonal_cells` is one pair's seasonal stats as
`qr.fit_seasonal_stats` fitted them before the (pair, weekday, hour) table:
a boolean selection of the pair's train series per (weekday, hour) key,
then `np.mean` and `np.std` of it.
"""

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from drtopt.data import hour_of, weekday_of
from drtopt.qr import tilted_loss


def reference_dual_lp(X: np.ndarray, y: np.ndarray, q: float) -> np.ndarray:
    res = linprog(-y, A_eq=X.T, b_eq=(1.0 - q) * X.sum(axis=0), bounds=(0.0, 1.0), method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference dual quantile LP failed at q={q}: {res.message}")
    return -res.eqlin.marginals


def reference_pinball_lp(X: np.ndarray, y: np.ndarray, q: float) -> np.ndarray:
    n, p = X.shape
    A = sparse.hstack(
        [sparse.csr_matrix(X), sparse.identity(n, format="csr"), -sparse.identity(n, format="csr")],
        format="csc",
    )
    c = np.concatenate([np.zeros(p), np.full(n, q / n), np.full(n, (1.0 - q) / n)])
    bounds = [(None, None)] * p + [(0, None)] * (2 * n)
    res = linprog(c, A_eq=A, b_eq=y, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference quantile LP failed at q={q}: {res.message}")
    return res.x[:p].copy()


def reference_pinball_constant(sample, q: float) -> float:
    values = np.unique(np.asarray(sample, dtype=np.float64))
    losses = [float(np.mean(tilted_loss(q, sample, v))) for v in values]
    return float(values[int(np.argmin(losses))])


def reference_lqr_raw_predict(model, X) -> dict[float, np.ndarray]:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    return {q: np.array([model.coef[q] @ x for x in X]) for q in model.levels}


def reference_seasonal_cells(timestamps, values) -> dict[tuple[int, int], tuple[float, float]]:
    """(mean, std) by (weekday, hour) key of one pair's train series."""
    dows, tods = weekday_of(timestamps), hour_of(timestamps)
    cells = {}
    for key in {(int(d), int(h)) for d, h in zip(dows, tods)}:
        v = values[(dows == key[0]) & (tods == key[1])]
        cells[key] = float(np.mean(v)), float(np.std(v))
    return cells


def reference_fit_hp(train, levels) -> tuple[tuple[float, ...], dict]:
    """(levels, buckets): (weekday, hour) -> (timestamps, float counts) of the train series."""
    dows = weekday_of(train.timestamps)
    tods = hour_of(train.timestamps)
    buckets = {}
    for key in {(int(d), int(h)) for d, h in zip(dows, tods)}:
        sel = (dows == key[0]) & (tods == key[1])
        buckets[key] = (train.timestamps[sel], train.counts[sel].astype(np.float64))
    return tuple(levels), buckets


def reference_predict_hp(model, t) -> dict[float, float]:
    """Each level's percentile of the same-weekday same-hour history strictly before t."""
    levels, buckets = model
    t = np.datetime64(t, "h")
    key = (int(weekday_of(t)), int(hour_of(t)))
    if key not in buckets:
        raise ValueError(f"no history for weekday {key[0]} hour {key[1]}")
    ts, values = buckets[key]
    values = values[ts < t]
    if len(values) == 0:
        raise ValueError(f"no history before {t} in bucket weekday {key[0]} hour {key[1]}")
    return {float(q): float(np.percentile(values, 100.0 * q)) for q in levels}
