"""Slow references for `qr`: the pinball-loss LPs and the enumerated pinball constant.

`reference_dual_lp` is the dual LP by HiGHS, as `qr.fit_lqr` solved every
level before the interior-point fit (Koenker & Bassett, 1978):
max y'a subject to X'a = (1-q) X'1 and 0 <= a <= 1, with the coefficients
the negated equality marginals.  `reference_pinball_lp` is the formulation
that the dual LP replaced: min q*1'u + (1-q)*1'v over (beta, u, v) subject
to X beta + u - v = y and u, v >= 0, with p + 2n variables and n equality
rows.  All are exact, so their pinball losses agree to LP tolerance; their
coefficients agree only where the minimizer is unique.

`reference_fit_lqr` is `qr.fit_lqr` as it fitted one level at a time
before the levels stepped in lock step: `reference_interior_point` runs one
level's Frisch-Newton iterations, forming each X'diag(d)X by a full matrix
product and, as the library does, factoring a singular one again with a
ridge above `qr._SINGULAR_GAP_TOL`; `reference_round_to_vertex` tests X_Z's
rank by an SVD at every step before the column-pivoted QR picks the
basis.  A level that is
not certified falls back to `reference_dual_lp`, as the library's fallback
solves the same LP by HiGHS.  Both fits round to the same basis wherever
the optimum is unique, so their coefficients are equal there bit for bit.

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
import scipy.linalg
from scipy import sparse
from scipy.optimize import linprog

from drtopt import qr
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


def _reference_step_to_boundary(v, dv, u, du) -> float:
    """min(1, _STEP * t) for the step t at which v + t dv or u + t du first reaches zero."""
    worst = max(float(np.max(-dv / v)), float(np.max(-du / u)))
    return 1.0 if worst <= qr._STEP else qr._STEP / worst


def reference_interior_point(X: np.ndarray, y: np.ndarray, q: float, start: np.ndarray) -> np.ndarray:
    """One level's near-optimal coefficients; raises FloatingPointError or LinAlgError where `qr._interior_points` returns them."""
    n = len(y)
    y = y - X @ start
    scale = float(np.max(np.abs(y))) or 1.0
    y = y / scale
    XT = np.ascontiguousarray(X.T)
    lam = np.zeros(X.shape[1])
    a = np.full(n, 1.0 - q)
    s = 1.0 - a
    z = np.maximum(-y, 0.0) + 1e-3
    w = z + y
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        for _ in range(qr._MAX_ITER):
            gap = z @ a + w @ s
            rel_gap = gap / (1.0 + abs(y @ a))
            if rel_gap <= qr._GAP_TOL:
                return start - lam * scale
            za, ws = z / a, w / s
            d = 1.0 / (za + ws)
            r = z - w
            chol, info = scipy.linalg.lapack.dpotrf((XT * d) @ X, lower=1, clean=0)
            if info != 0 and rel_gap > qr._SINGULAR_GAP_TOL:
                normal = (XT * d) @ X
                normal[np.diag_indices_from(normal)] += n * np.finfo(np.float64).eps * np.max(np.diag(normal))
                chol, info = scipy.linalg.lapack.dpotrf(normal, lower=1, clean=0)
            if info != 0:
                if rel_gap <= qr._SINGULAR_GAP_TOL:
                    return start - lam * scale
                raise np.linalg.LinAlgError(f"normal matrix not positive definite (dpotrf info {info})")
            rhs = XT @ (d * r)
            dlam = scipy.linalg.lapack.dpotrs(chol, rhs, lower=1)[0]
            da = d * (X @ dlam - r)
            dz = -z - za * da
            dw = -w + ws * da
            fp = _reference_step_to_boundary(a, da, s, -da)
            fd = _reference_step_to_boundary(z, dz, w, dw)
            if fp < 1.0 or fd < 1.0:
                predicted = (z + fd * dz) @ (a + fp * da) + (w + fd * dw) @ (s - fp * da)
                mu = predicted**3 / (gap**2 * 2.0 * n)
                dadz, dsdw = da * dz, -da * dw
                ainv, sinv = 1.0 / a, 1.0 / s
                xi = mu * (ainv - sinv)
                rhs += XT @ (d * (dadz - dsdw - xi))
                dlam = scipy.linalg.lapack.dpotrs(chol, rhs, lower=1)[0]
                da = d * (X @ dlam + xi - r - dadz + dsdw)
                dz = mu * ainv - z - za * da - dadz
                dw = mu * sinv - w + ws * da - dsdw
                fp = _reference_step_to_boundary(a, da, s, -da)
                fd = _reference_step_to_boundary(z, dz, w, dw)
            a = a + fp * da
            s = s - fp * da
            lam = lam + fd * dlam
            z = z + fd * dz
            w = w + fd * dw
    raise np.linalg.LinAlgError(f"no duality gap below {qr._GAP_TOL} in {qr._MAX_ITER} iterations")


def reference_round_to_vertex(X: np.ndarray, y: np.ndarray, beta: np.ndarray, q: float, tol: float) -> np.ndarray:
    """`qr._round_to_vertex` with X_Z's rank taken from its singular values at every step."""
    r = X.shape[1]
    resid = y - X @ beta
    zero = np.abs(resid) <= tol
    eps = np.finfo(np.float64).eps
    while True:
        if zero.any():
            _, sv, vt = np.linalg.svd(X[zero])
            rank = int(np.sum(sv > sv[0] * max(zero.sum(), r) * eps))
        else:
            rank, vt = 0, np.eye(r)
        if rank == r:
            break
        direction = vt[-1]
        grad = (1.0 - q) * X[resid < -tol].sum(axis=0) - q * X[resid > tol].sum(axis=0)
        if grad @ direction > 0:
            direction = -direction
        slope = X @ direction
        reaching = ~zero & (resid * slope > 0)
        if not reaching.any():
            raise np.linalg.LinAlgError("no row bounds the walk along the null direction")
        rows = np.flatnonzero(reaching)
        hit = rows[np.argmin(resid[rows] / slope[rows])]
        beta = beta + (resid[hit] / slope[hit]) * direction
        resid = y - X @ beta
        zero |= np.abs(resid) <= tol
        zero[hit] = True
    rows = np.flatnonzero(zero)
    _, piv = scipy.linalg.qr(X[rows].T, mode="r", pivoting=True)
    basis = rows[piv[:r]]
    return np.linalg.solve(X[basis], y[basis])


def reference_fit_lqr(X: np.ndarray, y: np.ndarray, levels) -> tuple[dict, dict]:
    """(coefficients, certified) by level, one level at a time."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    cols = qr._independent_columns(X)
    if not len(cols):
        return {q: np.zeros(X.shape[1]) for q in levels}, {q: True for q in levels}
    Xk = X[:, cols]
    start = np.linalg.lstsq(Xk, y, rcond=None)[0]
    tol = qr._ZERO_TOL * float(np.max(np.abs(y - Xk @ start))) + qr._ROUND_TOL * float(np.max(np.abs(y)))
    coef, certified = {}, {}
    for q in levels:
        try:
            beta = reference_round_to_vertex(Xk, y, reference_interior_point(Xk, y, q, start), q, tol)
            certified[q] = qr._certificate_failure(Xk, y, beta, q, tol) is None
        except (np.linalg.LinAlgError, FloatingPointError):
            certified[q] = False
        if certified[q]:
            coef[q] = np.zeros(X.shape[1])
            coef[q][cols] = beta
        else:
            coef[q] = reference_dual_lp(X, y, q)
    return coef, certified


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
