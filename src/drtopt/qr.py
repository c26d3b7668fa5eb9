"""Quantile-regression demand models over hourly OD counts.

Each model family maps a lag to a set of estimated quantiles of the demand
distribution.  Training minimizes mean tilted (pinball) loss.  The linear
family's fit is an exact minimizer: an interior-point method on the dual
linear program, rounded to a basic solution whose optimality is certified by
the LP's KKT conditions, with HiGHS solving any level that is not certified
(`fit_lqr`).  Post-processing clips count-scale
predictions at zero and optionally sorts quantiles to remove crossings
(`forecasting.to_count_scale`).
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg
from scipy import optimize
from scipy.optimize import linprog

from .data import ODCountSeries, ODPair, WorkingRecord, hour_of, pair_name, weekday_of

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


# ---------------------------------------------------------------------------
# Historical percentiles
# ---------------------------------------------------------------------------


def predict_hp(train: ODCountSeries, levels, lags, labels=None) -> np.ndarray:
    """(lags, levels) percentiles of each lag's same-weekday same-hour train counts strictly before it.

    Linear interpolation (levels 0 and 1 give the min and max); a lag without such history raises, naming the pair.
    """
    lags = np.asarray(lags, dtype="datetime64[h]")
    stamps, counts = train.timestamps, train.values
    cells = weekday_of(stamps) * 24 + hour_of(stamps)
    out = np.empty((len(lags), len(levels)))
    for i, (t, cell) in enumerate(zip(lags, weekday_of(lags) * 24 + hour_of(lags))):
        in_cell = cells == cell
        values = counts[in_cell & (stamps < t)]
        if not len(values):
            where = "weekday {} hour {} for pair {}".format(*divmod(int(cell), 24), pair_name(train.pair, labels))
            raise ValueError(f"no history before {t} in bucket {where}" if in_cell.any() else f"no history for {where}")
        out[i] = np.percentile(values, 100.0 * np.asarray(levels, dtype=np.float64))
    return out


# ---------------------------------------------------------------------------
# Linear quantile regression
# ---------------------------------------------------------------------------


@dataclass
class LinearQRModel:
    levels: tuple[float, ...]
    coef: dict[float, np.ndarray]
    converged: dict[float, bool] = field(default_factory=dict)


def _solve_pinball_lp(X: np.ndarray, y: np.ndarray, q: float) -> tuple[np.ndarray, bool]:
    """Exact pinball-loss minimization through the dual LP, by HiGHS.

    Koenker & Bassett (1978): max y'a subject to X'a = (1-q) X'1 and
    0 <= a <= 1.  Its n variables and p equality rows are far smaller than
    the primal's p + 2n variables and n rows, and the coefficients are the
    negated equality marginals.  This is the fallback of `fit_lqr`; it calls
    this module's `linprog`, so patching `qr.linprog` sees every fallback.
    """
    res = linprog(-y, A_eq=X.T, b_eq=(1.0 - q) * X.sum(axis=0), bounds=(0.0, 1.0), method="highs")
    if res.x is None:
        raise RuntimeError(f"quantile LP failed at q={q}: {res.message}")
    if res.status != 0:
        log.warning("quantile LP did not converge cleanly at q=%s: %s", q, res.message)
    return -res.eqlin.marginals, res.status == 0


_GAP_TOL = 1e-8  # the interior point stops at this duality gap, relative to 1 + |y'a|
_SINGULAR_GAP_TOL = 1e-6  # ... or at this one, when the Newton system turns singular
_MAX_ITER = 50
_STEP = 0.99995  # fraction of the step to the boundary that an iteration takes
# a row counts as interpolated when |residual| <= _ZERO_TOL * (largest least-squares
# residual) + _ROUND_TOL * max|y|: the first term is relative to the scale of the
# residuals, which an offset in y does not change; the second covers rounding in y - X beta
_ZERO_TOL = 1e-7
_ROUND_TOL = 1e-12
_DUAL_TOL = 1e-9  # slack on a certificate's 0 <= a <= 1


def _independent_columns(X: np.ndarray) -> np.ndarray:
    """Ascending indices of a maximal set of linearly independent columns (column-pivoted QR)."""
    R, piv = scipy.linalg.qr(X, mode="r", pivoting=True)
    diag = np.abs(np.diag(R))
    rank = int(np.sum(diag > diag[0] * max(X.shape) * np.finfo(np.float64).eps)) if len(diag) else 0
    return np.sort(piv[:rank])


def _step_to_boundary(v, dv, u, du) -> float:
    """min(1, _STEP * t) for the step t at which v + t dv or u + t du first reaches zero."""
    worst = max(float(np.max(-dv / v)), float(np.max(-du / u)))
    return 1.0 if worst <= _STEP else _STEP / worst


def _interior_point(X: np.ndarray, y: np.ndarray, q: float, start: np.ndarray) -> np.ndarray:
    """Near-optimal coefficients by a primal-dual interior-point method on the dual LP.

    The Frisch-Newton method of Portnoy & Koenker (1997), as in quantreg's
    rq.fit.fnb, with Mehrotra's predictor-corrector: min -y'a subject to
    X'a = (1-q) X'1 and 0 <= a <= 1, from the feasible a = (1-q) 1.  The
    loss of y - X beta is that of y_c - X (beta - start) with
    y_c = y - X start, and it is homogeneous in y_c, so the iterations run
    on y_c / max|y_c| from the dual point lam = 0 (beta = start), with the
    dual slacks z and w strictly positive.  Each iteration factors
    X'diag(d)X once; X must have full column rank.  Stops at relative
    duality gap _GAP_TOL, or at _SINGULAR_GAP_TOL when X'diag(d)X is
    singular to working precision (d spans many orders of magnitude near a
    degenerate optimum).  A division by zero, an overflow or a NaN raises
    FloatingPointError.
    """
    n = len(y)
    y = y - X @ start
    scale = float(np.max(np.abs(y))) or 1.0
    y = y / scale
    XT = np.ascontiguousarray(X.T)
    lam = np.zeros(X.shape[1])
    a = np.full(n, 1.0 - q)
    s = 1.0 - a
    z = np.maximum(-y, 0.0) + 1e-3  # rows below the start's fit
    w = z + y  # z - w = -y: lam = 0 is dual feasible
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        for _ in range(_MAX_ITER):
            gap = z @ a + w @ s
            rel_gap = gap / (1.0 + abs(y @ a))
            if rel_gap <= _GAP_TOL:
                return start - lam * scale
            za, ws = z / a, w / s
            d = 1.0 / (za + ws)
            r = z - w
            chol, info = scipy.linalg.lapack.dpotrf((XT * d) @ X, lower=1, clean=0)
            if info != 0:
                if rel_gap <= _SINGULAR_GAP_TOL:  # as close as working precision allows
                    return start - lam * scale
                raise np.linalg.LinAlgError(f"normal matrix not positive definite (dpotrf info {info})")
            rhs = XT @ (d * r)
            dlam = scipy.linalg.lapack.dpotrs(chol, rhs, lower=1)[0]
            da = d * (X @ dlam - r)
            dz = -z - za * da
            dw = -w + ws * da
            fp = _step_to_boundary(a, da, s, -da)
            fd = _step_to_boundary(z, dz, w, dw)
            if fp < 1.0 or fd < 1.0:  # Mehrotra's corrector, centred at the predicted gap
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
                fp = _step_to_boundary(a, da, s, -da)
                fd = _step_to_boundary(z, dz, w, dw)
            a = a + fp * da
            s = s - fp * da
            lam = lam + fd * dlam
            z = z + fd * dz
            w = w + fd * dw
    raise np.linalg.LinAlgError(f"no duality gap below {_GAP_TOL} in {_MAX_ITER} iterations")


def _round_to_vertex(X: np.ndarray, y: np.ndarray, beta: np.ndarray, q: float, tol: float) -> np.ndarray:
    """A basic solution that interpolates r = rank(X) rows, at no higher pinball loss than beta.

    Z holds the rows with |residual| <= tol.  While X_Z has rank below r,
    beta moves along a null direction of X_Z, the way the loss does not rise,
    to the nearest row whose residual reaches zero, which joins Z.  Rows
    keep their residual's sign along the way, so the loss is linear there;
    on the optimal face it is constant.  The result solves X_h beta = y_h
    for r independent rows h of Z (Koenker, Quantile Regression, 2005, §2.2).
    """
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
        slope = X @ direction  # moving beta by t * direction moves resid by -t * slope
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


def _certificate_failure(X: np.ndarray, y: np.ndarray, beta: np.ndarray, q: float, tol: float) -> str | None:
    """None when beta provably minimizes the pinball loss, else why not.

    With U the rows above the fit, L those below and Z those within tol,
    beta is optimal when some a_Z in [0, 1] gives X_Z'a_Z = (1-q) X'1 - X_U'1:
    then a = (1 on U, a_Z on Z, 0 on L) is dual feasible and complementary
    to beta (the LP's KKT conditions).  With |Z| = rank r that is one linear
    solve; with more rows it is a small feasibility LP.
    """
    resid = y - X @ beta
    zero = np.abs(resid) <= tol
    rhs = (1.0 - q) * X.sum(axis=0) - X[resid > tol].sum(axis=0)
    XZ = X[zero]
    if len(XZ) == X.shape[1]:
        a = np.linalg.solve(XZ.T, rhs)
        if a.min() >= -_DUAL_TOL and a.max() <= 1.0 + _DUAL_TOL:
            return None
        return f"the dual of the interpolated rows lies in [{a.min():.3g}, {a.max():.3g}]"
    # scipy's linprog by its full name: this module's `linprog` names the fallback solves only
    res = optimize.linprog(np.zeros(len(XZ)), A_eq=XZ.T, b_eq=rhs, bounds=(0.0, 1.0), method="highs")
    return None if res.status == 0 else f"no dual point for the {len(XZ)} interpolated rows: {res.message}"


def fit_lqr(X: np.ndarray, y: np.ndarray, levels=DEFAULT_QUANTILES) -> LinearQRModel:
    """Fit one coefficient vector per quantile level, each an exact pinball-loss minimizer.

    Requires at least twice as many rows as features and finite inputs.  The
    fit keeps a maximal set of linearly independent columns (one
    column-pivoted QR per fit) and gives each dropped column coefficient 0.
    Per level an interior-point method (`_interior_point`) finds a
    near-optimal fit, which is rounded to a basic solution interpolating
    r = rank(X) rows (`_round_to_vertex`) and certified optimal by the
    LP's KKT conditions (`_certificate_failure`).  A numerical failure or a
    failed certificate logs a warning naming the level and the reason and
    solves that level's dual LP by HiGHS instead (`_solve_pinball_lp`).
    The pinball loss of each fit is the minimum; the coefficients are one of
    the minimizers when X is rank-deficient or the optimum is degenerate.
    `converged` is True for a certified level and HiGHS's verdict for a
    fallback one.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError("X must be 2-D and aligned with y")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite values in training data")
    if len(X) < 2 * X.shape[1]:
        raise ValueError(f"need >= {2 * X.shape[1]} rows to fit {X.shape[1]} features, got {len(X)}")
    levels = tuple(map(float, levels))
    cols = _independent_columns(X)
    if not len(cols):  # X = 0: every coefficient vector has the same loss
        return LinearQRModel(levels, {q: np.zeros(X.shape[1]) for q in levels}, {q: True for q in levels})
    Xk = X[:, cols]
    start = np.linalg.lstsq(Xk, y, rcond=None)[0]
    tol = _ZERO_TOL * float(np.max(np.abs(y - Xk @ start))) + _ROUND_TOL * float(np.max(np.abs(y)))
    coef, converged = {}, {}
    for q in levels:
        try:
            beta = _round_to_vertex(Xk, y, _interior_point(Xk, y, q, start), q, tol)
            failure = _certificate_failure(Xk, y, beta, q, tol)
        except (np.linalg.LinAlgError, FloatingPointError) as exc:
            failure = f"{type(exc).__name__}: {exc}"
        if failure is None:
            coef[q] = np.zeros(X.shape[1])
            coef[q][cols] = beta
            converged[q] = True
        else:
            log.warning("quantile level q=%s: interior-point fit not certified (%s); solving by HiGHS", q, failure)
            coef[q], converged[q] = _solve_pinball_lp(X, y, q)
    return LinearQRModel(levels, coef, converged)


def stack_lqr(models: list[LinearQRModel], levels) -> np.ndarray:
    """The models' coefficients as one (models, levels, features) array, for `lqr_raw_predict`."""
    return np.array([[model.coef[q] for q in levels] for model in models], dtype=np.float64)


def lqr_raw_predict(coef: np.ndarray, group: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Working-scale outputs (rows, levels): row i by the coefficients coef[group[i]] of `stack_lqr`.

    Each (row, level) output is its own dot product, the one `beta @ x`
    computes, so a forecast does not depend on which other rows or pairs
    are predicted alongside it.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1:] != coef.shape[2:]:
        raise ValueError(f"feature length {X.shape[1:]} does not match model layout {coef.shape[2:]}")
    return np.vecdot(X[:, None, :], coef[group])


# ---------------------------------------------------------------------------
# Seasonal normalization of the differenced series
# ---------------------------------------------------------------------------


@dataclass
class SeasonalStats:
    """Per (pair, day-of-week, hour) mean and population std of the train series.

    `mean` and `std` are (pairs, 7, 24) tables aligned to `pairs`, NaN in a
    cell with no train row; every pair has a cell.  `scales` holds each
    cell's (mean, std) for normalizing, built once: a cell with zero
    variance or no train row reads (0, 1) and passes through unscaled.
    """

    pairs: tuple[ODPair, ...]
    mean: np.ndarray
    std: np.ndarray
    scales: np.ndarray = field(init=False, repr=False, compare=False)  # (pairs, 7, 24, 2)

    def __post_init__(self):
        for pair, empty in zip(self.pairs, np.isnan(self.mean).all(axis=(1, 2))):
            if empty:
                raise ValueError(f"no seasonal cells for pair {pair}")
        varies = self.std > 0  # False in a NaN cell
        self.scales = np.stack([np.where(varies, self.mean, 0.0), np.where(varies, self.std, 1.0)], axis=-1)

    def scales_at(self, pair_index, stamps) -> np.ndarray:
        """(mean, std) rows: the cell of `pairs[pair_index[i]]` at `stamps[i]`."""
        return self.scales[pair_index, weekday_of(stamps), hour_of(stamps)]


def fit_seasonal_stats(train: WorkingRecord) -> SeasonalStats:
    """Every pair's seasonal stats from the train rows of a working record.

    One stable sort by (pair, weekday, hour) lays each cell's values out in
    time order, and each cell takes its own `np.mean` and `np.std` of them.
    """
    cell = (train.pair_index * 7 + weekday_of(train.timestamps)) * 24 + hour_of(train.timestamps)
    order = np.argsort(cell, kind="stable")
    cells, starts = np.unique(cell[order], return_index=True)
    mean, std = np.full((2, len(train.pairs) * 7 * 24), np.nan)
    for c, values in zip(cells.tolist(), np.split(train.values[order], starts[1:])):
        mean[c], std[c] = np.mean(values), np.std(values)
    degenerate = int(np.sum(std == 0.0))
    if degenerate:
        warnings.warn(
            f"{degenerate} seasonal cell(s) have zero variance; passing them through unscaled",
            stacklevel=2,
        )
    return SeasonalStats(train.pairs, mean.reshape(-1, 7, 24), std.reshape(-1, 7, 24))


def seasonal_normalize(record: WorkingRecord, seasonal: SeasonalStats) -> WorkingRecord:
    """(y - bucket mean) / bucket std, per pair of the stats, in their order; zero-variance buckets pass through."""
    scales = seasonal.scales_at(record.pair_index, record.timestamps)
    return replace(record, values=(record.values - scales[:, 0]) / scales[:, 1])


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
    for point, score in zip(grid, scores):
        if not np.isfinite(score):
            raise ValueError(f"grid point {point} scored {score}")
    best = int(np.argmin(scores))  # argmin takes the first minimum
    return grid[best], scores
