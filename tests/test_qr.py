import itertools
import json
import logging
import math
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import event, example, given, settings, strategies as st
from scipy.optimize import linprog

from drtopt import config, forecasting, qr
from drtopt.data import ODPair, hour_of, parse_hour, weekday_of
from drtopt.qr import (
    DEFAULT_QUANTILES,
    fit_lqr,
    fit_seasonal_stats,
    grid_search,
    pinball_minimizing_constant,
    lqr_raw_predict,
    predict_hp,
    seasonal_normalize,
    stack_lqr,
    tilted_loss,
)
from drtopt.data import ODCountSeries
from drtopt.forecasting import to_count_scale
from drtopt.synth import SyntheticSpec, generate_synthetic
from reference_features import PairSeries, record_of
from reference_qr import (
    reference_dual_lp,
    reference_fit_hp,
    reference_fit_lqr,
    reference_lqr_raw_predict,
    reference_pinball_constant,
    reference_pinball_lp,
    reference_predict_hp,
    reference_seasonal_cells,
)

PAIR = ODPair(0, 1)


# ---------------------------------------------------------------------------
# tilted loss
# ---------------------------------------------------------------------------


def test_tilted_loss_median_case():
    assert tilted_loss(0.5, 10.0, 8.0) == 1.0


def test_tilted_loss_zero_at_exact():
    assert tilted_loss(0.3, 7.0, 7.0) == 0.0


def test_tilted_loss_upper_quantile_overshoot():
    assert tilted_loss(0.95, 0.0, 10.0) == pytest.approx(0.5)


def test_tilted_loss_rejects_bad_level():
    with pytest.raises(ValueError):
        tilted_loss(0.0, 1.0, 1.0)


@given(
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=-100, max_value=100),
    st.floats(min_value=-100, max_value=100),
)
def test_tilted_loss_nonnegative(q, y, y_hat):
    assert tilted_loss(q, y, y_hat) >= 0.0


@settings(deadline=None, max_examples=50)
@given(
    st.lists(st.floats(min_value=-50, max_value=50), min_size=3, max_size=40),
    st.sampled_from([0.05, 0.25, 0.5, 0.75, 0.95]),
)
def test_constant_minimizer_is_an_empirical_quantile(sample, q):
    sample = np.asarray(sample)
    best = pinball_minimizing_constant(sample, q)
    # a fine grid over the sample range never beats the enumerated minimizer
    grid = np.linspace(sample.min() - 1, sample.max() + 1, 400)
    grid_losses = [np.mean(tilted_loss(q, sample, c)) for c in grid]
    assert np.mean(tilted_loss(q, sample, best)) <= min(grid_losses) + 1e-9
    assert best in sample


def _same_float(a: float, b: float) -> bool:
    """Equal and of the same sign, so 0.0 and -0.0 count as different."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@st.composite
def adversarial_samples(draw):
    """Samples where an order statistic alone would pick the wrong value, or rounding decides."""
    kind = draw(st.sampled_from(["ties", "integral", "near_ties", "single", "zeros"]))
    if kind == "ties":  # a few integers, each repeated many times
        return np.array(draw(st.lists(st.integers(-3, 3), min_size=1, max_size=80)), dtype=np.float64)
    if kind == "integral":  # n a multiple of 20, so n*q is integral at every default level
        n = 20 * draw(st.integers(1, 4))
        values = draw(st.lists(st.floats(-50, 50), min_size=n, max_size=n))
        return np.array(values)
    if kind == "near_ties":  # values 0-2 ulp apart around a few centres
        centres = draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=3))
        steps = draw(st.lists(st.tuples(st.integers(0, len(centres) - 1), st.integers(-2, 2)), min_size=1, max_size=60))
        out = []
        for c, k in steps:
            v = centres[c]
            for _ in range(abs(k)):
                v = np.nextafter(v, np.inf if k > 0 else -np.inf)
            out.append(v)
        return np.array(out, dtype=np.float64)
    if kind == "single":
        return np.full(draw(st.integers(1, 30)), draw(st.floats(-1e6, 1e6)))
    return np.array(draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0]), min_size=1, max_size=40)))


@settings(deadline=None, max_examples=400)
@given(adversarial_samples(), st.one_of(st.sampled_from(DEFAULT_QUANTILES), st.floats(0.01, 0.99)))
def test_constant_minimizer_equals_the_enumerator(sample, q):
    assert _same_float(pinball_minimizing_constant(sample, q), reference_pinball_constant(sample, q))


def test_constant_minimizer_equals_the_enumerator_on_random_leaves():
    rng = np.random.default_rng(5)
    for _ in range(2000):
        n = int(rng.integers(1, 120))
        sample = rng.normal(0.0, 3.0, size=n)
        if rng.random() < 0.5:  # count-like residuals: integers shifted by one shared constant
            sample = rng.integers(-4, 5, size=n) - rng.normal()
        for q in DEFAULT_QUANTILES:
            assert _same_float(pinball_minimizing_constant(sample, q), reference_pinball_constant(sample, q))


@pytest.mark.parametrize(
    "sample, match",
    [([], "empty sample"), ([1.0, np.nan, 2.0], "non-finite"), ([np.inf], "non-finite"), ([-np.inf, 0.0], "non-finite")],
)
def test_constant_minimizer_rejects_empty_and_non_finite_samples(sample, match):
    with pytest.raises(ValueError, match=match):
        pinball_minimizing_constant(np.array(sample, dtype=np.float64), 0.5)


# ---------------------------------------------------------------------------
# historical percentiles
# ---------------------------------------------------------------------------


def bucket_model(values, start="2017-11-20T08"):
    # weekly-spaced lags all share (weekday, hour)
    t0 = parse_hour(start)
    ts = t0 + (np.arange(len(values)) * 7 * 24).astype("timedelta64[h]")
    return ODCountSeries(PAIR, ts, np.array(values))


def hp_at(train, t, levels=DEFAULT_QUANTILES) -> dict[float, float]:
    """The historical percentiles of `train` at one lag, by level."""
    return dict(zip(levels, predict_hp(train, levels, [t])[0].tolist()))


def test_hp_median_of_bucket():
    values = hp_at(bucket_model([1, 2, 3, 4, 5]), parse_hour("2018-01-08T08"))
    assert values[0.5] == 3.0


def test_hp_singleton_bucket():
    values = hp_at(bucket_model([7]), parse_hour("2018-01-08T08"), levels=(0.05, 0.5, 0.95))
    assert all(v == 7.0 for v in values.values())


def test_hp_extreme_levels_are_min_max():
    values = hp_at(bucket_model([4, 9, 2, 11, 6]), parse_hour("2018-01-08T08"), levels=(0.0, 1.0))
    assert values[0.0] == 2.0
    assert values[1.0] == 11.0


def test_hp_only_uses_history_before_t():
    model = bucket_model([5, 5, 5, 100])
    # predicting at the last bucket lag must exclude its own value
    last = parse_hour("2017-11-20T08") + np.timedelta64(3 * 7 * 24, "h")
    assert hp_at(model, last)[0.95] == 5.0


def test_hp_extreme_band_covers_training_bucket():
    # with levels {0, 1} the band is the bucket min/max, which covers every
    # value the bucket was built from
    values = [4, 9, 2, 11, 6, 3]
    after_train = parse_hour("2018-03-05T08")  # a Monday after all history
    band = hp_at(bucket_model(values), after_train, levels=(0.0, 1.0))
    lo, hi = band[0.0], band[1.0]
    assert all(lo <= v <= hi for v in values)


def test_hp_empty_bucket_names_cell():
    model = bucket_model([1, 2, 3])
    with pytest.raises(ValueError, match="weekday 1"):
        hp_at(model, parse_hour("2018-01-09T08"))  # a Tuesday; bucket never seen


HP_START = parse_hour("2017-11-20T07")  # a Monday
HP_LEVELS = (0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0)
HP_CELLS = [d * 24 + h for d in range(35) for h in (0, 1, 2)]  # five weeks of 07:00 to 09:00


@st.composite
def hp_series(draw, pair):
    """A train series on the first four weeks' cells: cells of one row or several, with tied counts."""
    offsets = draw(st.lists(st.sampled_from(HP_CELLS[: 28 * 3]), unique=True))
    ts = HP_START + np.sort(np.array(offsets, dtype=np.int64)).astype("timedelta64[h]")
    counts = draw(st.lists(st.integers(0, 4), min_size=len(ts), max_size=len(ts)))
    return ODCountSeries(pair, ts, np.array(counts, dtype=np.int64))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_hp_forecasts_equal_the_bucket_reference(data):
    pairs = data.draw(st.sampled_from([(ODPair(0, 1),), (ODPair(1, 0), ODPair(0, 2)), (ODPair(2, 1), ODPair(0, 1), ODPair(1, 2))]))
    trains = {pair: data.draw(hp_series(pair)) for pair in pairs}
    levels = tuple(data.draw(st.lists(st.sampled_from(HP_LEVELS), min_size=1, unique=True)))
    # lags inside the train range and after it, mostly on its cells, in any order
    lag_offsets = st.sampled_from(HP_CELLS[21:]) | st.integers(0, 35 * 24)
    lags = HP_START + np.array(data.draw(st.lists(lag_offsets, min_size=1, max_size=8, unique=True))).astype("timedelta64[h]")
    labels = ["a", "b", "c"]
    model = forecasting.TrainedDemandModel(forecasting.ModelSpec(family="hp"), levels, labels, pairs, trains)
    want, failure = {}, None
    for pair in pairs:  # each (pair, lag) alone: its levels' values, or the reference's error naming the pair
        reference = reference_fit_hp(trains[pair], levels)
        for t in lags:
            try:
                want[t, pair] = reference_predict_hp(reference, t)
            except ValueError as exc:
                message = f"{exc} for pair {labels[pair.origin]}>{labels[pair.destination]}"
                with pytest.raises(ValueError) as caught:
                    predict_hp(trains[pair], levels, [t], labels)
                assert str(caught.value) == message
                failure = failure or message
            else:
                assert predict_hp(trains[pair], levels, [t], labels)[0].tolist() == list(want[t, pair].values())
    if failure is not None:  # the first pair in order with a failing lag is named, at its first failing lag
        event("a lag without history")
        with pytest.raises(ValueError) as caught:
            forecasting.predict_forecasts(model, None, None, lags)
        assert str(caught.value) == failure
    else:
        got = forecasting.predict_forecasts(model, None, None, lags)
        assert list(got) == list(lags)
        for t in lags:
            assert list(got[t]) == list(pairs)
            for pair, fc in got[t].items():
                assert (fc.pair, fc.lag) == (pair, t)
                assert list(fc.values) == list(levels) and fc.values == want[t, pair]
    # the model.json document (its levels in (0, 1)) reads back to the same series and writes the same bytes
    saved = forecasting.TrainedDemandModel(model.spec, DEFAULT_QUANTILES, labels, pairs, trains)
    doc = json.dumps(forecasting.model_to_json_dict(saved), sort_keys=True)
    back = forecasting.model_from_json_dict(json.loads(doc))
    for pair in pairs:
        assert np.array_equal(back.models[pair].timestamps, trains[pair].timestamps)
        assert np.array_equal(back.models[pair].counts, trains[pair].counts)
    assert json.dumps(forecasting.model_to_json_dict(back), sort_keys=True) == doc


# ---------------------------------------------------------------------------
# linear quantile regression
# ---------------------------------------------------------------------------


def test_lqr_recovers_exact_linear_function(rng):
    X = rng.normal(size=(120, 4))
    beta = np.array([1.0, -2.0, 0.5, 3.0])
    y = X @ beta
    model = fit_lqr(X, y, DEFAULT_QUANTILES)
    for q in DEFAULT_QUANTILES:
        pred = X @ model.coef[q]
        assert np.mean(tilted_loss(q, y, pred)) <= 1e-6


def test_lqr_intercept_only_matches_empirical_quantile(rng):
    # n chosen so n*q is never integral: the minimizer is a unique order statistic
    y = rng.normal(10.0, 5.0, size=103)
    X = np.ones((103, 1))
    model = fit_lqr(X, y, DEFAULT_QUANTILES)
    for q in DEFAULT_QUANTILES:
        oracle = reference_pinball_constant(y, q)
        assert model.coef[q][0] == pytest.approx(oracle, abs=1e-6)


def test_lqr_heteroscedastic_slopes_ordered(rng):
    x = rng.uniform(0.5, 10.0, size=5000)
    y = x + x * rng.standard_normal(5000)
    X = np.column_stack([np.ones(5000), x])
    model = fit_lqr(X, y, (0.05, 0.95))
    assert model.coef[0.95][1] > model.coef[0.05][1]


def test_lqr_requires_enough_rows():
    with pytest.raises(ValueError, match="rows"):
        fit_lqr(np.ones((5, 3)), np.ones(5))


def test_lqr_rejects_non_finite():
    X = np.ones((30, 2))
    X[3, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        fit_lqr(X, np.ones(30))


@pytest.mark.parametrize("q", [0.0, 1.0, 1.5, -0.25, math.nan])
def test_lqr_rejects_a_level_outside_0_1_before_any_solve(monkeypatch, q):
    def no_solve(*args, **kwargs):
        raise AssertionError("a level was solved")

    monkeypatch.setattr(qr, "_interior_points", no_solve)
    monkeypatch.setattr(qr, "linprog", no_solve)
    X, y = lqr_fixture(0, 100, "continuous")
    with pytest.raises(ValueError, match=re.escape(f"quantile level must be in (0,1), got {q}")):
        fit_lqr(X, y, (0.5, q))


def test_lqr_deterministic(rng):
    X = rng.normal(size=(80, 3))
    y = rng.normal(size=80)
    a = fit_lqr(X, y, (0.25, 0.75))
    b = fit_lqr(X, y, (0.25, 0.75))
    for q in (0.25, 0.75):
        assert np.array_equal(a.coef[q], b.coef[q])


def lqr_design(rng, n, kind):
    """A constant column plus either continuous features or a full one-hot.

    The one-hot spans the constant, so "onehot" is rank-deficient by one, as
    the hour-of-day block of the real feature layout is.
    """
    if kind == "continuous":
        return np.column_stack([np.ones(n), rng.normal(size=(n, 5))])
    hour = rng.integers(0, 6, size=n)
    return np.column_stack([np.ones(n), np.eye(6)[hour], rng.normal(size=n)])


def lqr_fixture(seed, n, kind):
    rng = np.random.default_rng(seed)
    X = lqr_design(rng, n, kind)
    # integer counts differenced, as the pipeline fits them: ties are common
    y = X[:, -1] + rng.poisson(4.0, size=n) - rng.poisson(4.0, size=n)
    return X, y.astype(np.float64)


@pytest.mark.parametrize("n", [100, 103], ids=["nq-integral", "nq-non-integral"])
@pytest.mark.parametrize("kind", ["continuous", "onehot"])
def test_dual_fit_loss_equals_primal_reference(kind, n):
    for seed in range(4):
        X, y = lqr_fixture(seed, n, kind)
        model = fit_lqr(X, y, DEFAULT_QUANTILES)
        for q in DEFAULT_QUANTILES:
            assert model.converged[q]
            dual_loss = np.mean(tilted_loss(q, y, X @ model.coef[q]))
            primal_loss = np.mean(tilted_loss(q, y, X @ reference_pinball_lp(X, y, q)))
            assert dual_loss == pytest.approx(primal_loss, rel=1e-9)


def test_dual_fit_coefficients_equal_primal_reference_where_unique():
    # continuous X and y with n*q never integral: the minimizer is unique
    for seed in range(4):
        rng = np.random.default_rng(seed)
        X = lqr_design(rng, 103, "continuous")
        y = X @ rng.normal(size=X.shape[1]) + rng.standard_normal(103) * (1.0 + np.abs(X[:, 1]))
        model = fit_lqr(X, y, DEFAULT_QUANTILES)
        for q in DEFAULT_QUANTILES:
            assert np.allclose(model.coef[q], reference_pinball_lp(X, y, q), rtol=1e-7, atol=1e-7)


@settings(deadline=None, max_examples=25)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(60, 160),
    st.sampled_from(["continuous", "onehot"]),
    st.sampled_from(DEFAULT_QUANTILES),
)
def test_dual_fit_meets_the_quantile_optimality_condition(seed, n, kind, q):
    # the design spans the constant, so shifting the fit is feasible: at an
    # optimum at most q*n rows lie strictly below it and (1-q)*n strictly above
    X, y = lqr_fixture(seed, n, kind)
    resid = y - X @ fit_lqr(X, y, (q,)).coef[q]
    assert np.sum(resid < -1e-7) <= q * n + 1e-9  # slack for q*n rounding below an integer
    assert np.sum(resid > 1e-7) <= (1.0 - q) * n + 1e-9


LEVELS_19 = tuple(round(0.05 * k, 2) for k in range(1, 20))


def assert_exact_fit(X, y, beta, q):
    """beta's loss equals the dual LP's; it interpolates rank(X) rows; a KKT dual point exists.

    The dual point is found by an LP over the full X: a = 1 on rows above the
    fit, 0 below, free in [0, 1] on interpolated rows, X'a = (1-q) X'1.
    """
    loss = np.mean(tilted_loss(q, y, X @ beta))
    assert loss == pytest.approx(np.mean(tilted_loss(q, y, X @ reference_dual_lp(X, y, q))), rel=1e-9, abs=1e-12)
    resid = y - X @ beta
    tol = 1e-9 * max(1.0, float(np.max(np.abs(y))))
    zero = np.abs(resid) <= tol
    assert zero.sum() >= np.linalg.matrix_rank(X)
    bounds = [(0.0, 1.0) if z else (1.0, 1.0) if r > 0 else (0.0, 0.0) for z, r in zip(zero, resid)]
    kkt = linprog(np.zeros(len(y)), A_eq=X.T, b_eq=(1.0 - q) * X.sum(axis=0), bounds=bounds, method="highs")
    assert kkt.status == 0, f"q={q}: no dual point complementary to the fit: {kkt.message}"


def workload_fits(n_locations, **model):
    """The (X, y) of every linear fit on synth seed 7 with the default config, its model section updated by `model`."""
    doc = config.default_config_doc("counts.csv", "network.json", 1)
    doc["model"].update(model)
    cfg = config.config_from_json_dict(doc, Path("."))
    dataset = generate_synthetic(SyntheticSpec(n_locations=n_locations, seed=7))
    fits = []

    def capture(X, y, levels):
        fits.append((X, y))
        return fit_lqr(X, y, levels)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qr, "fit_lqr", capture)
        forecasting.train_model(dataset, cfg.split, cfg.model, cfg.quantiles)
    return fits


@pytest.fixture(scope="module")
def demo_fits():
    return workload_fits(4)


@pytest.mark.parametrize("n_locations", [4, 5])
def test_fit_is_exact_on_every_workload_level(n_locations, demo_fits):
    fits = demo_fits if n_locations == 4 else workload_fits(5)
    assert len(fits) == n_locations * (n_locations - 1)
    for X, y in fits:
        model = fit_lqr(X, y, DEFAULT_QUANTILES)
        for q in DEFAULT_QUANTILES:
            assert model.converged[q]
            assert_exact_fit(X, y, model.coef[q], q)


def test_fit_is_exact_at_every_level_from_5_to_95_percent(demo_fits):
    for X, y in demo_fits[:2] + [lqr_fixture(0, 103, "onehot"), lqr_fixture(1, 100, "continuous")]:
        model = fit_lqr(X, y, LEVELS_19)
        for q in LEVELS_19:
            assert model.converged[q]
            assert_exact_fit(X, y, model.coef[q], q)


def tied_onehot_design(seed, n, hours, days, extra, spread):
    """Hour and weekday one-hots (rank-deficient: both span the constant), a few small
    integer columns, and integer y over a narrow range, so ties and degenerate optima abound."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([
        np.eye(hours)[rng.integers(0, hours, size=n)],
        np.eye(days)[rng.integers(0, days, size=n)],
        rng.integers(-3, 4, size=(n, extra)),
    ]).astype(np.float64)
    y = rng.integers(-spread, spread + 1, size=n).astype(np.float64)
    return X, y


@st.composite
def tied_onehot_designs(draw):
    return tied_onehot_design(
        draw(st.integers(0, 2**32 - 1)), draw(st.integers(60, 200)),
        draw(st.integers(2, 8)), draw(st.integers(2, 5)), draw(st.integers(0, 3)), draw(st.integers(1, 6)),
    )


@settings(deadline=None, max_examples=40)
@given(tied_onehot_designs(), st.sampled_from(LEVELS_19))
def test_fit_is_exact_on_tied_rank_deficient_designs(design, q):
    X, y = design
    model = fit_lqr(X, y, (q,))
    assert model.converged[q]
    assert_exact_fit(X, y, model.coef[q], q)


def test_fit_is_exact_when_y_has_a_large_offset():
    # an interpolation tolerance relative to max|y| counted rows 0.1 off the fit as interpolated here
    for seed in range(3):
        X, y = lqr_fixture(seed, 103, "onehot")
        y = y + 1e6
        model = fit_lqr(X, y, DEFAULT_QUANTILES)
        for q in DEFAULT_QUANTILES:
            assert model.converged[q]
            assert_exact_fit(X, y, model.coef[q], q)


@pytest.mark.parametrize(
    "model",
    [{}, {"seasonal_normalize": True}, {"cross_lags": True}, {"scope": "pooled"}],
    ids=["per-pair", "seasonal", "cross-lags", "pooled"],
)
def test_fit_equals_the_per_level_reference_on_every_demo_level(model, demo_fits):
    # the levels step in lock step, but each rounds to the basis that its own fit picked
    fits = workload_fits(4, **model) if model else demo_fits
    for X, y in fits:
        fit = fit_lqr(X, y, DEFAULT_QUANTILES)
        coef, certified = reference_fit_lqr(X, y, DEFAULT_QUANTILES)
        for q in DEFAULT_QUANTILES:
            assert fit.converged[q] and certified[q]
            assert fit.coef[q].tobytes() == coef[q].tobytes(), f"q={q}"


def _no_highs(*args, **kwargs):
    raise AssertionError("the fit fell back to the HiGHS dual LP")


@settings(deadline=None, max_examples=40)
@given(tied_onehot_designs(), st.lists(st.sampled_from(LEVELS_19), min_size=1, max_size=5, unique=True))
@example(tied_onehot_design(565, 74, 4, 4, 1, 4), [0.05, 0.95])
def test_fit_loss_equals_the_per_level_reference_on_tied_rank_deficient_designs(design, levels):
    # degenerate optima abound here, so the two may interpolate other rows: only the losses must agree.
    # In the example, q = 0.95's optimal coefficients are not unique, and X'diag(d)X turns singular just
    # above _SINGULAR_GAP_TOL (at relative gap 1.16e-6 in the per-level fit): without the ridge, the
    # lock-step fit and the per-level one both fell back to HiGHS
    X, y = design
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qr, "linprog", _no_highs)
        fit = fit_lqr(X, y, levels)
    coef, certified = reference_fit_lqr(X, y, levels)
    for q in levels:
        assert certified[q]
        loss = np.mean(tilted_loss(q, y, X @ fit.coef[q]))
        assert loss == pytest.approx(np.mean(tilted_loss(q, y, X @ coef[q])), rel=1e-9, abs=1e-12)


def test_dropped_columns_get_coefficient_zero(demo_fits):
    X, y = demo_fits[0]
    assert np.linalg.matrix_rank(X) == X.shape[1] - 1  # the hour and weekday one-hots both span the constant
    kept = qr._independent_columns(X)
    for beta in fit_lqr(X, y, DEFAULT_QUANTILES).coef.values():
        assert beta.shape == (X.shape[1],)
        assert np.count_nonzero(beta[np.setdiff1d(np.arange(X.shape[1]), kept)]) == 0


def _fallback_fits(monkeypatch, caplog, interior_points, levels=(0.05, 0.95)):
    X, y = lqr_fixture(3, 100, "onehot")
    monkeypatch.setattr(qr, "_interior_points", interior_points)
    with caplog.at_level(logging.WARNING, logger="drtopt.qr"):
        model = fit_lqr(X, y, levels)
    for q in levels:
        assert np.array_equal(model.coef[q], reference_dual_lp(X, y, q))
        assert model.converged[q]
    return [r.getMessage() for r in caplog.records if r.name == "drtopt.qr"]


def test_fit_falls_back_to_highs_when_the_interior_point_fails(monkeypatch, caplog):
    def failing(X, y, levels, start):
        return [np.linalg.LinAlgError("planted failure")] * len(levels)

    messages = _fallback_fits(monkeypatch, caplog, failing)
    assert len(messages) == 2
    for q, message in zip((0.05, 0.95), messages):
        assert f"q={q}" in message and "planted failure" in message


def test_fit_falls_back_to_highs_when_the_certificate_fails(monkeypatch, caplog):
    # the near-optimal point of the opposite level rounds to a vertex that is not optimal here
    interior_points = qr._interior_points
    messages = _fallback_fits(
        monkeypatch, caplog, lambda X, y, levels, start: interior_points(X, y, [1.0 - q for q in levels], start)
    )
    assert len(messages) == 2
    for q, message in zip((0.05, 0.95), messages):
        assert f"q={q}" in message and "not certified" in message


def test_fit_falls_back_to_highs_when_the_iterations_run_out(monkeypatch, caplog):
    monkeypatch.setattr(qr, "_MAX_ITER", 2)
    messages = _fallback_fits(monkeypatch, caplog, qr._interior_points)
    assert len(messages) == 2
    for q, message in zip((0.05, 0.95), messages):
        assert f"q={q}" in message and "LinAlgError: no duality gap below 1e-08 in 2 iterations" in message


@pytest.mark.parametrize(
    "routine, error",
    [("dpotrf", "LinAlgError: normal matrix not positive definite"), ("dpotrs", "FloatingPointError")],
)
def test_a_level_that_fails_falls_back_alone(monkeypatch, caplog, demo_fits, routine, error):
    # the first iteration factors and solves the five levels in order: the third call is q = 0.5's (and the
    # fourth its factorization with a ridge), and a failed factorization or a NaN step fails that level
    # alone, while the other four step on to their optima
    X, y = demo_fits[0]
    coef, certified = reference_fit_lqr(X, y, DEFAULT_QUANTILES)
    real, calls = getattr(scipy.linalg.lapack, routine), itertools.count()
    failing = (2, 3) if routine == "dpotrf" else (2,)

    def planted(*args, **kwargs):
        out, info = real(*args, **kwargs)
        if next(calls) not in failing:
            return out, info
        return (out, 1) if routine == "dpotrf" else (np.full_like(out, np.nan), info)

    monkeypatch.setattr(scipy.linalg.lapack, routine, planted)
    with caplog.at_level(logging.WARNING, logger="drtopt.qr"):
        model = fit_lqr(X, y, DEFAULT_QUANTILES)
    monkeypatch.undo()
    messages = [r.getMessage() for r in caplog.records if r.name == "drtopt.qr"]
    assert len(messages) == 1 and "q=0.5:" in messages[0] and error in messages[0]
    assert np.array_equal(model.coef[0.5], reference_dual_lp(X, y, 0.5)) and model.converged[0.5]
    for q in (0.05, 0.25, 0.75, 0.95):
        assert model.converged[q] and certified[q]
        assert model.coef[q].tobytes() == coef[q].tobytes(), f"q={q}"


def test_demo_fit_certifies_every_level_without_highs(monkeypatch, caplog):
    # guards the fast path: a regression in the certificate would fall back silently but slowly
    cfg = config.config_from_json_dict(config.default_config_doc("counts.csv", "network.json", 1), Path("."))
    dataset = generate_synthetic(SyntheticSpec(n_locations=4, seed=7))
    monkeypatch.setattr(qr, "linprog", _no_highs)
    with caplog.at_level(logging.WARNING, logger="drtopt.qr"):
        model = forecasting.train_model(dataset, cfg.split, cfg.model, cfg.quantiles)
    converged = [ok for pair_model in model.models.values() for ok in pair_model.converged.values()]
    assert len(converged) == 60 and all(converged)
    assert not [r for r in caplog.records if r.name == "drtopt.qr"]


def make_zero_model(p=3):
    from drtopt.qr import LinearQRModel

    coef = {q: np.zeros(p) for q in DEFAULT_QUANTILES}
    return LinearQRModel(DEFAULT_QUANTILES, coef)


def raw_matrix(model, X):
    X = np.atleast_2d(X)
    return lqr_raw_predict(stack_lqr([model], model.levels), np.zeros(len(X), dtype=int), X)


def test_predict_zero_coefs_returns_previous_count():
    model = make_zero_model()
    values = to_count_scale(raw_matrix(model, np.ones((2, 3))), [9.0, -2.0])
    assert values[0].tolist() == [9.0] * 5
    assert values[1].tolist() == [0.0] * 5


def test_predict_sorting():
    assert to_count_scale([[3.0, 2.0, 5.0]], [0.0], sort_quantiles=True).tolist() == [[2.0, 3.0, 5.0]]
    assert to_count_scale([[3.0, 2.0, 5.0]], [0.0], sort_quantiles=False).tolist() == [[3.0, 2.0, 5.0]]


def test_predict_clips_negative():
    assert to_count_scale([[-4.0]], [0.0], sort_quantiles=False).tolist() == [[0.0]]


def test_predict_layout_mismatch():
    model = make_zero_model(p=3)
    with pytest.raises(ValueError, match="layout"):
        raw_matrix(model, np.ones((1, 5)))


def test_predict_seasonal_scale_applied():
    values = to_count_scale(np.zeros((2, 5)), [1.0, 0.0], [(2.5, 3.0), (-1.0, 2.0)], sort_quantiles=False)
    # raw 0 -> 0*3 + 2.5 -> + prev 1.0; the second row's scale is its own
    assert values[0].tolist() == [3.5] * 5
    assert values[1].tolist() == [0.0] * 5


def test_linear_raw_predict_is_per_row(rng):
    X = rng.normal(size=(100, 3))
    model = fit_lqr(X, rng.normal(size=100))
    batch = raw_matrix(model, X[:20])
    for i in range(20):
        alone = raw_matrix(model, X[i])
        for j, q in enumerate(model.levels):
            assert batch[i, j] == alone[0, j] == model.coef[q] @ X[i]


@pytest.mark.parametrize("n_features", [1, 3, 48, 131])
def test_stacked_linear_raw_predict_equals_each_model_alone(rng, n_features):
    # models with coefficients of very different scales: a change in the order
    # of the products' additions would show in the last bits
    levels = DEFAULT_QUANTILES
    models = [
        qr.LinearQRModel(levels, {q: rng.normal(size=n_features) * 10.0 ** rng.integers(-3, 4, n_features) for q in levels})
        for _ in range(4)
    ]
    X = rng.normal(size=(60, n_features)) * 10.0 ** rng.integers(-3, 4, (60, n_features))
    group = rng.integers(0, len(models), size=len(X))
    raw = lqr_raw_predict(stack_lqr(models, levels), group, X)
    assert raw.shape == (len(X), len(levels))
    for g, model in enumerate(models):
        ref = reference_lqr_raw_predict(model, X[group == g])
        for j, q in enumerate(levels):
            assert np.array_equal(raw[group == g, j], ref[q])


@settings(deadline=None, max_examples=100)
@given(st.lists(st.floats(min_value=0, max_value=100), min_size=5, max_size=5), st.floats(0, 50))
def test_sorting_never_increases_loss(raw, truth):
    # rearrangement property of quantile sorting against any single truth
    levels = DEFAULT_QUANTILES
    unsorted_loss = sum(np.mean(tilted_loss(q, truth, v)) for q, v in zip(levels, raw))
    sorted_loss = sum(np.mean(tilted_loss(q, truth, v)) for q, v in zip(levels, sorted(raw)))
    assert sorted_loss <= unsorted_loss + 1e-9


def test_forecast_monotone_and_nonnegative(rng):
    X = rng.normal(size=(100, 3))
    y = rng.normal(size=100)
    model = fit_lqr(X, y)
    values = to_count_scale(raw_matrix(model, rng.normal(size=(20, 3))), rng.normal(size=20))
    for arr in values:
        assert all(v >= 0 for v in arr)
        assert all(a <= b + 1e-12 for a, b in zip(arr, arr[1:]))


# ---------------------------------------------------------------------------
# seasonal normalization
# ---------------------------------------------------------------------------


def weekly_series(values, start="2017-11-20T08"):
    t0 = parse_hour(start)
    ts = t0 + (np.arange(len(values)) * 7 * 24).astype("timedelta64[h]")
    return PairSeries(PAIR, ts, np.asarray(values, dtype=float))


def fit_one(s):
    """fit_seasonal_stats of a one-pair record holding s."""
    return fit_seasonal_stats(record_of({s.pair: s}))


def normalized_values(s, stats):
    """seasonal_normalize of a one-pair record holding s."""
    return seasonal_normalize(record_of({s.pair: s}), stats).values


def test_seasonal_constant_bucket_passthrough():
    s = weekly_series([4.0, 4.0, 4.0, 4.0])
    with pytest.warns(UserWarning, match="zero variance"):
        stats = fit_one(s)
    normalized = normalized_values(s, stats)
    assert np.array_equal(normalized, s.values)


def test_seasonal_normalize_inverse_identity(rng):
    s = weekly_series(rng.normal(5, 3, size=30))
    stats = fit_one(s)
    scales = stats.scales_at(np.zeros(len(s), dtype=int), s.timestamps)
    back = normalized_values(s, stats) * scales[:, 1] + scales[:, 0]
    assert np.allclose(back, s.values, atol=1e-12)


def test_seasonal_train_buckets_standardized(rng):
    s = weekly_series(rng.normal(5, 3, size=50))
    stats = fit_one(s)
    normalized = normalized_values(s, stats)
    assert abs(np.mean(normalized)) <= 1e-9
    assert abs(np.std(normalized) - 1.0) <= 1e-9


@pytest.mark.parametrize("seed", range(4))
def test_seasonal_stats_equal_each_pairs_reference_cells(seed):
    # three pairs over five weeks with random gaps, values of mixed scales and
    # constant cells: every cell's mean and std bit for bit, NaN where no row falls
    rng = np.random.default_rng(seed)
    t0 = parse_hour("2017-11-20T00")
    history = {}
    for pair in (ODPair(0, 1), ODPair(1, 0), ODPair(2, 0)):
        hours = np.sort(rng.choice(5 * 7 * 24, size=int(rng.integers(50, 600)), replace=False))
        values = rng.normal(size=len(hours)) * 10.0 ** rng.integers(-3, 4, len(hours))
        values[hour_of(t0 + hours.astype("timedelta64[h]")) == 3] = 2.5
        history[pair] = PairSeries(pair, t0 + hours.astype("timedelta64[h]"), values)
    with pytest.warns(UserWarning, match="zero variance"):
        stats = fit_seasonal_stats(record_of(history))
    assert stats.pairs == tuple(sorted(history))
    assert stats.mean.shape == stats.std.shape == (3, 7, 24)
    for i, pair in enumerate(stats.pairs):
        cells = reference_seasonal_cells(history[pair].timestamps, history[pair].values)
        for d, h in np.ndindex(7, 24):
            got = stats.mean[i, d, h], stats.std[i, d, h]
            if (d, h) in cells:
                assert got == cells[(d, h)]
            else:
                assert np.isnan(got).all()


def test_seasonal_scales_look_up_each_pairs_own_cell():
    # three pairs' stats: cells with and without variance and cells with no train row
    pairs = (ODPair(0, 1), ODPair(1, 0), ODPair(2, 0))
    mean, std = np.full((3, 7, 24), np.nan), np.full((3, 7, 24), np.nan)
    for i, (d, h), m, sd in [
        (0, (0, 8), 2.0, 0.5), (0, (1, 9), 3.0, 0.0),
        (1, (0, 8), -1.0, 2.0), (1, (6, 22), 4.0, 1.5), (1, (3, 7), 0.5, 0.25),
        (2, (2, 12), 7.0, 0.0),
    ]:
        mean[i, d, h], std[i, d, h] = m, sd
    stats = qr.SeasonalStats(pairs, mean, std)
    week = parse_hour("2017-11-20T00") + np.arange(7 * 24).astype("timedelta64[h]")  # Monday to Sunday
    # the pairs asked for in another order than the table's
    order = np.array([2, 0, 1])
    stamps, which = np.tile(week, 3), np.repeat(np.arange(3), len(week))
    got = stats.scales_at(order[which], stamps)
    for (m, sd), j, t in zip(got, which, stamps):
        i, d, h = order[j], int(weekday_of(t)), int(hour_of(t))
        varies = std[i, d, h] > 0
        assert (m, sd) == ((mean[i, d, h], std[i, d, h]) if varies else (0.0, 1.0))


def test_seasonal_stats_name_a_pair_without_cells():
    pairs = (ODPair(0, 1), ODPair(1, 0))
    mean = np.full((2, 7, 24), np.nan)
    mean[0, 0, 8] = 1.0
    std = np.where(np.isnan(mean), np.nan, 2.0)
    with pytest.raises(ValueError, match=re.escape(f"no seasonal cells for pair {pairs[1]}")):
        qr.SeasonalStats(pairs, mean, std)
    stats = qr.SeasonalStats(pairs[:1], mean[:1], std[:1])
    monday_8 = parse_hour("2017-11-20T08")[None]
    assert stats.scales_at(np.zeros(1, dtype=int), monday_8).tolist() == [[1.0, 2.0]]
    # a pair outside the table has no row in it
    with pytest.raises(IndexError):
        stats.scales_at(np.ones(1, dtype=int), monday_8)


# ---------------------------------------------------------------------------
# grid search
# ---------------------------------------------------------------------------


def test_grid_search_single_point():
    best, scores = grid_search(lambda p: 1.0, ["only"])
    assert best == "only"


def test_grid_search_picks_minimum():
    best, scores = grid_search(lambda p: {"bad1": 9.0, "good": 1.0, "bad2": 5.0}[p], ["bad1", "good", "bad2"])
    assert best == "good"


def test_grid_search_tie_first_wins():
    best, _ = grid_search(lambda p: 2.0, ["first", "second", "third"])
    assert best == "first"


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_grid_search_rejects_a_non_finite_score(bad):
    with pytest.raises(ValueError, match=f"grid point second scored {bad}"):
        grid_search(lambda p: {"first": 1.0, "second": bad}[p], ["first", "second"])


def test_grid_search_empty_grid():
    with pytest.raises(ValueError):
        grid_search(lambda p: 0.0, [])
