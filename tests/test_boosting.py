import numpy as np
import pytest

from drtopt.boosting import (
    GBoostHyper,
    fit_gboost,
    gboost_raw_predict,
)
from drtopt.forecasting import to_count_scale
from drtopt.qr import DEFAULT_QUANTILES, pinball_minimizing_constant


def test_hyper_validation_bounds():
    GBoostHyper(0.0, 0, 1).validate()
    GBoostHyper(1.0, 6, 200).validate()
    with pytest.raises(ValueError):
        GBoostHyper(learning_rate=1.5).validate()
    with pytest.raises(ValueError):
        GBoostHyper(max_depth=7).validate()
    with pytest.raises(ValueError):
        GBoostHyper(n_trees=0).validate()
    with pytest.raises(ValueError):
        GBoostHyper(n_trees=201).validate()


def test_stump_converges_to_empirical_quantile(rng):
    # intercept-only data spanning a range of 100
    y = rng.uniform(0.0, 100.0, size=137)
    X = np.ones((137, 1))
    hyper = GBoostHyper(learning_rate=0.5, max_depth=0, n_trees=200)
    model = fit_gboost(X, y, DEFAULT_QUANTILES, hyper)
    raw = gboost_raw_predict(model, X[:1])
    for q in DEFAULT_QUANTILES:
        target = pinball_minimizing_constant(y, q)
        assert abs(raw[q][0] - target) <= 0.5


def test_zero_learning_rate_keeps_initial_constant(rng):
    y = rng.uniform(0.0, 50.0, size=64)
    X = rng.normal(size=(64, 3))
    model = fit_gboost(X, y, (0.25, 0.75), GBoostHyper(learning_rate=0.0, max_depth=2, n_trees=20))
    raw = gboost_raw_predict(model, X)
    for q in (0.25, 0.75):
        assert np.allclose(raw[q], model.init[q])


def test_train_loss_non_increasing(rng):
    y = rng.gamma(4.0, 3.0, size=200)
    X = rng.normal(size=(200, 4))
    model = fit_gboost(X, y, DEFAULT_QUANTILES, GBoostHyper(learning_rate=0.3, max_depth=2, n_trees=40))
    for q in DEFAULT_QUANTILES:
        path = np.array(model.train_loss[q])
        assert np.all(np.diff(path) <= 1e-12)


def test_deterministic_fit(rng):
    y = rng.normal(size=100)
    X = rng.normal(size=(100, 3))
    a = fit_gboost(X, y, (0.5,), GBoostHyper(0.2, 2, 15))
    b = fit_gboost(X, y, (0.5,), GBoostHyper(0.2, 2, 15))
    assert np.array_equal(gboost_raw_predict(a, X)[0.5], gboost_raw_predict(b, X)[0.5])


def test_trees_actually_split_on_informative_feature(rng):
    x = rng.uniform(-1, 1, size=300)
    y = np.where(x > 0, 20.0, 2.0) + rng.normal(0, 0.1, size=300)
    X = x[:, None]
    model = fit_gboost(X, y, (0.5,), GBoostHyper(learning_rate=0.5, max_depth=2, n_trees=60))
    raw = gboost_raw_predict(model, np.array([[-0.5], [0.5]]))
    assert raw[0.5][0] == pytest.approx(2.0, abs=1.0)
    assert raw[0.5][1] == pytest.approx(20.0, abs=1.0)


def test_early_stopping_truncates(rng):
    y = rng.normal(size=150)
    X = rng.normal(size=(150, 2))
    val = (rng.normal(size=(60, 2)), rng.normal(size=60))
    full = fit_gboost(X, y, (0.5,), GBoostHyper(0.5, 3, 120))
    stopped = fit_gboost(X, y, (0.5,), GBoostHyper(0.5, 3, 120), val=val, patience=5)
    # pure-noise validation loss stops improving long before 120 stages
    assert len(stopped.trees[0.5]) < len(full.trees[0.5])


def test_predict_postprocessing(rng):
    y = rng.uniform(0, 10, size=80)
    X = rng.normal(size=(80, 2))
    model = fit_gboost(X, y, DEFAULT_QUANTILES, GBoostHyper(0.3, 2, 20))
    raw = gboost_raw_predict(model, rng.normal(size=(10, 2)))
    values = to_count_scale(np.column_stack([raw[q] for q in DEFAULT_QUANTILES]), np.full(10, 3.0))
    for arr in values.tolist():
        assert all(v >= 0 for v in arr)
        assert arr == sorted(arr)


def test_rejects_non_finite(rng):
    X = rng.normal(size=(30, 2))
    y = rng.normal(size=30)
    y[4] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        fit_gboost(X, y, (0.5,), GBoostHyper())
