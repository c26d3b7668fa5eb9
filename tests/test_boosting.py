import numpy as np
import pytest

from drtopt.boosting import (
    Forest,
    GBoostHyper,
    fit_gboost,
    gboost_raw_predict,
    tree_from_doc,
    tree_to_doc,
)
from drtopt.forecasting import _inner_doc, to_count_scale
from drtopt.qr import DEFAULT_QUANTILES, pinball_minimizing_constant, tilted_loss
from reference_trees import reference_raw_predict


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


@pytest.mark.parametrize("depth", range(7))
def test_array_predict_equals_walking_the_json_trees(rng, depth):
    X = np.round(rng.normal(size=(160, 4)), 1)  # ties in every feature
    y = rng.gamma(3.0, 2.0, size=160) + 3.0 * (X[:, 0] > 0)
    hyper = GBoostHyper(learning_rate=0.3, max_depth=depth, n_trees=12)
    model = fit_gboost(X, y, (0.25, 0.5, 0.9), hyper)
    doc = _inner_doc("gboost", model)
    fresh = rng.normal(size=(40, 4))
    # rows sitting exactly on a split threshold go left
    split = model.trees[0.5].feature >= 0
    on_edge = np.repeat(X[:1], split.sum(), axis=0)
    on_edge[np.arange(split.sum()), model.trees[0.5].feature[split]] = model.trees[0.5].threshold[split]
    for rows in (X, fresh, fresh[:1], fresh[:0], on_edge):
        raw = gboost_raw_predict(model, rows)
        ref = reference_raw_predict(doc, hyper.learning_rate, rows)
        for q in model.levels:
            assert np.array_equal(raw[q], ref[q])
    for q in model.levels:
        assert len(model.trees[q]) == 12
        # the training rows reproduce the fit's own running value
        assert float(np.mean(tilted_loss(q, y, gboost_raw_predict(model, X)[q]))) == model.train_loss[q][-1]
        back = Forest.empty(12, depth)
        for t, tree in enumerate(doc["trees"][str(q)]):
            tree_from_doc(tree, back, t, "m", X.shape[1])
        assert [tree_to_doc(back, t) for t in range(12)] == doc["trees"][str(q)]
    assert max(_depth(t) for ts in doc["trees"].values() for t in ts) == depth


def _depth(tree: dict) -> int:
    return 0 if "value" in tree else 1 + max(_depth(tree["left"]), _depth(tree["right"]))


def test_early_stopping_to_zero_trees_predicts_the_initial_constant(rng):
    X = rng.normal(size=(100, 2))
    y = rng.normal(size=100)
    # a validation set sitting at the initial constant: no stage can improve on it
    val = (rng.normal(size=(30, 2)), np.full(30, pinball_minimizing_constant(y, 0.5)))
    model = fit_gboost(X, y, (0.5,), GBoostHyper(0.5, 3, 50), val=val, patience=3)
    assert len(model.trees[0.5]) == 0
    assert _inner_doc("gboost", model)["trees"] == {"0.5": []}
    raw = gboost_raw_predict(model, X)
    assert np.array_equal(raw[0.5], reference_raw_predict(_inner_doc("gboost", model), 0.5, X)[0.5])
    assert np.all(raw[0.5] == model.init[0.5])


def test_tree_deeper_than_max_depth_is_rejected():
    leaf = {"value": 1.0}
    split = {"feature": 1, "threshold": 2.0, "left": leaf, "right": leaf}
    deep = {"feature": 0, "threshold": 0.0, "left": leaf, "right": split}
    tree_from_doc(deep, Forest.empty(1, 2), 0, "a>b, level 0.5", 2)
    with pytest.raises(ValueError, match=r"model a>b, level 0\.5: tree 0 is deeper than max_depth 1"):
        tree_from_doc(deep, Forest.empty(1, 1), 0, "a>b, level 0.5", 2)


@pytest.mark.parametrize("feature", [2, 999, -1])
def test_split_on_a_feature_outside_the_layout_is_rejected(feature):
    leaf = {"value": 1.0}
    tree = {"feature": 0, "threshold": 0.0, "left": leaf, "right": {"feature": feature, "threshold": 2.0, "left": leaf, "right": leaf}}
    with pytest.raises(ValueError, match=rf"model a>b, level 0\.5: tree 0 splits on feature {feature}, outside 0\.\.1"):
        tree_from_doc(tree, Forest.empty(1, 2), 0, "a>b, level 0.5", 2)
