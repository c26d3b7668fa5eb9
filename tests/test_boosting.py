import json
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drtopt import boosting, config
from drtopt.boosting import (
    Forest,
    GBoostHyper,
    _Bins,
    _split,
    fit_gboost,
    gboost_raw_predict,
    tree_from_doc,
    tree_to_doc,
)
from drtopt.data import SplitSpec
from drtopt.forecasting import ModelSpec, _group_rows, _inner_doc, gboost_grid_search, model_to_json_dict, to_count_scale, train_model
from drtopt.qr import DEFAULT_QUANTILES, tilted_loss
from drtopt.synth import SyntheticSpec, generate_synthetic
from reference_qr import reference_pinball_constant
from reference_trees import reference_best_split, reference_gboost_raw_predict, reference_grow_tree, reference_raw_predict


def raw_predict(model, X) -> dict[float, np.ndarray]:
    """`gboost_raw_predict` of one model, by level."""
    X = np.atleast_2d(X)
    raw = gboost_raw_predict(boosting.stack_gboost([model], model.levels), np.zeros(len(X), dtype=int), X)
    return dict(zip(model.levels, raw.T))


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
    raw = raw_predict(model, X[:1])
    for q in DEFAULT_QUANTILES:
        target = reference_pinball_constant(y, q)
        assert abs(raw[q][0] - target) <= 0.5


def test_zero_learning_rate_keeps_initial_constant(rng):
    y = rng.uniform(0.0, 50.0, size=64)
    X = rng.normal(size=(64, 3))
    model = fit_gboost(X, y, (0.25, 0.75), GBoostHyper(learning_rate=0.0, max_depth=2, n_trees=20))
    raw = raw_predict(model, X)
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
    assert np.array_equal(raw_predict(a, X)[0.5], raw_predict(b, X)[0.5])


def test_trees_actually_split_on_informative_feature(rng):
    x = rng.uniform(-1, 1, size=300)
    y = np.where(x > 0, 20.0, 2.0) + rng.normal(0, 0.1, size=300)
    X = x[:, None]
    model = fit_gboost(X, y, (0.5,), GBoostHyper(learning_rate=0.5, max_depth=2, n_trees=60))
    raw = raw_predict(model, np.array([[-0.5], [0.5]]))
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
    raw = raw_predict(model, rng.normal(size=(10, 2)))
    values = to_count_scale(np.column_stack([raw[q] for q in DEFAULT_QUANTILES]), np.full(10, 3.0))
    for arr in values.tolist():
        assert all(v >= 0 for v in arr)
        assert arr == sorted(arr)


@pytest.mark.parametrize(
    "X, y, match",
    [
        (np.ones(10), np.ones(10), r"X must be 2-D \(rows, features\), got shape \(10,\)"),
        (np.ones((10, 2)), np.ones(9), r"y must hold one value per row of X: 10 rows, y of shape \(9,\)"),
        (np.ones((10, 2)), np.ones((10, 1)), r"y must hold one value per row of X: 10 rows, y of shape \(10, 1\)"),
        (np.ones((0, 2)), np.ones(0), "no training rows"),
        (np.ones((10, 0)), np.ones(10), "X has no feature columns: a tree needs one to split on"),
    ],
)
def test_malformed_training_data_is_named(X, y, match):
    with pytest.raises(ValueError, match=match):
        fit_gboost(X, y, (0.5,), GBoostHyper())


@pytest.mark.parametrize(
    "val, match",
    [
        ((np.ones((30, 3)), np.ones(30)), r"val must be 2-feature rows with one y each: X of shape \(30, 3\), y of shape \(30,\)"),
        ((np.ones((30, 2)), np.ones(20)), r"val must be 2-feature rows with one y each: X of shape \(30, 2\), y of shape \(20,\)"),
        ((np.ones((30, 2)), np.r_[np.ones(29), np.nan]), "non-finite values in validation data"),
        ((np.r_[np.ones((29, 2)), [[np.inf, 0.0]]], np.ones(30)), "non-finite values in validation data"),
    ],
)
def test_malformed_validation_data_is_named(rng, val, match):
    # a NaN validation target used to stop the fit at zero trees without a word
    with pytest.raises(ValueError, match=match):
        fit_gboost(rng.normal(size=(100, 2)), rng.normal(size=100), (0.5,), GBoostHyper(0.3, 2, 30), val=val, patience=5)


def test_empty_validation_set_is_rejected(rng):
    # an empty set made every validation loss NaN, and the fit kept zero trees
    with pytest.raises(ValueError, match="the validation set has no rows"):
        fit_gboost(
            rng.normal(size=(100, 2)), rng.normal(size=100), (0.5,), GBoostHyper(0.3, 2, 30),
            val=(np.zeros((0, 2)), np.zeros(0)), patience=5,
        )


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
        raw = raw_predict(model, rows)
        ref = reference_raw_predict(doc, hyper.learning_rate, rows)
        for q in model.levels:
            assert np.array_equal(raw[q], ref[q])
    for q in model.levels:
        assert len(model.trees[q]) == 12
        # the training rows reproduce the fit's own running value
        assert float(np.mean(tilted_loss(q, y, raw_predict(model, X)[q]))) == model.train_loss[q][-1]
        back = Forest.empty(12, depth)
        for t, tree in enumerate(doc["trees"][str(q)]):
            tree_from_doc(tree, back, t, "m", X.shape[1])
        assert [tree_to_doc(back, t) for t in range(12)] == doc["trees"][str(q)]
    assert max(_depth(t) for ts in doc["trees"].values() for t in ts) == depth


def test_stacked_predict_equals_each_model_alone(rng):
    # the models differ in depth, in learning rate and, through early stopping,
    # in the number of trees of each level; one keeps no tree at all
    levels = (0.25, 0.5, 0.9)
    X = np.round(rng.normal(size=(120, 3)), 1)
    y = rng.gamma(3.0, 2.0, size=120) + 3.0 * (X[:, 0] > 0)
    val = (X[:40], y[:40])
    models = [
        fit_gboost(X, y, levels, GBoostHyper(0.3, 2, 12)),
        fit_gboost(X[40:], y[40:], levels, GBoostHyper(0.5, 4, 30), val=val, patience=3),
        fit_gboost(X, y, levels, GBoostHyper(0.1, 0, 5)),
        fit_gboost(X[40:], y[40:], levels, GBoostHyper(0.5, 3, 20), val=(X[:40], np.full(40, np.median(y[40:]))), patience=1),
    ]
    counts = {len(m.trees[q]) for m in models for q in levels}
    assert len(counts) > 2 and 0 in counts
    rows = np.vstack([X, rng.normal(size=(50, 3))])
    group = rng.integers(0, len(models), size=len(rows))
    raw = gboost_raw_predict(boosting.stack_gboost(models, levels), group, rows)
    assert raw.shape == (len(rows), len(levels))
    for g, model in enumerate(models):
        ref = reference_gboost_raw_predict(model, rows[group == g])
        for j, q in enumerate(levels):
            assert np.array_equal(raw[group == g, j], ref[q])


def test_stacked_predict_does_not_depend_on_the_chunk(rng, monkeypatch):
    X = rng.normal(size=(90, 2))
    model = fit_gboost(X, rng.normal(size=90), DEFAULT_QUANTILES, GBoostHyper(0.3, 3, 10))
    whole = raw_predict(model, X)
    monkeypatch.setattr(boosting, "_PREDICT_CELLS", 7 * len(DEFAULT_QUANTILES) * 10)  # 7 rows a chunk
    chunked = raw_predict(model, X)
    assert all(np.array_equal(whole[q], chunked[q]) for q in DEFAULT_QUANTILES)


def _depth(tree: dict) -> int:
    return 0 if "value" in tree else 1 + max(_depth(tree["left"]), _depth(tree["right"]))


def test_early_stopping_to_zero_trees_predicts_the_initial_constant(rng):
    X = rng.normal(size=(100, 2))
    y = rng.normal(size=100)
    # a validation set sitting at the initial constant: no stage can improve on it
    val = (rng.normal(size=(30, 2)), np.full(30, reference_pinball_constant(y, 0.5)))
    model = fit_gboost(X, y, (0.5,), GBoostHyper(0.5, 3, 50), val=val, patience=3)
    assert len(model.trees[0.5]) == 0
    assert _inner_doc("gboost", model)["trees"] == {"0.5": []}
    raw = raw_predict(model, X)
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


COLUMN_KINDS = ("onehot", "integer", "constant", "tied", "duplicate")


def _columns(rng, n: int, kinds) -> np.ndarray:
    columns = []
    for kind in kinds:
        if kind == "onehot":
            columns.append((rng.random(n) < rng.uniform(0.05, 0.5)).astype(np.float64))
        elif kind == "integer":
            columns.append(rng.integers(0, 5, size=n).astype(np.float64))
        elif kind == "constant":
            columns.append(np.full(n, rng.normal()))
        elif kind == "tied":
            columns.append(np.round(rng.normal(size=n), 1))
        else:  # an equal column earlier in the layout: the gains tie, the first feature keeps the split
            columns.append(columns[-1].copy() if columns else np.zeros(n))
    return np.column_stack(columns)


def _assert_split_is_the_reference(X, g, q, rows):
    """`_split` of the node `rows` (in arrival order) of a fit binned over all of X equals the per-feature scan.

    Both with the node's histograms, screened, and without, every feature scanned.
    """
    bins = _Bins.of(np.ascontiguousarray(X.T))
    ref = reference_best_split(X[rows], g[rows])
    for counts in (bins.counts(rows, g), None):
        got = _split(bins, rows, g[rows], q, counts)
        if ref is None:
            assert got is None
            continue
        assert got[0] == ref[0] and got[1] == ref[1]
        assert np.array_equal(got[2], rows[ref[2]]) and np.array_equal(got[3], rows[ref[3]])


@settings(deadline=None, max_examples=300)
@given(
    st.integers(2, 40),
    st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=6),
    st.sampled_from([0.05, 0.95]),
    st.integers(0, 2**32 - 1),
    st.randoms(use_true_random=False),
)
def test_split_search_equals_the_per_feature_reference(n, kinds, q, seed, shuffler):
    rng = np.random.default_rng(seed)
    X = _columns(rng, n, kinds)
    # the tilted-loss gradient: q above the fit, q - 1 below; neither is exact in binary
    g = np.where(rng.random(n) < q, q - 1.0, q)
    perm = list(range(n))
    shuffler.shuffle(perm)
    X, g = X[perm], g[perm]
    # as at a tree's root, and at a node: some of the rows, in an order of their own
    _assert_split_is_the_reference(X, g, q, np.arange(n))
    node = np.array(perm[: shuffler.randint(2, n)])
    _assert_split_is_the_reference(X, g, q, node)
    with pytest.MonkeyPatch.context() as patch:  # every feature scanned, none screened out
        patch.setattr(boosting, "_SCREENED_ROWS", 0)
        _assert_split_is_the_reference(X, g, q, node)


@settings(deadline=None, max_examples=40)
@given(
    st.integers(2, 5000),
    st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=8),
    st.sampled_from([0.05, 0.95, 1 / 3]),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
)
def test_split_search_of_a_large_node_equals_the_per_feature_reference(n, kinds, q, share, seed):
    # the screen's window grows with the node's rows squared: thousands of rows, and gains that
    # tie between duplicate, constant, one-hot and tied columns, exercise it at its widest
    rng = np.random.default_rng(seed)
    X = _columns(rng, n, kinds)
    g = np.where(rng.random(n) < rng.uniform(0.0, 1.0), q - 1.0, q)
    rows = rng.permutation(n)[: max(2, int(share * n))]
    _assert_split_is_the_reference(X, g, q, rows)


@pytest.fixture
def references(monkeypatch):
    """Fit with trees grown by the per-feature split search and the enumerated leaf rule."""

    def grow_tree(bins, g, residuals, q, max_depth, forest, t, rows, counts):
        reference_grow_tree(bins.XT[:, rows].T, g[rows], residuals[rows], q, 0, max_depth, forest, t)

    monkeypatch.setattr(boosting, "_grow_tree", grow_tree)
    monkeypatch.setattr(boosting, "pinball_minimizing_constant", reference_pinball_constant)


SMALL_SPLIT = SplitSpec((date(2017, 11, 17), date(2017, 12, 5)), (date(2017, 12, 6), date(2017, 12, 12)))


@pytest.fixture(scope="module")
def small_dataset():
    return generate_synthetic(SyntheticSpec(n_locations=3, end=date(2017, 12, 12), seed=11))


def _fit_doc(dataset, spec) -> str:
    return json.dumps(model_to_json_dict(train_model(dataset, SMALL_SPLIT, spec, (0.05, 0.5, 0.95))))


@pytest.mark.parametrize("depth", range(5))
@pytest.mark.parametrize("scope", ["per_pair", "pooled"])
def test_fit_equals_a_fit_with_both_references(small_dataset, request, scope, depth):
    spec = ModelSpec(family="gboost", scope=scope, exam_period=None, gboost=GBoostHyper(0.3, depth, 3))
    fast = _fit_doc(small_dataset, spec)
    request.getfixturevalue("references")
    assert fast == _fit_doc(small_dataset, spec)


@pytest.mark.filterwarnings("ignore:.*seasonal cell.*zero variance")
@pytest.mark.parametrize("scope", ["per_pair", "pooled"])
def test_a_fit_of_continuous_features_equals_a_fit_with_both_references(small_dataset, request, monkeypatch, scope):
    # seasonally normalized lags take about as many values as there are rows, so the
    # histograms hold more bins than a small node has (feature, row)s: those nodes go unscreened
    spec = ModelSpec(family="gboost", scope=scope, exam_period=None, seasonal_normalize=True, gboost=GBoostHyper(0.3, 5, 3))
    screened = set()

    def split(bins, rows, g, q, counts):
        screened.add(counts is not None)
        return _split(bins, rows, g, q, counts)

    with monkeypatch.context() as patch:
        patch.setattr(boosting, "_split", split)
        fast = _fit_doc(small_dataset, spec)
    assert screened == {True, False}
    request.getfixturevalue("references")
    assert fast == _fit_doc(small_dataset, spec)


def test_a_demo_pair_fit_at_the_default_hyperparameters_equals_the_references(request):
    # the CLI demo's data (synth --locations 4 --seed 7) and config, its first pair's train rows
    doc = config.default_config_doc("counts.csv", "network.json", 1)
    doc["model"]["family"] = "gboost"
    cfg = config.config_from_json_dict(doc, Path("."))
    assert cfg.model.gboost == GBoostHyper()
    (X, y, _, pair_index), _ = _group_rows(generate_synthetic(SyntheticSpec(n_locations=4, seed=7)), cfg.split, cfg.model)
    X, y = X[pair_index == 0], y[pair_index == 0]

    def fit():
        model = fit_gboost(X, y, (0.05, 0.95), cfg.model.gboost)
        trees = {q: [a.tobytes() for a in (f.feature, f.threshold, f.value)] for q, f in model.trees.items()}
        return model.init, trees, model.train_loss

    fast = fit()
    request.getfixturevalue("references")
    assert fast == fit()


def test_early_stopped_fits_and_grid_scores_equal_the_references(small_dataset, request, rng):
    X = np.round(rng.normal(size=(150, 5)), 1)
    y = rng.gamma(2.0, 2.0, size=150) + X[:, 0]
    val = (np.round(rng.normal(size=(60, 5)), 1), rng.gamma(2.0, 2.0, size=60))
    hyper = GBoostHyper(0.5, 3, 40)
    spec = ModelSpec(family="gboost", exam_period=None)
    grid = [GBoostHyper(0.3, 2, 4), GBoostHyper(0.5, 1, 6)]

    def run():
        model = fit_gboost(X, y, DEFAULT_QUANTILES, hyper, val=val, patience=4)
        return json.dumps(_inner_doc("gboost", model)), gboost_grid_search(small_dataset, SMALL_SPLIT, spec, grid, (0.05, 0.95))

    fast = run()
    request.getfixturevalue("references")
    ref = run()
    assert fast == ref
    assert len(json.loads(fast[0])["trees"]["0.5"]) < hyper.n_trees  # validation stopped the fit early


@pytest.mark.parametrize("scope, group", [("per_pair", "pair g0>g1"), ("pooled", "the pooled group")])
def test_grid_search_names_the_group_without_validation_rows(small_dataset, scope, group):
    # masking the second train week empties the tuning-validation range of every group
    split = SplitSpec(SMALL_SPLIT.train_range, SMALL_SPLIT.test_range, masked_dates=((date(2017, 11, 24), date(2017, 11, 30)),))
    spec = ModelSpec(family="gboost", scope=scope, exam_period=None)
    with pytest.raises(ValueError, match=rf"{group} has no rows in the tuning-validation range 2017-11-24\.\.2017-11-30"):
        gboost_grid_search(small_dataset, split, spec, [GBoostHyper(0.3, 2, 4)], (0.5,))
