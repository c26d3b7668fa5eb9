import json
import re
import warnings
from datetime import date

import numpy as np
import pytest

from drtopt import forecasting
from drtopt.boosting import GBoostHyper, fit_gboost, gboost_raw_predict
from drtopt.data import HourlySeries, SplitSpec, build_features
from drtopt.forecasting import (
    ModelSpec,
    gboost_grid_search,
    load_model,
    model_from_json_dict,
    model_to_json_dict,
    predict_forecasts,
    save_model,
    evaluation_lags,
    train_model,
    tuning_ranges,
    working_series,
)
from drtopt.metrics import crossings
from drtopt.qr import DEFAULT_QUANTILES, fit_seasonal_stats, seasonal_normalize, tilted_loss
from drtopt.synth import SyntheticSpec, generate_synthetic
from reference_features import reference_features
from reference_trees import reference_raw_predict

SPLIT = SplitSpec((date(2017, 11, 17), date(2017, 12, 12)), (date(2017, 12, 13), date(2017, 12, 20)))


@pytest.fixture(scope="module")
def dataset():
    return generate_synthetic(SyntheticSpec(n_locations=3, end=date(2017, 12, 20), seed=3))


def spec(**kw):
    kw.setdefault("exam_period", None)
    return ModelSpec(**kw)


def test_model_spec_validation():
    with pytest.raises(ValueError, match="family"):
        ModelSpec(family="nope")
    with pytest.raises(ValueError, match="scope"):
        ModelSpec(scope="nope")
    with pytest.raises(ValueError, match="exclusive"):
        ModelSpec(cross_lags=True, scope="pooled")


def test_working_series_is_masked_and_differenced(dataset):
    hist = working_series(dataset, SPLIT)
    s = hist[dataset.pairs[0]]
    hours = s.timestamps.astype("int64") % 24
    assert set(hours) <= set(range(7, 23))
    raw = dataset.series[dataset.pairs[0]]
    # a retained 08:00 value equals the 08:00-07:00 raw difference
    t = s.timestamps[5]
    i = int(np.searchsorted(raw.timestamps, t))
    assert s.values[5] == raw.counts[i] - raw.counts[i - 1]


def test_evaluation_lags_cover_test_week(dataset):
    lags = evaluation_lags(dataset, SPLIT)
    assert len(lags) == 8 * 16  # 8 test days x 16 unmasked hours
    days = np.unique(lags.astype("datetime64[D]"))
    assert str(days[0]) == "2017-12-13" and str(days[-1]) == "2017-12-20"


@pytest.mark.parametrize("family", ["hp", "linear"])
def test_train_predict_shapes(dataset, family):
    model = train_model(dataset, SPLIT, spec(family=family), DEFAULT_QUANTILES)
    lags = evaluation_lags(dataset, SPLIT)[:4]
    forecasts = predict_forecasts(model, dataset, SPLIT, lags)
    assert set(forecasts) == set(lags)
    for per_pair in forecasts.values():
        assert set(per_pair) == set(dataset.pairs)
        for fc in per_pair.values():
            vals = [fc.values[q] for q in DEFAULT_QUANTILES]
            assert all(v >= 0 for v in vals)
            assert vals == sorted(vals)


def test_gboost_train_predict(dataset):
    mspec = spec(family="gboost", gboost=GBoostHyper(0.3, 2, 10))
    model = train_model(dataset, SPLIT, mspec, (0.25, 0.75))
    lags = evaluation_lags(dataset, SPLIT)[:2]
    forecasts = predict_forecasts(model, dataset, SPLIT, lags)
    assert all(len(per_pair) == 6 for per_pair in forecasts.values())


def test_pooled_scope_trains_single_model(dataset):
    model = train_model(dataset, SPLIT, spec(scope="pooled"), (0.5,))
    assert set(model.models) == {None}
    lags = evaluation_lags(dataset, SPLIT)[:2]
    forecasts = predict_forecasts(model, dataset, SPLIT, lags)
    assert len(forecasts[lags[0]]) == 6


def test_cross_lag_model_trains(dataset):
    model = train_model(dataset, SPLIT, spec(cross_lags=True, cross_order=1), (0.5,))
    lags = evaluation_lags(dataset, SPLIT)[:2]
    forecasts = predict_forecasts(model, dataset, SPLIT, lags)
    assert len(forecasts[lags[0]]) == 6


def test_seasonal_variant_round_trips(dataset):
    model = train_model(dataset, SPLIT, spec(seasonal_normalize=True), (0.25, 0.75))
    assert set(model.seasonal) == set(dataset.pairs)
    lags = evaluation_lags(dataset, SPLIT)[:2]
    forecasts = predict_forecasts(model, dataset, SPLIT, lags)
    for per_pair in forecasts.values():
        for fc in per_pair.values():
            assert all(v >= 0 for v in fc.values.values())


def test_sorted_forecasts_never_cross(dataset):
    model = train_model(dataset, SPLIT, spec(), DEFAULT_QUANTILES)
    lags = evaluation_lags(dataset, SPLIT)
    forecasts = predict_forecasts(model, dataset, SPLIT, lags)
    for pair in dataset.pairs:
        series = [forecasts[np.datetime64(t, "h")][pair] for t in lags]
        assert crossings(series, DEFAULT_QUANTILES) == 0


@pytest.mark.parametrize(
    "mspec",
    [
        spec(),
        spec(scope="pooled"),
        spec(cross_lags=True, cross_order=2),
        spec(seasonal_normalize=True),
        spec(family="gboost", gboost=GBoostHyper(0.3, 2, 5)),
    ],
    ids=["linear", "pooled", "cross2", "seasonal", "gboost"],
)
def test_batched_predict_equals_one_lag_predicts(dataset, mspec):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # zero-variance seasonal cells
        model = train_model(dataset, SPLIT, mspec, DEFAULT_QUANTILES)
    lags = evaluation_lags(dataset, SPLIT)[::9]
    batch = predict_forecasts(model, dataset, SPLIT, lags)
    assert list(batch) == list(lags)
    for t in lags:
        alone = predict_forecasts(model, dataset, SPLIT, np.array([t]))[t]
        assert list(alone) == list(batch[t]) == list(model.pair_order)
        for pair, fc in alone.items():
            assert fc.values == batch[t][pair].values and fc.lag == t


def test_lag_outside_modeled_hours_is_skipped_in_training_and_raises_in_predict(dataset):
    # hours 6 and 23 stay in the working series but have no time-of-day column
    split = SplitSpec(SPLIT.train_range, SPLIT.test_range, masked_hours=frozenset(range(6)))
    histories = working_series(dataset, split)
    pair = dataset.pairs[0]
    cfg = spec().feature_config(tuple(dataset.pairs))
    [(X, y, stamps)] = forecasting._group_rows(dataset, split, spec())[0][pair]
    series = histories[pair]
    in_train = series.timestamps[split.in_train(series.timestamps)]
    expected = []
    for t in in_train:
        try:
            expected.append(reference_features(histories, t, pair, cfg))
        except ValueError:
            continue
    assert len(expected) == len(X) < len(in_train)
    assert np.array_equal(np.array(expected), X)
    assert set(stamps.astype("int64") % 24) == set(range(7, 23))

    model = train_model(dataset, split, spec(), (0.5,))
    late = np.datetime64("2017-12-14T23", "h")
    with pytest.raises(ValueError, match="hour 23 outside modeled range 7..22"):
        predict_forecasts(model, dataset, split, np.array([late]))


def test_predict_raises_on_insufficient_history(dataset):
    model = train_model(dataset, SPLIT, spec(), (0.5,))
    early = np.datetime64("2017-11-17T12", "h")  # a few hours into the record
    with pytest.raises(ValueError, match="insufficient history before 2017-11-17T12 for pair"):
        predict_forecasts(model, dataset, SPLIT, np.array([early]))


def test_predict_raises_without_the_previous_count(dataset):
    model = train_model(dataset, SPLIT, spec(), (0.5,))
    with pytest.raises(ValueError, match="no observation for pair .* at 2017-12-21T09"):
        predict_forecasts(model, dataset, SPLIT, np.array([np.datetime64("2017-12-21T10", "h")]))


def test_unsorted_spec_keeps_each_level_in_place(dataset):
    lags = evaluation_lags(dataset, SPLIT)
    kept = predict_forecasts(train_model(dataset, SPLIT, spec(sort_quantiles=False)), dataset, SPLIT, lags)
    ordered = predict_forecasts(train_model(dataset, SPLIT, spec()), dataset, SPLIT, lags)
    for t in lags:
        for pair in dataset.pairs:
            assert sorted(kept[t][pair].values.values()) == list(ordered[t][pair].values.values())
    assert sum(crossings([kept[t][p] for t in lags], DEFAULT_QUANTILES) for p in dataset.pairs) > 0


def test_exam_flag_requires_period(dataset):
    mspec = ModelSpec(exam_period=(date(2017, 11, 20), date(2017, 11, 24)))
    model = train_model(dataset, SPLIT, mspec, (0.5,))
    assert model.feature_cfg.exam_period is not None
    n_feats = model.feature_cfg.n_features(len(dataset.pairs))
    assert len(model.models[dataset.pairs[0]].coef[0.5]) == n_feats == 16 + 7 + 1 + 24


def test_determinism_same_data_same_model(dataset):
    a = train_model(dataset, SPLIT, spec(), (0.5,))
    b = train_model(dataset, SPLIT, spec(), (0.5,))
    for pair in dataset.pairs:
        assert np.array_equal(a.models[pair].coef[0.5], b.models[pair].coef[0.5])


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", ["hp", "linear", "gboost"])
def test_model_json_round_trip(dataset, family, tmp_path):
    mspec = spec(family=family, gboost=GBoostHyper(0.3, 2, 8))
    model = train_model(dataset, SPLIT, mspec, (0.25, 0.75))
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    lags = evaluation_lags(dataset, SPLIT)[:3]
    original = predict_forecasts(model, dataset, SPLIT, lags)
    restored = predict_forecasts(back, dataset, SPLIT, lags)
    for t in lags:
        t = np.datetime64(t, "h")
        for pair in dataset.pairs:
            assert original[t][pair].values == restored[t][pair].values


def test_model_json_is_stable_bytes(dataset, tmp_path):
    model = train_model(dataset, SPLIT, spec(), (0.5,))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_model(model, p1)
    save_model(model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_model_schema_version_checked(dataset):
    model = train_model(dataset, SPLIT, spec(), (0.5,))
    doc = model_to_json_dict(model)
    doc["schema_version"] = 99
    with pytest.raises(ValueError, match="schema"):
        model_from_json_dict(doc)


@pytest.fixture(scope="module")
def model_docs(dataset):
    """JSON documents of a linear model with seasonal cells, a pooled linear model and a gboost model."""
    return {
        "linear": model_to_json_dict(train_model(dataset, SPLIT, spec(seasonal_normalize=True), (0.5,))),
        "pooled": model_to_json_dict(train_model(dataset, SPLIT, spec(scope="pooled"), (0.5,))),
        "gboost": model_to_json_dict(
            train_model(dataset, SPLIT, spec(family="gboost", gboost=GBoostHyper(0.3, 2, 3)), (0.5,))
        ),
    }


def _first_leaf(tree):
    return tree if "value" in tree else _first_leaf(tree["left"])


def _plant(doc, field, bad):
    """Write `bad` into one `field` of a model document; return the model name it went to."""
    name = next(iter(doc["models"]))
    inner = doc["models"][name]
    if field == "coef":
        inner["coef"]["0.5"][0] = bad
    elif field == "init":
        inner["init"]["0.5"] = bad
    elif field == "tree threshold":
        inner["trees"]["0.5"][0]["threshold"] = bad
    elif field == "tree value":
        _first_leaf(inner["trees"]["0.5"][1])["value"] = bad
    else:  # seasonal mean / std
        name = next(iter(doc["seasonal"]))
        cell = doc["seasonal"][name]["cells"][0]
        cell[field] = bad
        return f"seasonal {name}, cell (dow {cell['dow']}, hour {cell['tod']})"
    return f"{name}, level 0.5"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("kind, field", [
    ("linear", "coef"), ("pooled", "coef"), ("gboost", "init"), ("gboost", "tree threshold"),
    ("gboost", "tree value"), ("linear", "mean"), ("linear", "std"),
])
def test_model_json_rejects_non_finite_numbers(model_docs, kind, field, bad):
    doc = json.loads(json.dumps(model_docs[kind]))
    where = _plant(doc, field, bad)
    if kind == "pooled":
        assert where == "pooled, level 0.5"
    with pytest.raises(ValueError, match=re.escape(f"model {where}: non-finite {field}")):
        model_from_json_dict(doc)


def test_tree_deeper_than_max_depth_names_model_and_level(model_docs):
    doc = json.loads(json.dumps(model_docs["gboost"]))  # max_depth 2
    name = next(iter(doc["models"]))
    leaf = {"value": 0.0}
    split = {"feature": 0, "threshold": 0.5, "left": leaf, "right": leaf}
    doc["models"][name]["trees"]["0.5"][1] = {**split, "left": {**split, "left": split}}
    with pytest.raises(ValueError, match=re.escape(f"model {name}, level 0.5: tree 1 is deeper than max_depth 2")):
        model_from_json_dict(doc)


@pytest.mark.parametrize("feature", [999, -1])
def test_split_feature_outside_the_layout_names_model_and_level(model_docs, feature):
    doc = json.loads(json.dumps(model_docs["gboost"]))
    name = next(iter(doc["models"]))
    n_features = model_from_json_dict(model_docs["gboost"]).feature_cfg.n_features(len(doc["pairs"]))
    leaf = {"value": 0.0}
    doc["models"][name]["trees"]["0.5"][1] = {"feature": feature, "threshold": 0.5, "left": leaf, "right": leaf}
    message = f"model {name}, level 0.5: tree 1 splits on feature {feature}, outside 0..{n_features - 1}"
    with pytest.raises(ValueError, match=re.escape(message)):
        model_from_json_dict(doc)


def test_pooled_gboost_predict_equals_walking_its_json_trees(dataset):
    hyper = GBoostHyper(0.3, 3, 10)
    model = train_model(dataset, SPLIT, spec(family="gboost", scope="pooled", gboost=hyper), DEFAULT_QUANTILES)
    doc = model_to_json_dict(model)
    assert list(doc["models"]) == ["pooled"]
    loaded = model_from_json_dict(doc)
    histories = working_series(dataset, SPLIT)
    lags = evaluation_lags(dataset, SPLIT)
    for pair in dataset.pairs:
        X, usable = build_features(histories, lags, pair, model.feature_cfg)
        ref = reference_raw_predict(doc["models"]["pooled"], hyper.learning_rate, X[usable])
        for inner in (model.models[None], loaded.models[None]):
            raw = gboost_raw_predict(inner, X[usable])
            assert all(np.array_equal(raw[q], ref[q]) for q in DEFAULT_QUANTILES)


# ---------------------------------------------------------------------------
# tuning
# ---------------------------------------------------------------------------


def test_tuning_ranges_partition():
    (ta, tb), (va, vb), (ra, rb) = tuning_ranges(SPLIT)
    assert ta == date(2017, 11, 17) and tb == date(2017, 11, 23)
    assert va == date(2017, 11, 24) and vb == date(2017, 11, 30)
    assert ra == date(2017, 12, 1) and rb == date(2017, 12, 12)


def test_tuning_ranges_too_short():
    short = SplitSpec((date(2017, 11, 17), date(2017, 11, 29)), (date(2017, 12, 1), date(2017, 12, 2)))
    with pytest.raises(ValueError, match="too short"):
        tuning_ranges(short)


def test_gboost_grid_search_picks_sane_rate(dataset):
    grid = [
        GBoostHyper(0.3, 2, 12),
        GBoostHyper(1e-8, 2, 12),  # effectively never moves off the initial constant
    ]
    best, scores = gboost_grid_search(dataset, SPLIT, spec(family="gboost"), grid, (0.5,))
    assert best == grid[0]
    assert scores[0] < scores[1]


def test_grid_search_tie_breaks_first(dataset):
    grid = [GBoostHyper(0.0, 1, 5), GBoostHyper(0.0, 2, 5)]  # both inert
    best, scores = gboost_grid_search(dataset, SPLIT, spec(family="gboost"), grid, (0.5,))
    assert best == grid[0]
    assert scores[0] == scores[1]


def test_grid_search_pooled_scope(dataset):
    grid = [GBoostHyper(0.3, 2, 10), GBoostHyper(1e-8, 2, 10)]
    mspec = spec(family="gboost", scope="pooled")
    best, scores = gboost_grid_search(dataset, SPLIT, mspec, grid, (0.5,))
    assert best == grid[0]
    assert scores[0] < scores[1]


def test_grid_search_scores_the_seasonally_normalized_rows(dataset):
    """Tuning fits the rows training fits: with seasonal normalization, the normalized ones."""
    hyper = GBoostHyper(0.3, 2, 8)
    mspec = spec(family="gboost", seasonal_normalize=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # zero-variance seasonal cells
        _, scores = gboost_grid_search(dataset, SPLIT, mspec, [hyper], (0.5,))
        histories = working_series(dataset, SPLIT)
        for pair, s in histories.items():
            train = SPLIT.in_train(s.timestamps)
            stats = fit_seasonal_stats(HourlySeries(pair, s.timestamps[train], s.values[train]))
            histories[pair] = seasonal_normalize(s, stats)
    test_range, val_range, train_range = tuning_ranges(SPLIT)
    cfg = mspec.feature_config(tuple(dataset.pairs))
    total = 0.0
    for pair in dataset.pairs:
        s = histories[pair]
        train = SPLIT.in_train(s.timestamps)
        X, usable = build_features(histories, s.timestamps[train], pair, cfg)
        X, y, days = X[usable], s.values[train][usable], s.timestamps[train][usable].astype("datetime64[D]")
        part = {rng: (days >= np.datetime64(rng[0])) & (days <= np.datetime64(rng[1]))
                for rng in (test_range, val_range, train_range)}
        val = (X[part[val_range]], y[part[val_range]])
        model = fit_gboost(X[part[train_range]], y[part[train_range]], (0.5,), hyper, val=val)
        raw = gboost_raw_predict(model, X[part[test_range]])
        total += float(np.mean(tilted_loss(0.5, y[part[test_range]], raw[0.5])))
    assert scores == [total]
    _, plain = gboost_grid_search(dataset, SPLIT, spec(family="gboost"), [hyper], (0.5,))
    assert plain != scores


def test_grid_search_rejects_other_families(dataset):
    with pytest.raises(ValueError, match="gboost family only"):
        gboost_grid_search(dataset, SPLIT, spec(family="linear"), [GBoostHyper()], (0.5,))


def test_cross_order_two_dimensions(dataset):
    model = train_model(dataset, SPLIT, spec(cross_lags=True, cross_order=2), (0.5,))
    n_feats = model.feature_cfg.n_features(len(dataset.pairs))
    assert n_feats == 16 + 7 + 2 * 6  # two lags of every pair
    assert len(model.models[dataset.pairs[0]].coef[0.5]) == n_feats


# ---------------------------------------------------------------------------
# forecast CSV
# ---------------------------------------------------------------------------


def test_forecast_csv_round_trip(dataset, tmp_path):
    model = train_model(dataset, SPLIT, spec(), (0.25, 0.75))
    lags = evaluation_lags(dataset, SPLIT)[:3]
    forecasts = predict_forecasts(model, dataset, SPLIT, lags)
    path = tmp_path / "fc.csv"
    forecasting.forecasts_to_csv(forecasts, model.labels, path)
    labels, back = forecasting.forecasts_from_csv(path)
    assert labels == model.labels
    for t in forecasts:
        for pair in forecasts[t]:
            assert back[t][pair].values == pytest.approx(forecasts[t][pair].values)
