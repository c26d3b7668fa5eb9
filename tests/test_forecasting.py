import csv
import json
import re
import warnings
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from conftest import stacked
from drtopt import forecasting, qr
from drtopt.boosting import GBoostHyper, fit_gboost, gboost_raw_predict
from drtopt.cli import main
from drtopt.config import FAMILIES, SCOPES, ConfigError, parse_model
from drtopt.data import (
    HOUR, Location, ODCountSeries, ODPair, SplitSpec, adf_test, build_features, counts_at, difference,
    load_od_counts, pair_name, parse_hour, save_od_counts,
)
from drtopt.forecasting import (
    ModelSpec,
    _spec_doc,
    gboost_grid_search,
    load_model,
    model_from_json_dict,
    model_to_json_dict,
    predict_forecasts,
    save_model,
    evaluation_lags,
    to_count_scale,
    train_model,
    tuning_ranges,
    working_record,
)
from drtopt.metrics import crossings, evaluate_at
from drtopt.qr import DEFAULT_QUANTILES, fit_seasonal_stats, seasonal_normalize, tilted_loss
from drtopt.synth import SyntheticSpec, generate_synthetic
from reference_data import dataset_from_series
from reference_features import pair_series, reference_features
from reference_qr import reference_lqr_raw_predict
from reference_trees import reference_gboost_raw_predict, reference_raw_predict

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


def test_hp_with_seasonal_normalization_is_rejected_in_model_json(dataset):
    doc = model_to_json_dict(train_model(dataset, SPLIT, spec(family="hp"), (0.5,)))
    doc["spec"]["seasonal_normalize"] = True
    with pytest.raises(ValueError, match="historical percentiles are fit without seasonal normalization"):
        model_from_json_dict(doc)


def test_a_random_walk_pair_warns_once_naming_it(dataset):
    # differences that are a random walk: the one working-scale series with a unit root
    pair = dataset.pairs[1]
    s = dataset.series[pair]
    counts = np.cumsum(np.cumsum(np.random.default_rng(2).choice([-1, 1], size=len(s))))
    counts -= counts.min()
    walk = dataset_from_series(dataset.locations, {**dataset.series, pair: ODCountSeries(pair, s.timestamps, counts)})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        train_model(walk, SPLIT, spec(), (0.5,))
    result = adf_test(np.diff(counts.astype(float)))
    assert [str(w.message) for w in caught] == [
        f"pair g0>g2: ADF statistic {result.statistic:.3f} does not reject a unit root "
        f"at 1% (critical {result.crit_1pct:.3f}); proceeding anyway"
    ]


def test_working_record_is_masked_and_differenced(dataset):
    record = working_record(dataset, SPLIT)
    assert record.pairs == tuple(dataset.pairs)
    s = pair_series(record, dataset.pairs[0])
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


@pytest.mark.parametrize("family", ["linear", "gboost", "hp"])
def test_no_test_hour_fails_by_name_and_no_lag_predicts_nothing(dataset, family):
    series = {}
    for pair, s in dataset.series.items():
        keep = ~SPLIT.in_test(s.timestamps)
        series[pair] = ODCountSeries(pair, s.timestamps[keep], s.counts[keep])
    before = dataset_from_series(dataset.locations, series)
    with pytest.raises(ValueError, match=r"no unmasked hour of the test range 2017-12-13\.\.2017-12-20"):
        evaluation_lags(before, SPLIT)
    model = train_model(before, SPLIT, spec(family=family, gboost=GBoostHyper(0.3, 2, 3)), (0.5,))
    with pytest.raises(ValueError, match="no unmasked hour of the test range"):
        predict_forecasts(model, before, SPLIT)
    assert predict_forecasts(model, before, SPLIT, np.array([], dtype="datetime64[h]")) == {}


@pytest.mark.parametrize("family", ["linear", "hp"])
def test_evaluate_at_equals_the_per_forecast_reference(dataset, family):
    from reference_metrics import reference_evaluate

    model = train_model(dataset, SPLIT, spec(family=family), DEFAULT_QUANTILES)
    lags = evaluation_lags(dataset, SPLIT)
    forecasts = predict_forecasts(model, dataset, SPLIT, lags)
    by_pair = {p: [forecasts[t][p] for t in lags] for p in model.pair_order}
    truths = dict(zip(model.pair_order, counts_at(dataset, model.pair_order, lags)))
    report = evaluate_at(forecasts, dataset, model.pair_order, lags, DEFAULT_QUANTILES, model.labels)
    assert report == reference_evaluate(by_pair, truths, DEFAULT_QUANTILES)


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
    assert model.seasonal.pairs == model.pair_order == tuple(dataset.pairs)
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
        assert crossings(stacked(series), DEFAULT_QUANTILES) == 0


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
    # hours 6 and 23 stay in the working record but have no time-of-day column
    split = SplitSpec(SPLIT.train_range, SPLIT.test_range, masked_hours=frozenset(range(6)))
    record = working_record(dataset, split)
    histories = {p: pair_series(record, p) for p in record.pairs}
    pair = dataset.pairs[0]
    cfg = spec().feature_config()
    (X, y, stamps, pair_index), _ = forecasting._group_rows(dataset, split, spec())
    X, stamps = X[pair_index == 0], stamps[pair_index == 0]
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


def gappy(dataset, t, gap=None, late=None):
    """The dataset without the count of pair `gap` at t - 1h and the first counts of `late` up to t - 6h."""
    series = dict(dataset.series)
    for pair, drop in ((gap, lambda ts: ts == t - HOUR), (late, lambda ts: ts < t - 5 * HOUR)):
        if pair is not None:
            s = series[pair]
            keep = ~drop(s.timestamps)
            series[pair] = ODCountSeries(pair, s.timestamps[keep], s.counts[keep])
    return dataset_from_series(dataset.locations, series)


def test_predict_on_a_gappy_record_names_the_first_failing_pair(dataset):
    three = dataset_from_series(dataset.locations, {p: dataset.series[p] for p in dataset.pairs[:3]})
    model = train_model(three, SPLIT, spec(), (0.5,))
    a, b, c = model.pair_order
    t = np.datetime64("2017-12-14T12", "h")
    assert list(predict_forecasts(model, three, SPLIT, np.array([t]))[t]) == [a, b, c]
    no_count = "no observation for pair {} at 2017-12-14T11"
    short = "insufficient history before 2017-12-14T12 for pair {}"
    a_, b_, c_ = (pair_name(p, model.labels) for p in (a, b, c))
    cases = [
        (dict(gap=b), no_count.format(b_)),
        (dict(late=c), short.format(c_)),
        # two pairs fail in the same hour: the first in pair_order is named
        (dict(gap=c, late=b), short.format(b_)),
        (dict(gap=a, late=c), no_count.format(a_)),
        (dict(gap=a, late=a), no_count.format(a_)),  # a missing previous count comes first
    ]
    for defects, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            predict_forecasts(model, gappy(three, t, **defects), SPLIT, np.array([t]))


def test_a_pair_missing_from_the_counts_is_named_by_its_labels(dataset, tmp_path, caplog):
    gone = ODPair(0, 2)
    message = "pair g0>g2 has no observations in the counts"
    lags = evaluation_lags(dataset, SPLIT)[:2]
    model = train_model(dataset, SPLIT, spec(), (0.5,))
    lacking = dataset_from_series(dataset.locations, {p: s for p, s in dataset.series.items() if p != gone})
    with pytest.raises(ValueError, match=re.escape(message)):
        predict_forecasts(model, lacking, SPLIT, lags)
    with pytest.raises(ValueError, match=re.escape(message)):
        counts_at(lacking, model.pair_order, lags)

    out = tmp_path / "ws"
    assert main(["synth", "--out-dir", str(out), "--locations", "3", "--seed", "5"]) == 0
    cfg = out / "config.json"
    doc = json.loads(cfg.read_text())
    doc["optimize"] = {"k": 5, "lags": ["2018-01-08T08"]}
    cfg.write_text(json.dumps(doc))
    assert main(["train", "--config", str(cfg)]) == 0
    counts = out / "counts.csv"
    counts.write_text("".join(line for line in counts.read_text().splitlines(True) if ",g0,g2," not in line))
    for command in ("predict", "evaluate", "optimize"):
        caplog.clear()
        assert main([command, "--config", str(cfg), "--model", str(out / "out" / "model.json")]) == 2
        assert f"ERROR drtopt: {message}" in [f"{r.levelname} {r.name}: {r.getMessage()}" for r in caplog.records]


def rewritten(dataset, tmp_path, drop=None, rows=()):
    """The dataset through a counts CSV: without the records naming `drop`, plus `rows` (its ids reassigned by label)."""
    path = tmp_path / "counts.csv"
    save_od_counts(path, dataset)
    lines = [line for line in path.read_text().splitlines(True) if drop is None or f",{drop}," not in line]
    path.write_text("".join(lines) + "".join(",".join(map(str, row)) + "\n" for row in rows))
    return load_od_counts(path)


LOOKUP_SPECS = [
    spec(),
    spec(scope="pooled"),
    spec(cross_lags=True, cross_order=2),
    spec(seasonal_normalize=True),
    spec(family="gboost", gboost=GBoostHyper(0.3, 2, 5)),
    spec(family="hp"),
]


@pytest.fixture(scope="module")
def lookup_models(dataset):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # zero-variance seasonal cells
        return [train_model(dataset, SPLIT, mspec, (0.05, 0.5, 0.95)) for mspec in LOOKUP_SPECS]


@pytest.mark.parametrize("new", ["a-new", "g0a"], ids=["first", "middle"])
def test_counts_with_a_new_location_give_the_same_forecasts_and_reports(dataset, lookup_models, tmp_path, new):
    # the new location shifts the ids of every later label in the counts
    shifted = rewritten(dataset, tmp_path, rows=[("2017-11-17T08", new, "g0", 1), ("2017-11-17T09", new, "g0", 2)])
    assert shifted.labels == sorted(dataset.labels + [new]) != dataset.labels
    lags = evaluation_lags(dataset, SPLIT)
    assert np.array_equal(evaluation_lags(shifted, SPLIT), lags)
    for model in lookup_models:
        want = predict_forecasts(model, dataset, SPLIT, lags)
        got = predict_forecasts(model, shifted, SPLIT, lags)
        assert outcome(lambda: got) == outcome(lambda: want), model.spec
        assert [list(got[t]) for t in lags] == [list(model.pair_order)] * len(lags)
        assert evaluate_at(got, shifted, model.pair_order, lags, model.levels, model.labels) == evaluate_at(
            want, dataset, model.pair_order, lags, model.levels, model.labels
        )


def test_counts_without_a_location_name_the_models_pair_by_its_labels(dataset, lookup_models, tmp_path):
    lacking = rewritten(dataset, tmp_path, drop="g0")
    assert lacking.labels == dataset.labels[1:]
    lags = evaluation_lags(dataset, SPLIT)[:2]
    message = "pair g0>g1 has no observations in the counts"
    for model in lookup_models:
        if model.spec.family != "hp":  # hp forecasts read no counts
            with pytest.raises(ValueError, match=re.escape(message)):
                predict_forecasts(model, lacking, SPLIT, lags)
        forecasts = predict_forecasts(model, dataset, SPLIT, lags)
        with pytest.raises(ValueError, match=re.escape(message)):
            evaluate_at(forecasts, lacking, model.pair_order, lags, model.levels, model.labels)
    model = lookup_models[0]
    with pytest.raises(ValueError, match=re.escape(message)):
        counts_at(lacking, model.pair_order, lags, model.labels)


@pytest.mark.parametrize("mspec", [spec(), spec(seasonal_normalize=True)], ids=["linear", "seasonal"])
def test_a_model_predicts_on_counts_with_an_extra_pair(dataset, tmp_path, mspec):
    extra = dataset.pairs[-1]
    fewer = dataset_from_series(dataset.locations, {p: s for p, s in dataset.series.items() if p != extra})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # zero-variance seasonal cells
        model = train_model(fewer, SPLIT, mspec, (0.25, 0.75))
    lags = evaluation_lags(dataset, SPLIT)[::3]
    want = outcome(predict_forecasts, model, fewer, SPLIT, lags)
    assert isinstance(want, dict)
    assert outcome(predict_forecasts, model, dataset, SPLIT, lags) == want
    # an extra pair too short to difference is not read either
    short = rewritten(dataset, tmp_path, rows=[("2017-11-17T08", "a-new", "g0", 1)])
    with pytest.raises(ValueError, match="too short to difference"):
        working_record(short, SPLIT)
    assert outcome(predict_forecasts, model, short, SPLIT, lags) == want


def per_pair_forecasts(model, dataset, split, lags) -> dict:
    """Each pair's count-scale forecasts (lags x levels) from the whole working record, its model predicted alone."""
    record = working_record(dataset, split)
    if model.spec.seasonal_normalize:
        record = seasonal_normalize(record, model.seasonal)
    reference = reference_lqr_raw_predict if model.spec.family == "linear" else reference_gboost_raw_predict
    out = {}
    for pair in model.pair_order:
        X, usable = build_features(record, np.full(len(lags), record.pairs.index(pair)), lags, model.feature_cfg)
        assert usable.all()
        ref = reference(model.models[None if model.spec.scope == "pooled" else pair], X)
        scales = None
        if model.spec.seasonal_normalize:
            scales = model.seasonal.scales_at(np.full(len(lags), model.pair_order.index(pair)), lags)
        prev = counts_at(dataset, [pair], lags - HOUR)[0]
        out[pair] = to_count_scale(np.column_stack([ref[q] for q in model.levels]), prev, scales, model.spec.sort_quantiles)
    return out


@pytest.mark.parametrize(
    "mspec",
    [
        spec(),
        spec(scope="pooled"),
        spec(cross_lags=True, cross_order=2),
        spec(seasonal_normalize=True),
        spec(family="gboost", gboost=GBoostHyper(0.3, 2, 5)),
        spec(family="gboost", scope="pooled", gboost=GBoostHyper(0.3, 3, 8)),
        spec(family="gboost", cross_lags=True, seasonal_normalize=True, gboost=GBoostHyper(0.5, 2, 6)),
    ],
    ids=["linear", "pooled", "cross2", "seasonal", "gboost", "gboost-pooled", "gboost-cross-seasonal"],
)
def test_stacked_predict_equals_each_pair_predicted_alone(dataset, mspec):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # zero-variance seasonal cells
        model = train_model(dataset, SPLIT, mspec, DEFAULT_QUANTILES)
    loaded = model_from_json_dict(json.loads(json.dumps(model_to_json_dict(model))))
    lags = evaluation_lags(dataset, SPLIT)[::5]
    expected = per_pair_forecasts(model, dataset, SPLIT, lags)
    for trained in (model, loaded):
        batch = predict_forecasts(trained, dataset, SPLIT, lags)
        for i, t in enumerate(lags):
            for pair in model.pair_order:
                assert batch[t][pair].values == dict(zip(model.levels, expected[pair][i].tolist()))


@pytest.fixture(scope="module")
def window_models(dataset):
    specs = [
        spec(ar_order=6),
        spec(family="gboost", scope="pooled", gboost=GBoostHyper(0.3, 2, 4)),
        spec(cross_lags=True, cross_order=2, seasonal_normalize=True),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # zero-variance seasonal cells
        return [train_model(dataset, SPLIT, mspec, (0.25, 0.75)) for mspec in specs]


def whole_record_predict(model, dataset, split, lags):
    """`predict_forecasts` with every pair's whole working record in place of the window."""
    windowed = forecasting.recent_record
    forecasting.recent_record = lambda dataset, split, lags, depth, pairs, labels: working_record(dataset, split)
    try:
        return predict_forecasts(model, dataset, split, lags)
    finally:
        forecasting.recent_record = windowed


def outcome(predict, *args):
    """The forecasts' values by lag and pair, or the error message."""
    try:
        forecasts = predict(*args)
    except ValueError as exc:
        return str(exc)
    return {t: {pair: fc.values for pair, fc in per_pair.items()} for t, per_pair in forecasts.items()}


@st.composite
def gappy_record(draw):
    """(model, lags, gaps, masked days, a late-starting pair), placed relative to the first lag.

    Lags fall on modeled hours of the test days; a gap drops an hour range
    of a pair's counts and a masked range some days, both up to a week
    before the first lag; a late-starting pair's counts begin up to three
    days before it.
    """
    model = draw(st.integers(0, 2))
    lags = draw(st.lists(st.tuples(st.integers(13, 20), st.integers(7, 22)), min_size=1, max_size=3, unique=True))
    gaps = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(1, 7 * 24), st.integers(1, 60)), max_size=6))
    masked = draw(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 5)), max_size=2))
    late = draw(st.one_of(st.none(), st.tuples(st.integers(0, 5), st.integers(0, 72))))
    return model, sorted(lags), gaps, masked, late


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(gappy_record())
# a five-day mask ending the day before the lag: the first window holds no retained lag before it
@example((0, [(15, 10)], [], [(5, 4)], None))
# a pair that starts 30 hours before the lag: its window reaches the series start
@example((2, [(14, 9)], [], [], (1, 30)))
def test_windowed_predict_equals_the_whole_record_predict(dataset, window_models, record):
    which, days_hours, gaps, masked, late = record
    model = window_models[which]
    lags = np.array([np.datetime64(f"2017-12-{d:02d}T{h:02d}", "h") for d, h in days_hours])
    series = dict(dataset.series)
    for k, back, length in gaps:
        s = series[dataset.pairs[k]]
        drop = (s.timestamps >= lags[0] - back * HOUR) & (s.timestamps < lags[0] - (back - length) * HOUR)
        series[s.pair] = ODCountSeries(s.pair, s.timestamps[~drop], s.counts[~drop])
    if late is not None:
        s = series[dataset.pairs[late[0]]]
        keep = s.timestamps >= lags[0] - late[1] * HOUR
        series[s.pair] = ODCountSeries(s.pair, s.timestamps[keep], s.counts[keep])
    first = date(2017, 12, days_hours[0][0])
    days = tuple((first - timedelta(days=back), first - timedelta(days=back - length)) for back, length in masked)
    split = SplitSpec(SPLIT.train_range, SPLIT.test_range, masked_dates=days)
    gappy = dataset_from_series(dataset.locations, series)
    assert outcome(predict_forecasts, model, gappy, split, lags) == outcome(whole_record_predict, model, gappy, split, lags)


def test_the_window_grows_across_a_multi_day_mask(dataset, window_models, monkeypatch):
    lag = np.datetime64("2017-12-15T10", "h")
    split = SplitSpec(SPLIT.train_range, SPLIT.test_range, masked_dates=((date(2017, 12, 10), date(2017, 12, 14)),))
    calls = []
    monkeypatch.setattr(forecasting, "difference", lambda *args: calls.append(args) or difference(*args))
    model = window_models[0]
    windowed = outcome(predict_forecasts, model, dataset, split, np.array([lag]))
    assert len(calls) > 1
    assert windowed == outcome(whole_record_predict, model, dataset, split, np.array([lag]))


@pytest.mark.parametrize("hours", [1, 2], ids=["one-lag", "two-lags"])
def test_a_window_one_lag_short_grows(dataset, window_models, monkeypatch, hours):
    # before the lag: `depth` hours, one missing hour, then a hundred hours of
    # which every other one is missing, so that no row there follows its
    # predecessor; the first window ends among them, one lag short
    model = window_models[0]
    depth, pair = model.spec.ar_order, model.pair_order[0]
    lag = np.datetime64("2017-12-15T12", "h")
    s = dataset.series[pair]
    back = (lag - s.timestamps).astype(int)
    drop = (back == depth + 1) | ((back > depth + 1) & (back < depth + 100) & (back % 2 == 0))
    gappy = dataset_from_series(dataset.locations, {**dataset.series, pair: ODCountSeries(pair, s.timestamps[~drop], s.counts[~drop])})
    split = SplitSpec(SPLIT.train_range, SPLIT.test_range, masked_hours=frozenset())  # every hour a lag
    windows = []
    monkeypatch.setattr(forecasting, "difference", lambda *args: windows.append(difference(*args)) or windows[-1])
    lags = lag + np.arange(hours) * HOUR  # the second lag puts the first lag's row in the window
    windowed = outcome(predict_forecasts, model, gappy, split, lags)
    have = [int(np.sum(pair_series(w, pair).timestamps < lag)) for w in windows]
    assert have[0] == depth - 1 and have[-1] >= depth
    assert isinstance(windowed, dict)
    assert windowed == outcome(whole_record_predict, model, gappy, split, lags)


def test_unsorted_spec_keeps_each_level_in_place(dataset):
    lags = evaluation_lags(dataset, SPLIT)
    kept = predict_forecasts(train_model(dataset, SPLIT, spec(sort_quantiles=False)), dataset, SPLIT, lags)
    ordered = predict_forecasts(train_model(dataset, SPLIT, spec()), dataset, SPLIT, lags)
    for t in lags:
        for pair in dataset.pairs:
            assert sorted(kept[t][pair].values.values()) == list(ordered[t][pair].values.values())
    assert sum(crossings(stacked([kept[t][p] for t in lags]), DEFAULT_QUANTILES) for p in dataset.pairs) > 0


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
    """JSON documents of a linear model with seasonal cells, a pooled linear model, a gboost model and an hp model."""
    return {
        "linear": model_to_json_dict(train_model(dataset, SPLIT, spec(seasonal_normalize=True), (0.5,))),
        "pooled": model_to_json_dict(train_model(dataset, SPLIT, spec(scope="pooled"), (0.5,))),
        "gboost": model_to_json_dict(
            train_model(dataset, SPLIT, spec(family="gboost", gboost=GBoostHyper(0.3, 2, 3)), (0.5,))
        ),
        "hp": model_to_json_dict(train_model(dataset, SPLIT, spec(family="hp"), (0.5,))),
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


@pytest.mark.parametrize("kind", ["linear", "pooled"])
def test_model_json_rejects_coefficients_outside_the_layout(model_docs, kind):
    doc = json.loads(json.dumps(model_docs[kind]))
    name = next(iter(doc["models"]))
    coef = doc["models"][name]["coef"]["0.5"]
    coef.append(0.0)
    message = f"model {name}, level 0.5: {len(coef)} coefficients for {len(coef) - 1} features"
    with pytest.raises(ValueError, match=re.escape(message)):
        model_from_json_dict(doc)


@pytest.mark.parametrize("kind, rename, message", [
    ("linear", None, None),  # None: the model is left out
    ("pooled", None, None),
    ("gboost", None, None),
    ("linear", "zz>g1", "model.models.zz>g1: expected [origin, destination] of model.labels, got ['zz', 'g1']"),
    ("gboost", "g0g1", "model.models.g0g1: expected [origin, destination] of model.labels, got ['g0g1']"),
    ("linear", "g0>g1>g2", "model.models.g0>g1>g2: expected [origin, destination] of model.labels"),
    ("linear", "g1>g1", "model.models.g1>g1: self-loop OD pair 'g1'"),
], ids=["linear", "pooled", "gboost", "unknown-label", "no-separator", "two-separators", "self-loop"])
def test_model_json_names_a_missing_model(model_docs, kind, rename, message):
    doc = json.loads(json.dumps(model_docs[kind]))
    name = sorted(doc["models"])[-1]
    inner = doc["models"].pop(name)
    if rename is not None:
        doc["models"][rename] = inner
    with pytest.raises(ValueError, match=re.escape(message or f"model {name}: missing")):
        model_from_json_dict(doc)


@pytest.mark.parametrize("field, bad, message", [
    ("dow", -1, "model.seasonal.{name}.cells[0].dow: must be >= 0"),
    ("dow", 7, None),  # None: the cell is outside the week
    ("tod", 24, None),
    ("tod", 8.5, "model.seasonal.{name}.cells[0].tod: not an integer: 8.5"),
    ("dow", "missing", "model.seasonal.{name}.cells[0].dow: missing required field"),
    ("tod", "missing", "model.seasonal.{name}.cells[0].tod: missing required field"),
    ("mean", "missing", "model.seasonal.{name}.cells[0].mean: missing required field"),
    ("std", "missing", "model.seasonal.{name}.cells[0].std: missing required field"),
    ("mean", "1.5", "model.seasonal.{name}.cells[0].mean: not a number: '1.5'"),
    ("std", True, "model.seasonal.{name}.cells[0].std: not a number: True"),
    ("dow", True, "model.seasonal.{name}.cells[0].dow: not an integer: True"),
    ("tod", "8", "model.seasonal.{name}.cells[0].tod: not an integer: '8'"),
], ids=["dow--1", "dow-7", "tod-24", "tod-8.5", "no-dow", "no-tod", "no-mean", "no-std", "string-mean", "true-std",
        "true-dow", "string-tod"])
def test_model_json_rejects_a_seasonal_cell_outside_the_week(model_docs, field, bad, message):
    # the cells fill a (weekday, hour) table: a negative index would overwrite another cell
    doc = json.loads(json.dumps(model_docs["linear"]))
    name = next(iter(doc["seasonal"]))
    cell = doc["seasonal"][name]["cells"][0]
    if bad == "missing":
        del cell[field]
    else:
        cell[field] = bad
    if message is None:
        where = f"seasonal {name}, cell (dow {cell['dow']}, hour {cell['tod']})"
        message = f"model {where}: no such weekday and hour"
    with pytest.raises(ValueError, match=re.escape(message.format(name=name))):
        model_from_json_dict(doc)


def _repeat_first_cell(cells):
    cells.append(dict(cells[0], mean=cells[0]["mean"] + 1.0))


@pytest.mark.parametrize("edit, message", [
    (lambda section, name: section.update({name: []}), "model.seasonal.{name}: expected an object, got []"),
    (lambda section, name: section.update({name: {"cells": {}}}), "model.seasonal.{name}.cells: expected a list, got {{}}"),
    (lambda section, name: section[name].update(cells=[]), "model.seasonal.{name}.cells: expected at least one cell, got []"),
    (lambda section, name: section[name]["cells"].__setitem__(1, 5), "model.seasonal.{name}.cells[1]: expected an object, got 5"),
    (lambda section, name: _repeat_first_cell(section[name]["cells"]), "model.seasonal.{name}.cells[{last}]: repeats "
     "model.seasonal.{name}.cells[0], (dow {dow}, hour {tod})"),
    (lambda section, name: section.update({"g0>zz": section[name]}), "model.seasonal.g0>zz: names no pair of model.pairs"),
    (lambda section, name: section.update({"g0>g0": section[name]}), "model.seasonal.g0>g0: names no pair of model.pairs"),
], ids=["entry-not-an-object", "cells-not-a-list", "no-cells", "cell-not-an-object", "repeated-cell", "unknown-label",
        "self-loop"])
def test_model_json_names_a_malformed_seasonal_section(model_docs, edit, message):
    doc = json.loads(json.dumps(model_docs["linear"]))
    name = next(iter(doc["seasonal"]))
    cells = doc["seasonal"][name]["cells"]
    first = cells[0]
    edit(doc["seasonal"], name)
    message = message.format(name=name, last=len(cells) - 1, dow=first["dow"], tod=first["tod"])
    with pytest.raises(ValueError, match=re.escape(message)):
        model_from_json_dict(doc)


@pytest.mark.parametrize("section", [{"nonsense": 5}, {"g0>g1": {"cells": []}}, [], None], ids=["stray-key", "pair-entry", "list", "null"])
@pytest.mark.parametrize("kind", ["pooled", "gboost", "hp"])
def test_a_model_without_seasonal_normalization_rejects_a_seasonal_section(model_docs, kind, section):
    # such a section used to load unread, whatever it held
    doc = json.loads(json.dumps(model_docs[kind]))
    assert doc["seasonal"] == {}  # what the writer writes, which loads
    assert model_from_json_dict(doc).seasonal is None
    doc["seasonal"] = section
    with pytest.raises(ValueError, match=re.escape("model.seasonal: expected {} for a model without seasonal normalization")):
        model_from_json_dict(doc)


@pytest.mark.parametrize("field, bad, message", [
    ("learning_rate", 7.0, "learning_rate must be in [0, 1], got 7.0"),
    ("max_depth", 9, "max_depth must be in 0..6, got 9"),
    ("n_trees", 0, "model spec.gboost.n_trees: must be >= 1"),
    ("cross_order", -1, "model spec.cross_order: must be >= 0"),
    ("ar_order", -1, "model spec.ar_order: must be >= 0"),
])
def test_model_json_rejects_a_spec_out_of_range(model_docs, field, bad, message):
    doc = json.loads(json.dumps(model_docs["gboost"]))
    spec_doc = doc["spec"]
    (spec_doc["gboost"] if field in spec_doc["gboost"] else spec_doc)[field] = bad
    with pytest.raises(ValueError, match=re.escape(message)):
        model_from_json_dict(doc)


@settings(max_examples=200, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    scope=st.sampled_from(SCOPES),
    flags=st.tuples(st.booleans(), st.booleans(), st.booleans()),
    exam_period=st.none() | st.tuples(st.dates(), st.dates()),
    orders=st.tuples(st.integers(0, 48), st.integers(0, 168)),
    hyper=st.builds(GBoostHyper, st.floats(0, 1), st.integers(0, 6), st.integers(1, 200)),
)
def test_a_spec_reads_back_from_its_model_json_document(family, scope, flags, exam_period, orders, hyper):
    sort_quantiles, seasonal_normalize, cross_lags = flags
    try:
        original = ModelSpec(family, scope, sort_quantiles, exam_period, seasonal_normalize, cross_lags, *orders, hyper)
    except ValueError:
        assume(False)  # a combination the spec rejects
    doc = json.loads(json.dumps(_spec_doc(original)))
    assert parse_model(doc, "model spec", defaults=False) == original


@pytest.mark.parametrize("key, value, field", [
    ("sort_quantiles", "false", "sort_quantiles"),
    ("cross_lags", "false", "cross_lags"),
    ("gboost", [], "gboost"),
    ("gboost", {"learning_rate": "0.1", "max_depth": 2, "n_trees": 3}, "gboost.learning_rate"),
    ("gboost", {"learning_rate": True, "max_depth": 2, "n_trees": 3}, "gboost.learning_rate"),
    ("gboost", {"learning_rate": 0.3, "max_depth": 2}, "gboost.n_trees"),
    ("ar_order", 2.5, "ar_order"),
    ("ar_order", True, "ar_order"),
    ("cross_order", "x", "cross_order"),
    ("family", None, "family"),  # None: the key is left out
])
def test_model_json_names_a_malformed_spec_field(model_docs, key, value, field):
    doc = json.loads(json.dumps(model_docs["gboost"]))
    if value is None:
        del doc["spec"][key]
    else:
        doc["spec"][key] = value
    with pytest.raises(ValueError, match=re.escape(f"model spec.{field}: ")):
        model_from_json_dict(doc)


@pytest.mark.parametrize("key, value, message", [
    ("levels", ["0.5"], "model.levels[0]: not a number: '0.5'"),
    ("levels", [True], "model.levels[0]: not a number: True"),
    ("levels", 0.5, "model.levels: expected a list of levels"),
    ("levels", [1.5], "model.levels: must be strictly increasing values in (0,1)"),
    ("levels", None, "model.levels: missing required field"),  # None: the key is left out
    ("labels", None, "model.labels: missing required field"),
    ("labels", "g0", "model.labels: expected a list"),
    ("labels", ["g0", 1], "model.labels: expected distinct strings"),
    ("labels", ["g0", "g0"], "model.labels: expected distinct strings"),
    ("pairs", None, "model.pairs: missing required field"),
    ("pairs", [["g0", "nowhere"]], "model.pairs[0]: expected [origin, destination] of model.labels"),
    ("pairs", [["g0"]], "model.pairs[0]: expected [origin, destination] of model.labels"),
    ("pairs", ["g0>g1"], "model.pairs[0]: expected [origin, destination] of model.labels"),
    ("pairs", [["g0", "g0"]], "model.pairs[0]: self-loop OD pair 'g0'"),
    ("spec", None, "model.spec: missing required field"),
    ("spec", [], "model.spec: expected an object, got []"),
    ("models", None, "model.models: missing required field"),
    ("models", ["g0>g1"], "model.models: expected an object, got ['g0>g1']"),
    ("pairs", [], "model.pairs: expected at least one pair, got []"),
])
def test_model_json_names_a_malformed_level_label_or_pair(model_docs, key, value, message):
    doc = json.loads(json.dumps(model_docs["linear"]))
    assert doc["labels"][0] == "g0"
    if value is None:
        del doc[key]
    else:
        doc[key] = value
    with pytest.raises(ValueError, match=re.escape(message)):
        model_from_json_dict(doc)


LEAF = {"value": 0.0}


def _edit_inner(inner, edit):
    """Apply one malformed `edit` to a model's inner document; return the document to put in its place."""
    kind, *rest = edit
    if kind == "replace":
        return rest[0]
    if kind == "drop":
        del inner[rest[0]]
    elif kind == "tree":  # tree 1 of level 0.5
        inner["trees"]["0.5"][1] = rest[0]
    elif kind == "level":
        inner["trees"]["0.5"] = rest[0]
    elif kind == "at-level":  # level 0.5 of a field
        field, value = rest
        inner[field]["0.5"] = value
    elif kind == "keys":  # a field's entries under new keys: each the entry of the key it maps to
        field, keys = rest
        inner[field] = {key: inner[field][source] for key, source in keys.items()}
    else:  # bucket 0's field
        field, value = rest
        bucket = inner["buckets"][0]
        if value is None:
            del bucket[field]
        elif field in ("timestamps", "counts") and not isinstance(value, list):
            bucket[field][0] = value
        else:
            bucket[field] = value
    return inner


@pytest.mark.parametrize("kind, edit, message", [
    ("linear", ("replace", []), ": expected an object, got []"),
    ("linear", ("replace", 7), ": expected an object, got 7"),
    ("linear", ("drop", "coef"), ".coef: missing required field"),
    ("pooled", ("drop", "converged"), ".converged: missing required field"),
    ("gboost", ("replace", "trees"), ": expected an object, got 'trees'"),
    ("gboost", ("drop", "init"), ".init: missing required field"),
    ("gboost", ("drop", "trees"), ".trees: missing required field"),
    ("gboost", ("level", {}), ".trees.0.5: expected a list, got {}"),
    ("gboost", ("tree", 3), ".trees.0.5[1]: expected an object, got 3"),
    ("gboost", ("tree", {"feature": 0, "left": LEAF, "right": LEAF}), ".trees.0.5[1].threshold: missing required field"),
    ("gboost", ("tree", {"threshold": 0.5, "left": LEAF, "right": LEAF}), ".trees.0.5[1].feature: missing required field"),
    ("gboost", ("tree", {"feature": 0, "threshold": 0.5, "left": LEAF}), ".trees.0.5[1].right: missing required field"),
    ("gboost", ("tree", {"feature": 0, "threshold": 0.5, "left": [1], "right": LEAF}),
     ".trees.0.5[1].left: expected an object, got [1]"),
    ("gboost", ("tree", {"feature": 0, "threshold": 0.5, "left": LEAF, "right": {"value": "1"}}),
     ".trees.0.5[1].right.value: not a number: '1'"),
    ("gboost", ("tree", {"feature": "0", "threshold": 0.5, "left": LEAF, "right": LEAF}),
     ".trees.0.5[1].feature: not a number: '0'"),
    ("gboost", ("tree", {"feature": 0, "threshold": None, "left": LEAF, "right": LEAF}),
     ".trees.0.5[1].threshold: not a number: None"),
    ("hp", ("replace", None), ": expected an object, got None"),
    ("hp", ("drop", "buckets"), ".buckets: missing required field"),
    ("hp", ("replace", {"buckets": {}}), ".buckets: expected a list, got {}"),
    ("hp", ("replace", {"buckets": [[]]}), ".buckets[0]: expected an object, got []"),
    ("hp", ("bucket", "dow", None), ".buckets[0].dow: missing required field"),
    ("hp", ("bucket", "tod", "8"), ".buckets[0].tod: not an integer: '8'"),
    ("hp", ("bucket", "counts", None), ".buckets[0].counts: missing required field"),
    ("hp", ("bucket", "timestamps", "2017-11-20"), ".buckets[0].timestamps[0]: not an ISO hour such as 2018-01-08T08"),
    ("hp", ("bucket", "timestamps", 7), ".buckets[0].timestamps[0]: not an ISO hour such as 2018-01-08T08: 7"),
    ("hp", ("bucket", "counts", "3"), ".buckets[0].counts[0]: not a number: '3'"),
    ("hp", ("bucket", "counts", -1.0), ".buckets[0].counts[0]: not a count: -1.0"),
    ("hp", ("bucket", "counts", 1.5), ".buckets[0].counts[0]: not a count: 1.5"),
    ("hp", ("bucket", "counts", float("nan")), ".buckets[0].counts[0]: not a count: nan"),
    ("hp", ("bucket", "counts", float("inf")), ".buckets[0].counts[0]: not a count: inf"),
    ("hp", ("bucket", "counts", [1.0]), ".buckets[0].counts: 1 counts for"),
    ("linear", ("at-level", "coef", {"x": 1}), ".coef.0.5: expected a list, got {'x': 1}"),
    ("pooled", ("at-level", "coef", 1.5), ".coef.0.5: expected a list, got 1.5"),
    ("linear", ("at-level", "coef", ["1"]), ".coef.0.5[0]: not a number: '1'"),
    ("linear", ("at-level", "coef", [None]), ".coef.0.5[0]: not a number: None"),
    ("pooled", ("at-level", "coef", [True]), ".coef.0.5[0]: not a number: True"),
    ("linear", ("at-level", "converged", "false"), ".converged.0.5: expected true or false, got 'false'"),
    ("pooled", ("at-level", "converged", 0), ".converged.0.5: expected true or false, got 0"),
    ("linear", ("at-level", "converged", None), ".converged.0.5: expected true or false, got None"),
    ("linear", ("keys", "coef", {"x": "0.5"}), ".coef.x: not a number: 'x'"),
    ("linear", ("keys", "coef", {"0.25": "0.5"}), ".coef.0.25: not one of model.levels [0.5]"),
    ("pooled", ("keys", "coef", {}), ".coef.0.5: missing required field"),
    ("linear", ("keys", "coef", {"0.5": "0.5", "0.50": "0.5"}), ".coef.0.50: a second entry of level 0.5"),
    ("linear", ("keys", "converged", {"0.5": "0.5", "0.9": "0.5"}), ".converged.0.9: not one of model.levels [0.5]"),
    ("pooled", ("keys", "converged", {}), ".converged.0.5: missing required field"),
    ("gboost", ("keys", "init", {"nan": "0.5"}), ".init.nan: not one of model.levels [0.5]"),
    ("gboost", ("keys", "init", {"0.5": "0.5", "0.9": "0.5"}), ".init.0.9: not one of model.levels [0.5]"),
    ("gboost", ("keys", "trees", {"0.25": "0.5"}), ".trees.0.25: not one of model.levels [0.5]"),
    ("gboost", ("keys", "trees", {}), ".trees.0.5: missing required field"),
])
def test_model_json_names_a_malformed_inner_field(model_docs, kind, edit, message):
    doc = json.loads(json.dumps(model_docs[kind]))
    name = next(iter(doc["models"]))
    doc["models"][name] = _edit_inner(doc["models"][name], edit)
    with pytest.raises(ConfigError, match=re.escape(f"model.models.{name}{message}")):
        model_from_json_dict(doc)


@pytest.mark.parametrize("kind", ["hp", "linear", "gboost"])
def test_model_json_without_pairs_is_rejected(model_docs, kind):
    doc = json.loads(json.dumps(model_docs[kind]))
    doc["pairs"], doc["models"], doc["seasonal"] = [], {}, {}
    with pytest.raises(ConfigError, match=re.escape("model.pairs: expected at least one pair, got []")):
        model_from_json_dict(doc)


def forecast_values(forecasts):
    return {t: {pair: fc.values for pair, fc in by_pair.items()} for t, by_pair in forecasts.items()}


@pytest.mark.parametrize("family", ["hp", "linear"])
def test_a_label_holding_the_name_separator_round_trips(dataset, tmp_path, family):
    path = tmp_path / "counts.csv"
    save_od_counts(path, dataset)
    path.write_bytes(path.read_bytes().replace(b",g1,", b",a>b,"))
    relabelled = load_od_counts(path)
    assert relabelled.labels == ["a>b", "g0", "g2"]
    model = train_model(relabelled, SPLIT, spec(family=family), (0.25, 0.75))
    save_model(model, tmp_path / "model.json")
    assert "g0>a>b" in json.loads((tmp_path / "model.json").read_text())["models"]
    back = load_model(tmp_path / "model.json")
    lags = evaluation_lags(relabelled, SPLIT)[:3]
    assert forecast_values(predict_forecasts(back, relabelled, SPLIT, lags)) == forecast_values(
        predict_forecasts(model, relabelled, SPLIT, lags))
    save_model(back, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "model.json").read_bytes()


def test_two_pairs_of_one_name_are_refused_naming_both(dataset):
    s = dataset.series[dataset.pairs[0]]
    series = {pair: ODCountSeries(pair, s.timestamps, s.counts) for pair in (ODPair(1, 3), ODPair(0, 2))}
    twins = dataset_from_series([Location(i, label) for i, label in enumerate(["a", "a>b", "b>c", "c"])], series)
    model = train_model(twins, SPLIT, spec(family="hp"), (0.5,))
    message = "model.pairs: ['a', 'b>c'] and ['a>b', 'c'] are both named 'a>b>c'"
    with pytest.raises(ConfigError, match=re.escape(message)):
        model_to_json_dict(model)
    doc = model_to_json_dict(train_model(dataset_from_series(twins.locations, {ODPair(0, 2): series[ODPair(0, 2)]}), SPLIT,
                                         spec(family="hp"), (0.5,)))
    doc["pairs"].append(["a>b", "c"])  # a hand-written document with both
    with pytest.raises(ConfigError, match=re.escape(message)):
        model_from_json_dict(doc)


def test_hp_model_json_names_a_bucket_off_its_hour_and_an_hour_twice(model_docs):
    doc = json.loads(json.dumps(model_docs["hp"]))
    name = next(iter(doc["models"]))
    buckets = doc["models"][name]["buckets"]
    first, second = buckets[0], buckets[1]
    assert (first["dow"], first["tod"]) < (second["dow"], second["tod"])  # written in (weekday, hour) order
    assert first["timestamps"] == sorted(first["timestamps"])  # each in time order
    assert all(isinstance(v, float) for v in first["counts"])
    off = json.loads(json.dumps(doc))
    off["models"][name]["buckets"][0]["timestamps"][1] = second["timestamps"][0]
    message = f"model.models.{name}.buckets[0].timestamps[1]: {second['timestamps'][0]} is not on weekday "
    with pytest.raises(ConfigError, match=re.escape(message + f"{first['dow']} hour {first['tod']}")):
        model_from_json_dict(off)
    twice = json.loads(json.dumps(doc))
    twice["models"][name]["buckets"].append(dict(first))
    with pytest.raises(ConfigError, match=re.escape(f"model.models.{name}.buckets: hour {first['timestamps'][0]} appears twice")):
        model_from_json_dict(twice)
    # the buckets in any order, each in any order, read as the same train series
    shuffled = json.loads(json.dumps(doc))
    for bucket in shuffled["models"][name]["buckets"]:
        bucket["timestamps"].reverse()
        bucket["counts"].reverse()
    shuffled["models"][name]["buckets"].reverse()
    assert model_to_json_dict(model_from_json_dict(shuffled)) == doc


def test_model_json_ignores_unknown_spec_keys(model_docs):
    doc = json.loads(json.dumps(model_docs["gboost"]))
    doc["spec"]["note"] = "hand-edited"
    doc["spec"]["gboost"]["subsample"] = 0.5
    assert model_from_json_dict(doc).spec == model_from_json_dict(model_docs["gboost"]).spec


def test_seasonal_model_names_a_pair_without_cells(dataset, model_docs):
    doc = json.loads(json.dumps(model_docs["linear"]))
    name = sorted(doc["seasonal"])[-1]
    del doc["seasonal"][name]
    with pytest.raises(ValueError, match=re.escape(f"model.seasonal.{name}: missing required field")):
        model_from_json_dict(doc)
    for section in ({}, None):  # None: the section is absent, and reads as empty
        doc["seasonal"] = section
        if section is None:
            del doc["seasonal"]
        first = ">".join(doc["pairs"][0])
        with pytest.raises(ValueError, match=re.escape(f"model.seasonal.{first}: missing required field")):
            model_from_json_dict(doc)
    # training: the last pair's counts start after the train range
    last = dataset.pairs[-1]
    s = dataset.series[last]
    late = ~SPLIT.in_train(s.timestamps) & (s.timestamps > np.datetime64("2017-12-01T00"))
    series = {**dataset.series, last: ODCountSeries(last, s.timestamps[late], s.counts[late])}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the short series' unit-root test
        with pytest.raises(ValueError, match=re.escape(f"no seasonal cells for pair {last}")):
            train_model(dataset_from_series(dataset.locations, series), SPLIT, spec(seasonal_normalize=True), (0.5,))


@pytest.mark.parametrize(
    "mspec",
    [
        spec(seasonal_normalize=True),
        spec(family="gboost", cross_lags=True, seasonal_normalize=True, gboost=GBoostHyper(0.5, 2, 6)),
    ],
    ids=["seasonal", "gboost-cross-seasonal"],
)
def test_seasonal_forecasts_survive_save_and_load(dataset, mspec, tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # zero-variance seasonal cells
        model = train_model(dataset, SPLIT, mspec, DEFAULT_QUANTILES)
    save_model(model, tmp_path / "model.json")
    loaded = load_model(tmp_path / "model.json")
    assert loaded.seasonal.pairs == model.seasonal.pairs
    assert np.array_equal(loaded.seasonal.mean, model.seasonal.mean, equal_nan=True)
    assert np.array_equal(loaded.seasonal.std, model.seasonal.std, equal_nan=True)
    lags = evaluation_lags(dataset, SPLIT)[::7]
    got, want = (predict_forecasts(m, dataset, SPLIT, lags) for m in (loaded, model))
    assert [[fc.values for fc in by_pair.values()] for by_pair in got.values()] == [
        [fc.values for fc in by_pair.values()] for by_pair in want.values()
    ]


def test_a_seasonal_predict_builds_no_table(dataset, monkeypatch):
    builds = []
    post_init = qr.SeasonalStats.__post_init__
    monkeypatch.setattr(qr.SeasonalStats, "__post_init__", lambda stats: builds.append(1) or post_init(stats))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # zero-variance seasonal cells
        model = train_model(dataset, SPLIT, spec(seasonal_normalize=True), (0.5,))
    loaded = model_from_json_dict(model_to_json_dict(model))
    assert len(builds) == 2  # one when trained, one when loaded
    t = evaluation_lags(dataset, SPLIT)[0]
    for trained in (model, loaded):
        predict_forecasts(trained, dataset, SPLIT, np.array([t]))
    assert len(builds) == 2


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
    record = working_record(dataset, SPLIT)
    lags = evaluation_lags(dataset, SPLIT)
    for i, pair in enumerate(record.pairs):
        X, usable = build_features(record, np.full(len(lags), i), lags, model.feature_cfg)
        ref = reference_raw_predict(doc["models"]["pooled"], hyper.learning_rate, X[usable])
        for trained in (model, loaded):
            raw = gboost_raw_predict(trained.stack, np.zeros(usable.sum(), dtype=int), X[usable])
            assert all(np.array_equal(raw[:, j], ref[q]) for j, q in enumerate(DEFAULT_QUANTILES))


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
        record = working_record(dataset, SPLIT)
        record = seasonal_normalize(record, fit_seasonal_stats(record.select(SPLIT.in_train(record.timestamps))))
    test_range, val_range, train_range = tuning_ranges(SPLIT)
    cfg = mspec.feature_config()
    total = 0.0
    for i, pair in enumerate(record.pairs):
        s = pair_series(record, pair)
        train = SPLIT.in_train(s.timestamps)
        X, usable = build_features(record, np.full(train.sum(), i), s.timestamps[train], cfg)
        X, y, days = X[usable], s.values[train][usable], s.timestamps[train][usable].astype("datetime64[D]")
        part = {rng: (days >= np.datetime64(rng[0])) & (days <= np.datetime64(rng[1]))
                for rng in (test_range, val_range, train_range)}
        val = (X[part[val_range]], y[part[val_range]])
        model = fit_gboost(X[part[train_range]], y[part[train_range]], (0.5,), hyper, val=val)
        raw = reference_gboost_raw_predict(model, X[part[test_range]])
        total += float(np.mean(tilted_loss(0.5, y[part[test_range]], raw[0.5])))
    assert scores == [total]
    _, plain = gboost_grid_search(dataset, SPLIT, spec(family="gboost"), [hyper], (0.5,))
    assert plain != scores


@pytest.mark.parametrize("scope", ["per_pair", "pooled"])
def test_grid_search_scores_equal_each_pairs_tilted_loss(dataset, scope):
    """A score sums each pair's mean tilted loss per level on its tuning-test rows, under its group's model."""
    grid, levels = [GBoostHyper(0.3, 2, 8), GBoostHyper(0.1, 3, 5)], (0.25, 0.5, 0.75)
    mspec = spec(family="gboost", scope=scope)
    best, scores = gboost_grid_search(dataset, SPLIT, mspec, grid, levels)
    record = working_record(dataset, SPLIT)
    cfg = mspec.feature_config()
    rows = {}
    for i, pair in enumerate(record.pairs):
        s = pair_series(record, pair)
        train = SPLIT.in_train(s.timestamps)
        X, usable = build_features(record, np.full(train.sum(), i), s.timestamps[train], cfg)
        days = s.timestamps[train][usable].astype("datetime64[D]")
        part = [(days >= np.datetime64(a)) & (days <= np.datetime64(b)) for a, b in tuning_ranges(SPLIT)]
        rows[pair] = X[usable], s.values[train][usable], *part  # tuning test, val and train rows
    groups = [list(rows)] if scope == "pooled" else [[pair] for pair in rows]
    want = []
    for hyper in grid:
        total = 0.0
        for members in groups:
            X, y, _, in_val, in_train = (np.concatenate(c) for c in zip(*(rows[p] for p in members)))
            model = fit_gboost(X[in_train], y[in_train], levels, hyper, val=(X[in_val], y[in_val]))
            for pair in members:
                X, y, in_test, _, _ = rows[pair]
                raw = reference_gboost_raw_predict(model, X[in_test])
                total += sum(float(np.mean(tilted_loss(q, y[in_test], raw[q]))) for q in levels)
        want.append(total)
    assert scores == want
    assert best == grid[int(np.argmin(want))]


@pytest.mark.parametrize("scope", ["per_pair", "pooled"])
def test_grid_search_rejects_an_empty_tuning_test_range(scope):
    data = generate_synthetic(SyntheticSpec(n_locations=3, end=date(2017, 12, 20), seed=11))
    split = SplitSpec(SPLIT.train_range, SPLIT.test_range, masked_dates=((date(2017, 11, 17), date(2017, 11, 23)),))
    grid = [GBoostHyper(0.3, 2, 5), GBoostHyper(0.1, 2, 5)]
    name = re.escape(pair_name(data.pairs[0], data.labels))
    message = rf"pair {name} has no rows in the tuning-test range 2017-11-17\.\.2017-11-23"
    with pytest.raises(ValueError, match=message):
        gboost_grid_search(data, split, spec(family="gboost", scope=scope), grid, (0.5,))


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
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["timestamp", "origin", "destination", "q", "value"]
    back = {}
    for t, o, d, q, v in rows:
        back.setdefault((parse_hour(t), o, d), {})[float(q)] = float(v)
    assert sorted({o for _, o, _ in back} | {d for _, _, d in back}) == model.labels
    labels = model.labels
    expected = {(t, labels[p.origin], labels[p.destination]): fc.values for t, fcs in forecasts.items() for p, fc in fcs.items()}
    assert back.keys() == expected.keys()
    for key, values in expected.items():
        assert back[key] == pytest.approx(values)
