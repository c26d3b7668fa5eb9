import numpy as np
import pytest
from datetime import date
from hypothesis import given, strategies as st

from drtopt.data import (
    FeatureConfig,
    HourlySeries,
    ODCountSeries,
    ODPair,
    SplitSpec,
    adf_test,
    build_features,
    campus_2017_split,
    contiguous_blocks,
    counts_at,
    difference,
    load_od_counts,
    mask_lags,
    parse_hour,
    pair_name,
    save_od_counts,
    train_series,
    undifference,
)


def hourly(start: str, values):
    t0 = parse_hour(start)
    ts = t0 + np.arange(len(values)).astype("timedelta64[h]")
    return ts


def series(start: str, counts, pair=ODPair(0, 1)):
    return ODCountSeries(pair, hourly(start, counts), counts)


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def test_load_two_pairs_two_lags(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text(
        "timestamp,origin,destination,count\n"
        "2017-11-17T08,g10,g11,5\n"
        "2017-11-17T09,g10,g11,7\n"
        "2017-11-17T08,g11,g10,2\n"
        "2017-11-17T09,g11,g10,0\n"
    )
    ds = load_od_counts(p)
    assert len(ds.series) == 2
    assert all(len(s) == 2 for s in ds.series.values())
    assert [l.label for l in ds.locations] == ["g10", "g11"]
    s = ds.series[ODPair(0, 1)]
    assert list(s.counts) == [5, 7]


def test_load_rejects_self_loop(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("timestamp,origin,destination,count\n2017-11-17T08,g10,g10,5\n")
    with pytest.raises(ValueError, match="self-loop"):
        load_od_counts(p)


def test_load_rejects_bad_count_with_line_number(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("timestamp,origin,destination,count\n2017-11-17T08,g10,g11,5.5\n")
    with pytest.raises(ValueError, match=":2.*non-integer"):
        load_od_counts(p)


@pytest.mark.parametrize("count", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_load_rejects_non_finite_count_with_line_number(tmp_path, count):
    p = tmp_path / "c.csv"
    p.write_text(f"timestamp,origin,destination,count\n2017-11-17T08,g10,g11,5\n2017-11-17T09,g10,g11,{count}\n")
    with pytest.raises(ValueError, match=f":3: non-integer count '{count}'"):
        load_od_counts(p)


def test_load_rejects_duplicate_observation(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text(
        "timestamp,origin,destination,count\n"
        "2017-11-17T08,g10,g11,5\n"
        "2017-11-17T08,g10,g11,6\n"
    )
    with pytest.raises(ValueError, match="duplicate"):
        load_od_counts(p)


def test_load_rejects_malformed_row(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("timestamp,origin,destination,count\n2017-11-17T08,g10,g11\n")
    with pytest.raises(ValueError, match=":2"):
        load_od_counts(p)


def test_load_tolerates_trailing_blank_lines(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("timestamp,origin,destination,count\n2017-11-17T08,g10,g11,5\n\n\n")
    ds = load_od_counts(p)
    assert len(ds.series[ODPair(0, 1)]) == 1


def test_save_load_round_trip(tmp_path):
    from drtopt.synth import SyntheticSpec, generate_synthetic

    ds = generate_synthetic(SyntheticSpec(n_locations=3, end=date(2017, 11, 24), seed=9))
    path = tmp_path / "counts.csv"
    save_od_counts(path, ds)
    back = load_od_counts(path)
    assert back.pairs == ds.pairs
    for pair in ds.pairs:
        assert np.array_equal(back.series[pair].timestamps, ds.series[pair].timestamps)
        assert np.array_equal(back.series[pair].counts, ds.series[pair].counts)


# ---------------------------------------------------------------------------
# differencing
# ---------------------------------------------------------------------------


def test_difference_definition():
    d = difference(series("2017-11-17T08", np.array([5, 8, 6])))
    assert list(d.values) == [3, -2]
    assert len(d) == 2


def test_difference_constant_series():
    d = difference(series("2017-11-17T08", np.array([4, 4, 4, 4])))
    assert list(d.values) == [0, 0, 0]


def test_difference_too_short():
    with pytest.raises(ValueError, match="too short"):
        difference(series("2017-11-17T08", np.array([3])))


def test_difference_skips_gaps():
    ts = np.concatenate([hourly("2017-11-17T08", [0, 0, 0]), hourly("2017-11-18T08", [0, 0])])
    s = ODCountSeries(ODPair(0, 1), ts, np.array([1, 2, 4, 10, 11]))
    d = difference(s)
    # the first lag of each contiguous block is dropped: no 10-4 difference
    assert list(d.values) == [1, 2, 1]
    assert len(contiguous_blocks(ts)) == 2


@given(st.lists(st.integers(min_value=0, max_value=500), min_size=2, max_size=60))
def test_difference_cumsum_inverse(counts):
    s = series("2017-11-17T08", np.array(counts))
    d = difference(s)
    reconstructed = undifference(d, float(counts[0]))
    assert np.array_equal(reconstructed, np.array(counts[1:], dtype=float))


# ---------------------------------------------------------------------------
# masking and splits
# ---------------------------------------------------------------------------


def full_day_series(days=3, start="2017-11-17T00"):
    n = days * 24
    return series(start, np.arange(n) % 7)


def test_mask_hours_keeps_seven_to_twentytwo():
    spec = campus_2017_split()
    masked = mask_lags(full_day_series(), spec)
    hours = masked.timestamps.astype("int64") % 24
    assert set(hours) == set(range(7, 23))


def test_mask_all_dates_empties_series():
    spec = SplitSpec(
        (date(2017, 11, 17), date(2017, 11, 18)),
        (date(2017, 11, 19), date(2017, 11, 20)),
        masked_hours=frozenset(),
        masked_dates=((date(2017, 11, 17), date(2017, 11, 19)),),
    )
    masked = mask_lags(full_day_series(days=3), spec)
    assert len(masked) == 0


def test_mask_idempotent():
    spec = campus_2017_split()
    once = mask_lags(full_day_series(), spec)
    twice = mask_lags(once, spec)
    assert np.array_equal(once.timestamps, twice.timestamps)


def test_campus_defaults_per_day_counts():
    # full calendar over the whole case-study range: 16 retained hours per day
    # outside the holiday, zero inside it
    start = parse_hour("2017-11-17T00")
    ts = start + np.arange(59 * 24).astype("timedelta64[h]")
    s = ODCountSeries(ODPair(0, 1), ts, np.zeros(len(ts), dtype=int))
    masked = mask_lags(s, campus_2017_split())
    days = masked.timestamps.astype("datetime64[D]")
    per_day = {d: int(np.sum(days == d)) for d in np.unique(ts.astype("datetime64[D]"))}
    holiday = (np.datetime64("2017-12-23"), np.datetime64("2018-01-01"))
    for d in np.unique(ts.astype("datetime64[D]")):
        expected = 0 if holiday[0] <= d <= holiday[1] else 16
        assert per_day.get(d, 0) == expected


def test_train_series_is_masking_then_train_range():
    spec = campus_2017_split()
    ts = parse_hour("2018-01-06T00") + np.arange(4 * 24).astype("timedelta64[h]")
    s = ODCountSeries(ODPair(2, 1), ts, np.arange(len(ts)))
    masked = mask_lags(s, spec)
    keep = spec.in_train(masked.timestamps)
    train = train_series(s, spec)
    assert train.pair == ODPair(2, 1)
    assert np.array_equal(train.timestamps, masked.timestamps[keep])
    assert np.array_equal(train.counts, masked.counts[keep])
    assert len(train) == 2 * 16  # Jan 6 and 7 by day; Jan 8 on is test range


def test_counts_at_returns_exact_counts():
    s = series("2018-01-08T07", [5, 0, 12, 3, 9])
    lags = parse_hour("2018-01-08T07") + np.array([3, 0, 4, 2]).astype("timedelta64[h]")
    got = counts_at(s, lags)
    assert got.dtype == np.float64
    assert got.tolist() == [3.0, 5.0, 9.0, 12.0]


def test_counts_at_raises_on_a_gap_naming_pair_and_hour():
    ts = hourly("2018-01-08T07", range(6))
    s = ODCountSeries(ODPair(3, 1), np.delete(ts, 2), [5, 0, 3, 9, 4])  # no 09:00
    assert counts_at(s, ts[[0, 1, 3]]).tolist() == [5.0, 0.0, 3.0]
    with pytest.raises(ValueError, match=r"ODPair\(origin=3, destination=1\) at 2018-01-08T09"):
        counts_at(s, ts[1:4])
    with pytest.raises(ValueError, match="2018-01-08T13"):
        counts_at(s, [parse_hour("2018-01-08T13")])  # after the last observation


def test_pair_name_by_id_and_by_label():
    assert pair_name(ODPair(2, 0)) == "2>0"
    assert pair_name(ODPair(2, 0), ["gym", "lib", "dorm"]) == "dorm>gym"


def test_split_ranges_lengths():
    spec = campus_2017_split()
    train_days = (spec.train_range[1] - spec.train_range[0]).days + 1
    test_days = (spec.test_range[1] - spec.test_range[0]).days + 1
    assert (train_days, test_days) == (52, 7)


def test_split_requires_order():
    with pytest.raises(ValueError, match="precede"):
        SplitSpec((date(2018, 1, 1), date(2018, 2, 1)), (date(2018, 1, 15), date(2018, 2, 15)))


# ---------------------------------------------------------------------------
# ADF
# ---------------------------------------------------------------------------


def test_adf_rejects_on_iid_noise():
    rejections = sum(
        adf_test(np.random.default_rng(1000 + i).standard_normal(500)).reject_unit_root
        for i in range(100)
    )
    assert rejections >= 99


def test_adf_keeps_unit_root_on_random_walk():
    rejections = sum(
        adf_test(np.cumsum(np.random.default_rng(2000 + i).standard_normal(500))).reject_unit_root
        for i in range(100)
    )
    assert rejections <= 5


def test_adf_short_series_precondition():
    with pytest.raises(ValueError, match="too short"):
        adf_test([1.0, 2.0, 1.5], max_lag=4)


def test_adf_singular_matrix():
    with pytest.raises(ValueError, match="singular"):
        adf_test(np.zeros(50), max_lag=2)


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------


def make_history(pair=ODPair(0, 1), n=60, start="2017-11-13T07", values=None):
    ts = hourly(start, range(n))
    vals = np.arange(n, dtype=float) if values is None else values
    return {pair: HourlySeries(pair, ts, vals)}


def test_features_monday_eight():
    history = make_history()
    t = parse_hour("2017-11-20T08")  # a Monday
    f = build_features(history, t, ODPair(0, 1), FeatureConfig())
    assert f.dow_onehot[0] == 1.0 and f.dow_onehot.sum() == 1.0
    assert f.tod_onehot[8 - 7] == 1.0 and f.tod_onehot.sum() == 1.0
    assert len(f.ar_lags) == 24


def test_features_exam_flag():
    history = make_history(n=800, start="2017-11-13T07")
    cfg = FeatureConfig(exam_period=(date(2017, 12, 8), date(2017, 12, 22)))
    inside = build_features(history, parse_hour("2017-12-11T10"), ODPair(0, 1), cfg)
    outside = build_features(history, parse_hour("2017-12-01T10"), ODPair(0, 1), cfg)
    assert inside.exam_flag == 1
    assert outside.exam_flag == 0
    assert len(inside.vector()) == len(outside.vector()) == 16 + 7 + 1 + 24


def test_features_cross_lag_block_length():
    pairs = [ODPair(o, d) for o in range(6) for d in range(6) if o != d]
    history = {}
    for i, p in enumerate(pairs):
        history.update(make_history(p, n=10, values=np.full(10, float(i))))
    cfg = FeatureConfig(cross_lags=True, cross_order=1)
    f = build_features(history, parse_hour("2017-11-13T17"), pairs[0], cfg)
    assert len(f.ar_lags) == 30
    # ordering matches sorted pair order
    assert list(f.ar_lags) == [float(i) for i in range(30)]


def test_features_newest_lag_first():
    history = make_history()
    t = history[ODPair(0, 1)].timestamps[30]
    f = build_features(history, t, ODPair(0, 1), FeatureConfig())
    assert f.ar_lags[0] == 29.0 and f.ar_lags[23] == 6.0


def test_features_insufficient_history():
    history = make_history(n=10)
    with pytest.raises(ValueError, match="insufficient"):
        build_features(history, parse_hour("2017-11-13T12"), ODPair(0, 1), FeatureConfig())


def test_features_deterministic():
    history = make_history()
    t = history[ODPair(0, 1)].timestamps[30]
    a = build_features(history, t, ODPair(0, 1), FeatureConfig()).vector()
    b = build_features(history, t, ODPair(0, 1), FeatureConfig()).vector()
    assert np.array_equal(a, b)
