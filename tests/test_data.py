import csv
import io
import re

import numpy as np
import pytest
from datetime import date
from hypothesis import example, given, settings, strategies as st

from drtopt.config import SCOPES, ModelSpec
from drtopt.data import (
    INT64_MAX,
    Location,
    ODCountSeries,
    ODDataset,
    ODPair,
    SplitSpec,
    adf_test,
    aligned_train_series,
    build_features,
    campus_2017_split,
    counts_at,
    difference,
    format_hour,
    load_od_counts,
    n_features,
    parse_hour,
    pair_name,
    save_od_counts,
    train_series,
)
from reference_data import dataset_of, reference_counts_at, reference_difference, reference_load_od_counts
from reference_features import PairSeries, pair_series, record_of, reference_features


def hourly(start: str, values):
    t0 = parse_hour(start)
    ts = t0 + np.arange(len(values)).astype("timedelta64[h]")
    return ts


def series(start: str, counts, pair=ODPair(0, 1)):
    return ODCountSeries(pair, hourly(start, counts), np.asarray(counts))


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


@pytest.mark.parametrize("text", ["2017-11-17T08:30", "2017-11-17", "NaT", "nat", "2017-11-17T08Z", "12017-11-17T08", ""])
def test_parse_hour_rejects_what_is_not_an_hour(text):
    with pytest.raises(ValueError, match=re.escape(f"bad hourly timestamp {text!r}")):
        parse_hour(text)


def test_parse_hour_reads_an_hour():
    assert parse_hour(" 2017-11-17T08 ") == parse_hour("2017-11-17 08") == np.datetime64("2017-11-17T08", "h")


@pytest.mark.parametrize("stamp", ["NaT", "2017-11-17T09:30", "2017-11-18"])
def test_load_rejects_a_timestamp_that_is_not_an_hour_with_line_number(tmp_path, stamp):
    p = tmp_path / "c.csv"
    p.write_text(f"timestamp,origin,destination,count\n2017-11-17T08,a,b,5\n{stamp},a,b,3\n")
    with pytest.raises(ValueError, match=re.escape(f":3: bad hourly timestamp '{stamp}'")):
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


@pytest.mark.parametrize("count, message", [
    (INT64_MAX + 1, f"count {INT64_MAX + 1} beyond the int64 range"),
    (10**20, f"count {10**20} beyond the int64 range"),
    (-(10**20), f"negative count {-(10**20)}"),  # the sign is checked first
])
def test_load_rejects_a_count_beyond_int64_with_line_number(tmp_path, count, message):
    p = tmp_path / "c.csv"
    p.write_text(f"timestamp,origin,destination,count\n2017-11-17T08,a,b,5\n2017-11-17T09,a,b,{count}\n")
    with pytest.raises(ValueError, match=re.escape(f":3: {message}")):
        load_od_counts(p)
    p.write_text(f"timestamp,origin,destination,count\n2017-11-17T08,a,b,{INT64_MAX}\n")
    assert load_od_counts(p).series[ODPair(0, 1)].counts.tolist() == [INT64_MAX]


def test_load_names_the_first_malformed_record_by_its_first_failed_check(tmp_path):
    p = tmp_path / "c.csv"
    # line 3 is blank but counted; line 4 fails its timestamp, its self-loop and its count;
    # line 5 fails its field count
    p.write_text("timestamp,origin,destination,count\n2017-11-17T08,a,b,5\n\nNaT,a,a,x\n2017-11-17T09,a\n")
    with pytest.raises(ValueError, match=re.escape(f"{p}:4: bad hourly timestamp 'NaT'")):
        load_od_counts(p)


def test_load_names_the_duplicate_whose_second_occurrence_comes_first(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text(
        "timestamp,origin,destination,count\n"
        "2017-11-17T08,a,b,5\n"
        "2017-11-17T09,a,c,1\n"
        "2017-11-17T09,a,c,2\n"
        "2017-11-17T08,a,b,6\n"
    )
    with pytest.raises(ValueError, match=re.escape(f"{p}: duplicate observation for pair a->c at 2017-11-17T09")):
        load_od_counts(p)


# Values the loader accepts, and values that fail one check each; a few of
# each side are whitespace-padded, signed, zero-padded or 13 characters long.
GOOD_STAMPS = st.integers(0, 5).map(lambda h: format_hour(np.datetime64("2017-11-17T06") + h))
GOOD_STAMPS |= st.sampled_from([" 2017-11-17T08 ", "2017-11-17 09", "2016-02-29T23", "0000-02-29T00"])
BAD_STAMPS = st.sampled_from(
    ["2017-11-17", "2017-11-17T08:30", "NaT", "", "2017-11-17T24", "2017-13-01T00", "abcdefghijklm", "17-11-17T08:3",
     "2017-02-30T09", "2017-02-29T00", "1900-02-29T00", "2017-00-01T00", "2017-01-00T00"]
)
LABELS = st.sampled_from(["a", "b", "aa", "B", " c ", "A,x", 'q"t', "m\nn", "é"])
GOOD_COUNTS = st.integers(0, 30).map(str) | st.sampled_from(
    ["+7", " 7 ", "007", "1_000", str(INT64_MAX), "9" * 18, "0" * 20 + "7"]
)
BAD_COUNTS = st.sampled_from(
    ["-3", "nan", "inf", "5.0", "1e3", "", "x", str(INT64_MAX + 1), "99999999999999999999", "-99999999999999999999"]
)


# Values of the form that `save_od_counts` writes, which the loader parses from the bytes.
PLAIN_STAMPS = st.integers(0, 5).map(lambda h: format_hour(np.datetime64("2017-11-17T06") + h))
PLAIN_STAMPS |= st.sampled_from(["2016-02-29T23", "0000-02-29T00"])
PLAIN_LABELS = st.sampled_from(["a", "b", "aa", "B", "a>b"])
PLAIN_COUNTS = st.integers(0, 10**18 - 1).map(str) | st.just("007")
FLAWED_PLAIN = st.sampled_from(
    [("2017-02-30T09", "a", "b", "1"), ("2017-11-17T08", "b", "b", "1"), ("2017-11-17T08", "a", "b", "9" * 19)]
)


@st.composite
def csv_records(draw):
    """Records of a counts CSV.  A third are plain: rows of the written form, one of which may be flawed.  The
    rest have blank and whitespace-only lines, padded, quoted and non-ASCII fields, and, unless the file is
    to be clean, rows with a malformed field or field count."""
    kind = draw(st.sampled_from(["plain", "clean", "corrupt"]))
    if kind == "plain":
        rows = draw(st.lists(st.tuples(PLAIN_STAMPS, PLAIN_LABELS, PLAIN_LABELS, PLAIN_COUNTS).filter(
            lambda r: r[1] != r[2]), max_size=12))
        flaw = draw(st.none() | FLAWED_PLAIN)
        if flaw is not None:
            rows.insert(draw(st.integers(0, len(rows))), flaw)
        return rows
    corrupt = kind == "corrupt"
    stamps, counts = (GOOD_STAMPS | BAD_STAMPS, GOOD_COUNTS | BAD_COUNTS) if corrupt else (GOOD_STAMPS, GOOD_COUNTS)
    row = st.tuples(stamps, LABELS, LABELS, counts)
    if not corrupt:
        row = row.filter(lambda r: r[1].strip() != r[2].strip())
    record = row | st.sampled_from(["", "   "])
    if corrupt:
        record = record | row.map(lambda r: r[:3]) | row.map(lambda r: r + ("9",))
    return draw(st.lists(record, max_size=12))


def _csv_text(records, terminator="\n") -> str:
    out = io.StringIO()
    out.write("timestamp,origin,destination,count" + terminator)
    writer = csv.writer(out, lineterminator=terminator)
    for record in records:
        if isinstance(record, str):
            out.write(record + terminator)
        else:
            writer.writerow(record)
    return out.getvalue()


def _loaded(load, path):
    """The labels and every series, pair by pair in the dataset's order, or the error raised."""
    try:
        ds = load(path)
    except Exception as exc:
        return type(exc), str(exc)
    return [loc.label for loc in ds.locations], [
        (pair.origin, pair.destination, s.timestamps.dtype, s.counts.dtype,
         s.timestamps.astype(np.int64).tolist(), s.counts.tolist())
        for pair, s in ds.series.items()
    ]


@settings(deadline=None, max_examples=300)
@given(records=csv_records(), terminator=st.sampled_from(["\n", "\r\n"]), unterminated=st.booleans())
@example(records=[("2017-11-17T08", "a", "b", "1"), ("NaT", "a", "a", "x"), ("2017-11-17", "b", "a", "-1")],
         terminator="\n", unterminated=False)
@example(records=[("2017-11-17T08", "a", "b", "1"), ("2017-11-17T08", "a", "b", "2"), ("2017-11-17T09", "a", "a")],
         terminator="\r\n", unterminated=False)
@example(records=[("2017-11-17T09", "b", "a", "1"), "", ("2017-11-17T08", "a", "b", "2"),
                  ("2017-11-17T09", "b", "a", "3")], terminator="\r\n", unterminated=False)
@example(records=[("2017-11-17T09", "b", "aa", "1"), ("2017-11-17T08", "B", "a", "9" * 18),
                  ("2017-11-17T08", "aa", "b", "0")], terminator="\r\n", unterminated=False)
def test_load_equals_the_per_row_reference(tmp_path_factory, records, terminator, unterminated):
    """LF and CRLF files, each with its last line terminated or not: the clean ones take the byte path."""
    text = _csv_text(records, terminator)
    path = tmp_path_factory.mktemp("counts") / "counts.csv"
    path.write_bytes((text[: -len(terminator)] if unterminated else text).encode("utf-8"))
    assert _loaded(load_od_counts, path) == _loaded(reference_load_od_counts, path)


def _no_csv_reader(*args, **kwargs):
    raise AssertionError("csv.reader called")


@pytest.mark.parametrize("terminator", ["\r\n", "\n"], ids=["crlf", "lf"])
def test_a_saved_counts_file_is_parsed_from_its_bytes(tmp_path, monkeypatch, terminator):
    from drtopt.synth import SyntheticSpec, generate_synthetic

    ds = generate_synthetic(SyntheticSpec(n_locations=3, end=date(2017, 11, 24), seed=9))
    path = tmp_path / "counts.csv"
    save_od_counts(path, ds)
    path.write_bytes(path.read_bytes().replace(b"\r\n", terminator.encode()))
    want = _loaded(reference_load_od_counts, path)
    monkeypatch.setattr(csv, "reader", _no_csv_reader)
    assert _loaded(load_od_counts, path) == want
    path.write_text("timestamp,origin,destination,count\n")
    assert _loaded(load_od_counts, path) == ([], [])  # a header without records


def test_a_file_with_a_quoted_label_is_read_by_csv_reader(tmp_path, monkeypatch):
    path = tmp_path / "counts.csv"
    path.write_bytes(b'timestamp,origin,destination,count\r\n2017-11-17T08,"a b",c,5\r\n2017-11-17T09,"a b",c,7\r\n')
    calls = []
    reader = csv.reader
    monkeypatch.setattr(csv, "reader", lambda *a, **kw: calls.append(a) or reader(*a, **kw))
    ds = load_od_counts(path)
    assert len(calls) == 1
    assert ds.labels == ["a b", "c"] and ds.series[ODPair(0, 1)].counts.tolist() == [5, 7]


CANONICAL = "timestamp,origin,destination,count\n2017-11-17T08,g0,g1,5\n2016-02-29T23,g1,g0,007\n"


FORMS = {  # id: (file text, whether it is in the written form)
    "lf": (CANONICAL, True),
    "crlf": (CANONICAL.replace("\n", "\r\n"), True),
    "header-only": ("timestamp,origin,destination,count\n", True),
    "18-digits": (CANONICAL + "2017-11-17T09,a,b," + "9" * 18 + "\n", True),
    "unterminated": (CANONICAL[:-1], False),
    "crlf-then-lf": (CANONICAL.replace("\n", "\r\n", 1), False),
    "lf-last": (CANONICAL.replace("\n", "\r\n")[:-2] + "\n", False),
    "cr-in-record": (CANONICAL.replace("\n", "\r\n").replace("g0,g1", "g0\rg1,g1"), False),
    "cr-moved": (CANONICAL.replace("\n", "\r\n").replace(",5\r\n", ",55\n").replace("g1,g0", "g1\rx,g0"), False),
    "trailing-fragment": (CANONICAL + "x", False),
    "blank-line": (CANONICAL + "\n", False),
    "space": (CANONICAL.replace("g0,g1", "g0 ,g1"), False),
    "tab": (CANONICAL.replace("g0,g1", "g0,\tg1"), False),
    "quoted": (CANONICAL.replace("g0,g1", '"g0",g1'), False),
    "non-ascii": (CANONICAL.replace("g0,g1", "\u00e9,g1"), False),
    "nul": (CANONICAL.replace("g0,g1", "g0,g1\x00"), False),
    "long-label": (CANONICAL + "2017-11-17T09,g0,g1,1\n" * 40 + "2017-11-17T09," + "x" * 5000 + ",g1,1\n", False),
    "bom": ("\ufeff" + CANONICAL, False),
    "header-comma": (CANONICAL.replace("count\n", "count,\n"), False),
    "five-fields": (CANONICAL.replace("g0,g1,5", "g0,g1,5,"), False),
    "three-fields": (CANONICAL.replace("g0,g1,5", "g0,g1"), False),
    "empty-origin": (CANONICAL.replace("g0,g1,5", ",g1,5"), False),
    "empty-destination": (CANONICAL.replace("g0,g1,5", "g0,,5"), False),
    "self-loop": (CANONICAL.replace("g0,g1,5", "g0,g0,5"), False),
    "signed": (CANONICAL.replace("g0,g1,5", "g0,g1,+5"), False),
    "no-count": (CANONICAL.replace("g0,g1,5", "g0,g1,"), False),
    "19-digits": (CANONICAL.replace("g0,g1,5", "g0,g1," + "1" * 19), False),
    "spaced-hour": (CANONICAL.replace("2017-11-17T08", "2017-11-17 08"), False),
    "lower-t": (CANONICAL.replace("2017-11-17T08", "2017-11-17t08"), False),
    "no-t": (CANONICAL.replace("2017-11-17T08", "2017-11-1708"), False),
    "long-hour": (CANONICAL.replace("2017-11-17T08", "2017-11-17T008"), False),
    "feb-29": (CANONICAL.replace("2017-11-17T08", "2017-02-29T08"), False),
    "hour-24": (CANONICAL.replace("2017-11-17T08", "2017-11-17T24"), False),
    "month-13": (CANONICAL.replace("2017-11-17T08", "2017-13-17T08"), False),
    "letter": (CANONICAL.replace("2017-11-17T08", "2017-11-1xT08"), False),
    "signed-year": (CANONICAL.replace("2017-11-17T08", "-017-11-17T08"), False),  # an hour that numpy reads
}


@pytest.mark.parametrize("text, canonical", FORMS.values(), ids=FORMS.keys())
def test_only_the_written_form_is_parsed_from_bytes(tmp_path, text, canonical):
    from drtopt.data import _canonical_columns

    path = tmp_path / "counts.csv"
    path.write_bytes(text.encode("utf-8"))
    assert (_canonical_columns(path.read_bytes()) is not None) == canonical
    assert _loaded(load_od_counts, path) == _loaded(reference_load_od_counts, path)


def test_a_label_past_the_csv_field_limit_fails_as_csv_reader_does(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text(CANONICAL.replace("g0,g1", "g0,abcdefghijk"))
    limit = csv.field_size_limit(10)
    try:
        with pytest.raises(csv.Error, match=re.escape("field larger than field limit (10)")):
            reference_load_od_counts(path)
        with pytest.raises(csv.Error, match=re.escape("field larger than field limit (10)")):
            load_od_counts(path)
    finally:
        csv.field_size_limit(limit)


def test_a_file_that_is_not_utf8_fails_as_the_text_reader_does(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_bytes(CANONICAL.encode() + b"2017-11-17T09,g0,g1,1\n" * 1000 + b"2017-11-17T10,\xff,g1,1\n")
    with open(path, newline="", encoding="utf-8") as fh, pytest.raises(UnicodeDecodeError) as want:
        list(csv.reader(fh))
    with pytest.raises(UnicodeDecodeError) as got:
        load_od_counts(path)
    assert str(got.value) == str(want.value)


def test_a_file_that_is_not_utf8_fails_on_its_byte_before_a_malformed_record_is_named(tmp_path):
    path = tmp_path / "counts.csv"
    head = CANONICAL.replace("g1,g0", "g1,g1").encode()  # a self-loop on line 3
    path.write_bytes(head + b"2017-11-17T09,g0,g1,1\n" * 1000 + b"2017-11-17T10,\xff,g1,1\n")
    with open(path, newline="", encoding="utf-8") as fh, pytest.raises(UnicodeDecodeError) as want:
        list(csv.reader(fh))
    with pytest.raises(UnicodeDecodeError) as got:
        load_od_counts(path)
    assert str(got.value) == str(want.value)


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
    d = difference(dataset_of(series("2017-11-17T08", np.array([5, 8, 6]))))
    assert list(d.values) == [3, -2]
    assert len(d.timestamps) == 2


def test_difference_constant_series():
    d = difference(dataset_of(series("2017-11-17T08", np.array([4, 4, 4, 4]))))
    assert list(d.values) == [0, 0, 0]


def test_difference_too_short():
    with pytest.raises(ValueError, match="too short"):
        difference(dataset_of(series("2017-11-17T08", np.array([3]))))


def test_difference_skips_gaps():
    ts = np.concatenate([hourly("2017-11-17T08", [0, 0, 0]), hourly("2017-11-18T08", [0, 0])])
    s = ODCountSeries(ODPair(0, 1), ts, np.array([1, 2, 4, 10, 11]))
    d = difference(dataset_of(s))
    # the first lag of each contiguous block is dropped: no 10-4 difference
    assert list(d.values) == [1, 2, 1]
    assert d.timestamps.tolist() == ts[[1, 2, 4]].tolist()


@given(st.lists(st.tuples(st.integers(1, 3), st.integers(0, 500)), min_size=2, max_size=60))
def test_difference_equals_per_lag_reference(steps):
    # hour steps of 2 or 3 put gaps in the record
    ts = parse_hour("2017-11-17T08") + np.cumsum([s for s, _ in steps]).astype("timedelta64[h]")
    counts = np.array([c for _, c in steps])
    kept = [i for i in range(1, len(ts)) if ts[i] - ts[i - 1] == np.timedelta64(1, "h")]
    s = ODCountSeries(ODPair(0, 1), ts, counts)
    if not kept:
        with pytest.raises(ValueError, match="no contiguous run"):
            difference(dataset_of(s))
        return
    d = difference(dataset_of(s))
    assert d.timestamps.tolist() == ts[kept].tolist()
    assert d.values.tolist() == [float(counts[i] - counts[i - 1]) for i in kept]


@given(st.lists(st.lists(st.tuples(st.integers(1, 3), st.integers(0, 500)), min_size=2, max_size=20), max_size=4))
def test_difference_of_many_series_is_each_series_alone(records):
    # each series starts one hour after the one before it ends: a difference
    # across the boundary between two pairs would look like a one-hour step
    series_list, start = [], parse_hour("2017-11-17T08")
    for i, steps in enumerate(records):
        ts = start + np.cumsum([0] + [s for s, _ in steps[1:]]).astype("timedelta64[h]")
        series_list.append(ODCountSeries(ODPair(0, i + 1), ts, np.array([c for _, c in steps])))
        start = ts[-1] + np.timedelta64(1, "h")
    alone = []
    for s in series_list:
        try:
            alone.append(difference(dataset_of(s)))
        except ValueError:
            whole = dataset_of(*series_list)
            name = re.escape(pair_name(s.pair, whole.labels))
            with pytest.raises(ValueError, match=f"no contiguous run .* for pair {name}"):
                difference(whole)
            return
    if not series_list:
        return
    record = difference(dataset_of(*series_list))
    assert record.pairs == tuple(s.pair for s in series_list)
    assert record.pair_index.tolist() == [i for i, d in enumerate(alone) for _ in range(len(d.values))]
    for s, d in zip(series_list, alone):
        assert pair_series(record, s.pair).timestamps.tolist() == d.timestamps.tolist()
        assert pair_series(record, s.pair).values.tolist() == d.values.tolist()


def windows(dataset, bounds):
    """The (start, stop) rows of each pair's own series, by pair, as (starts, stops) rows of the dataset's columns.

    Only the dataset's pairs are read: a series without rows is a pair it lacks.
    """
    first = np.searchsorted(dataset.pair_index, np.arange(len(dataset.pairs)))
    start, stop = np.array([bounds[pair] for pair in dataset.pairs], dtype=np.int64).reshape(-1, 2).T
    return first + start, first + stop


@given(st.lists(st.tuples(st.lists(st.tuples(st.integers(1, 3), st.integers(0, 500)), min_size=2, max_size=20),
                         st.integers(0, 20), st.integers(0, 20)), min_size=1, max_size=4))
def test_difference_of_windows_is_the_whole_difference_after_each_first_row(records):
    series_list, bounds = [], {}
    for i, (steps, a, b) in enumerate(records):
        ts = parse_hour("2017-11-17T08") + np.cumsum([s for s, _ in steps]).astype("timedelta64[h]")
        series_list.append(ODCountSeries(ODPair(0, i + 1), ts, np.array([c for _, c in steps])))
        bounds[ODPair(0, i + 1)] = (min(a, b, len(ts)), min(max(a, b), len(ts)))
    dataset = dataset_of(*series_list)
    rows = windows(dataset, bounds)
    try:
        whole = difference(dataset)
    except ValueError as exc:
        # the whole series decides: no window of it has a contiguous run either
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            difference(dataset, bounds=rows)
        return
    windowed = difference(dataset, bounds=rows)
    for s in series_list:
        a, b = bounds[s.pair]
        d = pair_series(whole, s.pair)
        # the window's rows after its first: counts[a + 1:b]
        inside = np.zeros(len(d), dtype=bool)
        if a < b:
            inside = (d.timestamps > s.timestamps[a]) & (d.timestamps <= s.timestamps[b - 1])
        assert pair_series(windowed, s.pair).timestamps.tolist() == d.timestamps[inside].tolist()
        assert pair_series(windowed, s.pair).values.tolist() == d.values[inside].tolist()


@given(st.lists(st.integers(min_value=0, max_value=500), min_size=2, max_size=60))
def test_difference_cumsum_inverse(counts):
    s = series("2017-11-17T08", np.array(counts))
    d = difference(dataset_of(s))
    reconstructed = float(counts[0]) + np.cumsum(d.values)
    assert np.array_equal(reconstructed, np.array(counts[1:], dtype=float))


@st.composite
def count_records(draw):
    """(dataset, series, windows): up to four series of up to twelve counts each, in pair order, the dataset
    of them, and each pair's (start, stop) rows by pair, or None.

    Hour steps of 2 or 3 put gaps in a series; the pairs are laid out in
    time in sorted order, each one starting one to three hours after the
    one before it ends, so that a step of one hour abuts two pairs; and the
    series are given to the dataset in a shuffled order.  A series may have
    no count: the dataset lacks its pair.
    """
    pairs = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda p: p[0] != p[1]),
                          min_size=1, max_size=4, unique=True))
    series_list, start = [], parse_hour("2017-11-17T08")
    for pair in sorted(pairs):
        steps = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(0, 500)), max_size=12))
        ts = start + np.cumsum([step for step, _ in steps], dtype=np.int64).astype("timedelta64[h]")
        series_list.append(ODCountSeries(ODPair(*pair), ts, np.array([c for _, c in steps], dtype=np.int64)))
        start = ts[-1] if len(ts) else start
    dataset = dataset_of(*draw(st.permutations(series_list)))
    if not draw(st.booleans()):
        return dataset, series_list, None
    bounds = {}
    for s in series_list:
        a, b = draw(st.integers(0, len(s))), draw(st.integers(0, len(s)))
        bounds[s.pair] = (min(a, b), max(a, b))
    return dataset, series_list, bounds


def _record_or_error(difference, *args):
    try:
        record = difference(*args)
    except ValueError as exc:
        return str(exc)
    return [record.pairs] + [(column.dtype, column.tolist()) for column in
                             (record.timestamps, record.values, record.pair_index)]


# the pairs abut: 10:00 follows 09:00
ABUTTING = [series("2017-11-17T08", np.array([1, 2])), series("2017-11-17T10", np.array([5, 9]), ODPair(1, 0))]


@settings(max_examples=300, deadline=None)
@given(count_records())
@example((dataset_of(*ABUTTING), ABUTTING, {s.pair: (0, 2) for s in ABUTTING}))
def test_difference_equals_the_per_series_reference(record):
    dataset, series_list, bounds = record
    assert list(dataset.series) == list(dataset.pairs) == [s.pair for s in series_list if len(s)]
    rows = None if bounds is None else windows(dataset, bounds)
    spans = None if bounds is None else [bounds[s.pair] for s in series_list]
    got = _record_or_error(difference, dataset, None, rows)
    assert got == _record_or_error(reference_difference, series_list, spans)


@settings(max_examples=300, deadline=None)
@given(count_records(), st.data())
def test_counts_at_equals_the_per_series_reference(record, data):
    dataset, drawn, _ = record
    by_pair = {s.pair: s for s in drawn}
    pairs = data.draw(st.lists(st.sampled_from(list(by_pair)), max_size=5))  # any order, repeats allowed
    # hours from the first series' start: in gaps, between two pairs and past the last observation
    hours = data.draw(st.lists(st.integers(-2, 160), max_size=6))
    lags = parse_hour("2017-11-17T08") + np.array(hours, dtype=np.int64).astype("timedelta64[h]")

    def outcome(read):
        try:
            got = read()
        except ValueError as exc:
            return str(exc)
        return got.dtype, got.shape, got.tolist()

    series_list = [by_pair[pair] for pair in pairs]
    got = outcome(lambda: counts_at(dataset, dataset.rows_of(pairs), lags))
    assert got == outcome(lambda: reference_counts_at(series_list, lags))


def test_counts_at_names_a_pair_without_observations_by_its_labels():
    dataset = dataset_of(series("2018-01-08T07", [1, 2]), series("2018-01-08T07", [3, 4], ODPair(2, 1)))
    with pytest.raises(ValueError, match=re.escape("pair g1>g0 has no observations in the counts")):
        counts_at(dataset, dataset.rows_of([ODPair(2, 1), ODPair(1, 0), ODPair(0, 2)]), [parse_hour("2018-01-08T07")])
    # a location the counts lack altogether has no label: the pair is named by its ids
    with pytest.raises(ValueError, match=re.escape("pair 0>5 has no observations in the counts")):
        counts_at(dataset, dataset.rows_of([ODPair(0, 5)]), [parse_hour("2018-01-08T07")])


def test_a_dataset_holds_its_counts_once_in_sorted_columns():
    b = series("2018-01-08T07", [3, 4, 5], ODPair(2, 1))
    a = series("2018-01-08T09", [1, 2])
    dataset = dataset_of(b, a)
    assert dataset.pairs == (a.pair, b.pair)
    assert dataset.pair_index.tolist() == [0, 0, 1, 1, 1]
    assert dataset.edges.tolist() == [0, 2, 5]
    assert dataset.counts.tolist() == [1, 2, 3, 4, 5]
    assert dataset.timestamps.tolist() == a.timestamps.tolist() + b.timestamps.tolist()
    for pair in dataset.pairs:
        assert np.shares_memory(dataset.series[pair].counts, dataset.counts)
        assert np.shares_memory(dataset.series[pair].timestamps, dataset.timestamps)


@settings(max_examples=100, deadline=None)
@given(count_records(), st.data())
def test_a_dataset_from_its_rows_in_any_order_is_the_same(record, data):
    dataset = record[0]
    order = np.array(data.draw(st.permutations(range(len(dataset.counts)))), dtype=np.int64)
    ends = np.array([(p.origin, p.destination) for p in dataset.pairs], dtype=np.int64).reshape(-1, 2)
    origin, destination = ends[dataset.pair_index][order].T
    again = ODDataset(dataset.locations, origin, destination, dataset.timestamps[order], dataset.counts[order])
    assert again.pairs == dataset.pairs
    for column in ("timestamps", "counts", "pair_index", "edges", "keys"):
        got, want = getattr(again, column), getattr(dataset, column)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def rows_dataset(rows, labels="abc"):
    """The dataset of (hour, origin label, destination label, count) rows, its locations `labels` by id."""
    ids = {label: i for i, label in enumerate(labels)}
    stamps, origins, destinations, counts = zip(*rows)
    return ODDataset([Location(i, label) for i, label in enumerate(labels)], [ids[o] for o in origins],
                     [ids[d] for d in destinations], [parse_hour(t) for t in stamps], counts)


def test_a_dataset_names_a_repeated_pair_hour_as_the_loader_does(tmp_path):
    rows = [("2017-11-17T08", "a", "b", 5), ("2017-11-17T09", "a", "c", 1), ("2017-11-17T09", "a", "c", -2),
            ("2017-11-17T08", "a", "b", 6)]
    p = tmp_path / "c.csv"
    p.write_text(_csv_text([(t, o, d, str(abs(c))) for t, o, d, c in rows]))
    with pytest.raises(ValueError) as built:
        rows_dataset(rows)  # the repeat is named before the negative count
    with pytest.raises(ValueError) as loaded:
        load_od_counts(p)
    assert str(built.value) == "duplicate observation for pair a->c at 2017-11-17T09"
    assert str(loaded.value) == f"{p}: {built.value}"


def test_a_dataset_rejects_a_negative_count_naming_the_first_given():
    rows = [("2017-11-17T09", "b", "c", 1), ("2017-11-17T09", "a", "c", 2), ("2017-11-17T08", "b", "a", 0)]
    assert rows_dataset(rows).counts.tolist() == [2, 0, 1]
    rows += [("2017-11-17T10", "b", "c", -1), ("2017-11-17T08", "a", "c", -3)]
    with pytest.raises(ValueError, match=re.escape("negative count for pair b->c at 2017-11-17T10")):
        rows_dataset(rows)


# ---------------------------------------------------------------------------
# masking and splits
# ---------------------------------------------------------------------------


def unmasked_lags(series, spec):
    """The lags of a count series that the split does not mask."""
    keep = ~spec.mask_array(series.timestamps)
    return ODCountSeries(series.pair, series.timestamps[keep], series.counts[keep])


def full_day_series(days=3, start="2017-11-17T00"):
    n = days * 24
    return series(start, np.arange(n) % 7)


def test_mask_hours_keeps_seven_to_twentytwo():
    spec = campus_2017_split()
    masked = unmasked_lags(full_day_series(), spec)
    hours = masked.timestamps.astype("int64") % 24
    assert set(hours) == set(range(7, 23))


def test_mask_all_dates_empties_series():
    spec = SplitSpec(
        (date(2017, 11, 17), date(2017, 11, 18)),
        (date(2017, 11, 19), date(2017, 11, 20)),
        masked_hours=frozenset(),
        masked_dates=((date(2017, 11, 17), date(2017, 11, 19)),),
    )
    masked = unmasked_lags(full_day_series(days=3), spec)
    assert len(masked) == 0


def test_mask_idempotent():
    spec = campus_2017_split()
    once = unmasked_lags(full_day_series(), spec)
    twice = unmasked_lags(once, spec)
    assert np.array_equal(once.timestamps, twice.timestamps)


def test_campus_defaults_per_day_counts():
    # full calendar over the whole case-study range: 16 retained hours per day
    # outside the holiday, zero inside it
    start = parse_hour("2017-11-17T00")
    ts = start + np.arange(59 * 24).astype("timedelta64[h]")
    s = ODCountSeries(ODPair(0, 1), ts, np.zeros(len(ts), dtype=int))
    masked = unmasked_lags(s, campus_2017_split())
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
    other = ODCountSeries(ODPair(0, 1), ts[9:], 2 * np.arange(len(ts) - 9))  # the dataset's first pair
    masked = unmasked_lags(s, spec)
    keep = spec.in_train(masked.timestamps)
    train, other_train, again = train_series(dataset_of(s, other), spec, [1, 0, 1])  # by row, in the order given
    assert train.pair == again.pair == ODPair(2, 1)
    assert np.array_equal(train.timestamps, masked.timestamps[keep])
    assert np.array_equal(train.counts, masked.counts[keep])
    assert len(train) == 2 * 16  # Jan 6 and 7 by day; Jan 8 on is test range
    assert np.array_equal(again.counts, train.counts)
    assert other_train.pair == other.pair
    assert np.array_equal(other_train.timestamps, train.timestamps[2:])  # from 09:00 on Jan 6
    assert np.array_equal(other_train.counts, 2 * (train.counts[2:] - 9))


def test_aligned_train_series_names_the_first_hour_one_pair_lacks():
    spec = campus_2017_split()
    ts = parse_hour("2018-01-06T00") + np.arange(4 * 24).astype("timedelta64[h]")
    s = ODCountSeries(ODPair(2, 1), ts, np.arange(len(ts)))
    dataset = dataset_of(s, ODCountSeries(ODPair(0, 1), ts, np.arange(len(ts))))
    assert [a.timestamps.tolist() for a in aligned_train_series(dataset, spec, [1, 0])] == \
        [b.timestamps.tolist() for b in train_series(dataset, spec, [1, 0])]
    # the first pair starts at 09:00 on Jan 6: the second has 07:00 and 08:00, which it lacks
    late = dataset_of(s, ODCountSeries(ODPair(0, 1), ts[9:], np.arange(len(ts) - 9)))
    with pytest.raises(ValueError, match="pair g2>g1 has 2018-01-06T07, pair g0>g1 lacks it"):
        aligned_train_series(late, spec, [0, 1])
    # equally long at other hours: 10:00 of Jan 7 missing from one, 11:00 from the other
    gaps = [ODCountSeries(pair, np.delete(ts, k), np.arange(len(ts) - 1))
            for pair, k in ((ODPair(2, 1), 34), (ODPair(0, 1), 35))]
    with pytest.raises(ValueError, match="pair g0>g1 has 2018-01-07T10, pair g2>g1 lacks it"):
        aligned_train_series(dataset_of(*gaps), spec, [1, 0])


def test_counts_at_returns_exact_counts():
    s = series("2018-01-08T07", [5, 0, 12, 3, 9])
    lags = parse_hour("2018-01-08T07") + np.array([3, 0, 4, 2]).astype("timedelta64[h]")
    got = counts_at(dataset_of(s), [0], lags)
    assert got.dtype == np.float64
    assert got.tolist() == [[3.0, 5.0, 9.0, 12.0]]


def test_counts_at_raises_on_a_gap_naming_pair_and_hour():
    ts = hourly("2018-01-08T07", range(6))
    s = ODCountSeries(ODPair(3, 1), np.delete(ts, 2), np.array([5, 0, 3, 9, 4]))  # no 09:00
    dataset = dataset_of(s)
    assert counts_at(dataset, [0], ts[[0, 1, 3]]).tolist() == [[5.0, 0.0, 3.0]]
    with pytest.raises(ValueError, match="pair g3>g1 at 2018-01-08T09"):
        counts_at(dataset, [0], ts[1:4])
    with pytest.raises(ValueError, match="2018-01-08T13"):
        counts_at(dataset, [0], [parse_hour("2018-01-08T13")])  # after the last observation


def test_counts_at_reads_each_series_and_names_the_first_with_a_gap():
    ts = hourly("2018-01-08T07", range(6))
    a = ODCountSeries(ODPair(0, 1), ts, np.array([1, 2, 3, 4, 5, 6]))
    b = ODCountSeries(ODPair(1, 0), ts[2:], np.array([30, 40, 50, 60]))  # starts at 09:00
    c = ODCountSeries(ODPair(2, 0), np.delete(ts, 4), np.array([7, 8, 9, 10, 12]))  # no 11:00
    dataset = dataset_of(a, b, c)
    assert counts_at(dataset, dataset.rows_of([b.pair, a.pair]), ts[[5, 2]]).tolist() == [[60.0, 30.0], [6.0, 3.0]]
    # a missing hour at the start of a series is never read from the series before it
    with pytest.raises(ValueError, match="pair g1>g0 at 2018-01-08T08"):
        counts_at(dataset, dataset.rows_of([a.pair, b.pair, c.pair]), ts[[4, 1]])
    with pytest.raises(ValueError, match="pair g2>g0 at 2018-01-08T11"):
        counts_at(dataset, dataset.rows_of([a.pair, c.pair, b.pair]), ts[[4, 5]])


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


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"train_range": (date(2017, 12, 5), date(2017, 11, 17))}, "train_range: start 2017-12-05 is after end 2017-11-17"),
        ({"test_range": (date(2017, 12, 12), date(2017, 12, 6))}, "test_range: start 2017-12-12 is after end 2017-12-06"),
        (
            {"masked_dates": ((date(2017, 11, 20), date(2017, 11, 21)), (date(2017, 12, 1), date(2017, 11, 25)))},
            r"masked_dates\[1\]: start 2017-12-01 is after end 2017-11-25",
        ),
        ({"masked_hours": frozenset({-1})}, "masked_hours: hour -1 is outside 0..23"),
        ({"masked_hours": frozenset({3, 24, 25})}, "masked_hours: hour 24 is outside 0..23"),
    ],
)
def test_split_rejects_a_reversed_range_or_an_hour_outside_the_day(fields, message):
    # built in the library, not read from a config: a reversed range would hold no hour, and hour -1 would mask 23
    days = {"train_range": (date(2017, 11, 17), date(2017, 12, 5)), "test_range": (date(2017, 12, 6), date(2017, 12, 12))}
    with pytest.raises(ValueError, match=message):
        SplitSpec(**{**days, **fields})


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
    return {pair: PairSeries(pair, ts, vals)}


def pair_features(history, stamps, pair, spec):
    """build_features for one pair's queries."""
    record = record_of(history)
    stamps = np.asarray(stamps, dtype="datetime64[h]")
    return build_features(record, np.full(len(stamps), record.pairs.index(pair)), stamps, spec)


def feature_row(history, t, pair, spec):
    X, usable = pair_features(history, [t], pair, spec)
    return X[0], bool(usable[0])


def test_features_monday_eight():
    history = make_history()
    t = parse_hour("2017-11-20T08")  # a Monday
    x, usable = feature_row(history, t, ODPair(0, 1), ModelSpec())
    assert usable
    tod, dow = x[:16], x[16:23]
    assert dow[0] == 1.0 and dow.sum() == 1.0
    assert tod[8 - 7] == 1.0 and tod.sum() == 1.0
    assert len(x) == 16 + 7 + 24


def test_features_exam_flag():
    history = make_history(n=800, start="2017-11-13T07")
    spec = ModelSpec(exam_period=(date(2017, 12, 8), date(2017, 12, 22)))
    stamps = np.array([parse_hour("2017-12-11T10"), parse_hour("2017-12-01T10")])
    X, usable = pair_features(history, stamps, ODPair(0, 1), spec)
    assert usable.all()
    assert X.shape == (2, 16 + 7 + 1 + 24)
    assert X[:, 23].tolist() == [1.0, 0.0]


def test_features_cross_lag_block_length():
    pairs = [ODPair(o, d) for o in range(6) for d in range(6) if o != d]
    history = {}
    for i, p in enumerate(pairs):
        history.update(make_history(p, n=10, values=np.full(10, float(i))))
    spec = ModelSpec(cross_lags=True, cross_order=1)
    x, usable = feature_row(history, parse_hour("2017-11-13T17"), pairs[0], spec)
    assert usable and len(x) == 16 + 7 + 30
    # ordering matches sorted pair order
    assert x[23:].tolist() == [float(i) for i in range(30)]


def test_features_newest_lag_first():
    history = make_history()
    t = history[ODPair(0, 1)].timestamps[30]
    x, _ = feature_row(history, t, ODPair(0, 1), ModelSpec())
    assert x[23] == 29.0 and x[23 + 23] == 6.0


def test_features_insufficient_history():
    history = make_history(n=10)
    stamps = hourly("2017-11-13T12", range(3))
    X, usable = pair_features(history, stamps, ODPair(0, 1), ModelSpec())
    assert not usable.any()
    assert not X.any()  # unusable rows are left unfilled


def test_features_deterministic():
    history = make_history()
    stamps = history[ODPair(0, 1)].timestamps
    a = pair_features(history, stamps, ODPair(0, 1), ModelSpec())
    b = pair_features(history, stamps, ODPair(0, 1), ModelSpec())
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


FEATURE_PAIRS = (ODPair(0, 1), ODPair(0, 2), ODPair(1, 0))


def feature_history(late=None, gap=None) -> dict[ODPair, PairSeries]:
    """Three working-scale series over daytime hours; one may start late or skip a day."""
    rng = np.random.default_rng(77)
    start = parse_hour("2017-12-01T00")
    ts = start + np.arange(20 * 24).astype("timedelta64[h]")
    ts = ts[(ts.astype("int64") % 24 >= 7) & (ts.astype("int64") % 24 <= 22)]
    history = {}
    for pair in FEATURE_PAIRS:
        keep = np.ones(len(ts), dtype=bool)
        if pair == late:
            keep &= ts >= start + np.timedelta64(50, "h")
        if pair == gap:
            days = ts.astype("datetime64[D]")
            keep &= days != np.datetime64("2017-12-05")
        history[pair] = PairSeries(pair, ts[keep], rng.normal(size=int(keep.sum())).round(3))
    return history


@pytest.mark.parametrize(
    "spec, history",
    [
        (ModelSpec(), feature_history()),
        (ModelSpec(exam_period=(date(2017, 12, 8), date(2017, 12, 12))), feature_history()),
        (ModelSpec(cross_lags=True, cross_order=1), feature_history(late=FEATURE_PAIRS[2])),
        (ModelSpec(cross_lags=True, cross_order=2), feature_history(late=FEATURE_PAIRS[2])),
        (ModelSpec(scope="pooled"), feature_history()),
        (ModelSpec(ar_order=5), feature_history(gap=FEATURE_PAIRS[0])),
    ],
    ids=["own", "own-exam", "cross1-late", "cross2-late", "pooled-onehot", "own-gap"],
)
def test_feature_matrix_rows_equal_per_lag_reference(spec, history):
    assert_features_equal_reference(spec, history)


@st.composite
def feature_specs(draw) -> ModelSpec:
    """Either scope; cross lags of order 1 to 3 (per pair only) or 0 to 6 own lags; with or without the exam flag."""
    scope = draw(st.sampled_from(SCOPES))
    cross = scope == "per_pair" and draw(st.booleans())
    exam = draw(st.sampled_from([None, (date(2017, 12, 8), date(2017, 12, 12))]))
    return ModelSpec(scope=scope, exam_period=exam, cross_lags=cross, cross_order=draw(st.integers(1, 3)),
                     ar_order=draw(st.integers(0, 6)))


FEATURE_HISTORIES = (feature_history(), feature_history(late=FEATURE_PAIRS[2]), feature_history(gap=FEATURE_PAIRS[0]))


@settings(max_examples=40, deadline=None)
@given(feature_specs(), st.sampled_from(range(len(FEATURE_HISTORIES))))
def test_feature_matrix_rows_equal_per_lag_reference_for_any_spec(spec, which):
    assert_features_equal_reference(spec, FEATURE_HISTORIES[which])


def assert_features_equal_reference(spec, history):
    """`build_features` equals the per-lag reference row for row, unusable exactly where it raises, at its width."""
    # every hour of the day, from before the history starts to after it ends,
    # for every pair in one call
    stamps = parse_hour("2017-11-30T00") + np.arange(22 * 24).astype("timedelta64[h]")
    record = record_of(history)
    pair_index = np.repeat(np.arange(len(record.pairs)), len(stamps))
    X, usable = build_features(record, pair_index, np.tile(stamps, len(record.pairs)), spec)
    assert X.shape == (len(FEATURE_PAIRS) * len(stamps), n_features(spec, len(FEATURE_PAIRS)))
    for i, pair in enumerate(record.pairs):
        rows = slice(i * len(stamps), (i + 1) * len(stamps))
        for t, x, ok in zip(stamps, X[rows], usable[rows]):
            try:
                ref = reference_features(history, t, pair, spec)
            except ValueError:
                assert not ok, format_hour(t)
                continue
            assert ok and np.array_equal(x, ref), format_hour(t)
        assert usable[rows].sum() > 100  # the comparison covered filled rows
        assert not usable[rows][stamps.astype("int64") % 24 == 23].any()
