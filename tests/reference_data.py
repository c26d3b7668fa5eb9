"""References for `drtopt.data`: a per-row CSV loader and per-series differencing and count lookup.

`reference_load_od_counts` is the loader the library had before the counts
were read as columns: each record is checked as it is read (field count,
timestamp, self-loop, integer count, sign, int64 range), and each row goes
into a dict bucket of its pair keyed by hour, where a repeated hour is the
duplicate.  A count beyond the int64 range fails here with its line number,
as it does in the library; it used to escape from `ODCountSeries` as a bare
OverflowError.

`reference_difference` and `reference_counts_at` are `difference` and
`counts_at` as they were before a dataset held its counts as flat columns:
they take a list of series, glue the series' slices together, and look up
each series on its own.

`dataset_from_series` builds a dataset from per-pair series through the
one `ODDataset` constructor, and `reference_columns` gives the columns that
a dataset built from such series had before that constructor: the pairs
sorted and their series concatenated.
"""

from __future__ import annotations

import csv

import numpy as np

from drtopt.data import (
    CSV_HEADER, HOUR, INT64_MAX, Location, ODCountSeries, ODDataset, ODPair, WorkingRecord, format_hour, parse_hour,
)


def reference_load_od_counts(path) -> ODDataset:
    rows: list[tuple[np.datetime64, str, str, int]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != list(CSV_HEADER):
            raise ValueError(f"{path}: expected header {','.join(CSV_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
            ts_text, origin, destination, count_text = (f.strip() for f in row)
            try:
                ts = parse_hour(ts_text)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if origin == destination:
                raise ValueError(f"{path}:{lineno}: self-loop OD pair {origin!r}")
            try:
                count = int(count_text)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-integer count {count_text!r}") from None
            if count < 0:
                raise ValueError(f"{path}:{lineno}: negative count {count}")
            if count > INT64_MAX:
                raise ValueError(f"{path}:{lineno}: count {count} beyond the int64 range")
            rows.append((ts, origin, destination, count))

    labels = sorted({r[1] for r in rows} | {r[2] for r in rows})
    index = {lab: i for i, lab in enumerate(labels)}
    locations = [Location(i, lab) for i, lab in enumerate(labels)]

    grouped: dict[ODPair, dict[np.datetime64, int]] = {}
    for ts, origin, destination, count in rows:
        pair = ODPair(index[origin], index[destination])
        bucket = grouped.setdefault(pair, {})
        if ts in bucket:
            raise ValueError(
                f"{path}: duplicate observation for pair {origin}->{destination} at {format_hour(ts)}"
            )
        bucket[ts] = count

    series = {}
    for pair, bucket in grouped.items():
        ts_sorted = np.array(sorted(bucket), dtype="datetime64[h]")
        counts = np.array([bucket[t] for t in ts_sorted], dtype=np.int64)
        series[pair] = ODCountSeries(pair, ts_sorted, counts)
    return dataset_from_series(locations, series)


def dataset_from_series(locations, series: dict[ODPair, ODCountSeries]) -> ODDataset:
    """The dataset of per-pair series keyed by pair, built by `ODDataset` from their rows, series after series."""
    ends = np.array([(pair.origin, pair.destination) for pair in series], dtype=np.int64).reshape(-1, 2)
    origin, destination = np.repeat(ends, [len(s) for s in series.values()], axis=0).T
    timestamps = np.concatenate([np.empty(0, "datetime64[h]"), *(s.timestamps for s in series.values())])
    counts = np.concatenate([np.empty(0, np.int64), *(s.counts for s in series.values())])
    return ODDataset(locations, origin, destination, timestamps, counts)


def reference_columns(series: dict[ODPair, ODCountSeries]):
    """(pairs, timestamps, counts, pair_index) of per-pair series keyed by pair, as a dataset once built them
    from such a dict: the pairs sorted, and their series concatenated in that order."""
    pairs = tuple(sorted(series))
    parts = [series[pair] for pair in pairs]
    timestamps = np.concatenate([np.empty(0, "datetime64[h]"), *(s.timestamps for s in parts)])
    counts = np.concatenate([np.empty(0, np.int64), *(s.counts for s in parts)])
    return pairs, timestamps, counts, np.repeat(np.arange(len(parts)), [len(s) for s in parts])


def dataset_of(*series: ODCountSeries) -> ODDataset:
    """A dataset of the given series, its locations labelled g0, g1, ... up to the largest id."""
    n = 1 + max((max(s.pair.origin, s.pair.destination) for s in series), default=-1)
    return dataset_from_series([Location(i, f"g{i}") for i in range(n)], {s.pair: s for s in series})


def _name(pair: ODPair) -> str:
    """A pair by the labels `dataset_of` gives its locations."""
    return f"g{pair.origin}>g{pair.destination}"


def reference_difference(series: list[ODCountSeries], bounds=None) -> WorkingRecord:
    """First differences of every series in one record; `bounds` holds each series' own (start, stop) rows.

    A series without rows is a pair that the dataset of the series lacks: it is left out.
    """
    present = [i for i, s in enumerate(series) if len(s)]
    series, bounds = [series[i] for i in present], None if bounds is None else [bounds[i] for i in present]
    if not series:
        raise ValueError("the counts hold no OD pair")
    lengths = [len(s) for s in series]
    if min(lengths) < 2:
        pair = series[lengths.index(min(lengths))].pair
        raise ValueError(f"series of pair {_name(pair)} too short to difference (need >= 2 lags)")
    bounds = [(0, n) for n in lengths] if bounds is None else bounds
    sizes = [stop - start for start, stop in bounds]
    timestamps = np.concatenate([s.timestamps[a:b] for s, (a, b) in zip(series, bounds)])
    keep = np.diff(timestamps) == HOUR
    ends = np.cumsum(sizes)[:-1]
    keep[ends[(ends > 0) & (ends < len(timestamps))] - 1] = False
    pair_index = np.repeat(np.arange(len(series)), sizes)[1:][keep]
    for i in np.flatnonzero(np.bincount(pair_index, minlength=len(series)) == 0).tolist():
        if not (np.diff(series[i].timestamps) == HOUR).any():
            raise ValueError(f"no contiguous run of >= 2 hourly lags to difference for pair {_name(series[i].pair)}")
    counts = np.concatenate([s.counts[a:b] for s, (a, b) in zip(series, bounds)])
    values = np.diff(counts.astype(np.float64))[keep]
    return WorkingRecord(tuple(s.pair for s in series), timestamps[1:][keep], values, pair_index)


def reference_counts_at(series: list[ODCountSeries], lags) -> np.ndarray:
    """Observed counts of each series at the given hours (series x lags, float64), one series at a time.

    A series without rows is a pair that the dataset of the series lacks: the first is named before any hour is read.
    """
    empty = [s for s in series if not len(s)]
    if empty:
        raise ValueError(f"pair {_name(empty[0].pair)} has no observations in the counts")
    lags = np.asarray(lags, dtype="datetime64[h]")
    out = np.empty((len(series), len(lags)))
    for i, s in enumerate(series):
        idx = s.timestamps.searchsorted(lags)
        # an hour past the last observation is compared with the last, earlier one
        found = s.timestamps.take(idx, mode="clip") == lags
        if not found.all():
            raise ValueError(f"no observation for pair {_name(s.pair)} at {format_hour(lags[~found][0])}")
        out[i] = s.counts[idx]
    return out
