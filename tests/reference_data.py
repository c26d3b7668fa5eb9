"""Per-row CSV loader, the reference for `data.load_od_counts`.

It is the loader the library had before the counts were read as columns:
each record is checked as it is read (field count, timestamp, self-loop,
integer count, sign, int64 range), and each row goes into a dict bucket of
its pair keyed by hour, where a repeated hour is the duplicate.  A count
beyond the int64 range fails here with its line number, as it does in the
library; it used to escape from `ODCountSeries` as a bare OverflowError.
"""

from __future__ import annotations

import csv

import numpy as np

from drtopt.data import CSV_HEADER, INT64_MAX, Location, ODCountSeries, ODDataset, ODPair, format_hour, parse_hour


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
    return ODDataset(locations, series)
