"""Hourly origin-destination movement counts: ingestion, preprocessing, features.

The raw signal is a set of hourly count series, one per ordered pair of
serviced locations.  Before model fitting the series are first-differenced
(within contiguous hourly blocks only), checked for stationarity, and
stripped of night/holiday hours.  Regression features are calendar one-hots
plus autoregressive lags on the working scale.
"""

from __future__ import annotations

import csv
import io
import logging
import warnings
from dataclasses import dataclass
from datetime import date
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .config import ModelSpec

log = logging.getLogger(__name__)

HOUR = np.timedelta64(1, "h")

# Hours of day covered by the time-of-day one-hot (night hours are masked out).
TOD_HOURS = tuple(range(7, 23))
DEFAULT_MASKED_HOURS = frozenset({23, 0, 1, 2, 3, 4, 5, 6})


def parse_hour(text: str) -> np.datetime64:
    """Parse an ISO-8601 hour timestamp such as ``2017-11-17T08``.

    Only the hour resolution is accepted: a bare date, a minute or a NaT
    is rejected, not read as the hour it would truncate to.
    """
    stripped = text.strip()
    if len(stripped) != len("2017-11-17T08"):
        raise ValueError(f"bad hourly timestamp {text!r}")
    try:
        hour = np.datetime64(stripped, "h")
    except ValueError as exc:
        raise ValueError(f"bad hourly timestamp {text!r}") from exc
    if np.isnat(hour):  # "NaT" padded with NULs, which numpy drops
        raise ValueError(f"bad hourly timestamp {text!r}")
    return hour


def format_hour(ts: np.datetime64) -> str:
    return str(np.datetime64(ts, "h"))


def hour_of(ts) -> np.ndarray | int:
    """Hour of day, vectorized over datetime64[h]."""
    return np.asarray(ts, dtype="datetime64[h]").astype("int64") % 24


def weekday_of(ts) -> np.ndarray | int:
    """Day of week with Monday = 0 (epoch day 1970-01-01 was a Thursday)."""
    days = np.asarray(ts, dtype="datetime64[h]").astype("int64") // 24
    return (days + 3) % 7


@dataclass(frozen=True)
class Location:
    """A serviced location (demand node or bus stop). Coordinates in meters."""

    id: int
    label: str
    coord: tuple[float, float] | None = None


@dataclass(frozen=True, order=True)
class ODPair:
    origin: int
    destination: int

    def __post_init__(self):
        if self.origin == self.destination:
            raise ValueError(f"self-loop OD pair {self.origin}->{self.destination}")


def pair_name(pair: ODPair, labels=None) -> str:
    """`origin>destination` by location id, or by label when labels are given."""
    if labels is None:
        return f"{pair.origin}>{pair.destination}"
    return f"{labels[pair.origin]}>{labels[pair.destination]}"


@dataclass
class ODCountSeries:
    """Hourly movement counts of one OD pair, a plain record: a dataset's counts are checked where it is built."""

    pair: ODPair
    timestamps: np.ndarray  # datetime64[h]
    counts: np.ndarray  # int64

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def values(self) -> np.ndarray:
        return self.counts.astype(np.float64)


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

CSV_HEADER = ("timestamp", "origin", "destination", "count")


class ODDataset:
    """Locations plus the hourly counts of every OD pair with at least one row.

    Built from rows in any order, row r the count of pair (origin[r], destination[r]) at timestamps[r], and checked
    once: a repeated (pair, hour) is rejected, the one whose second occurrence comes first, then a negative count,
    the first given.  The counts are held once, as flat columns sorted by (pair, hour) like a `WorkingRecord`'s:
    row r holds `counts[r]` (int64) of `pairs[pair_index[r]]` at `timestamps[r]` (datetime64[h]); pair i's rows
    are `edges[i]:edges[i + 1]`, and `keys` are the rows' `pair_hour_keys`.
    """

    def __init__(self, locations: list[Location], origin, destination, timestamps, counts):
        self.locations = locations
        self.labels = [loc.label for loc in locations]  # by location id
        origin, destination, counts = (np.asarray(column, dtype=np.int64) for column in (origin, destination, counts))
        stamps = np.asarray(timestamps, dtype="datetime64[h]")
        order = np.lexsort((stamps.view(np.int64), destination, origin))  # stable: ties keep the given order
        origin, destination, stamps, counts = origin[order], destination[order], stamps[order], counts[order]
        same_pair = (origin[1:] == origin[:-1]) & (destination[1:] == destination[:-1])
        repeats = np.flatnonzero(same_pair & (stamps[1:] == stamps[:-1])) + 1
        for rows, problem in ((repeats, "duplicate observation"), (np.flatnonzero(counts < 0), "negative count")):
            if len(rows):
                at = rows[np.argmin(order[rows])]  # the one given first
                ends = f"{self.labels[origin[at]]}->{self.labels[destination[at]]}"
                raise ValueError(f"{problem} for pair {ends} at {format_hour(stamps[at])}")

        firsts = np.flatnonzero(np.r_[len(order) > 0, ~same_pair])  # each pair's first row; none without rows
        self.pairs = tuple(map(ODPair, origin[firsts].tolist(), destination[firsts].tolist()))
        self.edges = np.r_[firsts, len(order)]
        self.pair_index = np.repeat(np.arange(len(firsts)), np.diff(self.edges))
        self.timestamps, self.counts = stamps, counts
        self.keys = pair_hour_keys(self.pair_index, stamps)
        self._row_of_ends = {(self.labels[p.origin], self.labels[p.destination]): i for i, p in enumerate(self.pairs)}

    @cached_property
    def series(self) -> dict[ODPair, ODCountSeries]:
        """Each pair's rows, in `pairs` order, as an `ODCountSeries` of views of the columns."""
        cuts = self.edges[1:-1]
        views = zip(self.pairs, np.split(self.timestamps, cuts), np.split(self.counts, cuts))
        return {pair: ODCountSeries(pair, *view) for pair, *view in views}

    def rows_of(self, pairs, labels=None) -> np.ndarray:
        """The index into `self.pairs` of each of `pairs`, whose ids index `labels` (a list, or a dict by id).

        Matched by label, the counts' own by default.  Raises naming the first
        pair without observations by its labels, by its ids where they lack one.
        """
        labels = self.labels if labels is None else labels
        names = labels if isinstance(labels, dict) else dict(enumerate(labels))
        ends = [(names.get(pair.origin), names.get(pair.destination)) for pair in pairs]
        rows = [self._row_of_ends.get(end) for end in ends]
        if None in rows:
            i = rows.index(None)
            name = pair_name(pairs[i], None if None in ends[i] else names)
            raise ValueError(f"pair {name} has no observations in the counts")
        return np.array(rows, dtype=np.int64)


INT64_MAX = np.iinfo(np.int64).max


def _check_record(path, lineno: int, row: list[str]) -> tuple[str, str, str, int]:
    """The stripped timestamp text, labels and count of a non-blank CSV record, or a raise for the first check
    it fails, in this order: field count, timestamp, self-loop, integer count, sign, int64 range."""
    if len(row) != 4:
        raise ValueError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
    ts_text, origin, destination, count_text = (f.strip() for f in row)
    try:
        parse_hour(ts_text)
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
    return ts_text, origin, destination, count


def load_od_counts(path) -> ODDataset:
    """Load hourly OD counts from CSV (``timestamp,origin,destination,count``).

    Location ids are assigned densely in sorted label order.  The first
    malformed record is rejected with its line number (blank records count)
    by the first check of `_check_record` it fails; then a repeated (pair,
    hour) is rejected, the one whose second occurrence comes first.

    A file in the form `save_od_counts` writes is parsed from its bytes
    (`_canonical_columns`); any other is read by `csv.reader`, record by record.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    columns = _canonical_columns(raw)
    labels, origin, destination, stamps, counts = _record_columns(path, raw) if columns is None else columns

    try:
        return ODDataset([Location(i, lab) for i, lab in enumerate(labels)], origin, destination, stamps, counts)
    except ValueError as exc:  # a repeated (pair, hour): the readers reject every other flaw by its line
        raise ValueError(f"{path}: {exc}") from None


_HOUR_DIGITS = np.frombuffer(b"2017-11-17T08", np.uint8) - ord("0") < 10  # where a written hour has digits


def _canonical_columns(raw: bytes):
    """The labels and file-order columns (origin, destination, stamps, counts) of the bytes of a counts file
    in the form `save_od_counts` writes, or None for a file in any other form.

    The form: the header exactly; every line ended by one terminator, all CRLF
    or all LF, the last one too; every other byte printable ASCII but a quote;
    each record `DDDD-DD-DDTDD,origin,destination,count` with a real calendar
    hour, non-empty labels that differ, and a count of 1 to 18 digits.  Such a
    file has nothing that `csv.reader` would unquote, strip or reject, so its
    columns are those the record reader builds.  Labels are ranked as
    NUL-padded bytes, whose order is `sorted`'s on ASCII text.
    """
    header = ",".join(CSV_HEADER).encode()
    crlf = raw.startswith(header + b"\r\n")
    terminator = b"\r\n" if crlf else b"\n"
    if not (raw.startswith(header + terminator) and raw.endswith(terminator)):
        return None
    buf = np.frombuffer(raw, np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))  # the header's, then each record's
    unprintable = np.count_nonzero(buf - 0x21 > 0x7E - 0x21)  # outside 0x21-0x7E, as uint8 wraps below 0x21
    if unprintable != len(ends) * len(terminator) or ord('"') in buf or crlf and (buf[ends - 1] != ord("\r")).any():
        return None
    starts, stops = ends[:-1] + 1, ends[1:] - crlf  # each record's first byte and its terminator's
    commas = np.flatnonzero(buf == ord(","))[3:]  # past the header's
    if len(commas) != 3 * len(starts):
        return None
    c0, c1, c2 = commas.reshape(-1, 3).T  # each record's own three, when every one lies in its record
    digits = stops - c2 - 1
    if not ((c0 == starts + len(_HOUR_DIGITS)) & (c1 > c0 + 1) & (c2 > c1 + 1) & (digits >= 1) & (digits <= 18)).all():
        return None

    window = np.lib.stride_tricks.sliding_window_view
    stamp = window(buf, len(_HOUR_DIGITS))[starts]
    if not (stamp[:, _HOUR_DIGITS] - ord("0") < 10).all():  # not a signed or short year, which numpy reads too
        return None
    try:  # the parser that `parse_hour` calls: between these digits it takes only the form's "-", "-" and "T"
        stamps = stamp.view(f"S{len(_HOUR_DIGITS)}").ravel().astype("datetime64[h]")
    except ValueError:
        return None

    width = int(digits.max(initial=1))
    count = window(buf, width)[stops - width] - ord("0")  # right-aligned: the bytes before a count are zeroed
    count[np.arange(width) < (width - digits)[:, None]] = 0
    if not (count < 10).all():
        return None
    counts = count.astype(np.int64) @ 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)

    first = np.concatenate([c0, c1]) + 1  # every origin's first byte, then every destination's
    lengths = np.concatenate([c1, c2]) - first
    width = int(lengths.max(initial=1))
    if width > csv.field_size_limit() or len(first) * width > 2 * len(raw):  # csv.reader's limit; a table past the file
        return None
    table = window(np.concatenate([buf, np.zeros(width, np.uint8)]), width)[first]
    table[np.arange(width) >= lengths[:, None]] = 0
    head = np.ones(len(table), dtype=bool)  # the first of each run of one label
    head[1:] = (table[1:] != table[:-1]).any(axis=1)
    names, ids = np.unique(table[head].view(f"S{width}").ravel(), return_inverse=True)
    origin, destination = ids[np.cumsum(head) - 1].reshape(2, -1)
    if (origin == destination).any():
        return None
    return [name.decode("ascii") for name in names.tolist()], origin, destination, stamps, counts


def _record_columns(path, raw: bytes):
    """The labels and file-order columns of a counts file, read by `csv.reader` from its decoded text.

    After the header, every record is read before any is checked, so that a file that is not UTF-8 fails on its
    first undecodable byte; then each non-blank record passes `_check_record` once.
    """
    try:
        fh = io.StringIO(raw.decode("utf-8"), newline="")
    except UnicodeDecodeError:  # read as text again, so that the error places the byte as the text reader does
        fh = open(path, newline="", encoding="utf-8")
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != list(CSV_HEADER):
            raise ValueError(f"{path}: expected header {','.join(CSV_HEADER)}")
        records = list(reader)  # records[i] is on line i + 2

    nonblank = ((i, row) for i, row in enumerate(records, 2) if len(row) > 1 or row and row[0].strip())
    checked = [_check_record(path, lineno, row) for lineno, row in nonblank]
    ts_texts, origins, destinations, counts = ([record[k] for record in checked] for k in range(4))
    labels = sorted(set(origins).union(destinations))
    index = {lab: i for i, lab in enumerate(labels)}
    origin, destination = (np.fromiter(map(index.__getitem__, e), np.int64, len(e)) for e in (origins, destinations))
    stamps = np.array(ts_texts, dtype="datetime64[h]")  # the parser that `parse_hour` calls
    return labels, origin, destination, stamps, np.array(counts, dtype=np.int64)


def save_od_counts(path, dataset: ODDataset) -> None:
    """Write a dataset back to the canonical CSV format (sorted, loss-free)."""
    ends = [(dataset.locations[pair.origin].label, dataset.locations[pair.destination].label) for pair in dataset.pairs]
    hours = np.datetime_as_string(dataset.timestamps, unit="h").tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        rows = zip(hours, dataset.pair_index.tolist(), dataset.counts.tolist())
        writer.writerows((t, *ends[i], c) for t, i, c in rows)


# ---------------------------------------------------------------------------
# Differencing / masking / splitting
# ---------------------------------------------------------------------------


def pair_hour_keys(pair_index, stamps) -> np.ndarray:
    """Integer keys ordered by pair index, then by hour: one searchsorted finds a (pair, hour)."""
    hours = np.asarray(stamps, dtype="datetime64[h]").view(np.int64)
    return np.asarray(pair_index, dtype=np.int64) * (1 << 40) + hours


@dataclass
class WorkingRecord:
    """Every pair's working-scale series in one flat array, pair after pair, each in time order."""

    pairs: tuple[ODPair, ...]
    timestamps: np.ndarray  # datetime64[h]
    values: np.ndarray  # float64
    pair_index: np.ndarray  # int64, the index into `pairs` of each row; non-decreasing

    def select(self, keep: np.ndarray) -> WorkingRecord:
        """The rows where `keep` is True; ordering preserved."""
        return WorkingRecord(self.pairs, self.timestamps[keep], self.values[keep], self.pair_index[keep])


def difference(dataset: ODDataset, rows=None, bounds=None) -> WorkingRecord:
    """First differences y'_t = y_t - y_{t-1} of the counts of `dataset.pairs[rows]`, in one record in their order.

    `rows` index the counts' pairs, all of them by default.  Only one-hour
    steps within a pair are differenced, so that no difference spans a gap
    or the boundary between two pairs.  `bounds` holds arrays (starts,
    stops) of each pair's first and past-last rows in the dataset's
    columns, all its rows by default; only those are read, so the row at
    start is dropped too.  Whether a series is too short, or has no
    contiguous run, is decided on the whole series.
    """
    rows = np.arange(len(dataset.pairs)) if rows is None else np.asarray(rows, dtype=np.int64)
    if not len(rows):
        raise ValueError("the counts hold no OD pair")
    pairs = tuple(dataset.pairs[r] for r in rows.tolist())
    lengths = dataset.edges[rows + 1] - dataset.edges[rows]
    if lengths.min() < 2:
        name = pair_name(pairs[np.argmin(lengths)], dataset.labels)
        raise ValueError(f"series of pair {name} too short to difference (need >= 2 lags)")
    starts, stops = (dataset.edges[rows], dataset.edges[rows + 1]) if bounds is None else bounds
    sizes = stops - starts
    # the dataset rows of every window, window after window
    read = np.arange(sizes.sum()) + np.repeat(starts - np.cumsum(sizes) + sizes, sizes)
    timestamps, pair_index = dataset.timestamps[read], np.repeat(np.arange(len(pairs)), sizes)
    keep = (np.diff(timestamps) == HOUR) & (pair_index[1:] == pair_index[:-1])
    pair_index = pair_index[1:][keep]
    lost = np.bincount(pair_index, minlength=len(pairs)) == 0
    if lost.any() and bounds is not None:
        difference(dataset, rows)  # the whole series decide: raises for the first without a run
    elif lost.any():
        name = pair_name(pairs[np.argmax(lost)], dataset.labels)
        raise ValueError(f"no contiguous run of >= 2 hourly lags to difference for pair {name}")
    values = np.diff(dataset.counts[read].astype(np.float64))[keep]
    return WorkingRecord(pairs, timestamps[1:][keep], values, pair_index)


def in_days(timestamps, days: tuple[date, date]) -> np.ndarray:
    """True where the hour falls on a day of the inclusive range."""
    on = np.asarray(timestamps, dtype="datetime64[h]").astype("datetime64[D]")
    return (on >= np.datetime64(days[0])) & (on <= np.datetime64(days[1]))


@dataclass(frozen=True)
class SplitSpec:
    """Train/test date ranges plus masked hours and holiday date ranges."""

    train_range: tuple[date, date]
    test_range: tuple[date, date]
    masked_hours: frozenset[int] = DEFAULT_MASKED_HOURS
    masked_dates: tuple[tuple[date, date], ...] = ()

    def __post_init__(self):
        named = [("train_range", self.train_range), ("test_range", self.test_range)]
        for name, (start, end) in named + [(f"masked_dates[{i}]", days) for i, days in enumerate(self.masked_dates)]:
            if start > end:
                raise ValueError(f"{name}: start {start} is after end {end}")
        outside = sorted(h for h in self.masked_hours if h not in range(24))
        if outside:
            raise ValueError(f"masked_hours: hour {outside[0]} is outside 0..23")
        if self.train_range[1] >= self.test_range[0]:
            raise ValueError("train range must precede test range")

    def mask_array(self, timestamps: np.ndarray) -> np.ndarray:
        """Boolean array, True where the lag is masked out."""
        by_hour = np.zeros(24, dtype=bool)
        by_hour[list(self.masked_hours)] = True
        masked = by_hour[hour_of(timestamps)]
        for days in self.masked_dates:
            masked |= in_days(timestamps, days)
        return masked

    def in_train(self, timestamps: np.ndarray) -> np.ndarray:
        return in_days(timestamps, self.train_range)

    def in_test(self, timestamps: np.ndarray) -> np.ndarray:
        return in_days(timestamps, self.test_range)


# Case-study defaults: 52 train days, 7 test days, nights and the Christmas
# holiday masked, exams in mid-December.
CAMPUS_2017_EXAMS = (date(2017, 12, 8), date(2017, 12, 22))


def campus_2017_split() -> SplitSpec:
    return SplitSpec(
        train_range=(date(2017, 11, 17), date(2018, 1, 7)),
        test_range=(date(2018, 1, 8), date(2018, 1, 14)),
        masked_hours=DEFAULT_MASKED_HOURS,
        masked_dates=((date(2017, 12, 23), date(2018, 1, 1)),),
    )


def train_series(dataset: ODDataset, spec: SplitSpec, rows) -> list[ODCountSeries]:
    """The unmasked train-range lags of each pair `dataset.pairs[r]` of `rows`, one series each; ordering preserved."""
    ts = dataset.timestamps
    kept = np.flatnonzero(spec.in_train(ts) & ~spec.mask_array(ts))
    cut = np.searchsorted(kept, dataset.edges)  # pair i's kept rows are kept[cut[i]:cut[i + 1]]
    stamps, counts = ts[kept], dataset.counts[kept]
    return [ODCountSeries(dataset.pairs[r], stamps[cut[r] : cut[r + 1]], counts[cut[r] : cut[r + 1]]) for r in rows]


def aligned_train_series(dataset: ODDataset, spec: SplitSpec, rows) -> list[ODCountSeries]:
    """`train_series` of `rows`, which must all hold the same hours: the copula correlates them hour by hour.

    Raises naming the first pair whose hours differ from the first pair's,
    and the first hour that one of the two holds and the other lacks.
    """
    series = train_series(dataset, spec, rows)
    for other in series[1:]:
        if not np.array_equal(other.timestamps, series[0].timestamps):
            t = np.setxor1d(series[0].timestamps, other.timestamps)[0]
            has, lacks = (series[0], other) if t in series[0].timestamps else (other, series[0])
            has, lacks = (pair_name(s.pair, dataset.labels) for s in (has, lacks))
            raise ValueError(f"train series not aligned: pair {has} has {format_hour(t)}, pair {lacks} lacks it")
    return series


def counts_at(dataset: ODDataset, rows, lags) -> np.ndarray:
    """Observed counts of the pairs `dataset.pairs[rows]` at the given hours (pairs x lags, float64).

    Raises naming the first pair, in the order given, with no observation
    at one of the hours, and its first such hour, so a gap is never read as
    the next hour's count.
    """
    lags = np.asarray(lags, dtype="datetime64[h]")
    rows = np.asarray(rows, dtype=np.int64)
    wanted = pair_hour_keys(rows[:, None], lags)
    at = np.searchsorted(dataset.keys, wanted)
    missing = np.searchsorted(dataset.keys, wanted, side="right") == at
    if missing.any():
        i = int(np.argmax(missing.any(axis=1)))
        name = pair_name(dataset.pairs[rows[i]], dataset.labels)
        raise ValueError(f"no observation for pair {name} at {format_hour(lags[missing[i]][0])}")
    return dataset.counts[at].astype(np.float64)


# ---------------------------------------------------------------------------
# Augmented Dickey-Fuller unit-root test (constant, no trend)
# ---------------------------------------------------------------------------

# Response-surface coefficients for the 1% critical value of the tau statistic
# with a constant term (MacKinnon 2010): crit = b0 + b1/n + b2/n^2 + b3/n^3.
_ADF_CRIT_1PCT = (-3.43035, -6.5393, -16.786, -83.133)


@dataclass(frozen=True)
class AdfResult:
    statistic: float
    crit_1pct: float
    reject_unit_root: bool
    nobs: int
    lags: int


def default_adf_lags(n: int) -> int:
    """Schwert's rule of thumb: floor(12 * (n/100)^0.25)."""
    return int(np.floor(12.0 * (n / 100.0) ** 0.25))


def adf_test(values, max_lag: int | None = None) -> AdfResult:
    """Augmented Dickey-Fuller test with constant, decision at the 1% level.

    Regresses dy_t on (1, y_{t-1}, dy_{t-1}, ..., dy_{t-max_lag}) by least
    squares; the tau statistic is the t-ratio on y_{t-1}, compared against
    the MacKinnon finite-sample 1% critical value.
    """
    y = np.asarray(values, dtype=np.float64)
    n = len(y)
    if max_lag is None:
        max_lag = default_adf_lags(n)
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    if n <= max_lag + 2:
        raise ValueError(f"series of length {n} too short for max_lag={max_lag}")

    dy = np.diff(y)
    nobs = len(dy) - max_lag
    if nobs <= max_lag + 2:
        raise ValueError(f"too few effective observations ({nobs}) for max_lag={max_lag}")
    rhs = [np.ones(nobs), y[max_lag:-1]]
    for k in range(1, max_lag + 1):
        rhs.append(dy[max_lag - k : len(dy) - k])
    X = np.column_stack(rhs)
    target = dy[max_lag:]

    beta, _, rank, _ = np.linalg.lstsq(X, target, rcond=None)
    if rank < X.shape[1]:
        raise ValueError("singular regression matrix in ADF test")
    resid = target - X @ beta
    dof = nobs - X.shape[1]
    sigma2 = resid @ resid / dof
    xtx_inv = np.linalg.inv(X.T @ X)
    se = np.sqrt(sigma2 * xtx_inv[1, 1])
    stat = float(beta[1] / se)

    b0, b1, b2, b3 = _ADF_CRIT_1PCT
    crit = b0 + b1 / nobs + b2 / nobs**2 + b3 / nobs**3
    return AdfResult(stat, float(crit), stat < crit, nobs, max_lag)


def check_stationarity(name: str, values, max_lag: int | None = None) -> AdfResult:
    """Run the ADF test on one pair's working-scale values; warn, naming the pair, when a unit root is not rejected."""
    result = adf_test(values, max_lag)
    if not result.reject_unit_root:
        warnings.warn(
            f"pair {name}: ADF statistic "
            f"{result.statistic:.3f} does not reject a unit root at 1% "
            f"(critical {result.crit_1pct:.3f}); proceeding anyway",
            stacklevel=2,
        )
    return result


# ---------------------------------------------------------------------------
# Feature construction
# ---------------------------------------------------------------------------


def lag_depth(spec: ModelSpec) -> int:
    """How many retained lags back a spec's features read: of every pair with cross lags, else of the pair's own."""
    return spec.cross_order if spec.cross_lags else spec.ar_order


def n_features(spec: ModelSpec, n_pairs: int) -> int:
    """The width of a spec's feature vector over `n_pairs` pairs, laid out as `build_features` fills it."""
    lags = lag_depth(spec) * (n_pairs if spec.cross_lags else 1)
    return len(TOD_HOURS) + 7 + (spec.exam_period is not None) + lags + (n_pairs if spec.scope == "pooled" else 0)


def build_features(
    record: WorkingRecord,
    pair_index: np.ndarray,
    stamps: np.ndarray,
    spec: ModelSpec,
) -> tuple[np.ndarray, np.ndarray]:
    """Feature matrix for predicting demand of `record.pairs[pair_index[i]]` at `stamps[i]`.

    One row per (pair, stamp) query, for any mix of pairs.  The layout is
    fixed: time-of-day one-hot (16), day-of-week one-hot (7), the exam flag
    when the spec has an exam period, then either `ar_order` own-series
    lags or `cross_order` lags of every pair, then a pair one-hot when the
    spec is pooled; the pairs are the record's, in its order.
    Autoregressive blocks use the previous retained lags of the
    working-scale record (masked hours simply do not appear in it), newest
    first.  `usable` is False where a lag's hour is outside TOD_HOURS or a
    series lacks the history its lags need; those rows are not filled in.
    """
    pair_index = np.asarray(pair_index, dtype=np.int64)
    stamps = np.asarray(stamps, dtype="datetime64[h]")
    hours = hour_of(stamps)
    usable = (hours >= TOD_HOURS[0]) & (hours <= TOD_HOURS[-1])
    n_pairs = len(record.pairs)
    ar_col = len(TOD_HOURS) + 7 + (spec.exam_period is not None)
    # the source series of each query's lags 1..depth: laid out lag-major
    # across the record's pairs for cross lags, newest first for own lags
    depth = lag_depth(spec)
    sources = np.arange(n_pairs)[None, :] if spec.cross_lags else pair_index[:, None]
    # how many lags of each source precede the stamp
    keys = pair_hour_keys(record.pair_index, record.timestamps)
    before = np.searchsorted(keys, pair_hour_keys(sources, stamps[:, None]))
    first = np.searchsorted(record.pair_index, sources)
    usable &= (before - first >= depth).all(axis=1)

    rows = np.flatnonzero(usable)
    X = np.zeros((len(stamps), n_features(spec, n_pairs)))
    X[rows, hours[rows] - TOD_HOURS[0]] = 1.0
    X[rows, len(TOD_HOURS) + weekday_of(stamps[rows])] = 1.0
    if spec.exam_period is not None:
        X[rows, ar_col - 1] = in_days(stamps[rows], spec.exam_period)
    lags = np.arange(1, depth + 1)[None, :, None]
    width = depth * sources.shape[1]
    X[rows, ar_col : ar_col + width] = record.values[before[rows][:, None, :] - lags].reshape(len(rows), width)
    if spec.scope == "pooled":
        X[rows, X.shape[1] - n_pairs + pair_index[rows]] = 1.0
    return X, usable
