"""Per-lag feature builder, the reference for `data.build_features`.

It builds one lag's feature vector from named blocks, the way the library
did before features were built as one matrix for all pairs.  Raises
ValueError where the matrix builder marks a row unusable.  `record_of` puts
per-pair series into the one working record the matrix builder reads, and
`pair_series` reads one pair's series back out of a record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from drtopt.config import ModelSpec
from drtopt.data import TOD_HOURS, ODPair, WorkingRecord, format_hour, hour_of, weekday_of


@dataclass
class PairSeries:
    """One pair's working-scale (differenced, normalized or masked) hourly series."""

    pair: ODPair
    timestamps: np.ndarray  # datetime64[h], strictly increasing
    values: np.ndarray  # float64

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype="datetime64[h]")
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.timestamps.shape != self.values.shape:
            raise ValueError("timestamps and values must align")

    def __len__(self) -> int:
        return len(self.timestamps)


def pair_series(record: WorkingRecord, pair: ODPair) -> PairSeries:
    """The rows of `pair` in a working record."""
    rows = record.pair_index == record.pairs.index(pair)
    return PairSeries(pair, record.timestamps[rows], record.values[rows])


def record_of(history: dict[ODPair, PairSeries]) -> WorkingRecord:
    """The working record of the given series, pairs in sorted order."""
    pairs = tuple(sorted(history))
    timestamps = np.concatenate([history[p].timestamps for p in pairs])
    values = np.concatenate([history[p].values for p in pairs])
    return WorkingRecord(pairs, timestamps, values, np.repeat(np.arange(len(pairs)), [len(history[p]) for p in pairs]))


def _recent_values(series: PairSeries, t: np.datetime64, k: int) -> np.ndarray:
    """Last k retained values strictly before t (positional, newest last)."""
    idx = int(np.searchsorted(series.timestamps, t))
    if idx < k:
        raise ValueError(f"insufficient history before {format_hour(t)}: need {k}, have {idx}")
    return series.values[idx - k : idx]


def reference_features(
    history: dict[ODPair, PairSeries],
    t: np.datetime64,
    pair: ODPair,
    spec: ModelSpec,
) -> np.ndarray:
    t = np.datetime64(t, "h")
    order = tuple(sorted(history))  # the pairs of `record_of(history)`, in its order
    hour = int(hour_of(t))
    if hour not in TOD_HOURS:
        raise ValueError(f"hour {hour} outside modeled range {TOD_HOURS[0]}..{TOD_HOURS[-1]}")
    tod = np.zeros(len(TOD_HOURS))
    tod[hour - TOD_HOURS[0]] = 1.0
    dow = np.zeros(7)
    dow[int(weekday_of(t))] = 1.0
    parts = [tod, dow]

    if spec.exam_period is not None:
        a, b = spec.exam_period
        day = t.astype("datetime64[D]").item()
        parts.append([float(a <= day <= b)])

    if spec.cross_lags:
        blocks = []
        for k in range(1, spec.cross_order + 1):
            for p in order:
                blocks.append(_recent_values(history[p], t, k)[0])
        parts.append(np.asarray(blocks, dtype=np.float64))
    else:
        # newest-first: position j holds the (j+1)-lagged value
        parts.append(_recent_values(history[pair], t, spec.ar_order)[::-1].copy())

    if spec.scope == "pooled":
        onehot = np.zeros(len(order))
        onehot[order.index(pair)] = 1.0
        parts.append(onehot)
    return np.concatenate([np.asarray(p, dtype=np.float64) for p in parts])
