"""Training and prediction orchestration across OD pairs.

Wires the preprocessing chain (difference, mask, optional seasonal
normalization) into the model families, produces per-lag forecasts on the
count scale, and serializes trained models to versioned JSON.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import asdict, dataclass, field
from datetime import date, timedelta

import numpy as np

from . import boosting, metrics, qr
from .config import (ConfigError, ModelSpec, field as doc_field, json_list, json_object, parse_float, parse_int,
                     parse_iso_hour, parse_levels, parse_model)
from .data import (
    HOUR,
    TOD_HOURS,
    FeatureConfig,
    ODCountSeries,
    ODDataset,
    ODPair,
    SplitSpec,
    WorkingRecord,
    build_features,
    check_stationarity,
    counts_at,
    difference,
    format_hour,
    hour_of,
    in_days,
    pair_hour_keys,
    pair_name,
    train_series,
    weekday_of,
)

log = logging.getLogger(__name__)

MODEL_SCHEMA_VERSION = 1


@dataclass
class TrainedDemandModel:
    spec: ModelSpec
    levels: tuple[float, ...]
    labels: list[str]
    pair_order: tuple[ODPair, ...]
    models: dict[ODPair | None, object]  # None key = pooled scope; an hp model is its pair's train series
    seasonal: qr.SeasonalStats | None = None  # None without seasonal normalization
    # the fitted models stacked for one raw predict over all pairs, model j
    # serving pair_order[j] (the only one, when pooled); not in model.json
    stack: np.ndarray | boosting.StackedForests | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        models = [self.models[key] for key in ([None] if self.spec.scope == "pooled" else self.pair_order)]
        stack = {"linear": qr.stack_lqr, "gboost": boosting.stack_gboost}.get(self.spec.family)
        self.stack = stack(models, self.levels) if stack else None

    @property
    def feature_cfg(self) -> FeatureConfig:
        return self.spec.feature_config()


def working_record(dataset: ODDataset, split: SplitSpec, check_unit_root: bool = False) -> WorkingRecord:
    """Every pair's differenced-and-masked series in one record (the model fitting scale)."""
    record = difference(dataset)
    if check_unit_root:
        bounds = np.searchsorted(record.pair_index, np.arange(len(record.pairs) + 1))
        for pair, a, b in zip(record.pairs, bounds, bounds[1:]):
            check_stationarity(pair_name(pair, dataset.labels), record.values[a:b])
    return record.select(~split.mask_array(record.timestamps))


def recent_record(dataset: ODDataset, split: SplitSpec, lags: np.ndarray, depth: int, pairs, labels) -> WorkingRecord:
    """The rows of the working record of `pairs` (by `labels`) that features at `lags` read, `depth` retained lags back.

    Each pair's window holds its counts before the last lag, from the first
    lag back until `depth` rows before it are retained: a window's first
    row is dropped by differencing, and masked hours and gaps are not
    lags, so a window that falls short is doubled, up to the series start.
    Differencing and masking are local, so every row is the whole record's.
    """
    rows = dataset.rows_of(pairs, labels)
    first = dataset.edges[rows]
    if not len(lags):
        return difference(dataset, (first, first), pairs, labels)
    ahead, stop = np.searchsorted(dataset.keys, pair_hour_keys(rows[:, None], [lags.min(), lags.max()])).T
    # twice the lags and a day: room for a night's masked hours and the dropped first row
    span = np.full(len(rows), 2 * depth + 24)
    while True:
        start = np.maximum(ahead - span, first)
        record = difference(dataset, (start, stop), pairs, labels)
        record = record.select(~split.mask_array(record.timestamps))
        have = np.bincount(record.pair_index[record.timestamps < lags.min()], minlength=len(rows))
        short = (have < depth) & (start > first)
        if not short.any():
            return record
        span[short] *= 2


def _group_rows(
    dataset: ODDataset, split: SplitSpec, spec: ModelSpec, check_unit_root: bool = False
) -> tuple[tuple[np.ndarray, ...], qr.SeasonalStats | None]:
    """The usable train rows, pair after pair, as (X, y, stamps, pair_index), and the seasonal stats.

    The rows come from the working record, seasonally normalized by
    train-range stats when the spec asks; `pair_index` indexes
    `dataset.pairs`, the order a model trained on the dataset keeps.
    """
    record = working_record(dataset, split, check_unit_root)
    in_train = split.in_train(record.timestamps)
    seasonal = None
    if spec.seasonal_normalize:
        seasonal = qr.fit_seasonal_stats(record.select(in_train))
        record = qr.seasonal_normalize(record, seasonal)
    train = record.select(in_train)
    X, usable = build_features(record, train.pair_index, train.timestamps, spec.feature_config())
    train = train.select(usable)
    have = np.bincount(train.pair_index, minlength=len(record.pairs))
    if not have.all():
        name = pair_name(record.pairs[np.argmin(have)], dataset.labels)
        raise ValueError(f"no usable training lags for pair {name}")
    return (X[usable], train.values, train.timestamps, train.pair_index), seasonal


def _fit_groups(spec: ModelSpec, dataset: ODDataset, rows, levels, hyper: boosting.GBoostHyper, tuning=None):
    """One model of the spec's family per pair of the dataset, or one keyed None over every pair when pooled.

    `rows` are `_group_rows`' arrays.  With `tuning` (the ranges of
    `tuning_ranges`), the fit takes the tuning-train rows and the
    tuning-val rows drive early stopping.
    """
    *columns, pair_index = rows
    if spec.scope == "pooled":
        groups = {None: slice(None)}
    else:
        # the rows run pair after pair, so each pair's rows are one slice
        bounds = np.searchsorted(pair_index, np.arange(len(dataset.pairs) + 1))
        groups = {pair: slice(a, b) for pair, a, b in zip(dataset.pairs, bounds, bounds[1:])}
    models = {}
    for key, part in groups.items():
        X, y, stamps = (column[part] for column in columns)
        val = None
        if tuning is not None:
            _, val_range, train_range = tuning
            in_val, in_train = in_days(stamps, val_range), in_days(stamps, train_range)
            if not in_val.any():
                group = "the pooled group" if key is None else f"pair {pair_name(key, dataset.labels)}"
                raise ValueError(f"{group} has no rows in the tuning-validation range {val_range[0]}..{val_range[1]}")
            val, X, y = (X[in_val], y[in_val]), X[in_train], y[in_train]
        if spec.family == "linear":
            models[key] = qr.fit_lqr(X, y, levels)
        else:
            models[key] = boosting.fit_gboost(X, y, levels, hyper, val=val)
    return models


def train_model(
    dataset: ODDataset,
    split: SplitSpec,
    spec: ModelSpec,
    levels=qr.DEFAULT_QUANTILES,
) -> TrainedDemandModel:
    pair_order = dataset.pairs
    if not pair_order:
        raise ValueError("the counts hold no OD pair")
    if spec.family == "hp":
        models = dict(zip(pair_order, train_series(dataset, split, range(len(pair_order)))))
        return TrainedDemandModel(spec, tuple(levels), dataset.labels, pair_order, models)
    rows, seasonal = _group_rows(dataset, split, spec, check_unit_root=True)
    models = _fit_groups(spec, dataset, rows, levels, spec.gboost)
    return TrainedDemandModel(spec, tuple(levels), dataset.labels, pair_order, models, seasonal)


def evaluation_lags(dataset: ODDataset, split: SplitSpec) -> np.ndarray:
    """Unmasked test-range lags present in the data (union over pairs); raises when there is none."""
    ts = dataset.timestamps
    lags = np.unique(ts[split.in_test(ts) & ~split.mask_array(ts)])
    if not len(lags):
        raise ValueError("the counts hold no unmasked hour of the test range {}..{}".format(*split.test_range))
    return lags


def to_count_scale(raw, prev_counts, seasonal_scales=None, sort_quantiles: bool = True) -> np.ndarray:
    """Working-scale outputs (lags x levels) to count-scale quantiles.

    Undoes the seasonal normalization when (mean, std) rows are given, adds
    the previous observed count (un-differencing), clips at zero, and sorts
    each row when asked.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if seasonal_scales is not None:
        scales = np.asarray(seasonal_scales, dtype=np.float64)
        raw = raw * scales[:, 1:] + scales[:, :1]
    values = np.maximum(raw + np.asarray(prev_counts, dtype=np.float64)[:, None], 0.0)
    return np.sort(values, axis=1) if sort_quantiles else values


def predict_forecasts(
    model: TrainedDemandModel,
    dataset: ODDataset,
    split: SplitSpec,
    lags: np.ndarray | None = None,
) -> dict[np.datetime64, dict[ODPair, qr.QuantileForecast]]:
    """One-step-ahead count-scale forecasts for every pair at every lag."""
    lags = evaluation_lags(dataset, split) if lags is None else np.asarray(lags, dtype="datetime64[h]")
    if not len(lags):
        return {}
    by_pair = dict(zip(model.pair_order, _quantiles(model, dataset, split, lags).tolist()))  # (lags, levels) each
    return {
        t: {pair: qr.QuantileForecast(pair, t, dict(zip(model.levels, rows[i]))) for pair, rows in by_pair.items()}
        for i, t in enumerate(lags)
    }


def _quantiles(model: TrainedDemandModel, dataset: ODDataset, split: SplitSpec, lags: np.ndarray) -> np.ndarray:
    """(pairs, lags, levels) count-scale quantiles, the pairs in the model's order."""
    if model.spec.family == "hp":  # from each pair's train series; the counts are not read
        values = [qr.predict_hp(model.models[p], model.levels, lags, model.labels) for p in model.pair_order]
        return np.array(values).reshape(len(values), len(lags), len(model.levels))
    cfg = model.feature_cfg
    order, n = model.pair_order, len(lags)
    depth = cfg.cross_order if cfg.cross_lags else cfg.ar_order
    # the model's pairs only, matched to the counts by label, in the model's order
    record = recent_record(dataset, split, lags, depth, order, model.labels)
    if model.spec.seasonal_normalize:
        record = qr.seasonal_normalize(record, model.seasonal)
    # one query per (pair, lag), pair after pair
    which = np.repeat(np.arange(len(order)), n)
    stamps = np.tile(lags, len(order))
    X, usable = build_features(record, which, stamps, cfg)
    # the first pair in order with a missing previous count or an unusable
    # lag is named, its previous count checked first
    usable = usable.reshape(len(order), n)
    bad = np.flatnonzero(~usable.all(axis=1))
    checked = order if not len(bad) else order[: bad[0] + 1]
    prev = counts_at(dataset, checked, lags - HOUR, model.labels)
    if len(bad):
        t = lags[~usable[bad[0]]][0]
        hour = int(hour_of(t))
        if hour not in TOD_HOURS:
            raise ValueError(f"hour {hour} outside modeled range {TOD_HOURS[0]}..{TOD_HOURS[-1]}")
        name = pair_name(order[bad[0]], model.labels)
        raise ValueError(f"insufficient history before {format_hour(t)} for pair {name}")
    predict = qr.lqr_raw_predict if model.spec.family == "linear" else boosting.gboost_raw_predict
    raw = predict(model.stack, np.zeros_like(which) if model.spec.scope == "pooled" else which, X)
    scales = model.seasonal.scales_at(which, stamps) if model.spec.seasonal_normalize else None
    return to_count_scale(raw, prev.ravel(), scales, model.spec.sort_quantiles).reshape(len(order), n, -1)


# ---------------------------------------------------------------------------
# Hyperparameter tuning split and search
# ---------------------------------------------------------------------------


def tuning_ranges(split: SplitSpec) -> tuple[tuple[date, date], tuple[date, date], tuple[date, date]]:
    """Carve the train range into tuning (test, val, train) date ranges.

    The first week of the train range scores candidates, the second week
    drives early stopping, and the remainder is the tuning train set.
    """
    start, end = split.train_range
    t_end = start + timedelta(days=6)
    v_end = start + timedelta(days=13)
    if v_end >= end:
        raise ValueError("train range too short to carve two tuning weeks")
    return (start, t_end), (t_end + timedelta(days=1), v_end), (v_end + timedelta(days=1), end)


def gboost_grid_search(
    dataset: ODDataset,
    split: SplitSpec,
    spec: ModelSpec,
    grid: list[boosting.GBoostHyper],
    levels=qr.DEFAULT_QUANTILES,
) -> tuple[boosting.GBoostHyper, list[float]]:
    """Pick boosting hyperparameters by total tuning-test MTL, ties first-wins.

    The rows are the ones training uses, seasonally normalized when the spec
    asks; each pair's tuning-test loss counts once.
    """
    if spec.family != "gboost":
        raise ValueError("grid search applies to the gboost family only")
    tuning = tuning_ranges(split)
    pairs = dataset.pairs
    rows, _ = _group_rows(dataset, split, spec)
    X, y, stamps, pair_index = rows

    # every pair's tuning-test rows, predicted in one call per grid point
    in_test = in_days(stamps, tuning[0])
    X_test, y_test, test_index = X[in_test], y[in_test], pair_index[in_test]
    have = np.bincount(test_index, minlength=len(pairs))
    if not have.all():
        pair = pair_name(pairs[np.argmin(have)], dataset.labels)
        raise ValueError(f"pair {pair} has no rows in the tuning-test range {tuning[0][0]}..{tuning[0][1]}")
    which = np.zeros_like(test_index) if spec.scope == "pooled" else test_index
    bounds = np.searchsorted(test_index, np.arange(len(pairs) + 1))

    def score(hyper: boosting.GBoostHyper) -> float:
        models = _fit_groups(spec, dataset, rows, levels, hyper, tuning)
        raw = boosting.gboost_raw_predict(boosting.stack_gboost(list(models.values()), levels), which, X_test)
        return sum(float(metrics.mtl(raw[a:b].T, y_test[a:b], levels)) for a, b in zip(bounds, bounds[1:]))

    return qr.grid_search(score, grid)


# ---------------------------------------------------------------------------
# Model serialization (versioned JSON)
# ---------------------------------------------------------------------------


def _pair_from_doc(value, index: dict[str, int], path: str) -> ODPair:
    if not (isinstance(value, list) and len(value) == 2 and all(isinstance(v, str) and v in index for v in value)):
        raise ConfigError(path, f"expected [origin, destination] of model.labels, got {value!r}")
    if value[0] == value[1]:
        raise ConfigError(path, f"self-loop OD pair {value[0]!r}")
    return ODPair(index[value[0]], index[value[1]])


def _pairs_by_name(pairs, labels) -> dict[str, ODPair]:
    """The pairs by their `pair_name` in `labels`; raises naming two pairs that share one."""
    named = {}
    for pair in pairs:
        other = named.setdefault(pair_name(pair, labels), pair)
        if other != pair:
            ends = [[labels[p.origin], labels[p.destination]] for p in (other, pair)]
            raise ConfigError("model.pairs", f"{ends[0]} and {ends[1]} are both named {pair_name(pair, labels)!r}")
    return named


def _spec_doc(spec: ModelSpec) -> dict:
    """Every field of the spec, its gboost hyperparameters nested, the exam period's dates in ISO form."""
    return {**asdict(spec), "exam_period": [d.isoformat() for d in spec.exam_period] if spec.exam_period else None}


def _finite(value, owner: str, field: str):
    """`value` (a number or an array), unless any of it is NaN or infinite."""
    if not np.all(np.isfinite(value)):
        raise ValueError(f"model {owner}: non-finite {field}")
    return value


def _inner_doc(family: str, model) -> dict:
    if family == "hp":  # the train series, grouped by (weekday, hour), each group in time order
        cells = weekday_of(model.timestamps) * 24 + hour_of(model.timestamps)
        order = np.argsort(cells, kind="stable")
        keys, starts = np.unique(cells[order], return_index=True)
        groups = zip(np.split(model.timestamps[order], starts[1:]), np.split(model.values[order], starts[1:]))
        return {
            "buckets": [
                {"dow": cell // 24, "tod": cell % 24, "timestamps": [format_hour(t) for t in ts], "counts": v.tolist()}
                for cell, (ts, v) in zip(keys.tolist(), groups)
            ]
        }
    if family == "linear":
        return {
            "coef": {str(q): model.coef[q].tolist() for q in model.levels},
            "converged": {str(q): model.converged.get(q, True) for q in model.levels},
        }
    return {
        "init": {str(q): model.init[q] for q in model.levels},
        "trees": {
            str(q): [boosting.tree_to_doc(model.trees[q], t) for t in range(len(model.trees[q]))]
            for q in model.levels
        },
    }


def _series_from_doc(doc: dict, path: str, pair: ODPair) -> ODCountSeries:
    """The train series that `_inner_doc` wrote as (weekday, hour) buckets, joined in time order."""
    buckets = [(np.empty(0, dtype="datetime64[h]"), np.empty(0))]
    for j, bucket in enumerate(doc_field(doc, f"{path}.buckets", list)):
        at = f"{path}.buckets[{j}]"
        dow, tod = (parse_int(doc_field(json_object(bucket, at), f"{at}.{k}"), f"{at}.{k}", 0) for k in ("dow", "tod"))
        texts, counts = (doc_field(bucket, f"{at}.{k}", list) for k in ("timestamps", "counts"))
        ts = np.array([parse_iso_hour(t, f"{at}.timestamps[{i}]") for i, t in enumerate(texts)], dtype="datetime64[h]")
        values = np.array([parse_float(v, f"{at}.counts[{i}]") for i, v in enumerate(counts)])
        off = np.flatnonzero((weekday_of(ts) != dow) | (hour_of(ts) != tod))
        if len(off):
            raise ConfigError(f"{at}.timestamps[{off[0]}]", f"{texts[off[0]]} is not on weekday {dow} hour {tod}")
        if len(values) != len(ts):
            raise ConfigError(f"{at}.counts", f"{len(values)} counts for {len(ts)} timestamps")
        bad = np.flatnonzero(~(np.isfinite(values) & (values >= 0) & (values == np.round(values))))
        if len(bad):
            raise ConfigError(f"{at}.counts[{bad[0]}]", f"not a count: {counts[bad[0]]!r}")
        buckets.append((ts, values))
    ts, values = (np.concatenate(column) for column in zip(*buckets))
    order = np.argsort(ts, kind="stable")
    twice = np.flatnonzero(np.diff(ts[order]) == np.timedelta64(0, "h"))
    if len(twice):
        raise ConfigError(f"{path}.buckets", f"hour {format_hour(ts[order][twice[0]])} appears twice")
    return ODCountSeries(pair, ts[order], values[order].astype(np.int64))


def _by_level(doc: dict, path: str, levels) -> list[tuple[float, str, object]]:
    """The object at field `path` as (level, path, value) of each of its entries, in the order of `levels`.

    Each key is read as a number on its path; the keys must be `levels`
    exactly, once each: the first extra key, then the first missing level,
    is named.
    """
    entries = {}
    for key, value in doc_field(doc, path, dict).items():
        at = f"{path}.{key}"
        try:
            q = float(key)
        except ValueError:
            raise ConfigError(at, f"not a number: {key!r}") from None
        if q in entries:
            raise ConfigError(at, f"a second entry of level {q}")
        if q not in levels:
            raise ConfigError(at, f"not one of model.levels {list(levels)}")
        entries[q] = (at, value)
    for q in levels:
        if q not in entries:
            raise ConfigError(f"{path}.{q}", "missing required field")
    return [(q, *entries[q]) for q in levels]


def _inner_from_doc(family: str, doc, name: str, pair, levels, spec: ModelSpec, n_features: int):
    path = f"model.models.{name}"
    json_object(doc, path)
    if family == "hp":
        return _series_from_doc(doc, path, pair)
    if family == "linear":
        coef, converged = {}, {}
        for q, at, values in _by_level(doc, f"{path}.coef", levels):
            beta = np.array([parse_float(v, f"{at}[{i}]") for i, v in enumerate(json_list(values, at))])
            coef[q] = _finite(beta, f"{name}, level {q}", "coef")
            if len(beta) != n_features:
                raise ValueError(f"model {name}, level {q}: {len(beta)} coefficients for {n_features} features")
        for q, at, flag in _by_level(doc, f"{path}.converged", levels):
            if not isinstance(flag, bool):
                raise ConfigError(at, f"expected true or false, got {flag!r}")
            converged[q] = flag
        return qr.LinearQRModel(levels, coef, converged)
    init = {q: _finite(parse_float(v, at), f"{name}, level {q}", "init")
            for q, at, v in _by_level(doc, f"{path}.init", levels)}
    trees = {}
    for q, at, docs in _by_level(doc, f"{path}.trees", levels):
        owner = f"{name}, level {q}"
        forest = trees[q] = boosting.Forest.empty(len(json_list(docs, at)), spec.gboost.max_depth)
        for t, tree in enumerate(docs):
            boosting.tree_from_doc(tree, forest, t, owner, n_features, f"{at}[{t}]")
        _finite(forest.threshold, owner, "tree threshold")
        _finite(forest.value, owner, "tree value")
    return boosting.GBoostQRModel(levels, spec.gboost, init, trees)


def model_to_json_dict(model: TrainedDemandModel) -> dict:
    _pairs_by_name(model.pair_order, model.labels)  # each inner model and seasonal entry is keyed by its pair's name
    doc = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "spec": _spec_doc(model.spec),
        "levels": list(model.levels),
        "labels": model.labels,
        "pairs": [[model.labels[p.origin], model.labels[p.destination]] for p in model.pair_order],
        "models": {},
        "seasonal": {},
    }
    for key, inner in model.models.items():
        name = "pooled" if key is None else pair_name(key, model.labels)
        doc["models"][name] = _inner_doc(model.spec.family, inner)
    stats = model.seasonal
    for i, dow, tod in np.argwhere(~np.isnan(stats.mean)).tolist() if stats is not None else ():  # (dow, tod) order
        name = pair_name(stats.pairs[i], model.labels)
        cell = {"dow": dow, "tod": tod, "mean": float(stats.mean[i, dow, tod]), "std": float(stats.std[i, dow, tod])}
        doc["seasonal"].setdefault(name, {"cells": []})["cells"].append(cell)
    return doc


def model_from_json_dict(doc: dict) -> TrainedDemandModel:
    if doc.get("schema_version") != MODEL_SCHEMA_VERSION:
        raise ValueError(f"unsupported model schema version {doc.get('schema_version')}")
    spec = parse_model(doc_field(doc, "model.spec", dict), "model spec", defaults=False)
    labels = list(doc_field(doc, "model.labels", list))
    if not all(isinstance(label, str) for label in labels) or len(set(labels)) != len(labels):
        raise ConfigError("model.labels", f"expected distinct strings, got {labels!r}")
    index = {lab: i for i, lab in enumerate(labels)}
    levels = parse_levels(doc_field(doc, "model.levels"), "model.levels")
    pairs = doc_field(doc, "model.pairs", list)
    if not pairs:
        raise ConfigError("model.pairs", "expected at least one pair, got []")
    pair_order = tuple(_pair_from_doc(p, index, f"model.pairs[{i}]") for i, p in enumerate(pairs))
    n_features = spec.feature_config().n_features(len(pair_order))

    keys = {"pooled": None, **_pairs_by_name(pair_order, labels)}
    models: dict[ODPair | None, object] = {}
    for name, inner_doc in doc_field(doc, "model.models", dict).items():
        key = keys[name] if name in keys else _pair_from_doc(name.split(">"), index, f"model.models.{name}")
        models[key] = _inner_from_doc(spec.family, inner_doc, name, key, levels, spec, n_features)
    for key in [None] if spec.scope == "pooled" else pair_order:
        if key not in models:
            raise ValueError(f"model {'pooled' if key is None else pair_name(key, labels)}: missing")

    seasonal = None
    if spec.seasonal_normalize:
        seasonal = _seasonal_from_doc(doc_field(doc, "model.seasonal", dict, {}), pair_order, labels)
    return TrainedDemandModel(spec, levels, labels, pair_order, models, seasonal)


def _seasonal_from_doc(doc: dict, pair_order, labels) -> qr.SeasonalStats:
    """The seasonal section: under each pair's name its cells, at least one, each (weekday, hour) once."""
    names = _pairs_by_name(pair_order, labels)
    for name in doc:
        if name not in names:
            raise ConfigError(f"model.seasonal.{name}", "names no pair of model.pairs")
    mean, std = np.full((2, len(pair_order), 7, 24), np.nan)
    for i, pair in enumerate(pair_order):
        name = pair_name(pair, labels)
        path = f"model.seasonal.{name}"
        if name not in doc:
            raise ConfigError(path, "missing required field")
        cells = doc_field(json_object(doc[name], path), f"{path}.cells", list)
        if not cells:
            raise ConfigError(f"{path}.cells", "expected at least one cell, got []")
        first = {}
        for j, cell in enumerate(cells):
            at = f"{path}.cells[{j}]"
            json_object(cell, at)
            dow, tod = (parse_int(doc_field(cell, f"{at}.{k}"), f"{at}.{k}", 0) for k in ("dow", "tod"))
            mu, sigma = (doc_field(cell, f"{at}.{k}") for k in ("mean", "std"))
            where = f"seasonal {name}, cell (dow {dow}, hour {tod})"
            if dow > 6 or tod > 23:
                raise ValueError(f"model {where}: no such weekday and hour")
            if (earlier := first.setdefault((dow, tod), j)) != j:
                raise ConfigError(at, f"repeats {path}.cells[{earlier}], (dow {dow}, hour {tod})")
            mean[i, dow, tod] = _finite(parse_float(mu, f"{at}.mean"), where, "mean")
            std[i, dow, tod] = _finite(parse_float(sigma, f"{at}.std"), where, "std")
    return qr.SeasonalStats(pair_order, mean, std)


def save_model(model: TrainedDemandModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_json_dict(model), fh, sort_keys=True)
        fh.write("\n")


def load_model(path) -> TrainedDemandModel:
    with open(path, encoding="utf-8") as fh:
        return model_from_json_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Forecast CSV export
# ---------------------------------------------------------------------------


def forecasts_to_csv(forecasts, labels, path) -> None:
    """Rows of `timestamp, origin, destination, q, value`, sorted."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "origin", "destination", "q", "value"])
        for t in sorted(forecasts):
            for pair, fc in sorted(forecasts[t].items()):
                ends = [format_hour(t), labels[pair.origin], labels[pair.destination]]
                writer.writerows([*ends, f"{q:g}", f"{fc.values[q]:.10g}"] for q in sorted(fc.values))
