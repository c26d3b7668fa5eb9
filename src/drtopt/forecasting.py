"""Training and prediction orchestration across OD pairs.

Wires the preprocessing chain (difference, mask, optional seasonal
normalization) into the model families, produces per-lag forecasts on the
count scale, and serializes trained models to versioned JSON.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from datetime import date, timedelta

import numpy as np

from . import boosting, qr
from .data import (
    HOUR,
    TOD_HOURS,
    FeatureConfig,
    HourlySeries,
    ODDataset,
    ODPair,
    SplitSpec,
    build_features,
    check_stationarity,
    counts_at,
    difference,
    format_hour,
    hour_of,
    mask_lags,
    parse_hour,
    train_series,
)

log = logging.getLogger(__name__)

MODEL_SCHEMA_VERSION = 1
FAMILIES = ("hp", "linear", "gboost")
SCOPES = ("per_pair", "pooled")


@dataclass(frozen=True)
class ModelSpec:
    """Which family to fit and how the feature map is configured."""

    family: str = "linear"
    scope: str = "per_pair"
    sort_quantiles: bool = True
    exam_period: tuple[date, date] | None = None
    seasonal_normalize: bool = False
    cross_lags: bool = False
    cross_order: int = 1
    ar_order: int = 24
    gboost: boosting.GBoostHyper = boosting.GBoostHyper()

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown model family {self.family!r}")
        if self.scope not in SCOPES:
            raise ValueError(f"unknown model scope {self.scope!r}")
        if self.cross_lags and self.scope == "pooled":
            raise ValueError("cross-pair lags and pooled scope are mutually exclusive")
        if self.family == "hp" and self.scope == "pooled":
            raise ValueError("historical percentiles are fit per pair only")

    def feature_config(self, pair_order: tuple[ODPair, ...]) -> FeatureConfig:
        return FeatureConfig(
            exam_period=self.exam_period,
            ar_order=self.ar_order,
            cross_lags=self.cross_lags,
            cross_order=self.cross_order,
            od_onehot=self.scope == "pooled",
            pair_order=pair_order,
        )


@dataclass
class TrainedDemandModel:
    spec: ModelSpec
    levels: tuple[float, ...]
    labels: list[str]
    pair_order: tuple[ODPair, ...]
    models: dict[ODPair | None, object]  # None key = pooled scope
    seasonal: dict[ODPair, qr.SeasonalStats] = field(default_factory=dict)

    @property
    def feature_cfg(self) -> FeatureConfig:
        return self.spec.feature_config(self.pair_order)

    def model_for(self, pair: ODPair):
        return self.models[None] if self.spec.scope == "pooled" else self.models[pair]


def working_series(
    dataset: ODDataset, split: SplitSpec, check_unit_root: bool = False
) -> dict[ODPair, HourlySeries]:
    """Differenced-and-masked series per pair (the model fitting scale)."""
    out = {}
    for pair in dataset.pairs:
        diffed = difference(dataset.series[pair])
        if check_unit_root:
            check_stationarity(diffed)
        out[pair] = mask_lags(diffed, split)
    return out


def _group_rows(
    dataset: ODDataset, split: SplitSpec, spec: ModelSpec, check_unit_root: bool = False
) -> tuple[dict[ODPair | None, list], dict[ODPair, qr.SeasonalStats]]:
    """Each fitted model's train rows, one (X, y, stamps) per pair, and the seasonal stats.

    The rows come from the working series, seasonally normalized by
    train-range stats when the spec asks.  Pooled scope fits one model,
    keyed None, over every pair; otherwise each pair is its own group.
    """
    histories = working_series(dataset, split, check_unit_root)
    seasonal: dict[ODPair, qr.SeasonalStats] = {}
    if spec.seasonal_normalize:
        for pair, series in histories.items():
            keep = split.in_train(series.timestamps)
            seasonal[pair] = qr.fit_seasonal_stats(HourlySeries(pair, series.timestamps[keep], series.values[keep]))
            histories[pair] = qr.seasonal_normalize(series, seasonal[pair])
    cfg = spec.feature_config(tuple(dataset.pairs))
    rows = {}
    for pair, series in histories.items():
        keep = split.in_train(series.timestamps)
        X, usable = build_features(histories, series.timestamps[keep], pair, cfg)
        if not usable.any():
            raise ValueError(f"no usable training lags for pair {pair}")
        rows[pair] = X[usable], series.values[keep][usable], series.timestamps[keep][usable]
    if spec.scope == "pooled":
        return {None: list(rows.values())}, seasonal
    return {pair: [r] for pair, r in rows.items()}, seasonal


def _in_range(stamps: np.ndarray, rng: tuple[date, date]) -> np.ndarray:
    days = stamps.astype("datetime64[D]")
    return (days >= np.datetime64(rng[0])) & (days <= np.datetime64(rng[1]))


def _fit_groups(spec: ModelSpec, groups, levels, hyper: boosting.GBoostHyper, tuning=None, patience: int = 10):
    """One model of the spec's family per group, fit on its pairs' stacked rows.

    With `tuning` (the ranges of `tuning_ranges`), the fit takes the
    tuning-train rows and the tuning-val rows drive early stopping.
    """
    models = {}
    for key, rows in groups.items():
        X, y, stamps = (np.concatenate(part) for part in zip(*rows))
        val = None
        if tuning is not None:
            _, val_range, train_range = tuning
            in_val, in_train = _in_range(stamps, val_range), _in_range(stamps, train_range)
            val, X, y = (X[in_val], y[in_val]), X[in_train], y[in_train]
        if spec.family == "linear":
            models[key] = qr.fit_lqr(X, y, levels)
        else:
            models[key] = boosting.fit_gboost(X, y, levels, hyper, val=val, patience=patience)
    return models


def train_model(
    dataset: ODDataset,
    split: SplitSpec,
    spec: ModelSpec,
    levels=qr.DEFAULT_QUANTILES,
) -> TrainedDemandModel:
    pair_order = tuple(dataset.pairs)
    labels = [loc.label for loc in dataset.locations]
    if spec.family == "hp":
        models = {pair: qr.fit_hp(train_series(dataset.series[pair], split), levels) for pair in pair_order}
        return TrainedDemandModel(spec, tuple(levels), labels, pair_order, models)
    groups, seasonal = _group_rows(dataset, split, spec, check_unit_root=True)
    models = _fit_groups(spec, groups, levels, spec.gboost)
    return TrainedDemandModel(spec, tuple(levels), labels, pair_order, models, seasonal)


def evaluation_lags(dataset: ODDataset, split: SplitSpec) -> np.ndarray:
    """Unmasked test-range lags present in the data (union over pairs)."""
    stamps = set()
    for pair in dataset.pairs:
        ts = dataset.series[pair].timestamps
        keep = split.in_test(ts) & ~split.mask_array(ts)
        stamps.update(ts[keep])
    return np.array(sorted(stamps), dtype="datetime64[h]")


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


def _predict_pair(
    model: TrainedDemandModel,
    dataset: ODDataset,
    histories: dict[ODPair, HourlySeries],
    pair: ODPair,
    lags: np.ndarray,
) -> np.ndarray:
    """Count-scale forecasts (lags x levels) for one pair, one step ahead of each lag."""
    prev = counts_at(dataset.series[pair], lags - HOUR)
    X, usable = build_features(histories, lags, pair, model.feature_cfg)
    if not usable.all():
        t = lags[~usable][0]
        hour = int(hour_of(t))
        if hour not in TOD_HOURS:
            raise ValueError(f"hour {hour} outside modeled range {TOD_HOURS[0]}..{TOD_HOURS[-1]}")
        raise ValueError(f"insufficient history before {format_hour(t)} for pair {pair}")
    inner = model.model_for(pair)
    if model.spec.family == "linear":
        raw = qr.lqr_raw_predict(inner, X)
    else:
        raw = boosting.gboost_raw_predict(inner, X)
    scales = None
    if model.spec.seasonal_normalize:
        scales = [model.seasonal[pair].scale_at(t) for t in lags]
    raw = np.column_stack([raw[q] for q in model.levels])
    return to_count_scale(raw, prev, scales, model.spec.sort_quantiles)


def predict_forecasts(
    model: TrainedDemandModel,
    dataset: ODDataset,
    split: SplitSpec,
    lags: np.ndarray | None = None,
) -> dict[np.datetime64, dict[ODPair, qr.QuantileForecast]]:
    """One-step-ahead count-scale forecasts for every pair at every lag."""
    lags = evaluation_lags(dataset, split) if lags is None else np.asarray(lags, dtype="datetime64[h]")
    if model.spec.family == "hp":
        return {t: {pair: qr.predict_hp(model.models[pair], t) for pair in model.pair_order} for t in lags}
    histories = working_series(dataset, split)
    if model.spec.seasonal_normalize:
        histories = {p: qr.seasonal_normalize(s, model.seasonal[p]) for p, s in histories.items()}
    values = {pair: _predict_pair(model, dataset, histories, pair, lags) for pair in model.pair_order}
    return {
        t: {
            pair: qr.QuantileForecast(pair, t, dict(zip(model.levels, values[pair][i].tolist())))
            for pair in model.pair_order
        }
        for i, t in enumerate(lags)
    }


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
    patience: int = 10,
) -> tuple[boosting.GBoostHyper, list[float]]:
    """Pick boosting hyperparameters by total tuning-test MTL, ties first-wins.

    The rows are the ones training uses, seasonally normalized when the spec
    asks; each pair's tuning-test loss counts once.
    """
    if spec.family != "gboost":
        raise ValueError("grid search applies to the gboost family only")
    tuning = tuning_ranges(split)
    groups, _ = _group_rows(dataset, split, spec)

    def score(hyper: boosting.GBoostHyper) -> float:
        models = _fit_groups(spec, groups, levels, hyper, tuning, patience)
        total = 0.0
        for key, rows in groups.items():
            for X, y, stamps in rows:
                in_test = _in_range(stamps, tuning[0])
                raw = boosting.gboost_raw_predict(models[key], X[in_test])
                total += sum(float(np.mean(qr.tilted_loss(q, y[in_test], raw[q]))) for q in levels)
        return total

    return qr.grid_search(score, grid)


# ---------------------------------------------------------------------------
# Model serialization (versioned JSON)
# ---------------------------------------------------------------------------


def _pair_doc(pair: ODPair, labels) -> list[str]:
    return [labels[pair.origin], labels[pair.destination]]


def _spec_doc(spec: ModelSpec) -> dict:
    return {
        "family": spec.family,
        "scope": spec.scope,
        "sort_quantiles": spec.sort_quantiles,
        "exam_period": [d.isoformat() for d in spec.exam_period] if spec.exam_period else None,
        "seasonal_normalize": spec.seasonal_normalize,
        "cross_lags": spec.cross_lags,
        "cross_order": spec.cross_order,
        "ar_order": spec.ar_order,
        "gboost": {
            "learning_rate": spec.gboost.learning_rate,
            "max_depth": spec.gboost.max_depth,
            "n_trees": spec.gboost.n_trees,
        },
    }


def _spec_from_doc(doc: dict) -> ModelSpec:
    exam = doc.get("exam_period")
    return ModelSpec(
        family=doc["family"],
        scope=doc["scope"],
        sort_quantiles=bool(doc["sort_quantiles"]),
        exam_period=tuple(date.fromisoformat(d) for d in exam) if exam else None,
        seasonal_normalize=bool(doc.get("seasonal_normalize", False)),
        cross_lags=bool(doc.get("cross_lags", False)),
        cross_order=int(doc.get("cross_order", 1)),
        ar_order=int(doc.get("ar_order", 24)),
        gboost=boosting.GBoostHyper(**doc.get("gboost", {})),
    )


def _finite(value, owner: str, field: str):
    """`value` (a number or an array), unless any of it is NaN or infinite."""
    if not np.all(np.isfinite(value)):
        raise ValueError(f"model {owner}: non-finite {field}")
    return value


def _inner_doc(family: str, model) -> dict:
    if family == "hp":
        return {
            "buckets": [
                {
                    "dow": key[0],
                    "tod": key[1],
                    "timestamps": [format_hour(t) for t in ts],
                    "counts": values.tolist(),
                }
                for key, (ts, values) in sorted(model.buckets.items())
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


def _forest_from_doc(docs: list, max_depth: int, n_features: int, owner: str) -> boosting.Forest:
    forest = boosting.Forest.empty(len(docs), max_depth)
    for t, doc in enumerate(docs):
        boosting.tree_from_doc(doc, forest, t, owner, n_features)
    _finite(forest.threshold, owner, "tree threshold")
    _finite(forest.value, owner, "tree value")
    return forest


def _inner_from_doc(family: str, doc: dict, name: str, pair, levels, spec: ModelSpec, n_features: int):
    if family == "hp":
        buckets = {
            (b["dow"], b["tod"]): (
                np.array([parse_hour(t) for t in b["timestamps"]], dtype="datetime64[h]"),
                np.array(b["counts"], dtype=np.float64),
            )
            for b in doc["buckets"]
        }
        return qr.HPModel(pair, levels, buckets)
    if family == "linear":
        coef = {float(q): _finite(np.array(v, dtype=np.float64), f"{name}, level {q}", "coef")
                for q, v in doc["coef"].items()}
        converged = {float(q): bool(v) for q, v in doc["converged"].items()}
        return qr.LinearQRModel(levels, coef, converged)
    init = {float(q): _finite(float(v), f"{name}, level {q}", "init") for q, v in doc["init"].items()}
    trees = {
        float(q): _forest_from_doc(ts, spec.gboost.max_depth, n_features, f"{name}, level {q}")
        for q, ts in doc["trees"].items()
    }
    return boosting.GBoostQRModel(levels, spec.gboost, init, trees)


def model_to_json_dict(model: TrainedDemandModel) -> dict:
    doc = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "spec": _spec_doc(model.spec),
        "levels": list(model.levels),
        "labels": model.labels,
        "pairs": [_pair_doc(p, model.labels) for p in model.pair_order],
        "models": {},
        "seasonal": {},
    }
    for key, inner in model.models.items():
        name = "pooled" if key is None else ">".join(_pair_doc(key, model.labels))
        doc["models"][name] = _inner_doc(model.spec.family, inner)
    for pair, stats in model.seasonal.items():
        doc["seasonal"][">".join(_pair_doc(pair, model.labels))] = {
            "cells": [
                {"dow": k[0], "tod": k[1], "mean": stats.mean[k], "std": stats.std[k]}
                for k in sorted(stats.mean)
            ]
        }
    return doc


def model_from_json_dict(doc: dict) -> TrainedDemandModel:
    if doc.get("schema_version") != MODEL_SCHEMA_VERSION:
        raise ValueError(f"unsupported model schema version {doc.get('schema_version')}")
    spec = _spec_from_doc(doc["spec"])
    labels = list(doc["labels"])
    index = {lab: i for i, lab in enumerate(labels)}
    levels = tuple(float(q) for q in doc["levels"])
    pair_order = tuple(ODPair(index[o], index[d]) for o, d in doc["pairs"])
    n_features = spec.feature_config(pair_order).n_features(len(pair_order))

    models: dict[ODPair | None, object] = {}
    for name, inner_doc in doc["models"].items():
        if name == "pooled":
            key = None
        else:
            o, d = name.split(">")
            key = ODPair(index[o], index[d])
        models[key] = _inner_from_doc(spec.family, inner_doc, name, key, levels, spec, n_features)

    seasonal = {}
    for name, sdoc in doc.get("seasonal", {}).items():
        o, d = name.split(">")
        mean, std = {}, {}
        for c in sdoc["cells"]:
            where = f"seasonal {name}, cell (dow {c['dow']}, hour {c['tod']})"
            mean[(c["dow"], c["tod"])] = _finite(float(c["mean"]), where, "mean")
            std[(c["dow"], c["tod"])] = _finite(float(c["std"]), where, "std")
        seasonal[ODPair(index[o], index[d])] = qr.SeasonalStats(mean, std)
    return TrainedDemandModel(spec, levels, labels, pair_order, models, seasonal)


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
    import csv as _csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["timestamp", "origin", "destination", "q", "value"])
        for t in sorted(forecasts):
            for pair in sorted(forecasts[t]):
                fc = forecasts[t][pair]
                for q in fc.levels():
                    writer.writerow(
                        [
                            format_hour(t),
                            labels[pair.origin],
                            labels[pair.destination],
                            f"{q:g}",
                            f"{fc.values[q]:.10g}",
                        ]
                    )


def forecasts_from_csv(path) -> tuple[list[str], dict]:
    import csv as _csv

    cells: dict[tuple[np.datetime64, str, str], dict[float, float]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = _csv.reader(fh)
        header = next(reader)
        if header != ["timestamp", "origin", "destination", "q", "value"]:
            raise ValueError(f"{path}: unexpected forecast CSV header")
        for row in reader:
            if not row:
                continue
            t, o, d, q, v = row
            cells.setdefault((parse_hour(t), o, d), {})[float(q)] = float(v)
    labels = sorted({o for _, o, _ in cells} | {d for _, _, d in cells})
    index = {lab: i for i, lab in enumerate(labels)}
    out: dict[np.datetime64, dict[ODPair, qr.QuantileForecast]] = {}
    for (t, o, d), values in cells.items():
        pair = ODPair(index[o], index[d])
        out.setdefault(t, {})[pair] = qr.QuantileForecast(pair, t, values)
    return labels, out
