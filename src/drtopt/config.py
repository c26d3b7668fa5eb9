"""Pipeline configuration: one JSON document, validated with field paths."""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import date
from pathlib import Path

from .boosting import GBoostHyper
from .data import DEFAULT_MASKED_HOURS, CAMPUS_2017_EXAMS, SplitSpec, campus_2017_split, parse_hour
from .forecasting import ModelSpec
from .qr import DEFAULT_QUANTILES

CONFIG_SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Configuration problem, carrying the path of the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"config.{path}: {message}")
        self.path = path


@dataclass
class PipelineConfig:
    seed: int
    counts_csv: Path
    network: Path | None
    split: SplitSpec
    quantiles: tuple[float, ...]
    model: ModelSpec
    k: int
    lags: list[str]  # ISO hour strings; empty = all unmasked test lags
    output_dir: Path
    threads: int = 1  # kept for compatibility; has no effect
    copula_min_lags: int = 30
    gboost_grid: tuple[GBoostHyper, ...] = ()  # non-empty: tune before training


_REQUIRED = object()
_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", bool: "true or false"}


def _field(doc: dict, path: str, kind: type = object, default=_REQUIRED):
    """The field at `path`, the last key of which is looked up in `doc`.

    `default` stands in when it is absent, and a value not of JSON type
    `kind` is rejected; a null passes only where the default is null.
    """
    key = path.rsplit(".", 1)[-1]
    if key not in doc and default is _REQUIRED:
        raise ConfigError(path, "missing required field")
    value = doc.get(key, default)
    if not isinstance(value, kind) and not (value is None and default is None):
        raise ConfigError(path, f"expected {_JSON_TYPES[kind]}, got {value!r}")
    return value


def _parse_int(value, path: str, minimum: int) -> int:
    try:
        if isinstance(value, float) and not value.is_integer():
            raise ValueError  # int() would truncate it
        number = int(value)
    except (TypeError, ValueError):
        raise ConfigError(path, f"not an integer: {value!r}") from None
    if number < minimum:
        raise ConfigError(path, f"must be >= {minimum}")
    return number


def _parse_float(value, path: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(path, f"not a number: {value!r}") from None


def _parse_date(text, path: str) -> date:
    try:
        return date.fromisoformat(text)
    except (TypeError, ValueError):
        raise ConfigError(path, f"not an ISO date: {text!r}") from None


def _parse_range(rng, path: str, expected: str = "[start, end]") -> tuple[date, date]:
    if not (isinstance(rng, list) and len(rng) == 2):
        raise ConfigError(path, f"expected {expected}")
    return tuple(_parse_date(d, path) for d in rng)


def _parse_split(doc, path: str) -> SplitSpec:
    if doc is None or doc.get("preset") == "campus-2017":
        return campus_2017_split()
    if "preset" in doc:
        raise ConfigError(f"{path}.preset", f"unknown preset {doc['preset']!r}")
    train, test = (_parse_range(_field(doc, f"{path}.{key}"), f"{path}.{key}") for key in ("train", "test"))
    hours = _field(doc, f"{path}.masked_hours", list, sorted(DEFAULT_MASKED_HOURS))
    if not all(isinstance(h, int) and 0 <= h <= 23 for h in hours):
        raise ConfigError(f"{path}.masked_hours", "hours must be integers in 0..23")
    ranges = _field(doc, f"{path}.masked_date_ranges", list, [])
    ranges = tuple(_parse_range(rng, f"{path}.masked_date_ranges[{i}]") for i, rng in enumerate(ranges))
    try:
        return SplitSpec(train, test, frozenset(hours), ranges)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _parse_model(doc, path: str) -> ModelSpec:
    exam = doc.get("exam_period", "campus-2017")
    if exam == "campus-2017":
        exam_period = CAMPUS_2017_EXAMS
    elif exam is None:
        exam_period = None
    else:
        exam_period = _parse_range(exam, f"{path}.exam_period", '[start, end], null, or "campus-2017"')
    hyper = _parse_hyper(doc.get("gboost", {}), f"{path}.gboost")
    cross_order = _parse_int(doc.get("cross_order", 1), f"{path}.cross_order", 0)
    ar_order = _parse_int(doc.get("ar_order", 24), f"{path}.ar_order", 0)
    flags = {key: _field(doc, f"{path}.{key}", bool, default)
             for key, default in (("sort_quantiles", True), ("seasonal_normalize", False), ("cross_lags", False))}
    try:
        return ModelSpec(
            family=doc.get("family", "linear"),
            scope=doc.get("scope", "per_pair"),
            exam_period=exam_period,
            **flags,
            cross_order=cross_order,
            ar_order=ar_order,
            gboost=hyper,
        )
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _parse_hyper(doc, path: str) -> GBoostHyper:
    if not isinstance(doc, dict):
        raise ConfigError(path, f"expected an object of hyperparameters, got {doc!r}")
    hyper = GBoostHyper(
        learning_rate=_parse_float(doc.get("learning_rate", 0.1), f"{path}.learning_rate"),
        max_depth=_parse_int(doc.get("max_depth", 3), f"{path}.max_depth", 0),
        n_trees=_parse_int(doc.get("n_trees", 50), f"{path}.n_trees", 1),
    )
    try:
        return hyper.validate()
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _parse_grid(doc, path: str) -> tuple[GBoostHyper, ...]:
    points = _field(doc, f"{path}.gboost_grid", list, [])
    return tuple(_parse_hyper(point, f"{path}.gboost_grid[{i}]") for i, point in enumerate(points))


def config_from_json_dict(doc: dict, base_dir: Path) -> PipelineConfig:
    if doc.get("schema_version", CONFIG_SCHEMA_VERSION) != CONFIG_SCHEMA_VERSION:
        raise ConfigError("schema_version", f"unsupported version {doc['schema_version']}")
    seed = _field(doc, "seed")
    if not isinstance(seed, int):
        raise ConfigError("seed", "must be an integer (wall-clock seeding is not supported)")
    data = _field(doc, "data", dict)
    counts = base_dir / _field(data, "data.counts_csv", str)

    quantiles = doc.get("quantiles", DEFAULT_QUANTILES)
    if not isinstance(quantiles, (list, tuple)):
        raise ConfigError("quantiles", f"expected a list of levels, got {quantiles!r}")
    quantiles = tuple(_parse_float(q, f"quantiles[{i}]") for i, q in enumerate(quantiles))
    if any(not 0 < q < 1 for q in quantiles) or list(quantiles) != sorted(set(quantiles)):
        raise ConfigError("quantiles", "must be strictly increasing values in (0,1)")

    optimize = _field(doc, "optimize", dict, {})
    k = _parse_int(optimize.get("k", 100), "optimize.k", 1)
    lags = list(_field(optimize, "optimize.lags", list, []))
    for i, text in enumerate(lags):
        try:
            parse_hour(text)
        except (AttributeError, ValueError):
            raise ConfigError(f"optimize.lags[{i}]", f"not an ISO hour such as 2018-01-08T08: {text!r}") from None

    network = _field(doc, "network", str, None)
    threads = _parse_int(doc.get("threads", 1), "threads", 1)

    model_doc = _field(doc, "model", dict, None) or {}
    model = _parse_model(model_doc, "model")
    grid = _parse_grid(model_doc, "model")
    if grid and model.family != "gboost":
        raise ConfigError("model.gboost_grid", "grid search applies to the gboost family only")

    return PipelineConfig(
        seed=seed,
        counts_csv=counts,
        network=(base_dir / network) if network else None,
        split=_parse_split(_field(doc, "split", dict, None), "split"),
        quantiles=quantiles,
        model=model,
        k=k,
        lags=lags,
        output_dir=base_dir / _field(doc, "output_dir", str, "out"),
        threads=threads,
        # a correlation needs at least two aligned lags
        copula_min_lags=_parse_int(_field(doc, "copula", dict, {}).get("min_lags", 30), "copula.min_lags", 2),
        gboost_grid=grid,
    )


def load_config(path) -> PipelineConfig:
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("<root>", f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("<root>", f"expected an object, got {doc!r}")
    return config_from_json_dict(doc, path.parent)


def default_config_doc(counts_csv: str, network: str, seed: int) -> dict:
    """A ready-to-run configuration document for generated data."""
    return {
        "schema_version": CONFIG_SCHEMA_VERSION,
        "seed": seed,
        "data": {"counts_csv": counts_csv},
        "network": network,
        "split": {"preset": "campus-2017"},
        "quantiles": list(DEFAULT_QUANTILES),
        "model": {"family": "linear", "scope": "per_pair", "sort_quantiles": True},
        "optimize": {"k": 100, "lags": []},
        "output_dir": "out",
        "threads": 1,
    }
