"""Pipeline configuration: one JSON document, validated with field paths.

The same checked field readers parse a saved model, its spec and every
inner model (`forecasting.model_from_json_dict`, `boosting.tree_from_doc`),
and a network document (`tndfs.instance_from_json_dict`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import date
from pathlib import Path

from .data import (
    DEFAULT_MASKED_HOURS,
    CAMPUS_2017_EXAMS,
    FeatureConfig,
    SplitSpec,
    campus_2017_split,
    parse_hour,
)
from .qr import DEFAULT_QUANTILES

CONFIG_SCHEMA_VERSION = 1
FAMILIES = ("hp", "linear", "gboost")
SCOPES = ("per_pair", "pooled")


class ConfigError(ValueError):
    """A malformed input field, named by its full path, such as config.model.ar_order."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class GBoostHyper:
    learning_rate: float = 0.1
    max_depth: int = 3
    n_trees: int = 50

    def validate(self) -> "GBoostHyper":
        if not 0.0 <= self.learning_rate <= 1.0:
            raise ValueError(f"learning_rate must be in [0, 1], got {self.learning_rate}")
        if not 0 <= self.max_depth <= 6:
            raise ValueError(f"max_depth must be in 0..6, got {self.max_depth}")
        if not 1 <= self.n_trees <= 200:
            raise ValueError(f"n_trees must be in 1..200, got {self.n_trees}")
        return self


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
    gboost: GBoostHyper = GBoostHyper()

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown model family {self.family!r}")
        if self.scope not in SCOPES:
            raise ValueError(f"unknown model scope {self.scope!r}")
        if self.cross_lags and self.scope == "pooled":
            raise ValueError("cross-pair lags and pooled scope are mutually exclusive")
        if self.family == "hp" and self.scope == "pooled":
            raise ValueError("historical percentiles are fit per pair only")
        if self.family == "hp" and self.seasonal_normalize:
            raise ValueError("historical percentiles are fit without seasonal normalization")
        if self.exam_period is not None and self.exam_period[0] > self.exam_period[1]:
            raise ValueError(f"exam_period: start {self.exam_period[0]} is after end {self.exam_period[1]}")

    def feature_config(self) -> FeatureConfig:
        return FeatureConfig(
            exam_period=self.exam_period,
            ar_order=self.ar_order,
            cross_lags=self.cross_lags,
            cross_order=self.cross_order,
            od_onehot=self.scope == "pooled",
        )


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


def field(doc: dict, path: str, kind: type = object, default=_REQUIRED):
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


def json_object(value, path: str) -> dict:
    """`value`, when it is a JSON object."""
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected an object, got {value!r}")
    return value


def json_list(value, path: str) -> list:
    """`value`, when it is a JSON list."""
    if not isinstance(value, list):
        raise ConfigError(path, f"expected a list, got {value!r}")
    return value


def parse_int(value, path: str, minimum: int) -> int:
    """A JSON integer, or an integral float, of at least `minimum`; true and false are not numbers."""
    if isinstance(value, bool) or not (isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ConfigError(path, f"not an integer: {value!r}")
    if value < minimum:
        raise ConfigError(path, f"must be >= {minimum}")
    return int(value)


def parse_float(value, path: str) -> float:
    """A JSON number; true, false and numeric strings are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"not a number: {value!r}")
    return float(value)


def parse_iso_hour(text, path: str):
    """An hour such as 2018-01-08T08, as `data.parse_hour` reads it."""
    try:
        return parse_hour(text)
    except (AttributeError, ValueError):
        raise ConfigError(path, f"not an ISO hour such as 2018-01-08T08: {text!r}") from None


def parse_levels(values, path: str) -> tuple[float, ...]:
    """A list of quantile levels, strictly increasing in (0, 1)."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(path, f"expected a list of levels, got {values!r}")
    levels = tuple(parse_float(q, f"{path}[{i}]") for i, q in enumerate(values))
    if any(not 0 < q < 1 for q in levels) or list(levels) != sorted(set(levels)):
        raise ConfigError(path, "must be strictly increasing values in (0,1)")
    return levels


def _parse_date(text, path: str) -> date:
    try:
        return date.fromisoformat(text)
    except (TypeError, ValueError):
        raise ConfigError(path, f"not an ISO date: {text!r}") from None


def _parse_range(rng, path: str, expected: str = "[start, end]") -> tuple[date, date]:
    if not (isinstance(rng, list) and len(rng) == 2):
        raise ConfigError(path, f"expected {expected}")
    start, end = (_parse_date(d, path) for d in rng)
    if start > end:
        raise ConfigError(path, f"start {start} is after end {end}")
    return start, end


def _parse_split(doc, path: str) -> SplitSpec:
    if doc is None or doc.get("preset") == "campus-2017":
        return campus_2017_split()
    if "preset" in doc:
        raise ConfigError(f"{path}.preset", f"unknown preset {doc['preset']!r}")
    train, test = (_parse_range(field(doc, f"{path}.{key}"), f"{path}.{key}") for key in ("train", "test"))
    hours = field(doc, f"{path}.masked_hours", list, sorted(DEFAULT_MASKED_HOURS))
    if not all(isinstance(h, int) and not isinstance(h, bool) and 0 <= h <= 23 for h in hours):
        raise ConfigError(f"{path}.masked_hours", "hours must be integers in 0..23")
    ranges = field(doc, f"{path}.masked_date_ranges", list, [])
    ranges = tuple(_parse_range(rng, f"{path}.masked_date_ranges[{i}]") for i, rng in enumerate(ranges))
    try:
        return SplitSpec(train, test, frozenset(hours), ranges)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _reader(doc, path: str, defaults: bool):
    """`doc`'s fields by key, each with its default, or each required when not `defaults`."""
    json_object(doc, path)
    return lambda key, default, kind=object: field(doc, f"{path}.{key}", kind, default if defaults else _REQUIRED)


def parse_model(doc, path: str, defaults: bool = True) -> ModelSpec:
    """The model spec in `doc`: a config's `model`, or, without `defaults`, a saved model's `spec`,
    which holds every field."""
    get = _reader(doc, path, defaults)
    exam = get("exam_period", "campus-2017")
    if exam == "campus-2017":
        exam_period = CAMPUS_2017_EXAMS
    elif exam is None:
        exam_period = None
    else:
        exam_period = _parse_range(exam, f"{path}.exam_period", '[start, end], null, or "campus-2017"')
    hyper = _parse_hyper(get("gboost", {}), f"{path}.gboost", defaults)
    cross_order = parse_int(get("cross_order", 1), f"{path}.cross_order", 0)
    ar_order = parse_int(get("ar_order", 24), f"{path}.ar_order", 0)
    flags = {key: get(key, default, bool)
             for key, default in (("sort_quantiles", True), ("seasonal_normalize", False), ("cross_lags", False))}
    family, scope = get("family", "linear"), get("scope", "per_pair")
    try:
        return ModelSpec(
            family=family,
            scope=scope,
            exam_period=exam_period,
            **flags,
            cross_order=cross_order,
            ar_order=ar_order,
            gboost=hyper,
        )
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _parse_hyper(doc, path: str, defaults: bool = True) -> GBoostHyper:
    get = _reader(doc, path, defaults)
    default = GBoostHyper()
    hyper = GBoostHyper(
        learning_rate=parse_float(get("learning_rate", default.learning_rate), f"{path}.learning_rate"),
        max_depth=parse_int(get("max_depth", default.max_depth), f"{path}.max_depth", 0),
        n_trees=parse_int(get("n_trees", default.n_trees), f"{path}.n_trees", 1),
    )
    try:
        return hyper.validate()
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _parse_grid(doc, path: str) -> tuple[GBoostHyper, ...]:
    points = field(doc, f"{path}.gboost_grid", list, [])
    return tuple(_parse_hyper(point, f"{path}.gboost_grid[{i}]") for i, point in enumerate(points))


def config_from_json_dict(doc: dict, base_dir: Path) -> PipelineConfig:
    if doc.get("schema_version", CONFIG_SCHEMA_VERSION) != CONFIG_SCHEMA_VERSION:
        raise ConfigError("config.schema_version", f"unsupported version {doc['schema_version']}")
    seed = field(doc, "config.seed")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError("config.seed", "must be an integer (wall-clock seeding is not supported)")
    if seed < 0:
        raise ConfigError("config.seed", "must be >= 0")
    data = field(doc, "config.data", dict)
    counts = base_dir / field(data, "config.data.counts_csv", str)

    quantiles = parse_levels(doc.get("quantiles", DEFAULT_QUANTILES), "config.quantiles")

    optimize = field(doc, "config.optimize", dict, {})
    k = parse_int(optimize.get("k", 100), "config.optimize.k", 1)
    lags = list(field(optimize, "config.optimize.lags", list, []))
    for i, text in enumerate(lags):
        parse_iso_hour(text, f"config.optimize.lags[{i}]")

    network = field(doc, "config.network", str, None)
    threads = parse_int(doc.get("threads", 1), "config.threads", 1)

    model_doc = field(doc, "config.model", dict, None) or {}
    model = parse_model(model_doc, "config.model")
    grid = _parse_grid(model_doc, "config.model")
    if grid and model.family != "gboost":
        raise ConfigError("config.model.gboost_grid", "grid search applies to the gboost family only")

    return PipelineConfig(
        seed=seed,
        counts_csv=counts,
        network=(base_dir / network) if network else None,
        split=_parse_split(field(doc, "config.split", dict, None), "config.split"),
        quantiles=quantiles,
        model=model,
        k=k,
        lags=lags,
        output_dir=base_dir / field(doc, "config.output_dir", str, "out"),
        threads=threads,
        # a correlation needs at least two aligned lags
        copula_min_lags=parse_int(field(doc, "config.copula", dict, {}).get("min_lags", 30), "config.copula.min_lags", 2),
        gboost_grid=grid,
    )


def load_config(path) -> PipelineConfig:
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("config.<root>", f"invalid JSON: {exc}") from None
    return config_from_json_dict(json_object(doc, "config.<root>"), path.parent)


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
