"""Synthetic OD count generator with controlled cross-pair correlation.

Stands in for proprietary sensor data: hourly counts are a seasonal mean
profile plus equicorrelated Gaussian noise, rounded and clipped at zero.
Also emits a matching network instance so the full pipeline can run on
generated data alone.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from datetime import date

import numpy as np

from .data import HOUR, Location, ODDataset, ODPair
from .tndfs import NetworkInstance

log = logging.getLogger(__name__)

# Campus-like default profiles: quiet nights, morning and late-afternoon peaks.
DEFAULT_TOD_PROFILE = (
    0.02, 0.01, 0.01, 0.01, 0.01, 0.02, 0.05,  # 00..06
    0.35, 1.00, 0.90, 0.70, 0.65, 0.75, 0.70,  # 07..13
    0.65, 0.70, 0.85, 0.95, 0.60, 0.35, 0.20,  # 14..20
    0.10, 0.06, 0.03,  # 21..23
)
DEFAULT_DOW_PROFILE = (1.0, 1.0, 1.0, 1.0, 0.9, 0.35, 0.25)


@dataclass(frozen=True)
class SyntheticSpec:
    n_locations: int = 4
    start: date = date(2017, 11, 17)
    end: date = date(2018, 1, 14)
    tod_profile: tuple[float, ...] = DEFAULT_TOD_PROFILE
    dow_profile: tuple[float, ...] = DEFAULT_DOW_PROFILE
    exam_period: tuple[date, date] | None = (date(2017, 12, 8), date(2017, 12, 22))
    exam_multiplier: float = 1.25
    base_scale: float = 30.0
    rho: float = 0.4
    dispersion: float = 4.0
    seed: int = 0
    box_meters: float = 1200.0
    bus_speed: float = 400.0  # meters per minute

    def __post_init__(self):
        if self.n_locations < 2:
            raise ValueError("need at least two locations")
        if len(self.tod_profile) != 24 or len(self.dow_profile) != 7:
            raise ValueError("profiles must cover 24 hours and 7 days")
        if any(v < 0 for v in self.tod_profile + self.dow_profile):
            raise ValueError("intensity profiles must be non-negative")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho={self.rho} is not a valid equicorrelation")
        for name, value in (("base_scale", self.base_scale), ("dispersion", self.dispersion)):
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name}={value} must be finite and non-negative")
        if self.end < self.start:
            raise ValueError("date range is empty")


def _equicorrelated_noise(rng, n_lags: int, n_pairs: int, rho: float) -> np.ndarray:
    corr = np.full((n_pairs, n_pairs), rho)
    np.fill_diagonal(corr, 1.0)
    chol = np.linalg.cholesky(corr)
    return rng.standard_normal((n_lags, n_pairs)) @ chol.T


def generate_synthetic(spec: SyntheticSpec) -> ODDataset:
    """Deterministic-per-seed hourly counts for every OD pair."""
    rng = np.random.default_rng(spec.seed)
    labels = [f"g{i}" for i in range(spec.n_locations)]
    coords = rng.uniform(0.0, spec.box_meters, size=(spec.n_locations, 2))
    locations = [Location(i, lab, (float(x), float(y))) for i, (lab, (x, y)) in enumerate(zip(labels, coords))]

    pairs = [ODPair(o, d) for o in range(spec.n_locations) for d in range(spec.n_locations) if o != d]
    weights = rng.uniform(0.5, 1.5, size=len(pairs))

    t0 = np.datetime64(spec.start, "h")
    t1 = np.datetime64(spec.end, "h") + np.timedelta64(23, "h")
    timestamps = np.arange(t0, t1 + HOUR, HOUR)
    n = len(timestamps)

    hours = timestamps.astype("int64") % 24
    dows = (timestamps.astype("int64") // 24 + 3) % 7
    seasonal = np.array(spec.tod_profile)[hours] * np.array(spec.dow_profile)[dows]
    if spec.exam_period is not None:
        days = timestamps.astype("datetime64[D]")
        in_exams = (days >= np.datetime64(spec.exam_period[0])) & (days <= np.datetime64(spec.exam_period[1]))
        seasonal = seasonal * np.where(in_exams, spec.exam_multiplier, 1.0)

    noise = _equicorrelated_noise(rng, n, len(pairs), spec.rho)
    means = spec.base_scale * seasonal[:, None] * weights[None, :]
    counts = np.rint(np.maximum(means + spec.dispersion * noise, 0.0)).astype(np.int64)

    origin, destination = np.tile(np.array([(pair.origin, pair.destination) for pair in pairs]).T, n)
    return ODDataset(locations, origin, destination, np.repeat(timestamps, len(pairs)), counts.ravel())  # hour-major


def network_for(spec: SyntheticSpec, dataset: ODDataset, fleet_size: int = 2,
                capacity: float = 40.0, max_routes: int = 2, max_route_stops: int = 3) -> NetworkInstance:
    """A network instance with one bus stop co-located at every demand node."""
    nodes = dataset.locations
    n = len(nodes)
    ride = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                ride[i, j] = 2.0  # turnaround on a single-stop loop
            else:
                (xa, ya), (xb, yb) = nodes[i].coord, nodes[j].coord
                ride[i, j] = max(1.0, round((abs(xa - xb) + abs(ya - yb)) / spec.bus_speed))
    return NetworkInstance(
        demand_nodes=list(nodes),
        bus_stops=list(nodes),
        walk_speed=80.0,
        ride_time=ride,
        fleet_size=fleet_size,
        capacity=capacity,
        max_routes=max_routes,
        max_route_stops=max_route_stops,
    )

