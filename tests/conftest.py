"""Shared fixtures and instance builders for the test suite."""

import os

# one BLAS thread, as CI runs the suite; set before numpy loads OpenBLAS
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest

from drtopt.data import Location
from drtopt.metrics import stack_forecasts
from drtopt.qr import DEFAULT_QUANTILES
from drtopt.tndfs import DemandVector, NetworkInstance


def stacked(forecasts, levels=DEFAULT_QUANTILES) -> np.ndarray:
    """One pair's per-lag forecasts as the scorer's (levels x lags) array."""
    return stack_forecasts([forecasts], levels)[0]


def two_node_instance(
    separation_m=1000.0,
    ride=2.0,
    turnaround=1.0,
    fleet_size=1,
    capacity=100.0,
    max_routes=1,
    walk_speed=100.0,
    **kwargs,
):
    """Two co-located demand-node/bus-stop sites with a direct loop between them."""
    d0 = Location(0, "a", (0.0, 0.0))
    d1 = Location(1, "b", (separation_m, 0.0))
    return NetworkInstance(
        demand_nodes=[d0, d1],
        bus_stops=[d0, d1],
        walk_speed=walk_speed,
        ride_time=np.array([[turnaround, ride], [ride, turnaround]]),
        fleet_size=fleet_size,
        capacity=capacity,
        max_routes=max_routes,
        max_route_stops=2,
        **kwargs,
    )


def random_tiny_instance(rng) -> tuple[NetworkInstance, DemandVector]:
    """A solver-vs-oracle instance: <= 3 stops, <= 2 demanded pairs, K <= 2.

    The integer-grid flow oracle only matches the continuous solver when every
    binding capacity is itself on the grid.  Half the instances use a uniform
    10-minute leg time, making every loop time divide 60 and (with integer bus
    capacity) every hourly route capacity an integer; the other half draw
    diverse leg times but a capacity large enough that it never binds.
    """
    n_sites = int(rng.integers(2, 4))
    coords = rng.integers(0, 13, size=(n_sites, 2)) * 100.0
    sites = [Location(i, f"s{i}", (float(x), float(y))) for i, (x, y) in enumerate(coords)]
    if rng.random() < 0.5:
        # slow walkers make riding attractive, so the integer capacities bind
        ride = np.full((n_sites, n_sites), 10.0)
        capacity = float(rng.integers(1, 4))
        walk_speed = float(rng.integers(20, 55))
    else:
        legal = np.array([10.0, 12.0, 15.0, 20.0, 30.0])
        ride = rng.choice(legal, size=(n_sites, n_sites))
        np.fill_diagonal(ride, rng.choice(legal))
        capacity = 1000.0
        walk_speed = float(rng.integers(40, 120))
    K = int(rng.integers(1, 3))
    instance = NetworkInstance(
        demand_nodes=sites,
        bus_stops=sites,
        walk_speed=walk_speed,
        ride_time=ride,
        fleet_size=K,
        capacity=capacity,
        max_routes=int(rng.integers(1, K + 1)),
        max_route_stops=int(rng.integers(1, n_sites + 1)),
    )
    pairs = instance.od_pairs()
    chosen = rng.choice(len(pairs), size=min(2, len(pairs)), replace=False)
    demand = DemandVector({pairs[i]: float(rng.integers(0, 7)) for i in chosen})
    return instance, demand


def random_medium_instance(rng) -> tuple[NetworkInstance, DemandVector]:
    """A bigger instance for constraint-invariant checks (not oracle-matched)."""
    n_sites = int(rng.integers(3, 5))
    coords = rng.uniform(0.0, 1500.0, size=(n_sites, 2))
    sites = [Location(i, f"s{i}", (float(x), float(y))) for i, (x, y) in enumerate(coords)]
    ride = rng.uniform(2.0, 25.0, size=(n_sites, n_sites))
    np.fill_diagonal(ride, rng.uniform(1.0, 5.0))
    K = int(rng.integers(1, 4))
    instance = NetworkInstance(
        demand_nodes=sites,
        bus_stops=sites,
        walk_speed=float(rng.uniform(40.0, 120.0)),
        ride_time=ride,
        fleet_size=K,
        capacity=float(rng.uniform(2.0, 30.0)),
        max_routes=int(rng.integers(1, min(K, 2) + 1)),
        max_route_stops=int(rng.integers(1, min(n_sites, 3) + 1)),
    )
    pairs = instance.od_pairs()
    rates = {p: float(rng.uniform(0.0, 25.0)) for p in pairs if rng.random() < 0.7}
    return instance, DemandVector(rates)


DESIGN_TOL = 1e-9


def check_design_invariants(instance, demand, design):
    """Assert flow conservation, demand conservation, capacity, and budgets."""
    from drtopt.tndfs import WALK_ROUTE, route_capacity

    routes = {r.id: r for r in instance.candidate_routes}
    alloc = {r.id: k for r, k in design.allocation}

    # at most one bus count per route, fleet and route-count budgets
    assert len(alloc) == len(design.allocation)
    assert sum(alloc.values()) <= instance.fleet_size
    if instance.exact_route_count:
        assert len(alloc) == instance.max_routes
    else:
        assert len(alloc) <= instance.max_routes

    # stage-1 flows: non-negative, only on allocated routes or walking
    inflow = {rid: 0.0 for rid in alloc}
    routed = {}
    for (pair, rid), flow in design.flows_stage1.items():
        assert flow >= -DESIGN_TOL
        if rid != WALK_ROUTE:
            assert rid in alloc
            inflow[rid] += flow
        routed[pair] = routed.get(pair, 0.0) + flow

    # demand conservation per pair (walking included)
    for pair, lam in demand.rates.items():
        assert abs(routed.get(pair, 0.0) - lam) <= DESIGN_TOL * max(1.0, lam)

    # stage-1/stage-2 balance and capacity
    for (rid, k), flow in design.flows_stage2.items():
        assert k == alloc[rid]
        assert abs(flow - inflow[rid]) <= DESIGN_TOL * max(1.0, flow)
        assert flow <= route_capacity(routes[rid], k, instance.capacity) + DESIGN_TOL

    # objective consistency with utilities
    from drtopt.tndfs import stage1_utility, stage2_utility

    total = 0.0
    for (pair, rid), flow in design.flows_stage1.items():
        if rid != WALK_ROUTE:
            total += flow * stage1_utility(pair, routes[rid], instance)
    for (rid, k), flow in design.flows_stage2.items():
        total += flow * stage2_utility(routes[rid], k, instance.half_headway)
    assert abs(total - design.objective) <= 1e-6 * max(1.0, abs(total))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
