"""Transit route design and frequency setting for one deterministic demand.

A problem instance fixes demand nodes, bus stops, ride times, and fleet
parameters.  Candidate routes are all closed loops over up to L distinct
stops, identified up to rotation.  Solving picks at most (or exactly) nu
routes with one bus count each, maximizing total passenger time savings:
per-passenger ride savings minus passenger-weighted average waiting, with
hourly route capacity limiting assigned flow and a walking alternative
absorbing the rest.

The discrete part (route set + bus counts) is enumerated exhaustively, once
per instance into a table; for a fixed allocation the remaining flow
assignment is a small transportation problem.  Assigning every pair to its
best positive-utility route is optimal whenever no capacity binds; otherwise
the assignment LP is solved exactly.
"""

from __future__ import annotations

import itertools
import json
import logging
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .data import Location, ODPair

log = logging.getLogger(__name__)

WALK_ROUTE = -1  # route id of the always-available walking alternative
_TIE_TOL = 1e-12  # relative: objectives within _TIE_TOL * max(1, |incumbent|) tie


def _tie_tol(incumbent: float) -> float:
    """Tie tolerance around an incumbent objective (none before the first)."""
    return _TIE_TOL * max(1.0, abs(incumbent)) if np.isfinite(incumbent) else 0.0


def walk_time(a: Location, b: Location, speed: float) -> float:
    """Manhattan walking time in minutes between two located nodes."""
    if speed <= 0:
        raise ValueError("walk speed must be positive")
    (xa, ya), (xb, yb) = a.coord, b.coord
    return (abs(xa - xb) + abs(ya - yb)) / speed


@dataclass(frozen=True)
class CandidateRoute:
    """A closed loop over distinct stops, canonical under rotation."""

    id: int
    stops: tuple[int, ...]
    cycle_time: float  # minutes around the loop

    def itinerary(self) -> str:
        return "-".join(str(s) for s in self.stops + (self.stops[0],))


def canonical_rotation(stops: tuple[int, ...]) -> tuple[int, ...]:
    rotations = [stops[i:] + stops[:i] for i in range(len(stops))]
    return min(rotations)


def route_cycle_time(stops: tuple[int, ...], ride_time: np.ndarray, dwell: float = 0.0) -> float:
    if len(stops) == 1:
        return float(ride_time[stops[0], stops[0]]) + dwell
    legs = sum(ride_time[a, b] for a, b in zip(stops, stops[1:] + (stops[0],)))
    return float(legs) + dwell * len(stops)


def enumerate_routes(n_stops: int, max_stops: int, ride_time: np.ndarray, dwell: float = 0.0) -> list[CandidateRoute]:
    """All loops over 1..max_stops distinct stops, deduplicated by rotation."""
    if max_stops < 1:
        raise ValueError("max_stops must be >= 1")
    seen = set()
    loops = []
    for m in range(1, min(max_stops, n_stops) + 1):
        for perm in itertools.permutations(range(n_stops), m):
            canon = canonical_rotation(perm)
            if canon not in seen:
                seen.add(canon)
                loops.append(canon)
    loops.sort(key=lambda s: (len(s), s))
    return [
        CandidateRoute(i, stops, route_cycle_time(stops, ride_time, dwell))
        for i, stops in enumerate(loops)
    ]


@dataclass
class NetworkInstance:
    demand_nodes: list[Location]
    bus_stops: list[Location]
    walk_speed: float  # meters per minute
    ride_time: np.ndarray  # minutes, stop x stop; diagonal = single-stop turnaround
    fleet_size: int  # K
    capacity: float  # passengers per vehicle trip
    max_routes: int  # nu
    max_route_stops: int  # L
    dwell_time: float = 0.0
    half_headway: bool = False
    exact_route_count: bool = False
    _candidates: list[CandidateRoute] | None = field(default=None, repr=False)

    def __post_init__(self):
        self.ride_time = np.asarray(self.ride_time, dtype=np.float64)
        for name in ("capacity", "walk_speed", "dwell_time"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not np.all(np.isfinite(self.ride_time)):
            i, j = np.argwhere(~np.isfinite(self.ride_time))[0]
            raise ValueError(f"ride_time[{i}][{j}] must be finite, got {self.ride_time[i, j]}")
        if self.fleet_size < 1:
            raise ValueError("fleet size must be >= 1")
        if self.capacity <= 0:
            raise ValueError("bus capacity must be positive")
        if not 1 <= self.max_routes <= self.fleet_size:
            raise ValueError("max_routes must satisfy 1 <= nu <= K")
        if self.walk_speed <= 0:
            raise ValueError("walk speed must be positive")
        if self.ride_time.shape != (len(self.bus_stops), len(self.bus_stops)):
            raise ValueError("ride_time must be square over bus stops")
        if np.any(self.ride_time <= 0):
            raise ValueError("ride times must be positive")

    @property
    def candidate_routes(self) -> list[CandidateRoute]:
        if self._candidates is None:
            self._candidates = enumerate_routes(
                len(self.bus_stops), self.max_route_stops, self.ride_time, self.dwell_time
            )
        return self._candidates

    def od_pairs(self) -> list[ODPair]:
        ids = [n.id for n in self.demand_nodes]
        return [ODPair(o, d) for o in ids for d in ids if o != d]

    def demand_node(self, node_id: int) -> Location:
        for n in self.demand_nodes:
            if n.id == node_id:
                return n
        raise KeyError(f"unknown demand node {node_id}")


@dataclass
class DemandVector:
    """Non-negative finite demand per OD pair; absent pairs mean zero."""

    rates: dict[ODPair, float]

    def __post_init__(self):
        check_demand(tuple(self.rates), np.array(list(self.rates.values()), dtype=np.float64))

    def get(self, pair: ODPair) -> float:
        return self.rates.get(pair, 0.0)


def check_demand(pairs: tuple[ODPair, ...], lam: np.ndarray) -> None:
    """Reject the first non-finite or negative demand, naming its pair (`lam`'s last axis)."""
    bad = np.flatnonzero(~np.isfinite(lam) | (lam < 0))
    if len(bad):
        v, pair = lam.flat[bad[0]], pairs[bad[0] % len(pairs)]
        raise ValueError(f"{'negative' if np.isfinite(v) else 'non-finite'} demand {v} for {pair}")


# ---------------------------------------------------------------------------
# Edge utilities
# ---------------------------------------------------------------------------


def stage1_utility(pair: ODPair, route: CandidateRoute, instance: NetworkInstance) -> float:
    """Per-passenger time savings of riding `route` versus walking directly.

    The boarding/alighting stops are chosen to minimize ride plus access/egress
    walking; negative values are kept (those passengers will prefer walking).
    """
    origin = instance.demand_node(pair.origin)
    destination = instance.demand_node(pair.destination)
    w_direct = walk_time(origin, destination, instance.walk_speed)
    stops = route.stops
    m = len(stops)
    best = np.inf
    if m == 1:
        s = instance.bus_stops[stops[0]]
        best = walk_time(origin, s, instance.walk_speed) + walk_time(s, destination, instance.walk_speed)
    else:
        leg = [
            float(instance.ride_time[a, b]) + instance.dwell_time
            for a, b in zip(stops, stops[1:] + (stops[0],))
        ]
        access = [walk_time(origin, instance.bus_stops[s], instance.walk_speed) for s in stops]
        egress = [walk_time(instance.bus_stops[s], destination, instance.walk_speed) for s in stops]
        for b in range(m):
            ride = 0.0
            pos = b
            for _ in range(m - 1):
                ride += leg[pos]
                pos = (pos + 1) % m
                cost = ride + access[b] + egress[pos]
                if cost < best:
                    best = cost
    return w_direct - best


def stage2_utility(route: CandidateRoute, k: int, half_headway: bool = False) -> float:
    """Negated average waiting time with k buses on the route."""
    if k < 1:
        raise ValueError("bus count must be >= 1")
    wait = route.cycle_time / k
    return -(wait / 2.0) if half_headway else -wait


def route_capacity(route: CandidateRoute, k: int, capacity: float) -> float:
    """Hourly passenger capacity: 60k/tau cycles per hour times bus capacity."""
    if k < 1:
        raise ValueError("bus count must be >= 1")
    return 60.0 * k / route.cycle_time * capacity


# ---------------------------------------------------------------------------
# Solutions
# ---------------------------------------------------------------------------


@dataclass
class RouteDesign:
    """One solved design: allocated routes/buses, flow assignment, objective."""

    allocation: tuple[tuple[CandidateRoute, int], ...]  # sorted by canonical stops
    flows_stage1: dict[tuple[ODPair, int], float]  # (pair, route id | WALK_ROUTE) -> flow
    flows_stage2: dict[tuple[int, int], float]  # (route id, k) -> flow
    objective: float

    def key(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Canonical identity: the allocation only (flows vary per sample)."""
        return _assignment_key((r.stops, k) for r, k in self.allocation)

    def itinerary(self) -> str:
        if not self.allocation:
            return "(walking only)"
        return ", ".join(r.itinerary() for r, _ in self.allocation)

    def to_json_dict(self) -> dict:
        return {
            "allocation": [
                {"stops": list(r.stops), "buses": k, "cycle_time": r.cycle_time}
                for r, k in self.allocation
            ],
            "itinerary": self.itinerary(),
            "objective": self.objective,
            "flows": [
                {
                    "origin": pair.origin,
                    "destination": pair.destination,
                    "route": "walk" if rid == WALK_ROUTE else rid,
                    "flow": flow,
                }
                for (pair, rid), flow in sorted(
                    self.flows_stage1.items(), key=lambda kv: (kv[0][0], kv[0][1])
                )
                if flow > 0
            ],
        }


def _assignment_key(stops_k) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Allocation key from (stops, buses) pairs: sorted, so route order plays no part."""
    return tuple(sorted(stops_k))


# ---------------------------------------------------------------------------
# Fixed-allocation flow assignment (continuous transportation problem)
# ---------------------------------------------------------------------------


def assign_flows(weights: np.ndarray, demands: np.ndarray, caps: np.ndarray) -> tuple[np.ndarray, float]:
    """Maximize sum(w*x) with per-pair supplies and per-route capacities.

    weights: (m, r) net per-passenger utilities; demands: (m,); caps: (r,).
    Unassigned demand walks at zero utility.  Returns (x, objective) with x of
    shape (m, r).  Fast path assigns each pair fully to its best positive
    utility route; when that violates a capacity the LP is solved exactly.
    """
    m, r = weights.shape
    x = np.zeros((m, r))
    if m == 0 or r == 0:
        return x, 0.0
    best = np.argmax(weights, axis=1)
    best_w = weights[np.arange(m), best]
    riders = best_w > 0
    x[np.arange(m)[riders], best[riders]] = demands[riders]
    inflow = x.sum(axis=0)
    if np.all(inflow <= caps):
        return x, float(np.sum(demands[riders] * best_w[riders]))

    if r == 1:
        # single shared capacity: fill in decreasing utility order (exact)
        x = np.zeros((m, r))
        order = np.argsort(-weights[:, 0], kind="stable")
        remaining = float(caps[0])
        total = 0.0
        for i in order:
            w = weights[i, 0]
            if w <= 0 or remaining <= 0:
                break
            take = min(demands[i], remaining)
            x[i, 0] = take
            remaining -= take
            total += w * take
        return x, total

    c = -weights.ravel()
    A_ub = sparse.vstack(
        [
            sparse.kron(sparse.identity(m, format="csr"), np.ones((1, r))),
            sparse.kron(np.ones((1, m)), sparse.identity(r, format="csr")),
        ],
        format="csc",
    )
    b_ub = np.concatenate([demands, caps])
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    if res.status != 0 or res.x is None:
        raise RuntimeError(f"flow assignment LP failed: {res.message}")
    x = res.x.reshape(m, r)
    # zero out numerically irrelevant flow on non-positive-utility arcs
    x[weights <= 0] = 0.0
    return x, float(np.sum(weights * x))


_CHUNK_CELLS = 1 << 16  # (pair, row, slot) cells per table chunk; bounds the transient arrays
_TABLE_BYTES = 64 << 20  # above this the table is not cached but rebuilt per scenario
_CELL_BYTES = 17  # per (pair, row): float64 gain, float64 rider flag, int8 slot


@dataclass
class _Prepared:
    """Per-instance precomputation shared across demand vectors.

    The allocation table: one row per feasible allocation in canonical-key
    order, routes ascending by candidate id, padded to nu slots by route -1
    (nobody rides it, it never fills); see `_table_chunk` and `_price_chunk`.
    """

    instance: NetworkInstance
    pairs: list[ODPair]
    beta1: np.ndarray  # (n_pairs, C)
    beta2: np.ndarray  # (C, K) stage-2 utilities, k = col + 1
    caps: np.ndarray  # (C, K)
    row_routes: np.ndarray  # (R, nu) candidate ids, -1 on pads
    row_buses: np.ndarray  # (R, nu) bus counts, 1 on pads
    row_caps: np.ndarray  # (R, nu) hourly capacities, inf on pads
    chunk_rows: list[slice]  # the table's chunks, _CHUNK_CELLS cells each
    table: list[tuple[np.ndarray, np.ndarray, np.ndarray]] | None  # None above _TABLE_BYTES


def prepare_instance(instance: NetworkInstance) -> _Prepared:
    routes = instance.candidate_routes
    if not routes:
        raise ValueError("empty candidate route set")
    pairs = instance.od_pairs()
    beta1 = np.array([[stage1_utility(p, r, instance) for r in routes] for p in pairs])
    beta1 = beta1.reshape(len(pairs), len(routes))
    ks = np.arange(1, instance.fleet_size + 1)
    taus = np.array([r.cycle_time for r in routes])
    beta2 = -taus[:, None] / ks[None, :]
    if instance.half_headway:
        beta2 = beta2 / 2.0
    caps = 60.0 * ks[None, :] / taus[:, None] * instance.capacity

    row_routes, row_buses = _allocation_rows(instance)
    row_caps = np.where(row_routes >= 0, caps[row_routes, row_buses - 1], np.inf)
    step = max(1, _CHUNK_CELLS // max(1, len(pairs) * instance.max_routes))
    chunk_rows = [slice(lo, lo + step) for lo in range(0, len(row_routes), step)]
    prep = _Prepared(instance, pairs, beta1, beta2, caps, row_routes, row_buses, row_caps, chunk_rows, None)
    if len(pairs) * len(row_routes) * _CELL_BYTES <= _TABLE_BYTES:
        prep.table = [_table_chunk(prep, rows) for rows in chunk_rows]
    return prep


def _allocation_sizes(instance: NetworkInstance) -> range:
    if instance.exact_route_count:
        return range(instance.max_routes, instance.max_routes + 1)
    return range(0, instance.max_routes + 1)


def _bus_splits(r: int, fleet: int) -> list[tuple[int, ...]]:
    """All per-route bus counts (each >= 1) summing to at most the fleet size."""
    if r == 0:
        return [()]
    out = []
    for combo in itertools.product(range(1, fleet + 1), repeat=r):
        if sum(combo) <= fleet:
            out.append(combo)
    return out


def _combinations(n: int, size: int) -> np.ndarray:
    """All ascending `size`-subsets of range(n), one row each, in lexicographic order."""
    out = np.zeros((1, 0), dtype=np.intp)
    for _ in range(size):
        first = out[:, -1] + 1 if out.shape[1] else np.zeros(len(out), dtype=np.intp)
        counts = n - first
        parent = np.repeat(np.arange(len(out)), counts)
        offset = np.arange(len(parent)) - np.repeat(np.cumsum(counts) - counts, counts)
        out = np.column_stack([out[parent], first[parent] + offset])
    return out


def _allocation_rows(instance: NetworkInstance) -> tuple[np.ndarray, np.ndarray]:
    """Route ids and bus counts of every feasible allocation, in canonical-key order.

    Keys compare as sorted (stops, buses) tuples, a key before its extensions.
    A slot codes as rank-by-stops * K + buses and a pad as 0, so sorting each
    row's codes (pads last) and then the rows lexicographically is that order.
    """
    routes = instance.candidate_routes
    C, K, nu = len(routes), instance.fleet_size, instance.max_routes
    ids = [np.empty((0, nu), dtype=np.intp)]
    buses = [np.empty((0, nu), dtype=np.intp)]
    for size in _allocation_sizes(instance):
        if size > C:
            continue
        combos = _combinations(C, size)
        splits = _bus_splits(size, K)
        splits = np.array(splits, dtype=np.intp).reshape(len(splits), size)
        pad = ((0, 0), (0, nu - size))
        ids.append(np.pad(np.repeat(combos, len(splits), axis=0), pad, constant_values=-1))
        buses.append(np.pad(np.tile(splits, (len(combos), 1)), pad, constant_values=1))
    ids, buses = np.concatenate(ids), np.concatenate(buses)

    rank = np.empty(C, dtype=np.intp)
    rank[sorted(range(C), key=lambda cid: routes[cid].stops)] = np.arange(C)
    last = C * K + 1
    code = np.sort(np.where(ids >= 0, rank[ids] * K + buses, last), axis=1)
    code[code == last] = 0
    order = np.lexsort(code.T[::-1])
    return ids[order], buses[order]


def _table_chunk(prep: _Prepared, rows: slice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per (pair, row) of a chunk: the best slot's net utility clipped at 0
    (walking), whether it beats walking, and that slot (-1: walk; ties go to
    the first slot, the lowest candidate id).  Demand plays no part here.
    """
    ids, buses = prep.row_routes[rows], prep.row_buses[rows]
    best = np.full((len(prep.pairs), len(ids)), -np.inf)
    slot = np.zeros(best.shape, dtype=np.int8)
    for j in range(ids.shape[1]):
        net = prep.beta1[:, ids[:, j]] + prep.beta2[ids[:, j], buses[:, j] - 1]  # pads read route -1
        net[:, ids[:, j] < 0] = -np.inf
        better = net > best  # strict: ties stay with the earlier slot
        slot[better] = j
        best = np.maximum(best, net)
    rides = best > 0
    return np.maximum(best, 0.0), rides.astype(np.float64), np.where(rides, slot, -1).astype(np.int8)


def _price_chunk(lam: np.ndarray, chunk, caps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Uncapacitated bound and capacity feasibility of every row of a chunk."""
    gain, rides, slot = chunk
    bound = lam @ gain
    # no slot carries more than all riders: only rows failing that get the per-slot sums
    feasible = lam @ rides <= caps.min(axis=1)
    check = np.flatnonzero(~feasible)
    if len(check):
        taken = slot[:, check]
        inflow = np.column_stack([lam @ (taken == j) for j in range(caps.shape[1])])
        feasible[check] = np.all(inflow <= caps[check], axis=1)
    return bound, feasible


def _row_allocation(prep: _Prepared, row: int) -> tuple[tuple[int, int], ...]:
    return tuple(
        (int(cid), int(k)) for cid, k in zip(prep.row_routes[row], prep.row_buses[row]) if cid >= 0
    )


def _allocation_arcs(prep: _Prepared, alloc, pairs=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """Net utilities (pairs x routes) and hourly capacities of an allocation (no routes: walking)."""
    cid, bus = np.array(alloc, dtype=np.intp).reshape(-1, 2).T
    return prep.beta1[pairs][:, cid] + prep.beta2[cid, bus - 1], prep.caps[cid, bus - 1]


def solve_demand(prep: _Prepared, lam: np.ndarray) -> tuple[int, float]:
    """Exact optimum for demand `lam` aligned to `prep.pairs`: (table row, objective).

    Every row of the allocation table is priced at once: a capacity-feasible
    row is worth its uncapacitated bound, and each capacity-bound row whose
    bound can still beat the incumbent gets the exact flow assignment, best
    bound first.  Objectives within a relative 1e-12 tie and break toward the
    lowest row, the lexicographically smallest allocation key, so zero-flow
    routes are never reported unless the exact-route-count mode forces them.
    The objective is the winner's flow assignment over all pairs, not its bound.
    """
    if not len(prep.row_routes):
        raise ValueError("no feasible allocation (check max_routes vs candidate count)")
    chunks = prep.table if prep.table is not None else (_table_chunk(prep, rows) for rows in prep.chunk_rows)
    priced = [_price_chunk(lam, chunk, prep.row_caps[rows]) for rows, chunk in zip(prep.chunk_rows, chunks)]
    bound = np.concatenate([b for b, _ in priced])
    feasible = np.concatenate([f for _, f in priced])

    value = np.where(feasible, bound, -np.inf)
    best = value.max()
    active = lam > 0
    blocked = np.flatnonzero(~feasible & (bound >= best - _tie_tol(best)))
    for row in blocked[np.argsort(-bound[blocked], kind="stable")]:
        if bound[row] < best - _tie_tol(best):
            break  # no later row's bound reaches the incumbent either
        w, caps = _allocation_arcs(prep, _row_allocation(prep, row), active)
        _, value[row] = assign_flows(w, lam[active], caps)
        best = max(best, value[row])
    row = int(np.argmax(value >= best - _tie_tol(best)))
    return row, allocation_value(prep, _row_allocation(prep, row), lam)


def allocation_value(prep: _Prepared, alloc: tuple[tuple[int, int], ...], lam: np.ndarray) -> float:
    """Objective of the optimal flows for a fixed allocation of (route id, buses)."""
    w, caps = _allocation_arcs(prep, alloc)
    return float(assign_flows(w, lam, caps)[1])


def row_key(prep: _Prepared, row: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """A table row's allocation key, as `RouteDesign.key()` gives it."""
    routes = prep.instance.candidate_routes
    return _assignment_key((routes[cid].stops, k) for cid, k in _row_allocation(prep, row))


def row_design(prep: _Prepared, row: int, lam: np.ndarray) -> RouteDesign:
    """A table row's design for demand `lam` aligned to `prep.pairs`."""
    return _design_for_allocation(prep, lam, _row_allocation(prep, row))


def solve_instance(instance: NetworkInstance, demand: DemandVector, prepared: _Prepared | None = None) -> RouteDesign:
    """Exact optimum over all feasible allocations and flow assignments (see `solve_demand`)."""
    prep = prepared if prepared is not None else prepare_instance(instance)
    lam = np.array([demand.get(p) for p in prep.pairs])
    return row_design(prep, solve_demand(prep, lam)[0], lam)


def _design_for_allocation(prep: _Prepared, lam_all: np.ndarray, alloc: tuple[tuple[int, int], ...]) -> RouteDesign:
    """Re-derive flows and the objective for a chosen allocation."""
    flows1: dict[tuple[ODPair, int], float] = {}
    w, caps = _allocation_arcs(prep, alloc)
    x, obj = assign_flows(w, lam_all, caps)
    for i, pair in enumerate(prep.pairs):
        routed = 0.0
        for j, (cid, _) in enumerate(alloc):
            if x[i, j] > 0:
                flows1[(pair, cid)] = float(x[i, j])
            routed += x[i, j]
        flows1[(pair, WALK_ROUTE)] = float(max(lam_all[i] - routed, 0.0))
    flows2 = {(cid, k): float(x[:, j].sum()) for j, (cid, k) in enumerate(alloc)}
    routes = prep.instance.candidate_routes
    ordered = tuple(sorted(((routes[cid], k) for cid, k in alloc), key=lambda rk: rk[0].stops))
    return RouteDesign(ordered, flows1, flows2, float(obj))


def evaluate_allocation(instance: NetworkInstance, allocation, demand: DemandVector, prepared: _Prepared | None = None) -> RouteDesign:
    """Optimal flows for a fixed allocation of (CandidateRoute of this instance, buses) pairs."""
    prep = prepared if prepared is not None else prepare_instance(instance)
    alloc = tuple((route.id, k) for route, k in allocation)
    return _design_for_allocation(prep, np.array([demand.get(p) for p in prep.pairs]), alloc)


# ---------------------------------------------------------------------------
# Instance (de)serialization
# ---------------------------------------------------------------------------

INSTANCE_SCHEMA_VERSION = 1


def instance_to_json_dict(instance: NetworkInstance) -> dict:
    return {
        "schema_version": INSTANCE_SCHEMA_VERSION,
        "locations": [
            {"id": n.id, "label": n.label, "x": n.coord[0], "y": n.coord[1]}
            for n in instance.demand_nodes
        ],
        "bus_stops": [
            {"id": s.id, "label": s.label, "x": s.coord[0], "y": s.coord[1]}
            for s in instance.bus_stops
        ],
        "walk_speed": instance.walk_speed,
        "ride_time": instance.ride_time.tolist(),
        "fleet_size": instance.fleet_size,
        "capacity": instance.capacity,
        "max_routes": instance.max_routes,
        "max_route_stops": instance.max_route_stops,
        "dwell_time": instance.dwell_time,
        "half_headway": instance.half_headway,
        "exact_route_count": instance.exact_route_count,
    }


def _location_from(d: dict, where: str) -> Location:
    try:
        return Location(int(d["id"]), str(d["label"]), (float(d["x"]), float(d["y"])))
    except KeyError as exc:
        raise ValueError(f"{where}: missing field {exc}") from None


def instance_from_json_dict(doc: dict) -> NetworkInstance:
    for key in ("locations", "bus_stops", "walk_speed", "ride_time", "fleet_size", "capacity", "max_routes", "max_route_stops"):
        if key not in doc:
            raise ValueError(f"network: missing field {key!r}")
    return NetworkInstance(
        demand_nodes=[_location_from(d, f"network.locations[{i}]") for i, d in enumerate(doc["locations"])],
        bus_stops=[_location_from(d, f"network.bus_stops[{i}]") for i, d in enumerate(doc["bus_stops"])],
        walk_speed=float(doc["walk_speed"]),
        ride_time=np.asarray(doc["ride_time"], dtype=np.float64),
        fleet_size=int(doc["fleet_size"]),
        capacity=float(doc["capacity"]),
        max_routes=int(doc["max_routes"]),
        max_route_stops=int(doc["max_route_stops"]),
        dwell_time=float(doc.get("dwell_time", 0.0)),
        half_headway=bool(doc.get("half_headway", False)),
        exact_route_count=bool(doc.get("exact_route_count", False)),
    )


def load_instance(path) -> NetworkInstance:
    with open(path, encoding="utf-8") as fh:
        return instance_from_json_dict(json.load(fh))


def save_instance(instance: NetworkInstance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_json_dict(instance), fh, indent=2, sort_keys=True)
        fh.write("\n")
