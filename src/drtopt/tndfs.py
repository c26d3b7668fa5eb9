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
a greedy fill (one route) or successive shortest paths (several) find the
exact optimum without an LP solver.
"""

from __future__ import annotations

import functools
import itertools
import json
import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog  # noqa: F401  unused here; perfbench/tracing.py traces the name tndfs.linprog

from . import config
from .data import Location, ODPair

log = logging.getLogger(__name__)

WALK_ROUTE = -1  # route id of the always-available walking alternative
_TIE_TOL = 1e-12  # relative: objectives within _TIE_TOL * max(1, |incumbent|) tie


def _tie_tol(incumbent):
    """Tie tolerance around incumbent objectives, elementwise (none before the first)."""
    return np.where(np.isfinite(incumbent), _TIE_TOL * np.maximum(1.0, np.abs(incumbent)), 0.0)


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
        if self.dwell_time < 0:
            raise ValueError(f"dwell_time must be >= 0, got {self.dwell_time}")
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
    utility route; when that violates a capacity, one route is filled in
    decreasing utility order and several take the overflow by successive
    shortest paths (`_successive_shortest_paths`), both exact.
    """
    _check_flow_input(weights, demands, caps)
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

    x = _successive_shortest_paths(weights, x, demands, caps)
    x[weights <= 0] = 0.0  # a pair on a route worth no more than walking gains nothing there
    return x, float(np.sum(weights * x))


def _check_flow_input(weights: np.ndarray, demands: np.ndarray, caps: np.ndarray) -> None:
    if not np.isfinite(weights).all():
        raise ValueError(f"weights must be finite, got {weights[~np.isfinite(weights)][0]}")
    if not ((demands >= 0) & (demands < np.inf)).all():  # NaN fails both
        raise ValueError(f"demands must be finite and non-negative, got {demands.tolist()}")
    if not (caps >= 0).all():
        raise ValueError(f"caps must be non-negative, got {caps.tolist()}")


def _max_augmentations(m: int, r: int) -> int:
    """How many augmentations `_successive_shortest_paths` may make on m pairs and r routes.

    Each one empties a pair's flow on one of the r + 1 nodes, an overloaded
    route's excess or a route's spare capacity.  A pair's flow on a node can
    empty more than once, so this guards against a loop that stops making
    progress; it is not a proven bound.
    """
    return m * (r + 1) + r + 1


def _successive_shortest_paths(weights: np.ndarray, x: np.ndarray, demands: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Optimal flows from the best-route assignment `x`, whose loads exceed some capacity.

    A min-cost flow on r + 1 sinks, the routes and walking (node r, zero
    utility, no capacity).  Moving pair i from node j to node k costs
    w_ij - w_ik, so the arc j -> k costs the cheapest such move over the
    pairs with flow on j.  While a route is over its capacity, its excess
    goes along a shortest path, by Bellman-Ford, to the nearest node with
    spare capacity, by the most that path's excess, end spare and moved
    pairs allow (Ahuja, Magnanti & Orlin, Network Flows, 1993, ch. 9).  `x`
    puts each pair on its cheapest node, so no arc starts out negative;
    node prices from each round's distances keep the reduced costs
    non-negative after, clipped at 0 against rounding so no cycle of
    rounding errors can turn negative.
    """
    m, r = weights.shape
    n = r + 1
    gain = np.hstack([weights, np.zeros((m, 1))])
    flow = np.hstack([x, (demands - x.sum(axis=1))[:, None]])
    spare = np.append(caps - x.sum(axis=0), np.inf)
    loss = gain[:, :, None] - gain[:, None, :]  # [i, j, k]: what pair i gives up moving from j to k
    price = np.zeros(n)
    nodes = np.arange(n)
    limit, augmented = _max_augmentations(m, r), 0
    while True:
        over = np.flatnonzero(spare < 0)
        if not len(over):
            return flow[:, :r]
        s = over[0]
        if not flow[:, s].any():  # an emptied route is not over capacity: its spare's running total is off by rounding
            spare[s] = caps[s]
            continue
        if augmented == limit:
            raise RuntimeError(f"flow assignment did not converge on {m} pairs x {r} routes")
        augmented += 1
        moves = np.where((flow > 0)[:, :, None], loss, np.inf)
        carrier = moves.argmin(axis=0)
        cost = moves[carrier, nodes[:, None], nodes]
        reduced = np.maximum(cost + price[:, None] - price, 0.0)
        dist = np.full(n, np.inf)
        dist[s] = 0.0
        pred = np.full(n, -1)
        for _ in range(n - 1):
            via = dist[:, None] + reduced
            u = via.argmin(axis=0)
            new = via[u, nodes]
            better = new < dist
            if not better.any():
                break
            dist[better], pred[better] = new[better], u[better]
        t = int(np.argmin(np.where(spare > 0, dist, np.inf)))  # walking is always reachable from s
        path = [t]
        while path[-1] != s:
            path.append(pred[path[-1]])
        step = {}  # (pair, node) -> net change per unit along the path: a pair may carry two arcs in a row
        for b, a in zip(path, path[1:]):
            i = carrier[a, b]
            step[i, a] = step.get((i, a), 0) - 1
            step[i, b] = step.get((i, b), 0) + 1
        delta = min(-spare[s], spare[t], *(flow[k] for k, c in step.items() if c < 0))
        for k, c in step.items():
            flow[k] += c * delta
        spare[s] += delta
        spare[t] -= delta
        price += np.minimum(dist, dist[t])


def _flow_bound(weights: np.ndarray, demands: np.ndarray, caps: np.ndarray) -> float:
    """An upper bound on the objective `assign_flows(weights, demands, caps)` returns, without solving it.

    Any prices v_j >= 0 on the route capacities give one (LP duality): with
    u_i = max(0, max_j w_ij - v_j), no flow earns more than
    sum(demands * u) + sum(caps * v).  Each v_j in turn is the price at which
    the demand still preferring route j over the rest first fills it, the
    best price with the others fixed.  A relative 1e-9 covers the rounding
    of the sums.
    """
    m, r = weights.shape
    v = np.zeros(r)
    for j in range(r):
        rest = np.delete(weights - v, j, axis=1)
        gain = weights[:, j] - (np.maximum(rest.max(axis=1), 0.0) if r > 1 else 0.0)
        order = np.argsort(-gain, kind="stable")
        full = np.flatnonzero(np.cumsum(demands[order]) >= caps[j])
        if len(full):
            v[j] = max(gain[order[full[0]]], 0.0)
    u = np.maximum((weights - v).max(axis=1), 0.0)
    bound = float(demands @ u + caps @ v)
    return bound + 1e-9 * max(1.0, abs(bound))


_CHUNK_CELLS = 1 << 16  # (pair, row, slot) cells per slice of the table filled at once; bounds the transient arrays
_BLOCK_CELLS = 1 << 20  # (sample, row) cells priced at once; bounds solve_batch's transient arrays


@dataclass
class _Prepared:
    """Per-instance precomputation shared across demand vectors.

    The allocation table: one row per feasible allocation in canonical-key
    order, routes ascending by candidate id, padded to nu slots by route -1
    (nobody rides it, it never fills), held whole; see `_table_chunk` and `_price`.
    """

    instance: NetworkInstance
    pairs: list[ODPair]
    beta1: np.ndarray  # (n_pairs, C)
    beta2: np.ndarray  # (C, K) stage-2 utilities, k = col + 1
    caps: np.ndarray  # (C, K)
    row_routes: np.ndarray  # (R, nu) candidate ids, -1 on pads
    row_buses: np.ndarray  # (R, nu) bus counts, 1 on pads
    row_caps: np.ndarray  # (R, nu) hourly capacities, inf on pads
    table: tuple[np.ndarray, np.ndarray, np.ndarray]  # (n_pairs, R) each: float64 gain, float64 rides, int8 slot


def prepare_instance(instance: NetworkInstance) -> _Prepared:
    routes = instance.candidate_routes
    if not routes:
        raise ValueError("empty candidate route set")
    pairs = instance.od_pairs()
    beta1 = np.array([[stage1_utility(p, r, instance) for r in routes] for p in pairs])
    beta1 = beta1.reshape(len(pairs), len(routes))
    ks = range(1, instance.fleet_size + 1)
    beta2 = np.array([[stage2_utility(r, k, instance.half_headway) for k in ks] for r in routes])
    caps = np.array([[route_capacity(r, k, instance.capacity) for k in ks] for r in routes])

    row_routes, row_buses = _allocation_rows(instance)
    row_caps = np.where(row_routes >= 0, caps[row_routes, row_buses - 1], np.inf)
    shape = (len(pairs), len(row_routes))
    table = np.empty(shape), np.empty(shape), np.empty(shape, dtype=np.int8)
    prep = _Prepared(instance, pairs, beta1, beta2, caps, row_routes, row_buses, row_caps, table)
    step = max(1, _CHUNK_CELLS // max(1, len(pairs) * instance.max_routes))
    for lo in range(0, len(row_routes), step):
        for whole, part in zip(table, _table_chunk(prep, slice(lo, lo + step))):
            whole[:, lo:lo + step] = part
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


def _price(lam: np.ndarray, table, caps: np.ndarray) -> tuple[np.ndarray, ...]:
    """Price every (sample, row) of the table: (bound, feasible, lower, check, value).

    `bound` is each row's uncapacitated bound, `feasible` its capacity
    feasibility, and `value` its bound where feasible, else -inf.  The
    screen: no slot carries more than all riders, so a row whose riders fit
    its smallest capacity fits.  A sample's optimum is at least `lower`,
    its best bound among the rows that pass, and x - _tie_tol(x) does not
    decrease, so a row whose bound falls short of lower - _tie_tol(lower)
    can neither win, tie nor enter the flow search.  Only the rows that
    fail the screen and reach that mark in some sample, `check`, get the
    per-slot sums, in every sample; any other row's feasibility is the
    screen's.
    """
    gain, rides, slot = table
    bound = lam @ gain
    feasible = lam @ rides <= functools.reduce(np.minimum, caps.T)  # column by column: faster than min(axis=1) over nu columns
    value = np.where(feasible, bound, -np.inf)
    lower = value.max(axis=1)
    check = np.flatnonzero((~feasible & (bound >= (lower - _tie_tol(lower))[:, None])).any(axis=0))
    if len(check):
        taken = slot[:, check]
        fits = np.all([lam @ (taken == j) <= caps[check, j] for j in range(caps.shape[1])], axis=0)
        feasible[:, check] |= fits
        value[:, check] = np.where(feasible[:, check], bound[:, check], -np.inf)
    return bound, feasible, lower, check, value


def _row_allocation(prep: _Prepared, row: int) -> tuple[tuple[int, int], ...]:
    return tuple(
        (int(cid), int(k)) for cid, k in zip(prep.row_routes[row], prep.row_buses[row]) if cid >= 0
    )


def _allocation_arcs(prep: _Prepared, alloc) -> tuple[np.ndarray, np.ndarray]:
    """Net utilities (pairs x routes) and hourly capacities of an allocation (no routes: walking)."""
    cid, bus = np.array(alloc, dtype=np.intp).reshape(-1, 2).T
    return prep.beta1[:, cid] + prep.beta2[cid, bus - 1], prep.caps[cid, bus - 1]


def solve_batch(prep: _Prepared, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact optimum for each row of demands `lam` (samples x `prep.pairs`): (table rows, objectives).

    Every row of the allocation table is priced for a block of samples at
    once (`_price`): a capacity-feasible row is worth its uncapacitated
    bound, and for each sample every capacity-bound row whose bound can still
    beat that sample's incumbent gets the exact flow assignment, best bound
    first, unless a dual bound on its flows (`_flow_bound`) already falls
    short.  Objectives within a relative 1e-12 tie and break toward the
    lowest row, the lexicographically smallest allocation key, so zero-flow
    routes are never reported unless the exact-route-count mode forces them.
    An objective is the winner's flow assignment, not its bound: a
    capacity-feasible winner is scored from its table row as
    `allocation_values` scores it, and a capacity-bound winner keeps the
    value its search gave.
    """
    if not len(prep.row_routes):
        raise ValueError("no feasible allocation (check max_routes vs candidate count)")
    lam = np.asarray(lam, dtype=np.float64)
    rows = np.empty(len(lam), dtype=np.intp)
    objectives = np.empty(len(lam))
    scored = np.empty(len(lam), dtype=bool)
    step = max(1, _BLOCK_CELLS // len(prep.row_routes))
    for lo in range(0, len(lam), step):
        block = slice(lo, lo + step)
        rows[block], objectives[block], scored[block] = _block_winners(prep, lam[block])
    gain, _, slot = prep.table
    at = np.flatnonzero(~scored)
    won = rows[at]
    objectives[at], over = _best_route_values(lam[at], slot[:, won].T, gain[:, won].T, prep.row_caps[won])
    for s in at[over]:
        w, caps = _allocation_arcs(prep, _row_allocation(prep, rows[s]))
        objectives[s] = assign_flows(w, lam[s], caps)[1]
    return rows, objectives


def _block_winners(prep: _Prepared, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Winning table row per sample, and its objective where its flow assignment gave it."""
    bound, feasible, lower, check, value = _price(lam, prep.table, prep.row_caps)
    # a row left unchecked is worth at most lower (it passed the screen) or nothing (it failed it)
    best = np.maximum(lower, value[:, check].max(axis=1, initial=-np.inf))
    # every capacity-bound row that can still win was checked; the search stops at the first that cannot
    blocked = ~feasible[:, check]
    for s in np.flatnonzero(blocked.any(axis=1)):
        candidates = check[blocked[s]]
        for row in candidates[np.argsort(-bound[s, candidates], kind="stable")]:
            if bound[s, row] < best[s] - _tie_tol(best[s]):
                break  # no later row's bound reaches the incumbent either
            w, caps = _allocation_arcs(prep, _row_allocation(prep, row))
            if _flow_bound(w, lam[s], caps) < best[s] - _tie_tol(best[s]):
                continue  # its flows cannot reach the incumbent either
            _, value[s, row] = assign_flows(w, lam[s], caps)
            best[s] = max(best[s], value[s, row])
    winners = np.argmax(value >= (best - _tie_tol(best))[:, None], axis=1)
    picked = np.arange(len(lam)), winners
    # a capacity-bound winner had its flow assignment above, the one allocation_values runs
    return winners, value[picked], ~feasible[picked]


def allocation_values(prep: _Prepared, alloc: tuple[tuple[int, int], ...], lam: np.ndarray) -> np.ndarray:
    """Objective of the optimal flows for a fixed allocation of (route id, buses), per row of `lam`.

    Each value is `assign_flows` on that row, bit for bit (see
    `_best_route_values`); only capacity-bound rows call `assign_flows`.
    """
    w, caps = _allocation_arcs(prep, alloc)
    lam = np.asarray(lam, dtype=np.float64)
    if not w.size:
        return np.zeros(len(lam))
    best = np.argmax(w, axis=1)
    best_w = w[np.arange(len(w)), best]
    values, over = _best_route_values(lam, np.where(best_w > 0, best, -1), best_w, caps)
    for s in over:
        values[s] = assign_flows(w, lam[s], caps)[1]
    return values


def _best_route_values(lam: np.ndarray, best: np.ndarray, best_w: np.ndarray, caps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Objective of every pair on its best route, per row of `lam`, and the rows where that overloads a route.

    In row s, pair i rides route best[s, i] (a column of caps[s], whose pads
    are inf; -1: it walks) for best_w[s, i] > 0.  Values and loads are
    `assign_flows`' first check, bit for bit: an objective sums over the
    riders alone as `np.sum` does, and a route's load over every pair as
    `x.sum(axis=0)` does, pairwise for a lone route and pair by pair for
    several.
    """
    lam, best, best_w = np.broadcast_arrays(lam, best, best_w)
    caps = np.broadcast_to(caps, (len(lam), caps.shape[-1]))
    x = np.zeros((lam.shape[1], caps.shape[1], len(lam)))  # C order, pairs outermost: summed pair by pair
    np.copyto(x, lam.T[:, None], where=best.T[:, None] == np.arange(caps.shape[1])[:, None])
    loads = x.sum(axis=0).T
    lone = np.count_nonzero(np.isfinite(caps), axis=1) == 1
    loads[lone, 0] = np.ascontiguousarray(x[:, 0, lone].T).sum(axis=1)  # pairwise, as one route's column sums
    riders = best >= 0
    count = np.count_nonzero(riders, axis=1)
    products = lam * best_w
    values = np.empty(len(lam))
    for n in np.unique(count):  # the rows with n riders each, their products contiguous: summed as np.sum sums n
        rows = np.flatnonzero(count == n)
        values[rows] = products[rows][riders[rows]].reshape(len(rows), n).sum(axis=1)
    return values, np.flatnonzero(~np.all(loads <= caps, axis=1))


def row_key(prep: _Prepared, row: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """A table row's allocation key, as `RouteDesign.key()` gives it."""
    routes = prep.instance.candidate_routes
    return _assignment_key((routes[cid].stops, k) for cid, k in _row_allocation(prep, row))


def row_design(prep: _Prepared, row: int, lam: np.ndarray) -> RouteDesign:
    """A table row's design for demand `lam` aligned to `prep.pairs`."""
    return _design_for_allocation(prep, lam, _row_allocation(prep, row))


def solve_instance(instance: NetworkInstance, demand: DemandVector, prepared: _Prepared | None = None) -> RouteDesign:
    """Exact optimum over all feasible allocations and flow assignments (see `solve_batch`)."""
    prep = prepared if prepared is not None else prepare_instance(instance)
    lam = np.array([demand.get(p) for p in prep.pairs])
    return row_design(prep, int(solve_batch(prep, lam[None])[0][0]), lam)


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


def instance_from_json_dict(doc: dict) -> NetworkInstance:
    """The network in `doc`, each field read by the config's checked readers as network.<field>."""

    def integer(d: dict, path: str, minimum: int) -> int:
        return config.parse_int(config.field(d, path), path, minimum)

    def number(d: dict, path: str, *default) -> float:
        return config.parse_float(config.field(d, path, object, *default), path)

    def locations(key: str) -> list[Location]:
        found = []
        for i, d in enumerate(config.field(doc, f"network.{key}", list)):
            path = f"network.{key}[{i}]"
            config.json_object(d, path)
            coord = (number(d, f"{path}.x"), number(d, f"{path}.y"))
            found.append(Location(integer(d, f"{path}.id", 0), config.field(d, f"{path}.label", str), coord))
        return found

    def ride_time(n_stops: int) -> list[list[float]]:
        rows = config.field(doc, "network.ride_time", list)
        if len(rows) != n_stops:
            raise config.ConfigError("network.ride_time", f"expected {n_stops} rows, one per bus stop")
        for i, row in enumerate(rows):
            if len(config.json_list(row, f"network.ride_time[{i}]")) != n_stops:
                raise config.ConfigError(f"network.ride_time[{i}]", f"expected {n_stops} entries, one per bus stop")
        return [[config.parse_float(v, f"network.ride_time[{i}][{j}]") for j, v in enumerate(row)]
                for i, row in enumerate(rows)]

    demand_nodes = locations("locations")
    for key in ("id", "label"):
        first = {}
        for i, node in enumerate(demand_nodes):
            if (j := first.setdefault(getattr(node, key), i)) != i:
                raise config.ConfigError(f"network.locations[{i}].{key}", f"repeats network.locations[{j}].{key}")

    bus_stops = locations("bus_stops")
    fields = dict(
        demand_nodes=demand_nodes,
        bus_stops=bus_stops,
        walk_speed=number(doc, "network.walk_speed"),
        ride_time=ride_time(len(bus_stops)),
        fleet_size=integer(doc, "network.fleet_size", 1),
        capacity=number(doc, "network.capacity"),
        max_routes=integer(doc, "network.max_routes", 1),
        max_route_stops=integer(doc, "network.max_route_stops", 1),
        dwell_time=number(doc, "network.dwell_time", 0.0),
        half_headway=config.field(doc, "network.half_headway", bool, False),
        exact_route_count=config.field(doc, "network.exact_route_count", bool, False),
    )
    try:
        return NetworkInstance(**fields)
    except ValueError as exc:
        raise config.ConfigError("network", str(exc)) from None


def load_instance(path) -> NetworkInstance:
    with open(path, encoding="utf-8") as fh:
        return instance_from_json_dict(json.load(fh))


def save_instance(instance: NetworkInstance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_json_dict(instance), fh, indent=2, sort_keys=True)
        fh.write("\n")
