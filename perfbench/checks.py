"""Correctness checks on the program's outputs, and a self-test of them.

Every check returns a list of failure messages (empty when the output
passes).  Each compares against a computation made here, from the generated
input files, or against a property the method must have.  ``self_test``
feeds every check one planted wrong output and one right one, and reports
each check that does not tell them apart.

Run ``python3 perfbench/checks.py`` to run the self-test alone.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

REL_TOL = 1e-9  # exhaustive optimum vs solver objective
FLOW_TOL = 1e-6  # conservation and capacity slack, relative to the flow size
RESID_TOL = 1e-6  # a training row within this of the fit lies on it


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# Forecasts and fits
# ---------------------------------------------------------------------------


def quantile_order(forecasts) -> list[str]:
    """Every forecast's quantiles are >= 0 and non-decreasing in the level."""
    out = []
    for fc in forecasts:
        vals = [fc.values[q] for q in sorted(fc.values)]
        if any(not np.isfinite(v) or v < 0 for v in vals):
            out.append(f"forecast {fc.pair} at {fc.lag}: negative or non-finite quantile {vals}")
        elif any(b < a for a, b in zip(vals, vals[1:])):
            out.append(f"forecast {fc.pair} at {fc.lag}: quantiles out of order {vals}")
    return out


def total_mtl(forecasts_by_pair, truths_by_pair, levels) -> float:
    """Sum over pairs and levels of the mean pinball loss over lags."""
    total = 0.0
    for pair, fcs in forecasts_by_pair.items():
        y = np.asarray(truths_by_pair[pair], dtype=np.float64)
        for q in levels:
            pred = np.array([fc.values[q] for fc in fcs])
            err = y - pred
            total += float(np.mean(np.where(err >= 0, q * err, (q - 1.0) * err)))
    return total


def mtl_matches(forecasts_by_pair, truths_by_pair, levels, reported: float) -> list[str]:
    own = total_mtl(forecasts_by_pair, truths_by_pair, levels)
    if not _close(own, reported, REL_TOL):
        return [f"total MTL {reported!r} differs from the recomputed {own!r}"]
    return []


def lp_optimality(X, y, coef: dict) -> list[str]:
    """A pinball-loss optimum has at most q*n rows strictly below and (1-q)*n above.

    Holds because the hour-of-day one-hot spans the constant, so shifting the
    fit up or down is a feasible direction at the optimum.
    """
    out = []
    n = len(y)
    for q, beta in coef.items():
        resid = np.asarray(y) - np.asarray(X) @ beta
        below = int(np.sum(resid < -RESID_TOL))
        above = int(np.sum(resid > RESID_TOL))
        if below > q * n + 1e-9 or above > (1.0 - q) * n + 1e-9:
            out.append(f"q={q}: {below} rows below and {above} above the fit of {n} rows")
    return out


def loss_path(train_loss: dict) -> list[str]:
    """Boosting training loss never increases from one stage to the next."""
    out = []
    for q, path in train_loss.items():
        for i, (a, b) in enumerate(zip(path, path[1:])):
            if b > a + 1e-12 * max(1.0, abs(a)):
                out.append(f"q={q}: training loss rose at stage {i + 1}: {a!r} -> {b!r}")
                break
    return out


def samples_in_support(samples, forecasts, pair_order) -> list[str]:
    """Samples are finite and inside [0, top + bottom quantile] of their pair's forecast."""
    samples = np.asarray(samples, dtype=np.float64)
    if not np.all(np.isfinite(samples)):
        return ["non-finite joint sample"]
    out = []
    for j, pair in enumerate(pair_order):
        vals = forecasts[pair].values
        levels = sorted(vals)
        top = vals[levels[-1]] + vals[levels[0]]
        col = samples[:, j]
        if col.min() < 0.0 or col.max() > top * (1 + 1e-12) + 1e-12:
            out.append(f"pair {pair}: samples in [{col.min()}, {col.max()}] outside [0, {top}]")
    return out


# ---------------------------------------------------------------------------
# Network, designs and the exhaustive optimum
# ---------------------------------------------------------------------------


@dataclass
class Net:
    """The network file as read here, independently of drtopt.tndfs."""

    nodes: dict  # demand node id -> (x, y)
    stops: list  # stop index -> (x, y)
    walk_speed: float
    ride: np.ndarray
    fleet: int
    capacity: float
    max_routes: int
    max_stops: int
    dwell: float
    half_headway: bool
    exact_count: bool

    @classmethod
    def from_doc(cls, doc: dict) -> "Net":
        return cls(
            nodes={int(n["id"]): (float(n["x"]), float(n["y"])) for n in doc["locations"]},
            stops=[(float(s["x"]), float(s["y"])) for s in doc["bus_stops"]],
            walk_speed=float(doc["walk_speed"]),
            ride=np.asarray(doc["ride_time"], dtype=np.float64),
            fleet=int(doc["fleet_size"]),
            capacity=float(doc["capacity"]),
            max_routes=int(doc["max_routes"]),
            max_stops=int(doc["max_route_stops"]),
            dwell=float(doc.get("dwell_time", 0.0)),
            half_headway=bool(doc.get("half_headway", False)),
            exact_count=bool(doc.get("exact_route_count", False)),
        )

    @classmethod
    def load(cls, path) -> "Net":
        with open(path, encoding="utf-8") as fh:
            return cls.from_doc(json.load(fh))

    def walk(self, a, b) -> float:
        return (abs(a[0] - b[0]) + abs(a[1] - b[1])) / self.walk_speed

    def cycle_time(self, stops) -> float:
        if len(stops) == 1:
            return float(self.ride[stops[0], stops[0]]) + self.dwell
        legs = zip(stops, stops[1:] + stops[:1])
        return float(sum(self.ride[a, b] for a, b in legs)) + self.dwell * len(stops)

    def hourly_capacity(self, stops, buses: int) -> float:
        return 60.0 * buses / self.cycle_time(stops) * self.capacity

    def loops(self) -> list[tuple]:
        """Closed loops over 1..L distinct stops, one per rotation class."""
        seen = set()
        for m in range(1, min(self.max_stops, len(self.stops)) + 1):
            for seq in itertools.permutations(range(len(self.stops)), m):
                seen.add(min(seq[i:] + seq[:i] for i in range(m)))
        return sorted(seen, key=lambda s: (len(s), s))

    def saving(self, o: int, d: int, stops) -> float:
        """Walking time saved per passenger from o to d by the best ride on the loop."""
        src, dst = self.nodes[o], self.nodes[d]
        best = np.inf
        m = len(stops)
        if m == 1:
            best = self.walk(src, self.stops[stops[0]]) + self.walk(self.stops[stops[0]], dst)
        for b in range(m):
            ride = 0.0
            for j in range(1, m):
                a, c = stops[(b + j - 1) % m], stops[(b + j) % m]
                ride += self.ride[a, c] + self.dwell
                cost = self.walk(src, self.stops[stops[b]]) + ride + self.walk(self.stops[c], dst)
                best = min(best, cost)
        return self.walk(src, dst) - best


def design_feasible(design, demand: dict, net: Net) -> list[str]:
    """Fleet, route-count, stop-count, capacity, sign and conservation constraints."""
    out = []
    alloc = {route.id: (tuple(route.stops), int(k)) for route, k in design.allocation}
    if sum(k for _, k in alloc.values()) > net.fleet:
        out.append(f"{design.itinerary()}: uses more than {net.fleet} buses")
    if len(alloc) > net.max_routes:
        out.append(f"{design.itinerary()}: more than {net.max_routes} routes")
    for stops, k in alloc.values():
        if len(stops) > net.max_stops or len(set(stops)) != len(stops) or k < 1:
            out.append(f"{design.itinerary()}: route {stops} with {k} buses breaks the stop limit")
    per_route = dict.fromkeys(alloc, 0.0)
    per_pair: dict = {}
    for (pair, rid), flow in design.flows_stage1.items():
        if not flow >= 0.0:
            out.append(f"{design.itinerary()}: flow {flow} on {pair} route {rid}")
        if rid != -1:
            if rid not in alloc:
                out.append(f"{design.itinerary()}: flow on unallocated route {rid}")
                continue
            per_route[rid] += flow
        key = (pair.origin, pair.destination)
        per_pair[key] = per_pair.get(key, 0.0) + flow
    for rid, flow in per_route.items():
        cap = net.hourly_capacity(*alloc[rid])
        if flow > cap * (1 + FLOW_TOL):
            out.append(f"{design.itinerary()}: route {alloc[rid][0]} carries {flow} over capacity {cap}")
    for pair, lam in demand.items():
        key = (pair.origin, pair.destination)
        if not abs(per_pair.get(key, 0.0) - lam) <= FLOW_TOL * max(1.0, lam):
            out.append(f"{design.itinerary()}: pair {key} routes+walks {per_pair.get(key, 0.0)} of {lam}")
    return out


def _flow_lp(w: np.ndarray, lam: np.ndarray, caps: np.ndarray) -> float:
    """Max sum(w*x) with per-pair supplies lam and per-route capacities caps."""
    m, r = w.shape
    a_ub = np.vstack([np.kron(np.eye(m), np.ones((1, r))), np.kron(np.ones((1, m)), np.eye(r))])
    res = linprog(-w.ravel(), A_ub=a_ub, b_ub=np.concatenate([lam, caps]),
                  bounds=[(0, None if wi > 0 else 0) for wi in w.ravel()], method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference flow LP failed: {res.message}")
    return -float(res.fun)


def exhaustive_optimum(net: Net, demand: dict) -> float:
    """Best objective over every allocation, by enumeration.

    For each route set and bus split, the best-route assignment is optimal
    when it fits every capacity; otherwise the flow LP is solved.  An
    allocation is skipped only when its uncapacitated value cannot beat the
    best found, which never changes the optimum.
    """
    pairs = sorted(demand, key=lambda p: (p.origin, p.destination))
    lam = np.array([demand[p] for p in pairs], dtype=np.float64)
    routes = net.loops()
    beta1 = np.array([[net.saving(p.origin, p.destination, r) for r in routes] for p in pairs])
    tau = np.array([net.cycle_time(r) for r in routes])
    sizes = [net.max_routes] if net.exact_count else range(1, net.max_routes + 1)
    best = -np.inf if net.exact_count else 0.0
    for size in sizes:
        combos = np.array(list(itertools.combinations(range(len(routes)), size)), dtype=np.int64)
        for split in itertools.product(range(1, net.fleet + 1), repeat=size):
            if sum(split) > net.fleet or len(combos) == 0:
                continue
            ks = np.array(split, dtype=np.float64)
            wait = tau[combos] / ks
            w = beta1[:, combos] - (wait / 2.0 if net.half_headway else wait)[None]  # (P, N, size)
            caps = 60.0 * ks / tau[combos] * net.capacity  # (N, size)
            top = w.max(axis=2)
            bound = lam @ np.maximum(top, 0.0)
            take = np.argmax(w, axis=2)
            rides = (top > 0) * lam[:, None]
            inflow = np.stack([(rides * (take == j)).sum(axis=0) for j in range(size)], axis=1)
            free = np.all(inflow <= caps, axis=1)
            if free.any():
                best = max(best, float(bound[free].max()))
            bound_blocked = np.flatnonzero(~free)
            for n in bound_blocked[np.argsort(-bound[bound_blocked], kind="stable")]:
                if bound[n] <= best:
                    break
                best = max(best, _flow_lp(w[:, n, :], lam, caps[n]))
    return best


def matches_exhaustive(net: Net, demand: dict, objective: float) -> list[str]:
    ref = exhaustive_optimum(net, demand)
    if not _close(objective, ref, REL_TOL):
        return [f"solver objective {objective!r} differs from the exhaustive optimum {ref!r}"]
    return []


# ---------------------------------------------------------------------------
# Decisions
# ---------------------------------------------------------------------------


def optimum_dominates(sample_objectives, chosen_values) -> list[str]:
    """Each sample's optimum is at least the chosen allocation evaluated on it."""
    worse = [i for i, (opt, ch) in enumerate(zip(sample_objectives, chosen_values))
             if opt < ch - REL_TOL * max(1.0, abs(ch))]
    return [f"samples {worse[:5]}: optimum below the chosen allocation"] if worse else []


def hindsight_dominates(gt_objective: float, strategy_objectives: dict) -> list[str]:
    """On observed demand the hindsight design is at least as good as every strategy."""
    return [
        f"strategy {name} reaches {obj!r} above the hindsight optimum {gt_objective!r}"
        for name, obj in strategy_objectives.items()
        if obj > gt_objective + REL_TOL * max(1.0, abs(gt_objective))
    ]


def histogram_mode(histogram: dict, chosen_key, k: int) -> list[str]:
    out = []
    if sum(histogram.values()) != k:
        out.append(f"histogram counts sum to {sum(histogram.values())}, not k={k}")
    if histogram.get(chosen_key, -1) != max(histogram.values()):
        out.append(f"chosen allocation {chosen_key} does not have the top count")
    return out


# ---------------------------------------------------------------------------
# Self-test: each check must reject a planted wrong output
# ---------------------------------------------------------------------------


def self_test() -> list[str]:
    """Names of checks that pass a planted wrong output or reject a right one."""
    from drtopt.data import Location, ODPair
    from drtopt.qr import QuantileForecast
    from drtopt.tndfs import DemandVector, NetworkInstance, instance_to_json_dict, solve_instance

    bad: list[str] = []

    def expect(name: str, right: list[str], wrong: list[str]) -> None:
        if right or not wrong:
            bad.append(name)

    pair = ODPair(0, 1)
    lag = np.datetime64("2018-01-08T09", "h")
    good_fc = QuantileForecast(pair, lag, {0.05: 1.0, 0.5: 4.0, 0.95: 9.0})
    swapped = QuantileForecast(pair, lag, {0.05: 1.0, 0.5: 10.0, 0.95: 9.0})
    expect("quantile_order", quantile_order([good_fc]), quantile_order([swapped]))

    fcs = {pair: [good_fc, good_fc]}
    truths = {pair: [3.0, 12.0]}
    levels = (0.05, 0.5, 0.95)
    right = total_mtl(fcs, truths, levels)
    expect("mtl_matches", mtl_matches(fcs, truths, levels, right),
           mtl_matches(fcs, truths, levels, right * (1 + 1e-6)))

    rng = np.random.default_rng(0)
    X = np.column_stack([np.ones(40), rng.normal(size=40)])
    y = X @ np.array([2.0, 1.0]) + rng.normal(size=40)
    beta = np.array([np.quantile(y - X[:, 1], 0.5), 1.0])  # median shift of a fixed slope
    expect("lp_optimality", lp_optimality(X, y, {0.5: beta}),
           lp_optimality(X, y, {0.5: beta + np.array([3.0, 0.0])}))

    expect("loss_path", loss_path({0.5: [3.0, 2.0, 2.0]}), loss_path({0.5: [3.0, 2.0, 2.5]}))

    fc_map = {pair: good_fc}
    expect("samples_in_support",
           samples_in_support(np.array([[0.0], [10.0]]), fc_map, [pair]),
           samples_in_support(np.array([[0.0], [10.5]]), fc_map, [pair]))

    a, b, c = Location(0, "a", (0.0, 0.0)), Location(1, "b", (1200.0, 0.0)), Location(2, "c", (0.0, 900.0))
    inst = NetworkInstance([a, b, c], [a, b, c], 80.0, np.array([[2.0, 3.0, 3.0], [3.0, 2.0, 4.0], [3.0, 4.0, 2.0]]),
                           fleet_size=2, capacity=5.0, max_routes=2, max_route_stops=3)
    net = Net.from_doc(instance_to_json_dict(inst))
    demand = {ODPair(0, 1): 40.0, ODPair(1, 2): 25.0, ODPair(2, 0): 10.0}
    design = solve_instance(inst, DemandVector(demand))
    over = type(design)(design.allocation, dict(design.flows_stage1), design.flows_stage2, design.objective)
    route_id = design.allocation[0][0].id
    moved = next(p for (p, rid) in over.flows_stage1 if rid == -1 and over.flows_stage1[(p, -1)] > 0)
    spare = over.flows_stage1[(moved, -1)]
    over.flows_stage1[(moved, -1)] = 0.0
    over.flows_stage1[(moved, route_id)] = over.flows_stage1.get((moved, route_id), 0.0) + spare
    expect("design_feasible", design_feasible(design, demand, net), design_feasible(over, demand, net))

    expect("matches_exhaustive", matches_exhaustive(net, demand, design.objective),
           matches_exhaustive(net, demand, design.objective - 1.0))
    expect("optimum_dominates", optimum_dominates([5.0, 4.0], [5.0, 3.5]),
           optimum_dominates([5.0, 4.0], [5.0, 4.5]))
    expect("hindsight_dominates", hindsight_dominates(7.0, {"P": 7.0, "M": 6.0}),
           hindsight_dominates(7.0, {"P": 7.5}))
    key_a, key_b = (((0,), 1),), (((1,), 1),)
    expect("histogram_mode", histogram_mode({key_a: 3, key_b: 1}, key_a, 4),
           histogram_mode({key_a: 3, key_b: 1}, key_b, 4))
    return bad


if __name__ == "__main__":
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    failed = self_test()
    print("self-test:", "every check rejects its planted wrong output" if not failed
          else f"checks that missed a planted fault: {failed}")
    sys.exit(1 if failed else 0)
