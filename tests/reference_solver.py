"""Slow references for `tndfs.solve_instance` and `pipeline.optimize_lag`.

`reference_solve` is the three-branch exact search that the table sweep
replaced: single routes are priced with one einsum, route pairs with a
chunked array sweep, and larger route sets in a Python loop.  Ties within the
relative tolerance break toward the smallest allocation key, exactly as in
the table sweep, so both must return the same design.

`oracle_solve` brute-forces tiny instances over integer-grid flow splits and
shares no search logic with either.

`reference_solve_demand` is the per-sample table sweep that
`tndfs.solve_batch` replaced: one demand vector priced per call, and the
winner's objective from its own flow assignment over all pairs.

`reference_optimize_lag` is the per-sample decision loop that the batched
one replaced: a `DemandVector`, a `reference_solve_demand` and a full design
per sample, and `evaluate_allocation` for the mode on every sample.

`reference_assign_flows` is the HiGHS LP that `tndfs.assign_flows` solved
for capacity-bound allocations before successive shortest paths replaced it.
"""

import itertools

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from drtopt.copula import sample_joint
from drtopt.pipeline import ScenarioResult
from drtopt.tndfs import (
    WALK_ROUTE,
    DemandVector,
    RouteDesign,
    _allocation_arcs,
    _allocation_sizes,
    _assignment_key,
    _bus_splits,
    _design_for_allocation,
    _row_allocation,
    _table_chunk,
    _tie_tol,
    assign_flows,
    evaluate_allocation,
    prepare_instance,
    row_design,
)

_PAIR_CHUNK = 50_000


def reference_assign_flows(weights, demands, caps):
    """Max sum(w*x) over x >= 0 with per-pair supplies and per-route capacities, by HiGHS: (x, objective)."""
    m, r = weights.shape
    a_ub = sparse.vstack(
        [sparse.kron(sparse.identity(m), np.ones((1, r))), sparse.kron(np.ones((1, m)), sparse.identity(r))],
        format="csc",
    )
    res = linprog(-weights.ravel(), A_ub=a_ub, b_ub=np.concatenate([demands, caps]), bounds=(0, None), method="highs")
    if res.status != 0 or res.x is None:
        raise RuntimeError(f"flow assignment LP failed: {res.message}")
    x = res.x.reshape(m, r)
    x[weights <= 0] = 0.0  # numerically irrelevant flow on non-positive-utility arcs
    return x, float(np.sum(weights * x))


def _unconstrained_bound(weights, demands):
    return float(np.sum(demands * np.maximum(weights.max(axis=1), 0.0)))


def reference_solve(instance, demand, prepared=None):
    prep = prepared if prepared is not None else prepare_instance(instance)
    routes = instance.candidate_routes
    C = len(routes)
    K = instance.fleet_size

    all_pairs = prep.pairs
    lam_all = np.array([demand.get(p) for p in all_pairs])
    active = lam_all > 0
    lam = lam_all[active]
    beta1 = prep.beta1[active]

    best_obj = -np.inf
    best_key = None
    best_alloc = None  # ((route_id, k), ...)

    def consider(obj, alloc):
        nonlocal best_obj, best_key, best_alloc
        key = _assignment_key([(routes[rid].stops, k) for rid, k in alloc])
        tol = _tie_tol(best_obj)
        if obj > best_obj + tol or (abs(obj - best_obj) <= tol and (best_key is None or key < best_key)):
            best_obj, best_key, best_alloc = obj, key, alloc

    sizes = _allocation_sizes(instance)

    if len(lam) == 0:
        # every allocation carries zero flow: the canonical tie-break picks
        # the smallest key, which is all-walking or (in exact mode) the
        # stops-minimal routes with one bus each
        if 0 in sizes:
            return _design_for_allocation(prep, lam_all, ())
        size = instance.max_routes
        if size > C:
            raise ValueError("no feasible allocation (check max_routes vs candidate count)")
        by_stops = sorted(range(C), key=lambda cid: routes[cid].stops)
        alloc = tuple((cid, 1) for cid in sorted(by_stops[:size]))
        return _design_for_allocation(prep, lam_all, alloc)

    if 1 in sizes and C > 0:
        # (n_active, C, K) net utilities, vectorized over single-route allocations
        W = beta1[:, :, None] + prep.beta2[None, :, :]
        pos = np.maximum(W, 0.0)
        obj_uncap = np.einsum("i,ick->ck", lam, pos)
        inflow = np.einsum("i,ick->ck", lam, (W > 0).astype(np.float64))
        feasible = inflow <= prep.caps
        for cid in range(C):
            for kk in range(1, K + 1):
                alloc = ((cid, kk),)
                if feasible[cid, kk - 1]:
                    consider(float(obj_uncap[cid, kk - 1]), alloc)
                else:
                    if obj_uncap[cid, kk - 1] < best_obj - _tie_tol(best_obj):
                        continue  # capped objective is below this bound already
                    w = (beta1[:, cid] + prep.beta2[cid, kk - 1])[:, None]
                    _, obj = assign_flows(w, lam, prep.caps[cid : cid + 1, kk - 1])
                    consider(float(obj), alloc)

    if 0 in sizes:
        consider(0.0, ())

    for size in sizes:
        if size < 2 or size > C:
            continue
        splits = _bus_splits(size, K)
        if not splits:
            continue
        if size == 2:
            _scan_route_pairs(prep, lam, beta1, splits, consider, lambda: best_obj)
            continue
        for combo in itertools.combinations(range(C), size):
            cols = beta1[:, combo]
            for split in splits:
                alloc = tuple(zip(combo, split))
                w = cols + np.array([prep.beta2[cid, k - 1] for cid, k in alloc])[None, :]
                ub = _unconstrained_bound(w, lam)
                if ub < best_obj - _tie_tol(best_obj):
                    continue
                caps = np.array([prep.caps[cid, k - 1] for cid, k in alloc])
                take = np.argmax(w, axis=1)
                take_w = w[np.arange(len(lam)), take]
                inflow = np.zeros(size)
                np.add.at(inflow, take[take_w > 0], lam[take_w > 0])
                if np.all(inflow <= caps):
                    consider(ub, alloc)
                else:
                    _, obj = assign_flows(w, lam, caps)
                    consider(float(obj), alloc)

    if best_alloc is None:
        raise ValueError("no feasible allocation (check max_routes vs candidate count)")

    return _design_for_allocation(prep, lam_all, best_alloc)


def _scan_route_pairs(prep, lam, beta1, splits, consider, current_best):
    """Vectorized sweep of all two-route allocations.

    Per chunk of route pairs and bus split, the best-route assignment and
    capacity check run as array ops.  Only allocations that can tie or beat
    the incumbent drop to scalar handling: for capacity-feasible ones that is
    the chunk maximum and its ties; capacity-bound ones are solved exactly in
    decreasing upper-bound order so the incumbent prunes fast.
    """
    C = beta1.shape[1]
    combos = np.array(list(itertools.combinations(range(C), 2)))
    for start in range(0, len(combos), _PAIR_CHUNK):
        chunk = combos[start : start + _PAIR_CHUNK]
        i_idx, j_idx = chunk[:, 0], chunk[:, 1]
        for k1, k2 in splits:
            w1 = beta1[:, i_idx] + prep.beta2[i_idx, k1 - 1][None, :]
            w2 = beta1[:, j_idx] + prep.beta2[j_idx, k2 - 1][None, :]
            best_w = np.maximum(w1, w2)
            ub = lam @ np.maximum(best_w, 0.0)
            take1 = (w1 >= w2) & (w1 > 0)  # ties go to the first route
            take2 = (w2 > w1) & (w2 > 0)
            feasible = (lam @ take1 <= prep.caps[i_idx, k1 - 1]) & (
                lam @ take2 <= prep.caps[j_idx, k2 - 1]
            )

            cand = np.flatnonzero(feasible)
            if len(cand):
                # anything below both the chunk maximum and the incumbent can
                # neither win nor tie the final optimum
                bar = max(float(ub[cand].max()), current_best())
                bar -= _tie_tol(bar)
                for pos in cand[ub[cand] >= bar]:
                    consider(float(ub[pos]), ((int(i_idx[pos]), k1), (int(j_idx[pos]), k2)))
            blocked = np.flatnonzero(~feasible & (ub >= current_best() - _tie_tol(current_best())))
            for pos in blocked[np.argsort(-ub[blocked], kind="stable")]:
                if ub[pos] < current_best() - _tie_tol(current_best()):
                    continue
                cid_i, cid_j = int(i_idx[pos]), int(j_idx[pos])
                w = np.column_stack([w1[:, pos], w2[:, pos]])
                caps = np.array([prep.caps[cid_i, k1 - 1], prep.caps[cid_j, k2 - 1]])
                _, obj = assign_flows(w, lam, caps)
                consider(float(obj), ((cid_i, k1), (cid_j, k2)))


def _integer_splits(total: int, parts: int, step: int):
    """All ways to split `total` into `parts` non-negative multiples of step."""
    if parts == 1:
        yield (total,)
        return
    for first in range(0, total + 1, step):
        for rest in _integer_splits(total - first, parts - 1, step):
            yield (first,) + rest


def oracle_solve(instance, demand, grid_step=1) -> RouteDesign:
    """Brute force over allocations and integer-grid flow splits.

    Guarded to tiny instances; demands must be integers.  Flow assignments are
    enumerated directly, so this shares no search logic with solve_instance.
    """
    if len(instance.bus_stops) > 3 or instance.fleet_size > 2:
        raise ValueError("oracle_solve is guarded to <= 3 stops and K <= 2")
    nonzero = [(p, v) for p, v in sorted(demand.rates.items()) if v > 0]
    if len(nonzero) > 2:
        raise ValueError("oracle_solve is guarded to <= 2 OD pairs with demand")
    if any(abs(v - round(v)) > 1e-9 for _, v in nonzero):
        raise ValueError("oracle_solve needs integer demands")

    routes = instance.candidate_routes
    prep = prepare_instance(instance)
    pair_index = {p: i for i, p in enumerate(prep.pairs)}

    best_obj = -np.inf
    best_key = None
    best = None

    sizes = _allocation_sizes(instance)
    for size in sizes:
        if size > len(routes):
            continue
        for combo in itertools.combinations(range(len(routes)), size):
            for split in _bus_splits(size, instance.fleet_size):
                caps = [prep.caps[cid, k - 1] for cid, k in zip(combo, split)]
                ws = {
                    p: [prep.beta1[pair_index[p], cid] + prep.beta2[cid, k - 1] for cid, k in zip(combo, split)]
                    for p, _ in nonzero
                }
                per_pair_options = [
                    list(_integer_splits(int(round(v)), size + 1, grid_step)) for _, v in nonzero
                ]
                for assignment in itertools.product(*per_pair_options):
                    inflow = [0.0] * size
                    obj = 0.0
                    for (p, _), flows in zip(nonzero, assignment):
                        for j in range(size):
                            inflow[j] += flows[j]
                            obj += ws[p][j] * flows[j]
                    if any(inflow[j] > caps[j] + 1e-9 for j in range(size)):
                        continue
                    key = _assignment_key([(routes[cid].stops, k) for cid, k in zip(combo, split)])
                    if obj > best_obj + 1e-9 or (abs(obj - best_obj) <= 1e-9 and (best_key is None or key < best_key)):
                        best_obj = obj
                        best_key = key
                        best = (tuple(zip(combo, split)), assignment)

    if best is None:
        raise ValueError("oracle found no feasible allocation")
    alloc, assignment = best
    flows1, flows2 = {}, {}
    for (p, v), flows in zip(nonzero, assignment):
        for j, (cid, _) in enumerate(alloc):
            if flows[j] > 0:
                flows1[(p, cid)] = float(flows[j])
        flows1[(p, WALK_ROUTE)] = float(flows[-1])
    for j, (cid, k) in enumerate(alloc):
        flows2[(cid, k)] = float(sum(flows[j] for flows in assignment))
    ordered = tuple(sorted(((routes[cid], k) for cid, k in alloc), key=lambda rk: rk[0].stops))
    return RouteDesign(ordered, flows1, flows2, float(best_obj))


def _price_chunk(lam, chunk, caps):
    """Uncapacitated bound and capacity feasibility of every row of a chunk, for one demand vector."""
    gain, rides, slot = chunk
    bound = lam @ gain
    feasible = lam @ rides <= caps.min(axis=1)
    check = np.flatnonzero(~feasible)
    if len(check):
        taken = slot[:, check]
        inflow = np.column_stack([lam @ (taken == j) for j in range(caps.shape[1])])
        feasible[check] = np.all(inflow <= caps[check], axis=1)
    return bound, feasible


def reference_solve_demand(prep, lam):
    """Exact optimum for one demand vector aligned to `prep.pairs`: (table row, objective)."""
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
            break
        w, caps = _allocation_arcs(prep, _row_allocation(prep, row), active)
        _, value[row] = assign_flows(w, lam[active], caps)
        best = max(best, value[row])
    row = int(np.argmax(value >= best - _tie_tol(best)))
    w, caps = _allocation_arcs(prep, _row_allocation(prep, row))
    return row, float(assign_flows(w, lam, caps)[1])


def reference_optimize_lag(copula_model, forecasts, instance, k, seed, prepared=None, lag=None) -> ScenarioResult:
    """Sample, solve each sample to a design, and operate the mode: one sample at a time."""
    prep = prepared if prepared is not None else prepare_instance(instance)
    samples = sample_joint(copula_model, forecasts, k, seed)
    pairs = copula_model.pair_order
    demands = [DemandVector({p: float(v) for p, v in zip(pairs, row)}) for row in samples]
    lams = [np.array([demand.get(p) for p in prep.pairs]) for demand in demands]
    designs = [row_design(prep, reference_solve_demand(prep, lam)[0], lam) for lam in lams]

    keys = [d.key() for d in designs]
    objectives = np.array([d.objective for d in designs])
    histogram = {}
    for key in keys:
        histogram[key] = histogram.get(key, 0) + 1
    best = None
    for key, count in histogram.items():
        mean_obj = float(np.mean([o for other, o in zip(keys, objectives) if other == key]))
        entry = (-count, -mean_obj, key)
        if best is None or entry < best:
            best = entry
    chosen_key = best[2]
    chosen = designs[keys.index(chosen_key)]
    expected = [evaluate_allocation(instance, chosen.allocation, demand, prep).objective for demand in demands]
    return ScenarioResult(
        lag=np.datetime64(lag if lag is not None else next(iter(forecasts.values())).lag, "h"),
        sample_keys=keys,
        sample_objectives=objectives,
        histogram=histogram,
        chosen=chosen,
        chosen_key=chosen_key,
        mean_time_savings=float(np.mean(objectives)),
        chosen_expected_savings=float(np.mean(expected)),
    )
