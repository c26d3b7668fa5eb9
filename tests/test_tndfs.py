import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    check_design_invariants,
    random_medium_instance,
    random_tiny_instance,
    two_node_instance,
)
from math import comb

from drtopt import tndfs
from drtopt.data import Location, ODPair
from drtopt.tndfs import (
    WALK_ROUTE,
    CandidateRoute,
    DemandVector,
    NetworkInstance,
    assign_flows,
    canonical_rotation,
    enumerate_routes,
    evaluate_allocation,
    instance_from_json_dict,
    instance_to_json_dict,
    route_capacity,
    solve_instance,
    stage1_utility,
    stage2_utility,
    walk_time,
)
from reference_solver import oracle_solve, reference_assign_flows, reference_solve


# ---------------------------------------------------------------------------
# geometry and enumeration
# ---------------------------------------------------------------------------


def test_walk_time_same_point():
    a = Location(0, "a", (3.0, 4.0))
    assert walk_time(a, a, 80.0) == 0.0


def test_walk_time_manhattan():
    a = Location(0, "a", (0.0, 0.0))
    b = Location(1, "b", (300.0, 400.0))
    assert walk_time(a, b, 100.0) == 7.0
    assert walk_time(b, a, 100.0) == walk_time(a, b, 100.0)


def test_enumerate_two_stops():
    routes = enumerate_routes(2, 2, np.array([[1.0, 2.0], [3.0, 1.0]]))
    assert [r.stops for r in routes] == [(0,), (1,), (0, 1)]
    # loop time is the sum of both directed legs
    assert routes[2].cycle_time == 5.0
    assert all(r.cycle_time > 0 for r in routes)


def test_enumerate_five_stops_counts():
    routes = enumerate_routes(5, 5, np.ones((5, 5)))
    assert len(routes) == 89
    by_len = {}
    for r in routes:
        by_len[len(r.stops)] = by_len.get(len(r.stops), 0) + 1
    assert by_len == {1: 5, 2: 10, 3: 20, 4: 30, 5: 24}


def test_enumeration_respects_direction():
    routes = enumerate_routes(3, 3, np.ones((3, 3)))
    stops = {r.stops for r in routes}
    # 3-cycles in opposite directions are distinct loops
    assert (0, 1, 2) in stops and (0, 2, 1) in stops


def test_canonical_rotation():
    assert canonical_rotation((2, 0, 1)) == (0, 1, 2)
    assert canonical_rotation((1, 0)) == (0, 1)
    assert canonical_rotation((4,)) == (4,)


def test_candidate_ids_unique_and_canonical():
    routes = enumerate_routes(4, 3, np.ones((4, 4)))
    assert len({r.stops for r in routes}) == len(routes)
    assert all(r.stops == canonical_rotation(r.stops) for r in routes)
    assert [r.id for r in routes] == list(range(len(routes)))


# ---------------------------------------------------------------------------
# utilities
# ---------------------------------------------------------------------------


def test_stage1_utility_direct_loop():
    inst = two_node_instance()  # W=10 minutes, ride 2
    loop = inst.candidate_routes[2]
    assert loop.stops == (0, 1)
    assert stage1_utility(ODPair(0, 1), loop, inst) == pytest.approx(8.0)


def test_stage1_utility_can_be_negative():
    inst = two_node_instance(separation_m=100.0)  # walking takes 1 minute
    loop = inst.candidate_routes[2]
    assert stage1_utility(ODPair(0, 1), loop, inst) < 0


def test_stage1_single_stop_route_never_positive_under_metric_walks():
    rng = np.random.default_rng(7)
    for _ in range(25):
        inst, _ = random_tiny_instance(rng)
        for route in inst.candidate_routes:
            if len(route.stops) > 1:
                continue
            for pair in inst.od_pairs():
                # riding a one-stop loop cannot beat walking when walk times
                # satisfy the triangle inequality
                assert stage1_utility(pair, route, inst) <= 1e-9


def test_stage2_utility_values():
    r = CandidateRoute(0, (0, 1), 4.0)
    assert stage2_utility(r, 1) == -4.0
    assert stage2_utility(r, 2) == -2.0
    assert stage2_utility(r, 2, half_headway=True) == -1.0
    assert stage2_utility(r, 3) > stage2_utility(r, 2) > stage2_utility(r, 1)
    with pytest.raises(ValueError):
        stage2_utility(r, 0)


def test_route_capacity():
    r = CandidateRoute(0, (0, 1), 30.0)
    assert route_capacity(r, 1, 10.0) == pytest.approx(20.0)
    assert route_capacity(r, 2, 10.0) == pytest.approx(40.0)


# ---------------------------------------------------------------------------
# flow assignment subproblem
# ---------------------------------------------------------------------------


def test_assign_flows_uncapacitated_picks_best():
    w = np.array([[3.0, 1.0], [-1.0, 2.0], [-5.0, -2.0]])
    lam = np.array([4.0, 6.0, 9.0])
    x, obj = assign_flows(w, lam, np.array([100.0, 100.0]))
    assert obj == pytest.approx(3 * 4 + 2 * 6)
    assert x[2].sum() == 0.0


def test_assign_flows_single_capacity_greedy():
    w = np.array([[5.0], [3.0], [1.0]])
    lam = np.array([4.0, 4.0, 4.0])
    x, obj = assign_flows(w, lam, np.array([6.0]))
    assert obj == pytest.approx(5 * 4 + 3 * 2)
    assert x[:, 0].sum() == pytest.approx(6.0)


def test_assign_flows_matches_lp_on_greedy_trap():
    # a configuration where filling the globally best edge first is suboptimal
    w = np.array([[10.0, 9.0], [9.5, -5.0]])
    lam = np.array([10.0, 10.0])
    caps = np.array([10.0, 10.0])
    x, obj = assign_flows(w, lam, caps)
    assert obj == pytest.approx(9.5 * 10 + 9.0 * 10)


def test_assign_flows_respects_capacity_exactly(rng):
    for _ in range(50):
        m, r = int(rng.integers(1, 8)), int(rng.integers(1, 4))
        w = rng.normal(1.0, 3.0, size=(m, r))
        lam = rng.uniform(0, 10, size=m)
        caps = rng.uniform(1, 15, size=r)
        x, obj = assign_flows(w, lam, caps)
        assert np.all(x >= -1e-12)
        assert np.all(x.sum(axis=1) <= lam + 1e-9)
        assert np.all(x.sum(axis=0) <= caps + 1e-9)
        assert obj == pytest.approx(float(np.sum(w * x)), abs=1e-9)


def test_assign_flows_agrees_with_reference_lp(rng):
    from scipy import sparse
    from scipy.optimize import linprog

    for _ in range(60):
        m, r = int(rng.integers(1, 10)), int(rng.integers(1, 4))
        w = rng.normal(0.5, 2.0, size=(m, r))
        lam = rng.uniform(0, 8, size=m)
        caps = rng.uniform(0.5, 10, size=r)
        _, obj = assign_flows(w, lam, caps)
        A = sparse.vstack(
            [
                sparse.kron(sparse.identity(m), np.ones((1, r))),
                sparse.kron(np.ones((1, m)), sparse.identity(r)),
            ],
            format="csc",
        )
        ref = linprog(
            -np.maximum(w, 0.0).ravel(),
            A_ub=A,
            b_ub=np.concatenate([lam, caps]),
            bounds=(0, None),
            method="highs",
        )
        assert obj == pytest.approx(-ref.fun, abs=1e-7)


def test_flow_bound_is_never_below_the_assignment(rng):
    for trial in range(300):
        m, r = int(rng.integers(1, 10)), int(rng.integers(1, 4))
        w = rng.normal(0.5, 2.0, size=(m, r))
        if trial % 3 == 0:  # ties between routes and between pairs
            w = np.round(w)
            w[:, -1] = w[:, 0]
        lam = rng.uniform(0, 8, size=m) * (rng.random(m) > 0.2)
        caps = rng.uniform(0, 10, size=r) * (rng.random(r) > 0.1)
        _, obj = assign_flows(w, lam, caps)
        bound = tndfs._flow_bound(w, lam, caps)
        assert bound >= obj
        if r == 1:  # one route: the price is the greedy's own, so the bound is tight
            assert bound == pytest.approx(obj, abs=1e-3)


def _assert_flows_match_reference(w, lam, caps):
    """`assign_flows` against the HiGHS LP: objective, supplies, capacities, and nothing on w <= 0."""
    x, obj = assign_flows(w, lam, caps)
    _, ref = reference_assign_flows(w, lam, caps)
    assert abs(obj - ref) <= 1e-9 * max(1.0, abs(ref))
    assert obj == pytest.approx(float(np.sum(w * x)), rel=1e-12, abs=1e-12)
    assert np.all(x >= 0) and np.all(x[w <= 0] == 0)
    scale = max(1.0, float(lam.sum()))
    assert np.all(x.sum(axis=1) <= lam + 1e-12 * scale)
    assert np.all(x.sum(axis=0) <= caps + 1e-12 * scale)


def _degenerate_flow_instance(rng, m, r):
    """Ties within a pair's row and across pairs, zero demands, zero caps and all-negative rows."""
    kind = rng.integers(4)
    if kind == 0:  # small integers: ties everywhere
        w = rng.integers(-2, 4, size=(m, r)).astype(float)
    elif kind == 1:  # every route worth the same to a pair
        w = np.repeat(rng.integers(-1, 4, size=(m, 1)), r, axis=1).astype(float)
    elif kind == 2:  # every pair values the routes alike, up to a shift
        w = rng.integers(0, 3, size=(1, r)) + rng.integers(0, 2, size=(m, 1)) + np.zeros((m, r))
    else:
        w = rng.normal(0.5, 2.0, size=(m, r))
    w[rng.random(m) < 0.2] = -rng.uniform(0.0, 3.0, size=r)  # pairs that always walk
    lam = rng.integers(0, 6, size=m).astype(float) if rng.random() < 0.5 else rng.uniform(0, 8, size=m)
    lam *= rng.random(m) > 0.2
    caps = rng.integers(0, 8, size=r).astype(float) if rng.random() < 0.5 else rng.uniform(0, 10, size=r)
    caps *= rng.random(r) > 0.15
    return w, lam, caps


def test_assign_flows_equals_reference_lp_on_degenerate_instances():
    rng = np.random.default_rng(12)
    bound = 0
    for trial in range(600):
        m, r = int(rng.integers(1, 21)), 1 + trial % 3
        w, lam, caps = _degenerate_flow_instance(rng, m, r)
        _assert_flows_match_reference(w, lam, caps)
        best = np.argmax(w, axis=1)
        riders = w.max(axis=1) > 0
        bound += np.any(np.bincount(best[riders], lam[riders], r) > caps)
    assert bound > 300  # most instances reach the exact solvers, not only the best-route fast path


# HiGHS holds constraints only to about 1e-7, so no magnitude comes near that: 0, or 0.01 and up
FLOW_WEIGHT = st.one_of(st.integers(-3, 5).map(float), st.floats(0.01, 10.0), st.floats(-10.0, -0.01))
FLOW_AMOUNT = st.one_of(st.just(0.0), st.integers(0, 6).map(float), st.floats(0.01, 20.0))


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_assign_flows_equals_reference_lp_on_any_instance(data):
    m, r = data.draw(st.integers(1, 20)), data.draw(st.integers(1, 3))
    w = np.array(data.draw(st.lists(FLOW_WEIGHT, min_size=m * r, max_size=m * r))).reshape(m, r)
    lam = np.array(data.draw(st.lists(FLOW_AMOUNT, min_size=m, max_size=m)))
    caps = np.array(data.draw(st.lists(FLOW_AMOUNT, min_size=r, max_size=r)))
    _assert_flows_match_reference(w, lam, caps)


@pytest.mark.parametrize(
    "arg, bad",
    [("weights", np.nan), ("weights", -np.inf), ("demands", np.nan), ("demands", np.inf), ("demands", -1.0),
     ("caps", np.nan), ("caps", -1.0)],
)
def test_assign_flows_rejects_bad_input_naming_it(arg, bad):
    args = {"weights": np.array([[2.0, 1.0], [1.5, 3.0]]), "demands": np.array([5.0, 5.0]), "caps": np.array([4.0, 4.0])}
    args[arg][0] = bad
    with pytest.raises(ValueError, match=arg):
        assign_flows(**args)


def test_assign_flows_takes_an_unlimited_capacity():
    w, lam = np.array([[2.0, 1.0], [1.5, 3.0], [1.0, 2.0]]), np.array([5.0, 5.0, 5.0])
    x, obj = assign_flows(w, lam, np.array([np.inf, 4.0]))
    assert obj == 2.0 * 5 + 3.0 * 4 + 1.5 * 1 + 1.0 * 5
    assert x.sum(axis=0).tolist() == [11.0, 4.0]


def test_assign_flows_raises_past_its_augmentation_bound(monkeypatch):
    w, lam, caps = np.array([[10.0, 9.0], [9.5, -5.0], [3.0, 4.0]]), np.array([10.0, 10.0, 2.0]), np.array([10.0, 10.0])
    monkeypatch.setattr(tndfs, "_max_augmentations", lambda m, r: 1)
    with pytest.raises(RuntimeError, match="3 pairs x 2 routes"):
        assign_flows(w, lam, caps)
    monkeypatch.setattr(tndfs, "_max_augmentations", lambda m, r: 2)  # one more move is enough here
    assert assign_flows(w, lam, caps)[1] == 9.5 * 10 + 9.0 * 10 + 4.0 * 0


def _pressured_instance():
    """Five sites, slow walkers, small buses: most pairs ride; light demand rows fit, heavy ones bind."""
    rng = np.random.default_rng(5)
    sites = [Location(i, f"s{i}", (float(x), float(y))) for i, (x, y) in enumerate(rng.integers(0, 13, (5, 2)) * 100)]
    ride = rng.uniform(1.0, 3.0, size=(5, 5))
    np.fill_diagonal(ride, 1.0)
    return NetworkInstance(sites, sites, 30.0, ride, fleet_size=3, capacity=3.0, max_routes=3, max_route_stops=3)


def test_allocation_values_equal_assign_flows_on_every_row(monkeypatch):
    prep = tndfs.prepare_instance(_pressured_instance())
    rng = np.random.default_rng(6)
    lam = rng.uniform(0.0, 30.0, size=(40, len(prep.pairs))) * rng.choice([0.01, 0.3, 1.0, 4.0], size=(40, 1))
    lam[:, 1] = 0.0  # a pair with no demand, and more scattered zeros
    lam[::4, 5] = 0.0
    lam[7] = 0.0

    def pressure(alloc):  # riding pairs, then the heaviest route's riders per unit of capacity
        w, caps = tndfs._allocation_arcs(prep, alloc)
        riders = w.max(axis=1) > 0
        return riders.sum(), np.max(np.bincount(w.argmax(axis=1), riders, len(caps)) / caps)

    sizes = (prep.row_routes >= 0).sum(axis=1)
    allocs = [()] + [
        max((tndfs._row_allocation(prep, row) for row in np.flatnonzero(sizes == r)), key=pressure) for r in (1, 2, 3)
    ]
    assert min(pressure(alloc)[0] for alloc in allocs[1:]) > 8  # numpy sums 9 or more terms pairwise
    allocs.append(allocs[3][::-1])  # the routes in another order: another LP, scored as given
    lp_calls = []
    solve = tndfs._successive_shortest_paths
    monkeypatch.setattr(tndfs, "_successive_shortest_paths", lambda *a: lp_calls.append(1) or solve(*a))
    for alloc in allocs:
        w, caps = tndfs._allocation_arcs(prep, alloc)
        if len(alloc):
            riders = w.max(axis=1) > 0
            load = [np.bincount(w.argmax(axis=1)[riders], row[riders], len(caps)) for row in lam]
            binds = [np.any(inflow > caps) for inflow in load]
            assert any(binds) and not all(binds)  # both the batched rows and assign_flows's rows
        expected = [assign_flows(w, row, caps)[1] for row in lam]
        assert [tndfs.allocation_values(prep, alloc, row[None])[0] for row in lam] == expected
        for layout in (lam, np.asfortranarray(lam), lam[::-1][::-1]):
            assert tndfs.allocation_values(prep, alloc, layout).tolist() == expected
        assert tndfs.allocation_values(prep, alloc, lam[:0]).shape == (0,)
    assert lp_calls  # the two- and three-route allocations bind and reach the exact solver
    assert tndfs.allocation_values(prep, (), lam).tolist() == [0.0] * len(lam)  # walking only


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_best_route_values_find_what_assign_flows_first_check_finds(seed, fortran):
    """Many rows of best routes at once, each route's load at its capacity up to rounding, and pads."""
    rng = np.random.default_rng(seed)
    k, m, nu = (int(v) for v in rng.integers(1, [6, 30, 4], endpoint=True))
    lam = rng.uniform(0.0, 1.0, (k, m)) * rng.choice([1e-3, 1.0, 1e3], (k, m)) * (rng.random((k, m)) < 0.8)
    routes = rng.integers(0, nu, k, endpoint=True)  # each row's real routes; the rest are pads
    best = np.where(rng.random((k, m)) < 0.8, rng.integers(0, np.maximum(routes, 1)[:, None], (k, m)), -1)
    best[routes == 0] = -1
    best_w = np.where(best >= 0, rng.uniform(0.1, 10.0, (k, m)), 0.0)
    caps = np.full((k, nu), np.inf)
    for s, r in enumerate(routes):
        caps[s, :r] = np.bincount(best[s][best[s] >= 0], lam[s][best[s] >= 0], r) * (1 + rng.integers(-2, 3, r) * 2.0**-52)
    values, over = tndfs._best_route_values(np.asfortranarray(lam) if fortran else lam, best, best_w, caps)
    for s, r in enumerate(routes):
        riders = best[s] >= 0
        x = np.zeros((m, r))  # assign_flows' best-route flows and its check
        x[riders, best[s][riders]] = lam[s][riders]
        assert (s in over) == (not np.all(x.sum(axis=0) <= caps[s, :r]))
        assert values[s] == np.sum(lam[s][riders] * best_w[s][riders])
        if s not in over and r:
            w = np.where(best[s][:, None] == np.arange(r), best_w[s][:, None], -1.0)
            assert values[s] == assign_flows(w, lam[s], caps[s, :r])[1]


# ---------------------------------------------------------------------------
# full solver: hand examples
# ---------------------------------------------------------------------------


def test_solver_two_node_hand_example():
    inst = two_node_instance()
    design = solve_instance(inst, DemandVector({ODPair(0, 1): 5.0}))
    assert design.objective == pytest.approx(20.0)
    assert design.key() == (((0, 1), 1),)
    assert design.itinerary() == "0-1-0"
    assert design.flows_stage2[(2, 1)] == pytest.approx(5.0)


def test_solver_all_walk_when_riding_hurts():
    inst = two_node_instance(separation_m=300.0)  # W=3, beta1=1, wait 4 -> net -3
    design = solve_instance(inst, DemandVector({ODPair(0, 1): 5.0}))
    assert design.objective == 0.0
    assert design.allocation == ()
    assert design.flows_stage1[(ODPair(0, 1), WALK_ROUTE)] == pytest.approx(5.0)


def test_solver_exact_route_count_forces_empty_route():
    inst = two_node_instance(separation_m=300.0, exact_route_count=True)
    design = solve_instance(inst, DemandVector({ODPair(0, 1): 5.0}))
    assert design.objective == 0.0
    assert len(design.allocation) == 1
    assert design.key() == (((0,), 1),)  # least canonical zero-rider route


def test_solver_zero_demand():
    inst = two_node_instance()
    design = solve_instance(inst, DemandVector({}))
    assert design.objective == 0.0
    assert all(f == 0.0 for f in design.flows_stage2.values())


def test_solver_capacity_binds():
    # cap: tau=4 min -> 15 cycles/h; capacity 0.2 -> 3 pax/h; 5 demanded
    inst = two_node_instance(capacity=0.2)
    design = solve_instance(inst, DemandVector({ODPair(0, 1): 5.0}))
    assert design.flows_stage2[(2, 1)] == pytest.approx(3.0)
    assert design.objective == pytest.approx(3 * (8.0 - 4.0))
    assert design.flows_stage1[(ODPair(0, 1), WALK_ROUTE)] == pytest.approx(2.0)


def test_solver_prefers_two_buses_when_wait_dominates():
    inst = two_node_instance(fleet_size=2, max_routes=2)
    design = solve_instance(inst, DemandVector({ODPair(0, 1): 5.0}))
    # two buses halve waiting: 5 * (8 - 2) = 30 beats one bus (20) and
    # any second route
    assert design.objective == pytest.approx(30.0)
    assert design.key() == (((0, 1), 2),)


def test_solver_zero_flow_routes_never_reported_in_max_mode(rng):
    for _ in range(40):
        inst, demand = random_medium_instance(rng)
        design = solve_instance(inst, demand)
        for r, k in design.allocation:
            assert design.flows_stage2[(r.id, k)] > 0.0


def _two_cluster_instance(rng, per_cluster=8):
    """Two far-apart node clusters served by one loop, demand near 1e4 per pair.

    In exact-route-count mode (two routes, two buses) every allocation that
    pairs the loop with an unused second route ties exactly; their bounds
    come from different columns of one matrix product, so they may differ in
    the last bits.
    """
    stops = [Location(0, "s0", (0.0, 0.0)), Location(1, "s1", (3000.0, 0.0)), Location(2, "s2", (0.0, 3000.0))]
    nodes = [
        Location(c * per_cluster + i, f"n{c}{i}", (cx + 10.0 * i, 5.0 * i))
        for c, cx in enumerate((0.0, 3000.0))
        for i in range(per_cluster)
    ]
    ride = np.full((3, 3), 5.0)
    np.fill_diagonal(ride, 1.0)
    inst = NetworkInstance(
        nodes, stops, 50.0, ride, fleet_size=2, capacity=1e9, max_routes=2,
        max_route_stops=2, exact_route_count=True,
    )
    return inst, DemandVector({p: float(rng.uniform(5e3, 2e4)) for p in inst.od_pairs()})


def test_solver_large_demand_tie_breaks_to_smallest_key():
    rng = np.random.default_rng(0)
    for _ in range(6):
        inst, demand = _two_cluster_instance(rng)
        design = solve_instance(inst, demand)
        assert design.objective > 1e7
        # the loop plus the least canonical unused route
        assert design.key() == (((0,), 1), ((0, 1), 1))


def test_solver_empty_candidate_set():
    inst = two_node_instance()
    inst._candidates = []
    with pytest.raises(ValueError, match="empty candidate"):
        solve_instance(inst, DemandVector({ODPair(0, 1): 1.0}))


# ---------------------------------------------------------------------------
# solver vs oracle, invariants, monotonicity
# ---------------------------------------------------------------------------


def test_solver_matches_oracle_on_seeded_tiny_instances():
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 60:
        inst, demand = random_tiny_instance(rng)
        design = solve_instance(inst, demand)
        reference = oracle_solve(inst, demand)
        assert design.objective == pytest.approx(reference.objective, abs=1e-9), (
            inst,
            demand.rates,
        )
        checked += 1


def _random_sweep_instance(rng):
    """nu = 1..3 and K <= 3, capacity binding or not, either route-count mode."""
    n_sites = int(rng.integers(3, 5))
    coords = rng.uniform(0.0, 1500.0, size=(n_sites, 2))
    sites = [Location(i, f"s{i}", (float(x), float(y))) for i, (x, y) in enumerate(coords)]
    ride = rng.uniform(2.0, 20.0, size=(n_sites, n_sites))
    np.fill_diagonal(ride, rng.uniform(1.0, 5.0))
    K = int(rng.integers(1, 4))
    instance = NetworkInstance(
        demand_nodes=sites,
        bus_stops=sites,
        walk_speed=float(rng.uniform(30.0, 90.0)),
        ride_time=ride,
        fleet_size=K,
        capacity=float(rng.uniform(0.3, 3.0)) if rng.random() < 0.5 else 1e6,
        max_routes=int(rng.integers(1, K + 1)),
        max_route_stops=int(rng.integers(1, 4)),
        half_headway=bool(rng.integers(0, 2)),
        exact_route_count=bool(rng.integers(0, 2)),
    )
    if rng.random() < 0.15:
        return instance, DemandVector({})
    rates = {p: float(rng.uniform(0.0, 30.0)) for p in instance.od_pairs() if rng.random() < 0.7}
    return instance, DemandVector(rates)


@pytest.mark.parametrize("one_slice", [True, False])
def test_table_sweep_matches_reference_search(one_slice, monkeypatch):
    # not one_slice: the table is also filled in uneven slices of 97 cells, and equals the one-slice fill
    rng = np.random.default_rng(2024)
    seen = set()
    slices, sliced = [], False
    table_chunk = tndfs._table_chunk
    monkeypatch.setattr(tndfs, "_table_chunk", lambda prep, rows: slices.append(rows) or table_chunk(prep, rows))
    for _ in range(70):
        inst, demand = _random_sweep_instance(rng)
        monkeypatch.setattr(tndfs, "_CHUNK_CELLS", 1 << 62)
        prep = tndfs.prepare_instance(inst)
        assert [a.dtype for a in prep.table] == [np.float64, np.float64, np.int8]
        if not one_slice:
            monkeypatch.setattr(tndfs, "_CHUNK_CELLS", 97)
            del slices[:]
            whole, prep = prep, tndfs.prepare_instance(inst)
            assert all(np.array_equal(a, b) for a, b in zip(prep.table, whole.table))
            sliced |= len(slices) > 1
        design = solve_instance(inst, demand, prep)
        reference = reference_solve(inst, demand, prep)
        assert design.key() == reference.key(), (inst, demand.rates)
        assert design.objective == pytest.approx(reference.objective, rel=1e-9, abs=1e-9)
        check_design_invariants(inst, demand, design)
        seen.add((inst.max_routes, inst.exact_route_count, not demand.rates))
    assert {nu for nu, _, _ in seen} == {1, 2, 3}
    assert any(exact for _, exact, _ in seen) and any(zero for _, _, zero in seen)
    assert sliced != one_slice  # uneven slices ran


def test_allocation_table_lists_every_allocation_in_key_order():
    rng = np.random.default_rng(8)
    for _ in range(12):
        inst, _ = _random_sweep_instance(rng)
        prep = tndfs.prepare_instance(inst)
        routes = inst.candidate_routes
        allocs = [tndfs._row_allocation(prep, row) for row in range(len(prep.row_routes))]
        keys = [tndfs._assignment_key([(routes[cid].stops, k) for cid, k in a]) for a in allocs]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert all([cid for cid, _ in a] == sorted(cid for cid, _ in a) for a in allocs)
        sizes = tndfs._allocation_sizes(inst)
        assert len(allocs) == sum(comb(len(routes), s) * len(tndfs._bus_splits(s, inst.fleet_size)) for s in sizes)
        assert {len(a) for a in allocs} <= set(sizes)


def test_prepared_waits_and_capacities_equal_the_broadcast_formulas():
    # the (route, buses) tables are stage2_utility and route_capacity cell by cell, and bit for bit
    # the broadcast arithmetic: -tau / k (halved under half-headway) and 60 k / tau * capacity
    rng = np.random.default_rng(17)
    for _ in range(12):
        inst, _ = _random_sweep_instance(rng)
        prep = tndfs.prepare_instance(inst)
        ks = np.arange(1, inst.fleet_size + 1)
        taus = np.array([r.cycle_time for r in inst.candidate_routes])
        beta2 = -taus[:, None] / ks[None, :]
        if inst.half_headway:
            beta2 = beta2 / 2.0
        assert np.array_equal(prep.beta2, beta2)
        assert np.array_equal(prep.caps, 60.0 * ks[None, :] / taus[:, None] * inst.capacity)


def test_solver_matches_oracle_under_mode_switches():
    # exact route count and half-headway waiting, with capacities that bind
    rng = np.random.default_rng(31337)
    checked = 0
    while checked < 80:
        inst, demand = random_tiny_instance(rng)
        inst = NetworkInstance(
            inst.demand_nodes, inst.bus_stops, inst.walk_speed, inst.ride_time,
            inst.fleet_size, inst.capacity, inst.max_routes, inst.max_route_stops,
            half_headway=bool(rng.integers(0, 2)),
            exact_route_count=bool(rng.integers(0, 2)),
        )
        design = solve_instance(inst, demand)
        reference = oracle_solve(inst, demand)
        assert design.objective == pytest.approx(reference.objective, abs=1e-9)
        check_design_invariants(inst, demand, design)
        checked += 1


def test_solver_invariants_on_medium_instances():
    rng = np.random.default_rng(412)
    for _ in range(60):
        inst, demand = random_medium_instance(rng)
        design = solve_instance(inst, demand)
        check_design_invariants(inst, demand, design)


def test_objective_monotone_in_fleet_and_capacity():
    rng = np.random.default_rng(5150)
    for _ in range(20):
        inst, demand = random_medium_instance(rng)
        base = solve_instance(inst, demand).objective
        bigger_fleet = NetworkInstance(
            inst.demand_nodes, inst.bus_stops, inst.walk_speed, inst.ride_time,
            inst.fleet_size + 1, inst.capacity, inst.max_routes, inst.max_route_stops,
        )
        more_capacity = NetworkInstance(
            inst.demand_nodes, inst.bus_stops, inst.walk_speed, inst.ride_time,
            inst.fleet_size, inst.capacity * 2.0, inst.max_routes, inst.max_route_stops,
        )
        assert solve_instance(bigger_fleet, demand).objective >= base - 1e-9
        assert solve_instance(more_capacity, demand).objective >= base - 1e-9


def test_objective_scales_linearly_without_capacity():
    rng = np.random.default_rng(77)
    for _ in range(10):
        inst, demand = random_medium_instance(rng)
        uncapped = NetworkInstance(
            inst.demand_nodes, inst.bus_stops, inst.walk_speed, inst.ride_time,
            inst.fleet_size, 1e9, inst.max_routes, inst.max_route_stops,
        )
        base = solve_instance(uncapped, demand).objective
        scaled = solve_instance(
            uncapped, DemandVector({p: 3.0 * v for p, v in demand.rates.items()})
        ).objective
        assert scaled == pytest.approx(3.0 * base, rel=1e-9, abs=1e-9)


def test_evaluate_allocation_matches_full_solve():
    inst = two_node_instance(fleet_size=2, max_routes=2)
    demand = DemandVector({ODPair(0, 1): 5.0})
    design = solve_instance(inst, demand)
    fixed = evaluate_allocation(inst, design.allocation, demand)
    assert fixed.objective == pytest.approx(design.objective)
    assert fixed.key() == design.key()


def test_half_headway_convention():
    inst = two_node_instance(half_headway=True)
    design = solve_instance(inst, DemandVector({ODPair(0, 1): 5.0}))
    # waiting halves: 5 * (8 - 2) = 30
    assert design.objective == pytest.approx(30.0)


def test_solve_repeatable_bitwise():
    rng = np.random.default_rng(88)
    inst, demand = random_medium_instance(rng)
    a = solve_instance(inst, demand)
    b = solve_instance(inst, demand)
    assert a.objective == b.objective
    assert a.key() == b.key()
    assert a.flows_stage1 == b.flows_stage1
    assert a.flows_stage2 == b.flows_stage2


def test_demand_vector_rejects_negative():
    with pytest.raises(ValueError, match="negative"):
        DemandVector({ODPair(0, 1): -1.0})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_demand_vector_rejects_non_finite(bad):
    with pytest.raises(ValueError, match=r"non-finite demand .* for ODPair\(origin=0, destination=1\)"):
        DemandVector({ODPair(1, 0): 2.0, ODPair(0, 1): bad})


def test_oracle_guards():
    inst = two_node_instance(fleet_size=1)
    with pytest.raises(ValueError, match="integer"):
        oracle_solve(inst, DemandVector({ODPair(0, 1): 2.5}))
    big, _ = random_medium_instance(np.random.default_rng(0))
    while len(big.bus_stops) <= 3:
        big, _ = random_medium_instance(np.random.default_rng(1))
    with pytest.raises(ValueError, match="guard"):
        oracle_solve(big, DemandVector({}))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_instance_json_round_trip(tmp_path):
    inst = two_node_instance(fleet_size=2, max_routes=2, half_headway=True)
    doc = instance_to_json_dict(inst)
    back = instance_from_json_dict(doc)
    assert back.fleet_size == 2 and back.half_headway
    assert np.array_equal(back.ride_time, inst.ride_time)
    assert [n.label for n in back.demand_nodes] == ["a", "b"]
    d1 = solve_instance(inst, DemandVector({ODPair(0, 1): 5.0}))
    d2 = solve_instance(back, DemandVector({ODPair(0, 1): 5.0}))
    assert d1.objective == d2.objective and d1.key() == d2.key()


def test_instance_json_missing_field():
    with pytest.raises(ValueError, match=r"network\.bus_stops: missing required field"):
        instance_from_json_dict({"locations": []})


@pytest.mark.parametrize("edit, field", [
    pytest.param(lambda doc: doc.update(half_headway="false"), "half_headway", id="half_headway"),
    pytest.param(lambda doc: doc.update(exact_route_count="false"), "exact_route_count", id="exact_route_count"),
    pytest.param(lambda doc: doc.update(fleet_size=2.7), "fleet_size", id="fleet_size"),
    pytest.param(lambda doc: doc.update(capacity=True), "capacity", id="capacity"),
    pytest.param(lambda doc: doc["locations"][0].update(id="a"), "locations[0].id", id="location-id"),
    # a repeated demand node would list its OD pairs twice and drop another node's
    pytest.param(lambda doc: doc["locations"][1].update(id=0), "locations[1].id", id="repeated-location-id"),
    pytest.param(lambda doc: doc["locations"][1].update(label="a"), "locations[1].label", id="repeated-location-label"),
    # a ride time is read by its path: no numeric string or boolean passes as a number, no ragged row as a matrix
    pytest.param(lambda doc: doc["ride_time"][0].__setitem__(1, "7"), "ride_time[0][1]", id="ride-time-string"),
    pytest.param(lambda doc: doc["ride_time"][1].__setitem__(0, True), "ride_time[1][0]", id="ride-time-true"),
    pytest.param(lambda doc: doc["ride_time"][1].append(3.0), "ride_time[1]", id="ride-time-ragged-row"),
    pytest.param(lambda doc: doc["ride_time"].__setitem__(0, 5.0), "ride_time[0]", id="ride-time-row-not-a-list"),
    # one row per bus stop: a row too many or too few is named by the matrix's own path
    pytest.param(lambda doc: doc["ride_time"].append([1.0, 2.0]), "ride_time", id="ride-time-extra-row"),
    pytest.param(lambda doc: doc["ride_time"].pop(), "ride_time", id="ride-time-missing-row"),
])
def test_instance_json_names_a_malformed_field(edit, field):
    doc = instance_to_json_dict(two_node_instance(fleet_size=3))
    edit(doc)
    with pytest.raises(ValueError, match=re.escape(f"network.{field}: ")):
        instance_from_json_dict(doc)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("capacity", float("nan"), "capacity must be finite"),
        ("walk_speed", float("nan"), "walk_speed must be finite"),
        ("dwell_time", float("inf"), "dwell_time must be finite"),
        ("dwell_time", float("-inf"), "dwell_time must be finite"),
        ("ride_time", [[1.0, 2.0], [float("nan"), 1.0]], r"ride_time\[1\]\[0\] must be finite"),
    ],
)
def test_instance_rejects_non_finite_fields(field, value, message):
    doc = instance_to_json_dict(two_node_instance())
    doc[field] = value
    with pytest.raises(ValueError, match=message):
        instance_from_json_dict(doc)


@pytest.mark.parametrize("dwell", [-2.0, -4.0, -1e-12])
def test_instance_rejects_a_negative_dwell_time(dwell):
    # -2 gave the demo's single-stop loops a cycle time of 0, and -4 every route a negative one
    doc = instance_to_json_dict(two_node_instance())
    doc["dwell_time"] = dwell
    with pytest.raises(ValueError, match=re.escape(f"network: dwell_time must be >= 0, got {dwell}")):
        instance_from_json_dict(doc)


def test_design_json_dict():
    inst = two_node_instance()
    design = solve_instance(inst, DemandVector({ODPair(0, 1): 5.0}))
    doc = design.to_json_dict()
    assert doc["itinerary"] == "0-1-0"
    assert doc["objective"] == pytest.approx(20.0)
    assert any(f["route"] == 2 and f["flow"] == 5.0 for f in doc["flows"])


# ---------------------------------------------------------------------------
# solver invariances (property tests)
# ---------------------------------------------------------------------------

SEEDS = st.integers(0, 2**32 - 1)


@settings(deadline=None, max_examples=40)
@given(SEEDS)
def test_solution_does_not_depend_on_demand_dict_order(seed):
    rng = np.random.default_rng(seed)
    instance, demand = random_medium_instance(rng)
    items = list(demand.rates.items())
    shuffled = DemandVector(dict(items[i] for i in rng.permutation(len(items))))
    a, b = solve_instance(instance, demand), solve_instance(instance, shuffled)
    assert a.key() == b.key() and a.objective == b.objective


@settings(deadline=None, max_examples=40)
@given(SEEDS)
def test_explicit_zero_demand_pairs_change_nothing(seed):
    rng = np.random.default_rng(seed)
    instance, demand = random_medium_instance(rng)
    padded = DemandVector({p: demand.get(p) for p in instance.od_pairs()})
    a, b = solve_instance(instance, demand), solve_instance(instance, padded)
    assert a.key() == b.key() and a.to_json_dict() == b.to_json_dict()


@settings(deadline=None, max_examples=40)
@given(SEEDS, st.floats(0.1, 10.0))
def test_scaling_demand_under_slack_capacity_scales_the_objective(seed, c):
    rng = np.random.default_rng(seed)
    instance, demand = random_medium_instance(rng)
    instance = replace(instance, capacity=1e9)  # no allocation is capacity-bound
    a = solve_instance(instance, demand)
    b = solve_instance(instance, DemandVector({p: c * v for p, v in demand.rates.items()}))
    assert a.key() == b.key()
    assert b.objective == pytest.approx(c * a.objective, rel=1e-12, abs=1e-12)


@settings(deadline=None, max_examples=40)
@given(SEEDS)
def test_solution_does_not_depend_on_the_demand_node_order(seed):
    rng = np.random.default_rng(seed)
    instance, demand = random_medium_instance(rng)
    order = rng.permutation(len(instance.demand_nodes))
    if np.array_equal(order, np.arange(len(order))):
        order = order[::-1]
    permuted = replace(instance, demand_nodes=[instance.demand_nodes[i] for i in order])
    prep_a, prep_b = tndfs.prepare_instance(instance), tndfs.prepare_instance(permuted)
    assert prep_a.pairs != prep_b.pairs and sorted(prep_a.pairs) == sorted(prep_b.pairs)
    a, b = solve_instance(instance, demand, prep_a), solve_instance(permuted, demand, prep_b)
    assert a.key() == b.key()
    assert b.objective == pytest.approx(a.objective, rel=1e-12, abs=1e-12)
