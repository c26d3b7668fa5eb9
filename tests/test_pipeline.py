import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import two_node_instance
from drtopt.copula import GaussianCopulaModel
from drtopt.data import ODPair, parse_hour
from drtopt.pipeline import (
    compare_strategies,
    comparison_table,
    comparison_to_csv,
    optimize_ground_truth,
    optimize_lag,
    optimize_point,
    pick_mode,
    scenario_to_json_dict,
)
from drtopt.qr import DEFAULT_QUANTILES, QuantileForecast

T0 = parse_hour("2018-01-08T08")
PAIRS = (ODPair(0, 1), ODPair(1, 0))


def copula_for(pairs=PAIRS, corr=None):
    n = len(pairs)
    corr = np.eye(n) if corr is None else np.asarray(corr)
    return GaussianCopulaModel(tuple(pairs), corr, np.linalg.cholesky(corr))


def point_mass(value, pair, lag=T0):
    return QuantileForecast(pair, lag, {q: float(value) for q in DEFAULT_QUANTILES})


def spread(values, pair, lag=T0):
    return QuantileForecast(pair, lag, dict(zip(DEFAULT_QUANTILES, values)))


def test_single_sample_is_chosen():
    inst = two_node_instance()
    forecasts = {p: spread([1, 3, 5, 7, 9], p) for p in PAIRS}
    result = optimize_lag(copula_for(), forecasts, inst, k=1, seed=4)
    assert result.histogram == {result.chosen_key: 1}
    assert result.chosen_key == result.sample_keys[0]


def test_degenerate_forecasts_unanimous():
    inst = two_node_instance()
    forecasts = {p: point_mass(5.0, p) for p in PAIRS}
    result = optimize_lag(copula_for(), forecasts, inst, k=25, seed=0)
    # every sample picks the same allocation (flows may differ in the tails)
    assert result.histogram == {result.chosen_key: 25}
    assert result.chosen.objective > 0


def test_all_zero_forecasts_identical_solutions():
    inst = two_node_instance()
    forecasts = {p: point_mass(0.0, p) for p in PAIRS}
    result = optimize_lag(copula_for(), forecasts, inst, k=12, seed=0)
    assert result.histogram == {(): 12}
    assert np.all(result.sample_objectives == 0.0)
    assert result.mean_time_savings == 0.0


# table rows 0, 1, 2 stand for allocation keys in canonical order ("A" < "B" < "C")


def test_mode_picks_most_frequent():
    rows = np.array([0, 0, 1])
    objs = np.array([1.0, 1.0, 99.0])
    assert pick_mode(rows, objs) == 0


def test_mode_tie_breaks_on_mean_objective_then_key():
    rows = np.array([1, 0, 1, 0])
    objs = np.array([5.0, 1.0, 5.0, 1.0])
    assert pick_mode(rows, objs) == 1  # same counts, higher mean objective
    objs = np.array([2.0, 2.0, 2.0, 2.0])
    assert pick_mode(rows, objs) == 0  # full tie: the lowest row, the smallest key


def test_mode_invariant_to_sample_order():
    rng = np.random.default_rng(0)
    rows = np.array([0] * 5 + [1] * 3 + [2] * 5)
    objs = np.concatenate([np.full(5, 2.0), np.full(3, 9.0), np.full(5, 1.0)])
    baseline = pick_mode(rows, objs)
    for _ in range(10):
        perm = rng.permutation(len(rows))
        assert pick_mode(rows[perm], objs[perm]) == baseline


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, 1.0, 1.5, 2.0, 1e16])),
        min_size=1,
        max_size=40,
    )
)
@example([(3, 1.0), (1, 1.5), (3, 2.0), (1, 1.5)])  # tied counts and means: the lowest row
@example([(2, 0.0), (0, -0.0), (5, 1.0), (5, -1.0)])  # means of +0 and -0 tie too
@example([(4, 0.1), (4, 0.2), (2, 0.15), (2, 0.15)])  # 0.1 + 0.2 rounds above 0.3: the higher mean wins
def test_mode_by_row_equals_the_key_based_reference(samples):
    """The row rule picks the key the key-based rule picks, keys ordered as their table rows."""
    from reference_solver import reference_pick_mode

    rows = np.array([row for row, _ in samples])
    objs = np.array([obj for _, obj in samples])
    keys = [(((row,), 1),) for row in rows.tolist()]  # one route at stop `row`: ordered as the rows
    assert keys[int(np.argmax(rows == pick_mode(rows, objs)))] == reference_pick_mode(keys, objs)


def test_scenario_histogram_sums_to_k():
    inst = two_node_instance(capacity=0.35)  # tight capacity to diversify solutions
    forecasts = {PAIRS[0]: spread([1, 2, 4, 8, 16], PAIRS[0]), PAIRS[1]: point_mass(0, PAIRS[1])}
    result = optimize_lag(copula_for(), forecasts, inst, k=40, seed=7)
    assert sum(result.histogram.values()) == 40
    assert result.histogram[result.chosen_key] == max(result.histogram.values())


def test_optimize_lag_deterministic_and_thread_invariant():
    inst = two_node_instance()
    forecasts = {p: spread([0, 1, 2, 6, 12], p) for p in PAIRS}
    a = optimize_lag(copula_for(), forecasts, inst, k=30, seed=3, threads=1)
    b = optimize_lag(copula_for(), forecasts, inst, k=30, seed=3, threads=1)
    c = optimize_lag(copula_for(), forecasts, inst, k=30, seed=3, threads=4)
    assert a.sample_keys == b.sample_keys == c.sample_keys
    assert np.array_equal(a.sample_objectives, c.sample_objectives)
    assert a.chosen_key == c.chosen_key
    assert a.mean_time_savings == c.mean_time_savings


def test_optimize_point_uses_requested_level():
    inst = two_node_instance()
    forecasts = {PAIRS[0]: spread([0, 0, 0, 0, 20], PAIRS[0]), PAIRS[1]: point_mass(0, PAIRS[1])}
    median = optimize_point(forecasts, 0.50, inst)
    worst = optimize_point(forecasts, 0.95, inst)
    assert median.objective == 0.0  # median demand is zero: nothing to serve
    assert worst.objective == pytest.approx(20 * (8 - 4))


def test_optimize_point_missing_level():
    inst = two_node_instance()
    forecasts = {p: QuantileForecast(p, T0, {0.5: 1.0}) for p in PAIRS}
    with pytest.raises(KeyError):
        optimize_point(forecasts, 0.95, inst)


def test_point_mass_forecast_equals_ground_truth_solution():
    inst = two_node_instance(fleet_size=2, max_routes=2)
    truth = {PAIRS[0]: 5.0, PAIRS[1]: 2.0}
    forecasts = {p: point_mass(truth[p], p) for p in PAIRS}
    gt = optimize_ground_truth(truth, inst)
    scenario = optimize_lag(copula_for(), forecasts, inst, k=10, seed=1)
    median = optimize_point(forecasts, 0.50, inst)
    worst = optimize_point(forecasts, 0.95, inst)
    assert scenario.chosen_key == median.key() == worst.key() == gt.key()


def test_chosen_expected_savings_reported():
    inst = two_node_instance()
    forecasts = {p: spread([1, 2, 3, 4, 5], p) for p in PAIRS}
    result = optimize_lag(copula_for(), forecasts, inst, k=20, seed=2)
    # re-evaluating the chosen allocation can never beat the per-sample optimum
    assert result.chosen_expected_savings <= result.mean_time_savings + 1e-9


def test_compare_strategies_table(tmp_path):
    inst = two_node_instance(fleet_size=2, max_routes=2)
    lags = [T0, T0 + np.timedelta64(1, "h")]
    assert tuple(inst.od_pairs()) == PAIRS
    truth = {PAIRS[0]: 6.0, PAIRS[1]: 1.0}
    observed = np.array([[truth[p]] * len(lags) for p in PAIRS])
    model_forecasts = {"m": {lag: {p: point_mass(truth[p], p, lag) for p in PAIRS} for lag in lags}}
    rows = compare_strategies(lags, model_forecasts, observed, inst, copula_for(), k=8, seed=0)
    assert len(rows) == len(lags) * 1
    assert all(all(row.matches[s] for s in ("P", "M", "R")) for row in rows)

    path = tmp_path / "cmp.csv"
    comparison_to_csv(rows, path)
    text = path.read_text()
    assert "matches_gt" in text and "GT" in text
    table = comparison_table(rows)
    assert "*" in table


def test_compare_strategies_rejects_observed_demand_not_pairs_by_lags():
    inst = two_node_instance()
    lags = [T0, T0 + np.timedelta64(1, "h")]
    model_forecasts = {"m": {lag: {p: point_mass(1.0, p, lag) for p in PAIRS} for lag in lags}}
    with pytest.raises(ValueError, match=re.escape("observed demand of shape (1, 2), not (pairs, lags) = (2, 2)")):
        compare_strategies(lags, model_forecasts, np.ones((1, 2)), inst, copula_for(), k=4)


def test_capacity_cliff_splits_median_from_worst_case():
    # One OD, two useful routes: A (big savings, low hourly capacity) and B
    # (smaller savings, double capacity).  The 95% demand quantile exceeds A's
    # capacity while the median does not, so the median strategy keeps A and
    # the worst-case strategy switches to B.  Verified against the oracle.
    from drtopt.data import Location
    from drtopt.tndfs import DemandVector, NetworkInstance, solve_instance
    from reference_solver import oracle_solve

    S0 = Location(0, "s0", (0.0, 0.0))
    S1 = Location(1, "s1", (2000.0, 0.0))
    S2 = Location(2, "s2", (1500.0, 0.0))
    ride = np.array([[2.0, 2.0, 1.0], [2.0, 2.0, 5.0], [1.0, 5.0, 2.0]])
    inst = NetworkInstance([S0, S1], [S0, S1, S2], 100.0, ride,
                           fleet_size=1, capacity=0.4, max_routes=1, max_route_stops=2)
    pair = ODPair(0, 1)
    forecasts = {pair: spread([2.0, 3.0, 5.0, 8.0, 12.0], pair)}

    median = optimize_point(forecasts, 0.50, inst)
    worst = optimize_point(forecasts, 0.95, inst)
    assert median.key() == (((0, 1), 1),)  # A: 5 riders * (18-4) = 70 beats B's 60
    assert worst.key() == (((0, 2), 1),)  # A caps at 6*14=84; B takes all 12*12=144
    assert median.key() != worst.key()

    for level in (0.50, 0.95):
        lam = DemandVector({pair: forecasts[pair].values[level]})
        mine = solve_instance(inst, lam)
        reference = oracle_solve(inst, lam)
        assert mine.objective == pytest.approx(reference.objective, abs=1e-9)
        assert mine.key() == reference.key()

    observed = np.array([[5.0], [0.0]])  # inst.od_pairs(): the pair, then its reverse
    rows = compare_strategies([T0], {"m": {T0: forecasts}}, observed, inst, copula_for((pair,)), k=30, seed=2)
    row = rows[0]
    assert row.matches["M"] and not row.matches["R"]


def test_scenario_json_dict():
    inst = two_node_instance()
    forecasts = {p: point_mass(5.0, p) for p in PAIRS}
    result = optimize_lag(copula_for(), forecasts, inst, k=5, seed=0)
    doc = scenario_to_json_dict(result)
    assert doc["lag"] == "2018-01-08T08"
    assert doc["histogram"][0]["count"] == 5
    assert "chosen" in doc and "mean_time_savings" in doc


def test_invalid_k():
    inst = two_node_instance()
    with pytest.raises(ValueError):
        optimize_lag(copula_for(), {p: point_mass(1, p) for p in PAIRS}, inst, k=0, seed=0)


def _decision_case(seed, max_routes=2, capacity=40.0, exact=False, symmetric=False, zero=False, drop_pair=False):
    """A 4-site network, forecasts and a copula for comparing optimize_lag with the per-sample loop."""
    from drtopt.data import Location
    from drtopt.tndfs import NetworkInstance

    rng = np.random.default_rng(seed)
    coords = [(0, 0), (800, 0), (800, 800), (0, 800)] if symmetric else rng.integers(0, 13, size=(4, 2)) * 100
    sites = [Location(i, f"s{i}", (float(x), float(y))) for i, (x, y) in enumerate(coords)]
    ride = np.array([[max(1.0, round((abs(a.coord[0] - b.coord[0]) + abs(a.coord[1] - b.coord[1])) / 400))
                      for b in sites] for a in sites])
    np.fill_diagonal(ride, 2.0)
    inst = NetworkInstance(sites, sites, 80.0, ride, fleet_size=3, capacity=capacity,
                           max_routes=max_routes, max_route_stops=3, exact_route_count=exact)
    pairs = inst.od_pairs()
    spread_of = np.array([0.3, 0.7, 1.0, 1.4, 2.2])
    scales = np.full(len(pairs), 15.0) if symmetric else rng.uniform(2.0, 30.0, len(pairs))
    forecasts = {p: spread(list(0.0 * spread_of if zero else s * spread_of), p) for p, s in zip(pairs, scales)}
    order = tuple(pairs[:3] + pairs[4:]) if drop_pair else tuple(pairs)
    n = len(order)
    if symmetric:  # one shared normal score: every sample has equal demand on every pair
        chol = np.zeros((n, n))
        chol[:, 0] = 1.0
        copula = GaussianCopulaModel(order, np.ones((n, n)), chol)
    else:
        copula = copula_for(order, 0.6 * np.eye(n) + 0.4)
    return inst, forecasts, copula


DECISION_CASES = {
    "nu1": dict(max_routes=1),
    "nu2": dict(max_routes=2),
    "nu3": dict(max_routes=3),
    "capacity6": dict(max_routes=3, capacity=6.0),
    "exact-route-count": dict(max_routes=2, exact=True),
    "symmetric-ties": dict(max_routes=2, symmetric=True),
    "symmetric-capacity6": dict(max_routes=2, symmetric=True, capacity=6.0),
    "all-zero": dict(max_routes=2, zero=True),
    "copula-lacks-a-pair": dict(max_routes=2, drop_pair=True),
}


@pytest.mark.parametrize("case", sorted(DECISION_CASES))
@pytest.mark.parametrize("seed", [1, 2])
def test_optimize_lag_equals_per_sample_reference(case, seed, monkeypatch):
    from drtopt.tndfs import prepare_instance
    from reference_solver import reference_optimize_lag

    inst, forecasts, copula = _decision_case(seed, **DECISION_CASES[case])
    prep = prepare_instance(inst)
    k = 30 if case == "capacity6" else 60
    lp_calls = _count_lps(monkeypatch)

    got = optimize_lag(copula, forecasts, inst, k, seed, prepared=prep, lag=T0)
    got_lps = len(lp_calls)
    ref = reference_optimize_lag(copula, forecasts, inst, k, seed, prepared=prep, lag=T0)
    ref_lps = len(lp_calls) - got_lps

    assert got.sample_keys == ref.sample_keys
    assert got.sample_objectives.tolist() == ref.sample_objectives.tolist()
    assert list(got.histogram.items()) == list(ref.histogram.items())
    assert got.chosen_key == ref.chosen_key
    assert got.chosen.to_json_dict() == ref.chosen.to_json_dict()
    assert got.mean_time_savings == ref.mean_time_savings
    assert got.chosen_expected_savings == ref.chosen_expected_savings
    if case == "capacity6":
        assert 0 < got_lps <= ref_lps  # capacity binds: the exact flow LP ran, no more often than per sample
    if case == "all-zero":
        assert got.histogram == {(): k}


def _count_lps(monkeypatch) -> list:
    """Record every exact solve of a capacity-bound flow LP with two or more routes."""
    from drtopt import tndfs

    calls = []
    solve = tndfs._successive_shortest_paths
    monkeypatch.setattr(tndfs, "_successive_shortest_paths", lambda *a: calls.append(1) or solve(*a))
    return calls


def _case_demands(case, seed, k):
    """A decision case's instance and k copula samples aligned to its pairs, as optimize_lag builds them."""
    from drtopt.copula import sample_joint

    inst, forecasts, copula = _decision_case(seed, **DECISION_CASES[case])
    samples = sample_joint(copula, forecasts, k, seed)
    col = {p: j for j, p in enumerate(copula.pair_order)}
    return inst, np.column_stack([samples, np.zeros(k)])[:, [col.get(p, len(col)) for p in inst.od_pairs()]]


@pytest.mark.parametrize("case", sorted(DECISION_CASES))
@pytest.mark.parametrize("layout", ["cached", "blocks-of-7"])
def test_solve_batch_equals_per_sample_reference(case, layout, monkeypatch):
    from drtopt import tndfs
    from reference_solver import reference_solve_demand

    inst, lam = _case_demands(case, 3, 40)
    prep = tndfs.prepare_instance(inst)
    blocks = []
    if layout == "blocks-of-7":
        monkeypatch.setattr(tndfs, "_BLOCK_CELLS", 7 * len(prep.row_routes) + 3)
        block_winners = tndfs._block_winners
        monkeypatch.setattr(tndfs, "_block_winners", lambda prep, lam: blocks.append(len(lam)) or block_winners(prep, lam))

    rows, objectives = tndfs.solve_batch(prep, lam)
    ref = [reference_solve_demand(prep, row) for row in lam]
    assert rows.tolist() == [row for row, _ in ref]
    assert objectives.tolist() == [objective for _, objective in ref]
    assert blocks == ([7] * 5 + [5] if layout == "blocks-of-7" else [])
    one_row = tndfs.solve_batch(prep, lam[:1])
    assert (int(one_row[0][0]), float(one_row[1][0])) == ref[0]


@pytest.mark.parametrize("case", ["capacity6", "nu2"])
def test_solve_batch_skips_only_lps_the_flow_bound_rules_out(case, monkeypatch):
    from drtopt import tndfs

    inst, lam = _case_demands(case, 2, 40)
    prep = tndfs.prepare_instance(inst)
    lp_calls = _count_lps(monkeypatch)
    rows, objectives = tndfs.solve_batch(prep, lam)
    got_lps = len(lp_calls)
    monkeypatch.setattr(tndfs, "_flow_bound", lambda *a: np.inf)  # every candidate row gets its LP
    all_rows, all_objectives = tndfs.solve_batch(prep, lam)
    assert rows.tolist() == all_rows.tolist()
    assert objectives.tolist() == all_objectives.tolist()
    if case == "capacity6":
        assert 0 < got_lps < len(lp_calls) - got_lps


def test_solve_batch_reuses_every_capacity_bound_winner_lp(monkeypatch):
    from drtopt import tndfs
    from reference_solver import reference_solve_demand

    inst, lam = _case_demands("capacity6", 1, 30)
    prep = tndfs.prepare_instance(inst)
    quiet = lam.copy()
    quiet[:, 2] = 0.0  # a pair without demand: the search's flow LPs still run over every pair
    assert np.all(lam > 0)
    # no candidate row is ruled out by its flow bound, so the loop runs the reference's LPs and the counts show the reuse
    monkeypatch.setattr(tndfs, "_flow_bound", lambda *a: np.inf)
    lp_calls = _count_lps(monkeypatch)
    for demands in (lam, quiet):
        del lp_calls[:]
        rows, objectives = tndfs.solve_batch(prep, demands)
        got_lps = len(lp_calls)
        ref = [reference_solve_demand(prep, row) for row in demands]
        ref_lps = len(lp_calls) - got_lps
        assert rows.tolist() == [row for row, _ in ref]
        assert objectives.tolist() == [objective for _, objective in ref]
        # the reference solves each capacity-bound winner's LP again over all pairs
        assert got_lps < ref_lps


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 2**16), st.floats(0.0, 0.6))
def test_solve_batch_equals_per_sample_reference_with_zero_demands_under_binding_capacity(seed, zero_share):
    from drtopt import tndfs
    from reference_solver import _price as reference_price, reference_solve_demand

    inst, lam = _case_demands("capacity6", seed, 6)
    lam *= 2.0  # so that capacity binds in most draws
    lam[np.random.default_rng(seed).random(lam.shape) < zero_share] = 0.0
    prep = tndfs.prepare_instance(inst)
    priced = [reference_price(row, prep.table, prep.row_caps) for row in lam]
    assume(not all(feasible[bound.argmax()] for bound, feasible in priced))  # some sample's best bound is over capacity
    rows, objectives = tndfs.solve_batch(prep, lam)
    ref = [reference_solve_demand(prep, row) for row in lam]
    assert rows.tolist() == [row for row, _ in ref]
    assert objectives.tolist() == [objective for _, objective in ref]


@settings(deadline=None, max_examples=30)
@given(st.sampled_from(["capacity6", "nu3", "symmetric-capacity6"]), st.integers(0, 2**16), st.floats(0.25, 4.0))
@example("symmetric-capacity6", 1, 1.0)  # mirrored allocations: a screen-failing row's bound within the tolerance below lower
@example("symmetric-capacity6", 5, 0.75)
def test_price_checks_capacity_wherever_a_row_can_still_win_or_tie(case, seed, scale):
    from drtopt import tndfs
    from reference_solver import _price as reference_price

    inst, lam = _case_demands(case, seed, 6)
    lam *= scale
    prep = tndfs.prepare_instance(inst)
    bound, feasible, lower, _, _ = tndfs._price(lam, prep.table, prep.row_caps)
    screened = lam @ prep.table[1] <= prep.row_caps.min(axis=1)  # all riders fit the smallest route
    assert lower.tolist() == np.max(bound, axis=1, where=screened, initial=-np.inf).tolist()
    for s, demands in enumerate(lam):
        # a row short of this mark can neither win nor tie: its feasibility may stay the screen's
        reach = bound[s] >= lower[s] - tndfs._tie_tol(lower[s])
        assert feasible[s, reach].tolist() == reference_price(demands, prep.table, prep.row_caps)[1][reach].tolist()


def _screenless_case(seed, k):
    """Four sites, slow walkers, and exactly five one-bus routes out of ten, so each allocation has a
    two-stop loop, which riders usually take: under small buses no row need pass the screen."""
    from drtopt.data import Location
    from drtopt.tndfs import NetworkInstance, prepare_instance

    rng = np.random.default_rng(seed)
    sites = [Location(i, f"s{i}", (float(x), float(y))) for i, (x, y) in enumerate(rng.integers(0, 13, (4, 2)) * 100)]
    ride = rng.uniform(1.0, 3.0, size=(4, 4))
    np.fill_diagonal(ride, 1.0)
    inst = NetworkInstance(sites, sites, 30.0, ride, fleet_size=5, capacity=2.0, max_routes=5, max_route_stops=2,
                           exact_route_count=True)
    return prepare_instance(inst), rng.uniform(0.0, 20.0, (k, len(inst.od_pairs())))


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 2**16))
def test_solve_batch_equals_per_sample_reference_when_no_row_passes_the_screen(seed):
    from drtopt import tndfs
    from reference_solver import reference_solve_demand

    prep, lam = _screenless_case(seed, 6)
    assume(np.isneginf(tndfs._price(lam, prep.table, prep.row_caps)[2]).any())  # lower = -inf: every row is checked
    rows, objectives = tndfs.solve_batch(prep, lam)
    assert list(zip(rows.tolist(), objectives.tolist())) == [reference_solve_demand(prep, row) for row in lam]


@settings(deadline=None, max_examples=20)
@given(st.sampled_from(["nu1", "nu3", "capacity6", "exact-route-count"]), st.integers(0, 2**16), st.integers(-2, 2))
@example("nu1", 3, 0)  # a winner whose loads fit by the matrix product but exceed its capacity as assign_flows sums them
@example("capacity6", 1, 0)
@example("exact-route-count", 2, 0)
def test_solve_batch_equals_per_sample_reference_at_capacity_ties(case, seed, ulps):
    from drtopt import tndfs
    from reference_solver import reference_solve_demand

    inst, lam = _case_demands(case, seed, 4)
    prep = tndfs.prepare_instance(inst)
    _, rides, slot = prep.table
    for s, demands in enumerate(lam):  # scaled so the winner's fullest route meets its capacity, up to rounding
        row = reference_solve_demand(prep, demands)[0]
        riders = rides[:, row] > 0
        loads = np.bincount(slot[riders, row], demands[riders], prep.row_caps.shape[1])
        with np.errstate(divide="ignore"):
            scale = np.min(prep.row_caps[row] / loads)
        if np.isfinite(scale):
            lam[s] *= scale * (1.0 + ulps * 2.0**-52)
    ref = [reference_solve_demand(prep, row) for row in lam]
    rows, objectives = tndfs.solve_batch(prep, lam)
    assert list(zip(rows.tolist(), objectives.tolist())) == ref
    # one sample at a time, as solve_instance solves: a vector-matrix product may sum in another order
    assert [(int(r[0]), float(o[0])) for r, o in (tndfs.solve_batch(prep, row[None]) for row in lam)] == ref
