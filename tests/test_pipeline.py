import numpy as np
import pytest

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


def test_mode_picks_most_frequent():
    keys = ["A", "A", "B"]
    objs = np.array([1.0, 1.0, 99.0])
    assert pick_mode(keys, objs) == "A"


def test_mode_tie_breaks_on_mean_objective_then_key():
    keys = ["B", "A", "B", "A"]
    objs = np.array([5.0, 1.0, 5.0, 1.0])
    assert pick_mode(keys, objs) == "B"  # same counts, higher mean objective
    objs = np.array([2.0, 2.0, 2.0, 2.0])
    assert pick_mode(keys, objs) == "A"  # full tie: lexicographic


def test_mode_invariant_to_sample_order():
    rng = np.random.default_rng(0)
    keys = ["A"] * 5 + ["B"] * 3 + ["C"] * 5
    objs = np.concatenate([np.full(5, 2.0), np.full(3, 9.0), np.full(5, 1.0)])
    baseline = pick_mode(keys, objs)
    for _ in range(10):
        perm = rng.permutation(len(keys))
        assert pick_mode([keys[i] for i in perm], objs[perm]) == baseline


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
    truths = {}
    model_forecasts = {"m": {}}
    for lag in lags:
        truth = {PAIRS[0]: 6.0, PAIRS[1]: 1.0}
        truths[lag] = truth
        model_forecasts["m"][lag] = {p: point_mass(truth[p], p, lag) for p in PAIRS}
    rows = compare_strategies(lags, model_forecasts, truths, inst, copula_for(), k=8, seed=0)
    assert len(rows) == len(lags) * 1
    assert all(all(row.matches[s] for s in ("P", "M", "R")) for row in rows)

    path = tmp_path / "cmp.csv"
    comparison_to_csv(rows, path)
    text = path.read_text()
    assert "matches_gt" in text and "GT" in text
    table = comparison_table(rows)
    assert "*" in table


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

    truths = {T0: {pair: 5.0}}
    rows = compare_strategies([T0], {"m": {T0: forecasts}}, truths, inst, copula_for((pair,)), k=30, seed=2)
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
@pytest.mark.parametrize("layout", ["cached", "uncached", "blocks-of-7"])
def test_solve_batch_equals_per_sample_reference(case, layout, monkeypatch):
    from drtopt import tndfs
    from reference_solver import reference_solve_demand

    if layout == "uncached":  # every chunk built per block of samples instead
        monkeypatch.setattr(tndfs, "_TABLE_BYTES", 0)
    inst, lam = _case_demands(case, 3, 40)
    prep = tndfs.prepare_instance(inst)
    assert (prep.table is None) == (layout == "uncached")
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
    assert tndfs.solve_demand(prep, lam[0]) == ref[0]


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


def test_solve_batch_reuses_a_winner_lp_only_when_every_pair_has_demand(monkeypatch):
    from drtopt import tndfs
    from reference_solver import reference_solve_demand

    inst, lam = _case_demands("capacity6", 1, 30)
    prep = tndfs.prepare_instance(inst)
    quiet = lam.copy()
    quiet[:, 2] = 0.0  # the loop's flow LPs run over the other pairs only
    assert np.all(lam > 0)
    # no candidate row is ruled out by its flow bound, so the loop runs the reference's LPs and the counts show the reuse
    monkeypatch.setattr(tndfs, "_flow_bound", lambda *a: np.inf)
    lp_calls = _count_lps(monkeypatch)
    for demands, reuses in ((lam, True), (quiet, False)):
        del lp_calls[:]
        rows, objectives = tndfs.solve_batch(prep, demands)
        got_lps = len(lp_calls)
        ref = [reference_solve_demand(prep, row) for row in demands]
        ref_lps = len(lp_calls) - got_lps
        assert rows.tolist() == [row for row, _ in ref]
        assert objectives.tolist() == [objective for _, objective in ref]
        # the reference solves each capacity-bound winner's LP again over all pairs
        assert (got_lps < ref_lps) if reuses else (0 < got_lps == ref_lps)
