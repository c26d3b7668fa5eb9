"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here and nowhere else.
"""

import json
import os
import subprocess
import sys
import time
from datetime import date
from pathlib import Path

import numpy as np
from scipy import stats

import drtopt
from conftest import check_design_invariants, random_medium_instance, random_tiny_instance, stacked
from drtopt.boosting import GBoostHyper, fit_gboost, gboost_raw_predict, stack_gboost
from drtopt.cli import main as cli_main
from drtopt.copula import GaussianCopulaModel, fit_correlation, sample_joint
from drtopt.data import Location, ODPair, parse_hour
from drtopt.metrics import crossings, icp, mil, mtl
from drtopt.pipeline import optimize_ground_truth, optimize_lag, optimize_point
from drtopt.qr import DEFAULT_QUANTILES, QuantileForecast, fit_lqr
from drtopt.synth import SyntheticSpec, generate_synthetic
from drtopt.tndfs import (
    DemandVector,
    NetworkInstance,
    enumerate_routes,
    evaluate_allocation,
    prepare_instance,
    solve_instance,
)
from reference_copula import ecdf_from_forecast
from reference_qr import reference_pinball_constant
from reference_solver import oracle_solve

T0 = parse_hour("2018-01-08T08")


def report(criterion: str, passed: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


# ---------------------------------------------------------------------------
# 1. Quantile recovery oracle
# ---------------------------------------------------------------------------


def test_criterion_1_quantile_recovery():
    start = time.time()
    rng = np.random.default_rng(42)
    # 103 points: n*q is never integral, so the pinball minimizer is unique
    sample = rng.uniform(0.0, 100.0, size=103)
    X = np.ones((103, 1))

    linear = fit_lqr(X, sample, DEFAULT_QUANTILES)
    lqr_errs = []
    for q in DEFAULT_QUANTILES:
        oracle = reference_pinball_constant(sample, q)
        lqr_errs.append(abs(linear.coef[q][0] - oracle))

    boosted = fit_gboost(X, sample, DEFAULT_QUANTILES, GBoostHyper(0.5, 0, 200))
    raw = dict(zip(DEFAULT_QUANTILES, gboost_raw_predict(stack_gboost([boosted], DEFAULT_QUANTILES), [0], X[:1]).T))
    gb_errs = []
    for q in DEFAULT_QUANTILES:
        oracle = reference_pinball_constant(sample, q)
        gb_errs.append(abs(raw[q][0] - oracle))

    elapsed = time.time() - start
    report(
        "1 quantile-recovery",
        max(lqr_errs) <= 1e-3 and max(gb_errs) <= 0.5 and elapsed < 30,
        f"lqr err {max(lqr_errs):.2e}, gboost err {max(gb_errs):.3f}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. Metric identities
# ---------------------------------------------------------------------------


def test_criterion_2_metric_identities():
    # 10-lag fixture with hand-computed measures: lag i forecasts quantiles
    # [i, i+1, i+2, i+3, i+4]; truth hits the median on even lags and lies 10
    # above the center on odd lags.
    # Even-lag loss over q: 0.1 + 0.25 + 0 + 0.25 + 0.1 = 0.7
    # Odd-lag loss over q: 0.5 + 2.25 + 4 + 5.25 + 5.7 = 17.7
    # MTL = (5*0.7 + 5*17.7)/10 = 9.2 ; ICP = 0.5 ; MIL = 4 ; #cross = 0
    forecasts, truths = [], []
    for i in range(10):
        vals = dict(zip(DEFAULT_QUANTILES, [i, i + 1, i + 2, i + 3, i + 4]))
        forecasts.append(QuantileForecast(ODPair(0, 1), T0 + np.timedelta64(i, "h"), vals))
        truths.append(i + 2 if i % 2 == 0 else i + 10)

    values = stacked(forecasts)
    got_mtl = mtl(values, truths, DEFAULT_QUANTILES)
    got_icp = icp(values, truths, DEFAULT_QUANTILES)
    got_mil = mil(values, DEFAULT_QUANTILES)
    got_cross = crossings(values, DEFAULT_QUANTILES)

    ok = (
        abs(got_mtl - 9.2) <= 1e-9
        and got_icp == 0.5
        and got_mil == 4.0
        and got_cross == 0
    )

    # inversions are counted pairwise and strictly
    ok = ok and crossings(stacked([_fc([5, 4, 3, 2, 1])]), DEFAULT_QUANTILES) == 10
    ok = ok and crossings(stacked([_fc([1, 3, 2, 4, 5])]), DEFAULT_QUANTILES) == 1

    rng = np.random.default_rng(7)
    sorted_ok = all(
        crossings(stacked([_fc(sorted(rng.uniform(0, 50, size=5)))]), DEFAULT_QUANTILES) == 0
        for _ in range(100)
    )
    report(
        "2 metric-identities",
        ok and sorted_ok,
        f"mtl {got_mtl}, icp {got_icp}, mil {got_mil}, cross {got_cross}",
    )


def _fc(values, pair=ODPair(0, 1), lag=T0):
    return QuantileForecast(pair, lag, dict(zip(DEFAULT_QUANTILES, values)))


# ---------------------------------------------------------------------------
# 3. Copula fidelity
# ---------------------------------------------------------------------------


def test_criterion_3_copula_fidelity():
    start = time.time()
    flat = dict(tod_profile=(1.0,) * 24, dow_profile=(1.0,) * 7, exam_period=None)

    corr_errs = {}
    for rho in (0.0, 0.5, 0.9):
        ds = generate_synthetic(
            SyntheticSpec(
                n_locations=3, start=date(2017, 11, 1), end=date(2018, 1, 23),
                base_scale=50.0, dispersion=8.0, rho=rho, seed=31, **flat,
            )
        )
        history = {p: ds.series[p].counts[:2000].astype(float) for p in ds.pairs}
        model = fit_correlation(history)
        off = model.corr[~np.eye(model.dim, dtype=bool)]
        corr_errs[rho] = float(np.max(np.abs(off - rho)))
    corr_ok = all(err <= 0.1 for err in corr_errs.values())

    # marginal preservation: KS distance of sampled components vs forecast CDF
    pairs = (ODPair(0, 1), ODPair(1, 0))
    forecast_vals = {0.05: 2.0, 0.25: 4.0, 0.5: 6.0, 0.75: 8.0, 0.95: 10.0}
    forecasts = {p: QuantileForecast(p, T0, dict(forecast_vals)) for p in pairs}
    corr = np.array([[1.0, 0.6], [0.6, 1.0]])
    model = GaussianCopulaModel(pairs, corr, np.linalg.cholesky(corr))
    samples = sample_joint(model, forecasts, 10_000, seed=13)
    F = ecdf_from_forecast(forecast_vals)
    grid = np.linspace(0.0, 12.0, 600)
    ks = 0.0
    for j in range(2):
        empirical = np.searchsorted(np.sort(samples[:, j]), grid, side="right") / len(samples)
        ks = max(ks, float(np.max(np.abs(empirical - F.cdf(grid)))))
    ks_ok = ks <= 0.03

    # rank correlation: Gaussian copula implies spearman = 6/pi*asin(rho/2)
    expected_spearman = 6.0 / np.pi * np.arcsin(0.6 / 2.0)
    got_spearman = stats.spearmanr(samples[:, 0], samples[:, 1]).statistic
    ident = GaussianCopulaModel(pairs, np.eye(2), np.eye(2))
    s0 = sample_joint(ident, forecasts, 10_000, seed=14)
    rank_ok = (
        abs(got_spearman - expected_spearman) <= 0.05
        and abs(stats.spearmanr(s0[:, 0], s0[:, 1]).statistic) <= 0.05
    )

    elapsed = time.time() - start
    report(
        "3 copula-fidelity",
        corr_ok and ks_ok and rank_ok and elapsed < 60,
        f"corr errs {corr_errs}, ks {ks:.4f}, spearman err "
        f"{abs(got_spearman - expected_spearman):.4f}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. Solver exactness
# ---------------------------------------------------------------------------


def test_criterion_4_solver_exactness():
    start = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        inst, demand = random_tiny_instance(rng)
        design = solve_instance(inst, demand)
        reference = oracle_solve(inst, demand)
        gap = abs(design.objective - reference.objective)
        worst = max(worst, gap)
        assert gap <= 1e-9, (inst, demand.rates)
        if design.key() != reference.key():
            # allocations may differ only when the optimum is non-unique:
            # both must reach the same objective
            mine = evaluate_allocation(inst, design.allocation, demand).objective
            theirs = evaluate_allocation(inst, reference.allocation, demand).objective
            assert abs(mine - theirs) <= 1e-9

    rng = np.random.default_rng(777)
    for _ in range(1000):
        inst, demand = random_medium_instance(rng)
        design = solve_instance(inst, demand)
        check_design_invariants(inst, demand, design)

    elapsed = time.time() - start
    report(
        "4 solver-exactness",
        worst <= 1e-9 and elapsed < 300,
        f"max oracle gap {worst:.2e}, 200 tiny + 1000 medium in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 5. Sampling-vs-point-estimate consistency and divergence
# ---------------------------------------------------------------------------


def _divergence_fixture():
    """Two ODs on three stops; route A is best for OD1, route B only serves OD2.

    Moving the second bus from A to B costs OD1 waiting time but gains OD2
    service; the demand mass of OD2 concentrates just above that reallocation
    boundary while its median sits just below, and route A's single-bus
    capacity binds at the upper demand quantiles.
    """
    S0 = Location(0, "s0", (0.0, 0.0))
    S1 = Location(1, "s1", (2000.0, 0.0))
    S2 = Location(2, "s2", (0.0, 1900.0))
    D0 = Location(0, "d0", (0.0, 0.0))
    D1 = Location(1, "d1", (2000.0, 0.0))
    D2 = Location(2, "d2", (100.0, 0.0))
    D3 = Location(3, "d3", (0.0, 2000.0))
    ride = np.array([[2.0, 3.0, 3.0], [3.0, 2.0, 5.0], [3.0, 5.0, 2.0]])
    inst = NetworkInstance([D0, D1, D2, D3], [S0, S1, S2], 100.0, ride,
                           fleet_size=2, capacity=1.2, max_routes=2, max_route_stops=2)
    od1, od2 = ODPair(0, 1), ODPair(2, 3)
    forecasts = {
        od1: QuantileForecast(od1, T0, dict(zip(DEFAULT_QUANTILES, (2.0, 3.0, 13.0, 13.0, 13.0)))),
        od2: QuantileForecast(od2, T0, dict(zip(DEFAULT_QUANTILES, (3.9, 4.0, 4.0, 9.0, 12.0)))),
    }
    return inst, (od1, od2), forecasts


def test_criterion_5_strategy_consistency_and_divergence():
    start = time.time()

    # (a) point-mass forecasts equal to truth: every strategy recovers the
    # hindsight allocation on 50 random instances
    rng = np.random.default_rng(512)
    for _ in range(50):
        inst, demand = random_tiny_instance(rng)
        truth = dict(demand.rates)
        pairs = tuple(sorted(inst.od_pairs()))
        forecasts = {
            p: QuantileForecast(p, T0, {q: truth.get(p, 0.0) for q in DEFAULT_QUANTILES})
            for p in pairs
        }
        prep = prepare_instance(inst)
        gt = optimize_ground_truth({p: truth.get(p, 0.0) for p in pairs}, inst, prep)
        copula = GaussianCopulaModel(pairs, np.eye(len(pairs)), np.eye(len(pairs)))
        scenario = optimize_lag(copula, forecasts, inst, k=20, seed=3, prepared=prep)
        median = optimize_point(forecasts, 0.50, inst, prep)
        worst = optimize_point(forecasts, 0.95, inst, prep)
        assert scenario.chosen_key == gt.key()
        assert median.key() == gt.key()
        assert worst.key() == gt.key()

    # (b) dispersed forecasts on the reallocation-cliff fixture
    inst, pairs, forecasts = _divergence_fixture()
    prep = prepare_instance(inst)
    median = optimize_point(forecasts, 0.50, inst, prep)
    worst = optimize_point(forecasts, 0.95, inst, prep)
    copula = GaussianCopulaModel(pairs, np.eye(2), np.eye(2))
    scenario = optimize_lag(copula, forecasts, inst, k=100, seed=17, prepared=prep)

    # oracle verification of both point solves (integer demands, grid caps)
    for level, design in ((0.50, median), (0.95, worst)):
        lam = DemandVector({p: forecasts[p].values[level] for p in pairs})
        reference = oracle_solve(inst, lam)
        assert abs(design.objective - reference.objective) <= 1e-9
        assert design.key() == reference.key()

    diverged = (
        len(median.allocation) == 1
        and len(worst.allocation) == 2
        and len(scenario.chosen.allocation) == 2
    )
    elapsed = time.time() - start
    report(
        "5 strategy-consistency",
        diverged and elapsed < 120,
        f"M routes {len(median.allocation)}, R routes {len(worst.allocation)}, "
        f"P routes {len(scenario.chosen.allocation)} "
        f"({scenario.histogram[scenario.chosen_key]}/100), {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 6. End-to-end determinism
# ---------------------------------------------------------------------------


def _run_workflow(root: Path, threads: int) -> dict[str, bytes]:
    """The CLI chain's artifacts: in this process (one BLAS thread, as conftest pins it) for one
    thread, else each step in a subprocess with `threads` BLAS and OpenMP threads."""
    ws = root / f"ws_t{threads}"
    src = str(Path(drtopt.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

    def cli(*argv: str) -> None:
        if threads == 1:
            assert cli_main(list(argv)) == 0
        else:
            subprocess.run([sys.executable, "-m", "drtopt.cli", *argv], env=env, check=True, capture_output=True)

    cli("synth", "--out-dir", str(ws), "--locations", "3", "--seed", "11")
    cfg_path = ws / "config.json"
    doc = json.loads(cfg_path.read_text())
    doc["optimize"] = {"k": 12, "lags": ["2018-01-08T08", "2018-01-08T09"]}
    doc["threads"] = threads
    cfg_path.write_text(json.dumps(doc, indent=2, sort_keys=True))
    cli("train", "--config", str(cfg_path))
    model = ws / "out" / "model.json"
    cli("predict", "--config", str(cfg_path), "--model", str(model))
    cli("pipeline", "--config", str(cfg_path), "--model", str(model))
    out = ws / "out"
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def test_criterion_6_end_to_end_determinism(tmp_path, capsys):
    first = _run_workflow(tmp_path / "a", threads=1)
    second = _run_workflow(tmp_path / "b", threads=1)
    threaded = _run_workflow(tmp_path / "c", threads=8)
    rerun_ok = first == second
    thread_ok = first == threaded
    capsys.readouterr()  # swallow the pipeline tables
    report(
        "6 determinism",
        rerun_ok and thread_ok,
        f"{len(first)} artifacts, rerun identical: {rerun_ok}, 8-thread identical: {thread_ok}",
    )


# ---------------------------------------------------------------------------
# 7. Hour-dependent confidence profile
# ---------------------------------------------------------------------------


def test_criterion_7_confidence_vs_boundary_distance():
    start = time.time()
    inst, pairs, near_boundary = _divergence_fixture()
    prep = prepare_instance(inst)
    copula = GaussianCopulaModel(pairs, np.eye(2), np.eye(2))
    od1, od2 = pairs

    def hour_forecast(lam1, lam2, hour):
        lag = parse_hour(f"2018-01-08T{hour:02d}")
        return {
            od1: QuantileForecast(od1, lag, {q: lam1 for q in DEFAULT_QUANTILES}),
            od2: QuantileForecast(od2, lag, {q: lam2 for q in DEFAULT_QUANTILES}),
        }

    # hour -> (demand point, expected route count); the bus-reallocation
    # boundary sits where OD2's gain 10*lam2 crosses OD1's loss 3*lam1
    far_hours = {
        9: (hour_forecast(13.0, 1.0, 9), 1),   # 10*1  << 3*13: single route, safely
        10: (hour_forecast(13.0, 10.0, 10), 2),  # 10*10 >> 3*13: both routes, safely
        11: (hour_forecast(4.0, 9.0, 11), 2),   # 90 >> 12
    }
    confident = {}
    for hour, (fc, expect_routes) in far_hours.items():
        result = optimize_lag(copula, fc, inst, k=100, seed=100 + hour, prepared=prep)
        confident[hour] = result.histogram[result.chosen_key]
        assert len(result.chosen.allocation) == expect_routes, hour
    far_ok = all(count > 90 for count in confident.values())

    # the dispersed fixture straddles the boundary: split histogram
    near = optimize_lag(copula, near_boundary, inst, k=100, seed=108, prepared=prep)
    top = near.histogram[near.chosen_key]
    runners_up = sorted(near.histogram.values(), reverse=True)
    near_ok = top < 90 and len(near.histogram) >= 2 and runners_up[1] >= 10

    elapsed = time.time() - start
    report(
        "7 confidence-profile",
        far_ok and near_ok and elapsed < 300,
        f"far-hour counts {confident}, near-boundary top {top}/100 "
        f"over {len(near.histogram)} solutions, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 8. Candidate enumeration counts
# ---------------------------------------------------------------------------


def test_criterion_8_enumeration_counts():
    five = enumerate_routes(5, 5, np.ones((5, 5)))
    two = enumerate_routes(2, 2, np.ones((2, 2)))
    report(
        "8 enumeration-counts",
        len(five) == 89 and len(two) == 3,
        f"5 stops/L=5 -> {len(five)}, 2 stops/L=2 -> {len(two)}",
    )
