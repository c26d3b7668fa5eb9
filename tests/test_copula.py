import csv
import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from drtopt.copula import (
    export_correlation,
    export_samples,
    fit_correlation,
    gaussian_scores,
    marginal_inverse,
    marginal_knots,
    repair_correlation,
    sample_joint,
)
from drtopt.data import ODPair, parse_hour
from drtopt.qr import DEFAULT_QUANTILES, QuantileForecast
from reference_copula import EmpiricalCDF, ecdf_from_forecast

T0 = parse_hour("2018-01-08T08")
FORECAST = {0.05: 2.0, 0.25: 4.0, 0.5: 6.0, 0.75: 8.0, 0.95: 10.0}


def make_fc(values, pair):
    return QuantileForecast(pair, T0, dict(values))


# ---------------------------------------------------------------------------
# empirical CDFs
# ---------------------------------------------------------------------------


def loop_cdf(F, x):
    """Element-by-element reference for EmpiricalCDF.cdf."""
    out = []
    for xi in np.atleast_1d(np.asarray(x, dtype=np.float64)):
        if xi < F.values[0]:
            out.append(0.0)
        elif xi >= F.values[-1]:
            out.append(1.0)
        else:
            j = int(np.searchsorted(F.values, xi, side="right")) - 1
            if F.values[j] == xi:
                out.append(F.levels[j])
            else:
                dv = F.values[j + 1] - F.values[j]
                dq = F.levels[j + 1] - F.levels[j]
                out.append(F.levels[j] + (xi - F.values[j]) / dv * dq)
    return np.array(out)


def loop_inverse(F, u):
    """Element-by-element reference for EmpiricalCDF.inverse."""
    out = []
    for ui in np.atleast_1d(np.asarray(u, dtype=np.float64)):
        if ui <= F.levels[0]:
            out.append(F.values[0])
        elif ui >= F.levels[-1]:
            out.append(F.values[-1])
        else:
            j = int(np.searchsorted(F.levels, ui, side="left"))
            dq = F.levels[j] - F.levels[j - 1]
            dv = F.values[j] - F.values[j - 1]
            out.append(F.values[j - 1] + (ui - F.levels[j - 1]) / dq * dv)
    return np.array(out)


def test_vectorized_cdf_and_inverse_equal_loop_reference():
    rng = np.random.default_rng(606)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        # a coarse grid makes repeated values (jumps) common
        values = np.sort(rng.choice(np.round(rng.uniform(0.0, 40.0, size=5), 3), size=n))
        levels = np.sort(rng.choice(np.arange(1, 100), size=n, replace=False)) / 100.0
        levels[-1] = 1.0
        F = EmpiricalCDF(values, levels)
        xs = np.concatenate(
            [values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf),
             [values[0] - 1.0, values[-1] + 1.0], rng.uniform(values[0] - 2.0, values[-1] + 2.0, size=20)]
        )
        us = np.concatenate(
            [levels, np.nextafter(levels, -np.inf), np.nextafter(levels, np.inf),
             [0.0, 1.0, -0.5, 1.5], rng.uniform(0.0, 1.0, size=20)]
        )
        assert np.array_equal(F.inverse(us), loop_inverse(F, us))
        assert np.array_equal(F.cdf(xs), loop_cdf(F, xs))
        for x in xs[:4]:
            assert F.cdf(float(x)) == F.cdf(np.array([x]))[0]
        for u in us[:4]:
            assert F.inverse(float(u)) == loop_inverse(F, u)[0]


@settings(deadline=None, max_examples=200)
@given(
    # a coarse grid makes repeated quantiles (jumps) and point masses common
    st.lists(st.integers(0, 12), min_size=5, max_size=5),
    st.floats(0.0, 1.0),
)
def test_forecast_cdf_inverse_undoes_cdf(quantiles, position):
    F = ecdf_from_forecast(dict(zip(DEFAULT_QUANTILES, sorted(0.5 * v for v in quantiles))))
    x = position * F.values[-1]  # anywhere on the support
    assert F.inverse(F.cdf(x)) == pytest.approx(x, rel=1e-12, abs=1e-12)


def test_forecast_cdf_degenerate_point_mass():
    F = ecdf_from_forecast({q: 0.0 for q in DEFAULT_QUANTILES})
    assert F.cdf(0.0) == 1.0
    assert F.inverse(0.3) == 0.0
    assert F.inverse(0.999) == 0.0


def test_forecast_cdf_interpolation():
    F = ecdf_from_forecast(FORECAST)
    assert F.cdf(6.0) == pytest.approx(0.5)
    assert F.cdf(5.0) == pytest.approx(0.375)
    assert F.cdf(-1.0) == 0.0
    assert F.cdf(12.0) == 1.0  # top endpoint = 10 + 2
    assert F.cdf(11.0) == pytest.approx(0.975)


def test_forecast_cdf_inverse_identity_inside_segments():
    F = ecdf_from_forecast(FORECAST)
    for y in [2.5, 3.9, 6.0, 7.3, 9.99, 11.0]:
        assert F.inverse(F.cdf(y)) == pytest.approx(y, abs=1e-9)


def test_forecast_cdf_endpoint_rule():
    F = ecdf_from_forecast(FORECAST)
    assert F.values[0] == 0.0 and F.levels[0] == 0.0
    assert F.values[-1] == pytest.approx(12.0) and F.levels[-1] == 1.0


def test_forecast_cdf_all_equal_concentrates_mass():
    # all quantiles at 5: 90% of the mass sits exactly at 5, with 5% tails
    F = ecdf_from_forecast({q: 5.0 for q in DEFAULT_QUANTILES})
    assert F.inverse(0.06) == 5.0
    assert F.inverse(0.5) == 5.0
    assert F.inverse(0.95) == 5.0
    assert F.inverse(0.02) == pytest.approx(2.0)  # lower tail interpolates (0, 5]
    assert F.inverse(0.975) == pytest.approx(7.5)  # upper tail interpolates (5, 10]
    assert F.cdf(5.0) == pytest.approx(0.95)
    assert F.cdf(4.999) <= 0.05


def test_forecast_cdf_partial_ties_jump():
    F = ecdf_from_forecast({0.05: 0.0, 0.25: 0.0, 0.5: 0.0, 0.75: 3.0, 0.95: 6.0})
    assert F.cdf(0.0) == pytest.approx(0.5)  # jump collapses levels 0..0.5
    assert F.inverse(0.3) == 0.0
    assert F.inverse(0.625) == pytest.approx(1.5)


def test_forecast_cdf_requires_all_levels_monotone():
    with pytest.raises(ValueError):
        ecdf_from_forecast({0.05: 5.0, 0.5: 3.0, 0.95: 6.0})


NON_FINITE = {
    "nan": {0.05: 1.0, 0.5: float("nan"), 0.95: 9.0},
    "inf": {0.05: 1.0, 0.5: 4.0, 0.95: float("inf")},
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_forecast_cdf_rejects_non_finite_quantiles(case):
    with pytest.raises(ValueError, match="finite"):
        ecdf_from_forecast(NON_FINITE[case])
    with pytest.raises(ValueError, match="finite"):
        EmpiricalCDF([0.0, NON_FINITE[case][0.5], NON_FINITE[case][0.95]], [0.0, 0.5, 1.0])


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_sample_names_pair_with_non_finite_forecast(case):
    model, pairs = identity_model()
    forecasts = {pairs[0]: make_fc(FORECAST, pairs[0]), pairs[1]: make_fc(NON_FINITE[case], pairs[1])}
    with pytest.raises(ValueError, match=r"forecast for ODPair\(origin=1, destination=0\): knots must be finite"):
        sample_joint(model, forecasts, 10, seed=0)


def test_sample_names_the_first_bad_pair_in_pair_order():
    model, _ = identity_model(n_pairs=4)
    order = model.pair_order
    forecasts = {p: make_fc(FORECAST, p) for p in order}
    forecasts[order[3]] = make_fc(NON_FINITE["nan"], order[3])
    forecasts[order[1]] = make_fc({0.05: 5.0, 0.5: 3.0, 0.95: 6.0}, order[1])
    message = f"forecast for {order[1]}: forecast quantiles must be non-decreasing"
    with pytest.raises(ValueError, match=re.escape(message)):
        sample_joint(model, forecasts, 10, seed=0)


@pytest.mark.parametrize("levels", [(0.0, 0.5, 0.9), (0.1, 0.5, 1.0)])
def test_sample_rejects_levels_at_the_endpoints(levels):
    model, pairs = identity_model()
    forecasts = {p: make_fc(dict(zip(levels, (1.0, 2.0, 3.0))), p) for p in pairs}
    message = f"forecast for {pairs[0]}: knot levels must be strictly increasing"
    with pytest.raises(ValueError, match=re.escape(message)):
        sample_joint(model, forecasts, 10, seed=0)


def test_sample_rejects_pairs_with_different_levels():
    model, _ = identity_model(n_pairs=3)
    order = model.pair_order
    forecasts = {p: make_fc(FORECAST, p) for p in order}
    forecasts[order[2]] = make_fc({0.25: 1.0, 0.75: 2.0}, order[2])
    with pytest.raises(ValueError, match=re.escape(f"forecast for {order[2]}: levels [0.25, 0.75] differ from")):
        sample_joint(model, forecasts, 10, seed=0)
    # a bad forecast before the mismatch is named first
    forecasts[order[1]] = make_fc(NON_FINITE["inf"] | {0.25: 2.0, 0.75: 5.0}, order[1])
    with pytest.raises(ValueError, match=re.escape(f"forecast for {order[1]}: knots must be finite")):
        sample_joint(model, forecasts, 10, seed=0)


@settings(deadline=None, max_examples=200)
@given(
    # quantiles are picks from a small pool that holds zero: tied quantiles
    # (jumps) and all-zero forecasts are common
    st.lists(st.floats(0.0, 40.0), min_size=1, max_size=3),
    st.lists(st.lists(st.integers(0, 3), min_size=5, max_size=5), min_size=1, max_size=6),
    st.lists(st.floats(0.0, 1.0), max_size=20),
)
def test_batched_inverse_equals_the_per_pair_reference(pool, picks, extra_u):
    pool = [0.0, *pool]
    pairs = [ODPair(0, j) for j in range(1, len(picks) + 1)]
    forecasts = {
        p: make_fc(dict(zip(DEFAULT_QUANTILES, sorted(pool[i % len(pool)] for i in pick))), p)
        for p, pick in zip(pairs, picks)
    }
    knot_levels, values = marginal_knots(pairs, forecasts)
    # every knot level exactly, its neighbours, both ends and the drawn values, in every column
    column = np.concatenate(
        [knot_levels, np.nextafter(knot_levels, -1.0), np.nextafter(knot_levels, 2.0), [0.0, 1.0], extra_u]
    )
    u = np.repeat(column[:, None], len(pairs), axis=1)
    u[:, ::2] = u[::-1, ::2]  # not the same order in every column
    got = marginal_inverse(knot_levels, values, u)
    for j, pair in enumerate(pairs):
        F = ecdf_from_forecast(forecasts[pair])
        assert np.array_equal(knot_levels, F.levels) and np.array_equal(values[j], F.values)
        assert np.array_equal(got[:, j], F.inverse(u[:, j]))


# ---------------------------------------------------------------------------
# correlation fitting
# ---------------------------------------------------------------------------


def test_comonotone_series_near_one(rng):
    y = rng.poisson(20, 2000).astype(float)
    model = fit_correlation({ODPair(0, 1): y, ODPair(1, 0): 2.0 * y})
    assert model.corr[0, 1] >= 0.99


def test_independent_series_near_zero(rng):
    a = rng.poisson(20, 2000).astype(float)
    b = rng.poisson(20, 2000).astype(float)
    model = fit_correlation({ODPair(0, 1): a, ODPair(1, 0): b})
    assert abs(model.corr[0, 1]) <= 0.1


def test_diagonal_exactly_one(rng):
    history = {ODPair(i, j): rng.poisson(15, 200).astype(float) for i in range(3) for j in range(3) if i != j}
    model = fit_correlation(history)
    assert np.array_equal(np.diag(model.corr), np.ones(6))


def test_correlation_model_invariants(rng):
    history = {ODPair(i, j): rng.poisson(15, 300).astype(float) for i in range(3) for j in range(3) if i != j}
    model = fit_correlation(history)
    assert np.allclose(model.corr, model.corr.T)
    assert np.allclose(model.chol @ model.chol.T, model.corr, atol=1e-10)
    assert np.linalg.eigvalsh(model.corr).min() >= 1e-8 - 1e-12


def test_requires_aligned_and_enough_lags(rng):
    with pytest.raises(ValueError, match="aligned"):
        fit_correlation({ODPair(0, 1): np.ones(40), ODPair(1, 0): np.ones(50)})
    with pytest.raises(ValueError, match="at least"):
        fit_correlation({ODPair(0, 1): np.ones(10), ODPair(1, 0): np.ones(10)})


def test_constant_series_zeroed_with_warning(rng):
    a = rng.poisson(20, 200).astype(float)
    with pytest.warns(UserWarning, match="constant"):
        model = fit_correlation({ODPair(0, 1): a, ODPair(1, 0): np.full(200, 5.0)})
    assert model.corr[0, 1] == 0.0
    assert model.corr[1, 1] == 1.0


def test_gaussian_scores_finite_and_symmetric():
    z = gaussian_scores(np.arange(100.0))
    assert np.all(np.isfinite(z))
    assert abs(z.mean()) < 1e-12


def reference_scores(column):
    return stats.norm.ppf((stats.rankdata(column, method="average") - 0.5) / len(column))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.0, -3.5, np.inf, -np.inf]) | st.floats(allow_nan=False),
                min_size=1, max_size=600))
def test_gaussian_scores_are_the_scipy_rank_scores_to_the_byte(values):
    column = np.array(values)
    assert gaussian_scores(column).tobytes() == reference_scores(column).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 599, 600])
def test_gaussian_scores_equal_scipy_on_ties_and_signed_zeros(n):
    rng = np.random.default_rng(n)
    for column in (rng.integers(-2, 3, n).astype(float), rng.choice([0.0, -0.0, 1.0], n), rng.normal(size=n)):
        assert gaussian_scores(column).tobytes() == reference_scores(column).tobytes()
    assert gaussian_scores(np.full(n, -0.0)).tobytes() == np.zeros(n).tobytes()  # one tie group scores +0.0


def test_a_nan_makes_every_gaussian_score_nan():
    column = np.array([1.0, np.nan, 2.0, 2.0])
    assert np.isnan(gaussian_scores(column)).all() and np.isnan(reference_scores(column)).all()


def test_repair_clips_negative_eigenvalues():
    bad = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])
    fixed = repair_correlation(bad)
    assert np.linalg.eigvalsh(fixed).min() >= 1e-8 - 1e-12
    assert np.allclose(np.diag(fixed), 1.0)
    np.linalg.cholesky(fixed)


def test_repair_logs_what_it_changed(caplog):
    bad = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])
    with caplog.at_level(logging.INFO, logger="drtopt.copula"):
        fixed = repair_correlation(bad)
    [record] = caplog.records
    assert record.levelno == logging.WARNING
    smallest = np.linalg.eigvalsh(bad).min()
    change = np.max(np.abs(fixed - bad))
    assert record.getMessage() == (
        f"repaired correlation matrix: smallest eigenvalue {smallest:.6g} before repair, "
        f"largest entry change {change:.6g}"
    )


def test_repair_is_silent_on_a_valid_matrix(caplog):
    good = np.array([[1.0, 0.3, -0.2], [0.3, 1.0, 0.1], [-0.2, 0.1, 1.0]])
    with caplog.at_level(logging.INFO, logger="drtopt.copula"):
        fixed = repair_correlation(good)
    assert caplog.records == []
    assert np.array_equal(fixed, good)


def test_export_samples_csv(tmp_path, rng):
    model, pairs = identity_model()
    forecasts = {p: make_fc(FORECAST, p) for p in pairs}
    s = sample_joint(model, forecasts, 50, seed=2)
    path = tmp_path / "samples.csv"
    export_samples(s, model.pair_order, path, labels=["g0", "g1"])
    lines = path.read_text().splitlines()
    assert lines[0] == "sample,g0>g1,g1>g0"
    assert len(lines) == 51
    back = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
    assert np.allclose(back, s, atol=1e-9)


def test_correlation_csv_round_trip(tmp_path, rng):
    history = {ODPair(i, j): rng.poisson(9, 100).astype(float) for i in range(2) for j in range(2) if i != j}
    model = fit_correlation(history)
    path = tmp_path / "corr.csv"
    export_correlation(model, path, labels=["g0", "g1"])
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    corr = np.array(rows, dtype=np.float64)
    assert header == ["g0>g1", "g1>g0"]
    assert corr.shape == (2, 2)
    assert np.allclose(corr, model.corr, atol=1e-10)


# ---------------------------------------------------------------------------
# joint sampling
# ---------------------------------------------------------------------------


def identity_model(n_pairs=2, n_hist=200, rng=None):
    rng = rng or np.random.default_rng(0)
    pairs = [ODPair(0, 1), ODPair(1, 0), ODPair(0, 2), ODPair(2, 0)][:n_pairs]
    history = {p: rng.poisson(20, n_hist).astype(float) + rng.normal(0, 0.01, n_hist) for p in pairs}
    model = fit_correlation(history)
    model.corr = np.eye(n_pairs)
    model.chol = np.eye(n_pairs)
    return model, pairs


def test_identity_corr_gives_uncorrelated_samples(rng):
    model, pairs = identity_model()
    forecasts = {p: make_fc(FORECAST, p) for p in pairs}
    s = sample_joint(model, forecasts, 10_000, seed=11)
    rho = stats.spearmanr(s[:, 0], s[:, 1]).statistic
    assert abs(rho) <= 0.05


def test_degenerate_marginal_is_constant_zero(rng):
    model, pairs = identity_model()
    forecasts = {
        pairs[0]: make_fc({q: 0.0 for q in DEFAULT_QUANTILES}, pairs[0]),
        pairs[1]: make_fc(FORECAST, pairs[1]),
    }
    s = sample_joint(model, forecasts, 500, seed=3)
    assert np.all(s[:, 0] == 0.0)
    assert np.all(s >= 0.0)


def test_sample_marginals_match_forecast_knots(rng):
    model, pairs = identity_model()
    forecasts = {p: make_fc(FORECAST, p) for p in pairs}
    s = sample_joint(model, forecasts, 10_000, seed=5)
    for j in range(2):
        for q in (0.05, 0.5, 0.95):
            got = np.quantile(s[:, j], q)
            want = FORECAST[q]
            assert abs(got - want) <= max(0.05 * want, 0.5)


def test_sample_missing_pair_raises(rng):
    model, pairs = identity_model()
    with pytest.raises(ValueError, match="missing"):
        sample_joint(model, {pairs[0]: make_fc(FORECAST, pairs[0])}, 10, seed=0)


def test_sampling_deterministic(rng):
    model, pairs = identity_model()
    forecasts = {p: make_fc(FORECAST, p) for p in pairs}
    a = sample_joint(model, forecasts, 100, seed=9)
    b = sample_joint(model, forecasts, 100, seed=9)
    assert np.array_equal(a, b)
    c = sample_joint(model, forecasts, 100, seed=10)
    assert not np.array_equal(a, c)


def test_ks_distance_to_forecast_cdf(rng):
    model, pairs = identity_model()
    forecasts = {p: make_fc(FORECAST, p) for p in pairs}
    s = sample_joint(model, forecasts, 10_000, seed=21)
    F = ecdf_from_forecast(FORECAST)
    grid = np.linspace(0.0, 12.0, 500)
    empirical = np.searchsorted(np.sort(s[:, 0]), grid, side="right") / len(s)
    theoretical = F.cdf(grid)
    assert np.max(np.abs(empirical - theoretical)) <= 0.03


def test_rank_correlation_invariant_to_marginal_transform(rng):
    # Sklar decoupling: swapping a marginal for a strictly increasing transform
    # leaves rank correlations unchanged up to Monte Carlo error
    model, pairs = identity_model()
    model.corr = np.array([[1.0, 0.6], [0.6, 1.0]])
    model.chol = np.linalg.cholesky(model.corr)
    base = {p: make_fc(FORECAST, p) for p in pairs}
    squashed = {
        pairs[0]: make_fc({q: np.sqrt(v) for q, v in FORECAST.items()}, pairs[0]),
        pairs[1]: base[pairs[1]],
    }
    s1 = sample_joint(model, base, 10_000, seed=33)
    s2 = sample_joint(model, squashed, 10_000, seed=33)
    r1 = stats.spearmanr(s1[:, 0], s1[:, 1]).statistic
    r2 = stats.spearmanr(s2[:, 0], s2[:, 1]).statistic
    assert abs(r1 - r2) <= 0.05
