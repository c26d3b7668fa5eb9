import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import stacked
from drtopt.data import ODPair, parse_hour
from drtopt.metrics import BAND, crossings, evaluate, icp, mil, mtl, report_csv, report_table
from drtopt.qr import DEFAULT_QUANTILES, QuantileForecast
from reference_metrics import reference_crossings, reference_evaluate, reference_icp, reference_mil, reference_mtl

PAIR = ODPair(0, 1)
T0 = parse_hour("2018-01-08T08")


def fc(values, lag_offset=0, levels=DEFAULT_QUANTILES, pair=PAIR):
    if not isinstance(values, dict):
        values = dict(zip(levels, values))
    return QuantileForecast(pair, T0 + np.timedelta64(lag_offset, "h"), values)


# ---------------------------------------------------------------------------
# MTL
# ---------------------------------------------------------------------------


def test_mtl_zero_on_perfect_forecasts():
    forecasts = [fc([y] * 5, i) for i, y in enumerate([3.0, 7.0, 1.0])]
    assert mtl(stacked(forecasts), [3.0, 7.0, 1.0], DEFAULT_QUANTILES) == 0.0


def test_mtl_single_term():
    forecasts = [fc({0.5: 8.0}, levels=(0.5,))]
    assert mtl(stacked(forecasts, (0.5,)), [10.0], (0.5,)) == 1.0


def test_mtl_positively_homogeneous():
    forecasts = [fc([1.0, 2.0, 3.0, 4.0, 5.0], i) for i in range(4)]
    doubled = [fc([2.0, 4.0, 6.0, 8.0, 10.0], i) for i in range(4)]
    truths = np.array([2.0, 1.0, 6.0, 3.0])
    assert mtl(stacked(doubled), 2 * truths, DEFAULT_QUANTILES) == pytest.approx(
        2 * mtl(stacked(forecasts), truths, DEFAULT_QUANTILES)
    )


def test_mtl_invariant_under_lag_reordering():
    forecasts = [fc([1, 2, 3, 4, 5], i) for i in range(3)]
    truths = [5.0, 0.0, 2.5]
    reordered = [forecasts[2], forecasts[0], forecasts[1]]
    assert mtl(stacked(forecasts), truths, DEFAULT_QUANTILES) == pytest.approx(
        mtl(stacked(reordered), [truths[2], truths[0], truths[1]], DEFAULT_QUANTILES)
    )


def test_mtl_misaligned_raises():
    with pytest.raises(ValueError, match="misaligned"):
        mtl(stacked([fc([1, 2, 3, 4, 5])]), [1.0, 2.0], DEFAULT_QUANTILES)


# ---------------------------------------------------------------------------
# ICP / MIL
# ---------------------------------------------------------------------------


def test_icp_infinite_band():
    forecasts = [fc({0.05: 0.0, 0.95: 1e12}, i, levels=(0.05, 0.95)) for i in range(5)]
    assert icp(stacked(forecasts, BAND), [1.0, 100.0, 5.0, 0.0, 17.0], BAND) == 1.0


def test_icp_always_above_band():
    forecasts = [fc({0.05: 0.0, 0.95: 1.0}, i, levels=(0.05, 0.95)) for i in range(4)]
    assert icp(stacked(forecasts, BAND), [2.0, 3.0, 4.0, 5.0], BAND) == 0.0


def test_icp_nine_of_ten():
    forecasts = [fc({0.05: 0.0, 0.95: 10.0}, i, levels=(0.05, 0.95)) for i in range(10)]
    truths = [5.0] * 9 + [11.0]
    assert icp(stacked(forecasts, BAND), truths, BAND) == pytest.approx(0.9)


def test_icp_band_edges_count_inside():
    forecasts = [fc({0.05: 2.0, 0.95: 8.0}, levels=(0.05, 0.95))]
    assert icp(stacked(forecasts, BAND), [2.0], BAND) == 1.0
    assert icp(stacked(forecasts, BAND), [8.0], BAND) == 1.0


def test_icp_missing_levels():
    with pytest.raises(KeyError):
        icp(stacked([fc({0.5: 1.0}, levels=(0.5,))], (0.5,)), [1.0], (0.5,))


def test_mil_degenerate_and_constant():
    degenerate = [fc({0.05: 4.0, 0.95: 4.0}, i, levels=(0.05, 0.95)) for i in range(3)]
    assert mil(stacked(degenerate, BAND), BAND) == 0.0
    constant = [fc({0.05: 1.0, 0.95: 5.0}, i, levels=(0.05, 0.95)) for i in range(3)]
    assert mil(stacked(constant, BAND), BAND) == 4.0


def test_mil_mean_of_widths():
    forecasts = [
        fc({0.05: 0.0, 0.95: 2.0}, 0, levels=(0.05, 0.95)),
        fc({0.05: 1.0, 0.95: 7.0}, 1, levels=(0.05, 0.95)),
    ]
    assert mil(stacked(forecasts, BAND), BAND) == 4.0


# ---------------------------------------------------------------------------
# crossings
# ---------------------------------------------------------------------------


def test_crossings_sorted_is_zero():
    assert crossings(stacked([fc([1, 2, 3, 4, 5], i) for i in range(7)]), DEFAULT_QUANTILES) == 0


def test_crossings_fully_inverted():
    assert crossings(stacked([fc([5, 4, 3, 2, 1])]), DEFAULT_QUANTILES) == 10


def test_crossings_single_adjacent_inversion():
    assert crossings(stacked([fc([1, 3, 2, 4, 5])]), DEFAULT_QUANTILES) == 1


def test_crossings_zero_after_sorting_random(rng):
    for _ in range(100):
        raw = rng.uniform(0, 20, size=5)
        unsorted_fc = [fc(list(raw))]
        sorted_fc = [fc(list(np.sort(raw)))]
        assert crossings(stacked(sorted_fc), DEFAULT_QUANTILES) == 0
        assert crossings(stacked(unsorted_fc), DEFAULT_QUANTILES) >= 0


def test_ties_do_not_count_as_crossings():
    assert crossings(stacked([fc([2, 2, 2, 2, 2])]), DEFAULT_QUANTILES) == 0


def test_sorting_never_increases_aggregate_mtl(rng):
    # rearrangement property over whole forecast series
    for _ in range(100):
        n_lags = int(rng.integers(1, 9))
        raw = rng.uniform(0, 30, size=(n_lags, 5))
        truths = rng.uniform(0, 30, size=n_lags)
        unsorted_fc = [fc(list(r), i) for i, r in enumerate(raw)]
        sorted_fc = [fc(list(np.sort(r)), i) for i, r in enumerate(raw)]
        sorted_mtl = mtl(stacked(sorted_fc), truths, DEFAULT_QUANTILES)
        assert sorted_mtl <= mtl(stacked(unsorted_fc), truths, DEFAULT_QUANTILES) + 1e-9


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def test_evaluate_aggregates(tmp_path):
    pair_a, pair_b = ODPair(0, 1), ODPair(1, 0)
    by_pair = {
        pair_a: [fc([1, 2, 3, 4, 5], i, pair=pair_a) for i in range(2)],
        pair_b: [fc([0, 0, 0, 0, 0], i, pair=pair_b) for i in range(2)],
    }
    truths = {pair_a: np.array([3.0, 3.0]), pair_b: np.array([0.0, 0.0])}
    report = evaluate(by_pair, truths, DEFAULT_QUANTILES)
    assert report.total_mtl == pytest.approx(sum(m.mtl for m in report.per_pair.values()))
    assert report.per_pair[pair_b].mtl == 0.0
    assert report.mean_crossings == 0.0
    # population std over exactly the pairs
    icps = [report.per_pair[pair_a].icp, report.per_pair[pair_b].icp]
    assert report.std_icp == pytest.approx(np.std(icps))

    out = tmp_path / "report.csv"
    report_csv(report, out, labels=["g0", "g1"])
    text = out.read_text()
    assert "g0>g1" in text and "TOTAL_MTL" in text
    assert "Total MTL" in report_table(report)


# ---------------------------------------------------------------------------
# the array scorer against the per-forecast reference
# ---------------------------------------------------------------------------


def test_scorers_reject_zero_lags():
    empty = np.empty((len(DEFAULT_QUANTILES), 0))
    for score in (
        lambda: mtl(empty, [], DEFAULT_QUANTILES),
        lambda: icp(empty, [], DEFAULT_QUANTILES),
        lambda: mil(empty, DEFAULT_QUANTILES),
        lambda: evaluate({PAIR: []}, {PAIR: np.array([])}, DEFAULT_QUANTILES),
    ):
        with pytest.raises(ValueError, match="no lags to score"):
            score()


def test_evaluate_rejects_pairs_at_different_numbers_of_lags():
    other = ODPair(1, 0)
    by_pair = {PAIR: [fc([1, 2, 3, 4, 5])], other: [fc([1, 2, 3, 4, 5], i, pair=other) for i in range(2)]}
    with pytest.raises(ValueError, match="same number of lags"):
        evaluate(by_pair, {PAIR: np.zeros(1), other: np.zeros(2)}, DEFAULT_QUANTILES)


VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.0]), st.floats(-1e6, 1e6, allow_nan=False))


@st.composite
def forecast_sets(draw):
    """Per-lag forecasts of 1-3 pairs, in any order, at the default levels, with each pair's truths.

    The quantiles are drawn unsorted, with ties and signed zeros; the scored
    levels are all of them or a subset in any order.
    """
    n_lags = draw(st.integers(1, 30))
    pairs = draw(st.permutations([ODPair(0, 1), ODPair(1, 0), ODPair(0, 2)]))[: draw(st.integers(1, 3))]
    by_pair, truths = {}, {}
    for pair in pairs:
        rows = draw(st.lists(st.lists(VALUES, min_size=5, max_size=5), min_size=n_lags, max_size=n_lags))
        by_pair[pair] = [fc(row, i, pair=pair) for i, row in enumerate(rows)]
        truths[pair] = np.array(draw(st.lists(VALUES, min_size=n_lags, max_size=n_lags)))
    subset = st.lists(st.sampled_from(DEFAULT_QUANTILES), min_size=1, max_size=5, unique=True).map(tuple)
    levels = draw(st.one_of(st.just(DEFAULT_QUANTILES), subset))
    return by_pair, truths, levels


def _one_lag(values, truth, levels=DEFAULT_QUANTILES):
    return {ODPair(0, 1): [fc(values)]}, {ODPair(0, 1): np.array([truth])}, levels


@settings(max_examples=300, deadline=None)
@given(forecast_sets())
@example(_one_lag([5.0, 4.0, 4.0, -0.0, 0.0], -0.0))  # a single lag: unsorted, tied and signed-zero quantiles
@example(_one_lag([0.0, -0.0, 0.0, -0.0, 0.0], 0.0, (0.95, 0.5)))  # a subset of the levels, out of order
def test_array_scorer_equals_the_per_forecast_reference(case):
    by_pair, truths, levels = case
    assert evaluate(by_pair, truths, levels) == reference_evaluate(by_pair, truths, levels)
    for pair, forecasts in by_pair.items():
        values, truth = stacked(forecasts), truths[pair]
        assert mtl(stacked(forecasts, levels), truth, levels) == reference_mtl(forecasts, truth, levels)
        assert icp(values, truth, DEFAULT_QUANTILES) == reference_icp(forecasts, truth)
        assert mil(values, DEFAULT_QUANTILES) == reference_mil(forecasts)
        assert crossings(stacked(forecasts, levels), levels) == reference_crossings(forecasts, levels)

