import numpy as np
import pytest
from datetime import date

from drtopt import synth
from drtopt.copula import fit_correlation
from drtopt.data import HOUR, ODCountSeries, ODDataset, ODPair
from drtopt.synth import (
    SyntheticSpec,
    generate_synthetic,
    network_for,
)
from reference_data import reference_columns

FLAT = dict(tod_profile=(1.0,) * 24, dow_profile=(1.0,) * 7, exam_period=None)


def flat_spec(**kw):
    base = dict(n_locations=3, start=date(2017, 11, 1), end=date(2018, 1, 23), base_scale=50.0, dispersion=8.0)
    base.update(FLAT)
    base.update(kw)
    return SyntheticSpec(**base)


def test_spec_validation():
    with pytest.raises(ValueError, match="rho"):
        SyntheticSpec(rho=1.0)
    with pytest.raises(ValueError, match="locations"):
        SyntheticSpec(n_locations=1)
    with pytest.raises(ValueError, match="profiles"):
        SyntheticSpec(tod_profile=(1.0,) * 10)


@pytest.mark.parametrize(
    "name, value", [("base_scale", float("nan")), ("base_scale", float("inf")), ("base_scale", -5.0),
                    ("dispersion", float("nan")), ("dispersion", float("inf")), ("dispersion", -1.0)]
)
def test_a_non_finite_or_negative_scale_is_rejected_naming_the_field(name, value):
    with pytest.raises(ValueError, match=f"{name}={value} must be finite and non-negative"):
        SyntheticSpec(**{name: value})


def test_deterministic_per_seed():
    a = generate_synthetic(SyntheticSpec(n_locations=2, end=date(2017, 11, 24), seed=5))
    b = generate_synthetic(SyntheticSpec(n_locations=2, end=date(2017, 11, 24), seed=5))
    c = generate_synthetic(SyntheticSpec(n_locations=2, end=date(2017, 11, 24), seed=6))
    pair = a.pairs[0]
    assert np.array_equal(a.series[pair].counts, b.series[pair].counts)
    assert not np.array_equal(a.series[pair].counts, c.series[pair].counts)


def test_the_columns_are_those_of_the_per_series_construction(monkeypatch):
    spec = SyntheticSpec(n_locations=3, end=date(2017, 11, 24), seed=4)
    blocks = []
    monkeypatch.setattr(synth, "ODDataset", lambda *args: blocks.append(args[-1]) or ODDataset(*args))
    dataset = generate_synthetic(spec)
    hours = np.arange(np.datetime64("2017-11-17T00"), np.datetime64("2017-11-25T00"), HOUR)
    pairs = [ODPair(o, d) for o in range(3) for d in range(3) if o != d]
    block = blocks[0].reshape(len(hours), len(pairs))  # the counts of each pair at each hour
    want = reference_columns({pair: ODCountSeries(pair, hours, block[:, j]) for j, pair in enumerate(pairs)})
    got = dataset.pairs, dataset.timestamps, dataset.counts, dataset.pair_index
    assert got[0] == want[0]
    for column, reference in zip(got[1:], want[1:]):
        assert column.dtype == reference.dtype and np.array_equal(column, reference)


def test_zero_dispersion_gives_rounded_means():
    spec = SyntheticSpec(n_locations=2, end=date(2017, 11, 30), dispersion=0.0, seed=1)
    ds = generate_synthetic(spec)
    again = generate_synthetic(spec)
    pair = ds.pairs[0]
    counts = ds.series[pair].counts
    assert np.array_equal(counts, again.series[pair].counts)
    # seasonal structure survives exactly: every Monday 08:00 has the same count
    ts = ds.series[pair].timestamps
    hours = ts.astype("int64") % 24
    dows = (ts.astype("int64") // 24 + 3) % 7
    exam_days = (ts.astype("datetime64[D]") >= np.datetime64("2017-12-08"))
    sel = (hours == 8) & (dows == 0) & ~exam_days
    assert len(set(counts[sel])) == 1


def seasonal_residuals(dataset) -> np.ndarray:
    """Counts minus their per-(weekday, hour) empirical mean, stacked per pair."""
    pairs = dataset.pairs
    first = dataset.series[pairs[0]]
    hours = first.timestamps.astype("int64") % 24
    dows = (first.timestamps.astype("int64") // 24 + 3) % 7
    cells = dows * 24 + hours
    out = np.empty((len(first), len(pairs)))
    for j, pair in enumerate(pairs):
        values = dataset.series[pair].counts.astype(np.float64)
        resid = np.empty_like(values)
        for cell in np.unique(cells):
            sel = cells == cell
            resid[sel] = values[sel] - values[sel].mean()
        out[:, j] = resid
    return out


def test_zero_rho_residuals_uncorrelated():
    ds = generate_synthetic(flat_spec(rho=0.0, seed=2))
    resid = seasonal_residuals(ds)
    n = resid.shape[0]
    assert n >= 2000
    corr = np.corrcoef(resid, rowvar=False)
    off = corr[~np.eye(corr.shape[0], dtype=bool)]
    assert np.max(np.abs(off)) <= 0.1


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
def test_fit_correlation_recovers_rho(rho):
    ds = generate_synthetic(flat_spec(rho=rho, seed=3))
    history = {p: ds.series[p].counts[:2000].astype(float) for p in ds.pairs}
    model = fit_correlation(history)
    off = model.corr[~np.eye(model.dim, dtype=bool)]
    assert np.max(np.abs(off - rho)) <= 0.1


def test_counts_nonnegative_and_hourly():
    ds = generate_synthetic(SyntheticSpec(n_locations=3, end=date(2017, 11, 24), seed=8))
    for pair in ds.pairs:
        s = ds.series[pair]
        assert np.all(s.counts >= 0)
        assert np.all(np.diff(s.timestamps) == np.timedelta64(1, "h"))
        assert len(s) == 8 * 24


def test_exam_period_raises_demand():
    spec = SyntheticSpec(n_locations=2, end=date(2018, 1, 14), dispersion=0.0, exam_multiplier=2.0, seed=4)
    ds = generate_synthetic(spec)
    pair = ds.pairs[0]
    s = ds.series[pair]
    days = s.timestamps.astype("datetime64[D]")
    hours = s.timestamps.astype("int64") % 24
    dows = (s.timestamps.astype("int64") // 24 + 3) % 7
    sel = (hours == 8) & (dows == 0)
    inside = sel & (days >= np.datetime64("2017-12-08")) & (days <= np.datetime64("2017-12-22"))
    outside = sel & ~((days >= np.datetime64("2017-12-08")) & (days <= np.datetime64("2017-12-22")))
    assert s.counts[inside].mean() > 1.5 * s.counts[outside].mean()


def test_network_alignment():
    spec = SyntheticSpec(n_locations=4, end=date(2017, 11, 24), seed=0)
    ds = generate_synthetic(spec)
    inst = network_for(spec, ds)
    assert [n.label for n in inst.demand_nodes] == [l.label for l in ds.locations]
    assert inst.ride_time.shape == (4, 4)
    assert np.all(inst.ride_time > 0)
    assert inst.max_routes <= inst.fleet_size
