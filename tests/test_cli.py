import json
from pathlib import Path

import numpy as np
import pytest

from drtopt.boosting import GBoostHyper
from drtopt.cli import main
from drtopt.config import ConfigError, load_config


def run(*argv) -> int:
    return main([str(a) for a in argv])


def make_workspace(tmp_path, locations=3, seed=5, k=10, lags=("2018-01-08T08",), model=None):
    out = tmp_path / "ws"
    assert run("synth", "--out-dir", out, "--locations", locations, "--seed", seed) == 0
    cfg_path = out / "config.json"
    doc = json.loads(cfg_path.read_text())
    doc["optimize"] = {"k": k, "lags": list(lags)}
    if model:
        doc["model"] = model
    cfg_path.write_text(json.dumps(doc, indent=2, sort_keys=True))
    return out


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_synth_outputs(tmp_path):
    out = make_workspace(tmp_path)
    assert (out / "counts.csv").exists()
    assert (out / "network.json").exists()
    cfg = load_config(out / "config.json")
    assert cfg.seed == 5
    header = (out / "counts.csv").read_text().splitlines()[0]
    assert header == "timestamp,origin,destination,count"


def test_full_pipeline_smoke(tmp_path, capsys):
    out = make_workspace(tmp_path)
    assert run("train", "--config", out / "config.json") == 0
    model = out / "out" / "model.json"
    assert model.exists()
    assert run("predict", "--config", out / "config.json", "--model", model) == 0
    assert (out / "out" / "forecasts.csv").exists()
    assert run("evaluate", "--config", out / "config.json", "--model", model) == 0
    assert "Total MTL" in capsys.readouterr().out
    assert run("optimize", "--config", out / "config.json", "--model", model) == 0
    assert (out / "out" / "scenario_2018-01-08T08.json").exists()
    assert (out / "out" / "correlation.csv").exists()
    assert run("pipeline", "--config", out / "config.json", "--model", model) == 0
    assert (out / "out" / "comparison.csv").exists()
    assert (out / "out" / "comparison.txt").exists()


def test_rerun_is_byte_identical(tmp_path):
    out = make_workspace(tmp_path)
    cfg = out / "config.json"
    assert run("train", "--config", cfg) == 0
    model = out / "out" / "model.json"
    assert run("predict", "--config", cfg, "--model", model) == 0
    assert run("pipeline", "--config", cfg, "--model", model) == 0
    first = tree_bytes(out / "out")

    assert run("train", "--config", cfg) == 0
    assert run("predict", "--config", cfg, "--model", model) == 0
    assert run("pipeline", "--config", cfg, "--model", model) == 0
    assert tree_bytes(out / "out") == first


def test_unknown_command_exits_nonzero(capsys):
    with pytest.raises(SystemExit):
        run("frobnicate")


def test_missing_config_reports_error(tmp_path):
    assert run("train", "--config", tmp_path / "nope.json") == 2


def test_evaluate_rejects_levels_the_model_lacks(tmp_path, capsys, caplog):
    out = make_workspace(tmp_path)
    cfg_path = out / "config.json"
    assert run("train", "--config", cfg_path) == 0
    model = out / "out" / "model.json"
    doc = json.loads(cfg_path.read_text())
    doc["quantiles"] = [0.05, 0.5, 0.95]  # a subset of the trained levels scores
    cfg_path.write_text(json.dumps(doc))
    assert run("evaluate", "--config", cfg_path, "--model", model) == 0
    assert "Total MTL" in capsys.readouterr().out
    doc["quantiles"] = [0.1, 0.5, 0.9]
    cfg_path.write_text(json.dumps(doc))
    caplog.clear()
    assert run("evaluate", "--config", cfg_path, "--model", model) == 2
    assert "levels [0.1, 0.9] are not in model" in caplog.text
    assert str(model) in caplog.text


def test_optimize_prepares_the_instance_once(tmp_path, monkeypatch):
    from drtopt import cli, pipeline

    calls = []

    def counting(original):
        def wrapper(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(cli, "prepare_instance", counting(cli.prepare_instance))
    monkeypatch.setattr(pipeline, "prepare_instance", counting(pipeline.prepare_instance))
    lags = ("2018-01-08T08", "2018-01-08T09", "2018-01-08T10")
    out = make_workspace(tmp_path, locations=2, k=5, lags=lags)
    assert run("train", "--config", out / "config.json") == 0
    assert run("optimize", "--config", out / "config.json", "--model", out / "out" / "model.json") == 0
    assert all((out / "out" / f"scenario_{t}.json").exists() for t in lags)
    assert len(calls) == 1


def test_config_validation_paths(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"seed": "tomorrow", "data": {"counts_csv": "x.csv"}}))
    with pytest.raises(ConfigError, match="config.seed"):
        load_config(bad)
    bad.write_text(json.dumps({"seed": 1}))
    with pytest.raises(ConfigError, match="config.data"):
        load_config(bad)
    bad.write_text(json.dumps({"seed": 1, "data": {"counts_csv": "x"}, "model": {"family": "magic"}}))
    with pytest.raises(ConfigError, match="config.model"):
        load_config(bad)
    for model, path in (
        ({"family": "gboost", "gboost": {"max_depth": 9}}, r"config\.model\.gboost:"),
        ({"family": "gboost", "gboost": [3]}, r"config\.model\.gboost:"),
        ({"family": "gboost", "gboost_grid": [{"n_trees": 5}, {"learning_rate": 2}]}, r"config\.model\.gboost_grid\[1\]"),
        ({"family": "gboost", "gboost_grid": [{"n_trees": 5}, "fast"]}, r"config\.model\.gboost_grid\[1\]"),
        ({"ar_order": -1}, r"config\.model\.ar_order: must be >= 0"),
        ({"ar_order": 2.5}, r"config\.model\.ar_order: not an integer: 2\.5"),
        ({"cross_lags": True, "cross_order": -2}, r"config\.model\.cross_order: must be >= 0"),
        ({"family": "gboost", "gboost": {"max_depth": 2.7}}, r"config\.model\.gboost\.max_depth: not an integer: 2\.7"),
        ({"family": "gboost", "gboost": {"n_trees": 10.9}}, r"config\.model\.gboost\.n_trees: not an integer: 10\.9"),
        ({"family": "gboost", "gboost": {"learning_rate": "fast"}}, r"config\.model\.gboost\.learning_rate: not a number: 'fast'"),
        ({"family": "gboost", "gboost": {"max_depth": -1}}, r"config\.model\.gboost\.max_depth: must be >= 0"),
        ({"family": "gboost", "gboost_grid": [{"n_trees": 5}, {"n_trees": 10.9}]}, r"config\.model\.gboost_grid\[1\]\.n_trees: not an integer: 10\.9"),
        ({"family": "gboost", "gboost_grid": [{"n_trees": 0}]}, r"config\.model\.gboost_grid\[0\]\.n_trees: must be >= 1"),
        ({"family": "gboost", "gboost_grid": [{"max_depth": "deep"}]}, r"config\.model\.gboost_grid\[0\]\.max_depth: not an integer: 'deep'"),
    ):
        bad.write_text(json.dumps({"seed": 1, "data": {"counts_csv": "x"}, "model": model}))
        with pytest.raises(ConfigError, match=path):
            load_config(bad)
    for extra, path in (
        ({"optimize": {"k": 0}}, r"config\.optimize\.k: must be >= 1"),
        ({"optimize": {"k": "abc"}}, r"config\.optimize\.k: not an integer: 'abc'"),
        ({"optimize": {"lags": ["2018-01-08T08", "2018-01-08T99"]}}, r"config\.optimize\.lags\[1\]: not an ISO hour"),
        ({"optimize": {"lags": [2018]}}, r"config\.optimize\.lags\[0\]: not an ISO hour"),
        ({"copula": {"min_lags": 0}}, r"config\.copula\.min_lags: must be >= 2"),
        ({"copula": {"min_lags": -5}}, r"config\.copula\.min_lags: must be >= 2"),
        ({"copula": {"min_lags": "many"}}, r"config\.copula\.min_lags: not an integer"),
        ({"threads": 0}, r"config\.threads: must be >= 1"),
        ({"threads": 1.9}, r"config\.threads: not an integer: 1\.9"),
        ({"optimize": {"k": 2.7}}, r"config\.optimize\.k: not an integer: 2\.7"),
        ({"copula": {"min_lags": 30.5}}, r"config\.copula\.min_lags: not an integer: 30\.5"),
        ({"quantiles": ["a"]}, r"config\.quantiles\[0\]: not a number: 'a'"),
        ({"quantiles": [0.25, None]}, r"config\.quantiles\[1\]: not a number: None"),
        ({"quantiles": 0.5}, r"config\.quantiles: expected a list of levels, got 0\.5"),
    ):
        bad.write_text(json.dumps({"seed": 1, "data": {"counts_csv": "x"}, **extra}))
        with pytest.raises(ConfigError, match=path):
            load_config(bad)
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(bad)
    # the calendar-only model (no own lags) stays valid
    bad.write_text(json.dumps({"seed": 1, "data": {"counts_csv": "x"}, "model": {"ar_order": 0}}))
    assert load_config(bad).model.ar_order == 0
    # integral numbers stay valid hyperparameters
    model = {"family": "gboost", "gboost": {"learning_rate": 1, "max_depth": 2.0, "n_trees": 10}}
    bad.write_text(json.dumps({"seed": 1, "data": {"counts_csv": "x"}, "model": model}))
    assert load_config(bad).model.gboost == GBoostHyper(1.0, 2, 10)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "drtopt" in out and "schema" in out


def test_gboost_model_via_cli(tmp_path):
    model_doc = {
        "family": "gboost",
        "scope": "per_pair",
        "gboost": {"learning_rate": 0.3, "max_depth": 2, "n_trees": 5},
    }
    out = make_workspace(tmp_path, locations=2, model=model_doc)
    assert run("train", "--config", out / "config.json") == 0
    doc = json.loads((out / "out" / "model.json").read_text())
    assert doc["spec"]["family"] == "gboost"


def test_gboost_grid_via_cli(tmp_path):
    model_doc = {
        "family": "gboost",
        "gboost_grid": [
            {"learning_rate": 0.3, "max_depth": 1, "n_trees": 5},
            {"learning_rate": 1e-8, "max_depth": 1, "n_trees": 5},
        ],
    }
    out = make_workspace(tmp_path, locations=2, model=model_doc)
    assert run("train", "--config", out / "config.json") == 0
    doc = json.loads((out / "out" / "model.json").read_text())
    assert doc["spec"]["gboost"]["learning_rate"] == 0.3  # tuned point, not default


def test_grid_rejected_for_linear_family(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "seed": 1,
        "data": {"counts_csv": "x.csv"},
        "model": {"family": "linear", "gboost_grid": [{"learning_rate": 0.1}]},
    }))
    with pytest.raises(ConfigError, match="gboost_grid"):
        load_config(bad)


def test_optimize_dump_samples(tmp_path):
    out = make_workspace(tmp_path, locations=2, k=7)
    cfg = out / "config.json"
    assert run("train", "--config", cfg) == 0
    model = out / "out" / "model.json"
    assert run("optimize", "--config", cfg, "--model", model, "--dump-samples", "--threads", "2") == 0
    samples = out / "out" / "samples_2018-01-08T08.csv"
    lines = samples.read_text().splitlines()
    assert len(lines) == 8  # header + k rows
    assert lines[0].startswith("sample,")


def test_emitted_csvs_reload(tmp_path):
    from drtopt.data import load_od_counts
    from drtopt.forecasting import forecasts_from_csv
    from drtopt.copula import import_correlation

    out = make_workspace(tmp_path)
    cfg = out / "config.json"
    assert run("train", "--config", cfg) == 0
    model = out / "out" / "model.json"
    assert run("predict", "--config", cfg, "--model", model) == 0
    assert run("optimize", "--config", cfg, "--model", model) == 0

    dataset = load_od_counts(out / "counts.csv")
    assert len(dataset.pairs) == 6
    labels, forecasts = forecasts_from_csv(out / "out" / "forecasts.csv")
    assert labels == ["g0", "g1", "g2"]
    header, corr = import_correlation(out / "out" / "correlation.csv")
    assert corr.shape == (6, 6)
    assert np.allclose(np.diag(corr), 1.0)
