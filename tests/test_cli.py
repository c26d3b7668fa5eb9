import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import drtopt
from drtopt.boosting import GBoostHyper
from drtopt.cli import main
from drtopt.config import ConfigError, load_config
from drtopt.data import load_od_counts


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


def test_optimize_and_pipeline_sample_each_hour_alike(tmp_path):
    hours = ("2018-01-08T08", "2018-01-08T12", "2018-01-09T17")
    out = make_workspace(tmp_path, k=20, lags=hours)
    cfg, model = out / "config.json", out / "out" / "model.json"
    assert run("train", "--config", cfg) == 0
    assert run("optimize", "--config", cfg, "--model", model) == 0
    assert run("pipeline", "--config", cfg, "--model", model) == 0
    with open(out / "out" / "comparison.csv", newline="", encoding="utf-8") as fh:
        sampled = {row["lag"]: row for row in csv.DictReader(fh) if row["strategy"] == "P"}
    assert sorted(sampled) == sorted(hours)
    for hour in hours:
        doc = json.loads((out / "out" / f"scenario_{hour}.json").read_text())
        chosen = [{"stops": a["stops"], "buses": a["buses"]} for a in doc["chosen"]["allocation"]]
        count = next(h["count"] for h in doc["histogram"] if h["allocation"] == chosen)
        got = (doc["chosen"]["itinerary"], str(count), f"{doc['mean_time_savings']:.6f}")
        assert got == (sampled[hour]["itinerary"], sampled[hour]["occurrences"], sampled[hour]["mean_time_savings"])


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


@pytest.mark.parametrize("flag, name", [("--scale", "base_scale"), ("--dispersion", "dispersion")])
@pytest.mark.parametrize("value", ["nan", "inf", "-5"])
def test_synth_rejects_a_non_finite_or_negative_scale_naming_the_field(tmp_path, caplog, flag, name, value):
    assert run("synth", "--out-dir", tmp_path / "ws", flag, value) == 2
    assert f"{name}={float(value)} must be finite and non-negative" in caplog.text
    assert not (tmp_path / "ws" / "counts.csv").exists()


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
    # the config's levels are all trained, but not the band that ICP and MIL score
    doc["quantiles"] = [0.25, 0.5, 0.75]
    cfg_path.write_text(json.dumps(doc))
    narrow = out / "out" / "narrow.json"
    assert run("train", "--config", cfg_path, "--model-out", narrow) == 0
    caplog.clear()
    assert run("evaluate", "--config", cfg_path, "--model", narrow) == 2
    assert f"model {narrow} lacks the band levels [0.05, 0.95] that ICP and MIL score" in caplog.text


@pytest.mark.parametrize(
    "levels, missing, strategy",
    [([0.25, 0.5, 0.75], 0.95, "upper-quantile (R)"), ([0.05, 0.9, 0.95], 0.5, "median (M)")],
)
def test_pipeline_rejects_a_model_without_a_point_strategy_level_before_any_solve(
    tmp_path, caplog, monkeypatch, levels, missing, strategy
):
    from drtopt import pipeline

    out = make_workspace(tmp_path, locations=2)
    cfg_path = out / "config.json"
    assert run("train", "--config", cfg_path) == 0
    doc = json.loads(cfg_path.read_text())
    doc["quantiles"] = levels
    cfg_path.write_text(json.dumps(doc))
    lacking = out / "out" / "lacking.json"
    assert run("train", "--config", cfg_path, "--model-out", lacking) == 0

    def solve(*args):
        raise AssertionError("a solve ran before the models' levels were checked")

    monkeypatch.setattr(pipeline, "solve_instance", solve)
    caplog.clear()
    assert run("pipeline", "--config", cfg_path, "--model", out / "out" / "model.json", "--model", lacking) == 2
    assert f"model {lacking} lacks level {missing}, which the {strategy} strategy solves at" in caplog.text


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


def test_optimize_rejects_a_demand_node_that_matches_no_data_location(tmp_path, caplog):
    out = make_workspace(tmp_path, locations=4, seed=7)
    network = json.loads((out / "network.json").read_text())
    node = dict(network["locations"][-1], id=len(network["locations"]), label="Z-nowhere")
    network["locations"].append(node)
    (out / "network.json").write_text(json.dumps(network))
    assert run("train", "--config", out / "config.json") == 0
    caplog.clear()
    assert run("optimize", "--config", out / "config.json", "--model", out / "out" / "model.json") == 2
    assert "network demand nodes ['Z-nowhere'] match no data location" in caplog.text
    assert not (out / "out" / "scenario_2018-01-08T08.json").exists()


@pytest.mark.parametrize("family", ["linear", "gboost", "hp"])
def test_train_on_a_counts_csv_without_records_says_it_holds_no_pair(tmp_path, caplog, family):
    (tmp_path / "counts.csv").write_text("timestamp,origin,destination,count\n")
    doc = {"seed": 7, "data": {"counts_csv": "counts.csv"}, "model": {"family": family}}
    (tmp_path / "config.json").write_text(json.dumps(doc))
    assert load_od_counts(tmp_path / "counts.csv").pairs == ()
    assert run("train", "--config", tmp_path / "config.json") == 2
    assert "the counts hold no OD pair" in caplog.text
    assert not (tmp_path / "out" / "model.json").exists()


@pytest.mark.parametrize("command", ["predict", "evaluate"])
@pytest.mark.parametrize("family", ["linear", "gboost", "hp"])
def test_counts_without_a_test_hour_fail_naming_the_test_range(tmp_path, caplog, family, command):
    model_doc = {"family": family, "gboost": {"learning_rate": 0.3, "max_depth": 2, "n_trees": 3}}
    out = make_workspace(tmp_path, locations=2, lags=(), model=model_doc)
    header, *records = (out / "counts.csv").read_text().splitlines()
    (out / "counts.csv").write_text("\n".join([header, *(r for r in records if r < "2018-01-08")]) + "\n")
    assert run("train", "--config", out / "config.json") == 0
    caplog.clear()
    assert run(command, "--config", out / "config.json", "--model", out / "out" / "model.json") == 2
    assert "the counts hold no unmasked hour of the test range 2018-01-08..2018-01-14" in caplog.text
    assert sorted(p.name for p in (out / "out").iterdir()) == ["model.json"]


def test_optimize_on_counts_with_a_new_location_writes_the_same_scenarios(tmp_path):
    # a location sorting before every other shifts the counts' ids by one:
    # the model's and the network's pairs are matched to the counts by label
    out = make_workspace(tmp_path, lags=("2018-01-08T08", "2018-01-08T12"))
    cfg, model = out / "config.json", out / "out" / "model.json"
    assert run("train", "--config", cfg) == 0
    assert run("optimize", "--config", cfg, "--model", model, "--dump-samples") == 0
    assert run("pipeline", "--config", cfg, "--model", model) == 0
    first = tree_bytes(out / "out")
    with open(out / "counts.csv", "a", encoding="utf-8") as fh:
        fh.write("2017-11-17T08,a-new,g0,1\n2017-11-17T09,a-new,g0,2\n")
    assert load_od_counts(out / "counts.csv").labels[:2] == ["a-new", "g0"]
    assert run("optimize", "--config", cfg, "--model", model, "--dump-samples") == 0
    assert run("pipeline", "--config", cfg, "--model", model) == 0
    assert sorted(p for p in first if p.startswith("scenario_")) == ["scenario_2018-01-08T08.json", "scenario_2018-01-08T12.json"]
    assert tree_bytes(out / "out") == first


SPLIT_DOC = {"train": ["2017-11-17", "2018-01-07"], "test": ["2018-01-08", "2018-01-14"]}


REVERSED = ["2017-12-22", "2017-12-08"]


@pytest.mark.parametrize("extra, path", [
    ({"split": {**SPLIT_DOC, "train": REVERSED}}, "config.split.train"),
    ({"split": {**SPLIT_DOC, "test": REVERSED}}, "config.split.test"),
    ({"split": {**SPLIT_DOC, "masked_date_ranges": [["2017-12-23", "2018-01-01"], REVERSED]}},
     "config.split.masked_date_ranges[1]"),
    ({"model": {"exam_period": REVERSED}}, "config.model.exam_period"),
])
def test_a_reversed_date_range_is_rejected_naming_the_field(tmp_path, extra, path):
    (tmp_path / "config.json").write_text(json.dumps({"seed": 1, "data": {"counts_csv": "x"}, **extra}))
    with pytest.raises(ConfigError, match=re.escape(f"{path}: start 2017-12-22 is after end 2017-12-08")):
        load_config(tmp_path / "config.json")


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
        ({"family": "hp", "seasonal_normalize": True}, r"config\.model: historical percentiles are fit without seasonal normalization"),
        ({"cross_lags": "false"}, r"config\.model\.cross_lags: expected true or false, got 'false'"),
        ({"ar_order": True}, r"config\.model\.ar_order: not an integer: True"),
        ({"family": "gboost", "gboost": {"learning_rate": True}}, r"config\.model\.gboost\.learning_rate: not a number: True"),
    ):
        bad.write_text(json.dumps({"seed": 1, "data": {"counts_csv": "x"}, "model": model}))
        with pytest.raises(ConfigError, match=path):
            load_config(bad)
    for extra, path in (
        ({"optimize": {"k": 0}}, r"config\.optimize\.k: must be >= 1"),
        ({"optimize": {"k": True}}, r"config\.optimize\.k: not an integer: True"),
        ({"seed": True}, r"config\.seed: must be an integer"),
        ({"optimize": {"k": "abc"}}, r"config\.optimize\.k: not an integer: 'abc'"),
        ({"optimize": {"lags": ["2018-01-08T08", "2018-01-08T99"]}}, r"config\.optimize\.lags\[1\]: not an ISO hour"),
        ({"optimize": {"lags": [2018]}}, r"config\.optimize\.lags\[0\]: not an ISO hour"),
        ({"optimize": {"lags": ["NaT"]}}, r"config\.optimize\.lags\[0\]: not an ISO hour"),
        ({"optimize": {"lags": ["2018-01-08T08:30"]}}, r"config\.optimize\.lags\[0\]: not an ISO hour"),
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
        ({"split": []}, r"config\.split: expected an object, got \[\]"),
        ({"optimize": []}, r"config\.optimize: expected an object, got \[\]"),
        ({"copula": []}, r"config\.copula: expected an object, got \[\]"),
        ({"model": "x"}, r"config\.model: expected an object, got 'x'"),
        ({"model": []}, r"config\.model: expected an object, got \[\]"),
        ({"split": {**SPLIT_DOC, "masked_hours": 5}}, r"config\.split\.masked_hours: expected a list, got 5"),
        ({"split": {**SPLIT_DOC, "masked_date_ranges": [["2017-12-01"]]}},
         r"config\.split\.masked_date_ranges\[0\]: expected \[start, end\]"),
        ({"output_dir": 5}, r"config\.output_dir: expected a string, got 5"),
        ({"network": 5}, r"config\.network: expected a string, got 5"),
        ({"seed": -1}, r"config\.seed: must be >= 0"),
        ({"split": {**SPLIT_DOC, "masked_hours": [3, True]}}, r"config\.split\.masked_hours: hours must be integers in 0\.\.23"),
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


@pytest.mark.parametrize("node, message", [
    ({"feature": 0, "left": {"value": 0.0}, "right": {"value": 0.0}}, "threshold: missing required field"),
    ([0.5], "expected an object, got [0.5]"),
])
def test_predict_names_a_malformed_tree_node_and_exits_2(tmp_path, caplog, node, message):
    model_doc = {"family": "gboost", "gboost": {"learning_rate": 0.3, "max_depth": 2, "n_trees": 3}}
    out = make_workspace(tmp_path, locations=2, model=model_doc)
    assert run("train", "--config", out / "config.json") == 0
    model = out / "out" / "model.json"
    doc = json.loads(model.read_text())
    name = next(iter(doc["models"]))
    doc["models"][name]["trees"]["0.05"][0] = node
    model.write_text(json.dumps(doc))
    caplog.clear()
    assert run("predict", "--config", out / "config.json", "--model", model) == 2
    assert f"model.models.{name}.trees.0.05[0]" in caplog.text and message in caplog.text


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
    assert run("optimize", "--config", cfg, "--model", model, "--dump-samples") == 0
    samples = out / "out" / "samples_2018-01-08T08.csv"
    lines = samples.read_text().splitlines()
    assert len(lines) == 8  # header + k rows
    assert lines[0].startswith("sample,")


def test_emitted_csvs_reload(tmp_path):
    from drtopt.data import load_od_counts, parse_hour

    out = make_workspace(tmp_path)
    cfg = out / "config.json"
    assert run("train", "--config", cfg) == 0
    model = out / "out" / "model.json"
    assert run("predict", "--config", cfg, "--model", model) == 0
    assert run("optimize", "--config", cfg, "--model", model) == 0

    dataset = load_od_counts(out / "counts.csv")
    assert len(dataset.pairs) == 6
    with open(out / "out" / "forecasts.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["timestamp", "origin", "destination", "q", "value"]
    for t, _, _, q, v in rows:  # every row parses
        parse_hour(t), float(q), float(v)
    assert sorted({o for _, o, *_ in rows} | {d for _, _, d, *_ in rows}) == ["g0", "g1", "g2"]
    with open(out / "out" / "correlation.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    corr = np.array(rows, dtype=np.float64)
    assert len(header) == 6 and corr.shape == (6, 6)
    assert np.allclose(np.diag(corr), 1.0)


def test_the_cli_imports_without_scipy_stats():
    src = str(Path(drtopt.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, drtopt.cli; print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'stats']))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True)
    assert out.stdout == "[]\n"


def test_the_copula_fit_rejects_train_series_at_different_hours():
    from types import SimpleNamespace

    from drtopt.cli import _fit_copula_mapped
    from drtopt.data import HOUR, ODCountSeries, campus_2017_split, pair_name, parse_hour
    from drtopt.synth import SyntheticSpec, generate_synthetic
    from reference_data import dataset_from_series

    dataset = generate_synthetic(SyntheticSpec(n_locations=3, seed=3))
    cfg = SimpleNamespace(split=campus_2017_split(), copula_min_lags=30)
    rows = range(len(dataset.pairs))
    assert _fit_copula_mapped(cfg, dataset, dataset.pairs, rows).pair_order == dataset.pairs
    # pair i lacks hour 10 + i of Nov 20: each keeps as many train hours as the others, at other hours
    series = {}
    for i, (pair, s) in enumerate(dataset.series.items()):
        keep = s.timestamps != parse_hour("2017-11-20T10") + i * HOUR
        series[pair] = ODCountSeries(pair, s.timestamps[keep], s.counts[keep])
    gappy = dataset_from_series(dataset.locations, series)
    first, second = (pair_name(p, gappy.labels) for p in gappy.pairs[:2])
    with pytest.raises(ValueError, match=f"pair {second} has 2017-11-20T10, pair {first} lacks it"):
        _fit_copula_mapped(cfg, gappy, gappy.pairs, rows)
