"""Smoke test of scripts/run_case_study.py, run in-process on a small season."""

import csv
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_case_study.py"


def load_script():
    spec = importlib.util.spec_from_file_location("run_case_study", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quick_case_study_writes_every_artifact(tmp_path, capsys):
    out = tmp_path / "case"
    argv = ["--quick", "--locations", "3", "--hours", "9", "10", "--out-dir", str(out)]
    assert load_script().main(argv) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "comparison.csv",
        "comparison.txt",
        "correlation.csv",
        "counts.csv",
        "evaluation_hp.csv",
        "evaluation_linear.csv",
        "model_hp.json",
        "model_linear.json",
        "network.json",
    ]
    with open(out / "comparison.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    cells = sorted({(r["lag"], r["model"]) for r in rows})
    assert cells == [
        ("2018-01-08T09", "hp"),
        ("2018-01-08T09", "linear"),
        ("2018-01-08T10", "hp"),
        ("2018-01-08T10", "linear"),
    ]
    assert [r["strategy"] for r in rows] == ["GT", "P", "M", "R"] * 4
    assert "comparing strategies over 2 lags with k=25 samples" in capsys.readouterr().out
