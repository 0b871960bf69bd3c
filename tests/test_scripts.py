"""Smoke tests of the committed scripts: each ``main`` runs at tiny sizes, and
every trials CSV it writes reads back."""

import importlib.util
import json
from pathlib import Path

import pytest

from mutrate.harness import read_trials_csv

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def script_main(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


@pytest.mark.parametrize(
    "argv, trials",
    [
        # the four whole-sequence estimators, two rates, two trials each
        (["--p", "0.1,0.2", "--length", "3000", "-k", "6", "--subset-size", "8", "--trials", "2"], 16),
        (["--mode", "seq", "--p", "0.1", "--length", "3000", "-k", "12", "--read-len", "100",
          "--coverage", "5", "--trials", "2"], 4),
    ],
)
def test_rate_sweep(tmp_path, capsys, argv, trials):
    csv_path, json_path = tmp_path / "t.csv", tmp_path / "s.json"
    assert script_main("rate_sweep")([*argv, "--out-csv", str(csv_path), "--out-json", str(json_path)]) == 0
    assert f"wrote {trials} trial records" in capsys.readouterr().out
    records = read_trials_csv(csv_path)
    assert len(records) == trials
    assert json.loads(json_path.read_text())["num_trials"] == trials


def test_base_deviation_sweep(tmp_path, capsys):
    csv_path, json_path = tmp_path / "t.csv", tmp_path / "s.json"
    argv = ["--fractions", "0.3,0.4", "--lengths", "2000", "--coverage", "5", "--read-len", "100",
            "--trials", "2", "--out-csv", str(csv_path), "--out-json", str(json_path)]
    assert script_main("base_deviation_sweep")(argv) == 0
    assert "wrote 4 trial records" in capsys.readouterr().out
    assert len(read_trials_csv(csv_path)) == 4
    # the summary holds the final grid point only
    assert json.loads(json_path.read_text())["num_trials"] == 2


def test_min_deviation_grid(capsys):
    assert script_main("min_deviation_grid")(["--rates", "0.1,0.2", "--lengths", "1e4,1e5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and lines[2].startswith("0.10") and lines[3].startswith("0.20")
