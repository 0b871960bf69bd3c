"""Smoke tests of the committed scripts: each ``main`` runs at tiny sizes."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def script_main(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def test_min_deviation_grid(capsys):
    assert script_main("min_deviation_grid")(["--rates", "0.1,0.2", "--lengths", "1e4,1e5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and lines[2].startswith("0.10") and lines[3].startswith("0.20")
