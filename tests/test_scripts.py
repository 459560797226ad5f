"""The demo scripts run end to end in-process and print what they promise;
the benchmark self-test passes against this tree."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, expected, forbidden", [
    ("straighten_demo", ["resolution chosen: 4 (grid sampled at 4)", "linearize             32     0",
                         "all checks passed"], "FAILURES"),
    ("fk_report", [" 3  3        162   0.577350       24     48      True"], "False"),
    ("square_pipeline", ["== vr filtration ==", "  H1: [1.000000, 1.414214)",
                         "== cech filtration ==", "  betti at r=1.1: b0=1 b1=1"], "nan"),
])
def test_script_main_runs(name, expected, forbidden, tmp_path, monkeypatch, capsys):
    module = _load(name)
    if hasattr(module, "OUT"):
        monkeypatch.setattr(module, "OUT", tmp_path)      # plots go to a scratch dir
    module.main()
    out = capsys.readouterr().out
    for line in expected:
        assert line in out
    assert forbidden not in out


def test_benchmark_selftest_passes():
    # the benchmark wraps vkit functions by name; a renamed one fails here
    run = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
