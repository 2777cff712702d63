"""Import footprint: scipy is loaded only by a command that computes a p-value.

rdtrial.stats imports its distribution functions from scipy.special inside
the functions that call them (the chi-square tail and gate decision, the KS
test), and the CLI reads scipy's version only when it writes rddo's
manifest. So a fresh ``import rdtrial`` or ``import rdtrial.cli`` loads no
scipy module, nor does a ``learn``, ``synth``, ``infer``, ``threshold`` or
``discretize`` run; an ``rddo`` run loads scipy.special at its first
window-gate decision and never scipy.stats. Each case
runs in a fresh interpreter, since this one has loaded scipy already.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rdtrial
from rdtrial.cohort import write_cohort_csv
from rdtrial.modelio import network_to_dict, save_model
from rdtrial.synth import make_confounded_scenario, sample_cohort

SRC = Path(rdtrial.__file__).resolve().parent.parent

_PROBE = """
import json, sys
{run}
import rdtrial
print(json.dumps({{
    "file": rdtrial.__file__,
    "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
}}))
"""


def _scipy_modules_after(run: str) -> list[str]:
    """The scipy modules loaded once ``run`` has run in a fresh interpreter
    that imports rdtrial from this source tree."""
    paths = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    done = subprocess.run([sys.executable, "-c", _PROBE.format(run=run)],
                          env=env, capture_output=True, text=True, check=True)
    found = json.loads(done.stdout.splitlines()[-1])
    assert Path(found["file"]).resolve().parent.parent == SRC
    return found["scipy"]


def _dispatch(argv: list[str]) -> str:
    return f"from rdtrial.cli import dispatch\nassert dispatch({argv!r}) == 0"


@pytest.mark.parametrize("module", ["rdtrial", "rdtrial.cli"])
def test_fresh_import_leaves_scipy_unloaded(module):
    assert _scipy_modules_after(f"import {module}") == []


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("inputs")
    spec = make_confounded_scenario(bias=0.12, n=1200, seed=1)
    save_model(spec.network, root / "model.json")
    write_cohort_csv(sample_cohort(spec), root / "cohort.csv")
    structure = network_to_dict(spec.network)
    del structure["cpts"]
    (root / "structure.json").write_text(json.dumps(structure), encoding="utf-8")
    (root / "numeric.csv").write_text("v,y\n1,0\n2,0\n3,0\n10,1\n11,1\n12,1\n", encoding="utf-8")
    (root / "scores.txt").write_text("0.2\n0.4\n0.6\n0.8\n", encoding="utf-8")
    (root / "labels.txt").write_text("0\n0\n1\n1\n", encoding="utf-8")
    return root


@pytest.mark.parametrize("command", ["learn", "synth", "infer", "threshold", "discretize"])
def test_commands_without_a_p_value_leave_scipy_unloaded(inputs, tmp_path, command):
    argv = {
        "learn": ["learn", "--structure", str(inputs / "structure.json"),
                  "--cohort", str(inputs / "cohort.csv"), "--out", str(tmp_path / "fitted.json"),
                  "--alpha", "1", "--max-iter", "5"],
        "synth": ["synth", "--n", "300", "--seed", "1", "--out", str(tmp_path / "synth")],
        "infer": ["infer", "--model", str(inputs / "model.json"), "--target", "outcome@1",
                  "--evidence", "treat@0=yes"],
        "threshold": ["threshold", "--scores", str(inputs / "scores.txt"),
                      "--labels", str(inputs / "labels.txt")],
        "discretize": ["discretize", "--cohort", str(inputs / "numeric.csv"), "--columns", "v",
                       "--outcome", "y", "--positive", "1", "--out", str(tmp_path / "binned.csv")],
    }[command]
    assert _scipy_modules_after(_dispatch(argv)) == []


def test_rddo_loads_scipy_special_and_never_scipy_stats(inputs, tmp_path):
    loaded = _scipy_modules_after(_dispatch([
        "rddo", "--model", str(inputs / "model.json"), "--cohort", str(inputs / "cohort.csv"),
        "--out", str(tmp_path / "out"), "--seed", "3"]))
    assert "scipy.special" in loaded
    assert [m for m in loaded if m == "scipy.stats" or m.startswith("scipy.stats.")] == []
    manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text(encoding="utf-8"))
    assert manifest["versions"]["scipy"]
