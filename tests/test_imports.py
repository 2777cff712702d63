"""Import footprint: no rdtrial module loads scipy.stats.

The package takes its two distribution tails from scipy.special; scipy.stats
would add most of every command's import time and memory.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rdtrial

SRC = Path(rdtrial.__file__).resolve().parent.parent

_PROBE = """
import json, sys
import {module}
import rdtrial
print(json.dumps({{
    "file": rdtrial.__file__,
    "stats": sorted(m for m in sys.modules if m == "scipy.stats" or m.startswith("scipy.stats.")),
}}))
"""


@pytest.mark.parametrize("module", ["rdtrial", "rdtrial.cli"])
def test_fresh_import_leaves_scipy_stats_unloaded(module):
    paths = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    done = subprocess.run([sys.executable, "-c", _PROBE.format(module=module)],
                          env=env, capture_output=True, text=True, check=True)
    found = json.loads(done.stdout)
    assert Path(found["file"]).resolve().parent.parent == SRC
    assert found["stats"] == []
