"""Golden outputs: the benchmark workloads' result files stay as committed.

Every case regenerates its inputs at test time through bench/workloads.py
and runs the workload's one CLI call; only the outputs are committed, under
tests/golden/<case>/. run_manifest.json is left out: it holds paths, hashes
and library versions. Where numpy's version equals the one recorded in
tests/golden/numpy_version, the files must match byte for byte; on other
numpy builds every float must match within 1e-12 (relative above 1) and
every other cell or value exactly.

A golden file changes only in a change whose CHANGES.md names the cells
that moved and why. Regenerate them with ``python tests/test_golden.py``.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from rdtrial.cli import dispatch

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(ROOT / "bench"))
try:
    import workloads
finally:
    sys.path.remove(str(ROOT / "bench"))

RDDO_FILES = ("out/effects.csv", "out/windows.csv", "out/report.json")
# case -> (workload, seed, SCAN_N override, compared output files)
CASES = {
    **{f"{name}-{seed}": (name, seed, None, RDDO_FILES)
       for name in ("scan-fine", "panel-effects") for seed in (1, 2, 3)},
    **{f"em-latent-{seed}": ("em-latent", seed, None, ("fitted.json",)) for seed in (1, 2, 3)},
    "scan-fine-50k": ("scan-fine", 1, 50_000, RDDO_FILES),
}


def _run_case(case: str, d: Path) -> dict[str, bytes]:
    name, seed, scan_n, files = CASES[case]
    wl = workloads.WORKLOADS[name]
    default_n = workloads.SCAN_N
    workloads.SCAN_N = scan_n or default_n
    try:
        wl.setup(d, seed)
    finally:
        workloads.SCAN_N = default_n
    assert dispatch(wl.argv(d)) == 0
    return {f: (d / f).read_bytes() for f in files}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


def _same_json(got, want, where: str) -> None:
    assert type(got) is type(want), f"{where}: {got!r} != {want!r}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{where}: keys {list(got)} != {list(want)}"
        for key in want:
            _same_json(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            _same_json(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert _close(got, want), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def _is_float_cell(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return any(c in cell for c in ".eE")


def _same_csv(got: str, want: str, where: str) -> None:
    got_rows = list(csv.reader(io.StringIO(got)))
    want_rows = list(csv.reader(io.StringIO(want)))
    assert len(got_rows) == len(want_rows), f"{where}: {len(got_rows)} != {len(want_rows)} rows"
    for i, (g, w) in enumerate(zip(got_rows, want_rows)):
        assert len(g) == len(w), f"{where} row {i}: {g} != {w}"
        for a, b in zip(g, w):
            same = a == b or (_is_float_cell(a) and _is_float_cell(b) and _close(float(a), float(b)))
            assert same, f"{where} row {i}: {g} != {w}"


def _recorded_numpy() -> str:
    return (GOLDEN / "numpy_version").read_text(encoding="utf-8").strip()


@pytest.mark.parametrize("case", list(CASES))
def test_outputs_match_golden(case, tmp_path, capsys):
    outputs = _run_case(case, tmp_path)
    capsys.readouterr()
    exact = np.__version__ == _recorded_numpy()
    for name, got in outputs.items():
        want = (GOLDEN / case / Path(name).name).read_bytes()
        where = f"{case}/{Path(name).name}"
        if exact:
            assert got == want, f"{where} differs from the golden file (numpy {np.__version__})"
        elif name.endswith(".json"):
            _same_json(json.loads(got), json.loads(want), where)
        else:
            _same_csv(got.decode("utf-8"), want.decode("utf-8"), where)


def _regenerate() -> None:
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            outputs = _run_case(case, Path(tmp))
        (GOLDEN / case).mkdir(parents=True, exist_ok=True)
        for name, data in outputs.items():
            (GOLDEN / case / Path(name).name).write_bytes(data)
    (GOLDEN / "numpy_version").write_text(np.__version__ + "\n", encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
