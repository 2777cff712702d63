"""Command-line coverage: exit codes, frozen CSV schemas, and byte-level
determinism of the emitted report files."""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import pytest

from rdtrial.cli import _PARSER, EFFECTS_HEADER, WINDOWS_HEADER, _build_parser, dispatch
from rdtrial.cohort import Cohort, write_cohort_csv
from rdtrial.modelio import load_model, save_model
from rdtrial.synth import confounded_triple, make_confounded_scenario, sample_cohort


def _write_scenario(tmp_path, n=1200, seed=1, bias=0.12):
    spec = make_confounded_scenario(bias=bias, n=n, seed=seed)
    model_path = tmp_path / "model.json"
    save_model(spec.network, model_path)
    cohort_path = tmp_path / "cohort.csv"
    write_cohort_csv(sample_cohort(spec), cohort_path)
    return spec, model_path, cohort_path


def _write_config(tmp_path, model_path, cohort_path, out_dir, **extra):
    doc = {
        "model": str(model_path),
        "cohort": str(cohort_path),
        "out": str(out_dir),
        "thresholds": {"1": 0.43},
        "split": None,
        "k_min": 200,
    }
    doc.update(extra)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# schema freeze
# ---------------------------------------------------------------------------

def test_csv_headers_are_frozen():
    assert EFFECTS_HEADER == [
        "variable", "t", "mode", "category", "n", "mean", "std",
        "ks_min_p", "significant", "rank",
    ]
    assert WINDOWS_HEADER == ["t", "status", "threshold", "k", "power"]


# ---------------------------------------------------------------------------
# dispatch plumbing
# ---------------------------------------------------------------------------

def test_no_command_prints_help(capsys):
    assert dispatch([]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_command_is_config_error(capsys):
    assert dispatch(["frobnicate"]) == 1
    assert "error:" in capsys.readouterr().err


def test_calls_in_one_process_behave_like_fresh_calls(tmp_path, capsys):
    # the parser is built once per process; parsing must leave no state in it
    scores = _write_lines(tmp_path / "s.txt", [0.1, 0.4, 0.6, 0.9])
    labels = _write_lines(tmp_path / "l.txt", [0, 0, 1, 1])
    threshold = ["threshold", "--scores", str(scores), "--labels", str(labels)]
    learn = _write_learn_inputs(tmp_path)
    assert dispatch(threshold) == 0
    first = capsys.readouterr().out
    # a usage error, then a valid call of another subcommand, then the first
    assert dispatch(["threshold", "--scores", str(scores)]) == 1
    assert "--labels" in capsys.readouterr().err
    assert dispatch(learn + ["--alpha", "1", "--seed", "7", "--max-iter", "3"]) == 0
    assert "iterations=" in capsys.readouterr().out
    assert dispatch(threshold) == 0
    assert capsys.readouterr().out == first
    # options given to an earlier call do not stay as defaults
    for argv in (learn, threshold, ["rddo", "--config", "x.json"], ["synth", "--out", "o"]):
        assert vars(_PARSER.parse_args(argv)) == vars(_build_parser().parse_args(argv))


def _missing_file_cases(tmp_path):
    """(argv, what, path named in the message) per input file a command opens."""
    _, model, cohort = _write_scenario(tmp_path, n=30)
    scores = _write_lines(tmp_path / "s.txt", [0.1, 0.9])
    ghost = str(tmp_path / "ghost")
    resolved = str(Path(ghost).resolve())
    learn = _write_learn_inputs(tmp_path)
    out = ["--out", str(tmp_path / "out")]
    return {
        "rddo-config": (["rddo", "--config", ghost], "config", ghost),
        "rddo-model": (["rddo", "--model", ghost, "--cohort", str(cohort), *out], "model", resolved),
        "rddo-cohort": (["rddo", "--model", str(model), "--cohort", ghost, *out], "cohort", resolved),
        "learn-structure": (["learn", "--structure", ghost, *learn[3:]], "structure", ghost),
        "learn-cohort": ([*learn[:3], "--cohort", ghost, *learn[5:]], "cohort", ghost),
        "infer-model": (["infer", "--model", ghost, "--target", "y"], "model", ghost),
        "threshold-scores": (["threshold", "--scores", ghost, "--labels", str(scores)], "scores", ghost),
        "threshold-labels": (["threshold", "--scores", str(scores), "--labels", ghost], "labels", ghost),
        "discretize-cohort": (["discretize", "--cohort", ghost, "--columns", "v", "--outcome", "y",
                               "--positive", "1", *out], "cohort", ghost),
        "synth-config": (["synth", "--config", ghost, *out], "config", ghost),
    }


@pytest.mark.parametrize("case", [
    "rddo-config", "rddo-model", "rddo-cohort", "learn-structure", "learn-cohort",
    "infer-model", "threshold-scores", "threshold-labels", "discretize-cohort", "synth-config",
])
def test_missing_input_file_exits_1_naming_it(tmp_path, capsys, case):
    argv, what, path = _missing_file_cases(tmp_path)[case]
    capsys.readouterr()
    assert dispatch(argv) == 1
    assert capsys.readouterr().err == f"error: {what} file not found: {path}\n"


def test_rddo_needs_config_or_paths(capsys):
    assert dispatch(["rddo", "--out", "x"]) == 1
    assert "--config" in capsys.readouterr().err


def test_rddo_rejects_bad_thread_count(tmp_path, capsys):
    _, model_path, cohort_path = _write_scenario(tmp_path, n=30)
    rc = dispatch([
        "rddo", "--model", str(model_path), "--cohort", str(cohort_path),
        "--out", str(tmp_path / "out"), "--threads", "0",
    ])
    assert rc == 1
    assert "threads" in capsys.readouterr().err


def test_rddo_missing_cohort_exits_1_with_path(tmp_path, capsys):
    _, model_path, _ = _write_scenario(tmp_path, n=30)
    missing = tmp_path / "nope.csv"
    rc = dispatch([
        "rddo", "--model", str(model_path), "--cohort", str(missing),
        "--out", str(tmp_path / "out"),
    ])
    assert rc == 1
    assert str(missing) in capsys.readouterr().err


def test_rddo_unknown_cohort_column_exits_2(tmp_path, capsys):
    spec, model_path, _ = _write_scenario(tmp_path, n=30)
    cohort = sample_cohort(spec)
    bad = Cohort(
        columns=cohort.columns[:-1] + ("intruder",),
        rows=cohort.rows,
        ids=cohort.ids,
    )
    cohort_path = tmp_path / "bad.csv"
    write_cohort_csv(bad, cohort_path)
    rc = dispatch([
        "rddo", "--model", str(model_path), "--cohort", str(cohort_path),
        "--out", str(tmp_path / "out"),
    ])
    assert rc == 2
    assert "intruder" in capsys.readouterr().err


def test_rddo_config_unknown_key_exits_1(tmp_path, capsys):
    _, model_path, cohort_path = _write_scenario(tmp_path, n=30)
    config_path = _write_config(
        tmp_path, model_path, cohort_path, tmp_path / "out", bogus=1
    )
    assert dispatch(["rddo", "--config", str(config_path)]) == 1
    assert "bogus" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# rddo end to end
# ---------------------------------------------------------------------------

def test_rddo_end_to_end_files_and_determinism(tmp_path, capsys):
    _, model_path, cohort_path = _write_scenario(tmp_path, n=1200, seed=1)
    out1 = tmp_path / "out1"
    config_path = _write_config(tmp_path, model_path, cohort_path, out1)

    assert dispatch(["rddo", "--config", str(config_path)]) == 0
    stdout = capsys.readouterr().out
    assert "best time point: t=1" in stdout
    for name in ("report.json", "effects.csv", "windows.csv", "run_manifest.json"):
        assert (out1 / name).exists()

    with (out1 / "effects.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == EFFECTS_HEADER
    assert len(rows) > 1

    with (out1 / "windows.csv").open(newline="") as fh:
        wrows = list(csv.reader(fh))
    assert wrows[0] == WINDOWS_HEADER
    assert wrows[1][0] == "1" and wrows[1][1] == "ok"

    # one CSV row per (table, category)
    report = json.loads((out1 / "report.json").read_text())
    n_cat_rows = sum(
        len(tb["categories"]) for tp in report["time_points"] for tb in tp["tables"]
    )
    assert len(rows) - 1 == n_cat_rows

    manifest = json.loads((out1 / "run_manifest.json").read_text())
    assert manifest["config_sha256"]
    assert manifest["versions"]["rdtrial"]
    assert manifest["versions"]["scipy"]
    # provenance: digests of the exact model and cohort bytes that were read
    assert manifest["inputs_sha256"] == {
        "model": hashlib.sha256(model_path.read_bytes()).hexdigest(),
        "cohort": hashlib.sha256(cohort_path.read_bytes()).hexdigest(),
    }

    # identical config, fresh directory: byte-identical effects
    out2 = tmp_path / "out2"
    assert dispatch(["rddo", "--config", str(config_path), "--out", str(out2)]) == 0
    # --threads is accepted and changes nothing
    out3 = tmp_path / "out3"
    assert dispatch([
        "rddo", "--config", str(config_path), "--out", str(out3), "--threads", "3",
    ]) == 0
    capsys.readouterr()
    base = (out1 / "effects.csv").read_bytes()
    assert (out2 / "effects.csv").read_bytes() == base
    assert (out3 / "effects.csv").read_bytes() == base
    assert (out2 / "windows.csv").read_bytes() == (out1 / "windows.csv").read_bytes()
    for out in (out2, out3):
        rerun = json.loads((out / "run_manifest.json").read_text())
        assert rerun["inputs_sha256"] == manifest["inputs_sha256"]


def test_rddo_no_window_still_writes_valid_files(tmp_path, capsys):
    _, model_path, cohort_path = _write_scenario(tmp_path, n=120, seed=3)
    out = tmp_path / "out"
    config_path = _write_config(tmp_path, model_path, cohort_path, out)
    assert dispatch(["rddo", "--config", str(config_path)]) == 0
    assert "no_random_window" in capsys.readouterr().out

    with (out / "effects.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [EFFECTS_HEADER]
    with (out / "windows.csv").open(newline="") as fh:
        wrows = list(csv.reader(fh))
    assert wrows[0] == WINDOWS_HEADER
    assert wrows[1][1] == "no_random_window"
    report = json.loads((out / "report.json").read_text())
    assert report["best_time_point"] is None
    assert report["time_points"][0]["reason"]


# ---------------------------------------------------------------------------
# infer
# ---------------------------------------------------------------------------

def test_infer_posterior_and_do(tmp_path, capsys):
    model_path = tmp_path / "triple.json"
    save_model(confounded_triple(0.12), model_path)

    assert dispatch([
        "infer", "--model", str(model_path), "--target", "y", "--evidence", "x=1",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["target"] == "y"
    assert doc["probs"]["1"] == pytest.approx(0.62, abs=1e-12)

    assert dispatch([
        "infer", "--model", str(model_path), "--target", "y", "--do", "x=1",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["probs"]["1"] == pytest.approx(0.50, abs=1e-12)


@pytest.mark.parametrize("query", [
    ["--target", "y", "--evidence", "y=1"],
    ["--target", "x", "--do", "x=1"],
    ["--target", "y", "--do", "x=1", "--evidence", "x=0"],
])
def test_infer_invalid_query_exits_1(tmp_path, capsys, query):
    # an observed or intervened target, or evidence against the intervention
    model_path = tmp_path / "triple.json"
    save_model(confounded_triple(0.12), model_path)
    assert dispatch(["infer", "--model", str(model_path), *query]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_infer_unknown_state_exits_2(tmp_path, capsys):
    model_path = tmp_path / "triple.json"
    save_model(confounded_triple(0.12), model_path)
    rc = dispatch([
        "infer", "--model", str(model_path), "--target", "y", "--evidence", "x=maybe",
    ])
    assert rc == 2
    assert "maybe" in capsys.readouterr().err


def test_infer_bad_assignment_exits_1(tmp_path, capsys):
    model_path = tmp_path / "triple.json"
    save_model(confounded_triple(0.12), model_path)
    rc = dispatch([
        "infer", "--model", str(model_path), "--target", "y", "--evidence", "x:1",
    ])
    assert rc == 1
    assert "name=state" in capsys.readouterr().err


def test_infer_missing_model_exits_1(tmp_path, capsys):
    rc = dispatch([
        "infer", "--model", str(tmp_path / "ghost.json"), "--target", "y",
    ])
    assert rc == 1
    assert "ghost.json" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# threshold
# ---------------------------------------------------------------------------

def _write_lines(path: Path, values) -> Path:
    path.write_text("\n".join(str(v) for v in values) + "\n", encoding="utf-8")
    return path


def test_threshold_perfect_separation(tmp_path, capsys):
    scores = _write_lines(tmp_path / "s.txt", [0.2, 0.4, 0.6, 0.8])
    labels = _write_lines(tmp_path / "y.txt", [0, 0, 1, 1])
    assert dispatch(["threshold", "--scores", str(scores), "--labels", str(labels)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["threshold"] == pytest.approx(0.5)
    assert doc["j"] == pytest.approx(1.0)


def test_threshold_input_validation(tmp_path, capsys):
    scores = _write_lines(tmp_path / "s.txt", [0.2, 0.4, 0.6])
    labels = _write_lines(tmp_path / "y.txt", [0, 1])
    assert dispatch(["threshold", "--scores", str(scores), "--labels", str(labels)]) == 2
    assert "3 scores but 2 labels" in capsys.readouterr().err

    labels2 = _write_lines(tmp_path / "y2.txt", [0, 2, 1])
    assert dispatch(["threshold", "--scores", str(scores), "--labels", str(labels2)]) == 2
    assert "0 or 1" in capsys.readouterr().err

    bad = tmp_path / "bad.txt"
    bad.write_text("0.2\noops\n", encoding="utf-8")
    assert dispatch(["threshold", "--scores", str(bad), "--labels", str(labels2)]) == 2
    assert "line 2" in capsys.readouterr().err

    assert dispatch([
        "threshold", "--scores", str(tmp_path / "none.txt"), "--labels", str(labels2),
    ]) == 1


# ---------------------------------------------------------------------------
# learn
# ---------------------------------------------------------------------------

def test_learn_fits_structure_without_cpts(tmp_path, capsys):
    structure = tmp_path / "structure.json"
    structure.write_text(json.dumps({
        "kind": "network",
        "variables": [{"name": "a", "states": ["0", "1"]}],
    }), encoding="utf-8")
    cohort_path = tmp_path / "cohort.csv"
    cohort_path.write_text("a\n1\n1\n1\n0\n", encoding="utf-8")
    out = tmp_path / "fitted.json"

    assert dispatch([
        "learn", "--structure", str(structure), "--cohort", str(cohort_path),
        "--out", str(out),
    ]) == 0
    stdout = capsys.readouterr().out
    assert "iterations=" in stdout

    fitted = load_model(out)
    assert fitted.cpts["a"].rows[0][1] == pytest.approx(0.75, abs=1e-12)


def test_learn_rejects_template_document(tmp_path, capsys):
    structure = tmp_path / "structure.json"
    structure.write_text(json.dumps({
        "kind": "template",
        "template": {"horizon": 2},
        "variables": [{"name": "a", "states": ["0", "1"]}],
    }), encoding="utf-8")
    cohort_path = tmp_path / "cohort.csv"
    cohort_path.write_text("a\n1\n", encoding="utf-8")
    rc = dispatch([
        "learn", "--structure", str(structure), "--cohort", str(cohort_path),
        "--out", str(tmp_path / "f.json"),
    ])
    assert rc == 1
    assert "unrolled" in capsys.readouterr().err


def _write_learn_inputs(tmp_path, arcs=()):
    structure = tmp_path / "structure.json"
    structure.write_text(json.dumps({
        "kind": "network",
        "variables": [{"name": "a", "states": ["0", "1"]},
                      {"name": "b", "states": ["0", "1"]}],
        "arcs": list(arcs),
    }), encoding="utf-8")
    cohort_path = tmp_path / "cohort.csv"
    cohort_path.write_text("a,b\n1,0\n,1\n0,\n", encoding="utf-8")
    return ["learn", "--structure", str(structure), "--cohort", str(cohort_path),
            "--out", str(tmp_path / "fitted.json")]


@pytest.mark.parametrize("arcs, extra, message", [
    ([], ["--alpha", "-1"], "alpha"),
    ([], ["--max-iter", "0", "--alpha", "1"], "max_iter"),
    ([["a", "b", "c"]], [], "[parent, child]"),
], ids=["negative-alpha", "zero-max-iter", "three-element-arc"])
def test_learn_bad_arguments_exit_1(tmp_path, capsys, arcs, extra, message):
    assert dispatch(_write_learn_inputs(tmp_path, arcs) + extra) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "fitted.json").exists()


def test_infer_malformed_model_exits_1(tmp_path, capsys):
    model_path = tmp_path / "triple.json"
    save_model(confounded_triple(0.12), model_path)
    doc = json.loads(model_path.read_text(encoding="utf-8"))
    del doc["variables"][0]["name"]
    model_path.write_text(json.dumps(doc), encoding="utf-8")
    rc = dispatch(["infer", "--model", str(model_path), "--target", "y"])
    assert rc == 1
    assert "'name' and 'states'" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("arcs", [["x", "y", "z"]]), ("arcs", 5), ("cpts", [1]), ("outcomes", {"a": "y"}),
])
def test_infer_malformed_model_shape_exits_1(tmp_path, capsys, field, value):
    model_path = tmp_path / "triple.json"
    save_model(confounded_triple(0.12), model_path)
    doc = json.loads(model_path.read_text(encoding="utf-8"))
    doc[field] = value
    model_path.write_text(json.dumps(doc), encoding="utf-8")
    rc = dispatch(["infer", "--model", str(model_path), "--target", "y"])
    assert rc == 1
    assert repr(field) in capsys.readouterr().err


def test_learn_missing_structure_exits_1(tmp_path, capsys):
    rc = dispatch([
        "learn", "--structure", str(tmp_path / "ghost.json"),
        "--cohort", str(tmp_path / "c.csv"), "--out", str(tmp_path / "f.json"),
    ])
    assert rc == 1
    assert "ghost.json" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# discretize
# ---------------------------------------------------------------------------

def _hand_case_csv(path: Path) -> Path:
    lines = ["v,y"]
    for v, y in zip([1, 2, 3, 10, 11, 12], [0, 0, 0, 1, 1, 1]):
        lines.append(f"{v},{y}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_discretize_hand_case(tmp_path, capsys):
    cohort_path = _hand_case_csv(tmp_path / "c.csv")
    out = tmp_path / "binned.csv"
    bins = tmp_path / "bins.json"
    assert dispatch([
        "discretize", "--cohort", str(cohort_path), "--columns", "v",
        "--outcome", "y", "--positive", "1", "--out", str(out),
        "--bins-out", str(bins),
    ]) == 0
    assert "cuts=[6.5]" in capsys.readouterr().out

    doc = json.loads(bins.read_text())
    assert doc["v"]["cuts"] == [6.5]
    with out.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["v", "y"]
    binned_values = {r[0] for r in rows[1:]}
    assert binned_values == set(doc["v"]["labels"])


def test_discretize_with_plausibility_range(tmp_path, capsys):
    cohort_path = _hand_case_csv(tmp_path / "c.csv")
    out = tmp_path / "binned.csv"
    assert dispatch([
        "discretize", "--cohort", str(cohort_path), "--columns", "v",
        "--outcome", "y", "--positive", "1", "--out", str(out),
        "--range", "v=0:11",
    ]) == 0
    stdout = capsys.readouterr().out
    assert "1 cell(s) cleared" in stdout
    with out.open(newline="") as fh:
        rows = list(csv.reader(fh))
    # the out-of-range record keeps its row but loses the masked cell
    assert len(rows) == 7
    assert rows[6][0] == ""


def test_discretize_unknown_column_exits_2(tmp_path, capsys):
    cohort_path = _hand_case_csv(tmp_path / "c.csv")
    rc = dispatch([
        "discretize", "--cohort", str(cohort_path), "--columns", "w",
        "--outcome", "y", "--positive", "1", "--out", str(tmp_path / "b.csv"),
    ])
    assert rc == 2
    assert "'w'" in capsys.readouterr().err


def test_discretize_bad_range_exits_1(tmp_path, capsys):
    cohort_path = _hand_case_csv(tmp_path / "c.csv")
    rc = dispatch([
        "discretize", "--cohort", str(cohort_path), "--columns", "v",
        "--outcome", "y", "--positive", "1", "--out", str(tmp_path / "b.csv"),
        "--range", "v=banana",
    ])
    assert rc == 1
    assert "name=min:max" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def test_synth_writes_model_cohort_certificate(tmp_path, capsys):
    out = tmp_path / "scenario"
    assert dispatch(["synth", "--n", "50", "--seed", "3", "--out", str(out)]) == 0
    capsys.readouterr()

    net = load_model(out / "model.json")
    assert "treat@0" in net

    with (out / "cohort.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 51

    cert = json.loads((out / "certificate.json").read_text())
    assert cert["treatment"] == "treat@0"
    assert cert["reference_threshold"] == pytest.approx(0.43, abs=1e-12)
    assert cert["oracle_interventional"]["yes"] == pytest.approx(0.50, abs=1e-12)
    assert cert["oracle_interventional"]["no"] == pytest.approx(0.30, abs=1e-12)
    assert cert["n"] == 50 and cert["seed"] == 3


def test_synth_config_unknown_key_exits_1(tmp_path, capsys):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({"foo": 1}), encoding="utf-8")
    rc = dispatch(["synth", "--config", str(config), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "foo" in capsys.readouterr().err


def test_synth_rejects_bad_parameter(tmp_path, capsys):
    rc = dispatch(["synth", "--bias", "1.5", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "bias" in capsys.readouterr().err
