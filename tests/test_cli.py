"""Command-line coverage: exit codes, frozen CSV schemas, and byte-level
determinism of the emitted report files."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
import sys
from pathlib import Path

import pytest

from rdtrial.cli import _PARSER, EFFECTS_HEADER, WINDOWS_HEADER, _build_parser, dispatch
from rdtrial.cohort import Cohort, read_cohort_csv, write_cohort_csv
from rdtrial.modelio import load_model, network_to_dict, save_model
from rdtrial.rddo import load_run_config, parse_run_config
from rdtrial.synth import make_confounded_scenario, sample_cohort

from helpers import confounded_triple

ROOT = Path(__file__).resolve().parent.parent


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
    assert dispatch(learn + ["--alpha", "1", "--max-iter", "3"]) == 0
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
    bad = Cohort.from_rows(
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


@pytest.mark.parametrize("where", ["flag", "config", "config with split"])
def test_rddo_rejects_negative_seed(tmp_path, capsys, where):
    _, model_path, cohort_path = _write_scenario(tmp_path, n=30)
    out = tmp_path / "out"
    if where == "flag":
        config_path = _write_config(tmp_path, model_path, cohort_path, out)
        argv = ["rddo", "--config", str(config_path), "--seed", "-4"]
    else:
        extra = {"split": [0.6, 0.2, 0.2]} if where == "config with split" else {}
        config_path = _write_config(tmp_path, model_path, cohort_path, out, seed=-1, **extra)
        argv = ["rddo", "--config", str(config_path)]
    assert dispatch(argv) == 1
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("k_min", 200.9), ("k_min", 200.0), ("k_min", "200"), ("k_min", True),
    ("k_step", 1.5), ("k_max", 300.5), ("threads", 1.0),
    ("seed", 2.7), ("seed", "3"), ("seed", False),
    ("time_points", [1.0]), ("time_points", [1, "2"]),
    ("thresholds", {"1.5": 0.43}), ("thresholds", {"one": 0.43}),
    ("thresholds", {"9" * 5000: 0.43}),
])
def test_rddo_rejects_non_integer_config_values(tmp_path, capsys, key, value):
    # int() would truncate 200.9 to 200 and run on a config nobody wrote
    _, model_path, cohort_path = _write_scenario(tmp_path, n=30)
    out = tmp_path / "out"
    config_path = _write_config(tmp_path, model_path, cohort_path, out, **{key: value})
    assert dispatch(["rddo", "--config", str(config_path)]) == 1
    assert f"config key {key!r} must be an integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("thresholds", {"1": "nan"}), ("thresholds", {"1": float("nan")}),
    ("thresholds", {"1": float("inf")}), ("thresholds", {"1": True}),
    ("thresholds", {"1": "0.43"}), ("alpha", "0.05"), ("alpha", True),
    ("alpha", float("nan")), ("split", ["0.6", 0.2, 0.2]), ("split", [True, 0.0, 0.0]),
])
def test_rddo_rejects_non_finite_or_non_number_config_values(tmp_path, capsys, key, value):
    # float() would take "nan", "0.43" and true and run on a config nobody wrote
    _, model_path, cohort_path = _write_scenario(tmp_path, n=30)
    out = tmp_path / "out"
    config_path = _write_config(tmp_path, model_path, cohort_path, out, **{key: value})
    assert dispatch(["rddo", "--config", str(config_path)]) == 1
    assert f"config key {key!r} must be a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value, message", [
    ("thresholds", {"1": 1.5}, "threshold for time point 1 must be in (0, 1)"),
    ("covariates", ["conf@0"], "covariate 'conf@0' has no cohort column"),
    ("covariates", ["outcome@1"], "covariate 'outcome@1' is an outcome of the run"),
])
def test_rddo_rejects_a_window_gate_that_cannot_work(tmp_path, capsys, key, value, message):
    # each of these ran to exit 0 and reported a window that no test checked
    _, model_path, cohort_path = _write_scenario(tmp_path, n=300)
    out = tmp_path / "out"
    config_path = _write_config(tmp_path, model_path, cohort_path, out, **{key: value})
    assert dispatch(["rddo", "--config", str(config_path)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_rddo_rejects_a_repeated_time_point(tmp_path, capsys):
    _, model_path, cohort_path = _write_scenario(tmp_path, n=30)
    out = tmp_path / "out"
    config_path = _write_config(tmp_path, model_path, cohort_path, out, time_points=[1, 1])
    assert dispatch(["rddo", "--config", str(config_path)]) == 1
    assert "must not repeat a time point" in capsys.readouterr().err
    assert not out.exists()


def test_rddo_rejects_two_threshold_keys_for_one_time_point(tmp_path, capsys):
    # "1" and "01" both name t = 1; the later one used to win unnoticed
    _, model_path, cohort_path = _write_scenario(tmp_path, n=30)
    out = tmp_path / "out"
    config_path = _write_config(tmp_path, model_path, cohort_path, out,
                                thresholds={"1": 0.4, "01": 0.6})
    assert dispatch(["rddo", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert "thresholds must not repeat a time point" in err and "'1'" in err and "'01'" in err
    assert not out.exists()


@pytest.mark.parametrize("key, value, noun", [
    ("modes", ["causal", "causal"], "a mode"),
    ("variables", ["treat@0", "treat@0"], "a variable"),
    ("covariates", ["cov_a@0", "cov_b@0", "cov_a@0"], "a covariate"),
])
def test_rddo_rejects_a_repeated_list_entry(tmp_path, capsys, key, value, noun):
    # a repeat would write its tables twice or test its covariate twice
    _, model_path, cohort_path = _write_scenario(tmp_path, n=30)
    out = tmp_path / "out"
    config_path = _write_config(tmp_path, model_path, cohort_path, out, **{key: value})
    assert dispatch(["rddo", "--config", str(config_path)]) == 1
    assert f"{key} must not repeat {noun}" in capsys.readouterr().err
    assert not out.exists()


def test_rddo_cohort_naming_a_column_twice_exits_2(tmp_path, capsys):
    spec, model_path, _ = _write_scenario(tmp_path, n=30)
    cohort = sample_cohort(spec)
    twice = Cohort.from_rows(
        columns=tuple("cov_a@0" if c == "noise@0" else c for c in cohort.columns),
        rows=cohort.rows,
    )
    cohort_path = tmp_path / "twice.csv"
    write_cohort_csv(twice, cohort_path)
    out = tmp_path / "out"
    rc = dispatch(["rddo", "--model", str(model_path), "--cohort", str(cohort_path),
                   "--out", str(out)])
    assert rc == 2
    assert "column 'cov_a@0' appears twice" in capsys.readouterr().err
    assert not out.exists()


_MALFORMED_CELLS = {
    "long-cell": (b"x" * 200_000, "field larger than field limit (131072)"),
    "not-utf8": (b"\xff\xfe", "not UTF-8 text: invalid start byte (b'\\xff')"),
}


@pytest.mark.parametrize("command", ["rddo", "learn"])
@pytest.mark.parametrize("quoted", [False, True], ids=["one-line-records", "quoted-cell"])
@pytest.mark.parametrize("fault", sorted(_MALFORMED_CELLS))
def test_malformed_cohort_bytes_exit_2_naming_the_file(tmp_path, capsys, command, quoted, fault):
    # the third record's first cell is malformed; quoted cells elsewhere,
    # which leave every label as it is, make the read parse every line
    _, model_path, cohort_path = _write_scenario(tmp_path, n=30)
    lines = cohort_path.read_bytes().split(b"\n")
    cell, message = _MALFORMED_CELLS[fault]
    lines[3] = b",".join([cell, *lines[3].split(b",")[1:]])
    if quoted:
        lines[6] = b'"' + lines[6].replace(b",", b'","') + b'"'
    cohort_path.write_bytes(b"\n".join(lines))
    out = tmp_path / "out"
    argv = {"rddo": ["rddo", "--model", str(model_path), "--out", str(out)],
            "learn": ["learn", "--structure", str(model_path), "--out", str(out)]}[command]
    rc = dispatch([*argv, "--cohort", str(cohort_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith(f"error: {cohort_path}: ")
    assert message in err
    if fault == "long-cell":  # the header is row 1, so the record is row 4
        assert (": line 4: " if quoted else ": row 4: ") in err
    assert not out.exists()


def test_rddo_flags_beat_config_keys(tmp_path, capsys):
    # every config key a flag also sets is wrong; the flags alone make it run
    _, model_path, cohort_path = _write_scenario(tmp_path, n=300)
    ghost = tmp_path / "ghost"
    config_path = _write_config(tmp_path, ghost, ghost, tmp_path / "config-out",
                                seed=-1, threads=0)
    out = tmp_path / "flag-out"
    assert dispatch([
        "rddo", "--config", str(config_path), "--model", str(model_path),
        "--cohort", str(cohort_path), "--out", str(out), "--seed", "5", "--threads", "1",
    ]) == 0
    capsys.readouterr()
    config = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))["config"]
    assert config["model_path"] == str(model_path.resolve())
    assert config["cohort_path"] == str(cohort_path.resolve())
    assert config["out_dir"] == str(out.resolve())
    assert config["seed"] == 5
    assert not (tmp_path / "config-out").exists()


def test_rddo_relative_paths(tmp_path, monkeypatch, capsys):
    # a flag path resolves against the working directory, a config path
    # against the config's directory
    _, model_path, cohort_path = _write_scenario(tmp_path, n=300)
    config_dir = tmp_path / "configs"
    config_dir.mkdir()
    config_path = config_dir / "run.json"
    config_path.write_text(json.dumps({
        "model": "../model.json", "cohort": "../cohort.csv", "out": "config-out",
        "thresholds": {"1": 0.43}, "split": None,
    }), encoding="utf-8")
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert dispatch(["rddo", "--config", "../configs/run.json"]) == 0
    assert (config_dir / "config-out" / "report.json").is_file()
    assert dispatch(["rddo", "--config", "../configs/run.json", "--out", "flag-out",
                     "--model", "../model.json"]) == 0
    assert (work / "flag-out" / "report.json").is_file()
    assert not (config_dir / "flag-out").exists()
    capsys.readouterr()


@pytest.mark.parametrize("flag, key, value, message", [
    ("--seed", "seed", -1, "seed must be >= 0, got -1"),
    ("--threads", "threads", 0, "threads must be >= 1, got 0"),
])
def test_rddo_bad_flag_fails_like_the_config_key(tmp_path, capsys, flag, key, value, message):
    _, model_path, cohort_path = _write_scenario(tmp_path, n=30)
    out = tmp_path / "out"
    config_path = _write_config(tmp_path, model_path, cohort_path, out, **{key: value})
    assert dispatch(["rddo", "--config", str(config_path)]) == 1
    from_config = capsys.readouterr().err
    assert dispatch(["rddo", "--model", str(model_path), "--cohort", str(cohort_path),
                     "--out", str(out), flag, str(value)]) == 1
    assert capsys.readouterr().err == from_config == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, what", [("rddo", "config"), ("synth", "config"),
                                           ("learn", "structure")])
def test_bad_json_input_exits_1_with_one_message(tmp_path, capsys, command, what):
    broken = tmp_path / "broken.json"
    broken.write_text("{", encoding="utf-8")
    flag = "--structure" if command == "learn" else "--config"
    argv = {"rddo": [], "synth": ["--out", str(tmp_path / "o")],
            "learn": _write_learn_inputs(tmp_path)[3:]}[command]
    assert dispatch([command, flag, str(broken), *argv]) == 1
    assert capsys.readouterr().err.startswith(f"error: {what} file {broken} is not valid JSON: ")
    broken.write_text("[1, 2]", encoding="utf-8")
    assert dispatch([command, flag, str(broken), *argv]) == 1
    assert capsys.readouterr().err == f"error: {what} file {broken} must hold a JSON object\n"


@pytest.mark.parametrize("old, new, key", [
    ('"k_min": 200', '"k_min": 5, "k_min": 200', "k_min"),
    ('"thresholds": {"1": 0.43}', '"thresholds": {"1": 0.4, "1": 0.43}', "1"),
    ('"split": null', '"split": null, "split": null', "split"),
], ids=["top-level", "nested", "equal-values"])
def test_rddo_config_repeating_a_key_exits_1_naming_it(tmp_path, capsys, old, new, key):
    # json.loads alone keeps the last value: k_min 200, threshold 0.43
    _, model_path, cohort_path = _write_scenario(tmp_path, n=30)
    out = tmp_path / "out"
    config_path = _write_config(tmp_path, model_path, cohort_path, out)
    text = config_path.read_text(encoding="utf-8")
    assert old in text
    config_path.write_text(text.replace(old, new), encoding="utf-8")
    assert dispatch(["rddo", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err == f"error: config file {config_path} repeats key {key!r}\n"
    assert not out.exists()


def test_shipped_and_bench_configs_parse(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = [json.loads(b) for b in re.findall(r"```json\n(.*?)```", readme, re.S)]
    run_docs = [b for b in blocks if "cohort" in b]
    assert run_docs
    for doc in run_docs:
        config = parse_run_config(doc, tmp_path)
        assert (config.k_min, config.k_step, config.thresholds) == (200, 100, {1: 0.43})
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    for name in ("scan-fine", "panel-effects"):
        workloads.WORKLOADS[name].setup(tmp_path / name, 1)
        config = load_run_config(tmp_path / name / "run.json")
        assert isinstance(config.k_min, int) and isinstance(config.seed, int)


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


def test_rddo_youden_threshold_that_separates_nothing_ends_the_time_point(tmp_path, capsys):
    # cut to its outcome column, every record scores the outcome's prior, so
    # no threshold separates the classes: Youden's J ties at 0 up to +inf
    scenario = tmp_path / "scenario"
    assert dispatch(["synth", "--n", "2000", "--seed", "1", "--out", str(scenario)]) == 0
    cohort = read_cohort_csv(scenario / "cohort.csv")
    j = cohort.col_index("outcome@1")
    write_cohort_csv(Cohort(("outcome@1",), cohort.codes[:, [j]], (cohort.labels[j],)),
                     tmp_path / "outcome-only.csv")
    capsys.readouterr()
    out = tmp_path / "out"
    assert dispatch(["rddo", "--model", str(scenario / "model.json"),
                     "--cohort", str(tmp_path / "outcome-only.csv"), "--out", str(out)]) == 0
    assert "t=1: no_random_window (the Youden threshold is inf" in capsys.readouterr().out

    with (out / "windows.csv").open(newline="") as fh:
        wrows = list(csv.reader(fh))
    assert wrows == [WINDOWS_HEADER, ["1", "no_random_window", "", "", ""]]
    assert "inf" not in (out / "windows.csv").read_text()
    with (out / "effects.csv").open(newline="") as fh:
        assert list(csv.reader(fh)) == [EFFECTS_HEADER]
    (tp,) = json.loads((out / "report.json").read_text())["time_points"]
    assert "Youden threshold" in tp["reason"]
    assert (tp["threshold"], tp["window"], tp["n_windows"], tp["tables"]) == (None, None, 0, [])


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


@pytest.mark.parametrize("query", [
    ["--evidence", "x=1,x=0"],
    ["--evidence", "x=1, x =1"],
    ["--do", "x=1,x=0"],
    ["--do", "x=1,x=1"],
], ids=["evidence", "evidence-same-state", "do", "do-same-state"])
def test_infer_a_node_named_twice_exits_1(tmp_path, capsys, query):
    # the last assignment used to win unnoticed
    model_path = tmp_path / "triple.json"
    save_model(confounded_triple(0.12), model_path)
    assert dispatch(["infer", "--model", str(model_path), "--target", "y", *query]) == 1
    captured = capsys.readouterr()
    assert "'x' is assigned twice" in captured.err and captured.out == ""


@pytest.mark.parametrize("old, new, key", [
    ('{"kind": "network"', '{"kind": "network", "kind": "network"', "kind"),
    ('"cpts": {', '"cpts": {"y": {"parents": [], "rows": [[0.5, 0.5]]}, ', "y"),
], ids=["top-level", "a-cpt-given-twice"])
def test_infer_model_repeating_a_key_exits_1_naming_it(tmp_path, capsys, old, new, key):
    # json.loads alone keeps the last value, so the first CPT for y was dropped
    model_path = tmp_path / "triple.json"
    text = json.dumps(network_to_dict(confounded_triple(0.12)))
    assert old in text
    model_path.write_text(text.replace(old, new, 1), encoding="utf-8")
    assert dispatch(["infer", "--model", str(model_path), "--target", "y"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {model_path}: repeats key {key!r}\n" and captured.out == ""


@pytest.mark.parametrize("row", [1, 3])
def test_infer_model_with_a_nan_cpt_row_exits_1_naming_the_node(tmp_path, capsys, row):
    # NaN fails no "< 0", "> 1" or "|sum - 1| > tol" test: such a model used to
    # load, and infer then misreported the evidence as impossible
    doc = network_to_dict(confounded_triple(0.12))
    doc["cpts"]["y"]["rows"][row] = [math.nan, 0.7]
    model_path = tmp_path / "triple.json"
    model_path.write_text(json.dumps(doc), encoding="utf-8")
    assert dispatch(["infer", "--model", str(model_path), "--target", "y"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: entry_out_of_range at y: entries outside [0, 1] or NaN\n"
    assert captured.out == ""


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


@pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
def test_threshold_rejects_non_finite_scores(tmp_path, capsys, bad):
    # a nan score would silently move the threshold (0.35, J = 0.5 here)
    scores = _write_lines(tmp_path / "s.txt", [0.1, bad, 0.6, 0.9])
    labels = _write_lines(tmp_path / "y.txt", [0, 0, 1, 1])
    assert dispatch(["threshold", "--scores", str(scores), "--labels", str(labels)]) == 2
    assert capsys.readouterr().err == f"error: {scores}: line 2: {bad!r} is not a finite number\n"


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


def test_learn_does_not_depend_on_the_cohort_column_order(tmp_path, capsys):
    spec = make_confounded_scenario(bias=0.12, n=400, seed=3,
                                    mcar={"treat@0": 0.1, "cov_a@0": 0.2, "outcome@1": 0.1})
    save_model(spec.network, tmp_path / "structure.json")
    cohort = sample_cohort(spec)
    write_cohort_csv(cohort, tmp_path / "cohort.csv")
    order = [3, 7, 0, 5, 1, 6, 2, 4]
    write_cohort_csv(Cohort([cohort.columns[j] for j in order], cohort.codes[:, order],
                            [cohort.labels[j] for j in order]), tmp_path / "permuted.csv")
    fitted, logs = [], []
    for name in ("cohort.csv", "permuted.csv"):
        out = tmp_path / f"fitted-{name}.json"
        assert dispatch(["learn", "--structure", str(tmp_path / "structure.json"),
                         "--cohort", str(tmp_path / name), "--out", str(out),
                         "--alpha", "1", "--max-iter", "3"]) == 0
        fitted.append(out.read_bytes())
        logs.append(capsys.readouterr().out.splitlines()[-1])
    assert fitted[0] == fitted[1]
    assert logs[0] == logs[1]


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
    ([], ["--alpha", "nan"], "alpha must be finite"),
    ([], ["--alpha", "inf"], "alpha must be finite"),
    ([["a", "b", "c"]], [], "[parent, child]"),
], ids=["negative-alpha", "zero-max-iter", "nan-alpha", "inf-alpha", "three-element-arc"])
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


@pytest.mark.parametrize("cell, problem", [
    ("abc", "'abc' is not numeric"),
    ("nan", "'nan' is not a finite number"),
    ("inf", "'inf' is not a finite number"),
    ("-inf", "'-inf' is not a finite number"),
])
@pytest.mark.parametrize("ranges", [[], ["--range", "y=0:1"]])
def test_discretize_bad_cell_exits_2_naming_record_and_column(tmp_path, capsys, cell,
                                                              problem, ranges):
    cohort_path = tmp_path / "c.csv"
    cohort_path.write_text(f"v,y\n1,0\n,1\n2,0\n{cell},1\n10,1\n", encoding="utf-8")
    out = tmp_path / "b.csv"
    rc = dispatch([
        "discretize", "--cohort", str(cohort_path), "--columns", "v",
        "--outcome", "y", "--positive", "1", "--out", str(out), *ranges,
    ])
    assert rc == 2
    assert f"record 3, column 'v': {problem}" in capsys.readouterr().err
    assert not out.exists()


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


def test_synth_flags_beat_config_keys(tmp_path, capsys):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({"bias": 0.3, "n": 20, "seed": 1, "injector_strength": 1.0,
                                  "injector_offset": 0.25}), encoding="utf-8")
    out = tmp_path / "o"
    assert dispatch(["synth", "--config", str(config), "--bias", "0.1", "--n", "30",
                     "--seed", "2", "--strength", "2.0", "--out", str(out)]) == 0
    capsys.readouterr()
    cert = json.loads((out / "certificate.json").read_text(encoding="utf-8"))
    assert (cert["analytic"]["bias"], cert["n"], cert["seed"]) == (0.1, 30, 2)
    assert cert["injector"] == {"covariate": "marker@0", "strength": 2.0, "offset": 0.25}


@pytest.mark.parametrize("doc", [{"bias": "0.12"}, {"bias": float("nan")},
                                 {"injector_strength": True}, {"injector_offset": float("inf")}])
def test_synth_rejects_non_finite_or_non_number_values(tmp_path, capsys, doc):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({"n": 20, **doc}), encoding="utf-8")
    out = tmp_path / "o"
    assert dispatch(["synth", "--config", str(config), "--out", str(out)]) == 1
    assert f"{next(iter(doc))} must be a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mcar, message", [
    ({"treat@0": "0.2"}, "mcar rate for 'treat@0' must be a finite number, got '0.2'"),
    ({"treat@0": False}, "mcar rate for 'treat@0' must be a finite number, got False"),
    ({"cov_a@0": True}, "mcar rate for 'cov_a@0' must be a finite number, got True"),
    ({"cov_a@0": float("nan")}, "mcar rate for 'cov_a@0' must be a finite number, got nan"),
    ({"cov_a@0": 1.5}, "mcar rate for 'cov_a@0' must be in [0, 1), got 1.5"),
    ([["treat@0", 0.2]], "mcar must map variable names to rates"),
    (False, "mcar must map variable names to rates"),
])
def test_synth_rejects_bad_mcar_rates(tmp_path, capsys, mcar, message):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({"n": 20, "mcar": mcar}), encoding="utf-8")
    out = tmp_path / "o"
    assert dispatch(["synth", "--config", str(config), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_learn_malformed_structure_exits_1_naming_it(tmp_path, capsys):
    learn = _write_learn_inputs(tmp_path)
    structure = Path(learn[2])
    structure.write_text(json.dumps({"variables": [{"name": "a"}]}), encoding="utf-8")
    assert dispatch(learn) == 1
    assert "'name' and 'states'" in capsys.readouterr().err
    assert not (tmp_path / "fitted.json").exists()


@pytest.mark.parametrize("argv, doc, message", [
    (["--n", "20", "--seed", "-1"], None, "seed must be >= 0"),
    ([], {"seed": -1}, "seed must be >= 0"),
    ([], {"n": 2.7}, "n must be an integer"),
    ([], {"seed": 1.5}, "seed must be an integer"),
    ([], {"n": "20"}, "n must be an integer"),
    ([], {"n": True}, "n must be an integer"),
])
def test_synth_rejects_bad_seed_or_n_before_writing(tmp_path, capsys, argv, doc, message):
    out = tmp_path / "o"
    if doc is not None:
        config = tmp_path / "synth.json"
        config.write_text(json.dumps({"n": 20, **doc}), encoding="utf-8")
        argv = [*argv, "--config", str(config)]
    assert dispatch(["synth", *argv, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()
