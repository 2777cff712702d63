"""The benchmark's workloads: inputs made from a seed, the CLI call, checks.

Every workload writes its inputs into a directory through the package's own
``synth`` code, names the one ``rdtrial`` command that is timed, and checks
that command's outputs against an oracle the repository already has. The
program sees only the generated files.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from rdtrial import cli, cohort, modelio, synth
from rdtrial.inference import enumerate_posterior
from rdtrial.model import Cpt, DbnTemplate, VariableDef, unroll, validate_network

SCAN_N = 3000
PANEL_N = 1500
PANEL_K = 100
EM_N = 500

RDDO_OUTPUTS = ("out/effects.csv", "out/windows.csv", "out/report.json", "out/run_manifest.json")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[Path, int], None]        # writes the inputs for a seed
    argv: Callable[[Path], list[str]]         # the timed CLI call
    inputs: tuple[str, ...]                   # generated files, hashed for provenance
    outputs: tuple[str, ...]                  # output files, compared across repeats
    check: Callable[[Path, list], list[str]]  # problems found in the outputs


def _quiet_dispatch(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.dispatch(argv)
    if rc != 0:
        raise RuntimeError(f"rdtrial {argv[0]} exited with {rc}")


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# scan-fine: the shipped confounded scenario at the config defaults
# ---------------------------------------------------------------------------

def _scan_setup(d: Path, seed: int) -> None:
    _quiet_dispatch(["synth", "--bias", "0.12", "--n", str(SCAN_N),
                     "--seed", str(seed), "--out", str(d)])
    cert = json.loads((d / "certificate.json").read_text(encoding="utf-8"))
    _write_json(d / "run.json", {
        "model": "model.json",
        "cohort": "cohort.csv",
        "out": "out",
        "covariates": cert["covariates"],
        "thresholds": {"1": cert["reference_threshold"]},
        "split": None,
        "k_min": 200,
        "threads": 1,
    })


def _rddo_argv(d: Path) -> list[str]:
    return ["rddo", "--config", str(d / "run.json")]


def _scan_check(d: Path, spans) -> list[str]:
    """treat@0's causal category means equal the certificate's truncated-
    factorization oracle (acceptance 4, at 1e-9)."""
    cert = json.loads((d / "certificate.json").read_text(encoding="utf-8"))
    oracle = cert["oracle_interventional"]
    with (d / "out" / "effects.csv").open(newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.DictReader(fh)
                if r["variable"] == cert["treatment"] and r["mode"] == "causal"]
    got = {r["category"]: float(r["mean"]) for r in rows if r["mean"]}
    if set(got) != set(oracle):
        return [f"causal {cert['treatment']} categories {sorted(got)} != {sorted(oracle)}"]
    return [
        f"causal mean for {cert['treatment']}={cat} is {got[cat]!r}, oracle {truth!r}"
        for cat, truth in oracle.items()
        if abs(got[cat] - truth) > 1e-9
    ]


# ---------------------------------------------------------------------------
# panel-effects: a temporal template with do-operator effects at 3 slices
# ---------------------------------------------------------------------------

# Mean CPT rows; the seed draws each row from a Dirichlet around them.
# Outcomes are leaves, so causal queries on earlier outcomes are rejected.
# The baseline covariates sex and age reach the outcome only through lab@0,
# which keeps windows near the threshold balanced on them.
_PANEL_MEAN = {
    "sex": ((), [[0.5, 0.5]]),
    "age@entry": ((), [[0.3, 0.4, 0.3]]),
    "lab@0": (("sex", "age@entry"), [
        [0.34, 0.4, 0.26], [0.3, 0.4, 0.3], [0.26, 0.4, 0.34],
        [0.32, 0.4, 0.28], [0.28, 0.4, 0.32], [0.24, 0.4, 0.36]]),
    "drug@0": (("lab@0",), [[0.8, 0.2], [0.65, 0.35], [0.4, 0.6]]),
    "out@0": (("lab@0", "drug@0"), [
        [0.9, 0.1], [0.93, 0.07], [0.8, 0.2], [0.86, 0.14], [0.6, 0.4], [0.72, 0.28]]),
    "lab@t": (("lab@t-1", "drug@t-1"), [
        [0.7, 0.2, 0.1], [0.8, 0.15, 0.05], [0.2, 0.6, 0.2],
        [0.35, 0.5, 0.15], [0.1, 0.25, 0.65], [0.2, 0.35, 0.45]]),
    "drug@t": (("lab@t", "drug@t-1"), [
        [0.85, 0.15], [0.4, 0.6], [0.7, 0.3], [0.3, 0.7], [0.45, 0.55], [0.15, 0.85]]),
    "out@t": (("lab@t", "drug@t"), [
        [0.9, 0.1], [0.93, 0.07], [0.8, 0.2], [0.86, 0.14], [0.6, 0.4], [0.72, 0.28]]),
}
_PANEL_CONCENTRATION = 100.0
_PANEL_HORIZON = 3


def panel_template(seed: int) -> DbnTemplate:
    rng = np.random.default_rng((seed, 1))
    cpts = {
        key: Cpt(key, parents, np.array(
            [rng.dirichlet(_PANEL_CONCENTRATION * np.array(row)) for row in rows]))
        for key, (parents, rows) in _PANEL_MEAN.items()
    }
    return DbnTemplate(
        variables=(
            VariableDef("sex", ("f", "m"), kind="static"),
            VariableDef("age", ("young", "mid", "old"), kind="entry"),
            VariableDef("lab", ("low", "normal", "high")),
            VariableDef("drug", ("no", "yes")),
            VariableDef("out", ("no", "yes")),
        ),
        slice0_arcs=(("lab", "drug"), ("lab", "out"), ("drug", "out")),
        intra_arcs=(("lab", "drug"), ("lab", "out"), ("drug", "out")),
        inter_arcs=(("lab", "lab"), ("drug", "drug"), ("drug", "lab")),
        static_arcs=(("sex", "lab", (0,)), ("age", "lab", (0,))),
        cpts=cpts,
    )


def _panel_setup(d: Path, seed: int) -> None:
    d.mkdir(parents=True, exist_ok=True)
    template = panel_template(seed)
    spec = synth.ScenarioSpec(
        network=unroll(template, _PANEL_HORIZON),
        n=PANEL_N,
        seed=seed,
        treatment="drug@0",
        outcome=f"out@{_PANEL_HORIZON}",
        positive_state="yes",
        covariates=("sex", "age@entry"),
        mcar={f"lab@{t}": 0.1 for t in range(_PANEL_HORIZON + 1)},
    )
    cohort.write_cohort_csv(synth.sample_cohort(spec), d / "cohort.csv")
    modelio.save_model(template, d / "model.json")
    # k_min = k_max pins the window size, so the effect work does not swing
    # with which window the seed's data happens to select; alpha 0.01 keeps
    # the gate from dropping a time point's effects on most seeds.
    _write_json(d / "run.json", {
        "model": "model.json",
        "cohort": "cohort.csv",
        "out": "out",
        "outcome": "out",
        "time_points": list(range(1, _PANEL_HORIZON + 1)),
        "covariates": ["sex", "age@entry"],
        "alpha": 0.01,
        "k_min": PANEL_K,
        "k_max": PANEL_K,
        "k_step": 100,
        "threads": 1,
    })


def _panel_check(d: Path, spans) -> list[str]:
    """Every category of every table accounts for the whole window
    (n + failures = k), and sampled test-fold scores equal the dense-joint
    enumeration oracle."""
    problems = []
    report = json.loads((d / "out" / "report.json").read_text(encoding="utf-8"))
    for tp in report["time_points"]:
        for tb in tp["tables"]:
            for cat in tb["categories"]:
                if cat["n"] + cat["failures"] != tp["window"]["k"]:
                    problems.append(
                        f"t={tp['t']} {tb['variable']} {tb['mode']} {cat['category']}: "
                        f"n {cat['n']} + failures {cat['failures']} != k {tp['window']['k']}")
    scored = [sp for sp in spans if sp.name == "rddo.score_cohort"
              and sp.error is None and sp.kwargs.get("threshold") is not None]
    if not scored:
        problems.append("no test-fold scoring was recorded")
    for sp in scored:
        net, outcome = sp.args[0], sp.result.outcome
        pos = net.var(outcome).state_index(sp.result.positive_state)
        records = sp.result.records
        for rec in records[:: max(1, len(records) // 8)]:
            truth = float(enumerate_posterior(net, outcome, rec.evidence).probs[pos])
            if abs(rec.score - truth) > 1e-9:
                problems.append(f"{outcome} record {rec.record_id}: score "
                                f"{rec.score!r}, enumeration {truth!r}")
    return problems


# ---------------------------------------------------------------------------
# em-latent: EM on the shipped scenario with a latent column and MCAR cells
# ---------------------------------------------------------------------------

def _em_setup(d: Path, seed: int) -> None:
    d.mkdir(parents=True, exist_ok=True)
    observed = ["treat@0", "cov_a@0", "cov_b@0", "marker@0", "noise@0",
                "shift_a@1", "shift_b@1", "outcome@1"]
    _write_json(d / "synth.json", {
        "bias": 0.12, "n": EM_N, "seed": seed,
        "mcar": {name: 0.2 for name in observed},
    })
    _quiet_dispatch(["synth", "--config", str(d / "synth.json"), "--out", str(d)])
    model = json.loads((d / "model.json").read_text(encoding="utf-8"))
    del model["cpts"]
    _write_json(d / "structure.json", model)


def _em_argv(d: Path) -> list[str]:
    return ["learn", "--structure", str(d / "structure.json"),
            "--cohort", str(d / "cohort.csv"), "--out", str(d / "fitted.json"),
            "--alpha", "1", "--max-iter", "3"]


def _em_check(d: Path, spans) -> list[str]:
    """The fitted model passes validate_network and its CPT rows sum to 1."""
    net = modelio.load_model(d / "fitted.json")
    problems = [f"{v.kind} {v.node}: {v.detail}" for v in validate_network(net).violations]
    for name, cpt in net.cpts.items():
        worst = float(np.abs(cpt.rows.sum(axis=1) - 1.0).max())
        if worst > 1e-9:
            problems.append(f"CPT {name}: a row sums to 1 {worst:+.3g}")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="scan-fine",
            why="config-default k_step 1 on the shipped confounded scenario: the "
                "window scan and its chi-square tests do most of the work",
            setup=_scan_setup,
            argv=_rddo_argv,
            inputs=("model.json", "cohort.csv", "certificate.json", "run.json"),
            outputs=RDDO_OUTPUTS,
            check=_scan_check,
        ),
        Workload(
            name="panel-effects",
            why="temporal template with diverse evidence: do-operator effect "
                "estimation and scoring do the work, the window scan almost none",
            setup=_panel_setup,
            argv=_rddo_argv,
            inputs=("model.json", "cohort.csv", "run.json"),
            outputs=RDDO_OUTPUTS,
            check=_panel_check,
        ),
        Workload(
            name="em-latent",
            why="learn with a latent column and MCAR cells: the EM E-step's inference "
                "does the work; rddo and stats are bypassed",
            setup=_em_setup,
            argv=_em_argv,
            inputs=("structure.json", "cohort.csv", "synth.json"),
            outputs=("fitted.json",),
            check=_em_check,
        ),
    )
}
