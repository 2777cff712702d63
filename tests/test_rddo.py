"""Window extraction and effect estimation around a decision threshold."""
from __future__ import annotations

import numpy as np
import pytest

from rdtrial.cohort import Cohort, write_cohort_csv
from rdtrial.errors import ConfigError, DataError, NoCausalPath, TooFewRecords
from rdtrial.inference import posterior
from rdtrial.model import Cpt, DiscreteNetwork, VariableDef
from rdtrial.modelio import save_model
from rdtrial.rddo import (
    RunConfig,
    ScoredRecord,
    WindowReport,
    estimate_effects,
    parse_run_config,
    rank_effects,
    run_rd_do,
    scan_windows,
    score_cohort,
    select_window,
)
from rdtrial.synth import confounded_triple, make_confounded_scenario, sample_cohort

from helpers import chain_network


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------

def test_score_cohort_hand_values():
    net = confounded_triple()
    cohort = Cohort(
        columns=("z", "x", "y"),
        rows=[
            ("0", "1", "1"),     # P(y=1 | z=0, x=1) = 0.3
            (None, None, "0"),   # empty evidence: prior marginal
            ("1", "0", None),    # missing outcome
        ],
    )
    result = score_cohort(net, cohort, t=0, outcome="y")
    assert result.positive_state == "1"
    assert [r.record_id for r in result.records] == [0, 1]
    assert result.records[0].score == pytest.approx(0.3, abs=1e-12)
    assert result.records[0].label is True
    assert result.records[0].evidence == {"z": 0, "x": 1}
    prior = posterior(net, "y")[1]
    assert result.records[1].score == pytest.approx(prior, abs=1e-12)
    assert result.records[1].evidence == {}
    assert result.missing_outcome == (2,)
    assert result.zero_probability == ()


def test_score_cohort_excludes_impossible_evidence():
    # b is a deterministic copy of a: a=0, b=1 cannot happen under the model
    net = DiscreteNetwork(
        variables=[
            VariableDef(name="a", states=("0", "1")),
            VariableDef(name="b", states=("0", "1")),
            VariableDef(name="c", states=("0", "1")),
        ],
        arcs=[("a", "b"), ("b", "c")],
        cpts={
            "a": Cpt("a", (), np.array([[0.5, 0.5]])),
            "b": Cpt("b", ("a",), np.array([[1.0, 0.0], [0.0, 1.0]])),
            "c": Cpt("c", ("b",), np.array([[0.8, 0.2], [0.3, 0.7]])),
        },
    )
    cohort = Cohort(
        columns=("a", "b", "c"),
        rows=[("0", "1", "0"), ("1", "1", "1")],
        ids=np.array([10, 11]),
    )
    result = score_cohort(net, cohort, t=0, outcome="c")
    assert result.zero_probability == (10,)
    assert [r.record_id for r in result.records] == [11]


def test_score_cohort_memoizes_patterns():
    net = confounded_triple()
    rows = [("1", "1", "0")] * 500 + [("0", "0", "1")] * 500
    cohort = Cohort(columns=("z", "x", "y"), rows=rows)
    result = score_cohort(net, cohort, t=0, outcome="y")
    scores = {r.score for r in result.records}
    assert len(scores) == 2  # two patterns, two distinct scores
    assert len(result.records) == 1000


def test_score_cohort_threshold_distance():
    net = confounded_triple()
    cohort = Cohort(columns=("z", "x", "y"), rows=[("0", "1", "1")])
    result = score_cohort(net, cohort, t=0, outcome="y", threshold=0.5)
    assert result.records[0].distance == pytest.approx(0.2, abs=1e-12)


def test_score_cohort_error_paths():
    net = confounded_triple()  # no outcomes declared on the plain triple
    cohort = Cohort(columns=("z", "x", "y"), rows=[("0", "1", "1")])
    with pytest.raises(ConfigError, match="time point"):
        score_cohort(net, cohort, t=0)
    with pytest.raises(DataError, match="outcome"):
        score_cohort(net, Cohort(columns=("z", "x"), rows=[("0", "1")]), t=0, outcome="y")


def test_score_cohort_evidence_respects_time_slices():
    spec = make_confounded_scenario(n=40, seed=1)
    cohort = sample_cohort(spec)
    result = score_cohort(spec.network, cohort, t=1, outcome=spec.outcome)
    for rec in result.records:
        assert spec.outcome not in rec.evidence
        # slice-1 non-outcome observations are legitimate evidence at t=1
        assert any(name.endswith("@1") for name in rec.evidence) or rec.evidence == {}


# ---------------------------------------------------------------------------
# window scan
# ---------------------------------------------------------------------------

def _cov_net(card: int = 2) -> DiscreteNetwork:
    states = tuple(str(i) for i in range(card))
    row = np.full((1, card), 1.0 / card)
    return DiscreteNetwork(
        variables=[VariableDef(name="c", states=states)],
        arcs=[],
        cpts={"c": Cpt("c", (), row)},
    )


def _records(scores, labels, cov=None, ids=None):
    out = []
    for i, (s, lab) in enumerate(zip(scores, labels)):
        ev = {} if cov is None or cov[i] < 0 else {"c": int(cov[i])}
        rid = i if ids is None else ids[i]
        out.append(ScoredRecord(record_id=rid, evidence=ev, label=bool(lab), score=float(s)))
    return out


def test_scan_windows_confusion_counts_and_power():
    # threshold 0.5: one false positive, one false negative in the window
    records = _records([0.6, 0.4, 0.7, 0.3], [False, True, True, False],
                       cov=[0, 1, 0, 1])
    reports = scan_windows(_cov_net(), records, threshold=0.5, covariates=["c"],
                           k_min=4)
    assert len(reports) == 1
    rep = reports[0]
    assert (rep.fp, rep.fn) == (1, 1)
    assert rep.power == pytest.approx(1.0 - 1.0 / 2.0)
    assert rep.k == 4


def test_scan_windows_nesting_and_id_ties():
    # equal distances everywhere: membership order falls back to record id
    records = _records([0.5] * 5, [True] * 5, ids=[9, 2, 7, 1, 5])
    reports = scan_windows(_cov_net(), records, threshold=0.5, covariates=[],
                           k_min=1)
    members = [r.member_ids.tolist() for r in reports]
    assert members[0] == [1]
    assert members[-1] == [1, 2, 5, 7, 9]
    for small, big in zip(members, members[1:]):
        assert big[: len(small)] == small


def test_scan_windows_distance_ordering():
    scores = [0.9, 0.52, 0.1, 0.48, 0.5]
    records = _records(scores, [True] * 5)
    reports = scan_windows(_cov_net(), records, threshold=0.5, covariates=[], k_min=1)
    assert reports[-1].member_ids.tolist() == [4, 1, 3, 0, 2]


def test_scan_windows_constant_covariate_is_untestable():
    records = _records([0.4, 0.5, 0.6, 0.7], [True, False, True, False],
                       cov=[1, 1, 1, 1])
    reports = scan_windows(_cov_net(), records, threshold=0.5, covariates=["c"],
                           k_min=2)
    for rep in reports:
        assert rep.p_values["c"] is None  # degenerate: skipped, not rejected
        assert rep.randomized


def test_scan_windows_k_grid():
    records = _records(np.linspace(0, 1, 30), [True] * 30)
    reports = scan_windows(_cov_net(), records, threshold=0.5, covariates=[],
                           k_min=5, k_step=7, k_max=28)
    assert [r.k for r in reports] == [5, 12, 19, 26]


def test_scan_windows_too_few_records():
    records = _records([0.5, 0.6], [True, False])
    with pytest.raises(TooFewRecords):
        scan_windows(_cov_net(), records, threshold=0.5, covariates=[], k_min=200)
    with pytest.raises(ValueError):
        scan_windows(_cov_net(), records, threshold=0.5, covariates=[], k_min=2, k_max=1)


def test_scan_windows_missing_covariate_cells_drop_out():
    # covariate observed on 4 of 6 records; missing cells never enter tables
    records = _records([0.45, 0.55, 0.4, 0.6, 0.35, 0.65],
                       [True, False, True, False, True, False],
                       cov=[0, 1, -1, -1, 0, 1])
    reports = scan_windows(_cov_net(), records, threshold=0.5, covariates=["c"],
                           k_min=2)
    assert len(reports) == 5  # k in 2..6; no crash on missing cells


def test_scan_windows_tests_each_covariate_at_bonferroni_level():
    # 40 records, window k = 20. Covariates a, b, d split 10/10 inside and
    # outside the window (p = 1). Covariate c splits 14/6 inside; outside it
    # splits 7/13 (p ~ 0.027) or 6/14 (p ~ 0.011). With alpha = 0.05 over
    # m = 4 covariates each test runs at 0.0125: a p in [alpha/m, alpha)
    # keeps the window randomized, a p below alpha/m rejects it.
    names = ["a", "b", "c", "d"]
    net = DiscreteNetwork(
        variables=[VariableDef(name=v, states=("0", "1")) for v in names],
        arcs=[],
        cpts={v: Cpt(v, (), np.array([[0.5, 0.5]])) for v in names},
    )
    balanced = [0, 1] * 20
    dist = np.concatenate([np.linspace(0.01, 0.2, 20), np.linspace(0.3, 0.49, 20)])
    scores = 0.5 + dist * np.where(np.arange(40) % 2 == 0, 1.0, -1.0)

    def scan(out_zeros, covariates):
        c = [0] * 14 + [1] * 6 + [0] * out_zeros + [1] * (20 - out_zeros)
        records = [
            ScoredRecord(record_id=i, label=True, score=float(scores[i]),
                         evidence={"a": balanced[i], "b": balanced[i],
                                   "c": c[i], "d": balanced[i]})
            for i in range(40)
        ]
        (rep,) = scan_windows(net, records, threshold=0.5, covariates=covariates,
                              alpha=0.05, k_min=20, k_max=20)
        return rep

    between = scan(7, names)
    assert 0.0125 <= between.p_values["c"] < 0.05
    assert between.p_values["a"] == pytest.approx(1.0)
    assert between.randomized

    below = scan(6, names)
    assert below.p_values["c"] < 0.0125
    assert not below.randomized

    # with c alone, m = 1 and the same p rejects at the full alpha
    assert not scan(7, ["c"]).randomized


def test_far_imbalance_passes_small_k_fails_large_k():
    # the 500 records nearest the threshold alternate the covariate exactly
    # (every even-sized window is perfectly balanced); the 100 farthest are
    # all-positive. Small windows pass the gate, the largest scanned window
    # faces a pure all-positive out-group and cannot.
    n, far = 600, 100
    dist = np.concatenate([np.linspace(0.0, 0.1, n - far),
                           np.linspace(0.2, 0.3, far)])
    scores = 0.5 + dist * np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    cov = np.where(np.arange(n) < n - far, np.arange(n) % 2, 1)
    records = _records(scores, [True] * n, cov=cov)
    reports = scan_windows(_cov_net(), records, threshold=0.5, covariates=["c"],
                           k_min=50, k_step=100, k_max=n - 50)
    assert reports[0].randomized
    assert not reports[-1].randomized
    assert reports[-1].k == 550


def test_full_window_is_vacuously_randomized():
    # at k = n the out-group is empty: every covariate test is degenerate
    # and the window passes by default. Scans that want a meaningful largest
    # window must cap k_max below n.
    records = _records([0.4, 0.45, 0.55, 0.6], [True, True, False, False],
                       cov=[0, 0, 1, 1])
    reports = scan_windows(_cov_net(), records, threshold=0.5, covariates=["c"],
                           k_min=2)
    full = reports[-1]
    assert full.k == 4
    assert full.p_values["c"] is None
    assert full.randomized


def test_select_window_prefers_power_then_smaller_k():
    def rep(k, randomized, power):
        return WindowReport(
            k=k, threshold=0.5, member_ids=np.arange(k), p_values={},
            randomized=randomized, power=power, fp=0, fn=0,
        )

    assert select_window([]) is None
    assert select_window([rep(10, False, 1.0), rep(20, False, 0.9)]) is None
    best = select_window([rep(10, True, 0.5), rep(20, True, 0.9), rep(30, True, 0.9)])
    assert best.k == 20  # ties keep the smaller window
    lone = select_window([rep(10, False, 1.0), rep(20, True, 0.2)])
    assert lone.k == 20


# ---------------------------------------------------------------------------
# effect estimation
# ---------------------------------------------------------------------------

def test_estimate_effects_with_observed_confounder():
    # Z in evidence blocks the back door: per-record causal and
    # associational values coincide and depend on the record's z
    net = confounded_triple()
    records = [
        ScoredRecord(record_id=0, evidence={"z": 0}, label=False, score=0.2),
        ScoredRecord(record_id=1, evidence={"z": 1}, label=True, score=0.7),
    ]
    assoc = estimate_effects(net, records, "x", "y", "associational", t=1)
    causal = estimate_effects(net, records, "x", "y", "causal", t=1)
    for table in (assoc, causal):
        x1 = table.categories[1]
        np.testing.assert_allclose(x1.values, [0.3, 0.7], atol=1e-12)
        x0 = table.categories[0]
        np.testing.assert_allclose(x0.values, [0.2, 0.4], atol=1e-12)
    for a_cat, c_cat in zip(assoc.categories, causal.categories):
        assert np.array_equal(a_cat.values, c_cat.values)


def test_estimate_effects_with_latent_confounder():
    # Z unobserved: the two modes disagree by exactly the designed bias and
    # every record gets the same constant value (std exactly zero)
    net = confounded_triple()
    records = [
        ScoredRecord(record_id=i, evidence={}, label=False, score=0.5)
        for i in range(8)
    ]
    assoc = estimate_effects(net, records, "x", "y", "associational", t=1)
    causal = estimate_effects(net, records, "x", "y", "causal", t=1)
    assert assoc.categories[1].mean == pytest.approx(0.62, abs=1e-12)
    assert causal.categories[1].mean == pytest.approx(0.50, abs=1e-12)
    assert assoc.categories[0].mean == pytest.approx(0.24, abs=1e-12)
    assert causal.categories[0].mean == pytest.approx(0.30, abs=1e-12)
    for table in (assoc, causal):
        for cat in table.categories:
            assert cat.std == 0.0
            assert cat.n == 8 and cat.failures == 0


def test_estimate_effects_failure_conservation():
    # x is a deterministic copy of z: conditioning on x=1 contradicts z=0,
    # so that record is a failure for the x=1 category
    net = DiscreteNetwork(
        variables=[
            VariableDef(name="z", states=("0", "1")),
            VariableDef(name="x", states=("0", "1")),
            VariableDef(name="y", states=("0", "1")),
        ],
        arcs=[("z", "x"), ("x", "y")],
        cpts={
            "z": Cpt("z", (), np.array([[0.5, 0.5]])),
            "x": Cpt("x", ("z",), np.array([[1.0, 0.0], [0.0, 1.0]])),
            "y": Cpt("y", ("x",), np.array([[0.8, 0.2], [0.3, 0.7]])),
        },
    )
    records = [
        ScoredRecord(record_id=0, evidence={"z": 0}, label=False, score=0.2),
        ScoredRecord(record_id=1, evidence={"z": 0}, label=False, score=0.2),
        ScoredRecord(record_id=2, evidence={"z": 1}, label=True, score=0.7),
    ]
    assoc = estimate_effects(net, records, "x", "y", "associational", t=1)
    by_cat = {c.category: c for c in assoc.categories}
    assert by_cat["1"].failures == 2 and by_cat["1"].n == 1
    assert by_cat["0"].failures == 1 and by_cat["0"].n == 2
    for cat in assoc.categories:
        assert cat.n + cat.failures == len(records)
    # the mutilated graph severs z -> x, so causal mode has no failures
    causal = estimate_effects(net, records, "x", "y", "causal", t=1)
    for cat in causal.categories:
        assert cat.failures == 0 and cat.n == 3


def test_estimate_effects_rejects_bad_queries():
    net = confounded_triple()
    records = [ScoredRecord(record_id=0, evidence={}, label=False, score=0.5)]
    with pytest.raises(ValueError, match="mode"):
        estimate_effects(net, records, "x", "y", "acausal", t=1)
    # y itself cannot precede y
    with pytest.raises(ValueError, match="precede"):
        estimate_effects(net, records, "y", "y", "associational")


def test_estimate_effects_no_causal_path():
    spec = make_confounded_scenario(n=10)
    records = [ScoredRecord(record_id=0, evidence={}, label=False, score=0.5)]
    with pytest.raises(NoCausalPath):
        estimate_effects(spec.network, records, "noise@0", spec.outcome, "causal")
    # associational mode still answers (flat, but defined)
    table = estimate_effects(spec.network, records, "noise@0", spec.outcome,
                             "associational")
    assert table.mode == "associational"


def test_estimate_effects_drops_later_slice_evidence():
    # shift_a@1 sits after treat@0: it must not enter the evidence, so the
    # result matches a query conditioned on the slice-0 values only
    spec = make_confounded_scenario(n=10)
    net = spec.network
    records = [
        ScoredRecord(
            record_id=0,
            evidence={"cov_a@0": 2, "shift_a@1": 0, spec.outcome: 1},
            label=True,
            score=0.6,
        )
    ]
    table = estimate_effects(net, records, "treat@0", spec.outcome, "associational")
    yes = net.state_index("treat@0", "yes")
    want = posterior(net, spec.outcome, {"treat@0": yes, "cov_a@0": 2})[1]
    assert table.categories[yes].values[0] == pytest.approx(want, abs=1e-15)


def test_estimate_effects_record_order_is_by_id():
    net = confounded_triple()
    records = [
        ScoredRecord(record_id=5, evidence={"z": 1}, label=True, score=0.7),
        ScoredRecord(record_id=2, evidence={"z": 0}, label=False, score=0.2),
    ]
    table = estimate_effects(net, records, "x", "y", "associational", t=1)
    np.testing.assert_allclose(table.categories[1].values, [0.3, 0.7], atol=1e-12)


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------

def _table(variable, values_by_cat):
    from rdtrial.rddo import CategoryEffect, EffectTable

    cats = []
    for name, vals in values_by_cat.items():
        arr = np.asarray(vals, dtype=np.float64)
        arr.setflags(write=False)
        cats.append(CategoryEffect(
            category=name, n=arr.size,
            mean=float(arr.mean()) if arr.size else float("nan"),
            std=float(arr.std()) if arr.size else float("nan"),
            failures=0, values=arr,
        ))
    return EffectTable(variable=variable, outcome="y", t=1, mode="associational",
                       categories=tuple(cats))


def test_rank_effects_orders_by_significant_separation():
    strong = _table("strong", {"a": np.zeros(40), "b": np.ones(40)})
    weak = _table("weak", {"a": np.zeros(40), "b": np.full(40, 0.3)})
    flat = _table("flat", {"a": np.full(40, 0.5), "b": np.full(40, 0.5)})
    ranked = rank_effects([weak, flat, strong], alpha=0.05)
    assert [t.variable for t in ranked] == ["strong", "weak", "flat"]
    assert [t.rank for t in ranked] == [1, 2, None]
    assert ranked[0].max_significant_diff == pytest.approx(1.0)
    assert ranked[1].max_significant_diff == pytest.approx(0.3)
    assert ranked[2].significant is False
    assert ranked[2].ks_p[("a", "b")] == 1.0


def test_rank_effects_alpha_gates_significance():
    strong = _table("strong", {"a": np.zeros(40), "b": np.ones(40)})
    ranked = rank_effects([strong], alpha=1e-300)
    assert ranked[0].significant is False
    assert ranked[0].rank is None


def test_rank_effects_empty_sample_pair_is_skipped():
    broken = _table("broken", {"a": np.zeros(10), "b": np.array([])})
    ranked = rank_effects([broken])
    assert ranked[0].ks_p[("a", "b")] is None
    assert ranked[0].significant is False


def test_rank_effects_keeps_unranked_input_order():
    f1 = _table("f1", {"a": np.full(5, 0.1), "b": np.full(5, 0.1)})
    f2 = _table("f2", {"a": np.full(5, 0.2), "b": np.full(5, 0.2)})
    ranked = rank_effects([f2, f1])
    assert [t.variable for t in ranked] == ["f2", "f1"]


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_run_config_defaults_and_paths(tmp_path):
    config = parse_run_config({"model": "m.json", "cohort": "c.csv"}, tmp_path)
    assert config.model_path == str(tmp_path / "m.json")
    assert config.cohort_path == str(tmp_path / "c.csv")
    assert config.k_min == 200 and config.alpha == 0.05
    assert config.variables == "all-prior"
    assert config.modes == ("associational", "causal")
    assert config.thresholds == "youden"
    assert config.split == (0.6, 0.2, 0.2)
    # threads is accepted for older configs but reaches no part of the run
    assert parse_run_config({"model": "m.json", "cohort": "c.csv", "threads": 4},
                            tmp_path) == config


def test_parse_run_config_rejections(tmp_path):
    good = {"model": "m.json", "cohort": "c.csv"}
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_run_config({**good, "bogus": 1}, tmp_path)
    with pytest.raises(ConfigError, match="alpha"):
        parse_run_config({**good, "alpha": 1.5}, tmp_path)
    with pytest.raises(ConfigError, match="k_min"):
        parse_run_config({**good, "k_min": 1}, tmp_path)
    with pytest.raises(ConfigError, match="mode"):
        parse_run_config({**good, "modes": ["causal", "magic"]}, tmp_path)
    with pytest.raises(ConfigError, match="split"):
        parse_run_config({**good, "split": [0.5, 0.2, 0.2]}, tmp_path)
    with pytest.raises(ConfigError, match="thresholds"):
        parse_run_config({**good, "thresholds": "roc"}, tmp_path)
    with pytest.raises(ConfigError, match="threads"):
        parse_run_config({**good, "threads": 0}, tmp_path)
    with pytest.raises(ConfigError, match="model"):
        parse_run_config({"cohort": "c.csv"}, tmp_path)


def test_parse_run_config_threshold_map_coercion(tmp_path):
    config = parse_run_config(
        {"model": "m", "cohort": "c", "thresholds": {"1": "0.43"}}, tmp_path
    )
    assert config.thresholds == {1: 0.43}


# ---------------------------------------------------------------------------
# end-to-end runner
# ---------------------------------------------------------------------------

def _write_scenario(tmp_path, spec):
    model_path = tmp_path / "model.json"
    cohort_path = tmp_path / "cohort.csv"
    save_model(spec.network, model_path)
    write_cohort_csv(sample_cohort(spec), cohort_path)
    return model_path, cohort_path


def test_run_rd_do_end_to_end(tmp_path):
    spec = make_confounded_scenario(bias=0.12, n=1500, seed=1)
    model_path, cohort_path = _write_scenario(tmp_path, spec)
    config = RunConfig(
        model_path=str(model_path),
        cohort_path=str(cohort_path),
        thresholds={1: spec.reference_threshold},
        split=None,
        k_min=200,
    )
    report = run_rd_do(config)
    assert report.best_time_point == 1
    # default balance set: every baseline column, treatment included
    assert set(report.covariates) == {"treat@0", *spec.covariates}
    (tp,) = report.time_points
    assert tp.status == "ok"
    assert tp.window is not None and tp.window.k >= 200
    assert tp.n_scored == 1500

    by_key = {(t.variable, t.mode): t for t in tp.tables}
    causal = by_key[("treat@0", "causal")]
    assoc = by_key[("treat@0", "associational")]
    assert causal.categories[1].mean == pytest.approx(0.50, abs=1e-9)
    assert causal.categories[0].mean == pytest.approx(0.30, abs=1e-9)
    assert assoc.categories[1].mean == pytest.approx(0.62, abs=1e-9)
    assert assoc.categories[0].mean == pytest.approx(0.24, abs=1e-9)
    # conservation inside the window
    for table in tp.tables:
        for cat in table.categories:
            assert cat.n + cat.failures == tp.window.k

    # the noise covariate has no causal route to the outcome
    rejected = {(r.variable, r.mode) for r in tp.rejected}
    assert ("noise@0", "causal") in rejected
    assert all(mode == "causal" for _, mode in rejected)

    # associational treatment effect is the top-ranked finding
    ranked = [t for t in tp.tables if t.mode == "associational" and t.rank == 1]
    assert ranked and ranked[0].variable == "treat@0"


def test_run_rd_do_no_random_window_when_too_few_records(tmp_path):
    spec = make_confounded_scenario(n=120, seed=3)
    model_path, cohort_path = _write_scenario(tmp_path, spec)
    config = RunConfig(
        model_path=str(model_path),
        cohort_path=str(cohort_path),
        thresholds={1: spec.reference_threshold},
        split=None,
        k_min=200,
    )
    report = run_rd_do(config)
    (tp,) = report.time_points
    assert tp.status == "no_random_window"
    assert "200" in tp.reason
    assert tp.tables == ()
    assert report.best_time_point is None


def test_run_rd_do_rejects_unknown_cohort_column(tmp_path):
    spec = make_confounded_scenario(n=30, seed=2)
    model_path = tmp_path / "model.json"
    save_model(spec.network, model_path)
    cohort = sample_cohort(spec)
    bad = Cohort(
        columns=cohort.columns[:-1] + ("intruder",),
        rows=cohort.rows,
        ids=cohort.ids,
    )
    cohort_path = tmp_path / "cohort.csv"
    write_cohort_csv(bad, cohort_path)
    config = RunConfig(model_path=str(model_path), cohort_path=str(cohort_path))
    with pytest.raises(DataError, match="intruder"):
        run_rd_do(config)


def test_run_rd_do_missing_files(tmp_path):
    with pytest.raises(ConfigError, match="model"):
        run_rd_do(RunConfig(model_path=str(tmp_path / "nope.json"),
                            cohort_path=str(tmp_path / "c.csv")))
    spec = make_confounded_scenario(n=10)
    model_path = tmp_path / "model.json"
    save_model(spec.network, model_path)
    with pytest.raises(ConfigError, match="cohort"):
        run_rd_do(RunConfig(model_path=str(model_path),
                            cohort_path=str(tmp_path / "ghost.csv")))


def test_run_rd_do_youden_split_path(tmp_path):
    spec = make_confounded_scenario(bias=0.12, n=4000, seed=7)
    model_path, cohort_path = _write_scenario(tmp_path, spec)
    config = RunConfig(
        model_path=str(model_path),
        cohort_path=str(cohort_path),
        thresholds="youden",
        split=(0.6, 0.2, 0.2),
        k_min=200,
        seed=0,
    )
    report = run_rd_do(config)
    (tp,) = report.time_points
    assert tp.status == "ok"
    # Youden picks a cut inside the score support; noisy labels can push it
    # off the midpoint, so only the support bounds are stable
    assert 0.09 < tp.threshold < 0.77
    # the test fold is a fifth of the cohort
    assert tp.n_scored == 800
