"""Window extraction and effect estimation around a decision threshold."""
from __future__ import annotations

from collections import Counter
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdtrial import rddo
from rdtrial.cohort import Cohort, write_cohort_csv
from rdtrial.errors import (
    ConfigError,
    DataError,
    DegenerateTable,
    NoCausalPath,
    TooFewRecords,
    ZeroProbabilityEvidence,
)
from rdtrial.inference import do_posterior, posterior
from rdtrial.model import (
    Cpt,
    DiscreteNetwork,
    VariableDef,
    has_directed_path,
    slice_rank,
    unroll,
)
from rdtrial.modelio import save_model
from rdtrial.rddo import (
    RunConfig,
    ScoredRecord,
    WindowScan,
    estimate_effects,
    parse_run_config,
    rank_effects,
    run_rd_do,
    scan_windows,
    score_cohort,
    select_window,
)
from rdtrial.synth import ScenarioSpec, make_confounded_scenario, sample_cohort

from helpers import (
    chain_network,
    confounded_triple,
    disjoint_union,
    panel_network,
    panel_template,
    random_network,
    reference_chi2_homogeneity,
    sample_power,
    scored_records,
    window_records,
    with_structural_zeros,
)


def _random_rows(rng, net, names, n, p_missing=0.4):
    """n rows of state indices over names, -1 for a missing cell; a third
    of the rows repeat an earlier one, so patterns recur."""
    cards = np.array([net.card(c) for c in names], dtype=np.int64)
    codes = (rng.random((n, len(names))) * cards).astype(np.int64)
    codes[rng.random((n, len(names))) < p_missing] = -1
    for r in range(1, n):
        if rng.random() < 1 / 3:
            codes[r] = codes[int(rng.integers(0, r))]
    return codes


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------

def test_score_cohort_hand_values():
    net = confounded_triple()
    cohort = Cohort.from_rows(
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
    cohort = Cohort.from_rows(
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
    cohort = Cohort.from_rows(columns=("z", "x", "y"), rows=rows)
    result = score_cohort(net, cohort, t=0, outcome="y")
    scores = {r.score for r in result.records}
    assert len(scores) == 2  # two patterns, two distinct scores
    assert len(result.records) == 1000


def test_score_cohort_records_share_one_read_only_mapping_per_pattern():
    net = confounded_triple()
    rows = [("1", "1", "0"), ("0", None, "1"), ("1", "1", "1"), ("0", None, "0")]
    result = score_cohort(net, Cohort.from_rows(columns=("z", "x", "y"), rows=rows), t=0, outcome="y")
    first, second, third, fourth = (r.evidence for r in result.records)
    assert first is third and second is fourth and first is not second
    assert first == {"z": 1, "x": 1} and second == {"z": 0}
    with pytest.raises(TypeError):
        first["z"] = 0


def _counting(monkeypatch, name):
    """Wrap rdtrial.rddo's binding of an inference query; returns the list
    of evidence names of each call (rddo passes the evidence last)."""
    calls = []
    query = getattr(rddo, name)

    def counted(net, target, *args):
        calls.append(sorted(args[-1]))
        return query(net, target, *args)

    monkeypatch.setattr(rddo, name, counted)
    return calls


def test_score_cohort_groups_records_by_requisite_evidence(monkeypatch):
    # on a -> b -> c, an observed b blocks a: the masks {a, b} and {b}
    # differ only in a cell the query on c ignores, so one call scores both
    net = chain_network()
    rows = [("0", "1", "1"), ("1", "1", "0"), (None, "1", "1"), ("1", "0", "0"), (None, "0", "1")]
    calls = _counting(monkeypatch, "posterior")
    result = score_cohort(net, Cohort.from_rows(columns=("a", "b", "c"), rows=rows), t=0, outcome="c")
    assert calls == [["b"]]
    for rec, row in zip(result.records, rows):
        b = int(row[1])
        assert rec.score == posterior(net, "c", {"b": b})[1]
        # the records keep every observed cell
        assert rec.evidence == ({"b": b} if row[0] is None else {"a": int(row[0]), "b": b})


def test_score_cohort_threshold_distance():
    net = confounded_triple()
    cohort = Cohort.from_rows(columns=("z", "x", "y"), rows=[("0", "1", "1")])
    result = score_cohort(net, cohort, t=0, outcome="y", threshold=0.5)
    assert result.records[0].distance == pytest.approx(0.2, abs=1e-12)


def test_score_cohort_error_paths():
    net = confounded_triple()  # no outcomes declared on the plain triple
    cohort = Cohort.from_rows(columns=("z", "x", "y"), rows=[("0", "1", "1")])
    with pytest.raises(ConfigError, match="time point"):
        score_cohort(net, cohort, t=0)
    with pytest.raises(DataError, match="outcome"):
        score_cohort(net, Cohort.from_rows(columns=("z", "x"), rows=[("0", "1")]), t=0, outcome="y")


def test_score_cohort_evidence_respects_time_slices():
    spec = make_confounded_scenario(n=40, seed=1)
    cohort = sample_cohort(spec)
    result = score_cohort(spec.network, cohort, t=1, outcome=spec.outcome)
    for rec in result.records:
        assert spec.outcome not in rec.evidence
        # slice-1 non-outcome observations are legitimate evidence at t=1
        assert any(name.endswith("@1") for name in rec.evidence) or rec.evidence == {}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_score_cohort_matches_a_per_record_reference_loop(seed):
    rng = np.random.default_rng(seed)
    net = with_structural_zeros(random_network(rng, min_nodes=3, max_nodes=7), rng)
    outcome = net.names[-1]
    codes = _random_rows(rng, net, net.names, int(rng.integers(1, 40)))
    cohort = Cohort.from_rows(
        columns=net.names,
        rows=[tuple(None if s < 0 else net.var(c).states[s] for c, s in zip(net.names, row))
              for row in codes.tolist()],
        ids=rng.permutation(len(codes)) + 100,
    )
    result = score_cohort(net, cohort, t=0, outcome=outcome, threshold=0.4)

    pos = net.card(outcome) - 1
    want, missing, impossible = [], [], []
    for rid, row in zip(cohort.ids.tolist(), codes.tolist()):
        ev = {c: s for c, s in zip(net.names, row) if s >= 0 and c != outcome}
        if row[-1] < 0:
            missing.append(rid)
            continue
        try:
            score = posterior(net, outcome, ev)[pos]
        except ZeroProbabilityEvidence:
            impossible.append(rid)
            continue
        want.append((rid, ev, row[-1] == pos, score, abs(score - 0.4)))
    got = [(r.record_id, r.evidence, r.label, r.score, r.distance) for r in result.records]
    assert got == want
    assert result.missing_outcome == tuple(missing)
    assert result.zero_probability == tuple(impossible)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([None, 0.4]), st.data())
def test_scored_records_view_equals_the_tuple_of_records(seed, threshold, data):
    # the records as one ScoredRecord per kept record, in cohort order, with
    # one read-only evidence mapping per distinct pattern
    rng = np.random.default_rng(seed)
    net = random_network(rng, min_nodes=2, max_nodes=6)
    outcome = net.names[-1]
    codes = _random_rows(rng, net, net.names, int(rng.integers(1, 40)))
    cohort = Cohort.from_rows(
        columns=net.names,
        rows=[tuple(None if s < 0 else net.var(c).states[s] for c, s in zip(net.names, row))
              for row in codes.tolist()],
    )
    view = score_cohort(net, cohort, t=0, outcome=outcome, threshold=threshold).records
    evidence = [MappingProxyType({c: v for c, v in zip(view.names, row) if v >= 0})
                for row in view.patterns.tolist()]
    want = tuple(
        ScoredRecord(rid, evidence[p], label, score,
                     None if threshold is None else abs(score - threshold))
        for rid, p, label, score in zip(view.ids.tolist(), view.pattern_of.tolist(),
                                        view.labels.tolist(), view.scores.tolist())
    )
    n = len(want)
    assert len(view) == n and tuple(view) == want
    assert [view[i] for i in range(-n, n)] == list(want + want)
    window = data.draw(st.slices(n))
    assert view[window] == want[window]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            view[i]
    for i in range(n):
        for j in range(n):
            same = view.pattern_of[i] == view.pattern_of[j]
            assert (view[i].evidence is view[j].evidence) == same


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
    if cov is None:
        return scored_records(scores, labels, ids=ids)
    return scored_records(scores, labels, ["c"], np.asarray(cov)[:, None], ids=ids)


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
        records = scored_records(scores, [True] * 40, names,
                                 np.column_stack([balanced, balanced, c, balanced]))
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


def _reference_scan(net, records, threshold, covariates, alpha, k_min, k_step, k_max):
    """scan_windows as one loop over windows, one reference test per window."""
    ranked = sorted(records, key=lambda r: (abs(r.score - threshold), r.record_id))
    k_cap = len(ranked) if k_max is None else min(k_max, len(ranked))
    level = alpha / len(covariates) if covariates else alpha
    out = []
    for k in range(k_min, k_cap + 1, k_step):
        inside, outside = ranked[:k], ranked[k:]
        p_values = {}
        for c in covariates:
            left, right = (
                np.bincount([r.evidence[c] for r in group if c in r.evidence],
                            minlength=net.card(c))
                for group in (inside, outside)
            )
            try:
                p_values[c] = reference_chi2_homogeneity(left, right).p_value
            except DegenerateTable:
                p_values[c] = None
        fp = sum(r.score >= threshold and not r.label for r in inside)
        fn = sum(r.score < threshold and r.label for r in inside)
        out.append((
            k, [r.record_id for r in inside], p_values,
            all(p is None or p >= level for p in p_values.values()),
            sample_power(fp, fn), fp, fn,
        ))
    return out


def _as_tuples(reports):
    return [
        (r.k, r.member_ids.tolist(), dict(r.p_values), r.randomized, r.power, r.fp, r.fn)
        for r in reports
    ]


@st.composite
def _scan_cases(draw):
    n = draw(st.integers(1, 80))
    cards = draw(st.lists(st.integers(1, 6), min_size=0, max_size=3))
    names = [f"c{i}" for i in range(len(cards))]
    net = DiscreteNetwork(
        variables=[VariableDef(name=v, states=tuple(map(str, range(card))))
                   for v, card in zip(names, cards)],
        arcs=[],
        cpts={v: Cpt(v, (), np.full((1, card), 1.0 / card))
              for v, card in zip(names, cards)},
    )
    # few distinct scores, so many records tie on distance
    grid = st.sampled_from([0.2, 0.35, 0.45, 0.5, 0.55, 0.65, 0.8])
    ids = draw(st.permutations(range(3 * n)))[:n]
    codes, labels, scores = [], [], []
    for _ in ids:
        # -1: missing cell
        codes.append([draw(st.integers(-1, card - 1)) for card in cards])
        labels.append(draw(st.booleans()))
        scores.append(draw(grid | st.floats(0.0, 1.0)))
    records = scored_records(scores, labels, names, codes, ids=ids)
    k_min = draw(st.integers(1, n))
    k_step = draw(st.integers(1, 9))
    k_max = draw(st.none() | st.integers(k_min, n + 5))
    return net, records, names, k_min, k_step, k_max


@settings(max_examples=150, deadline=None)
@given(_scan_cases(), st.sampled_from([0.5, 0.45, 0.62]), st.sampled_from([0.05, 0.5]))
def test_scan_windows_matches_a_per_window_reference_loop(case, threshold, alpha):
    net, records, names, k_min, k_step, k_max = case
    got = scan_windows(net, records, threshold, names, alpha=alpha,
                       k_min=k_min, k_step=k_step, k_max=k_max)
    # at most 6 categories per covariate: the p-values agree bit for bit
    assert _as_tuples(got) == _reference_scan(
        net, records, threshold, names, alpha, k_min, k_step, k_max)


def test_scan_windows_coarse_grid_counts_the_records_between_grid_points():
    # a k_step = 7 scan must report what the k_step = 1 scan reports at every
    # shared k: counts include the records between grid points
    rng = np.random.default_rng(11)
    n = 400
    net = DiscreteNetwork(
        variables=[VariableDef(name="a", states=("0", "1", "2")),
                   VariableDef(name="b", states=("0", "1"))],
        arcs=[],
        cpts={"a": Cpt("a", (), np.full((1, 3), 1 / 3)),
              "b": Cpt("b", (), np.full((1, 2), 0.5))},
    )
    scores = np.round(rng.uniform(0.2, 0.8, n), 2)  # rounding makes distance ties
    labels = rng.uniform(size=n) < scores
    a = rng.choice([-1, 0, 1, 2], size=n, p=[0.1, 0.5, 0.3, 0.1])
    # b is balanced except on the farthest tenth, where it is always 1:
    # small windows pass the gate, windows that leave mostly those out fail
    b = np.where(np.abs(scores - 0.5) < 0.27, rng.choice([-1, 0, 1], size=n), 1)
    records = scored_records(scores, labels, ["a", "b"], np.column_stack([a, b]))
    fine = scan_windows(net, records, 0.5, ["a", "b"], k_min=20, k_step=1, k_max=390)
    coarse = scan_windows(net, records, 0.5, ["a", "b"], k_min=20, k_step=7, k_max=390)
    by_k = {r.k: r for r in fine}
    assert [r.k for r in coarse] == list(range(20, 391, 7))
    for r in coarse:
        f = by_k[r.k]
        assert (r.fp, r.fn, r.power, dict(r.p_values), r.randomized) == (
            f.fp, f.fn, f.power, dict(f.p_values), f.randomized)
        assert r.member_ids.tolist() == f.member_ids.tolist()
    assert len({r.randomized for r in coarse}) == 2  # the gate both passes and rejects


@settings(max_examples=100, deadline=None)
@given(_scan_cases(), st.sampled_from([0.5, 0.45]), st.data())
def test_window_scan_items_equal_the_per_window_reference_loop(case, threshold, data):
    net, records, names, k_min, k_step, k_max = case
    scan = scan_windows(net, records, threshold, names, k_min=k_min, k_step=k_step, k_max=k_max)
    want = _reference_scan(net, records, threshold, names, 0.05, k_min, k_step, k_max)
    assert isinstance(scan, WindowScan) and len(scan) == len(want)
    assert _as_tuples(scan) == want
    assert _as_tuples(scan[i] for i in range(-len(scan), len(scan))) == want + want
    window = data.draw(st.slices(len(scan)))
    assert _as_tuples(scan[window]) == want[window]
    for i in (len(scan), -len(scan) - 1):
        with pytest.raises(IndexError):
            scan[i]


def _window_scan(rows):
    """A WindowScan whose windows have the given (k, randomized, power)."""
    ks = np.array([k for k, _, _ in rows], dtype=np.int64)
    zeros = np.zeros(len(rows), dtype=np.int64)
    return WindowScan(
        threshold=0.5, ks=ks, sorted_ids=np.arange(ks.max(initial=0)), chi2={},
        randomized=np.array([r for _, r, _ in rows], dtype=bool),
        power=np.array([p for _, _, p in rows], dtype=np.float64), fp=zeros, fn=zeros,
    )


def test_select_window_prefers_power_then_smaller_k():
    assert select_window(_window_scan([])) is None
    assert select_window(_window_scan([(10, False, 1.0), (20, False, 0.9)])) is None
    best = select_window(_window_scan([(10, True, 0.5), (20, True, 0.9), (30, True, 0.9)]))
    assert best.k == 20  # ties keep the smaller window
    lone = select_window(_window_scan([(10, False, 1.0), (20, True, 0.2)]))
    assert lone.k == 20


def _reference_select(reports):
    """select_window as the loop over reports: the first strictly better."""
    best = None
    for r in reports:
        if r.randomized and (best is None or r.power > best.power):
            best = r
    return best


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.tuples(st.booleans(), st.sampled_from([0.0, 0.5, 0.9, 1.0]) | st.floats(0.0, 1.0)),
    max_size=30,
))
def test_select_window_equals_the_reference_loop(columns):
    scan = _window_scan([(10 * (i + 1), r, p) for i, (r, p) in enumerate(columns)])
    got, want = select_window(scan), _reference_select(scan)
    assert (got is None) == (want is None)
    if want is not None:
        assert (got.k, got.power, got.randomized) == (want.k, want.power, True)


# ---------------------------------------------------------------------------
# effect estimation
# ---------------------------------------------------------------------------

def _window(net, evidence, ids=None):
    """Window cohort of records given as {node: state index} maps: one
    column per node some record observes, labels in state order."""
    columns = [name for name in net.names if any(name in ev for ev in evidence)]
    codes = np.array([[ev.get(c, -1) for c in columns] for ev in evidence],
                     dtype=np.int64).reshape(len(evidence), len(columns))
    return Cohort(columns, codes, [net.var(c).states for c in columns], ids)


def test_estimate_effects_with_observed_confounder():
    # Z in evidence blocks the back door: per-record causal and
    # associational values coincide and depend on the record's z
    net = confounded_triple()
    window = window_records(net, _window(net, [{"z": 0}, {"z": 1}]))
    assoc = estimate_effects(net, *window, "x", "y", "associational", t=1)
    causal = estimate_effects(net, *window, "x", "y", "causal", t=1)
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
    window = window_records(net, _window(net, [{}] * 8))
    assoc = estimate_effects(net, *window, "x", "y", "associational", t=1)
    causal = estimate_effects(net, *window, "x", "y", "causal", t=1)
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
    records = _window(net, [{"z": 0}, {"z": 0}, {"z": 1}])
    window = window_records(net, records)
    assoc = estimate_effects(net, *window, "x", "y", "associational", t=1)
    by_cat = {c.category: c for c in assoc.categories}
    assert by_cat["1"].failures == 2 and by_cat["1"].n == 1
    assert by_cat["0"].failures == 1 and by_cat["0"].n == 2
    for cat in assoc.categories:
        assert cat.n + cat.failures == len(records)
    # the mutilated graph severs z -> x, so causal mode has no failures
    causal = estimate_effects(net, *window, "x", "y", "causal", t=1)
    for cat in causal.categories:
        assert cat.failures == 0 and cat.n == 3


def _reference_effects(net, window, variable, outcome, mode):
    """The per-record loop: one scalar query per (record, category), on
    evidence read from the window's labels in record-id order."""
    pos = net.card(outcome) - 1
    excluded = set(net.outcomes.values()) | {outcome, variable}
    rank = slice_rank(variable)
    values = [[] for _ in range(net.card(variable))]
    for _, row in sorted(zip(window.ids.tolist(), window.rows)):
        ev = {n: net.state_index(n, label) for n, label in zip(window.columns, row)
              if label is not None and n in net and n not in excluded and slice_rank(n) <= rank}
        for x, out in enumerate(values):
            try:
                if mode == "causal":
                    out.append(do_posterior(net, outcome, (variable, x), ev)[pos])
                else:
                    out.append(posterior(net, outcome, {**ev, variable: x})[pos])
            except ZeroProbabilityEvidence:
                out.append(None)
    return values


def _assert_matches_reference(table, want):
    for cat, vals in zip(table.categories, want):
        arr = np.array([v for v in vals if v is not None], dtype=np.float64)
        assert cat.n == arr.size and cat.failures == vals.count(None)
        assert cat.values.tolist() == arr.tolist()
        if arr.size:
            assert (cat.mean, cat.std) == (float(arr.mean()), float(arr.std()))
        else:
            assert np.isnan(cat.mean) and np.isnan(cat.std)


def _modes(net, variable, outcome):
    return ["associational"] + (["causal"] if has_directed_path(net, variable, outcome) else [])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_estimate_effects_matches_a_per_record_reference_loop(seed):
    rng = np.random.default_rng(seed)
    net = with_structural_zeros(random_network(rng, min_nodes=3, max_nodes=7), rng)
    variable, outcome = (net.names[int(i)] for i in rng.choice(len(net.names), 2, replace=False))
    codes = _random_rows(rng, net, net.names, int(rng.integers(1, 30)))
    records = Cohort(net.names, codes, [v.states for v in net.variables],
                     rng.permutation(len(codes)))
    for mode in _modes(net, variable, outcome):
        table = estimate_effects(net, *window_records(net, records), variable, outcome, mode, t=1)
        want = _reference_effects(net, records, variable, outcome, mode)
        _assert_matches_reference(table, want)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_estimate_effects_on_random_window_cohorts_matches_the_reference_loop(data):
    # the window holds some model nodes as columns, in any order and with
    # labels in any order, plus a column the model lacks; its ids are
    # sparse and out of row order, and cells are missing or repeat
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    net = with_structural_zeros(random_network(rng, min_nodes=3, max_nodes=7), rng)
    variable, outcome = data.draw(st.permutations(net.names))[:2]
    columns = data.draw(st.lists(st.sampled_from(net.names), unique=True))
    n = data.draw(st.integers(1, 30))
    ids = data.draw(st.lists(st.integers(0, 10**9), min_size=n, max_size=n, unique=True))
    states = _random_rows(rng, net, columns, n)
    labels, codes = [], np.full((n, len(columns) + 1), -1)
    for j, name in enumerate(columns):
        perm = data.draw(st.permutations(range(net.card(name))))
        labels.append([net.var(name).states[i] for i in perm])
        held = states[:, j] >= 0
        codes[held, j] = np.argsort(perm)[states[held, j]]
    codes[:, -1] = rng.integers(-1, 2, n)
    window = Cohort([*columns, "not-a-node"], codes, [*labels, ("u", "v")], ids)
    for mode in _modes(net, variable, outcome):
        table = estimate_effects(net, *window_records(net, window), variable, outcome, mode, t=1)
        _assert_matches_reference(table, _reference_effects(net, window, variable, outcome, mode))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_estimate_effects_on_windows_of_a_scored_fold_matches_the_reference_loop(data):
    # the pipeline's input: a fold scored once (MCAR cells, structural zeros,
    # ids ascending and sparse), then windows drawn from its kept records,
    # each read for several variables in both modes
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    net = with_structural_zeros(random_network(rng, min_nodes=3, max_nodes=7), rng)
    outcome = data.draw(st.sampled_from(net.names))
    n = data.draw(st.integers(1, 40))
    codes = _random_rows(rng, net, net.names, n, p_missing=data.draw(st.floats(0.0, 0.8)))
    ids = np.sort(rng.choice(10**9, size=n, replace=False))
    fold = Cohort(net.names, codes, [v.states for v in net.variables], ids)
    records = score_cohort(net, fold, t=1, outcome=outcome).records
    variables = data.draw(st.lists(st.sampled_from([v for v in net.names if v != outcome]),
                                   min_size=1, max_size=3, unique=True))
    for _ in range(2):
        window = np.flatnonzero(rng.random(len(records)) < data.draw(st.floats(0.0, 1.0)))
        members = fold.subset(np.flatnonzero(np.isin(fold.ids, records.ids[window])))
        for variable in variables:
            for mode in _modes(net, variable, outcome):
                table = estimate_effects(net, records, window, variable, outcome, mode, t=1)
                _assert_matches_reference(
                    table, _reference_effects(net, members, variable, outcome, mode))


@pytest.mark.parametrize("mode, query", [("causal", "do_posterior"),
                                         ("associational", "posterior")])
def test_estimate_effects_groups_records_by_requisite_evidence(monkeypatch, mode, query):
    # on a -> b -> c, both do(b = x) and b = x cut a off from c: records
    # that differ only in a share one query
    net = chain_network()
    records = _window(net, [{"a": 0}, {"a": 1}, {}, {"a": 1}])
    calls = _counting(monkeypatch, query)
    table = estimate_effects(net, *window_records(net, records), "b", "c", mode, t=1)
    assert len(calls) == 1 and "a" not in calls[0]
    for x, cat in enumerate(table.categories):
        assert cat.n == len(records) and cat.failures == 0
        assert cat.values.tolist() == [posterior(net, "c", {"b": x})[1]] * len(records)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_estimate_effects_accounts_for_every_record_on_structural_zeros(seed):
    # pruning drops CPTs, never a row: n + failures is the window size, and
    # every failure is a record whose scalar query is impossible
    rng = np.random.default_rng(seed)
    net = with_structural_zeros(disjoint_union(random_network(rng, min_nodes=2, max_nodes=5),
                                               random_network(rng, min_nodes=1, max_nodes=3)), rng)
    variable, outcome = (net.names[int(i)] for i in rng.choice(len(net.names), 2, replace=False))
    codes = _random_rows(rng, net, net.names, int(rng.integers(1, 25)))
    records = Cohort(net.names, codes, [v.states for v in net.variables])
    for mode in _modes(net, variable, outcome):
        table = estimate_effects(net, *window_records(net, records), variable, outcome, mode, t=1)
        want = _reference_effects(net, records, variable, outcome, mode)
        for cat, vals in zip(table.categories, want):
            assert cat.n + cat.failures == len(records)
            assert cat.failures == vals.count(None)


def test_estimate_effects_rejects_bad_queries():
    net = confounded_triple()
    window = window_records(net, _window(net, [{}]))
    with pytest.raises(ValueError, match="mode"):
        estimate_effects(net, *window, "x", "y", "acausal", t=1)
    # y itself cannot precede y
    with pytest.raises(ValueError, match="precede"):
        estimate_effects(net, *window, "y", "y", "associational")


def test_estimate_effects_no_causal_path():
    spec = make_confounded_scenario(n=10)
    window = window_records(spec.network, _window(spec.network, [{}]))
    with pytest.raises(NoCausalPath):
        estimate_effects(spec.network, *window, "noise@0", spec.outcome, "causal")
    # associational mode still answers (flat, but defined)
    table = estimate_effects(spec.network, *window, "noise@0", spec.outcome, "associational")
    assert table.mode == "associational"


def test_estimate_effects_drops_later_slice_evidence():
    # shift_a@1 sits after treat@0: it must not enter the evidence, so the
    # result matches a query conditioned on the slice-0 values only
    spec = make_confounded_scenario(n=10)
    net = spec.network
    window = window_records(net, _window(net, [{"cov_a@0": 2, "shift_a@1": 0, spec.outcome: 1}]))
    table = estimate_effects(net, *window, "treat@0", spec.outcome, "associational")
    yes = net.state_index("treat@0", "yes")
    want = posterior(net, spec.outcome, {"treat@0": yes, "cov_a@0": 2})[1]
    assert table.categories[yes].values[0] == pytest.approx(want, abs=1e-15)


def test_estimate_effects_record_order_is_by_id():
    # window_records reads the records in ascending id; the values follow
    # whatever order the window gives
    net = confounded_triple()
    records, window = window_records(net, _window(net, [{"z": 1}, {"z": 0}], ids=[5, 2]))
    table = estimate_effects(net, records, window, "x", "y", "associational", t=1)
    np.testing.assert_allclose(table.categories[1].values, [0.3, 0.7], atol=1e-12)
    table = estimate_effects(net, records, window[::-1], "x", "y", "associational", t=1)
    np.testing.assert_allclose(table.categories[1].values, [0.7, 0.3], atol=1e-12)


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
    # outside (0, 1) every record falls on one side of the threshold
    for bad in (1.5, 1.0, 0.0, -0.2):
        with pytest.raises(ConfigError, match=r"time point 2 must be in \(0, 1\)"):
            parse_run_config({**good, "thresholds": {"1": 0.4, "2": bad}}, tmp_path)
    with pytest.raises(ConfigError, match="threads"):
        parse_run_config({**good, "threads": 0}, tmp_path)
    with pytest.raises(ConfigError, match="model"):
        parse_run_config({"cohort": "c.csv"}, tmp_path)
    for key, value in [
        ("alpha", "abc"), ("alpha", None), ("k_min", "x"), ("seed", "x"),
        ("k_max", [1]), ("split", ["a", "b", "c"]), ("time_points", ["a"]),
        ("thresholds", {"one": 0.4}), ("thresholds", {"1": "high"}),
    ]:
        with pytest.raises(ConfigError, match=key):
            parse_run_config({**good, key: value}, tmp_path)


def test_parse_run_config_threshold_map_coercion(tmp_path):
    # JSON object keys are strings; the values must be JSON numbers
    config = parse_run_config(
        {"model": "m", "cohort": "c", "thresholds": {"1": 0.43}}, tmp_path
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


def test_run_rd_do_no_random_window_when_gate_rejects_every_window(tmp_path):
    # a strong injector unbalances the marker inside the one allowed window
    spec = make_confounded_scenario(
        bias=0.12, n=2000, seed=0, injector_strength=3.0, injector_offset=0.25
    )
    model_path, cohort_path = _write_scenario(tmp_path, spec)
    config = RunConfig(
        model_path=str(model_path),
        cohort_path=str(cohort_path),
        thresholds={1: spec.reference_threshold},
        covariates=spec.covariates,
        split=None,
        k_min=1800,
        k_max=1800,
    )
    report = run_rd_do(config)
    (tp,) = report.time_points
    assert tp.status == "no_random_window"
    assert tp.reason == "no window passed the covariate gate"
    assert tp.n_windows == 1
    assert tp.tables == ()
    assert report.best_time_point is None


def _scan_fine_config(tmp_path, n, **extra):
    spec = make_confounded_scenario(bias=0.12, n=n, seed=1)
    model_path, cohort_path = _write_scenario(tmp_path, spec)
    return RunConfig(model_path=str(model_path), cohort_path=str(cohort_path),
                     thresholds={1: spec.reference_threshold}, split=None, **extra)


@pytest.mark.parametrize("covariate, message", [
    ("conf@0", "'conf@0' has no cohort column"),  # latent: a model node, no column
    ("outcome@1", "'outcome@1' is an outcome of the run"),
])
def test_run_rd_do_rejects_a_covariate_the_gate_cannot_test(tmp_path, covariate, message):
    # untested, such a covariate would pass every window
    config = _scan_fine_config(tmp_path, 300, covariates=(covariate,), k_min=50)
    with pytest.raises(ConfigError, match=message):
        run_rd_do(config)


def test_run_rd_do_rejects_a_covariate_after_a_scored_time_point(tmp_path):
    net = panel_network(np.random.default_rng(0), horizon=2)
    save_model(net, tmp_path / "model.json")
    columns = ("sex", "age@entry", "lab@0", "lab@1", "lab@2", "out@1", "out@2")
    write_cohort_csv(Cohort.from_rows(columns=columns, rows=[("f", "mid", "low", "low",
                                                              "high", "no", "yes")]),
                     tmp_path / "cohort.csv")
    config = RunConfig(model_path=str(tmp_path / "model.json"),
                       cohort_path=str(tmp_path / "cohort.csv"), outcome_base="out",
                       time_points=(1, 2), covariates=("sex", "lab@2"), split=None,
                       thresholds={1: 0.5, 2: 0.5})
    # at t = 1, lab@2 is no part of any record's evidence
    with pytest.raises(ConfigError, match="'lab@2' lies after time point 1"):
        run_rd_do(config)


def test_run_rd_do_builds_no_scored_record_and_few_chi2_tails(tmp_path, monkeypatch):
    import scipy.special

    config = _scan_fine_config(tmp_path, 1500, k_min=200)
    made = []
    record = rddo.ScoredRecord
    monkeypatch.setattr(rddo, "ScoredRecord", lambda *args: made.append(args) or record(*args))
    tails = []
    chdtrc = scipy.special.chdtrc
    monkeypatch.setattr(scipy.special, "chdtrc",
                        lambda d, x: tails.append(np.size(x)) or chdtrc(d, x))
    report = run_rd_do(config)
    (tp,) = report.time_points
    assert tp.status == "ok" and made == []
    # the gate decides 1,301 windows x 5 covariates mostly from the statistic
    assert 0 < sum(tails) < tp.n_windows * len(report.covariates)


# posterior + do_posterior calls on the config below (51 + 25), as many as
# when each table encoded its own copy of the window
_PANEL_RUN_QUERIES = 76


def test_run_rd_do_encodes_each_fold_once_and_subsets_no_window(tmp_path, monkeypatch):
    # a 3-time-point template run: score_cohort encodes each fold it scores
    # once, and the effect tables read their window from the scored columns,
    # so no table encodes or subsets it and the queries stay as they were
    template = panel_template(np.random.default_rng(5))
    spec = ScenarioSpec(network=unroll(template, 3), n=1500, seed=5, treatment="drug@0",
                        outcome="out@3", positive_state="yes", covariates=("sex", "age@entry"),
                        mcar={f"lab@{t}": 0.1 for t in range(4)})
    save_model(template, tmp_path / "model.json")
    write_cohort_csv(sample_cohort(spec), tmp_path / "cohort.csv")
    config = RunConfig(model_path=str(tmp_path / "model.json"),
                       cohort_path=str(tmp_path / "cohort.csv"), outcome_base="out",
                       time_points=(1, 2, 3), covariates=("sex", "age@entry"), alpha=0.01,
                       k_min=100, k_max=100, k_step=100)
    calls = Counter()  # (name, the innermost counted call open, or None) -> calls
    open_calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name, open_calls[-1] if open_calls else None] += 1
            open_calls.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                open_calls.pop()
        return wrapper

    for name in ("score_cohort", "encode_columns", "estimate_effects", "posterior", "do_posterior"):
        monkeypatch.setattr(rddo, name, counted(name, getattr(rddo, name)))
    monkeypatch.setattr(Cohort, "subset", counted("subset", Cohort.subset))
    report = run_rd_do(config)
    assert [tp.status for tp in report.time_points] == ["ok"] * 3

    def total(name):
        return sum(n for (called, _), n in calls.items() if called == name)

    assert calls["estimate_effects", None] == sum(
        len(tp.tables) + len(tp.rejected) for tp in report.time_points)
    # one Youden scoring of the validation fold and one of the test fold
    # per t, each encoding its fold once
    assert calls["score_cohort", None] == calls["encode_columns", "score_cohort"] == 6
    assert total("encode_columns") == 6
    # the split's three folds, and nothing per window or table
    assert calls["subset", None] == total("subset") == 3
    assert total("posterior") + total("do_posterior") == _PANEL_RUN_QUERIES


def test_run_rd_do_rejects_unknown_cohort_column(tmp_path):
    spec = make_confounded_scenario(n=30, seed=2)
    model_path = tmp_path / "model.json"
    save_model(spec.network, model_path)
    cohort = sample_cohort(spec)
    bad = Cohort.from_rows(
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
