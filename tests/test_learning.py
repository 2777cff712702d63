"""Parameter fitting (MLE, EM) and cohort partitioning."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdtrial.cohort import Cohort
from rdtrial.errors import (
    EmptyParentConfiguration,
    IncompleteAssignment,
    InsufficientPositives,
    NonFiniteLikelihood,
    UnknownState,
)
from rdtrial import inference
from rdtrial.inference import dense_joint, log_evidence, row_log_likelihoods
from rdtrial.learning import (
    _collapse_patterns,
    _expected_counts,
    em_fit,
    mle_fit,
    outcome_labels,
    stratified_split,
)
from rdtrial.model import Cpt, DiscreteNetwork, VariableDef
from rdtrial.synth import make_confounded_scenario

from helpers import confounded_triple, panel_network, random_network


def _xy_structure() -> DiscreteNetwork:
    return DiscreteNetwork(
        variables=[
            VariableDef(name="x", states=("0", "1")),
            VariableDef(name="y", states=("0", "1")),
        ],
        arcs=[("x", "y")],
        cpts={
            "x": Cpt("x", (), np.array([[0.5, 0.5]])),
            "y": Cpt("y", ("x",), np.array([[0.5, 0.5], [0.5, 0.5]])),
        },
    )


# ---------------------------------------------------------------------------
# MLE
# ---------------------------------------------------------------------------

def test_mle_root_counts():
    net = _xy_structure()
    codes = np.column_stack(([1, 1, 1, 0], [0, 0, 0, 0]))  # x, y
    plain = mle_fit(net, codes, alpha=0.0)
    assert plain.cpts["x"].rows[0, 1] == 0.75
    smoothed = mle_fit(net, codes, alpha=1.0)
    assert smoothed.cpts["x"].rows[0, 1] == pytest.approx(4.0 / 6.0, abs=1e-15)


def test_mle_child_counts():
    net = _xy_structure()
    codes = np.column_stack(([0, 0, 1, 1], [0, 1, 1, 1]))
    plain = mle_fit(net, codes, alpha=0.0)
    np.testing.assert_allclose(plain.cpts["y"].rows, [[0.5, 0.5], [0.0, 1.0]], atol=1e-15)
    smoothed = mle_fit(net, codes, alpha=1.0)
    np.testing.assert_allclose(
        smoothed.cpts["y"].rows, [[0.5, 0.5], [0.25, 0.75]], atol=1e-15
    )


def test_mle_rejects_missing_values():
    net = _xy_structure()
    with pytest.raises(IncompleteAssignment):
        mle_fit(net, np.column_stack(([0, -1], [0, 1])))
    with pytest.raises(IncompleteAssignment):
        mle_fit(net, np.column_stack(([0, 1],)))


def test_mle_empty_parent_configuration():
    net = _xy_structure()
    codes = np.column_stack(([0, 0], [0, 1]))
    with pytest.raises(EmptyParentConfiguration):
        mle_fit(net, codes, alpha=0.0)
    # smoothing rescues the unseen configuration with a uniform row
    fitted = mle_fit(net, codes, alpha=1.0)
    np.testing.assert_allclose(fitted.cpts["y"].rows[1], [0.5, 0.5])


# ---------------------------------------------------------------------------
# EM
# ---------------------------------------------------------------------------

def _family_oracle(net: DiscreteNetwork, child: str, evidence: dict[str, int]) -> np.ndarray:
    """P(parents, child | evidence) from the dense joint, in CPT row order."""
    joint = dense_joint(net)
    for name, state in evidence.items():
        one_hot = np.zeros(net.card(name))
        one_hot[state] = 1.0
        shape = [1] * joint.ndim
        shape[net.index(name)] = -1
        joint = joint * one_hot.reshape(shape)
    family = [*net.cpts[child].parents, child]
    axes = [net.index(f) for f in family]
    fam = joint.sum(axis=tuple(i for i in range(joint.ndim) if i not in axes))
    # the summed table keeps the family axes in global index order
    fam = np.transpose(fam, [sorted(axes).index(a) for a in axes])
    return (fam / fam.sum()).reshape(net.cpts[child].n_configs, -1)


# Both families declare their parents out of global index order: y has
# parents (x, z) with z declared first, and the scenario's outcome@1 has
# parents (treat@0, conf@0, shift_a@1, shift_b@1) with conf@0 declared first.
_TRIPLE = confounded_triple()
_SCENARIO = make_confounded_scenario(n=10, seed=0).network


@pytest.mark.parametrize("net, child, evidence", [
    (_TRIPLE, "y", {}),
    (_TRIPLE, "y", {"x": 1}),
    (_TRIPLE, "y", {"y": 1}),
    (_TRIPLE, "y", {"x": 1, "z": 0, "y": 1}),
    (_SCENARIO, "outcome@1", {"cov_a@0": 2}),
    (_SCENARIO, "outcome@1", {"treat@0": 1, "shift_a@1": 2, "cov_b@0": 0}),
    (_SCENARIO, "outcome@1", {"outcome@1": 1, "marker@0": 1}),
    (_SCENARIO, "outcome@1", {"treat@0": 0, "conf@0": 1, "shift_a@1": 1,
                              "shift_b@1": 0, "outcome@1": 1, "noise@0": 2}),
], ids=[
    "triple-all-hidden", "triple-some-hidden", "triple-child-observed",
    "triple-all-observed", "scenario-all-hidden", "scenario-some-hidden",
    "scenario-child-observed", "scenario-all-observed",
])
def test_family_posterior_matches_dense_joint(net, child, evidence):
    counts, log_p = _expected_counts(net, inference._code_matrix(net, [evidence]), np.ones(1))
    got = counts[child].reshape(net.cpts[child].n_configs, -1)
    want = _family_oracle(net, child, evidence)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert log_p[0] == pytest.approx(log_evidence(net, evidence), rel=0, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_expected_counts_match_dense_joint_on_random_networks(seed, data):
    net = random_network(np.random.default_rng(seed), max_nodes=7)
    # each cell is a state index or -1 for missing
    cells = st.tuples(*[st.integers(-1, net.card(n) - 1) for n in net.names])
    rows = data.draw(st.lists(cells, min_size=1, max_size=4, unique=True))
    patterns = [{n: s for n, s in zip(net.names, row) if s >= 0} for row in rows]
    weights = np.array(data.draw(st.lists(
        st.integers(1, 9), min_size=len(rows), max_size=len(rows))), dtype=np.float64)

    counts, log_p = _expected_counts(net, inference._code_matrix(net, patterns), weights)
    for child in net.names:
        want = sum(w * _family_oracle(net, child, pat) for pat, w in zip(patterns, weights))
        got = counts[child].reshape(net.cpts[child].n_configs, -1)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    for pat, got in zip(patterns, log_p):
        assert got == pytest.approx(log_evidence(net, pat), rel=0, abs=1e-12)


def _reference_expected_counts(net, patterns, weights):
    """The per-pattern E-step: one one-row family-mode elimination per
    pattern, added into the count tensors in pattern order."""
    families = [tuple(net.index(f) for f in (*net.cpts[n].parents, n)) for n in net.names]
    counts = {n: np.zeros([net.card(net.names[i]) for i in fam])
              for n, fam in zip(net.names, families)}
    codes = np.array([[pat.get(n, -1) for n in net.names] for pat in patterns])
    log_p = np.zeros(len(patterns))
    for i, w in enumerate(weights):
        tables, lls, _ = inference._eliminate_all(net, set(), codes[i:i + 1], families=families)
        for name, table in zip(net.names, tables):
            counts[name] += w * table[0]
        log_p[i] = lls[0]
    return counts, log_p


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_expected_counts_equal_the_per_pattern_loop_bitwise(seed, data):
    net = random_network(np.random.default_rng(seed), max_nodes=7)
    cells = st.tuples(*[st.integers(-1, net.card(n) - 1) for n in net.names])
    rows = data.draw(st.lists(cells, min_size=1, max_size=12, unique=True))
    # few masks, so that patterns share masks and count cells
    masks = data.draw(st.lists(st.lists(st.booleans(), min_size=len(net.names),
                                        max_size=len(net.names)), min_size=1, max_size=3))
    patterns = []
    for i, row in enumerate(rows):
        mask = masks[i % len(masks)]
        pat = {n: s for n, s, on in zip(net.names, row, mask) if on and s >= 0}
        if pat not in patterns:
            patterns.append(pat)
    weights = np.arange(1.0, len(patterns) + 1) / 3.0
    counts, log_p = _expected_counts(net, inference._code_matrix(net, patterns), weights)
    want_counts, want_log_p = _reference_expected_counts(net, patterns, weights)
    assert np.array_equal(log_p, want_log_p)
    for name in net.names:
        assert np.array_equal(counts[name], want_counts[name])


def test_expected_counts_add_in_pattern_order_when_a_family_is_never_observed():
    # no pattern observes the root v5, so its family table is one row
    # broadcast over the patterns, with the pattern axis in memory order
    # first: sum(axis=0) would add those rows pairwise, not in pattern order
    net = random_network(np.random.default_rng(6191), max_nodes=7)
    cells = [(0, 0, 0), (0, 0, 1), (0, 0, -1), (0, 0, 2), (0, 1, 0), (0, -1, 0), (1, 0, 0), (-1, 0, 0)]
    patterns = [{n: s for n, s in zip(net.names, row) if s >= 0} for row in cells]
    weights = np.arange(1.0, len(patterns) + 1) / 3.0
    counts, log_p = _expected_counts(net, inference._code_matrix(net, patterns), weights)
    want_counts, want_log_p = _reference_expected_counts(net, patterns, weights)
    assert np.array_equal(log_p, want_log_p)
    for name in net.names:
        assert np.array_equal(counts[name], want_counts[name])


def test_em_single_iteration_hand_values():
    # rows: (x=1, y=1), (x=1, y=0), (x missing, y=1), uniform start.
    # E-step: P(x=1 | y=1) = 0.5 under the uniform initialization, so the
    # expected counts are x=1: 2.5, x=0: 0.5; (x=1, y=1): 1.5; (x=0, y=1): 0.5
    net = _xy_structure()
    codes = np.column_stack(([1, 1, -1], [1, 0, 1]))
    fitted, report = em_fit(net, codes, alpha=0.0, init="uniform", max_iter=1)
    assert fitted.cpts["x"].rows[0, 1] == pytest.approx(2.5 / 3.0, abs=1e-12)
    assert fitted.cpts["y"].rows[1, 1] == pytest.approx(0.6, abs=1e-12)
    assert fitted.cpts["y"].rows[0, 1] == pytest.approx(1.0, abs=1e-12)

    # trace: initialization, then the post-M-step parameters
    assert len(report.log_likelihood) == 2
    assert report.log_likelihood[0] == pytest.approx(
        math.log(0.25) + math.log(0.25) + math.log(0.5), abs=1e-12
    )
    expect = math.log(5 / 6 * 0.6) + math.log(5 / 6 * 0.4) + math.log(2 / 3)
    assert report.log_likelihood[1] == pytest.approx(expect, abs=1e-12)
    assert report.iterations == 1


def test_em_first_trace_entry_is_the_initial_log_likelihood():
    net = confounded_triple()
    rng = np.random.default_rng(5)
    codes = np.column_stack([rng.integers(-1, net.card(n), size=60) for n in net.names])
    _, report = em_fit(net, codes, init="given", max_iter=1)
    rows = [{n: s for n, s in zip(net.names, row) if s >= 0} for row in codes.tolist()]
    assert report.log_likelihood[0] == pytest.approx(
        float(row_log_likelihoods(net, rows).sum()), rel=0, abs=1e-9
    )


def test_em_complete_data_equals_mle_bitwise():
    rng = np.random.default_rng(8)
    for alpha in (0.0, 1.0):
        net = random_network(rng, max_nodes=6)
        codes = np.column_stack([rng.integers(0, net.card(n), size=80) for n in net.names])
        try:
            direct = mle_fit(net, codes, alpha=alpha)
        except EmptyParentConfiguration:
            continue
        via_em, report = em_fit(net, codes, alpha=alpha)
        for name in net.names:
            assert np.array_equal(direct.cpts[name].rows, via_em.cpts[name].rows)
        assert report.converged and report.iterations == 1


def test_em_complete_data_log_likelihood_is_the_per_row_log_evidence():
    # the complete-data shortcut scores every pattern as hard evidence in
    # one batched call; each row equals its own scalar query
    rng = np.random.default_rng(23)
    net = random_network(rng, max_nodes=6)
    codes = np.column_stack([rng.integers(0, net.card(n), size=300) for n in net.names])
    fitted, report = em_fit(net, codes, alpha=1.0)
    patterns, weights, _ = _collapse_patterns(net, codes)
    per_pattern = [log_evidence(fitted, p) for p in patterns]
    (ll,) = report.log_likelihood
    assert ll == pytest.approx(float(np.dot(weights, per_pattern)), rel=0, abs=1e-12)
    per_row = [log_evidence(fitted, dict(zip(net.names, row))) for row in codes.tolist()]
    assert ll == pytest.approx(math.fsum(per_row), rel=1e-12, abs=0)


def test_em_trace_is_non_decreasing():
    net = confounded_triple()
    rng = np.random.default_rng(17)
    n = 2000
    z = (rng.uniform(size=n) < net.cpts["z"].rows[0, 1]).astype(int)
    x = (rng.uniform(size=n) < net.cpts["x"].rows[z, 1]).astype(int)
    y = (rng.uniform(size=n) < net.cpts["y"].rows[x * 2 + z, 1]).astype(int)
    codes = np.column_stack((z, x, y))  # network order
    for j in range(3):
        mask = rng.uniform(size=n) < 0.2
        codes[mask, j] = -1
    _, report = em_fit(net, codes, alpha=0.0, init="uniform")
    trace = report.log_likelihood
    assert len(trace) >= 2
    for a, b in zip(trace, trace[1:]):
        assert b >= a - 1e-9


def test_em_trace_is_non_decreasing_on_an_unrolled_panel_network():
    # 14 nodes over four slices: every family's table comes from one
    # calibrated elimination per iteration
    rng = np.random.default_rng(31)
    net = panel_network(rng)
    assert len(net.names) == 14
    joint = dense_joint(net)
    cells = rng.choice(joint.size, size=400, p=joint.ravel())
    codes = np.stack(np.unravel_index(cells, joint.shape), axis=1)
    codes[rng.uniform(size=codes.shape) < 0.25] = -1
    _, report = em_fit(net, codes, alpha=0.0, init="uniform", max_iter=15)
    trace = report.log_likelihood
    assert len(trace) >= 3
    for a, b in zip(trace, trace[1:]):
        assert b >= a - 1e-9


def test_em_recovers_triple_under_mcar():
    net = confounded_triple()
    rng = np.random.default_rng(4)
    n = 6000
    z = (rng.uniform(size=n) < net.cpts["z"].rows[0, 1]).astype(int)
    x = (rng.uniform(size=n) < net.cpts["x"].rows[z, 1]).astype(int)
    y = (rng.uniform(size=n) < net.cpts["y"].rows[x * 2 + z, 1]).astype(int)
    codes = np.column_stack((z, x, y))  # network order
    for j in range(3):
        mask = rng.uniform(size=n) < 0.15
        codes[mask, j] = -1
    fitted, _ = em_fit(net, codes, alpha=0.0, init="uniform")
    for name in net.names:
        err = np.abs(fitted.cpts[name].rows - net.cpts[name].rows).max()
        assert err <= 0.1, f"{name}: max CPT error {err:.3f}"


def test_em_never_observed_variable_requires_smoothing():
    net = _xy_structure()
    codes = np.column_stack(([-1, -1, -1, -1], [0, 1, 1, 1]))
    with pytest.raises(EmptyParentConfiguration):
        em_fit(net, codes, alpha=0.0)
    fitted, _ = em_fit(net, codes, alpha=0.5)  # latent-style fit still runs
    np.testing.assert_allclose(fitted.cpts["x"].rows.sum(axis=1), [1.0], atol=1e-12)


def test_em_structural_zero_is_an_error():
    net = DiscreteNetwork(
        variables=[VariableDef(name="x", states=("0", "1"))],
        arcs=[],
        cpts={"x": Cpt("x", (), np.array([[0.0, 1.0]]))},
    )
    with pytest.raises(NonFiniteLikelihood):
        em_fit(net, np.array([[0], [-1]]), alpha=0.0, init="given")


def test_em_rejects_bad_arguments():
    net = _xy_structure()
    with pytest.raises(ValueError):
        em_fit(net, np.array([[0, 0]]), alpha=-0.5)
    with pytest.raises(ValueError):
        em_fit(net, np.empty((0, 2), dtype=np.int64), alpha=0.0)
    with pytest.raises(ValueError, match="max_iter"):
        em_fit(net, np.column_stack(([0, -1], [0, 1])), alpha=1.0, max_iter=0)


@pytest.mark.parametrize("alpha", [math.nan, math.inf])
@pytest.mark.parametrize("fit", [em_fit, mle_fit])
def test_fits_reject_a_non_finite_alpha(fit, alpha):
    # nan passes an alpha < 0 check and would write NaN into every CPT
    with pytest.raises(ValueError, match="alpha must be finite"):
        fit(_xy_structure(), np.column_stack(([0, 1], [1, 0])), alpha=alpha)


def test_fits_reject_bad_columns():
    # a column per variable in network order, of integer codes in [-1, card):
    # -1 is the only missing code; em_fit used to read -2 as missing
    net = _xy_structure()
    for bad in (np.array([[0], [-1]]), np.array([[0, 1, 0], [-1, 0, 1]]), np.array([0, -1])):
        with pytest.raises(IncompleteAssignment, match="a column per variable"):
            em_fit(net, bad, alpha=1.0)
        with pytest.raises(IncompleteAssignment, match="a column per variable"):
            mle_fit(net, bad)
    for dtype in (np.float64, bool, object):
        with pytest.raises(UnknownState, match="integer state indices"):
            em_fit(net, np.array([[0, 1], [1, 0]], dtype=dtype), alpha=1.0)
        with pytest.raises(UnknownState, match="integer state indices"):
            mle_fit(net, np.array([[0, 1], [1, 0]], dtype=dtype))
    for x, y, name in (([0, -2], [0, 1], "x"), ([0, 2], [0, 1], "x"), ([0, -1], [1, 5], "y")):
        with pytest.raises(UnknownState, match=f"column '{name}' holds codes outside"):
            em_fit(net, np.column_stack((x, y)), alpha=1.0)
        with pytest.raises(UnknownState, match=f"column '{name}' holds codes outside"):
            mle_fit(net, np.column_stack((x, y)))


# ---------------------------------------------------------------------------
# splitting and balancing
# ---------------------------------------------------------------------------

def _labelled_cohort(n_pos: int, n_neg: int) -> Cohort:
    rows = [("yes",)] * n_pos + [("no",)] * n_neg
    return Cohort.from_rows(columns=("y@1",), rows=rows)


def test_stratified_split_counts():
    cohort = _labelled_cohort(4, 6)
    train, valid, test = stratified_split(cohort, ["y@1"], "yes", (0.6, 0.2, 0.2), seed=0)
    assert (len(train), len(valid), len(test)) == (6, 2, 2)
    pos = [sum(1 for r in c.rows if r[0] == "yes") for c in (train, valid, test)]
    assert pos == [2, 1, 1]
    # folds partition the cohort, ids ascending inside each fold
    all_ids = np.concatenate([train.ids, valid.ids, test.ids])
    assert sorted(all_ids.tolist()) == list(range(10))
    for fold in (train, valid, test):
        assert np.all(np.diff(fold.ids) > 0)


def test_stratified_split_deterministic_per_seed():
    cohort = _labelled_cohort(10, 20)
    a = stratified_split(cohort, ["y@1"], "yes", seed=5)
    b = stratified_split(cohort, ["y@1"], "yes", seed=5)
    c = stratified_split(cohort, ["y@1"], "yes", seed=6)
    assert [f.ids.tolist() for f in a] == [f.ids.tolist() for f in b]
    assert [f.ids.tolist() for f in a] != [f.ids.tolist() for f in c]


def test_stratified_split_insufficient_positives():
    with pytest.raises(InsufficientPositives):
        stratified_split(_labelled_cohort(2, 10), ["y@1"], "yes")


def test_stratified_split_fraction_validation():
    cohort = _labelled_cohort(4, 6)
    with pytest.raises(ValueError):
        stratified_split(cohort, ["y@1"], "yes", (0.5, 0.2, 0.2))
    with pytest.raises(ValueError):
        stratified_split(cohort, ["y@1"], "yes", (1.0, 0.0, 0.0))


def test_outcome_labels_multiple_nodes():
    cohort = Cohort.from_rows(
        columns=("y@1", "y@2"),
        rows=[("no", "yes"), ("no", "no"), ("yes", None)],
    )
    labels = outcome_labels(cohort, ["y@1", "y@2"], "yes")
    assert labels.tolist() == [True, False, True]
