"""Parameter fitting (MLE, EM) and cohort partitioning."""
from __future__ import annotations

import math

import numpy as np
import pytest

from rdtrial.cohort import Cohort
from rdtrial.errors import (
    EmptyClass,
    EmptyParentConfiguration,
    IncompleteAssignment,
    InsufficientPositives,
    NonFiniteLikelihood,
)
from rdtrial.inference import dense_joint
from rdtrial.learning import (
    _family_posterior,
    em_fit,
    mle_fit,
    outcome_labels,
    stratified_split,
    undersample,
)
from rdtrial.model import Cpt, DiscreteNetwork, VariableDef
from rdtrial.synth import confounded_triple, make_confounded_scenario

from helpers import random_network


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
    cols = {"x": np.array([1, 1, 1, 0]), "y": np.array([0, 0, 0, 0])}
    plain = mle_fit(net, cols, alpha=0.0)
    assert plain.cpts["x"].rows[0, 1] == 0.75
    smoothed = mle_fit(net, cols, alpha=1.0)
    assert smoothed.cpts["x"].rows[0, 1] == pytest.approx(4.0 / 6.0, abs=1e-15)


def test_mle_child_counts():
    net = _xy_structure()
    cols = {"x": np.array([0, 0, 1, 1]), "y": np.array([0, 1, 1, 1])}
    plain = mle_fit(net, cols, alpha=0.0)
    np.testing.assert_allclose(plain.cpts["y"].rows, [[0.5, 0.5], [0.0, 1.0]], atol=1e-15)
    smoothed = mle_fit(net, cols, alpha=1.0)
    np.testing.assert_allclose(
        smoothed.cpts["y"].rows, [[0.5, 0.5], [0.25, 0.75]], atol=1e-15
    )


def test_mle_rejects_missing_values():
    net = _xy_structure()
    with pytest.raises(IncompleteAssignment):
        mle_fit(net, {"x": np.array([0, -1]), "y": np.array([0, 1])})
    with pytest.raises(IncompleteAssignment):
        mle_fit(net, {"x": np.array([0, 1])})


def test_mle_empty_parent_configuration():
    net = _xy_structure()
    cols = {"x": np.array([0, 0]), "y": np.array([0, 1])}
    with pytest.raises(EmptyParentConfiguration):
        mle_fit(net, cols, alpha=0.0)
    # smoothing rescues the unseen configuration with a uniform row
    fitted = mle_fit(net, cols, alpha=1.0)
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
    got = _family_posterior(net, child, evidence)
    want = _family_oracle(net, child, evidence)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_em_single_iteration_hand_values():
    # rows: (x=1, y=1), (x=1, y=0), (x missing, y=1), uniform start.
    # E-step: P(x=1 | y=1) = 0.5 under the uniform initialization, so the
    # expected counts are x=1: 2.5, x=0: 0.5; (x=1, y=1): 1.5; (x=0, y=1): 0.5
    net = _xy_structure()
    cols = {"x": np.array([1, 1, -1]), "y": np.array([1, 0, 1])}
    fitted, report = em_fit(net, cols, alpha=0.0, init="uniform", max_iter=1)
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


def test_em_complete_data_equals_mle_bitwise():
    rng = np.random.default_rng(8)
    for alpha in (0.0, 1.0):
        net = random_network(rng, max_nodes=6)
        cols = {
            n: rng.integers(0, net.card(n), size=80) for n in net.names
        }
        try:
            direct = mle_fit(net, cols, alpha=alpha)
        except EmptyParentConfiguration:
            continue
        via_em, report = em_fit(net, cols, alpha=alpha)
        for name in net.names:
            assert np.array_equal(direct.cpts[name].rows, via_em.cpts[name].rows)
        assert report.converged and report.iterations == 1


def test_em_trace_is_non_decreasing():
    net = confounded_triple()
    rng = np.random.default_rng(17)
    n = 2000
    z = (rng.uniform(size=n) < net.cpts["z"].rows[0, 1]).astype(int)
    x = (rng.uniform(size=n) < net.cpts["x"].rows[z, 1]).astype(int)
    y = (rng.uniform(size=n) < net.cpts["y"].rows[x * 2 + z, 1]).astype(int)
    cols = {"z": z.copy(), "x": x.copy(), "y": y.copy()}
    for name in cols:
        mask = rng.uniform(size=n) < 0.2
        cols[name][mask] = -1
    _, report = em_fit(net, cols, alpha=0.0, init="uniform")
    trace = report.log_likelihood
    assert len(trace) >= 2
    for a, b in zip(trace, trace[1:]):
        assert b >= a - 1e-9


def test_em_recovers_triple_under_mcar():
    net = confounded_triple()
    rng = np.random.default_rng(4)
    n = 6000
    z = (rng.uniform(size=n) < net.cpts["z"].rows[0, 1]).astype(int)
    x = (rng.uniform(size=n) < net.cpts["x"].rows[z, 1]).astype(int)
    y = (rng.uniform(size=n) < net.cpts["y"].rows[x * 2 + z, 1]).astype(int)
    cols = {"z": z.copy(), "x": x.copy(), "y": y.copy()}
    for name in cols:
        mask = rng.uniform(size=n) < 0.15
        cols[name][mask] = -1
    fitted, _ = em_fit(net, cols, alpha=0.0, init="uniform")
    for name in net.names:
        err = np.abs(fitted.cpts[name].rows - net.cpts[name].rows).max()
        assert err <= 0.1, f"{name}: max CPT error {err:.3f}"


def test_em_never_observed_variable_requires_smoothing():
    net = _xy_structure()
    cols = {"x": np.full(4, -1), "y": np.array([0, 1, 1, 1])}
    with pytest.raises(EmptyParentConfiguration):
        em_fit(net, cols, alpha=0.0)
    fitted, _ = em_fit(net, cols, alpha=0.5)  # latent-style fit still runs
    np.testing.assert_allclose(fitted.cpts["x"].rows.sum(axis=1), [1.0], atol=1e-12)


def test_em_structural_zero_is_an_error():
    net = DiscreteNetwork(
        variables=[VariableDef(name="x", states=("0", "1"))],
        arcs=[],
        cpts={"x": Cpt("x", (), np.array([[0.0, 1.0]]))},
    )
    cols = {"x": np.array([0, -1])}
    with pytest.raises(NonFiniteLikelihood):
        em_fit(net, cols, alpha=0.0, init="given")


def test_em_rejects_bad_arguments():
    net = _xy_structure()
    with pytest.raises(ValueError):
        em_fit(net, {"x": np.array([0]), "y": np.array([0])}, alpha=-0.5)
    with pytest.raises(ValueError):
        em_fit(net, {}, alpha=0.0)


# ---------------------------------------------------------------------------
# splitting and balancing
# ---------------------------------------------------------------------------

def _labelled_cohort(n_pos: int, n_neg: int) -> Cohort:
    rows = [("yes",)] * n_pos + [("no",)] * n_neg
    return Cohort(columns=("y@1",), rows=rows)


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


def test_undersample_balances_classes():
    cohort = _labelled_cohort(2, 6)
    balanced = undersample(cohort, ["y@1"], "yes", seed=3)
    labels = outcome_labels(balanced, ["y@1"], "yes")
    assert len(balanced) == 4
    assert int(labels.sum()) == 2
    assert np.all(np.diff(balanced.ids) > 0)
    with pytest.raises(EmptyClass):
        undersample(_labelled_cohort(0, 5), ["y@1"], "yes")


def test_outcome_labels_multiple_nodes():
    cohort = Cohort(
        columns=("y@1", "y@2"),
        rows=[("no", "yes"), ("no", "no"), ("yes", None)],
    )
    labels = outcome_labels(cohort, ["y@1", "y@2"], "yes")
    assert labels.tolist() == [True, False, True]
