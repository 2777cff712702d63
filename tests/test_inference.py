"""Exact inference: VE against enumeration, hand values, do-operator."""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdtrial import inference
from rdtrial.errors import (
    IncompleteAssignment,
    InvalidQuery,
    TooLargeForEnumeration,
    UnknownState,
    UnknownVariable,
    ZeroProbabilityEvidence,
)
from rdtrial.inference import (
    dense_joint,
    do_posterior,
    enumerate_posterior,
    joint_probability,
    log_evidence,
    posterior,
    requisite,
    row_log_likelihoods,
)
from rdtrial.model import Cpt, DiscreteNetwork, VariableDef, mutilate
from rdtrial.synth import confounded_triple

from helpers import (
    chain_network,
    disjoint_union,
    random_evidence,
    random_network,
    with_structural_zeros,
)


# ---------------------------------------------------------------------------
# hand-computed values on the chain a -> b -> c
# ---------------------------------------------------------------------------
# a: P(1)=0.3;  b|a: P(1|a=0)=0.1, P(1|a=1)=0.6;  c|b: P(1|b=0)=0.2, P(1|b=1)=0.75

def test_chain_prior_marginals():
    net = chain_network()
    p_b1 = 0.7 * 0.1 + 0.3 * 0.6
    p_c1 = (1 - p_b1) * 0.2 + p_b1 * 0.75
    assert posterior(net, "b")[1] == pytest.approx(p_b1, abs=1e-12)
    assert posterior(net, "c")[1] == pytest.approx(p_c1, abs=1e-12)


def test_chain_predictive_and_diagnostic():
    net = chain_network()
    # forward: P(c=1 | a=1) = 0.4*0.2 + 0.6*0.75
    assert posterior(net, "c", {"a": 1})[1] == pytest.approx(0.53, abs=1e-12)
    # backward, by Bayes: P(a=1 | c=1) = P(a=1) P(c=1|a=1) / P(c=1)
    p_c1 = 0.75 * 0.2 + 0.25 * 0.75
    expect = 0.3 * 0.53 / p_c1
    assert posterior(net, "a", {"c": 1})[1] == pytest.approx(expect, abs=1e-12)


def test_posterior_object_shape():
    net = chain_network()
    post = posterior(net, "b", {"a": 0})
    assert post.target == "b"
    assert post.states == ("0", "1")
    assert post.probs.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        post.probs[0] = 0.5  # read-only


def test_evidence_validation():
    net = chain_network()
    with pytest.raises(Exception, match="zzz"):
        posterior(net, "c", {"zzz": 0})
    with pytest.raises(Exception, match="state"):
        posterior(net, "c", {"a": 5})
    with pytest.raises(ValueError, match="evidence"):
        posterior(net, "a", {"a": 1})


def test_zero_probability_evidence():
    # b is a deterministic copy of a, so a=0, b=1 is impossible
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
            "c": Cpt("c", ("b",), np.array([[0.5, 0.5], [0.5, 0.5]])),
        },
    )
    with pytest.raises(ZeroProbabilityEvidence):
        posterior(net, "c", {"a": 0, "b": 1})
    assert log_evidence(net, {"a": 0, "b": 1}) == float("-inf")


def test_elimination_order_independence():
    # the order ranges over non-target, non-evidence variables only
    rng = np.random.default_rng(19)
    net = random_network(rng, min_nodes=5, max_nodes=5)
    base = posterior(net, "v4").probs
    for order in itertools.permutations(["v0", "v1", "v2", "v3"]):
        alt = posterior(net, "v4", elimination_order=list(order)).probs
        np.testing.assert_allclose(alt, base, atol=1e-12)
    with pytest.raises(ValueError, match="elimination_order"):
        posterior(net, "v4", {"v0": 0}, elimination_order=["v0", "v1", "v2", "v3"])
    with pytest.raises(ValueError, match="elimination_order"):
        posterior(net, "v4", elimination_order=["v0", "v0", "v1", "v2", "v3"])


# ---------------------------------------------------------------------------
# VE vs dense-joint enumeration on random networks
# ---------------------------------------------------------------------------

def test_posterior_matches_enumeration_on_random_networks():
    rng = np.random.default_rng(7)
    for _ in range(40):
        net = random_network(rng)
        target = net.names[int(rng.integers(0, len(net.names)))]
        evidence = random_evidence(rng, net, exclude=(target,))
        try:
            fast = posterior(net, target, evidence).probs
        except ZeroProbabilityEvidence:
            continue  # Dirichlet rows make this vanishingly rare
        slow = enumerate_posterior(net, target, evidence).probs
        np.testing.assert_allclose(fast, slow, atol=1e-9)


def test_log_evidence_matches_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(20):
        net = random_network(rng, max_nodes=8)
        evidence = random_evidence(rng, net)
        joint = dense_joint(net)
        idx = [slice(None)] * len(net.names)
        for name, state in evidence.items():
            idx[net.index(name)] = state
        brute = float(joint[tuple(idx)].sum())
        assert log_evidence(net, evidence) == pytest.approx(math.log(brute), abs=1e-9)


def test_log_evidence_does_not_underflow_on_a_long_chain():
    # P(row) = 0.5 * 0.01**299, far below the smallest double: a product of
    # the CPT entries used to underflow to 0 and read as impossible
    n = 300
    variables = [VariableDef(name=f"v{i}", states=("0", "1")) for i in range(n)]
    cpts = {"v0": Cpt("v0", (), np.array([[0.5, 0.5]]))}
    for i in range(1, n):
        cpts[f"v{i}"] = Cpt(f"v{i}", (f"v{i - 1}",), np.array([[0.99, 0.01], [0.01, 0.99]]))
    net = DiscreteNetwork(variables, [(f"v{i - 1}", f"v{i}") for i in range(1, n)], cpts)
    row = {f"v{i}": i % 2 for i in range(n)}
    want = math.log(0.5) + (n - 1) * math.log(0.01)
    assert log_evidence(net, row) == pytest.approx(want, rel=1e-12)
    assert row_log_likelihoods(net, [row])[0] == pytest.approx(want, rel=1e-12)
    assert posterior(net, "v0", {k: s for k, s in row.items() if k != "v0"})[1] == pytest.approx(
        0.99, rel=1e-12)


# ---------------------------------------------------------------------------
# batched evidence: one elimination per missingness mask
# ---------------------------------------------------------------------------

def _scalar_or_nan(query, card):
    try:
        return query().probs
    except ZeroProbabilityEvidence:
        return np.full(card, np.nan)


def _oracle(net, target, evidence, skip=None):
    """Dense-joint P(target | evidence), with skip's CPT left out (the
    truncated factorization of do(skip)); nan when the evidence is impossible."""
    joint = dense_joint(net, skip_cpt=skip)
    idx = [slice(None)] * len(net.names)
    for name, state in evidence.items():
        idx[net.index(name)] = slice(state, state + 1)
    sub = joint[tuple(idx)]
    marg = sub.sum(axis=tuple(i for i in range(sub.ndim) if i != net.index(target)))
    total = float(marg.sum())
    return marg / total if total > 0 else np.full(marg.shape, np.nan), total


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_batched_queries_equal_scalar_calls_row_by_row(seed):
    rng = np.random.default_rng(seed)
    net = with_structural_zeros(random_network(rng, min_nodes=3, max_nodes=7), rng)
    target, x = (net.names[int(i)] for i in rng.choice(len(net.names), 2, replace=False))
    others = [n for n in net.names if n not in (target, x)]
    cards = np.array([net.card(n) for n in others], dtype=np.int64)
    # a few masks, rows assigned to them at random; duplicate rows allowed
    masks = rng.random((int(rng.integers(1, 4)), len(others))) < 0.6
    rows = int(rng.integers(1, 13))
    mask_of = rng.integers(0, len(masks), size=rows)
    codes = (rng.random((rows, len(others))) * cards).astype(np.int64)
    xs = rng.integers(0, net.card(x), size=rows)

    for m, mask in enumerate(masks):
        sel = np.flatnonzero(mask_of == m)
        if sel.size == 0:
            continue
        observed = [n for n, on in zip(others, mask) if on]
        ev = {n: codes[sel, others.index(n)] for n in observed}
        do = do_posterior(net, target, (x, xs[sel]), ev).probs
        post = posterior(net, target, ev).probs if ev else None
        log_p = log_evidence(net, ev) if ev else None
        for i, r in enumerate(sel):
            row = {n: int(codes[r, others.index(n)]) for n in observed}
            card = net.card(target)
            want_do = _scalar_or_nan(lambda: do_posterior(net, target, (x, int(xs[r])), row), card)
            assert np.array_equal(do[i], want_do, equal_nan=True)
            truth, _ = _oracle(net, target, {**row, x: int(xs[r])}, skip=x)
            np.testing.assert_allclose(do[i], truth, rtol=0, atol=1e-12)
            if not ev:
                continue
            want = _scalar_or_nan(lambda: posterior(net, target, row), card)
            assert np.array_equal(post[i], want, equal_nan=True)
            truth, total = _oracle(net, target, row)
            np.testing.assert_allclose(post[i], truth, rtol=0, atol=1e-12)
            assert log_p[i] == log_evidence(net, row)
            if total > 0:
                assert log_p[i] == pytest.approx(math.log(total), rel=0, abs=1e-12)
            else:
                assert log_p[i] == -math.inf and np.isnan(post[i]).all()

        # reordering or splitting the batch moves rows, never their bits
        perm = rng.permutation(sel.size)
        shuffled = do_posterior(net, target, (x, xs[sel][perm]), {n: v[perm] for n, v in ev.items()})
        assert np.array_equal(shuffled.probs, do[perm], equal_nan=True)
        if ev:
            cut = sel.size // 2 or 1
            parts = [posterior(net, target, {n: v[part] for n, v in ev.items()}).probs
                     for part in (slice(None, cut), slice(cut, None)) if len(sel[part])]
            assert np.array_equal(np.concatenate(parts), post, equal_nan=True)
            shuffled = log_evidence(net, {n: v[perm] for n, v in ev.items()})
            assert np.array_equal(shuffled, log_p[perm])


def test_batched_impossible_rows_do_not_poison_the_others():
    # b is a deterministic copy of a: rows with a != b are impossible
    net = DiscreteNetwork(
        variables=[VariableDef(name=n, states=("0", "1")) for n in "abc"],
        arcs=[("a", "b"), ("b", "c")],
        cpts={
            "a": Cpt("a", (), np.array([[0.5, 0.5]])),
            "b": Cpt("b", ("a",), np.array([[1.0, 0.0], [0.0, 1.0]])),
            "c": Cpt("c", ("b",), np.array([[0.8, 0.2], [0.3, 0.7]])),
        },
    )
    a, b = np.array([0, 0, 1, 1]), np.array([1, 0, 0, 1])
    post = posterior(net, "c", {"a": a, "b": b}).probs
    log_p = log_evidence(net, {"a": a, "b": b})
    assert np.isnan(post[[0, 2]]).all() and (log_p[[0, 2]] == -math.inf).all()
    assert np.array_equal(post[1], posterior(net, "c", {"a": 0, "b": 0}).probs)
    assert np.array_equal(post[3], posterior(net, "c", {"a": 1, "b": 1}).probs)
    assert log_p[1] == log_evidence(net, {"a": 0, "b": 0}) == math.log(0.5)
    # the do-state may be the batched value; scalar evidence broadcasts
    do = do_posterior(net, "c", ("b", np.array([0, 1, 1])), {"a": 0}).probs
    assert np.array_equal(do[1], do[2])
    assert do[0] == pytest.approx([0.8, 0.2], abs=1e-15)
    assert do[1] == pytest.approx([0.3, 0.7], abs=1e-15)
    # a batch of one is the scalar query with a leading axis
    one = posterior(net, "c", {"a": np.array([1])})
    assert one.probs.shape == (1, 2)
    assert np.array_equal(one.probs[0], posterior(net, "c", {"a": 1}).probs)
    with pytest.raises(TypeError, match="batched"):
        one[1]


def test_batched_evidence_validation():
    net = chain_network()
    with pytest.raises(Exception, match="state"):
        posterior(net, "c", {"a": np.array([0, 2])})
    with pytest.raises(ValueError, match="length"):
        posterior(net, "c", {"a": np.array([0, 1]), "b": np.array([0, 1, 1])})
    with pytest.raises(ValueError, match="1-D integer array"):
        posterior(net, "c", {"a": np.array([0.0, 1.0])})
    with pytest.raises(ValueError, match="1-D integer array"):
        posterior(net, "c", {"a": np.zeros((2, 2), dtype=int)})
    with pytest.raises(ValueError, match="contradicts"):
        do_posterior(net, "c", ("a", np.array([0, 1])), {"a": np.array([0, 0])})


# ---------------------------------------------------------------------------
# code matrices: missing cells as evidence indicators
# ---------------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_code_matrix_rows_equal_hard_evidence_and_the_dense_joint(seed):
    rng = np.random.default_rng(seed)
    net = with_structural_zeros(random_network(rng, min_nodes=3, max_nodes=7), rng)
    n = len(net.names)
    cards = np.array([net.card(name) for name in net.names])
    rows = int(rng.integers(1, 13))
    codes = (rng.random((rows, n)) * cards).astype(np.intp)
    codes[rng.random((rows, n)) < 0.4] = -1
    keep = {int(v) for v in rng.choice(n, size=int(rng.integers(0, 4)), replace=False)}
    table, log_p, kept = inference._eliminate_all(net, keep, codes)
    assert kept == tuple(sorted(keep)) and table.shape == (rows, *cards[list(kept)])

    joint = dense_joint(net)
    for i, row in enumerate(codes):
        # oracle: the joint times one-hot indicators, non-kept axes summed out
        sub = joint
        for v in np.flatnonzero(row >= 0):
            shape = [1] * n
            shape[v] = -1
            sub = sub * (np.arange(cards[v]) == row[v]).reshape(shape)
        marg = sub.sum(axis=tuple(v for v in range(n) if v not in keep))
        total = float(marg.sum())
        if total == 0.0:
            assert log_p[i] == -math.inf and not table[i].any()
            continue
        np.testing.assert_allclose(table[i], marg / total, rtol=0, atol=1e-12)
        assert log_p[i] == pytest.approx(math.log(total), rel=0, abs=1e-12)

        # hard evidence on the observed subset: kept observed axes are fixed
        seen = {net.names[v]: np.array([row[v]]) for v in np.flatnonzero(row >= 0)}
        hidden = {v for v in keep if row[v] < 0}
        hard, hard_log_p, _ = inference._eliminate_all(net, hidden, seen)
        at = tuple(int(row[v]) if row[v] >= 0 else slice(None) for v in kept)
        np.testing.assert_allclose(table[i][at], hard[0], rtol=0, atol=1e-12)
        assert log_p[i] == pytest.approx(hard_log_p[0], rel=0, abs=1e-12)
        # a kept observed axis comes back one-hot: off its state, exact zeros
        for axis, v in enumerate(kept):
            if row[v] >= 0:
                off = np.delete(table[i], row[v], axis=axis)
                assert not off.any()
                if len(kept) == 1:
                    assert table[i][row[v]] == 1.0

    # a row's bits do not depend on the rest of the batch
    for i in range(rows):
        one, one_log_p, _ = inference._eliminate_all(net, keep, codes[i:i + 1])
        assert np.array_equal(one[0], table[i]) and one_log_p[0] == log_p[i]
    perm = rng.permutation(rows)
    shuffled, shuffled_log_p, _ = inference._eliminate_all(net, keep, codes[perm])
    assert np.array_equal(shuffled, table[perm]) and np.array_equal(shuffled_log_p, log_p[perm])
    cut = rows // 2 or 1
    parts = [inference._eliminate_all(net, keep, codes[part])
             for part in (slice(None, cut), slice(cut, None)) if len(codes[part])]
    assert np.array_equal(np.concatenate([p[0] for p in parts]), table)
    assert np.array_equal(np.concatenate([p[1] for p in parts]), log_p)


def test_code_matrix_impossible_rows_do_not_poison_the_others():
    # b is a deterministic copy of a: a row observing a != b is impossible
    net = DiscreteNetwork(
        variables=[VariableDef(name=n, states=("0", "1")) for n in "abc"],
        arcs=[("a", "b"), ("b", "c")],
        cpts={
            "a": Cpt("a", (), np.array([[0.5, 0.5]])),
            "b": Cpt("b", ("a",), np.array([[1.0, 0.0], [0.0, 1.0]])),
            "c": Cpt("c", ("b",), np.array([[0.8, 0.2], [0.3, 0.7]])),
        },
    )
    codes = np.array([[0, 1, -1], [-1, 1, 0], [1, 0, 0], [-1, -1, -1]])
    table, log_p, kept = inference._eliminate_all(net, {0, 2}, codes)
    assert kept == (0, 2)
    assert not table[[0, 2]].any() and (log_p[[0, 2]] == -math.inf).all()
    # b = 1 forces a = 1; the observed c = 0 comes back one-hot
    assert np.array_equal(table[1], [[0.0, 0.0], [1.0, 0.0]])
    assert log_p[1] == pytest.approx(math.log(0.5 * 0.3), rel=0, abs=1e-15)
    np.testing.assert_allclose(table[3], [[0.4, 0.1], [0.15, 0.35]], rtol=0, atol=1e-15)
    out = row_log_likelihoods(net, [{"a": 0, "b": 1}, {"b": 1, "c": 0}, {}])
    assert out[0] == -math.inf and out[2] == 0.0
    assert out[1] == pytest.approx(math.log(0.5 * 0.3), rel=0, abs=1e-15)


# ---------------------------------------------------------------------------
# family mode: one calibrated elimination gives every family's table
# ---------------------------------------------------------------------------

def _families(net):
    return [tuple(net.index(f) for f in (*net.cpts[n].parents, n)) for n in net.names]


def _family_oracle(joint, cards, row, family):
    """P(family | observed cells of row) from the dense joint, axes in
    family order; all zeros when the row is impossible."""
    sub = joint
    for v in np.flatnonzero(row >= 0):
        shape = [1] * len(cards)
        shape[v] = -1
        sub = sub * (np.arange(cards[v]) == row[v]).reshape(shape)
    marg = sub.sum(axis=tuple(v for v in range(len(cards)) if v not in family))
    marg = np.transpose(marg, [sorted(family).index(v) for v in family])
    total = float(marg.sum())
    return marg / total if total > 0 else marg


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["plain", "zeros", "forest", "one-node"]))
def test_family_mode_matches_the_dense_joint_and_plain_elimination(seed, kind):
    rng = np.random.default_rng(seed)
    if kind == "one-node":
        net = random_network(rng, min_nodes=1, max_nodes=1)
    elif kind == "forest":
        net = disjoint_union(random_network(rng, min_nodes=1, max_nodes=4),
                             random_network(rng, min_nodes=1, max_nodes=4))
    else:
        net = random_network(rng, min_nodes=2, max_nodes=7)
    if kind != "plain":
        net = with_structural_zeros(net, rng)
    n = len(net.names)
    cards = np.array([net.card(name) for name in net.names])
    rows = int(rng.integers(1, 13))
    codes = (rng.random((rows, n)) * cards).astype(np.intp)
    codes[rng.random((rows, n)) < rng.random()] = -1
    codes[rng.random(rows) < 0.15] = -1  # all-missing rows
    families = _families(net)

    tables, log_p, kept = inference._eliminate_all(net, set(), codes, families=families)
    assert kept == () and len(tables) == n
    # the collect pass is the plain elimination: log P to the bit
    assert np.array_equal(log_p, inference._eliminate_all(net, set(), codes)[1])

    joint = dense_joint(net)
    for table, family in zip(tables, families):
        assert table.shape == (rows, *cards[list(family)])
        for i, row in enumerate(codes):
            want = _family_oracle(joint, cards, row, family)
            if log_p[i] == -math.inf:
                assert not want.any() and not table[i].any()
            else:
                np.testing.assert_allclose(table[i], want, rtol=0, atol=1e-12)

    # a row's bits do not depend on the rest of the batch
    def run(sub):
        return inference._eliminate_all(net, set(), sub, families=families)

    for i in range(rows):
        one, one_log_p, _ = run(codes[i:i + 1])
        assert one_log_p[0] == log_p[i]
        assert all(np.array_equal(a[0], b[i]) for a, b in zip(one, tables))
    perm = rng.permutation(rows)
    shuffled, shuffled_log_p, _ = run(codes[perm])
    assert np.array_equal(shuffled_log_p, log_p[perm])
    assert all(np.array_equal(a, b[perm]) for a, b in zip(shuffled, tables))
    cut = rows // 2 or 1
    parts = [run(codes[part]) for part in (slice(None, cut), slice(cut, None)) if len(codes[part])]
    assert np.array_equal(np.concatenate([p[1] for p in parts]), log_p)
    for f, table in enumerate(tables):
        assert np.array_equal(np.concatenate([p[0][f] for p in parts]), table)


def test_family_mode_impossible_rows_are_zero_in_every_component():
    # b copies a, so a row observing a != b is impossible; the second
    # component (d -> e) is possible on its own, yet its tables go to zero
    copy = DiscreteNetwork(
        variables=[VariableDef(name=n, states=("0", "1")) for n in "abc"],
        arcs=[("a", "b"), ("b", "c")],
        cpts={
            "a": Cpt("a", (), np.array([[0.5, 0.5]])),
            "b": Cpt("b", ("a",), np.array([[1.0, 0.0], [0.0, 1.0]])),
            "c": Cpt("c", ("b",), np.array([[0.8, 0.2], [0.3, 0.7]])),
        },
    )
    net = disjoint_union(copy, chain_network())
    codes = np.array([[0, 1, -1, 1, -1, -1], [-1, 1, 0, -1, -1, 1], [-1] * 6])
    families = _families(net)
    tables, log_p, _ = inference._eliminate_all(net, set(), codes, families=families)
    assert log_p[0] == -math.inf and np.isfinite(log_p[1:]).all()
    assert all(not t[0].any() for t in tables)
    for i in (1, 2):
        one, one_log_p, _ = inference._eliminate_all(net, set(), codes[i:i + 1], families=families)
        assert one_log_p[0] == log_p[i]
        assert all(np.array_equal(a[0], t[i]) for a, t in zip(one, tables))
    # b = 1 forces a = 1: the (a, b) family table is one-hot at (1, 1)
    assert np.array_equal(tables[1][1], [[0.0, 0.0], [0.0, 1.0]])
    assert log_p[2] == pytest.approx(0.0, abs=1e-15)


def test_family_mode_does_not_underflow_on_a_long_chain():
    # each observed flip costs a factor 0.01: unless every belief passed
    # down the chain is renormalized, the distribute pass underflows to 0
    n = 300
    variables = [VariableDef(name=f"v{i}", states=("0", "1")) for i in range(n)]
    cpts = {"v0": Cpt("v0", (), np.array([[0.5, 0.5]]))}
    for i in range(1, n):
        cpts[f"v{i}"] = Cpt(f"v{i}", (f"v{i - 1}",), np.array([[0.99, 0.01], [0.01, 0.99]]))
    net = DiscreteNetwork(variables, [(f"v{i - 1}", f"v{i}") for i in range(1, n)], cpts)
    codes = np.array([[i % 2 if i % 10 else -1 for i in range(n)]])
    tables, log_p, _ = inference._eliminate_all(net, set(), codes, families=_families(net))
    assert log_p[0] == row_log_likelihoods(net, [{f"v{i}": int(c) for i, c in enumerate(codes[0])
                                                  if c >= 0}])[0]
    assert np.isfinite(log_p[0])
    for table in tables:
        assert table[0].sum() == pytest.approx(1.0, abs=1e-12)


def test_family_mode_argument_errors():
    net = chain_network()
    codes = np.array([[0, -1, 1]])
    with pytest.raises(ValueError, match="family mode"):
        inference._eliminate_all(net, {0}, codes, families=[(0,)])
    with pytest.raises(ValueError, match="family mode"):
        inference._eliminate_all(net, set(), {"a": 0}, families=[(0,)])


# ---------------------------------------------------------------------------
# requisite networks: the public queries build only the CPTs they need
# ---------------------------------------------------------------------------

def _copy_net():
    """a -> b -> c where b is a deterministic copy of a: a != b is impossible."""
    return DiscreteNetwork(
        variables=[VariableDef(name=n, states=("0", "1")) for n in "abc"],
        arcs=[("a", "b"), ("b", "c")],
        cpts={
            "a": Cpt("a", (), np.array([[0.5, 0.5]])),
            "b": Cpt("b", ("a",), np.array([[1.0, 0.0], [0.0, 1.0]])),
            "c": Cpt("c", ("b",), np.array([[0.8, 0.2], [0.3, 0.7]])),
        },
    )


def _every_cpt(net, target, evidence, x=None):
    """P(target | evidence) built from every CPT (of the mutilated network
    under do(x)); nan rows where the evidence is impossible."""
    if x is not None:
        net = mutilate(net, x)
    probs, log_p, _ = inference._eliminate_all(net, {net.index(target)}, evidence)
    probs[log_p == -math.inf] = math.nan
    return probs


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["plain", "zeros", "forest"]))
def test_pruned_queries_equal_every_cpt_the_dense_joint_and_truncation(seed, kind):
    rng = np.random.default_rng(seed)
    if kind == "forest":
        net = with_structural_zeros(disjoint_union(
            random_network(rng, min_nodes=2, max_nodes=4),
            random_network(rng, min_nodes=1, max_nodes=4)), rng)
    else:
        net = random_network(rng, min_nodes=3, max_nodes=7)
        if kind == "zeros":
            net = with_structural_zeros(net, rng)
    target, x = (net.names[int(i)] for i in rng.choice(len(net.names), 2, replace=False))
    observed = [n for n in net.names if n not in (target, x) and rng.random() < 0.5]
    rows = int(rng.integers(1, 9))
    ev = {n: rng.integers(0, net.card(n), size=rows) for n in observed}
    xs = rng.integers(0, net.card(x), size=rows)
    shape = (rows, net.card(target))

    post = np.broadcast_to(posterior(net, target, ev).probs, shape)
    do = do_posterior(net, target, (x, xs), ev).probs
    np.testing.assert_allclose(post, np.broadcast_to(_every_cpt(net, target, ev), shape),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(do, _every_cpt(net, target, {**ev, x: xs}, x), rtol=0, atol=1e-12)
    for r in range(rows):
        row = {n: int(v[r]) for n, v in ev.items()}
        np.testing.assert_allclose(post[r], _oracle(net, target, row)[0], rtol=0, atol=1e-12)
        truth, _ = _oracle(net, target, {**row, x: int(xs[r])}, skip=x)
        np.testing.assert_allclose(do[r], truth, rtol=0, atol=1e-12)

    # the observed names outside the requisite CPTs change no bit, so the
    # pipeline may drop them before it groups its rows
    cpts, reads = requisite(net, target, observed)
    assert target in cpts and set(reads) <= set(observed)
    same = posterior(net, target, {n: ev[n] for n in reads}).probs
    assert np.array_equal(np.broadcast_to(same, shape), post, equal_nan=True)
    cpts, reads = requisite(net, target, observed, x)
    assert x not in cpts and set(reads) <= {*observed, x}
    same = do_posterior(net, target, (x, xs), {n: ev[n] for n in reads if n != x}).probs
    assert np.array_equal(same, do, equal_nan=True)


def test_impossible_evidence_in_a_disconnected_part_still_reads_impossible():
    # the target c sits in the chain; w0 = 0, w1 = 1 is impossible in the
    # copy network next to it, which shares no variable with the target
    net = disjoint_union(chain_network(), _copy_net())
    assert "w1" in requisite(net, "c", ["w0", "w1"])[0]
    with pytest.raises(ZeroProbabilityEvidence):
        posterior(net, "c", {"w0": 0, "w1": 1})
    with pytest.raises(ZeroProbabilityEvidence):
        do_posterior(net, "c", ("a", 1), {"w0": 0, "w1": 1})
    w0, w1 = np.array([0, 0, 1]), np.array([1, 0, 1])
    post = posterior(net, "c", {"w0": w0, "w1": w1}).probs
    assert np.isnan(post[0]).all()
    prior = posterior(net, "c").probs
    assert np.array_equal(post[1], prior) and np.array_equal(post[2], prior)
    do = do_posterior(net, "c", ("a", np.array([1, 1, 0])), {"w0": w0, "w1": w1}).probs
    assert np.isnan(do[0]).all()
    assert np.array_equal(do[1], posterior(net, "c", {"a": 1}).probs)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_target_d_separated_from_all_evidence_returns_its_prior_marginal(seed):
    rng = np.random.default_rng(seed)
    part = random_network(rng, min_nodes=1, max_nodes=4)
    net = disjoint_union(part, random_network(rng, min_nodes=1, max_nodes=4))
    target = part.names[int(rng.integers(0, len(part.names)))]
    # evidence only in the other part: strictly positive, so every row is possible
    others = [n for n in net.names if n.startswith("w")]
    ev = {n: rng.integers(0, net.card(n), size=3) for n in others if rng.random() < 0.6}
    cpts, reads = requisite(net, target, ev)
    assert reads == () and all(not n.startswith("w") for n in cpts)
    prior = dense_joint(net).sum(axis=tuple(i for i in range(len(net.names))
                                            if i != net.index(target)))
    probs = posterior(net, target, ev).probs
    np.testing.assert_allclose(probs, np.broadcast_to(prior, probs.shape), rtol=0, atol=1e-12)
    assert (probs == posterior(net, target).probs).all()


def test_requisite_cuts_barren_nodes_and_the_arcs_out_of_evidence():
    # a -> c <- b: c is barren for P(a | b), so a is independent of b
    net = DiscreteNetwork(
        variables=[VariableDef(name=n, states=("0", "1")) for n in "abc"],
        arcs=[("a", "c"), ("b", "c")],
        cpts={
            "a": Cpt("a", (), np.array([[0.6, 0.4]])),
            "b": Cpt("b", (), np.array([[0.1, 0.9]])),
            "c": Cpt("c", ("a", "b"), np.array([[0.9, 0.1], [0.5, 0.5], [0.2, 0.8], [0.3, 0.7]])),
        },
    )
    assert requisite(net, "a", ["b"]) == (("a",), ())
    assert posterior(net, "a", {"b": 1}).probs.tolist() == [0.6, 0.4]
    # observing c joins them (explaining away); b's prior is then needed
    assert requisite(net, "a", ["b", "c"]) == (("a", "c"), ("b", "c"))
    # on the chain, observing b blocks a: c needs only its own CPT
    chain = chain_network()
    assert requisite(chain, "c", ["a", "b"]) == (("c",), ("b",))
    assert requisite(chain, "c", ["a"], "b") == (("c",), ("b",))
    assert requisite(chain, "a", ["c"], "b") == (("a",), ())


def test_requisite_keeps_ancestral_cpts_with_structural_zeros():
    # w1 copies w0; the query on c shares no variable with them
    net = disjoint_union(chain_network(), _copy_net())
    assert requisite(net, "c", []) == (("a", "b", "c"), ())
    # w1's CPT holds zeros, so it stays in and both its cells are read; w0's
    # CPT is strictly positive and w2 is barren, so they stay out
    assert requisite(net, "c", ["w0", "w1"]) == (("a", "b", "c", "w1"), ("w0", "w1"))
    assert requisite(net, "c", ["w1"]) == (("a", "b", "c", "w1"), ("w1",))


def test_wrong_elimination_order_raises_before_pruning():
    # P(a) needs only a's CPT, but the order must still name b and c
    net = chain_network()
    assert posterior(net, "a", elimination_order=["c", "b"]).probs.tolist() == [0.7, 0.3]
    for bad in ([], ["b"], ["b", "c", "c"], ["a", "b", "c"]):
        with pytest.raises(ValueError, match="elimination_order"):
            posterior(net, "a", elimination_order=bad)
    with pytest.raises(ValueError, match="elimination_order"):
        posterior(net, "a", {"b": 0}, elimination_order=["b", "c"])


def test_invalid_queries_raise_a_typed_value_error():
    net = chain_network()
    for query in (lambda: posterior(net, "a", {"a": 1}),
                  lambda: do_posterior(net, "b", ("b", 1)),
                  lambda: do_posterior(net, "c", ("a", 0), {"a": 1}),
                  lambda: enumerate_posterior(net, "a", {"a": 1})):
        with pytest.raises(InvalidQuery):
            query()
    assert issubclass(InvalidQuery, ValueError)


# ---------------------------------------------------------------------------
# do-operator
# ---------------------------------------------------------------------------

def test_confounded_triple_reference_values():
    net = confounded_triple()
    x1 = net.state_index("x", "1")
    y1 = net.state_index("y", "1")
    assert posterior(net, "y", {"x": x1})[y1] == pytest.approx(0.62, abs=1e-12)
    assert do_posterior(net, "y", ("x", x1))[y1] == pytest.approx(0.50, abs=1e-12)
    assert posterior(net, "y", {"x": 0})[y1] == pytest.approx(0.24, abs=1e-12)
    assert do_posterior(net, "y", ("x", 0))[y1] == pytest.approx(0.30, abs=1e-12)


def test_do_on_root_equals_conditioning_bitwise():
    # no parents to cut: mutilation only swaps a's prior for a uniform row,
    # which normalization must cancel exactly
    net = chain_network()
    for state in (0, 1):
        obs = posterior(net, "c", {"a": state}).probs
        act = do_posterior(net, "c", ("a", state)).probs
        assert np.array_equal(obs, act)


def test_do_posterior_argument_errors():
    net = chain_network()
    with pytest.raises(ValueError):
        do_posterior(net, "b", ("b", 1))
    with pytest.raises(ValueError):
        do_posterior(net, "c", ("a", 0), {"a": 1})


def test_do_with_downstream_evidence():
    # do(b=1) makes c depend only on b's forced value; evidence on a is
    # irrelevant after the incoming arc is cut
    net = chain_network()
    post = do_posterior(net, "c", ("b", 1), {"a": 0})
    assert post[1] == pytest.approx(0.75, abs=1e-12)


# ---------------------------------------------------------------------------
# joint probability, likelihoods, enumeration guard rails
# ---------------------------------------------------------------------------

def test_joint_probability_product():
    net = chain_network()
    assert joint_probability(net, {"a": 1, "b": 0, "c": 1}) == pytest.approx(
        0.3 * 0.4 * 0.2, abs=1e-15
    )
    with pytest.raises(IncompleteAssignment):
        joint_probability(net, {"a": 1, "b": 0})


def test_joint_probabilities_sum_to_one():
    rng = np.random.default_rng(3)
    net = random_network(rng, max_nodes=5)
    cards = [net.card(n) for n in net.names]
    total = 0.0
    for states in itertools.product(*(range(c) for c in cards)):
        total += joint_probability(net, dict(zip(net.names, states)))
    assert total == pytest.approx(1.0, abs=1e-9)


def test_row_log_likelihoods():
    net = chain_network()
    rows = [{"a": 1, "b": 1}, {}, {"c": 1}]
    out = row_log_likelihoods(net, rows)
    assert out[0] == pytest.approx(math.log(0.3 * 0.6), abs=1e-12)
    assert out[1] == 0.0
    assert out[2] == pytest.approx(math.log(0.3375), abs=1e-12)
    assert row_log_likelihoods(net, []).shape == (0,)
    with pytest.raises(UnknownVariable):
        row_log_likelihoods(net, [{"a": 0}, {"zz": 0}])
    for bad in (2, -1):
        with pytest.raises(UnknownState):
            row_log_likelihoods(net, [{"a": 0}, {"b": bad}])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_row_log_likelihoods_equal_per_row_log_evidence(seed):
    rng = np.random.default_rng(seed)
    net = with_structural_zeros(random_network(rng, max_nodes=7), rng)
    rows = [random_evidence(rng, net) for _ in range(int(rng.integers(1, 10)))] + [{}]
    out = row_log_likelihoods(net, rows)
    for row, got in zip(rows, out):
        want = log_evidence(net, row)
        if want == -math.inf:
            assert got == -math.inf
        else:
            assert got == pytest.approx(want, rel=0, abs=1e-12)
    # nothing observed: exactly 0, although the joint sums to 1 only within rounding
    assert out[-1] == 0.0


def test_dense_joint_skip_cpt_sums_to_card():
    # dropping one factor leaves a table that sums to that variable's
    # cardinality: sum_x sum_rest prod_{i != x} = sum_x 1
    net = chain_network()
    table = dense_joint(net, skip_cpt="b")
    assert float(table.sum()) == pytest.approx(net.card("b"), abs=1e-9)
    assert float(dense_joint(net).sum()) == pytest.approx(1.0, abs=1e-12)


def test_enumeration_cell_cap():
    variables = [VariableDef(name=f"n{i}", states=("0", "1")) for i in range(30)]
    cpts = {
        v.name: Cpt(v.name, (), np.array([[0.5, 0.5]])) for v in variables
    }
    big = DiscreteNetwork(variables=variables, arcs=[], cpts=cpts)
    with pytest.raises(TooLargeForEnumeration):
        dense_joint(big)
    with pytest.raises(TooLargeForEnumeration):
        enumerate_posterior(big, "n0", {})
