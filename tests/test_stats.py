"""Window-gate and ranking statistics: chi-square, KS, Youden, power."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import chdtrc, chdtri, kolmogorov
from scipy.stats import chi2 as chi2_dist
from scipy.stats import kstwobign

from rdtrial.errors import DegenerateTable, EmptySample, SingleClass
from rdtrial.stats import (
    bonferroni_alpha,
    GATE_BAND,
    chi2_homogeneity,
    chi2_p_value,
    chi2_rejects,
    ks_two_sample,
    youden_threshold,
)

from helpers import reference_chi2_homogeneity, sample_power


# ---------------------------------------------------------------------------
# chi-square homogeneity
# ---------------------------------------------------------------------------

def test_chi2_identical_groups():
    res = chi2_homogeneity(np.array([10, 10]), np.array([10, 10]))
    assert res.statistic == 0.0
    assert res.p_value == 1.0
    assert res.dof == 1


def test_chi2_hand_value():
    # groups [50, 10] vs [10, 50]: every expected count is 30, every
    # deviation is 20, so the statistic is 4 * 400 / 30 = 160 / 3
    res = chi2_homogeneity(np.array([50, 10]), np.array([10, 50]))
    assert res.statistic == pytest.approx(160.0 / 3.0, abs=1e-9)
    assert res.p_value < 1e-10
    assert res.dof == 1


def test_chi2_drops_empty_categories():
    # a category absent from both groups must not contribute
    a = chi2_homogeneity(np.array([50, 0, 10]), np.array([10, 0, 50]))
    b = chi2_homogeneity(np.array([50, 10]), np.array([10, 50]))
    assert a.statistic == pytest.approx(b.statistic, abs=1e-12)
    assert a.dof == b.dof


def test_chi2_degenerate_tables():
    with pytest.raises(DegenerateTable):
        chi2_homogeneity(np.array([0, 0]), np.array([5, 5]))  # zero group total
    with pytest.raises(DegenerateTable):
        chi2_homogeneity(np.array([20]), np.array([30]))  # one category
    with pytest.raises(DegenerateTable):
        # every expected count is under 5: all categories collapse into one
        chi2_homogeneity(np.array([3, 2]), np.array([2, 3]))


def test_chi2_small_expected_collapse():
    # two sparse categories merge into one bucket: dof drops from 3 to 2
    res = chi2_homogeneity(np.array([50, 2, 3, 45]), np.array([50, 3, 2, 45]))
    assert res.dof == 2


def test_chi2_category_permutation_invariant():
    rng = np.random.default_rng(5)
    for _ in range(10):
        left = rng.integers(0, 60, size=5)
        right = rng.integers(0, 60, size=5)
        if left.sum() == 0 or right.sum() == 0:
            continue
        perm = rng.permutation(5)
        try:
            base = chi2_homogeneity(left, right)
        except DegenerateTable:
            with pytest.raises(DegenerateTable):
                chi2_homogeneity(left[perm], right[perm])
            continue
        alt = chi2_homogeneity(left[perm], right[perm])
        assert alt.statistic == pytest.approx(base.statistic, abs=1e-9)
        assert alt.dof == base.dof


def test_chi2_input_validation():
    with pytest.raises(ValueError):
        chi2_homogeneity(np.array([1, 2, 3]), np.array([1, 2]))
    with pytest.raises(ValueError):
        chi2_homogeneity(np.zeros((2, 3)), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        chi2_homogeneity(np.zeros((1, 2, 3)), np.zeros((1, 2, 3)))


def test_chi2_stacked_rows_and_degenerate_rows():
    left = np.array([[50, 10], [0, 0], [3, 2], [10, 10]])
    right = np.array([[10, 50], [5, 5], [2, 3], [10, 10]])
    res = chi2_homogeneity(left, right)
    assert res.p_value is None  # a stacked call evaluates no tail
    assert res.statistic[0] == pytest.approx(160.0 / 3.0, abs=1e-9)
    assert res.statistic[3] == 0.0 and chi2_p_value(res.statistic[3], res.dof[3]) == 1.0
    # zero group total, then everything collapsed into one bucket
    assert np.isnan(res.statistic[1:3]).all()
    assert res.dof.tolist() == [1, 0, 0, 1]
    assert chi2_rejects(res.statistic, res.dof, 0.05).tolist() == [True, False, False, False]


# Counts skewed toward empty and small cells, so that zero-total categories,
# collapse buckets and zero-total groups all turn up.
_COUNT = st.one_of(st.just(0), st.integers(0, 4), st.integers(0, 40), st.integers(0, 3000))


@st.composite
def _count_stacks(draw):
    cats = draw(st.integers(1, 12))
    rows = draw(st.integers(1, 6))
    left = draw(arrays(np.int64, (rows, cats), elements=_COUNT))
    right = draw(arrays(np.int64, (rows, cats), elements=_COUNT))
    empty_cat = draw(arrays(np.bool_, cats, elements=st.sampled_from([False] * 3 + [True])))
    left[:, empty_cat] = 0
    right[:, empty_cat] = 0
    for i in range(rows):
        zero = draw(st.sampled_from(["none"] * 4 + ["left", "right"]))
        if zero != "none":
            (left if zero == "left" else right)[i] = 0
    return left, right


@settings(max_examples=300, deadline=None)
@given(_count_stacks())
def test_chi2_stacked_rows_match_the_scalar_reference(tables):
    left, right = tables
    res = chi2_homogeneity(left, right)
    for i in range(len(left)):
        try:
            ref = reference_chi2_homogeneity(left[i], right[i])
        except DegenerateTable:
            assert math.isnan(res.statistic[i])
            assert res.dof[i] == 0
            with pytest.raises(DegenerateTable):
                chi2_homogeneity(left[i], right[i])
            continue
        assert res.dof[i] == ref.dof
        p = chi2_p_value(res.statistic[i], res.dof[i])
        if ref.dof + 1 <= 7:
            # sequential sums in both: equal bit for bit
            assert res.statistic[i] == ref.statistic
            assert p == ref.p_value
        else:
            # numpy's pairwise .sum regroups the reference's terms; below the
            # smallest normal float64 a p-value has no relative precision left
            assert res.statistic[i] == pytest.approx(ref.statistic, rel=1e-12, abs=0)
            assert p == pytest.approx(
                ref.p_value, rel=1e-12, abs=np.finfo(np.float64).tiny)
        # the 1-D call is the same arithmetic on one row
        one = chi2_homogeneity(left[i], right[i])
        assert (one.statistic, one.p_value, one.dof) == (res.statistic[i], p, res.dof[i])
        assert type(one.p_value) is float and type(one.dof) is int


# The tails come from scipy.special (rdtrial.stats imports chdtrc and
# kolmogorov inside the functions that call them); scipy.stats is the oracle
# they must match bit for bit, so that no p-value, gate decision or output
# byte moves.

def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


# statistic 0, subnormal and tiny, ordinary, large and infinite arguments
_TAIL_EDGES = [0.0, 5e-324, 1e-300, 1e-12, 0.5, 3.84, 40.0, 1e6, math.inf]
_TAIL_ARG = st.one_of(st.sampled_from(_TAIL_EDGES),
                      st.floats(0.0, 1e6, allow_nan=False, allow_subnormal=True))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_TAIL_ARG, st.integers(1, 20)), min_size=1, max_size=40))
def test_chi2_tail_equals_scipy_stats_bit_for_bit(pairs):
    x = np.array([a for a, _ in pairs])
    dof = np.array([d for _, d in pairs])
    assert _bits(chdtrc(dof, x)) == _bits(chi2_dist.sf(x, dof))
    for a, d in pairs:
        assert _bits(chdtrc(d, a)) == _bits(chi2_dist.sf(a, d))


@st.composite
def _wide_tables(draw):
    # dof 1 to 20 over counts large enough that few categories collapse,
    # with an occasional identical-groups row (statistic 0)
    cats = draw(st.integers(2, 21))
    rows = draw(st.integers(1, 4))
    counts = st.one_of(st.integers(0, 40), st.integers(5, 500_000))
    left = draw(arrays(np.int64, (rows, cats), elements=counts))
    right = draw(arrays(np.int64, (rows, cats), elements=counts))
    same = draw(arrays(np.bool_, rows, elements=st.sampled_from([False] * 3 + [True])))
    right[same] = left[same]
    return left, right


@settings(max_examples=200, deadline=None)
@given(_wide_tables())
def test_chi2_p_values_equal_scipy_stats_bit_for_bit(tables):
    left, right = tables
    res = chi2_homogeneity(left, right)
    ok = res.dof > 0
    p = [chi2_p_value(res.statistic[i], res.dof[i]) for i in np.flatnonzero(ok)]
    assert _bits(p) == _bits(chi2_dist.sf(res.statistic[ok], res.dof[ok]))
    for i in np.flatnonzero(ok):
        one = chi2_homogeneity(left[i], right[i])
        assert _bits(one.p_value) == _bits(chi2_dist.sf(one.statistic, one.dof))


def test_chi2_p_value_at_zero_and_large_statistics():
    zero = chi2_homogeneity(np.array([7, 9, 11]), np.array([7, 9, 11]))
    assert zero.statistic == 0.0 and zero.dof == 2
    assert _bits(zero.p_value) == _bits(chi2_dist.sf(0.0, 2)) == _bits(1.0)
    # every expected count is 250000 and every deviation 250000: statistic 1e6
    large = chi2_homogeneity(np.array([500_000, 0]), np.array([0, 500_000]))
    assert large.statistic == 1e6 and large.dof == 1
    assert _bits(large.p_value) == _bits(chi2_dist.sf(1e6, 1))


# The gate decides p < level from the statistic: the statistics that test
# that decision sit at the critical value, its float neighbours and the ends
# of the band where the tail is evaluated.
_GATE_LEVELS = [0.05 / 4, 0.01 / 2, 1e-3, 1e-8]


def _near(x: float) -> list[float]:
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


@st.composite
def _gate_rows(draw):
    rows = []
    for _ in range(draw(st.integers(1, 30))):
        dof = draw(st.integers(1, 12))
        crit = float(chdtri(dof, draw(st.sampled_from(_GATE_LEVELS))))
        stat = draw(st.sampled_from([
            *_near(crit), *_near(crit * (1 - GATE_BAND)), *_near(crit * (1 + GATE_BAND)),
            0.0, math.nan,
        ]) | st.floats(0.0, 2 * crit))
        rows.append((stat, dof))
    return rows


@settings(max_examples=200, deadline=None)
@given(_gate_rows(), st.sampled_from(_GATE_LEVELS))
def test_chi2_rejects_equals_the_tail_comparison(rows, level):
    stat = np.array([x for x, _ in rows])
    dof = np.array([0 if math.isnan(x) else d for x, d in rows])
    want = [not math.isnan(x) and chdtrc(d, x) < level for x, d in zip(stat, dof)]
    assert chi2_rejects(stat, dof, level).tolist() == want


def test_chi2_rejects_evaluates_every_row_when_the_band_does_not_bracket(monkeypatch):
    import scipy.special

    dof = np.ones(9, dtype=np.int64)
    crit = float(chdtri(1, 0.0125))
    stat = np.array([0.0, *_near(crit), *_near(crit * (1 + GATE_BAND)), 2 * crit, math.nan])
    dof[-1] = 0
    want = [not math.isnan(x) and chdtrc(1, x) < 0.0125 for x in stat]
    calls = []

    def counted(d, x):
        calls.append(np.size(x))
        return chdtrc(d, x)

    monkeypatch.setattr(scipy.special, "chdtrc", counted)
    assert chi2_rejects(stat, dof, 0.0125).tolist() == want
    # two bracket values, then the rows inside the band (crit and its
    # neighbours, the band's upper end and the float below it)
    assert calls == [1, 1, 5]
    calls.clear()
    # a critical value 1.5 times too large: the tail at the band's lower end
    # is already below the level, so every tested row is evaluated
    monkeypatch.setattr(scipy.special, "chdtri", lambda d, y: 1.5 * chdtri(d, y))
    assert chi2_rejects(stat, dof, 0.0125).tolist() == want
    assert calls == [1, 8]


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov
# ---------------------------------------------------------------------------

def test_ks_identical_samples():
    a = np.array([0.3, 0.5, 0.5, 0.9])
    res = ks_two_sample(a, a.copy())
    assert res.statistic == 0.0
    assert res.p_value == 1.0


def test_ks_disjoint_samples():
    res = ks_two_sample(np.zeros(8), np.ones(8))
    assert res.statistic == 1.0
    assert res.p_value < 0.01


def test_ks_hand_distance():
    # CDFs interleave with sup-gap exactly 1/3
    res = ks_two_sample(np.array([1.0, 2.0, 3.0]), np.array([1.5, 2.5, 3.5]))
    assert res.statistic == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert res.effective_n == pytest.approx(1.5, abs=1e-12)


def test_ks_symmetry_and_ties():
    a = np.array([1.0, 1.0, 2.0, 4.0])
    b = np.array([1.0, 3.0, 3.0, 5.0])
    ab = ks_two_sample(a, b)
    ba = ks_two_sample(b, a)
    assert ab.statistic == ba.statistic
    assert ab.p_value == ba.p_value


def test_ks_empty_sample():
    with pytest.raises(EmptySample):
        ks_two_sample(np.array([]), np.array([1.0]))


def test_ks_calibration_under_null():
    # same-distribution samples should reject at roughly the nominal rate
    rng = np.random.default_rng(42)
    rejections = 0
    trials = 200
    for _ in range(trials):
        a = rng.normal(size=400)
        b = rng.normal(size=400)
        if ks_two_sample(a, b).p_value < 0.05:
            rejections += 1
    assert 1 <= rejections <= 24  # nominal 10, generous band


@settings(max_examples=200, deadline=None)
@given(st.lists(_TAIL_ARG, min_size=1, max_size=40))
def test_ks_tail_equals_scipy_stats_bit_for_bit(xs):
    x = np.array(xs)
    assert _bits(kolmogorov(x)) == _bits(kstwobign.sf(x))
    for a in xs:
        assert _bits(kolmogorov(a)) == _bits(kstwobign.sf(a))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 30), min_size=1, max_size=300),
       st.lists(st.integers(0, 30), min_size=1, max_size=300))
def test_ks_p_values_equal_scipy_stats_bit_for_bit(a, b):
    res = ks_two_sample(np.array(a, dtype=float), np.array(b, dtype=float))
    if res.statistic == 0.0:
        assert res.p_value == 1.0
        return
    oracle = float(kstwobign.sf(math.sqrt(res.effective_n) * res.statistic))
    assert _bits(res.p_value) == _bits(oracle)


# ---------------------------------------------------------------------------
# Bonferroni
# ---------------------------------------------------------------------------

def test_bonferroni_values():
    assert bonferroni_alpha(0.05, 6) == pytest.approx(0.05 / 6, abs=1e-15)
    assert bonferroni_alpha(0.05, 1) == 0.05
    assert bonferroni_alpha(1.0, 4) == 0.25
    with pytest.raises(ValueError):
        bonferroni_alpha(0.0, 3)
    with pytest.raises(ValueError):
        bonferroni_alpha(1.2, 3)
    with pytest.raises(ValueError):
        bonferroni_alpha(0.05, 0)


# ---------------------------------------------------------------------------
# Youden threshold
# ---------------------------------------------------------------------------

def test_youden_separable():
    thr, j = youden_threshold(
        np.array([0.1, 0.2, 0.8, 0.9]), np.array([0, 0, 1, 1])
    )
    assert thr == 0.5
    assert j == 1.0


def test_youden_overlapping():
    thr, j = youden_threshold(np.array([0.3, 0.6, 0.7]), np.array([0, 1, 0]))
    assert thr == pytest.approx(0.45, abs=1e-12)
    assert j == pytest.approx(0.5, abs=1e-12)


def test_youden_tie_resolves_to_larger_threshold():
    # inverted labels: every candidate has J <= 0, with J = 0 at both
    # sentinels; the tie must go to +inf
    thr, j = youden_threshold(np.array([0.2, 0.8]), np.array([1, 0]))
    assert thr == np.inf
    assert j == 0.0


def test_youden_monotone_transform_invariance():
    rng = np.random.default_rng(9)
    scores = rng.uniform(size=50)
    labels = (scores + rng.normal(scale=0.3, size=50) > 0.5).astype(int)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    thr_a, j_a = youden_threshold(scores, labels)
    thr_b, j_b = youden_threshold(np.exp(scores), labels)
    assert j_a == pytest.approx(j_b, abs=1e-12)
    # the classifications agree even though the cut points differ
    assert np.array_equal(scores >= thr_a, np.exp(scores) >= thr_b)


def _youden_loop(scores, labels):
    """Youden's J at every candidate, counted directly; the last maximum wins."""
    distinct = np.unique(scores)
    candidates = [-np.inf, *((distinct[:-1] + distinct[1:]) / 2.0), np.inf]
    pos_total = int((labels == 1).sum())
    neg_total = int((labels == 0).sum())
    js = []
    for thr in candidates:
        tp = int(((scores >= thr) & (labels == 1)).sum())
        tn = int(((scores < thr) & (labels == 0)).sum())
        js.append(tp / pos_total + tn / neg_total - 1.0)
    best = 0
    for i in range(1, len(js)):
        if js[i] >= js[best]:
            best = i
    return float(candidates[best]), js[best]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9])
                          | st.floats(0.0, 1.0), st.integers(0, 1)),
                min_size=2, max_size=40))
def test_youden_matches_loop_reference(pairs):
    scores = np.array([s for s, _ in pairs])
    labels = np.array([y for _, y in pairs])
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    assert youden_threshold(scores, labels) == _youden_loop(scores, labels)


def test_youden_single_class():
    with pytest.raises(SingleClass):
        youden_threshold(np.array([0.1, 0.9]), np.array([1, 1]))


# ---------------------------------------------------------------------------
# window power
# ---------------------------------------------------------------------------

def test_sample_power_values():
    assert sample_power(2, 6) == 0.75
    assert sample_power(0, 5) == 1.0
    assert sample_power(0, 0) == 1.0
    assert sample_power(5, 0) == 0.0
    with pytest.raises(ValueError):
        sample_power(-1, 3)


def test_sample_power_bounds():
    rng = np.random.default_rng(2)
    for _ in range(50):
        fp = int(rng.integers(0, 100))
        fn = int(rng.integers(0, 100))
        assert 0.0 <= sample_power(fp, fn) <= 1.0
