"""Plausibility screening and MDLP discretization.

The MDLP checks run against an independent reference implementation written
directly from the acceptance inequality, so the package code and the oracle
share no helpers.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from rdtrial.cohort import Cohort
from rdtrial.errors import DataError, NonFiniteValue
from rdtrial.preprocess import (
    BinningScheme,
    PlausibilityRange,
    apply_plausibility,
    bin_column,
    mdlp_cuts,
    numeric_column,
)

from helpers import apply_bins


# ---------------------------------------------------------------------------
# independent MDLP reference
# ---------------------------------------------------------------------------

def _entropy(y: np.ndarray) -> float:
    n = y.size
    if n == 0:
        return 0.0
    h = 0.0
    for c in np.unique(y):
        p = float((y == c).sum()) / n
        h -= p * math.log2(p)
    return h


def reference_mdlp(values, labels) -> list[float]:
    """Recursive entropy cuts with the MDL stop rule, first-best ties."""
    cuts: list[float] = []

    def rec(v: np.ndarray, y: np.ndarray) -> None:
        order = np.argsort(v, kind="mergesort")
        v, y = v[order], y[order]
        n = v.size
        if n < 2:
            return
        h_parent = _entropy(y)
        best = None
        for i in range(1, n):
            if v[i] == v[i - 1]:
                continue
            gain = h_parent - i / n * _entropy(y[:i]) - (n - i) / n * _entropy(y[i:])
            if best is None or gain > best[0] + 1e-12:
                best = (gain, i)
        if best is None:
            return
        gain, i = best
        h_left, h_right = _entropy(y[:i]), _entropy(y[i:])
        k = np.unique(y).size
        k1 = np.unique(y[:i]).size
        k2 = np.unique(y[i:]).size
        delta = math.log2(3.0 ** k - 2.0) - (k * h_parent - k1 * h_left - k2 * h_right)
        if gain <= (math.log2(n - 1) + delta) / n:
            return
        cuts.append(float((v[i - 1] + v[i]) / 2.0))
        rec(v[:i], y[:i])
        rec(v[i:], y[i:])

    rec(np.asarray(values, dtype=np.float64), np.asarray(labels))
    return sorted(cuts)


# ---------------------------------------------------------------------------
# MDLP behavior
# ---------------------------------------------------------------------------

def test_mdlp_hand_case_with_inequality_recheck():
    values = np.array([1.0, 2.0, 3.0, 10.0, 11.0, 12.0])
    labels = np.array([0, 0, 0, 1, 1, 1])
    scheme = mdlp_cuts(values, labels)
    assert scheme.cuts == (6.5,)

    # recheck the acceptance inequality for that cut by hand: the split is
    # pure on both sides, so gain = H(parent) = 1 bit, k = 2, k1 = k2 = 1
    n = 6
    gain = 1.0
    delta = math.log2(3.0 ** 2 - 2.0) - (2 * 1.0 - 1 * 0.0 - 1 * 0.0)
    threshold = (math.log2(n - 1) + delta) / n
    assert gain > threshold
    assert threshold == pytest.approx((math.log2(5) + math.log2(7) - 2) / 6, abs=1e-12)


def test_mdlp_pure_labels_give_no_cuts():
    values = np.linspace(0, 1, 40)
    assert mdlp_cuts(values, np.zeros(40, dtype=int)).cuts == ()
    assert mdlp_cuts(values, np.ones(40, dtype=int)).cuts == ()


def test_mdlp_shuffled_labels_usually_give_no_cuts():
    rng = np.random.default_rng(14)
    values = rng.uniform(size=60)
    labels = rng.integers(0, 2, size=60)
    assert mdlp_cuts(values, labels).cuts == ()


def test_mdlp_permutation_invariant():
    rng = np.random.default_rng(21)
    values = rng.uniform(size=80)
    labels = (values > 0.6).astype(int)
    base = mdlp_cuts(values, labels).cuts
    perm = rng.permutation(80)
    assert mdlp_cuts(values[perm], labels[perm]).cuts == base
    assert len(base) >= 1


def test_mdlp_matches_reference_on_random_inputs():
    rng = np.random.default_rng(33)
    for _ in range(30):
        n = int(rng.integers(20, 90))
        values = rng.uniform(size=n)
        # labels correlated with value through a noisy threshold, so some
        # cases have real cuts and others have none
        noise = rng.normal(scale=rng.uniform(0.05, 0.6), size=n)
        labels = (values + noise > rng.uniform(0.3, 0.7)).astype(int)
        got = mdlp_cuts(values, labels).cuts
        want = reference_mdlp(values, labels)
        assert len(got) == len(want)
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_mdlp_rejects_bad_input():
    with pytest.raises(ValueError):
        mdlp_cuts(np.array([1.0, 2.0]), np.array([0]))
    with pytest.raises(NonFiniteValue):
        mdlp_cuts(np.array([1.0, np.nan]), np.array([0, 1]))


# ---------------------------------------------------------------------------
# schemes, binning, labels
# ---------------------------------------------------------------------------

def test_interval_labels_and_from_cuts():
    scheme = BinningScheme.from_cuts("egfr", (6.5,))
    assert scheme.labels == ("(-inf, 6.5)", "[6.5, inf)")
    assert scheme.intervals == ((float("-inf"), 6.5), (6.5, float("inf")))
    two = BinningScheme.from_cuts("egfr", (3.0, 6.5))
    assert two.labels == ("(-inf, 3.0)", "[3.0, 6.5)", "[6.5, inf)")
    with pytest.raises(ValueError):
        BinningScheme.from_cuts("egfr", (6.5, 3.0))


def test_apply_bins_boundary_convention():
    scheme = BinningScheme.from_cuts("x", (6.5,))
    assert apply_bins(6.4999, scheme) == 0
    assert apply_bins(6.5, scheme) == 1  # cut value lands in the right bin
    assert apply_bins(100.0, scheme) == 1
    assert apply_bins(None, scheme) is None
    with pytest.raises(NonFiniteValue):
        apply_bins(float("inf"), scheme)


def test_bin_column():
    scheme = BinningScheme.from_cuts("x", (6.5,))
    cohort = Cohort.from_rows(("x@0",), [("1.0",), (None,), ("7.2",), ("6.5",)])
    values = numeric_column(cohort, "x@0")
    assert bin_column(values, scheme).tolist() == [0, -1, 1, 1]
    assert bin_column(values, scheme).tolist() == [
        -1 if np.isnan(v) else apply_bins(v, scheme) for v in values]
    with pytest.raises(NonFiniteValue):
        bin_column(np.array([float("inf")]), scheme)
    bad = Cohort.from_rows(("x@0",), [("1",), ("abc",)], ids=[4, 9])
    with pytest.raises(DataError, match=r"record 9, column 'x@0': 'abc' is not numeric"):
        numeric_column(bad, "x@0")


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", " NaN "])
def test_numeric_column_rejects_non_finite_cells(cell):
    cohort = Cohort.from_rows(("x@0",), [("1",), (None,), (cell,)], ids=[0, 1, 5])
    with pytest.raises(DataError, match=r"record 5, column 'x@0': .* is not a finite number"):
        numeric_column(cohort, "x@0")


# ---------------------------------------------------------------------------
# plausibility ranges
# ---------------------------------------------------------------------------

def test_apply_plausibility_masks_and_logs():
    cohort = Cohort.from_rows(
        columns=("egfr@0", "egfr@1", "age@entry"),
        rows=[("50", "900", "40"), ("-3", "60", "200"), (None, "70", "55")],
    )
    ranges = [
        PlausibilityRange("egfr", 0.0, 300.0),
        PlausibilityRange("age", 18.0, 110.0),
    ]
    cleaned, changes = apply_plausibility(cohort, ranges)
    assert cleaned.rows[0] == ("50", None, "40")
    assert cleaned.rows[1] == (None, "60", None)
    assert cleaned.rows[2] == (None, "70", "55")
    logged = {(c.record_id, c.column): c.original for c in changes}
    assert logged == {(0, "egfr@1"): 900.0, (1, "egfr@0"): -3.0, (1, "age@entry"): 200.0}
    # original untouched
    assert cohort.rows[0][1] == "900"


def test_apply_plausibility_ignores_unlisted_columns():
    cohort = Cohort.from_rows(columns=("other@0",), rows=[("1e9",)])
    cleaned, changes = apply_plausibility(cohort, [PlausibilityRange("egfr", 0, 1)])
    assert cleaned.rows[0] == ("1e9",)
    assert changes == []


def test_apply_plausibility_non_numeric():
    cohort = Cohort.from_rows(columns=("egfr@0",), rows=[("high",)], ids=np.array([7]))
    with pytest.raises(DataError, match="record 7"):
        apply_plausibility(cohort, [PlausibilityRange("egfr", 0, 300)])


def test_plausibility_range_validation():
    with pytest.raises(ValueError):
        PlausibilityRange("x", 5.0, 1.0)
