"""Plausibility screening and supervised discretization.

Continuous measurements pass through two steps before they become network
states: values outside a physiologic plausibility range are replaced by
missing (and logged), then the minimum description length principle (MDLP)
chooses cut points against a binary outcome. Cuts are class-boundary
midpoints; a split is kept only when its information gain clears the MDL
acceptance threshold, which makes the procedure conservative: labels that
carry no signal yield no cuts at all.

Binning convention: half-open intervals, value < cut goes left, so a value
equal to a cut lands in the right bin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cohort import Cohort
from .errors import DataError, NonFiniteValue
from .model import parse_node


# ---------------------------------------------------------------------------
# plausibility ranges
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlausibilityRange:
    """Inclusive physiologic bounds for one variable (all of its columns)."""

    variable: str
    min: float
    max: float

    def __post_init__(self):
        if not (self.min <= self.max):
            raise ValueError(f"range for {self.variable!r}: min {self.min} > max {self.max}")


@dataclass(frozen=True)
class RangeChange:
    record_id: int
    column: str
    original: float


def apply_plausibility(
    cohort: Cohort, ranges: list[PlausibilityRange], source: str = "cohort"
) -> tuple[Cohort, list[RangeChange]]:
    """Replace out-of-range values with missing; return the change log, in
    record, then column order.

    A range for variable ``v`` applies to every cohort column whose base
    name is ``v`` (all slices and the entry column). Values must parse as
    floats; anything unparseable raises DataError as numeric_column does.
    """
    by_var = {r.variable: r for r in ranges}
    codes = cohort.codes.copy()
    cleared = np.zeros(codes.shape, dtype=bool)
    values = {}
    for j, col in enumerate(cohort.columns):
        rng = by_var.get(parse_node(col)[0])
        if rng is not None:
            values[j] = numeric_column(cohort, col, source, finite=False)
            inside = (rng.min <= values[j]) & (values[j] <= rng.max)
            cleared[:, j] = ~inside & (codes[:, j] >= 0)
    changes = [
        RangeChange(int(cohort.ids[r]), cohort.columns[j], float(values[j][r]))
        for r, j in zip(*np.nonzero(cleared))
    ]
    codes[cleared] = -1
    return Cohort(cohort.columns, codes, cohort.labels, cohort.ids), changes


def numeric_column(cohort: Cohort, column: str, source: str = "cohort",
                   finite: bool = True) -> np.ndarray:
    """A column's cells as floats, nan where missing; each label is parsed
    once. A label that a record holds and that is not a number (with
    ``finite``, not a finite one) raises DataError naming the first such
    record and the column."""
    j = cohort.col_index(column)
    labels, col = cohort.labels[j], cohort.codes[:, j]
    values = np.full(len(labels) + 1, np.nan)  # the last one is what -1 picks
    problems = {}
    for i, label in enumerate(labels):
        try:
            values[i] = float(label)
        except ValueError:
            problems[i] = "is not numeric"
        else:
            if finite and not math.isfinite(values[i]):
                problems[i] = "is not a finite number"
    held = np.flatnonzero(np.isin(col, list(problems))) if problems else ()
    if len(held):
        code = col[held[0]]
        raise DataError(f"{source}: record {int(cohort.ids[held[0]])}, column {column!r}: "
                        f"{labels[code]!r} {problems[code]}")
    return values[col]


# ---------------------------------------------------------------------------
# MDLP discretization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BinningScheme:
    """Frozen cut points and the states they induce for one variable."""

    variable: str
    cuts: tuple[float, ...]
    labels: tuple[str, ...]
    intervals: tuple[tuple[float, float], ...]

    @classmethod
    def from_cuts(cls, variable: str, cuts: tuple[float, ...] | list[float]) -> "BinningScheme":
        cuts = tuple(float(c) for c in cuts)
        if any(cuts[i] >= cuts[i + 1] for i in range(len(cuts) - 1)):
            raise ValueError(f"cuts must be strictly increasing, got {cuts}")
        edges = (float("-inf"),) + cuts + (float("inf"),)
        intervals = tuple((edges[i], edges[i + 1]) for i in range(len(edges) - 1))
        labels = tuple(_interval_label(lo, hi) for lo, hi in intervals)
        return cls(variable=variable, cuts=cuts, labels=labels, intervals=intervals)


def _interval_label(lo: float, hi: float) -> str:
    left = "(-inf" if math.isinf(lo) else f"[{_fmt(lo)}"
    right = "inf)" if math.isinf(hi) else f"{_fmt(hi)})"
    return f"{left}, {right}"


def _fmt(x: float) -> str:
    return repr(float(x))


def _entropy_bits(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def _class_counts(labels: np.ndarray, classes: np.ndarray) -> np.ndarray:
    return np.array([(labels == c).sum() for c in classes], dtype=np.float64)


def _best_cut(values: np.ndarray, labels: np.ndarray, classes: np.ndarray):
    """Best boundary-midpoint cut by information gain, or None.

    Candidates are midpoints between consecutive distinct values whose label
    composition differs (with ties on the value axis, a boundary exists
    unless both value groups are pure and of the same class).
    """
    order = np.argsort(values, kind="mergesort")
    v = values[order]
    y = labels[order]
    n = v.size

    distinct, starts = np.unique(v, return_index=True)
    if distinct.size < 2:
        return None
    bounds = list(starts[1:]) + [n]

    # per value-group class composition
    group_pure_class: list[int | None] = []
    for g in range(distinct.size):
        seg = y[starts[g]:bounds[g]]
        first = seg[0]
        group_pure_class.append(int(first) if bool((seg == first).all()) else None)

    total_counts = _class_counts(y, classes)
    h_total = _entropy_bits(total_counts)

    best = None  # (gain, cut, left_counts, right_counts, split_pos)
    left = np.zeros_like(total_counts)
    pos = 0
    for g in range(distinct.size - 1):
        seg = y[starts[g]:bounds[g]]
        left = left + _class_counts(seg, classes)
        pos = bounds[g]
        same_pure = (
            group_pure_class[g] is not None
            and group_pure_class[g] == group_pure_class[g + 1]
        )
        if same_pure:
            continue
        right = total_counts - left
        h_left = _entropy_bits(left)
        h_right = _entropy_bits(right)
        gain = h_total - (pos / n) * h_left - ((n - pos) / n) * h_right
        if best is None or gain > best[0] + 1e-12:
            best = (gain, (v[pos - 1] + v[pos]) / 2.0, left.copy(), right, pos)
    return best


def _mdlp_accepts(gain: float, n: int, h_parent: float, h_left: float,
                  h_right: float, k: int, k1: int, k2: int) -> bool:
    delta = math.log2(3.0 ** k - 2.0) - (k * h_parent - k1 * h_left - k2 * h_right)
    threshold = (math.log2(n - 1) + delta) / n
    return gain > threshold


def mdlp_cuts(values: np.ndarray, labels: np.ndarray, variable: str = "x") -> BinningScheme:
    """Recursive MDLP cut selection against binary labels.

    Returns a BinningScheme; an empty cut tuple (single bin) means no split
    ever cleared the acceptance criterion. Values must be finite; labels are
    0/1. Invariant to input permutation.
    """
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels)
    if values.shape != labels.shape or values.ndim != 1:
        raise ValueError("values and labels must be 1-D arrays of equal length")
    if values.size == 0:
        return BinningScheme.from_cuts(variable, ())
    if not np.all(np.isfinite(values)):
        raise NonFiniteValue(f"variable {variable!r}: non-finite value in MDLP input")
    classes = np.unique(labels)

    cuts: list[float] = []

    def recurse(v: np.ndarray, y: np.ndarray) -> None:
        n = v.size
        if n < 2:
            return
        found = _best_cut(v, y, classes)
        if found is None:
            return
        gain, cut, left_counts, right_counts, _ = found
        h_parent = _entropy_bits(left_counts + right_counts)
        h_left = _entropy_bits(left_counts)
        h_right = _entropy_bits(right_counts)
        k = int((left_counts + right_counts > 0).sum())
        k1 = int((left_counts > 0).sum())
        k2 = int((right_counts > 0).sum())
        if not _mdlp_accepts(gain, n, h_parent, h_left, h_right, k, k1, k2):
            return
        cuts.append(float(cut))
        mask = v < cut
        recurse(v[mask], y[mask])
        recurse(v[~mask], y[~mask])

    recurse(values, labels)
    cuts.sort()
    return BinningScheme.from_cuts(variable, tuple(cuts))


def bin_column(values: np.ndarray, scheme: BinningScheme) -> np.ndarray:
    """Bin index of each value: value < cut goes left, so a value equal to a
    cut lands in the right bin. A nan value is missing and gets -1; infinite
    values raise NonFiniteValue."""
    values = np.asarray(values, dtype=np.float64)
    if np.isinf(values).any():
        raise NonFiniteValue(f"variable {scheme.variable!r}: cannot bin an infinite value")
    bins = np.searchsorted(np.asarray(scheme.cuts, dtype=np.float64), values, side="right")
    return np.where(np.isnan(values), -1, bins)
