"""Classical test statistics used by the window gate and effect ranking.

The statistics themselves are computed here (the chi-square collapse rule
and the KS effective-n convention are part of this package's contract);
scipy supplies only the distribution functions, from ``scipy.special``:
``chdtrc(dof, x)`` is what ``scipy.stats.chi2.sf(x, dof)`` evaluates and
``kolmogorov(x)`` what ``scipy.stats.kstwobign.sf(x)`` evaluates, bit for
bit, for the statistics >= 0 and dof >= 1 passed here; ``chdtri`` inverts
``chdtrc``. Calling them directly keeps ``scipy.stats`` out of every
process, and importing them inside the functions that use them keeps scipy
itself out of every process that computes no p-value: ``learn``, ``synth``,
``infer``, ``threshold`` and ``discretize`` never load it, and ``rddo``
loads ``scipy.special`` at its first window-gate decision.

The window gate tests thousands of stacked tables but reports the p-values
of one window. So a stacked ``chi2_homogeneity`` call returns statistics
and degrees of freedom only; ``chi2_rejects`` decides ``p < level`` for all
rows from the statistic, evaluating the tail only near the critical value,
and ``chi2_p_value`` evaluates the tail for the p-values that are read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTable, EmptySample, SingleClass

EXPECTED_MIN = 5.0  # chi-square small-cell collapse threshold
GATE_BAND = 1e-6    # relative half-width of the band around a critical value


@dataclass(frozen=True)
class TestResult:
    statistic: float | np.ndarray   # arrays from a stacked chi2_homogeneity call
    p_value: float | None           # None from a stacked chi2_homogeneity call
    dof: int | np.ndarray | None = None
    effective_n: float | None = None


def chi2_homogeneity(left: np.ndarray, right: np.ndarray) -> TestResult:
    """Pearson chi-square test that two groups share one categorical law.

    ``left`` and ``right`` are per-category counts over the same category
    axis. Zero-total categories are dropped; categories whose expected count
    falls below 5 in either group are collapsed into a single bucket. If
    fewer than two categories remain, or a group has zero total count, the
    table is degenerate.

    No continuity correction is applied. Degrees of freedom = C - 1 for the
    final C categories.

    A 1-D call tests one table: it returns floats and raises DegenerateTable
    on a degenerate table (callers treat that as "cannot test"). A 2-D call
    tests a stack of tables, one per row of shape (tables, categories): it
    returns per-row statistic and dof arrays, evaluates no tail (p_value is
    None; chi2_rejects and chi2_p_value take the arrays) and raises nothing;
    degenerate rows read statistic = nan and dof = 0.

    Both shapes share one arithmetic. The statistic adds the kept categories'
    terms in category order, the collapse bucket's last, left group before
    right, so a row equals the 1-D call on that row bit for bit.
    """
    left = np.asarray(left, dtype=np.float64)
    right = np.asarray(right, dtype=np.float64)
    if left.shape != right.shape or left.ndim not in (1, 2):
        raise ValueError("left and right must be count arrays of equal shape, "
                         "1-D (one table) or 2-D (tables, categories)")
    # one row per category and one column per table, C-ordered, so that a
    # sum over categories is a reduction across rows; sums of counts are
    # exact in any order
    lt = np.atleast_2d(left).T.copy()
    rt = np.atleast_2d(right).T.copy()
    n_left = lt.sum(axis=0)
    n_right = rt.sum(axis=0)
    total = n_left + n_right
    empty_group = (n_left <= 0) | (n_right <= 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        col = lt + rt
        small = (col > 0) & (
            (n_left * col / total < EXPECTED_MIN) | (n_right * col / total < EXPECTED_MIN))
        # the collapse bucket is one more row, after the categories
        used = np.vstack([(col > 0) & ~small, small.any(axis=0)])
        obs_l = np.vstack([lt, np.where(small, lt, 0.0).sum(axis=0)])
        obs_r = np.vstack([rt, np.where(small, rt, 0.0).sum(axis=0)])
        exp_l = n_left * (obs_l + obs_r) / total
        exp_r = n_right * (obs_l + obs_r) / total
        terms_l = np.where(used, (obs_l - exp_l) ** 2 / exp_l, 0.0)
        terms_r = np.where(used, (obs_r - exp_r) ** 2 / exp_r, 0.0)
    # a loop over the category rows, not .sum(axis=0): it adds a table's
    # terms in category order whatever the shape, where numpy's pairwise sum
    # groups a one-table call's terms by position once it has 8 or more
    sum_l = np.zeros(lt.shape[1])
    sum_r = np.zeros(lt.shape[1])
    for row_l, row_r in zip(terms_l, terms_r):
        sum_l += row_l
        sum_r += row_r
    cells = used.sum(axis=0)
    degenerate = empty_group | (cells < 2)
    stat = np.where(degenerate, np.nan, sum_l + sum_r)
    dof = np.where(degenerate, 0, cells - 1)

    if left.ndim == 2:
        return TestResult(statistic=stat, p_value=None, dof=dof)
    if empty_group[0]:
        raise DegenerateTable("a group has zero total count")
    if degenerate[0]:
        c = int(cells[0])
        raise DegenerateTable(f"{c} usable categor{'y' if c == 1 else 'ies'} after collapsing")
    return TestResult(statistic=float(stat[0]), p_value=chi2_p_value(stat[0], dof[0]),
                      dof=int(dof[0]))


def chi2_p_value(statistic: float, dof: int) -> float:
    """The chi-square tail P(X >= statistic) on dof >= 1 degrees of freedom:
    ``chdtrc(dof, statistic)``, whose bits every p-value here carries."""
    from scipy.special import chdtrc

    return float(chdtrc(dof, statistic))


def chi2_rejects(statistic: np.ndarray, dof: np.ndarray, level: float) -> np.ndarray:
    """Per row, whether ``chdtrc(dof, statistic) < level``; the rows of a
    stacked chi2_homogeneity call, whose nan (degenerate) rows never reject.

    The tail falls as the statistic grows, so for each distinct dof d the
    decision is a comparison with the critical value crit = chdtri(d, level):
    at or below crit(1 - GATE_BAND) a row does not reject, above
    crit(1 + GATE_BAND) it does. Only the rows inside that band take the
    exact tail. The band is used only when the tail at its two ends brackets
    the level; otherwise every row of that dof takes the exact tail. So each
    decision equals the tail comparison, at two tail evaluations per
    distinct dof plus one per row inside the band, instead of one per row.
    """
    from scipy.special import chdtrc, chdtri

    statistic = np.asarray(statistic, dtype=np.float64)
    dof = np.asarray(dof)
    rejects = np.zeros(statistic.shape, dtype=bool)
    tested = ~np.isnan(statistic)
    for d in np.unique(dof[tested]).tolist():
        rows = np.flatnonzero(tested & (dof == d))
        x = statistic[rows]
        crit = float(chdtri(d, level))
        lo, hi = crit * (1.0 - GATE_BAND), crit * (1.0 + GATE_BAND)
        if chdtrc(d, lo) >= level > chdtrc(d, hi):
            near = (x > lo) & (x <= hi)
            decided = x > hi
            decided[near] = chdtrc(d, x[near]) < level
        else:
            decided = chdtrc(d, x) < level
        rejects[rows] = decided
    return rejects


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> TestResult:
    """Two-sample Kolmogorov-Smirnov test.

    D is the sup-distance between empirical CDFs (tie-safe); the p-value
    uses the asymptotic Kolmogorov distribution evaluated at
    sqrt(n_eff) * D with n_eff = |a||b| / (|a| + |b|). Identical samples
    give D = 0, p = 1.
    """
    from scipy.special import kolmogorov

    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    m, n = a.size, b.size
    if m == 0 or n == 0:
        raise EmptySample("both samples must be non-empty")
    grid = np.concatenate([a, b])
    grid.sort(kind="mergesort")
    cdf_a = np.searchsorted(a, grid, side="right") / m
    cdf_b = np.searchsorted(b, grid, side="right") / n
    d = float(np.abs(cdf_a - cdf_b).max())
    n_eff = m * n / (m + n)
    if d == 0.0:
        p = 1.0
    else:
        p = float(kolmogorov(math.sqrt(n_eff) * d))
        p = min(1.0, max(0.0, p))
    return TestResult(statistic=d, p_value=p, effective_n=n_eff)


def bonferroni_alpha(alpha: float, m: int) -> float:
    """Per-test significance level alpha / m."""
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return alpha / m


def youden_threshold(scores: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Threshold maximizing Youden's J = sensitivity + specificity - 1.

    Candidates are midpoints between consecutive distinct sorted scores plus
    -inf/+inf sentinels; a score >= threshold predicts positive. Ties in J
    resolve toward the larger threshold. Returns (threshold, J).
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be 1-D arrays of equal length")
    pos_total = int((labels == 1).sum())
    neg_total = int((labels == 0).sum())
    if pos_total == 0 or neg_total == 0:
        raise SingleClass("labels must contain both classes")

    order = np.argsort(scores, kind="mergesort")
    s = scores[order]
    y = labels[order]
    distinct = np.unique(s)
    candidates = np.concatenate(
        [[-np.inf], (distinct[:-1] + distinct[1:]) / 2.0, [np.inf]]
    )
    # cumulative positives/negatives with score < candidate
    pos_cum = np.cumsum(y == 1)
    neg_cum = np.cumsum(y == 0)
    idx = np.searchsorted(s, candidates, side="left")
    pos_below = np.where(idx > 0, pos_cum[np.maximum(idx - 1, 0)], 0)
    neg_below = np.where(idx > 0, neg_cum[np.maximum(idx - 1, 0)], 0)
    tp = pos_total - pos_below
    tn = neg_below
    j = tp / pos_total + tn / neg_total - 1.0

    best = len(j) - 1 - int(np.argmax(j[::-1]))  # last maximum: ties go to the larger threshold
    return float(candidates[best]), float(j[best])

