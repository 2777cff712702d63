"""Threshold-window trial extraction and per-record effect estimation.

A fitted network scores every test record with P(outcome = positive |
its observations). Records are ranked by absolute distance from a decision
threshold, nested windows of the k nearest are gated with per-covariate
chi-squared homogeneity tests (Bonferroni-corrected over the covariates),
and the passing window with the highest sample power is kept as the
locally randomized sample. Inside that window each candidate variable is
analyzed like a trial arm: for every category x, every record gets an
interventional effect P(Y | do(X=x), Z) and an associational effect
P(Y | X=x, Z), with Z the record's own pre-treatment observations.
Categories are compared pairwise by KS tests and variables are ranked by
their largest significant mean effect difference.
"""

from __future__ import annotations

import json
import math
from collections import abc
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .cohort import Cohort, encode_columns, read_cohort_csv, unique_rows
from .errors import (
    ConfigError,
    DataError,
    EmptySample,
    NoCausalPath,
    TooFewRecords,
    required_file,
)
from .inference import do_posterior, posterior, requisite
from .learning import stratified_split
from .model import DiscreteNetwork, VariableDef, has_directed_path, slice_rank, unroll
from .modelio import load_model
from .stats import (
    bonferroni_alpha,
    chi2_homogeneity,
    ks_two_sample,
    youden_threshold,
)


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScoredRecord:
    """One test record: its usable observations, outcome label, and score."""

    record_id: int
    evidence: Mapping[str, int]   # node -> state index, missing cells absent; read-only
    label: bool                   # outcome at t equals the positive state
    score: float                  # P(outcome = positive | evidence)
    distance: float | None = None  # |score - threshold| when a threshold is known


@dataclass(frozen=True)
class ScoringResult:
    records: tuple[ScoredRecord, ...]
    outcome: str
    t: int
    positive_state: str
    missing_outcome: tuple[int, ...]    # excluded: outcome cell empty
    zero_probability: tuple[int, ...]   # excluded: evidence impossible under the model

    @property
    def scores(self) -> np.ndarray:
        return np.array([r.score for r in self.records], dtype=np.float64)

    @property
    def labels(self) -> np.ndarray:
        return np.array([r.label for r in self.records], dtype=bool)


def _declared_outcome(net: DiscreteNetwork, t: int) -> str:
    """The model's outcome node for time point t, the default outcome."""
    name = net.outcomes.get(t)
    if name is None:
        raise ConfigError(f"no outcome variable declared for time point {t}")
    return name


def _positive_state(out_var: VariableDef, positive_state: str | None) -> str:
    """The positive outcome state: the given one, by default the last state."""
    return out_var.states[-1] if positive_state is None else positive_state


def _patterns_by_mask(
    codes: np.ndarray,
    names: Sequence[str],
    reads: Callable[[list[str]], Iterable[str]],
):
    """Group the rows of a code matrix (-1 = missing) by requisite observed set.

    ``reads`` maps a mask's observed names to those its query depends on
    (inference.requisite); called once per distinct mask, it drops the other
    cells, so masks that differ only there share one batched query. Yields
    (rows, read names, distinct patterns, pattern of each row): the patterns
    are the distinct code rows over the read columns, so one query per
    group answers every row of it. Groups and patterns come in the
    lexicographic order of np.unique(axis=0), rows ascending.
    """
    masks, mask_of = unique_rows(codes >= 0)
    needed = np.zeros(masks.shape, dtype=bool)
    for mask, row in zip(masks, needed):
        read = set(reads([names[j] for j in np.flatnonzero(mask)]))
        row[:] = [n in read for n in names]
    masks, merged = unique_rows(needed)
    mask_of = merged[mask_of]
    groups = np.split(np.argsort(mask_of, kind="stable"), np.cumsum(np.bincount(mask_of))[:-1])
    for mask, rows in zip(masks, groups):
        cols = np.flatnonzero(mask)
        pats, pat_of = unique_rows(codes[np.ix_(rows, cols)])
        yield rows, [names[j] for j in cols], pats, pat_of


def _evidence_codes(records: Sequence[ScoredRecord], names: Sequence[str]) -> np.ndarray:
    """(records, names) code matrix of the records' evidence, -1 where absent.

    Records that share a pattern share one evidence mapping (score_cohort),
    so each distinct mapping is read once.
    """
    keys = np.fromiter((id(r.evidence) for r in records), np.uint64, len(records))
    _, first, of = np.unique(keys, return_index=True, return_inverse=True)
    table = np.array(
        [[records[i].evidence.get(c, -1) for c in names] for i in first.tolist()], dtype=np.int64
    ).reshape(len(first), len(names))
    return table[of]


def score_cohort(
    net: DiscreteNetwork,
    cohort: Cohort,
    t: int,
    outcome: str | None = None,
    positive_state: str | None = None,
    threshold: float | None = None,
) -> ScoringResult:
    """Score every cohort record for the outcome at time t.

    Evidence per record: all non-missing observations at slices before t
    plus non-outcome observations at slice t (statics and entry values
    count as baseline). Records with a missing outcome cell, or whose
    evidence has probability zero under the model, are excluded with their
    ids recorded. The fold is grouped once into its distinct rows; records
    with the same row share one score and one read-only evidence mapping
    of every observed cell. The rows are grouped by the observed cells the
    outcome's query depends on (inference.requisite): one batched posterior
    call per group scores every distinct pattern in it, so cost scales with
    the diversity of the evidence that matters rather than cohort size.
    Records keep cohort order.
    """
    if outcome is None:
        outcome = _declared_outcome(net, t)
    out_var = net.var(outcome)
    positive_state = _positive_state(out_var, positive_state)
    pos_idx = out_var.state_index(positive_state)
    if outcome not in cohort.columns:
        raise DataError(f"cohort has no column for outcome {outcome!r}")

    ev_cols = [
        c for c in cohort.columns
        if c in net and c != outcome and slice_rank(c) <= t
    ]
    enc = encode_columns(net, cohort, [*ev_cols, outcome])
    out_codes = enc[outcome]

    codes = np.array([enc[c] for c in ev_cols], dtype=np.int64).reshape(len(ev_cols), len(cohort)).T
    labeled = np.flatnonzero(out_codes >= 0)
    distinct, of = unique_rows(codes[labeled])
    pattern = np.full(len(cohort), -1)
    pattern[labeled] = of
    distinct_scores = np.empty(len(distinct))
    for rows, names, pats, pat_of in _patterns_by_mask(
            distinct, ev_cols, lambda observed: requisite(net, outcome, observed)[1]):
        post = posterior(net, outcome, {c: pats[:, j] for j, c in enumerate(names)})
        distinct_scores[rows] = np.broadcast_to(post.probs[..., pos_idx], len(pats))[pat_of]
    scores = np.full(len(cohort), np.nan)
    scores[labeled] = distinct_scores[of]
    evidence = [MappingProxyType({c: v for c, v in zip(ev_cols, row) if v >= 0})
                for row in distinct.tolist()]

    impossible = np.isnan(scores) & (out_codes >= 0)
    kept = np.flatnonzero(~np.isnan(scores))
    distance = [None] * len(kept)
    if threshold is not None:
        distance = np.abs(scores[kept] - threshold).tolist()
    records = tuple(
        ScoredRecord(rid, evidence[p], label, score, dist)
        for rid, p, label, score, dist in zip(
            cohort.ids[kept].tolist(), pattern[kept].tolist(),
            (out_codes[kept] == pos_idx).tolist(), scores[kept].tolist(), distance,
        )
    )
    return ScoringResult(
        records=records,
        outcome=outcome,
        t=t,
        positive_state=positive_state,
        missing_outcome=tuple(cohort.ids[out_codes < 0].tolist()),
        zero_probability=tuple(cohort.ids[impossible].tolist()),
    )


# ---------------------------------------------------------------------------
# window scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WindowReport:
    """Covariate-balance verdict for the k records nearest the threshold."""

    k: int
    threshold: float
    member_ids: np.ndarray                  # read-only view, distance order
    p_values: Mapping[str, float | None]    # None = test skipped (degenerate)
    randomized: bool                        # no covariate test rejected
    power: float
    fp: int
    fn: int


@dataclass(frozen=True, eq=False)
class WindowScan(abc.Sequence[WindowReport]):
    """Every tested window of one scan, held as columns, one entry per window.

    Window i holds the first ks[i] of sorted_ids. Indexing (negative
    indices and slices too) and iteration build the WindowReports.
    """

    threshold: float
    ks: np.ndarray
    sorted_ids: np.ndarray                  # read-only, distance order
    p_values: Mapping[str, np.ndarray]      # per covariate; nan = test skipped
    randomized: np.ndarray
    power: np.ndarray
    fp: np.ndarray
    fn: np.ndarray

    def __len__(self) -> int:
        return len(self.ks)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i = range(len(self))[i]  # raises IndexError when out of range
        k = int(self.ks[i])
        return WindowReport(
            k=k,
            threshold=self.threshold,
            member_ids=self.sorted_ids[:k],
            p_values={c: None if math.isnan(p[i]) else float(p[i])
                      for c, p in self.p_values.items()},
            randomized=bool(self.randomized[i]),
            power=float(self.power[i]),
            fp=int(self.fp[i]),
            fn=int(self.fn[i]),
        )


def scan_windows(
    net: DiscreteNetwork,
    records: Sequence[ScoredRecord],
    threshold: float,
    covariates: Sequence[str],
    alpha: float = 0.05,
    k_min: int = 200,
    k_step: int = 1,
    k_max: int | None = None,
) -> WindowScan:
    """Test every window size k in k_min..k_max (step k_step).

    Window membership is by ascending |score - threshold| with ties broken
    by ascending record id, so the k-window always contains the (k-1)-window.
    Each baseline covariate's in-window vs out-of-window distribution is
    chi-squared tested at bonferroni_alpha(alpha, number of covariates);
    a window is randomized when no test rejects (skipped-degenerate tests
    count as non-rejections). On balanced covariates the gate therefore
    falsely rejects a window with probability at most alpha (family-wise),
    so such a window is accepted with probability near 1 - alpha, not more.
    Power comes from the window's confusion counts at the supplied
    threshold, as stats.sample_power gives it. Covariate cells missing on a
    record drop out of that covariate's table only.

    All windows are tested at once: in-window counts are cumulative sums
    over the distance order read at every window's end, and each covariate
    takes one stacked chi2_homogeneity call whose degenerate rows give
    p = nan. The result is a WindowScan of those columns; its i-th item is
    the WindowReport of the i-th window, built only when read.
    """
    n = len(records)
    if k_min < 1:
        raise ValueError(f"k_min must be >= 1, got {k_min}")
    if k_step < 1:
        raise ValueError(f"k_step must be >= 1, got {k_step}")
    if n < k_min:
        raise TooFewRecords(f"{n} scored record(s) < k_min = {k_min}")
    k_cap = n if k_max is None else min(int(k_max), n)
    if k_cap < k_min:
        raise ValueError(f"k_max = {k_max} is below k_min = {k_min}")

    ids = np.fromiter((r.record_id for r in records), np.int64, n)
    scores = np.fromiter((r.score for r in records), np.float64, n)
    labels = np.fromiter((r.label for r in records), bool, n)
    dist = np.abs(scores - threshold)
    order = np.lexsort((ids, dist))

    sorted_ids = ids[order]
    sorted_ids.setflags(write=False)
    pred_pos = scores[order] >= threshold
    lab = labels[order]
    ks = np.arange(k_min, k_cap + 1, k_step)
    ends = ks - 1  # position of each window's last member
    fp = np.cumsum(pred_pos & ~lab)[ends]
    fn = np.cumsum(~pred_pos & lab)[ends]
    wrong = fp + fn
    # 1 - fp / (fn + fp) as sample_power computes it: the counts are exact
    power = np.where(wrong == 0, 1.0, 1.0 - fp / np.maximum(wrong, 1))

    alpha_adj = bonferroni_alpha(alpha, len(covariates)) if covariates else alpha
    p_values: dict[str, np.ndarray] = {}
    rejected = np.zeros(len(ks), dtype=bool)
    codes = _evidence_codes(records, covariates)[order]
    for j, c in enumerate(covariates):
        # one-hot codes; a missing cell (-1) matches no category
        counts = np.cumsum(codes[:, j, None] == np.arange(net.card(c)), axis=0)
        win = counts[ends]
        p_values[c] = chi2_homogeneity(win, counts[-1] - win).p_value
        rejected |= p_values[c] < alpha_adj

    return WindowScan(float(threshold), ks, sorted_ids, p_values, ~rejected, power, fp, fn)


def select_window(scan: WindowScan) -> WindowReport | None:
    """The randomized window with the highest power; ties favor smaller k.

    Reads the scan's randomized and power columns and builds the report of
    the chosen window only. None when no window is randomized; the pipeline
    reports that per time point rather than failing.
    """
    candidates = np.flatnonzero(scan.randomized)
    if not candidates.size:
        return None
    # argmax takes the first maximum, and windows come in ascending k
    return scan[int(candidates[np.argmax(scan.power[candidates])])]


# ---------------------------------------------------------------------------
# effect estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CategoryEffect:
    """Per-record effect sample for one category of the tested variable."""

    category: str
    n: int
    mean: float     # nan when every record failed
    std: float      # population std (ddof 0); nan when n = 0
    failures: int   # records whose query had zero-probability evidence
    values: np.ndarray = field(repr=False)  # record-id order, read-only


@dataclass(frozen=True)
class EffectTable:
    """Effects of one variable on one outcome, one mode, one window.

    ks_p, significant, max_significant_diff and rank are filled in by
    rank_effects; fresh tables carry None there.
    """

    variable: str
    outcome: str
    t: int
    mode: str
    categories: tuple[CategoryEffect, ...]
    ks_p: Mapping[tuple[str, str], float | None] | None = None
    significant: bool | None = None
    max_significant_diff: float | None = None
    rank: int | None = None


def estimate_effects(
    net: DiscreteNetwork,
    records: Sequence[ScoredRecord],
    variable: str,
    outcome: str,
    mode: str,
    t: int | None = None,
    positive_state: str | None = None,
) -> EffectTable:
    """Per-category effect sample over the window records.

    For each category x of the variable and each record, the evidence Z is
    the record's non-missing observations at slices up to the variable's
    own slice, minus the variable itself and minus every declared outcome
    node: later-slice observations are mediators of the intervention and
    conditioning on them (or on any endpoint) would bias the effect.
    Causal mode computes P(outcome | do(variable=x), Z) on the mutilated
    graph and requires a directed path from variable to outcome;
    associational mode computes P(outcome | variable=x, Z). Records whose
    query evidence is impossible are counted as failures for that category,
    so n + failures equals the window size for every category.

    Records are grouped by the cells of Z the query depends on
    (inference.requisite, the variable observed or, in causal mode,
    intervened on): per group, every (distinct pattern, category) pair is
    one row of a single batched query.
    """
    if mode not in ("causal", "associational"):
        raise ValueError(f"mode must be 'causal' or 'associational', got {mode!r}")
    var = net.var(variable)
    out_var = net.var(outcome)
    out_rank = slice_rank(outcome) if t is None else float(t)
    if slice_rank(variable) >= out_rank:
        raise ValueError(
            f"{variable!r} does not precede the outcome {outcome!r} in time"
        )
    if mode == "causal" and not has_directed_path(net, variable, outcome):
        raise NoCausalPath(f"no directed path from {variable!r} to {outcome!r}")
    pos_idx = out_var.state_index(_positive_state(out_var, positive_state))
    s = slice_rank(variable)
    excluded = set(net.outcomes.values()) | {outcome, variable}

    ordered = sorted(records, key=lambda r: r.record_id)
    # a name no record observes is a column of -1, part of no mask
    names = [name for name in net.names if name not in excluded and slice_rank(name) <= s]
    codes = _evidence_codes(ordered, names)
    do = variable if mode == "causal" else None

    def reads(observed: list[str]) -> tuple[str, ...]:
        return requisite(net, outcome, [*observed, variable], do)[1]

    # per record and category; nan where the query evidence is impossible
    values = np.empty((len(ordered), var.card))
    for rows, observed, pats, pat_of in _patterns_by_mask(codes, names, reads):
        # one batch row per (pattern, category), categories varying fastest
        ev = {name: np.repeat(pats[:, j], var.card) for j, name in enumerate(observed)}
        x = np.tile(np.arange(var.card), len(pats))
        if mode == "causal":
            post = do_posterior(net, outcome, (variable, x), ev)
        else:
            post = posterior(net, outcome, {**ev, variable: x})
        values[rows] = post.probs[:, pos_idx].reshape(len(pats), var.card)[pat_of]

    cats: list[CategoryEffect] = []
    for x in range(var.card):
        ok = ~np.isnan(values[:, x])
        arr = values[ok, x]
        arr.setflags(write=False)
        cats.append(CategoryEffect(
            category=var.states[x],
            n=int(arr.size),
            mean=float(arr.mean()) if arr.size else float("nan"),
            std=float(arr.std()) if arr.size else float("nan"),
            failures=int(ok.size - arr.size),
            values=arr,
        ))
    t_out = int(out_rank) if t is None else int(t)
    return EffectTable(
        variable=variable,
        outcome=outcome,
        t=t_out,
        mode=mode,
        categories=tuple(cats),
    )


def rank_effects(
    tables: Sequence[EffectTable], alpha: float = 0.05
) -> list[EffectTable]:
    """KS-test category pairs, then rank variables by effect separation.

    Every pair of category samples inside a table is compared with the
    two-sample KS test; the table is significant when at least one pair
    rejects at p < alpha, and its strength is the largest |mean difference|
    over the rejecting pairs. Significant tables come first, sorted by
    strength descending (rank 1, 2, ...); the rest follow unranked in
    input order. Pairs with an empty sample are recorded as skipped.
    """
    annotated: list[EffectTable] = []
    for table in tables:
        ks_p: dict[tuple[str, str], float | None] = {}
        max_diff: float | None = None
        for i in range(len(table.categories)):
            for j in range(i + 1, len(table.categories)):
                a, b = table.categories[i], table.categories[j]
                try:
                    p = ks_two_sample(a.values, b.values).p_value
                except EmptySample:
                    ks_p[(a.category, b.category)] = None
                    continue
                ks_p[(a.category, b.category)] = p
                if p < alpha:
                    diff = abs(a.mean - b.mean)
                    if max_diff is None or diff > max_diff:
                        max_diff = diff
        annotated.append(replace(
            table,
            ks_p=ks_p,
            significant=max_diff is not None,
            max_significant_diff=max_diff,
        ))
    hits = [t for t in annotated if t.significant]
    rest = [t for t in annotated if not t.significant]
    hits.sort(key=lambda t: -t.max_significant_diff)
    ranked = [replace(t, rank=i + 1) for i, t in enumerate(hits)]
    return ranked + rest


# ---------------------------------------------------------------------------
# end-to-end runner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """Parsed, validated configuration for a full pipeline run."""

    model_path: str
    cohort_path: str
    out_dir: str | None = None
    time_points: tuple[int, ...] | None = None  # None means every declared outcome
    outcome_base: str | None = None             # overrides the model's declarations
    positive_state: str | None = None
    covariates: tuple[str, ...] | None = None   # None means baseline defaults
    variables: tuple[str, ...] | str = "all-prior"
    modes: tuple[str, ...] = ("associational", "causal")
    alpha: float = 0.05
    k_min: int = 200
    k_step: int = 1
    k_max: int | None = None
    thresholds: Mapping[int, float] | str = "youden"
    split: tuple[float, float, float] | None = (0.6, 0.2, 0.2)
    seed: int = 0


_CONFIG_KEYS = {
    "model", "cohort", "out", "time_points", "outcome", "positive_state",
    "covariates", "variables", "modes", "alpha", "k_min", "k_step", "k_max",
    "thresholds", "split", "seed", "threads",
}


def parse_run_config(doc: Mapping[str, object], base_dir: str | Path = ".") -> RunConfig:
    """Validate a config document; relative paths resolve against base_dir."""
    if not isinstance(doc, Mapping):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(doc) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    base = Path(base_dir)

    def need_str(key: str) -> str:
        v = doc.get(key)
        if not isinstance(v, str) or not v:
            raise ConfigError(f"config key {key!r} must be a non-empty string")
        return v

    def coerce(key: str, kind: type, value: object):
        try:
            return kind(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config key {key!r}: bad value {value!r} ({exc})") from exc

    model_path = str((base / need_str("model")).resolve())
    cohort_path = str((base / need_str("cohort")).resolve())
    out_dir = doc.get("out")
    if out_dir is not None:
        out_dir = str((base / str(out_dir)).resolve())

    alpha = coerce("alpha", float, doc.get("alpha", 0.05))
    if not 0 < alpha < 1:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    k_min = coerce("k_min", int, doc.get("k_min", 200))
    if k_min < 2:
        raise ConfigError(f"k_min must be >= 2, got {k_min}")
    k_step = coerce("k_step", int, doc.get("k_step", 1))
    if k_step < 1:
        raise ConfigError(f"k_step must be >= 1, got {k_step}")
    k_max = doc.get("k_max")
    if k_max is not None:
        k_max = coerce("k_max", int, k_max)
        if k_max < k_min:
            raise ConfigError(f"k_max = {k_max} is below k_min = {k_min}")
    # accepted, no effect: effects run serially
    threads = coerce("threads", int, doc.get("threads", 1))
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")

    time_points = doc.get("time_points")
    if time_points is not None:
        if not isinstance(time_points, (list, tuple)) or not time_points:
            raise ConfigError("time_points must be a non-empty list of integers")
        time_points = tuple(coerce("time_points", int, t) for t in time_points)

    covariates = doc.get("covariates")
    if covariates is not None:
        if not isinstance(covariates, (list, tuple)):
            raise ConfigError("covariates must be a list of node names")
        covariates = tuple(str(c) for c in covariates)

    variables = doc.get("variables", "all-prior")
    if isinstance(variables, str):
        if variables != "all-prior":
            raise ConfigError(
                f"variables must be 'all-prior' or a list, got {variables!r}"
            )
    elif isinstance(variables, (list, tuple)):
        variables = tuple(str(v) for v in variables)
    else:
        raise ConfigError("variables must be 'all-prior' or a list of node names")

    modes = doc.get("modes", ["associational", "causal"])
    if not isinstance(modes, (list, tuple)) or not modes:
        raise ConfigError("modes must be a non-empty list")
    modes = tuple(str(m) for m in modes)
    for m in modes:
        if m not in ("associational", "causal"):
            raise ConfigError(f"unknown mode {m!r}")

    thresholds = doc.get("thresholds", "youden")
    if isinstance(thresholds, str):
        if thresholds != "youden":
            raise ConfigError(
                f"thresholds must be 'youden' or a per-time-point map, got {thresholds!r}"
            )
    elif isinstance(thresholds, Mapping):
        thresholds = {
            coerce("thresholds", int, k): coerce("thresholds", float, v)
            for k, v in thresholds.items()
        }
    else:
        raise ConfigError("thresholds must be 'youden' or a map of t to threshold")

    split = doc.get("split", [0.6, 0.2, 0.2])
    if split is False or split is None:
        split = None
    else:
        if not isinstance(split, (list, tuple)) or len(split) != 3:
            raise ConfigError("split must be three fractions or false")
        split = tuple(coerce("split", float, f) for f in split)
        if abs(sum(split) - 1.0) > 1e-9 or any(f <= 0 for f in split):
            raise ConfigError(f"split fractions must be positive and sum to 1, got {split}")

    outcome_base = None if doc.get("outcome") is None else str(doc["outcome"])
    positive_state = None if doc.get("positive_state") is None else str(doc["positive_state"])

    return RunConfig(
        model_path=model_path,
        cohort_path=cohort_path,
        out_dir=out_dir,
        time_points=time_points,
        outcome_base=outcome_base,
        positive_state=positive_state,
        covariates=covariates,
        variables=variables,
        modes=modes,
        alpha=alpha,
        k_min=k_min,
        k_step=k_step,
        k_max=k_max,
        thresholds=thresholds,
        split=split,
        seed=coerce("seed", int, doc.get("seed", 0)),
    )


def load_run_config(path: str | Path) -> RunConfig:
    p = Path(path)
    with required_file("config", p):
        text = p.read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {p} is not valid JSON: {exc}") from exc
    return parse_run_config(doc, p.parent)


@dataclass(frozen=True)
class RejectedQuery:
    variable: str
    mode: str
    error: str
    detail: str


@dataclass(frozen=True)
class TimePointResult:
    t: int
    outcome: str
    status: str                  # "ok" or "no_random_window"
    reason: str | None           # set when status is "no_random_window"
    threshold: float | None
    n_scored: int
    n_missing_outcome: int
    n_zero_probability: int
    n_windows: int
    window: WindowReport | None
    tables: tuple[EffectTable, ...]
    rejected: tuple[RejectedQuery, ...]


@dataclass(frozen=True)
class RdDoReport:
    time_points: tuple[TimePointResult, ...]
    best_time_point: int | None   # the t whose selected window has maximal power
    covariates: tuple[str, ...]
    config: RunConfig


def _resolve_net(config: RunConfig) -> DiscreteNetwork:
    with required_file("model", config.model_path):
        model = load_model(config.model_path)
    if isinstance(model, DiscreteNetwork):
        return model
    time_points = config.time_points
    horizon = max(time_points) if time_points else 1
    return unroll(model, horizon)


def _outcome_node(net: DiscreteNetwork, config: RunConfig, t: int) -> str:
    if config.outcome_base is not None:
        name = f"{config.outcome_base}@{t}"
        if name not in net:
            raise ConfigError(f"outcome node {name!r} is not in the model")
        return name
    return _declared_outcome(net, t)


def _default_covariates(
    net: DiscreteNetwork,
    cohort: Cohort,
    outcome_nodes: set[str],
) -> tuple[str, ...]:
    """Baseline covariates: every observed non-outcome column at or before
    slice 0. Callers that want a narrower balance set configure it."""
    out = []
    for c in cohort.columns:
        if c in net and slice_rank(c) <= 0 and c not in outcome_nodes:
            out.append(c)
    return tuple(out)


def run_rd_do(config: RunConfig) -> RdDoReport:
    """Full pipeline: split, threshold, scan, select, estimate, rank.

    Per outcome time point t the cohort's test fold is scored, windows are
    scanned around the threshold (explicit or Youden-derived on the
    validation fold), and the passing window with maximal power hosts the
    effect estimation for every requested variable preceding t, in every
    requested mode. Time points with no randomized window are reported as
    such, not fatal. The time point whose window has the highest power is
    flagged as best. A fixed config gives byte-identical reports.
    """
    net = _resolve_net(config)
    cohort_path = Path(config.cohort_path)
    with required_file("cohort", cohort_path):
        cohort = read_cohort_csv(cohort_path)
    for col in cohort.columns:
        if col not in net:
            raise DataError(f"cohort column {col!r} is not a model variable")

    time_points = config.time_points
    if time_points is None:
        if not net.outcomes:
            raise ConfigError("model declares no outcome variables and config "
                              "gives no time_points")
        time_points = tuple(sorted(net.outcomes))
    outcome_by_t = {t: _outcome_node(net, config, t) for t in time_points}
    outcome_nodes = set(outcome_by_t.values())

    # "all-prior" takes every model variable as a candidate
    candidates = net.names if isinstance(config.variables, str) else config.variables
    for v in candidates:
        if v not in net:
            raise ConfigError(f"variable {v!r} is not in the model")
    variables_by_t = {
        t: tuple(v for v in candidates if slice_rank(v) < t and v not in outcome_nodes)
        for t in time_points
    }

    if config.covariates is None:
        covariates = _default_covariates(net, cohort, outcome_nodes)
    else:
        for c in config.covariates:
            if c not in net:
                raise ConfigError(f"covariate {c!r} is not in the model")
        covariates = config.covariates

    if config.split is not None:
        _, valid, test = stratified_split(
            cohort,
            [outcome_by_t[t] for t in time_points if outcome_by_t[t] in cohort.columns],
            _positive_state(net.var(outcome_by_t[time_points[0]]), config.positive_state),
            fractions=config.split,
            seed=config.seed,
        )
    else:
        valid = test = cohort

    results: list[TimePointResult] = []
    for t in time_points:
        out_node = outcome_by_t[t]
        if isinstance(config.thresholds, str):
            vs = score_cohort(net, valid, t, out_node, config.positive_state)
            thr, _ = youden_threshold(vs.scores, vs.labels.astype(np.int64))
        else:
            if t not in config.thresholds:
                raise ConfigError(f"no threshold configured for time point {t}")
            thr = float(config.thresholds[t])

        scoring = score_cohort(net, test, t, out_node, config.positive_state, threshold=thr)
        try:
            reports = scan_windows(
                net, scoring.records, thr, covariates,
                alpha=config.alpha, k_min=config.k_min,
                k_step=config.k_step, k_max=config.k_max,
            )
        except TooFewRecords as exc:
            reports, window, reason = [], None, str(exc)
        else:
            window = select_window(reports)
            reason = None if window is not None else "no window passed the covariate gate"

        tables: list[EffectTable] = []
        rejected: list[RejectedQuery] = []
        if window is not None:
            by_id = {r.record_id: r for r in scoring.records}
            members = [by_id[int(rid)] for rid in window.member_ids]
            for mode in config.modes:
                mode_tables = []
                for variable in variables_by_t[t]:
                    try:
                        tbl = estimate_effects(
                            net, members, variable, out_node, mode,
                            t=t, positive_state=config.positive_state,
                        )
                    except NoCausalPath as exc:
                        rejected.append(RejectedQuery(
                            variable=variable, mode=mode,
                            error="NoCausalPath", detail=str(exc),
                        ))
                        continue
                    mode_tables.append(tbl)
                tables.extend(rank_effects(mode_tables, alpha=config.alpha))
        results.append(TimePointResult(
            t=t, outcome=out_node,
            status="ok" if window is not None else "no_random_window",
            reason=reason, threshold=thr,
            n_scored=len(scoring.records),
            n_missing_outcome=len(scoring.missing_outcome),
            n_zero_probability=len(scoring.zero_probability),
            n_windows=len(reports), window=window,
            tables=tuple(tables), rejected=tuple(rejected),
        ))

    best_t = None
    best_power = None
    for res in results:
        if res.window is not None:
            if best_power is None or res.window.power > best_power:
                best_power = res.window.power
                best_t = res.t
    return RdDoReport(
        time_points=tuple(results),
        best_time_point=best_t,
        covariates=covariates,
        config=config,
    )

