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
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .cohort import Cohort, encode_columns, read_cohort_csv
from .errors import (
    ConfigError,
    DataError,
    DegenerateTable,
    EmptySample,
    NoCausalPath,
    TooFewRecords,
    ZeroProbabilityEvidence,
)
from .inference import do_posterior, posterior
from .learning import stratified_split
from .model import DiscreteNetwork, has_directed_path, slice_rank, unroll
from .modelio import load_model
from .stats import (
    bonferroni_alpha,
    chi2_homogeneity,
    ks_two_sample,
    sample_power,
    youden_threshold,
)


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScoredRecord:
    """One test record: its usable observations, outcome label, and score."""

    record_id: int
    evidence: Mapping[str, int]   # node -> state index, missing cells absent
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
    ids recorded. Scores are memoized per distinct evidence pattern, so
    cost scales with pattern diversity rather than cohort size.
    """
    if outcome is None:
        outcome = net.outcomes.get(t)
        if outcome is None:
            raise ConfigError(f"no outcome variable declared for time point {t}")
    out_var = net.var(outcome)
    if positive_state is None:
        pos_idx = out_var.card - 1
        positive_state = out_var.states[pos_idx]
    else:
        pos_idx = out_var.state_index(positive_state)
    if outcome not in cohort.columns:
        raise DataError(f"cohort has no column for outcome {outcome!r}")

    ev_cols = [
        c for c in cohort.columns
        if c in net and c != outcome and slice_rank(c) <= t
    ]
    enc = encode_columns(net, cohort, [*ev_cols, outcome])
    out_codes = enc[outcome]

    cache: dict[tuple[tuple[str, int], ...], float | None] = {}
    records: list[ScoredRecord] = []
    missing: list[int] = []
    impossible: list[int] = []
    for r in range(len(cohort)):
        rid = int(cohort.ids[r])
        if out_codes[r] < 0:
            missing.append(rid)
            continue
        ev = {c: int(enc[c][r]) for c in ev_cols if enc[c][r] >= 0}
        key = tuple(sorted(ev.items()))
        if key in cache:
            score = cache[key]
        else:
            try:
                score = posterior(net, outcome, ev)[pos_idx]
            except ZeroProbabilityEvidence:
                score = None
            cache[key] = score
        if score is None:
            impossible.append(rid)
            continue
        dist = None if threshold is None else abs(score - threshold)
        records.append(ScoredRecord(
            record_id=rid,
            evidence=ev,
            label=bool(out_codes[r] == pos_idx),
            score=score,
            distance=dist,
        ))
    return ScoringResult(
        records=tuple(records),
        outcome=outcome,
        t=t,
        positive_state=positive_state,
        missing_outcome=tuple(missing),
        zero_probability=tuple(impossible),
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


def scan_windows(
    net: DiscreteNetwork,
    records: Sequence[ScoredRecord],
    threshold: float,
    covariates: Sequence[str],
    alpha: float = 0.05,
    k_min: int = 200,
    k_step: int = 1,
    k_max: int | None = None,
) -> list[WindowReport]:
    """One report per window size k in k_min..k_max (step k_step).

    Window membership is by ascending |score - threshold| with ties broken
    by ascending record id, so the k-window always contains the (k-1)-window.
    Each baseline covariate's in-window vs out-of-window distribution is
    chi-squared tested at bonferroni_alpha(alpha, number of covariates);
    a window is randomized when no test rejects (skipped-degenerate tests
    count as non-rejections). On balanced covariates the gate therefore
    falsely rejects a window with probability at most alpha (family-wise),
    so such a window is accepted with probability near 1 - alpha, not more.
    Power comes from the window's confusion counts at the supplied
    threshold. Covariate cells missing on a record drop out of that
    covariate's table only.
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

    ids = np.array([r.record_id for r in records], dtype=np.int64)
    scores = np.array([r.score for r in records], dtype=np.float64)
    labels = np.array([r.label for r in records], dtype=bool)
    dist = np.abs(scores - threshold)
    order = np.lexsort((ids, dist))

    sorted_ids = ids[order]
    sorted_ids.setflags(write=False)
    pred_pos = scores[order] >= threshold
    lab = labels[order]

    cards = {c: net.card(c) for c in covariates}
    codes: dict[str, np.ndarray] = {}
    totals: dict[str, np.ndarray] = {}
    win: dict[str, np.ndarray] = {}
    for c in covariates:
        col = np.array([r.evidence.get(c, -1) for r in records], dtype=np.int64)[order]
        codes[c] = col
        observed = col[col >= 0]
        totals[c] = np.bincount(observed, minlength=cards[c]).astype(np.int64)
        win[c] = np.zeros(cards[c], dtype=np.int64)

    alpha_adj = bonferroni_alpha(alpha, len(covariates)) if covariates else alpha
    reports: list[WindowReport] = []
    fp = 0
    fn = 0
    for i in range(k_cap):
        for c in covariates:
            v = codes[c][i]
            if v >= 0:
                win[c][v] += 1
        if pred_pos[i] and not lab[i]:
            fp += 1
        elif not pred_pos[i] and lab[i]:
            fn += 1
        k = i + 1
        if k < k_min or (k - k_min) % k_step != 0:
            continue
        p_values: dict[str, float | None] = {}
        randomized = True
        for c in covariates:
            try:
                p = chi2_homogeneity(win[c], totals[c] - win[c]).p_value
            except DegenerateTable:
                p_values[c] = None
                continue
            p_values[c] = p
            if p < alpha_adj:
                randomized = False
        members = sorted_ids[:k]
        reports.append(WindowReport(
            k=k,
            threshold=float(threshold),
            member_ids=members,
            p_values=p_values,
            randomized=randomized,
            power=sample_power(fp, fn),
            fp=fp,
            fn=fn,
        ))
    return reports


def select_window(reports: Sequence[WindowReport]) -> WindowReport | None:
    """The randomized window with the highest power; ties favor smaller k.

    None when no window is randomized; the pipeline reports that per time
    point rather than failing.
    """
    best: WindowReport | None = None
    for r in reports:
        if r.randomized and (best is None or r.power > best.power):
            best = r
    return best


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


def _effect_query(
    net: DiscreteNetwork,
    outcome: str,
    variable: str,
    x_idx: int,
    ev: dict[str, int],
    mode: str,
    pos_idx: int,
) -> float | None:
    try:
        if mode == "causal":
            post = do_posterior(net, outcome, (variable, x_idx), ev)
        else:
            post = posterior(net, outcome, {**ev, variable: x_idx})
        return post[pos_idx]
    except ZeroProbabilityEvidence:
        return None


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

    Each distinct evidence pattern is queried once per category, in one
    serial pass.
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
    pos_idx = (
        out_var.card - 1 if positive_state is None
        else out_var.state_index(positive_state)
    )
    s = slice_rank(variable)
    excluded = set(net.outcomes.values()) | {outcome, variable}

    ordered = sorted(records, key=lambda r: r.record_id)
    keys = [
        tuple(sorted(
            (name, st) for name, st in rec.evidence.items()
            if name not in excluded and slice_rank(name) <= s
        ))
        for rec in ordered
    ]
    effects = {
        key: [
            _effect_query(net, outcome, variable, x, dict(key), mode, pos_idx)
            for x in range(var.card)
        ]
        for key in dict.fromkeys(keys)
    }

    cats: list[CategoryEffect] = []
    for x in range(var.card):
        vals = [effects[key][x] for key in keys]
        arr = np.array([v for v in vals if v is not None], dtype=np.float64)
        arr.setflags(write=False)
        cats.append(CategoryEffect(
            category=var.states[x],
            n=int(arr.size),
            mean=float(arr.mean()) if arr.size else float("nan"),
            std=float(arr.std()) if arr.size else float("nan"),
            failures=vals.count(None),
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

    model_path = str((base / need_str("model")).resolve())
    cohort_path = str((base / need_str("cohort")).resolve())
    out_dir = doc.get("out")
    if out_dir is not None:
        out_dir = str((base / str(out_dir)).resolve())

    alpha = float(doc.get("alpha", 0.05))
    if not 0 < alpha < 1:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    k_min = int(doc.get("k_min", 200))
    if k_min < 2:
        raise ConfigError(f"k_min must be >= 2, got {k_min}")
    k_step = int(doc.get("k_step", 1))
    if k_step < 1:
        raise ConfigError(f"k_step must be >= 1, got {k_step}")
    k_max = doc.get("k_max")
    if k_max is not None:
        k_max = int(k_max)
        if k_max < k_min:
            raise ConfigError(f"k_max = {k_max} is below k_min = {k_min}")
    threads = int(doc.get("threads", 1))  # accepted, no effect: effects run serially
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")

    time_points = doc.get("time_points")
    if time_points is not None:
        if not isinstance(time_points, (list, tuple)) or not time_points:
            raise ConfigError("time_points must be a non-empty list of integers")
        time_points = tuple(int(t) for t in time_points)

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
        try:
            thresholds = {int(k): float(v) for k, v in thresholds.items()}
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad thresholds map: {exc}") from exc
    else:
        raise ConfigError("thresholds must be 'youden' or a map of t to threshold")

    split = doc.get("split", [0.6, 0.2, 0.2])
    if split is False or split is None:
        split = None
    else:
        if not isinstance(split, (list, tuple)) or len(split) != 3:
            raise ConfigError("split must be three fractions or false")
        split = tuple(float(f) for f in split)
        if abs(sum(split) - 1.0) > 1e-9 or any(f <= 0 for f in split):
            raise ConfigError(f"split fractions must be positive and sum to 1, got {split}")

    outcome_base = doc.get("outcome")
    if outcome_base is not None:
        outcome_base = str(outcome_base)
    positive_state = doc.get("positive_state")
    if positive_state is not None:
        positive_state = str(positive_state)

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
        seed=int(doc.get("seed", 0)),
    )


def load_run_config(path: str | Path) -> RunConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
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
    if not Path(config.model_path).exists():
        raise ConfigError(f"model file not found: {config.model_path}")
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
    name = net.outcomes.get(t)
    if name is None:
        raise ConfigError(f"no outcome variable declared for time point {t}")
    return name


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
    if not cohort_path.exists():
        raise ConfigError(f"cohort file not found: {cohort_path}")
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

    if isinstance(config.variables, str):  # "all-prior"
        variables_by_t = {
            t: tuple(
                name for name in net.names
                if slice_rank(name) < t and name not in outcome_nodes
            )
            for t in time_points
        }
    else:
        for v in config.variables:
            if v not in net:
                raise ConfigError(f"variable {v!r} is not in the model")
        variables_by_t = {
            t: tuple(
                v for v in config.variables
                if slice_rank(v) < t and v not in outcome_nodes
            )
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
            _positive_state(net, config, outcome_by_t[time_points[0]]),
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
            results.append(TimePointResult(
                t=t, outcome=out_node, status="no_random_window",
                reason=str(exc), threshold=thr,
                n_scored=len(scoring.records),
                n_missing_outcome=len(scoring.missing_outcome),
                n_zero_probability=len(scoring.zero_probability),
                n_windows=0, window=None, tables=(), rejected=(),
            ))
            continue
        window = select_window(reports)
        if window is None:
            results.append(TimePointResult(
                t=t, outcome=out_node, status="no_random_window",
                reason="no window passed the covariate gate", threshold=thr,
                n_scored=len(scoring.records),
                n_missing_outcome=len(scoring.missing_outcome),
                n_zero_probability=len(scoring.zero_probability),
                n_windows=len(reports), window=None, tables=(), rejected=(),
            ))
            continue

        by_id = {r.record_id: r for r in scoring.records}
        members = [by_id[int(rid)] for rid in window.member_ids]
        tables: list[EffectTable] = []
        rejected: list[RejectedQuery] = []
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
            t=t, outcome=out_node, status="ok", reason=None, threshold=thr,
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


def _positive_state(net: DiscreteNetwork, config: RunConfig, outcome: str) -> str:
    if config.positive_state is not None:
        return config.positive_state
    var = net.var(outcome)
    return var.states[var.card - 1]
