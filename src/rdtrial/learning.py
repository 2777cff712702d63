"""Parameter learning and cohort partitioning.

``mle_fit`` does closed-form maximum likelihood with Laplace smoothing;
``em_fit`` handles missing values with exact-inference expected counts.
With complete data the two agree bit for bit because the EM E-step takes an
integer-count shortcut and the M-step is the same counts-to-CPT code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cohort import Cohort
from .errors import (
    EmptyClass,
    EmptyParentConfiguration,
    IncompleteAssignment,
    InsufficientPositives,
    NonFiniteLikelihood,
)
from .model import Cpt, DiscreteNetwork
from . import inference

Columns = dict[str, np.ndarray]  # state indices per node; -1 means missing


@dataclass(frozen=True)
class FitReport:
    iterations: int
    log_likelihood: tuple[float, ...]
    converged: bool
    final_delta: float


# ---------------------------------------------------------------------------
# counting helpers
# ---------------------------------------------------------------------------

def _config_codes(net: DiscreteNetwork, cols: Columns, parents: tuple[str, ...]) -> np.ndarray:
    """Mixed-radix parent-config code per row; first parent most significant."""
    n = len(next(iter(cols.values()))) if cols else 0
    codes = np.zeros(n, dtype=np.int64)
    for p in parents:
        codes = codes * net.card(p) + cols[p]
    return codes


def _counts_to_cpt(child: str, parents: tuple[str, ...], counts: np.ndarray, alpha: float) -> Cpt:
    """Normalize a (configs, states) count table into a CPT.

    alpha is the Laplace pseudo-count added to every cell. With alpha = 0 an
    all-zero row is an error (EmptyParentConfiguration): there is no data to
    normalize.
    """
    counts = counts + alpha
    totals = counts.sum(axis=1, keepdims=True)
    if np.any(totals == 0.0):
        rows = np.nonzero(totals[:, 0] == 0.0)[0]
        raise EmptyParentConfiguration(
            f"CPT for {child!r}: parent configuration(s) {rows.tolist()} have no "
            f"observations and alpha = 0"
        )
    return Cpt(child=child, parents=parents, rows=counts / totals)


def mle_fit(structure: DiscreteNetwork, cols: Columns, alpha: float = 1.0) -> DiscreteNetwork:
    """Closed-form (smoothed) maximum-likelihood fit on complete rows.

    ``cols`` maps every network variable to an int array of state indices;
    missing values (-1) are not allowed here, use em_fit for those.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    for name in structure.names:
        if name not in cols:
            raise IncompleteAssignment(f"column for variable {name!r} is missing")
        if np.any(cols[name] < 0):
            raise IncompleteAssignment(
                f"column {name!r} contains missing values; mle_fit needs complete rows"
            )
    cpts: dict[str, Cpt] = {}
    for v in structure.variables:
        old = structure.cpts[v.name]
        n_cfg = old.n_configs
        counts = np.zeros((n_cfg, v.card))
        codes = _config_codes(structure, cols, old.parents)
        np.add.at(counts, (codes, cols[v.name]), 1.0)
        cpts[v.name] = _counts_to_cpt(v.name, old.parents, counts, alpha)
    return DiscreteNetwork(structure.variables, structure.arcs, cpts, structure.outcomes)


# ---------------------------------------------------------------------------
# EM
# ---------------------------------------------------------------------------

def _initial_network(structure: DiscreteNetwork, init: str, seed: int | None) -> DiscreteNetwork:
    if init == "given":
        return structure
    cpts: dict[str, Cpt] = {}
    rng = np.random.default_rng(seed) if init == "random" else None
    for v in structure.variables:
        old = structure.cpts[v.name]
        shape = (old.n_configs, v.card)
        if init == "uniform":
            rows = np.full(shape, 1.0 / v.card)
        elif init == "random":
            rows = rng.dirichlet(np.ones(v.card), size=shape[0])
        else:
            raise ValueError(f"init must be 'uniform', 'random' or 'given', got {init!r}")
        cpts[v.name] = Cpt(v.name, old.parents, rows)
    return DiscreteNetwork(structure.variables, structure.arcs, cpts, structure.outcomes)


def _collapse_patterns(net: DiscreteNetwork, cols: Columns) -> tuple[list[dict[str, int]], np.ndarray]:
    """Distinct observation patterns with multiplicities."""
    names = list(net.names)
    mat = np.stack([cols[n] for n in names], axis=1)
    uniq, counts = np.unique(mat, axis=0, return_counts=True)
    patterns = []
    for row in uniq:
        patterns.append({n: int(s) for n, s in zip(names, row) if s >= 0})
    return patterns, counts.astype(np.float64)


def _family_posterior(
    net: DiscreteNetwork, child: str, evidence: dict[str, int]
) -> np.ndarray:
    """P(parent config, child state | evidence) as a (configs, states) table."""
    cpt = net.cpts[child]
    family = list(cpt.parents) + [child]
    hidden = [f for f in family if f not in evidence]
    grid = np.zeros([net.card(f) for f in family])
    at = tuple(slice(None) if f in hidden else evidence[f] for f in family)
    if hidden:
        table, _, kept = inference._eliminate_all(
            net, {net.index(h) for h in hidden}, evidence
        )
        total = float(table.sum())
        if total <= 0.0:
            raise NonFiniteLikelihood(f"pattern {evidence!r} has probability zero")
        # VE returns axes in global index order; the grid wants family order
        axes = [kept.index(net.index(h)) for h in hidden]
        grid[at] = np.transpose(table / total, axes)
    else:
        grid[at] = 1.0
    # C order over (parents..., child) is the CPT's mixed-radix row order
    return grid.reshape(cpt.n_configs, -1)


def em_fit(
    structure: DiscreteNetwork,
    cols: Columns,
    alpha: float = 0.0,
    init: str = "uniform",
    seed: int | None = None,
    max_iter: int = 200,
    tol: float = 1e-6,
) -> tuple[DiscreteNetwork, FitReport]:
    """Expectation-maximization on rows with missing values.

    E-step computes expected family counts by exact inference per distinct
    observation pattern; M-step is the same counts-to-CPT normalization as
    mle_fit. Convergence is max absolute parameter change below ``tol``.
    The log-likelihood trace (one entry per parameter vector visited, first
    entry = initialization) is non-decreasing when alpha = 0; with alpha > 0
    the M-step maximizes the smoothed objective instead, which can trade a
    hair of raw likelihood for prior mass, so the default stays at plain EM.

    Requires every variable to be observed in at least one row, or
    alpha > 0, so no parent configuration is left completely unconstrained.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    n_rows = len(next(iter(cols.values()))) if cols else 0
    if n_rows == 0:
        raise ValueError("em_fit needs at least one row")
    if alpha == 0.0:
        never = [n for n in structure.names if not np.any(cols[n] >= 0)]
        if never:
            raise EmptyParentConfiguration(
                f"variables never observed and alpha = 0: {never}"
            )

    patterns, weights = _collapse_patterns(structure, cols)
    complete = all(len(p) == len(structure.names) for p in patterns)
    if complete:
        # identical code path to mle_fit, bit-for-bit
        fitted = mle_fit(structure, cols, alpha=alpha)
        rows = patterns
        ll = float(
            np.dot(weights, inference.row_log_likelihoods(fitted, rows))
        )
        return fitted, FitReport(
            iterations=1, log_likelihood=(ll,), converged=True, final_delta=0.0
        )

    net = _initial_network(structure, init, seed)
    trace: list[float] = []
    converged = False
    delta = float("inf")
    iterations = 0
    for iterations in range(1, max_iter + 1):
        per_pattern = inference.row_log_likelihoods(net, patterns)
        if not np.all(np.isfinite(per_pattern)):
            bad = int(np.nonzero(~np.isfinite(per_pattern))[0][0])
            raise NonFiniteLikelihood(
                f"observation pattern {patterns[bad]!r} has probability zero "
                f"under the current parameters (structural zero)"
            )
        trace.append(float(np.dot(weights, per_pattern)))

        new_cpts: dict[str, Cpt] = {}
        delta = 0.0
        for v in net.variables:
            cpt = net.cpts[v.name]
            counts = np.zeros((cpt.n_configs, v.card))
            for pat, w in zip(patterns, weights):
                counts += w * _family_posterior(net, v.name, pat)
            new = _counts_to_cpt(v.name, cpt.parents, counts, alpha)
            delta = max(delta, float(np.abs(new.rows - cpt.rows).max()))
            new_cpts[v.name] = new
        net = DiscreteNetwork(net.variables, net.arcs, new_cpts, net.outcomes)
        if delta < tol:
            converged = True
            break

    trace.append(float(np.dot(weights, inference.row_log_likelihoods(net, patterns))))
    return net, FitReport(
        iterations=iterations,
        log_likelihood=tuple(trace),
        converged=converged,
        final_delta=delta,
    )


# ---------------------------------------------------------------------------
# cohort partitioning
# ---------------------------------------------------------------------------

def outcome_labels(
    cohort: Cohort, outcome_nodes: list[str], positive_state: str
) -> np.ndarray:
    """Per-record binary label: positive at any of the outcome nodes."""
    labels = np.zeros(len(cohort), dtype=bool)
    for node in outcome_nodes:
        col = cohort.column(node)
        for r, cell in enumerate(col):
            if cell == positive_state:
                labels[r] = True
    return labels


def _apportion(n: int, fractions: tuple[float, ...]) -> list[int]:
    """Largest-remainder apportionment of n items over the fractions."""
    raw = [n * f for f in fractions]
    base = [int(np.floor(x)) for x in raw]
    rem = n - sum(base)
    order = sorted(range(len(fractions)), key=lambda i: (-(raw[i] - base[i]), i))
    for i in order[:rem]:
        base[i] += 1
    return base


def stratified_split(
    cohort: Cohort,
    outcome_nodes: list[str],
    positive_state: str,
    fractions: tuple[float, float, float] = (0.6, 0.2, 0.2),
    seed: int = 0,
) -> tuple[Cohort, Cohort, Cohort]:
    """Deterministic stratified train/validation/test split.

    Positives and negatives are apportioned to folds separately with
    largest-remainder rounding, so each fold's positive count is within one
    of exact stratification. Raises InsufficientPositives if positives exist
    but some fold would get none. With a single class present this reduces
    to a plain random split. Record order inside each fold is ascending id.
    """
    if abs(sum(fractions) - 1.0) > 1e-9 or any(f <= 0 for f in fractions):
        raise ValueError(f"fractions must be positive and sum to 1, got {fractions}")
    labels = outcome_labels(cohort, outcome_nodes, positive_state)
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[], [], []]
    for value in (True, False):
        members = np.nonzero(labels == value)[0]
        if members.size == 0:
            continue
        counts = _apportion(int(members.size), fractions)
        if value and any(c == 0 for c in counts):
            raise InsufficientPositives(
                f"{members.size} positive(s) cannot give every fold at least one"
            )
        perm = rng.permutation(members)
        start = 0
        for i, c in enumerate(counts):
            folds[i].extend(perm[start:start + c].tolist())
            start += c
    out = []
    for members in folds:
        members.sort()
        out.append(cohort.subset(members))
    return out[0], out[1], out[2]


def undersample(
    cohort: Cohort,
    outcome_nodes: list[str],
    positive_state: str,
    seed: int = 0,
) -> Cohort:
    """Balance classes 1:1 by downsampling the majority without replacement.

    All minority-class records are kept. Raises EmptyClass when either class
    is empty. Output rows are in ascending id order.
    """
    labels = outcome_labels(cohort, outcome_nodes, positive_state)
    pos = np.nonzero(labels)[0]
    neg = np.nonzero(~labels)[0]
    if pos.size == 0 or neg.size == 0:
        raise EmptyClass(
            f"need both classes to balance, got {pos.size} positive / {neg.size} negative"
        )
    rng = np.random.default_rng(seed)
    if pos.size <= neg.size:
        keep_major = rng.choice(neg, size=pos.size, replace=False)
        members = np.concatenate([pos, keep_major])
    else:
        keep_major = rng.choice(pos, size=neg.size, replace=False)
        members = np.concatenate([keep_major, neg])
    members.sort()
    return cohort.subset(members.tolist())
