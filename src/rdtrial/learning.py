"""Parameter learning and cohort partitioning.

``mle_fit`` does closed-form maximum likelihood with Laplace smoothing;
``em_fit`` handles missing values with exact-inference expected counts from
one calibrated elimination per iteration over all observation patterns at
once (collect, then distribute, over the elimination's clique tree); each
pattern's log-likelihood is the normalizer of the same run.
With complete data the two agree bit for bit because em_fit takes an
integer-count shortcut and the M-step is the same counts-to-CPT code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cohort import Cohort, unique_rows
from .errors import (
    EmptyParentConfiguration,
    IncompleteAssignment,
    InsufficientPositives,
    NonFiniteLikelihood,
    UnknownState,
)
from .model import Cpt, DiscreteNetwork
from . import inference


@dataclass(frozen=True)
class FitReport:
    iterations: int
    log_likelihood: tuple[float, ...]
    converged: bool
    final_delta: float


# ---------------------------------------------------------------------------
# counting helpers
# ---------------------------------------------------------------------------

def _counts_to_cpt(child: str, parents: tuple[str, ...], counts: np.ndarray, alpha: float) -> Cpt:
    """Normalize a (parents..., child) count tensor into a CPT.

    alpha is the Laplace pseudo-count added to every cell. With alpha = 0 an
    all-zero row is an error (EmptyParentConfiguration): there is no data to
    normalize.
    """
    # C order over (parents..., child) is the CPT's mixed-radix row order
    counts = counts.reshape(-1, counts.shape[-1]) + alpha
    totals = counts.sum(axis=1, keepdims=True)
    if np.any(totals == 0.0):
        rows = np.nonzero(totals[:, 0] == 0.0)[0]
        raise EmptyParentConfiguration(
            f"CPT for {child!r}: parent configuration(s) {rows.tolist()} have no "
            f"observations and alpha = 0"
        )
    return Cpt(child=child, parents=parents, rows=counts / totals)


def _check_codes(structure: DiscreteNetwork, codes: np.ndarray) -> None:
    """An integer (records, variables) matrix, codes in [-1, card) per column."""
    names = structure.names
    if codes.ndim != 2 or codes.shape[1] != len(names):
        raise IncompleteAssignment(
            f"codes must be (records, {len(names)}), a column per variable, got {codes.shape}")
    if codes.dtype.kind not in "iu":
        raise UnknownState(f"codes must be integer state indices, got dtype {codes.dtype}")
    cards = np.array([v.card for v in structure.variables])
    bad = (codes.min(axis=0, initial=0) < -1) | (codes.max(axis=0, initial=0) >= cards)
    if bad.any():
        j = int(np.argmax(bad))
        raise UnknownState(f"column {names[j]!r} holds codes outside -1..{cards[j] - 1}")


def mle_fit(structure: DiscreteNetwork, codes: np.ndarray, alpha: float = 1.0) -> DiscreteNetwork:
    """Closed-form (smoothed) maximum-likelihood fit on complete rows.

    ``codes`` is the (records, variables) matrix of state indices, a column
    per network variable in network order (``encode_columns`` with
    ``structure.names``); missing values (-1) raise IncompleteAssignment,
    use em_fit for those.
    """
    if not 0 <= alpha < np.inf:  # nan fails both comparisons
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
    codes = np.asarray(codes)
    _check_codes(structure, codes)
    holes = np.flatnonzero((codes < 0).any(axis=0))
    if holes.size:
        raise IncompleteAssignment(
            f"column {structure.names[holes[0]]!r} contains missing values; "
            f"mle_fit needs complete rows"
        )
    cpts: dict[str, Cpt] = {}
    for v in structure.variables:
        old = structure.cpts[v.name]
        family = (*old.parents, v.name)
        counts = np.zeros([structure.card(f) for f in family])
        np.add.at(counts, tuple(codes[:, structure.index(f)] for f in family), 1.0)
        cpts[v.name] = _counts_to_cpt(v.name, old.parents, counts, alpha)
    return DiscreteNetwork(structure.variables, structure.arcs, cpts, structure.outcomes)


# ---------------------------------------------------------------------------
# EM
# ---------------------------------------------------------------------------

def _initial_network(structure: DiscreteNetwork, init: str) -> DiscreteNetwork:
    if init == "given":
        return structure
    if init != "uniform":
        raise ValueError(f"init must be 'uniform' or 'given', got {init!r}")
    cpts: dict[str, Cpt] = {}
    for v in structure.variables:
        old = structure.cpts[v.name]
        cpts[v.name] = Cpt(v.name, old.parents, np.full((old.n_configs, v.card), 1.0 / v.card))
    return DiscreteNetwork(structure.variables, structure.arcs, cpts, structure.outcomes)


def _collapse_patterns(
    net: DiscreteNetwork, codes: np.ndarray
) -> tuple[list[dict[str, int]], np.ndarray, np.ndarray]:
    """Distinct observation patterns of a (records, variables) code matrix,
    their multiplicities and their own code matrix.

    Patterns come in the lexicographic order of their code rows (-1 =
    missing), the order np.unique(axis=0) gives.
    """
    names = list(net.names)
    distinct, pattern_of = unique_rows(codes)
    patterns = [{n: s for n, s in zip(names, row) if s >= 0} for row in distinct.tolist()]
    counts = np.bincount(pattern_of, minlength=len(distinct))
    return patterns, counts.astype(np.float64), distinct


def _expected_counts(
    net: DiscreteNetwork, codes: np.ndarray, weights: np.ndarray
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """E-step: weighted (parents..., child) counts per variable, log P per pattern.

    codes holds one pattern per row, a column per variable, -1 where the
    cell is missing. One calibrated elimination over every pattern at once
    gives every family's table (missing cells are evidence indicators, so
    observed members come back one-hot) and each pattern's log P, its
    normalizer. The counts are the weighted sum over patterns, added in
    pattern order. A zero-probability pattern raises.
    """
    w = np.asarray(weights, dtype=np.float64)
    families = [tuple(net.index(f) for f in (*net.cpts[v.name].parents, v.name))
                for v in net.variables]
    tables, log_p, _ = inference._eliminate_all(net, set(), codes, families=families)
    counts = {}
    for v, family, table in zip(net.variables, families, tables):
        # cumsum adds strictly in pattern order; sum(axis=0) may pair terms up
        counts[v.name] = np.cumsum(w.reshape(-1, *[1] * len(family)) * table, axis=0)[-1]

    impossible = np.flatnonzero(log_p == -np.inf)
    if impossible.size:
        pattern = {n: s for n, s in zip(net.names, codes[impossible[0]].tolist()) if s >= 0}
        raise NonFiniteLikelihood(
            f"observation pattern {pattern!r} has probability zero "
            f"under the current parameters (structural zero)"
        )
    return counts, log_p


def em_fit(
    structure: DiscreteNetwork,
    codes: np.ndarray,
    alpha: float = 0.0,
    init: str = "uniform",
    max_iter: int = 200,
    tol: float = 1e-6,
) -> tuple[DiscreteNetwork, FitReport]:
    """Expectation-maximization on rows with missing values.

    E-step computes expected family counts by exact inference, one
    calibrated elimination over all distinct observation patterns that
    yields every family's table; M-step is mle_fit's counts-to-CPT
    normalization. Convergence is max absolute parameter change below
    ``tol``. EM starts from ``init``: "uniform" (every CPT row uniform) or
    "given" (the structure's own CPTs).
    The log-likelihood trace (one entry per parameter vector visited, first
    entry = initialization; each from that iteration's E-step, the last from
    row_log_likelihoods) is non-decreasing when alpha = 0; with alpha > 0
    the M-step maximizes the smoothed objective instead, which can trade a
    hair of raw likelihood for prior mass, so the default stays at plain EM.

    Requires every variable to be observed in at least one row, or
    alpha > 0, so no parent configuration is left completely unconstrained.
    ``codes`` is the (records, variables) matrix of state indices, a column
    per variable in network order, -1 meaning missing.
    """
    if not 0 <= alpha < np.inf:  # nan fails both comparisons
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    codes = np.asarray(codes)
    _check_codes(structure, codes)
    if len(codes) == 0:
        raise ValueError("em_fit needs at least one row")
    if alpha == 0.0:
        never = [n for n, seen in zip(structure.names, (codes >= 0).any(axis=0)) if not seen]
        if never:
            raise EmptyParentConfiguration(
                f"variables never observed and alpha = 0: {never}"
            )

    patterns, weights, distinct = _collapse_patterns(structure, codes)
    if np.all(distinct >= 0):
        # identical code path to mle_fit, bit-for-bit; every pattern is
        # hard evidence on one mask, so one batched query scores them all
        fitted = mle_fit(structure, codes, alpha=alpha)
        ev = {n: distinct[:, j] for j, n in enumerate(structure.names)}
        ll = float(np.dot(weights, inference.log_evidence(fitted, ev)))
        return fitted, FitReport(
            iterations=1, log_likelihood=(ll,), converged=True, final_delta=0.0
        )

    net = _initial_network(structure, init)
    trace: list[float] = []
    converged = False
    delta = float("inf")
    iterations = 0
    for iterations in range(1, max_iter + 1):
        counts, per_pattern = _expected_counts(net, distinct, weights)
        trace.append(float(np.dot(weights, per_pattern)))

        new_cpts: dict[str, Cpt] = {}
        delta = 0.0
        for v in net.variables:
            cpt = net.cpts[v.name]
            new = _counts_to_cpt(v.name, cpt.parents, counts[v.name], alpha)
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
        j = cohort.col_index(node)
        if positive_state in cohort.labels[j]:
            labels |= cohort.codes[:, j] == cohort.labels[j].index(positive_state)
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
    fold = np.empty(len(cohort), dtype=np.intp)  # each record's fold
    for value in (True, False):
        members = np.nonzero(labels == value)[0]
        if members.size == 0:
            continue
        counts = _apportion(int(members.size), fractions)
        if value and any(c == 0 for c in counts):
            raise InsufficientPositives(
                f"{members.size} positive(s) cannot give every fold at least one"
            )
        fold[rng.permutation(members)] = np.repeat(np.arange(3), counts)
    train, valid, test = (cohort.subset(np.flatnonzero(fold == i)) for i in range(3))
    return train, valid, test
