"""Exact inference on discrete networks.

Two independent routes are provided on purpose:

* :func:`posterior`, :func:`do_posterior` and :func:`log_evidence` run
  variable elimination with a min-degree ordering and per-step factor
  renormalization (numerically safe on long chains);
* :func:`enumerate_posterior` and :func:`dense_joint` materialize the full
  joint by multiplying CPT tensors, with no elimination machinery at all.

The second route exists as a brute-force oracle for tests and for the
synthetic-data ground truth; agreement between the two is asserted rather
than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    IncompleteAssignment,
    TooLargeForEnumeration,
    UnknownState,
    UnknownVariable,
    ZeroProbabilityEvidence,
)
from .model import Cpt, DiscreteNetwork, mutilate, parent_config_index

Evidence = Mapping[str, int]

_ENUM_CELL_CAP = 1 << 26  # dense-joint oracle refuses beyond ~67M cells


@dataclass(frozen=True)
class Posterior:
    """Distribution over one variable's states given evidence."""

    target: str
    states: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=np.float64)
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    def __getitem__(self, state: int) -> float:
        return float(self.probs[state])


def check_evidence(net: DiscreteNetwork, evidence: Evidence) -> dict[str, int]:
    """Validate an evidence map and normalize it to plain dict[str, int]."""
    out: dict[str, int] = {}
    for name, state in evidence.items():
        var = net.var(name)  # raises UnknownVariable
        s = int(state)
        if not 0 <= s < var.card:
            raise UnknownState(
                f"variable {name!r} has {var.card} states, got index {s}"
            )
        out[name] = s
    return out


# ---------------------------------------------------------------------------
# factors
# ---------------------------------------------------------------------------

class _Factor:
    """A nonnegative table over a sorted tuple of variable indices."""

    __slots__ = ("vars", "table")

    def __init__(self, vars_: tuple[int, ...], table: np.ndarray):
        self.vars = vars_
        self.table = table


def _cpt_factor(net: DiscreteNetwork, cpt: Cpt, evidence: Mapping[str, int]) -> _Factor:
    """CPT as a factor: slice the observed axes, then order the rest by index."""
    names = (*cpt.parents, cpt.child)
    table = cpt.rows.reshape([net.card(n) for n in names])
    table = table[tuple(evidence.get(n, slice(None)) for n in names)]
    free = [net.index(n) for n in names if n not in evidence]
    perm = sorted(range(len(free)), key=free.__getitem__)
    return _Factor(
        tuple(free[a] for a in perm),
        np.ascontiguousarray(table.transpose(perm), dtype=np.float64),
    )


def _multiply(a: _Factor, b: _Factor, cards: Sequence[int]) -> _Factor:
    union = tuple(sorted(set(a.vars) | set(b.vars)))
    pos = {v: i for i, v in enumerate(union)}

    def expand(f: _Factor) -> np.ndarray:
        shape = [1] * len(union)
        for v in f.vars:
            shape[pos[v]] = cards[v]
        # both scopes are sorted, so inserting unit axes keeps the order
        return f.table.reshape(shape)

    return _Factor(union, expand(a) * expand(b))


def _sum_out(f: _Factor, var: int) -> _Factor:
    axis = f.vars.index(var)
    return _Factor(tuple(v for v in f.vars if v != var), f.table.sum(axis=axis))


def _min_degree_order(scopes: list[tuple[int, ...]], eliminate: set[int]) -> list[int]:
    """Greedy min-degree elimination order; ties broken by variable index."""
    adj: dict[int, set[int]] = {v: set() for v in eliminate}
    for scope in scopes:
        inside = [v for v in scope if v in eliminate]
        for i, v in enumerate(inside):
            for w in inside[i + 1:]:
                adj[v].add(w)
                adj[w].add(v)
    order: list[int] = []
    remaining = set(eliminate)
    while remaining:
        best = min(remaining, key=lambda v: (len(adj[v] & remaining), v))
        order.append(best)
        neigh = adj[best] & remaining
        for v in neigh:
            adj[v] |= neigh - {v}
        remaining.discard(best)
    return order


def _eliminate_all(
    net: DiscreteNetwork,
    keep: set[int],
    evidence: Mapping[str, int],
    elimination_order: Sequence[str] | None = None,
) -> tuple[np.ndarray, float, tuple[int, ...]]:
    """Run VE; returns (P(kept | evidence), log P(evidence), kept vars).

    The table's axes are the kept variables in index order (0-d when none).
    Each elimination step renormalizes the fresh factor by its sum and
    accumulates the log, so long chains cannot underflow. Impossible evidence
    gives an all-zero table and -inf: the caller decides whether that raises.
    """
    cards = [v.card for v in net.variables]
    kept = tuple(sorted(keep))
    factors = [_cpt_factor(net, net.cpts[v.name], evidence) for v in net.variables]

    log_scale = 0.0
    scalar = 1.0
    live: list[_Factor] = []
    for f in factors:
        if f.vars:
            live.append(f)
        else:
            scalar *= float(f.table.item())

    evid_idx = {net.index(n) for n in evidence}
    all_vars = set(range(len(cards)))
    to_eliminate = all_vars - keep - evid_idx

    if elimination_order is not None:
        order = [net.index(n) for n in elimination_order]
        if sorted(order) != sorted(to_eliminate):
            raise ValueError("elimination_order must name each non-kept, non-evidence variable exactly once")
    else:
        order = _min_degree_order([f.vars for f in live], to_eliminate)

    for v in order:
        # never empty: v's own CPT factor, or a product holding it, is live
        group = [f for f in live if v in f.vars]
        live = [f for f in live if v not in f.vars]
        prod = group[0]
        for g in group[1:]:
            prod = _multiply(prod, g, cards)
        summed = _sum_out(prod, v)
        total = float(summed.table.sum())
        if total <= 0.0:
            return np.zeros([cards[k] for k in kept]), -math.inf, kept
        if summed.vars:
            summed = _Factor(summed.vars, summed.table / total)
            log_scale += math.log(total)
            live.append(summed)
        else:
            scalar *= total

    table = np.ones(())
    if kept:
        # every kept variable's own CPT factor is still live
        result = live[0]
        for f in live[1:]:
            result = _multiply(result, f, cards)
        # axes of result.vars are sorted ascending already
        if result.vars != kept:  # pragma: no cover - keep is exactly result scope
            raise AssertionError("kept variable scope mismatch")
        table = result.table
    total = float(table.sum())
    if total <= 0.0 or scalar == 0.0:
        return np.zeros([cards[k] for k in kept]), -math.inf, kept
    # the scalar goes into the log, never into the table: normalized
    # queries must be bit-identical under evidence that only rescales
    return table / total, log_scale + math.log(scalar) + math.log(total), kept


# ---------------------------------------------------------------------------
# public queries
# ---------------------------------------------------------------------------

def posterior(
    net: DiscreteNetwork,
    target: str,
    evidence: Evidence | None = None,
    elimination_order: Sequence[str] | None = None,
) -> Posterior:
    """Exact P(target | evidence) by variable elimination.

    Raises ZeroProbabilityEvidence when the evidence has probability zero,
    UnknownVariable/UnknownState for bad references. The optional
    elimination_order is for tests of order independence.
    """
    ev = check_evidence(net, evidence or {})
    var = net.var(target)
    if target in ev:
        raise ValueError(f"target {target!r} must not appear in evidence")
    probs, log_p, _ = _eliminate_all(net, {net.index(target)}, ev, elimination_order)
    if log_p == -math.inf:
        raise ZeroProbabilityEvidence(f"evidence has probability zero: {dict(ev)!r}")
    return Posterior(target=target, states=var.states, probs=probs)


def do_posterior(
    net: DiscreteNetwork,
    target: str,
    intervention: tuple[str, int],
    evidence: Evidence | None = None,
) -> Posterior:
    """Exact P(target | do(X=x), evidence) via graph surgery.

    Mutilates a copy of the network (deletes arcs into X, uniform prior on
    X) and conditions on X=x alongside the evidence.
    """
    x_name, x_state = intervention
    var = net.var(x_name)
    if not 0 <= int(x_state) < var.card:
        raise UnknownState(f"variable {x_name!r} has {var.card} states, got {x_state}")
    if target == x_name:
        raise ValueError("intervention variable cannot be the query target")
    ev = check_evidence(net, evidence or {})
    if x_name in ev and ev[x_name] != int(x_state):
        raise ValueError(f"evidence contradicts intervention on {x_name!r}")
    cut = mutilate(net, x_name)
    ev[x_name] = int(x_state)
    return posterior(cut, target, ev)


def joint_probability(net: DiscreteNetwork, assignment: Mapping[str, int]) -> float:
    """P(full assignment) as the product of CPT entries.

    Requires a value for every variable; raises IncompleteAssignment
    otherwise. This is the row-level brute-force oracle.
    """
    asg = check_evidence(net, assignment)
    missing = [n for n in net.names if n not in asg]
    if missing:
        raise IncompleteAssignment(f"assignment is missing {missing}")
    p = 1.0
    for v in net.variables:
        cpt = net.cpts[v.name]
        row = parent_config_index(
            [net.card(q) for q in cpt.parents], [asg[q] for q in cpt.parents]
        )
        p *= float(cpt.rows[row, asg[v.name]])
    return p


def log_evidence(net: DiscreteNetwork, evidence: Evidence) -> float:
    """log P(evidence); -inf when the evidence is impossible."""
    ev = check_evidence(net, evidence)
    if not ev:
        return 0.0
    return _eliminate_all(net, set(), ev)[1]


def row_log_likelihoods(
    net: DiscreteNetwork, rows: Sequence[Mapping[str, int]]
) -> np.ndarray:
    """Per-row log P(observed part); -inf entries flag impossible rows.

    Rows with no observed values contribute exactly 0. Identical observation
    patterns are collapsed internally, so cost scales with the number of
    distinct patterns rather than the number of rows.
    """
    out = np.zeros(len(rows))
    cache: dict[tuple[tuple[str, int], ...], float] = {}
    for i, row in enumerate(rows):
        key = tuple(sorted(row.items()))
        if key not in cache:
            cache[key] = log_evidence(net, dict(key))
        out[i] = cache[key]
    return out


def marginal_log_likelihood(net: DiscreteNetwork, rows: Sequence[Mapping[str, int]]) -> float:
    """Sum over rows of log P(observed part of row).

    Impossible rows contribute -inf (and therefore make the total -inf);
    use :func:`row_log_likelihoods` to locate them by index.
    """
    return float(row_log_likelihoods(net, rows).sum())


# ---------------------------------------------------------------------------
# enumeration oracle
# ---------------------------------------------------------------------------

def dense_joint(net: DiscreteNetwork, skip_cpt: str | None = None) -> np.ndarray:
    """Full joint tensor over all variables in declaration order.

    Multiplies CPT tensors with broadcasting; no elimination orderings, no
    evidence handling. With ``skip_cpt`` set, that variable's CPT is left
    out of the product: the result is the truncated factorization used for
    ground-truth interventional values.
    """
    cards = [v.card for v in net.variables]
    n_cells = 1
    for c in cards:
        n_cells *= c
        if n_cells > _ENUM_CELL_CAP:
            raise TooLargeForEnumeration(
                f"joint over {len(cards)} variables exceeds {_ENUM_CELL_CAP} cells"
            )
    joint = np.ones(cards)
    for v in net.variables:
        if skip_cpt is not None and v.name == skip_cpt:
            continue
        cpt = net.cpts[v.name]
        scope = [net.index(p) for p in cpt.parents] + [net.index(v.name)]
        tensor = cpt.rows.reshape([cards[i] for i in scope])
        order = np.argsort(scope, kind="stable")
        tensor = np.transpose(tensor, order)
        shape = [1] * len(cards)
        for i in sorted(scope):
            shape[i] = cards[i]
        joint = joint * tensor.reshape(shape)
    return joint


def enumerate_posterior(
    net: DiscreteNetwork, target: str, evidence: Evidence | None = None
) -> Posterior:
    """Brute-force P(target | evidence) from the dense joint."""
    ev = check_evidence(net, evidence or {})
    var = net.var(target)
    if target in ev:
        raise ValueError(f"target {target!r} must not appear in evidence")
    joint = dense_joint(net)
    for name, state in ev.items():
        joint = np.take(joint, state, axis=net.index(name))
        joint = np.expand_dims(joint, net.index(name))
    axes = tuple(i for i in range(len(net.variables)) if i != net.index(target))
    marg = joint.sum(axis=axes)
    total = float(marg.sum())
    if total <= 0.0:
        raise ZeroProbabilityEvidence(f"evidence has probability zero: {dict(ev)!r}")
    return Posterior(target=target, states=var.states, probs=marg / total)
