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

Variable elimination is batched. Evidence maps each observed variable to a
state index or to a 1-D integer array of length B, one entry per row;
scalars broadcast over the rows. All rows of one call share the same
observed set (their missingness mask), so they share one elimination order
and every factor carries a leading batch axis. Each row's result is
bit-identical to the same row run alone. A scalar call (no array values)
raises ZeroProbabilityEvidence on impossible evidence; a batched call never
raises for that and marks the impossible rows instead (nan probabilities,
log P = -inf), leaving the other rows untouched.

:func:`posterior` and :func:`do_posterior` build only the query's requisite
CPTs (:func:`requisite`): the factors of the target's connected part of the
ancestral graph, evidence cutting the arcs out of observed nodes and an
intervention the arcs into its variable, plus every ancestral CPT that holds
a structural zero, so impossible evidence anywhere still reads as such.
Barren factors sum to one and a disconnected strictly positive part only
rescales the rows, so both drops are exact (Shachter 1998, Bayes-Ball;
Geiger, Verma & Pearl 1990). :func:`log_evidence` needs every factor and
keeps them all.

EM and :func:`row_log_likelihoods` pass a code matrix instead, -1 marking a
missing cell: each observed cell is an evidence indicator (Darwiche 2003),
so rows with different observed sets share one elimination. For EM the
elimination also runs in family mode: its steps form a clique tree, and one
distribute pass over them gives every family's posterior table, so the
E-step makes one call per iteration, not one per family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    IncompleteAssignment,
    InvalidQuery,
    TooLargeForEnumeration,
    UnknownState,
    UnknownVariable,
    ZeroProbabilityEvidence,
)
# mutilate is not called here: a do-query cuts the arcs by name. The name
# stays bound because bench/spans.py wraps rdtrial.inference.mutilate.
from .model import Cpt, DiscreteNetwork, mutilate, parent_config_index  # noqa: F401

Evidence = Mapping[str, int | np.ndarray]

_ENUM_CELL_CAP = 1 << 26  # dense-joint oracle refuses beyond ~67M cells


@dataclass(frozen=True)
class Posterior:
    """Distribution over one variable's states given evidence.

    ``probs`` has shape (states,) for a scalar query and (B, states) for a
    batched one; indexing with a state reads the scalar query only.
    """

    target: str
    states: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=np.float64)
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    def __getitem__(self, state: int) -> float:
        if self.probs.ndim != 1:
            raise TypeError("a batched posterior is read through .probs[:, state]")
        return float(self.probs[state])


def check_evidence(net: DiscreteNetwork, evidence: Evidence) -> dict[str, int | np.ndarray]:
    """Validate an evidence map; scalars become int, arrays 1-D intp arrays.

    Every array value must have the same nonzero length (the batch size).
    """
    out: dict[str, int | np.ndarray] = {}
    batch = None
    for name, state in evidence.items():
        var = net.var(name)  # raises UnknownVariable
        arr = np.asarray(state)
        if arr.ndim == 0:
            s = int(state)
            if not 0 <= s < var.card:
                raise UnknownState(
                    f"variable {name!r} has {var.card} states, got index {s}"
                )
            out[name] = s
            continue
        if arr.ndim != 1 or arr.size == 0 or arr.dtype.kind not in "iu":
            raise ValueError(f"evidence for {name!r} must be a state index or a nonempty 1-D integer array")
        if batch is not None and arr.size != batch:
            raise ValueError(f"evidence arrays differ in length: {batch} and {arr.size} ({name!r})")
        batch = arr.size
        if arr.min() < 0 or arr.max() >= var.card:
            raise UnknownState(
                f"variable {name!r} has {var.card} states, got indices {arr.min()}..{arr.max()}"
            )
        out[name] = arr.astype(np.intp, copy=False)
    return out


def _batched(ev: Mapping[str, int | np.ndarray]) -> bool:
    return any(isinstance(s, np.ndarray) for s in ev.values())


def requisite(
    net: DiscreteNetwork,
    target: str,
    observed: Iterable[str],
    intervention: str | None = None,
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The CPTs that P(target | observed) needs, and the observed names it
    reads; both in network order, from names alone. The target is not
    among the observed names.

    A CPT is needed when its factor (observed family members fixed) joins
    the target's connected part of the ancestral graph of target and
    observed, with the arcs out of observed nodes cut, or when it is
    ancestral and holds a structural zero. The intervention variable counts
    as observed; the arcs into it are cut and its own CPT, uniform after
    the surgery, is never needed. Any other factor is barren or only
    rescales the rows, so the query built from the needed CPTs is exact; the
    observed names outside their families can be left out of the evidence.
    """
    seen = set(observed)
    if intervention is not None:
        seen.add(intervention)
    ancestral: set[str] = set()
    stack = [target, *seen]
    while stack:
        name = stack.pop()
        if name not in ancestral:
            ancestral.add(name)
            if name != intervention:
                stack.extend(net.parents(name))
    ancestral.discard(intervention)

    # walk the free variables from the target: a free v sits in its own
    # CPT's factor and in its ancestral children's
    needed: set[str] = set()
    free, stack = {target}, [target]
    while stack:
        v = stack.pop()
        for name in (v, *net.children(v)):
            if name in ancestral and name not in needed:
                needed.add(name)
                for m in (*net.parents(name), name):
                    if m not in seen and m not in free:
                        free.add(m)
                        stack.append(m)
    needed.update(n for n in ancestral - needed
                  if np.count_nonzero(net.cpts[n].rows) < net.cpts[n].rows.size)

    cpts = sorted(needed, key=net.index)
    reads = {m for n in cpts for m in (*net.parents(n), n) if m in seen}
    return tuple(cpts), tuple(sorted(reads, key=net.index))


# ---------------------------------------------------------------------------
# factors
# ---------------------------------------------------------------------------

class _Factor:
    """A nonnegative table: a batch axis (size 1 or B), then one axis per
    variable of a sorted tuple of variable indices."""

    __slots__ = ("vars", "table")

    def __init__(self, vars_: tuple[int, ...], table: np.ndarray):
        self.vars = vars_
        self.table = table


def _cpt_factor(net: DiscreteNetwork, cpt: Cpt, evidence: Mapping[str, np.ndarray]) -> _Factor:
    """CPT as a factor: observed axes to the front, indexed with the codes."""
    names = (*cpt.parents, cpt.child)
    table = cpt.rows.reshape([net.card(n) for n in names])
    seen = [a for a, n in enumerate(names) if n in evidence]
    free = sorted((a for a, n in enumerate(names) if n not in evidence),
                  key=lambda a: net.index(names[a]))
    table = table.transpose(seen + free)
    # the code arrays broadcast to one leading batch axis; none gives size 1
    table = table[tuple(evidence[names[a]] for a in seen)] if seen else table[None]
    return _Factor(
        tuple(net.index(names[a]) for a in free),
        np.ascontiguousarray(table, dtype=np.float64),
    )


def _multiply(a: _Factor, b: _Factor, cards: Sequence[int]) -> _Factor:
    union = tuple(sorted(set(a.vars) | set(b.vars)))

    def expand(f: _Factor) -> np.ndarray:
        # both scopes are sorted, so inserting unit axes keeps the order
        return f.table.reshape([len(f.table)] + [cards[v] if v in f.vars else 1 for v in union])

    return _Factor(union, expand(a) * expand(b))


def _sum_out(f: _Factor, var: int) -> _Factor:
    axis = 1 + f.vars.index(var)
    return _Factor(tuple(v for v in f.vars if v != var), f.table.sum(axis=axis))


def _row_sums(table: np.ndarray) -> np.ndarray:
    # one contiguous pairwise sum per row, the same as summing the row alone
    return table.reshape(len(table), -1).sum(axis=1)


def _fold(scale: np.ndarray, expo: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """scale * 2**expo * x as a mantissa in [0.5, 1) (or 0) and an exponent."""
    m, e = np.frexp(x)
    scale, e2 = np.frexp(scale * m)
    return scale, expo + e + e2


def _per_row(total: np.ndarray, ndim: int) -> np.ndarray:
    """Row totals shaped to divide a (rows, ...) table of ndim axes; a dead
    row's zero total, overwritten at the end, divides by 1 meanwhile."""
    return np.where(total > 0.0, total, 1.0).reshape((len(total),) + (1,) * (ndim - 1))


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
    evidence: Mapping[str, int | np.ndarray] | np.ndarray,
    elimination_order: Sequence[str] | None = None,
    families: Sequence[tuple[int, ...]] | None = None,
    cpts: Sequence[str] | None = None,
) -> tuple[np.ndarray | list[np.ndarray], np.ndarray, tuple[int, ...]]:
    """Batched VE; returns (P(kept | evidence), log P(evidence), kept vars).

    Evidence maps non-kept names to state indices or 1-D int arrays of one
    length B (B = 1 when all are scalars), or is a (B, variables) code matrix
    whose columns with an observed cell become indicator factors (one-hot,
    ones where -1; a kept observed axis comes back one-hot). The table has
    shape (B, kept...), kept variables in index order; log P has shape (B,).
    The order depends only on the mapped names, so it is computed once. Each
    step renormalizes every row by its own sum, kept as mantissa and exponent
    so long chains cannot underflow. A row's bits depend on that row alone
    (ones multiply exactly); an impossible row gets zeros and -inf.

    ``cpts`` names the CPTs to build, every one by default (log P then
    covers only those); every kept variable's own CPT must be among them.
    Only the variables the built factors mention are eliminated. An explicit
    ``elimination_order`` must name every non-kept, non-evidence variable of
    the network once, and is then cut down to those.

    Family mode (``families`` given; a code matrix, nothing kept) calibrates
    the elimination's clique tree and returns, in place of the table, one
    (B, *family) table of P(family | evidence) per family, axes in the
    family's order. The elimination is the collect pass, so log P is the
    one the same call without ``families`` gives; see :func:`_family_tables`
    for the distribute pass.
    """
    cards = [v.card for v in net.variables]
    kept = tuple(sorted(keep))
    if families is not None and (kept or not isinstance(evidence, np.ndarray)):
        raise ValueError("family mode takes a code matrix and keeps nothing")
    if isinstance(evidence, np.ndarray):
        ev, batch, codes = {}, len(evidence), evidence.T[:, :, None]
        indicators = [_Factor((v,), ((codes[v] == np.arange(c)) | (codes[v] < 0)).astype(np.float64))
                      for v, c in enumerate(cards) if (codes[v] >= 0).any()]
    else:
        ev = {n: np.atleast_1d(np.asarray(s, dtype=np.intp)) for n, s in evidence.items()}
        batch = max((len(s) for s in ev.values()), default=1)
        indicators = []
    names = net.names if cpts is None else cpts
    factors = [_cpt_factor(net, net.cpts[n], ev) for n in names] + indicators

    scale, expo = np.ones(1), np.zeros(1, dtype=np.int64)
    live: list[_Factor] = []
    for f in factors:
        if f.vars:
            live.append(f)
        else:
            scale, expo = _fold(scale, expo, f.table)

    to_eliminate = {v for f in live for v in f.vars} - keep

    if elimination_order is not None:
        order = [net.index(n) for n in elimination_order]
        if sorted(order) != sorted(set(range(len(cards))) - keep - {net.index(n) for n in ev}):
            raise ValueError("elimination_order must name each non-kept, non-evidence variable exactly once")
        order = [v for v in order if v in to_eliminate]
    else:
        order = _min_degree_order([f.vars for f in live], to_eliminate)

    steps: list[tuple[_Factor, _Factor | None]] = []  # (product, message) per v
    for v in order:
        # never empty: v is eliminated because a live factor mentions it
        group = [f for f in live if v in f.vars]
        live = [f for f in live if v not in f.vars]
        prod = group[0]
        for g in group[1:]:
            prod = _multiply(prod, g, cards)
        summed = _sum_out(prod, v)
        total = _row_sums(summed.table)
        scale, expo = _fold(scale, expo, total)
        message = None
        if summed.vars:
            message = _Factor(summed.vars, summed.table / _per_row(total, summed.table.ndim))
            live.append(message)
        if families is not None:
            steps.append((prod, message))

    table = np.ones(1)
    if kept:
        # every kept variable's own CPT factor is still live, and the
        # product's sorted scope is exactly kept
        table = live[0]
        for f in live[1:]:
            table = _multiply(table, f, cards)
        table = table.table
    total = _row_sums(table)
    scale, expo = _fold(scale, expo, total)
    # the scale goes into the log, never into the table: normalized
    # queries must be bit-identical under evidence that only rescales
    probs = np.array(np.broadcast_to(table / _per_row(total, table.ndim),
                                     (batch, *table.shape[1:])))
    # math.log, not np.log: numpy's SIMD log can differ in the last bit
    logs = np.array([math.log(s) if s > 0.0 else -math.inf for s in scale.tolist()])
    log_p = np.array(np.broadcast_to(logs + expo * math.log(2.0), (batch,)))
    probs[log_p == -math.inf] = 0.0
    if families is not None:
        return _family_tables(steps, order, families, cards, log_p), log_p, kept
    return probs, log_p, kept


def _marginal(f: _Factor, scope: Sequence[int]) -> np.ndarray:
    """f's table summed down to the variables in scope, one axis at a time."""
    for v in f.vars:
        if v not in scope:
            f = _sum_out(f, v)
    return f.table


def _family_tables(
    steps: list[tuple[_Factor, _Factor | None]],
    order: list[int],
    families: Sequence[tuple[int, ...]],
    cards: Sequence[int],
    log_p: np.ndarray,
) -> list[np.ndarray]:
    """Hugin distribute pass over the collect pass's (product, message) steps.

    Step i's product is a clique potential and its message goes to the
    step that eliminates the message's first variable (Lauritzen &
    Spiegelhalter 1988; Jensen, Lauritzen & Olesen 1990). Walking the steps
    in reverse, a step's belief is its product times its consumer's belief,
    summed down to the message's scope and renormalized per row, divided by
    the message (0/0 := 0). A family lies in the product of the step that
    eliminates its first member, since that step takes in its CPT factor;
    its table is that belief summed down and renormalized per row. Every
    operation is per row, so a row's bits depend on that row alone; rows
    with log P = -inf come back all zero.
    """
    position = {v: i for i, v in enumerate(order)}
    beliefs: list[np.ndarray] = [np.empty(0)] * len(steps)
    for i in reversed(range(len(steps))):
        prod, message = steps[i]
        if message is None:  # the root of its tree
            beliefs[i] = prod.table
            continue
        j = min(position[v] for v in message.vars)
        marg = _marginal(_Factor(steps[j][0].vars, beliefs[j]), message.vars)
        marg = marg / _per_row(_row_sums(marg), marg.ndim)
        ratio = marg / np.where(message.table > 0.0, message.table, 1.0)
        beliefs[i] = _multiply(prod, _Factor(message.vars, ratio), cards).table

    dead = log_p == -math.inf
    tables = []
    for family in families:
        i = min(position[v] for v in family)
        table = _marginal(_Factor(steps[i][0].vars, beliefs[i]), family)
        table = np.array(np.broadcast_to(table / _per_row(_row_sums(table), table.ndim),
                                         (len(log_p), *table.shape[1:])))
        table[dead] = 0.0
        scope = sorted(family)
        tables.append(np.transpose(table, [0, *(1 + scope.index(v) for v in family)]))
    return tables


# ---------------------------------------------------------------------------
# public queries
# ---------------------------------------------------------------------------

def _query(
    net: DiscreteNetwork,
    target: str,
    ev: dict[str, int | np.ndarray],
    intervention: str | None = None,
    elimination_order: Sequence[str] | None = None,
) -> Posterior:
    """P(target | ev) on the query's requisite CPTs; ev has passed
    check_evidence and holds the intervention's state when there is one."""
    var = net.var(target)
    if target in ev:
        raise InvalidQuery(f"target {target!r} must not appear in evidence")
    cpts, _ = requisite(net, target, ev, intervention)
    probs, log_p, _ = _eliminate_all(net, {net.index(target)}, ev, elimination_order, cpts=cpts)
    if _batched(ev):
        probs[log_p == -math.inf] = math.nan
    elif log_p[0] == -math.inf:
        raise ZeroProbabilityEvidence(f"evidence has probability zero: {dict(ev)!r}")
    else:
        probs = probs[0]
    return Posterior(target=target, states=var.states, probs=probs)


def posterior(
    net: DiscreteNetwork,
    target: str,
    evidence: Evidence | None = None,
    elimination_order: Sequence[str] | None = None,
) -> Posterior:
    """Exact P(target | evidence) by variable elimination.

    With array-valued evidence the result holds one row per batch entry,
    nan on rows whose evidence has probability zero. A scalar query raises
    ZeroProbabilityEvidence instead. UnknownVariable/UnknownState flag bad
    references; InvalidQuery an observed target. Only the requisite CPTs
    are built. The optional elimination_order is for tests of order
    independence: it names every non-target, non-evidence variable of the
    network, and the variables outside the requisite CPTs are skipped.
    """
    return _query(net, target, check_evidence(net, evidence or {}),
                  elimination_order=elimination_order)


def do_posterior(
    net: DiscreteNetwork,
    target: str,
    intervention: tuple[str, int | np.ndarray],
    evidence: Evidence | None = None,
) -> Posterior:
    """Exact P(target | do(X=x), evidence) via graph surgery.

    Conditions on X=x alongside the evidence with the arcs into X cut and
    X's own CPT left out (uniform after the surgery, it only rescales); no
    mutilated copy of the network is built. The state x may be an array,
    one per batch row, like any evidence value; the result is batched as in
    :func:`posterior`. InvalidQuery flags X as the target or evidence on X
    that contradicts x.
    """
    x_name, x_state = intervention
    if target == x_name:
        raise InvalidQuery("intervention variable cannot be the query target")
    given = dict(evidence or {})
    seen_x = given.pop(x_name, None)
    # the evidence and x are checked in one pass, an observed x on its own
    ev = check_evidence(net, {**given, x_name: x_state})
    if seen_x is not None and np.any(check_evidence(net, {x_name: seen_x})[x_name] != ev[x_name]):
        raise InvalidQuery(f"evidence contradicts intervention on {x_name!r}")
    return _query(net, target, ev, x_name)


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


def log_evidence(net: DiscreteNetwork, evidence: Evidence) -> float | np.ndarray:
    """log P(evidence); -inf when the evidence is impossible.

    A float for scalar evidence, a (B,) array for array-valued evidence.
    """
    ev = check_evidence(net, evidence)
    if not ev:
        return 0.0
    log_p = _eliminate_all(net, set(), ev)[1]
    return log_p if _batched(ev) else float(log_p[0])


def _code_matrix(net: DiscreteNetwork, rows: Sequence[Mapping[str, int]]) -> np.ndarray:
    """Rows as a code matrix; UnknownVariable/UnknownState flag bad cells."""
    names = net.names
    codes = np.array([[row.get(n, -1) for n in names] for row in rows], dtype=np.intp)
    codes = codes.reshape(len(rows), len(names))
    if ((codes >= 0) & (codes < [v.card for v in net.variables])).sum() != sum(map(len, rows)):
        for row in rows:
            check_evidence(net, row)  # names the bad cell
    return codes


def row_log_likelihoods(
    net: DiscreteNetwork, rows: Sequence[Mapping[str, int]]
) -> np.ndarray:
    """Per-row log P(observed part); -inf entries flag impossible rows.

    One elimination over all rows. A row with nothing observed contributes
    exactly 0, although the joint sums to 1 only within rounding.
    """
    codes = _code_matrix(net, rows)
    out = _eliminate_all(net, set(), codes)[1]
    out[(codes < 0).all(axis=1)] = 0.0
    return out


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
        raise InvalidQuery(f"target {target!r} must not appear in evidence")
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
