"""Discrete Bayesian networks and dynamic-network templates.

A :class:`DiscreteNetwork` is a DAG over categorical variables with one CPT
per variable. A :class:`DbnTemplate` is the compact two-layer description of
a dynamic network; :func:`unroll` instantiates it over a finite horizon.
:func:`mutilate` performs the graph surgery behind do-queries: incoming arcs
into the intervened variable are deleted and its CPT is replaced by a uniform
prior, turning it into a root whose value is supplied as evidence at query
time.

Node naming convention for unrolled networks:

* per-slice variable ``v`` at slice ``t``  ->  ``"v@t"`` (e.g. ``"egfr@3"``)
* study-entry variable ``v``              ->  ``"v@entry"``
* static variable ``v``                   ->  ``"v"``

CPT row order is the mixed-radix index over parent states with parents in
declared order, the first parent most significant: for parents (A, B) with
|A| = 2, |B| = 3 the rows are (A=0,B=0), (A=0,B=1), ..., (A=1,B=2).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    CyclicGraph,
    InvalidModel,
    UnknownState,
    UnknownVariable,
    UnnormalizedCpt,
)

ROW_SUM_TOL = 1e-9

KIND_STATIC = "static"
KIND_ENTRY = "entry"
KIND_PER_SLICE = "per_slice"
_KINDS = (KIND_STATIC, KIND_ENTRY, KIND_PER_SLICE)


# ---------------------------------------------------------------------------
# node-name helpers
# ---------------------------------------------------------------------------

def node_name(base: str, slice_: int | str | None) -> str:
    """Compose a node name from a base variable name and a slice tag."""
    if slice_ is None:
        return base
    return f"{base}@{slice_}"


def parse_node(name: str) -> tuple[str, int | str | None]:
    """Split a node name into (base, slice).

    The slice is an int for per-slice nodes, the string ``"entry"`` for
    entry nodes, and None for static nodes.
    """
    base, sep, tag = name.partition("@")
    if not sep:
        return name, None
    if tag == "entry":
        return base, "entry"
    try:
        return base, int(tag)
    except ValueError:
        return name, None


def slice_rank(name: str) -> float:
    """Temporal rank of a node: statics before entries before slice 0.

    Used when collecting evidence "at slices <= s": static and entry
    observations are baseline and precede every slice.
    """
    _, tag = parse_node(name)
    if tag is None:
        return -2.0
    if tag == "entry":
        return -1.0
    return float(tag)


# ---------------------------------------------------------------------------
# core types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VariableDef:
    """A categorical variable: name, ordered state labels, temporal kind.

    ``intervals`` optionally annotates each state with the half-open numeric
    interval [lo, hi) it was binned from; None means the variable is not a
    binned continuous quantity.
    """

    name: str
    states: tuple[str, ...]
    kind: str = KIND_PER_SLICE
    intervals: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        if self.intervals is not None:
            object.__setattr__(
                self, "intervals", tuple((float(a), float(b)) for a, b in self.intervals)
            )

    @property
    def card(self) -> int:
        return len(self.states)

    def state_index(self, label: str) -> int:
        try:
            return self.states.index(label)
        except ValueError:
            raise UnknownState(f"variable {self.name!r} has no state {label!r}") from None


@dataclass(frozen=True)
class Cpt:
    """Conditional probability table P(child | parents).

    rows has shape (prod of parent cardinalities, child cardinality); row
    order follows the mixed-radix convention documented at module level.
    """

    child: str
    parents: tuple[str, ...]
    rows: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "parents", tuple(self.parents))
        try:
            arr = np.asarray(self.rows, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise InvalidModel(f"CPT for {self.child!r} is not a table of numbers: {exc}") from exc
        if arr.ndim != 2:
            raise InvalidModel(f"CPT for {self.child!r} must be 2-D, got shape {arr.shape}")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "rows", arr)

    @property
    def n_configs(self) -> int:
        return self.rows.shape[0]


def parent_config_index(parent_cards: Sequence[int], parent_states: Sequence[int]) -> int:
    """Mixed-radix row index, first parent most significant."""
    idx = 0
    for card, state in zip(parent_cards, parent_states):
        idx = idx * card + state
    return idx


def iter_parent_configs(parent_cards: Sequence[int]) -> Iterable[tuple[int, ...]]:
    """All parent configurations in CPT row order."""
    if not parent_cards:
        yield ()
        return
    yield from itertools.product(*(range(c) for c in parent_cards))


class DiscreteNetwork:
    """An immutable discrete Bayesian network.

    Parameters
    ----------
    variables : ordered variable definitions; order fixes serialization and
        the axis order of enumeration oracles.
    arcs : directed arcs (parent, child).
    cpts : one Cpt per variable, keyed by variable name.
    outcomes : optional designation of the outcome node per time index.

    ``zero_cpts`` holds the names of the CPTs with a structural zero (a
    zero cell), found once here; CPT rows are read-only, so it stays true.
    """

    __slots__ = ("variables", "arcs", "cpts", "outcomes", "zero_cpts", "_index", "_children")

    def __init__(
        self,
        variables: Sequence[VariableDef],
        arcs: Sequence[tuple[str, str]],
        cpts: Mapping[str, Cpt],
        outcomes: Mapping[int, str] | None = None,
    ):
        object.__setattr__(self, "variables", tuple(variables))
        object.__setattr__(self, "arcs", tuple((str(a), str(b)) for a, b in arcs))
        object.__setattr__(self, "cpts", dict(cpts))
        object.__setattr__(self, "outcomes", dict(outcomes or {}))
        object.__setattr__(self, "zero_cpts", frozenset(
            name for name, cpt in self.cpts.items()
            if np.count_nonzero(cpt.rows) < cpt.rows.size))
        object.__setattr__(
            self, "_index", {v.name: i for i, v in enumerate(self.variables)}
        )
        children: dict[str, list[str]] = {v.name: [] for v in self.variables}
        for a, b in self.arcs:
            if a in children:
                children[a].append(b)
        object.__setattr__(self, "_children", children)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("DiscreteNetwork is immutable")

    # -- lookups ------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._index

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def var(self, name: str) -> VariableDef:
        try:
            return self.variables[self._index[name]]
        except KeyError:
            raise UnknownVariable(f"no variable named {name!r}") from None

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownVariable(f"no variable named {name!r}") from None

    def card(self, name: str) -> int:
        return self.var(name).card

    def parents(self, name: str) -> tuple[str, ...]:
        return self.cpts[name].parents

    def children(self, name: str) -> tuple[str, ...]:
        return tuple(self._children.get(name, ()))

    def state_index(self, name: str, label: str) -> int:
        return self.var(name).state_index(label)

    # -- traversal ----------------------------------------------------------

    def topological_order(self) -> list[str]:
        """Kahn topological order; raises CyclicGraph with a witness."""
        indeg = {v.name: 0 for v in self.variables}
        for a, b in self.arcs:
            if b in indeg:
                indeg[b] += 1
        queue = [n for n in self.names if indeg[n] == 0]
        order: list[str] = []
        i = 0
        while i < len(queue):
            n = queue[i]
            i += 1
            order.append(n)
            for c in self._children.get(n, ()):
                if c not in indeg:  # arc into an undeclared node; validation reports it
                    continue
                indeg[c] -= 1
                if indeg[c] == 0:
                    queue.append(c)
        if len(order) != len(self.variables):
            done = set(order)
            leftover = {n for n in indeg if n not in done}
            raise CyclicGraph(_cycle_witness(self.arcs, leftover))
        return order


def _cycle_witness(arcs: Sequence[tuple[str, str]], nodes: set[str]) -> list[str]:
    """Find a cycle among ``nodes`` by walking predecessors until one repeats.

    Every node left unprocessed by Kahn's algorithm has an unprocessed
    parent, so the predecessor walk cannot dead-end.
    """
    pred: dict[str, str] = {}
    for a, b in arcs:
        if a in nodes and b in nodes and b not in pred:
            pred[b] = a
    cur = sorted(nodes)[0]
    path = [cur]
    seen = {cur: 0}
    while True:
        cur = pred[cur]
        if cur in seen:
            cycle = path[seen[cur]:]
            cycle.reverse()
            return [cur] + cycle
        seen[cur] = len(path)
        path.append(cur)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    kind: str
    node: str | None
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...] = ()

    def raise_first(self) -> None:
        """Raise the typed error for the first violation, if any."""
        if self.ok:
            return
        v = self.violations[0]
        if v.kind == "cycle":
            raise CyclicGraph(v.detail.split(" -> "))
        if v.kind == "unnormalized":
            node, _, rest = v.detail.partition(":")
            row, _, total = rest.partition(":")
            raise UnnormalizedCpt(node, int(row), float(total))
        raise InvalidModel(f"{v.kind} at {v.node}: {v.detail}")


def validate_network(net: DiscreteNetwork) -> ValidationReport:
    """Full structural check: DAG-ness, CPT shapes, row normalization.

    Returns a report listing every violation rather than stopping at the
    first, so loaders can surface complete diagnostics.
    """
    out: list[Violation] = []
    seen: set[str] = set()
    for v in net.variables:
        if v.name in seen:
            out.append(Violation("duplicate_variable", v.name, "declared twice"))
        seen.add(v.name)
        if v.card < 2:
            out.append(Violation("too_few_states", v.name, f"{v.card} state(s)"))
        if len(set(v.states)) != v.card:
            out.append(Violation("duplicate_state", v.name, "repeated state label"))
        if v.intervals is not None:
            if len(v.intervals) != v.card:
                out.append(Violation("interval_arity", v.name, "one interval per state required"))
            else:
                for i in range(len(v.intervals) - 1):
                    lo0, hi0 = v.intervals[i]
                    lo1, _ = v.intervals[i + 1]
                    if not (lo0 <= hi0 <= lo1):
                        out.append(
                            Violation("interval_order", v.name, f"intervals {i} and {i+1} overlap or are unordered")
                        )

    known = set(net.names)
    arc_parents: dict[str, list[str]] = {n: [] for n in known}
    for a, b in net.arcs:
        if a not in known or b not in known:
            out.append(Violation("unknown_arc_endpoint", None, f"{a} -> {b}"))
            continue
        arc_parents[b].append(a)

    for name in known:
        cpt = net.cpts.get(name)
        if cpt is None:
            out.append(Violation("missing_cpt", name, "no CPT"))
            continue
        if set(cpt.parents) != set(arc_parents[name]):
            out.append(
                Violation(
                    "parent_mismatch",
                    name,
                    f"CPT parents {sorted(cpt.parents)} vs arcs {sorted(arc_parents[name])}",
                )
            )
            continue
        bad_parent = [p for p in cpt.parents if p not in known]
        if bad_parent:
            out.append(Violation("unknown_parent", name, ", ".join(bad_parent)))
            continue
        expect_rows = 1
        for p in cpt.parents:
            expect_rows *= net.card(p)
        if cpt.rows.shape != (expect_rows, net.card(name)):
            out.append(
                Violation(
                    "cpt_shape",
                    name,
                    f"expected {(expect_rows, net.card(name))}, got {cpt.rows.shape}",
                )
            )
            continue
        # written so that NaN, for which every comparison is False, fails both
        if not np.all((cpt.rows >= 0.0) & (cpt.rows <= 1.0)):
            out.append(Violation("entry_out_of_range", name, "entries outside [0, 1] or NaN"))
        with np.errstate(invalid="ignore"):  # inf + -inf: reported below, not warned
            sums = cpt.rows.sum(axis=1)
        bad = np.nonzero(~(np.abs(sums - 1.0) <= ROW_SUM_TOL))[0]
        for row in bad:
            out.append(
                Violation("unnormalized", name, f"{name}:{int(row)}:{float(sums[row])!r}")
            )

    extra = set(net.cpts) - known
    for name in sorted(extra):
        out.append(Violation("orphan_cpt", name, "CPT for undeclared variable"))

    try:
        net.topological_order()
    except CyclicGraph as exc:
        out.append(Violation("cycle", None, " -> ".join(exc.witness)))

    return ValidationReport(ok=not out, violations=tuple(out))


# ---------------------------------------------------------------------------
# graph queries and surgery
# ---------------------------------------------------------------------------

def has_directed_path(net: DiscreteNetwork, source: str, target: str) -> bool:
    """True iff a directed path source -> ... -> target exists (length >= 1)."""
    net.var(source)
    net.var(target)
    frontier = list(net.children(source))
    seen: set[str] = set()
    while frontier:
        n = frontier.pop()
        if n == target:
            return True
        if n in seen:
            continue
        seen.add(n)
        frontier.extend(net.children(n))
    return False


def mutilate(net: DiscreteNetwork, target: str) -> DiscreteNetwork:
    """Delete incoming arcs into ``target`` and reset its CPT to uniform.

    The intervened variable becomes a root; the do-value itself is supplied
    as evidence at query time. The input network is left untouched, and the
    operation is idempotent.
    """
    var = net.var(target)
    arcs = tuple((a, b) for a, b in net.arcs if b != target)
    uniform = np.full((1, var.card), 1.0 / var.card)
    cpts = dict(net.cpts)
    cpts[target] = Cpt(child=target, parents=(), rows=uniform)
    return DiscreteNetwork(net.variables, arcs, cpts, net.outcomes)


# ---------------------------------------------------------------------------
# templates
# ---------------------------------------------------------------------------

StaticArc = tuple[str, str, tuple[int, ...] | None]  # (source, target, slices or None=every slice)


@dataclass(frozen=True)
class DbnTemplate:
    """Two-layer description of a dynamic discrete network.

    Arc groups:

    * ``slice0_arcs``  per-slice -> per-slice wiring inside slice 0;
    * ``intra_arcs``   per-slice -> per-slice wiring inside every slice t >= 1;
    * ``inter_arcs``   per-slice(t-1) -> per-slice(t), lag 1, for t >= 1;
    * ``static_arcs``  static or entry source into anything; an optional
      slice list restricts which slices of a per-slice target receive the
      arc (None = every slice). This is how a study-entry variable can
      parent slice 1 only.

    CPT keys: ``name`` (static), ``name@entry``, ``name@0`` (slice 0),
    ``name@t`` (generic transition, parents may use ``@t`` and ``@t-1``
    markers), and ``name@<k>`` (exact-slice override, wins over ``name@t``).
    """

    variables: tuple[VariableDef, ...]
    slice0_arcs: tuple[tuple[str, str], ...] = ()
    intra_arcs: tuple[tuple[str, str], ...] = ()
    inter_arcs: tuple[tuple[str, str], ...] = ()
    static_arcs: tuple[StaticArc, ...] = ()
    cpts: Mapping[str, Cpt] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        kinds = {v.name: v.kind for v in self.variables}
        for v in self.variables:
            if v.kind not in _KINDS:
                raise InvalidModel(f"variable {v.name!r} has unknown kind {v.kind!r}")
        for group, name in (
            (self.slice0_arcs, "slice0_arcs"),
            (self.intra_arcs, "intra_arcs"),
            (self.inter_arcs, "inter_arcs"),
        ):
            for a, b in group:
                for end in (a, b):
                    if kinds.get(end) != KIND_PER_SLICE:
                        raise InvalidModel(
                            f"{name} endpoint {end!r} must be a per_slice variable"
                        )
        norm: list[StaticArc] = []
        for arc in self.static_arcs:
            if len(arc) == 2:
                src, dst = arc  # type: ignore[misc]
                slices: tuple[int, ...] | None = None
            else:
                src, dst, raw = arc  # type: ignore[misc]
                slices = None if raw is None else tuple(int(t) for t in raw)
            if kinds.get(src) not in (KIND_STATIC, KIND_ENTRY):
                raise InvalidModel(f"static_arcs source {src!r} must be static or entry")
            if kinds.get(dst) is None:
                raise InvalidModel(f"static_arcs target {dst!r} is not declared")
            norm.append((src, dst, slices))
        object.__setattr__(self, "static_arcs", tuple(norm))
        object.__setattr__(self, "cpts", dict(self.cpts))

    def by_kind(self, kind: str) -> tuple[VariableDef, ...]:
        return tuple(v for v in self.variables if v.kind == kind)


def _resolve_marker(name: str, t: int, kinds: Mapping[str, str]) -> str:
    """Map a template CPT parent marker to a concrete node name at slice t."""
    base, sep, tag = name.partition("@")
    if not sep:
        if kinds.get(base) == KIND_STATIC:
            return base
        raise InvalidModel(f"CPT parent {name!r} is not a static variable")
    if tag == "entry":
        return node_name(base, "entry")
    if tag == "t":
        return node_name(base, t)
    if tag == "t-1":
        if t < 1:
            raise InvalidModel(f"parent {name!r} needs a previous slice, used at slice {t}")
        return node_name(base, t - 1)
    try:
        return node_name(base, int(tag))
    except ValueError:
        raise InvalidModel(f"cannot resolve CPT parent marker {name!r}") from None


def unroll(template: DbnTemplate, horizon: int) -> DiscreteNetwork:
    """Instantiate a template over slices 0..horizon.

    Deterministic: node order is statics, entries, then slices in increasing
    t with per-slice variables in declaration order; identical inputs give a
    byte-identical serialized network.
    """
    if horizon < 0:
        raise InvalidModel(f"horizon must be >= 0, got {horizon}")
    kinds = {v.name: v.kind for v in template.variables}

    variables: list[VariableDef] = []
    for v in template.by_kind(KIND_STATIC):
        variables.append(VariableDef(v.name, v.states, KIND_STATIC, v.intervals))
    for v in template.by_kind(KIND_ENTRY):
        variables.append(
            VariableDef(node_name(v.name, "entry"), v.states, KIND_ENTRY, v.intervals)
        )
    for t in range(horizon + 1):
        for v in template.by_kind(KIND_PER_SLICE):
            variables.append(
                VariableDef(node_name(v.name, t), v.states, KIND_PER_SLICE, v.intervals)
            )

    arcs: list[tuple[str, str]] = []
    for a, b in template.slice0_arcs:
        arcs.append((node_name(a, 0), node_name(b, 0)))
    for t in range(1, horizon + 1):
        for a, b in template.intra_arcs:
            arcs.append((node_name(a, t), node_name(b, t)))
        for a, b in template.inter_arcs:
            arcs.append((node_name(a, t - 1), node_name(b, t)))
    for src, dst, slices in template.static_arcs:
        src_node = src if kinds[src] == KIND_STATIC else node_name(src, "entry")
        if kinds[dst] == KIND_PER_SLICE:
            targets = range(horizon + 1) if slices is None else [t for t in slices if 0 <= t <= horizon]
            for t in targets:
                arcs.append((src_node, node_name(dst, t)))
        else:
            dst_node = dst if kinds[dst] == KIND_STATIC else node_name(dst, "entry")
            arcs.append((src_node, dst_node))

    cpts: dict[str, Cpt] = {}
    for v in template.variables:
        if v.kind == KIND_STATIC:
            key = v.name
            tpl = template.cpts.get(key)
            if tpl is None:
                raise InvalidModel(f"template is missing CPT {key!r}")
            cpts[v.name] = Cpt(v.name, tuple(_resolve_marker(p, 0, kinds) for p in tpl.parents), tpl.rows)
        elif v.kind == KIND_ENTRY:
            key = node_name(v.name, "entry")
            tpl = template.cpts.get(key)
            if tpl is None:
                raise InvalidModel(f"template is missing CPT {key!r}")
            cpts[key] = Cpt(key, tuple(_resolve_marker(p, 0, kinds) for p in tpl.parents), tpl.rows)
        else:
            for t in range(horizon + 1):
                node = node_name(v.name, t)
                if t == 0:
                    tpl = template.cpts.get(node_name(v.name, 0))
                    if tpl is None:
                        raise InvalidModel(f"template is missing CPT {node_name(v.name, 0)!r}")
                else:
                    tpl = template.cpts.get(node_name(v.name, t))
                    if tpl is None:
                        tpl = template.cpts.get(f"{v.name}@t")
                    if tpl is None:
                        raise InvalidModel(f"template is missing CPT {v.name}@t")
                parents = tuple(_resolve_marker(p, t, kinds) for p in tpl.parents)
                cpts[node] = Cpt(node, parents, tpl.rows)

    net = DiscreteNetwork(variables, arcs, cpts)
    report = validate_network(net)
    if not report.ok:
        report.raise_first()
    return net
