"""Shared fixtures: seeded random networks and tiny hand-built nets."""
from __future__ import annotations

import numpy as np

from rdtrial.model import Cpt, DiscreteNetwork, VariableDef

# Keep the dense joint small enough that the enumeration oracle stays fast;
# node count and cardinality still span the full supported range.
_JOINT_CELL_CAP = 1 << 16


def random_network(
    rng: np.random.Generator,
    min_nodes: int = 3,
    max_nodes: int = 12,
    max_card: int = 4,
    max_parents: int = 3,
) -> DiscreteNetwork:
    """Random DAG with Dirichlet CPT rows; parents only among earlier nodes."""
    while True:
        n = int(rng.integers(min_nodes, max_nodes + 1))
        cards = rng.integers(2, max_card + 1, size=n)
        if int(np.prod(cards)) <= _JOINT_CELL_CAP:
            break
    names = [f"v{i}" for i in range(n)]
    variables = [
        VariableDef(name=names[i], states=tuple(f"s{j}" for j in range(cards[i])))
        for i in range(n)
    ]
    arcs: list[tuple[str, str]] = []
    cpts: dict[str, Cpt] = {}
    for i in range(n):
        k = int(rng.integers(0, min(i, max_parents) + 1))
        # drawn order, not sorted: CPTs must not assume parents in index order
        parents = tuple(names[j] for j in rng.choice(i, size=k, replace=False).tolist())
        arcs.extend((p, names[i]) for p in parents)
        n_cfg = int(np.prod([cards[names.index(p)] for p in parents])) if parents else 1
        rows = rng.dirichlet(np.ones(cards[i]), size=n_cfg)
        cpts[names[i]] = Cpt(child=names[i], parents=parents, rows=rows)
    return DiscreteNetwork(variables=variables, arcs=arcs, cpts=cpts)


def random_evidence(
    rng: np.random.Generator, net: DiscreteNetwork, exclude: tuple[str, ...] = ()
) -> dict[str, int]:
    """Random evidence over a random subset of nodes, possibly empty."""
    pool = [n for n in net.names if n not in exclude]
    k = int(rng.integers(0, len(pool) + 1))
    picked = rng.choice(len(pool), size=k, replace=False) if k else []
    return {pool[int(i)]: int(rng.integers(0, net.card(pool[int(i)]))) for i in picked}


def chain_network() -> DiscreteNetwork:
    """a -> b -> c with hand-set binary CPTs, for closed-form checks."""
    variables = [
        VariableDef(name="a", states=("0", "1")),
        VariableDef(name="b", states=("0", "1")),
        VariableDef(name="c", states=("0", "1")),
    ]
    cpts = {
        "a": Cpt(child="a", parents=(), rows=np.array([[0.7, 0.3]])),
        "b": Cpt(child="b", parents=("a",), rows=np.array([[0.9, 0.1], [0.4, 0.6]])),
        "c": Cpt(child="c", parents=("b",), rows=np.array([[0.8, 0.2], [0.25, 0.75]])),
    }
    return DiscreteNetwork(
        variables=variables, arcs=[("a", "b"), ("b", "c")], cpts=cpts
    )
