"""Structure layer: naming, CPT indexing, validation, surgery, unrolling."""
from __future__ import annotations

import numpy as np
import pytest

from rdtrial.errors import CyclicGraph, InvalidModel, UnknownState, UnknownVariable
from rdtrial.model import (
    Cpt,
    DbnTemplate,
    DiscreteNetwork,
    VariableDef,
    has_directed_path,
    iter_parent_configs,
    mutilate,
    node_name,
    parent_config_index,
    parse_node,
    slice_rank,
    unroll,
    validate_network,
)

from helpers import chain_network


# ---------------------------------------------------------------------------
# node naming
# ---------------------------------------------------------------------------

def test_node_name_round_trip():
    assert node_name("egfr", 3) == "egfr@3"
    assert node_name("age", "entry") == "age@entry"
    assert node_name("sex", None) == "sex"
    for name in ("egfr@3", "age@entry", "sex"):
        base, tag = parse_node(name)
        assert node_name(base, tag) == name


def test_slice_rank_ordering():
    # static < entry < slice 0 < slice 1 < ...
    assert slice_rank("sex") < slice_rank("age@entry") < slice_rank("x@0")
    assert slice_rank("x@0") < slice_rank("x@1") < slice_rank("x@7")
    assert slice_rank("x@4") == 4.0


def test_parse_node_is_lenient_about_odd_tags():
    # a tag that is neither an int nor "entry" makes the whole name static
    assert parse_node("x@banana") == ("x@banana", None)
    assert parse_node("x@3") == ("x", 3)
    assert parse_node("x@entry") == ("x", "entry")
    assert node_name(*parse_node("x@banana")) == "x@banana"


# ---------------------------------------------------------------------------
# CPT row indexing
# ---------------------------------------------------------------------------

def test_parent_config_index_mixed_radix():
    # first parent most significant: cards (2, 3), states (1, 2) -> 1*3 + 2
    assert parent_config_index((2, 3), (1, 2)) == 5
    assert parent_config_index((), ()) == 0
    configs = list(iter_parent_configs((2, 3)))
    assert configs[0] == (0, 0)
    assert configs[5] == (1, 2)
    assert len(configs) == 6
    # enumeration order matches the index function
    for i, cfg in enumerate(configs):
        assert parent_config_index((2, 3), cfg) == i


# ---------------------------------------------------------------------------
# network lookups and ordering
# ---------------------------------------------------------------------------

def test_lookups_and_errors():
    net = chain_network()
    assert net.names == ("a", "b", "c")
    assert net.parents("b") == ("a",)
    assert net.children("a") == ("b",)
    assert net.card("c") == 2
    assert net.state_index("a", "1") == 1
    with pytest.raises(UnknownVariable):
        net.var("zzz")
    with pytest.raises(UnknownState):
        net.var("a").state_index("2")


def test_topological_order_and_cycle_witness():
    net = chain_network()
    order = net.topological_order()
    assert order.index("a") < order.index("b") < order.index("c")

    loop = DiscreteNetwork(
        variables=[
            VariableDef(name="x", states=("0", "1")),
            VariableDef(name="y", states=("0", "1")),
        ],
        arcs=[("x", "y"), ("y", "x")],
        cpts={
            "x": Cpt("x", ("y",), np.array([[0.5, 0.5], [0.5, 0.5]])),
            "y": Cpt("y", ("x",), np.array([[0.5, 0.5], [0.5, 0.5]])),
        },
    )
    with pytest.raises(CyclicGraph) as exc:
        loop.topological_order()
    witness = exc.value.witness
    # witness walks a real cycle: consecutive entries are arcs, ends meet
    assert witness[0] == witness[-1]
    arcs = set(loop.arcs)
    for u, v in zip(witness, witness[1:]):
        assert (u, v) in arcs


def test_network_is_immutable():
    net = chain_network()
    with pytest.raises(AttributeError):
        net.variables = ()
    with pytest.raises(ValueError):
        net.cpts["a"].rows[0, 0] = 0.9


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _kinds(report):
    return {v.kind for v in report.violations}


def test_validate_clean_network():
    assert validate_network(chain_network()).ok


def test_validate_catches_each_defect():
    a = VariableDef(name="a", states=("0", "1"))
    b = VariableDef(name="b", states=("0", "1"))
    cpt_a = Cpt("a", (), np.array([[0.7, 0.3]]))
    cpt_b = Cpt("b", ("a",), np.array([[0.9, 0.1], [0.4, 0.6]]))

    missing = DiscreteNetwork([a, b], [("a", "b")], {"a": cpt_a})
    assert "missing_cpt" in _kinds(validate_network(missing))

    bad_shape = DiscreteNetwork(
        [a, b], [("a", "b")], {"a": cpt_a, "b": Cpt("b", ("a",), np.array([[0.9, 0.1]]))}
    )
    assert "cpt_shape" in _kinds(validate_network(bad_shape))

    unnorm = DiscreteNetwork(
        [a, b],
        [("a", "b")],
        {"a": cpt_a, "b": Cpt("b", ("a",), np.array([[0.9, 0.2], [0.4, 0.6]]))},
    )
    report = validate_network(unnorm)
    assert "unnormalized" in _kinds(report)
    assert not report.ok

    stray = DiscreteNetwork([a, b], [("a", "b"), ("a", "ghost")], {"a": cpt_a, "b": cpt_b})
    assert "unknown_arc_endpoint" in _kinds(validate_network(stray))

    mismatch = DiscreteNetwork(
        [a, b], [], {"a": cpt_a, "b": cpt_b}  # CPT says a is a parent, arcs say no
    )
    assert "parent_mismatch" in _kinds(validate_network(mismatch))

    single = DiscreteNetwork(
        [VariableDef(name="a", states=("only",))], [], {"a": Cpt("a", (), np.array([[1.0]]))}
    )
    assert "too_few_states" in _kinds(validate_network(single))

    orphan = DiscreteNetwork([a], [], {"a": cpt_a, "phantom": cpt_b})
    assert "orphan_cpt" in _kinds(validate_network(orphan))


@pytest.mark.parametrize("row", [[np.nan, 0.3], [np.nan, np.nan], [np.inf, -np.inf]],
                         ids=["one-nan", "all-nan", "infinite-sum-nan"])
def test_validate_rejects_nan_entries_and_nan_row_sums(row):
    # every comparison with NaN is False, so "x < 0 or x > 1" and
    # "|sum - 1| > tol" both let a NaN through
    a = VariableDef(name="a", states=("0", "1"))
    report = validate_network(DiscreteNetwork([a], [], {"a": Cpt("a", (), np.array([row]))}))
    assert _kinds(report) == {"entry_out_of_range", "unnormalized"}
    with pytest.raises(InvalidModel, match="entry_out_of_range at a"):
        report.raise_first()


def test_validate_interval_order():
    bad = DiscreteNetwork(
        [
            VariableDef(
                name="x",
                states=("lo", "hi"),
                intervals=((0.0, 5.0), (4.0, 9.0)),  # overlaps
            )
        ],
        [],
        {"x": Cpt("x", (), np.array([[0.5, 0.5]]))},
    )
    assert "interval_order" in _kinds(validate_network(bad))


def test_raise_first_maps_to_typed_errors():
    a = VariableDef(name="a", states=("0", "1"))
    unnorm = DiscreteNetwork(
        [a], [], {"a": Cpt("a", (), np.array([[0.7, 0.4]]))}
    )
    with pytest.raises(Exception) as exc:
        validate_network(unnorm).raise_first()
    assert "a" in str(exc.value)


# ---------------------------------------------------------------------------
# path queries and mutilation
# ---------------------------------------------------------------------------

def test_has_directed_path():
    net = chain_network()
    assert has_directed_path(net, "a", "c")
    assert has_directed_path(net, "b", "c")
    assert not has_directed_path(net, "c", "a")
    # length >= 1: a node does not trivially reach itself in a DAG
    assert not has_directed_path(net, "a", "a")
    with pytest.raises(UnknownVariable):
        has_directed_path(net, "a", "zzz")


def test_mutilate_cuts_incoming_and_resets_cpt():
    net = chain_network()
    cut = mutilate(net, "b")
    assert ("a", "b") not in cut.arcs
    assert ("b", "c") in cut.arcs
    assert cut.parents("b") == ()
    np.testing.assert_array_equal(cut.cpts["b"].rows, [[0.5, 0.5]])
    # original untouched
    assert ("a", "b") in net.arcs
    assert net.cpts["b"].rows.shape == (2, 2)
    assert validate_network(cut).ok


def test_mutilate_idempotent():
    net = chain_network()
    once = mutilate(net, "b")
    twice = mutilate(once, "b")
    assert once.arcs == twice.arcs
    np.testing.assert_array_equal(once.cpts["b"].rows, twice.cpts["b"].rows)


# ---------------------------------------------------------------------------
# templates and unrolling
# ---------------------------------------------------------------------------

def _template():
    variables = [
        VariableDef(name="sex", states=("f", "m"), kind="static"),
        VariableDef(name="age", states=("young", "old"), kind="entry"),
        VariableDef(name="lab", states=("lo", "hi"), kind="per_slice"),
        VariableDef(name="out", states=("no", "yes"), kind="per_slice"),
    ]
    u = np.array([[0.5, 0.5]])
    u2 = np.array([[0.5, 0.5], [0.5, 0.5]])
    u4 = np.tile([0.5, 0.5], (4, 1))
    override = np.array([[0.9, 0.1], [0.2, 0.8]])
    cpts = {
        "sex": Cpt("sex", (), u),
        "age@entry": Cpt("age", (), u),
        "lab@0": Cpt("lab", ("sex",), u2),
        "lab@t": Cpt("lab", ("lab@t-1",), u2),
        "lab@2": Cpt("lab", ("lab@t-1",), override),  # exact-slice override
        "out@0": Cpt("out", ("lab@t", "age@entry"), u4),
        "out@t": Cpt("out", ("lab@t", "age@entry"), u4),
    }
    return DbnTemplate(
        variables=variables,
        slice0_arcs=(("lab", "out"),),
        intra_arcs=(("lab", "out"),),
        inter_arcs=(("lab", "lab"),),
        static_arcs=(("sex", "lab", (0,)), ("age", "out", None)),
        cpts=cpts,
    )


def test_unroll_node_and_arc_layout():
    net = unroll(_template(), horizon=2)
    assert net.names == (
        "sex", "age@entry", "lab@0", "out@0", "lab@1", "out@1", "lab@2", "out@2"
    )
    assert ("sex", "lab@0") in net.arcs
    assert ("sex", "lab@1") not in net.arcs  # static arc restricted to slice 0
    assert ("age@entry", "out@1") in net.arcs
    assert ("age@entry", "out@0") in net.arcs  # unrestricted static arc hits slice 0 too
    assert ("lab@0", "lab@1") in net.arcs and ("lab@1", "lab@2") in net.arcs
    assert ("lab@2", "out@2") in net.arcs
    assert validate_network(net).ok


def test_unroll_cpt_resolution():
    net = unroll(_template(), horizon=3)
    # generic transition at t=1 and t=3, exact override at t=2
    np.testing.assert_array_equal(net.cpts["lab@2"].rows, [[0.9, 0.1], [0.2, 0.8]])
    np.testing.assert_array_equal(net.cpts["lab@1"].rows, [[0.5, 0.5], [0.5, 0.5]])
    np.testing.assert_array_equal(net.cpts["lab@3"].rows, [[0.5, 0.5], [0.5, 0.5]])
    assert net.cpts["lab@2"].parents == ("lab@1",)
    assert net.cpts["out@3"].parents == ("lab@3", "age@entry")


def test_unroll_horizon_zero_and_negative():
    net = unroll(_template(), horizon=0)
    assert net.names == ("sex", "age@entry", "lab@0", "out@0")
    with pytest.raises(InvalidModel):
        unroll(_template(), horizon=-1)


def test_unroll_deterministic():
    a = unroll(_template(), horizon=4)
    b = unroll(_template(), horizon=4)
    assert a.names == b.names
    assert a.arcs == b.arcs
    for name in a.names:
        np.testing.assert_array_equal(a.cpts[name].rows, b.cpts[name].rows)


def test_template_rejects_bad_wiring():
    with pytest.raises(InvalidModel):
        DbnTemplate(
            variables=[VariableDef(name="sex", states=("f", "m"), kind="static")],
            intra_arcs=(("sex", "sex"),),  # statics cannot sit on intra arcs
        )
    with pytest.raises(InvalidModel):
        DbnTemplate(
            variables=[
                VariableDef(name="a", states=("0", "1"), kind="per_slice"),
                VariableDef(name="b", states=("0", "1"), kind="per_slice"),
            ],
            static_arcs=(("a", "b", None),),  # per-slice source on a static arc
        )


def test_slice_rank_of_unrolled_names_is_monotone():
    net = unroll(_template(), horizon=2)
    ranks = [slice_rank(n) for n in net.names]
    assert ranks == sorted(ranks)
    assert slice_rank("sex") == -2.0
