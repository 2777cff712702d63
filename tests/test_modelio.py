"""Model JSON serialization round trips."""
from __future__ import annotations

import numpy as np
import pytest

from rdtrial.errors import InvalidModel
from rdtrial.model import Cpt, DbnTemplate, DiscreteNetwork, VariableDef, unroll
from rdtrial.modelio import (
    dumps_model,
    load_model,
    network_from_dict,
    network_to_dict,
    save_model,
    template_from_dict,
    template_to_dict,
)

from helpers import chain_network, confounded_triple, random_network


def test_network_round_trip_exact():
    net = confounded_triple()
    back = network_from_dict(network_to_dict(net))
    assert back.names == net.names
    assert back.arcs == net.arcs
    assert back.outcomes == net.outcomes
    for name in net.names:
        assert back.cpts[name].parents == net.cpts[name].parents
        assert np.array_equal(back.cpts[name].rows, net.cpts[name].rows)


def test_network_round_trip_random():
    rng = np.random.default_rng(12)
    net = random_network(rng)
    back = network_from_dict(network_to_dict(net))
    for name in net.names:
        assert np.array_equal(back.cpts[name].rows, net.cpts[name].rows)


def test_file_round_trip_and_kind_detection(tmp_path):
    path = tmp_path / "model.json"
    save_model(chain_network(), path)
    loaded = load_model(path)
    assert isinstance(loaded, DiscreteNetwork)
    assert loaded.names == ("a", "b", "c")


def test_template_round_trip(tmp_path):
    template = DbnTemplate(
        variables=[
            VariableDef(name="sex", states=("f", "m"), kind="static"),
            VariableDef(name="lab", states=("lo", "hi"), kind="per_slice"),
        ],
        inter_arcs=(("lab", "lab"),),
        static_arcs=(("sex", "lab", (0,)),),
        cpts={
            "sex": Cpt("sex", (), np.array([[0.5, 0.5]])),
            "lab@0": Cpt("lab", ("sex",), np.array([[0.4, 0.6], [0.1, 0.9]])),
            "lab@t": Cpt("lab", ("lab@t-1",), np.array([[0.8, 0.2], [0.3, 0.7]])),
        },
    )
    back = template_from_dict(template_to_dict(template))
    assert back.static_arcs == template.static_arcs
    assert back.inter_arcs == template.inter_arcs
    for key in template.cpts:
        assert np.array_equal(back.cpts[key].rows, template.cpts[key].rows)

    path = tmp_path / "template.json"
    save_model(template, path)
    loaded = load_model(path)
    assert isinstance(loaded, DbnTemplate)
    # unrolling the reloaded template matches unrolling the original
    a, b = unroll(template, 2), unroll(loaded, 2)
    assert a.names == b.names and a.arcs == b.arcs


def test_serialization_is_deterministic():
    net = confounded_triple()
    assert dumps_model(net) == dumps_model(net)


def test_intervals_survive_round_trip():
    net = DiscreteNetwork(
        variables=[
            VariableDef(
                name="egfr",
                states=("(-inf, 60.0)", "[60.0, inf)"),
                intervals=((float("-inf"), 60.0), (60.0, float("inf"))),
            )
        ],
        arcs=[],
        cpts={"egfr": Cpt("egfr", (), np.array([[0.3, 0.7]]))},
    )
    back = network_from_dict(network_to_dict(net))
    assert back.var("egfr").intervals == net.var("egfr").intervals


def test_bad_documents_are_rejected():
    with pytest.raises(InvalidModel):
        network_from_dict({"kind": "network"})  # no variables
    doc = network_to_dict(chain_network())
    doc["cpts"]["b"]["rows"] = [[0.9, 0.3], [0.4, 0.6]]  # unnormalized
    with pytest.raises(InvalidModel):
        network_from_dict(doc)
    doc = network_to_dict(chain_network())
    del doc["variables"][1]["name"]
    with pytest.raises(InvalidModel, match="'name' and 'states'"):
        network_from_dict(doc)
    doc = network_to_dict(chain_network())
    doc["cpts"]["b"]["rows"] = [[0.9, 0.1], [0.4]]  # ragged
    with pytest.raises(InvalidModel, match="'b'"):
        network_from_dict(doc)

    # malformed shapes: each used to escape as ValueError/TypeError/
    # AttributeError/KeyError from unpacking before any check ran
    def binned_chain():
        doc = network_to_dict(chain_network())
        doc["variables"][0]["intervals"] = [[None, 1.0], [1.0, None]]
        doc["outcomes"] = {"1": "c"}
        return doc

    breakages = {
        "3-element arc": lambda d: d["arcs"].append(["a", "b", "c"]),
        "arcs not a list": lambda d: d.update(arcs=5),
        "states not a list": lambda d: d["variables"][1].update(states=3),
        "variables not a list": lambda d: d.update(variables={"a": 1}),
        "cpts not a map": lambda d: d.update(cpts=[1]),
        "cpt without rows": lambda d: d["cpts"]["b"].pop("rows"),
        "cpt not a map": lambda d: d["cpts"].update(b=[0.5, 0.5]),
        "parents not a list": lambda d: d["cpts"]["b"].update(parents="a"),
        "outcome key": lambda d: d.update(outcomes={"a": "c"}),
        "outcomes not a map": lambda d: d.update(outcomes=["c"]),
        "interval of one bound": lambda d: d["variables"][0]["intervals"].__setitem__(0, [1]),
        "interval bound a string": lambda d: d["variables"][0]["intervals"].__setitem__(0, ["x", 1.0]),
        "intervals not a list": lambda d: d["variables"][0].update(intervals=2),
    }
    network_from_dict(binned_chain())  # the unbroken document loads
    for what, breakage in breakages.items():
        doc = binned_chain()
        breakage(doc)
        with pytest.raises(InvalidModel):
            network_from_dict(doc)
            pytest.fail(f"{what} was accepted")


def _template_doc() -> dict:
    return template_to_dict(DbnTemplate(
        variables=[
            VariableDef(name="sex", states=("f", "m"), kind="static"),
            VariableDef(name="lab", states=("lo", "hi"), kind="per_slice"),
        ],
        inter_arcs=(("lab", "lab"),),
        static_arcs=(("sex", "lab", (0,)),),
        cpts={
            "sex": Cpt("sex", (), np.array([[0.5, 0.5]])),
            "lab@0": Cpt("lab", ("sex",), np.array([[0.4, 0.6], [0.1, 0.9]])),
            "lab@t": Cpt("lab", ("lab@t-1",), np.array([[0.8, 0.2], [0.3, 0.7]])),
        },
    ))


@pytest.mark.parametrize("breakage", [
    lambda t: t.update(static_arcs=[["sex"]]),
    lambda t: t.update(static_arcs=[["sex", "lab", [0], 1]]),
    lambda t: t.update(static_arcs=[["sex", "lab", 0]]),
    lambda t: t.update(static_arcs=[["sex", "lab", ["a"]]]),
    lambda t: t.update(static_arcs=4),
    lambda t: t.update(inter_arcs=[["lab", "lab", "lab"]]),
    lambda t: t.update(intra_arcs="lab"),
], ids=["short", "long", "slices-not-list", "slice-not-int", "not-list",
        "3-element-inter-arc", "intra-not-list"])
def test_bad_template_arcs_are_rejected(breakage):
    template_from_dict(_template_doc())  # the unbroken document loads
    doc = _template_doc()
    breakage(doc["template"])
    with pytest.raises(InvalidModel):
        template_from_dict(doc)
