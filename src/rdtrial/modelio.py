"""Model JSON serialization.

Document schema (shared by plain networks and templates)::

    {
      "kind": "network" | "dbn_template",   # written, ignored on load
      "variables": [{"name": ..., "states": [...], "kind": ...,
                     "intervals": [[lo, hi], ...]?}, ...],
      "template": {"slice0_arcs": [[a, b], ...],
                   "intra_arcs":  [[a, b], ...],
                   "inter_arcs":  [[a, b], ...],
                   "static_arcs": [[a, b] | [a, b, [t, ...]], ...]},
      "arcs": [[a, b], ...],            # plain/unrolled networks only
      "cpts": {node: {"parents": [...], "rows": [[...], ...]}, ...},
      "outcomes": {"1": "decline@1", ...}?
    }

A document with a ``template`` key loads as a :class:`DbnTemplate`;
otherwise it loads as a :class:`DiscreteNetwork`. Infinite interval bounds
are encoded as null. Serialization is deterministic: identical models give
byte-identical files.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

from .errors import InvalidModel, RepeatedKey, unique_keys
from .model import (
    Cpt,
    DbnTemplate,
    DiscreteNetwork,
    VariableDef,
    validate_network,
)


def _interval_out(iv: tuple[float, float]) -> list:
    lo, hi = iv
    return [None if math.isinf(lo) else lo, None if math.isinf(hi) else hi]


def _list_in(raw, what: str) -> list:
    if not isinstance(raw, (list, tuple)):
        raise InvalidModel(f"{what} must be a list, got {raw!r}")
    return raw


def _arcs_in(raw, what: str) -> list[tuple]:
    arcs = _list_in(raw, what)
    for arc in arcs:
        if not isinstance(arc, (list, tuple)) or len(arc) != 2:
            raise InvalidModel(f"each of {what} must be a [parent, child] pair, got {arc!r}")
    return [tuple(arc) for arc in arcs]


def _interval_in(raw) -> tuple[float, float]:
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise InvalidModel(f"an interval must be a [lo, hi] pair, got {raw!r}")
    lo, hi = raw
    try:
        return (
            float("-inf") if lo is None else float(lo),
            float("inf") if hi is None else float(hi),
        )
    except (TypeError, ValueError):
        raise InvalidModel(f"interval bounds must be numbers or null, got {raw!r}") from None


def _variables_out(variables) -> list[dict]:
    out = []
    for v in variables:
        d: dict[str, Any] = {"name": v.name, "states": list(v.states), "kind": v.kind}
        if v.intervals is not None:
            d["intervals"] = [_interval_out(iv) for iv in v.intervals]
        out.append(d)
    return out


def _variables_in(raw) -> list[VariableDef]:
    out = []
    for d in _list_in(raw, "'variables'"):
        if not isinstance(d, dict) or "name" not in d or "states" not in d:
            raise InvalidModel(f"each variable needs 'name' and 'states', got {d!r}")
        name = str(d["name"])
        intervals = d.get("intervals")
        out.append(
            VariableDef(
                name=name,
                states=tuple(str(s) for s in _list_in(d["states"], f"states of {name!r}")),
                kind=str(d.get("kind", "per_slice")),
                intervals=None if intervals is None else tuple(
                    _interval_in(iv) for iv in _list_in(intervals, f"intervals of {name!r}")
                ),
            )
        )
    return out


def _cpts_out(cpts) -> dict:
    return {
        name: {"parents": list(cpt.parents), "rows": cpt.rows.tolist()}
        for name, cpt in cpts.items()
    }


def _cpts_in(raw) -> dict[str, Cpt]:
    if not isinstance(raw, dict):
        raise InvalidModel(f"'cpts' must map node names to CPTs, got {raw!r}")
    out = {}
    for name, d in raw.items():
        if not isinstance(d, dict) or "rows" not in d:
            raise InvalidModel(f"CPT for {name!r} needs 'rows', got {d!r}")
        parents = _list_in(d.get("parents", []), f"parents of {name!r}")
        out[name] = Cpt(child=str(name), parents=tuple(parents), rows=d["rows"])
    return out


def network_to_dict(net: DiscreteNetwork) -> dict:
    doc: dict[str, Any] = {
        "kind": "network",
        "variables": _variables_out(net.variables),
        "arcs": [[a, b] for a, b in net.arcs],
        "cpts": _cpts_out(net.cpts),
    }
    if net.outcomes:
        doc["outcomes"] = {str(t): name for t, name in sorted(net.outcomes.items())}
    return doc


def network_from_dict(doc: dict) -> DiscreteNetwork:
    if "variables" not in doc:
        raise InvalidModel("model document has no 'variables' key")
    variables = _variables_in(doc["variables"])
    arcs = _arcs_in(doc.get("arcs", []), "'arcs'")
    cpts = _cpts_in(doc.get("cpts", {}))
    outcomes = doc.get("outcomes", {})
    if not isinstance(outcomes, dict):
        raise InvalidModel(f"'outcomes' must map time points to node names, got {outcomes!r}")
    try:
        outcomes = {int(t): str(n) for t, n in outcomes.items()}
    except ValueError:
        raise InvalidModel(f"'outcomes' keys must be time points, got {list(outcomes)!r}") from None
    net = DiscreteNetwork(variables, arcs, cpts, outcomes)
    report = validate_network(net)
    if not report.ok:
        report.raise_first()
    return net


def template_to_dict(template: DbnTemplate) -> dict:
    static_arcs = []
    for src, dst, slices in template.static_arcs:
        if slices is None:
            static_arcs.append([src, dst])
        else:
            static_arcs.append([src, dst, list(slices)])
    return {
        "kind": "dbn_template",
        "variables": _variables_out(template.variables),
        "template": {
            "slice0_arcs": [[a, b] for a, b in template.slice0_arcs],
            "intra_arcs": [[a, b] for a, b in template.intra_arcs],
            "inter_arcs": [[a, b] for a, b in template.inter_arcs],
            "static_arcs": static_arcs,
        },
        "cpts": _cpts_out(template.cpts),
    }


def template_from_dict(doc: dict) -> DbnTemplate:
    if "template" not in doc or "variables" not in doc:
        raise InvalidModel("template document needs 'template' and 'variables' keys")
    t = doc["template"]
    if not isinstance(t, dict):
        raise InvalidModel(f"'template' must be an object, got {t!r}")
    static_arcs = []
    for arc in _list_in(t.get("static_arcs", []), "'static_arcs'"):
        bad = f"each static arc must be [parent, child] or [parent, child, [t, ...]], got {arc!r}"
        if not isinstance(arc, (list, tuple)) or len(arc) not in (2, 3):
            raise InvalidModel(bad)
        try:
            slices = None if len(arc) == 2 else tuple(int(x) for x in arc[2])
        except (TypeError, ValueError):
            raise InvalidModel(bad) from None
        static_arcs.append((arc[0], arc[1], slices))
    return DbnTemplate(
        variables=tuple(_variables_in(doc["variables"])),
        slice0_arcs=tuple(_arcs_in(t.get("slice0_arcs", []), "'slice0_arcs'")),
        intra_arcs=tuple(_arcs_in(t.get("intra_arcs", []), "'intra_arcs'")),
        inter_arcs=tuple(_arcs_in(t.get("inter_arcs", []), "'inter_arcs'")),
        static_arcs=tuple(static_arcs),
        cpts=_cpts_in(doc.get("cpts", {})),
    )


def dumps_model(obj: DiscreteNetwork | DbnTemplate) -> str:
    """Deterministic JSON text for a network or template."""
    if isinstance(obj, DbnTemplate):
        doc = template_to_dict(obj)
    else:
        doc = network_to_dict(obj)
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def save_model(obj: DiscreteNetwork | DbnTemplate, path: str | Path) -> None:
    Path(path).write_text(dumps_model(obj), encoding="utf-8")


def load_model(path: str | Path) -> DiscreteNetwork | DbnTemplate:
    """Load a model document; returns a template iff it has a template key."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise InvalidModel(f"{path}: not valid JSON ({exc})") from exc
    except RepeatedKey as exc:
        raise InvalidModel(f"{path}: {exc}") from None
    if not isinstance(doc, dict) or "variables" not in doc or "cpts" not in doc:
        raise InvalidModel(f"{path}: missing required keys 'variables'/'cpts'")
    if "template" in doc:
        return template_from_dict(doc)
    return network_from_dict(doc)
