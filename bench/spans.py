"""Spans around the package's call boundaries, and the per-layer metrics.

A :class:`Tracer` replaces names that the program looks up at call time
(``rdtrial.rddo.scan_windows``, ``rdtrial.cli.em_fit`` and so on) with
wrappers that record one :class:`Span` per call: name, start, end and the
span that was open when the call began. Nothing under ``src/`` changes, and
uninstalling puts every original back. Spans stay in memory; the caller
reads them when the traced call has ended.

:func:`layer_metrics` turns the spans of one traced CLI call into the
per-layer metrics listed in :data:`PER_LAYER`. A boundary's time is its
self time: the span minus the part of it that its child spans cover.
"""

from __future__ import annotations

import importlib
import re
import time
import types
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

# Layers are the package modules. A span's layer is the part of its name
# before the first dot.
LAYERS = ("cli", "cohort", "modelio", "model", "learning", "inference", "rddo", "stats")

# (span name, modules whose attribute is replaced, attribute, keep args/result)
# A function bound into several modules by ``from x import f`` is replaced in
# each module that calls it. ``rdtrial.learning.inference`` is a stand-in
# namespace installed by the tracer, so that only the EM code's own calls into
# the inference module are wrapped.
BOUNDARIES: tuple[tuple[str, tuple[str, ...], str, bool], ...] = (
    ("modelio.load_model", ("rdtrial.rddo",), "load_model", False),
    ("modelio.network_from_dict", ("rdtrial.cli",), "network_from_dict", False),
    ("model.unroll", ("rdtrial.rddo",), "unroll", False),
    ("model.mutilate", ("rdtrial.inference",), "mutilate", False),
    ("cohort.read_cohort_csv", ("rdtrial.rddo", "rdtrial.cli"), "read_cohort_csv", True),
    ("cohort.encode_columns", ("rdtrial.rddo", "rdtrial.cohort"), "encode_columns", False),
    ("learning.stratified_split", ("rdtrial.rddo",), "stratified_split", False),
    ("learning.em_fit", ("rdtrial.cli",), "em_fit", True),
    ("learning.collapse_patterns", ("rdtrial.learning",), "_collapse_patterns", True),
    ("inference.posterior", ("rdtrial.rddo",), "posterior", False),
    ("inference.do_posterior", ("rdtrial.rddo",), "do_posterior", False),
    ("inference.row_log_likelihoods", ("rdtrial.learning.inference",), "row_log_likelihoods", False),
    ("inference.eliminate", ("rdtrial.learning.inference",), "_eliminate_all", False),
    ("rddo.score_cohort", ("rdtrial.rddo",), "score_cohort", True),
    ("rddo.scan_windows", ("rdtrial.rddo",), "scan_windows", True),
    ("rddo.select_window", ("rdtrial.rddo",), "select_window", True),
    ("rddo.estimate_effects", ("rdtrial.rddo",), "estimate_effects", False),
    ("rddo.rank_effects", ("rdtrial.rddo",), "rank_effects", False),
    ("stats.chi2_homogeneity", ("rdtrial.rddo",), "chi2_homogeneity", False),
    ("stats.ks_two_sample", ("rdtrial.rddo",), "ks_two_sample", False),
    ("stats.youden_threshold", ("rdtrial.rddo",), "youden_threshold", False),
    ("cli.emit_report", ("rdtrial.cli",), "emit_report", False),
    ("cli.save_model", ("rdtrial.cli",), "save_model", False),
    ("synth.sample_cohort", ("rdtrial.cli", "rdtrial.synth"), "sample_cohort", False),
    ("synth.write_cohort_csv", ("rdtrial.cli", "rdtrial.cohort"), "write_cohort_csv", False),
)

# (name, unit, better) of every per-layer metric a traced run prints.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("rddo.scan_s", "s", "lower"),
    ("rddo.windows_tested", "count", "lower"),
    ("rddo.randomized_frac", "fraction", "higher"),
    ("stats.chi2_s", "s", "lower"),
    ("stats.chi2_calls", "count", "lower"),
    ("stats.chi2_degenerate_frac", "fraction", "lower"),
    ("rddo.effects_s", "s", "lower"),
    ("rddo.effect_tables", "count", "higher"),
    ("rddo.effect_queries", "count", "lower"),
    ("inference.do_posterior_s", "s", "lower"),
    ("inference.do_posterior_calls", "count", "lower"),
    ("model.mutilate_calls", "count", "lower"),
    ("stats.ks_s", "s", "lower"),
    ("stats.ks_calls", "count", "lower"),
    ("rddo.rank_s", "s", "lower"),
    ("rddo.score_s", "s", "lower"),
    ("rddo.score_records", "count", "higher"),
    ("rddo.score_patterns", "count", "lower"),
    ("rddo.score_reuse_frac", "fraction", "higher"),
    ("inference.posterior_s", "s", "lower"),
    ("inference.posterior_calls", "count", "lower"),
    ("inference.posterior_score_s", "s", "lower"),
    ("cohort.encode_s", "s", "lower"),
    ("stats.youden_s", "s", "lower"),
    ("learning.split_s", "s", "lower"),
    ("learning.em_s", "s", "lower"),
    ("learning.em_iter_s", "s", "lower"),
    ("learning.em_iters", "count", "lower"),
    ("learning.patterns", "count", "lower"),
    ("learning.masks", "count", "lower"),
    ("inference.loglik_s", "s", "lower"),
    ("inference.eliminate_s", "s", "lower"),
    ("inference.eliminate_calls", "count", "lower"),
    ("cohort.read_s", "s", "lower"),
    ("cohort.rows", "count", "higher"),
    ("modelio.load_s", "s", "lower"),
    ("model.unroll_s", "s", "lower"),
    ("cli.emit_s", "s", "lower"),
    ("cli.save_model_s", "s", "lower"),
    ("rddo.window_k", "count", "higher"),
    ("rddo.window_below", "count", "higher"),
    ("rddo.window_above", "count", "higher"),
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("trace.coverage", "fraction", "higher"),
    ("trace.overhead_s", "s", "lower"),
    ("synth.sample_s", "s", "lower"),
    ("synth.write_s", "s", "lower"),
    ("rddo.threads2_ratio", "ratio", "lower"),
)

_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_metric_name(name: str) -> bool:
    """Letters, digits, ``_``, ``.`` and ``-``; starts with a letter or digit;
    at most 64 characters."""
    return _NAME_RE.fullmatch(name) is not None


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    error: str | None = None   # exception class name when the call raised
    args: tuple | None = None  # kept only for boundaries that need them
    kwargs: dict | None = None
    result: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while installed; single-threaded callers only."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        sp = self._open(name)
        try:
            yield sp
        except BaseException as exc:
            sp.error = type(exc).__name__
            raise
        finally:
            self._close(sp)

    def _open(self, name: str) -> Span:
        sp = Span(len(self.spans), name, self._stack[-1] if self._stack else None, 0.0)
        self.spans.append(sp)
        self._stack.append(sp.id)
        sp.start = time.perf_counter()
        return sp

    def _close(self, sp: Span) -> None:
        sp.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, keep: bool):
        def wrapper(*args, **kwargs):
            sp = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(sp)
                sp.error = type(exc).__name__
                raise
            self._close(sp)
            if keep:
                sp.args, sp.kwargs, sp.result = args, kwargs, result
            return result
        return wrapper

    def _replace(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        learning = importlib.import_module("rdtrial.learning")
        inference = importlib.import_module("rdtrial.inference")
        stand_in = types.SimpleNamespace(**vars(inference))
        self._replace(learning, "inference", stand_in)
        for name, owners, attr, keep in BOUNDARIES:
            for owner_name in owners:
                if owner_name == "rdtrial.learning.inference":
                    owner = stand_in
                else:
                    owner = importlib.import_module(owner_name)
                self._replace(owner, attr, self._wrap(getattr(owner, attr), name, keep))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        try:
            self.install()
            yield self
        finally:
            self.uninstall()


# ---------------------------------------------------------------------------
# self-time arithmetic
# ---------------------------------------------------------------------------

def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.start, sp.end))
    return {
        sp.id: sp.duration - covered(children[sp.id], sp.start, sp.end)
        for sp in spans
    }


def coverage(spans: list[Span], root: Span) -> float:
    """Share of the root span covered by its direct children (the stages)."""
    stages = [(sp.start, sp.end) for sp in spans if sp.parent == root.id]
    return covered(stages, root.start, root.end) / root.duration if root.duration > 0 else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list[Span], root: Span) -> dict[str, float]:
    """Per-layer metrics of one traced CLI call whose outermost span is root.

    Times are self times summed over the boundary's spans; a layer that the
    call never entered reads 0. ``rddo.window_*`` sum over the time points
    whose window scan selected a window.
    """
    own = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for sp in spans:
        by_name[sp.name].append(sp)
    names = {sp.id: sp.name for sp in spans}

    def self_s(*span_names: str) -> float:
        return float(sum(own[sp.id] for n in span_names for sp in by_name[n]))

    def calls(name: str) -> int:
        return len(by_name[name])

    def under(name: str, parent: str) -> list[Span]:
        return [sp for sp in by_name[name] if names.get(sp.parent) == parent]

    scans = [sp for sp in by_name["rddo.scan_windows"] if sp.error is None]
    windows = sum(len(sp.result) for sp in scans)
    randomized = sum(r.randomized for sp in scans for r in sp.result)
    scan_of = {id(sp.result): sp for sp in scans}
    k = below = 0
    for sel in by_name["rddo.select_window"]:
        win = sel.result
        scan = scan_of.get(id(sel.args[0])) if sel.args else None
        if win is None or scan is None:
            continue
        score = {r.record_id: r.score for r in scan.args[1]}
        k += win.k
        below += sum(score[int(i)] < win.threshold for i in win.member_ids)

    scored = [sp.result for sp in by_name["rddo.score_cohort"] if sp.error is None]
    lookups = sum(len(s.records) + len(s.zero_probability) for s in scored)
    score_patterns = len(under("inference.posterior", "rddo.score_cohort"))

    fits = [sp for sp in by_name["learning.em_fit"] if sp.error is None]
    em_iters = sum(sp.result[1].iterations for sp in fits)
    patterns = [p for sp in by_name["learning.collapse_patterns"] for p in sp.result[0]]
    masks = {frozenset(p) for p in patterns}

    chi2 = by_name["stats.chi2_homogeneity"]
    m = {
        "rddo.scan_s": self_s("rddo.scan_windows"),
        "rddo.windows_tested": windows,
        "rddo.randomized_frac": _ratio(randomized, windows),
        "stats.chi2_s": self_s("stats.chi2_homogeneity"),
        "stats.chi2_calls": len(chi2),
        "stats.chi2_degenerate_frac": _ratio(
            sum(sp.error == "DegenerateTable" for sp in chi2), len(chi2)),
        "rddo.effects_s": self_s("rddo.estimate_effects"),
        "rddo.effect_tables": sum(sp.error is None for sp in by_name["rddo.estimate_effects"]),
        "rddo.effect_queries": len(under("inference.posterior", "rddo.estimate_effects"))
        + len(under("inference.do_posterior", "rddo.estimate_effects")),
        "inference.do_posterior_s": self_s("inference.do_posterior"),
        "inference.do_posterior_calls": calls("inference.do_posterior"),
        "model.mutilate_calls": calls("model.mutilate"),
        "stats.ks_s": self_s("stats.ks_two_sample"),
        "stats.ks_calls": calls("stats.ks_two_sample"),
        "rddo.rank_s": self_s("rddo.rank_effects"),
        "rddo.score_s": self_s("rddo.score_cohort"),
        "rddo.score_records": lookups,
        "rddo.score_patterns": score_patterns,
        "rddo.score_reuse_frac": _ratio(lookups - score_patterns, lookups),
        "inference.posterior_s": self_s("inference.posterior"),
        "inference.posterior_calls": calls("inference.posterior"),
        "inference.posterior_score_s": float(sum(
            own[sp.id] for sp in under("inference.posterior", "rddo.score_cohort"))),
        "cohort.encode_s": self_s("cohort.encode_columns"),
        "stats.youden_s": self_s("stats.youden_threshold"),
        "learning.split_s": self_s("learning.stratified_split"),
        "learning.em_s": self_s("learning.em_fit", "learning.collapse_patterns"),
        "learning.em_iter_s": _ratio(sum(sp.duration for sp in fits), em_iters),
        "learning.em_iters": em_iters,
        "learning.patterns": len(patterns),
        "learning.masks": len(masks),
        "inference.loglik_s": self_s("inference.row_log_likelihoods"),
        "inference.eliminate_s": self_s("inference.eliminate"),
        "inference.eliminate_calls": calls("inference.eliminate"),
        "cohort.read_s": self_s("cohort.read_cohort_csv"),
        "cohort.rows": sum(len(sp.result) for sp in by_name["cohort.read_cohort_csv"]
                           if sp.error is None),
        "modelio.load_s": self_s("modelio.load_model", "modelio.network_from_dict"),
        "model.unroll_s": self_s("model.unroll"),
        "cli.emit_s": self_s("cli.emit_report"),
        "cli.save_model_s": self_s("cli.save_model"),
        "rddo.window_k": k,
        "rddo.window_below": below,
        "rddo.window_above": k - below,
        "trace.coverage": coverage(spans, root),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = float(sum(
            own[sp.id] for sp in spans if sp.name.split(".", 1)[0] == layer))
    return m


def setup_metrics(spans: list[Span]) -> dict[str, float]:
    own = self_times(spans)
    return {
        metric: float(sum(own[sp.id] for sp in spans if sp.name == name))
        for metric, name in (("synth.sample_s", "synth.sample_cohort"),
                             ("synth.write_s", "synth.write_cohort_csv"))
    }
