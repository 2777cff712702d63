"""Tests of the benchmark itself: self-time arithmetic, the metric-name rule,
the tail-percentile rule and agreement with BENCHMARK.json.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
from spans import Span  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# self-time arithmetic
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("intervals, lo, hi, expected", [
    ([], 0.0, 10.0, 0.0),
    ([(1.0, 3.0), (4.0, 6.0)], 0.0, 10.0, 4.0),      # disjoint
    ([(1.0, 5.0), (3.0, 7.0)], 0.0, 10.0, 6.0),      # overlapping
    ([(1.0, 9.0), (2.0, 3.0)], 0.0, 10.0, 8.0),      # nested
    ([(4.0, 6.0), (1.0, 3.0)], 0.0, 10.0, 4.0),      # unsorted
    ([(-2.0, 2.0), (8.0, 12.0)], 0.0, 10.0, 4.0),    # clipped to [lo, hi]
    ([(2.0, 2.0)], 0.0, 10.0, 0.0),                  # empty interval
])
def test_covered_is_union_length(intervals, lo, hi, expected):
    assert spans.covered(intervals, lo, hi) == pytest.approx(expected)


def _tree():
    # root [0, 10] with children a [1, 4] and b [5, 6]; a has child c [2, 3]
    return [
        Span(0, "cli.dispatch", None, 0.0, 10.0),
        Span(1, "rddo.scan_windows", 0, 1.0, 4.0, result=[]),
        Span(2, "stats.chi2_homogeneity", 1, 2.0, 3.0),
        Span(3, "cli.emit_report", 0, 5.0, 6.0),
    ]


def test_self_time_subtracts_direct_children_only():
    own = spans.self_times(_tree())
    assert own == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})


def test_self_times_add_up_to_the_root_span():
    tree = _tree()
    assert sum(spans.self_times(tree).values()) == pytest.approx(tree[0].duration)


def test_overlapping_children_are_not_subtracted_twice():
    tree = [
        Span(0, "rddo.estimate_effects", None, 0.0, 10.0),
        Span(1, "inference.do_posterior", 0, 1.0, 6.0),
        Span(2, "inference.do_posterior", 0, 4.0, 8.0),
    ]
    assert spans.self_times(tree)[0] == pytest.approx(3.0)


def test_coverage_counts_the_root_stages():
    tree = _tree()
    assert spans.coverage(tree, tree[0]) == pytest.approx(0.4)


def test_layer_metrics_sum_self_time_per_layer():
    tree = _tree()
    m = spans.layer_metrics(tree, tree[0])
    assert m["rddo.scan_s"] == pytest.approx(2.0)
    assert m["stats.chi2_s"] == pytest.approx(1.0)
    assert m["stats.chi2_calls"] == 1
    assert m["cli.emit_s"] == pytest.approx(1.0)
    assert m["cli.self_s"] == pytest.approx(7.0)       # root self time plus emit
    assert m["rddo.windows_tested"] == 0
    assert sum(m[f"{layer}.self_s"] for layer in spans.LAYERS) == pytest.approx(10.0)


def test_window_counts_come_from_the_scan_the_selection_used():
    records = [SimpleNamespace(record_id=i, score=s)
               for i, s in enumerate([0.40, 0.45, 0.50, 0.55, 0.60])]
    reports = [SimpleNamespace(randomized=r) for r in (True, False, True, True)]
    window = SimpleNamespace(k=3, threshold=0.5, member_ids=[2, 1, 3])
    tree = [
        Span(0, "cli.dispatch", None, 0.0, 1.0),
        Span(1, "rddo.scan_windows", 0, 0.1, 0.2, args=(None, records, 0.5), result=reports),
        Span(2, "rddo.select_window", 0, 0.2, 0.3, args=(reports,), result=window),
    ]
    m = spans.layer_metrics(tree, tree[0])
    assert (m["rddo.windows_tested"], m["rddo.randomized_frac"]) == (4, 0.75)
    assert (m["rddo.window_k"], m["rddo.window_below"], m["rddo.window_above"]) == (3, 1, 2)


def test_tracer_nests_spans_and_records_errors():
    tracer = spans.Tracer()
    with tracer.span("cli.dispatch"):
        with tracer.span("rddo.score_cohort"):
            pass
        with pytest.raises(ValueError):
            with tracer.span("stats.chi2_homogeneity"):
                raise ValueError("degenerate")
    root, child, failed = tracer.spans
    assert (root.parent, child.parent, failed.parent) == (None, 0, 0)
    assert failed.error == "ValueError"
    assert root.start <= child.start <= child.end <= failed.start <= failed.end <= root.end


def test_install_wraps_and_uninstall_restores():
    import rdtrial.learning
    import rdtrial.rddo

    before = rdtrial.rddo.scan_windows, rdtrial.learning.inference
    tracer = spans.Tracer()
    with tracer.installed():
        assert rdtrial.rddo.scan_windows is not before[0]
        assert rdtrial.learning.inference is not before[1]
    assert (rdtrial.rddo.scan_windows, rdtrial.learning.inference) == before


# ---------------------------------------------------------------------------
# metric names, units and BENCHMARK.json
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, ok", [
    ("run_s", True),
    ("rddo.scan_s", True),
    ("stats.chi2-calls", True),
    ("0ratio", True),
    ("a" * 64, True),
    ("a" * 65, False),
    ("", False),
    (".hidden", False),
    ("_private", False),
    ("has space", False),
    ("per/second", False),
    ("naïve", False),
])
def test_metric_name_rule(name, ok):
    assert spans.valid_metric_name(name) is ok


def test_every_metric_name_and_unit_obeys_the_rules():
    names = [n for n, _, _ in spans.PER_LAYER] + [n for n, _ in run.END_TO_END]
    assert len(names) == len(set(names))
    assert all(spans.valid_metric_name(n) for n in names)
    units = {u for _, u, _ in spans.PER_LAYER} | {u for _, u in run.END_TO_END}
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", u) for u in units)


def test_benchmark_json_lists_what_the_benchmark_prints():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        tuple(m) for m in spans.PER_LAYER]
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


def test_benchmark_json_workloads_match_the_code():
    from workloads import WORKLOADS

    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}


# ---------------------------------------------------------------------------
# tail percentile
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, q", [(15, None), (99, None), (100, 90), (199, 90),
                                  (200, 95), (999, 95), (1000, 99)])
def test_tail_percentile_needs_ten_samples_beyond_it(n, q):
    got = run.tail_percentile([float(i) for i in range(n)])
    assert (got[0] if got else None) == q
