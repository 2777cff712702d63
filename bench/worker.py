"""Run one workload's CLI calls in a process that does nothing else.

    python3 bench/worker.py --workload NAME --dir INPUTS --seconds S --trace 0|1 \
        [--spans-out FILE]

``bench/run.py`` starts this after it has generated the inputs, so that the
process's peak resident memory belongs to the workload alone. The last line
on stdout is one JSON object with the timings, failures and, with --trace 1,
the per-layer metrics.

Order of calls:

1. one traced, untimed call whose outputs get the workload's oracle checks
   and become the reference every later call must reproduce byte for byte;
2. untraced, timed calls until the time budget is spent (half of it with
   --trace 1);
3. with --trace 1, traced calls for the other half, then, for ``rddo``, the
   one command with a thread setting, one call at 2 threads. The spans of
   the last traced call are written to --spans-out.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rdtrial import cli  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_SAMPLES = 3  # calls per timed phase, however long they take
MIN_COVERAGE = 0.9


def digests(d: Path, names) -> dict[str, str | None]:
    out = {}
    for name in names:
        p = d / name
        out[name] = hashlib.sha256(p.read_bytes()).hexdigest() if p.is_file() else None
    return out


def call(argv: list[str], tracer: spans.Tracer | None = None):
    """One CLI call: (seconds, problems, root span or None)."""
    err = io.StringIO()
    root = None
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            if tracer is None:
                t0 = time.perf_counter()
                rc = cli.dispatch(argv)
                seconds = time.perf_counter() - t0
            else:
                with tracer.installed(), tracer.span("cli.dispatch") as root:
                    rc = cli.dispatch(argv)
                seconds = root.duration
    except Exception as exc:  # an operation that raises counts as failed
        return 0.0, [f"raised {exc!r}"], None
    if rc != 0:
        return seconds, [f"exit code {rc}: {err.getvalue().strip()}"], root
    return seconds, [], root


class Run:
    def __init__(self, workload, d: Path):
        self.wl = workload
        self.d = d
        self.argv = workload.argv(d)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, str | None] = {}
        self.last_spans: list[spans.Span] = []  # of the last traced call

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)

    def same_outputs(self, names) -> list[str]:
        now = digests(self.d, names)
        return [f"{n} differs from the first call's" for n in names
                if now[n] != self.reference[n]]

    def checked_call(self) -> dict[str, float]:
        tracer = spans.Tracer()
        _, problems, root = call(self.argv, tracer)
        metrics: dict[str, float] = {}
        if not problems:
            try:
                problems += self.wl.check(self.d, tracer.spans)
            except Exception as exc:  # a check that cannot read the outputs fails them
                problems.append(f"output check raised {exc!r}")
            metrics = spans.layer_metrics(tracer.spans, root)
            if metrics["trace.coverage"] < MIN_COVERAGE:
                problems.append(f"stage spans cover {metrics['trace.coverage']:.3f} of the call")
        self.reference = digests(self.d, self.wl.outputs)
        self.record("checked call", problems)
        return metrics

    def timed(self, seconds: float, traced: bool):
        samples: list[float] = []
        layers: list[dict[str, float]] = []
        calls = 0
        start = time.perf_counter()
        while calls < MIN_SAMPLES or time.perf_counter() - start < seconds:
            calls += 1
            tracer = spans.Tracer() if traced else None
            dt, problems, root = call(self.argv, tracer)
            if not problems:
                problems = self.same_outputs(self.wl.outputs)
            if traced and root is not None and not problems:
                m = spans.layer_metrics(tracer.spans, root)
                if m["trace.coverage"] < MIN_COVERAGE:
                    problems.append(f"stage spans cover {m['trace.coverage']:.3f} of the call")
                layers.append(m)
                self.last_spans = tracer.spans
            self.record("traced call" if traced else "timed call", problems)
            if not problems:
                samples.append(dt)
        return samples, layers

    def threads_probe(self, one_thread_s: float) -> float:
        """Seconds at --threads 2 over seconds at 1. The manifest records the
        thread count, so only the other outputs must stay identical."""
        dt, problems, _ = call(self.argv + ["--threads", "2"])
        if not problems:
            problems = self.same_outputs(
                [n for n in self.wl.outputs if not n.endswith("run_manifest.json")])
        self.record("threads=2 call", problems)
        return dt / one_thread_s if one_thread_s else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--dir", required=True, type=Path)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", type=Path)
    args = ap.parse_args(argv)

    run = Run(WORKLOADS[args.workload], args.dir)
    properties = run.checked_call()
    budget = args.seconds / 2 if args.trace else args.seconds
    samples, _ = run.timed(budget, traced=False)
    result = {
        "run_s": samples,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "output_sha256": run.reference,
        "properties": properties,
    }
    if args.trace:
        traced, layers = run.timed(budget, traced=True)
        per_layer = {
            name: statistics.median(m[name] for m in layers)
            for name in (layers[0] if layers else {})
        }
        untraced = statistics.median(samples) if samples else 0.0
        per_layer["trace.overhead_s"] = (statistics.median(traced) - untraced
                                         if traced and samples else 0.0)
        per_layer["rddo.threads2_ratio"] = (
            run.threads_probe(untraced) if run.argv[0] == "rddo" else 0.0)
        if args.spans_out:
            args.spans_out.write_text(json.dumps([
                {"id": sp.id, "name": sp.name, "parent": sp.parent,
                 "start": sp.start, "end": sp.end, "error": sp.error}
                for sp in run.last_spans]) + "\n", encoding="utf-8")
        result.update(traced_run_s=traced, per_layer=per_layer, attempted=run.attempted,
                      failed=run.failed, problems=run.problems)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
