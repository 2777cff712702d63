"""rdtrial benchmark: one workload, end to end, from a seed.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; the package is imported from the
checkout's ``src/``, nothing is installed. The run

1. generates the workload's inputs from the seed through ``rdtrial.synth``,
   several times, and times each (``setup_s``, the median);
2. starts ``bench/worker.py`` in a fresh process, which makes the timed
   ``rdtrial`` calls and checks their outputs (``run_s``, ``peak_rss_mb``);
3. prints one line per metric, then, as the last line, one JSON object:
   ``{"correct", "attempted", "failed", "metrics"}``. With --trace 0 the
   metrics are the end-to-end ones, with --trace 1 the per-layer ones.

A record of the run, with provenance, is written under ``.bench_out/``.
Exit status 2, with no result printed, when the program cannot be run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 11
WORKER_GRACE_S = 150  # beyond --seconds: checked call, overshoot, probes

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest of p99/p95/p90 with at least ten samples beyond it."""
    for q in (99, 95, 90):
        if len(samples) * (100 - q) / 100 >= 10:
            return q, statistics.quantiles(samples, n=100)[q - 1]
    return None


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def set_up(wl, d: Path, seed: int, trace: bool):
    """Generate the inputs SETUP_REPEATS times; the last time traced when
    asked. Returns (untraced seconds, input digests, traced spans, problems)."""
    import spans

    times, seen, traced = [], [], []
    for i in range(SETUP_REPEATS):
        shutil.rmtree(d, ignore_errors=True)
        if trace and i == SETUP_REPEATS - 1:
            tracer = spans.Tracer()
            with tracer.installed(), tracer.span("bench.setup"):
                wl.setup(d, seed)
            traced = tracer.spans
        else:
            t0 = time.perf_counter()
            wl.setup(d, seed)
            times.append(time.perf_counter() - t0)
        seen.append({name: sha256(d / name) for name in wl.inputs})
    problems = [] if all(s == seen[0] for s in seen) else [
        "setup: one seed gave different inputs on different repeats"]
    return times, seen[0], traced, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "rdtrial" / "__init__.py").is_file():
        print(f"error: no rdtrial package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    from rdtrial.rddo import load_run_config

    import spans
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{wl.name}-{args.seed}-{os.getpid()}"
    inputs = work / "inputs"
    try:
        setup_times, input_sha, setup_spans, problems = set_up(
            wl, inputs, args.seed, bool(args.trace))
        config = inputs / "run.json"
        nominal = 1 - load_run_config(config).alpha if config.is_file() else None
        spans_out = ["--spans-out", str(results / f"{stem}-spans.json")] if args.trace else []
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", wl.name,
             "--dir", str(inputs), "--seconds", str(args.seconds),
             "--trace", str(args.trace), *spans_out],
            cwd=ROOT, capture_output=True, text=True,
            timeout=args.seconds + WORKER_GRACE_S,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 2
    res = json.loads(lines[-1])
    problems += res["problems"]
    samples = res["run_s"]

    if args.trace:
        values = {**res["per_layer"], **spans.setup_metrics(setup_spans)}
        # a metric is missing only when every traced call failed
        metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
                   for name, unit, _ in spans.PER_LAYER}
    else:
        values = {
            "run_s": statistics.median(samples) if samples else 0.0,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    attempted, failed = res["attempted"], res["failed"]
    props = {**res["properties"], "rddo.randomized_nominal": nominal}
    tail = tail_percentile(samples)
    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}: {wl.why}")
    print(f"run_s: median of {len(samples)} untraced calls; "
          + (f"p{tail[0]} {tail[1]:.6f} s" if tail else
             "no tail percentile (fewer than 10 samples beyond p90)"))
    print(f"setup_s: median of {len(setup_times)} set-ups")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    print(f"failed_frac = {failed}/{attempted} = {failed / attempted!r}")
    print("properties: "
          f"score patterns/records {props.get('rddo.score_patterns')}/"
          f"{props.get('rddo.score_records')}, "
          f"EM masks/patterns {props.get('learning.masks')}/{props.get('learning.patterns')}, "
          f"randomized_frac {props.get('rddo.randomized_frac')!r} "
          f"(nominal 1 - alpha {nominal!r}), "
          f"window k/below/above {props.get('rddo.window_k')}/"
          f"{props.get('rddo.window_below')}/{props.get('rddo.window_above')}")
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)

    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": metrics,
        "run_s_samples": samples,
        "traced_run_s_samples": res.get("traced_run_s", []),
        "setup_s_samples": setup_times,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "properties": props,
        "provenance": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "input_sha256": input_sha,
            "output_sha256": res["output_sha256"],
        },
    }
    path = results / f"{stem}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"record: {path.relative_to(ROOT)}")

    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
