"""Command-line entry point.

Subcommands wire the library end to end: ``discretize`` (supervised MDLP
binning), ``learn`` (CPT fitting with EM when cells are missing), ``infer``
(single posterior or interventional query), ``threshold`` (Youden),
``rddo`` (the full window pipeline), and ``synth`` (ground-truth cohort
generation). Exit codes: 0 success, 1 configuration error, 2 data error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .cohort import Cohort, read_cohort_csv, write_cohort_csv
from .errors import ConfigError, DataError, RdTrialError, UnknownState
from .inference import do_posterior, posterior
from .learning import em_fit
from .model import Cpt, DiscreteNetwork, unroll
from .modelio import dumps_model, load_model, network_from_dict, save_model
from .preprocess import PlausibilityRange, apply_plausibility, bin_column, mdlp_cuts
from .rddo import (
    RdDoReport,
    RunConfig,
    load_run_config,
    parse_run_config,
    run_rd_do,
)
from .stats import youden_threshold
from .synth import make_confounded_scenario, sample_cohort, true_interventional

EFFECTS_HEADER = [
    "variable", "t", "mode", "category", "n", "mean", "std",
    "ks_min_p", "significant", "rank",
]
WINDOWS_HEADER = ["t", "status", "threshold", "k", "power"]


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as configuration errors."""

    def error(self, message):
        self.print_help(sys.stderr)
        raise ConfigError(message)


def _fmt_cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        if math.isnan(x):
            return ""
        return repr(x)
    return str(x)


def _clean(obj):
    """Make a structure JSON-safe: drop NaN/inf to null, arrays to lists."""
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_clean(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if math.isfinite(f) else None
    return obj


def _write_json(path: Path, doc) -> None:
    path.write_text(
        json.dumps(_clean(doc), indent=2, allow_nan=False) + "\n",
        encoding="utf-8",
    )


def _ks_min_p(table, category: str) -> float | None:
    best = None
    for (a, b), p in (table.ks_p or {}).items():
        if p is None or category not in (a, b):
            continue
        if best is None or p < best:
            best = p
    return best


def emit_report(report: RdDoReport, out_dir: str | Path) -> dict[str, Path]:
    """Write report.json, effects.csv, windows.csv and run_manifest.json.

    effects.csv carries one row per (variable, t, mode, category) with the
    frozen header; report.json mirrors the full structure minus per-record
    sample arrays and window membership (sizes and counts are included).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    effects_path = out / "effects.csv"
    with effects_path.open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(EFFECTS_HEADER)
        for tp in report.time_points:
            for table in tp.tables:
                for cat in table.categories:
                    w.writerow([
                        table.variable,
                        table.t,
                        table.mode,
                        cat.category,
                        cat.n,
                        _fmt_cell(cat.mean),
                        _fmt_cell(cat.std),
                        _fmt_cell(_ks_min_p(table, cat.category)),
                        _fmt_cell(bool(table.significant)),
                        _fmt_cell(table.rank),
                    ])

    windows_path = out / "windows.csv"
    with windows_path.open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(WINDOWS_HEADER)
        for tp in report.time_points:
            win = tp.window
            w.writerow([
                tp.t,
                tp.status,
                _fmt_cell(tp.threshold),
                _fmt_cell(win.k if win else None),
                _fmt_cell(win.power if win else None),
            ])

    doc = {
        "best_time_point": report.best_time_point,
        "covariates": list(report.covariates),
        "time_points": [
            {
                "t": tp.t,
                "outcome": tp.outcome,
                "status": tp.status,
                "reason": tp.reason,
                "threshold": tp.threshold,
                "n_scored": tp.n_scored,
                "n_missing_outcome": tp.n_missing_outcome,
                "n_zero_probability": tp.n_zero_probability,
                "n_windows": tp.n_windows,
                "window": None if tp.window is None else {
                    "k": tp.window.k,
                    "power": tp.window.power,
                    "fp": tp.window.fp,
                    "fn": tp.window.fn,
                    "threshold": tp.window.threshold,
                    "covariate_p_values": dict(tp.window.p_values),
                },
                "tables": [
                    {
                        "variable": tb.variable,
                        "outcome": tb.outcome,
                        "t": tb.t,
                        "mode": tb.mode,
                        "significant": tb.significant,
                        "max_significant_diff": tb.max_significant_diff,
                        "rank": tb.rank,
                        "ks_p": {f"{a}|{b}": p for (a, b), p in (tb.ks_p or {}).items()},
                        "categories": [
                            {
                                "category": c.category,
                                "n": c.n,
                                "mean": c.mean,
                                "std": c.std,
                                "failures": c.failures,
                            }
                            for c in tb.categories
                        ],
                    }
                    for tb in tp.tables
                ],
                "rejected": [asdict(r) for r in tp.rejected],
            }
            for tp in report.time_points
        ],
    }
    report_path = out / "report.json"
    _write_json(report_path, doc)

    config_doc = _clean(asdict(report.config))
    config_json = json.dumps(config_doc, indent=2, sort_keys=True)
    manifest = {
        "config": config_doc,
        "config_sha256": hashlib.sha256(config_json.encode("utf-8")).hexdigest(),
        "seed": report.config.seed,
        "versions": {
            "rdtrial": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    manifest_path = out / "run_manifest.json"
    _write_json(manifest_path, manifest)
    return {
        "report": report_path,
        "effects": effects_path,
        "windows": windows_path,
        "manifest": manifest_path,
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_rddo(args) -> int:
    if args.config:
        config = load_run_config(args.config)
    else:
        if not (args.model and args.cohort):
            raise ConfigError("rddo needs --config or both --model and --cohort")
        config = parse_run_config({"model": args.model, "cohort": args.cohort})
    overrides = {}
    if args.model:
        overrides["model_path"] = str(Path(args.model).resolve())
    if args.cohort:
        overrides["cohort_path"] = str(Path(args.cohort).resolve())
    if args.out:
        overrides["out_dir"] = str(Path(args.out).resolve())
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.threads is not None and args.threads < 1:
        raise ConfigError(f"threads must be >= 1, got {args.threads}")
    if overrides:
        from dataclasses import replace
        config = replace(config, **overrides)
    if config.out_dir is None:
        raise ConfigError("no output directory: set 'out' in the config or pass --out")

    report = run_rd_do(config)
    paths = emit_report(report, config.out_dir)
    for tp in report.time_points:
        if tp.status == "ok":
            print(f"t={tp.t}: window k={tp.window.k} power={tp.window.power:.4f} "
                  f"threshold={tp.threshold:.6f} tables={len(tp.tables)}")
        else:
            print(f"t={tp.t}: {tp.status} ({tp.reason})")
    if report.best_time_point is not None:
        print(f"best time point: t={report.best_time_point}")
    print(f"wrote {paths['report']}")
    print(f"wrote {paths['effects']}")
    print(f"wrote {paths['windows']}")
    print(f"wrote {paths['manifest']}")
    return 0


def _parse_assignments(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    if not text:
        return out
    for chunk in text.split(","):
        if "=" not in chunk:
            raise ConfigError(f"bad assignment {chunk!r}, expected name=state")
        name, state = chunk.split("=", 1)
        out[name.strip()] = state.strip()
    return out


def _load_net(path: str, horizon: int | None) -> DiscreteNetwork:
    if not Path(path).exists():
        raise ConfigError(f"model file not found: {path}")
    model = load_model(path)
    if isinstance(model, DiscreteNetwork):
        return model
    if horizon is None:
        raise ConfigError("model is a temporal template: pass --horizon to unroll")
    return unroll(model, horizon)


def _encode_assignment(net: DiscreteNetwork, pairs: dict[str, str]) -> dict[str, int]:
    out: dict[str, int] = {}
    for name, state in pairs.items():
        var = net.var(name)
        try:
            out[name] = var.state_index(state)
        except UnknownState:
            raise DataError(
                f"variable {name!r}: state {state!r} is not one of {list(var.states)}"
            ) from None
    return out


def _cmd_infer(args) -> int:
    net = _load_net(args.model, args.horizon)
    evidence = _encode_assignment(net, _parse_assignments(args.evidence or ""))
    if args.do:
        do_pairs = _encode_assignment(net, _parse_assignments(args.do))
        if len(do_pairs) != 1:
            raise ConfigError("--do takes exactly one name=state assignment")
        (x_name, x_state), = do_pairs.items()
        post = do_posterior(net, args.target, (x_name, x_state), evidence)
    else:
        post = posterior(net, args.target, evidence)
    doc = {
        "target": post.target,
        "probs": {s: float(p) for s, p in zip(post.states, post.probs)},
    }
    print(json.dumps(_clean(doc), indent=2))
    return 0


def _read_number_file(path: str, what: str) -> np.ndarray:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"{what} file not found: {p}")
    values = []
    for i, line in enumerate(p.read_text(encoding="utf-8").splitlines()):
        line = line.strip()
        if not line:
            continue
        try:
            values.append(float(line))
        except ValueError:
            raise DataError(f"{p}: line {i + 1}: {line!r} is not a number") from None
    if not values:
        raise DataError(f"{p}: no values")
    return np.array(values, dtype=np.float64)


def _cmd_threshold(args) -> int:
    scores = _read_number_file(args.scores, "scores")
    labels_f = _read_number_file(args.labels, "labels")
    if scores.size != labels_f.size:
        raise DataError(
            f"{scores.size} scores but {labels_f.size} labels"
        )
    labels = labels_f.astype(np.int64)
    if not np.array_equal(labels, labels_f) or not np.isin(labels, (0, 1)).all():
        raise DataError("labels must be 0 or 1")
    thr, j = youden_threshold(scores, labels)
    print(json.dumps({"threshold": _clean(thr), "j": _clean(j)}, indent=2))
    return 0


def _cmd_learn(args) -> int:
    if not Path(args.structure).exists():
        raise ConfigError(f"structure file not found: {args.structure}")
    try:
        doc = json.loads(Path(args.structure).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{args.structure}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict) or "variables" not in doc:
        raise ConfigError(f"{args.structure}: missing 'variables'")
    if "template" in doc:
        raise ConfigError("learn expects a plain (unrolled) network structure")
    doc = dict(doc)
    doc.setdefault("arcs", [])
    if not doc.get("cpts"):
        doc["cpts"] = _uniform_cpts(doc)
    structure = network_from_dict(doc)

    if not Path(args.cohort).exists():
        raise ConfigError(f"cohort file not found: {args.cohort}")
    cohort = read_cohort_csv(args.cohort)
    for col in cohort.columns:
        if col not in structure:
            raise DataError(f"cohort column {col!r} is not a model variable")
    from .cohort import encode_columns
    cols = encode_columns(structure, cohort)
    for name in structure.names:
        if name not in cols:
            cols[name] = np.full(len(cohort), -1, dtype=np.int64)
    fitted, fit = em_fit(
        structure, cols, alpha=args.alpha, seed=args.seed, max_iter=args.max_iter
    )
    save_model(fitted, args.out)
    print(f"wrote {args.out}")
    print(f"iterations={fit.iterations} converged={fit.converged} "
          f"log_likelihood={fit.log_likelihood[-1]:.6f}")
    return 0


def _uniform_cpts(doc: dict) -> dict:
    cards = {}
    for v in doc.get("variables", []):
        if not isinstance(v, dict) or "name" not in v or "states" not in v:
            raise ConfigError("each variable needs 'name' and 'states'")
        cards[v["name"]] = len(v["states"])
    parents: dict[str, list[str]] = {name: [] for name in cards}
    for arc in doc.get("arcs", []):
        src, dst = arc
        if dst in parents:
            parents[dst].append(src)
    cpts = {}
    for name, card in cards.items():
        n_cfg = 1
        for p in parents[name]:
            n_cfg *= cards.get(p, 1)
        row = [1.0 / card] * card
        cpts[name] = {"parents": parents[name], "rows": [row[:] for _ in range(n_cfg)]}
    return cpts


def _cmd_discretize(args) -> int:
    if not Path(args.cohort).exists():
        raise ConfigError(f"cohort file not found: {args.cohort}")
    cohort = read_cohort_csv(args.cohort)
    if args.outcome not in cohort.columns:
        raise DataError(f"cohort has no column {args.outcome!r}")
    columns = [c.strip() for c in args.columns.split(",") if c.strip()]
    for c in columns:
        if c not in cohort.columns:
            raise DataError(f"cohort has no column {c!r}")

    ranges = []
    for spec in args.range or []:
        try:
            name, bounds = spec.split("=", 1)
            lo, hi = bounds.split(":", 1)
            ranges.append(PlausibilityRange(name.strip(), float(lo), float(hi)))
        except (ValueError, TypeError):
            raise ConfigError(
                f"bad --range {spec!r}, expected name=min:max"
            ) from None
    changes = []
    if ranges:
        cohort, changes = apply_plausibility(cohort, ranges, source=args.cohort)

    labels_col = cohort.column(args.outcome)
    schemes = {}
    new_columns = {c: None for c in columns}
    for c in columns:
        raw = cohort.column(c)
        pairs = [
            (float(v), 1 if y == args.positive else 0)
            for v, y in zip(raw, labels_col)
            if v is not None and y is not None
        ]
        if not pairs:
            raise DataError(f"column {c!r} has no usable (value, label) pairs")
        values = np.array([p[0] for p in pairs])
        labels = np.array([p[1] for p in pairs])
        scheme = mdlp_cuts(values, labels, variable=c)
        schemes[c] = scheme
        new_columns[c] = bin_column(raw, scheme, c, source=args.cohort)

    rows = []
    for r in range(len(cohort)):
        row = list(cohort.rows[r])
        for c in columns:
            row[cohort.col_index(c)] = new_columns[c][r]
        rows.append(tuple(row))
    binned = Cohort(columns=cohort.columns, rows=rows, ids=cohort.ids)
    write_cohort_csv(binned, args.out)
    print(f"wrote {args.out}")
    if args.bins_out:
        doc = {
            c: {
                "cuts": list(s.cuts),
                "labels": list(s.labels),
            }
            for c, s in schemes.items()
        }
        _write_json(Path(args.bins_out), doc)
        print(f"wrote {args.bins_out}")
    for c in columns:
        print(f"{c}: cuts={list(schemes[c].cuts)}")
    if ranges:
        print(f"plausibility: {len(changes)} cell(s) cleared")
    return 0


def _cmd_synth(args) -> int:
    params = {}
    if args.config:
        p = Path(args.config)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        try:
            params = json.loads(p.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{p}: not valid JSON ({exc})") from exc
        if not isinstance(params, dict):
            raise ConfigError("synth config must be a JSON object")
        allowed = {"bias", "n", "seed", "injector_strength", "injector_offset", "mcar"}
        unknown = sorted(set(params) - allowed)
        if unknown:
            raise ConfigError(f"unknown synth config key(s): {', '.join(unknown)}")
    if args.bias is not None:
        params["bias"] = args.bias
    if args.n is not None:
        params["n"] = args.n
    if args.seed is not None:
        params["seed"] = args.seed
    if args.strength is not None:
        params["injector_strength"] = args.strength

    try:
        spec = make_confounded_scenario(
            bias=float(params.get("bias", 0.12)),
            n=int(params.get("n", 10_000)),
            seed=int(params.get("seed", 0)),
            injector_strength=float(params.get("injector_strength", 0.0)),
            injector_offset=float(params.get("injector_offset", 0.0)),
            mcar=params.get("mcar") or {},
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model_path = out / "model.json"
    model_path.write_text(dumps_model(spec.network), encoding="utf-8")
    cohort = sample_cohort(spec)
    cohort_path = out / "cohort.csv"
    write_cohort_csv(cohort, cohort_path)

    treat_var = spec.network.var(spec.treatment)
    oracle = {
        state: true_interventional(
            spec.network, spec.outcome, (spec.treatment, i),
            spec.network.state_index(spec.outcome, spec.positive_state),
        )
        for i, state in enumerate(treat_var.states)
    }
    certificate = {
        "treatment": spec.treatment,
        "outcome": spec.outcome,
        "positive_state": spec.positive_state,
        "covariates": list(spec.covariates),
        "latent": list(spec.latent),
        "reference_threshold": spec.reference_threshold,
        "injector": {
            "covariate": spec.injector_covariate,
            "strength": spec.injector_strength,
            "offset": spec.injector_offset,
        },
        "analytic": dict(spec.certificate),
        "oracle_interventional": oracle,
        "n": spec.n,
        "seed": spec.seed,
    }
    cert_path = out / "certificate.json"
    _write_json(cert_path, certificate)
    print(f"wrote {model_path}")
    print(f"wrote {cohort_path}")
    print(f"wrote {cert_path}")
    return 0


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="rdtrial", description=__doc__)
    parser.add_argument("--version", action="version", version=f"rdtrial {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser)

    p = sub.add_parser("rddo", help="run the full window pipeline")
    p.add_argument("--config", help="run config JSON")
    p.add_argument("--model", help="model JSON (overrides config)")
    p.add_argument("--cohort", help="cohort CSV (overrides config)")
    p.add_argument("--out", help="output directory (overrides config)")
    p.add_argument("--seed", type=int, help="seed (overrides config)")
    p.add_argument("--threads", type=int,
                   help="accepted for older scripts, no effect: runs on one thread")
    p.set_defaults(func=_cmd_rddo)

    p = sub.add_parser("infer", help="single posterior query")
    p.add_argument("--model", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--evidence", help="comma-separated name=state pairs")
    p.add_argument("--do", help="one name=state intervention")
    p.add_argument("--horizon", type=int, help="unroll horizon for templates")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("threshold", help="Youden threshold from score/label files")
    p.add_argument("--scores", required=True, help="file, one score per line")
    p.add_argument("--labels", required=True, help="file, one 0/1 label per line")
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("learn", help="fit CPTs from a cohort")
    p.add_argument("--structure", required=True, help="network JSON (CPTs optional)")
    p.add_argument("--cohort", required=True)
    p.add_argument("--out", required=True, help="fitted model JSON")
    p.add_argument("--alpha", type=float, default=0.0, help="additive smoothing")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iter", type=int, default=200)
    p.set_defaults(func=_cmd_learn)

    p = sub.add_parser("discretize", help="MDLP-bin numeric columns")
    p.add_argument("--cohort", required=True)
    p.add_argument("--columns", required=True, help="comma-separated numeric columns")
    p.add_argument("--outcome", required=True, help="binary label column")
    p.add_argument("--positive", required=True, help="label value treated as positive")
    p.add_argument("--out", required=True, help="binned cohort CSV")
    p.add_argument("--bins-out", help="write cut points as JSON")
    p.add_argument("--range", action="append", metavar="NAME=MIN:MAX",
                   help="plausibility bounds, repeatable; out-of-range cells "
                        "become missing")
    p.set_defaults(func=_cmd_discretize)

    p = sub.add_parser("synth", help="generate a ground-truth cohort")
    p.add_argument("--config", help="scenario JSON (bias, n, seed, injector, mcar)")
    p.add_argument("--bias", type=float, help="associational-causal gap")
    p.add_argument("--n", type=int, help="cohort size")
    p.add_argument("--seed", type=int)
    p.add_argument("--strength", type=float, help="covariate-imbalance injector strength")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth)

    return parser


def dispatch(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_help(sys.stderr)
            return 1
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnknownState as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RdTrialError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
