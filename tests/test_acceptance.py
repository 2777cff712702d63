"""Top-level acceptance gate.

One test per shipped guarantee; each prints a single PASS/FAIL verdict line
with the measured quantity (run with ``-s`` or ``-rA`` to see the lines for
passing tests too). Tolerances and runtime budgets are asserted, not just
reported.
"""

from __future__ import annotations

import math
import time
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

from rdtrial.cli import dispatch
from rdtrial.cohort import write_cohort_csv
from rdtrial.inference import do_posterior, enumerate_posterior, posterior
from rdtrial.learning import em_fit, mle_fit
from rdtrial.modelio import save_model
from rdtrial.preprocess import mdlp_cuts
from rdtrial.rddo import RunConfig, run_rd_do, scan_windows, score_cohort
from rdtrial.stats import (
    bonferroni_alpha,
    chi2_homogeneity,
    ks_two_sample,
    sample_power,
    youden_threshold,
)
from rdtrial.synth import (
    confounded_triple,
    make_confounded_scenario,
    sample_cohort,
    true_interventional,
)

from helpers import random_evidence, random_network


def _verdict(label: str, ok: bool, detail: str) -> str:
    line = f"[{label}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    return line


# ---------------------------------------------------------------------------
# 1. exact inference equals brute-force enumeration
# ---------------------------------------------------------------------------

def test_acceptance_1_posterior_matches_enumeration():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        net = random_network(rng)
        target = net.names[int(rng.integers(len(net.names)))]
        evidence = random_evidence(rng, net, exclude=(target,))
        fast = posterior(net, target, evidence).probs
        slow = enumerate_posterior(net, target, evidence).probs
        worst = max(worst, float(np.max(np.abs(fast - slow))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 60.0
    line = _verdict(
        "1 posterior-vs-enumeration", ok,
        f"max abs deviation {worst:.3e} over 200 random networks in {elapsed:.1f}s",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 2. do-operator equals truncated factorization
# ---------------------------------------------------------------------------

def test_acceptance_2_do_operator_matches_truncated_factorization():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(100):
        net = random_network(rng)
        names = net.names
        x = names[int(rng.integers(len(names)))]
        target = x
        while target == x:
            target = names[int(rng.integers(len(names)))]
        x_state = int(rng.integers(net.card(x)))
        probs = do_posterior(net, target, (x, x_state), {}).probs
        for s in range(net.card(target)):
            truth = true_interventional(net, target, (x, x_state), s)
            worst = max(worst, abs(float(probs[s]) - truth))

    triple = confounded_triple(0.12)
    obs = float(posterior(triple, "y", {"x": 1}).probs[1])
    act = float(do_posterior(triple, "y", ("x", 1), {}).probs[1])
    gap_ok = abs(obs - 0.62) <= 1e-9 and abs(act - 0.50) <= 1e-9

    ok = worst <= 1e-9 and gap_ok
    line = _verdict(
        "2 do-operator", ok,
        f"max abs deviation {worst:.3e} over 100 networks; "
        f"confounded pair observational {obs:.6f} vs interventional {act:.6f}",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 3. EM learning
# ---------------------------------------------------------------------------

def _sample_triple_columns(rng, n, mcar=0.0):
    net = confounded_triple(0.12)
    from rdtrial.inference import dense_joint

    flat = dense_joint(net).reshape(-1)
    draws = rng.choice(flat.size, size=n, p=flat)
    states = np.array(np.unravel_index(draws, (2, 2, 2))).T
    cols = {name: states[:, i].astype(np.int64) for i, name in enumerate(net.names)}
    if mcar:
        for name in cols:
            cols[name] = np.where(rng.random(n) < mcar, -1, cols[name])
    return net, cols


def test_acceptance_3_em_learning():
    rng = np.random.default_rng(13)

    # complete data: EM reduces to the closed-form fit, bit for bit
    net, complete = _sample_triple_columns(rng, 500)
    em_net, _ = em_fit(net, complete, alpha=0.0)
    ml_net = mle_fit(net, complete, alpha=0.0)
    exact = all(
        np.array_equal(em_net.cpts[v].rows, ml_net.cpts[v].rows) for v in net.names
    )

    # 20% missing completely at random, 10,000 rows: parameters recovered
    net, masked = _sample_triple_columns(rng, 10_000, mcar=0.2)
    fitted, _ = em_fit(net, masked, alpha=0.0, seed=0)
    cpt_err = max(
        float(np.max(np.abs(fitted.cpts[v].rows - net.cpts[v].rows)))
        for v in net.names
    )

    # likelihood trace never decreases, across 20 independent datasets
    worst_drop = 0.0
    for seed in range(20):
        srng = np.random.default_rng(1000 + seed)
        net, cols = _sample_triple_columns(srng, 400, mcar=0.2)
        _, fit = em_fit(net, cols, alpha=0.0, seed=seed, max_iter=40)
        trace = np.asarray(fit.log_likelihood)
        if trace.size > 1:
            worst_drop = min(worst_drop, float(np.min(np.diff(trace))))

    ok = exact and cpt_err <= 0.05 and worst_drop >= -1e-9
    line = _verdict(
        "3 em-learning", ok,
        f"complete-data exact match {exact}; CPT max abs error {cpt_err:.4f} "
        f"at 20% missing on 10,000 rows; worst trace step {worst_drop:.2e} over 20 seeds",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 4. end-to-end pipeline on a 50,000-record cohort with known ground truth
# ---------------------------------------------------------------------------

def test_acceptance_4_end_to_end_pipeline(tmp_path):
    spec = make_confounded_scenario(bias=0.12, n=50_000, seed=4)
    model_path = tmp_path / "model.json"
    save_model(spec.network, model_path)
    cohort_path = tmp_path / "cohort.csv"
    write_cohort_csv(sample_cohort(spec), cohort_path)

    config = RunConfig(
        model_path=str(model_path),
        cohort_path=str(cohort_path),
        covariates=spec.covariates,
        thresholds={1: spec.reference_threshold},
        split=None,
        k_min=200,
        k_step=500,
    )
    t0 = time.perf_counter()
    report = run_rd_do(config)
    elapsed = time.perf_counter() - t0

    (tp,) = report.time_points
    window_ok = tp.status == "ok" and tp.window is not None

    treat_yes = spec.network.var(spec.treatment).states.index("yes")
    pos = spec.network.var(spec.outcome).states.index(spec.positive_state)
    oracle = true_interventional(spec.network, spec.outcome, (spec.treatment, treat_yes), pos)

    causal_mean = assoc_mean = float("nan")
    if window_ok:
        by_key = {(t.variable, t.mode): t for t in tp.tables}
        causal_mean = by_key[(spec.treatment, "causal")].categories[treat_yes].mean
        assoc_mean = by_key[(spec.treatment, "associational")].categories[treat_yes].mean
    causal_ok = window_ok and abs(causal_mean - oracle) <= 0.02
    assoc_ok = window_ok and abs(assoc_mean - oracle) >= 0.06
    noise_ok = window_ok and any(
        r.variable == "noise@0" and r.mode == "causal" and r.error == "NoCausalPath"
        for r in tp.rejected
    )
    time_ok = elapsed < 300.0

    ok = window_ok and causal_ok and assoc_ok and noise_ok and time_ok
    line = _verdict(
        "4 end-to-end-pipeline", ok,
        f"window k={tp.window.k if tp.window else None}; interventional truth {oracle:.4f}, "
        f"causal estimate {causal_mean:.4f}, associational estimate {assoc_mean:.4f}; "
        f"pathless variable rejected {noise_ok}; single-threaded {elapsed:.1f}s",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 5. covariate-balance window gate
# ---------------------------------------------------------------------------

# The gate is a level-alpha test per window: each of the m covariates is
# tested at alpha / m, so on balanced covariates a window is falsely rejected
# with probability at most alpha and accepted with probability near 1 - alpha.
# The seed is the independent unit: a seed's windows are nested and share
# most of their records, so they are not independent trials. The bar is
# 1 - alpha less a one-sided 1% sampling allowance for the mean of the
# per-seed acceptance fractions:
#     bar = (1 - alpha) - z_0.99 * SD / sqrt(seeds)
#         = 0.95 - 2.326 * 0.079 / sqrt(20) ~= 0.909,
# where SD = 0.079 is the spread of the per-seed fraction measured over
# seeds 0..199 of this scenario (seed mean 0.958 there). A gate without the
# Bonferroni split (per-test level alpha) accepts 0.84 over those seeds and
# 0.868 over seeds 0..19, so it falls below the bar.
GATE_ALPHA = 0.05
GATE_NULL_SEEDS = 20
GATE_NULL_PER_SEED_SD = 0.079
GATE_NULL_BAR = (1.0 - GATE_ALPHA) - NormalDist().inv_cdf(0.99) * (
    GATE_NULL_PER_SEED_SD / math.sqrt(GATE_NULL_SEEDS)
)


def _scan_scenario(seed, strength, n=2000):
    spec = make_confounded_scenario(
        bias=0.12, n=n, seed=seed,
        injector_strength=strength, injector_offset=0.25,
    )
    cohort = sample_cohort(spec)
    scoring = score_cohort(spec.network, cohort, t=1, threshold=spec.reference_threshold)
    return scan_windows(
        spec.network, scoring.records, spec.reference_threshold,
        list(spec.covariates), alpha=GATE_ALPHA, k_min=200, k_step=100, k_max=1800,
    )


def test_acceptance_5a_gate_flags_distance_growing_imbalance():
    reports = _scan_scenario(seed=0, strength=3.0)
    passing = [r.k for r in reports if r.randomized]
    largest = reports[-1]
    some_pass = len(passing) > 0
    largest_fails = not largest.randomized
    ok = some_pass and largest_fails
    worst_p = min((p for p in largest.p_values.values() if p is not None), default=None)
    line = _verdict(
        "5a window-gate-injector", ok,
        f"{len(passing)} window size(s) accepted (smallest {passing[0] if passing else None}); "
        f"largest window k={largest.k} rejected with min covariate p {worst_p:.2e}",
    )
    assert ok, line


def test_acceptance_5b_gate_accepts_balanced_cohorts():
    fractions = []
    rejections: dict[str, int] = {}
    for seed in range(GATE_NULL_SEEDS):
        reports = _scan_scenario(seed=seed, strength=0.0)
        fractions.append(sum(r.randomized for r in reports) / len(reports))
        for r in reports:
            level = bonferroni_alpha(GATE_ALPHA, len(r.p_values))
            for c, p in r.p_values.items():
                rejections[c] = rejections.get(c, 0) + (p is not None and p < level)
    seed_mean = sum(fractions) / len(fractions)
    ok = seed_mean >= GATE_NULL_BAR
    per_cov = ", ".join(f"{c} {n}" for c, n in rejections.items())
    line = _verdict(
        "5b window-gate-null", ok,
        f"seed-mean acceptance {seed_mean:.4f} over {GATE_NULL_SEEDS} seeds without "
        f"injected imbalance; nominal 1 - alpha {1.0 - GATE_ALPHA:.2f}, "
        f"required >= {GATE_NULL_BAR:.4f}; rejections (p < alpha/m) per covariate: {per_cov}",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 6. statistic oracles
# ---------------------------------------------------------------------------

def test_acceptance_6_stat_oracles():
    chi = chi2_homogeneity(np.array([50, 10]), np.array([10, 50]))
    chi_ok = abs(chi.statistic - 160.0 / 3.0) <= 1e-9 and 0.0 < chi.p_value < 1e-9

    same = np.array([1.0, 2.0, 3.0, 4.0])
    ks_same = ks_two_sample(same, same.copy())
    ks_apart = ks_two_sample(np.array([0.0, 1.0, 2.0]), np.array([10.0, 11.0, 12.0]))
    ks_ok = (
        ks_same.statistic == 0.0 and ks_same.p_value == 1.0
        and ks_apart.statistic == 1.0
    )

    rng = np.random.default_rng(6)
    rejections = 0
    for _ in range(100):
        a = rng.normal(size=200)
        b = rng.normal(size=200)
        if ks_two_sample(a, b).p_value < 0.05:
            rejections += 1
    calib_ok = 1 <= rejections <= 12

    thr, j = youden_threshold(
        np.array([0.2, 0.4, 0.6, 0.8]), np.array([0, 0, 1, 1])
    )
    youden_ok = abs(thr - 0.5) <= 1e-12 and abs(j - 1.0) <= 1e-12

    power_ok = (
        sample_power(2, 6) == 0.75
        and sample_power(0, 5) == 1.0
        and sample_power(0, 0) == 1.0
    )

    ok = chi_ok and ks_ok and calib_ok and youden_ok and power_ok
    line = _verdict(
        "6 stat-oracles", ok,
        f"chi2 statistic {chi.statistic:.6f} (want {160/3:.6f}); KS degenerate D "
        f"{ks_same.statistic}/{ks_apart.statistic}; {rejections}/100 null rejections; "
        f"Youden ({thr}, {j}); power cases {power_ok}",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 7. entropy-based supervised binning
# ---------------------------------------------------------------------------

def test_acceptance_7_mdlp():
    values = np.array([1.0, 2.0, 3.0, 10.0, 11.0, 12.0])
    labels = np.array([0, 0, 0, 1, 1, 1])
    scheme = mdlp_cuts(values, labels)

    # recompute the acceptance inequality for the 6.5 split from first principles
    n = 6
    parent_entropy = 1.0            # three of each label
    gain = parent_entropy           # both children pure
    k, k1, k2 = 2, 1, 1             # distinct classes: parent, left, right
    delta = math.log2(3**k - 2) - (k * parent_entropy - k1 * 0.0 - k2 * 0.0)
    bound = (math.log2(n - 1) + delta) / n
    hand_ok = scheme.cuts == (6.5,) and gain > bound

    pure = mdlp_cuts(np.arange(10.0), np.zeros(10, dtype=int))
    pure_ok = pure.cuts == ()

    rng = np.random.default_rng(7)
    empty = 0
    for _ in range(20):
        v = rng.normal(size=60)
        y = rng.permutation(np.repeat([0, 1], 30))
        if mdlp_cuts(v, y).cuts == ():
            empty += 1
    shuffle_ok = empty >= 18

    ok = hand_ok and pure_ok and shuffle_ok
    line = _verdict(
        "7 mdlp", ok,
        f"hand case cuts {scheme.cuts} with gain {gain:.4f} > bound {bound:.4f}; "
        f"pure labels -> {pure.cuts}; {empty}/20 shuffled datasets uncut",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 8. pipeline runtime grows linearly with cohort size
# ---------------------------------------------------------------------------

def _timed_run(tmp_path, n, tag):
    spec = make_confounded_scenario(bias=0.12, n=n, seed=8)
    model_path = tmp_path / f"model_{tag}.json"
    save_model(spec.network, model_path)
    cohort_path = tmp_path / f"cohort_{tag}.csv"
    write_cohort_csv(sample_cohort(spec), cohort_path)
    config = RunConfig(
        model_path=str(model_path),
        cohort_path=str(cohort_path),
        covariates=spec.covariates,
        thresholds={1: spec.reference_threshold},
        split=None,
        k_min=200,
        k_step=200,
        k_max=2000,
    )
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        report = run_rd_do(config)
        best = min(best, time.perf_counter() - t0)
        assert report.time_points[0].status == "ok"
    return best


def test_acceptance_8_runtime_linearity(tmp_path):
    t_small = _timed_run(tmp_path, 6000, "small")
    t_large = _timed_run(tmp_path, 12000, "large")
    ratio = t_large / t_small
    ok = ratio <= 3.0
    line = _verdict(
        "8 runtime-linearity", ok,
        f"doubling 6000 -> 12000 records: {t_small:.3f}s -> {t_large:.3f}s "
        f"(ratio {ratio:.2f}, budget 3.0), best of 3 runs each",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 9. byte-identical outputs across reruns and thread counts
# ---------------------------------------------------------------------------

def test_acceptance_9_deterministic_outputs(tmp_path):
    spec = make_confounded_scenario(bias=0.12, n=3000, seed=9)
    model_path = tmp_path / "model.json"
    save_model(spec.network, model_path)
    cohort_path = tmp_path / "cohort.csv"
    write_cohort_csv(sample_cohort(spec), cohort_path)
    config_path = tmp_path / "run.json"
    config_path.write_text(
        """
        {
          "model": "%s",
          "cohort": "%s",
          "covariates": ["cov_a@0", "cov_b@0", "marker@0", "noise@0"],
          "thresholds": {"1": %r},
          "split": null,
          "k_min": 200,
          "k_step": 100
        }
        """ % (model_path, cohort_path, spec.reference_threshold),
        encoding="utf-8",
    )

    digests = []
    for tag, threads in (("a", None), ("b", None), ("c", "4")):
        out = tmp_path / f"out_{tag}"
        argv = ["rddo", "--config", str(config_path), "--out", str(out)]
        if threads:
            argv += ["--threads", threads]
        assert dispatch(argv) == 0
        digests.append((out / "effects.csv").read_bytes())

    ok = (
        digests[0] == digests[1] == digests[2]
        and digests[0].startswith(b"variable,")
        and digests[0].count(b"\n") > 1
    )
    line = _verdict(
        "9 determinism", ok,
        f"effects.csv identical across two reruns and a 4-thread run "
        f"({len(digests[0])} bytes)",
    )
    assert ok, line
