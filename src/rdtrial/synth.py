"""Synthetic cohorts with known ground truth.

The central construction is a confounded triple Z -> X, Z -> Y, X -> Y whose
associational-vs-interventional gap |P(Y=1|X=1) - P(Y=1|do(X=1))| equals a
requested bias analytically, so every downstream estimate can be checked
against exact numbers instead of Monte Carlo baselines.
:func:`make_confounded_scenario` embeds the triple in a two-slice network
with a latent confounder, independent baseline covariates for the
randomization gate, and slice-1 outcome parents that spread the risk scores.

:func:`true_interventional` is the ground-truth oracle: the truncated
factorization evaluated by full enumeration. It never touches the
variable-elimination engine, so agreement between the two is evidence, not
circularity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .cohort import Cohort
from .errors import TooLargeForEnumeration, UnknownState
from .inference import dense_joint, posterior
from .model import Cpt, DiscreteNetwork, VariableDef, iter_parent_configs, slice_rank


# ---------------------------------------------------------------------------
# exact-gap CPT solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapDesign:
    """CPT parameters realizing an exact associational-causal gap."""

    pz1: float                       # P(Z=1)
    x1_given_z: tuple[float, float]  # P(X=1 | Z=0), P(X=1 | Z=1)
    y1_given_x1_z: tuple[float, float]
    y1_given_x0_z: tuple[float, float]

    def interventional(self, x: int) -> float:
        a = self.y1_given_x1_z if x == 1 else self.y1_given_x0_z
        return (1 - self.pz1) * a[0] + self.pz1 * a[1]

    def observational(self, x: int) -> float:
        x0, x1 = self.x1_given_z
        px_z0 = x0 if x == 1 else 1 - x0
        px_z1 = x1 if x == 1 else 1 - x1
        pz1_x = self.pz1 * px_z1 / (self.pz1 * px_z1 + (1 - self.pz1) * px_z0)
        a = self.y1_given_x1_z if x == 1 else self.y1_given_x0_z
        return (1 - pz1_x) * a[0] + pz1_x * a[1]


def solve_gap(bias: float) -> GapDesign:
    """CPTs with P(Y=1|X=1) - P(Y=1|do(X=1)) exactly equal to ``bias``.

    Three regimes keep every probability strictly inside (0, 1):

    * bias <= 0.16: Z balanced, outcome rows fixed at 0.5 +/- 0.2, and the
      confounder-to-treatment pull delta = bias / 0.4. At bias 0.12 this is
      exactly the canonical family (0.2/0.8 treatment, 0.3/0.7 outcome); at
      bias 0 the treatment CPT is independent of Z.
    * 0.16 < bias < 0.45: Z balanced, delta = gamma = sqrt(bias / 2).
    * bias >= 0.45: asymmetric P(Z) with near-deterministic rows; solved in
      closed form so the gap stays exact.
    """
    if not 0 <= bias < 1:
        raise ValueError(f"bias must be in [0, 1), got {bias}")
    if bias <= 0.16:
        delta = bias / 0.4
        gamma = 0.2
        return GapDesign(
            pz1=0.5,
            x1_given_z=(0.5 - delta, 0.5 + delta),
            y1_given_x1_z=(0.5 - gamma, 0.5 + gamma),
            y1_given_x0_z=(0.2, 0.4),
        )
    if bias < 0.45:
        delta = gamma = float(np.sqrt(bias / 2.0))
        return GapDesign(
            pz1=0.5,
            x1_given_z=(0.5 - delta, 0.5 + delta),
            y1_given_x1_z=(0.5 - gamma, 0.5 + gamma),
            y1_given_x0_z=(0.2, 0.4),
        )
    spread_y = (1.0 + bias) / 2.0          # a1 - a0
    spread_q = bias / spread_y             # q - p
    p = (1.0 - spread_q) / 2.0             # P(Z=1)
    q = p + spread_q                       # P(Z=1 | X=1)
    a0 = 0.5 - spread_y / 2.0
    a1 = 0.5 + spread_y / 2.0
    ratio = q * (1 - p) / ((1 - q) * p)
    x1 = 0.995
    x0 = x1 / ratio
    return GapDesign(
        pz1=p,
        x1_given_z=(x0, x1),
        y1_given_x1_z=(a0, a1),
        y1_given_x0_z=(0.2, 0.4),
    )


def confounded_triple(bias: float = 0.12) -> DiscreteNetwork:
    """Plain three-node confounded network z -> x, z -> y, x -> y.

    States are "0"/"1". At the default bias the CPTs are the canonical
    family: P(x=1|z) = 0.2/0.8 and P(y=1|x=1,z) = 0.3/0.7, which gives
    P(y=1|x=1) = 0.62 and P(y=1|do(x=1)) = 0.50.
    """
    d = solve_gap(bias)
    variables = [
        VariableDef("z", ("0", "1"), kind="static"),
        VariableDef("x", ("0", "1"), kind="static"),
        VariableDef("y", ("0", "1"), kind="static"),
    ]
    arcs = [("z", "x"), ("z", "y"), ("x", "y")]
    y_rows = []
    for x_val, z_val in iter_parent_configs([2, 2]):  # parents (x, z), x most significant
        a = d.y1_given_x1_z if x_val == 1 else d.y1_given_x0_z
        p1 = a[z_val]
        y_rows.append([1 - p1, p1])
    cpts = {
        "z": Cpt("z", (), [[1 - d.pz1, d.pz1]]),
        "x": Cpt("x", ("z",), [[1 - d.x1_given_z[0], d.x1_given_z[0]],
                               [1 - d.x1_given_z[1], d.x1_given_z[1]]]),
        "y": Cpt("y", ("x", "z"), y_rows),
    }
    return DiscreteNetwork(variables, arcs, cpts)


# ---------------------------------------------------------------------------
# scenario
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to draw a cohort with known causal ground truth."""

    network: DiscreteNetwork
    n: int
    seed: int
    treatment: str
    outcome: str
    positive_state: str
    covariates: tuple[str, ...]
    latent: tuple[str, ...] = ()
    mcar: Mapping[str, float] = field(default_factory=dict)
    injector_covariate: str | None = None
    injector_strength: float = 0.0
    injector_offset: float = 0.0
    reference_threshold: float = 0.5
    certificate: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        for name, rate in self.mcar.items():
            self.network.var(name)
            if not 0 <= rate < 1:
                raise ValueError(f"MCAR rate for {name!r} must be in [0, 1), got {rate}")


_NOISE_A = (-2.0 / 3.0, 0.0, 2.0 / 3.0)   # scaled by amp; P = .25/.5/.25
_NOISE_B = (-1.0 / 3.0, 1.0 / 3.0)        # scaled by amp; P = .5/.5


def make_confounded_scenario(
    bias: float = 0.12,
    n: int = 10_000,
    seed: int = 0,
    injector_strength: float = 0.0,
    injector_offset: float = 0.0,
    mcar: Mapping[str, float] | None = None,
) -> ScenarioSpec:
    """Two-slice scenario: latent confounder, treatment at slice 0,
    outcome at slice 1.

    Baseline covariates (cov_a, cov_b, marker, noise) are independent roots,
    so the exported record tells the model nothing about the latent
    confounder: per-record interventional effects are analytically constant
    and equal to the certificate values. Slice-1 outcome parents shift_a and
    shift_b spread the risk scores around the reference threshold, which is
    what gives the window scan a distance axis to work with. The noise
    covariate has no directed path to the outcome (causal-mode queries on it
    must be rejected); the marker covariate is the injection target for
    covariate imbalance.
    """
    d = solve_gap(bias)
    a_by_x = {0: d.y1_given_x0_z, 1: d.y1_given_x1_z}
    all_a = [*d.y1_given_x0_z, *d.y1_given_x1_z]
    margin = min(min(a, 1 - a) for a in all_a)
    amp = min(0.15, 0.9 * margin)

    variables = [
        VariableDef("conf@0", ("z0", "z1")),
        VariableDef("treat@0", ("no", "yes")),
        VariableDef("cov_a@0", ("low", "mid", "high")),
        VariableDef("cov_b@0", ("low", "mid", "high")),
        VariableDef("marker@0", ("neg", "pos")),
        VariableDef("noise@0", ("n0", "n1", "n2")),
        VariableDef("shift_a@1", ("s0", "s1", "s2")),
        VariableDef("shift_b@1", ("s0", "s1")),
        VariableDef("outcome@1", ("no", "yes")),
    ]
    arcs = [
        ("conf@0", "treat@0"),
        ("treat@0", "outcome@1"),
        ("conf@0", "outcome@1"),
        ("shift_a@1", "outcome@1"),
        ("shift_b@1", "outcome@1"),
    ]
    out_rows = []
    for x, z, na, nb in iter_parent_configs([2, 2, 3, 2]):
        p1 = a_by_x[x][z] + amp * _NOISE_A[na] + amp * _NOISE_B[nb]
        out_rows.append([1 - p1, p1])
    cpts = {
        "conf@0": Cpt("conf@0", (), [[1 - d.pz1, d.pz1]]),
        "treat@0": Cpt("treat@0", ("conf@0",),
                       [[1 - d.x1_given_z[0], d.x1_given_z[0]],
                        [1 - d.x1_given_z[1], d.x1_given_z[1]]]),
        "cov_a@0": Cpt("cov_a@0", (), [[0.3, 0.4, 0.3]]),
        "cov_b@0": Cpt("cov_b@0", (), [[0.25, 0.5, 0.25]]),
        "marker@0": Cpt("marker@0", (), [[0.5, 0.5]]),
        "noise@0": Cpt("noise@0", (), [[0.2, 0.5, 0.3]]),
        "shift_a@1": Cpt("shift_a@1", (), [[0.25, 0.5, 0.25]]),
        "shift_b@1": Cpt("shift_b@1", (), [[0.5, 0.5]]),
        "outcome@1": Cpt("outcome@1", ("treat@0", "conf@0", "shift_a@1", "shift_b@1"),
                         out_rows),
    }
    net = DiscreteNetwork(variables, arcs, cpts, outcomes={1: "outcome@1"})

    obs = {"no": d.observational(0), "yes": d.observational(1)}
    do = {"no": d.interventional(0), "yes": d.interventional(1)}
    gap = obs["yes"] - do["yes"]
    if abs(gap - bias) > 1e-12:
        raise AssertionError(f"gap construction drifted: {gap} != {bias}")
    certificate = {
        "bias": bias,
        "observational": obs,
        "interventional": do,
        "gap_treated": gap,
        "noise_amplitude": amp,
    }
    reference_threshold = (obs["no"] + obs["yes"]) / 2.0

    return ScenarioSpec(
        network=net,
        n=n,
        seed=seed,
        treatment="treat@0",
        outcome="outcome@1",
        positive_state="yes",
        covariates=("cov_a@0", "cov_b@0", "marker@0", "noise@0"),
        latent=("conf@0",),
        mcar=dict(mcar or {}),
        injector_covariate="marker@0",
        injector_strength=float(injector_strength),
        injector_offset=float(injector_offset),
        reference_threshold=float(reference_threshold),
        certificate=certificate,
    )


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _score_pattern(spec: ScenarioSpec, values: dict[str, int]) -> tuple[tuple[str, int], ...]:
    """Evidence pattern used for the injector's score: exported observations
    at slices before the outcome, plus non-outcome nodes of its slice."""
    t_out = slice_rank(spec.outcome)
    latent = set(spec.latent)
    return tuple(sorted(
        (name, state) for name, state in values.items()
        if name not in latent and name != spec.outcome and slice_rank(name) <= t_out
    ))


def sample_cohort(spec: ScenarioSpec) -> Cohort:
    """Ancestral sampling with per-record seeds.

    Each record draws from rng(seed, record id), so any subset of records
    can be regenerated independently and the cohort is byte-identical for a
    fixed spec. Steps per record: sample every variable in topological
    order, optionally re-draw the injector covariate as a function of the
    record's signed score distance, then apply MCAR masking. Latent
    variables are sampled (they drive their children) but never exported.
    """
    net = spec.network
    topo = net.topological_order()
    order_cpt = [(name, net.cpts[name]) for name in topo]
    cum = {name: np.cumsum(cpt.rows, axis=1) for name, cpt in order_cpt}
    cards = {name: net.card(name) for name in net.names}

    latent = set(spec.latent)
    columns = tuple(v.name for v in net.variables if v.name not in latent)
    mcar = [(name, rate) for name, rate in spec.mcar.items() if rate > 0.0]

    inject = spec.injector_covariate if spec.injector_strength != 0.0 else None
    if inject is not None and cards[inject] != 2:
        raise ValueError("injector covariate must be binary")
    score_cache: dict[tuple[tuple[str, int], ...], float] = {}
    pos_idx = net.state_index(spec.outcome, spec.positive_state)

    rows: list[tuple[str | None, ...]] = []
    for rid in range(spec.n):
        rng = np.random.default_rng((spec.seed, rid, 0))
        values: dict[str, int] = {}
        for name, cpt in order_cpt:
            cfg = 0
            for p in cpt.parents:
                cfg = cfg * cards[p] + values[p]
            u = rng.random()
            values[name] = int(np.searchsorted(cum[name][cfg], u, side="right"))

        if inject is not None:
            pattern = _score_pattern(spec, values)
            score = score_cache.get(pattern)
            if score is None:
                score = posterior(net, spec.outcome, dict(pattern))[pos_idx]
                score_cache[pattern] = score
            # imbalance grows with distance from the threshold, flat inside
            # the offset; near-threshold records stay balanced
            dist = abs(score - spec.reference_threshold)
            lean = spec.injector_strength * max(0.0, dist - spec.injector_offset)
            p_pos = min(0.99, max(0.01, 0.5 + lean))
            rng_inj = np.random.default_rng((spec.seed, rid, 1))
            values[inject] = int(rng_inj.random() < p_pos)

        if mcar:
            rng_mask = np.random.default_rng((spec.seed, rid, 2))
            masked = {name for name, rate in mcar if rng_mask.random() < rate}
        else:
            masked = ()

        row = []
        for name in columns:
            if name in masked:
                row.append(None)
            else:
                row.append(net.var(name).states[values[name]])
        rows.append(tuple(row))

    return Cohort(columns=columns, rows=rows)


# ---------------------------------------------------------------------------
# ground-truth oracle
# ---------------------------------------------------------------------------

def true_interventional(
    net: DiscreteNetwork,
    outcome: str,
    intervention: tuple[str, int],
    outcome_state: int | None = None,
) -> float:
    """P(outcome = state | do(X = x)) by truncated-factorization enumeration.

    Sums the product of every CPT except X's over all assignments consistent
    with X = x. Independent of X's own CPT by construction, and of the
    elimination engine entirely. Networks above 20 nodes are refused
    (TooLargeForEnumeration).
    """
    x_name, x_state = intervention
    y_var = net.var(outcome)
    x_var = net.var(x_name)
    if not 0 <= int(x_state) < x_var.card:
        raise UnknownState(f"variable {x_name!r} has {x_var.card} states, got {x_state}")
    if outcome == x_name:
        raise ValueError("intervention variable cannot be the outcome")
    if len(net.variables) > 20:
        raise TooLargeForEnumeration(
            f"{len(net.variables)} nodes exceeds the 20-node enumeration limit"
        )
    state = y_var.card - 1 if outcome_state is None else int(outcome_state)
    if not 0 <= state < y_var.card:
        raise UnknownState(f"variable {outcome!r} has {y_var.card} states, got {state}")

    joint = dense_joint(net, skip_cpt=x_name)
    joint = np.take(joint, int(x_state), axis=net.index(x_name))
    y_axis = net.index(outcome) - (1 if net.index(x_name) < net.index(outcome) else 0)
    axes = tuple(i for i in range(joint.ndim) if i != y_axis)
    marg = joint.sum(axis=axes) if axes else joint
    return float(marg[state])
