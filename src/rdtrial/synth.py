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

:func:`sample_cohort` gives record ``rid`` its own random streams,
``np.random.default_rng((seed, rid, stream))``: stream 0 for node values,
stream 1 for the covariate-imbalance injector, stream 2 for MCAR masking. A
record's cells therefore depend only on the spec and its id, never on n.
:func:`_record_uniforms` reproduces those generators (SeedSequence, then
PCG64) for every record at once, bit for bit.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .cohort import Cohort, unique_rows
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
        for key in ("n", "seed"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{key} must be an integer, got {value!r}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.n > 1 << 32:  # record ids are single 32-bit seed words
            raise ValueError(f"n must be <= 2**32, got {self.n}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not isinstance(self.mcar, Mapping):
            raise ValueError(f"mcar must map variable names to rates, got {self.mcar!r}")
        object.__setattr__(self, "mcar", dict(self.mcar))
        for name, rate in self.mcar.items():
            self.network.var(name)
            _check_finite(f"mcar rate for {name!r}", rate)
            if not 0 <= rate < 1:
                raise ValueError(f"mcar rate for {name!r} must be in [0, 1), got {rate}")


def _check_finite(what: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{what} must be a finite number, got {value!r}")


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
    covariate imbalance. bias and the injector settings must be finite numbers.
    """
    for key, value in (("bias", bias), ("injector_strength", injector_strength),
                       ("injector_offset", injector_offset)):
        _check_finite(key, value)
    bias = float(bias)
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
        mcar={} if mcar is None else mcar,
        injector_covariate="marker@0",
        injector_strength=float(injector_strength),
        injector_offset=float(injector_offset),
        reference_threshold=float(reference_threshold),
        certificate=certificate,
    )


# ---------------------------------------------------------------------------
# per-record random streams
# ---------------------------------------------------------------------------

# SeedSequence's pool size and hash constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF
_LO32 = np.uint64(_MASK32)
_U1, _U11, _U32, _U58, _U63, _U64 = (np.uint64(k) for k in (1, 11, 32, 58, 63, 64))
# PCG64's 128-bit LCG multiplier as (high, low) uint64 limbs, and the two
# 32-bit halves of the low limb
_MULT_HI, _MULT_LO = np.uint64(2549297995355413924), np.uint64(4865540595714422341)
_MULT_LO_HALVES = (_MULT_LO & _LO32, _MULT_LO >> _U32)
_BLOCK = 1 << 15  # records per pass, so the limb arrays stay in cache


def _words32(x: int) -> list[np.ndarray]:
    """Little-endian 32-bit words of x >= 0 (0 is one zero word), each a
    length-1 uint32 array: how SeedSequence reads an int."""
    words = [x & _MASK32]
    while x := x >> 32:
        words.append(x & _MASK32)
    return [np.array([w], dtype=np.uint32) for w in words]


def _hasher(const: int, mult: int):
    """SeedSequence's ``hashmix`` on uint32 arrays, with its running
    constant: xor it in, advance it by ``mult``, multiply, fold the high half."""
    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> _XSHIFT)
    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_MULT_L * x - _MIX_MULT_R * y
    return r ^ (r >> _XSHIFT)


def _seed_states(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """``SeedSequence(entropy).generate_state(4, np.uint64)`` row-wise, for
    entropy words given as broadcasting uint32 arrays."""
    hashmix = _hasher(_INIT_A, _MULT_A)
    zero = np.zeros(1, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)
    halves = [hashmix(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(2 * _POOL_SIZE)]
    return [lo | (hi << _U32) for lo, hi in zip(halves[::2], halves[1::2])]


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """PCG64's state * multiplier + inc (mod 2**128) on (high, low) uint64
    limbs. uint64 products keep only their low 64 bits, so the high limb of
    lo times the multiplier's low limb is built from 32-bit halves."""
    b0, b1 = _MULT_LO_HALVES
    a0, a1 = lo & _LO32, lo >> _U32
    low = a0 * b0
    mid = a1 * b0 + (low >> _U32)
    cross = (mid & _LO32) + a0 * b1
    carry = a1 * b1 + (mid >> _U32) + (cross >> _U32)
    prod_lo = lo * _MULT_LO
    out_lo = prod_lo + inc_lo
    out_hi = carry + lo * _MULT_HI + hi * _MULT_LO + inc_hi + (out_lo < prod_lo)
    return out_hi, out_lo


def _record_uniforms(seed: int, rids: np.ndarray, stream: int, k: int) -> np.ndarray:
    """(len(rids), k) uniforms whose row i is, bit for bit,
    ``np.random.default_rng((seed, rids[i], stream)).random(k)``.

    That generator is PCG64 seeded through SeedSequence from the 32-bit words
    of seed, record id and stream. Both are integer hashes and recurrences, so
    they run here for a block of records at once: the SeedSequence pool,
    ``pcg_setseq_128_srandom_r``'s seeding, then k XSL-RR outputs, each
    ``(x >> 11) * 2**-53``. Record ids must lie in [0, 2**32), so each is one
    entropy word.
    """
    seed, stream = operator.index(seed), operator.index(stream)
    if seed < 0 or stream < 0:
        raise ValueError(f"seed and stream must be >= 0, got {seed} and {stream}")
    rids = np.asarray(rids, dtype=np.int64)
    if rids.size and not (0 <= rids.min() and rids.max() <= _MASK32):
        raise ValueError("record ids must lie in [0, 2**32)")
    out = np.empty((k, len(rids))).T  # column j holds every record's j-th draw
    head, tail = _words32(seed), _words32(stream)
    for start in range(0, len(rids), _BLOCK):
        block = rids[start:start + _BLOCK]
        s_hi, s_lo, q_hi, q_lo = _seed_states([*head, block.astype(np.uint32), *tail])
        inc_hi = (q_hi << _U1) | (q_lo >> _U63)
        inc_lo = (q_lo << _U1) | _U1
        # step from state 0 (leaves inc), add the seed state, step again
        lo = inc_lo + s_lo
        hi = inc_hi + s_hi + (lo < s_lo)
        hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
        for j in range(k):
            hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
            rot = hi >> _U58
            x = hi ^ lo
            x = (x >> rot) | (x << ((_U64 - rot) & _U63))
            out[start:start + len(block), j] = (x >> _U11) * 2.0 ** -53
    return out


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _score_names(spec: ScenarioSpec) -> list[str]:
    """Evidence the injector's score reads, sorted by name: exported nodes at
    slices before the outcome, plus the non-outcome nodes of its slice."""
    t_out = slice_rank(spec.outcome)
    latent = set(spec.latent)
    return sorted(
        name for name in spec.network.names
        if name not in latent and name != spec.outcome and slice_rank(name) <= t_out
    )


def sample_cohort(spec: ScenarioSpec) -> Cohort:
    """Ancestral sampling from per-record random streams.

    Record ``rid`` draws only from ``np.random.default_rng((seed, rid,
    stream))``, so any subset of records can be regenerated independently and
    the cohort is byte-identical for a fixed spec. The streams:

    * stream 0, node values: one uniform per node in topological order. The
      node takes the state that ``searchsorted(side="right")`` gives for that
      uniform in its CPT row's cumulative sums, clamped to the last state (a
      row may sum to 1 - ``ROW_SUM_TOL``).
    * stream 1, the injector: when ``injector_strength`` is nonzero, one
      uniform re-draws the injector covariate with a probability that leans
      with the record's distance from the reference threshold.
    * stream 2, MCAR: one uniform per ``mcar`` entry with a positive rate, in
      the mapping's order; below the rate, the cell is missing.

    :func:`_record_uniforms` draws a stream for every record at once, and
    each node is sampled for the whole column. Latent variables are sampled
    (they drive their children) but never exported. The cohort holds the
    state codes, with each variable's states as its column's labels.
    """
    net = spec.network
    n = spec.n
    rids = np.arange(n, dtype=np.int64)
    topo = net.topological_order()
    inject = spec.injector_covariate if spec.injector_strength != 0.0 else None
    if inject is not None and net.card(inject) != 2:
        raise ValueError("injector covariate must be binary")

    u = _record_uniforms(spec.seed, rids, 0, len(topo))
    codes: dict[str, np.ndarray] = {}
    for j, name in enumerate(topo):
        cpt = net.cpts[name]
        cfg = 0
        for p in cpt.parents:
            cfg = cfg * net.card(p) + codes[p]
        cum = np.cumsum(cpt.rows, axis=1)
        # count the cumulative sums <= u; leaving out the last one clamps a
        # uniform at or above it to the last state
        state = np.zeros(n, dtype=np.intp)
        for c in range(cum.shape[1] - 1):
            state += cum[cfg, c] <= u[:, j]
        codes[name] = state
    del u

    if inject is not None:
        names = _score_names(spec)
        pattern_codes = np.array([codes[name] for name in names], dtype=np.intp)
        patterns, which = unique_rows(pattern_codes.reshape(len(names), n).T)
        pos_idx = net.state_index(spec.outcome, spec.positive_state)
        scores = np.array([
            posterior(net, spec.outcome, dict(zip(names, map(int, row))))[pos_idx]
            for row in patterns
        ])
        # imbalance grows with distance from the threshold, flat inside the
        # offset; near-threshold records stay balanced
        dist = np.abs(scores - spec.reference_threshold)
        lean = spec.injector_strength * np.maximum(0.0, dist - spec.injector_offset)
        p_pos = np.minimum(0.99, np.maximum(0.01, 0.5 + lean))
        u_inj = _record_uniforms(spec.seed, rids, 1, 1)[:, 0]
        codes[inject] = (u_inj < p_pos[which]).astype(np.intp)

    mcar = [(name, rate) for name, rate in spec.mcar.items() if rate > 0.0]
    if mcar:
        u_mask = _record_uniforms(spec.seed, rids, 2, len(mcar))
        for j, (name, rate) in enumerate(mcar):
            codes[name] = np.where(u_mask[:, j] < rate, -1, codes[name])

    exported = [var for var in net.variables if var.name not in spec.latent]
    table = np.array([codes.pop(var.name) for var in exported], dtype=np.intp)
    return Cohort(
        columns=tuple(var.name for var in exported),
        codes=table.reshape(len(exported), n).T,
        labels=tuple(var.states for var in exported),
    )


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
