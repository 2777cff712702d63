"""Synthetic generator: exact-gap designs, certificates, cohort sampling."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdtrial import synth
from rdtrial.cohort import encode_columns, write_cohort_csv
from rdtrial.errors import TooLargeForEnumeration
from rdtrial.inference import do_posterior, posterior
from rdtrial.model import Cpt, DiscreteNetwork, VariableDef, has_directed_path, validate_network
from rdtrial.synth import (
    ScenarioSpec,
    _record_uniforms,
    make_confounded_scenario,
    sample_cohort,
    solve_gap,
    true_interventional,
)

from helpers import (
    chain_network,
    confounded_triple,
    panel_network,
    random_network,
    reference_sample_cohort,
)


# ---------------------------------------------------------------------------
# gap designs
# ---------------------------------------------------------------------------

def test_solve_gap_hits_every_branch_exactly():
    for bias in (0.0, 0.05, 0.12, 0.16, 0.2, 0.3, 0.44, 0.45, 0.6, 0.8, 0.9):
        d = solve_gap(bias)
        gap = d.observational(1) - d.interventional(1)
        assert gap == pytest.approx(bias, abs=1e-12), f"bias {bias}"
        for p in (d.pz1, *d.x1_given_z, *d.y1_given_x1_z, *d.y1_given_x0_z):
            assert 0.0 < p < 1.0


def test_solve_gap_canonical_parameters():
    d = solve_gap(0.12)
    assert d.x1_given_z == (0.2, 0.8)
    assert d.y1_given_x1_z == (0.3, 0.7)
    assert d.observational(1) == pytest.approx(0.62, abs=1e-15)
    assert d.interventional(1) == pytest.approx(0.50, abs=1e-15)


def test_solve_gap_zero_bias_decouples_treatment():
    d = solve_gap(0.0)
    assert d.x1_given_z[0] == d.x1_given_z[1]
    net = confounded_triple(bias=0.0)
    x1 = net.state_index("x", "1")
    obs = posterior(net, "y", {"x": x1}).probs
    act = do_posterior(net, "y", ("x", x1)).probs
    np.testing.assert_allclose(obs, act, atol=1e-12)


def test_solve_gap_rejects_out_of_range():
    with pytest.raises(ValueError):
        solve_gap(-0.1)
    with pytest.raises(ValueError):
        solve_gap(1.0)


def test_confounded_triple_reference_network():
    net = confounded_triple()
    assert validate_network(net).ok
    assert net.names == ("z", "x", "y")
    x1, y1 = net.state_index("x", "1"), net.state_index("y", "1")
    assert posterior(net, "y", {"x": x1})[y1] == pytest.approx(0.62, abs=1e-12)
    assert do_posterior(net, "y", ("x", x1))[y1] == pytest.approx(0.50, abs=1e-12)


# ---------------------------------------------------------------------------
# truncated-factorization oracle
# ---------------------------------------------------------------------------

def test_true_interventional_matches_do_posterior():
    rng = np.random.default_rng(23)
    for _ in range(10):
        net = random_network(rng, max_nodes=8)
        x = net.names[int(rng.integers(0, len(net.names)))]
        targets = [n for n in net.names if n != x]
        y = targets[int(rng.integers(0, len(targets)))]
        x_state = int(rng.integers(0, net.card(x)))
        fast = do_posterior(net, y, (x, x_state))
        for y_state in range(net.card(y)):
            slow = true_interventional(net, y, (x, x_state), outcome_state=y_state)
            assert fast[y_state] == pytest.approx(slow, abs=1e-9)


def test_true_interventional_ignores_treatment_cpt():
    # the truncated factorization drops P(x | parents): replacing it with an
    # arbitrary row must not move the answer at all
    net = confounded_triple()
    x1, y1 = net.state_index("x", "1"), net.state_index("y", "1")
    base = true_interventional(net, "y", ("x", x1), outcome_state=y1)
    cpts = dict(net.cpts)
    cpts["x"] = Cpt("x", ("z",), np.array([[0.99, 0.01], [0.37, 0.63]]))
    warped = DiscreteNetwork(net.variables, net.arcs, cpts, net.outcomes)
    assert true_interventional(warped, "y", ("x", x1), outcome_state=y1) == base


def test_true_interventional_default_outcome_state():
    net = confounded_triple()
    x1, y1 = net.state_index("x", "1"), net.state_index("y", "1")
    # default reports the last (positive) state
    assert true_interventional(net, "y", ("x", x1)) == true_interventional(
        net, "y", ("x", x1), outcome_state=y1
    )


def test_true_interventional_node_cap():
    variables = [VariableDef(name=f"n{i}", states=("0", "1")) for i in range(21)]
    cpts = {v.name: Cpt(v.name, (), np.array([[0.5, 0.5]])) for v in variables}
    net = DiscreteNetwork(variables, [], cpts)
    with pytest.raises(TooLargeForEnumeration):
        true_interventional(net, "n0", ("n1", 0))


# ---------------------------------------------------------------------------
# scenario construction
# ---------------------------------------------------------------------------

def test_scenario_certificate_recomputes_through_the_oracle():
    for bias in (0.0, 0.12, 0.3, 0.6):
        spec = make_confounded_scenario(bias=bias, n=10)
        net = spec.network
        y1 = net.state_index(spec.outcome, spec.positive_state)
        for state_label, want in spec.certificate["interventional"].items():
            x_state = net.state_index(spec.treatment, state_label)
            got = true_interventional(net, spec.outcome, (spec.treatment, x_state), y1)
            assert got == pytest.approx(want, abs=1e-9), f"bias {bias}, {state_label}"
        for state_label, want in spec.certificate["observational"].items():
            x_state = net.state_index(spec.treatment, state_label)
            got = posterior(net, spec.outcome, {spec.treatment: x_state})[y1]
            assert got == pytest.approx(want, abs=1e-9)


def test_scenario_shape():
    spec = make_confounded_scenario(n=100)
    net = spec.network
    assert validate_network(net).ok
    assert net.outcomes == {1: spec.outcome}
    assert spec.latent == ("conf@0",)
    assert not has_directed_path(net, "noise@0", spec.outcome)
    for cov in spec.covariates:
        assert cov != spec.treatment
    assert spec.reference_threshold == pytest.approx(0.43, abs=1e-12)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_cohort_hides_latent_columns():
    spec = make_confounded_scenario(n=50)
    cohort = sample_cohort(spec)
    assert "conf@0" not in cohort.columns
    assert set(spec.covariates) <= set(cohort.columns)
    assert spec.outcome in cohort.columns
    assert len(cohort) == 50


def test_sample_cohort_deterministic_bytes(tmp_path):
    spec = make_confounded_scenario(n=400, seed=11)
    a, b = sample_cohort(spec), sample_cohort(spec)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_cohort_csv(a, pa)
    write_cohort_csv(b, pb)
    assert pa.read_bytes() == pb.read_bytes()
    assert sample_cohort(make_confounded_scenario(n=400, seed=12)).rows != a.rows


def test_sample_cohort_per_record_streams():
    # the first 200 records of a 400-record draw are byte-identical to a
    # 200-record draw: per-record seeding, not a shared stream
    big = sample_cohort(make_confounded_scenario(n=400, seed=3))
    small = sample_cohort(make_confounded_scenario(n=200, seed=3))
    assert big.rows[:200] == small.rows


def test_sample_cohort_empirical_frequencies():
    spec = make_confounded_scenario(bias=0.12, n=60_000, seed=5)
    cohort = sample_cohort(spec)
    treat, out, marker = encode_columns(
        spec.network, cohort, [spec.treatment, spec.outcome, "marker@0"]).T
    p_obs_yes = float((out[treat == 1] == 1).mean())
    p_obs_no = float((out[treat == 0] == 1).mean())
    assert p_obs_yes == pytest.approx(0.62, abs=0.012)
    assert p_obs_no == pytest.approx(0.24, abs=0.012)
    # root covariate matches its prior
    assert float((marker == 1).mean()) == pytest.approx(0.5, abs=0.012)


def test_sample_cohort_mcar_rates():
    spec = make_confounded_scenario(n=20_000, seed=2, mcar={"cov_a@0": 0.2})
    cohort = sample_cohort(spec)
    col = cohort.column("cov_a@0")
    rate = sum(1 for c in col if c is None) / len(col)
    assert rate == pytest.approx(0.2, abs=0.015)
    # other columns untouched
    assert all(c is not None for c in cohort.column("treat@0"))


def test_injector_biases_only_the_marker():
    base = make_confounded_scenario(n=4000, seed=9)
    tilted = make_confounded_scenario(n=4000, seed=9, injector_strength=8.0,
                                      injector_offset=0.1)
    a, b = sample_cohort(base), sample_cohort(tilted)
    cols = [c for c in a.columns if c != "marker@0"]
    for col in cols:
        assert a.column(col) == b.column(col)
    assert a.column("marker@0") != b.column("marker@0")
    # far-from-threshold records lean positive under the tilt
    enc = encode_columns(tilted.network, b, ["marker@0"])
    assert float((enc == 1).mean()) > 0.6


def test_scenario_rejects_negative_or_fractional_seed_and_n():
    net = confounded_triple()
    base = dict(network=net, n=10, seed=0, treatment="x", outcome="y",
                positive_state="1", covariates=("z",))
    for key, value, message in [
        ("seed", -1, "seed must be >= 0"),
        ("seed", 1.5, "seed must be an integer"),
        ("n", 2.7, "n must be an integer"),
        ("n", True, "n must be an integer"),
        ("n", 0, "n must be >= 1"),
        ("n", 2**32 + 1, "n must be <= 2"),
    ]:
        with pytest.raises(ValueError, match=message):
            ScenarioSpec(**{**base, key: value})
    ScenarioSpec(**{**base, "seed": np.int64(3), "n": np.int64(2)})


# ---------------------------------------------------------------------------
# bulk streams against the per-record generators
# ---------------------------------------------------------------------------

_EDGE_RIDS = st.sampled_from([0, 1, 2**16, 2**31 - 1, 2**32 - 1])


@settings(max_examples=200, deadline=None)
@given(
    seed=st.one_of(st.integers(0, 2**70), st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1])),
    rids=st.lists(st.one_of(_EDGE_RIDS, st.integers(0, 2**32 - 1)), min_size=1, max_size=6),
    stream=st.integers(0, 2),
    k=st.integers(1, 20),
)
def test_record_uniforms_match_default_rng(seed, rids, stream, k):
    got = _record_uniforms(seed, np.array(rids), stream, k)
    want = np.array([np.random.default_rng((seed, rid, stream)).random(k) for rid in rids])
    assert got.shape == (len(rids), k)
    assert np.array_equal(got, want)


def test_record_uniforms_across_blocks():
    rids = np.arange(2 * synth._BLOCK + 5)
    got = _record_uniforms(9, rids, 1, 3)
    for rid in (0, synth._BLOCK - 1, synth._BLOCK, 2 * synth._BLOCK, len(rids) - 1):
        assert np.array_equal(got[rid], np.random.default_rng((9, rid, 1)).random(3))


def test_record_uniforms_rejects_ids_outside_one_word():
    for rids in ([2**32], [-1]):
        with pytest.raises(ValueError, match="record ids"):
            _record_uniforms(0, np.array(rids), 0, 1)
    with pytest.raises(ValueError, match="seed"):
        _record_uniforms(-1, np.arange(3), 0, 1)


def _csv_bytes(cohort, directory) -> bytes:
    path = directory / "cohort.csv"
    write_cohort_csv(cohort, path)
    return path.read_bytes()


@settings(max_examples=25, deadline=None)
@given(
    bias=st.sampled_from([0.0, 0.12, 0.3, 0.6]),
    n=st.integers(1, 250),
    seed=st.integers(0, 2**40),
    strength=st.sampled_from([0.0, -3.0, 2.5, 8.0]),
    offset=st.sampled_from([0.0, 0.05, 0.1]),
    rates=st.lists(st.sampled_from([0.0, 0.1, 0.5]), min_size=4, max_size=4),
)
def test_sample_cohort_matches_reference_loop(tmp_path_factory, bias, n, seed, strength,
                                               offset, rates):
    names = ("cov_a@0", "marker@0", "outcome@1", "conf@0")  # a latent entry too
    spec = make_confounded_scenario(
        bias=bias, n=n, seed=seed, injector_strength=strength, injector_offset=offset,
        mcar=dict(zip(names, rates)),
    )
    d = tmp_path_factory.mktemp("csv")
    assert _csv_bytes(sample_cohort(spec), d) == _csv_bytes(reference_sample_cohort(spec), d)


@settings(max_examples=15, deadline=None)
@given(
    net_seed=st.integers(0, 2**16),
    n=st.integers(1, 200),
    seed=st.integers(0, 2**40),
    strength=st.sampled_from([0.0, 4.0]),
)
def test_sample_cohort_matches_reference_loop_unrolled(tmp_path_factory, net_seed, n, seed,
                                                        strength):
    spec = ScenarioSpec(
        network=panel_network(np.random.default_rng(net_seed)),
        n=n,
        seed=seed,
        treatment="drug@0",
        outcome="out@2",
        positive_state="yes",
        covariates=("sex", "age@entry"),
        latent=("lab@1",),
        mcar={"lab@0": 0.2, "drug@3": 0.1, "age@entry": 0.3},
        injector_covariate="sex",
        injector_strength=strength,
        injector_offset=0.05,
    )
    d = tmp_path_factory.mktemp("csv")
    assert _csv_bytes(sample_cohort(spec), d) == _csv_bytes(reference_sample_cohort(spec), d)


def test_sample_cohort_clamps_a_uniform_past_the_last_cumulative_sum(monkeypatch):
    # a row may sum to 1 - ROW_SUM_TOL; searchsorted then returns card for a
    # uniform above the last cumulative sum, and the last state is meant
    short = 0.5 - 5e-10
    net = DiscreteNetwork(
        [VariableDef("a", ("0", "1", "2"))], [],
        {"a": Cpt("a", (), np.array([[0.25, 0.25, short]]))},
    )
    assert validate_network(net).ok
    draws = np.array([0.0, 0.25, 0.5, 0.9999999998, 1.0 - 2.0 ** -53])
    monkeypatch.setattr(synth, "_record_uniforms",
                        lambda seed, rids, stream, k: draws[:len(rids), None])
    spec = ScenarioSpec(network=net, n=len(draws), seed=0, treatment="a", outcome="a",
                        positive_state="1", covariates=())
    assert sample_cohort(spec).column("a") == ["0", "1", "2", "2", "2"]
