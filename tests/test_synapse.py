"""State-machine tests for the metaplastic synapse chain."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metasyn.network import BehavioralNetwork, Model, NetworkConfig
from metasyn.synapse import (
    Efficacy,
    MetaState,
    UpdateDirection,
    efficacy_of,
    gradient_step,
    stochastic_gate,
    transition,
    transition_arrays,
)

POT = UpdateDirection.POTENTIATE
DEP = UpdateDirection.DEPRESS


def S(eff: Efficacy, lvl: int, n: int = 3) -> MetaState:
    return MetaState(eff, lvl, n)


# ---- worked single-step examples -------------------------------------------


@pytest.mark.parametrize(
    "state, direction, expected",
    [
        (S(Efficacy.LOW, 0), POT, S(Efficacy.HIGH, 0)),
        (S(Efficacy.LOW, 2), POT, S(Efficacy.LOW, 1)),
        (S(Efficacy.HIGH, 0), POT, S(Efficacy.HIGH, 1)),
        (S(Efficacy.HIGH, 2), POT, S(Efficacy.HIGH, 2)),
        (S(Efficacy.HIGH, 0), DEP, S(Efficacy.LOW, 0)),
        (S(Efficacy.HIGH, 2), DEP, S(Efficacy.HIGH, 1)),
        (S(Efficacy.LOW, 0), DEP, S(Efficacy.LOW, 1)),
        (S(Efficacy.LOW, 2), DEP, S(Efficacy.LOW, 2)),
    ],
)
def test_single_steps(state, direction, expected):
    assert transition(state, direction) == expected


def test_efficacy_of_ignores_metalevel():
    assert efficacy_of(S(Efficacy.HIGH, 2)) == 1
    assert efficacy_of(S(Efficacy.LOW, 0)) == 0
    assert efficacy_of(S(Efficacy.LOW, 1)) == 0


def test_metalevel_bounds_enforced():
    with pytest.raises(ValueError):
        MetaState(Efficacy.LOW, 3, 3)
    with pytest.raises(ValueError):
        MetaState(Efficacy.HIGH, -1, 3)
    with pytest.raises(ValueError):
        MetaState(Efficacy.HIGH, 0, 0)


# ---- chain properties --------------------------------------------------------

states_and_dirs = st.tuples(
    st.integers(min_value=1, max_value=6),
    st.sampled_from([Efficacy.LOW, Efficacy.HIGH]),
    st.integers(min_value=0, max_value=5),
    st.sampled_from([POT, DEP]),
).filter(lambda t: t[2] < t[0])


@given(states_and_dirs)
def test_closure(case):
    n, eff, lvl, d = case
    out = transition(S(eff, lvl, n), d)
    assert 0 <= out.metalevel <= n - 1
    assert out.n_levels == n


@given(states_and_dirs)
def test_efficacy_changes_only_at_metalevel_zero(case):
    n, eff, lvl, d = case
    s = S(eff, lvl, n)
    out = transition(s, d)
    if out.efficacy is not s.efficacy:
        assert s.metalevel == 0


@given(states_and_dirs)
def test_repeated_updates_saturate(case):
    n, eff, lvl, d = case
    s = S(eff, lvl, n)
    for _ in range(2 * n + 1):
        s = transition(s, d)
    target = Efficacy.HIGH if d is POT else Efficacy.LOW
    assert s == S(target, n - 1, n)


def test_reversible_at_metalevel_zero():
    s = S(Efficacy.LOW, 0)
    assert transition(transition(s, POT), DEP) == s


@pytest.mark.parametrize("eff", [Efficacy.LOW, Efficacy.HIGH])
def test_single_level_chain_is_binary(eff):
    s = MetaState(eff, 0, 1)
    assert transition(s, POT) == MetaState(Efficacy.HIGH, 0, 1)
    assert transition(s, DEP) == MetaState(Efficacy.LOW, 0, 1)


# ---- stochastic gate ---------------------------------------------------------


def test_q_one_never_touches_rng():
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    select = np.ones(100, dtype=bool)
    assert stochastic_gate(select, 1.0, rng) is select
    assert rng.bit_generator.state == before


def test_gate_rate_matches_q():
    q = 0.3
    trials = 10_000
    rng = np.random.default_rng(11)
    fired = int(stochastic_gate(np.ones(trials, dtype=bool), q, rng).sum())
    sigma = np.sqrt(trials * q * (1 - q))
    assert abs(fired - trials * q) <= 3 * sigma
    # unselected events never pass the gate
    assert not stochastic_gate(np.zeros(trials, dtype=bool), q, rng).any()


def test_gated_transition_leaves_state():
    # q tiny: the gate drops the event, so the chain step selects nothing
    eff = np.zeros(1, dtype=np.int8)
    lvl = np.zeros(1, dtype=np.int8)
    sel = stochastic_gate(np.ones(1, dtype=bool), 1e-12, np.random.default_rng(0))
    transition_arrays(eff, lvl, 3, POT, sel)
    assert (int(eff[0]), int(lvl[0])) == (0, 0)


def test_policy_rejects_bad_q():
    # q lives on the network config, which owns the run's gate stream
    with pytest.raises(ValueError):
        NetworkConfig(q=0.0)
    with pytest.raises(ValueError):
        NetworkConfig(q=1.5)


# ---- vectorised twin ---------------------------------------------------------


@settings(max_examples=50)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=30),
    st.sampled_from([POT, DEP]),
    st.randoms(use_true_random=False),
)
def test_transition_arrays_matches_scalar(n, count, d, rnd):
    eff = np.array([rnd.randint(0, 1) for _ in range(count)], dtype=np.int8)
    lvl = np.array([rnd.randint(0, n - 1) for _ in range(count)], dtype=np.int64)
    sel = np.array([rnd.random() < 0.7 for _ in range(count)])
    expected = []
    for e, l, m in zip(eff, lvl, sel):
        s = MetaState(Efficacy(int(e)), int(l), n)
        out = transition(s, d) if m else s
        expected.append((int(out.efficacy), out.metalevel))
    transition_arrays(eff, lvl, n, d, sel)
    assert [(int(e), int(l)) for e, l in zip(eff, lvl)] == expected


# ---- gradient-descent baseline ------------------------------------------------


def test_gd_step_examples():
    w = np.array([0.5, 0.5, 0.95, 0.05])
    gradient_step(w, POT, np.array([True, False, True, False]), 0.1)
    assert w[0] == pytest.approx(0.6)
    assert w[1] == 0.5
    assert w[2] == 1.0
    gradient_step(w, DEP, np.array([False, False, False, True]), 0.1)
    assert w[3] == 0.0


def test_gd_binarization_strict():
    cfg = NetworkConfig(n_in=2, n_out=1, connectivity=1.0, activity=0.5, model=Model.GRADIENT)
    net = BehavioralNetwork.initialize(cfg)
    net.weights[:, 0] = [0.5, 0.500001]
    assert net.efficacy_matrix()[:, 0].tolist() == [0.0, 1.0]
