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
    chain_index,
    chain_state,
    gradient_step,
    stochastic_gate,
    transition,
    transition_arrays,
)

POT = UpdateDirection.POTENTIATE
DEP = UpdateDirection.DEPRESS


def S(eff: Efficacy, lvl: int, n: int = 3) -> MetaState:
    return MetaState(eff, lvl, n)


# The 2n-state chain written out by hand for n = 1, 2 and 3: one event moves
# (efficacy, metalevel) to (efficacy, metalevel).  transition is an n = 1 view
# of transition_arrays, so this table is the reference both are checked against.
CHAIN_TABLE = {
    1: {
        POT: {("L", 0): ("H", 0), ("H", 0): ("H", 0)},
        DEP: {("L", 0): ("L", 0), ("H", 0): ("L", 0)},
    },
    2: {
        POT: {("L", 1): ("L", 0), ("L", 0): ("H", 0), ("H", 0): ("H", 1), ("H", 1): ("H", 1)},
        DEP: {("L", 1): ("L", 1), ("L", 0): ("L", 1), ("H", 0): ("L", 0), ("H", 1): ("H", 0)},
    },
    3: {
        POT: {
            ("L", 2): ("L", 1), ("L", 1): ("L", 0), ("L", 0): ("H", 0),
            ("H", 0): ("H", 1), ("H", 1): ("H", 2), ("H", 2): ("H", 2),
        },
        DEP: {
            ("L", 2): ("L", 2), ("L", 1): ("L", 2), ("L", 0): ("L", 1),
            ("H", 0): ("L", 0), ("H", 1): ("H", 0), ("H", 2): ("H", 1),
        },
    },
}


# The ends and the flip of the widest chain whose indices fit int64, where a
# step taken before its clip would wrap the top index 2**63 - 1.
WIDE = 2**62
CHAIN_ENDS = {
    WIDE: {
        POT: {("L", WIDE - 1): ("L", WIDE - 2), ("L", 0): ("H", 0), ("H", WIDE - 1): ("H", WIDE - 1)},
        DEP: {("L", WIDE - 1): ("L", WIDE - 1), ("H", 0): ("L", 0), ("H", WIDE - 1): ("H", WIDE - 2)},
    },
}


def from_table(entry: tuple[str, int], n: int) -> MetaState:
    return MetaState(Efficacy.HIGH if entry[0] == "H" else Efficacy.LOW, entry[1], n)


def table_step(state: MetaState, direction: UpdateDirection) -> MetaState:
    """The reference step: one lookup in CHAIN_TABLE."""
    key = ("H" if state.efficacy else "L", state.metalevel)
    return from_table(CHAIN_TABLE[state.n_levels][direction][key], state.n_levels)


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


@pytest.mark.parametrize("n", [*sorted(CHAIN_TABLE), *CHAIN_ENDS])
@pytest.mark.parametrize("direction", [POT, DEP])
def test_transition_matches_the_chain_table(n, direction):
    """Both the scalar and the vector rule step every listed state as the
    table says, the widest chain's ends included."""
    table = {**CHAIN_TABLE, **CHAIN_ENDS}[n][direction]
    assert n in CHAIN_ENDS or len(table) == 2 * n
    befores = [from_table(before, n) for before in table]
    afters = [from_table(after, n) for after in table.values()]
    assert [transition(s, direction) for s in befores] == afters
    state = np.array([chain_index(s) for s in befores], dtype=np.int64)
    transition_arrays(state, n, direction, np.ones(state.size, dtype=bool))
    assert [chain_state(int(i), n) for i in state] == afters


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
    state = np.array([chain_index(S(Efficacy.LOW, 0))])
    sel = stochastic_gate(np.ones(1, dtype=bool), 1e-12, np.random.default_rng(0))
    transition_arrays(state, 3, POT, sel)
    assert chain_state(int(state[0]), 3) == S(Efficacy.LOW, 0)


def test_policy_rejects_bad_q():
    # q lives on the network config, which owns the run's gate stream
    with pytest.raises(ValueError):
        NetworkConfig(q=0.0)
    with pytest.raises(ValueError):
        NetworkConfig(q=1.5)


# ---- vectorised twin ---------------------------------------------------------


@settings(max_examples=50)
@given(
    st.sampled_from(sorted(CHAIN_TABLE)),
    st.integers(min_value=1, max_value=30),
    st.sampled_from([POT, DEP]),
    st.randoms(use_true_random=False),
)
def test_transition_arrays_matches_scalar(n, count, d, rnd):
    """The vector rule against the hand-written chain table, of which the
    scalar transition is the n = 1 view."""
    states = [
        MetaState(Efficacy(rnd.randint(0, 1)), rnd.randint(0, n - 1), n) for _ in range(count)
    ]
    sel = np.array([rnd.random() < 0.7 for _ in range(count)])
    expected = [table_step(s, d) if m else s for s, m in zip(states, sel)]
    state = np.array([chain_index(s) for s in states], dtype=np.int64)
    transition_arrays(state, n, d, sel)
    assert [chain_state(int(i), n) for i in state] == expected


@pytest.mark.parametrize("n", [1, 2, 3, 129, 1000])
def test_chain_index_round_trip(n):
    """chain_index orders the chain from the deepest low state (0) to the
    deepest high state (2n - 1); high efficacy is exactly index >= n."""
    states = [chain_state(i, n) for i in range(2 * n)]
    assert states[0] == MetaState(Efficacy.LOW, n - 1, n)
    assert states[-1] == MetaState(Efficacy.HIGH, n - 1, n)
    for i, s in enumerate(states):
        assert chain_index(s) == i
        assert s.efficacy is (Efficacy.HIGH if i >= n else Efficacy.LOW)
    # neighbours on the chain are one event apart: by the hand-written table
    # where there is one, and by transition on the long chains
    step = table_step if n in CHAIN_TABLE else transition
    for lo, hi in zip(states, states[1:]):
        assert step(lo, POT) == hi and step(hi, DEP) == lo


def test_transition_at_the_widest_chain():
    """n_levels = 2**62, the widest NetworkConfig accepts: both chain ends
    saturate and the middle crosses, with no integer wrap-around."""
    n = 2**62
    deep_high, deep_low = S(Efficacy.HIGH, n - 1, n), S(Efficacy.LOW, n - 1, n)
    assert transition(deep_high, POT) == deep_high
    assert transition(deep_low, DEP) == deep_low
    assert transition(deep_high, DEP) == S(Efficacy.HIGH, n - 2, n)
    assert transition(S(Efficacy.LOW, 0, n), POT) == S(Efficacy.HIGH, 0, n)


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
