"""Behavioral network tests: patterns, inference, training, lifetime runs."""

from dataclasses import replace

import numpy as np
import pytest

from metasyn import network
from metasyn.network import (
    BehavioralNetwork,
    Model,
    NetworkConfig,
    Pattern,
    correct_pattern,
    generate_patterns,
    lifetime_loop,
    make_pattern_set,
    run_lifetime,
    seed_streams,
)
from metasyn.synapse import Efficacy, UpdateDirection


# ---- configuration -------------------------------------------------------------


def test_theta_formula():
    cfg = NetworkConfig()
    assert cfg.theta == 128 * 0.25 * 0.25 / 2
    assert cfg.theta == 4.0


def test_config_validation():
    with pytest.raises(ValueError):
        NetworkConfig(connectivity=0.0)
    with pytest.raises(ValueError):
        NetworkConfig(connectivity=1.5)
    with pytest.raises(ValueError):
        NetworkConfig(activity=1.0)
    with pytest.raises(ValueError):
        NetworkConfig(n_in=4, activity=0.01)  # rounds to zero active bits
    with pytest.raises(ValueError, match="target patterns"):
        NetworkConfig(n_out=1, activity=0.3)  # no active target bit
    with pytest.raises(ValueError):
        NetworkConfig(q=0.0)


def test_chain_longer_than_int8_runs():
    """n_levels = 64 puts chain index 2n - 1 = 127 at the top of int8.  In
    20 patterns no synapse moves more than 20 steps from metalevel 0, so
    the chain end is never reached and the trace equals a 30-level chain's.
    One level more does not fit, and is rejected by name."""
    cfg = NetworkConfig(n_in=32, n_out=32, n_levels=64, seed=3)
    a = run_lifetime(cfg, n_patterns=20)
    b = run_lifetime(replace(cfg, n_levels=30), n_patterns=20)
    assert a.learning.tobytes() == b.learning.tobytes()
    assert a.mean.tobytes() == b.mean.tobytes()
    with pytest.raises(ValueError, match=r"n_levels must lie in \[1, 64\].*int8"):
        NetworkConfig(n_levels=65)


@pytest.mark.parametrize(
    "field", ["n_in", "n_out", "n_levels", "seed", "updates_per_pattern"]
)
@pytest.mark.parametrize("value", [3.5, 4.0, True])
def test_integer_fields_reject_non_integers(field, value):
    """A fractional n_levels once ran as a lopsided 7-state chain, and the
    other counts failed deep inside numpy; each is now rejected by name."""
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        NetworkConfig(**{field: value})
    assert getattr(NetworkConfig(**{field: np.int64(4)}), field) == 4


def test_chain_indices_saturate_at_the_int8_ends():
    """At the widest chain the top index is 127, the int8 maximum: 130
    potentiations leave every connected synapse there, none wrapped
    negative, and 130 depressions leave each at 0."""
    net = BehavioralNetwork.initialize(NetworkConfig(n_in=16, n_out=16, n_levels=64))
    assert net.state.dtype == np.int8
    pruned = net.state[~net.mask].copy()
    for direction, end in ((UpdateDirection.POTENTIATE, 127), (UpdateDirection.DEPRESS, 0)):
        for _ in range(130):
            net._step([(direction, [net.mask])])
        assert np.all(net.state[net.mask] == end)
        assert np.array_equal(net.state[~net.mask], pruned)


def test_effective_levels():
    assert NetworkConfig(model=Model.BINARY, n_levels=3).effective_levels == 1
    assert NetworkConfig(model=Model.MULTISTATE, n_levels=3).effective_levels == 3


# ---- pattern generation ----------------------------------------------------------


def test_exact_population_counts():
    pats = generate_patterns(128, 0.25, 50, seed=0)
    assert pats.shape == (50, 128)
    assert np.all(pats.sum(axis=1) == 32)


def test_all_ones_when_activity_rounds_to_n():
    pats = generate_patterns(8, 0.99, 3, seed=1)
    assert np.all(pats.sum(axis=1) == 8)


def test_pattern_determinism():
    a = generate_patterns(64, 0.25, 10, seed=42)
    b = generate_patterns(64, 0.25, 10, seed=42)
    assert np.array_equal(a, b)
    c = generate_patterns(64, 0.25, 10, seed=43)
    assert not np.array_equal(a, c)


def test_pattern_set_targets_use_output_width():
    cfg = NetworkConfig(n_in=64, n_out=32, activity=0.25)
    pats = make_pattern_set(cfg, 7)
    assert len(pats) == 7
    for p in pats:
        assert p.input_bits.size == 64 and p.input_bits.sum() == 16
        assert p.target_bits.size == 32 and p.target_bits.sum() == 8


# ---- initialization ---------------------------------------------------------------


def test_connected_count_exact():
    net = BehavioralNetwork.initialize(NetworkConfig())
    assert int(net.mask.sum()) == 4096


def test_initial_metalevels_zero():
    # chain indices n - 1 and n are (low, 0) and (high, 0)
    net = BehavioralNetwork.initialize(NetworkConfig(seed=5))
    n = net.cfg.n_levels
    assert np.all(np.isin(net.state[net.mask], (n - 1, n)))


def test_initial_efficacy_balanced_within_3_sigma():
    # Binomial(4096, 1/2): 3 sigma = 96
    for seed in range(5):
        net = BehavioralNetwork.initialize(NetworkConfig(seed=seed))
        highs = int((net.state[net.mask] >= net.cfg.n_levels).sum())
        assert abs(highs - 2048) <= 96


def test_unconnected_entries_stay_zero_weight():
    net = BehavioralNetwork.initialize(NetworkConfig(seed=2))
    eff = net.efficacy_matrix()
    assert np.all(eff[~net.mask] == 0)


# ---- forward pass -----------------------------------------------------------------


def test_forward_threshold_strict():
    cfg = NetworkConfig()
    net = BehavioralNetwork.initialize(cfg)
    # construct a column with exactly 5 active high synapses, another with 4
    low0, high0 = cfg.n_levels - 1, cfg.n_levels
    net.mask[:] = False
    net.state[:] = low0
    x = np.zeros(128, dtype=np.uint8)
    x[:8] = 1
    net.mask[:5, 0] = True
    net.state[:5, 0] = high0
    net.mask[:4, 1] = True
    net.state[:4, 1] = high0
    out = net.forward_batch(x[None])[0]
    assert out[0] == 1  # 5 > theta = 4
    assert out[1] == 0  # 4 > 4 is false
    assert np.all(out[2:] == 0)


def test_all_zero_input_gives_all_zero_output():
    net = BehavioralNetwork.initialize(NetworkConfig(seed=3))
    out = net.forward_batch(np.zeros((1, 128), dtype=np.uint8))[0]
    assert np.all(out == 0)


def test_forward_matches_brute_force_small():
    cfg = NetworkConfig(n_in=5, n_out=3, connectivity=0.6, activity=0.5, seed=9)
    net = BehavioralNetwork.initialize(cfg)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = (rng.random(5) < 0.5).astype(np.uint8)
        expected = []
        for j in range(3):
            acc = sum(
                int(x[i]) * int(net.mask[i, j]) * int(net.state[i, j] >= cfg.n_levels)
                for i in range(5)
            )
            expected.append(1 if acc > cfg.theta else 0)
        assert list(net.forward_batch(x[None])[0]) == expected


@pytest.mark.parametrize("model", list(Model))
def test_forward_batch_equals_dense_product(model):
    """forward_batch reads only rows with a set bit; on bit batches, all-zero
    rows and an empty batch included, it equals the dense product."""
    cfg = NetworkConfig(n_in=40, n_out=24, connectivity=0.5, model=model, seed=2)
    net = BehavioralNetwork.initialize(cfg)
    bits = (np.random.default_rng(0).random((30, cfg.n_in)) < 0.3).astype(np.uint8)
    bits[::7] = 0
    bits[:, 5] = 0
    for batch in (bits, bits[:0], np.zeros((3, cfg.n_in), dtype=np.uint8)):
        dense = (batch.astype(np.float64) @ net.efficacy_matrix() > cfg.theta).astype(np.uint8)
        out = net.forward_batch(batch)
        assert out.dtype == dense.dtype and out.shape == dense.shape
        assert out.tobytes() == dense.tobytes()


@pytest.mark.parametrize("model", list(Model))
def test_training_read_equals_forward_batch(model):
    """train_on_pattern reads its one pattern as per-column counts of high
    synapses on the active rows; on random states that is forward_batch's
    read, including a column at exactly theta (which does not fire) and an
    all-zero input."""
    cfg = NetworkConfig(n_in=16, n_out=12, connectivity=0.5, activity=0.5, model=model, seed=4)
    assert cfg.theta == 2.0
    net = BehavioralNetwork.initialize(cfg)
    rng = np.random.default_rng(1)
    x = np.zeros(cfg.n_in, dtype=np.uint8)
    x[:8] = 1
    for _ in range(20):
        if model is Model.GRADIENT:
            net.weights[:] = rng.uniform(0.0, 1.0, net.weights.shape)
            net.weights[:, 0] = 0.0
            net.weights[:2, 0] = 1.0  # two high synapses on active rows: theta exactly
        else:
            n = cfg.effective_levels
            net.state[:] = rng.integers(0, 2 * n, net.state.shape)
            net.state[:, 0] = n - 1
            net.state[:2, 0] = n
        bits = (rng.random((4, cfg.n_in)) < 0.5).astype(np.uint8)
        bits[0] = 0
        bits[1] = x
        for row in bits:
            fired = net.fires(np.flatnonzero(row))
            assert fired.astype(np.uint8).tobytes() == net.forward_batch(row[None])[0].tobytes()
        assert not net.fires(np.flatnonzero(x))[0]


# ---- training ----------------------------------------------------------------------


def _tiny_net() -> tuple[NetworkConfig, BehavioralNetwork]:
    cfg = NetworkConfig(n_in=8, n_out=4, connectivity=1.0, activity=0.5, seed=1)
    net = BehavioralNetwork.initialize(cfg)
    return cfg, net


def test_zero_error_leaves_network_unchanged():
    cfg, net = _tiny_net()
    x = np.zeros(8, dtype=np.uint8)
    x[:4] = 1
    y = net.forward_batch(x[None])[0]
    state = net.state.copy()
    net.train_on_pattern(Pattern(input_bits=x, target_bits=y))
    assert np.array_equal(state, net.state)


def test_lockstep_run_stops_without_drawing_once_correct():
    """In a lockstep group, a run whose outputs match gets no selection and
    draws no q gate, while the run beside it keeps correcting; each round
    hands both phases to the step rule in one call."""
    cfg = NetworkConfig(
        n_in=8, n_out=4, connectivity=1.0, activity=0.5, seed=1, q=0.5, updates_per_pattern=3
    )
    done, busy = BehavioralNetwork.initialize(cfg), BehavioralNetwork.initialize(cfg)
    x = np.zeros(8, dtype=np.uint8)
    x[:4] = 1
    y = done.forward_batch(x[None])[0]
    state = done.train_rng.bit_generator.state
    seen = []
    correct_pattern(
        [done, busy],
        lambda k, rows: (done, busy)[k].forward_batch(rows),
        seen.append,
        [Pattern(input_bits=x, target_bits=y), Pattern(input_bits=x, target_bits=1 - y)],
    )
    # busy is never stepped, so it stays wrong for all three rounds
    assert len(seen) == cfg.updates_per_pattern
    for phases in seen:
        assert [d for d, _ in phases] == [UpdateDirection.POTENTIATE, UpdateDirection.DEPRESS]
        assert all(sel[0] is None and sel[1] is not None for _, sel in phases)
    assert done.train_rng.bit_generator.state == state


def test_positive_error_potentiates_active_rows_only():
    cfg, net = _tiny_net()
    low0, high0 = cfg.n_levels - 1, cfg.n_levels
    net.state[:] = low0
    x = np.zeros(8, dtype=np.uint8)
    x[:4] = 1
    target = np.ones(4, dtype=np.uint8)
    net.train_on_pattern(Pattern(input_bits=x, target_bits=target))
    # active presynaptic rows flipped low->high, inactive rows untouched
    assert np.all(net.state[:4, :] == high0)
    assert np.all(net.state[4:, :] == low0)


def test_negative_error_depresses():
    cfg, net = _tiny_net()
    low0, high0 = cfg.n_levels - 1, cfg.n_levels
    net.state[:] = high0
    x = np.zeros(8, dtype=np.uint8)
    x[:4] = 1
    target = np.zeros(4, dtype=np.uint8)
    net.train_on_pattern(Pattern(input_bits=x, target_bits=target))
    assert np.all(net.state[:4, :] == low0)
    assert np.all(net.state[4:, :] == high0)


def test_deep_metalevel_shields_efficacy():
    cfg, net = _tiny_net()
    n = cfg.n_levels
    net.state[:] = n + 2  # (high, 2)
    x = np.ones(8, dtype=np.uint8)
    target = np.zeros(4, dtype=np.uint8)
    net.train_on_pattern(Pattern(input_bits=x, target_bits=target))
    assert np.all(net.state >= n)
    assert np.all(net.state[net.mask] == n + 1)  # (high, 1)


# ---- lifetime bookkeeping ------------------------------------------------------------


@pytest.mark.parametrize(
    "cfg",
    [
        NetworkConfig(n_in=64, n_out=64, model=Model.BINARY, seed=1),
        NetworkConfig(n_in=64, n_out=64, n_levels=1, seed=2),
        NetworkConfig(n_in=64, n_out=64, n_levels=3, seed=3),
        NetworkConfig(n_in=64, n_out=64, n_levels=5, seed=4),
        NetworkConfig(n_in=64, n_out=64, model=Model.GRADIENT, seed=5),
        NetworkConfig(n_in=64, n_out=64, q=0.5, seed=6),
        NetworkConfig(n_in=64, n_out=64, updates_per_pattern=3, seed=7),
        NetworkConfig(n_in=48, n_out=20, connectivity=0.5, activity=0.5, seed=8),
        # theta = 28.999999999999996, which rounds to 29 in float32
        NetworkConfig(n_in=125, n_out=16, connectivity=0.8, activity=0.58, seed=9),
    ],
    ids=[
        "binary", "levels1", "levels3", "levels5", "gradient", "q0.5", "upp3", "48x20-f0.5",
        "theta-below-29",
    ],
)
def test_retention_reader_equals_fresh_forward_every_step(cfg):
    """The retention reader keeps its votes by active-row efficacy deltas;
    at every step its outputs must be those of a from-scratch read."""
    patterns = make_pattern_set(cfg, 40)
    inputs = np.stack([p.input_bits for p in patterns])
    net = BehavioralNetwork.initialize(cfg)
    read = net.retention_reader(inputs)
    for t, pat in enumerate(patterns):
        net.train_on_pattern(pat)
        fresh = net.forward_batch(inputs[: t + 1])
        out = read(0, inputs[: t + 1])
        assert out.dtype == fresh.dtype and out.shape == fresh.shape
        assert out.tobytes() == fresh.tobytes(), f"step {t}"
    net = BehavioralNetwork.initialize(cfg)
    scratch = lifetime_loop(
        lambda t, pats: net.train_on_pattern(pats[0]),
        lambda k, rows: net.forward_batch(rows),
        [patterns],
    )[0]
    trace = run_lifetime(cfg, n_patterns=40)
    assert trace.learning.tobytes() == scratch.learning.tobytes()
    assert trace.mean.tobytes() == scratch.mean.tobytes()


@pytest.mark.parametrize("n_patterns", [0, -1])
def test_run_lifetime_rejects_no_patterns(n_patterns):
    with pytest.raises(ValueError, match="n_patterns"):
        run_lifetime(NetworkConfig(n_in=16, n_out=16), n_patterns=n_patterns)


def test_trace_lengths_and_ranges():
    trace = run_lifetime(NetworkConfig(n_in=32, n_out=32, seed=0), n_patterns=30)
    assert trace.learning.shape == (30,)
    assert trace.mean.shape == (30,)
    assert np.all((trace.learning >= 0) & (trace.learning <= 1))
    assert np.all((trace.mean >= 0) & (trace.mean <= 1))


def test_lifetime_deterministic():
    cfg = NetworkConfig(n_in=32, n_out=32, seed=12)
    a = run_lifetime(cfg, n_patterns=25)
    b = run_lifetime(cfg, n_patterns=25)
    assert np.array_equal(a.learning, b.learning)
    assert np.array_equal(a.mean, b.mean)


def test_binary_equals_single_level_multistate():
    for seed in (0, 1, 2):
        cfg_b = NetworkConfig(model=Model.BINARY, seed=seed)
        cfg_m = NetworkConfig(model=Model.MULTISTATE, n_levels=1, seed=seed)
        tb = run_lifetime(cfg_b, n_patterns=40)
        tm = run_lifetime(cfg_m, n_patterns=40)
        assert np.array_equal(tb.learning, tm.learning)
        assert np.array_equal(tb.mean, tm.mean)


def test_seed_streams_are_stable_and_distinct():
    streams = seed_streams(7)
    assert set(streams) == {"patterns", "init", "train", "noise"}
    again = seed_streams(7)
    for key in streams:
        a = np.random.default_rng(streams[key]).integers(0, 2**31, 4)
        b = np.random.default_rng(again[key]).integers(0, 2**31, 4)
        assert np.array_equal(a, b)


def test_q_gate_changes_dynamics_deterministically():
    for model in (Model.MULTISTATE, Model.GRADIENT):
        cfg1 = NetworkConfig(n_in=32, n_out=32, seed=4, q=0.5, model=model)
        cfg2 = NetworkConfig(n_in=32, n_out=32, seed=4, q=1.0, model=model)
        a = run_lifetime(cfg1, n_patterns=20)
        b = run_lifetime(cfg1, n_patterns=20)
        c = run_lifetime(cfg2, n_patterns=20)
        assert np.array_equal(a.learning, b.learning)
        assert not np.array_equal(a.learning, c.learning)


def test_gradient_model_runs():
    trace = run_lifetime(
        NetworkConfig(n_in=32, n_out=32, seed=0, model=Model.GRADIENT), n_patterns=20
    )
    assert trace.learning.shape == (20,)


# ---- structural invariants -----------------------------------------------------------


def test_connected_set_fixed_and_unconnected_untouched_by_training():
    cfg = NetworkConfig(n_in=16, n_out=8, connectivity=0.5, activity=0.5, seed=4)
    net = BehavioralNetwork.initialize(cfg)
    mask0 = net.mask.copy()
    state_off = net.state[~mask0].copy()
    for pat in make_pattern_set(cfg, 25):
        net.train_on_pattern(pat)
    assert np.array_equal(net.mask, mask0)
    assert np.array_equal(net.state[~mask0], state_off)


def test_efficacy_flips_only_at_metalevel_zero():
    # instrumented run: every observed flip must come from a depth-0 synapse
    cfg = NetworkConfig(n_in=32, n_out=32, seed=11)
    net = BehavioralNetwork.initialize(cfg)
    n = cfg.n_levels
    flips = 0
    for pat in make_pattern_set(cfg, 40):
        state0 = net.state.copy()
        net.train_on_pattern(pat)
        flipped = (net.state >= n) != (state0 >= n)
        flips += int(flipped.sum())
        # metalevel 0 is chain index n - 1 (low) or n (high)
        assert np.all(np.isin(state0[flipped], (n - 1, n)))
    assert flips > 0


def test_multistate_retains_longer_than_binary_every_seed():
    from metasyn.experiments import threshold_crossing

    for seed in range(10):
        tb = run_lifetime(NetworkConfig(model=Model.BINARY, seed=seed), 100)
        tm = run_lifetime(NetworkConfig(model=Model.MULTISTATE, seed=seed), 100)
        cb = threshold_crossing(tb, 0.75)
        cm = threshold_crossing(tm, 0.75)
        assert cb is not None and cm is not None
        assert cm > cb


@pytest.mark.parametrize("model", list(Model))
def test_pruned_synapses_never_move_over_a_lifetime_run(model):
    """Every selection of the correction step is masked, so a pruned
    synapse keeps its starting chain index (weight 0 for the gradient
    model) through a gated, two-round lifetime run, and the reads, which
    leave the mask out, see it low."""
    cfg = NetworkConfig(
        n_in=32, n_out=24, connectivity=0.5, model=model, q=0.5, updates_per_pattern=2, seed=6
    )
    net = BehavioralNetwork.initialize(cfg)
    values = net.weights if model is Model.GRADIENT else net.state
    pruned = ~net.mask
    start = values[pruned].copy()
    assert np.all(start == (0.0 if model is Model.GRADIENT else cfg.effective_levels - 1))
    moved = []

    def train(t, pats):
        before = values.copy()
        net.train_on_pattern(pats[0])
        moved.append(bool(np.any(values != before)))
        assert values[pruned].tobytes() == start.tobytes(), f"step {t}"

    patterns = make_pattern_set(cfg, 60)
    lifetime_loop(train, net.retention_reader(np.stack([p.input_bits for p in patterns])), [patterns])
    assert sum(moved) > 30  # connected synapses did move
    assert np.all(net.efficacy_matrix()[pruned] == 0.0)


# ---- accuracy bookkeeping --------------------------------------------------------------


def mean_reference(cfg: NetworkConfig, n_patterns: int) -> tuple[np.ndarray, np.ndarray]:
    """A lifetime run read densely through the mask at every step, with the
    accuracy of the two np.mean calls."""
    patterns = make_pattern_set(cfg, n_patterns)
    inputs = np.stack([p.input_bits for p in patterns]).astype(np.float64)
    targets = np.stack([p.target_bits for p in patterns])
    net = BehavioralNetwork.initialize(cfg)
    learning, mean = np.empty(n_patterns), np.empty(n_patterns)
    for t, pat in enumerate(patterns):
        net.train_on_pattern(pat)
        efficacy = np.where(net.mask, net.efficacy_matrix(), 0.0)
        outputs = (inputs[: t + 1] @ efficacy > cfg.theta).astype(np.uint8)
        acc = (outputs == targets[: t + 1]).mean(axis=1)
        learning[t], mean[t] = acc[t], acc.mean()
    return learning, mean


@pytest.mark.parametrize("model", list(Model))
@pytest.mark.parametrize("n_out", [100, 45])
def test_accuracy_from_counts_equals_the_mean_formula(model, n_out):
    """Counts divided by n_out, summed and divided by t + 1 give the bits of
    the two np.mean calls at output widths that are not powers of two."""
    cfg = NetworkConfig(n_in=48, n_out=n_out, connectivity=0.5, model=model, seed=2)
    learning, mean = mean_reference(cfg, 80)
    trace = run_lifetime(cfg, n_patterns=80)
    assert trace.learning.tobytes() == learning.tobytes()
    assert trace.mean.tobytes() == mean.tobytes()


# ---- pattern sets ---------------------------------------------------------------------

MEMO_KEYS = [
    (NetworkConfig(n_in=20, n_out=12, seed=5), 9),
    (NetworkConfig(n_in=21, n_out=12, seed=5), 9),
    (NetworkConfig(n_in=20, n_out=13, seed=5), 9),
    (NetworkConfig(n_in=20, n_out=12, activity=0.5, seed=5), 9),
    (NetworkConfig(n_in=20, n_out=12, seed=6), 9),
    (NetworkConfig(n_in=20, n_out=12, seed=5), 10),
]


def cold_pattern_bytes(cfg: NetworkConfig, count: int) -> tuple[bytes, bytes]:
    """The pattern set's bytes as derived before any memo existed."""
    in_ss, tgt_ss = seed_streams(cfg.seed)["patterns"].spawn(2)
    return (
        generate_patterns(cfg.n_in, cfg.activity, count, in_ss).tobytes(),
        generate_patterns(cfg.n_out, cfg.activity, count, tgt_ss).tobytes(),
    )


def pattern_bytes(patterns: list[Pattern]) -> tuple[bytes, bytes]:
    return (
        np.stack([p.input_bits for p in patterns]).tobytes(),
        np.stack([p.target_bits for p in patterns]).tobytes(),
    )


def test_a_pattern_set_is_generated_once_per_key(monkeypatch):
    """Every model on one seed shares one set: one generate_patterns pair
    per key, and each call returns a fresh list of read-only rows."""
    calls = []

    def counted(*args):
        calls.append(args)
        return generate_patterns(*args)

    network._pattern_arrays.cache_clear()
    monkeypatch.setattr(network, "generate_patterns", counted)
    cfg, count = MEMO_KEYS[0]
    first = make_pattern_set(cfg, count)
    again = make_pattern_set(replace(cfg, model=Model.BINARY, q=0.5, n_levels=5), count)
    assert len(calls) == 2
    assert again is not first and pattern_bytes(again) == pattern_bytes(first)
    for pat in first:
        assert not pat.input_bits.flags.writeable and not pat.target_bits.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        first[0].input_bits[0] = 1 - first[0].input_bits[0]
    make_pattern_set(*MEMO_KEYS[1])
    assert len(calls) == 4


def test_each_memo_key_gives_its_cold_pattern_set():
    """Sets of keys that differ in one field each are held together and
    each equals the set generated without the memo."""
    network._pattern_arrays.cache_clear()
    held = [make_pattern_set(cfg, count) for cfg, count in MEMO_KEYS]
    assert len({pattern_bytes(p) for p in held}) == len(MEMO_KEYS)
    for (cfg, count), patterns in zip(MEMO_KEYS, held):
        assert len(patterns) == count
        assert pattern_bytes(patterns) == cold_pattern_bytes(cfg, count)
        assert pattern_bytes(make_pattern_set(cfg, count)) == cold_pattern_bytes(cfg, count)
