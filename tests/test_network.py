"""Behavioral network tests: patterns, inference, training, lifetime runs."""

import numpy as np
import pytest

from metasyn.network import (
    BehavioralNetwork,
    Model,
    NetworkConfig,
    Pattern,
    generate_patterns,
    make_pattern_set,
    run_lifetime,
    seed_streams,
)
from metasyn.synapse import Efficacy


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
    with pytest.raises(ValueError):
        NetworkConfig(q=0.0)


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
    net = BehavioralNetwork.initialize(NetworkConfig(seed=5))
    assert np.all(net.lvl[net.mask] == 0)


def test_initial_efficacy_balanced_within_3_sigma():
    # Binomial(4096, 1/2): 3 sigma = 96
    for seed in range(5):
        net = BehavioralNetwork.initialize(NetworkConfig(seed=seed))
        highs = int(net.eff[net.mask].sum())
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
    net.mask[:] = False
    net.eff[:] = 0
    x = np.zeros(128, dtype=np.uint8)
    x[:8] = 1
    net.mask[:5, 0] = True
    net.eff[:5, 0] = 1
    net.mask[:4, 1] = True
    net.eff[:4, 1] = 1
    out = net.forward(x)
    assert out[0] == 1  # 5 > theta = 4
    assert out[1] == 0  # 4 > 4 is false
    assert np.all(out[2:] == 0)


def test_all_zero_input_gives_all_zero_output():
    net = BehavioralNetwork.initialize(NetworkConfig(seed=3))
    out = net.forward(np.zeros(128, dtype=np.uint8))
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
                int(x[i]) * int(net.mask[i, j]) * int(net.eff[i, j])
                for i in range(5)
            )
            expected.append(1 if acc > cfg.theta else 0)
        assert list(net.forward(x)) == expected


# ---- training ----------------------------------------------------------------------


def _tiny_net() -> tuple[NetworkConfig, BehavioralNetwork]:
    cfg = NetworkConfig(n_in=8, n_out=4, connectivity=1.0, activity=0.5, seed=1)
    net = BehavioralNetwork.initialize(cfg)
    return cfg, net


def test_zero_error_leaves_network_unchanged():
    cfg, net = _tiny_net()
    x = np.zeros(8, dtype=np.uint8)
    x[:4] = 1
    y = net.forward(x)
    eff, lvl = net.eff.copy(), net.lvl.copy()
    net.train_on_pattern(Pattern(input_bits=x, target_bits=y))
    assert np.array_equal(eff, net.eff) and np.array_equal(lvl, net.lvl)


def test_positive_error_potentiates_active_rows_only():
    cfg, net = _tiny_net()
    net.eff[:] = 0
    net.lvl[:] = 0
    x = np.zeros(8, dtype=np.uint8)
    x[:4] = 1
    target = np.ones(4, dtype=np.uint8)
    net.train_on_pattern(Pattern(input_bits=x, target_bits=target))
    # active presynaptic rows flipped low->high, inactive rows untouched
    assert np.all(net.eff[:4, :] == 1)
    assert np.all(net.eff[4:, :] == 0)


def test_negative_error_depresses():
    cfg, net = _tiny_net()
    net.eff[:] = 1
    net.lvl[:] = 0
    x = np.zeros(8, dtype=np.uint8)
    x[:4] = 1
    target = np.zeros(4, dtype=np.uint8)
    net.train_on_pattern(Pattern(input_bits=x, target_bits=target))
    assert np.all(net.eff[:4, :] == 0)
    assert np.all(net.eff[4:, :] == 1)


def test_deep_metalevel_shields_efficacy():
    cfg, net = _tiny_net()
    net.eff[:] = 1
    net.lvl[:] = 2
    x = np.ones(8, dtype=np.uint8)
    target = np.zeros(4, dtype=np.uint8)
    net.train_on_pattern(Pattern(input_bits=x, target_bits=target))
    assert np.all(net.eff == 1)
    assert np.all(net.lvl[net.mask] == 1)


# ---- lifetime bookkeeping ------------------------------------------------------------


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
    eff_off = net.eff[~mask0].copy()
    lvl_off = net.lvl[~mask0].copy()
    for pat in make_pattern_set(cfg, 25):
        net.train_on_pattern(pat)
    assert np.array_equal(net.mask, mask0)
    assert np.array_equal(net.eff[~mask0], eff_off)
    assert np.array_equal(net.lvl[~mask0], lvl_off)


def test_efficacy_flips_only_at_metalevel_zero():
    # instrumented run: every observed flip must come from a depth-0 synapse
    cfg = NetworkConfig(n_in=32, n_out=32, seed=11)
    net = BehavioralNetwork.initialize(cfg)
    flips = 0
    for pat in make_pattern_set(cfg, 40):
        eff0, lvl0 = net.eff.copy(), net.lvl.copy()
        net.train_on_pattern(pat)
        flipped = net.eff != eff0
        flips += int(flipped.sum())
        assert np.all(lvl0[flipped] == 0)
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
