"""Crossbar emulation tests: current summation, comparator references,
programming protection, and the exact reduction to the behavioral model."""

import numpy as np
import pytest

from metasyn.crossbar import (
    ComparatorConfig,
    ComparatorMode,
    Crossbar,
    ProgramEvent,
    init_crossbar,
    reference_current_level,
    run_lifetime_hw,
)
from metasyn.device import (
    DeviceParams,
    NoiseModel,
    calibrate_metastate_table,
    conductance,
)
from metasyn.network import Model, NetworkConfig, make_pattern_set, run_lifetime
from metasyn.synapse import Efficacy, MetaState, UpdateDirection, transition

SMALL = NetworkConfig(n_in=5, n_out=3, connectivity=0.6, activity=0.5, seed=9)


@pytest.fixture(scope="module")
def xb_small() -> Crossbar:
    return init_crossbar(SMALL, noise=NoiseModel.off())


# ---- read path -----------------------------------------------------------------


def test_column_currents_match_brute_force(xb_small):
    xb = xb_small
    g = conductance(xb.x, xb.params)
    rng = np.random.default_rng(3)
    for _ in range(20):
        inp = (rng.random(5) < 0.5).astype(np.uint8)
        expected = [
            xb.v_read * sum(float(g[i, j]) for i in range(5) if inp[i])
            for j in range(3)
        ]
        np.testing.assert_allclose(xb.column_currents(inp), expected, rtol=1e-12)


def test_pruned_crosspoint_leaks_off_conductance(xb_small):
    """One active pruned device adds exactly v_read * G_off (30 nA here)."""
    xb = xb_small
    pruned = np.argwhere(~xb.mask)
    assert pruned.size > 0
    i, j = pruned[0]
    inp = np.zeros(5, dtype=np.uint8)
    inp[i] = 1
    expected = xb.v_read * xb.params.g_off
    assert expected == pytest.approx(30e-9)
    assert float(xb.column_currents(inp)[j]) == pytest.approx(expected, rel=1e-12)


def test_inactive_rows_contribute_exactly_zero(xb_small):
    xb = xb_small
    base = xb.column_currents(np.zeros(5, dtype=np.uint8))
    assert np.all(base == 0.0)


def test_adding_active_rows_never_decreases_current(xb_small):
    xb = xb_small
    inp = np.zeros(5, dtype=np.uint8)
    prev = xb.column_currents(inp)
    for i in range(5):
        inp[i] = 1
        cur = xb.column_currents(inp)
        assert np.all(cur >= prev)
        prev = cur


# ---- comparator ------------------------------------------------------------------


def test_fixed_reference_is_calibrated_level(xb_small):
    xb = xb_small
    level = reference_current_level(xb.table, xb.params, xb.cfg, xb.v_read)
    assert xb.i_ref == pytest.approx(level, rel=1e-12)
    assert np.all(xb.references() == xb.i_ref)


def test_comparator_config_validation():
    assert ComparatorConfig(mode="fixed_reference").mode == ComparatorMode.FIXED_REFERENCE
    with pytest.raises(ValueError):
        ComparatorConfig(mode="column_tracking")


# ---- initialization mirrors the behavioral network ---------------------------------


def test_initial_state_mirrors_behavioral():
    from metasyn.network import BehavioralNetwork

    cfg = NetworkConfig(n_in=16, n_out=16, seed=4)
    xb = init_crossbar(cfg, noise=NoiseModel.off())
    net = BehavioralNetwork.initialize(cfg)
    assert np.array_equal(xb.mask, net.mask)
    n = xb.table.n_levels
    x_low = xb.table.x_for(MetaState(Efficacy.LOW, 0, n))
    x_high = xb.table.x_for(MetaState(Efficacy.HIGH, 0, n))
    expect_x = np.zeros_like(xb.x)
    expect_x[net.mask] = np.where(net.eff[net.mask] == 1, x_high, x_low)
    assert np.array_equal(xb.x, expect_x)


def test_pruned_devices_start_at_zero(xb_small):
    assert np.all(xb_small.x[~xb_small.mask] == 0.0)


def test_gradient_model_rejected():
    with pytest.raises(ValueError):
        init_crossbar(NetworkConfig(model=Model.GRADIENT))


# ---- programming protection ---------------------------------------------------------


def test_training_never_touches_pruned_or_inactive():
    cfg = NetworkConfig(n_in=16, n_out=16, seed=8)
    xb = init_crossbar(cfg, noise=NoiseModel.off())
    pats = make_pattern_set(cfg, 10)
    for pat in pats:
        before = xb.x.copy()
        xb.train_two_phase(pat)
        inactive = ~pat.input_bits.astype(bool)
        assert np.array_equal(xb.x[inactive, :], before[inactive, :])
        assert np.all(xb.x[~xb.mask] == 0.0)


def test_event_log_matches_state_machine():
    cfg = NetworkConfig(n_in=16, n_out=16, seed=8)
    xb = init_crossbar(cfg, noise=NoiseModel.off())
    pats = make_pattern_set(cfg, 5)
    events: list[ProgramEvent] = []
    for step, pat in enumerate(pats):
        xb.train_two_phase(pat, log=events, step=step)
    assert events, "training produced no programming events"
    for ev in events:
        d = (
            UpdateDirection.POTENTIATE
            if ev.phase == "potentiate"
            else UpdateDirection.DEPRESS
        )
        assert ev.meta_after == transition(ev.meta_before, d)


def test_hardware_run_deterministic():
    cfg = NetworkConfig(n_in=32, n_out=32, seed=6)
    a = run_lifetime_hw(cfg, n_patterns=15)
    b = run_lifetime_hw(cfg, n_patterns=15)
    assert np.array_equal(a.learning, b.learning)
    assert np.array_equal(a.mean, b.mean)


# ---- reductions -----------------------------------------------------------------------


@pytest.mark.parametrize(
    "n, c, f, q",
    [
        (32, 0.25, 0.25, 1.0),
        (16, 0.25, 0.25, 1.0),  # theta = 0.5
        (24, 0.25, 0.25, 1.0),  # theta = 0.75
        (128, 0.1, 0.25, 1.0),  # theta = 1.6
        (32, 0.25, 0.25, 0.5),  # the q gate, drawn from the same stream
    ],
)
def test_ideal_reduction_equals_behavioral_exactly(n, c, f, q):
    cfg = NetworkConfig(n_in=n, n_out=n, connectivity=c, activity=f, q=q, seed=5)
    hw = run_lifetime_hw(
        cfg,
        n_patterns=40,
        params=DeviceParams.idealized(),
        comparator=ComparatorConfig(mode=ComparatorMode.FIXED_REFERENCE),
        noise=NoiseModel.off(),
    )
    sw = run_lifetime(cfg, n_patterns=40)
    assert np.array_equal(hw.learning, sw.learning)
    assert np.array_equal(hw.mean, sw.mean)


def test_read_voltage_must_stay_subthreshold():
    with pytest.raises(ValueError):
        init_crossbar(SMALL, v_read=1.5)


# ---- leakage ----------------------------------------------------------------------


def test_leakage_grows_with_connectivity_at_fixed_states():
    """With every connected device parked at the low-efficacy plateau, the
    total non-signal current drawn by a dense input grows strictly with
    connectivity: each extra connected-low device conducts far more than
    the pruned crosspoint it replaces."""
    leaks = []
    for c in (0.4, 0.5, 0.6):
        cfg = NetworkConfig(
            n_in=40, n_out=40, connectivity=c, activity=0.8, seed=7
        )
        xb = init_crossbar(cfg, noise=NoiseModel.off())
        low = xb.table.x_for(MetaState(Efficacy.LOW, 0, cfg.n_levels))
        xb.x[xb.mask] = low
        inp = np.zeros(40, dtype=np.uint8)
        inp[:32] = 1
        leaks.append(float(xb.column_currents(inp).sum()))
    assert leaks[0] < leaks[1] < leaks[2]
