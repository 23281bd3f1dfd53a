"""Crossbar emulation tests: current summation, comparator references,
programming protection, and the exact reduction to the behavioral model."""

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from metasyn import crossbar, device
from metasyn.crossbar import (
    ComparatorConfig,
    ComparatorMode,
    Crossbar,
    EventLog,
    init_crossbar,
    reference_current_level,
    run_lifetime_hw,
    train_lockstep,
)
from metasyn.device import (
    DeviceParams,
    NoiseModel,
    calibrate_metastate_table,
    conductance,
    flip_conductances,
)
from metasyn.network import (
    BehavioralNetwork,
    Model,
    NetworkConfig,
    make_pattern_set,
    run_lifetime,
    seed_streams,
)
from metasyn.synapse import Efficacy, MetaState, UpdateDirection, chain_state, transition

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
        np.testing.assert_allclose(xb.column_currents_batch(inp[None])[0], expected, rtol=1e-12)


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
    assert float(xb.column_currents_batch(inp[None])[0, j]) == pytest.approx(expected, rel=1e-12)


def test_inactive_rows_contribute_exactly_zero(xb_small):
    xb = xb_small
    base = xb.column_currents_batch(np.zeros((1, 5), dtype=np.uint8))[0]
    assert np.all(base == 0.0)


def test_adding_active_rows_never_decreases_current(xb_small):
    xb = xb_small
    inp = np.zeros(5, dtype=np.uint8)
    prev = xb.column_currents_batch(inp[None])[0]
    for i in range(5):
        inp[i] = 1
        cur = xb.column_currents_batch(inp[None])[0]
        assert np.all(cur >= prev)
        prev = cur


# ---- comparator ------------------------------------------------------------------


def test_fixed_reference_is_calibrated_level(xb_small):
    xb = xb_small
    level = reference_current_level(xb.table, xb.params, xb.cfg)
    assert xb.i_ref == pytest.approx(level, rel=1e-12)
    # every column fires exactly when its current exceeds that one level
    inputs = (np.random.default_rng(1).random((30, 5)) < 0.5).astype(np.uint8)
    fires = xb.column_currents_batch(inputs) > level
    assert np.array_equal(xb.infer_batch(inputs), fires.astype(np.uint8))


def test_comparator_config_validation():
    assert ComparatorConfig(mode="fixed_reference").mode == ComparatorMode.FIXED_REFERENCE
    with pytest.raises(ValueError):
        ComparatorConfig(mode="column_tracking")


# ---- initialization mirrors the behavioral network ---------------------------------


def test_initial_state_mirrors_behavioral():
    cfg = NetworkConfig(n_in=16, n_out=16, seed=4)
    xb = init_crossbar(cfg, noise=NoiseModel.off())
    net = BehavioralNetwork.initialize(cfg)
    assert np.array_equal(xb.mask, net.mask)
    n = xb.table.n_levels
    x_low = xb.table.x_for(MetaState(Efficacy.LOW, 0, n))
    x_high = xb.table.x_for(MetaState(Efficacy.HIGH, 0, n))
    expect_x = np.zeros_like(xb.x)
    expect_x[net.mask] = np.where(net.state[net.mask] >= n, x_high, x_low)
    assert np.array_equal(xb.x, expect_x)


def test_pruned_devices_start_at_zero(xb_small):
    assert np.all(xb_small.x[~xb_small.mask] == 0.0)


def test_gradient_model_rejected(xb_small, monkeypatch):
    """A gradient network has no crossbar twin: Crossbar rejects it (it used
    to build one with every connected device at one plateau), and
    init_crossbar rejects it before calibrating."""
    gradient = NetworkConfig(n_in=16, n_out=16, model=Model.GRADIENT)
    with pytest.raises(ValueError, match="no crossbar realization"):
        Crossbar(BehavioralNetwork.initialize(gradient), xb_small.params)

    def no_calibration(*args, **kwargs):
        raise AssertionError("calibrated for a gradient network")

    monkeypatch.setattr(crossbar, "calibrate_metastate_table", no_calibration)
    with pytest.raises(ValueError, match="no crossbar realization"):
        init_crossbar(gradient)


@pytest.mark.parametrize("model", [Model.BINARY, Model.MULTISTATE])
def test_a_crossbar_calibrates_its_own_table(model):
    """A crossbar takes the device's table for its twin's level count, even
    right after a calibration of the same device for another count, and
    every connected device sits on the plateau of its twin's chain index."""
    params = DeviceParams()
    five = calibrate_metastate_table(params, n_levels=5)
    cfg = NetworkConfig(n_in=16, n_out=16, model=model, n_levels=3, seed=4)
    net = BehavioralNetwork.initialize(cfg)
    xb = Crossbar(net, params, noise=NoiseModel.off())
    assert xb.table is calibrate_metastate_table(params, n_levels=cfg.effective_levels)
    assert xb.table is not five and xb.table.n_levels == cfg.effective_levels
    assert np.array_equal(xb.x[net.mask], xb.table.plateaus[net.state[net.mask]])
    assert np.all(xb.x[~net.mask] == 0.0)


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
    n = xb.table.n_levels
    events = EventLog()
    for step, pat in enumerate(pats):
        xb.train_two_phase(pat, log=events, step=step)
    rows = list(events.rows())
    assert rows, "training produced no programming events"
    assert len(events) == len(rows)
    for _, phase, _, _, x0, x1, i0, i1 in rows:
        d = UpdateDirection.POTENTIATE if phase == "potentiate" else UpdateDirection.DEPRESS
        assert (i0, i1) == (xb.table.decode_index(x0), xb.table.decode_index(x1))
        # checked against the scalar reference, not the vector rule
        assert chain_state(i1, n) == transition(chain_state(i0, n), d)


def test_nan_sigma_rejected_before_a_hardware_run():
    # NaN sigma used to construct and then run silently noise-free
    with pytest.raises(ValueError, match="sigma"):
        run_lifetime_hw(SMALL, n_patterns=2, noise=NoiseModel(sigma=float("nan")))


@pytest.mark.parametrize("n_patterns", [0, -1, 2.5])
def test_run_lifetime_hw_rejects_no_patterns(n_patterns, monkeypatch):
    """A bad count is rejected before any calibration."""
    calls = []

    def calibrate(*args, **kwargs):
        calls.append(args)
        return calibrate_metastate_table(*args, **kwargs)

    monkeypatch.setattr(crossbar, "calibrate_metastate_table", calibrate)
    with pytest.raises(ValueError, match="n_patterns"):
        run_lifetime_hw(SMALL, n_patterns=n_patterns)
    assert calls == []


def test_every_model_is_checked_before_the_first_group_runs(monkeypatch):
    """A gradient config anywhere in the list is rejected before the first
    lockstep group runs, not after it."""
    loops = []
    monkeypatch.setattr(crossbar, "_LOCKSTEP_STATE_BYTES", 8 * 16 * 16)
    monkeypatch.setattr(crossbar, "lifetime_loop", lambda *args: loops.append(args) or [])
    small = NetworkConfig(n_in=16, n_out=16)
    cfgs = [small, replace(small, model=Model.GRADIENT)]
    with pytest.raises(ValueError, match="no crossbar realization"):
        run_lifetime_hw(cfgs, n_patterns=2)
    assert loops == []


def test_default_noise_is_the_seeds_noise_stream():
    """A crossbar binds its unbound model to a copy on its own seed's noise
    stream: its first draws are that stream's, and the caller's model never
    draws."""
    cfg = NetworkConfig(n_in=16, n_out=16, connectivity=0.5, activity=0.5, seed=4)
    model = NoiseModel()
    xb = init_crossbar(cfg, noise=model)
    stream = np.random.default_rng(seed_streams(cfg.seed)["noise"])
    assert xb.noise.rng().standard_normal(64).tobytes() == stream.standard_normal(64).tobytes()
    assert model._rng is None and model.rng_seed is None
    default = run_lifetime_hw(cfg, n_patterns=8)
    quiet = run_lifetime_hw(cfg, n_patterns=8, noise=None)
    assert default.mean.tobytes() != quiet.mean.tobytes()


def test_noise_off_is_sigma_zero():
    """sigma = 0, NoiseModel.off() and None all give the same trace."""
    cfg = NetworkConfig(n_in=16, n_out=16, connectivity=0.5, activity=0.5, seed=4)
    traces = [
        run_lifetime_hw(cfg, n_patterns=8, noise=noise)
        for noise in (NoiseModel(sigma=0.0), NoiseModel.off(), None)
    ]
    for t in traces[1:]:
        assert t.learning.tobytes() == traces[0].learning.tobytes()
        assert t.mean.tobytes() == traces[0].mean.tobytes()


def test_lockstep_runs_equal_runs_alone():
    """Configs of different sizes, models and q in one lockstep group give
    the traces each gives alone, with one noise model for the whole group
    or the default."""
    cfgs = [
        NetworkConfig(n_in=16, n_out=16, connectivity=0.5, activity=0.5, seed=1),
        NetworkConfig(n_in=24, n_out=20, model=Model.BINARY, q=0.6, seed=2),
        NetworkConfig(n_in=16, n_out=16, updates_per_pattern=3, q=0.5, seed=3),
    ]
    noises = [{}, {"noise": NoiseModel(sigma=0.1)}, {"noise": NoiseModel.off()}, {"noise": None}]
    for kwargs in noises:
        together = run_lifetime_hw(cfgs, n_patterns=10, **kwargs)
        for k, cfg in enumerate(cfgs):
            alone = run_lifetime_hw(cfg, n_patterns=10, **kwargs)
            assert together[k].learning.tobytes() == alone.learning.tobytes()
            assert together[k].mean.tobytes() == alone.mean.tobytes()


def test_lockstep_rejects_what_it_cannot_share():
    with pytest.raises(ValueError, match="one crossbar"):
        run_lifetime_hw([SMALL, SMALL], n_patterns=2, event_log=EventLog())
    a = init_crossbar(SMALL)
    b = init_crossbar(SMALL, params=DeviceParams(g_off=2e-7))
    pat = make_pattern_set(SMALL, 1)[0]
    with pytest.raises(ValueError, match="share device params"):
        train_lockstep([a, b], [pat, pat])
    before = a.x.copy()
    for xbs, pats, counts in [
        ([a], [pat, pat], "1 crossbars and 2 patterns"),
        ([a, a], [pat], "2 crossbars and 1 patterns"),
        ([], [], "0 crossbars and 0 patterns"),
    ]:
        with pytest.raises(ValueError, match=f"one pattern per crossbar.*got {counts}"):
            train_lockstep(xbs, pats)
    assert a.x.tobytes() == before.tobytes()


def test_comparator_must_be_a_comparator_config():
    """A comparator that is not a ComparatorConfig is rejected by name, not
    replaced by the fixed reference."""
    with pytest.raises(TypeError, match="ComparatorConfig"):
        run_lifetime_hw(NetworkConfig(n_in=16, n_out=16), 3, comparator="replica-column-please")
    default = run_lifetime_hw(SMALL, 3)
    fixed = run_lifetime_hw(SMALL, 3, comparator=ComparatorConfig(ComparatorMode.FIXED_REFERENCE))
    assert default.mean.tobytes() == fixed.mean.tobytes()


# A 16x16 run takes 2,048 bytes of device state and a 24x24 run 4,608, so a
# budget of one 24x24 run fits two 16x16 runs.
GROUPED = [
    NetworkConfig(n_in=16, n_out=16, connectivity=0.5, activity=0.5, seed=1),
    NetworkConfig(n_in=16, n_out=16, model=Model.BINARY, q=0.6, seed=2),
    NetworkConfig(n_in=24, n_out=24, connectivity=0.5, activity=0.5, seed=3),
    NetworkConfig(n_in=16, n_out=16, updates_per_pattern=3, q=0.5, seed=4),
]


def test_sequence_form_builds_one_group_at_a_time(monkeypatch):
    """With the budget cut to one 24x24 run, a sequence runs as the groups
    [16, 16], [24] and [16]: one lifetime loop per group, each group's
    crossbars built only once the last group's are gone, and every trace
    the one its config gives alone."""
    alive = weakref.WeakSet()
    alive_at_build, alive_at_loop = [], []

    def build(cfg, **kwargs):
        gc.collect()
        alive_at_build.append(len(alive))
        xb = crossbar_init(cfg, **kwargs)
        alive.add(xb)
        return xb

    def loop(*args):
        alive_at_loop.append(len(alive))
        return lifetime_loop(*args)

    crossbar_init, lifetime_loop = crossbar.init_crossbar, crossbar.lifetime_loop
    monkeypatch.setattr(crossbar, "_LOCKSTEP_STATE_BYTES", 8 * 24 * 24)
    monkeypatch.setattr(crossbar, "init_crossbar", build)
    monkeypatch.setattr(crossbar, "lifetime_loop", loop)
    traces = run_lifetime_hw(GROUPED, n_patterns=8)
    assert alive_at_loop == [2, 1, 1]
    assert alive_at_build == [0, 1, 0, 0]
    monkeypatch.undo()
    for cfg, trace in zip(GROUPED, traces, strict=True):
        alone = run_lifetime_hw(cfg, n_patterns=8)
        assert trace.learning.tobytes() == alone.learning.tobytes()
        assert trace.mean.tobytes() == alone.mean.tobytes()


def test_event_log_needs_one_config_whatever_the_groups(monkeypatch):
    """Two runs each over the budget would go in groups of one, where
    train_lockstep would take the log; run_lifetime_hw rejects the log up
    front, before it builds a crossbar."""
    built = []
    monkeypatch.setattr(crossbar, "_LOCKSTEP_STATE_BYTES", 8 * 24 * 24)
    monkeypatch.setattr(crossbar, "init_crossbar", lambda *a, **k: built.append(a))
    log = EventLog()
    big = NetworkConfig(n_in=32, n_out=32)
    with pytest.raises(ValueError, match="one crossbar"):
        run_lifetime_hw([big, replace(big, seed=1)], n_patterns=2, event_log=log)
    assert built == [] and len(log) == 0


@pytest.mark.parametrize("cfgs", [SMALL, [SMALL], [SMALL, SMALL]], ids=["one", "list1", "list2"])
def test_a_noise_model_with_rng_seed_is_rejected(cfgs):
    """A hardware run draws from its own seed's noise stream; a model with
    rng_seed set would have its seed ignored, so it is rejected, for one
    config and for a list."""
    with pytest.raises(ValueError, match="rng_seed"):
        run_lifetime_hw(cfgs, n_patterns=2, noise=NoiseModel(sigma=0.1, rng_seed=7))
    with pytest.raises(ValueError, match="rng_seed"):
        init_crossbar(SMALL, noise=NoiseModel(sigma=0.0, rng_seed=7))


def test_one_noise_model_serves_many_crossbars():
    """Crossbars built one at a time from one unbound model each start their
    seed's stream from its beginning, and the caller's model never draws;
    models of every kind in one lockstep group end where they end alone."""
    cfg = NetworkConfig(n_in=16, n_out=16, connectivity=0.5, activity=0.5, seed=1)
    pats = make_pattern_set(cfg, 6)
    shared = NoiseModel(sigma=0.1)
    a, b = init_crossbar(cfg, noise=shared), init_crossbar(cfg, noise=shared)
    for pat in pats:
        train_lockstep([a, b], [pat, pat])
    assert a.x.tobytes() == b.x.tobytes()
    assert shared._rng is None

    models = [NoiseModel(sigma=0.1), NoiseModel(), NoiseModel.off(), None]
    together = [init_crossbar(cfg, noise=noise) for noise in models]
    for pat in pats:
        train_lockstep(together, [pat] * len(together))
    for xb, noise in zip(together, models, strict=True):
        alone = init_crossbar(cfg, noise=noise)
        for pat in pats:
            alone.train_two_phase(pat)
        assert xb.x.tobytes() == alone.x.tobytes()
    assert all(noise is None or noise._rng is None for noise in models)
    assert together[0].x.tobytes() == a.x.tobytes()
    assert together[0].x.tobytes() != together[-1].x.tobytes()


def test_identical_calls_give_identical_traces():
    """Two identical calls with one model give identical traces: each
    crossbar draws from a fresh copy, so the model's generator never carries
    over from one run to the next."""
    cfg = NetworkConfig(n_in=16, n_out=16, connectivity=0.5, activity=0.5, seed=4)
    m = NoiseModel(sigma=0.25)
    first, second = (run_lifetime_hw(cfg, 8, noise=m) for _ in range(2))
    assert first.learning.tobytes() == second.learning.tobytes()
    assert first.mean.tobytes() == second.mean.tobytes()
    assert m._rng is None
    quiet = run_lifetime_hw(cfg, 8, noise=None)
    assert first.mean.tobytes() != quiet.mean.tobytes()


def test_one_pulse_call_per_round_equals_one_per_phase(monkeypatch):
    """A round programs both phases with one pulse call, under the default
    held-draw budget and under a budget of 0, where the kernel itself splits
    the call into one pass per phase.  Both must give the same traces and
    event log bytes."""
    cfgs = [
        NetworkConfig(n_in=24, n_out=20, model=Model.BINARY, q=0.5, updates_per_pattern=3, seed=2),
        NetworkConfig(n_in=16, n_out=16, q=0.5, updates_per_pattern=3, seed=3),
    ]
    calls, passes, rounds = [], [], []
    pulse = crossbar.integrate_pulse
    monkeypatch.setattr(crossbar, "integrate_pulse", lambda *a: calls.append(a) or pulse(*a))
    # the kernel's own passes call it through the device module
    monkeypatch.setattr(device, "integrate_pulse", lambda *a: passes.append(a) or pulse(*a))
    correct = crossbar.correct_pattern

    def counted(runs, read, step, pats):
        def round_(phases):
            xs, n, m = [run.x.copy() for run in runs], len(calls), len(passes)
            step(phases)
            moved = any(not np.array_equal(x, run.x) for x, run in zip(xs, runs))
            rounds.append((len(calls) - n, len(passes) - m, moved))

        correct(runs, read, round_, pats)

    monkeypatch.setattr(crossbar, "correct_pattern", counted)

    def run():
        for seen in (calls, passes, rounds):
            seen.clear()
        traces = run_lifetime_hw(cfgs, n_patterns=12)
        logs = [EventLog() for _ in cfgs]
        for cfg, log in zip(cfgs, logs):
            run_lifetime_hw(cfg, n_patterns=12, event_log=log)
        assert all(n == int(moved) for n, _, moved in rounds)
        return traces, logs, len(calls), sum(m for _, m, _ in rounds)

    merged = run()
    monkeypatch.setattr(device, "_HELD_NOISE_BYTES", 0)
    split = run()
    assert merged[2] == split[2] > 0
    assert merged[3] == 0 < split[3]
    for a, b in zip(merged[0], split[0]):
        assert a.learning.tobytes() == b.learning.tobytes()
        assert a.mean.tobytes() == b.mean.tobytes()
    for a, b in zip(merged[1], split[1]):
        assert len(a) > 0 and len(a.blocks) == len(b.blocks)
        for block_a, block_b in zip(a.blocks, b.blocks):
            assert block_a[:2] == block_b[:2]
            for col_a, col_b in zip(block_a[2:], block_b[2:]):
                assert col_a.dtype == col_b.dtype and col_a.tobytes() == col_b.tobytes()


def test_noise_drawn_ahead_leaves_lockstep_traces_unchanged(monkeypatch):
    """Every noisy pulse call of a two-run lockstep group drawing its noise on
    a worker thread gives the serial loop's trace bytes."""
    cfgs = [
        NetworkConfig(n_in=64, n_out=64, connectivity=0.5, activity=0.5, seed=seed)
        for seed in (1, 2)
    ]
    ahead = []
    drawn_ahead = device._drawn_ahead
    monkeypatch.setattr(device, "_drawn_ahead", lambda *a: ahead.append(a) or drawn_ahead(*a))
    runs = []
    for gate in (10**9, 1):
        monkeypatch.setattr(device, "_DRAW_AHEAD_DEVICES", gate)
        runs.append([(t.learning.tobytes(), t.mean.tobytes()) for t in run_lifetime_hw(cfgs, 10)])
    assert ahead and runs[0] == runs[1]


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


@settings(max_examples=30, deadline=None)
@given(
    n_in=st.integers(1, 64),
    n_out=st.integers(1, 48),
    connectivity=st.floats(0.02, 1.0),
    activity=st.floats(0.02, 0.98),
    n_levels=st.integers(1, 4),
    q=st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
    updates_per_pattern=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    n_patterns=st.integers(1, 15),
)
def test_exact_reductions_hold_for_every_accepted_config(
    n_in, n_out, connectivity, activity, n_levels, q, updates_per_pattern, seed, n_patterns
):
    """Both exact reductions on random accepted configs: ideal hardware
    (idealized device, noise off, fixed reference) equals the behavioral
    run, and a one-metalevel multistate run equals the binary run."""
    try:
        cfg = NetworkConfig(
            n_in=n_in, n_out=n_out, connectivity=connectivity, activity=activity,
            n_levels=n_levels, q=q, updates_per_pattern=updates_per_pattern, seed=seed,
        )
    except ValueError:
        assume(False)  # rejected configs are outside both contracts
    sw = run_lifetime(cfg, n_patterns=n_patterns)
    hw = run_lifetime_hw(
        cfg, n_patterns=n_patterns, params=DeviceParams.idealized(), noise=NoiseModel.off()
    )
    assert hw.learning.tobytes() == sw.learning.tobytes()
    assert hw.mean.tobytes() == sw.mean.tobytes()
    one = run_lifetime(replace(cfg, n_levels=1), n_patterns=n_patterns)
    binary = run_lifetime(replace(cfg, model=Model.BINARY), n_patterns=n_patterns)
    assert one.learning.tobytes() == binary.learning.tobytes()
    assert one.mean.tobytes() == binary.mean.tobytes()


def _exact_background_read(xb: Crossbar, inputs: np.ndarray) -> np.ndarray:
    """infer_batch with the reference's expected background replaced by each
    column's actual one: its active connected devices at the (low, 0)
    conductance and its active pruned crosspoints at g_off."""
    g_low, g_high = flip_conductances(xb.table, xb.params)
    rows = inputs.astype(np.float64)
    connected = rows @ xb.mask
    pruned = rows.sum(axis=1, keepdims=True) - connected
    background = connected * g_low + pruned * xb.params.g_off
    i_ref = xb.v_read * ((np.floor(xb.cfg.theta) + 0.5) * (g_high - g_low) + background)
    return (xb.column_currents_batch(inputs) > i_ref).astype(np.uint8)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_one_metalevel_default_device_with_exact_background_is_behavioral(monkeypatch, seed):
    """A one-metalevel device sits on two plateaus only, so at the default
    device and noise off the two views part only through the reference's
    expected background: read against each column's exact background, the
    hardware trace is the behavioral one byte for byte.  Shifting that
    background by 2 low devices (0.57 gaps) breaks the equality."""
    monkeypatch.setattr(Crossbar, "infer_batch", _exact_background_read)
    cfg = NetworkConfig(model=Model.BINARY, seed=seed)
    hw = run_lifetime_hw(cfg, n_patterns=100, noise=NoiseModel.off())
    sw = run_lifetime(cfg, n_patterns=100)
    assert hw.learning.tobytes() == sw.learning.tobytes()
    assert hw.mean.tobytes() == sw.mean.tobytes()


def test_read_voltage_must_stay_subthreshold():
    # every read is at 0.3 V, so a device whose threshold lies at or below
    # it would be moved by reads; k_off keeps the table calibrating
    assert crossbar._V_READ == 0.3
    for v_off in (0.25, 0.3):
        message = rf"^v_off must exceed the 0.3 V read voltage, got {v_off}$"
        with pytest.raises(ValueError, match=message):
            init_crossbar(SMALL, params=DeviceParams(v_off=v_off, k_off=1.0e3))


def test_a_read_voltage_in_the_noise_place_is_rejected(xb_small):
    # the read voltage is no parameter now, so an old positional call would
    # pass it as the noise model; so would one that passes a table, which
    # the crossbar now looks up itself
    with pytest.raises(TypeError, match=r"^noise must be a NoiseModel or None, got 0\.3$"):
        init_crossbar(SMALL, None, 0.3)
    net = BehavioralNetwork.initialize(SMALL)
    for old_argument in (0.3, xb_small.table):
        with pytest.raises(TypeError, match="NoiseModel"):
            Crossbar(net, xb_small.params, old_argument)


def test_half_select_must_stay_subthreshold_on_the_depress_side():
    # the reset threshold is -v_off, so at v_off = 0.5 the held rows' -0.6 V
    # in the depress phase would move devices, as 0.6 V would in the other;
    # k_off keeps the 1.2 V drive near the default's, so the table calibrates
    params = DeviceParams(v_off=0.5, k_off=2.0e4)
    assert device._drive(-0.6, params) < 0.0 < device._drive(0.6, params)
    with pytest.raises(ValueError, match="^half-select voltage must stay below v_off$"):
        init_crossbar(SMALL, params=params)


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
        leaks.append(float(xb.column_currents_batch(inp[None])[0].sum()))
    assert leaks[0] < leaks[1] < leaks[2]


@pytest.mark.parametrize("noise", [NoiseModel(), NoiseModel.off()], ids=["noise", "noise-off"])
@pytest.mark.parametrize("n_out", [100, 45])
def test_hardware_accuracy_equals_the_mean_formula(n_out, noise):
    """The lifetime loop's accuracy from counts gives the bits of the two
    np.mean calls on the hardware path too, at widths that are not powers
    of two."""
    cfg = NetworkConfig(n_in=32, n_out=n_out, connectivity=0.5, seed=4)
    patterns = make_pattern_set(cfg, 30)
    inputs = np.stack([p.input_bits for p in patterns])
    targets = np.stack([p.target_bits for p in patterns])
    xb = init_crossbar(cfg, noise=noise)
    learning, mean = np.empty(30), np.empty(30)
    for t, pat in enumerate(patterns):
        xb.train_two_phase(pat, step=t)
        acc = (xb.infer_batch(inputs[: t + 1]) == targets[: t + 1]).mean(axis=1)
        learning[t], mean[t] = acc[t], acc.mean()
    trace = run_lifetime_hw(cfg, 30, noise=noise)
    assert trace.learning.tobytes() == learning.tobytes()
    assert trace.mean.tobytes() == mean.tobytes()
