"""Device model tests: window shape, threshold dynamics, calibration, and
the device/state-machine correspondence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metasyn.device import (
    CalibrationError,
    DeviceParams,
    DeviceState,
    MetastateTable,
    NoiseModel,
    PulseSpec,
    calibrate_metastate_table,
    conductance,
    decode_metastate,
    integrate_pulse,
    metastate_ratio,
    program_transition,
    state_derivative,
    window,
)
from metasyn.device import _find_anchor
from metasyn.synapse import Efficacy, MetaState, UpdateDirection, transition

POT = UpdateDirection.POTENTIATE
DEP = UpdateDirection.DEPRESS

# Frozen calibration outputs for the shipped parameter profiles.  These were
# produced by the pulse-train calibration itself and locked in; any dynamics
# change that moves them is a behavioral change, not a refactor.
DEFAULT_PLATEAUS = np.array(
    [
        0.0026056418574144646,
        0.020380413560982837,
        0.17539036996133328,
        0.8246102001795144,
        0.9796196140021615,
        0.9973943581425855,
    ]
)
IDEAL_PLATEAUS = np.array(
    [
        7.2315943755205026e-12,
        1.470722250443269e-07,
        0.0030000013241627756,
        0.9970042992645763,
        0.9999998530321678,
        0.9999999999927685,
    ]
)
GOLDEN_RATE_AT_HALF = 56050.774498372756  # state_derivative(0.5, 1.2 V)


@pytest.fixture(scope="module")
def params() -> DeviceParams:
    return DeviceParams.default()


@pytest.fixture(scope="module")
def table(params) -> MetastateTable:
    return calibrate_metastate_table(params)


# ---- window and conductance ---------------------------------------------------


def test_window_endpoints_exact(params):
    assert window(0.0, params) == 0.0
    assert window(1.0, params) == 0.0
    assert window(0.5, params) == 1.0


def test_window_positive_inside(params):
    xs = np.linspace(0.01, 0.99, 99)
    assert np.all(window(xs, params) > 0.0)


def test_conductance_limits(params):
    assert conductance(1.0, params) == pytest.approx(1.0e-5)
    assert conductance(0.0, params) == pytest.approx(1.0e-7)
    assert conductance(0.5, params) == pytest.approx(5.05e-6)


# ---- threshold dynamics ---------------------------------------------------------


def test_subthreshold_rate_is_exactly_zero(params):
    for x in (0.0, 0.25, 0.5, 0.75, 1.0):
        for v in (-0.999, -0.6, 0.0, 0.4, 0.6, 0.999):
            assert state_derivative(x, v, params) == 0.0
    assert state_derivative(0.5, params.v_off, params) == 0.0
    assert state_derivative(0.5, params.v_on, params) == 0.0


def test_golden_rate(params):
    assert state_derivative(0.5, 1.2, params) == pytest.approx(
        GOLDEN_RATE_AT_HALF, rel=1e-12
    )


def test_half_select_pulse_bit_identical(params):
    xs = np.linspace(0.0, 1.0, 41)
    for amplitude in (0.6, -0.6):
        out = integrate_pulse(xs, PulseSpec(amplitude=amplitude), params)
        assert np.array_equal(out, xs)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=-0.999, max_value=0.999),
)
def test_subthreshold_property(x, v):
    assert state_derivative(x, v, DeviceParams.default()) == 0.0


def test_bounded_after_random_pulses(params):
    rng = np.random.default_rng(7)
    x = rng.random(64)
    for _ in range(10_000 // 64):
        pulse = PulseSpec(
            amplitude=float(rng.uniform(-2.0, 2.0)),
            duration=float(rng.uniform(1e-6, 30e-6)),
            dt=0.5e-6,
        )
        x = integrate_pulse(x, pulse, params)
        assert np.all((x >= 0.0) & (x <= 1.0))


def test_dt_halving_converges(params, table):
    pulse = table.pulse
    fine = PulseSpec(pulse.amplitude, pulse.duration, pulse.dt / 2)
    for x0 in DEFAULT_PLATEAUS[:-1]:
        coarse_x = integrate_pulse(float(x0), pulse, params)
        fine_x = integrate_pulse(float(x0), fine, params)
        assert abs(coarse_x - fine_x) < 1e-3 * max(coarse_x, 1e-12)


# ---- calibration ---------------------------------------------------------------


def test_default_calibration_frozen(params, table):
    assert table.n_levels == 3
    np.testing.assert_allclose(table.plateaus, DEFAULT_PLATEAUS, rtol=1e-12)


def test_ideal_calibration_frozen():
    # zero off-conductance blows up the on/off ratio on purpose, so the
    # realistic-ratio guard does not apply to this profile
    params = DeviceParams.idealized()
    table = calibrate_metastate_table(params, ratio_bounds=None)
    np.testing.assert_allclose(table.plateaus, IDEAL_PLATEAUS, rtol=1e-9)


def test_plateaus_strictly_increasing(table):
    assert np.all(np.diff(table.plateaus) > 0)


def test_conductance_ratio_in_band(params, table):
    ratio = metastate_ratio(table, params)
    assert 4.0 <= ratio <= 5.0
    # the anchor search targets the midband ratio exactly
    assert ratio == pytest.approx(4.5, abs=1e-9)


def test_single_level_calibration(params):
    table = calibrate_metastate_table(params, n_levels=1)
    assert len(table.plateaus) == 2
    # binary chain spans the same programmed range as the deep chain's ends
    assert table.plateaus[0] < 0.5 < table.plateaus[1]
    assert table.plateaus[1] == pytest.approx(1.0 - table.plateaus[0], abs=1e-9)


def test_calibration_ratio_guard(params):
    # an unreachable ratio band must fail loudly, not silently mis-ship
    with pytest.raises(CalibrationError):
        calibrate_metastate_table(params, ratio_bounds=(100.0, 200.0))



# ---- bit-identity with the scalar references ----------------------------------


def _reference_integrate_pulse(x, pulse, params, noise=None):
    """The Heun kernel as first written: both stages evaluate the full
    derivative, and noise is drawn one step at a time."""

    def derivative(x):
        va = np.asarray(pulse.amplitude, dtype=float)
        up = params.k_off * np.maximum(va / params.v_off - 1.0, 0.0) ** params.alpha_off
        down = params.k_on * np.maximum(va / params.v_on - 1.0, 0.0) ** params.alpha_on
        return (up + down) * window(x, params) / params.d_thickness

    xa = np.asarray(x, dtype=float).copy()
    scalar = xa.ndim == 0
    if scalar:
        xa = xa.reshape(1)
    n_full, remainder = divmod(pulse.duration, pulse.dt)
    steps = [pulse.dt] * int(round(n_full))
    if remainder > 1e-12 * pulse.dt:
        steps.append(remainder)
    noisy = noise is not None and noise.active
    rng = noise.rng() if noisy else None
    for dt in steps:
        k1 = derivative(xa)
        k2 = derivative(np.clip(xa + k1 * dt, 0.0, 1.0))
        dx = 0.5 * (k1 + k2) * dt
        if noisy:
            dx = dx * (1.0 + noise.sigma * rng.standard_normal(xa.shape))
        xa = np.clip(xa + dx, 0.0, 1.0)
    return float(xa[0]) if scalar else xa


def _reference_anchor(n_levels, pulse, params):
    """The anchor search as first written: one scalar pulse train per
    bisection step."""
    span = 2 * n_levels - 1

    def mismatch(x0):
        x = x0
        for _ in range(span):
            x = integrate_pulse(x, pulse, params)
        return x - (1.0 - x0)

    lo, hi = 1.0e-30, 0.5
    assert mismatch(hi) >= 0.0 and mismatch(lo) <= 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if mismatch(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return hi


@pytest.mark.parametrize("n", [None, 0, 7, 150, 5000], ids=["scalar", "0", "7", "150", "5000"])
@pytest.mark.parametrize("amplitude", [1.2, -1.2, 0.6])
@pytest.mark.parametrize("sigma", [0.0, 0.25], ids=["quiet", "noisy"])
def test_integrate_pulse_matches_reference_kernel(params, n, amplitude, sigma):
    x = 0.37 if n is None else np.random.default_rng(n).random(n)
    pulse = PulseSpec(amplitude=amplitude)
    ours, ref = NoiseModel(sigma=sigma, rng_seed=11), NoiseModel(sigma=sigma, rng_seed=11)
    out = integrate_pulse(x, pulse, params, ours)
    expected = _reference_integrate_pulse(x, pulse, params, ref)
    assert type(out) is type(expected)
    assert np.array_equal(out, expected)
    # the noise stream is left where the step-by-step draws leave it
    assert ours.rng().standard_normal() == ref.rng().standard_normal()


@pytest.mark.parametrize("n_levels", [1, 3, 5])
@pytest.mark.parametrize(
    "profile", [DeviceParams.default, DeviceParams.idealized], ids=["default", "ideal"]
)
def test_tree_anchor_equals_scalar_bisection(profile, n_levels):
    params, pulse = profile(), PulseSpec(amplitude=1.2)
    assert _find_anchor(n_levels, pulse, params) == _reference_anchor(n_levels, pulse, params)


# ---- calibration memo -----------------------------------------------------------


def test_calibration_is_memoized_and_read_only(params, table):
    assert calibrate_metastate_table(params) is table
    assert calibrate_metastate_table(params, ratio_bounds=None) is table
    assert table.plateaus.flags.writeable is False
    with pytest.raises(ValueError):
        table.plateaus[0] = 0.5
    np.testing.assert_allclose(table.plateaus, DEFAULT_PLATEAUS, rtol=1e-12)


def test_memo_rechecks_ratio_bounds(params):
    calibrate_metastate_table(params, ratio_bounds=None)
    with pytest.raises(CalibrationError, match="ratio"):
        calibrate_metastate_table(params, ratio_bounds=(5.0, 6.0))


def test_memo_keys_on_device_params(params, table):
    other = calibrate_metastate_table(
        DeviceParams(k_off=8.0e6, k_on=-8.0e6), ratio_bounds=None
    )
    assert other is not table
    assert not np.array_equal(other.plateaus, table.plateaus)


def test_failed_calibration_is_not_cached():
    # a pulse this strong drives the deep chain's low plateaus together
    strong = DeviceParams(k_off=1.0e9, k_on=-1.0e9)
    for _ in range(2):
        with pytest.raises(CalibrationError, match="strictly increasing"):
            calibrate_metastate_table(strong, ratio_bounds=None)

@pytest.mark.parametrize("k", [1.0e9, 1.0e12])
def test_plateau_on_a_rail_is_rejected(k):
    # one level at this strength ends the chain at x = 1.0, where the window
    # is exactly 0 and no depressing pulse could move the device
    with pytest.raises(CalibrationError, match="rail"):
        calibrate_metastate_table(
            DeviceParams(k_off=k, k_on=-k), n_levels=1, ratio_bounds=None
        )


# ---- decode --------------------------------------------------------------------


def test_decode_at_plateaus(table):
    for idx, x in enumerate(table.plateaus):
        assert int(table.decode_index(x)) == idx
        assert decode_metastate(DeviceState(x=float(x)), table) == table.state_at(idx)


def test_decode_nearest_with_ties_down(table):
    p = table.plateaus
    for k in range(len(p) - 1):
        mid = 0.5 * (p[k] + p[k + 1])
        assert int(table.decode_index(np.nextafter(mid, 1.0))) == k + 1
        assert int(table.decode_index(mid)) == k


def test_chain_state_order(table):
    states = table.chain_states()
    assert states[0] == MetaState(Efficacy.LOW, 2, 3)
    assert states[2] == MetaState(Efficacy.LOW, 0, 3)
    assert states[3] == MetaState(Efficacy.HIGH, 0, 3)
    assert states[5] == MetaState(Efficacy.HIGH, 2, 3)


# ---- single-pulse adjacency and programming -----------------------------------


def test_potentiating_pulse_moves_one_state_up(params, table):
    for k in range(len(table.plateaus) - 1):
        x = float(table.plateaus[k])
        out = integrate_pulse(x, table.pulse, params)
        assert int(table.decode_index(out)) == k + 1


def test_depressing_pulse_moves_one_state_down(params, table):
    down = PulseSpec(-table.pulse.amplitude, table.pulse.duration, table.pulse.dt)
    for k in range(1, len(table.plateaus)):
        x = float(table.plateaus[k])
        out = integrate_pulse(x, down, params)
        assert int(table.decode_index(out)) == k - 1


def test_program_transition_examples(params, table):
    low0 = DeviceState(x=table.x_for(MetaState(Efficacy.LOW, 0, 3)))
    out = program_transition(low0, POT, params, table)
    assert decode_metastate(out, table) == MetaState(Efficacy.HIGH, 0, 3)

    high0 = DeviceState(x=table.x_for(MetaState(Efficacy.HIGH, 0, 3)))
    out = program_transition(high0, DEP, params, table)
    assert decode_metastate(out, table) == MetaState(Efficacy.LOW, 0, 3)


def test_program_transition_saturation_is_a_noop(params, table):
    top = DeviceState(x=table.x_for(MetaState(Efficacy.HIGH, 2, 3)))
    assert program_transition(top, POT, params, table).x == top.x
    bottom = DeviceState(x=table.x_for(MetaState(Efficacy.LOW, 2, 3)))
    assert program_transition(bottom, DEP, params, table).x == bottom.x


def test_device_matches_state_machine_over_walks(params, table):
    """Noise-free random command walks decode identically through the
    device path and the pure state machine."""
    for seed in range(20):
        rng = np.random.default_rng(seed)
        dev = DeviceState(x=table.x_for(MetaState(Efficacy.LOW, 2, 3)))
        ref = MetaState(Efficacy.LOW, 2, 3)
        for _ in range(100):
            d = POT if rng.random() < 0.5 else DEP
            dev = program_transition(dev, d, params, table)
            ref = transition(ref, d)
            assert decode_metastate(dev, table) == ref


def test_noisy_programming_mostly_tracks_noise_free(params, table):
    """Monte Carlo: 100 noisy programming cycles stay decode-consistent
    with the matching noise-free trajectory in at least 95% of trials.

    Agreement depends on where a command walk ends (mid-chain endpoints
    sit closer to decode boundaries than saturated ones), so the rate is
    taken across several fixed walks rather than a single one.
    """
    agree = trials = 0
    for cmd_seed in range(4):
        rng = np.random.default_rng(cmd_seed)
        cmds = [POT if rng.random() < 0.5 else DEP for _ in range(100)]
        clean = MetaState(Efficacy.LOW, 0, 3)
        for d in cmds:
            clean = transition(clean, d)
        for k in range(50):
            noise = NoiseModel(sigma=0.25, rng_seed=2000 + 100 * cmd_seed + k)
            dev = DeviceState(x=table.x_for(MetaState(Efficacy.LOW, 0, 3)))
            for d in cmds:
                dev = program_transition(dev, d, params, table, noise)
            agree += decode_metastate(dev, table) == clean
            trials += 1
    assert agree / trials >= 0.95


def test_noise_model_off():
    assert not NoiseModel.off().active
    assert NoiseModel(sigma=0.0).active is False


def test_pulse_spec_validation():
    with pytest.raises(ValueError):
        PulseSpec(amplitude=1.2, duration=1e-6, dt=2e-6)
    with pytest.raises(ValueError):
        PulseSpec(amplitude=1.2, duration=0.0)


def test_device_state_bounds():
    with pytest.raises(ValueError):
        DeviceState(x=-0.01)
    with pytest.raises(ValueError):
        DeviceState(x=1.01)


def test_apply_pulse_wraps_integrate(params, table):
    # away from the chain ends, programming one device is exactly one
    # calibrated pulse of the step's polarity
    s = DeviceState(x=float(table.plateaus[2]))
    for d in (POT, DEP):
        out = program_transition(s, d, params, table)
        assert isinstance(out, DeviceState)
        assert out.x == integrate_pulse(s.x, table.pulse_for(d), params)
    assert table.pulse_for(POT).amplitude == abs(table.pulse.amplitude)
    assert table.pulse_for(DEP).amplitude == -abs(table.pulse.amplitude)


def test_read_verify_guard_withholds_only_saturating_steps(table):
    top = len(table.plateaus) - 1
    assert table.verify(table.plateaus, POT).tolist() == [i != top for i in range(top + 1)]
    assert table.verify(table.plateaus, DEP).tolist() == [i != 0 for i in range(top + 1)]
    assert table.verify(float(table.plateaus[top]), POT) is False


def test_device_params_validation():
    with pytest.raises(ValueError):
        DeviceParams(g_on=1e-7, g_off=1e-5)
    with pytest.raises(ValueError):
        DeviceParams(v_on=0.5)
    with pytest.raises(ValueError):
        DeviceParams(k_off=-1.0)
    with pytest.raises(ValueError):
        DeviceParams(d_thickness=0.0)
    # the window must stay symmetric about x = 0.5: only even powers
    for bad in (1.5, 3.0, 0.0, -2.0):
        with pytest.raises(ValueError, match="p_exp"):
            DeviceParams(p_exp=bad)
    assert DeviceParams(p_exp=4.0).p_exp == 4.0
    # the window centre is fixed, not a parameter
    with pytest.raises(TypeError):
        DeviceParams(delta=0.5)
