"""Device model tests: window shape, threshold dynamics, calibration, and
the device/state-machine correspondence."""

import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metasyn import device
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
    window,
)
from metasyn.device import _drive, _find_anchor
from metasyn.synapse import (
    Efficacy,
    MetaState,
    UpdateDirection,
    chain_index,
    chain_state,
    transition,
)

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
# dx/dt at x = 0.5 under 1.2 V: the voltage factor alone, since window(0.5) == 1
GOLDEN_RATE_AT_HALF = 56050.774498372756


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
    """A pulse at or inside the thresholds leaves every state bit-identical:
    the rate is exactly zero in both Heun stages."""
    xs = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    for v in (-0.999, -0.6, 0.0, 0.4, 0.6, 0.999, params.v_off, -params.v_off):
        out = integrate_pulse(xs, PulseSpec(amplitude=v), params)
        assert out.tobytes() == xs.tobytes()


def test_golden_rate(params):
    assert _drive(1.2, params) == pytest.approx(GOLDEN_RATE_AT_HALF, rel=1e-12)


def test_half_select_pulse_bit_identical(params):
    xs = np.linspace(0.0, 1.0, 41)
    for amplitude in (0.6, -0.6):
        out = integrate_pulse(xs, PulseSpec(amplitude=amplitude), params)
        assert np.array_equal(out, xs)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1.0),
            st.floats(min_value=-0.999, max_value=0.999),
        ),
        min_size=1,
        max_size=16,
    )
)
def test_subthreshold_property(cases):
    """Each (x, v) pair is one device pulsed at its own amplitude, all in one
    call: every state comes back bit-identical."""
    xs = np.array([x for x, _ in cases])
    segments = [(None, 1, v) for _, v in cases]
    out = integrate_pulse(xs, PulseSpec(amplitude=0.0), DeviceParams.default(), segments)
    assert out.tobytes() == xs.tobytes()


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
    params = DeviceParams.idealized()
    table = calibrate_metastate_table(params)
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


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["potentiate", "depress"])
def test_calibration_needs_a_pulse_past_both_thresholds(sign):
    # the reset threshold is -v_off, so a 1.2 V pulse under a 1.5 V
    # threshold moves nothing at either polarity
    params = DeviceParams(v_off=1.5)
    xs = np.array([0.25, 0.5, 0.75])
    assert integrate_pulse(xs, PulseSpec(amplitude=sign * 1.2), params).tobytes() == xs.tobytes()
    with pytest.raises(CalibrationError, match="^programming amplitude must exceed v_off$"):
        calibrate_metastate_table(params)


# ---- bit-identity with the scalar references ----------------------------------


def _reference_integrate_pulse(x, pulse, params, noise=None):
    """The Heun kernel as first written: both stages evaluate the full
    derivative, and noise is drawn one step at a time."""

    def derivative(x):
        va = np.asarray(pulse.amplitude, dtype=float)
        up = params.k_off * np.maximum(va / params.v_off - 1.0, 0.0) ** params.alpha_off
        down = -params.k_off * np.maximum(va / -params.v_off - 1.0, 0.0) ** params.alpha_off
        return (up + down) * window(x, params)

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


# signed zeros and states off the [0, 1] range, which the clamp must treat
# exactly as np.clip does
EDGE_STATES = np.array([-0.0, 0.0, -0.0, 1.0, -1e-300, -0.25, 1.0 + 1e-16, 1.5, 0.5, 1e-300])


@pytest.mark.parametrize(
    "n", [None, 0, 7, 150, 5000, "edge"], ids=["scalar", "0", "7", "150", "5000", "edge"]
)
@pytest.mark.parametrize("amplitude", [1.2, -1.2, 0.6])
@pytest.mark.parametrize("sigma", [0.0, 0.25], ids=["quiet", "noisy"])
def test_integrate_pulse_matches_reference_kernel(params, n, amplitude, sigma):
    if n == "edge":
        x = EDGE_STATES
    else:
        x = 0.37 if n is None else np.random.default_rng(n).random(n)
    pulse = PulseSpec(amplitude=amplitude)
    ours, ref = NoiseModel(sigma=sigma, rng_seed=11), NoiseModel(sigma=sigma, rng_seed=11)
    out = integrate_pulse(x, pulse, params, ours)
    expected = _reference_integrate_pulse(x, pulse, params, ref)
    assert type(out) is type(expected)
    assert np.array_equal(out, expected)
    # bit for bit, so a -0.0 that comes out +0.0 fails
    assert np.asarray(out).tobytes() == np.asarray(expected).tobytes()
    # the noise stream is left where the step-by-step draws leave it
    assert ours.rng().standard_normal() == ref.rng().standard_normal()


def _integrate_pulse_generic(x, pulse, params, noise=None):
    """The Heun kernel with every stage in the generic operation order:
    (1 - (4 s) s) exp(-tau power(s, p)), times the drive; noise drawn step
    by step."""
    xa = np.array(x, dtype=float).reshape(-1)
    n_full, remainder = divmod(pulse.duration, pulse.dt)
    steps = [pulse.dt] * int(round(n_full))
    if remainder > 1e-12 * pulse.dt:
        steps.append(remainder)
    drive = device._drive(pulse.amplitude, params)

    def rate(xs):
        s = xs - 0.5
        w = (1.0 - (4.0 * s) * s) * np.exp(-params.tau * np.power(s, params.p_exp))
        return drive * w

    def clamp(v):
        return np.minimum(np.maximum(0.0, v), 1.0)

    for dt in steps:
        k1 = rate(xa)
        k2 = rate(clamp(xa + k1 * dt))
        dx = (0.5 * (k1 + k2)) * dt
        if noise is not None:
            dx = dx * (noise.rng().standard_normal(xa.size) * noise.sigma + 1.0)
        xa = clamp(xa + dx)
    return xa


@pytest.mark.parametrize(
    "p_exp, thickness", [(2.0, 1.0), (4.0, 1.5)], ids=["p2-D1", "p4-D1.5"]
)
@pytest.mark.parametrize("amplitude", [1.2, -1.2])
@pytest.mark.parametrize("sigma", [0.0, 0.25], ids=["quiet", "noisy"])
def test_lean_heun_stage_equals_the_generic_order(p_exp, thickness, amplitude, sigma):
    """The kernel's in-place stage, one formula for every window power,
    gives the bits of the generic operation order at p = 2 and p = 4, also
    with a thickness D folded into the rate constants."""
    k = DeviceParams().k_off / thickness
    params = DeviceParams(p_exp=p_exp, k_off=k)
    x = np.concatenate([EDGE_STATES, np.random.default_rng(5).random(2000)])
    x[-3:] = [0.5 - 2.0**-54, 0.5 + 2.0**-53, 0.25]
    pulse = PulseSpec(amplitude=amplitude)
    ours = NoiseModel(sigma=sigma, rng_seed=3) if sigma else None
    ref = NoiseModel(sigma=sigma, rng_seed=3) if sigma else None
    out = integrate_pulse(x, pulse, params, ours)
    assert out.tobytes() == _integrate_pulse_generic(x, pulse, params, ref).tobytes()


@pytest.mark.parametrize(
    "counts, phases",
    [
        ((3, 5, 2, 0, 4), 1),
        ((0, 0), 1),
        ((2000, 900, 100, 0, 2000), 1),
        ((300, 70, 120, 250, 400, 90, 0, 330), 2),
    ],
    ids=["small", "empty", "blocks", "two-phase"],
)
@pytest.mark.parametrize("amplitude", [1.2, -1.2])
def test_segmented_pulse_equals_separate_calls(params, counts, phases, amplitude):
    """One call over several runs' devices equals one call per run, each on
    its own noise stream: zero-count segments draw nothing, and at 5000
    devices the noise comes in blocks of a few steps.

    With two phases the second half of the segments reuses the first half's
    models at the opposite polarity, as one lockstep round programs a run's
    potentiated and depressed devices in one call.  That call must equal
    the sequential calls, all of the first polarity before the second, also
    when its noise comes in blocks."""
    x = np.random.default_rng(len(counts)).random(sum(counts))
    n_models = len(counts) // phases
    amplitudes = [amplitude] * n_models + [-amplitude] * (len(counts) - n_models)

    def models():
        # noisy, off, absent and a second sigma, cycled over the segments
        kinds = [
            lambda i: NoiseModel(sigma=0.25, rng_seed=i),
            lambda i: NoiseModel.off(),
            lambda i: None,
            lambda i: NoiseModel(sigma=0.1, rng_seed=i),
        ]
        return [kinds[i % 4](i) for i in range(n_models)] * phases

    joint, alone = models(), models()
    segments = list(zip(joint, counts, amplitudes))
    out = integrate_pulse(x, PulseSpec(amplitude=amplitude), params, segments)
    parts = np.split(x, np.cumsum(counts)[:-1])
    expected = np.concatenate(
        [
            integrate_pulse(xs, PulseSpec(amplitude=a), params, model)
            for xs, model, a in zip(parts, alone, amplitudes)
        ]
    )
    assert out.tobytes() == expected.tobytes()
    for a, b in zip(joint, alone):
        if a is not None and a.active:
            assert a.rng().standard_normal() == b.rng().standard_normal()


def test_segment_counts_must_cover_the_states(params):
    with pytest.raises(ValueError, match="add up"):
        integrate_pulse(np.zeros(4), PulseSpec(1.2), params, [(None, 3, 1.2)])


# ---- noise drawn ahead on a worker thread ---------------------------------------


SERIAL = 10**9  # a draw-ahead gate no call reaches

NOISE_KINDS = {
    "a": lambda: NoiseModel(sigma=0.25, rng_seed=1),
    "b": lambda: NoiseModel(sigma=0.1, rng_seed=2),
    "c": lambda: NoiseModel(sigma=0.25, rng_seed=3),
    "off": NoiseModel.off,
    None: lambda: None,
}


@pytest.fixture
def ahead_calls(monkeypatch):
    """The arguments of every call that draws its noise ahead."""
    calls = []
    drawn_ahead = device._drawn_ahead
    monkeypatch.setattr(device, "_drawn_ahead", lambda *a: calls.append(a) or drawn_ahead(*a))
    return calls


def _within(fn, timeout=60.0):
    """What fn() raises (None if nothing), run on a helper thread that must
    end within timeout, so that a hung handoff fails instead of hanging."""
    raised = []

    def run():
        try:
            fn()
        except BaseException as exc:
            raised.append(exc)

    helper = threading.Thread(target=run, daemon=True)
    helper.start()
    helper.join(timeout)
    assert not helper.is_alive(), "the pulse call did not return"
    return raised[0] if raised else None


# a lockstep round's segments: models a and b each feed a potentiate and a
# later depress segment, so their potentiate draws (4.8 MB) are held
TWO_PHASE = [("a", 3000, 1), (None, 500, 1), ("b", 1000, 1), ("a", 2000, -1), ("b", 700, -1)]


@pytest.mark.parametrize(
    "spec, pulse, block_bytes, held_bytes, passes",
    [
        ([("a", 6000, 1)], PulseSpec(1.2), None, None, 1),
        (
            [("a", 2500, 1), (None, 1000, 1), ("off", 1500, 1), ("b", 0, 1), ("c", 2000, 1)],
            PulseSpec(-1.2),
            None,
            None,
            1,
        ),
        (TWO_PHASE, PulseSpec(1.2), None, 1 << 23, 1),
        (TWO_PHASE, PulseSpec(1.2), None, None, 2),
        ([("a", 5000, 1)], PulseSpec(1.2, duration=15.05e-6), None, None, 1),
        ([("a", 3000, 1), ("b", 2000, -1)], PulseSpec(1.2), 8, None, 1),
    ],
    ids=[
        "one-model", "segments", "two-phase-held", "over-budget", "short-final-step",
        "one-step-blocks",
    ],
)
def test_drawing_ahead_is_bit_identical(
    params, monkeypatch, ahead_calls, spec, pulse, block_bytes, held_bytes, passes
):
    """Noise blocks drawn on a worker thread give the serial loop's output
    bytes and leave every stream where the serial loop leaves it, and both
    equal the serial reference of one call per segment in order.  Past the
    held-draw budget the call programs in two passes, each drawing ahead."""
    if block_bytes is not None:
        monkeypatch.setattr(device, "_NOISE_BLOCK_BYTES", block_bytes)
    if held_bytes is not None:
        monkeypatch.setattr(device, "_HELD_NOISE_BYTES", held_bytes)
    x = np.random.default_rng(5).random(sum(count for _, count, _ in spec))
    before = set(threading.enumerate())
    runs = []
    for gate in (SERIAL, 1, "reference"):
        monkeypatch.setattr(device, "_DRAW_AHEAD_DEVICES", SERIAL if gate == "reference" else gate)
        models = {key: NOISE_KINDS[key]() for key, _, _ in spec}
        segments = [(models[key], count, sign * pulse.amplitude) for key, count, sign in spec]
        if gate == "reference":
            parts = np.split(x, np.cumsum([count for _, count, _ in spec])[:-1])
            out = np.concatenate(
                [
                    integrate_pulse(xs, replace(pulse, amplitude=a), params, model)
                    for xs, (model, _, a) in zip(parts, segments)
                ]
            )
        else:
            out = integrate_pulse(x, pulse, params, segments)
        states = {k: m.rng().bit_generator.state for k, m in models.items() if m and m.active}
        runs.append((out.tobytes(), states))
    assert len(ahead_calls) == passes
    assert runs[0] == runs[1] == runs[2]
    assert set(threading.enumerate()) == before


def test_a_producer_draw_error_is_raised_by_the_call(params, monkeypatch, ahead_calls):
    """An unbound model cannot draw: on the worker thread its error must
    reach the caller unchanged, and no thread may be left waiting."""
    x = np.full(40_000, 0.5)
    before = set(threading.enumerate())
    errors = []
    for gate in (SERIAL, device._DRAW_AHEAD_DEVICES):
        monkeypatch.setattr(device, "_DRAW_AHEAD_DEVICES", gate)
        errors.append(_within(lambda: integrate_pulse(x, PulseSpec(1.2), params, NoiseModel())))
    serial, ahead = errors
    assert len(ahead_calls) == 1
    assert type(ahead) is type(serial) is ValueError
    assert str(ahead) == str(serial) and "rng_seed" in str(ahead)
    assert set(threading.enumerate()) == before


def test_an_error_in_the_heun_loop_stops_the_producer(params, monkeypatch, ahead_calls):
    """The integrator fails while blocks drawn ahead wait unread; the call
    must still end the worker."""
    clamps = []
    clamp = device._clamp_unit

    def failing_clamp(v):
        clamps.append(v)
        if len(clamps) == 7:
            time.sleep(0.2)  # the worker draws the blocks ahead meanwhile
            raise FloatingPointError("step failed")
        return clamp(v)

    monkeypatch.setattr(device, "_clamp_unit", failing_clamp)
    x = np.full(40_000, 0.5)
    before = set(threading.enumerate())
    noise = NoiseModel(sigma=0.25, rng_seed=1)
    error = _within(lambda: integrate_pulse(x, PulseSpec(1.2), params, noise))
    assert len(ahead_calls) == 1
    assert isinstance(error, FloatingPointError) and str(error) == "step failed"
    assert set(threading.enumerate()) == before


def test_calls_below_the_draw_ahead_gate_start_no_thread(params, monkeypatch):
    """`compare` with hardware programs at most 2,375 devices per call and
    `dump-trace` 532: both stay on the serial loop, where the handoff would
    cost more than the overlap saves."""

    def refuse(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading, "Thread", refuse)
    gate = device._DRAW_AHEAD_DEVICES
    for n in (532, 2375, gate - 1):
        integrate_pulse(np.full(n, 0.5), PulseSpec(1.2), params, NoiseModel(0.25, rng_seed=1))
        two = [(NoiseModel(0.25, rng_seed=1), n - 100, 1.2), (NoiseModel.off(), 100, -1.2)]
        integrate_pulse(np.full(n, 0.5), PulseSpec(1.2), params, two)
    # noise off draws nothing, at any size
    integrate_pulse(np.full(2 * gate, 0.5), PulseSpec(1.2), params, NoiseModel.off())
    with pytest.raises(AssertionError, match="thread was started"):
        integrate_pulse(np.full(gate, 0.5), PulseSpec(1.2), params, NoiseModel(0.25, rng_seed=1))


def _scaled_k(scale):
    return DeviceParams(k_off=DeviceParams().k_off * scale)


@pytest.mark.parametrize(
    "params, n_levels, amplitude",
    [
        *(pytest.param(DeviceParams(), n, 1.2, id=f"default-{n}") for n in (1, 3, 5)),
        *(pytest.param(DeviceParams.idealized(), n, 1.2, id=f"ideal-{n}") for n in (1, 3, 5)),
        pytest.param(_scaled_k(0.5), 3, 1.2, id="k_off_x0.5-3"),
        pytest.param(_scaled_k(3.0), 3, 1.2, id="k_off_x3-3"),
        pytest.param(DeviceParams(), 3, 1.1, id="1.1V-3"),
        pytest.param(DeviceParams(), 3, 1.5, id="1.5V-3"),
    ],
)
def test_tree_anchor_equals_scalar_bisection(params, n_levels, amplitude):
    """The speculative rounds return the scalar bisection's anchor, and its
    train is the one-device train from that anchor, bit for bit."""
    pulse = PulseSpec(amplitude=amplitude)
    train = _find_anchor(n_levels, pulse, params)
    assert train[0] == _reference_anchor(n_levels, pulse, params)
    alone = device._pulse_train(np.array(train[0]), 2 * n_levels - 1, pulse, params)
    assert train.tobytes() == alone.tobytes()


def _counting_trains(monkeypatch, make=None):
    """Count _pulse_train calls; make(x0, count) replaces the train if given."""
    calls = []
    real = device._pulse_train

    def train(x0, count, pulse, params):
        calls.append(x0.size)
        return real(x0, count, pulse, params) if make is None else make(x0, count)

    monkeypatch.setattr(device, "_pulse_train", train)
    return calls


@pytest.mark.parametrize("n_levels", [1, 3])
def test_default_table_takes_at_most_four_trains(params, monkeypatch, n_levels):
    calls = _counting_trains(monkeypatch)
    table = device._calibrated_table.__wrapped__(params, n_levels)
    assert 1 <= len(calls) <= 4
    assert max(calls) <= device._CANDIDATES + 2  # round 1 adds both bracket ends
    if n_levels == 3:
        assert table.plateaus.tobytes() == DEFAULT_PLATEAUS.tobytes()


@pytest.mark.parametrize(
    "params, n_levels, most",
    [
        pytest.param(DeviceParams.idealized(), 3, 11, id="ideal-3"),
        pytest.param(DeviceParams.idealized(), 4, 13, id="ideal-4"),
        pytest.param(_scaled_k(3.0), 3, 8, id="k_off_x3-3"),
    ],
)
def test_poor_root_estimates_still_take_few_trains(monkeypatch, params, n_levels, most):
    """Where the root estimate is poorest, a later round holds only the
    nodes that meet its window, and the search still ends in these many
    trains."""
    calls = _counting_trains(monkeypatch)
    _find_anchor(n_levels, PulseSpec(amplitude=1.2), params)
    assert len(calls) <= most


@pytest.mark.parametrize(
    "final, message",
    [(0.0, "pulse too weak: chain does not span the midpoint"),
     (2.0, "pulse too strong: chain collapses to the ends")],
    ids=["weak", "strong"],
)
def test_bracket_errors_are_raised_before_any_step(params, monkeypatch, final, message):
    """No real device misses the bracket, so a stand-in train does: every
    state ends at 0, so train(0.5) < 0.5, or at 2, so train(1e-30) > 1 -
    1e-30.  The check reads round 1, which holds both ends, and raises
    before the walk takes a step or a second train is run."""
    calls = _counting_trains(monkeypatch, lambda x0, count: np.full((count + 1,) + x0.shape, final))
    with pytest.raises(CalibrationError, match=f"^{message}$"):
        _find_anchor(3, PulseSpec(amplitude=1.2), params)
    assert len(calls) == 1


# ---- calibration memo -----------------------------------------------------------


def test_calibration_is_memoized_and_read_only(params, table):
    assert calibrate_metastate_table(params) is table
    assert calibrate_metastate_table(params, 3) is table
    assert table.plateaus.flags.writeable is False
    with pytest.raises(ValueError):
        table.plateaus[0] = 0.5
    np.testing.assert_allclose(table.plateaus, DEFAULT_PLATEAUS, rtol=1e-12)


def test_memo_keys_on_device_params(params, table):
    other = calibrate_metastate_table(DeviceParams(k_off=8.0e6))
    assert other is not table
    assert not np.array_equal(other.plateaus, table.plateaus)


def test_failed_calibration_is_not_cached():
    # a pulse this strong drives the deep chain's low plateaus together
    strong = DeviceParams(k_off=1.0e9)
    for _ in range(2):
        with pytest.raises(CalibrationError, match="strictly increasing"):
            calibrate_metastate_table(strong)

def test_non_increasing_plateaus_name_the_chain_and_the_pair():
    # the idealized device's deep high plateaus round to one float64 near 1.0
    with pytest.raises(
        CalibrationError,
        match=r"at n_levels = 5: plateau 7 \(x = 0\.99999\d*\) is not below plateau 8 \(x = ",
    ):
        calibrate_metastate_table(DeviceParams.idealized(), n_levels=5)


@pytest.mark.parametrize("k", [1.0e9, 1.0e12])
def test_plateau_on_a_rail_is_rejected(k):
    # one level at this strength ends the chain at x = 1.0, where the window
    # is exactly 0 and no depressing pulse could move the device
    with pytest.raises(CalibrationError, match="rail"):
        calibrate_metastate_table(DeviceParams(k_off=k), n_levels=1)


# ---- decode --------------------------------------------------------------------


def test_decode_at_plateaus(table):
    for idx, x in enumerate(table.plateaus):
        assert int(table.decode_index(x)) == idx
        assert decode_metastate(DeviceState(x=float(x)), table) == chain_state(idx, 3)


def test_decode_nearest_with_ties_down(table):
    p = table.plateaus
    for k in range(len(p) - 1):
        mid = 0.5 * (p[k] + p[k + 1])
        assert int(table.decode_index(np.nextafter(mid, 1.0))) == k + 1
        assert int(table.decode_index(mid)) == k


def test_chain_state_order(table):
    # plateau i realises chain index i, deepest low state first
    states = [chain_state(i, table.n_levels) for i in range(len(table.plateaus))]
    assert states[0] == MetaState(Efficacy.LOW, 2, 3)
    assert states[2] == MetaState(Efficacy.LOW, 0, 3)
    assert states[3] == MetaState(Efficacy.HIGH, 0, 3)
    assert states[5] == MetaState(Efficacy.HIGH, 2, 3)
    for i, state in enumerate(states):
        assert table.x_for(state) == float(table.plateaus[i])


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
    taken across several fixed walks rather than a single one.  The 50
    trials of a walk each own a noise stream and are programmed together:
    per command, the read-verified devices get one segmented pulse, which
    draws from each trial's stream what :func:`program_transition` on that
    device alone would.
    """
    agree = trials = 0
    for cmd_seed in range(4):
        rng = np.random.default_rng(cmd_seed)
        cmds = [POT if rng.random() < 0.5 else DEP for _ in range(100)]
        clean = MetaState(Efficacy.LOW, 0, 3)
        for d in cmds:
            clean = transition(clean, d)
        noises = [NoiseModel(sigma=0.25, rng_seed=2000 + 100 * cmd_seed + k) for k in range(50)]
        xs = np.full(len(noises), table.x_for(MetaState(Efficacy.LOW, 0, 3)))
        for d in cmds:
            guard = table.verify(xs, d)
            pulse = table.pulse_for(d)
            segments = [(noise, int(g), pulse.amplitude) for noise, g in zip(noises, guard)]
            xs[guard] = integrate_pulse(xs[guard], pulse, params, segments)
        agree += int(np.sum(table.decode_index(xs) == chain_index(clean)))
        trials += len(noises)
    assert agree / trials >= 0.95


# Mirrored devices other than the default: the reset side is the set side's
# mirror for every DeviceParams, so the chain must hold for each of them.
_WALK_DEVICES = {
    "k_off_x0.5": _scaled_k(0.5),
    "k_off_x3": _scaled_k(3.0),
    "v_off_0.9": DeviceParams(v_off=0.9),
    "alpha_off_2": DeviceParams(alpha_off=2.0),
    "p_exp_4": DeviceParams(p_exp=4.0),
    "tau_0": DeviceParams(tau=0.0),
}


@pytest.mark.parametrize(
    "params, n_levels",
    [
        *(pytest.param(p, n, id=f"{name}-{n}") for name, p in _WALK_DEVICES.items() for n in (1, 3)),
        *(pytest.param(DeviceParams.idealized(), n, id=f"ideal-{n}") for n in (1, 2, 3)),
        pytest.param(
            DeviceParams.idealized(), 4, id="ideal-4",
            marks=pytest.mark.xfail(
                strict=True,
                reason="the idealized device drifts at n_levels 4: walked down from the "
                "top plateau, the (high, 0) device reads x = 0.99177 instead of 0.99872, "
                "and its depress pulse lands at x = 0.0010957, which decodes as chain "
                "index 2 instead of 3 (seed 9, step 4); 2,334 wrong decodes over seeds "
                "0-19 x 100 steps",
            ),
        ),
    ],
)
def test_mirrored_devices_follow_the_chain_over_walks(params, n_levels):
    """Noise-free random walks from every plateau, for seeds 0-39: each step
    programs every walk in one pulse call per phase, read-verified, and
    every device must decode to the saturating +-1 of its chain index."""
    table = calibrate_metastate_table(params, n_levels=n_levels)
    top = 2 * n_levels - 1
    seeds = range(40)
    index = np.tile(np.arange(top + 1), len(seeds))
    ups = np.concatenate(
        [np.random.default_rng(s).random((12, top + 1)) < 0.5 for s in seeds], axis=1
    )
    x = table.plateaus[index]
    for step, up in enumerate(ups, start=1):
        for d, chosen in ((POT, up), (DEP, ~up)):
            chosen = chosen & table.verify(x, d)
            x[chosen] = integrate_pulse(x[chosen], table.pulse_for(d), params)
        index = np.clip(index + np.where(up, 1, -1), 0, top)
        np.testing.assert_array_equal(table.decode_index(x), index, err_msg=f"step {step}")


def test_noise_model_off():
    assert not NoiseModel.off().active
    assert NoiseModel(sigma=0.0).active is False
    assert NoiseModel.off() == NoiseModel(sigma=0.0)


@pytest.mark.parametrize(
    "sigma", [float("nan"), -0.1, float("inf")], ids=["nan", "negative", "inf"]
)
def test_noise_model_rejects_bad_sigma(sigma):
    # NaN used to pass the check and then read as noise off; inf gave NaN states
    with pytest.raises(ValueError, match="sigma"):
        NoiseModel(sigma=sigma)


def test_noise_model_settings_are_its_only_fields():
    """A model's generator is state, not a setting: it cannot be passed in,
    and a model that has drawn still equals one with the same settings."""
    drawn, fresh = NoiseModel(sigma=0.1, rng_seed=3), NoiseModel(sigma=0.1, rng_seed=3)
    drawn.rng().standard_normal(4)
    assert drawn == fresh and repr(drawn) == repr(fresh)
    with pytest.raises(TypeError, match="_rng"):
        NoiseModel(sigma=0.1, _rng=np.random.default_rng(0))


def test_unbound_noise_model_refuses_to_draw(params, table):
    """A model without rng_seed used to draw from seed 0 in every run; now
    only a crossbar, which binds it to its run's stream, can make it draw."""
    with pytest.raises(ValueError, match="rng_seed"):
        NoiseModel().rng()
    low0 = DeviceState(x=table.x_for(MetaState(Efficacy.LOW, 0, 3)))
    with pytest.raises(ValueError, match="rng_seed"):
        program_transition(low0, POT, params, table, NoiseModel())
    # noise off draws nothing, so it needs no stream
    quiet = program_transition(low0, POT, params, table, NoiseModel.off())
    assert quiet == program_transition(low0, POT, params, table)


def test_pulse_spec_validation():
    with pytest.raises(ValueError):
        PulseSpec(amplitude=1.2, duration=1e-6, dt=2e-6)
    with pytest.raises(ValueError):
        PulseSpec(amplitude=1.2, duration=0.0)
    # a non-finite field is named, instead of failing later in integrate_pulse
    for name in ("amplitude", "duration", "dt"):
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                PulseSpec(**{"amplitude": 1.2, name: bad})


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
    for bad in (-0.5, 0.0):
        with pytest.raises(ValueError, match="v_off"):
            DeviceParams(v_off=bad)
    with pytest.raises(ValueError):
        DeviceParams(k_off=-1.0)
    # an infinite value used to give a constant trace or a misleading
    # calibration error; NaN fails by name too
    for name in ("g_on", "v_off", "k_off", "tau", "alpha_off"):
        for bad in (float("inf"), -float("inf"), float("nan")):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                DeviceParams(**{name: bad})
    # at alpha = 0 the drive was k below threshold too (0 ** 0 == 1)
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match="^alpha_off must be > 0"):
            DeviceParams(alpha_off=bad)
    with pytest.raises(ValueError, match="^tau must be >= 0"):
        DeviceParams(tau=-1.0)
    assert DeviceParams(tau=0.0).tau == 0.0
    # the window must stay symmetric about x = 0.5: only even powers
    for bad in (1.5, 3.0, 0.0, -2.0):
        with pytest.raises(ValueError, match="p_exp"):
            DeviceParams(p_exp=bad)
    assert DeviceParams(p_exp=4.0).p_exp == 4.0
    # the window centre is fixed, the thickness is folded into k_off, and the
    # reset side is the set side's mirror
    for gone in ("delta", "d_thickness", "v_on", "k_on", "alpha_on"):
        with pytest.raises(TypeError):
            DeviceParams(**{gone: 0.5})
