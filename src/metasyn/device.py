"""Threshold memristor model used as the physical carrier of the synapse chain.

The device follows the VTEAM template: the internal state x = w/D moves only
while the applied voltage exceeds one of two polarity thresholds, at a rate
shaped by a smooth boundary window that pins x inside [0, 1].  Conductance
interpolates linearly between the off and on limits.

Metastates are realised as points along the pulse response: repeated
identical programming pulses from the bottom anchor visit the chain states
one per pulse.  The anchor is placed so the chain is symmetric about
x = 0.5, which makes a depressing pulse retrace a potentiating one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .synapse import Efficacy, MetaState, UpdateDirection

# Pulse rate constants (k_off = -k_on) for the default pulse shape (1.2 V,
# 15 us, 0.1 us steps) and window (tau = 2.0, p = 2).  The default value
# gives a (high,0)/(low,0) conductance ratio of 4.5; the idealized value
# puts the low plateaus at x = 0.003 and below, so that column currents
# separate high-efficacy counts exactly.
_DEFAULT_K_OFF = 7006346.8122965945
_IDEAL_K_OFF = 34098014.14676426

# Centre of the boundary window.  Only 0.5 makes the window vanish at both
# x = 0 and x = 1, and the chain calibration relies on the window being
# symmetric about it.
_WINDOW_CENTRE = 0.5

# Bisection levels the anchor search evaluates per vector pulse train: one
# train covers all 2**depth - 1 midpoints the next depth steps could visit.
_TREE_DEPTH = 10

# Programming noise is drawn in blocks of whole integration steps of at most
# this many bytes: one draw covers a whole pulse on a few hundred devices,
# while a pulse on many devices never holds its full draw in memory.
_NOISE_BLOCK_BYTES = 1 << 18


class CalibrationError(RuntimeError):
    """Raised when the pulse-train calibration cannot produce a valid chain."""


@dataclass(frozen=True)
class DeviceParams:
    """Physical constants of one memristive device.

    Conductance limits correspond to 100 kOhm (on) and 10 MOhm (off).
    k_off > 0 drives x up for v > v_off; k_on < 0 drives x down for
    v < v_on.  Thickness D only rescales the k constants, so it defaults
    to 1 and x coincides with w.
    """

    g_on: float = 1.0e-5
    g_off: float = 1.0e-7
    v_off: float = 1.0
    v_on: float = -1.0
    k_off: float = _DEFAULT_K_OFF
    k_on: float = -_DEFAULT_K_OFF
    alpha_off: float = 3.0
    alpha_on: float = 3.0
    d_thickness: float = 1.0
    tau: float = 2.0
    p_exp: float = 2.0

    def __post_init__(self) -> None:
        if not self.g_on > self.g_off >= 0.0:
            raise ValueError("need g_on > g_off >= 0")
        if not (self.v_on < 0.0 < self.v_off):
            raise ValueError("need v_on < 0 < v_off")
        if not (self.k_off > 0.0 > self.k_on):
            raise ValueError("need k_off > 0 > k_on")
        if not self.d_thickness > 0.0:
            raise ValueError("need d_thickness > 0")
        if not (self.alpha_off >= 0.0 and self.alpha_on >= 0.0 and self.tau >= 0.0):
            raise ValueError("need alpha_off, alpha_on and tau >= 0")
        # an odd or fractional power breaks the window's symmetry about the
        # centre, which the chain anchor search relies on
        if not (self.p_exp > 0.0 and self.p_exp % 2.0 == 0.0):
            raise ValueError(f"p_exp must be a positive even integer, got {self.p_exp}")

    @classmethod
    def default(cls) -> "DeviceParams":
        return cls()

    @classmethod
    def idealized(cls) -> "DeviceParams":
        """Limit profile for reduction checks: no off-state conduction and a
        chain spread wide enough that column currents count high-efficacy
        devices exactly."""
        return cls(g_off=0.0, k_off=_IDEAL_K_OFF, k_on=-_IDEAL_K_OFF)


@dataclass(frozen=True)
class DeviceState:
    """Normalised internal state of one device."""

    x: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.x <= 1.0:
            raise ValueError(f"x must lie in [0, 1], got {self.x}")


@dataclass(frozen=True)
class PulseSpec:
    """Rectangular programming pulse: amplitude held for duration, integrated
    with fixed steps of width dt."""

    amplitude: float
    duration: float = 15.0e-6
    dt: float = 0.1e-6

    def __post_init__(self) -> None:
        if self.duration <= 0.0 or self.dt <= 0.0:
            raise ValueError("duration and dt must be positive")
        if self.dt > self.duration:
            raise ValueError("dt must not exceed the pulse duration")


@dataclass
class NoiseModel:
    """Multiplicative Gaussian programming noise on each integration step.

    Each step's state increment is scaled by (1 + N(0, sigma)).  The
    generator is created lazily from rng_seed so a run owns one stream.
    """

    sigma: float = 0.25
    enabled: bool = True
    rng_seed: int | np.random.SeedSequence = 0
    _rng: np.random.Generator | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.sigma < 0.0:
            raise ValueError("sigma must be >= 0")

    @property
    def active(self) -> bool:
        return self.enabled and self.sigma > 0.0

    def rng(self) -> np.random.Generator:
        if self._rng is None:
            self._rng = np.random.default_rng(self.rng_seed)
        return self._rng

    @classmethod
    def off(cls) -> "NoiseModel":
        return cls(enabled=False)


def window(x, params: DeviceParams):
    """Boundary window (1 - 4(x - 0.5)^2) / exp(tau (x - 0.5)^p).

    The numerator vanishes exactly at x = 0 and x = 1, so a device parked
    at either end cannot move regardless of drive.
    """
    shifted = np.asarray(x, dtype=float) - _WINDOW_CENTRE
    value = (1.0 - 4.0 * shifted * shifted) * np.exp(-params.tau * shifted**params.p_exp)
    return value if value.ndim else float(value)


def conductance(x, params: DeviceParams):
    """Linear mix of the conduction limits: x*g_on + (1 - x)*g_off."""
    xa = np.asarray(x, dtype=float)
    value = xa * params.g_on + (1.0 - xa) * params.g_off
    return value if value.ndim else float(value)


def _drive(v, params: DeviceParams):
    """The voltage factor of dx/dt: k * (v/v_thresh - 1)^alpha summed over
    both polarities.  Both branch bases are clamped at zero so the inactive
    branch contributes exactly 0."""
    va = np.asarray(v, dtype=float)
    up = params.k_off * np.maximum(va / params.v_off - 1.0, 0.0) ** params.alpha_off
    down = params.k_on * np.maximum(va / params.v_on - 1.0, 0.0) ** params.alpha_on
    return up + down


def state_derivative(x, v, params: DeviceParams):
    """dx/dt under applied voltage v.

    Zero between the thresholds; above v_off (below v_on) the rate scales
    as k * (v/v_thresh - 1)^alpha times the boundary window.
    """
    value = _drive(v, params) * window(x, params) / params.d_thickness
    return value if value.ndim else float(value)


def integrate_pulse(
    x,
    pulse: PulseSpec,
    params: DeviceParams,
    noise: NoiseModel | None = None,
):
    """Drive an array (or scalar) of states through one rectangular pulse.

    Fixed-step two-stage explicit (Heun) integration with the pulse's dt;
    a shorter final step covers any remainder.  The pulse's voltage factor
    is constant, so it is computed once and each stage only evaluates the
    window.  Each step's increment picks up multiplicative noise when
    enabled, drawn step by step from the noise stream in blocks of whole
    steps, and the state is clamped to [0, 1] after every step.
    Sub-threshold drive gives a derivative of exactly zero in both stages,
    so the state is left bit-identical.
    """
    xa = np.asarray(x, dtype=float).copy()
    scalar = xa.ndim == 0
    if scalar:
        xa = xa.reshape(1)
    n_full, remainder = divmod(pulse.duration, pulse.dt)
    steps = [pulse.dt] * int(round(n_full))
    if remainder > 1e-12 * pulse.dt:
        steps.append(remainder)
    drive = _drive(pulse.amplitude, params)

    def rate(xs):
        return drive * window(xs, params) / params.d_thickness

    noisy = noise is not None and noise.active
    block = max(1, _NOISE_BLOCK_BYTES // max(xa.nbytes, 1)) if noisy else len(steps)
    for start in range(0, len(steps), block):
        chunk = steps[start : start + block]
        if noisy:
            gains = noise.rng().standard_normal((len(chunk),) + xa.shape)
            gains *= noise.sigma
            gains += 1.0
        for i, dt in enumerate(chunk):
            k1 = rate(xa)
            k2 = rate(np.clip(xa + k1 * dt, 0.0, 1.0))
            dx = 0.5 * (k1 + k2) * dt
            if noisy:
                dx = dx * gains[i]
            xa = np.clip(xa + dx, 0.0, 1.0)
    return float(xa[0]) if scalar else xa


@dataclass(frozen=True)
class MetastateTable:
    """Calibrated map between chain states and device state plateaus.

    Plateaus ascend along the chain: deepest low metalevel first, then up
    through (low, 0) and (high, 0) to the deepest high metalevel.
    """

    n_levels: int
    plateaus: np.ndarray  # ascending x, length 2*n_levels
    pulse: PulseSpec  # calibrated programming pulse (potentiating sign)

    def __post_init__(self) -> None:
        if len(self.plateaus) != 2 * self.n_levels:
            raise ValueError("need exactly 2*n_levels plateaus")

    def chain_states(self) -> list[MetaState]:
        n = self.n_levels
        lows = [MetaState(Efficacy.LOW, n - 1 - i, n) for i in range(n)]
        highs = [MetaState(Efficacy.HIGH, i, n) for i in range(n)]
        return lows + highs

    def index_of(self, state: MetaState) -> int:
        if state.efficacy is Efficacy.LOW:
            return self.n_levels - 1 - state.metalevel
        return self.n_levels + state.metalevel

    def state_at(self, index: int) -> MetaState:
        n = self.n_levels
        if index < n:
            return MetaState(Efficacy.LOW, n - 1 - index, n)
        return MetaState(Efficacy.HIGH, index - n, n)

    def x_for(self, state: MetaState) -> float:
        return float(self.plateaus[self.index_of(state)])

    def decode_index(self, x):
        """Nearest plateau; exact midpoint ties resolve to the lower plateau."""
        mids = (self.plateaus[1:] + self.plateaus[:-1]) / 2.0
        idx = np.searchsorted(mids, np.asarray(x, dtype=float), side="left")
        return idx if np.ndim(x) else int(idx)

    def verify(self, x, direction: UpdateDirection):
        """Read-verify guard for one chain step: True where the decoded state
        is not already at the chain end the step pushes toward.

        A saturating step must leave the device alone, since the window
        cannot make the end plateaus both absorbing and one-pulse
        reversible; the pulse is withheld there instead.
        """
        end = 2 * self.n_levels - 1 if direction is UpdateDirection.POTENTIATE else 0
        return self.decode_index(x) != end

    def pulse_for(self, direction: UpdateDirection) -> PulseSpec:
        """The calibrated programming pulse with the polarity of direction."""
        return replace(self.pulse, amplitude=direction.value * abs(self.pulse.amplitude))


def decode_metastate(state: DeviceState | float, table: MetastateTable) -> MetaState:
    x = state.x if isinstance(state, DeviceState) else float(state)
    return table.state_at(table.decode_index(x))


def _pulse_train(x0: np.ndarray, count: int, pulse: PulseSpec, params: DeviceParams) -> np.ndarray:
    """Noise-free plateau sequences of many starting states at once: row 0
    is x0, row i the states after i pulses."""
    out = np.empty((count + 1,) + x0.shape)
    out[0] = x0
    for i in range(count):
        out[i + 1] = integrate_pulse(out[i], pulse, params, None)
    return out


def _find_anchor(n_levels: int, pulse: PulseSpec, params: DeviceParams) -> float:
    """Bottom-of-chain state such that 2n-1 pulses end at its mirror image.

    The window is symmetric about x = 0.5, so anchoring the train this way
    yields a chain symmetric about 0.5 and a depressing pulse of equal
    magnitude retraces one potentiating step.  Solved by bisection; the
    mismatch g(x0) = train(x0) - (1 - x0) is increasing in x0.

    Each round evaluates the whole tree of midpoints the next _TREE_DEPTH
    bisection steps could visit in one vector pulse train, then walks it by
    the signs.  Every midpoint is the same 0.5 * (lo + hi) of the same
    bounds, and the pulse kernel is elementwise, so the walk takes the
    scalar bisection's path and returns its anchor bit for bit.
    """
    span = 2 * n_levels - 1

    def mismatch(x0: np.ndarray) -> np.ndarray:
        return _pulse_train(x0, span, pulse, params)[-1] - (1.0 - x0)

    lo, hi = 1.0e-30, 0.5
    g_hi, g_lo = mismatch(np.array([hi, lo]))
    if g_hi < 0.0:
        raise CalibrationError("pulse too weak: chain does not span the midpoint")
    if g_lo > 0.0:
        raise CalibrationError("pulse too strong: chain collapses to the ends")
    steps = 0
    while steps < 200:
        # the tree in heap order: node i's lower half is node 2i + 1 and its
        # upper half node 2i + 2, so level l starts at node 2**l - 1
        levels, los, his = [], np.array([lo]), np.array([hi])
        for _ in range(_TREE_DEPTH):
            mids = 0.5 * (los + his)
            levels.append(mids)
            los = np.stack([los, mids], axis=1).ravel()
            his = np.stack([mids, his], axis=1).ravel()
        below = mismatch(np.concatenate(levels)) < 0.0
        node = 0
        for _ in range(min(_TREE_DEPTH, 200 - steps)):
            steps += 1
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                return hi
            if below[node]:
                lo, node = mid, 2 * node + 2
            else:
                hi, node = mid, 2 * node + 1
    return hi


@functools.lru_cache(maxsize=128)
def _calibrated_table(params: DeviceParams, n_levels: int, pulse: PulseSpec) -> MetastateTable:
    """The plateau table of one device, chain length and pulse, computed
    once per process.  Its plateaus are read-only because every caller
    shares them; a failed calibration raises and is not cached."""
    anchor = _find_anchor(n_levels, pulse, params)
    plateaus = _pulse_train(np.array(anchor), 2 * n_levels - 1, pulse, params)
    if not np.all(np.diff(plateaus) > 0.0):
        raise CalibrationError("plateaus are not strictly increasing")
    # the window vanishes on the rails, so no pulse could move a device there
    if not (0.0 < plateaus[0] and plateaus[-1] < 1.0):
        raise CalibrationError("a plateau lies on a rail of the state range")
    plateaus.flags.writeable = False
    return MetastateTable(n_levels=n_levels, plateaus=plateaus, pulse=pulse)


def calibrate_metastate_table(
    params: DeviceParams,
    n_levels: int = 3,
    pulse: PulseSpec | None = None,
    ratio_bounds: tuple[float, float] | None = (3.5, 5.5),
) -> MetastateTable:
    """Derive the plateau table from a noise-free train of programming pulses.

    Starting at the bottom anchor, each pulse lands on the next plateau, so
    the chain adjacency holds for potentiation by construction.  Fails when
    the plateaus are not strictly increasing, when one lies on a rail
    (x = 0 or 1), or when the conductance ratio between (high, 0) and
    (low, 0) leaves ratio_bounds.

    The table is memoized per process on (params, n_levels, pulse): repeat
    calls return the same table, whose plateaus are shared and read-only.
    ratio_bounds is checked on every call.
    """
    if n_levels < 1:
        raise CalibrationError(f"n_levels must be >= 1, got {n_levels}")
    if pulse is None:
        pulse = PulseSpec(amplitude=1.2)
    if pulse.amplitude <= params.v_off:
        raise CalibrationError("programming amplitude must exceed v_off")
    table = _calibrated_table(params, n_levels, pulse)
    if ratio_bounds is not None:
        ratio = metastate_ratio(table, params)
        if not ratio_bounds[0] <= ratio <= ratio_bounds[1]:
            raise CalibrationError(
                f"conductance ratio {ratio:.3f} outside {ratio_bounds}"
            )
    return table


def flip_conductances(table: MetastateTable, params: DeviceParams) -> tuple[float, float]:
    """Conductances of the (low, 0) and (high, 0) plateaus, the two states an
    efficacy flip moves between."""
    n = table.n_levels
    g_low = conductance(table.x_for(MetaState(Efficacy.LOW, 0, n)), params)
    g_high = conductance(table.x_for(MetaState(Efficacy.HIGH, 0, n)), params)
    return g_low, g_high


def metastate_ratio(table: MetastateTable, params: DeviceParams) -> float:
    """Conductance ratio between the (high, 0) and (low, 0) plateaus."""
    g_low, g_high = flip_conductances(table, params)
    return float(g_high / g_low)


def program_transition(
    state: DeviceState,
    direction: UpdateDirection,
    params: DeviceParams,
    table: MetastateTable,
    noise: NoiseModel | None = None,
) -> DeviceState:
    """Program one chain step on one device, as the crossbar does on many.

    The device is read first (:meth:`MetastateTable.verify`); a step that
    would saturate at a chain end leaves the state untouched.  Otherwise one
    programming pulse of the calibrated shape and polarity is applied.
    """
    if not table.verify(state.x, direction):
        return state
    return DeviceState(x=integrate_pulse(state.x, table.pulse_for(direction), params, noise))
