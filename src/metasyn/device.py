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

import contextlib
import functools
import math
import threading
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .synapse import MetaState, UpdateDirection, _clamp_unit, chain_index, chain_state

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

# Starting states the anchor search evaluates per round, in one vector pulse
# train: a train on a few hundred devices costs about as much as on one.
_CANDIDATES = 255
# Every round keeps the whole tree below the bracket for as many levels as
# fill a quarter of the candidates (6), so that a wrong root estimate still
# advances the walk by that many steps.
_FULL_LEVELS = (_CANDIDATES // 4 + 1).bit_length() - 1

# Programming noise is drawn in blocks of whole integration steps of at most
# this many bytes: one draw covers a whole pulse on a few hundred devices,
# while a pulse on many devices never holds its full draw in memory.
_NOISE_BLOCK_BYTES = 1 << 18
# A noisy call on at least this many devices draws its blocks on a producer
# thread while the Heun steps run; below it the handoff costs more than the
# overlap saves (measured crossover: 3-4k devices on 2 vCPUs).
_DRAW_AHEAD_DEVICES = 4096
# Blocks queued between the producer and the integrator: with the block being
# drawn and the block in use, a call holds at most four blocks (1 MiB).
_DRAW_AHEAD_BLOCKS = 2

# A pulse call in which one noise model feeds two segments holds the earlier
# segment's whole draw; past this budget the call programs in two passes.
_HELD_NOISE_BYTES = 1 << 21


class CalibrationError(RuntimeError):
    """Raised when the pulse-train calibration cannot produce a valid chain."""


@dataclass(frozen=True)
class DeviceParams:
    """Physical constants of one memristive device.

    Conductance limits correspond to 100 kOhm (on) and 10 MOhm (off).
    k_off > 0 drives x up for v > v_off; k_on < 0 drives x down for
    v < v_on.  The state x is w/D, and the thickness D only rescales the
    k constants, so it is folded into them.
    """

    g_on: float = 1.0e-5
    g_off: float = 1.0e-7
    v_off: float = 1.0
    v_on: float = -1.0
    k_off: float = _DEFAULT_K_OFF
    k_on: float = -_DEFAULT_K_OFF
    alpha_off: float = 3.0
    alpha_on: float = 3.0
    tau: float = 2.0
    p_exp: float = 2.0

    def __post_init__(self) -> None:
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if not self.g_on > self.g_off >= 0.0:
            raise ValueError("need g_on > g_off >= 0")
        if not (self.v_on < 0.0 < self.v_off):
            raise ValueError("need v_on < 0 < v_off")
        if not (self.k_off > 0.0 > self.k_on):
            raise ValueError("need k_off > 0 > k_on")
        # at alpha = 0 the drive k * max(v / v_thresh - 1, 0) ** alpha is k
        # below threshold too, since 0 ** 0 == 1
        for name in ("alpha_off", "alpha_on"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if not self.tau >= 0.0:
            raise ValueError(f"tau must be >= 0, got {self.tau}")
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
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.duration <= 0.0 or self.dt <= 0.0:
            raise ValueError("duration and dt must be positive")
        if self.dt > self.duration:
            raise ValueError("dt must not exceed the pulse duration")


@dataclass
class NoiseModel:
    """Multiplicative Gaussian programming noise on each integration step.

    Each step's state increment is scaled by (1 + N(0, sigma)); sigma = 0 is
    noise off.  The generator is created lazily from rng_seed.  A hardware
    run takes a model without rng_seed and draws from a copy bound to its
    own seed's noise stream, so one model serves many runs; rng_seed is for
    direct kernel calls.
    """

    sigma: float = 0.25
    rng_seed: int | np.random.SeedSequence | None = None
    _rng: np.random.Generator | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        # written so that NaN fails too, instead of reading as noise off
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")

    @property
    def active(self) -> bool:
        return self.sigma > 0.0

    def rng(self) -> np.random.Generator:
        if self._rng is None:
            if self.rng_seed is None:
                raise ValueError(
                    "noise model has no rng_seed: set one, or leave it unset and "
                    "let a crossbar bind the model to its run's noise stream"
                )
            self._rng = np.random.default_rng(self.rng_seed)
        return self._rng

    @classmethod
    def off(cls) -> "NoiseModel":
        return cls(sigma=0.0)


def window(x, params: DeviceParams):
    """Boundary window (1 - 4(x - 0.5)^2) / exp(tau (x - 0.5)^p).

    The numerator vanishes exactly at x = 0 and x = 1, so a device parked
    at either end cannot move regardless of drive.
    """
    xa = np.asarray(x, dtype=float)
    scratch = (np.empty_like(xa) for _ in range(3))
    value = _window_into(xa, -params.tau, params.p_exp, params.p_exp == 2.0, *scratch)
    return value if value.ndim else float(value)


# As ufunc operands, 0-d arrays cost numpy less per call than Python floats
# of the same value, and give the same bits.
_HALF, _ONE, _FOUR, _CENTRE = (np.array(v) for v in (0.5, 1.0, 4.0, _WINDOW_CENTRE))


def _window_into(x, neg_tau, p_exp, square, out, shifted, tmp):
    """window() of x into out, with neg_tau = -tau and scratch arrays shifted, tmp.

    square says p_exp == 2: then s = x - 0.5 is squared once for both terms.
    That gives the same bits, since s is 0 or at least 2**-54 in magnitude,
    so 4 * (s * s) == (4 * s) * s, and s * s is what power(s, 2) returns.
    """
    np.subtract(x, _CENTRE, out=shifted)
    if square:
        np.multiply(shifted, shifted, out=tmp)
        np.multiply(_FOUR, tmp, out=out)
    else:
        np.multiply(_FOUR, shifted, out=out)
        np.multiply(out, shifted, out=out)
        np.power(shifted, p_exp, out=tmp)
    np.subtract(_ONE, out, out=out)
    np.multiply(neg_tau, tmp, out=tmp)
    np.exp(tmp, out=tmp)
    return np.multiply(out, tmp, out=out)


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


def integrate_pulse(
    x,
    pulse: PulseSpec,
    params: DeviceParams,
    noise: NoiseModel | list[tuple] | None = None,
):
    """Drive an array (or scalar) of states through one rectangular pulse.

    Fixed-step two-stage explicit (Heun) integration with the pulse's dt;
    a shorter final step covers any remainder.  The voltage factor is
    computed once per device, and each stage only evaluates the window, in
    preallocated work arrays.  Each step's increment picks up multiplicative
    noise when active, drawn step by step from the noise stream in blocks
    of whole steps, and the state is clamped to [0, 1] after every step.
    Sub-threshold drive gives a derivative of exactly zero in both stages,
    so the state is left bit-identical.

    noise is None, one model, or a list of (model, count, amplitude)
    segments that split the flattened states in order: one call can program
    several runs, each on its own noise stream, at either polarity.  One
    model is one segment at pulse.amplitude.  Each block draws (steps,
    count) from every active segment's stream; a segment without active
    noise gets a gain of exactly 1.  A segment whose model also feeds a
    later segment draws its whole pulse up front instead (8 bytes per device
    and step); past _HELD_NOISE_BYTES for them all, the segments up to the
    last held one go as a first pass of this function, the rest as a second.
    So every segment gets the numbers a call on its devices alone would
    draw, one call per segment in order.

    A noisy call on at least _DRAW_AHEAD_DEVICES devices builds its noise
    blocks on a producer thread (:func:`_drawn_ahead`) while this thread
    integrates the block before; smaller calls, where the handoff would cost
    more than the overlap saves, build each block in the loop.  The held
    draws happen here, before the producer starts, and the producer builds
    the blocks in order, so every stream yields the same numbers in the same
    order and the output is the same bit for bit.
    """
    xa = np.array(x, dtype=float)
    shape = xa.shape
    xa = xa.reshape(-1)
    segments = noise if isinstance(noise, list) else [(noise, xa.size, pulse.amplitude)]
    counts = [count for _, count, _ in segments]
    if sum(counts) != xa.size:
        raise ValueError("noise segment counts must add up to the number of states")
    n_full, remainder = divmod(pulse.duration, pulse.dt)
    steps = [np.array(pulse.dt)] * int(round(n_full))  # 0-d, like the constants
    if remainder > 1e-12 * pulse.dt:
        steps.append(np.array(remainder))
    models = [m if m is not None and m.active else None for m, _, _ in segments]
    last = {id(m): i for i, m in enumerate(models) if m is not None}
    held = [i for i, m in enumerate(models) if last.get(id(m), i) > i]
    if 8 * len(steps) * sum(counts[i] for i in held) > _HELD_NOISE_BYTES:
        cut = held[-1] + 1
        passes = zip(np.split(xa, [sum(counts[:cut])]), (segments[:cut], segments[cut:]))
        xa = np.concatenate([integrate_pulse(xs, pulse, params, s) for xs, s in passes if xs.size])
        return float(xa[0]) if not shape else xa.reshape(shape)
    drive = np.repeat([_drive(amplitude, params) for _, _, amplitude in segments], counts)

    def draw(model: NoiseModel, n_steps: int, count: int) -> np.ndarray:
        gains = model.rng().standard_normal((n_steps, count))
        return np.add(np.multiply(gains, model.sigma, out=gains), 1.0, out=gains)

    held_draws = {i: draw(models[i], len(steps), counts[i]) for i in held}
    k1, k2, y, shifted, tmp = (np.empty_like(xa) for _ in range(5))
    neg_tau, p_exp = np.array(-params.tau), np.array(params.p_exp)
    square = params.p_exp == 2.0  # decided once per call: see _window_into

    def rate(xs, out):
        _window_into(xs, neg_tau, p_exp, square, out, shifted, tmp)
        return np.multiply(drive, out, out=out)

    noisy = any(m is not None for m in models)
    block = max(1, _NOISE_BLOCK_BYTES // max(xa.nbytes, 1)) if noisy else len(steps)
    starts = range(0, len(steps), block)

    def gains_for(start: int) -> np.ndarray:
        n_steps = len(steps[start : start + block])
        parts = [
            held_draws[i][start : start + n_steps] if i in held_draws
            else np.ones((n_steps, counts[i])) if m is None
            else draw(m, n_steps, counts[i])
            for i, m in enumerate(models)
        ]
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)

    if not noisy:
        blocks = contextlib.nullcontext([None])
    elif xa.size < _DRAW_AHEAD_DEVICES:
        blocks = contextlib.nullcontext(map(gains_for, starts))
    else:
        blocks = _drawn_ahead(gains_for, starts)
    with blocks as gains_blocks:
        for start, gains in zip(starts, gains_blocks):
            for i, dt in enumerate(steps[start : start + block]):
                rate(xa, k1)
                np.multiply(k1, dt, out=y)
                _clamp_unit(np.add(xa, y, out=y))
                rate(y, k2)
                np.add(k1, k2, out=k1)
                np.multiply(_HALF, k1, out=k1)
                np.multiply(k1, dt, out=k1)
                if gains is not None:
                    np.multiply(k1, gains[i], out=k1)
                _clamp_unit(np.add(xa, k1, out=xa))
    return float(xa[0]) if not shape else xa.reshape(shape)


@contextlib.contextmanager
def _drawn_ahead(make, args: range):
    """Yield an iterator over make(a) for each a in args, built in order on a
    producer thread at most _DRAW_AHEAD_BLOCKS items ahead.

    numpy releases the interpreter lock inside standard-normal fills and long
    ufunc loops, so the producer's draws overlap the consumer's arithmetic.
    An error raised in the producer is raised again in the consumer, and
    leaving the block stops and joins the producer, on success or on error.
    """
    import queue

    handoff = queue.Queue(maxsize=_DRAW_AHEAD_BLOCKS)
    stop = threading.Event()

    def produce():
        try:
            for a in args:
                if stop.is_set():
                    return
                handoff.put(make(a))
        except BaseException as exc:  # handed to the consumer, which raises it
            handoff.put(exc)

    def consume():
        for _ in args:
            item = handoff.get()
            if isinstance(item, BaseException):
                raise item
            yield item

    producer = threading.Thread(target=produce, name="metasyn-noise", daemon=True)
    producer.start()
    try:
        yield consume()
    finally:
        stop.set()
        # after stop is set the producer puts at most one more item, which
        # the emptied queue takes without blocking
        with contextlib.suppress(queue.Empty):
            while True:
                handoff.get_nowait()
        producer.join()


@dataclass(frozen=True)
class MetastateTable:
    """Calibrated map between chain states and device state plateaus.

    Plateaus ascend along the chain, so plateau i realises chain index i
    (:func:`~metasyn.synapse.chain_index`): deepest low metalevel first, then
    up through (low, 0) and (high, 0) to the deepest high metalevel.
    """

    n_levels: int
    plateaus: np.ndarray  # ascending x, length 2*n_levels
    pulse: PulseSpec  # calibrated programming pulse (potentiating sign)

    def __post_init__(self) -> None:
        if len(self.plateaus) != 2 * self.n_levels:
            raise ValueError("need exactly 2*n_levels plateaus")

    def x_for(self, state: MetaState) -> float:
        return float(self.plateaus[chain_index(state)])

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
    return chain_state(table.decode_index(x), table.n_levels)


def _pulse_train(x0: np.ndarray, count: int, pulse: PulseSpec, params: DeviceParams) -> np.ndarray:
    """Noise-free plateau sequences of many starting states at once: row 0
    is x0, row i the states after i pulses."""
    out = np.empty((count + 1,) + x0.shape)
    out[0] = x0
    for i in range(count):
        out[i + 1] = integrate_pulse(out[i], pulse, params, None)
    return out


def _tree_nodes(lo: float, hi: float, window: tuple[float, float]) -> np.ndarray:
    """Midpoints of the bisection tree below the bracket [lo, hi], ascending:
    every node of the first _FULL_LEVELS levels, then every node whose
    interval meets window, level by level while at most _CANDIDATES fit.

    A node's interval lies inside its parent's, so a node meeting the window
    has a kept parent.  A node whose midpoint rounds onto a bound is left
    out, since the bisection stops there.
    """
    los, his, levels, total = np.array([lo]), np.array([hi]), [], 0
    while True:
        mids = 0.5 * (los + his)
        keep = (los < mids) & (mids < his)
        if len(levels) >= _FULL_LEVELS:
            keep &= (window[0] <= his) & (los <= window[1])
        los, his, mids = los[keep], his[keep], mids[keep]
        if not mids.size or total + mids.size > _CANDIDATES:
            return np.sort(np.concatenate(levels)) if levels else mids
        levels.append(mids)
        total += mids.size
        los = np.stack([los, mids], axis=1).ravel()
        his = np.stack([mids, his], axis=1).ravel()


def _root_window(xs: np.ndarray, gs: np.ndarray, i: int) -> tuple[float, float]:
    """Where the mismatch's sign change inside the bracket [xs[i], xs[i + 1]]
    is expected: around the inverse interpolation x(g = 0) through the
    bracket and its nearest evaluated neighbours.

    The half-width is twice the change from the 3-point to the 4-point
    estimate, but at least eight rounding units of g over the slope, since
    the sign is only resolved to that.  An estimate that fails gives the
    whole bracket.
    """
    near = [j for j in (i, i + 1, i - 1, i + 2) if 0 <= j < xs.size]
    x, g = [float(xs[j]) for j in near], [float(gs[j]) for j in near]
    lo, hi, slope = x[0], x[1], (g[1] - g[0]) / (x[1] - x[0])
    estimates = []
    try:  # Neville's scheme: x[j] becomes the estimate through points j..j+k
        for k in range(1, len(x)):
            for j in range(len(x) - k):
                x[j] = (g[j + k] * x[j] - g[j] * x[j + 1]) / (g[j + k] - g[j])
            estimates.append(x[0])
    except ZeroDivisionError:
        return lo, hi
    root = min(max(estimates[-1], lo), hi)
    width = max(2.0 * abs(estimates[-1] - estimates[-2]), 8.0 * np.spacing(1.0) / slope)
    return (root - width, root + width) if math.isfinite(width) else (lo, hi)


def _find_anchor(n_levels: int, pulse: PulseSpec, params: DeviceParams) -> np.ndarray:
    """The noise-free pulse train from the bottom-of-chain state whose 2n-1
    pulses end at its mirror image: row 0 is that anchor, row i the state
    after i pulses.

    The window is symmetric about x = 0.5, so anchoring the train this way
    yields a chain symmetric about 0.5 and a depressing pulse of equal
    magnitude retraces one potentiating step.  Solved by bisection; the
    mismatch g(x0) = train(x0) - (1 - x0) is increasing in x0.

    The search runs in speculative rounds.  Each round evaluates, in one
    vector pulse train, the bisection midpoints the walk may visit next: the
    first levels of the tree below the current bracket, and deeper nodes
    whose intervals meet a window around a root estimate interpolated from
    the mismatches evaluated so far (:func:`_root_window`).  Round 1 has no
    estimate: it holds both bracket ends and the whole tree to the budget.
    The scalar bisection then walks on, committing a step only at an
    evaluated midpoint, and the round ends at the first one not evaluated.
    Every midpoint is the same 0.5 * (lo + hi) of the same bounds, and the
    pulse kernel is elementwise, so the walk takes the scalar bisection's
    path, returns its anchor bit for bit, and the anchor's train is a
    column of the round that evaluated it.
    """
    span = 2 * n_levels - 1
    lo, hi = 1.0e-30, 0.5
    xs, gs = np.empty(0), np.empty(0)  # every evaluated start, ascending, and its mismatch
    window, steps = (lo, hi), 0
    while True:
        starts = _tree_nodes(lo, hi, window)
        if not xs.size:
            starts = np.concatenate([[lo], starts, [hi]])
        train = _pulse_train(starts, span, pulse, params)
        mismatch = train[-1] - (1.0 - starts)
        if not xs.size:
            if mismatch[-1] < 0.0:
                raise CalibrationError("pulse too weak: chain does not span the midpoint")
            if mismatch[0] > 0.0:
                raise CalibrationError("pulse too strong: chain collapses to the ends")
            anchor = train[:, -1]
        xs, gs = np.concatenate([xs, starts]), np.concatenate([gs, mismatch])
        order = np.argsort(xs, kind="stable")
        xs, gs = xs[order], gs[order]
        while steps < 200 and (mid := 0.5 * (lo + hi)) not in (lo, hi):
            i = int(np.searchsorted(xs, mid))
            if i == xs.size or xs[i] != mid:
                break
            steps += 1
            if gs[i] < 0.0:
                lo = mid
            else:
                hi, anchor = mid, train[:, np.searchsorted(starts, mid)]
        else:
            return anchor.copy()
        window = _root_window(xs, gs, int(np.searchsorted(xs, lo)))


@functools.lru_cache(maxsize=128)
def _calibrated_table(params: DeviceParams, n_levels: int, pulse: PulseSpec) -> MetastateTable:
    """The plateau table of one device, chain length and pulse, computed
    once per process.  Its plateaus are read-only because every caller
    shares them; a failed calibration raises and is not cached."""
    plateaus = _find_anchor(n_levels, pulse, params)
    rising = np.diff(plateaus) > 0.0
    if not np.all(rising):
        i, x = int(np.argmin(rising)), plateaus.tolist()
        raise CalibrationError(
            f"plateaus are not strictly increasing at n_levels = {n_levels}: plateau {i} "
            f"(x = {x[i]!r}) is not below plateau {i + 1} (x = {x[i + 1]!r})"
        )
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
    if -pulse.amplitude >= params.v_on:
        raise CalibrationError("programming amplitude must exceed -v_on")
    table = _calibrated_table(params, n_levels, pulse)
    if ratio_bounds is not None:
        ratio = metastate_ratio(table, params)
        if not ratio_bounds[0] <= ratio <= ratio_bounds[1]:
            raise CalibrationError(
                f"conductance ratio {ratio:.3f} outside {ratio_bounds}"
            )
    return table


def flip_conductances(table: MetastateTable, params: DeviceParams) -> tuple[float, float]:
    """Conductances of the (low, 0) and (high, 0) plateaus, chain indices
    n - 1 and n, the two states an efficacy flip moves between."""
    n = table.n_levels
    return conductance(table.plateaus[n - 1], params), conductance(table.plateaus[n], params)


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
