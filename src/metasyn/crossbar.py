"""Hardware twin of the behavioral network on a memristive crossbar.

Inputs drive rows through ideal diodes, so only active rows inject current.
Every crosspoint holds a device: connected synapses sit on calibrated
metastate plateaus, pruned ones are parked at x = 0 where they still leak
the off conductance under read.  Column neurons are current comparators
against one fixed reference current, calibrated at construction.  Training
runs the behavioral network's correction step, whose step rule here is one
read-verified programming pulse per selected device; unselected rows are
held at half the programming voltage, which is below the device threshold
and therefore moves nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .device import (
    DeviceParams,
    MetastateTable,
    NoiseModel,
    calibrate_metastate_table,
    conductance,
    flip_conductances,
    integrate_pulse,
)
from .network import (
    AccuracyTrace,
    BehavioralNetwork,
    Model,
    NetworkConfig,
    Pattern,
    _check_n_patterns,
    correct_pattern,
    lifetime_loop,
    make_pattern_set,
    seed_streams,
)
from .synapse import UpdateDirection

_V_READ = 0.3  # volts on every column read; below v_off, so a read moves nothing


class ComparatorMode(str, Enum):
    FIXED_REFERENCE = "fixed_reference"


@dataclass(frozen=True)
class ComparatorConfig:
    """Decision rule of the column neurons.

    FixedReference, the only mode, holds each column against one current
    level, calibrated at crossbar init to separate theta from theta + 1
    active high-efficacy synapses on the expected background of active
    low-efficacy devices and pruned leakage.  A fixed level preserves the
    analog margin a trained pattern leaves between its column current and
    the reference, so at the idealized device the crossbar retains patterns
    as long as the abstract model does.  At the default device the two views
    differ (README, "The two views at the default device").
    """

    mode: ComparatorMode = ComparatorMode.FIXED_REFERENCE

    def __post_init__(self) -> None:
        ComparatorMode(self.mode)


@dataclass
class EventLog:
    """Device programming events of one crossbar, stored by column.

    Each programming phase appends one block (step, phase, rows, cols,
    x_before, x_after, index_before, index_after) whose arrays hold one
    entry per programmed device; the indices are the decoded chain states.
    len() is the number of events.
    """

    blocks: list[tuple] = field(default_factory=list)

    def __len__(self) -> int:
        return sum(block[2].size for block in self.blocks)

    def rows(self):
        """The events one by one, as (step, phase, row, col, x_before,
        x_after, index_before, index_after) with Python scalars."""
        for step, phase, *columns in self.blocks:
            for values in zip(*(c.tolist() for c in columns)):
                yield (step, phase, *values)


def _require_crossbar_model(cfg: NetworkConfig) -> None:
    if cfg.model is Model.GRADIENT:
        raise ValueError("the gradient model has no crossbar realization")


class Crossbar:
    """Device matrix plus read/program circuitry parameters: the hardware twin
    of a binary or multistate behavioral network, with its mask, its train
    stream and one device per crosspoint, connected ones on the plateau of
    their chain index and pruned ones at x = 0.  The metastate table is the
    device's calibration for the twin's level count.  Noise is drawn from a
    copy of the given model on the run's own noise stream, so the model must
    leave rng_seed unset; the caller's model never draws."""

    def __init__(
        self,
        net: BehavioralNetwork,
        params: DeviceParams,
        noise: NoiseModel | None = None,
    ):
        _require_crossbar_model(net.cfg)  # before the calibration, which costs most
        table = calibrate_metastate_table(params, n_levels=net.cfg.effective_levels)
        if not _V_READ < params.v_off:
            raise ValueError(f"v_off must exceed the {_V_READ} V read voltage, got {params.v_off}")
        self.v_half = abs(table.pulse.amplitude) / 2.0
        if not self.v_half < params.v_off:
            raise ValueError("half-select voltage must stay below v_off")
        if noise is not None:
            if not isinstance(noise, NoiseModel):  # catches a read voltage passed positionally
                raise TypeError(f"noise must be a NoiseModel or None, got {noise!r}")
            if noise.rng_seed is not None:
                raise ValueError(
                    "a hardware run draws noise from its own seed's stream, so its "
                    "noise model must leave rng_seed unset"
                )
            noise = replace(noise, rng_seed=seed_streams(net.cfg.seed)["noise"])
        self.noise = noise
        self.cfg, self.mask, self.train_rng = net.cfg, net.mask, net.train_rng
        self.x = np.where(net.mask, table.plateaus[net.state], 0.0)
        self.params = params
        self.table = table
        self.v_read = _V_READ
        # The reference operating point is resolved once, at the initial
        # state; at extreme connectivity/activity corners it may lie beyond
        # any current a column can reach.
        self.i_ref = reference_current_level(table, params, net.cfg)

    # ---- read path -----------------------------------------------------

    def column_currents_batch(self, inputs: np.ndarray) -> np.ndarray:
        """I_j = v_read * sum of G over active rows, one row of currents per
        input row; inactive rows are blocked by their diode and contribute
        exactly zero."""
        return self.v_read * (inputs.astype(np.float64) @ conductance(self.x, self.params))

    def infer_batch(self, inputs: np.ndarray) -> np.ndarray:
        """Every column compared against the one reference current."""
        return (self.column_currents_batch(inputs) > self.i_ref).astype(np.uint8)

    # ---- program path ----------------------------------------------------

    def train_two_phase(
        self,
        pat: Pattern,
        log: EventLog | None = None,
        step: int = 0,
    ) -> None:
        """One training presentation on this crossbar alone: the one-run
        view of :func:`train_lockstep`."""
        train_lockstep([self], [pat], log=log, step=step)


def train_lockstep(
    crossbars: Sequence[Crossbar],
    pats: Sequence[Pattern],
    log: EventLog | None = None,
    step: int = 0,
) -> None:
    """One training presentation per crossbar through :func:`correct_pattern`,
    crossbar k on pats[k], all in lockstep: potentiation phase on +1-error
    columns, then depression phase on -1-error columns, with inactive rows
    held at v_half.

    Each round programs both phases' read-verified devices of every
    crossbar with one :func:`integrate_pulse` call, whose segments carry
    their phase's polarity and their crossbar's own noise stream, so every
    crossbar ends where it would alone.  The phases select disjoint columns,
    so both guards are read first.  A round that programs no device makes
    no call.

    The crossbars must share device params, and so the programming pulse;
    each crossbar draws from its own copy of the noise model it was built
    with.  The event log records one crossbar's events, one block per phase,
    so it needs a single crossbar.
    """
    if not crossbars or len(pats) != len(crossbars):
        raise ValueError(
            "train_lockstep takes one pattern per crossbar and at least one crossbar, "
            f"got {len(crossbars)} crossbars and {len(pats)} patterns"
        )
    if log is not None and len(crossbars) != 1:
        raise ValueError("an event log records the events of one crossbar")
    if len({xb.params for xb in crossbars}) > 1:
        raise ValueError("crossbars in lockstep must share device params")
    table, params = crossbars[0].table, crossbars[0].params
    decode = table.decode_index

    def pulse(phases: list[tuple[UpdateDirection, list[np.ndarray | None]]]) -> None:
        segments = []  # (direction, crossbar, guard, x before), phase by phase
        for direction, selects in phases:
            for xb, sel in zip(crossbars, selects):
                guard = np.zeros_like(xb.mask)
                if sel is not None:
                    guard[sel] = xb.table.verify(xb.x[sel], direction)
                segments.append((direction, xb, guard, xb.x[guard]))
        befores = [before for *_, before in segments]
        if not any(before.size for before in befores):
            return
        noise = [(xb.noise, b.size, table.pulse_for(d).amplitude) for d, xb, _, b in segments]
        after = integrate_pulse(np.concatenate(befores), table.pulse, params, noise)
        afters = np.split(after, np.cumsum([before.size for before in befores])[:-1])
        for (direction, xb, guard, before), xs in zip(segments, afters):
            xb.x[guard] = xs
            if log is not None and before.size:
                block = (*np.nonzero(guard), before, xs, decode(before), decode(xs))
                log.blocks.append((step, direction.name.lower(), *block))

    correct_pattern(crossbars, lambda k, rows: crossbars[k].infer_batch(rows), pulse, pats)


def reference_current_level(
    table: MetastateTable, params: DeviceParams, cfg: NetworkConfig
) -> float:
    """Column current that separates theta from theta+1 active high synapses.

    A column at the firing margin does not carry high-device current alone:
    the remaining active connected devices conduct at the low plateau and
    every active pruned crosspoint leaks the off conductance.  The reference
    therefore sits floor(theta) + 1/2 conductance gaps above that expected
    background: count > theta holds exactly when count > floor(theta) + 1/2,
    so at the idealized device the decision matches the behavioral model's
    strict rule for any theta.  At the default device the background varies
    per column by about +-0.66 gaps and the deep plateaus read 1.24-1.27
    gaps (README, "The two views at the default device").
    """
    g_low, g_high = flip_conductances(table, params)
    n_active = cfg.n_ones_in
    density = cfg.n_connected / (cfg.n_in * cfg.n_out)
    active_connected = n_active * density
    active_pruned = n_active - active_connected
    background = active_connected * g_low + active_pruned * params.g_off
    return _V_READ * ((np.floor(cfg.theta) + 0.5) * (g_high - g_low) + background)


def init_crossbar(
    cfg: NetworkConfig,
    params: DeviceParams | None = None,
    noise: NoiseModel | None = None,
) -> Crossbar:
    """Build a crossbar mirroring the behavioral network's initial state.

    The crossbar is the twin of the config's freshly initialized behavioral
    network, so both paths start from identical synapses and draw their q
    gates from the same stream.
    """
    if params is None:
        params = DeviceParams.default()
    return Crossbar(BehavioralNetwork.initialize(cfg), params, noise)


_LOCKSTEP_STATE_BYTES = 1 << 21  # one 512x512 run, or 16 runs at 128x128


def _lockstep_groups(cfgs: list[NetworkConfig]) -> list[list[NetworkConfig]]:
    """Consecutive runs grouped so that each group's device state (a float64
    per crosspoint) fits _LOCKSTEP_STATE_BYTES; a larger run goes alone."""
    groups, used = [], _LOCKSTEP_STATE_BYTES
    for cfg in cfgs:
        size = 8 * cfg.n_in * cfg.n_out
        if used + size > _LOCKSTEP_STATE_BYTES:
            groups.append([])
            used = 0
        groups[-1].append(cfg)
        used += size
    return groups


def run_lifetime_hw(
    cfg: NetworkConfig | Sequence[NetworkConfig],
    n_patterns: int = 100,
    params: DeviceParams | None = None,
    comparator: ComparatorConfig | None = None,
    noise: NoiseModel | None = NoiseModel(),
    event_log: EventLog | None = None,
) -> AccuracyTrace | list[AccuracyTrace]:
    """Hardware lifetime run under the same protocol as the behavioral path.

    Patterns and the initial synapse assignment are identical to the
    behavioral run with the same config; only inference and updates go
    through the device model.  Every crossbar draws its noise from the
    noise stream of its own config's seed, at the sigma of ``noise``: the
    default is 0.25, and None or sigma = 0 turns noise off.  comparator
    names the column decision rule; its only mode, the fixed reference, is
    the one every crossbar uses.

    Given a sequence of configs, the runs go in the lockstep groups of
    :func:`_lockstep_groups`, one lifetime loop of :func:`train_lockstep` per
    group, and no group's crossbars are built before the last group's are
    dropped.  One trace per config comes back, in config order, equal to the
    trace of that config alone; an event log needs a single config.
    """
    _check_n_patterns(n_patterns)  # before any calibration
    if comparator is not None and not isinstance(comparator, ComparatorConfig):
        raise TypeError(f"comparator must be a ComparatorConfig or None, got {comparator!r}")
    one = isinstance(cfg, NetworkConfig)
    cfgs = [cfg] if one else list(cfg)
    if event_log is not None and len(cfgs) != 1:
        raise ValueError("an event log records the events of one crossbar: pass one config")
    for c in cfgs:  # before the first group runs
        _require_crossbar_model(c)
    traces = []
    for group in _lockstep_groups(cfgs):
        crossbars = [init_crossbar(c, params=params, noise=noise) for c in group]
        traces += lifetime_loop(
            lambda t, pats: train_lockstep(crossbars, pats, log=event_log, step=t),
            lambda k, rows: crossbars[k].infer_batch(rows),
            [make_pattern_set(c, n_patterns) for c in group],
        )
        del crossbars  # before the next group's are built
    return traces[0] if one else traces
