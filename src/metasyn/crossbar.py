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

from dataclasses import dataclass
from enum import Enum

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
    correct_pattern,
    lifetime_loop,
    make_pattern_set,
    seed_streams,
)
from .synapse import Efficacy, MetaState, UpdateDirection


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
    the reference, which is what lets the crossbar retain patterns as long
    as the abstract model does.
    """

    mode: ComparatorMode = ComparatorMode.FIXED_REFERENCE

    def __post_init__(self) -> None:
        ComparatorMode(self.mode)


@dataclass(frozen=True)
class ProgramEvent:
    """One device programming event, for pulse-by-pulse training traces."""

    step: int
    phase: str
    row: int
    col: int
    x_before: float
    x_after: float
    meta_before: MetaState
    meta_after: MetaState


class Crossbar:
    """Device matrix plus read/program circuitry parameters."""

    def __init__(
        self,
        cfg: NetworkConfig,
        x: np.ndarray,
        mask: np.ndarray,
        params: DeviceParams,
        table: MetastateTable,
        comparator: ComparatorConfig,
        v_read: float = 0.3,
        noise: NoiseModel | None = None,
    ):
        self.cfg = cfg
        self.x = x
        self.mask = mask
        self.params = params
        self.table = table
        self.comparator = comparator
        self.v_read = v_read
        self.v_program = abs(table.pulse.amplitude)
        self.v_half = self.v_program / 2.0
        self.noise = noise
        self.train_rng = np.random.default_rng(seed_streams(cfg.seed)["train"])
        if not abs(v_read) < params.v_off:
            raise ValueError("v_read would disturb the devices")
        if not self.v_half < params.v_off:
            raise ValueError("half-select voltage must stay below v_off")
        # The reference operating point is resolved once, at the initial
        # state; at extreme connectivity/activity corners it may lie beyond
        # any current a column can reach.
        self.i_ref = reference_current_level(table, params, cfg, v_read)

    # ---- read path -----------------------------------------------------

    def conductance_matrix(self) -> np.ndarray:
        return conductance(self.x, self.params)

    def column_currents(self, input_bits: np.ndarray) -> np.ndarray:
        """I_j = v_read * sum of G over active rows; inactive rows are
        blocked by their diode and contribute exactly zero."""
        return self.column_currents_batch(input_bits[np.newaxis, :])[0]

    def column_currents_batch(self, inputs: np.ndarray) -> np.ndarray:
        return self.v_read * (inputs.astype(np.float64) @ self.conductance_matrix())

    def references(self) -> np.ndarray:
        """Per-column comparator reference currents."""
        return np.full(self.cfg.n_out, self.i_ref)

    def infer_batch(self, inputs: np.ndarray) -> np.ndarray:
        currents = self.column_currents_batch(inputs)
        return (currents > self.references()[np.newaxis, :]).astype(np.uint8)

    # ---- program path ----------------------------------------------------

    def train_two_phase(
        self,
        pat: Pattern,
        log: list[ProgramEvent] | None = None,
        step: int = 0,
    ) -> None:
        """One training presentation through :func:`correct_pattern`:
        potentiation phase on +1-error columns, then depression phase on
        -1-error columns, with inactive rows held at v_half."""

        def pulse(direction: UpdateDirection, sel: np.ndarray) -> None:
            guarded = np.zeros_like(sel)
            guarded[sel] = self.table.verify(self.x[sel], direction)
            if not guarded.any():
                return
            before = self.x[guarded]
            after = integrate_pulse(before, self.table.pulse_for(direction), self.params, self.noise)
            self.x[guarded] = after
            if log is not None:
                phase = direction.name.lower()
                decode, state_at = self.table.decode_index, self.table.state_at
                log.extend(
                    ProgramEvent(
                        step, phase, int(r), int(c), float(xb), float(xa),
                        state_at(int(ib)), state_at(int(ia)),
                    )
                    for r, c, xb, xa, ib, ia in zip(
                        *np.nonzero(guarded), before, after, decode(before), decode(after)
                    )
                )

        correct_pattern(self.cfg, self.mask, self.train_rng, self.infer_batch, pulse, pat)


def reference_current_level(
    table: MetastateTable,
    params: DeviceParams,
    cfg: NetworkConfig,
    v_read: float,
) -> float:
    """Column current that separates theta from theta+1 active high synapses.

    A column at the firing margin does not carry high-device current alone:
    the remaining active connected devices conduct at the low plateau and
    every active pruned crosspoint leaks the off conductance.  The reference
    therefore sits floor(theta) + 1/2 conductance gaps above that expected
    background: count > theta holds exactly when count > floor(theta) + 1/2,
    so the decision matches the behavioral model's strict rule for any theta.
    """
    g_low, g_high = flip_conductances(table, params)
    n_active = cfg.n_ones_in
    density = cfg.n_connected / (cfg.n_in * cfg.n_out)
    active_connected = n_active * density
    active_pruned = n_active - active_connected
    background = active_connected * g_low + active_pruned * params.g_off
    return v_read * ((np.floor(cfg.theta) + 0.5) * (g_high - g_low) + background)


def init_crossbar(
    cfg: NetworkConfig,
    params: DeviceParams | None = None,
    table: MetastateTable | None = None,
    comparator: ComparatorConfig | None = None,
    v_read: float = 0.3,
    noise: NoiseModel | None = None,
) -> Crossbar:
    """Build a crossbar mirroring the behavioral network's initial state.

    The mask and the random high/low efficacy assignment are drawn from the
    same config-derived stream the behavioral model uses, so both paths
    start from identical synapses.  Connected devices are programmed to
    their metalevel-0 plateau; pruned crosspoints sit at x = 0.
    """
    if cfg.model is Model.GRADIENT:
        raise ValueError("the gradient model has no crossbar realization")
    if params is None:
        params = DeviceParams.default()
    if table is None:
        table = calibrate_metastate_table(
            params, n_levels=cfg.effective_levels, ratio_bounds=None
        )
    if table.n_levels != cfg.effective_levels:
        raise ValueError("table level count does not match the config")
    net = BehavioralNetwork.initialize(cfg)
    n = table.n_levels
    x = np.zeros((cfg.n_in, cfg.n_out))
    x_low = table.x_for(MetaState(Efficacy.LOW, 0, n))
    x_high = table.x_for(MetaState(Efficacy.HIGH, 0, n))
    x[net.mask] = np.where(net.eff[net.mask] == 1, x_high, x_low)

    cmp = comparator if comparator is not None else ComparatorConfig()
    return Crossbar(cfg, x, net.mask, params, table, cmp, v_read, noise)


def run_lifetime_hw(
    cfg: NetworkConfig,
    n_patterns: int = 100,
    params: DeviceParams | None = None,
    comparator: ComparatorConfig | None = None,
    noise: NoiseModel | str = "default",
    event_log: list[ProgramEvent] | None = None,
) -> AccuracyTrace:
    """Hardware lifetime run under the same protocol as the behavioral path.

    Patterns and the initial synapse assignment are identical to the
    behavioral run with the same config; only inference and updates go
    through the device model.  Programming noise defaults to sigma = 0.25
    on a stream derived from cfg.seed; pass NoiseModel.off() to disable.
    """
    if noise == "default":
        noise = NoiseModel(rng_seed=seed_streams(cfg.seed)["noise"])
    xb = init_crossbar(cfg, params=params, comparator=comparator, noise=noise)
    patterns = make_pattern_set(cfg, n_patterns)
    counter = iter(range(n_patterns))

    def step(pat: Pattern) -> None:
        xb.train_two_phase(pat, log=event_log, step=next(counter))

    return lifetime_loop(step, xb.infer_batch, patterns)
