"""Behavioral network of threshold units with binary-efficacy synapses.

N_in presynaptic lines feed N_out McCulloch-Pitts units through a sparse
random mask.  An output fires when the count of active high-efficacy
synapses strictly exceeds theta = N_in * connectivity * activity / 2, the
mean drive of the randomly initialised network.  Training presents one
pattern at a time and applies single-step potentiate/depress events to the
active-row synapses of columns whose output bit is wrong; the correction
step that does so is shared with the crossbar.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .synapse import UpdateDirection, gradient_step, stochastic_gate, transition_arrays


class Model(str, Enum):
    BINARY = "binary"
    MULTISTATE = "multistate"
    GRADIENT = "gradient"


def _round_half_up(value: float) -> int:
    return int(np.floor(value + 0.5))


@dataclass(frozen=True)
class NetworkConfig:
    n_in: int = 128
    n_out: int = 128
    connectivity: float = 0.25
    activity: float = 0.25
    n_levels: int = 3
    model: Model = Model.MULTISTATE
    seed: int = 0
    updates_per_pattern: int = 1
    q: float = 1.0
    learning_rate: float = 0.1

    def __post_init__(self) -> None:
        if self.n_in < 1 or self.n_out < 1:
            raise ValueError("n_in and n_out must be >= 1")
        if not 0.0 < self.connectivity <= 1.0:
            raise ValueError(f"connectivity must lie in (0, 1], got {self.connectivity}")
        if not 0.0 < self.activity < 1.0:
            raise ValueError(f"activity must lie in (0, 1), got {self.activity}")
        if self.n_levels < 1:
            raise ValueError("n_levels must be >= 1")
        if self.updates_per_pattern < 1:
            raise ValueError("updates_per_pattern must be >= 1")
        if not 0.0 < self.q <= 1.0:
            raise ValueError("q must lie in (0, 1]")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.learning_rate > 0.0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.n_ones_in < 1:
            raise ValueError("activity too low: patterns would have no active bits")
        if self.n_connected < 1:
            raise ValueError("connectivity too low: mask would have no synapses")

    @property
    def n_ones_in(self) -> int:
        return _round_half_up(self.activity * self.n_in)

    @property
    def n_connected(self) -> int:
        return _round_half_up(self.connectivity * self.n_in * self.n_out)

    @property
    def theta(self) -> float:
        return self.n_in * self.connectivity * self.activity / 2.0

    @property
    def effective_levels(self) -> int:
        return 1 if self.model is Model.BINARY else self.n_levels


@dataclass(frozen=True)
class Pattern:
    input_bits: np.ndarray
    target_bits: np.ndarray


@dataclass
class AccuracyTrace:
    """Per-pattern learning accuracy and running mean retention accuracy."""

    learning: np.ndarray
    mean: np.ndarray


def seed_streams(seed: int) -> dict[str, np.random.SeedSequence]:
    """Independent child seeds for the run phases, so the software and
    hardware paths draw identical patterns and initial states."""
    children = np.random.SeedSequence(seed).spawn(4)
    return dict(zip(("patterns", "init", "train", "noise"), children))


def generate_patterns(
    n_bits: int,
    activity: float,
    count: int,
    seed: int | np.random.SeedSequence,
) -> np.ndarray:
    """Random bit-vectors with exactly round(activity * n_bits) ones each."""
    n_ones = _round_half_up(activity * n_bits)
    if not 1 <= n_ones <= n_bits:
        raise ValueError(f"activity {activity} gives {n_ones} ones for {n_bits} bits")
    rng = np.random.default_rng(seed)
    out = np.zeros((count, n_bits), dtype=np.uint8)
    for row in out:
        row[rng.choice(n_bits, size=n_ones, replace=False)] = 1
    return out


def make_pattern_set(cfg: NetworkConfig, count: int) -> list[Pattern]:
    """The run's input/target pairs, derived deterministically from cfg.seed."""
    in_ss, tgt_ss = seed_streams(cfg.seed)["patterns"].spawn(2)
    inputs = generate_patterns(cfg.n_in, cfg.activity, count, in_ss)
    targets = generate_patterns(cfg.n_out, cfg.activity, count, tgt_ss)
    return [Pattern(i, t) for i, t in zip(inputs, targets)]


class BehavioralNetwork:
    """State arrays plus the update rules for one model variant."""

    def __init__(
        self,
        cfg: NetworkConfig,
        mask: np.ndarray,
        eff: np.ndarray,
        lvl: np.ndarray,
        weights: np.ndarray | None,
        train_rng: np.random.Generator,
    ):
        self.cfg = cfg
        self.mask = mask
        self.eff = eff
        self.lvl = lvl
        self.weights = weights
        self._train_rng = train_rng

    @classmethod
    def initialize(cls, cfg: NetworkConfig) -> "BehavioralNetwork":
        """Random mask with exactly n_connected entries; connected synapses
        start at a uniform-random efficacy on metalevel 0 (or a uniform
        weight in [0, 1] for the gradient model)."""
        streams = seed_streams(cfg.seed)
        rng = np.random.default_rng(streams["init"])
        flat = rng.choice(cfg.n_in * cfg.n_out, size=cfg.n_connected, replace=False)
        mask = np.zeros(cfg.n_in * cfg.n_out, dtype=bool)
        mask[flat] = True
        mask = mask.reshape(cfg.n_in, cfg.n_out)
        eff = np.zeros((cfg.n_in, cfg.n_out), dtype=np.int8)
        lvl = np.zeros((cfg.n_in, cfg.n_out), dtype=np.int8)
        weights = None
        if cfg.model is Model.GRADIENT:
            weights = np.where(mask, rng.uniform(0.0, 1.0, mask.shape), 0.0)
        else:
            eff[mask] = rng.integers(0, 2, size=cfg.n_connected, dtype=np.int8)
        return cls(cfg, mask, eff, lvl, weights, np.random.default_rng(streams["train"]))

    def efficacy_matrix(self) -> np.ndarray:
        if self.cfg.model is Model.GRADIENT:
            return np.where(self.mask, self.weights > 0.5, False).astype(np.float64)
        return (self.mask & (self.eff == 1)).astype(np.float64)

    def forward(self, input_bits: np.ndarray) -> np.ndarray:
        return self.forward_batch(input_bits[np.newaxis, :])[0]

    def forward_batch(self, inputs: np.ndarray) -> np.ndarray:
        """Threshold response for a batch of input rows; strict inequality,
        so a drive exactly at theta does not fire."""
        votes = inputs.astype(np.float64) @ self.efficacy_matrix()
        return (votes > self.cfg.theta).astype(np.uint8)

    def train_on_pattern(self, pat: Pattern) -> None:
        """Up to updates_per_pattern correction rounds on one pattern; stops
        as soon as every output bit matches."""
        correct_pattern(self.cfg, self.mask, self._train_rng, self.forward_batch, self._step, pat)

    def _step(self, direction: UpdateDirection, select: np.ndarray) -> None:
        if self.cfg.model is Model.GRADIENT:
            gradient_step(self.weights, direction, select, self.cfg.learning_rate)
        else:
            transition_arrays(self.eff, self.lvl, self.cfg.effective_levels, direction, select)


def correct_pattern(
    cfg: NetworkConfig,
    mask: np.ndarray,
    train_rng: np.random.Generator,
    read: Callable[[np.ndarray], np.ndarray],
    step: Callable[[UpdateDirection, np.ndarray], None],
    pat: Pattern,
) -> None:
    """The correction step both network views train with.

    Each of up to updates_per_pattern rounds reads the pattern back through
    ``read`` (a batch of one row) and stops once every output bit matches.
    Otherwise it runs the potentiate phase, then the depress phase.  A phase
    selects the connected synapses on active rows of the columns whose error
    has its sign, passes them through the q gate drawn from ``train_rng``,
    and hands the selection to the model's step rule ``step``.
    """
    active = mask & pat.input_bits.astype(bool)[:, np.newaxis]
    target = pat.target_bits.astype(np.int8)
    for _ in range(cfg.updates_per_pattern):
        err = target - read(pat.input_bits[np.newaxis, :])[0].astype(np.int8)
        if not err.any():
            break
        for direction in (UpdateDirection.POTENTIATE, UpdateDirection.DEPRESS):
            select = active & (err == direction.value)[np.newaxis, :]
            step(direction, stochastic_gate(select, cfg.q, train_rng))


def lifetime_loop(net_step, infer_batch, patterns: list[Pattern]) -> AccuracyTrace:
    """Shared train/measure protocol for the behavioral and hardware paths.

    After training on pattern t, every pattern seen so far is re-inferred
    with the current state: learning[t] is the bit accuracy on pattern t,
    mean[t] the average bit accuracy over patterns 0..t.
    """
    inputs = np.stack([p.input_bits for p in patterns]).astype(np.float64)
    targets = np.stack([p.target_bits for p in patterns])
    n = len(patterns)
    learning = np.empty(n)
    mean = np.empty(n)
    for t in range(n):
        net_step(patterns[t])
        outputs = infer_batch(inputs[: t + 1])
        acc = (outputs == targets[: t + 1]).mean(axis=1)
        learning[t] = acc[t]
        mean[t] = acc.mean()
    return AccuracyTrace(learning=learning, mean=mean)


def run_lifetime(cfg: NetworkConfig, n_patterns: int = 100) -> AccuracyTrace:
    """Train on a fresh pattern sequence and track learning and retention."""
    patterns = make_pattern_set(cfg, n_patterns)
    net = BehavioralNetwork.initialize(cfg)
    return lifetime_loop(
        net.train_on_pattern,
        lambda rows: net.forward_batch(rows),
        patterns,
    )
