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

import functools
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .synapse import UpdateDirection, gradient_step, stochastic_gate, transition_arrays

if TYPE_CHECKING:
    from .crossbar import Crossbar


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
        for name in ("n_in", "n_out", "n_levels", "seed", "updates_per_pattern"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_in < 1 or self.n_out < 1:
            raise ValueError("n_in and n_out must be >= 1")
        if not 0.0 < self.connectivity <= 1.0:
            raise ValueError(f"connectivity must lie in (0, 1], got {self.connectivity}")
        if not 0.0 < self.activity < 1.0:
            raise ValueError(f"activity must lie in (0, 1), got {self.activity}")
        if not 1 <= self.n_levels <= 64:
            raise ValueError(
                f"n_levels must lie in [1, 64], got {self.n_levels}: chain indices up to "
                "2 * n_levels - 1 are stored as int8, and retention saturates by 4-5 levels"
            )
        if self.updates_per_pattern < 1:
            raise ValueError("updates_per_pattern must be >= 1")
        if not 0.0 < self.q <= 1.0:
            raise ValueError("q must lie in (0, 1]")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(
                f"learning_rate must be finite and positive, got {self.learning_rate}"
            )
        if self.n_ones_in < 1:
            raise ValueError("activity too low: input patterns would have no active bits")
        if _round_half_up(self.activity * self.n_out) < 1:
            raise ValueError("activity too low: target patterns would have no active bits")
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


@functools.lru_cache(maxsize=32)
def _pattern_arrays(
    n_in: int, n_out: int, activity: float, seed: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """The stacked inputs and targets of one pattern set, generated once per
    process.  They are read-only because every caller shares them; a
    128 x 128 set of 300 patterns holds 77 kB."""
    in_ss, tgt_ss = seed_streams(seed)["patterns"].spawn(2)
    inputs = generate_patterns(n_in, activity, count, in_ss)
    targets = generate_patterns(n_out, activity, count, tgt_ss)
    inputs.flags.writeable = targets.flags.writeable = False
    return inputs, targets


def make_pattern_set(cfg: NetworkConfig, count: int) -> list[Pattern]:
    """The run's input/target pairs, derived deterministically from cfg.seed.

    The model does not enter, so the runs of every model on one seed share
    one set: it is memoized per process on (n_in, n_out, activity, seed,
    count), and each call returns a fresh list of read-only pattern rows.
    """
    if count < 1:
        raise ValueError(f"n_patterns must be >= 1, got {count}")
    inputs, targets = _pattern_arrays(cfg.n_in, cfg.n_out, cfg.activity, cfg.seed, count)
    return [Pattern(i, t) for i, t in zip(inputs, targets)]


@dataclass(eq=False)
class BehavioralNetwork:
    """State arrays plus the update rules for one model variant: the chain
    index of every synapse, or the analog weights of the gradient model.

    Pruned synapses (mask False) start at chain index n - 1, on the low
    side (weight 0 for the gradient model), and never move, since every
    selection of the correction step is masked.  So their efficacy is low
    without a look at the mask, and the reads leave it out.
    """

    cfg: NetworkConfig
    mask: np.ndarray
    state: np.ndarray
    weights: np.ndarray | None
    train_rng: np.random.Generator

    @classmethod
    def initialize(cls, cfg: NetworkConfig) -> "BehavioralNetwork":
        """Random mask with exactly n_connected entries; connected synapses
        start at a uniform-random efficacy on metalevel 0, chain index n - 1
        or n (or a uniform weight in [0, 1] for the gradient model)."""
        streams = seed_streams(cfg.seed)
        rng = np.random.default_rng(streams["init"])
        flat = rng.choice(cfg.n_in * cfg.n_out, size=cfg.n_connected, replace=False)
        mask = np.zeros(cfg.n_in * cfg.n_out, dtype=bool)
        mask[flat] = True
        mask = mask.reshape(cfg.n_in, cfg.n_out)
        state = np.full((cfg.n_in, cfg.n_out), cfg.effective_levels - 1, dtype=np.int8)
        weights = None
        if cfg.model is Model.GRADIENT:
            weights = np.where(mask, rng.uniform(0.0, 1.0, mask.shape), 0.0)
        else:
            state[mask] += rng.integers(0, 2, size=cfg.n_connected, dtype=np.int8)
        return cls(cfg, mask, state, weights, np.random.default_rng(streams["train"]))

    def efficacy_matrix(self, rows: np.ndarray | slice = slice(None)) -> np.ndarray:
        """0/1 efficacy of every synapse, or of the given input rows only."""
        return self._high(rows).astype(np.float64)

    def _high(self, rows: np.ndarray | slice) -> np.ndarray:
        if self.cfg.model is Model.GRADIENT:
            return self.weights[rows] > 0.5
        return self.state[rows] >= self.cfg.effective_levels

    def forward_batch(self, inputs: np.ndarray) -> np.ndarray:
        """Threshold response for a batch of 0/1 input bit vectors, read on
        the rows with a set bit; a drive exactly at theta does not fire."""
        rows = np.flatnonzero(inputs.any(axis=0))
        votes = inputs[:, rows].astype(np.float64) @ self.efficacy_matrix(rows)
        return (votes > self.cfg.theta).astype(np.uint8)

    def retention_reader(self, inputs: np.ndarray) -> Callable[[int, np.ndarray], np.ndarray]:
        """The lifetime loop's read of inputs[:t + 1] after training on
        pattern t, for t = 0, 1, ... in turn.  Training changes synapses only
        on pattern t's active rows A_t, so earlier votes move by
        X[:t, A_t] @ (after - before) on those rows, read from the transposed
        inputs so the rows A_t are contiguous.

        Votes and every partial sum of that product are integers within
        +-n_ones_in, which float32 holds exactly below 2**24 (float64 beyond),
        so every output equals forward_batch's.  An integer vote exceeds
        theta exactly when it exceeds floor(theta), which, unlike theta,
        float32 holds exactly."""
        dtype = np.float32 if self.cfg.n_ones_in < 2**24 else np.float64
        xt = inputs.T.astype(dtype)
        actives = [np.flatnonzero(row) for row in inputs]
        votes = np.zeros((len(inputs), self.cfg.n_out), dtype)
        before = self._high(slice(None)).astype(dtype)  # as of the previous read
        theta = math.floor(self.cfg.theta)

        def read(k: int, rows: np.ndarray) -> np.ndarray:
            t = len(rows) - 1
            a = actives[t]
            after = self._high(a).astype(dtype)
            votes[:t] += xt[a, :t].T @ (after - before[a])
            votes[t] = after.sum(axis=0)
            before[a] = after
            return (votes[: t + 1] > theta).view(np.uint8)

        return read

    def fires(self, rows: np.ndarray) -> np.ndarray:
        """Threshold response of one 0/1 input pattern, given its active
        rows: each column's count of high synapses on those rows against
        theta, the bits forward_batch gives that pattern."""
        return self._high(rows).sum(axis=0) > self.cfg.theta

    def train_on_pattern(self, pat: Pattern) -> None:
        """Up to updates_per_pattern correction rounds on one pattern; stops
        as soon as every output bit matches."""
        rows = np.flatnonzero(pat.input_bits)
        correct_pattern([self], lambda k, _: self.fires(rows)[np.newaxis], self._step, [pat])

    def _step(self, phases: list[tuple[UpdateDirection, list[np.ndarray | None]]]) -> None:
        if self.cfg.model is Model.GRADIENT:
            for direction, (select,) in phases:
                gradient_step(self.weights, direction, select, self.cfg.learning_rate)
        else:
            n_levels = self.cfg.effective_levels
            for direction, (select,) in phases:
                transition_arrays(self.state, n_levels, direction, select)


def correct_pattern(
    runs: Sequence[BehavioralNetwork | Crossbar],
    read: Callable[[int, np.ndarray], np.ndarray],
    step: Callable[[list[tuple[UpdateDirection, list[np.ndarray | None]]]], None],
    pats: Sequence[Pattern],
) -> None:
    """The correction step both network views train with, on several runs
    in lockstep; run k trains on pats[k].  A run supplies its ``cfg``, its
    ``mask`` and the ``train_rng`` its q gates are drawn from.

    Each of up to updates_per_pattern rounds reads every live run's pattern
    back through ``read(k, rows)`` (a batch of one row); a run whose output
    bits all match stops there and draws no further gates.  Then comes the
    potentiate phase, then the depress phase.  A phase selects, per run, the
    connected synapses on active rows of the columns whose error has its
    sign, and passes them through the q gate drawn from the run's own
    ``train_rng``, None for a run that has stopped.  Both phases go to the
    step rule in one call, ``step([(POTENTIATE, selects), (DEPRESS,
    selects)])``, which applies them in that order; they select disjoint
    columns.  Each run draws from its own streams in the order it would
    alone, so lockstep changes no number.
    """
    actives = {}  # run k's connected synapses on active rows, once it has an error
    targets = [pat.target_bits.astype(np.int8) for pat in pats]
    live = list(range(len(runs)))
    for round_ in range(max((run.cfg.updates_per_pattern for run in runs), default=0)):
        errs = {}
        for k in live:
            if round_ < runs[k].cfg.updates_per_pattern:
                err = targets[k] - read(k, pats[k].input_bits[np.newaxis, :])[0].astype(np.int8)
                if err.any():
                    errs[k] = err
        live = list(errs)
        if not live:
            break
        phases = []
        for direction in (UpdateDirection.POTENTIATE, UpdateDirection.DEPRESS):
            selects: list[np.ndarray | None] = [None] * len(runs)
            for k in live:
                if k not in actives:
                    actives[k] = runs[k].mask & pats[k].input_bits.astype(bool)[:, np.newaxis]
                select = actives[k] & (errs[k] == direction.value)[np.newaxis, :]
                selects[k] = stochastic_gate(select, runs[k].cfg.q, runs[k].train_rng)
            phases.append((direction, selects))
        step(phases)


def lifetime_loop(
    net_step: Callable[[int, list[Pattern]], None],
    infer_batch: Callable[[int, np.ndarray], np.ndarray],
    pattern_sets: Sequence[list[Pattern]],
) -> list[AccuracyTrace]:
    """Shared train/measure protocol for the behavioral and hardware paths,
    over several runs in lockstep; run k presents pattern_sets[k].

    At step t, ``net_step(t, pats)`` trains every run on its pattern t in one
    call.  Then every pattern run k has seen so far is re-inferred with its
    current state through ``infer_batch(k, rows)``: learning[t] is the bit
    accuracy on pattern t, mean[t] the average bit accuracy over patterns
    0..t.
    """
    n = len(pattern_sets[0]) if pattern_sets else 0
    if any(len(patterns) != n for patterns in pattern_sets):
        raise ValueError("runs in lockstep must present equally many patterns")
    inputs = [np.stack([p.input_bits for p in ps]) for ps in pattern_sets]
    targets = [np.stack([p.target_bits for p in ps]) for ps in pattern_sets]
    ones = [np.ones(tg.shape[1]) for tg in targets]
    traces = [AccuracyTrace(learning=np.empty(n), mean=np.empty(n)) for _ in pattern_sets]
    for t in range(n):
        net_step(t, [patterns[t] for patterns in pattern_sets])
        for k, trace in enumerate(traces):
            outputs = infer_batch(k, inputs[k][: t + 1])
            # the same bits as the two np.mean calls: a count of matching
            # bits, summed as a product with ones, is an integer <= n_out and
            # so exact in float64; it takes the one rounding of mean(axis=1),
            # and acc.sum() is np.mean's own pairwise sum before its division
            acc = ((outputs == targets[k][: t + 1]) @ ones[k]) / outputs.shape[1]
            trace.learning[t] = acc[t]
            trace.mean[t] = acc.sum() / (t + 1)
    return traces


def run_lifetime(cfg: NetworkConfig, n_patterns: int = 100) -> AccuracyTrace:
    """Train on a fresh pattern sequence and track learning and retention."""
    patterns = make_pattern_set(cfg, n_patterns)
    net = BehavioralNetwork.initialize(cfg)
    return lifetime_loop(
        lambda t, pats: net.train_on_pattern(pats[0]),
        net.retention_reader(np.stack([p.input_bits for p in patterns])),
        [patterns],
    )[0]
