"""Multi-seed experiment orchestration.

Three experiment variants cover the standard evaluation set: side-by-side
model comparisons, network-size sweeps, and connectivity/activity sweeps,
each run over a list of seeds with crossing statistics computed per seed
and then aggregated.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .crossbar import run_lifetime_hw
from .device import DeviceParams, NoiseModel
from .network import (
    AccuracyTrace,
    Model,
    NetworkConfig,
    _round_half_up,
    run_lifetime,
    seed_streams,
)


class Variant(str, Enum):
    COMPARE_MODELS = "compare_models"
    SWEEP_SIZE = "sweep_size"
    SWEEP_CF = "sweep_cf"


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: a base configuration, a variant, and its grids.

    seeds are applied by replacing base.seed per run; models under
    CompareModels override base.model.  The hardware flag adds crossbar
    runs for the binary and multistate models (gradient descent has no
    hardware realization).  Hardware runs use the device params and, when
    noise is on, programming noise of the given sigma on each seed's own
    noise stream.
    """

    base: NetworkConfig = field(default_factory=NetworkConfig)
    variant: Variant = Variant.COMPARE_MODELS
    seeds: tuple[int, ...] = tuple(range(10))
    n_patterns: int = 100
    mean_threshold: float = 0.75
    hardware: bool = False
    models: tuple[Model, ...] = (Model.BINARY, Model.MULTISTATE, Model.GRADIENT)
    size_grid: tuple[int, ...] = (32, 64, 128, 256)
    c_grid: tuple[float, ...] = (0.1, 0.25, 0.5, 0.75, 0.9)
    f_grid: tuple[float, ...] = (0.1, 0.25, 0.5, 0.75, 0.9)
    params: DeviceParams = field(default_factory=DeviceParams)
    sigma: float = 0.25
    noise: bool = True

    def __post_init__(self) -> None:
        if len(self.seeds) < 1:
            raise ValueError("at least one seed is required")
        if self.n_patterns < 1:
            raise ValueError("n_patterns must be >= 1")
        if not 0.0 < self.mean_threshold < 1.0:
            raise ValueError("mean_threshold must lie in (0, 1)")
        if self.variant is Variant.COMPARE_MODELS and len(self.models) < 1:
            raise ValueError("CompareModels needs at least one model")
        if self.variant is Variant.SWEEP_SIZE and len(self.size_grid) < 1:
            raise ValueError("SweepSize needs a non-empty size grid")
        if self.variant is Variant.SWEEP_CF and (
            len(self.c_grid) < 1 or len(self.f_grid) < 1
        ):
            raise ValueError("SweepCF needs non-empty C and f grids")


@dataclass(frozen=True)
class SweepResult:
    """Assembled output of one experiment.

    The cell arrays are indexed by the grid axes in order; invalid cells
    (a grid point that rounds to zero active bits or zero connected
    synapses) hold NaN and are flagged in `valid`.  Traces and crossings
    are keyed by cell label and hold one entry per seed; a crossing of
    None means the mean accuracy never fell below the threshold.
    """

    axes: tuple[str, ...]
    grid: tuple[tuple, ...]
    mean_at_end: np.ndarray
    learning_at_end: np.ndarray
    valid: np.ndarray
    crossings: dict[str, tuple[int | None, ...]]
    traces: dict[str, tuple[AccuracyTrace, ...]]
    n_patterns: int
    ratio_vs_binary: float | None = None

    def __post_init__(self) -> None:
        shape = tuple(len(g) for g in self.grid)
        for arr in (self.mean_at_end, self.learning_at_end, self.valid):
            if arr.shape != shape:
                raise ValueError("cell arrays must match the grid shape")

    def aggregate(self, label: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-pattern mean and std over seeds of the learning and mean
        accuracy curves for one cell label."""
        traces = self.traces[label]
        learn = np.stack([t.learning for t in traces])
        mean = np.stack([t.mean for t in traces])
        return (
            learn.mean(axis=0),
            learn.std(axis=0),
            mean.mean(axis=0),
            mean.std(axis=0),
        )

    def crossing_stats(self, label: str) -> tuple[float, float]:
        """Seed mean and std of the crossing index for one cell label.

        Runs that never cross are censored at n_patterns + 1 so long-lived
        seeds raise the mean instead of silently dropping out.
        """
        vals = _censor(self.crossings[label], self.n_patterns)
        return float(vals.mean()), float(vals.std())


def _censor(crossings: tuple[int | None, ...], n_patterns: int) -> np.ndarray:
    return np.array(
        [n_patterns + 1 if c is None else c for c in crossings], dtype=np.float64
    )


def threshold_crossing(trace: AccuracyTrace, threshold: float) -> int | None:
    """Smallest 1-based pattern count after which the mean accuracy sits
    below the threshold; None if it never does."""
    if trace.mean.size == 0:
        raise ValueError("empty trace")
    below = np.nonzero(trace.mean < threshold)[0]
    if below.size == 0:
        return None
    return int(below[0]) + 1


def _run_one(spec: ExperimentSpec, cfg: NetworkConfig, hardware: bool) -> AccuracyTrace:
    if hardware:
        noise = NoiseModel(
            sigma=spec.sigma, enabled=spec.noise, rng_seed=seed_streams(cfg.seed)["noise"]
        )
        return run_lifetime_hw(cfg, n_patterns=spec.n_patterns, params=spec.params, noise=noise)
    return run_lifetime(cfg, n_patterns=spec.n_patterns)


def _collect(
    spec: ExperimentSpec, label: str, cfg: NetworkConfig, hardware: bool,
    crossings: dict, traces: dict,
) -> tuple[float, float]:
    """Run one cell over all seeds; returns seed-averaged (learning[-1],
    mean[-1]) and records per-seed traces and crossings under the label."""
    cell_traces = tuple(
        _run_one(spec, replace(cfg, seed=s), hardware) for s in spec.seeds
    )
    crossings[label] = tuple(
        threshold_crossing(t, spec.mean_threshold) for t in cell_traces
    )
    traces[label] = cell_traces
    learn = float(np.mean([t.learning[-1] for t in cell_traces]))
    mean = float(np.mean([t.mean[-1] for t in cell_traces]))
    return learn, mean


def run_comparison(spec: ExperimentSpec) -> SweepResult:
    """Run every requested model (plus hardware variants when flagged)
    over all seeds and compute crossing statistics and the multistate
    over binary crossing ratio."""
    if spec.variant is not Variant.COMPARE_MODELS:
        raise ValueError("spec variant must be CompareModels")
    jobs: list[tuple[str, Model, bool]] = [(m.value, m, False) for m in spec.models]
    if spec.hardware:
        jobs += [
            (f"hw_{m.value}", m, True)
            for m in spec.models
            if m is not Model.GRADIENT
        ]
    crossings: dict[str, tuple[int | None, ...]] = {}
    traces: dict[str, tuple[AccuracyTrace, ...]] = {}
    labels = []
    learn_cells, mean_cells = [], []
    for label, model, hw in jobs:
        cfg = replace(spec.base, model=model)
        learn, mean = _collect(spec, label, cfg, hw, crossings, traces)
        labels.append(label)
        learn_cells.append(learn)
        mean_cells.append(mean)
    ratio = None
    if Model.BINARY in spec.models and Model.MULTISTATE in spec.models:
        multi = _censor(crossings["multistate"], spec.n_patterns).mean()
        binary = _censor(crossings["binary"], spec.n_patterns).mean()
        ratio = float(multi / binary)
    return SweepResult(
        axes=("model",), grid=(tuple(labels),),
        mean_at_end=np.array(mean_cells),
        learning_at_end=np.array(learn_cells),
        valid=np.ones(len(labels), dtype=bool),
        crossings=crossings, traces=traces, n_patterns=spec.n_patterns,
        ratio_vs_binary=ratio,
    )


def sweep_size(spec: ExperimentSpec) -> SweepResult:
    """Run the base model on square N x N networks across the size grid."""
    if spec.variant is not Variant.SWEEP_SIZE:
        raise ValueError("spec variant must be SweepSize")
    if spec.hardware and spec.base.model is Model.GRADIENT:
        raise ValueError("the gradient model has no crossbar realization")
    crossings: dict[str, tuple[int | None, ...]] = {}
    traces: dict[str, tuple[AccuracyTrace, ...]] = {}
    learn_cells, mean_cells = [], []
    for n in spec.size_grid:
        cfg = replace(spec.base, n_in=n, n_out=n)
        learn, mean = _collect(spec, str(n), cfg, spec.hardware, crossings, traces)
        learn_cells.append(learn)
        mean_cells.append(mean)
    return SweepResult(
        axes=("size",), grid=(tuple(spec.size_grid),),
        mean_at_end=np.array(mean_cells),
        learning_at_end=np.array(learn_cells),
        valid=np.ones(len(spec.size_grid), dtype=bool),
        crossings=crossings, traces=traces, n_patterns=spec.n_patterns,
    )


def _cf_cell_valid(cfg: NetworkConfig, c: float, f: float) -> bool:
    """A (C, f) cell is computable only if it rounds to at least one active
    input bit, one active target bit, and one connected synapse."""
    return (
        _round_half_up(f * cfg.n_in) >= 1
        and _round_half_up(f * cfg.n_out) >= 1
        and _round_half_up(c * cfg.n_in * cfg.n_out) >= 1
    )


def sweep_cf(spec: ExperimentSpec) -> SweepResult:
    """Grid of end-of-run accuracies over (connectivity, activity)."""
    if spec.variant is not Variant.SWEEP_CF:
        raise ValueError("spec variant must be SweepCF")
    if spec.hardware and spec.base.model is Model.GRADIENT:
        raise ValueError("the gradient model has no crossbar realization")
    shape = (len(spec.c_grid), len(spec.f_grid))
    learn_cells = np.full(shape, np.nan)
    mean_cells = np.full(shape, np.nan)
    valid = np.zeros(shape, dtype=bool)
    crossings: dict[str, tuple[int | None, ...]] = {}
    traces: dict[str, tuple[AccuracyTrace, ...]] = {}
    for i, c in enumerate(spec.c_grid):
        for j, f in enumerate(spec.f_grid):
            if not _cf_cell_valid(spec.base, c, f):
                continue
            cfg = replace(spec.base, connectivity=c, activity=f)
            label = f"C{c:g}_f{f:g}"
            learn, mean = _collect(spec, label, cfg, spec.hardware, crossings, traces)
            learn_cells[i, j] = learn
            mean_cells[i, j] = mean
            valid[i, j] = True
    return SweepResult(
        axes=("connectivity", "activity"),
        grid=(tuple(spec.c_grid), tuple(spec.f_grid)),
        mean_at_end=mean_cells,
        learning_at_end=learn_cells,
        valid=valid,
        crossings=crossings, traces=traces, n_patterns=spec.n_patterns,
    )


def run_experiment(spec: ExperimentSpec) -> SweepResult:
    """Dispatch on the spec's variant."""
    if spec.variant is Variant.COMPARE_MODELS:
        return run_comparison(spec)
    if spec.variant is Variant.SWEEP_SIZE:
        return sweep_size(spec)
    return sweep_cf(spec)
