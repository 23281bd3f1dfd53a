"""Multi-seed experiment orchestration.

One runner takes a list of (label, network config, hardware) cells and runs
each over the experiment's seeds, with crossing statistics computed per
seed and then aggregated.  The standard evaluation set only builds cell
lists: side-by-side model comparisons, network-size sweeps, and
connectivity/activity sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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


# entry-wise range of each grid: (description, check); NaN fails every check
_GRID_RANGES = {
    "seeds": (">= 0", lambda v: v >= 0),
    "size_grid": (">= 1", lambda v: v >= 1),
    "c_grid": ("in (0, 1]", lambda v: 0.0 < v <= 1.0),
    "f_grid": ("in (0, 1)", lambda v: 0.0 < v < 1.0),
}


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: a base configuration, its seeds, grids and device.

    seeds are applied by replacing base.seed per run.  The hardware flag
    runs cells on the crossbar; a comparison adds crossbar runs for the
    binary and multistate models next to the behavioral ones.  Hardware
    runs use the device params and, when noise is on, programming noise of
    the given sigma on each seed's own noise stream.
    """

    base: NetworkConfig = field(default_factory=NetworkConfig)
    seeds: tuple[int, ...] = tuple(range(10))
    n_patterns: int = 100
    mean_threshold: float = 0.75
    hardware: bool = False
    size_grid: tuple[int, ...] = (32, 64, 128, 256)
    c_grid: tuple[float, ...] = (0.1, 0.25, 0.5, 0.75, 0.9)
    f_grid: tuple[float, ...] = (0.1, 0.25, 0.5, 0.75, 0.9)
    params: DeviceParams = field(default_factory=DeviceParams)
    sigma: float = 0.25
    noise: bool = True

    def __post_init__(self) -> None:
        for name, (bound, ok) in _GRID_RANGES.items():
            values = getattr(self, name)
            if len(values) < 1:
                raise ValueError(f"{name} must not be empty")
            for v in values:
                if not ok(v):
                    raise ValueError(f"{name} entries must be {bound}, got {v}")
        if self.n_patterns < 1:
            raise ValueError("n_patterns must be >= 1")
        if not 0.0 < self.mean_threshold < 1.0:
            raise ValueError("mean_threshold must lie in (0, 1)")
        if not self.sigma >= 0.0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")

    def noise_for(self, seed: int) -> NoiseModel:
        """Programming noise of one hardware run, on the seed's own stream."""
        return NoiseModel(
            sigma=self.sigma, enabled=self.noise, rng_seed=seed_streams(seed)["noise"]
        )


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
        return run_lifetime_hw(
            cfg, n_patterns=spec.n_patterns, params=spec.params, noise=spec.noise_for(cfg.seed)
        )
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


Cell = tuple[str, NetworkConfig, bool]


def run_cells(
    spec: ExperimentSpec,
    cells: list[Cell],
    axes: tuple[str, ...],
    grid: tuple[tuple, ...],
    valid: np.ndarray | None = None,
) -> SweepResult:
    """Run each (label, config, hardware) cell over spec.seeds.

    The cells fill the grid's valid entries in row-major order (every entry
    when valid is None); the others hold NaN.
    """
    shape = tuple(len(g) for g in grid)
    valid = np.ones(shape, dtype=bool) if valid is None else valid
    learn_cells, mean_cells = np.full(shape, np.nan), np.full(shape, np.nan)
    crossings: dict[str, tuple[int | None, ...]] = {}
    traces: dict[str, tuple[AccuracyTrace, ...]] = {}
    ends = [_collect(spec, label, cfg, hw, crossings, traces) for label, cfg, hw in cells]
    if ends:
        learn_cells[valid], mean_cells[valid] = np.array(ends).T
    return SweepResult(
        axes=axes, grid=grid,
        mean_at_end=mean_cells, learning_at_end=learn_cells, valid=valid,
        crossings=crossings, traces=traces, n_patterns=spec.n_patterns,
    )


def run_comparison(spec: ExperimentSpec, models: tuple[Model, ...] = tuple(Model)) -> SweepResult:
    """Run every requested model (plus hardware variants when flagged)
    over all seeds and compute crossing statistics and the multistate
    over binary crossing ratio."""
    if len(models) < 1:
        raise ValueError("at least one model is required")
    cells = [(m.value, replace(spec.base, model=m), False) for m in models]
    if spec.hardware:
        cells += [
            (f"hw_{label}", cfg, True)
            for label, cfg, _ in cells
            if cfg.model is not Model.GRADIENT
        ]
    result = run_cells(spec, cells, ("model",), (tuple(c[0] for c in cells),))
    if Model.BINARY not in models or Model.MULTISTATE not in models:
        return result
    multi = _censor(result.crossings["multistate"], spec.n_patterns).mean()
    binary = _censor(result.crossings["binary"], spec.n_patterns).mean()
    return replace(result, ratio_vs_binary=float(multi / binary))


def sweep_size(spec: ExperimentSpec) -> SweepResult:
    """Run the base model on square N x N networks across the size grid."""
    cells = [
        (str(n), replace(spec.base, n_in=n, n_out=n), spec.hardware)
        for n in spec.size_grid
    ]
    return run_cells(spec, cells, ("size",), (tuple(spec.size_grid),))


def _cf_cell_valid(cfg: NetworkConfig, c: float, f: float) -> bool:
    """A (C, f) cell is computable only if it rounds to at least one active
    input bit, one active target bit, and one connected synapse."""
    return (
        _round_half_up(f * cfg.n_in) >= 1
        and _round_half_up(f * cfg.n_out) >= 1
        and _round_half_up(c * cfg.n_in * cfg.n_out) >= 1
    )


def sweep_cf(spec: ExperimentSpec) -> SweepResult:
    """Grid of end-of-run accuracies over (connectivity, activity); cells
    that round to no active bit or no synapse stay NaN and invalid."""
    grid = (tuple(spec.c_grid), tuple(spec.f_grid))
    points = [(c, f) for c in spec.c_grid for f in spec.f_grid]
    valid = np.array([_cf_cell_valid(spec.base, c, f) for c, f in points])
    cells = [
        (f"C{c:g}_f{f:g}", replace(spec.base, connectivity=c, activity=f), spec.hardware)
        for (c, f), ok in zip(points, valid)
        if ok
    ]
    return run_cells(
        spec, cells, ("connectivity", "activity"), grid, valid.reshape(len(grid[0]), -1)
    )
