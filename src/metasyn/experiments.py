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
from .network import AccuracyTrace, Model, NetworkConfig, run_lifetime


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
    runs use the device params and programming noise of the given sigma
    (0 for none) on each seed's own noise stream.
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
    sigma: float = NoiseModel.sigma

    def __post_init__(self) -> None:
        for name, (bound, ok) in _GRID_RANGES.items():
            values = getattr(self, name)
            if len(values) < 1:
                raise ValueError(f"{name} must not be empty")
            for i, v in enumerate(values):
                if not ok(v):
                    raise ValueError(f"{name} entries must be {bound}, got {v}")
                if v in values[:i]:
                    raise ValueError(f"{name} entries must not repeat, got {v} twice")
        if self.n_patterns < 1:
            raise ValueError("n_patterns must be >= 1")
        if not 0.0 < self.mean_threshold < 1.0:
            raise ValueError("mean_threshold must lie in (0, 1)")
        NoiseModel(sigma=self.sigma)  # the noise model checks sigma


@dataclass(frozen=True)
class SweepResult:
    """Assembled output of one experiment.

    The cell arrays have one axis per grid tuple, in order; invalid cells
    (a grid point that rounds to zero active bits or zero connected
    synapses) hold NaN and are flagged in `valid`.  Traces and crossings
    are keyed by cell label and hold one entry per seed; a crossing of
    None means the mean accuracy never fell below the threshold.
    """

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
        vals = np.array(
            [self.n_patterns + 1 if c is None else c for c in self.crossings[label]],
            dtype=np.float64,
        )
        return float(vals.mean()), float(vals.std())


def threshold_crossing(trace: AccuracyTrace, threshold: float) -> int | None:
    """Smallest 1-based pattern count after which the mean accuracy sits
    below the threshold; None if it never does."""
    if trace.mean.size == 0:
        raise ValueError("empty trace")
    below = np.nonzero(trace.mean < threshold)[0]
    if below.size == 0:
        return None
    return int(below[0]) + 1


Cell = tuple[str, NetworkConfig, bool]

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


def run_cells(
    spec: ExperimentSpec,
    cells: list[Cell],
    grid: tuple[tuple, ...],
    valid: np.ndarray | None = None,
) -> SweepResult:
    """Run each (label, config, hardware) cell over spec.seeds.

    The hardware (cell, seed) runs go in consecutive lockstep groups whose
    device state fits _LOCKSTEP_STATE_BYTES, so each programming phase is
    one pulse call across a group; each run keeps its own streams, so its
    trace is the one it gives alone.  The cells fill the grid's valid
    entries in row-major order (every entry when valid is None); the others
    hold NaN.  Crossings are computed per seed and the end-of-run
    accuracies averaged over seeds.
    """
    shape = tuple(len(g) for g in grid)
    valid = np.ones(shape, dtype=bool) if valid is None else valid
    learn_cells, mean_cells = np.full(shape, np.nan), np.full(shape, np.nan)
    crossings: dict[str, tuple[int | None, ...]] = {}
    traces: dict[str, tuple[AccuracyTrace, ...]] = {}
    runs = [
        (label, [replace(cfg, seed=s) for s in spec.seeds], hw) for label, cfg, hw in cells
    ]
    sw_cfgs = [c for _, cfgs, hw in runs if not hw for c in cfgs]
    hw_cfgs = [c for _, cfgs, hw in runs if hw for c in cfgs]
    sw_traces = [run_lifetime(c, n_patterns=spec.n_patterns) for c in sw_cfgs]
    noise = NoiseModel(sigma=spec.sigma)
    hw_traces = [
        trace
        for group in _lockstep_groups(hw_cfgs)
        for trace in run_lifetime_hw(
            group, n_patterns=spec.n_patterns, params=spec.params, noise=noise
        )
    ]
    done = {False: iter(sw_traces), True: iter(hw_traces)}
    ends = []
    for label, cfgs, hw in runs:
        cell_traces = tuple(next(done[hw]) for _ in cfgs)
        crossings[label] = tuple(
            threshold_crossing(t, spec.mean_threshold) for t in cell_traces
        )
        traces[label] = cell_traces
        learn = np.mean([t.learning[-1] for t in cell_traces])
        ends.append((learn, np.mean([t.mean[-1] for t in cell_traces])))
    if ends:
        learn_cells[valid], mean_cells[valid] = np.array(ends).T
    return SweepResult(
        grid=grid, mean_at_end=mean_cells, learning_at_end=learn_cells, valid=valid,
        crossings=crossings, traces=traces, n_patterns=spec.n_patterns,
    )


def run_comparison(spec: ExperimentSpec, models: tuple[Model, ...] = tuple(Model)) -> SweepResult:
    """Run every requested model (plus hardware variants when flagged)
    over all seeds and compute crossing statistics and the multistate
    over binary crossing ratio.  Hardware needs at least one model with a
    crossbar; the gradient model alone is rejected."""
    if len(models) < 1:
        raise ValueError("at least one model is required")
    if spec.hardware and set(models) == {Model.GRADIENT}:
        raise ValueError("the gradient model has no crossbar realization")
    cells = [(m.value, replace(spec.base, model=m), False) for m in models]
    if spec.hardware:
        cells += [
            (f"hw_{label}", cfg, True)
            for label, cfg, _ in cells
            if cfg.model is not Model.GRADIENT
        ]
    result = run_cells(spec, cells, (tuple(c[0] for c in cells),))
    if Model.BINARY not in models or Model.MULTISTATE not in models:
        return result
    multi, _ = result.crossing_stats("multistate")
    binary, _ = result.crossing_stats("binary")
    return replace(result, ratio_vs_binary=multi / binary)


def sweep_size(spec: ExperimentSpec) -> SweepResult:
    """Run the base model on square N x N networks across the size grid."""
    cells = [
        (str(n), replace(spec.base, n_in=n, n_out=n), spec.hardware)
        for n in spec.size_grid
    ]
    return run_cells(spec, cells, (tuple(spec.size_grid),))


def _cf_cell(base: NetworkConfig, c: float, f: float) -> NetworkConfig | None:
    """The config of one (C, f) cell, or None if NetworkConfig rejects it."""
    try:
        return replace(base, connectivity=c, activity=f)
    except ValueError:
        return None


def sweep_cf(spec: ExperimentSpec) -> SweepResult:
    """Grid of end-of-run accuracies over (connectivity, activity); cells
    whose config NetworkConfig rejects (no active bit or no synapse) stay
    NaN and invalid."""
    grid = (tuple(spec.c_grid), tuple(spec.f_grid))
    points = [(c, f) for c in spec.c_grid for f in spec.f_grid]
    cfgs = [_cf_cell(spec.base, c, f) for c, f in points]
    valid = np.array([cfg is not None for cfg in cfgs])
    cells = [
        (f"C{c:g}_f{f:g}", cfg, spec.hardware)
        for (c, f), cfg in zip(points, cfgs)
        if cfg is not None
    ]
    return run_cells(spec, cells, grid, valid.reshape(len(grid[0]), -1))
