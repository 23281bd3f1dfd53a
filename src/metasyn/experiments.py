"""Multi-seed experiment orchestration.

One runner takes a list of (label, network config, hardware) cells and runs
each over the experiment's seeds, split into static shares over the usable
CPUs, with crossing statistics computed per seed and then aggregated.  The
standard evaluation set only builds cell lists: side-by-side model
comparisons, network-size sweeps, and connectivity/activity sweeps.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import crossbar
from .crossbar import run_lifetime_hw
from .device import DeviceParams, NoiseModel
from .network import AccuracyTrace, Model, NetworkConfig, _check_n_patterns, run_lifetime


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
        _check_n_patterns(self.n_patterns)
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

def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_share(
    spec: ExperimentSpec, share: list[tuple[bool, NetworkConfig]]
) -> list[AccuracyTrace]:
    """The traces of one share's (hardware, config) runs: its behavioral runs
    one by one, then its hardware runs in one run_lifetime_hw call."""
    noise = NoiseModel(sigma=spec.sigma)
    hw_cfgs = [cfg for hw, cfg in share if hw]
    return [run_lifetime(cfg, n_patterns=spec.n_patterns) for hw, cfg in share if not hw] + (
        run_lifetime_hw(hw_cfgs, n_patterns=spec.n_patterns, params=spec.params, noise=noise)
        if hw_cfgs
        else []
    )


def _run_shares(spec: ExperimentSpec, shares: list) -> list[list[AccuracyTrace]]:
    """Each share's traces, in share order.  The calling process runs share 0
    and a pool of forked workers the others; with one share nothing is
    forked.  A worker's error is raised here with its own type and message,
    and the pool joins every worker before this returns or raises.

    Before the fork, the caller calibrates the metastate table of every
    level count its hardware runs use, so the workers inherit the tables
    from the per-process memo instead of calibrating again, and a
    calibration error is raised before any worker starts."""
    if len(shares) == 1:
        return [_run_share(spec, shares[0])]
    for n_levels in sorted({cfg.effective_levels for share in shares for hw, cfg in share if hw}):
        # the crossbar module's name, the one init_crossbar calls
        crossbar.calibrate_metastate_table(spec.params, n_levels=n_levels)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork, not forkserver or spawn: those start a server or resource tracker
    # that can outlive the command.  No metasyn thread runs here: the noise
    # executor's worker lives and is joined inside one pulse call.
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(len(shares) - 1, mp_context=fork) as pool:
        futures = [pool.submit(_run_share, spec, share) for share in shares[1:]]
        return [_run_share(spec, shares[0])] + [f.result() for f in futures]


def run_cells(
    spec: ExperimentSpec,
    cells: list[Cell],
    grid: tuple[tuple, ...],
    valid: np.ndarray | None = None,
) -> SweepResult:
    """Run each (label, config, hardware) cell over spec.seeds.

    The (cell, seed) runs are split into w static shares, w the smaller of
    the usable CPUs and the larger of the behavioral and hardware run
    counts: share i takes every w-th behavioral and every w-th hardware run
    from index i.  The caller runs share 0 and forked workers the others
    (see _run_shares), so a trace sees the caller's share only.  A share's
    hardware runs go to one run_lifetime_hw call, which programs them in
    lockstep groups.  Every run builds its streams from its own seed, so its
    trace is the one it gives alone, whatever the share.  The cells fill the
    grid's valid entries in row-major order (every entry when valid is
    None); the others hold NaN.  Crossings are computed per seed and the
    end-of-run accuracies averaged over seeds.
    """
    labels = [label for label, _, _ in cells]
    repeated = [label for i, label in enumerate(labels) if label in labels[:i]]
    if repeated:
        raise ValueError(f"cell labels must not repeat, got {repeated[0]!r} twice")
    shape = tuple(len(g) for g in grid)
    valid = np.ones(shape, dtype=bool) if valid is None else valid
    learn_cells, mean_cells = np.full(shape, np.nan), np.full(shape, np.nan)
    runs = [(hw, replace(cfg, seed=s)) for _, cfg, hw in cells for s in spec.seeds]
    sw_runs = [k for k, (hw, _) in enumerate(runs) if not hw]
    hw_runs = [k for k, (hw, _) in enumerate(runs) if hw]
    w = max(1, min(_usable_cpus(), max(len(sw_runs), len(hw_runs))))
    shares = [sw_runs[i::w] + hw_runs[i::w] for i in range(w)]
    ordered = [None] * len(runs)
    for share, share_traces in zip(
        shares, _run_shares(spec, [[runs[k] for k in idx] for idx in shares])
    ):
        for k, trace in zip(share, share_traces, strict=True):
            ordered[k] = trace
    n = len(spec.seeds)
    traces = {label: tuple(ordered[j * n:(j + 1) * n]) for j, label in enumerate(labels)}
    crossings = {
        label: tuple(threshold_crossing(t, spec.mean_threshold) for t in cell_traces)
        for label, cell_traces in traces.items()
    }
    if cells:
        learn_cells[valid], mean_cells[valid] = np.array(
            [
                (np.mean([t.learning[-1] for t in ts]), np.mean([t.mean[-1] for t in ts]))
                for ts in traces.values()
            ]
        ).T
    return SweepResult(
        grid=grid, mean_at_end=mean_cells, learning_at_end=learn_cells, valid=valid,
        crossings=crossings, traces=traces, n_patterns=spec.n_patterns,
    )


def run_comparison(spec: ExperimentSpec, models: tuple[Model, ...] = tuple(Model)) -> SweepResult:
    """Run every requested model (plus hardware variants when flagged)
    over all seeds and compute crossing statistics and the multistate
    over binary crossing ratio.  Hardware needs at least one model with a
    crossbar; the gradient model alone is rejected."""
    models = [Model(m) for m in models]
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
    """Run the base model on square N x N networks across the size grid.
    A size the base model cannot be built at is rejected, by name, before
    any run."""
    cells = []
    for n in spec.size_grid:
        try:
            cells.append((str(n), replace(spec.base, n_in=n, n_out=n), spec.hardware))
        except ValueError as exc:
            raise ValueError(f"size_grid entry {n} gives no network: {exc}") from None
    return run_cells(spec, cells, (tuple(spec.size_grid),))


def _cf_cell(base: NetworkConfig, c: float, f: float) -> NetworkConfig | None:
    """The config of one (C, f) cell, or None if NetworkConfig rejects it."""
    try:
        return replace(base, connectivity=c, activity=f)
    except ValueError:
        return None


def _grid_label(v: float) -> str:
    """v as :g writes it where that reads back as v, else its repr, so two
    distinct grid values never share a label."""
    short = f"{v:g}"
    return short if float(short) == v else repr(float(v))


def sweep_cf(spec: ExperimentSpec) -> SweepResult:
    """Grid of end-of-run accuracies over (connectivity, activity); cells
    whose config NetworkConfig rejects (no active bit or no synapse) stay
    NaN and invalid."""
    grid = (tuple(spec.c_grid), tuple(spec.f_grid))
    points = [(c, f) for c in spec.c_grid for f in spec.f_grid]
    cfgs = [_cf_cell(spec.base, c, f) for c, f in points]
    valid = np.array([cfg is not None for cfg in cfgs])
    cells = [
        (f"C{_grid_label(c)}_f{_grid_label(f)}", cfg, spec.hardware)
        for (c, f), cfg in zip(points, cfgs)
        if cfg is not None
    ]
    return run_cells(spec, cells, grid, valid.reshape(len(grid[0]), -1))
