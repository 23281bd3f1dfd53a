"""Experiment harness tests: crossing statistics, sweep assembly, determinism."""

import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest

from metasyn.experiments import (
    ExperimentSpec,
    SweepResult,
    run_comparison,
    sweep_cf,
    sweep_size,
    threshold_crossing,
)
from metasyn import crossbar, device, experiments
from metasyn.crossbar import run_lifetime_hw
from metasyn.device import CalibrationError, NoiseModel
from metasyn.network import AccuracyTrace, Model, NetworkConfig

BASE = NetworkConfig(n_in=32, n_out=32)


def trace_of(mean: list[float]) -> AccuracyTrace:
    arr = np.asarray(mean, dtype=np.float64)
    return AccuracyTrace(learning=np.ones_like(arr), mean=arr)


# ---- threshold crossing -------------------------------------------------------


def test_crossing_is_smallest_index_below():
    assert threshold_crossing(trace_of([0.9, 0.8, 0.7, 0.9, 0.6]), 0.75) == 3


def test_crossing_is_one_based():
    assert threshold_crossing(trace_of([0.5, 0.9]), 0.75) == 1


def test_constant_high_trace_never_crosses():
    assert threshold_crossing(trace_of([1.0] * 50), 0.75) is None


def test_crossing_uses_strict_below():
    assert threshold_crossing(trace_of([0.75, 0.75]), 0.75) is None


def test_crossing_rejects_empty_trace():
    with pytest.raises(ValueError):
        threshold_crossing(trace_of([]), 0.75)


def test_crossing_definition_is_minimal_index():
    trace = trace_of([0.9, 0.75, 0.74, 0.9, 0.5])
    assert threshold_crossing(trace, 0.80) == 2
    assert threshold_crossing(trace, 0.75) == 3


# ---- spec validation -----------------------------------------------------------


def test_spec_requires_seeds():
    with pytest.raises(ValueError):
        ExperimentSpec(seeds=())


def test_spec_requires_grids():
    with pytest.raises(ValueError):
        ExperimentSpec(size_grid=())
    with pytest.raises(ValueError):
        ExperimentSpec(c_grid=())
    with pytest.raises(ValueError):
        ExperimentSpec(f_grid=())


def test_comparison_requires_models():
    with pytest.raises(ValueError):
        run_comparison(ExperimentSpec(base=BASE, seeds=(0,)), models=())


@pytest.mark.parametrize("n_patterns", [2.5, True])
def test_spec_rejects_a_non_integer_pattern_count(n_patterns):
    # 2.5 used to construct and then fail deep inside the run with numpy's
    # bare TypeError
    with pytest.raises(ValueError, match="^n_patterns must be an integer >= 1"):
        ExperimentSpec(base=BASE, seeds=(0,), n_patterns=n_patterns)


@pytest.mark.parametrize("sweep", [sweep_size, sweep_cf])
def test_gradient_hardware_sweep_rejected(sweep):
    base = NetworkConfig(n_in=16, n_out=16, model=Model.GRADIENT)
    spec = ExperimentSpec(
        base=base, seeds=(0,), n_patterns=5, hardware=True, size_grid=(16,),
        c_grid=(0.25,), f_grid=(0.25,),
    )
    with pytest.raises(ValueError, match="no crossbar realization"):
        sweep(spec)


def test_gradient_hardware_comparison_rejected():
    """Hardware with the gradient model alone would run no crossbar at all;
    beside a model that has one, the gradient row stays behavioral."""
    spec = ExperimentSpec(
        base=NetworkConfig(n_in=16, n_out=16), seeds=(0,), n_patterns=5, hardware=True
    )
    with pytest.raises(ValueError, match="no crossbar realization"):
        run_comparison(spec, models=(Model.GRADIENT,))


# ---- comparison ------------------------------------------------------------------


def test_single_seed_single_model_has_one_trace():
    spec = ExperimentSpec(base=BASE, seeds=(7,), n_patterns=10)
    res = run_comparison(spec, models=(Model.MULTISTATE,))
    assert res.grid == (("multistate",),)
    assert len(res.traces["multistate"]) == 1
    assert res.ratio_vs_binary is None


def test_comparison_runs_all_models_and_ratio():
    spec = ExperimentSpec(base=BASE, seeds=(0, 1), n_patterns=30)
    res = run_comparison(spec)
    assert res.grid[0] == ("binary", "multistate", "gradient")
    assert res.ratio_vs_binary is not None and res.ratio_vs_binary > 1.0
    multi_mean, _ = res.crossing_stats("multistate")
    binary_mean, _ = res.crossing_stats("binary")
    assert res.ratio_vs_binary == pytest.approx(multi_mean / binary_mean)


def test_models_may_be_named_by_value():
    """Model is a str enum, so plain names select the same cells and give
    byte-equal traces; an unknown name is rejected."""
    spec = ExperimentSpec(base=BASE, seeds=(0,), n_patterns=8, hardware=True)
    named = run_comparison(spec, ["binary", "multistate"])
    enums = run_comparison(spec, (Model.BINARY, Model.MULTISTATE))
    assert named.grid == enums.grid
    assert named.ratio_vs_binary == enums.ratio_vs_binary
    for label, traces in enums.traces.items():
        for a, b in zip(named.traces[label], traces, strict=True):
            assert a.learning.tobytes() == b.learning.tobytes()
            assert a.mean.tobytes() == b.mean.tobytes()
    with pytest.raises(ValueError, match="binray"):
        run_comparison(spec, ["binray"])


def test_hardware_flag_adds_crossbar_runs():
    spec = ExperimentSpec(base=BASE, seeds=(0,), n_patterns=10, hardware=True)
    res = run_comparison(spec, models=(Model.BINARY, Model.GRADIENT))
    assert res.grid[0] == ("binary", "gradient", "hw_binary")


def test_aggregate_shapes():
    spec = ExperimentSpec(base=BASE, seeds=(0, 1, 2), n_patterns=12)
    res = run_comparison(spec, models=(Model.BINARY,))
    lm, ls, mm, ms = res.aggregate("binary")
    assert lm.shape == (12,) and ms.shape == (12,)
    assert np.all(ls >= 0) and np.all(ms >= 0)


def test_censored_crossing_stats():
    res = SweepResult(
        grid=(("m",),),
        mean_at_end=np.array([1.0]),
        learning_at_end=np.array([1.0]),
        valid=np.array([True]),
        crossings={"m": (4, None, 6)},
        traces={"m": ()},
        n_patterns=10,
    )
    mean, std = res.crossing_stats("m")
    assert mean == pytest.approx((4 + 11 + 6) / 3)


def test_result_shape_invariant():
    with pytest.raises(ValueError):
        SweepResult(
            grid=(("a", "b"),),
            mean_at_end=np.zeros(3),
            learning_at_end=np.zeros(2),
            valid=np.ones(2, dtype=bool),
            crossings={},
            traces={},
            n_patterns=10,
        )


# ---- sweeps -----------------------------------------------------------------------


def test_sweep_size_labels_and_cells():
    spec = ExperimentSpec(
        base=NetworkConfig(n_in=16, n_out=16, model=Model.MULTISTATE),
        seeds=(0,),
        n_patterns=10,
        size_grid=(16, 32),
    )
    res = sweep_size(spec)
    assert res.grid == ((16, 32),)
    assert res.mean_at_end.shape == (2,)
    assert set(res.crossings) == {"16", "32"}


def test_sweep_cf_marks_invalid_cells():
    spec = ExperimentSpec(
        base=NetworkConfig(n_in=16, n_out=16),
        seeds=(0,),
        n_patterns=8,
        c_grid=(0.25,),
        f_grid=(0.01, 0.5),  # f=0.01 rounds to zero active bits on 16 inputs
    )
    res = sweep_cf(spec)
    assert res.valid.shape == (1, 2)
    assert not res.valid[0, 0] and res.valid[0, 1]
    assert np.isnan(res.mean_at_end[0, 0])
    assert not np.isnan(res.mean_at_end[0, 1])


def test_all_invalid_cf_grid_runs_nothing():
    spec = ExperimentSpec(
        base=NetworkConfig(n_in=16, n_out=16),
        seeds=(0,),
        n_patterns=8,
        c_grid=(0.25, 0.5),
        f_grid=(0.01,),
    )
    res = sweep_cf(spec)
    assert res.valid.shape == (2, 1) and not res.valid.any()
    assert np.all(np.isnan(res.mean_at_end)) and np.all(np.isnan(res.learning_at_end))
    assert res.traces == {} and res.crossings == {}


def test_single_cell_cf_equals_direct_run():
    from metasyn.network import run_lifetime

    cfg = NetworkConfig(n_in=32, n_out=32, connectivity=0.25, activity=0.25, seed=3)
    spec = ExperimentSpec(
        base=cfg,
        seeds=(3,),
        n_patterns=15,
        c_grid=(0.25,),
        f_grid=(0.25,),
    )
    res = sweep_cf(spec)
    direct = run_lifetime(cfg, n_patterns=15)
    assert res.mean_at_end[0, 0] == pytest.approx(float(direct.mean[-1]))


def test_identical_spec_bit_identical_result():
    spec = ExperimentSpec(base=BASE, seeds=(0, 1), n_patterns=20)
    a = run_comparison(spec, models=(Model.MULTISTATE,))
    b = run_comparison(spec, models=(Model.MULTISTATE,))
    assert np.array_equal(a.mean_at_end, b.mean_at_end)
    assert a.crossings == b.crossings
    for ta, tb in zip(a.traces["multistate"], b.traces["multistate"]):
        assert np.array_equal(ta.learning, tb.learning)
        assert np.array_equal(ta.mean, tb.mean)


def test_seed_mean_stability_on_doubling():
    """Doubling the seed count moves the crossing ratio by < 10%."""
    models = (Model.BINARY, Model.MULTISTATE)
    half = run_comparison(ExperimentSpec(seeds=tuple(range(5)), n_patterns=100), models)
    full = run_comparison(ExperimentSpec(seeds=tuple(range(10)), n_patterns=100), models)
    rel = abs(full.ratio_vs_binary - half.ratio_vs_binary) / full.ratio_vs_binary
    assert rel < 0.10


# ---- lockstep hardware runs ----------------------------------------------------

LOCKSTEP_BASE = NetworkConfig(n_in=16, n_out=16, connectivity=0.5, activity=0.5)


@pytest.mark.parametrize(
    "rule", [{}, {"q": 0.5, "updates_per_pattern": 3}], ids=["q1", "q0.5-upp3"]
)
@pytest.mark.parametrize("sigma", [NoiseModel.sigma, 0.0], ids=["noisy", "quiet"])
@pytest.mark.parametrize("experiment", ["compare", "sweep_size"])
def test_lockstep_traces_equal_independent_runs(experiment, sigma, rule):
    """run_cells programs every hardware (cell, seed) run in one lockstep
    group; each trace must be byte-identical to that run alone, with its
    noise on its own seed's stream."""
    base = replace(LOCKSTEP_BASE, **rule)
    spec = ExperimentSpec(
        base=base, seeds=(0, 1, 2), n_patterns=12, hardware=True, sigma=sigma,
        size_grid=(16, 24),
    )
    if experiment == "compare":
        result = run_comparison(spec, models=(Model.BINARY, Model.MULTISTATE))
        cells = {f"hw_{m.value}": replace(base, model=m) for m in (Model.BINARY, Model.MULTISTATE)}
    else:
        result = sweep_size(spec)
        cells = {str(n): replace(base, n_in=n, n_out=n) for n in spec.size_grid}
    for label, cfg in cells.items():
        assert len(result.traces[label]) == len(spec.seeds)
        for seed, trace in zip(spec.seeds, result.traces[label]):
            alone = run_lifetime_hw(
                replace(cfg, seed=seed),
                n_patterns=spec.n_patterns,
                params=spec.params,
                noise=NoiseModel(sigma=sigma),
            )
            assert trace.learning.tobytes() == alone.learning.tobytes()
            assert trace.mean.tobytes() == alone.mean.tobytes()


def test_lockstep_groups_fit_the_budget(monkeypatch):
    """With a smaller device-state budget run_lifetime_hw splits each share's
    hardware runs into consecutive groups; no group exceeds the budget and
    every trace is byte-identical to the single-group run.  The spies see
    the calling process only, which runs share 0: runs 0, w, 2w, ... of
    16, 16, 16, 24, 24, 24 (2,048 bytes of device state at 16, 4,608 at 24).
    A group is the crossbars built before each lifetime loop."""
    spec = ExperimentSpec(
        base=LOCKSTEP_BASE, seeds=(0, 1, 2), n_patterns=8, hardware=True, size_grid=(16, 24)
    )
    whole = sweep_size(spec)
    budget = 2 * 8 * 24 * 24
    built, groups = [], []
    init, loop = crossbar.init_crossbar, crossbar.lifetime_loop

    def build(cfg, **kwargs):
        built.append(8 * cfg.n_in * cfg.n_out)
        return init(cfg, **kwargs)

    def run_group(*args):
        groups.append(built[:])
        built.clear()
        return loop(*args)

    monkeypatch.setattr(crossbar, "_LOCKSTEP_STATE_BYTES", budget)
    monkeypatch.setattr(crossbar, "init_crossbar", build)
    monkeypatch.setattr(crossbar, "lifetime_loop", run_group)
    for shares, caller_groups in ((1, [3, 2, 1]), (2, [3]), (3, [2])):
        groups.clear()
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: shares)
        split = sweep_size(spec)
        assert [len(g) for g in groups] == caller_groups
        assert all(sum(g) <= budget for g in groups)
        for label, traces in whole.traces.items():
            for a, b in zip(traces, split.traces[label], strict=True):
                assert a.learning.tobytes() == b.learning.tobytes()
                assert a.mean.tobytes() == b.mean.tobytes()


def test_lockstep_groups_keep_benchmark_runs_together():
    """A six-run 128x128 hardware compare and one 512x512 run each stay one
    lockstep group; a run larger than the budget goes alone."""
    group = crossbar._lockstep_groups
    assert len(group([NetworkConfig()] * 6)) == 1
    assert len(group([NetworkConfig(n_in=512, n_out=512)])) == 1
    big = NetworkConfig(n_in=1024, n_out=1024)
    assert group([big, big, NetworkConfig()]) == [[big], [big], [NetworkConfig()]]


# ---- shares over the usable CPUs ---------------------------------------------------

SHARED_EXPERIMENTS = {
    # 9 behavioral and 6 hardware runs
    "hw_compare": lambda: run_comparison(
        ExperimentSpec(base=LOCKSTEP_BASE, seeds=(0, 1, 2), n_patterns=6, hardware=True)
    ),
    # hardware only, two sizes in the shares' lockstep groups
    "hw_sweep_size": lambda: sweep_size(
        ExperimentSpec(
            base=LOCKSTEP_BASE, seeds=(0, 1, 2), n_patterns=6, hardware=True,
            size_grid=(16, 24),
        )
    ),
    # f = 0.01 rounds to no active bit on 16 inputs: two invalid cells
    "sweep_cf_invalid_cell": lambda: sweep_cf(
        ExperimentSpec(
            base=NetworkConfig(n_in=16, n_out=16), seeds=(0, 1, 2), n_patterns=6,
            c_grid=(0.25, 0.5), f_grid=(0.01, 0.5),
        )
    ),
}


@pytest.fixture(scope="module")
def one_share():
    """Each shared experiment's result with one share, run in this process."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "_usable_cpus", lambda: 1)
        return {name: run() for name, run in SHARED_EXPERIMENTS.items()}


def assert_same_result(a: SweepResult, b: SweepResult) -> None:
    assert a.grid == b.grid
    assert list(a.traces) == list(b.traces)  # labels, in order
    for label, traces in a.traces.items():
        for x, y in zip(traces, b.traces[label], strict=True):
            assert x.learning.tobytes() == y.learning.tobytes()
            assert x.mean.tobytes() == y.mean.tobytes()
    assert a.crossings == b.crossings
    for name in ("mean_at_end", "learning_at_end", "valid"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    assert a.ratio_vs_binary == b.ratio_vs_binary


@pytest.mark.parametrize("shares", [2, 3])
@pytest.mark.parametrize("name", sorted(SHARED_EXPERIMENTS))
def test_shared_runs_equal_the_one_share_run(one_share, monkeypatch, name, shares):
    """Split over 2 or 3 shares, an experiment gives the one-share result
    byte for byte, the caller runs only its own share, and no worker is
    left behind."""
    caller_runs = []

    def count(run):
        def counted(cfg, **kwargs):
            caller_runs.extend([cfg] if isinstance(cfg, NetworkConfig) else cfg)
            return run(cfg, **kwargs)

        return counted

    monkeypatch.setattr(experiments, "_usable_cpus", lambda: shares)
    monkeypatch.setattr(experiments, "run_lifetime", count(experiments.run_lifetime))
    monkeypatch.setattr(experiments, "run_lifetime_hw", count(experiments.run_lifetime_hw))
    pooled = SHARED_EXPERIMENTS[name]()
    assert_same_result(pooled, one_share[name])
    all_runs = sum(len(t) for t in one_share[name].traces.values())
    assert 0 < len(caller_runs) < all_runs
    assert multiprocessing.active_children() == []


class ShareFailure(RuntimeError):
    pass


@pytest.mark.parametrize("failing_seed", [0, 1], ids=["caller", "worker"])
def test_a_share_error_reaches_the_caller(monkeypatch, failing_seed):
    """Seed 0 runs in the calling process and seed 1 in the worker; either
    error is raised with its own type and message, and no worker is left."""
    real = experiments.run_lifetime

    def run(cfg, **kwargs):
        if cfg.seed == failing_seed:
            raise ShareFailure(f"seed {cfg.seed} failed")
        return real(cfg, **kwargs)

    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(experiments, "run_lifetime", run)
    spec = ExperimentSpec(base=NetworkConfig(n_in=16, n_out=16), seeds=(0, 1), n_patterns=4)
    with pytest.raises(ShareFailure, match=f"^seed {failing_seed} failed$"):
        run_comparison(spec, models=(Model.BINARY,))
    assert multiprocessing.active_children() == []


def test_one_run_of_each_kind_forks_nothing(monkeypatch):
    """The hw_dense shape, one behavioral and one hardware run, has nothing
    to overlap: it stays in the calling process however many CPUs there are."""

    def no_fork():
        raise AssertionError("a one-share experiment forked")

    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(os, "fork", no_fork)
    spec = ExperimentSpec(
        base=replace(LOCKSTEP_BASE, model=Model.MULTISTATE), seeds=(0,), n_patterns=4,
        hardware=True,
    )
    result = run_comparison(spec, models=(Model.MULTISTATE,))
    assert list(result.traces) == ["multistate", "hw_multistate"]


# both hardware models, so each share needs the n_levels 1 and 3 tables
CALIBRATED_COMPARE = ExperimentSpec(
    base=NetworkConfig(n_in=16, n_out=16), seeds=(0, 1), n_patterns=3, hardware=True
)


def test_share_workers_make_no_calibration(monkeypatch):
    """The caller calibrates every level count of the hardware runs before
    the fork, so a worker finds each table in the memo it inherits."""
    caller, real = os.getpid(), device._find_anchor

    def anchor(*args):
        if os.getpid() != caller:
            raise AssertionError("a share worker calibrated")
        return real(*args)

    device._calibrated_table.cache_clear()
    monkeypatch.setattr(device, "_find_anchor", anchor)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    result = run_comparison(CALIBRATED_COMPARE)
    assert list(result.traces) == [m.value for m in Model] + ["hw_binary", "hw_multistate"]
    assert multiprocessing.active_children() == []


def test_a_calibration_error_starts_no_worker(monkeypatch):
    def anchor(*args):
        raise CalibrationError("no anchor found")

    def no_fork():
        raise AssertionError("a worker started")

    device._calibrated_table.cache_clear()
    monkeypatch.setattr(device, "_find_anchor", anchor)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    with pytest.raises(CalibrationError, match="^no anchor found$"):
        run_comparison(CALIBRATED_COMPARE)


def test_usable_cpus_is_the_affinity_set():
    expected = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert experiments._usable_cpus() == expected >= 1


# ---- cell labels ----------------------------------------------------------------------


def test_close_cf_grid_values_keep_distinct_labels():
    """0.5 and 0.5000001 both print as 0.5 under :g; the second used to
    overwrite the first's traces and crossings."""
    spec = ExperimentSpec(
        base=NetworkConfig(n_in=16, n_out=16), seeds=(0,), n_patterns=4,
        c_grid=(0.5, 0.5000001), f_grid=(0.5,),
    )
    result = sweep_cf(spec)
    assert list(result.traces) == ["C0.5_f0.5", "C0.5000001_f0.5"]
    assert list(result.crossings) == list(result.traces)


def test_default_cf_labels_are_unchanged():
    spec = ExperimentSpec()
    for v in (*spec.c_grid, *spec.f_grid, 1.0, 1e-05, 0.333):
        assert experiments._grid_label(v) == f"{v:g}"


def test_sweep_size_names_a_size_it_cannot_build(monkeypatch):
    """At f = 0.25 a 1 x 1 network has no active input bit; the sweep names
    the grid entry before any run starts."""

    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(experiments, "run_lifetime", no_run)
    spec = ExperimentSpec(seeds=(0,), n_patterns=2, size_grid=(8, 1))
    with pytest.raises(ValueError, match="^size_grid entry 1 gives no network: activity too low"):
        sweep_size(spec)


def test_an_unbuildable_size_grid_does_not_stop_a_compare():
    spec = ExperimentSpec(base=NetworkConfig(n_in=16, n_out=16), seeds=(0,), n_patterns=2,
                          size_grid=(1,))
    assert list(run_comparison(spec, models=(Model.BINARY,)).traces) == ["binary"]


def test_run_cells_rejects_a_repeated_label():
    """A repeated model gives a repeated label, whose second cell used to
    overwrite the first's traces and crossings."""
    spec = ExperimentSpec(base=BASE, seeds=(0,), n_patterns=2)
    with pytest.raises(ValueError, match="'binary' twice"):
        run_comparison(spec, models=(Model.BINARY, Model.MULTISTATE, Model.BINARY))
