"""Experiment harness tests: crossing statistics, sweep assembly, determinism."""

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
from metasyn import experiments
from metasyn.crossbar import run_lifetime_hw
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


@pytest.mark.parametrize("sweep", [sweep_size, sweep_cf])
def test_gradient_hardware_sweep_rejected(sweep):
    base = NetworkConfig(n_in=16, n_out=16, model=Model.GRADIENT)
    spec = ExperimentSpec(
        base=base, seeds=(0,), n_patterns=5, hardware=True, size_grid=(16,),
        c_grid=(0.25,), f_grid=(0.25,),
    )
    with pytest.raises(ValueError, match="no crossbar realization"):
        sweep(spec)


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
        axes=("model",),
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
            axes=("model",),
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
@pytest.mark.parametrize("noise", [True, False], ids=["noisy", "quiet"])
@pytest.mark.parametrize("experiment", ["compare", "sweep_size"])
def test_lockstep_traces_equal_independent_runs(experiment, noise, rule):
    """run_cells programs every hardware (cell, seed) run in one lockstep
    group; each trace must be byte-identical to that run alone."""
    base = replace(LOCKSTEP_BASE, **rule)
    spec = ExperimentSpec(
        base=base, seeds=(0, 1, 2), n_patterns=12, hardware=True, noise=noise,
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
                noise=spec.noise_for(seed),
            )
            assert trace.learning.tobytes() == alone.learning.tobytes()
            assert trace.mean.tobytes() == alone.mean.tobytes()


def test_lockstep_groups_fit_the_budget(monkeypatch):
    """With a smaller device-state budget run_cells splits the hardware runs
    into consecutive groups; no group exceeds the budget and every trace is
    byte-identical to the single-group run."""
    spec = ExperimentSpec(
        base=LOCKSTEP_BASE, seeds=(0, 1, 2), n_patterns=8, hardware=True, size_grid=(16, 24)
    )
    whole = sweep_size(spec)
    budget = 2 * 8 * 24 * 24
    groups = []

    def spy(cfgs, **kwargs):
        groups.append([8 * c.n_in * c.n_out for c in cfgs])
        return run_lifetime_hw(cfgs, **kwargs)

    monkeypatch.setattr(experiments, "_LOCKSTEP_STATE_BYTES", budget)
    monkeypatch.setattr(experiments, "run_lifetime_hw", spy)
    split = sweep_size(spec)
    assert [len(g) for g in groups] == [3, 2, 1]
    assert all(sum(g) <= budget for g in groups)
    for label, traces in whole.traces.items():
        for a, b in zip(traces, split.traces[label], strict=True):
            assert a.learning.tobytes() == b.learning.tobytes()
            assert a.mean.tobytes() == b.mean.tobytes()


def test_lockstep_groups_keep_benchmark_runs_together():
    """A six-run 128x128 hardware compare and one 512x512 run each stay one
    lockstep group; a run larger than the budget goes alone."""
    group = experiments._lockstep_groups
    assert len(group([NetworkConfig()] * 6)) == 1
    assert len(group([NetworkConfig(n_in=512, n_out=512)])) == 1
    big = NetworkConfig(n_in=1024, n_out=1024)
    assert group([big, big, NetworkConfig()]) == [[big], [big], [NetworkConfig()]]
