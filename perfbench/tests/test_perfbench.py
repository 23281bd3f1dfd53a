"""Tests of the benchmark harness itself, on tiny configurations.

    python3 -m pytest perfbench/tests

They check that every metric named in BENCHMARK.json is emitted with its
unit, that count metrics repeat exactly, that a wrong golden hash is
reported as a failure and that a missing public name leaves its layer
unmeasured instead of failing the run.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import pytest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, PERFBENCH)

import run as harness  # noqa: E402
import tracing  # noqa: E402

TINY = {"n_in": "16", "n_out": "16", "n_patterns": "5", "seeds": "0"}
TINY_TRACE_SET = {"n": 16, "n_patterns": 5}

with open(os.path.join(harness.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _bench(name, trace, work, golden=None, seed=0):
    return harness.benchmark(
        name, seed, 0, trace, golden or {},
        overrides=TINY, trace_set=TINY_TRACE_SET, work=str(work),
    )


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Per workload: one untraced run and two traced runs at one seed."""
    work = tmp_path_factory.mktemp("work")
    out = {}
    for name in harness.WORKLOADS:
        out[name] = {
            "plain": _bench(name, False, work)[0],
            "traced": [_bench(name, True, work)[0] for _ in range(2)],
        }
    return out


def _units(entries):
    return {m["name"]: m["unit"] for m in entries}


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(harness.WORKLOADS)


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_every_metric_emitted_with_its_unit(runs, name):
    plain = runs[name]["plain"]["metrics"]
    assert {k: v["unit"] for k, v in plain.items()} == _units(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in plain.values())
    for traced in runs[name]["traced"]:
        layers = traced["metrics"]
        assert {k: v["unit"] for k, v in layers.items()} == _units(SPEC["per_layer"])
        assert all(isinstance(v["value"], (int, float)) for v in layers.values())


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_count_metrics_repeat_exactly(runs, name):
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")]
    first, second = ({k: r["metrics"][k]["value"] for k in counts} for r in runs[name]["traced"])
    assert first == second
    assert first["experiments.lifetime_runs"] >= 1


def test_wrong_golden_hash_is_a_failure(tmp_path):
    _, record = _bench("sw_compare", False, tmp_path)
    golden = {
        "outputs": {"sw_compare": record["output_hashes"]},
        "trace_set": {
            "config": TINY_TRACE_SET,
            "seeds": {"0": record["trace_set"]["hashes"]},
        },
    }
    _, record = _bench("sw_compare", False, tmp_path, golden)
    hash_checks = [c for c in record["checks"] if c["name"].endswith("hash")]
    assert hash_checks and all(c["ok"] for c in hash_checks)

    corrupted = copy.deepcopy(golden)
    corrupted["outputs"]["sw_compare"]["summary.csv"] = "0" * 64
    corrupted["trace_set"]["seeds"]["0"]["hw_multistate"]["mean"] = "0" * 64
    result, record = _bench("sw_compare", False, tmp_path, corrupted)
    failed = {c["name"] for c in record["checks"] if not c["ok"]}
    assert "run: summary.csv hash" in failed
    assert "trace set seed 0: hw_multistate.mean hash" in failed
    assert not result["correct"] and result["failed"] >= 2


def test_missing_public_name_is_unmeasured(monkeypatch):
    monkeypatch.setattr(
        tracing, "LOOKUPS", {"device.calibrate": [("metasyn.no_such_module", "f")]}
    )
    tracer = tracing.Tracer()
    tracer.install()
    metrics = tracer.metrics()
    assert metrics["device.calibrate.busy_s"]["value"] is None
    assert metrics["device.calibrate.calls"]["value"] is None
    assert metrics["device.integrate_pulse.calls"]["value"] == 0
