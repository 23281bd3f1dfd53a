"""Benchmark of the metasyn command line, one closed-loop batch job at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every repetition runs one complete CLI command (``metasyn.cli.main``) in a
fresh interpreter with BLAS pinned to one thread, because a user pays
imports and device calibration on every command; an in-process cache kept
across repetitions would hide exactly that cost.  Repetitions run one after
another while they fit in S seconds (at least one).  --seed shifts every seed of
the workload through METASYN_SEED_OFFSET, the CLI's replication shift.

Checks, counted in the result's ``attempted`` and ``failed``:
  * every command exits with status 0;
  * every output file's SHA-256 equals the golden hash (seed 0) or, at
    other seeds, the first repetition's hash (the CLI writes floats with
    repr, so reruns are byte-identical);
  * once per invocation, outside the timed runs, the golden trace set at
    seed N mod 3 (behavioral multistate and binary, hardware multistate
    with default noise, ideal hardware with noise off) hashes to its golden
    value, ideal hardware equals behavioral multistate exactly, and one
    metalevel equals binary exactly.

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced and one
traced repetition and prints the per-layer metrics (see tracing.py).  The
last line of standard output is the JSON result; a record with the
environment, every sample and the output hashes goes to perfbench/_work.
The exit status is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
GOLDEN = os.path.join(HERE, "golden.json")

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SEED_OFFSET_VAR = "METASYN_SEED_OFFSET"
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170
# Default network, 50 patterns; seeds 0-2, one per invocation.
TRACE_SET = {"n": 128, "n_patterns": 50}
TRACE_SET_SEEDS = 3


@dataclass(frozen=True)
class Workload:
    command: str
    config: dict


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "sw_compare": Workload("compare", {"n_patterns": "300"}),
    "hw_compare": Workload(
        "compare", {"hardware": "true", "seeds": "0, 1, 2", "n_patterns": "100"}
    ),
    "hw_dense": Workload(
        "run",
        {
            "hardware": "true",
            "model": "multistate",
            "n_in": "512",
            "n_out": "512",
            "connectivity": "0.5",
            "activity": "0.5",
            "seeds": "0",
            "n_patterns": "30",
        },
    ),
    "hw_trace": Workload("dump-trace", {"n_patterns": "100"}),
}


class ChildError(RuntimeError):
    """A child process crashed or timed out, so nothing was measured."""


def presentations(command: str, cfg: dict) -> int:
    """Training presentations of one command: model labels x seeds x
    patterns, with the CLI's defaults for keys the config leaves out."""
    n_patterns = int(cfg.get("n_patterns", 100))
    if command == "dump-trace":
        return n_patterns
    models = ("binary", "multistate", "gradient") if command == "compare" else (
        cfg.get("model", "multistate"),
    )
    if cfg.get("hardware") == "true":
        models += tuple(m for m in models if m != "gradient")
    return len(models) * len(cfg.get("seeds", "0,1,2,3,4,5,6,7,8,9").split(",")) * n_patterns


def file_hashes(directory: str) -> dict:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


class Run:
    """One invocation: its files under the work directory, and its checks."""

    def __init__(self, name: str, seed: int, overrides: dict | None, work: str):
        self.name = name
        self.seed = seed
        self.workload = WORKLOADS[name]
        self.dir = os.path.join(work, name)
        self.out_dir = os.path.join(self.dir, "out")
        self.spans_path = os.path.join(work, "spans", f"{name}-seed{seed}.json")
        self.config = {**self.workload.config, **(overrides or {})}
        self.checks: list[dict] = []
        os.makedirs(os.path.dirname(self.spans_path), exist_ok=True)
        os.makedirs(self.dir, exist_ok=True)
        self.config_path = os.path.join(self.dir, "config.txt")
        lines = [f"{k} = {v}" for k, v in self.config.items()]
        lines.append(f"out_dir = {self.out_dir}")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    def child(self, mode: str, extra: dict | None = None) -> dict:
        """Run child.py in a fresh pinned interpreter and return its report,
        with ``setup_s`` measured from this side of the spawn."""
        job = {
            "command": self.workload.command,
            "config_path": self.config_path,
            "spans_path": self.spans_path,
            **(extra or {}),
        }
        job_path = os.path.join(self.dir, "job.json")
        report_path = os.path.join(self.dir, "report.json")
        log_path = os.path.join(self.dir, "child.log")
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        if os.path.exists(report_path):
            os.remove(report_path)
        env = {**os.environ, **PINNED_ENV, SEED_OFFSET_VAR: str(self.seed)}
        argv = [sys.executable, os.path.join(HERE, "child.py"), mode, ROOT, job_path, report_path]
        with open(log_path, "w", encoding="utf-8") as log:
            t_spawn = time.monotonic()
            try:
                proc = subprocess.run(
                    argv, env=env, stdout=subprocess.DEVNULL, stderr=log,
                    timeout=CHILD_TIMEOUT_S, check=False,
                )
            except subprocess.TimeoutExpired:
                raise ChildError(f"{mode} child timed out after {CHILD_TIMEOUT_S} s") from None
        if proc.returncode != 0 or not os.path.exists(report_path):
            with open(log_path, encoding="utf-8") as fh:
                tail = fh.read()[-2000:]
            raise ChildError(f"{mode} child exited with {proc.returncode}:\n{tail}")
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        report["setup_s"] = report["t_ready"] - t_spawn
        return report

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def repetition(self, mode: str, expected: dict | None) -> dict:
        """One complete command; checks its exit status and output hashes
        against ``expected`` when given."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        report = self.child(mode)
        report["hashes"] = file_hashes(self.out_dir) if os.path.isdir(self.out_dir) else {}
        self.check(f"{mode}: exit status", report["rc"] == 0, f"rc={report['rc']}")
        if expected is not None:
            for fname in sorted(set(expected) | set(report["hashes"])):
                got = report["hashes"].get(fname)
                self.check(
                    f"{mode}: {fname} hash", got == expected.get(fname),
                    f"got {got}, expected {expected.get(fname)}",
                )
        return report

    def trace_set(self, golden: dict, cfg: dict) -> dict:
        """The golden trace set at seed (workload seed mod 3) and the exact
        reduction checks; outside every timed region."""
        k = self.seed % TRACE_SET_SEEDS
        report = self.child("traceset", {**cfg, "seed": k})
        expected = golden.get("seeds", {}).get(str(k))
        if golden.get("config") == cfg and expected is not None:
            for member, curves in sorted(report["hashes"].items()):
                for curve, digest in sorted(curves.items()):
                    want = expected.get(member, {}).get(curve)
                    self.check(
                        f"trace set seed {k}: {member}.{curve} hash", digest == want,
                        f"got {digest}, expected {want}",
                    )
        else:
            self.check(f"trace set seed {k}: golden hashes present", False, "no golden entry")
        for rule, ok in sorted(report["reductions"].items()):
            self.check(f"trace set seed {k}: {rule}", ok)
        return report


def environment(numpy_info: dict) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy_info,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "commit": _commit(),
        "pinned_env": PINNED_ENV,
    }


def _commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            return next((ln.split()[0] for ln in fh if ln.rstrip().endswith(" " + ref)), None)
    except OSError:
        return None


def benchmark(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    golden: dict,
    *,
    overrides: dict | None = None,
    trace_set: dict = TRACE_SET,
    work: str = WORK,
) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, full record)."""
    run = Run(name, seed, overrides, work)
    expected = golden.get("outputs", {}).get(name) if seed == 0 else None
    record: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                    "command": run.workload.command, "config": run.config}

    if not trace:
        # Any failure to start the program at all ends the run here, before
        # a result is printed.
        probes = [run.child("setup")["setup_s"] for _ in range(SETUP_PROBES)]
        # Another repetition starts only if, at the mean repetition time so
        # far, it ends within the measuring time; the first always runs.
        reps: list[dict] = []
        t0 = time.monotonic()
        while not reps or (time.monotonic() - t0) * (len(reps) + 1) / len(reps) <= seconds:
            reps.append(run.repetition("run", expected))
            if expected is None:
                expected = reps[0]["hashes"]
        run_s = statistics.median(r["run_s"] for r in reps)
        metrics = {
            "setup_s": (statistics.median(probes + [r["setup_s"] for r in reps]), "s"),
            "run_s": (run_s, "s"),
            "patterns_per_s": (presentations(run.workload.command, run.config) / run_s, "1/s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
        }
        record.update(setup_probes_s=probes, repetitions=reps)
    else:
        plain = run.repetition("run", expected)
        traced = run.repetition("traced", expected or plain["hashes"])
        metrics = {k: (v["value"], v["unit"]) for k, v in traced.pop("layers").items()}
        metrics["trace.run_s"] = (traced["run_s"], "s")
        metrics["trace.overhead_ratio"] = (traced["run_s"] / plain["run_s"], "ratio")
        record.update(repetitions=[plain, traced], spans=run.spans_path,
                      unmeasured=traced["missing"])

    ts = run.trace_set(golden.get("trace_set", {}), trace_set)
    record["trace_set"] = {"seed": seed % TRACE_SET_SEEDS, "config": trace_set,
                           "hashes": ts["hashes"], "reductions": ts["reductions"]}
    record["environment"] = environment(ts["numpy"])
    record["output_hashes"] = record["repetitions"][0]["hashes"]
    record["checks"] = run.checks
    failed = sum(not c["ok"] for c in run.checks)
    result = {
        "correct": failed == 0,
        "attempted": len(run.checks),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = result
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    try:
        result, record = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), golden)
    except ChildError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 2
    records = os.path.join(WORK, "records")
    os.makedirs(records, exist_ok=True)
    path = os.path.join(records, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for c in record["checks"]:
        if not c["ok"]:
            print(f"FAILED {c['name']}: {c['detail']}", file=sys.stderr)
    print(f"record: {os.path.relpath(path, ROOT)}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
