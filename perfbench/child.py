"""One measurement in a fresh interpreter; started by run.py, one at a time.

    python3 child.py MODE ROOT JOB_JSON REPORT_JSON

MODE is one of
  setup     import numpy and metasyn, parse the config, exit;
  run       the same, then one complete ``metasyn.cli.main`` command;
  traced    like run, with span wrappers installed around the program's
            public calls; the spans are written to the job's spans path;
  traceset  the golden trace set and the two exact-reduction checks.

The parent sets the BLAS thread variables in this process's environment, so
they hold before numpy is imported.  The report carries ``t_ready``, the
CLOCK_MONOTONIC time at which the CLI was ready; the parent subtracts its
own spawn time from it to get the set-up time, interpreter start included.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time


def _import_metasyn(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import numpy  # noqa: F401  (part of set-up cost; metasyn imports it too)
    import metasyn.cli

    where = os.path.realpath(metasyn.cli.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"metasyn imported from {where}, not from {src}")
    return metasyn.cli


def _digest(arr) -> str:
    import numpy as np

    return hashlib.sha256(np.ascontiguousarray(arr, dtype="<f8").tobytes()).hexdigest()


def _trace_set(job: dict) -> dict:
    """Hashes of the learning and mean curves of the four trace-set runs at
    one seed, and the two exact-reduction checks at that seed."""
    import numpy as np
    from metasyn import (
        DeviceParams,
        Model,
        NetworkConfig,
        NoiseModel,
        run_lifetime,
        run_lifetime_hw,
    )

    size, n_patterns, seed = job["n"], job["n_patterns"], job["seed"]

    def cfg(model: Model, **kw) -> NetworkConfig:
        return NetworkConfig(n_in=size, n_out=size, model=model, seed=seed, **kw)

    traces = {
        "sw_multistate": run_lifetime(cfg(Model.MULTISTATE), n_patterns),
        "sw_binary": run_lifetime(cfg(Model.BINARY), n_patterns),
        "hw_multistate": run_lifetime_hw(cfg(Model.MULTISTATE), n_patterns),
        "hw_ideal": run_lifetime_hw(
            cfg(Model.MULTISTATE),
            n_patterns,
            params=DeviceParams.idealized(),
            noise=NoiseModel.off(),
        ),
    }
    one_level = run_lifetime(cfg(Model.MULTISTATE, n_levels=1), n_patterns)

    def same(a, b) -> bool:
        return bool(np.array_equal(a.learning, b.learning) and np.array_equal(a.mean, b.mean))

    return {
        "hashes": {
            name: {"learning": _digest(t.learning), "mean": _digest(t.mean)}
            for name, t in traces.items()
        },
        "reductions": {
            "ideal_hw_equals_sw_multistate": same(traces["hw_ideal"], traces["sw_multistate"]),
            "one_level_equals_binary": same(one_level, traces["sw_binary"]),
        },
        "numpy": _numpy_info(),
    }


def _numpy_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "version": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


def main(argv: list[str]) -> int:
    mode, root, job_path, report_path = argv
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    cli = _import_metasyn(root)
    with open(job["config_path"], encoding="utf-8") as fh:
        cli.parse_config(fh.read())
    report: dict = {"t_ready": time.monotonic()}

    if mode in ("run", "traced"):
        tracer = None
        if mode == "traced":
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        t0 = time.perf_counter()
        report["rc"] = cli.main([job["command"], job["config_path"]])
        report["run_s"] = time.perf_counter() - t0
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            report["layers"] = tracer.metrics()
            report["missing"] = tracer.missing
            tracer.write(job["spans_path"])
    elif mode == "traceset":
        report.update(_trace_set(job))
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")

    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
