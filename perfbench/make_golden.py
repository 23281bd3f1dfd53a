"""Regenerate perfbench/golden.json from the program as it stands.

    python3 perfbench/make_golden.py

Records the SHA-256 of every output file of each workload at seed offset 0,
and the trace-set curve hashes at seeds 0-2.  Refuses to write when a
command fails or an exact-reduction check does not hold.  Only a change
that is meant to alter the simulated numbers regenerates this file; a speed
change must reproduce it.
"""

from __future__ import annotations

import json
import sys

from run import GOLDEN, TRACE_SET, TRACE_SET_SEEDS, WORK, WORKLOADS, Run


def main() -> int:
    golden: dict = {"outputs": {}, "trace_set": {"config": TRACE_SET, "seeds": {}}}
    for name in WORKLOADS:
        run = Run(name, 0, None, WORK)
        rep = run.repetition("run", None)
        if rep["rc"] != 0 or not rep["hashes"]:
            print(f"{name}: command failed (rc={rep['rc']})", file=sys.stderr)
            return 1
        golden["outputs"][name] = rep["hashes"]
        print(f"{name}: {len(rep['hashes'])} file(s), {rep['run_s']:.2f} s", file=sys.stderr)
    for k in range(TRACE_SET_SEEDS):
        report = run.child("traceset", {**TRACE_SET, "seed": k})
        if not all(report["reductions"].values()):
            print(f"trace set seed {k}: {report['reductions']}", file=sys.stderr)
            return 1
        golden["trace_set"]["seeds"][str(k)] = report["hashes"]
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
