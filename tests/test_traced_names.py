"""The benchmark's tracer finds every program name it wraps.

perfbench/tracing.py wraps public names from outside the program; a name
that a refactor deletes or renames turns its per-layer metric into null.
The tracer is installed in a fresh interpreter so its wrappers never reach
the names the other tests call.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_finds_every_wrapped_name():
    code = (
        "import json\n"
        "from tracing import Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "print(json.dumps(tracer.missing))\n"
    )
    path = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(done.stdout) == {}
