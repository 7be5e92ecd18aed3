"""The benchmark's traced mode still runs on this package.

``perfbench/tracing.py`` wraps the public functions, ``PadicApprox.__init__``
and the arithmetic dunders by name, so a change in ``src`` that drops one of
those names makes a traced worker exit with an error.  This runs one
worker in that mode, in a fresh interpreter, as ``perfbench/run.py`` does.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_a_traced_worker_runs_the_expansion():
    argv = "theorem5 --r 2 --n 2 --p 5 --q 1 --M 4".split()
    spec = {"id": "traced", "kind": "cli", "args": {"argv": argv}, "trace": True}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    launch = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), json.dumps(spec), repr(launch)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr[-500:]
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert record["outcome"]["exit"] == 0, record["outcome"]
    assert record["trace"]
