"""Median time of every verification check, over fresh interpreters.

Usage (from any directory):

    python3 scripts/check_times.py N [--root CHECKOUT]

runs every check function of CHECKOUT's ``suites.SUITES`` (default: the
checkout this script is in) in each of N fresh interpreters.  Each
interpreter imports ``qeuler.cli`` first, then calls the checks in registry
order, as ``qeuler verify all`` does, so a check finds the caches that the
checks before it filled; each call is timed with ``time.perf_counter``.
The script prints each check's median time in ms with its smallest and
largest, and the sum of the medians.  Through ``scripts/op_pairs.py``'s
``worker_env`` and ``compile_checkout``, the interpreters import cached bytecode, compiled once before the first run
into a temporary cache directory (PYTHONPYCACHEPREFIX) that is removed at
exit, so it writes nothing in the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from op_pairs import compile_checkout, worker_env

# one interpreter's run: [(check name, seconds)] in registry order, as JSON
_CHILD = """
import json, time
import qeuler.cli
from qeuler.suites import SUITES

def name(check):
    if not hasattr(check, "func"):
        return check.__name__
    kwargs = ", ".join(f"{k}={v!r}" for k, v in check.keywords.items())
    return f"{check.func.__name__}({kwargs})"

times = []
for checks in SUITES.values():
    for check in checks:
        start = time.perf_counter()
        check()
        times.append((name(check), time.perf_counter() - start))
print(json.dumps(times))
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs", type=int, help="number of fresh interpreters")
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent, help="checkout to time")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("need at least one run")

    root = args.root.resolve()
    with tempfile.TemporaryDirectory(prefix="check_times-") as cache:
        env = worker_env(root, cache)
        compile_checkout(root, cache)
        runs = []
        for _ in range(args.runs):
            proc = subprocess.run([sys.executable, "-c", _CHILD], cwd=root, env=env, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"check_times: a run exited {proc.returncode}: {proc.stderr[-500:]}")
            runs.append(json.loads(proc.stdout))

    print(f"{root}: {args.runs} fresh interpreters, per check ms: median (min-max)")
    total = 0.0
    for i, (name, _) in enumerate(runs[0]):
        ms = [run[i][1] * 1e3 for run in runs]
        median = statistics.median(ms)
        total += median
        print(f"{name[:56]:56s} {median:8.2f} ({min(ms):.2f}-{max(ms):.2f})")
    print(f"{'sum of medians':56s} {total:8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
