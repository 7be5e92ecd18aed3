"""Record one end-to-end benchmark run of every workload in BENCH_<label>.json.

Usage (from any directory):

    python3 scripts/bench_record.py LABEL

Each workload named in BENCHMARK.json runs once through the benchmark's
declared ``command``, with seed 1, ``--trace 0`` and the declared
``run_seconds``, from the root of this checkout.  The run's record line and
result line (the last two lines of its stdout) are written, per workload, to
``BENCH_<label>.json`` at the root.  Its ``tree`` field says whether ``src/``
or ``perfbench/`` had uncommitted changes: the records' ``commit`` is HEAD,
so only ``source_sha256`` identifies the code of an uncommitted tree.
Nothing under the benchmark's own directory is changed, and qeuler itself is
never imported here.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def run_workload(command: list, name: str, seconds) -> dict:
    """One untraced run of a workload: its record and its result object."""
    argv = [*command, "--workload", name, "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"bench_record: workload {name!r} failed (exit {proc.returncode}): {proc.stderr[-500:]}")
    return {**json.loads(lines[-2]), "result": json.loads(lines[-1])}


def tree_state() -> str:
    """'committed' or 'uncommitted' for the benchmarked code, 'unknown' without git."""
    try:
        proc = subprocess.run(
            ["git", "status", "--porcelain", "--", "src", "perfbench"],
            cwd=ROOT, capture_output=True, text=True,
        )
    except OSError:
        return "unknown"
    if proc.returncode != 0:
        return "unknown"
    return "uncommitted" if proc.stdout.strip() else "committed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label", help="names the output file BENCH_<label>.json")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tree = tree_state()
    workloads = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        print(f"running {name} ({spec['run_seconds']} s)", file=sys.stderr)
        workloads[name] = run_workload(spec["command"], name, spec["run_seconds"])
    out = ROOT / f"BENCH_{args.label}.json"
    record = {"label": args.label, "tree": tree, "seed": SEED, "workloads": workloads}
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
