"""Compare two checkouts on single benchmark operations, in cold alternating pairs.

Usage (from any directory):

    python3 scripts/op_pairs.py PARENT CHANGE WORKLOAD N

runs every operation of WORKLOAD (as CHANGE's ``perfbench/workloads.py``
lists it) N times in each checkout, each run in a fresh interpreter through
that checkout's own ``perfbench/worker.py``, untraced.  As in
``perfbench/run.py``, the workers import cached bytecode: both checkouts are
compiled once, before the first pair, into a temporary cache directory
(PYTHONPYCACHEPREFIX) that is removed at exit.  Pair i runs
PARENT first when i is even and CHANGE first when it is odd, operation by
operation, so a drift of the host falls on both sides alike.  Per operation
it prints both sides' median ``wall_s`` and ``wall_rel`` (``wall_s`` over
the worker's calibration, as ``perfbench/run.py`` divides it), the change's
ratio to the parent, and the number of pairs in which the change was
faster; the last row sums the medians over the operations, as the
benchmark does.  Both sides must report the same outcome (exit code,
stdout and stderr, or the value or raised type of an API call) in every
run, or the script stops with exit code 1.  It writes nothing in either
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def load_ops(change: Path, workload: str) -> list:
    """The operations of one workload, from CHANGE's perfbench."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(change / "perfbench"))
    from workloads import WORKLOADS

    if workload not in WORKLOADS:
        sys.exit(f"op_pairs: unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    return WORKLOADS[workload]


def worker_env(root: Path, cache: str) -> dict:
    """perfbench/run.py's worker environment, with bytecode under cache."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0", PYTHONPYCACHEPREFIX=cache)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def compile_checkout(root: Path, cache: str) -> None:
    """Write root's bytecode into cache, so no timed run compiles."""
    dirs = [str(root / "src"), str(root / "perfbench")]
    subprocess.run([sys.executable, "-m", "compileall", "-q", *dirs], env=worker_env(root, cache), check=True)


def run_once(root: Path, op, cache: str) -> dict:
    """One cold, untraced run of op in root's worker: its record."""
    spec = {"id": op.id, "kind": op.kind, "args": op.args, "trace": False}
    env = worker_env(root, cache)
    launch = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "worker.py"), json.dumps(spec), repr(launch)],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"op_pairs: {root} exited {proc.returncode} on {op.id!r}: {proc.stderr[-500:]}")
    record = json.loads(lines[-1])
    record["wall_rel"] = record["wall_s"] / record["calib_s"]
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("workload", help="a workload name of BENCHMARK.json")
    parser.add_argument("pairs", type=int, help="number of alternating pairs per operation")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("need at least one pair")

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    ops = load_ops(roots["change"], args.workload)
    with tempfile.TemporaryDirectory(prefix="op_pairs-") as cache:
        for root in roots.values():
            compile_checkout(root, cache)
        runs = {op.id: {"parent": [], "change": []} for op in ops}
        for i in range(args.pairs):
            for op in ops:
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[op.id][side].append(run_once(roots[side], op, cache))
                parent, change = (runs[op.id][side][-1]["outcome"] for side in ("parent", "change"))
                if parent != change:
                    print(f"op_pairs: outcomes differ on {op.id!r} in pair {i + 1}", file=sys.stderr)
                    print(f"  parent: {json.dumps(parent)[:500]}\n  change: {json.dumps(change)[:500]}", file=sys.stderr)
                    return 1
            print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)

    print(f"{args.workload}: {args.pairs} cold pairs per operation, same outcome on both sides")
    header = f"{'operation':48s} {'wall_s parent / change':>25s} {'wall_rel parent / change':>25s}  ratio  faster"
    print(header)
    totals = {"parent": [0.0, 0.0], "change": [0.0, 0.0]}
    for op in ops:
        med = {}
        for side, records in runs[op.id].items():
            med[side] = [statistics.median(r[field] for r in records) for field in ("wall_s", "wall_rel")]
            totals[side] = [t + m for t, m in zip(totals[side], med[side])]
        faster = sum(c["wall_s"] < p["wall_s"] for p, c in zip(runs[op.id]["parent"], runs[op.id]["change"]))
        print(_row(op.id, med["parent"], med["change"]) + f"  {faster:2d}/{args.pairs}")
    if len(ops) > 1:
        print(_row("sum of medians", totals["parent"], totals["change"]))
    return 0


def _row(label: str, parent: list, change: list) -> str:
    """One table row: both sides' wall_s (in ms) and wall_rel, and the
    change's wall_rel over the parent's."""
    (pw, pr), (cw, cr) = parent, change
    return f"{label[:48]:48s} {pw * 1e3:9.2f} ms / {cw * 1e3:7.2f} ms {pr:11.4f} / {cr:11.4f}  {cr / pr:5.3f}"


if __name__ == "__main__":
    sys.exit(main())
