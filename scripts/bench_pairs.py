"""Compare two checkouts on one benchmark workload, in alternating pairs of runs.

Usage (from any directory):

    python3 scripts/bench_pairs.py PARENT CHANGE WORKLOAD N

runs the benchmark's declared ``command`` (``BENCHMARK.json`` of each
checkout) N times in each of the two checkout directories, untraced, for
CHANGE's ``run_seconds`` a run.  Pair i runs both sides with seed i + 1;
even pairs run PARENT first and odd pairs CHANGE first, so a drift of the
host falls on both sides alike.  For each end-to-end metric
of CHANGE's ``BENCHMARK.json`` it then prints both sides' median and
quartiles, the number of pairs in which CHANGE was strictly better (by the
metric's ``better`` direction), and whether the medians differ by more than
PARENT's interquartile range.  Before the first pair, each checkout's
``src`` is compiled in place, into the bytecode files that the benchmark's
first worker would write, so that no timed worker compiles the package (a
worker that compiles peaks about 1.6 MB higher in ``peak_rss_mb``).
Nothing in either checkout is written to except what the benchmark itself
writes; a run that exits non-zero or reports ``correct: false`` stops the
comparison.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(root: Path, command: list, workload: str, seed: int, seconds) -> dict:
    """The result object (the last stdout line) of one untraced run in root."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"bench_pairs: {root} exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(lines[-1])
    if not result.get("correct", False):
        sys.exit(f"bench_pairs: {root} failed the benchmark's gate at seed {seed}")
    return result["metrics"]


def compile_src(root: Path) -> None:
    """Write root's src bytecode in place, as the benchmark's workers do."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=root, env=env, check=True)


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile), inclusive of the extremes."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("workload", help="a workload name of BENCHMARK.json")
    parser.add_argument("pairs", type=int, help="number of alternating pairs")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("need at least one pair")

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    specs = {side: json.loads((root / "BENCHMARK.json").read_text()) for side, root in roots.items()}
    seconds = specs["change"]["run_seconds"]
    for root in roots.values():
        compile_src(root)
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(roots[side], specs[side]["command"], args.workload, i + 1, seconds))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)

    print(f"{args.workload}: {args.pairs} pairs of {seconds:g} s runs")
    print(f"{'metric':12s} {'parent q1 / median / q3':>32s} {'change q1 / median / q3':>32s}  wins  beyond IQR")
    for metric in specs["change"]["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [run[name]["value"] for run in runs["parent"]]
        change = [run[name]["value"] for run in runs["change"]]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        print(
            f"{name:12s} {p1:10.4g} {pm:10.4g} {p3:10.4g} {c1:10.4g} {cm:10.4g} {c3:10.4g}"
            f"  {wins:2d}/{args.pairs}  {'yes' if abs(cm - pm) > p3 - p1 else 'no'}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
