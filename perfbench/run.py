"""qeuler benchmark: one workload, every metric, and the correctness gate.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation of the workload runs in its own fresh interpreter
(``worker.py``), in an order drawn from the seed, round after round until
S seconds have been spent; a round is never cut short.  Every outcome is
checked by ``workloads.Gate``.  With ``--trace 0`` the end-to-end metrics
of BENCHMARK.json are reported; with ``--trace 1`` untraced and traced
rounds alternate and the per-layer metrics are reported.  The line before
the last is a record of the host (Python, core count, calibration seconds,
commit) and of every failure; the last line is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

OP_TIMEOUT_S = 150


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qeuler").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_worker(op, trace: bool) -> dict:
    """Run one operation in a fresh interpreter and return its record."""
    spec = {"id": op.id, "kind": op.kind, "args": op.args, "trace": trace}
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    # Import from cached bytecode, as an installed package does; the first
    # worker in a fresh checkout writes it under src/qeuler/__pycache__.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    launch = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(spec), repr(launch)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=OP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"id": op.id, "outcome": {"raised": "WorkerTimeout", "message": f"over {OP_TIMEOUT_S} s"}}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"id": op.id, "outcome": {"raised": "WorkerError", "message": proc.stderr[-500:]}}
    return json.loads(lines[-1])


def run_rounds(ops, seed: int, seconds: float, trace: bool) -> list:
    """Whole rounds of the workload until the time is spent (at least one).

    Returns a list of (traced, records).  In trace mode each step is an
    untraced round followed by a traced one.
    """
    rng = random.Random(seed)
    modes = (False, True) if trace else (False,)
    rounds = []
    start = time.monotonic()
    while True:
        step_start = time.monotonic()
        for traced in modes:
            order = list(ops)
            rng.shuffle(order)
            rounds.append((traced, [run_worker(op, traced) for op in order]))
        now = time.monotonic()
        if now - start + (now - step_start) > seconds:
            return rounds


def _median_sum(records, field: str) -> tuple:
    """Sum over operations of each operation's median; and the sample count."""
    by_op = {}
    for rec in records:
        if field in rec:
            by_op.setdefault(rec["id"], []).append(rec[field])
    return sum(statistics.median(v) for v in by_op.values()), min(map(len, by_op.values()), default=0)


def end_to_end(untraced: list) -> tuple:
    """End-to-end metric values, and the sample count behind each median.

    Times relative to the calibration are divided per worker, then the
    median is taken per operation and summed over the workload.
    """
    timed = [r for r in untraced if "wall_s" in r]
    for rec in timed:
        rec["wall_rel"] = rec["wall_s"] / rec["calib_s"]
        rec["cpu_rel"] = rec["cpu_s"] / rec["calib_s"]
    values, samples = {}, {}
    for field in ("wall_s", "wall_rel", "cpu_s", "cpu_rel"):
        values[field], samples[field] = _median_sum(timed, field)
    values["setup_s"] = statistics.median(r["setup_s"] for r in timed)
    values["calibration_s"] = statistics.median(r["calib_s"] for r in timed)
    samples["setup_s"] = samples["calibration_s"] = len(timed)
    values["peak_rss_mb"] = max(r["peak_rss_mb"] for r in timed)
    values["failed_share"] = sum(r["failure"] is not None for r in untraced) / len(untraced)
    values["ok_share"] = 1 - values["failed_share"]
    samples["peak_rss_mb"] = samples["failed_share"] = samples["ok_share"] = len(untraced)
    return values, samples


def _round_totals(records) -> dict:
    totals = {}
    for rec in records:
        for name, (calls, distinct, self_s, raised) in rec.get("trace", {}).items():
            entry = totals.setdefault(name, [0, 0, 0.0, 0])
            entry[0] += calls
            entry[1] += distinct or 0
            entry[2] += self_s
            entry[3] += raised
    return totals


def _series_terms(records) -> int:
    """Sum of every report's truncation_indices in theorem5 JSON output."""
    total = 0
    for rec in records:
        out = rec["outcome"]
        if "stdout" in out and '"truncation_indices"' in out["stdout"]:
            for report in json.loads(out["stdout"])["reports"]:
                total += sum(report["truncation_indices"].values())
    return total


def per_layer(rounds: list, names) -> tuple:
    """Per-layer metric values from the traced rounds, plus whether the
    counts repeated exactly across them."""
    traced = [recs for t, recs in rounds if t]
    untraced = [recs for t, recs in rounds if not t]
    totals = [_round_totals(recs) for recs in traced]
    counts = [{k: (v[0], v[1], v[3]) for k, v in t.items()} for t in totals]
    first = totals[0]

    def wall(recs):
        return sum(r.get("wall_s", 0.0) for r in recs)

    def self_median(keys):
        return statistics.median(sum(t[k][2] for k in keys if k in t) for t in totals)

    special = {
        "trace.overhead_s": statistics.median(map(wall, traced)) - statistics.median(map(wall, untraced)),
        "lfunc.series_terms": _series_terms(traced[0]),
        "cli.output_bytes": sum(len(r["outcome"].get("stdout", "").encode()) for r in traced[0]),
    }
    values = {}
    for name in names:
        if name in special:
            values[name] = special[name]
            continue
        key, stat = name.rsplit(".", 1)
        if key == "padic.PadicApprox" and stat == "created":
            key, stat = "padic.PadicApprox.__init__", "calls"
        if "." not in key and stat == "self_s":
            values[name] = self_median([k for k in first if k.split(".")[0] == key])
            continue
        calls, distinct, _, raised = first.get(key, (0, 0, 0.0, 0))
        if stat == "calls":
            values[name] = calls
        elif stat == "raised":
            values[name] = raised
        elif stat == "distinct_share":
            values[name] = distinct / calls if calls else 0.0
        elif stat == "self_s":
            values[name] = self_median([key])
        else:
            raise KeyError(f"no rule computes the per-layer metric {name!r}")
    return values, all(c == counts[0] for c in counts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qeuler" / "__init__.py").is_file():
        _fail(f"no qeuler package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, Gate

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics_spec = spec["per_layer"] if args.trace else spec["end_to_end"]

    gate = Gate(args.workload)
    started = time.monotonic()
    rounds = run_rounds(gate.ops, args.seed, args.seconds, bool(args.trace))
    elapsed = time.monotonic() - started

    records = [rec for _, recs in rounds for rec in recs]
    failures = {}
    for rec in records:
        rec["failure"] = gate.check(rec["id"], rec["outcome"])
        if rec["failure"] is not None:
            failures.setdefault(rec["id"], set()).add(rec["failure"])
    unexpected = sorted(set(failures) - gate.known)

    untraced = [rec for traced, recs in rounds if not traced for rec in recs]
    if not any("wall_s" in rec for rec in untraced):
        _fail(f"no operation ran to completion; first outcome: {untraced[0]['outcome']}")
    e2e, samples = end_to_end(untraced)
    counts_repeat = None
    if args.trace:
        values, counts_repeat = per_layer(rounds, [m["name"] for m in metrics_spec])
    else:
        values = e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics_spec}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "elapsed_s": elapsed,
        "rounds": len(rounds),
        "end_to_end": {k: {"value": v, "samples": samples[k]} for k, v in sorted(e2e.items())},
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "source_sha256": _source_sha256(),
        "counts_repeat": counts_repeat,
        "failures": {k: sorted(v) for k, v in sorted(failures.items())},
        "unexpected_failures": unexpected,
    }
    for name, metric in metrics.items():
        print(f"{name:36s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"record": record}, sort_keys=True))
    result = {
        "correct": not unexpected,
        "attempted": len(records),
        "failed": sum(rec["failure"] is not None for rec in records),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
