"""Record the gate's references: CLI stdout and exit codes, and known failures.

Usage (from the root of a checkout): python3 perfbench/record_references.py

Run it only at the commit whose outputs define the byte-identity contract;
re-recording at a later commit would make the gate accept whatever that
commit prints.  CLI references are the raw bytes of ``python -m qeuler.cli``
in a fresh process.  The script then runs every operation once through the
benchmark's own worker, so a difference between the worker's capture and
the real stdout shows here, and lists the archimedean operations that fail
their oracle as the known failures.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from run import SRC, run_worker
from workloads import EXPECTED, WORKLOADS, Gate, REFERENCE, reference_path


def main() -> int:
    sys.path.insert(0, str(SRC))
    REFERENCE.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    cli_exit = {}
    for ops in WORKLOADS.values():
        for op in ops:
            if op.kind != "cli":
                continue
            proc = subprocess.run(
                [sys.executable, "-m", "qeuler.cli", *op.args["argv"]],
                env=env,
                capture_output=True,
                check=False,
            )
            reference_path(op).write_bytes(proc.stdout)
            cli_exit[op.id] = proc.returncode
    EXPECTED.write_text(json.dumps({"cli_exit": cli_exit, "known_failures": {}}, indent=2) + "\n")

    known = {}
    for workload in WORKLOADS:
        gate = Gate(workload)
        for op in gate.ops:
            reason = gate.check(op.id, run_worker(op, trace=False)["outcome"])
            if reason is None:
                continue
            if op.kind == "cli":
                print(f"{op.id}: worker output differs from the real CLI: {reason}", file=sys.stderr)
                return 1
            known[op.id] = reason
    EXPECTED.write_text(json.dumps({"cli_exit": cli_exit, "known_failures": known}, indent=2) + "\n")
    print(f"recorded {len(cli_exit)} CLI references and {len(known)} known failures")
    return 0


if __name__ == "__main__":
    sys.exit(main())
