"""Byte identity of two scaled `theorem5` points, outside the benchmark.

Each command runs in process; its exit code must be 0 and the sha256 of
its stdout must match the digest recorded here.  The points are a large
prime (p = 10007) and a deep series (p = 5 at M = 200), where the
per-residue stage details and the long assembly print most of the bytes.
The p = 100003 point (stdout sha256 ``e18240c0c96d3770…``) takes seconds
and is checked by hand.
"""

import hashlib

import pytest

from qeuler.cli import main

SCALED = {
    "theorem5 --r 2 --n 2 --p 10007 --q 10008 --M 4":
        "a6434fd10440d2dade747792453a9fa39dbe5f771b5fc48b9539a20c586c3721",
    "theorem5 --r 2 --n 2 --p 5 --q 6 --M 200 --kmax 600":
        "c3d105504b03aa739cce084c7b2c029534d344dc4b61ded901bbf4aa0161f534",
}


@pytest.mark.parametrize("command", sorted(SCALED))
def test_scaled_output_digest(capsys, command):
    assert main(command.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == SCALED[command]
