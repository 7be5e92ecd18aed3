"""Byte identity of the benchmark's CLI operations.

Runs each CLI operation of the benchmark in-process and compares its
stdout byte for byte, and its exit code, with the recorded references
in ``perfbench/reference``.  The references are only read here.
"""

import json
from pathlib import Path

import pytest

from qeuler.cli import main

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"
OPERATIONS = [
    "verify all --format json",
    "theorem5 --format json",
    "theorem5 --r 2 --n 2 --p 31 --q 32 --M 4",
    "theorem5 --r 2 --n 2 --p 5 --q 6 --M 20",
    "theorem5 --r 2 --n 2 --p 31 --q 1 --M 4",
    "theorem5 --r 2 --n 2 --p 5 --q 1 --M 20",
]


@pytest.mark.parametrize("command", OPERATIONS)
def test_cli_output_matches_reference(capsys, command):
    argv = command.split()
    expected = json.loads((REFERENCE / "expected.json").read_text())["cli_exit"]
    reference = (REFERENCE / ("_".join(argv).replace("-", "") + ".out")).read_bytes()
    code = main(argv)
    out = capsys.readouterr().out
    assert code == expected[f"qeuler {command}"]
    assert out.encode() == reference
