"""Self-tests of the benchmark harness (not of qeuler itself).

Run from the root of a checkout; it takes about 15 s on a 2-vCPU host:

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

Its name does not match test_*.py, so a plain `pytest` run of the repository
does not collect it.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, SRC, per_layer, run_rounds, run_worker  # noqa: E402

sys.path.insert(0, str(SRC))

from workloads import WORKLOADS, Gate, oracle, reference_path  # noqa: E402

CLASSICAL = WORKLOADS["expansion-classical"]
ARCH = {op.id: op for op in WORKLOADS["archimedean-near-one"]}
# one converging, one complex-s and one NoConvergence operation
ARCH_SAMPLE = [
    ARCH["zeta_Eq q=9/10 s=-1 x=1/3"],
    ARCH["l_q_complex q=99/100 chi=quad:7 s=(0.5+14j)"],
    ARCH["zeta_Eq q=9/10 s=-3 x=1/1"],
]


def test_traced_outputs_match_untraced():
    for op in CLASSICAL + ARCH_SAMPLE:
        plain = run_worker(op, trace=False)["outcome"]
        traced = run_worker(op, trace=True)
        assert "trace" in traced, op.id
        traced = traced["outcome"]
        assert plain == traced, op.id
        if op.kind == "cli":
            assert plain["stdout"].encode() == reference_path(op).read_bytes(), op.id


def test_layer_counts_repeat_exactly():
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    counted = [n for n in names if n.endswith((".calls", ".created", ".raised", ".distinct_share", "series_terms", "output_bytes"))]
    runs = []
    for seed in (1, 2):
        values, repeat = per_layer(run_rounds(CLASSICAL, seed, 0, trace=True), names)
        assert repeat
        runs.append({n: values[n] for n in counted})
    assert runs[0] == runs[1]
    assert runs[0]["padic.arith.calls"] > 0 and runs[0]["lfunc.H_pq.distinct_share"] > 0


def _flip_one_digit(text: str) -> str:
    match = re.search(r'"residue": "(\d)', text)
    digit = match.group(1)
    return text[: match.start(1)] + str((int(digit) + 1) % 10) + text[match.end(1):]


def test_gate_flags_flipped_digit_in_theorem5_json():
    gate = Gate("expansion-deformed")
    op = gate.ops[0]
    stdout = reference_path(op).read_text()
    assert gate.check(op.id, {"exit": 0, "stdout": stdout}) is None
    flipped = _flip_one_digit(stdout)
    assert flipped != stdout and len(flipped) == len(stdout)
    assert gate.check(op.id, {"exit": 0, "stdout": flipped}) is not None
    assert gate.check(op.id, {"exit": 1, "stdout": stdout}) is not None


def test_gate_flags_perturbed_zeta_value():
    gate = Gate("archimedean-near-one")
    for op in ARCH_SAMPLE[:2]:
        exact = oracle(op)
        assert gate.check(op.id, {"value": [exact.real, exact.imag]}) is None
        bumped = exact * (1 + 1e-6)
        assert gate.check(op.id, {"value": [bumped.real, bumped.imag]}) is not None
    assert gate.check(op.id, {"raised": "NoConvergence"}) is not None


def main() -> int:
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc!r}")
            else:
                print(f"PASS {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
