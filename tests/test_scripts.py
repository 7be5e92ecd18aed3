"""Smoke runs of the timing and line-count scripts: each exits 0, prints
one row per check, operation or module plus the sum, and leaves src/ and
perfbench/ as it found them."""

import subprocess
import sys
from pathlib import Path

from qeuler.suites import SUITES

ROOT = Path(__file__).resolve().parents[1]


def _files():
    return {path for top in ("src", "perfbench") for path in (ROOT / top).rglob("*")}


def _run(script, *args):
    before = _files()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args], cwd=ROOT, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert _files() == before
    return proc.stdout.splitlines()


def test_check_times_prints_every_check_and_the_sum():
    header, *rows, total = _run("check_times.py", "1")
    assert header.endswith("1 fresh interpreters, per check ms: median (min-max)")
    assert len(rows) == sum(len(checks) for checks in SUITES.values()) == 12
    assert rows[0].startswith("alternating_sum_checks ")
    assert total.startswith("sum of medians ")


def test_op_pairs_prints_both_verify_all_operations_and_the_sum():
    title, _, *rows, total = _run("op_pairs.py", str(ROOT), str(ROOT), "verify-all", "1")
    assert title == "verify-all: 1 cold pairs per operation, same outcome on both sides"
    assert [row.split("  ")[0] for row in rows] == ["qeuler verify all --format json", "qeuler theorem5 --format json"]
    assert total.startswith("sum of medians ")


def test_code_lines_prints_every_module_and_the_total():
    *rows, total = _run("code_lines.py", "src/qeuler")
    modules = sorted((ROOT / "src" / "qeuler").glob("*.py"))
    counts = [int(row.split()[0]) for row in rows]
    assert [row.split(maxsplit=1)[1] for row in rows] == [str(path.relative_to(ROOT)) for path in modules]
    assert total == f"{sum(counts):>7} total"
    # blank lines, comments and docstrings are not counted
    for count, path in zip(counts, modules):
        assert 0 < count < len(path.read_text().splitlines()), path
