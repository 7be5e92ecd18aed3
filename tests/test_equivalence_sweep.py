"""The equivalence sweep against its committed digests.

``scripts/equivalence_sweep.py`` writes the public values of every layer
on a fixed grid and prints one sha256 per section and one for the whole
file.  ``sweep_digests.json`` holds those digests, so a change that moves
any value fails here, naming its sections.  A change that moves values on
purpose updates the file and says which sections moved and why;
``scripts/sweep_diff.py`` lists the moved entries of two sweep outputs.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_sweep_matches_the_committed_digests(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "equivalence_sweep.py"), str(ROOT / "src"),
         str(tmp_path / "sweep.json")],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    digests = {}
    for line in proc.stdout.splitlines():
        sha, label = line.split("  ", 1)
        words = label.split()
        digests[words[1] if words[0] == "section" else "total"] = sha
    assert digests == json.loads((ROOT / "tests" / "sweep_digests.json").read_text())
