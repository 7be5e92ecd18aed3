"""Count the entries that differ between two equivalence-sweep outputs.

Usage:

    python3 scripts/sweep_diff.py OLD.json NEW.json

reads the two JSON files written by ``scripts/equivalence_sweep.py`` and
prints, for every (section, q) group with a moved entry, how many entries
moved, then the first few of their keys.  The section is a key's first
word (``arch``, ``exact``, ``identities``, ``suite``, ``cli``), or
``padic`` for the keys that open with ``p=``; q is the key's first
``q=`` word, ``-`` where it has none.  An entry present on one side only
counts as moved.  Nothing but the two files is read; the exit code is 0
when nothing moved and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

SHOWN = 3  # keys printed per group


def group(key: str) -> tuple:
    words = key.split()
    section = "padic" if words[0].startswith("p=") else words[0]
    q = next((w[2:] for w in words if w.startswith("q=")), "-")
    return section, q


def moved(old: dict, new: dict) -> dict:
    """(section, q) -> sorted keys whose value differs or that one side lacks."""
    groups = defaultdict(list)
    for key in sorted(old.keys() | new.keys()):
        if old.get(key, moved) != new.get(key, moved):
            groups[group(key)].append(key)
    return dict(sorted(groups.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="sweep output of the earlier revision")
    parser.add_argument("new", help="sweep output of the later revision")
    args = parser.parse_args(argv)
    old = json.loads(Path(args.old).read_text())
    new = json.loads(Path(args.new).read_text())
    groups = moved(old, new)
    total = sum(len(keys) for keys in groups.values())
    print(f"{total} of {len(old.keys() | new.keys())} entries moved")
    for (section, q), keys in groups.items():
        print(f"{section} q={q}: {len(keys)}")
        for key in keys[:SHOWN]:
            print(f"    {key}")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
