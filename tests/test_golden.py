"""Golden CLI outputs: status and stdout of a fixed command set, byte for byte.

The expected outputs in ``golden/cli_outputs.json`` were recorded before the
refuter and codec speed-ups, so this test pins that those changes left every
answer as it was.  The command set is acceptance criterion 10's plus
``refute`` in both modes at ``--check 100``.  To record the file again (only
when an output is meant to change), run from the repository root::

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from ordkit.cli import main

INSTANCES = Path(__file__).parent / "instances"
GOLDEN = Path(__file__).parent / "golden" / "cli_outputs.json"

COMMANDS = [
    ("eval", "w^(w*2)*3 + w^2 + 5"),
    ("eval", "1+w"),
    ("cmp", "w^2", "w*9+5"),
    ("cmp", "w", "w"),
    ("pair", "--alpha", "w", "1", "2"),
    ("pair", "--alpha", "w^2", "w", "1"),
    ("unpair", "--alpha", "w^2", "w + 2"),
    ("fincode", "--alpha", "w", "2,5"),
    ("fincode", "--alpha", "w", ""),
    ("cnfbij", "--alpha", "w", "--dir", "down", "w^3+w"),
    ("cnfbij", "--alpha", "w^2", "--dir", "up", "w*3+4"),
    ("reduce", "--instance", "case1_identity.txt", "--verify-below", "w*5"),
    ("reduce", "--instance", "case2_tower.txt", "--verify-below", "w^2"),
    ("refute", "--instance", "refute_demo.txt", "--mode", "pset", "--check", "20"),
    ("refute", "--instance", "refute_demo.txt", "--mode", "infpset", "--check", "20"),
    ("selftest", "--size", "2"),
    ("eval", "w*0"),
    ("refute", "--instance", "refute_demo.txt", "--mode", "pset", "--check", "100"),
    ("refute", "--instance", "refute_demo.txt", "--mode", "infpset", "--check", "100"),
]


def _run(argv):
    """Status and stdout of one command; instance names resolve in INSTANCES."""
    argv = [str(INSTANCES / a) if a.endswith(".txt") else a for a in argv]
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        status = main(argv)
    return status, buffer.getvalue()


def _load():
    return {tuple(entry["argv"]): entry for entry in json.loads(GOLDEN.read_text("ascii"))}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_output_matches_golden(argv):
    expected = _load()[argv]
    assert _run(argv) == (expected["status"], expected["stdout"])


def record():
    entries = []
    for argv in COMMANDS:
        status, stdout = _run(argv)
        entries.append({"argv": list(argv), "status": status, "stdout": stdout})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n", "ascii")


if __name__ == "__main__":
    sys.exit(record())
