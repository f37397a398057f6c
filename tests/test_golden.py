"""Golden CLI outputs: status and stdout of a fixed command set, byte for byte.

The expected outputs in ``golden/cli_outputs.json`` were recorded before the
refuter and codec speed-ups and before the merge of the duplicate code paths,
so this test pins that those changes left every answer as it was.  The
command set is acceptance criterion 10's, ``refute`` in both modes at
``--check 100``, ``reduce`` on every instance at two or three bounds,
``refute`` in both modes at three check bounds on three more instances
(infpset fails with ``certificate-error`` on two of them), ``cnfbij`` at two
more alphas and ``selftest --size 3``.  Error exits are pinned too.  The
claims of each successful ``reduce`` are also derived again from the
reference models in ``reference.py``.  To record the file again (only when
an output is meant to change), run from the repository root::

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import io
import json
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from families import CARRIER, infinite_powerset_families, powerset_families
from ordkit.carriers import load_instance
from ordkit.cli import _distinct_table, _fiber_listing, main
from ordkit.core import ZERO, compare, fmt
from ordkit.reduction import refute_infinite_powerset, refute_powerset
from reference import (
    _ref_canonical,
    _ref_difference,
    _ref_image_of,
    _ref_intersect,
    _reference_ast,
    _reference_eval,
)

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
    *(
        ("reduce", "--instance", name, "--verify-below", bound)
        for name in (
            "case1_identity.txt", "case1_mixed.txt", "case2_blocks.txt", "case2_filtered.txt",
            "case2_slow.txt", "case2_tower.txt", "degenerate_delta_omega.txt",
        )
        for bound in ("w^2", "w^3")
        if (name, bound) != ("case2_tower.txt", "w^2")
    ),
    ("reduce", "--instance", "case2_tower.txt", "--verify-below", "w^w"),
    ("reduce", "--instance", "degenerate_delta_omega.txt", "--verify-below", "w"),
    *(
        ("refute", "--instance", name, "--mode", mode, "--check", check)
        for name in ("refute_split_row0.txt", "case2_tower.txt", "case1_mixed.txt")
        for mode in ("pset", "infpset")
        for check in ("20", "100", "400")
    ),
    ("cnfbij", "--alpha", "w^w", "--dir", "down", "w^(w^2+1)*3 + w^w + 7"),
    ("cnfbij", "--alpha", "w^w", "--dir", "up", "w^5*2 + w + 3"),
    ("cnfbij", "--alpha", "w*2+1", "--dir", "down", "w^(w+1) + w*4 + 2"),
    ("cnfbij", "--alpha", "w*2+1", "--dir", "up", "w+5"),
    ("selftest", "--size", "3"),
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


def test_usage_error_leaves_the_parser_intact():
    # the parser is built once per process; an argparse exit must not spoil it
    with pytest.raises(SystemExit) as err:
        _run(("cnfbij", "--alpha", "w", "--dir", "sideways", "0"))
    assert err.value.code == 2
    argv = ("reduce", "--instance", "case2_tower.txt", "--verify-below", "w^3")
    expected = _load()[argv]
    assert _run(argv) == (expected["status"], expected["stdout"])


def _read(text):
    """A printed ordinal, read by the reference parser and evaluation."""
    return _reference_eval(_reference_ast(text), None)


@pytest.mark.parametrize(
    "argv",
    [argv for argv, entry in _load().items() if argv[0] == "reduce" and entry["status"] == 0],
    ids=" ".join,
)
def test_reduce_claims(argv):
    """Each claim a successful ``reduce`` prints, derived again from the
    reference models: every ``interval=[a,b) row=n`` lies inside row n's
    reference image and meets none of rows 0..n-1; the intervals come in
    row order, each row's ascending, and tile [0, bound); and each
    ``target=g ... value=v`` has g inside the interval above it and v == g.

    Still engine-checked: the engine's ``parse_instance`` reads the
    instance and ``SurjectionFamily.row`` builds its rows, each ``value``
    is the engine's own evaluation of the witness, and the header's case
    and delta are not checked."""
    status, stdout = _run(argv)
    assert status == 0
    fam = load_instance(INSTANCES / argv[2])
    images = []  # images[n]: row n's reference image, as (lo, hi) pairs
    tiles = []  # (row, lo, hi) as printed
    for line in stdout.splitlines()[1:]:
        if line.startswith("interval="):
            lo, hi, n = re.fullmatch(r"interval=\[(.*),(.*)\) row=(\d+)", line).groups()
            lo, hi, n = _read(lo), _read(hi), int(n)
            while len(images) <= n:
                images.append(_ref_image_of(fam.row(len(images)), fam.carrier).intervals)
            assert _ref_difference(((lo, hi),), images[n]) == ()
            assert all(_ref_intersect(((lo, hi),), image) == () for image in images[:n])
            tiles.append((n, lo, hi))
        else:
            target, value = re.fullmatch(r"target=(.*) witness=.* value=(.*)", line).groups()
            _, lo, hi = tiles[-1]
            gamma = _read(target)
            assert compare(lo, gamma) <= 0 and compare(gamma, hi) < 0 and value == target
    for (m, _, hi_m), (n, lo_n, _) in zip(tiles, tiles[1:]):
        assert m < n or (m == n and compare(hi_m, lo_n) < 0)
    assert _ref_canonical([(lo, hi) for _, lo, hi in tiles]) == ((ZERO, _read(argv[4])),)


# sha256 of every distinguisher (not only the ten the CLI prints) at
# --check 400, one "tag index label:point in_missed in_listed" line each.
# The instance lists were recorded before the refuters memoised their coding
# steps; the lists of acceptance criterion 9's library families, whose sets
# the CLI never builds, before the refuters kept each set's answers on the
# sample points instead of asking them again
DISTINGUISHER_DIGESTS = {
    ("refute_demo.txt", "pset"):
        "afac9244e7bc364a96ee683771802065ddc6d79a9769e8d4c900a0852da3a193",
    ("refute_demo.txt", "infpset"):
        "3ee8f5f1ff71ed870c12abf3e8f91db504bdba2b80ae94de25695f3ea2bb1cbf",
    ("refute_split_row0.txt", "pset"):
        "918d585e8b1cafdf1e3b20212e640fa93abc40c72eed61a94b99e0188557f75c",
    ("refute_split_row0.txt", "infpset"):
        "b61ade43833b2aebfb3dc52b7eaf402153fc31a8fa182d0f7c87600e05bfafa3",
    ("empty", "pset"):
        "621718bdbc1751a821d68b20d87beee78549cccc1b41d2ba582236cf9bec93d5",
    ("singletons", "pset"):
        "bda89f03e27cebec14e427e3b4e7538724b5668daae565397284c4b641158c33",
    ("x-only", "pset"):
        "c697ec8618f9c4082bf8c05de626395c03b8beb4dec71ea0cce327014fb22160",
    ("full", "infpset"):
        "37b72b31179bbcc1e8f3c881bae1ac8ae57b53bc3d7bde37841652acfbd3af70",
    ("cofinite", "infpset"):
        "478d4770acd47d5cbe68e10439f7d8ff242b242276b4b016e3c98691842c8c73",
}


@pytest.mark.parametrize("name, mode", DISTINGUISHER_DIGESTS, ids="-".join)
def test_full_distinguisher_list(name, mode):
    refuter = refute_powerset if mode == "pset" else refute_infinite_powerset
    if name.endswith(".txt"):
        fam = load_instance(INSTANCES / name)
        phi = _fiber_listing(fam)
        carrier, table = fam.carrier, _distinct_table(fam, phi)
    else:
        families = powerset_families() if mode == "pset" else infinite_powerset_families()
        (phi, table), carrier = families[name], CARRIER
    witness = refuter(phi, carrier, table, check_bound=400)
    text = "".join(
        f"{tag!r} {index!r} {label}:{fmt(pos)} {in_missed} {in_listed}\n"
        for tag, index, (label, pos), in_missed, in_listed, _ in witness.distinguishers
    )
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == DISTINGUISHER_DIGESTS[name, mode]


def record():
    entries = []
    for argv in COMMANDS:
        status, stdout = _run(argv)
        entries.append({"argv": list(argv), "status": status, "stdout": stdout})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n", "ascii")


if __name__ == "__main__":
    sys.exit(record())
