"""Command-line front end.

Subcommands: ordinal calculator (eval, cmp), coding utilities (pair,
unpair, fincode, cnfbij), the reduction instance runner (reduce), the
refuter demos (refute), the well-order code decoder (decode-wo), and
selftest.  Output is deterministic and line-oriented; ordinals cross the
boundary as grammar strings.  Exit status: 0 success, 1 domain error
(first line carries the error name), 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .carriers import QueryableSet, _nat, load_instance, preimage_of, read_ascii_file
from .coding import OmegaPowerBijection, fin_encode, pair_decode, pair_encode
from .core import Ordinal, compare, fmt, parse
from .errors import BoundViolation, CertificateError, ParseError, ToolkitError
from .intervals import OrdinalSet
from .oracle import _CHECKS, exhaustive_check
from .reduction import (
    _SampleAnswers,
    reduce_omega_product,
    refute_infinite_powerset,
    refute_powerset,
    verify_surjective,
    wellorder_decode,
)

__all__ = ["main"]


@functools.cache  # built on the first call, not at import
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordkit", description="constructive ordinal computation below epsilon-0"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="normalize an ordinal expression")
    p.add_argument("expr")

    p = sub.add_parser("cmp", help="compare two ordinal expressions")
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("pair", help="encode a pair below alpha")
    p.add_argument("--alpha", required=True)
    p.add_argument("x")
    p.add_argument("y")

    p = sub.add_parser("unpair", help="decode a pair code below alpha")
    p.add_argument("--alpha", required=True)
    p.add_argument("z")

    p = sub.add_parser("fincode", help="encode a finite set below alpha")
    p.add_argument("--alpha", required=True)
    p.add_argument("elements", help="comma-separated ordinal expressions (empty for {})")

    p = sub.add_parser("cnfbij", help="apply the omega-power bijection")
    p.add_argument("--alpha", required=True)
    p.add_argument("--dir", required=True, choices=["down", "up"], dest="direction")
    p.add_argument("value")
    p.add_argument("--fuel", type=int, default=10_000)

    p = sub.add_parser("reduce", help="run the reduction engine on an instance file")
    p.add_argument("--instance", required=True)
    p.add_argument("--verify-below", required=True, dest="verify_below")

    p = sub.add_parser("refute", help="one refutation step against a listing instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--mode", required=True, choices=["pset", "infpset"])
    p.add_argument("--check", type=int, default=100)

    p = sub.add_parser("decode-wo", help="decode a well-order code file")
    p.add_argument("path")

    p = sub.add_parser("selftest", help="run the exhaustive oracle checks")
    p.add_argument("--size", type=int, default=3)

    return parser


def _fiber_listing(fam):
    """phi(n, x) = the row-n fiber of x, as an exactly certified set; x
    enters only through its row-n value, and equal fibers are one set."""
    shared: dict = {}  # a fiber's interval keys, block by block -> its set

    @functools.cache
    def fiber(n: int, value) -> QueryableSet:
        restriction = preimage_of(fam.row(n), fam.carrier, OrdinalSet.point(value))
        # keys, not the sets: hashing an OrdinalSet hashes each of its ordinals
        key = tuple(tuple((lo.key, hi.key) for lo, hi in s.intervals) for s in restriction.values())
        found = shared.get(key)
        if found is not None:
            return found

        def membership(y) -> bool:
            label, pos = y
            return restriction[label].contains(pos)

        labels = fam.carrier.labels
        infinite = [label for label in labels if not restriction[label].order_type().is_nat()]
        if not infinite:
            members = []
            for label in labels:
                part = restriction[label]
                members.extend((label, p) for p in part.iter_prefix(part.order_type().nat_value()))
            certificate = ("finite", tuple(members))
        else:
            label, part = infinite[0], restriction[infinite[0]]
            certificate = ("infinite", lambda k: (label, part.enumerate(Ordinal(k))))
        # the set, not its answers: membership reads the restriction each time
        found = shared[key] = QueryableSet(membership, certificate)
        return found

    def phi(n: int, x) -> QueryableSet:
        return fiber(n, fam.row(n)(fam.carrier, x))

    return phi


# the refuters' table: at most _TABLE_SIZE sets from the first _TABLE_SCAN listings
_TABLE_SIZE = 8
_TABLE_SCAN = 24


def _distinct_table(fam, phi):
    """The first pairwise sample-distinct listed sets, in listing order."""
    # phi hands back one object per fiber, and the memo holds each set it
    # signs: a fiber met again is a memo hit, and no id is reused
    answers = _SampleAnswers(fam.carrier.sample_elements(16))
    points = answers.points
    table: dict = {}  # signature -> the first listed set with it
    index = 0
    while len(table) < _TABLE_SIZE and index < _TABLE_SCAN:
        n, i = index % 4, index // 4
        if i < len(points):
            candidate = phi(n, points[i])
            table.setdefault(answers.signature(candidate), candidate)
        index += 1
    return list(table.values())


def _run(args) -> int:
    out = sys.stdout
    if args.command == "eval":
        out.write(fmt(parse(args.expr)) + "\n")
    elif args.command == "cmp":
        c = compare(parse(args.left), parse(args.right))
        out.write(("less", "equal", "greater")[c + 1] + "\n")
    elif args.command == "pair":
        alpha = parse(args.alpha)
        out.write(fmt(pair_encode(alpha, parse(args.x), parse(args.y))) + "\n")
    elif args.command == "unpair":
        alpha = parse(args.alpha)
        decoded = pair_decode(alpha, parse(args.z))
        if decoded is None:
            out.write("none\n")
        else:
            out.write(fmt(decoded[0]) + "\n")
            out.write(fmt(decoded[1]) + "\n")
    elif args.command == "fincode":
        alpha = parse(args.alpha)
        text = args.elements.strip()
        elements = [parse(part) for part in text.split(",")] if text else []
        out.write(fmt(fin_encode(alpha, elements)) + "\n")
    elif args.command == "cnfbij":
        alpha = parse(args.alpha)
        value = parse(args.value)
        bijection = OmegaPowerBijection(alpha, fuel=args.fuel)
        out.write(fmt(getattr(bijection, args.direction)(value)) + "\n")
    elif args.command == "reduce":
        fam = load_instance(args.instance)
        fam.check_coverage()
        result = reduce_omega_product(fam)
        # verify before writing anything, so an error name comes first
        report = verify_surjective(result, parse(args.verify_below))
        case, k = result.case_taken
        head = f"case={case}" + (f" k={k}" if case == "case1" else "")
        out.write(head + f" delta={fmt(result.delta)}\n")
        for line in report.lines():
            out.write(line + "\n")
    elif args.command == "refute":
        fam = load_instance(args.instance)
        phi = _fiber_listing(fam)
        table = _distinct_table(fam, phi)
        if args.mode == "pset":
            witness = refute_powerset(phi, fam.carrier, table, check_bound=args.check)
        else:
            for entry in table:
                if entry.certificate is None or entry.certificate[0] != "infinite":
                    raise CertificateError("infpset mode needs infinite listed sets")
            witness = refute_infinite_powerset(
                phi, fam.carrier, table, check_bound=args.check
            )
        out.write(f"mode={args.mode} table={len(table)}\n")
        # the refuter has rechecked the witness afresh, or raised WitnessNotFound
        out.write(f"distinguishers={len(witness.distinguishers)} recheck=ok\n")
        for tag, index, point, in_missed, in_listed, _ in witness.distinguishers[:10]:
            name = f"table:{index}" if tag == "table" else f"phi:{tag[0]},{tag[1]}"
            label, pos = point
            out.write(
                f"index={name} point={label}:{fmt(pos)} "
                f"missed={str(in_missed).lower()} listed={str(in_listed).lower()}\n"
            )
    elif args.command == "decode-wo":
        content = read_ascii_file(args.path)
        out.write(fmt(wellorder_decode(_parse_wo_file(content))) + "\n")
    elif args.command == "selftest":
        size = args.size
        if size < 1:
            raise BoundViolation(f"selftest size must be at least 1, not {size}")
        for name, (_, cap) in _CHECKS.items():
            report = exhaustive_check(name, min(size, cap))
            out.write(report.summary() + "\n")
        _law_spot_checks(out)
    return 0


def _parse_wo_file(content: str):
    pairs = []
    bits = None
    for raw in content.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("bits:"):
            body = line[len("bits:"):].strip()
            bits = [_nat(part, line) for part in body.split(",")] if body else []
            continue
        parts = line.split(",") if "," in line else line.split()  # no empty field
        if len(parts) != 2:
            raise ParseError(f"bad well-order line: {line!r}")
        pairs.append((_nat(parts[0], line), _nat(parts[1], line)))
    if bits is not None:
        return bits
    return pairs


def _law_spot_checks(out):
    import random

    from .core import add, left_subtract, multiply

    rng = random.Random(20_24)
    failures = 0
    for _ in range(500):
        a, b, c = (_random_ordinal(rng) for _ in range(3))
        if add(add(a, b), c) != add(a, add(b, c)):
            failures += 1
        if multiply(multiply(a, b), c) != multiply(a, multiply(b, c)):
            failures += 1
        if multiply(a, add(b, c)) != add(multiply(a, b), multiply(a, c)):
            failures += 1
        low, high = (a, b) if compare(a, b) <= 0 else (b, a)
        if add(low, left_subtract(low, high)) != high:
            failures += 1
    out.write(f"arithmetic laws: 500 random triples, {failures} failures\n")


def _random_ordinal(rng) -> Ordinal:
    terms = []
    for exponent in sorted(rng.sample(range(6), rng.randrange(4)), reverse=True):
        terms.append((Ordinal(exponent), rng.randrange(1, 20)))
    return Ordinal.from_terms(terms)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except ToolkitError as error:
        sys.stdout.write(error.name + "\n")
        sys.stdout.write(str(error) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
