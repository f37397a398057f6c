"""Abstract countable carriers and piecewise maps into ordinals.

A :class:`Carrier` presents a countable set as finitely many labeled
blocks; an element is ``(label, position)`` with the position below the
block shape's order type.  Maps out of a carrier are block-wise monotone
or constant (:class:`BlockwiseMap`); a monotone piece is the unique order
isomorphism from (an initial segment of) its domain onto its target set,
extended by zero beyond the target's length.  That rule lives in one
place: :meth:`Piece.image`, :meth:`Piece.preimage` and
:meth:`Piece.overflow` for sets (and ``_evaluate`` for single points);
``image_of``, ``preimage_of``, :meth:`CarrierMap.fiber` and the
finite-to-one transfer are built on them.  The image step itself is
``intervals.monotone_image``, which :mod:`eventual` runs on tail forms.
This class is closed under image, preimage, restriction and difference,
with computable order types.

:class:`SurjectionFamily` presents a surjection f: omega x M -> alpha by
rows (finitely many explicit rows plus an optional parametric tail), and
:class:`QueryableSet` is a membership-oracle subset of a carrier (or of
the ordinals below some alpha).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .core import (
    ZERO,
    Ordinal,
    _eval_ast,
    _eval_bounds,
    _nat_int,
    _nat_str,
    _parse_bounds,
    _parse_to_ast,
    add,
    compare,
    fmt,
    left_subtract,
    parse,
)
from .errors import (
    BoundViolation,
    CertificateError,
    CoverageBroken,
    FileInputError,
    OutOfRangeError,
    ParseError,
    RowUndefined,
    TailLimitUndecided,
)
from .eventual import settle_point
from .intervals import ORDINALS, OrdinalSet, monotone_image, parse_interval_set

__all__ = [
    "Carrier",
    "Piece",
    "BlockwiseMap",
    "CarrierMap",
    "SurjectionFamily",
    "QueryableSet",
    "image_of",
    "preimage_of",
    "parse_instance",
]


# limit-scale sample positions of :meth:`Carrier.sample_elements`
_LADDER = tuple(parse(text) for text in ("w", "w+1", "w*2", "w^2", "w^2+w", "w^3"))


class Carrier:
    """Labeled blocks; elements are (label, position < block order type)."""

    def __init__(self, blocks: Iterable):
        blocks = [(label, shape) for label, shape in blocks]
        labels = [label for label, _ in blocks]
        if len(set(labels)) != len(labels):
            raise BoundViolation("block labels must be distinct")
        for label, shape in blocks:
            if shape.is_empty():
                raise BoundViolation(f"block {label!r} has an empty shape")
        self.blocks = tuple(blocks)
        self.labels = tuple(labels)
        self._ot = {label: shape.order_type() for label, shape in blocks}
        # each block's global positions [offset, end); the blocks tile
        # [0, order_type) in order
        self._spans = {}
        end = ZERO
        for label in labels:
            offset, end = end, add(end, self._ot[label])
            self._spans[label] = (offset, end)
        self.order_type = end
        # OrdinalSet is immutable, so each block's set is built once and shared
        self._positions = {label: OrdinalSet.interval(ZERO, ot) for label, ot in self._ot.items()}

    def block_positions(self, label: str) -> OrdinalSet:
        return self._positions[label]

    def full_restriction(self) -> dict:
        return {label: self.block_positions(label) for label in self.labels}

    def is_element(self, element) -> bool:
        """Whether ``element`` is a ``(label, Ordinal)`` pair with the
        position below its block's order type."""
        try:
            label, pos = element
            ot = self._ot.get(label)
        except (TypeError, ValueError):  # not a pair, or an unhashable label
            return False
        return ot is not None and type(pos) is Ordinal and ORDINALS.lt(pos, ot)

    def check_element(self, element):
        if not self.is_element(element):
            raise OutOfRangeError(f"{element!r} is not a carrier element")

    def global_position(self, element) -> Ordinal:
        if not self.is_element(element):  # check_element's test, one call fewer
            raise OutOfRangeError(f"{element!r} is not a carrier element")
        label, pos = element
        return add(self._spans[label][0], pos)

    def element_at(self, global_pos: Ordinal):
        # the first block that ends past global_pos starts at or below it
        for label, (off, end) in self._spans.items():
            if compare(global_pos, end) < 0:
                return (label, left_subtract(off, global_pos))
        raise OutOfRangeError(f"global position {global_pos} out of range")

    def global_range_restriction(self, lo: Ordinal, hi: Ordinal) -> dict:
        """Per-block position sets for the global position window [lo, hi)."""
        out = {}
        for label, (off, end) in self._spans.items():
            s_lo = lo if compare(lo, off) >= 0 else off
            s_hi = hi if compare(hi, end) <= 0 else end
            if compare(s_lo, s_hi) < 0:
                out[label] = OrdinalSet.interval(
                    left_subtract(off, s_lo), left_subtract(off, s_hi)
                )
            else:
                out[label] = OrdinalSet()
        return out

    def sample_elements(self, count: int) -> list:
        """A deterministic spread of elements: small naturals plus a few
        limit-scale positions per block, round-robin across blocks.  Each
        point is built when the round robin takes it, so only ``count`` are."""

        def ladder(label):  # label is a parameter, bound once per ladder
            theta = self._ot[label]
            naturals = min(count, theta.nat_value()) if theta.is_nat() else count
            yield from ((label, Ordinal(k)) for k in range(naturals))
            for p in _LADDER:
                if compare(p, theta) < 0:
                    yield label, p

        points = []
        ladders = map(ladder, self.labels)
        # each pass cycles through the unfinished ladders until one ends
        for active in range(len(self.labels), 0, -1):
            ladders = itertools.cycle(itertools.islice(ladders, active))
            points += itertools.islice(map(next, ladders), count - len(points))
        return points


@dataclass(frozen=True)
class Piece:
    """One block-wise piece of a map into ordinals.

    ``dom`` is the position set the piece covers (None means the whole
    block).  A monotone piece maps the initial segment of its domain
    isomorphically onto ``target`` and positions beyond the target's
    order type to 0; a constant piece maps everything to ``value``.  In a
    :class:`CarrierMap` the values are positions in the destination block
    ``target_label``.
    """

    label: str
    kind: str  # 'monotone' | 'constant'
    target: Optional[OrdinalSet] = None
    value: Optional[Ordinal] = None
    dom: Optional[OrdinalSet] = None
    target_label: Optional[str] = None

    def domain_in(self, carrier: Carrier) -> OrdinalSet:
        if self.dom is None:
            return carrier.block_positions(self.label)
        return self.dom

    def image(self, carrier: Carrier, part: OrdinalSet) -> OrdinalSet:
        """The values the piece takes on ``part``, a nonempty subset of its
        domain: a monotone piece's target elements at the positions of
        ``part``, and 0 when a position lies past the target's length."""
        if self.kind == "constant":
            return OrdinalSet.point(self.value)
        positions = self.domain_in(carrier).positions_of(part)
        target = self.target
        return OrdinalSet._of(
            monotone_image(ORDINALS, target.intervals, target.order_type(), positions.intervals)
        )

    def preimage(self, carrier: Carrier, values: OrdinalSet) -> OrdinalSet:
        """The domain positions the piece sends into ``values``."""
        dom = self.domain_in(carrier)
        if self.kind == "constant":
            return dom if values.contains(self.value) else OrdinalSet()
        hit = dom.select_positions(self.target.positions_of(values))
        if values.contains(ZERO):
            hit = hit.union(self.overflow(carrier))
        return hit

    def overflow(self, carrier: Carrier) -> OrdinalSet:
        """The domain positions of a monotone piece past its target's
        length, which it sends to 0."""
        dom = self.domain_in(carrier)
        return dom.slice_positions(self.target.order_type(), dom.order_type())


def _evaluate(pieces: tuple, carrier: Carrier, element) -> Optional[tuple]:
    """``(piece, value)`` for the first piece covering ``element``; None if
    no piece covers it."""
    carrier.check_element(element)
    label, pos = element
    for piece in pieces:
        if piece.label != label:
            continue
        dom = piece.domain_in(carrier)
        if not dom.contains(pos):
            continue
        if piece.kind == "constant":
            return piece, piece.value
        r = dom.locate(pos)
        if compare(r, piece.target.order_type()) < 0:
            return piece, piece.target.enumerate(r)
        return piece, ZERO
    return None


class BlockwiseMap:
    """A finite list of pieces; evaluation picks the covering piece."""

    def __init__(self, pieces: Iterable):
        self.pieces = tuple(pieces)

    def evaluate(self, carrier: Carrier, element) -> Optional[Ordinal]:
        hit = _evaluate(self.pieces, carrier, element)
        return None if hit is None else hit[1]

    def __call__(self, carrier: Carrier, element) -> Ordinal:
        value = self.evaluate(carrier, element)
        if value is None:
            raise OutOfRangeError(f"map undefined at {element!r}")
        return value

    def gap(self, carrier: Carrier, label: str) -> OrdinalSet:
        """The positions of block ``label`` that no piece covers."""
        out = carrier.block_positions(label)
        for piece in self.pieces:
            if piece.label == label:
                out = out.difference(piece.domain_in(carrier))
        return out

    def is_total_on(self, carrier: Carrier) -> bool:
        return all(self.gap(carrier, label).is_empty() for label in carrier.labels)


def image_of(
    map_: BlockwiseMap, carrier: Carrier, restriction: Optional[dict] = None
) -> OrdinalSet:
    """Exact image of the per-block restriction (None = full carrier)."""
    if restriction is None:
        restriction = carrier.full_restriction()
    out = OrdinalSet()
    for piece in map_.pieces:
        r = restriction.get(piece.label)
        if r is None or r.is_empty():
            continue
        part = piece.domain_in(carrier).intersect(r)
        if not part.is_empty():
            out = out.union(piece.image(carrier, part))
    return out


def preimage_of(map_: BlockwiseMap, carrier: Carrier, target_set: OrdinalSet) -> dict:
    """Exact preimage as a per-block position-set restriction, with an
    entry for every block."""
    out = {label: OrdinalSet() for label in carrier.labels}
    for piece in map_.pieces:
        hit = piece.preimage(carrier, target_set)
        if not hit.is_empty():
            out[piece.label] = out[piece.label].union(hit)
    return out


# -- carrier-to-carrier maps --------------------------------------------------


class CarrierMap:
    """A block-wise map N -> M between carriers, by pieces that name their
    destination block in ``target_label``."""

    def __init__(self, source: Carrier, dest: Carrier, pieces: Iterable):
        self.source = source
        self.dest = dest
        self.pieces = tuple(pieces)

    def evaluate(self, element):
        hit = _evaluate(self.pieces, self.source, element)
        if hit is None:
            raise OutOfRangeError(f"map undefined at {element!r}")
        piece, value = hit
        return (piece.target_label, value)

    def fiber(self, element) -> list:
        """All source elements mapping to ``element``; requires finiteness."""
        self.dest.check_element(element)
        label, pos = element
        out = []
        for piece in self.pieces:
            if piece.target_label != label:
                continue
            hit = piece.preimage(self.source, OrdinalSet.point(pos))
            total = hit.order_type()
            if not total.is_nat():
                raise BoundViolation(
                    f"infinite fiber over {fmt(pos)}: {piece.kind} piece on block {piece.label!r}"
                )
            out.extend((piece.label, p) for p in hit.iter_prefix(total.nat_value()))
        return out


# -- queryable subsets ---------------------------------------------------------


@dataclass
class QueryableSet:
    """A subset of a domain (a carrier, or the ordinals below some alpha)
    given by a membership test.

    ``certificate`` is optional: ``('finite', tuple_of_members)`` for an
    exactly listed set, or ``('infinite', enumerator)`` with an injective
    enumerator from naturals to members.
    """

    membership: Callable
    certificate: Optional[tuple] = None

    def contains(self, element) -> bool:
        return bool(self.membership(element))

    def validate_certificate(self, in_domain: Callable, probes: Iterable = (), samples: int = 16):
        """Spot-check the certificate, if any: a finite one must list only
        members and miss none of ``probes``; the first ``samples`` points of
        an infinite one must be distinct members inside ``in_domain``.
        Returns the list of members it checked, in order: the listed points
        or the enumerated ones; none without a certificate."""
        if self.certificate is None:
            return []
        kind, payload = self.certificate
        if kind == "finite":
            for x in payload:
                if not self.contains(x):
                    raise CertificateError(f"listed member {x} fails the membership test")
            listed = set(payload)
            for x in probes:
                if x not in listed and self.contains(x):
                    raise CertificateError(f"unlisted member {x} found for a finite certificate")
            return list(payload)
        if kind != "infinite":
            raise CertificateError(f"unknown certificate kind {kind!r}")
        seen: dict = {}
        for k in range(samples):
            x = payload(k)
            if not in_domain(x) or not self.contains(x):
                raise CertificateError(f"enumerated point {x} is not a member")
            if x in seen:
                raise CertificateError("enumerator repeated a point")
            seen[x] = True
        return list(seen)


# -- surjection families --------------------------------------------------------


class SurjectionFamily:
    """A presented surjection f: omega x M -> alpha given by rows.

    A ``tail`` ``(start, rule)`` gives row ``n >= start`` as ``rule(n)``.
    Its CNF shape must be settled from ``start`` on: rows ``start`` and
    ``start + 1`` decide the supremum of its order types.  Every tail that
    :func:`parse_instance` makes meets this; a tail built in code must.
    A parsed tail also comes with its ``tail_image``, the
    :class:`~ordkit.eventual.TailImage` that :meth:`row_image` and
    :meth:`first_reach` read.
    """

    def __init__(
        self,
        carrier: Carrier,
        alpha: Ordinal,
        rows: Iterable,
        tail: Optional[tuple] = None,
        tail_image=None,
    ):
        self.carrier = carrier
        self.alpha = alpha
        self.rows = tuple(rows)
        self.tail_image = tail_image
        if tail is not None:
            start, rule = tail
            if start != len(self.rows):
                raise BoundViolation("tail must start right after the explicit rows")
            self.tail_start = start
            self.tail_rule = rule
        else:
            self.tail_start = None
            self.tail_rule = None
        self._row_cache: dict = {}
        self._image_cache: dict = {}

    def has_row(self, n: int) -> bool:
        return n < len(self.rows) or self.tail_rule is not None

    def row(self, n: int) -> BlockwiseMap:
        if n < len(self.rows):
            return self.rows[n]
        if self.tail_rule is None:
            raise RowUndefined(f"row {n} is not defined (no tail rule)")
        if n not in self._row_cache:
            self._row_cache[n] = self.tail_rule(n)
        return self._row_cache[n]

    def row_image(self, n: int) -> OrdinalSet:
        """The image of row n; one that leaves [0, alpha) is an error.  A
        parsed tail's rows are read off its ``tail_image`` forms, which
        exist only where no tail row leaves alpha."""
        image = self._image_cache.get(n)
        if image is None:
            if self.tail_image is not None and n >= self.tail_start:
                image = OrdinalSet._of(self.tail_image.at(n))
            else:
                image = image_of(self.row(n), self.carrier)
                if image and ORDINALS.lt(self.alpha, image.intervals[-1][1]):
                    raise CoverageBroken(f"row {n} maps outside [0, {fmt(self.alpha)})")
            self._image_cache[n] = image
        return image

    def delta(self, n: int) -> Ordinal:
        return self.row_image(n).order_type()

    def first_reach(self, s: Ordinal, n: int) -> Optional[int]:
        """The least tail row ``m >= n`` whose image holds ``[x, s)`` for
        some ``x < s`` (``s`` itself need not be below alpha); None if no
        row does, or if the tail has no ``tail_image``."""
        if self.tail_image is None:
            return None
        return self.tail_image.first_reach(s, n)

    def check_coverage(self):
        """Make every explicit row image (each must stay inside [0, alpha));
        without a tail they must also cover [0, alpha).  Tail rows are
        checked as :meth:`row_image` makes them."""
        images = [self.row_image(n) for n in range(len(self.rows))]
        if self.tail_rule is None:
            union = functools.reduce(OrdinalSet.union, images, OrdinalSet())
            missing = OrdinalSet.interval(ZERO, self.alpha).difference(union)
            if missing:
                rows = f"rows 0..{len(self.rows) - 1} do not" if self.rows else "no rows"
                raise CoverageBroken(f"{rows} cover [0, {fmt(self.alpha)}); missing {missing}")


# -- instance files --------------------------------------------------------------


def _parse_piece(text: str) -> tuple:
    """A piece as ``(label, kind, ast)``: the ``(lo, hi)`` bound ASTs of a
    monotone piece's target, or the AST of a constant piece's value."""
    head, sep, rest = text.partition("->")
    if not sep:
        raise ParseError(f"piece needs 'label -> kind ...': {text!r}")
    label = head.strip()
    rest = rest.strip()
    if rest.startswith("monotone"):
        return label, "monotone", _parse_bounds(rest[len("monotone"):].strip())
    if rest.startswith("constant"):
        return label, "constant", _parse_to_ast(rest[len("constant"):].strip())
    raise ParseError(f"unknown piece kind in {text!r}")


def _parse_row(text: str) -> list:
    return [_parse_piece(p) for p in (s.strip() for s in text.split(";")) if p]


def _build_row(pieces: list, n: Optional[int]) -> BlockwiseMap:
    """The row at ``n`` (None outside a tail)."""
    out = []
    for label, kind, ast in pieces:
        if kind == "monotone":
            out.append(Piece(label, kind, target=OrdinalSet(_eval_bounds(ast, n))))
        else:
            out.append(Piece(label, kind, value=_eval_ast(ast, n)))
    return BlockwiseMap(out)


def _check_blocks(n: int, labels: list, carrier: Carrier):
    """Row ``n``, whose pieces name ``labels`` in order, must give each
    block of the carrier exactly one piece."""
    seen = set()
    for label in labels:
        if label not in carrier.labels:
            raise ParseError(f"row {n} names unknown block {label!r}")
        # a piece covers its whole block, so a second one would overlap it
        if label in seen:
            raise ParseError(f"row {n} gives block {label!r} more than one piece")
        seen.add(label)
    if len(seen) != len(carrier.labels):
        raise ParseError(f"row {n} does not cover every block")


def _nat(text: str, context: str) -> int:
    """A natural of an instance or well-order file: ASCII digits, any length."""
    text = text.strip()
    # ASCII only: str.isdigit also accepts superscripts and other scripts' digits
    if not (text.isascii() and text.isdigit()):
        raise ParseError(f"expected a natural number in {context!r}")
    return _nat_int(text)


# Rows a tail may take before it settles (see eventual.settle_point); each
# of them is read as an explicit row.
_MAX_SETTLE = 4096


def parse_instance(text: str) -> SurjectionFamily:
    """Parse the line-oriented instance format.

    ::

        carrier: a:[0,w); b:[w,w*2)
        alpha: w^2
        row 0: a -> monotone [0,w) ; b -> constant 5
        tail: n >= 1: a -> monotone [0,w*(n+1)) ; b -> constant n

    Lines starting with ``#`` are comments.  Each key may appear once.
    """
    carrier = None
    alpha = None
    rows: dict = {}
    tail = None
    seen = set()
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise ParseError(f"expected 'key: value' line, got {line!r}")
        key = key.strip()
        if key.startswith("row") and not key[3:4].isalpha():  # not rows, rowing
            n = _nat(key[len("row"):], key)
            key = f"row {_nat_str(n)}"
        if key in seen:
            raise ParseError(f"instance key {key!r} appears more than once")
        seen.add(key)
        if key == "carrier":
            blocks = []
            for part in value.split(";"):
                part = part.strip()
                if not part:
                    continue
                label, bsep, shape_text = part.partition(":")
                if not bsep:
                    raise ParseError(f"block needs 'label:intervals': {part!r}")
                blocks.append((label.strip(), parse_interval_set(shape_text.strip())))
            carrier = Carrier(blocks)
        elif key == "alpha":
            alpha = parse(value.strip())
        elif key.startswith("row "):
            rows[n] = _build_row(_parse_row(value), None)
        elif key == "tail":
            spec, tsep, row_text = value.partition(":")
            if not tsep:
                raise ParseError(f"tail needs 'n >= N: row': {value.strip()!r}")
            spec = spec.replace(" ", "")
            if not spec.startswith("n>="):
                raise ParseError(f"tail condition must be 'n >= N': {spec!r}")
            start = _nat(spec[len("n>="):], spec)
            tail = (start, _parse_row(row_text))
        else:
            raise ParseError(f"unknown instance key {key!r}")
    if carrier is None or alpha is None:
        raise ParseError("instance needs 'carrier:' and 'alpha:' lines")
    row_maps = []
    for i in range(len(rows)):
        if i not in rows:
            raise ParseError(f"row {i} is missing (rows must be consecutive from 0)")
        _check_blocks(i, [piece.label for piece in rows[i].pieces], carrier)
        row_maps.append(rows[i])
    tail_image = None
    if tail is not None:
        start, pieces = tail
        if start != len(row_maps):
            raise ParseError(f"tail must start at row {len(row_maps)}, not {_nat_str(start)}")
        # every tail row has the pieces' labels, so row start speaks for all
        _check_blocks(start, [label for label, _, _ in pieces], carrier)
        settle, tail_image = settle_point(start, pieces, carrier._ot, alpha)
        if settle - start > _MAX_SETTLE + 1:
            raise TailLimitUndecided(
                f"tail settles at row {settle - 1}, more than {_MAX_SETTLE} rows past its start"
            )
        rule = functools.partial(_build_row, pieces)
        row_maps += [rule(n) for n in range(start, settle)]
        tail = (settle, rule)
    return SurjectionFamily(carrier, alpha, row_maps, tail, tail_image)


def read_ascii_file(path) -> str:
    """The text of an input file; a file that cannot be opened or is not
    ASCII raises :class:`FileInputError`."""
    try:
        with open(path, "r", encoding="ascii") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as error:
        raise FileInputError(f"cannot read {path}: {error}") from None


def load_instance(path) -> SurjectionFamily:
    return parse_instance(read_ascii_file(path))
