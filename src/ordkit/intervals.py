"""Symbolic subsets of ordinals as finite unions of half-open intervals.

An :class:`OrdinalSet` is a canonical, sorted, merged tuple of ``[lo, hi)``
intervals.  Order types, the canonical enumerating isomorphism and its
inverse, and the additive-indecomposability split check all operate on
this representation exactly.

The public constructor ``OrdinalSet(intervals)`` validates its input: any
iterable of ordinal bound pairs, in any order, empty or overlapping.  It
serves parsed text, carriers and user code.  The set operations build
their results canonical by construction (sorted, nonempty, and each
``hi`` strictly below the next ``lo``) and hand them to the private
``OrdinalSet._of``, which trusts its input and checks nothing.  Bounds
compare by :attr:`Ordinal.key`.  Seven of its steps, the image of a
monotone piece among them, are written once, for ordinals and for the
tail forms of :mod:`eventual` alike (see below).

The text form ``[lo,hi),[lo,hi)`` is written by
:func:`format_interval_set` and read by :func:`parse_interval_set`, whose
bounds go through :mod:`core`'s expression parser (the instance parser
reads templates in ``n`` through it directly); this module scans no text
itself.
"""

from __future__ import annotations

from itertools import starmap
from types import SimpleNamespace
from typing import Iterable, Iterator

from .core import ONE, ZERO, Ordinal, _eval_bounds, _parse_bounds, add, fmt, left_subtract
from .errors import OutOfRangeError, PartitionError

__all__ = [
    "OrdinalSet",
    "indecomposable_split",
    "parse_interval_set",
]


def _check_bounds(lo, hi) -> tuple:
    if not isinstance(lo, Ordinal) or not isinstance(hi, Ordinal):
        raise OutOfRangeError("interval bounds must be ordinals")
    return lo, hi


# -- the interval steps, over a bound type --------------------------------------
#
# ``b`` is :data:`ORDINALS` for OrdinalSet, or a tail row of :mod:`eventual`
# whose every comparison settles where it is made.  It supplies ``b.lt``, the
# only comparison (``x <= y`` is asked as ``not b.lt(y, x)``, one test on the
# same pair), ``b.add``, ``b.subtract`` (left subtraction of ``x <= y``),
# ``b.zero``, ``b.one`` and ``b.lo_key``, a sort key of an interval by its
# lower bound.


def canonical(b, pairs: Iterable) -> tuple:
    """The canonical tuple of the intervals ``pairs``, given in any order."""
    lt = b.lt
    pairs = [(lo, hi) for lo, hi in pairs if lt(lo, hi)]
    pairs.sort(key=b.lo_key)
    return coalesce(b, pairs)


def coalesce(b, pairs: list) -> tuple:
    """Merge nonempty intervals sorted by ``lo`` where they overlap or touch."""
    lt = b.lt
    merged: list = []
    for lo, hi in pairs:
        if merged and not lt(merged[-1][1], lo):
            if lt(merged[-1][1], hi):
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return tuple(merged)


def union(b, s: tuple, t: tuple) -> tuple:
    if not s:
        return t
    if not t:
        return s
    # s + t is two sorted runs, which the sort merges in one linear pass
    return coalesce(b, sorted(s + t, key=b.lo_key))


def order_type(b, s: tuple):
    add, subtract = b.add, b.subtract
    total = b.zero
    for lo, hi in s:
        total = add(total, subtract(lo, hi))
    return total


def select_positions(b, s: tuple, positions: tuple) -> tuple:
    """The elements of ``s`` at the given positions."""
    lt, add, subtract = b.lt, b.add, b.subtract
    # enumeration is strictly increasing, so the images of disjoint
    # position intervals come out sorted and apart
    out = []
    cum = b.zero
    i = 0
    for lo, hi in s:
        if i == len(positions):
            break
        nxt = add(cum, subtract(lo, hi))
        while i < len(positions) and lt(positions[i][0], nxt):
            p_lo, p_hi = positions[i]
            s_lo = cum if lt(p_lo, cum) else p_lo
            past = lt(nxt, p_hi)  # positions[i] goes on into the next interval
            s_hi = nxt if past else p_hi
            out.append((add(lo, subtract(cum, s_lo)), add(lo, subtract(cum, s_hi))))
            if past:
                break
            i += 1
        cum = nxt
    return tuple(out)


def point(b, x) -> tuple:
    """The singleton ``{x}``."""
    return ((x, b.add(x, b.one)),)


def monotone_image(b, target: tuple, length, positions: tuple) -> tuple:
    """The values of a monotone piece at ``positions`` (nonempty) of its
    domain: the elements of ``target``, of order type ``length``, at those
    positions, and 0 where a position lies past that length."""
    values = select_positions(b, target, positions)
    if b.lt(length, positions[-1][1]):
        values = union(b, values, point(b, b.zero))
    return values


def _lt(x: Ordinal, y: Ordinal) -> bool:
    # built keys are read from their slots, skipping the property call
    kx, ky = x._key, y._key
    return (x.key if kx is None else kx) < (y.key if ky is None else ky)


# ordinal bounds: a built key is read from its slot, and add and
# left_subtract at call time, so that a wrapper put on either after import
# sees these calls too
ORDINALS = SimpleNamespace(
    lt=_lt, add=lambda x, y: add(x, y), subtract=lambda x, y: left_subtract(x, y),
    zero=ZERO, one=ONE, lo_key=lambda pair: pair[0]._key or pair[0].key,
)


class OrdinalSet:
    """A finite union of half-open ordinal intervals, kept canonical."""

    __slots__ = ("_intervals", "_order_type")

    def __init__(self, intervals: Iterable = ()):
        # each image starts from the empty set: the default skips the steps
        self._intervals = (
            () if intervals == () else canonical(ORDINALS, starmap(_check_bounds, intervals))
        )
        self._order_type = None

    @classmethod
    def _of(cls, intervals: tuple) -> "OrdinalSet":
        """Trusted constructor: ``intervals`` must already be canonical."""
        self = object.__new__(cls)
        self._intervals = intervals
        self._order_type = None
        return self

    @classmethod
    def interval(cls, lo: Ordinal, hi: Ordinal) -> "OrdinalSet":
        _check_bounds(lo, hi)
        return cls._of(((lo, hi),) if _lt(lo, hi) else ())

    @classmethod
    def point(cls, x: Ordinal) -> "OrdinalSet":
        _check_bounds(x, x)
        return cls._of(point(ORDINALS, x))

    @property
    def intervals(self) -> tuple:
        return self._intervals

    def is_empty(self) -> bool:
        return not self._intervals

    def __bool__(self):
        return bool(self._intervals)

    def __eq__(self, other):
        if not isinstance(other, OrdinalSet):
            return NotImplemented
        return self._intervals == other._intervals

    def __hash__(self):
        return hash(self._intervals)

    def __repr__(self):
        return f"OrdinalSet({format_interval_set(self)!r})"

    def __str__(self):
        return format_interval_set(self)

    # -- set algebra ---------------------------------------------------

    def union(self, other: "OrdinalSet") -> "OrdinalSet":
        out = union(ORDINALS, self._intervals, other._intervals)
        # an operand handed back whole keeps its cached order type
        if out is other._intervals:
            return other
        return self if out is self._intervals else OrdinalSet._of(out)

    def intersect(self, other: "OrdinalSet") -> "OrdinalSet":
        a, b = self._intervals, other._intervals
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            alo, ahi = a[i]
            blo, bhi = b[j]
            lo = blo if _lt(alo, blo) else alo
            # advance past whichever interval ends first
            if not _lt(bhi, ahi):
                hi = ahi
                i += 1
            else:
                hi = bhi
                j += 1
            if _lt(lo, hi):
                out.append((lo, hi))
        return OrdinalSet._of(tuple(out))

    def difference(self, other: "OrdinalSet") -> "OrdinalSet":
        b = other._intervals
        out = []
        j = 0
        for lo, hi in self._intervals:
            while j < len(b) and not _lt(lo, b[j][1]):
                j += 1
            # b[j:] starts with the intervals that end above lo; cut them out
            while j < len(b) and _lt(b[j][0], hi):
                blo, bhi = b[j]
                if _lt(lo, blo):
                    out.append((lo, blo))
                if not _lt(bhi, hi):
                    lo = hi  # b[j] may reach into the next interval: keep it
                    break
                lo = bhi
                j += 1
            if _lt(lo, hi):
                out.append((lo, hi))
        return OrdinalSet._of(tuple(out))

    def contains(self, x: Ordinal) -> bool:
        # built keys are read from their slots, skipping the property call
        k = x._key
        if k is None:
            k = x.key
        for lo, hi in self._intervals:
            h = hi._key
            if k < (hi.key if h is None else h):
                low = lo._key
                return (lo.key if low is None else low) <= k
        return False

    def is_subset(self, other: "OrdinalSet") -> bool:
        return self.difference(other).is_empty()

    def min_element(self) -> Ordinal:
        if not self._intervals:
            raise OutOfRangeError("empty set has no least element")
        return self._intervals[0][0]

    # -- order structure -------------------------------------------------

    def order_type(self) -> Ordinal:
        total = self._order_type
        if total is None:
            total = self._order_type = order_type(ORDINALS, self._intervals)
        return total

    def enumerate(self, position: Ordinal) -> Ordinal:
        """The element at ``position`` under the unique enumerating isomorphism."""
        cum = ZERO
        for lo, hi in self._intervals:
            length = left_subtract(lo, hi)
            nxt = add(cum, length)
            if _lt(position, nxt):
                offset = left_subtract(cum, position)
                return add(lo, offset)
            cum = nxt
        raise OutOfRangeError(
            f"position {position} out of range for order type {self.order_type()}"
        )

    def locate(self, element: Ordinal) -> Ordinal:
        """Inverse of :meth:`enumerate`: the position of ``element``."""
        cum = ZERO
        for lo, hi in self._intervals:
            if _lt(element, hi):
                if not _lt(element, lo):
                    return add(cum, left_subtract(lo, element))
                break
            cum = add(cum, left_subtract(lo, hi))
        raise OutOfRangeError(f"element {element} is not in the set")

    def slice_positions(self, p_lo: Ordinal, p_hi: Ordinal) -> "OrdinalSet":
        """Elements whose positions lie in ``[p_lo, p_hi)``."""
        return self.select_positions(OrdinalSet.interval(p_lo, p_hi))

    def select_positions(self, positions: "OrdinalSet") -> "OrdinalSet":
        """Elements at the given set of positions."""
        return OrdinalSet._of(select_positions(ORDINALS, self._intervals, positions._intervals))

    def positions_of(self, subset: "OrdinalSet") -> "OrdinalSet":
        """Positions (within self) of the elements of ``subset & self``."""
        sub = subset._intervals
        out = []
        cum = ZERO
        j = 0
        for lo, hi in self._intervals:
            while j < len(sub) and _lt(sub[j][0], hi):
                slo, shi = sub[j]
                if _lt(lo, shi):
                    s_lo = lo if _lt(slo, lo) else slo
                    s_hi = hi if _lt(hi, shi) else shi
                    out.append((add(cum, left_subtract(lo, s_lo)), add(cum, left_subtract(lo, s_hi))))
                if _lt(hi, shi):
                    break  # sub[j] goes on into the next interval
                j += 1
            cum = add(cum, left_subtract(lo, hi))
        # the positions of the ends of two neighbouring intervals touch
        return OrdinalSet._of(coalesce(ORDINALS, out))

    def iter_prefix(self, count: int) -> Iterator[Ordinal]:
        """The first ``count`` elements in increasing order."""
        emitted = 0
        for lo, hi in self._intervals:
            x = lo
            while emitted < count and _lt(x, hi):
                yield x
                emitted += 1
                x = add(x, ONE)
            if emitted >= count:
                return


def indecomposable_split(s: OrdinalSet, b: OrdinalSet, c: OrdinalSet) -> str:
    """Which of ``b``, ``c`` attains the order type of ``s = b | c``.

    Returns one of ``left``, ``right``, ``both``, ``neither``.  For sets
    of additively indecomposable order type the answer is never
    ``neither``.
    """
    if b.union(c) != s:
        raise PartitionError("B and C do not union to S")
    target = s.order_type()
    hit_b = b.order_type() == target
    hit_c = c.order_type() == target
    if hit_b and hit_c:
        return "both"
    if hit_b:
        return "left"
    if hit_c:
        return "right"
    return "neither"


# -- text form ---------------------------------------------------------------


def parse_interval_set(text: str) -> OrdinalSet:
    """Parse ``"[lo,hi),[lo,hi)"``; empty/blank input denotes the empty set."""
    return OrdinalSet(_eval_bounds(_parse_bounds(text.strip()), None))


def format_interval_set(s: OrdinalSet) -> str:
    def compact(x):
        return fmt(x).replace(" ", "")

    return ",".join(f"[{compact(lo)},{compact(hi)})" for lo, hi in s.intervals)
