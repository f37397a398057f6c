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
compare by :attr:`Ordinal.key`.

The text form ``[lo,hi),[lo,hi)`` is written by
:func:`format_interval_set` and read by :func:`parse_interval_set`, whose
bounds (plain, or templates in ``n``) go through :mod:`core`'s expression
parser; this module scans no text itself.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .core import ONE, ZERO, Ordinal, _eval_bounds, _parse_bounds, add, fmt, left_subtract
from .errors import OutOfRangeError, PartitionError

__all__ = [
    "OrdinalSet",
    "indecomposable_split",
    "parse_interval_set",
]


def _check_bounds(lo, hi):
    if not isinstance(lo, Ordinal) or not isinstance(hi, Ordinal):
        raise OutOfRangeError("interval bounds must be ordinals")


# eventual._Row._coalesce repeats these tests on tail forms; keep in step
def _coalesce(pairs: list) -> tuple:
    """Merge nonempty intervals sorted by ``lo`` where they overlap or touch."""
    merged: list = []
    for lo, hi in pairs:
        if merged and lo.key <= merged[-1][1].key:
            if hi.key > merged[-1][1].key:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return tuple(merged)


def _lo_key(pair) -> tuple:
    return pair[0].key


# eventual._Row.canonical repeats these tests on tail forms; keep in step
def _canonical(intervals: Iterable) -> tuple:
    pairs = []
    for lo, hi in intervals:
        _check_bounds(lo, hi)
        if lo.key < hi.key:
            pairs.append((lo, hi))
    pairs.sort(key=_lo_key)
    return _coalesce(pairs)


class OrdinalSet:
    """A finite union of half-open ordinal intervals, kept canonical."""

    __slots__ = ("_intervals", "_order_type")

    def __init__(self, intervals: Iterable = ()):
        self._intervals = _canonical(intervals)
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
        return cls._of(((lo, hi),) if lo.key < hi.key else ())

    @classmethod
    def point(cls, x: Ordinal) -> "OrdinalSet":
        _check_bounds(x, x)
        return cls._of(((x, add(x, ONE)),))

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

    # eventual._Row.union repeats these tests on tail forms; keep in step
    def union(self, other: "OrdinalSet") -> "OrdinalSet":
        a, b = self._intervals, other._intervals
        if not a:
            return other
        if not b:
            return self
        # a + b is two sorted runs, which the sort merges in one linear pass
        return OrdinalSet._of(_coalesce(sorted(a + b, key=_lo_key)))

    def intersect(self, other: "OrdinalSet") -> "OrdinalSet":
        a, b = self._intervals, other._intervals
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            alo, ahi = a[i]
            blo, bhi = b[j]
            lo = alo if alo.key >= blo.key else blo
            # advance past whichever interval ends first
            if ahi.key <= bhi.key:
                hi = ahi
                i += 1
            else:
                hi = bhi
                j += 1
            if lo.key < hi.key:
                out.append((lo, hi))
        return OrdinalSet._of(tuple(out))

    def difference(self, other: "OrdinalSet") -> "OrdinalSet":
        b = other._intervals
        out = []
        j = 0
        for lo, hi in self._intervals:
            while j < len(b) and b[j][1].key <= lo.key:
                j += 1
            # b[j:] starts with the intervals that end above lo; cut them out
            while j < len(b) and b[j][0].key < hi.key:
                blo, bhi = b[j]
                if lo.key < blo.key:
                    out.append((lo, blo))
                if hi.key <= bhi.key:
                    lo = hi  # b[j] may reach into the next interval: keep it
                    break
                lo = bhi
                j += 1
            if lo.key < hi.key:
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

    # eventual._Row.order_type repeats these tests on tail forms; keep in step
    def order_type(self) -> Ordinal:
        total = self._order_type
        if total is None:
            total = ZERO
            for lo, hi in self._intervals:
                total = add(total, left_subtract(lo, hi))
            self._order_type = total
        return total

    def enumerate(self, position: Ordinal) -> Ordinal:
        """The element at ``position`` under the unique enumerating isomorphism."""
        cum = ZERO
        for lo, hi in self._intervals:
            length = left_subtract(lo, hi)
            nxt = add(cum, length)
            if position.key < nxt.key:
                offset = left_subtract(cum, position)
                return add(lo, offset)
            cum = nxt
        raise OutOfRangeError(
            f"position {position} out of range for order type {self.order_type()}"
        )

    def locate(self, element: Ordinal) -> Ordinal:
        """Inverse of :meth:`enumerate`: the position of ``element``."""
        cum = ZERO
        k = element.key
        for lo, hi in self._intervals:
            if k < hi.key:
                if lo.key <= k:
                    return add(cum, left_subtract(lo, element))
                break
            cum = add(cum, left_subtract(lo, hi))
        raise OutOfRangeError(f"element {element} is not in the set")

    def slice_positions(self, p_lo: Ordinal, p_hi: Ordinal) -> "OrdinalSet":
        """Elements whose positions lie in ``[p_lo, p_hi)``."""
        return self.select_positions(OrdinalSet.interval(p_lo, p_hi))

    # eventual._Row.select_positions repeats these tests on tail forms; keep in step
    def select_positions(self, positions: "OrdinalSet") -> "OrdinalSet":
        """Elements at the given set of positions."""
        # enumeration is strictly increasing, so the images of disjoint
        # position intervals come out sorted and apart
        pos = positions._intervals
        out = []
        cum = ZERO
        i = 0
        for lo, hi in self._intervals:
            if i == len(pos):
                break
            nxt = add(cum, left_subtract(lo, hi))
            while i < len(pos) and pos[i][0].key < nxt.key:
                p_lo, p_hi = pos[i]
                s_lo = p_lo if p_lo.key >= cum.key else cum
                s_hi = p_hi if p_hi.key <= nxt.key else nxt
                out.append((add(lo, left_subtract(cum, s_lo)), add(lo, left_subtract(cum, s_hi))))
                if p_hi.key > nxt.key:
                    break  # pos[i] goes on into the next interval
                i += 1
            cum = nxt
        return OrdinalSet._of(tuple(out))

    def positions_of(self, subset: "OrdinalSet") -> "OrdinalSet":
        """Positions (within self) of the elements of ``subset & self``."""
        sub = subset._intervals
        out = []
        cum = ZERO
        j = 0
        for lo, hi in self._intervals:
            while j < len(sub) and sub[j][0].key < hi.key:
                slo, shi = sub[j]
                if lo.key < shi.key:
                    s_lo = slo if slo.key >= lo.key else lo
                    s_hi = shi if shi.key <= hi.key else hi
                    out.append((add(cum, left_subtract(lo, s_lo)), add(cum, left_subtract(lo, s_hi))))
                if shi.key > hi.key:
                    break  # sub[j] goes on into the next interval
                j += 1
            cum = add(cum, left_subtract(lo, hi))
        # the positions of the ends of two neighbouring intervals touch
        return OrdinalSet._of(_coalesce(out))

    def iter_prefix(self, count: int) -> Iterator[Ordinal]:
        """The first ``count`` elements in increasing order."""
        emitted = 0
        for lo, hi in self._intervals:
            x = lo
            while emitted < count and x.key < hi.key:
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


def parse_interval_set(text: str, template: bool = False):
    """Parse ``"[lo,hi),[lo,hi)"``; empty/blank input denotes the empty set.

    With ``template=True`` returns a function of ``n`` producing an
    OrdinalSet (bounds may use the variable ``n``).
    """
    bounds = _parse_bounds(text.strip())

    def build(n):
        return OrdinalSet(_eval_bounds(bounds, n))

    return build if template else build(None)


def format_interval_set(s: OrdinalSet) -> str:
    def compact(x):
        return fmt(x).replace(" ", "")

    return ",".join(f"[{compact(lo)},{compact(hi)})" for lo, hi in s.intervals)
