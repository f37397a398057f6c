"""Symbolic subsets of ordinals as finite unions of half-open intervals.

An :class:`OrdinalSet` is a canonical, sorted, merged tuple of ``[lo, hi)``
intervals.  Order types, the canonical enumerating isomorphism and its
inverse, and the additive-indecomposability split check all operate on
this representation exactly.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .core import ZERO, Ordinal, add, compare, fmt, left_subtract, parse
from .errors import OutOfRangeError, ParseError, PartitionError

__all__ = [
    "OrdinalSet",
    "indecomposable_split",
    "parse_interval_set",
]


def _canonical(intervals: Iterable) -> tuple:
    pairs = []
    for lo, hi in intervals:
        if not isinstance(lo, Ordinal) or not isinstance(hi, Ordinal):
            raise OutOfRangeError("interval bounds must be ordinals")
        if compare(lo, hi) < 0:
            pairs.append((lo, hi))
    pairs.sort(key=lambda pair: (pair[0].key, pair[1].key))
    merged: list = []
    for lo, hi in pairs:
        if merged and compare(lo, merged[-1][1]) <= 0:
            if compare(hi, merged[-1][1]) > 0:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return tuple(merged)


class OrdinalSet:
    """A finite union of half-open ordinal intervals, kept canonical."""

    __slots__ = ("_intervals",)

    def __init__(self, intervals: Iterable = ()):
        object.__setattr__(self, "_intervals", _canonical(intervals))

    @classmethod
    def interval(cls, lo: Ordinal, hi: Ordinal) -> "OrdinalSet":
        return cls(((lo, hi),))

    @classmethod
    def point(cls, x: Ordinal) -> "OrdinalSet":
        return cls(((x, add(x, Ordinal(1))),))

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
        return OrdinalSet(self._intervals + other._intervals)

    def intersect(self, other: "OrdinalSet") -> "OrdinalSet":
        out = []
        for alo, ahi in self._intervals:
            for blo, bhi in other._intervals:
                lo = alo if compare(alo, blo) >= 0 else blo
                hi = ahi if compare(ahi, bhi) <= 0 else bhi
                if compare(lo, hi) < 0:
                    out.append((lo, hi))
        return OrdinalSet(out)

    def difference(self, other: "OrdinalSet") -> "OrdinalSet":
        out = []
        for lo, hi in self._intervals:
            segments = [(lo, hi)]
            for blo, bhi in other._intervals:
                next_segments = []
                for slo, shi in segments:
                    cut_lo = slo if compare(slo, blo) >= 0 else blo
                    cut_hi = shi if compare(shi, bhi) <= 0 else bhi
                    if compare(cut_lo, cut_hi) >= 0:
                        next_segments.append((slo, shi))
                        continue
                    if compare(slo, cut_lo) < 0:
                        next_segments.append((slo, cut_lo))
                    if compare(cut_hi, shi) < 0:
                        next_segments.append((cut_hi, shi))
                segments = next_segments
            out.extend(segments)
        return OrdinalSet(out)

    def contains(self, x: Ordinal) -> bool:
        for lo, hi in self._intervals:
            if compare(lo, x) <= 0 and compare(x, hi) < 0:
                return True
        return False

    def is_subset(self, other: "OrdinalSet") -> bool:
        return self.difference(other).is_empty()

    def min_element(self) -> Ordinal:
        if not self._intervals:
            raise OutOfRangeError("empty set has no least element")
        return self._intervals[0][0]

    # -- order structure -------------------------------------------------

    def order_type(self) -> Ordinal:
        total = ZERO
        for lo, hi in self._intervals:
            total = add(total, left_subtract(lo, hi))
        return total

    def enumerate(self, position: Ordinal) -> Ordinal:
        """The element at ``position`` under the unique enumerating isomorphism."""
        cum = ZERO
        for lo, hi in self._intervals:
            length = left_subtract(lo, hi)
            nxt = add(cum, length)
            if compare(position, nxt) < 0:
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
            if compare(element, hi) < 0:
                if compare(lo, element) <= 0:
                    return add(cum, left_subtract(lo, element))
                break
            cum = add(cum, left_subtract(lo, hi))
        raise OutOfRangeError(f"element {element} is not in the set")

    def slice_positions(self, p_lo: Ordinal, p_hi: Ordinal) -> "OrdinalSet":
        """Elements whose positions lie in ``[p_lo, p_hi)``."""
        out = []
        cum = ZERO
        for lo, hi in self._intervals:
            length = left_subtract(lo, hi)
            nxt = add(cum, length)
            s_lo = p_lo if compare(p_lo, cum) >= 0 else cum
            s_hi = p_hi if compare(p_hi, nxt) <= 0 else nxt
            if compare(s_lo, s_hi) < 0:
                e_lo = add(lo, left_subtract(cum, s_lo))
                e_hi = add(lo, left_subtract(cum, s_hi))
                out.append((e_lo, e_hi))
            cum = nxt
        return OrdinalSet(out)

    def select_positions(self, positions: "OrdinalSet") -> "OrdinalSet":
        """Elements at the given set of positions."""
        out = OrdinalSet()
        for p_lo, p_hi in positions._intervals:
            out = out.union(self.slice_positions(p_lo, p_hi))
        return out

    def positions_of(self, subset: "OrdinalSet") -> "OrdinalSet":
        """Positions (within self) of the elements of ``subset & self``."""
        out = []
        cum = ZERO
        for lo, hi in self._intervals:
            part = subset.intersect(OrdinalSet.interval(lo, hi))
            for slo, shi in part._intervals:
                p_lo = add(cum, left_subtract(lo, slo))
                p_hi = add(cum, left_subtract(lo, shi))
                out.append((p_lo, p_hi))
            cum = add(cum, left_subtract(lo, hi))
        return OrdinalSet(out)

    def iter_prefix(self, count: int) -> Iterator[Ordinal]:
        """The first ``count`` elements in increasing order."""
        emitted = 0
        for lo, hi in self._intervals:
            x = lo
            while emitted < count and compare(x, hi) < 0:
                yield x
                emitted += 1
                x = add(x, Ordinal(1))
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
    hit_b = compare(b.order_type(), target) == 0
    hit_c = compare(c.order_type(), target) == 0
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
    OrdinalSet (bounds may use the template grammar).
    """
    from .core import parse_template

    text = text.strip()
    if not text:
        return (lambda n: OrdinalSet()) if template else OrdinalSet()
    specs = []
    pos = 0
    while pos < len(text):
        while pos < len(text) and text[pos] in " \t":
            pos += 1
        if pos >= len(text):
            break
        if text[pos] != "[":
            raise ParseError("expected '[' in interval set", pos)
        depth = 0
        comma_at = None
        end_at = None
        scan = pos + 1
        while scan < len(text):
            ch = text[scan]
            if ch == "(":
                depth += 1
            elif ch == ")":
                if depth == 0:
                    end_at = scan
                    break
                depth -= 1
            elif ch == "," and depth == 0 and comma_at is None:
                comma_at = scan
            scan += 1
        if end_at is None or comma_at is None:
            raise ParseError("interval needs '[lo,hi)'", pos)
        specs.append((text[pos + 1:comma_at], text[comma_at + 1:end_at]))
        pos = end_at + 1
        while pos < len(text) and text[pos] in " \t":
            pos += 1
        if pos < len(text):
            if text[pos] != ",":
                raise ParseError("expected ',' between intervals", pos)
            pos += 1
    if template:
        bounds = [(parse_template(lo), parse_template(hi)) for lo, hi in specs]

        def build(n: int) -> OrdinalSet:
            return OrdinalSet((lo(n), hi(n)) for lo, hi in bounds)

        return build
    return OrdinalSet((parse(lo), parse(hi)) for lo, hi in specs)


def format_interval_set(s: OrdinalSet) -> str:
    def compact(x):
        return fmt(x).replace(" ", "")

    return ",".join(f"[{compact(lo)},{compact(hi)})" for lo, hi in s.intervals)
