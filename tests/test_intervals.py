import pytest
from hypothesis import given
import hypothesis.strategies as st

from ordkit.core import OMEGA, Ordinal, add, compare, parse
from ordkit.errors import OutOfRangeError, ParseError, PartitionError
from ordkit.intervals import (
    OrdinalSet,
    format_interval_set,
    indecomposable_split,
    parse_interval_set,
)

from strategies import flat_ordinals


def o(text):
    return parse(text)


def iv(lo, hi):
    return OrdinalSet.interval(o(lo), o(hi))


class TestAlgebra:
    def test_union_merges_adjacent(self):
        assert iv("0", "w").union(iv("w", "w*2")) == iv("0", "w*2")

    def test_intersect_containment(self):
        assert iv("0", "w^2").intersect(iv("w", "w*3")) == iv("w", "w*3")

    def test_difference_splits(self):
        left = iv("0", "w^2").difference(iv("w", "w*2"))
        assert left == iv("0", "w").union(iv("w*2", "w^2"))

    def test_membership(self):
        s = iv("w", "w*2")
        assert s.contains(o("w+5")) and not s.contains(o("w*2"))

    @given(st.lists(st.tuples(flat_ordinals(), flat_ordinals()), max_size=5))
    def test_canonical_invariants(self, pairs):
        s = OrdinalSet(pairs)
        intervals = s.intervals
        for lo, hi in intervals:
            assert compare(lo, hi) < 0
        for (_, hi1), (lo2, _) in zip(intervals, intervals[1:]):
            assert compare(hi1, lo2) < 0


class TestOrderType:
    @pytest.mark.parametrize(
        "intervals,expected",
        [
            ((("w", "w*2"),), "w"),
            ((("0", "3"), ("w", "w+2")), "5"),
            ((("w", "w*2"), ("w^2", "w^2*2")), "w^2"),
        ],
    )
    def test_examples(self, intervals, expected):
        s = OrdinalSet((o(lo), o(hi)) for lo, hi in intervals)
        assert s.order_type() == o(expected)

    def test_disjoint_sum(self):
        a, b = iv("0", "w+3"), iv("w^2", "w^2*2")
        assert a.union(b).order_type() == add(a.order_type(), b.order_type())


class TestEnumerateLocate:
    def test_shift(self):
        assert iv("w", "w*2").enumerate(o("4")) == o("w+4")

    def test_multi_interval_position(self):
        s = iv("0", "2").union(iv("w", "w*2"))
        assert s.order_type() == OMEGA
        assert s.enumerate(o("5")) == o("w+3")
        with pytest.raises(OutOfRangeError):
            s.enumerate(OMEGA)

    def test_locate_inverse(self):
        assert iv("w", "w*2").locate(o("w+4")) == o("4")
        with pytest.raises(OutOfRangeError):
            iv("w", "w*2").locate(o("5"))

    @given(st.lists(st.tuples(flat_ordinals(), flat_ordinals()), max_size=4), flat_ordinals())
    def test_roundtrip(self, pairs, position):
        s = OrdinalSet(pairs)
        if compare(position, s.order_type()) < 0:
            element = s.enumerate(position)
            assert s.contains(element)
            assert s.locate(element) == position

    def test_enumerate_strictly_increasing(self):
        s = iv("0", "3").union(iv("w", "w^2"))
        positions = [o("0"), o("1"), o("4"), o("w"), o("w+1"), o("w*2")]
        values = [s.enumerate(p) for p in positions]
        for a, b in zip(values, values[1:]):
            assert compare(a, b) < 0


class TestIndecomposableSplit:
    def test_empty_side(self):
        s = iv("0", "w")
        assert indecomposable_split(s, OrdinalSet(), s) == "right"

    def test_tail_keeps_type(self):
        s = iv("0", "w^2")
        assert indecomposable_split(s, iv("0", "w*3"), iv("w*3", "w^2")) == "right"

    def test_finite_head(self):
        s = iv("0", "w")
        assert indecomposable_split(s, iv("0", "5"), iv("5", "w")) == "right"

    def test_left_and_both(self):
        s = iv("0", "w")
        assert indecomposable_split(s, s, iv("3", "7")) == "left"
        assert indecomposable_split(s, s, s) == "both"

    def test_union_mismatch_rejected(self):
        with pytest.raises(PartitionError):
            indecomposable_split(iv("0", "w"), iv("0", "3"), iv("5", "w"))

    def test_decomposable_can_be_neither(self):
        s = iv("0", "w*2")
        assert indecomposable_split(s, iv("0", "w"), iv("w", "w*2")) == "neither"


class TestText:
    def test_parse_and_format(self):
        s = parse_interval_set("[w,w*2),[w^2,w^2+3)")
        assert format_interval_set(s) == "[w,w*2),[w^2,w^2+3)"

    def test_nested_parens_in_bounds(self):
        s = parse_interval_set("[0,w^(w^w)*2)")
        assert s.order_type() == o("w^(w^w)*2")

    def test_empty(self):
        assert parse_interval_set("  ") == OrdinalSet()

    def test_bad_text(self):
        with pytest.raises(ParseError):
            parse_interval_set("[w,w*2")

    def test_template(self):
        rule = parse_interval_set("[w*n,w*(n+1))", template=True)
        assert rule(3) == iv("w*3", "w*4")
