import pytest
from hypothesis import given
import hypothesis.strategies as st

from ordkit import core
from ordkit.core import (
    MAX_NESTING,
    OMEGA,
    ZERO,
    add,
    compare,
    left_subtract,
    parse,
)
from ordkit.errors import OutOfRangeError, ParseError, PartitionError
from ordkit.intervals import (
    OrdinalSet,
    format_interval_set,
    indecomposable_split,
    parse_interval_set,
)

from reference import (
    _ref_canonical,
    _ref_difference,
    _ref_intersect,
    _ref_positions_of,
    _ref_select,
    _ref_slice,
    _reference_bounds,
    _reference_eval,
)
from strategies import flat_ordinals, interval_set_texts, nested_ordinals, paired_off


def o(text):
    return parse(text)


def iv(lo, hi):
    return OrdinalSet.interval(o(lo), o(hi))


def _assert_canonical(s):
    intervals = s.intervals
    for lo, hi in intervals:
        assert compare(lo, hi) < 0
    for (_, hi1), (lo2, _) in zip(intervals, intervals[1:]):
        assert compare(hi1, lo2) < 0


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
        _assert_canonical(OrdinalSet(pairs))


_bound_pairs = st.one_of(
    st.lists(st.tuples(nested_ordinals(), nested_ordinals()), max_size=5),
    st.lists(nested_ordinals(), max_size=10).map(paired_off),
)


class TestSetAlgebraReference:
    """The linear sweeps and trusted constructor against the code they replaced."""

    @given(_bound_pairs, _bound_pairs)
    def test_binary_operations(self, pairs_a, pairs_b):
        a, b = OrdinalSet(pairs_a), OrdinalSet(pairs_b)
        ref_a, ref_b = _ref_canonical(pairs_a), _ref_canonical(pairs_b)
        assert a.intervals == ref_a and b.intervals == ref_b
        for got, want in (
            (a.union(b), _ref_canonical(ref_a + ref_b)),
            (a.intersect(b), _ref_intersect(ref_a, ref_b)),
            (a.difference(b), _ref_difference(ref_a, ref_b)),
            (a.positions_of(b), _ref_positions_of(ref_a, ref_b)),
            (a.select_positions(b), _ref_select(ref_a, ref_b)),
        ):
            _assert_canonical(got)
            assert got.intervals == want
        assert a.is_subset(b) == (not _ref_difference(ref_a, ref_b))

    @given(_bound_pairs, nested_ordinals(), nested_ordinals())
    def test_slice_positions(self, pairs, p_lo, p_hi):
        s = OrdinalSet(pairs)
        got = s.slice_positions(p_lo, p_hi)
        _assert_canonical(got)
        assert got.intervals == _ref_slice(s.intervals, p_lo, p_hi)

    @given(_bound_pairs, _bound_pairs)
    def test_cached_order_type(self, pairs_a, pairs_b):
        a, b = OrdinalSet(pairs_a), OrdinalSet(pairs_b)
        for s in (a, b, a.union(b), a.intersect(b), a.difference(b), a.positions_of(b)):
            first = s.order_type()
            total = ZERO
            for lo, hi in s.intervals:
                total = add(total, left_subtract(lo, hi))
            assert first == total and s.order_type() is first

    def test_intersect_advances_past_the_shorter_interval(self):
        a = iv("0", "w").union(iv("w*2", "w*3"))
        assert a.intersect(iv("5", "w*2+1")) == iv("5", "w").union(iv("w*2", "w*2+1"))
        assert iv("5", "w*2+1").intersect(a) == iv("5", "w").union(iv("w*2", "w*2+1"))

    def test_positions_of_joins_across_a_gap(self):
        # positions 3 (end of [0,3)) and 3 (start of [w,w*2)) meet
        s = iv("0", "3").union(iv("w", "w*2"))
        assert s.positions_of(iv("1", "w+1")).intervals == ((o("1"), o("4")),)

    def test_difference_leaves_no_empty_piece(self):
        assert iv("0", "w").difference(iv("0", "5")).intervals == ((o("5"), OMEGA),)
        assert iv("0", "w").difference(iv("3", "w")).intervals == ((o("0"), o("3")),)


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

    def test_plain_set_refuses_n(self):
        with pytest.raises(ParseError, match="variable n outside template") as err:
            parse_interval_set("[w*n,w*(n+1))")
        assert err.value.position == 3

    def test_trailing_comma_accepted(self):
        assert parse_interval_set("[0,w),") == iv("0", "w")
        assert parse_interval_set("[0,w), ") == iv("0", "w")

    def test_error_position_counts_from_the_set_text(self):
        with pytest.raises(ParseError) as err:
            parse_interval_set("[0,w),[w,w^)")
        assert err.value.position == 11

    def test_interval_brackets_do_not_count_as_nesting(self):
        head = "[0,1),[2,3),[4,5),[6,7),[w,"
        s = parse_interval_set(head + "w^(" * MAX_NESTING + "1" + ")" * MAX_NESTING + ")")
        assert len(s.intervals) == 5
        # the closing ')' of each interval must not lower the depth count
        deep = head + "w^(" * (MAX_NESTING + 1) + "1" + ")" * (MAX_NESTING + 1) + ")"
        with pytest.raises(ParseError):
            parse_interval_set(deep)


def _outcome(fn, *args):
    """``fn(*args)``, or the ParseError's message and position."""
    try:
        return fn(*args)
    except ParseError as error:
        return ("error", str(error), error.position)


# n=None reads a text as a plain set; every text is read at every n, as a
# text with one character edited may gain or lose an n
_ROWS = (None, 0, 1, 2, 3, 5)

# an edit inserts one of these, or (None) deletes a character
_EDIT_CHARS = [None, *" \t\n[](),^*+wn0123456789x"]


def _bounds_at(text, n):
    return [(lo.terms, hi.terms) for lo, hi in core._eval_bounds(core._parse_bounds(text), n)]


def _reference_bounds_at(text, n):
    return [(_reference_eval(lo, n).terms, _reference_eval(hi, n).terms)
            for lo, hi in _reference_bounds(text)]


def _parsed_at(text, n):
    # parse_interval_set's pipeline, read at n
    return OrdinalSet(core._eval_bounds(core._parse_bounds(text.strip()), n)).intervals


def _reference_at(text, n):
    pairs = [(_reference_eval(lo, n), _reference_eval(hi, n)) for lo, hi in _reference_bounds(text)]
    return _ref_canonical(pairs)


def _same_parse(text):
    """core's bound parsing (``_parse_bounds`` then ``_eval_bounds``) reads
    ``text``, and the same on the stripped text into a set, to the
    bounds or the ParseError (message and position) that the reference
    parser and evaluation give, at each of ``_ROWS``; parse_interval_set
    reads it as the plain set.  Returns the plain set's outcome."""
    for n in _ROWS:
        assert _outcome(_bounds_at, text, n) == _outcome(_reference_bounds_at, text, n)
        got = _outcome(_parsed_at, text, n)
        assert got == _outcome(_reference_at, text.strip(), n)
        if n is None:
            plain = got
    assert _outcome(lambda t: parse_interval_set(t).intervals, text) == plain
    return plain


class TestParserReference:
    """parse_interval_set, and core's bound parsing under it, against the
    token-level reference parser and evaluation that core's parser
    replaced."""

    @given(interval_set_texts())
    def test_plain_texts(self, text):
        assert _same_parse(text)[:1] != ("error",)  # no ParseError

    @given(interval_set_texts(template=True))
    def test_template_texts(self, text):
        _same_parse(text)

    @given(st.one_of(interval_set_texts(), interval_set_texts(template=True)), st.data())
    def test_one_character_edits(self, text, data):
        at = data.draw(st.integers(0, len(text)))
        insert = data.draw(st.sampled_from(_EDIT_CHARS))
        _same_parse(text[:at] + text[at + 1:] if insert is None else text[:at] + insert + text[at:])
