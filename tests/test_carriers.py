import itertools
import re
from operator import attrgetter

import hypothesis.strategies as st
import pytest
from hypothesis import given

from ordkit import carriers
from ordkit.carriers import (
    BlockwiseMap,
    Carrier,
    CarrierMap,
    Piece,
    QueryableSet,
    SurjectionFamily,
    image_of,
    parse_instance,
    preimage_of,
)
from ordkit.core import OMEGA, ONE, ZERO, Ordinal, add, compare, parse
from ordkit.errors import (
    BoundViolation,
    CertificateError,
    CoverageBroken,
    OutOfRangeError,
    ParseError,
    RowUndefined,
)
from ordkit.intervals import OrdinalSet, parse_interval_set
from ordkit.reduction import _compose_monotone

from reference import (
    _ref_compose_monotone,
    _ref_fiber,
    _ref_image_of,
    _ref_preimage_of,
    _ref_sample_elements,
)
from strategies import nested_ordinals, paired_off


def o(text):
    return parse(text)


def iv(lo, hi):
    return OrdinalSet.interval(o(lo), o(hi))


@pytest.fixture
def carrier():
    return Carrier([("a", iv("0", "w")), ("b", iv("0", "w^2"))])


class TestCarrier:
    def test_distinct_labels_required(self):
        with pytest.raises(BoundViolation):
            Carrier([("a", iv("0", "w")), ("a", iv("0", "w"))])

    def test_empty_shape_rejected(self):
        with pytest.raises(BoundViolation):
            Carrier([("a", OrdinalSet())])

    def test_order_type(self, carrier):
        assert carrier.order_type == o("w^2")  # w + w^2 absorbs

    def test_global_positions(self, carrier):
        assert carrier.global_position(("a", Ordinal(3))) == Ordinal(3)
        assert carrier.global_position(("b", OMEGA)) == o("w*2")
        assert carrier.element_at(o("w*2")) == ("b", OMEGA)
        with pytest.raises(OutOfRangeError):
            carrier.element_at(o("w^2"))

    def test_stored_spans_need_no_sums(self, monkeypatch):
        # each block's [offset, end) is stored once: reading positions back
        # and cutting windows adds no ordinals
        carrier = Carrier([("a", iv("0", "3")), ("b", iv("0", "w")), ("c", iv("0", "w^2"))])
        assert carrier.labels == ("a", "b", "c") and carrier.labels is carrier.labels
        monkeypatch.setattr("ordkit.carriers.add", None)
        assert carrier.element_at(Ordinal(2)) == ("a", Ordinal(2))
        assert carrier.element_at(Ordinal(5)) == ("b", Ordinal(2))
        assert carrier.element_at(o("w+3")) == ("c", Ordinal(3))
        assert carrier.element_at(o("w*2+1")) == ("c", o("w+1"))
        window = carrier.global_range_restriction(ONE, o("w*3"))
        assert window == {"a": iv("1", "3"), "b": iv("0", "w"), "c": iv("0", "w*2")}

    @given(nested_ordinals())
    def test_first_block_keeps_the_position(self, pos):
        # the first block's offset is 0, so element_at hands back the
        # position itself rather than a copy without its built key
        carrier = Carrier([("a", OrdinalSet.interval(ZERO, add(pos, ONE))), ("b", iv("0", "w"))])
        label, found = carrier.element_at(pos)
        assert label == "a" and found is pos

    @pytest.mark.parametrize(
        "element",
        [("a", 3), ("a", True), ("a", "w"), ("a", None), ("a",), ("a", ONE, ONE), "ab", None,
         7, ONE, (["a"], ONE), ("c", ONE), ("a", OMEGA), ("b", o("w^2"))],
    )
    def test_malformed_or_outside_elements(self, carrier, element):
        # anything but a (label, Ordinal) pair inside its block is no
        # element, and checking it raises the named error
        assert carrier.is_element(element) is False
        with pytest.raises(OutOfRangeError, match="is not a carrier element$"):
            carrier.check_element(element)
        with pytest.raises(OutOfRangeError):
            carrier.global_position(element)

    def test_elements_at_the_block_ends(self, carrier):
        assert carrier.is_element(("a", Ordinal(63))) and carrier.is_element(("a", Ordinal(64)))
        assert carrier.is_element(("b", o("w+5"))) and not carrier.is_element(("a", o("w+5")))

    def test_sample_elements_distinct(self, carrier):
        samples = carrier.sample_elements(40)
        assert len(samples) == 40
        assert all(carrier.is_element(x) for x in samples)

    def test_sample_elements_round_robin(self):
        # one ladder entry per block in turn; a finite block's ladder ends
        # at its last element, and the other blocks go on
        carrier = Carrier([("a", iv("0", "3")), ("b", iv("0", "w^2"))])
        expected = [("a", 0), ("b", 0), ("a", 1), ("b", 1), ("a", 2)]
        expected += [("b", k) for k in range(2, 9)]
        assert carrier.sample_elements(12) == expected

    def test_sample_elements_end_with_the_carrier(self):
        carrier = Carrier([("a", iv("0", "2")), ("b", iv("0", "3"))])
        expected = [("a", 0), ("b", 0), ("a", 1), ("b", 1), ("b", 2)]
        assert carrier.sample_elements(30) == expected

    @pytest.mark.parametrize(
        "blocks",
        [
            [("a", "[0,w)"), ("b", "[0,w^2)")],  # the fixture's carrier
            [("a", "[0,3)"), ("b", "[0,w^2)")],
            [("a", "[0,2)"), ("b", "[0,3)")],
            [("a", "[0,3)"), ("b", "[0,w^3+1)"), ("c", "[0,2)")],
            [("x", "[0,w+1)"), ("y", "[5,9)"), ("z", "[w,w^3)"), ("t", "[0,70)")],
            [("m", "[0,1)")],
        ],
    )
    def test_sample_elements_match_the_eager_ladders(self, blocks):
        # the lazy ladders give the points the eager ones gave, in order:
        # each keeps its own block's label, and a finite block's ladder
        # ends while the others go on
        carrier = Carrier([(label, parse_interval_set(text)) for label, text in blocks])
        for count in range(71):
            assert carrier.sample_elements(count) == _ref_sample_elements(carrier, count)

    def test_sample_elements_build_only_the_points_taken(self, monkeypatch):
        # the eager ladders built count naturals per block and compared
        # each block's order type with every limit-scale position
        built, compared = [], []
        monkeypatch.setattr(carriers, "Ordinal", lambda k: built.append(k) or Ordinal(k))
        monkeypatch.setattr(carriers, "compare", lambda a, b: compared.append(a) or compare(a, b))
        carrier = Carrier([("a", iv("0", "w")), ("b", iv("0", "w^2")), ("c", iv("w", "w^3"))])
        points = carrier.sample_elements(64)
        assert len(points) == 64 and len(built) == 64 and compared == []
        built.clear()
        finite = Carrier([("a", iv("0", "2")), ("b", iv("0", "w*2"))])
        assert finite.sample_elements(10)[:5] == [("a", 0), ("b", 0), ("a", 1), ("b", 1), ("b", 2)]
        assert len(built) == 10 and len(compared) == len(carriers._LADDER)


class TestMaps:
    def test_identity_image(self):
        carrier = Carrier([("m", iv("0", "w"))])
        row = BlockwiseMap([Piece("m", "monotone", target=iv("0", "w"))])
        assert image_of(row, carrier) == iv("0", "w")

    def test_constant_singleton_image(self):
        carrier = Carrier([("m", iv("0", "w"))])
        row = BlockwiseMap([Piece("m", "constant", value=o("w^2"))])
        assert image_of(row, carrier) == iv("w^2", "w^2+1")

    def test_monotone_shift_restriction(self):
        carrier = Carrier([("m", iv("0", "w"))])
        row = BlockwiseMap([Piece("m", "monotone", target=iv("w", "w*2"))])
        restriction = {"m": iv("2", "5")}
        assert image_of(row, carrier, restriction) == iv("w+2", "w+5")

    def test_short_target_overflows_to_zero(self):
        carrier = Carrier([("m", iv("0", "w^2"))])
        row = BlockwiseMap([Piece("m", "monotone", target=iv("0", "w"))])
        assert row(carrier, ("m", Ordinal(4))) == Ordinal(4)
        assert row(carrier, ("m", OMEGA)) == ZERO
        assert image_of(row, carrier) == iv("0", "w")

    def test_preimage_monotone(self):
        carrier = Carrier([("m", iv("0", "w"))])
        row = BlockwiseMap([Piece("m", "monotone", target=iv("w", "w*2"))])
        restriction = preimage_of(row, carrier, iv("w+2", "w+5"))
        assert restriction["m"] == iv("2", "5")

    def test_preimage_constant(self):
        carrier = Carrier([("m", iv("0", "w"))])
        row = BlockwiseMap([Piece("m", "constant", value=o("w^2"))])
        assert preimage_of(row, carrier, iv("0", "w"))["m"] == OrdinalSet()
        assert preimage_of(row, carrier, iv("w^2", "w^2+1"))["m"] == iv("0", "w")

    def test_preimage_includes_overflow_on_zero(self):
        carrier = Carrier([("m", iv("0", "w^2"))])
        row = BlockwiseMap([Piece("m", "monotone", target=iv("1", "w"))])
        restriction = preimage_of(row, carrier, iv("0", "1"))
        assert restriction["m"] == iv("w", "w^2")  # only the zero-extension part

    def test_image_preimage_galois(self):
        carrier = Carrier([("m", iv("0", "w^2"))])
        row = BlockwiseMap([Piece("m", "monotone", target=iv("w", "w*3"))])
        target = iv("w*2", "w*2+5")
        back = preimage_of(row, carrier, target)
        forward = image_of(row, carrier, back)
        assert forward == target.intersect(image_of(row, carrier))

    def test_monotone_preserves_restriction_order_type(self):
        carrier = Carrier([("m", iv("0", "w^2"))])
        row = BlockwiseMap([Piece("m", "monotone", target=iv("w^2", "w^2*2"))])
        restriction = {"m": iv("w", "w*4").union(iv("w*6", "w*7"))}
        image = image_of(row, carrier, restriction)
        assert image.order_type() == restriction["m"].order_type()


class TestCarrierMap:
    def test_fibers(self):
        source = Carrier([("c0", iv("0", "w")), ("c1", iv("0", "w"))])
        dest = Carrier([("m", iv("0", "w"))])
        cmap = CarrierMap(
            source,
            dest,
            [
                Piece("c0", "monotone", target=iv("0", "w"), target_label="m"),
                Piece("c1", "monotone", target=iv("0", "w"), target_label="m"),
            ],
        )
        assert cmap.evaluate(("c1", Ordinal(4))) == ("m", Ordinal(4))
        fiber = cmap.fiber(("m", Ordinal(4)))
        assert sorted(fiber) == [("c0", Ordinal(4)), ("c1", Ordinal(4))]

    def test_infinite_constant_fiber_rejected(self):
        source = Carrier([("c", iv("0", "w"))])
        dest = Carrier([("m", iv("0", "w"))])
        cmap = CarrierMap(
            source, dest, [Piece("c", "constant", value=ZERO, target_label="m")]
        )
        with pytest.raises(BoundViolation):
            cmap.fiber(("m", ZERO))


_ordinals = nested_ordinals()
# sets of several separate intervals, from sorted bounds paired off
_sets = st.lists(_ordinals, max_size=6).map(lambda b: OrdinalSet(paired_off(b)))
_nonempty_sets = _sets.filter(bool)
# above every value a drawn piece can take
_DEST_TOP = parse("w^(w^(w^4))")


def _shift(s, c):
    """``c + s``: the same order type, moved up by ``c``."""
    return OrdinalSet((add(c, lo), add(c, hi)) for lo, hi in s.intervals)


@st.composite
def _pieces(draw, carrier, dom, kinds=("monotone", "constant"), target_label=None):
    """A piece on block ``n`` over ``dom`` (or, drawn, the whole block);
    a monotone one gets a target shorter than, as long as, or longer than
    its domain."""
    if draw(st.booleans()):
        dom = None
    if draw(st.sampled_from(kinds)) == "constant":
        return Piece("n", "constant", value=draw(_ordinals), dom=dom, target_label=target_label)
    used = carrier.block_positions("n") if dom is None else dom
    length = draw(st.sampled_from(["shorter", "equal", "longer"]))
    if length == "shorter":
        cut = draw(_ordinals)
        if compare(cut, used.order_type()) >= 0:
            cut = used.locate(used.intervals[-1][0])  # drop the last interval
        base = used.slice_positions(ZERO, cut)
    elif length == "equal":
        base = used
    else:
        base = used.union(_shift(draw(_nonempty_sets), used.intervals[-1][1]))
    target = _shift(base, draw(_ordinals))
    return Piece("n", "monotone", target=target, dom=dom, target_label=target_label)


@st.composite
def _maps(draw, target_label=None, kinds=("monotone", "constant"), count=(1, 3)):
    """A one-block carrier and pieces over it, with their domains drawn first
    so the block can hold them all."""
    doms = draw(st.lists(_nonempty_sets, min_size=count[0], max_size=count[1]))
    top = max((d.intervals[-1][1] for d in doms), key=attrgetter("key"))
    carrier = Carrier([("n", OrdinalSet.interval(ZERO, add(top, draw(_ordinals))))])
    pieces = [draw(_pieces(carrier, d, kinds, target_label)) for d in doms]
    return carrier, pieces


def _outcome(fn, *args):
    """The result, or the error type a bad input raises."""
    try:
        return fn(*args)
    except BoundViolation:
        return BoundViolation


class TestPieceRuleReference:
    """Piece.image / preimage / overflow and the code built on them against
    the copies of the rule they replaced."""

    @given(_maps(), st.one_of(st.none(), _sets), _sets, st.booleans())
    def test_image_and_preimage(self, carrier_pieces, restriction, values, with_zero):
        carrier, pieces = carrier_pieces
        row = BlockwiseMap(pieces)
        restriction = None if restriction is None else {"n": restriction}
        image = image_of(row, carrier, restriction)
        assert image == _ref_image_of(row, carrier, restriction)
        if with_zero:
            values = values.union(OrdinalSet.point(ZERO))
        for target_set in (values, image):
            assert preimage_of(row, carrier, target_set) == _ref_preimage_of(
                row, carrier, target_set
            )

    @given(_maps(target_label="m"), _ordinals)
    def test_fiber(self, carrier_pieces, extra):
        source, pieces = carrier_pieces
        dest = Carrier([("m", OrdinalSet.interval(ZERO, _DEST_TOP))])
        cmap = CarrierMap(source, dest, pieces)
        points = {ZERO, extra}
        for piece in pieces:
            if piece.kind == "constant":
                points.add(piece.value)
            elif piece.target:
                points.update((piece.target.min_element(), piece.target.intervals[-1][0]))
        for pos in points:
            element = ("m", pos)
            assert _outcome(cmap.fiber, element) == _outcome(_ref_fiber, cmap, element)

    @given(_maps(target_label="m", kinds=("monotone",), count=(1, 1)), st.data())
    def test_compose_monotone(self, carrier_pieces, data):
        source, (f_piece,) = carrier_pieces
        g_dom = data.draw(_nonempty_sets)
        g_piece = data.draw(_pieces(source, g_dom))
        assert _compose_monotone(f_piece, g_piece, source) == _ref_compose_monotone(
            f_piece, g_piece, source
        )

    def test_exhaustive_on_a_finite_carrier(self):
        """Every map on a 4-point block cut in two at k, each part constant
        (0..2) or monotone onto a subset of {0..3}: image_of is the set of
        values on each restriction, preimage_of the set of points sent into
        each value set."""
        size = 4
        carrier = Carrier([("n", OrdinalSet.interval(ZERO, Ordinal(size)))])

        def points(members):
            return OrdinalSet((Ordinal(i), Ordinal(i + 1)) for i in members)

        subsets = [
            [i for i in range(size) if bits >> i & 1] for bits in range(1 << size)
        ]
        for k in range(size + 1):
            doms = [d for d in (OrdinalSet.interval(ZERO, Ordinal(k)),
                                OrdinalSet.interval(Ordinal(k), Ordinal(size))) if d]
            choices = [
                [Piece("n", "constant", value=Ordinal(c), dom=d) for c in range(3)]
                + [Piece("n", "monotone", target=points(t), dom=d) for t in subsets]
                for d in doms
            ]
            for pieces in itertools.product(*choices):
                row = BlockwiseMap(pieces)
                value = [row(carrier, ("n", Ordinal(i))).nat_value() for i in range(size)]
                for members in subsets:
                    image = image_of(row, carrier, {"n": points(members)})
                    assert image == points({value[i] for i in members})
                    hit = preimage_of(row, carrier, points(members))["n"]
                    assert hit == points(i for i in range(size) if value[i] in members)


class TestSurjectionFamily:
    def test_row_images_and_delta(self):
        carrier = Carrier([("m", iv("0", "w^2"))])
        fam = SurjectionFamily(
            carrier,
            o("w^2"),
            [BlockwiseMap([Piece("m", "monotone", target=iv("0", "w^2"))])],
        )
        assert fam.row_image(0) == iv("0", "w^2")
        assert fam.delta(0) == o("w^2")

    def test_tail_rule(self):
        carrier = Carrier([("m", iv("0", "w^2"))])

        def tail(n):
            return BlockwiseMap([Piece("m", "constant", value=Ordinal(n))])

        fam = SurjectionFamily(carrier, OMEGA, [tail(0)], tail=(1, tail))
        assert fam.delta(7) == ONE
        assert fam.row_image(3) == iv("3", "4")

    def test_missing_row(self):
        carrier = Carrier([("m", iv("0", "w"))])
        fam = SurjectionFamily(
            carrier, OMEGA, [BlockwiseMap([Piece("m", "monotone", target=iv("0", "w"))])]
        )
        with pytest.raises(RowUndefined):
            fam.row(1)

    def test_coverage_check(self):
        carrier = Carrier([("m", iv("0", "w"))])
        fam = SurjectionFamily(
            carrier, o("w*2"), [BlockwiseMap([Piece("m", "monotone", target=iv("0", "w"))])]
        )
        with pytest.raises(CoverageBroken):
            fam.check_coverage()

    @pytest.mark.parametrize(
        "count,message",
        [
            (0, "no rows cover [0, w); missing [0,w)"),
            (1, "rows 0..0 do not cover [0, w); missing [1,w)"),
            (2, "rows 0..1 do not cover [0, w); missing [1,w)"),
        ],
    )
    def test_coverage_message(self, count, message):
        row = BlockwiseMap([Piece("m", "constant", value=ZERO)])
        fam = SurjectionFamily(Carrier([("m", iv("0", "w"))]), OMEGA, [row] * count)
        with pytest.raises(CoverageBroken) as error:
            fam.check_coverage()
        assert str(error.value) == message

    def test_out_of_alpha_row_rejected(self):
        carrier = Carrier([("m", iv("0", "w"))])
        fam = SurjectionFamily(
            carrier, OMEGA, [BlockwiseMap([Piece("m", "monotone", target=iv("w", "w*2"))])]
        )
        with pytest.raises(CoverageBroken):
            fam.check_coverage()

    def test_coverage_unions_only_without_a_tail(self, monkeypatch):
        # with a tail the union of the explicit rows is never read, but
        # each explicit row is still checked against alpha
        carrier = Carrier([("m", iv("0", "w"))])
        row = BlockwiseMap([Piece("m", "monotone", target=iv("0", "w"))])
        outside = BlockwiseMap([Piece("m", "monotone", target=iv("w", "w*2"))])
        with pytest.raises(CoverageBroken, match="row 1 maps outside"):
            SurjectionFamily(carrier, OMEGA, [row, outside], tail=(2, lambda n: row)).check_coverage()
        unions = []
        union = OrdinalSet.union
        monkeypatch.setattr(OrdinalSet, "union", lambda *args: unions.append(1) or union(*args))
        for tail, made in ((2, lambda n: row), 0), (None, 2):
            fam = SurjectionFamily(carrier, OMEGA, [row, row], tail=tail)
            fam.row_image(0), fam.row_image(1)  # imaging a row makes unions of its own
            unions.clear()
            fam.check_coverage()
            assert len(unions) == made

    def test_tail_row_outside_alpha_rejected(self):
        carrier = Carrier([("m", iv("0", "w^w"))])
        target = parse_interval_set("[0,w^n)", template=True)

        def tail(n):
            return BlockwiseMap([Piece("m", "monotone", target=target(n))])

        fam = SurjectionFamily(carrier, o("w^20"), [], tail=(0, tail))
        fam.check_coverage()  # with a tail, coverage is left to verification
        assert fam.delta(20) == o("w^20")
        with pytest.raises(CoverageBroken, match="row 21 maps outside"):
            fam.row_image(21)

    def test_tail_must_start_right_after_the_rows(self):
        # a tail from row 1 under three explicit rows would have the supremum
        # read off rows 1 and 2 (w^2), though row n >= 3 has type w^(n+1)
        carrier = Carrier([("m", iv("0", "w^(w^w)*2"))])

        def row(hi):
            return BlockwiseMap([Piece("m", "monotone", target=iv("0", hi))])

        def tail(n):
            return row(f"w^{n + 1}")

        rows = [row("w"), row("w^2"), row("w^2")]
        for start in (1, 4):
            with pytest.raises(BoundViolation, match="right after the explicit rows"):
                SurjectionFamily(carrier, o("w^w"), rows, tail=(start, tail))
        fam = SurjectionFamily(carrier, o("w^w"), rows, tail=(3, tail))
        assert fam.delta(9) == o("w^10")


class TestInstanceFiles:
    def test_parse_roundtrip_structure(self):
        fam = parse_instance(
            "# demo\n"
            "carrier: a:[0,w); b:[w,w*2)\n"
            "alpha: w^2\n"
            "row 0: a -> monotone [0,w) ; b -> constant 5\n"
            "tail: n >= 1: a -> monotone [w*n,w*(n+1)) ; b -> constant n\n"
        )
        assert fam.carrier.labels == ("a", "b")
        assert fam.alpha == o("w^2")
        assert fam.delta(0) == OMEGA
        assert fam.row_image(2) == iv("w*2", "w*3").union(iv("2", "3"))

    def test_bad_key(self):
        with pytest.raises(ParseError):
            parse_instance("carrier: a:[0,w)\nalpha: w\nbogus: 1\n")

    def test_rows_must_be_consecutive(self):
        with pytest.raises(ParseError):
            parse_instance(
                "carrier: a:[0,w)\nalpha: w\nrow 1: a -> monotone [0,w)\n"
            )

    def test_tail_must_follow_rows(self):
        with pytest.raises(ParseError):
            parse_instance(
                "carrier: a:[0,w)\nalpha: w\n"
                "row 0: a -> monotone [0,w)\n"
                "tail: n >= 3: a -> monotone [0,w)\n"
            )

    def test_rows_must_cover_blocks(self):
        with pytest.raises(ParseError):
            parse_instance(
                "carrier: a:[0,w); b:[0,w)\nalpha: w\n"
                "row 0: a -> monotone [0,w)\n"
            )

    def test_unknown_block_label_rejected(self):
        with pytest.raises(ParseError):
            parse_instance(
                "carrier: a:[0,w)\nalpha: w\n"
                "row 0: a -> monotone [0,w) ; typo -> constant 0\n"
            )

    @pytest.mark.parametrize(
        "line",
        [
            "row \u00b9: a -> monotone [0,w)",  # superscript one passes str.isdigit
            "tail: n >= \u00b9: a -> monotone [0,w)",
            "tail: n >= x: a -> monotone [0,w)",
        ],
    )
    def test_row_numbers_are_ascii_naturals(self, line):
        with pytest.raises(ParseError):
            parse_instance(
                "carrier: a:[0,w)\nalpha: w\nrow 0: a -> monotone [0,w)\n" + line + "\n"
            )

    @pytest.mark.parametrize(
        "rows",
        [
            "row 0: m -> constant 0 ; m -> monotone [0,w^2)",
            "row 0: m -> monotone [0,w^2) ; m -> constant 0",
            "row 0: m -> monotone [0,w^2)\ntail: n >= 1: m -> constant n ; m -> constant 0",
        ],
    )
    def test_two_pieces_on_one_block_rejected(self, rows):
        # each piece of a file covers its whole block, so two always overlap
        with pytest.raises(ParseError, match="more than one piece"):
            parse_instance("carrier: m:[0,w^3)\nalpha: w^2\n" + rows + "\n")

    @pytest.mark.parametrize(
        "rows,error",
        [
            (
                "row 0: zz -> constant 0\ntail: n >= 1: m -> monotone [0,w^n) ; k -> constant 0",
                "row 0 names unknown block 'zz'",
            ),
            (
                "tail: n >= 0: m -> monotone [0,w^n) ; m -> constant 0",
                "row 0 gives block 'm' more than one piece",
            ),
            ("tail: n >= 0: m -> monotone [0,w^n)", "row 0 does not cover every block"),
        ],
    )
    def test_block_names_checked_before_settling(self, rows, error):
        # each tail of w^n under alpha w^5000 settles past the 4096-row
        # limit; the block names are checked first, and name the row at fault
        text = "carrier: m:[0,w^(w^w)*2); k:[0,w)\nalpha: w^5000\n" + rows + "\n"
        with pytest.raises(ParseError, match=re.escape(error)):
            parse_instance(text)

    def test_tail_rows_validated_at_start(self):
        with pytest.raises(ParseError):
            parse_instance(
                "carrier: a:[0,w)\nalpha: w\n"
                "row 0: a -> monotone [0,w)\n"
                "tail: n >= 1: typo -> constant n\n"
            )


class TestQueryableSet:
    def test_finite_certificate_checked(self, carrier):
        member = ("a", ZERO)
        good = QueryableSet(lambda x: x == member, ("finite", (member,)))
        good.validate_certificate(carrier.is_element, carrier.sample_elements(16))
        liar = QueryableSet(lambda x: False, ("finite", (member,)))
        with pytest.raises(CertificateError):
            liar.validate_certificate(carrier.is_element, carrier.sample_elements(16))
        greedy = QueryableSet(lambda x: x[0] == "a", ("finite", (member,)))
        with pytest.raises(CertificateError):
            greedy.validate_certificate(carrier.is_element, carrier.sample_elements(16))

    def test_infinite_certificate_checked(self, carrier):
        good = QueryableSet(
            lambda x: x[0] == "b", ("infinite", lambda k: ("b", Ordinal(k)))
        )
        good.validate_certificate(carrier.is_element)
        repeater = QueryableSet(lambda x: True, ("infinite", lambda k: ("a", ZERO)))
        with pytest.raises(CertificateError):
            repeater.validate_certificate(carrier.is_element)
        outside = QueryableSet(lambda x: True, ("infinite", lambda k: ("a", OMEGA + k)))
        with pytest.raises(CertificateError):
            outside.validate_certificate(carrier.is_element)
