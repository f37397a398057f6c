import pytest

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
from ordkit.core import OMEGA, ONE, ZERO, Ordinal, parse
from ordkit.errors import (
    BoundViolation,
    CertificateError,
    CoverageBroken,
    OutOfRangeError,
    ParseError,
    RowUndefined,
)
from ordkit.intervals import OrdinalSet


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

    def test_sample_elements_distinct(self, carrier):
        samples = carrier.sample_elements(40)
        assert len(samples) == 40
        assert all(carrier.is_element(x) for x in samples)


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

    def test_out_of_alpha_row_rejected(self):
        carrier = Carrier([("m", iv("0", "w"))])
        fam = SurjectionFamily(
            carrier, OMEGA, [BlockwiseMap([Piece("m", "monotone", target=iv("w", "w*2"))])]
        )
        with pytest.raises(CoverageBroken):
            fam.check_coverage()


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
