import gc
import io
import itertools
import re
import tempfile
import weakref
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import event, example, given, settings

from ordkit import carriers, cli, coding, reduction
from ordkit.carriers import (
    BlockwiseMap,
    Carrier,
    CarrierMap,
    Piece,
    QueryableSet,
    SurjectionFamily,
    image_of,
    load_instance,
    parse_instance,
)
from ordkit.cli import main
from ordkit.core import OMEGA, ONE, ZERO, Ordinal, add, compare, multiply, omega_power, parse
from ordkit.errors import (
    BoundViolation,
    CertificateError,
    CoverageBroken,
    EmptyFiber,
    FuelExhausted,
    PreconditionViolated,
    TableNotInjective,
    TailLimitUndecided,
    ToolkitError,
    WitnessNotFound,
)
from ordkit.eventual import _key, settle_point
from ordkit.intervals import OrdinalSet, parse_interval_set
from ordkit.reduction import (
    ReductionResult,
    RefutationWitness,
    Stage,
    _compute_delta,
    _finite_strict_order_type,
    _KeptRows,
    _top_rows,
    bits_to_ordinal,
    cantor_diagonal,
    finite_to_one_transfer,
    fiber_family_values,
    kuratowski_witness,
    ordinal_sequence_limit,
    ordinal_to_bits,
    reduce_omega_product,
    refute_infinite_powerset,
    refute_powerset,
    verify_surjective,
    wellorder_decode,
)

from families import CARRIER, infinite_powerset_families
from reference import (
    _literal_settle,
    _ref_coverage_ok,
    _ref_image_of,
    _ReferenceStages,
    _three_pass_order_type,
)
from strategies import tail_templates

INSTANCES = Path(__file__).parent / "instances"


def o(text):
    return parse(text)


def iv(lo, hi):
    lo = o(lo) if isinstance(lo, str) else lo
    hi = o(hi) if isinstance(hi, str) else hi
    return OrdinalSet.interval(lo, hi)


def load(name):
    return load_instance(INSTANCES / name)


class TestDiagonal:
    def test_two_point_example(self):
        carrier = Carrier([("m", iv("0", "2"))])
        x0, x1 = ("m", ZERO), ("m", ONE)
        table = {x0: {x0}, x1: set()}
        diag = cantor_diagonal(
            lambda x: QueryableSet(lambda y, x=x: y in table[x]), carrier
        )
        assert not diag.contains(x0) and diag.contains(x1)

    def test_empty_listing_gives_everything(self):
        carrier = Carrier([("m", iv("0", "w"))])
        diag = cantor_diagonal(lambda x: QueryableSet(lambda y: False), carrier)
        assert all(diag.contains(x) for x in carrier.sample_elements(20))

    def test_pointwise_xor(self):
        carrier = Carrier([("m", iv("0", "w^2"))])

        def listing(x):
            pos = carrier.global_position(x)
            return QueryableSet(
                lambda y, pos=pos: (hash((str(pos), str(carrier.global_position(y)))) & 1) == 0
            )

        diag = cantor_diagonal(listing, carrier)
        for x in carrier.sample_elements(50):
            assert diag.contains(x) != listing(x).contains(x)


class TestSequenceLimit:
    def test_constant(self):
        assert ordinal_sequence_limit(lambda n: o("w^2")) == (o("w^2"), True)

    def test_naturals(self):
        assert ordinal_sequence_limit(lambda n: Ordinal(n), start=1) == (OMEGA, False)

    def test_unsettled_start_rejected(self):
        # 0 has no terms and 1 has one: the shape is not settled at 0
        with pytest.raises(TailLimitUndecided):
            ordinal_sequence_limit(lambda n: Ordinal(n))

    def test_towers(self):
        limit, attained = ordinal_sequence_limit(lambda n: omega_power(Ordinal(n + 1)))
        assert limit == o("w^w") and not attained

    def test_coefficient_growth(self):
        assert ordinal_sequence_limit(lambda n: multiply(OMEGA, Ordinal(n + 1))) == (
            o("w^2"),
            False,
        )

    def test_compound_prefix(self):
        seq = lambda n: add(o("w^3"), multiply(OMEGA, Ordinal(n)))
        assert ordinal_sequence_limit(seq, start=1) == (o("w^3+w^2"), False)

    def test_eventually_constant(self):
        seq = lambda n: o("w*5") if n > 10 else multiply(OMEGA, Ordinal(min(n, 5)))
        assert ordinal_sequence_limit(seq, start=11) == (o("w*5"), True)

    def test_not_monotone_rejected(self):
        with pytest.raises(TailLimitUndecided):
            ordinal_sequence_limit(lambda n: Ordinal(100 - n))

    def test_compound_coefficient_growth(self):
        # w^2*(n+1) + w*n + 3 climbs to w^3
        seq = lambda n: add(
            add(multiply(o("w^2"), Ordinal(n + 1)), multiply(OMEGA, Ordinal(n))),
            Ordinal(3),
        )
        assert ordinal_sequence_limit(seq, start=1) == (o("w^3"), False)

    def test_growing_exponent_with_coefficients(self):
        seq = lambda n: multiply(omega_power(Ordinal(n)), Ordinal(n + 2))
        assert ordinal_sequence_limit(seq, start=1) == (o("w^w"), False)


# block shapes of the drawn tail instances: large, capped by a small order
# type, and one whose order type is split over two intervals
_TAIL_BLOCKS = ("[0,w^(w^w)*2)", "[0,w^9)", "[0,w^3*5),[w^4,w^4+w^3*5)", "[0,w^2*7)", "[0,w)")


@st.composite
def _tail_instances(draw, shapes=_TAIL_BLOCKS, alphas=("w^(w^(w^w))",)):
    """Instance texts with a random tail over 1-3 blocks; alpha is past
    every drawn value (unless drawn from ``alphas`` below it), and row 0
    maps every block onto [0, w)."""
    labels = "abc"[: draw(st.integers(1, 3))]
    blocks = [f"{label}:{draw(st.sampled_from(shapes))}" for label in labels]
    explicit = draw(st.integers(1, 2))

    def piece(label):
        if draw(st.integers(0, 3)) == 0:
            return f"{label} -> constant {draw(st.sampled_from(['3', 'n', 'n+2', 'w*n']))}"
        bounds = [f"[{draw(st.sampled_from(['0', '0', '5', 'w', 'w^n']))},{draw(tail_templates())})"]
        if draw(st.booleans()):
            bounds.append(f"[{draw(tail_templates())},{draw(tail_templates())})")
        return f"{label} -> monotone {','.join(bounds)}"

    lines = ["carrier: " + "; ".join(blocks), f"alpha: {draw(st.sampled_from(alphas))}"]
    lines += [
        f"row {i}: " + " ; ".join(f"{label} -> monotone [0,w)" for label in labels)
        for i in range(explicit)
    ]
    lines.append(f"tail: n >= {explicit}: " + " ; ".join(piece(label) for label in labels))
    return "\n".join(lines) + "\n", explicit


class TestTailSupremum:
    """The tail's supremum from its settle point, against rows far past it."""

    @settings(max_examples=100)
    @given(_tail_instances())
    def test_supremum_matches_late_rows(self, drawn):
        text, start = drawn
        fam = parse_instance(text)
        late = fam.tail_start + 500
        assert ordinal_sequence_limit(fam.delta, fam.tail_start) == ordinal_sequence_limit(
            fam.delta, late
        )
        kept = _KeptRows(fam)
        delta, attained_at = _compute_delta(fam)
        for n in range(start, late + 1):
            assert fam.delta(n) <= delta if attained_at is not None else fam.delta(n) < delta
        if attained_at is not None:
            first = next(n for n in itertools.count() if fam.delta(n) == delta)
            assert kept.original(attained_at) == first


# targets of TailImage.first_reach, around the drawn bounds
_REACH_TARGETS = tuple(
    map(parse, ("1", "4", "6", "w", "w+1", "w*4", "w*7+3", "w^2", "w^2*3", "w^4", "w^4+1", "w^9", "w^w"))
)


class TestFirstReach:
    """The tail forms' first row holding a left neighbourhood of a target,
    against the rows themselves, imaged by the reference (row_image reads
    the forms too)."""

    @settings(max_examples=60, deadline=None)
    @given(_tail_instances(), st.integers(0, 5))
    def test_first_reach_matches_rows(self, drawn, offset):
        text, _ = drawn
        try:
            fam = parse_instance(text)
        except ToolkitError:
            return
        if fam.tail_image is None:  # its rows leave alpha: first_reach reads no forms
            return
        n = fam.tail_start + offset
        images = [_ref_image_of(fam.row(m), fam.carrier) for m in range(n, n + 40)]
        for s in _REACH_TARGETS:
            rows = [
                m
                for m, image in enumerate(images, n)
                if any(lo < s <= hi for lo, hi in image.intervals)
            ]
            got = fam.first_reach(s, n)
            event("reached" if rows else "not reached")
            if rows:
                assert got == rows[0]
            else:
                assert got is None or got >= n + 40

    @pytest.mark.parametrize(
        "target,row",
        [
            ("w^9", 8),  # row 8 ends at w^9 itself
            ("w^9+1", 9),
            ("w^9*2", 9),
            ("5", 2),  # the tail's forms start at its settle point
            ("w^w", None),  # no row reaches w^w
        ],
    )
    def test_first_reach_pinned(self, target, row):
        fam = load("case2_tower.txt")  # row n >= 1 is [0, w^(n+1)), settled from 2
        assert fam.first_reach(o(target), 0) == row
        if row is not None:
            assert fam.first_reach(o(target), row + 1) == row + 1

    def test_witness_past_the_row_scan(self):
        text = (
            "carrier: m:[0,w^(w^w)*100)\nalpha: w^w\n"
            "row 0: m -> monotone [0,w)\ntail: n >= 1: m -> monotone [0,w^n)\n"
        )
        result = reduce_omega_product(parse_instance(text))
        target = parse("w^65")
        assert result.surjection(result.witness_for(target)) == target

    def test_no_forms_no_reach(self):
        # a tail built in code has no forms: the row scan is all there is
        carrier = Carrier([("m", parse_interval_set("[0,w^2)"))])
        row = BlockwiseMap([Piece("m", "monotone", target=OrdinalSet.interval(ZERO, OMEGA))])
        fam = SurjectionFamily(carrier, OMEGA, [row], tail=(1, lambda n: row))
        assert fam.first_reach(ONE, 1) is None


class TestTailForms:
    """A parsed tail's image forms, read at a row, against that row's image
    as the reference makes it from the row's pieces."""

    @settings(max_examples=200, deadline=None)
    @given(_tail_instances())
    def test_tail_forms_are_the_rows(self, drawn):
        text, _ = drawn
        try:
            fam = parse_instance(text)
        except ToolkitError:
            event("refused")
            return
        if fam.tail_image is None:
            event("no forms")
            return
        forms = fam.tail_image.intervals
        for n in range(fam.tail_start, fam.tail_start + 40):
            image = _ref_image_of(fam.row(n), fam.carrier)
            # a tail with forms never leaves alpha
            assert not image or image.intervals[-1][1] <= fam.alpha
            assert [(lo.key, hi.key) for lo, hi in image.intervals] == [
                (_key(lo, n), _key(hi, n)) for lo, hi in forms
            ]


# large literals in the blocks and in alpha: some pass 64 (more rows than
# the row scan's 64), some the 4096 cap; alpha = w^70 is crossed by w^n
_LARGE_BLOCKS = (
    "[0,w^(w^w)*200)",
    "[0,w^(w^w)*70)",
    "[0,w^9*90)",
    "[0,w^3*5),[w^4,w^4+w^3*80)",
    "[0,w^(w^w)*5000)",
    "[0,w*123456)",
)
_LARGE_ALPHAS = ("w^(w^(w^w))*300", "w^(w^(w^w)+70)", "w^(w^(w^w)) + 123456", "w^70", "w^w*70")


class TestTailRowImages:
    """row_image and delta past the settle point, which a parsed tail reads
    off its forms, against the reference image of the row itself."""

    @staticmethod
    def _check_rows(fam):
        for n in range(fam.tail_start, fam.tail_start + 64):
            want = _ref_image_of(fam.row(n), fam.carrier)
            if want and want.intervals[-1][1] > fam.alpha:
                assert fam.tail_image is None
                with pytest.raises(CoverageBroken):
                    fam.row_image(n)
                continue
            got = fam.row_image(n)
            assert got == want and fam.row_image(n) is got
            assert fam.delta(n) == want.order_type()

    @pytest.mark.parametrize(
        "name",
        sorted(p.name for p in INSTANCES.glob("*.txt") if "\ntail:" in "\n" + p.read_text()),
    )
    def test_shipped_tails(self, name):
        self._check_rows(load(name))

    @settings(max_examples=100, deadline=None)
    @given(_tail_instances(_LARGE_BLOCKS, _LARGE_ALPHAS))
    def test_large_literal_tails(self, drawn):
        text, _ = drawn
        try:
            fam = parse_instance(text)
        except ToolkitError:
            event("refused")
            return
        event("no forms" if fam.tail_image is None else "forms")
        self._check_rows(fam)


def _settle_answers(path, bound):
    """What a tail's settle point decides: ``(delta, attained_at)`` (or the
    error name), and the exit status and stdout of reduce --verify-below."""
    try:
        fam = load_instance(path)
        answer = _compute_delta(fam)
    except ToolkitError as error:
        answer = error.name
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        status = main(["reduce", "--instance", str(path), "--verify-below", bound])
    return answer, status, buffer.getvalue()


# a refusal that names how many rows it scanned
_SCAN_COUNT = re.compile(r"(?<=rows 0\.\.)\d+|(?<=within )\d+(?= rows)")


class TestLiteralSettleReference:
    """The exact settle point against the literal-sum one it replaced: never
    later, and the same answers wherever the literal sum gave one.

    The reference runs with no tail forms, so its row scan reaches the
    literal settle point, as the parser's did, and stops there."""

    @settings(max_examples=120, deadline=None)
    @given(
        st.one_of(
            st.tuples(_tail_instances(), st.sampled_from(["w", "w^2", "w^3"])),
            # a verification that fails scans every row up to the literal
            # settle point, sampling each first cover: low bounds keep it short
            st.tuples(_tail_instances(_LARGE_BLOCKS, _LARGE_ALPHAS), st.sampled_from(["w", "w^3"])),
        )
    )
    # row 71 is the first to leave alpha
    @example(
        (
            (
                "carrier: m:[0,w^(w^w)*2)\nalpha: w^70\n"
                "row 0: m -> monotone [0,w)\ntail: n >= 1: m -> monotone [0,w^n)\n",
                1,
            ),
            "w^3",
        )
    )
    # literal settle point 102: rows 64..70 finish the cover of [0, w^70)
    @example(
        (
            (
                "carrier: m:[0,w^(w^w)*100)\nalpha: w^w\n"
                "row 0: m -> monotone [0,w)\ntail: n >= 1: m -> monotone [0,w^n)\n",
                1,
            ),
            "w^70",
        )
    )
    # literal settle point 4: the literal scan stops at row 63, short of row 70
    @example(
        (
            (
                "carrier: m:[0,w^(w^w)*2)\nalpha: w^w\n"
                "row 0: m -> monotone [0,w)\ntail: n >= 1: m -> monotone [0,w^n)\n",
                1,
            ),
            "w^70",
        )
    )
    # exact settle point 3, literal sum 2: the zero-overflow point [0,1)
    # coalesces with {n} = [n, n+1) only while n <= 1
    @example(
        (
            (
                "carrier: a:[0,w); b:[0,w)\nalpha: w^(w^(w^w))\n"
                "row 0: a -> monotone [0,w) ; b -> monotone [0,w)\n"
                "tail: n >= 1: a -> monotone [w,n) ; b -> constant n\n",
                1,
            ),
            "w",
        )
    )
    def test_same_answers_as_the_literal_sum(self, drawn_bound):
        (text, start), bound = drawn_bound
        literal = _literal_settle(text)
        exact = []

        def literal_point(*args):
            exact.append(settle_point(*args)[0])
            return literal, None

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "tail.txt"
            path.write_text(text)
            with mock.patch.object(carriers, "settle_point", literal_point):
                want = _settle_answers(path, bound)
            # refused for its literals, the exact point may answer: only
            # where the tail settles is compared then
            refused = want[0] == "tail-limit-undecided"
            got = _settle_answers(path, bound) if not refused else None
        # the forms' constants are sums of the literals and of implicit 1s:
        # the hi of a constant piece's point [v, v+1) and of a monotone
        # piece's zero-overflow point [0,1), at most one per tail piece.
        # Every crossing lies at or below L + P + 1 for P tail pieces, so
        # with start >= 1 the exact point, one past the last crossing, is
        # at most start + L + P + 1
        pieces = text.split("tail:", 1)[1].count("->")
        assert start >= 1 and all(point <= literal + pieces for point in exact)
        outcome = "accepts" if not want[1] else want[2].split("\n", 1)[0]
        event(f"literal sum: {want[0] if isinstance(want[0], str) else 'answers'}, {outcome}")
        if refused:
            return
        assert got[0] == want[0]
        if want[1] == 0:
            assert got[1:] == want[1:]
        elif got[1] == 0:
            # past the literal point, a later row finished the cover
            event("verified past the literal scan")
            assert want[2].startswith("witness-not-found\n")
        else:
            # the same refusal; the rows it names as scanned may differ
            assert _SCAN_COUNT.sub("N", got[2]) == _SCAN_COUNT.sub("N", want[2])

    def test_large_block_no_longer_refused(self):
        path = INSTANCES / "tail_large_block.txt"
        literal = _literal_settle(path.read_text())
        with mock.patch.object(carriers, "settle_point", lambda *args: (literal, None)):
            with pytest.raises(TailLimitUndecided):
                load_instance(path)
        fam = load_instance(path)
        assert fam.tail_start == 2
        assert _compute_delta(fam) == (parse("w^w"), None)


class TestReduceCase1:
    def test_identity_instance(self):
        result = reduce_omega_product(load("case1_identity.txt"))
        assert result.case_taken == ("case1", 0)
        assert result.delta == o("w^2")
        verify_surjective(result, o("w^2"))

    def test_mixed_instance_least_index(self):
        result = reduce_omega_product(load("case1_mixed.txt"))
        assert result.case_taken == ("case1", 0)
        assert result.delta == o("w^3")
        verify_surjective(result, o("w^3"))

    def test_failed_re_evaluation_is_refused(self):
        # the instance's surjection answers zero where it should answer w;
        # the other sampled targets still come back as themselves
        result = reduce_omega_product(load("case1_identity.txt"))
        surjection = result.surjection
        result.surjection = lambda x: ZERO if surjection(x) == OMEGA else surjection(x)
        with pytest.raises(WitnessNotFound, match="^a witness failed re-evaluation$"):
            verify_surjective(result, o("w^2"))
        for text in ("0", "1", "5", "w*2+1"):
            assert result.surjection(result.witness_for(o(text))) == o(text)

    def test_surjection_hits_target(self):
        result = reduce_omega_product(load("case1_identity.txt"))
        witness = result.witness_for(o("w*5+3"))
        assert result.surjection(witness) == o("w*5+3")

    def test_bound_one_single_witness(self):
        result = reduce_omega_product(load("case1_identity.txt"))
        report = verify_surjective(result, ONE)
        assert len(report.entries) == 1
        (interval, row, samples) = report.entries[0]
        assert len(samples) == 1 and samples[0][0] == ZERO

    def test_explicit_rows_without_tail(self):
        carrier = Carrier([("m", iv("0", "w^2"))])
        row = BlockwiseMap([Piece("m", "monotone", target=iv("0", "w^2"))])
        fam = SurjectionFamily(carrier, o("w^2"), [row, row])
        result = reduce_omega_product(fam)
        assert result.case_taken == ("case1", 0)

    def test_explicit_rows_that_miss_a_target(self):
        # no row takes w^2: verification names the rows there are, not the scan
        carrier = Carrier([("m", iv("0", "w^2"))])
        row = BlockwiseMap([Piece("m", "monotone", target=iv("0", "w^2"))])
        zero = BlockwiseMap([Piece("m", "constant", value=ZERO)])
        result = reduce_omega_product(SurjectionFamily(carrier, o("w^2+1"), [row, zero]))
        with pytest.raises(WitnessNotFound, match=re.escape("rows 0..1 do not cover [0, w^2 + 1)")):
            verify_surjective(result, o("w^2+1"))


@pytest.fixture(scope="module")
def tower():
    return reduce_omega_product(load("case2_tower.txt"))


@pytest.fixture(scope="module")
def carrier():
    return Carrier([("m", iv("0", "w^2"))])


class TestReduceCase2:
    def test_case_and_delta(self, tower):
        assert tower.case_taken[0] == "case2"
        assert tower.delta == o("w^w")
        assert tower.beta == o("w^(w^w)")

    def test_stage_invariants(self, tower):
        tower.ensure_stage(2)
        for stage in tower.stages[:3]:
            nxt = stage.b_next
            for label, positions in nxt.items():
                assert positions.is_subset(stage.b_restriction[label])
            dom = OrdinalSet()
            for piece in stage.q_map.pieces:
                dom = dom.union(piece.dom)
            assert dom.order_type() == stage.beta
            beta_k = omega_power(tower._kept.delta(stage.k))
            assert compare(multiply(stage.beta, Ordinal(2)), beta_k) < 0
            assert all(q for _, _, q in stage.coverage)

    def test_q_surjects_onto_beta(self, tower):
        tower.ensure_stage(1)
        stage = tower.stages[1]
        for text in ("0", "5", "w", "w^2*3", "w^(w*2)"):
            target = o(text)
            if compare(target, stage.beta) >= 0:
                continue
            position = add(stage.chunk_lo, target)
            element = tower.carrier.element_at(position)
            assert stage.q_map(tower.carrier, element) == target

    def test_point_evaluation(self, tower):
        inside = ("m", ZERO)  # below the reserve zone: the glued map's zero
        assert tower.m_to_delta(inside) == tower._bij.down(ZERO)
        zone = ("m", add(tower.beta, o("w^(w^3)")))  # peeled at a later stage
        assert compare(tower.m_to_delta(zone), tower.delta) < 0

    def test_fuel_bounds_the_stages(self, monkeypatch):
        # a fresh result has built stages 0..2; the point lies w^w into
        # stage 5's chunk, and its value's witness lies in stage 1's
        result = reduce_omega_product(load("case2_tower.txt"))
        late = ("m", add(result.beta, o("w^(w^5)+w^w")))
        z = result._bij.down(o("w^w"))
        for fuel in (0, 1):
            monkeypatch.setattr(reduction, "_FUEL", fuel)
            for ask in (lambda: result.m_to_delta(late), lambda: result.delta_witness(z)):
                with pytest.raises(FuelExhausted, match=f"within fuel {fuel}$") as caught:
                    ask()
                assert caught.value.name == "fuel-exhausted"
        monkeypatch.undo()
        assert result.m_to_delta(late) == z
        assert result.m_to_delta(result.delta_witness(z)) == z

    def test_verified_below_w3(self, tower):
        verify_surjective(tower, o("w^3"))

    def test_refusal_samples_nothing(self, monkeypatch, tmp_path):
        # no tail row reaches w^2, and the rows say so before any sample
        path = tmp_path / "short_tail.txt"
        path.write_text(
            "carrier: a:[0,w^(w^w)*2)\nalpha: w^w\n"
            "row 0: a -> monotone [0,w)\ntail: n >= 1: a -> monotone [0,w*n)\n"
        )
        searches = []
        witness_for = ReductionResult.witness_for
        monkeypatch.setattr(
            ReductionResult, "witness_for",
            lambda result, gamma: searches.append(gamma) or witness_for(result, gamma),
        )
        with redirect_stdout(io.StringIO()) as out:
            assert main(["reduce", "--instance", str(path), "--verify-below", "w^3"]) == 1
        assert out.getvalue() == "witness-not-found\nrows 0..63 do not cover [0, w^3)\n"
        assert searches == []

    def test_delta_stage_inverse_exactness(self, tower):
        for text in ("0", "1", "w", "w*4+2", "w^2", "w^3+w^2+5"):
            z = o(text)
            witness = tower.delta_witness(z)
            assert tower.m_to_delta(witness) == z

    def test_blocks_and_slow_instances(self):
        for name in ("case2_blocks.txt", "case2_slow.txt", "case2_filtered.txt"):
            result = reduce_omega_product(load(name))
            assert result.case_taken[0] == "case2"
            verify_surjective(result, o("w^3"))

    def test_filtered_rows_renumbered(self):
        result = reduce_omega_product(load("case2_filtered.txt"))
        assert [result._kept.original(j) for j in range(3)] == [1, 2, 3]

    def test_degenerate_delta_omega(self):
        with pytest.raises(PreconditionViolated):
            reduce_omega_product(load("degenerate_delta_omega.txt"))

    def test_chunk_spanning_block_boundary(self):
        # first block ends mid reserve zone, so the first peeled chunk
        # must split into pieces across two blocks
        beta = o("w^(w^w)")
        carrier = Carrier(
            [
                ("a", OrdinalSet.interval(ZERO, add(beta, OMEGA))),
                ("b", OrdinalSet.interval(ZERO, beta)),
            ]
        )

        def row(n):
            return BlockwiseMap(
                [
                    Piece("a", "monotone", target=iv("0", omega_power(Ordinal(n + 1)))),
                    Piece("b", "constant", value=ZERO),
                ]
            )

        fam = SurjectionFamily(carrier, o("w^w"), [row(0)], tail=(1, row))
        result = reduce_omega_product(fam)
        result.ensure_stage(0)
        stage = result.stages[0]
        assert len(stage.q_map.pieces) == 2
        assert {p.label for p in stage.q_map.pieces} == {"a", "b"}
        verify_surjective(result, o("w^3"))

    def test_carrier_too_small(self):
        carrier = Carrier([("m", iv("0", "w^(w^w)"))])  # no reserve room

        def tail(n):
            return BlockwiseMap(
                [Piece("m", "monotone", target=iv("0", omega_power(Ordinal(n + 1))))]
            )

        fam = SurjectionFamily(carrier, o("w^w"), [tail(0)], tail=(1, tail))
        with pytest.raises(PreconditionViolated):
            reduce_omega_product(fam)


# tail targets [0, T(n)) by template, with the supremum delta of T(n) over
# n >= 1 as a function of the drawn constants (b, c)
_TAILS = {
    "w^(n+{c})": lambda b, c: "w^w",
    "w^(n+n+{c})": lambda b, c: "w^w",
    "w^{c}*n": lambda b, c: f"w^{c + 1}",
    "w^{c}+w^{b}*n": lambda b, c: f"w^{c}+w^{b + 1}" if b < c else f"w^{b + 1}",
    "w^(w^n)": lambda b, c: "w^(w^w)",
}


@st.composite
def _case2_instances(draw):
    """Case-2 instance texts: a tail that does not attain its supremum
    delta, after finite and small explicit rows, on a carrier with a
    reserve zone; optionally a constant side block, or the strong reserve
    variant of two blocks of order type w^delta mapped alike."""
    template = draw(st.sampled_from(sorted(_TAILS)))
    b, c = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    delta = _TAILS[template](b, c)
    explicit = draw(st.lists(st.sampled_from(["[0,3)", "[0,w)"]), min_size=1, max_size=3))
    variant = draw(st.sampled_from(["plain", "side", "strong"]))
    if variant == "strong":
        blocks = [("a", f"[0,w^({delta}))"), ("b", f"[0,w^({delta}))")]
    else:
        blocks = [("m", f"[0,w^({delta})*2)")]
    sides = []
    if variant == "side":
        sides = [("s", draw(st.sampled_from(["[0,5)", "[0,w^2)"])))]
        blocks.insert(draw(st.integers(0, 1)), sides[0])

    def row(target):
        return " ; ".join(
            f"{label} -> constant {draw(st.integers(0, 2))}"
            if (label, shape) in sides
            else f"{label} -> monotone {target}"
            for label, shape in blocks
        )

    lines = ["carrier: " + "; ".join(f"{label}:{shape}" for label, shape in blocks)]
    lines.append(f"alpha: {delta}")
    lines += [f"row {i}: {row(target)}" for i, target in enumerate(explicit)]
    tail = template.format(b=b, c=c)
    lines.append(f"tail: n >= {len(explicit)}: {row(f'[0,{tail})')}")
    return "\n".join(lines) + "\n"


def _stage_records(cls, fam: SurjectionFamily, late: bool = False) -> list:
    """Stages 0-5 built one at a time, each as a tuple of its fields read
    as soon as it is built, or, when ``late``, after the last one; an error
    ends the list as its type and message."""
    kept = _KeptRows(fam)
    delta, attained_at = _compute_delta(fam)
    assert attained_at is None
    stages, records = [], []
    try:
        result = cls(fam, kept, delta, None)
        for n in range(6):
            result.ensure_stage(n)
            stages.append(result.stages[n])
            if not late:
                records.append(_stage_record(stages[-1]))
    except ToolkitError as error:
        records.append((type(error), str(error)))
    if late:
        records[:0] = [_stage_record(s) for s in stages]
    return records


def _stage_record(s: Stage) -> tuple:
    return (s.index, s.k, s.beta, s.chunk_lo, s.chunk_hi, s.b_restriction,
            s.q_map.pieces, s.coverage)


def _chunk_dependent_family(low_target, chunk_target: tuple, chunk_len: str):
    """A case-2 family on m:[0, beta*2), beta = w^(w^w), whose tail rows
    n >= 1 map onto [0, w^(n+1)).  Row 0 maps [0, beta) onto the interval
    ``low_target`` (to 0 when None), the first chunk [beta, beta + chunk_len)
    onto the interval ``chunk_target``, and the rest to 0."""
    beta = o("w^(w^w)")
    chunk_hi, zone_end = add(beta, o(chunk_len)), multiply(beta, Ordinal(2))
    low = OrdinalSet.interval(ZERO, beta)
    row0 = BlockwiseMap([
        Piece("m", "constant", value=ZERO, dom=low) if low_target is None
        else Piece("m", "monotone", target=iv(*low_target), dom=low),
        Piece("m", "monotone", target=iv(*chunk_target), dom=OrdinalSet.interval(beta, chunk_hi)),
        Piece("m", "constant", value=ZERO, dom=OrdinalSet.interval(chunk_hi, zone_end)),
    ])

    def tail(n):
        return BlockwiseMap(
            [Piece("m", "monotone", target=iv("0", omega_power(Ordinal(n + 1))))]
        )

    carrier = Carrier([("m", OrdinalSet.interval(ZERO, zone_end))])
    return SurjectionFamily(carrier, o("w^w"), [row0], tail=(1, tail))


def _unpeeled_zone_family(zone_row: int):
    """A case-2 family on m:[0, beta*2), beta = w^(w^w), whose rows n map
    monotone onto [0, w^(n+1)), so that every row but one sends the reserve
    zone Z = [beta, beta*2) to 0.  Row ``zone_row`` takes its values only on
    [beta + w^(w^7), beta*2), the part of Z that six stages leave unpeeled,
    and is 0 elsewhere: strong on B_0 to B_6 but not on M \\ Z."""
    beta = o("w^(w^w)")
    zone_lo, zone_end = add(beta, o("w^(w^7)")), multiply(beta, Ordinal(2))

    def row(n):
        target = iv("0", omega_power(Ordinal(n + 1)))
        if n != zone_row:
            return BlockwiseMap([Piece("m", "monotone", target=target)])
        return BlockwiseMap([
            Piece("m", "constant", value=ZERO, dom=OrdinalSet.interval(ZERO, zone_lo)),
            Piece("m", "monotone", target=target, dom=OrdinalSet.interval(zone_lo, zone_end)),
        ])

    carrier = Carrier([("m", OrdinalSet.interval(ZERO, zone_end))])
    explicit = [row(n) for n in range(zone_row + 1)]
    return SurjectionFamily(carrier, o("w^w"), explicit, tail=(zone_row + 1, row))


class TestStageReference:
    """ensure_stage against the from-scratch construction it replaced."""

    @settings(max_examples=100)
    @given(_case2_instances())
    @example(
        # chunk 0 keeps the strength of rows 0 and 1 but not of the top row
        # 5: the reference builds stage 0 and fails at stage 1
        "carrier: a:[0,w^(w^(w^w))); b:[0,w^(w^(w^w)))\nalpha: w^(w^w)\n"
        "row 0: a -> monotone [0,w) ; b -> monotone [0,w)\n"
        "tail: n >= 1: a -> monotone [0,w^(w^n)) ; b -> monotone [0,w^(w^n))\n"
    )
    def test_stage_records(self, text):
        reference = _stage_records(_ReferenceStages, parse_instance(text))
        assert _stage_records(ReductionResult, parse_instance(text)) == reference
        # the derived fields read the same once later stages exist
        assert _stage_records(ReductionResult, parse_instance(text), late=True) == reference

    def test_window_row_weakened_by_its_chunk(self):
        # row 0 (delta w) takes its values only on the first chunk: strong
        # on B_0, weak on B_1, so stage 0's record shows it weak
        fam = lambda: _chunk_dependent_family(None, ("0", "w"), "w^w")
        reference = _stage_records(_ReferenceStages, fam())
        assert [q for _, _, q in reference[0][-1]] == [False] + [True] * 5
        assert _stage_records(ReductionResult, fam()) == reference
        assert _stage_records(ReductionResult, fam(), late=True) == reference

    def test_top_row_weakened_by_its_chunk(self):
        # row 0 (delta w^6*2, the top row) needs the first chunk for its
        # second half, so the coverage condition fails after stage 0
        fam = lambda: _chunk_dependent_family(("0", "w^6"), ("w^6", "w^6*2"), "w^(w^6*2)")
        reference = _stage_records(_ReferenceStages, fam())
        assert reference == [(CoverageBroken, "coverage condition fails after stage 0")]
        assert _stage_records(ReductionResult, fam()) == reference

    @pytest.mark.parametrize("zone_row", [1, 5])
    def test_row_strong_only_on_the_unpeeled_zone(self, zone_row):
        # weak on M \ Z, so the exact test on B_n decides: row 1 is stage
        # 0's k, and row 5 the top row whose strength the coverage keeps
        fam = lambda: _unpeeled_zone_family(zone_row)
        reference = _stage_records(_ReferenceStages, fam())
        assert [record[1] for record in reference] == [1, 2, 3, 4, 5, 6]
        assert _stage_records(ReductionResult, fam()) == reference

    def test_coverage_condition_is_a_top_row_keeping_strength(self):
        for deltas in itertools.product([o("w"), o("w^2"), o("w^3")], repeat=6):
            top = _top_rows(list(deltas))
            for qualifies in itertools.product((False, True), repeat=6):
                report = [(m, d, q) for m, d, q in zip(range(6), deltas, qualifies)]
                assert _ref_coverage_ok(report) == any(qualifies[m] for m in top)


_CASE2_INSTANCES = ["case2_tower.txt", "case2_blocks.txt", "case2_slow.txt", "case2_filtered.txt"]


class TestStageCost:
    """Building a stage images only the rows that decide it; the derived
    record is built only when read."""

    @pytest.mark.parametrize("name", _CASE2_INSTANCES)
    def test_stage_images_the_candidates_and_the_top_rows(self, name, monkeypatch):
        calls = []

        def counting_image_of(*args):
            calls.append(args)
            return image_of(*args)

        monkeypatch.setattr(reduction, "image_of", counting_image_of)
        fam = load(name)
        kept = _KeptRows(fam)
        delta, _ = _compute_delta(fam)
        result = ReductionResult(fam, kept, delta, None)
        for n in range(6):
            calls.clear()
            result.ensure_stage(n)
            stage = result.stages[n]
            # the k search images the rows up to k above delta_n; then each
            # top row is imaged at most on the chunk and on B_(n+1)
            delta_n = kept.delta(n)
            candidates = [c for c in range(stage.k + 1) if compare(delta_n, kept.delta(c)) < 0]
            assert len(calls) <= len(candidates) + 2 * len(result._top)
            assert "coverage" not in vars(stage) and "q_map" not in vars(stage)

    def test_k_search_resumes_at_the_last_k(self, monkeypatch):
        # delta_n grows on the tower, so stage n's search starts at stage
        # n-1's k: a bounded number of delta reads per stage, not one per
        # earlier row
        calls = []
        delta = _KeptRows.delta
        monkeypatch.setattr(_KeptRows, "delta", lambda kept, j: calls.append(j) or delta(kept, j))
        result = reduce_omega_product(load("case2_tower.txt"))
        for n in range(256):
            calls.clear()
            result.ensure_stage(n)
            assert len(calls) <= 8
        assert [stage.k for stage in result.stages] == list(range(1, 257))

    def test_result_freed_without_the_cyclic_gc(self):
        # the per-row strength caches close over locals, not over the
        # result: dropping the last reference frees it at once
        result = reduce_omega_product(load("case2_tower.txt"))
        result.ensure_stage(4)
        stage = result.stages[3]
        result.m_to_delta(result.carrier.element_at(add(stage.chunk_lo, ONE)))
        ref = weakref.ref(result)
        gc.disable()
        try:
            del result, stage
            assert ref() is None
        finally:
            gc.enable()

    def test_point_lookup_bisects_the_built_stages(self, monkeypatch):
        # with 1,024 stages built, a point in stage 1,000's chunk and the
        # witness of its value are each found by a bisection over the
        # built stages, not by one comparison per earlier stage (1,005
        # for the two)
        result = reduce_omega_product(load("case2_tower.txt"))
        result.ensure_stage(1023)
        stage = result.stages[1000]
        point = result.carrier.element_at(add(stage.chunk_lo, o("w^(w^999)+3")))
        calls = []
        monkeypatch.setattr(reduction, "compare", lambda a, b: calls.append(1) or compare(a, b))
        value = result.m_to_delta(point)
        witness = result.delta_witness(value)
        assert len(calls) <= 2 * 10 + 8
        assert len(result.stages) == 1024
        monkeypatch.undo()
        assert value == result._bij.down(o("w^(w^999)+3"))
        assert result.m_to_delta(witness) == value

    def test_lookup_builds_only_the_stages_it_needs(self):
        # a fresh result has stages 0-2; a point in stage 10's chunk, at an
        # offset only stage 10's beta passes, builds stages 3-10 and no
        # more, and so does the witness of its value
        offset = o("w^(w^10)+3")
        result = reduce_omega_product(load("case2_tower.txt"))
        point = result.carrier.element_at(add(o("w^(w^w)+w^(w^10)"), offset))
        value = result.m_to_delta(point)
        assert len(result.stages) == 11
        assert result.stages[10].chunk_lo == o("w^(w^w)+w^(w^10)")
        assert value == result._bij.down(offset)
        fresh = reduce_omega_product(load("case2_tower.txt"))
        assert len(fresh.stages) == 3
        assert fresh.delta_witness(value) == point
        assert len(fresh.stages) == 11

    def test_point_lookup_bisects_by_ordinal_order(self, monkeypatch):
        # the bisection compares stage bounds with ``<``: with 1,024 stages
        # built, about log2(1024) of them for each of the two lookups
        result = reduce_omega_product(load("case2_tower.txt"))
        result.ensure_stage(1023)
        stage = result.stages[1000]
        point = result.carrier.element_at(add(stage.chunk_lo, o("w^(w^999)+3")))
        calls = []
        less = Ordinal.__lt__
        monkeypatch.setattr(Ordinal, "__lt__", lambda a, b: calls.append(1) or less(a, b))
        result.delta_witness(result.m_to_delta(point))
        assert len(calls) <= 2 * 11
        assert len(result.stages) == 1024

    def test_point_lookup_matches_the_stage_walk(self):
        # stage betas that fall and rise again (kept deltas w^3, w^2, w^2,
        # w^3, ...): the witness is still in the first stage whose beta
        # passes w, and a point's stage is still the first whose chunk
        # ends past it, as a walk from stage 0 finds them
        result = reduce_omega_product(parse_instance(
            "carrier: m:[0,w^(w^w)*2)\nalpha: w^w\n"
            "row 0: m -> monotone [0,w^3)\nrow 1: m -> monotone [0,w^2)\n"
            "tail: n >= 2: m -> monotone [0,w^n)\n"
        ))
        result.ensure_stage(7)
        stages = result.stages
        assert [s.beta for s in stages[:4]] == [o("w^(w^3)"), o("w^(w^2)"), o("w^(w^2)"), o("w^(w^3)")]
        for text in ("0", "5", "w^(w^2)", "w^(w^2)*3+w", "w^(w^3)+1", "w^(w^5)"):
            w = o(text)
            z = result._bij.down(w)
            first = next(s for s in stages if compare(w, s.beta) < 0)
            assert result.delta_witness(z) == result.carrier.element_at(add(first.chunk_lo, w))
        for s in stages:
            for offset in (ZERO, o("w^2+1")):
                point = result.carrier.element_at(add(s.chunk_lo, offset))
                assert result.m_to_delta(point) == result._bij.down(offset)

    def test_entry_points_build_no_record(self, monkeypatch):
        def unexpected(*args):
            raise AssertionError("the stage record was built")

        monkeypatch.setattr(reduction, "_chunk_iso", unexpected)
        monkeypatch.setattr(Stage, "coverage", property(unexpected))
        path = str(INSTANCES / "case2_tower.txt")
        with redirect_stdout(io.StringIO()) as out:
            assert main(["reduce", "--instance", path, "--verify-below", "w^3"]) == 0
        assert "MISMATCH" not in out.getvalue()
        for name in _CASE2_INSTANCES:
            result = reduce_omega_product(load(name))
            zone = result.carrier.element_at(add(result.beta, o("w^(w^3)")))
            assert compare(result.m_to_delta(zone), result.delta) < 0
            for text in ("0", "w", "w^2+3"):
                assert result.m_to_delta(result.delta_witness(o(text))) == o(text)
            verify_surjective(result, o("w^3"))


class TestTransfer:
    def _identity_setup(self):
        n_carrier = Carrier([("n", iv("0", "w"))])
        m_carrier = Carrier([("m", iv("0", "w"))])
        f = CarrierMap(
            n_carrier,
            m_carrier,
            [Piece("n", "monotone", target=iv("0", "w"), target_label="m")],
        )
        g = BlockwiseMap([Piece("n", "monotone", target=iv("0", "w"))])
        return f, g

    def test_identity_fibers_give_g(self):
        f, g = self._identity_setup()
        result = finite_to_one_transfer(f, g, OMEGA)
        assert result.route == "row"
        for k in range(25):
            assert result.surjection(("m", Ordinal(k))) == Ordinal(k)

    def test_two_interleaved_copies(self):
        n_carrier = Carrier([("c0", iv("0", "w")), ("c1", iv("0", "w"))])
        m_carrier = Carrier([("m", iv("0", "w"))])
        f = CarrierMap(
            n_carrier,
            m_carrier,
            [
                Piece("c0", "monotone", target=iv("0", "w"), target_label="m"),
                Piece("c1", "monotone", target=iv("0", "w"), target_label="m"),
            ],
        )
        g = BlockwiseMap(
            [
                Piece("c0", "monotone", target=iv("0", "w")),
                Piece("c1", "monotone", target=iv("w", "w*2")),
            ]
        )
        result = finite_to_one_transfer(f, g, o("w*2"))
        lines = verify_surjective(result, o("w*2")).lines()
        assert lines and all("MISMATCH" not in line for line in lines)

    def test_duplicate_fiber_values_collapse(self):
        n_carrier = Carrier([("c0", iv("0", "w")), ("c1", iv("0", "w"))])
        m_carrier = Carrier([("m", iv("0", "w"))])
        f = CarrierMap(
            n_carrier,
            m_carrier,
            [
                Piece("c0", "monotone", target=iv("0", "w"), target_label="m"),
                Piece("c1", "monotone", target=iv("0", "w"), target_label="m"),
            ],
        )
        g = BlockwiseMap(
            [
                Piece("c0", "monotone", target=iv("0", "w")),
                Piece("c1", "monotone", target=iv("0", "w")),
            ]
        )
        result = finite_to_one_transfer(f, g, OMEGA)
        assert verify_surjective(result, Ordinal(10)).lines()

    def test_verify_reaches_every_fiber_row(self):
        # 70 singleton fiber rows come before the row that covers [1, w)
        n_carrier = Carrier([("side", iv("0", "70")), ("main", iv("0", "w"))])
        m_carrier = Carrier([("m", iv("0", "w"))])
        f = CarrierMap(
            n_carrier,
            m_carrier,
            [
                Piece("side", "constant", value=Ordinal(0), target_label="m"),
                Piece("main", "monotone", target=iv("0", "w"), target_label="m"),
            ],
        )
        g = BlockwiseMap(
            [
                Piece("side", "monotone", target=iv("w", "w+70")),
                Piece("main", "monotone", target=iv("0", "w")),
            ]
        )
        result = finite_to_one_transfer(f, g, o("w+70"))
        assert len(result.fam.rows) == 71
        lines = verify_surjective(result, o("w+70")).lines()
        assert "interval=[1,w) row=70" in lines

    def test_zero_extension_adds_no_value(self):
        # c1 is the one-point fiber over m:0; the row built from c0 covers
        # the whole of m, so extending it by 0 must add nothing to its image
        n_carrier = Carrier([("c0", iv("0", "w")), ("c1", iv("0", "1"))])
        m_carrier = Carrier([("m", iv("0", "w"))])
        f = CarrierMap(
            n_carrier,
            m_carrier,
            [
                Piece("c0", "monotone", target=iv("0", "w"), target_label="m"),
                Piece("c1", "constant", value=ZERO, target_label="m"),
            ],
        )
        g = BlockwiseMap(
            [Piece("c0", "monotone", target=iv("1", "w")), Piece("c1", "constant", value=ZERO)]
        )
        result = finite_to_one_transfer(f, g, OMEGA)
        assert [result.fam.row_image(j) for j in range(2)] == [iv("1", "w"), iv("0", "1")]
        assert result.route == "sweep"
        assert "interval=[0,1) row=1" in verify_surjective(result, OMEGA).lines()

    def test_reduce_route(self):
        # an identity f on a carrier of type w^2*2 leaves g's one row, of
        # type w^2, so the family reduces, and case 1 inverts that row
        n_carrier = Carrier([("n", iv("0", "w^2*2"))])
        m_carrier = Carrier([("m", iv("0", "w^2*2"))])
        f = CarrierMap(
            n_carrier,
            m_carrier,
            [Piece("n", "monotone", target=iv("0", "w^2*2"), target_label="m")],
        )
        g = BlockwiseMap([Piece("n", "monotone", target=iv("0", "w^2"))])
        result = finite_to_one_transfer(f, g, o("w^2"))
        assert result.route == "reduce" and result.reduction.case_taken == ("case1", 0)
        lines = verify_surjective(result, o("w^2")).lines()
        assert len(lines) == 7 and lines[0] == "interval=[0,w^2) row=0"
        for line in lines[1:]:
            target, value = re.fullmatch(r"target=(.*) witness=.* value=(.*)", line).groups()
            assert target == value
        witness = result.witness_for(o("w+1"))
        assert result.surjection(witness) == o("w+1")

    def test_infinite_alpha_required(self):
        f, g = self._identity_setup()
        with pytest.raises(PreconditionViolated):
            finite_to_one_transfer(f, g, Ordinal(5))

    def test_finite_model_rows(self):
        rows = fiber_family_values(3, 2, (0, 0, 1), (0, 1, 2))
        covered = {v for row in rows for v in row if v is not None}
        assert covered == {0, 1, 2}

    def test_mixed_constant_and_monotone_fibers(self):
        # a finite side block funnels through a constant piece while the
        # main block carries a shifted copy
        n_carrier = Carrier([("side", iv("0", "3")), ("main", iv("0", "w"))])
        m_carrier = Carrier([("m", iv("0", "w"))])
        f = CarrierMap(
            n_carrier,
            m_carrier,
            [
                Piece("side", "constant", value=Ordinal(0), target_label="m"),
                Piece("main", "monotone", target=iv("0", "w"), target_label="m"),
            ],
        )
        g = BlockwiseMap(
            [
                Piece("side", "monotone", target=iv("w", "w+3")),
                Piece("main", "monotone", target=iv("0", "w")),
            ]
        )
        result = finite_to_one_transfer(f, g, o("w+3"))
        assert result.route == "sweep"
        witness = result.witness_for(o("w+1"))
        assert result.surjection(witness) == o("w+1")
        assert verify_surjective(result, Ordinal(6)).lines()


class TestRefuters:
    def test_empty_listing(self, carrier):
        empty = QueryableSet(lambda x: False)
        witness = refute_powerset(lambda n, x: empty, carrier, [empty], check_bound=64)
        assert witness.recheck()
        assert witness.missed_set.contains(("m", ZERO))

    def test_singleton_listing(self, carrier):
        table = [QueryableSet(lambda y, i=i: y == ("m", Ordinal(i))) for i in range(10)]
        witness = refute_powerset(
            lambda n, x: QueryableSet(lambda y, x=x: y == x), carrier, table, check_bound=64
        )
        assert witness.recheck()

    def test_x_only_listing(self, carrier):
        def phi(n, x):
            cut = carrier.global_position(x)
            return QueryableSet(
                lambda y, cut=cut: compare(carrier.global_position(y), cut) < 0
            )

        table = [
            QueryableSet(
                lambda y, i=i: compare(carrier.global_position(y), Ordinal(i)) < 0
            )
            for i in range(1, 6)
        ]
        witness = refute_powerset(phi, carrier, table, check_bound=64)
        assert witness.recheck()

    def test_table_entry_no_pair_induces(self, carrier):
        # every listed set is empty, so every checked pair induces entry 0:
        # entry 1 is separated at the first sample point where it differs
        empty = QueryableSet(lambda x: False)
        first = QueryableSet(lambda x: x == ("m", ZERO))
        witness = refute_powerset(lambda n, x: empty, carrier, [empty, first], check_bound=5)
        assert witness.recheck()
        assert [d[:3] for d in witness.distinguishers[:2]] == [
            ("table", 0, ("m", ZERO)),
            ("table", 1, ("m", ONE)),
        ]

    def test_table_injectivity_enforced(self, carrier):
        dupe = QueryableSet(lambda x: True)
        with pytest.raises(TableNotInjective):
            refute_powerset(lambda n, x: dupe, carrier, [dupe, dupe], check_bound=16)

    def test_table_injectivity_names_the_first_pair(self, carrier):
        # pairs are tried i, then j: (0, 3) comes before (1, 2), the first
        # collision a left-to-right scan meets
        a, b = QueryableSet(lambda x: True), QueryableSet(lambda x: False)
        a2, b2 = QueryableSet(lambda x: True), QueryableSet(lambda x: False)
        with pytest.raises(TableNotInjective, match="table entries 0 and 3 agree"):
            refute_powerset(lambda n, x: a, carrier, [a, b, b2, a2], check_bound=16)

    def test_infinite_full_listing(self, carrier):
        full = QueryableSet(lambda x: True, ("infinite", lambda k: ("m", Ordinal(k))))
        witness = refute_infinite_powerset(
            lambda n, x: full, carrier, [full], check_bound=16, certificate_members=100
        )
        assert witness.recheck()
        kind, enum = witness.missed_set.certificate
        members = {enum(k) for k in range(100)}
        assert kind == "infinite" and len(members) == 100

    def test_cofinite_listing(self, carrier):
        def cofinite(i):
            return QueryableSet(
                lambda y, i=i: not (y[1].is_nat() and y[1].nat_value() <= i),
                ("infinite", lambda k, i=i: ("m", Ordinal(i + 1 + k))),
            )

        witness = refute_infinite_powerset(
            lambda n, x: cofinite(n),
            carrier,
            [cofinite(i) for i in range(5)],
            check_bound=16,
        )
        assert witness.recheck()

    def test_finite_phi_value_rejected(self, carrier):
        full = QueryableSet(lambda x: True, ("infinite", lambda k: ("m", Ordinal(k))))
        finite_set = QueryableSet(lambda x: x == ("m", ZERO), ("finite", (("m", ZERO),)))
        with pytest.raises(CertificateError):
            refute_infinite_powerset(
                lambda n, x: finite_set, carrier, [full], check_bound=8
            )

    @pytest.mark.parametrize("refuter", [refute_powerset, refute_infinite_powerset])
    def test_recheck_reevaluates_membership(self, carrier, refuter):
        # every set answers through a mutable flag, so a recheck that read
        # remembered answers would miss the flip; the listed sets have
        # flags of their own, so flipping one leaves the missed set alone
        table_flips, listed_flips = [False] * 5, [False] * 5

        def cofinite(i, flips):
            return QueryableSet(
                lambda y: flips[i] != (not (y[1].is_nat() and y[1].nat_value() <= i)),
                ("infinite", lambda k: ("m", Ordinal(i + 1 + k))),
            )

        table = [cofinite(i, table_flips) for i in range(5)]
        witness = refuter(
            lambda n, x: cofinite(n % 5, listed_flips), carrier, table, check_bound=32
        )
        assert witness.recheck()
        for flips in (listed_flips, table_flips):
            flips[2] = True
            assert not witness.recheck()
            flips[2] = False
            assert witness.recheck()


class TestListingPairs:
    @staticmethod
    def _diagonal(bound: int, width: int) -> list:
        """The pairs as the refuters once took them: the first ``bound``
        pairs in diagonal order, then those with i < ``width``."""
        diagonal = ((n, level - n) for level in itertools.count() for n in range(level + 1))
        return [(n, i) for n, i in itertools.islice(diagonal, bound) if i < width]

    @pytest.mark.parametrize("width", [1, 3, 64])
    def test_the_filtered_diagonal(self, width):
        for bound in [*range(1, 301), 2016, 2017, 10_000, 123_457]:
            assert list(reduction._listing_pairs(bound, width)) == self._diagonal(bound, width)

    def test_a_large_bound_stays_lazy(self):
        # only the pairs with i < 64 are made: about 64 per level, not the
        # bound's 10**12 pairs
        pairs = reduction._listing_pairs(10**12, 64)
        assert list(itertools.islice(pairs, 3)) == [(0, 0), (0, 1), (1, 0)]
        assert sum(1 for _ in reduction._listing_pairs(10**7, 64)) == 284_128


class TestRefuterCaches:
    def test_infpset_coding_calls(self, monkeypatch):
        # the refuters compute each pure coding step once per call
        calls = {"encode": 0, "decode": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        encode = counting("encode", coding.pair_encode)
        decode = counting("decode", coding.pair_decode)
        for module in (coding, reduction):
            monkeypatch.setattr(module, "pair_encode", encode)
            monkeypatch.setattr(module, "pair_decode", decode)
        argv = ["refute", "--instance", str(INSTANCES / "refute_demo.txt"),
                "--mode", "infpset", "--check", "100"]
        counts = []
        for _ in range(2):
            calls.update(encode=0, decode=0)
            with redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            counts.append((calls["encode"], calls["decode"]))
        # without the caches: 1,420 encodes of 259 distinct argument tuples
        # and 783 decodes of 203
        assert counts[0][0] <= 400
        assert counts[0][1] <= 210
        # nothing outlives a call: the second call repeats every step
        assert counts[1] == counts[0]

    def test_infpset_coding_compares(self, monkeypatch):
        # pair codes check each bound once: the degree test stands for the
        # bound on the decoded halves, and the encoder's embedding no longer
        # checks its components again; two naturals pair, and a natural
        # unpairs, in closed form, and alpha is tested for being infinite
        # without a compare
        calls = [0]
        compare = coding.compare

        def counting(a, b):
            calls[0] += 1
            return compare(a, b)

        monkeypatch.setattr(coding, "compare", counting)
        argv = ["refute", "--instance", str(INSTANCES / "refute_demo.txt"),
                "--mode", "infpset", "--check", "100"]
        counts = []
        for _ in range(2):
            calls[0] = 0
            with redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            counts.append(calls[0])
        # checking the bounds in both the pair code and its embedding: 2,650;
        # checking each bound once, on the general path for naturals: 1,398
        assert counts[0] <= 33
        # nothing outlives a call: the second call repeats every step
        assert counts[1] == counts[0]

    @staticmethod
    def _membership_queries(monkeypatch, instance, mode):
        """QueryableSet.contains calls of two identical refute commands."""
        calls = [0]
        contains = QueryableSet.contains

        def counting(self, x):
            calls[0] += 1
            return contains(self, x)

        monkeypatch.setattr(QueryableSet, "contains", counting)
        argv = ["refute", "--instance", str(INSTANCES / instance),
                "--mode", mode, "--check", "100"]
        counts = []
        for _ in range(2):
            calls[0] = 0
            with redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            counts.append(calls[0])
        return counts

    def test_pset_membership_queries(self, monkeypatch):
        # a call asks each set once per sample point, the listed sets and
        # the table entries that the diagonal reads alike, and asks the
        # missed set once per point
        counts = self._membership_queries(monkeypatch, "refute_split_row0.txt", "pset")
        # asking every question again: 21,184 queries; signing once per
        # (n, x) and asking each listed set again at the points: 9,512;
        # rechecking the witness in the CLI too: 2,231 (bound 2,300)
        assert counts[0] <= 1_925
        # nothing outlives a call: the second call asks every question again
        assert counts[1] == counts[0]

    def test_infpset_membership_queries(self, monkeypatch):
        # the missed set's checked certificate points are its lane points:
        # the refuter neither asks it there again nor rebuilds them
        counts = self._membership_queries(monkeypatch, "refute_demo.txt", "infpset")
        # asking the missed set again at the 64 lane points: 2,767 queries;
        # asking each listed set again at the points: 2,575; rechecking the
        # witness in the CLI too: 2,097 (bound 2,150)
        assert counts[0] <= 1_481
        assert counts[1] == counts[0]

    @pytest.mark.parametrize(
        "instance, mode", [("refute_split_row0.txt", "pset"), ("refute_demo.txt", "infpset")]
    )
    def test_each_question_asked_once(self, monkeypatch, instance, mode):
        # in the refuter call, until the rechecks, which ask every set
        # afresh, no set is asked twice at a sample point, so none is
        # signed twice; while the CLI builds its table, no set is asked
        # twice at any point, so each fiber object is signed once
        held, tabled, asked = [], [], []  # held: no id is reused meanwhile
        state = {"refuting": False, "rechecking": False}
        contains, recheck = QueryableSet.contains, RefutationWitness.recheck

        def asking(s, x):
            held.append(s)
            if not state["refuting"]:
                tabled.append((id(s), x))
            elif not state["rechecking"]:
                asked.append((id(s), x))
            return contains(s, x)

        def rechecking(witness):
            state["rechecking"] = True
            return recheck(witness)

        def refuting(name):
            refuter = getattr(cli, name)

            def wrapper(*args, **kwargs):
                state["refuting"] = True
                return refuter(*args, **kwargs)

            monkeypatch.setattr(cli, name, wrapper)

        monkeypatch.setattr(QueryableSet, "contains", asking)
        monkeypatch.setattr(RefutationWitness, "recheck", rechecking)
        refuting("refute_powerset")
        refuting("refute_infinite_powerset")
        path = INSTANCES / instance
        with redirect_stdout(io.StringIO()) as out:
            assert main(["refute", "--instance", str(path), "--mode", mode, "--check", "100"]) == 0
        assert "recheck=ok" in out.getvalue()
        assert tabled and len(set(tabled)) == len(tabled)
        points = set(load_instance(path).carrier.sample_elements(reduction._REFUTER_SAMPLES))
        at_points = [(i, x) for i, x in asked if x in points]
        assert at_points and len(set(at_points)) == len(at_points)

    @pytest.mark.parametrize(
        "instance, mode", [("refute_split_row0.txt", "pset"), ("refute_demo.txt", "infpset")]
    )
    def test_one_recheck_per_refutation(self, monkeypatch, instance, mode):
        # the refuter rechecks its witness afresh and the CLI prints that
        # result: a second recheck would ask every set again
        calls = [0]
        recheck = RefutationWitness.recheck

        def counting(witness):
            calls[0] += 1
            return recheck(witness)

        monkeypatch.setattr(RefutationWitness, "recheck", counting)
        argv = ["refute", "--instance", str(INSTANCES / instance), "--mode", mode, "--check", "100"]
        with redirect_stdout(io.StringIO()) as out:
            assert main(argv) == 0
        assert "recheck=ok" in out.getvalue()
        assert calls[0] == 1

    def test_few_certificate_members_complete_the_lane(self):
        # with fewer checked members than lane points, the rest of the lane
        # is built, and the distinguishers stay the same
        phi, table = infinite_powerset_families()["full"]

        def distinguishers(members):
            witness = refute_infinite_powerset(
                phi, CARRIER, table, check_bound=100, certificate_members=members
            )
            return [d[:-1] for d in witness.distinguishers]

        assert distinguishers(8) == distinguishers(100)


class TestSampleAnswers:
    """A refuter call's answers at its sample points, each asked once."""

    POINTS = [("m", Ordinal(k)) for k in range(70)]  # past 64 bits

    @staticmethod
    def _recording(members: set, asked: list) -> QueryableSet:
        def member(x):
            asked.append(x)
            return x[1] in members  # an Ordinal equals the int it is

        return QueryableSet(member)

    @given(
        st.sets(st.integers(0, 69)),
        st.lists(st.integers(0, 69)),
        st.sets(st.integers(0, 69)),
    )
    def test_signature_is_the_answers_at_the_points(self, members, asked_first, confirmed):
        # asked and confirmed points are not asked again; every other
        # point is asked exactly once, by the first signature
        confirmed &= members
        asked: list = []
        s = self._recording(members, asked)
        answers = reduction._SampleAnswers(self.POINTS)
        answers.confirm(s, [self.POINTS[k] for k in sorted(confirmed)])
        for k in asked_first:
            assert answers.ask(s, self.POINTS[k]) is (k in members)
        expected = sum(1 << k for k in members)
        assert answers.signature(s) == expected
        assert answers.signature(s) == expected
        assert len(asked) == len(set(asked))
        assert set(asked) == {self.POINTS[k] for k in range(70) if k not in confirmed}

    def test_ask_after_signature_asks_nothing(self):
        asked: list = []
        s = self._recording({0, 5, 64, 69}, asked)
        answers = reduction._SampleAnswers(self.POINTS)
        answers.signature(s)
        asked.clear()
        assert [answers.ask(s, x) for x in self.POINTS] == [k in {0, 5, 64, 69} for k in range(70)]
        assert asked == []
        # a point outside the samples is asked each time
        assert answers.ask(s, ("m", OMEGA)) is False and answers.ask(s, ("m", OMEGA)) is False
        assert asked == [("m", OMEGA)] * 2


class TestRefuterFailures:
    """The refuter's own failures, each a named error: E0 is the even
    naturals of the carrier m:[0,w^2), E1 its complement."""

    E0 = QueryableSet(lambda x: x[1].is_nat() and x[1].nat_value() % 2 == 0)
    E1 = QueryableSet(lambda x: not TestRefuterFailures.E0.contains(x))

    def test_diagonal_equal_to_a_table_entry(self, carrier):
        # every listed set is E0, entry 0: the diagonal is E1, entry 1
        message = r"^cannot separate the diagonal from table entry 1$"
        with pytest.raises(WitnessNotFound, match=message):
            refute_powerset(lambda n, x: self.E0, carrier, [self.E0, self.E1], check_bound=16)

    def test_diagonal_equal_to_a_listed_set(self, carrier):
        # E1 induces entry 0 by default, so the diagonal is E1 itself: no
        # sample point and no code point separates it from phi(0, sample 0)
        message = r"^cannot separate the diagonal from phi\(0, sample 0\)$"
        with pytest.raises(WitnessNotFound, match=message):
            refute_powerset(lambda n, x: self.E1, carrier, [self.E0], check_bound=16)

    def test_answers_that_change_fail_the_recheck(self, carrier):
        # the listed set answers as E0 the first time it is asked at a point
        # and as E1 from then on: the search reads each sample point once,
        # the recheck reads it again
        asked = set()

        def flipping(x):
            first = x not in asked
            asked.add(x)
            return self.E0.contains(x) == first

        listed = QueryableSet(flipping)
        message = r"^a recorded distinguisher failed re-evaluation$"
        with pytest.raises(WitnessNotFound, match=message):
            refute_powerset(lambda n, x: listed, carrier, [self.E0], check_bound=16)

    @pytest.mark.parametrize("refuter", [refute_powerset, refute_infinite_powerset])
    def test_check_bound_capped(self, carrier, refuter):
        # a bound past the cap would keep millions of distinguishers
        full = QueryableSet(lambda x: True, ("infinite", lambda k: ("m", Ordinal(k))))
        message = r"^check bound must be at most 100000000, not 100000001$"
        with pytest.raises(BoundViolation, match=message):
            refuter(lambda n, x: full, carrier, [full], check_bound=10**8 + 1)

    def test_empty_table(self, carrier):
        with pytest.raises(PreconditionViolated, match=r"^table must be nonempty$"):
            refute_powerset(lambda n, x: self.E0, carrier, [], check_bound=16)

    def test_finite_carrier(self):
        finite = Carrier([("m", iv("0", "5"))])
        with pytest.raises(PreconditionViolated, match=r"^carrier must be infinite$"):
            refute_powerset(lambda n, x: self.E0, finite, [self.E0], check_bound=16)

    @pytest.mark.parametrize("refuter", [refute_powerset, refute_infinite_powerset])
    def test_finite_carrier_asks_no_set(self, refuter):
        # the arguments are checked before any set is asked: a repeated
        # entry is not reached, nor is the entry's certificate
        asked = []
        entry = QueryableSet(lambda x: asked.append(x) or True,
                             ("infinite", lambda k: ("m", Ordinal(k))))
        finite = Carrier([("m", iv("0", "5"))])
        with pytest.raises(PreconditionViolated, match=r"^carrier must be infinite$"):
            refuter(lambda n, x: entry, finite, [entry, entry], check_bound=16)
        assert asked == []

    def test_entry_enumerating_malformed_points(self, carrier):
        # an enumerated ("m", k) with an int k is no carrier element
        ints = QueryableSet(lambda x: True, ("infinite", lambda k: ("m", k)))
        message = r"^enumerated point \('m', 0\) is not a member$"
        with pytest.raises(CertificateError, match=message):
            refute_infinite_powerset(lambda n, x: ints, carrier, [ints], check_bound=16)

    def test_finite_certified_entry(self, carrier):
        origin = QueryableSet(lambda x: x == ("m", ZERO), ("finite", (("m", ZERO),)))
        message = r"^table entry 0 lacks an infinite certificate$"
        with pytest.raises(CertificateError, match=message):
            refute_infinite_powerset(lambda n, x: origin, carrier, [origin], check_bound=16)

    def test_entry_read_through_the_one_lane(self, carrier):
        # every lane point sits at a natural position, so the positions >= w
        # hold no tag-0 lane point: the entry pulls back through tag 1
        upper = QueryableSet(
            lambda x: compare(x[1], OMEGA) >= 0, ("infinite", lambda k: ("m", add(OMEGA, Ordinal(k))))
        )
        witness = refute_infinite_powerset(lambda n, x: upper, carrier, [upper], check_bound=50)
        assert len(witness.distinguishers) == 51
        assert witness.distinguishers[0][:5] == ("table", 0, ("m", Ordinal(4)), True, False)
        assert witness.recheck()


class TestKuratowski:
    def test_identity_fibers(self):
        carrier = Carrier([("m", iv("0", "w"))])
        fibers = kuratowski_witness(lambda x: x[1], carrier, 6)
        assert fibers[3].contains(("m", Ordinal(3)))
        assert not fibers[3].contains(("m", Ordinal(4)))

    def test_halving(self):
        carrier = Carrier([("m", iv("0", "w"))])
        fibers = kuratowski_witness(lambda x: Ordinal(x[1].nat_value() // 2), carrier, 4)
        assert fibers[1].contains(("m", Ordinal(2)))
        assert fibers[1].contains(("m", Ordinal(3)))
        assert not fibers[1].contains(("m", Ordinal(4)))

    def test_constant_fails(self):
        carrier = Carrier([("m", iv("0", "w"))])
        with pytest.raises(EmptyFiber):
            kuratowski_witness(lambda x: ZERO, carrier, 2)


@st.composite
def _near_orders(draw):
    """A strict total order on a drawn list of points, with a few pairs
    then removed, added or repeated."""
    points = draw(st.lists(st.integers(0, 12), min_size=1, max_size=10, unique=True))
    pairs = [(a, b) for i, a in enumerate(points) for b in points[i + 1:]]
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["remove", "add", "repeat"]))
        if edit == "add":
            pairs.append((draw(st.sampled_from(points)), draw(st.integers(0, 12))))
        elif pairs:
            pair = pairs[draw(st.integers(0, len(pairs) - 1))]
            if edit == "remove":
                pairs.remove(pair)
            else:
                pairs.append(pair)
    return draw(st.permutations(pairs))


class TestWellorderDecode:
    def test_every_relation_on_four_points(self):
        all_pairs = list(itertools.product(range(4), repeat=2))
        for mask in range(1 << len(all_pairs)):
            pairs = [pair for i, pair in enumerate(all_pairs) if mask >> i & 1]
            assert _finite_strict_order_type(pairs) == _three_pass_order_type(pairs), pairs

    @given(_near_orders())
    def test_near_orders_match_the_three_pass_check(self, pairs):
        expected = _three_pass_order_type(pairs)
        event("order" if expected else "not an order")
        assert _finite_strict_order_type(pairs) == expected

    def test_long_chain(self):
        chain = [(a, b) for a in range(300) for b in range(a + 1, 300)]
        assert wellorder_decode(chain[::-1]) == Ordinal(300)
        assert wellorder_decode(chain[1:]) == ZERO

    def test_finite_linear_order(self):
        assert wellorder_decode([(0, 1), (0, 2), (1, 2)]) == Ordinal(3)

    def test_cycle_falls_back(self):
        assert wellorder_decode([(0, 1), (1, 0)]) == ZERO

    def test_not_transitive_falls_back(self):
        assert wellorder_decode([(0, 1), (1, 2), (2, 0)]) == ZERO

    def test_canonical_code_roundtrip(self):
        for text in ("0", "w", "w*2", "w^(w+1)*2 + 5"):
            assert wellorder_decode(ordinal_to_bits(o(text))) == o(text)

    def test_garbage_bits(self):
        assert wellorder_decode([2, 3, 5, 700]) == ZERO

    def test_parser_fault_is_not_a_non_code(self, monkeypatch):
        # only a parse error makes the bits a non-code; any other error is
        # a fault, and propagates instead of decoding to 0
        def broken(text):
            raise RuntimeError("parser fault")

        monkeypatch.setattr(reduction, "parse", broken)
        with pytest.raises(RuntimeError, match="parser fault"):
            bits_to_ordinal(ordinal_to_bits(o("w+1")))

    def test_injective_on_canonical_codes(self):
        codes = {ordinal_to_bits(o(t)) for t in ("0", "1", "w", "w+1", "w^2", "w^w")}
        assert len(codes) == 6
