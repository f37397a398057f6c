import copy
import io
import pickle
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordkit import core
from ordkit.core import (
    MAX_NESTING,
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    add,
    classify,
    compare,
    fmt,
    left_subtract,
    multiply,
    omega_power,
    parse,
    parse_template,
    power_nat,
)
from ordkit.carriers import parse_instance
from ordkit.cli import main
from ordkit.errors import BoundViolation, OutOfRangeError, ParseError
from ordkit.coding import OmegaPowerBijection, fin_decode, fin_encode
from ordkit.eventual import TailImage, _lift, _Raises, _Row

from reference import _recursive_compare, _reference_ast, _reference_eval
from strategies import nested_ordinals, tail_templates


INSTANCES = Path(__file__).parent / "instances"

# the shared naturals' keys and hashes as built at import, before any test
_IMPORT_SLOTS = [(x._key, x._hash) for x in core._NATS]


def o(text):
    return parse(text)


class TestParse:
    def test_zero(self):
        assert parse("0") == ZERO

    def test_one_plus_omega_normalizes(self):
        assert parse("1+w") == OMEGA
        assert fmt(parse("1+w")) == "w"

    def test_three_term_cnf(self):
        x = parse("w^(w*2)*3 + w^2 + 5")
        assert [(fmt(e), c) for e, c in x.terms] == [("w*2", 3), ("2", 1), ("0", 5)]
        assert parse(fmt(x)) == x

    def test_whitespace_insensitive(self):
        assert parse(" w ^ 2 *3+ 1 ") == parse("w^2*3+1")

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as err:
            parse("w^")
        assert err.value.position is not None

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ParseError):
            parse("w*0")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse("w^2 w")

    def test_variable_needs_template_mode(self):
        with pytest.raises(ParseError):
            parse("w^n")
        rule = parse_template("w^(n+1)")
        assert rule(2) == parse("w^3")

    def test_parenthesized_coefficient(self):
        assert parse("w*(2+1)") == parse("w*3")
        with pytest.raises(ParseError, match="variable n outside template"):
            parse("w*(n+1)")
        with pytest.raises(ParseError):
            parse("w*(w)")

    def test_template_coefficient_zero_rejected(self):
        rule = parse_template("w*n")
        with pytest.raises(ParseError):
            rule(0)


def _nested(depth, inner="1"):
    return "w^(" * depth + inner + ")" * depth


class TestNestingLimit:
    def test_deepest_accepted_input(self):
        x = parse(_nested(MAX_NESTING))
        y = parse(_nested(MAX_NESTING, "2"))
        assert MAX_NESTING >= 300
        assert compare(x, y) == -1 and x < y
        assert x == parse(_nested(MAX_NESTING)) and x != y
        assert hash(x) == hash(parse(_nested(MAX_NESTING)))
        assert parse(fmt(x)) == x

    @pytest.mark.parametrize("depth", [1000, 5000])
    def test_deeper_ordinals_built_in_code(self, depth):
        # the parser stops at MAX_NESTING; omega_power does not
        x, y = ZERO, ONE
        for _ in range(depth):
            x, y = omega_power(x), omega_power(y)
        for op in (
            lambda: compare(x, y),
            lambda: x == y,
            lambda: x < y,
            lambda: x >= y,
            lambda: hash(x),
        ):
            with pytest.raises(BoundViolation, match="nested too deep"):
                op()

    def test_keys_compared_deep_in_the_stack(self):
        # keys built near the top of the stack compare recursively in C, which
        # counts against the same limit on CPython 3.10 and 3.11
        x, y = ZERO, ONE
        for _ in range(400):
            x, y = omega_power(x), omega_power(y)
        assert x.key and y.key

        def nested(k, op):
            return op() if k == 0 else nested(k - 1, op)

        for op, expected in ((lambda: compare(x, y), -1), (lambda: x < y, True)):
            try:
                assert nested(sys.getrecursionlimit() - 500, op) == expected
            except BoundViolation as error:
                assert "nested too deep" in str(error)

    @pytest.mark.parametrize("depth", [MAX_NESTING + 1, 5000])
    def test_deeper_input_is_a_syntax_error(self, depth):
        with pytest.raises(ParseError):
            parse(_nested(depth))
        with pytest.raises(ParseError):
            parse_template("w*(" * depth + "n" + ")" * depth)


def _outcome(fn, *args):
    """``fn(*args)``, or the ParseError's message and position."""
    try:
        return fn(*args)
    except ParseError as error:
        return ("error", str(error), error.position)


_ROWS = (None, 0, 1, 3)


def _same_as_reference(text):
    """core reads ``text`` to the values, or the ParseError (message and
    position), that the reference parser and evaluation give: through
    ``parse`` and ``parse_template(text)(n)`` at each of ``_ROWS``.
    Returns the reference parse: its AST or its error.  (Interval-set
    texts are checked in test_intervals.TestParserReference.)"""
    read = _outcome(_reference_ast, text)

    def expected(n):
        return _reference_eval(read, n).terms

    def got(n):
        return parse_template(text)(n).terms

    assert _outcome(lambda: parse(text).terms) == (
        read if read[0] == "error" else _outcome(expected, None)
    )
    if read[0] == "error":
        assert _outcome(got, None) == read
        return read
    for n in _ROWS:
        assert _outcome(got, n) == _outcome(expected, n)
    return read


_EDIT_CHARS = [None, *" \t\n[](),^*+wn0123456789x"]


@st.composite
def _spaced(draw, text):
    """``text`` with runs of spaces and tabs drawn between its tokens."""
    tokens = re.findall(r"[0-9]+|.", text)
    gaps = draw(st.lists(st.text(" \t", max_size=3), min_size=len(tokens) + 1,
                         max_size=len(tokens) + 1))
    return "".join(gap + token for gap, token in zip(gaps, tokens)) + gaps[-1]


_expression_texts = st.one_of(
    nested_ordinals().map(fmt),
    tail_templates(),
).flatmap(_spaced)


def _edited(data, text):
    at = data.draw(st.integers(0, len(text)))
    insert = data.draw(st.sampled_from(_EDIT_CHARS))
    return text[:at] + text[at + 1:] if insert is None else text[:at] + insert + text[at:]


class TestLexerReference:
    """The folding parser on the one-token-ahead lexer against the parser,
    lexer and evaluation it replaced, which build and evaluate an unfolded
    AST."""

    @given(_expression_texts)
    def test_spaced_expressions(self, text):
        assert _same_as_reference(text)[0] == "add"

    @given(_expression_texts, st.data())
    def test_one_character_edits(self, text, data):
        _same_as_reference(_edited(data, text))
        _same_as_reference(_edited(data, _edited(data, text)))

    @pytest.mark.parametrize(
        "text,error",
        [
            ("1 2", ("trailing input", 2)),
            ("w^(1  ", ("expected ')'", 6)),
            ("1\n", ("trailing input", 1)),
            ("w *  (0)", None),
            ("w\t^\t2\t*\t3\t+\t1", None),
            ("w^2 + 1   ", None),
            ("\t w \t", None),
            ("", ("expected a term", 0)),
            ("  ", ("expected a term", 2)),
            ("w^ ", ("expected an exponent atom", 3)),
            ("w * 0", ("coefficient 0 is not allowed", 4)),
            ("(1)", ("expected a term", 0)),
            ("w^(1) 7", ("trailing input", 6)),
            ("w*(w) + )", ("expected a term", 8)),
            ("w*(w) + w*(0)", None),
            ("n + w*(w) + (", ("expected a term", 12)),
            ("w^(w*(w))*n + 1", None),
        ],
    )
    def test_pinned_texts(self, text, error):
        got = _same_as_reference(text)
        if error is None:
            assert got[0] == "add"
        else:
            message, position = error
            assert got == ("error", f"{message} (at position {position})", position)

    def test_zero_coefficient_in_parentheses(self):
        # the AST is built; the evaluation refuses the coefficient at the term
        with pytest.raises(ParseError, match=r"^coefficient must be a natural number >= 1 "
                                             r"\(at position 0\)$"):
            parse("w *  (0)")

    def test_deepest_nest_with_spaces(self):
        text = " w ^ ( " * MAX_NESTING + " 1 " + " ) " * MAX_NESTING
        assert _same_as_reference(text)[0] == "add"
        assert parse(text) == parse(_nested(MAX_NESTING))
        deeper = " w ^ ( " + text + " ) "
        got = _same_as_reference(deeper)
        assert got == ("error", f"more than {MAX_NESTING} nested parentheses "
                                f"(at position {7 * MAX_NESTING + 5})", 7 * MAX_NESTING + 5)


class TestParseCost:
    """Parsing builds CNF terms directly: no product, and one sum per ``+``
    (counted calls, no time bound)."""

    def test_calls_per_text(self, monkeypatch):
        counts = {"add": 0, "multiply": 0}

        def counted(name):
            fn = getattr(core, name)

            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        for name in counts:
            monkeypatch.setattr(core, name, counted(name))
        text = "w^(w^2*3+1)*5 + w*2 + 7"
        assert fmt(parse(text)) == "w^(w^2*3 + 1)*5 + w*2 + 7"
        assert counts == {"add": text.count("+"), "multiply": 0}


_INSTANCE = "carrier: a:[0,w)\nalpha: w\n"


class TestFold:
    """Sub-expressions without ``n`` are parsed to their values; a failed
    coefficient check there is deferred to evaluation."""

    def test_template_evaluates_only_its_n_part(self, monkeypatch):
        counts = {"add": 0}

        def counted(a, b):
            counts["add"] += 1
            return add(a, b)

        monkeypatch.setattr(core, "add", counted)
        rule = parse_template("n + w^(w+1)*(2+3)")
        assert counts["add"] == 2  # w+1 and 2+3, once
        tail = Ordinal.from_terms([(Ordinal.from_terms([(ONE, 1), (ZERO, 1)]), 5)])
        for n in range(4):
            counts["add"] = 0
            value = rule(n)
            assert counts["add"] == 1
            assert value == add(Ordinal(n), tail)

    @pytest.mark.parametrize("text", ["w^(w+1)*5 + 3", "w^(w*(1+1))", "7", "w"])
    def test_constant_template_is_its_value(self, text):
        rule = parse_template(text)
        assert all(rule(n) == parse(text) for n in (None, 0, 1, 7))
        assert isinstance(core._parse_to_ast(text), Ordinal)

    @pytest.mark.parametrize(
        "text,message,position",
        [
            ("w*(w) + )", "expected a term", 8),
            ("w*(w) + w*(0)", "coefficient must be a natural number >= 1", 0),
            ("w*(1) + w*(w) + n", "coefficient must be a natural number >= 1", 8),
            ("n + w*(w)", "variable n outside template", 0),
            ("w^n*(w)", "variable n outside template", 2),
        ],
    )
    def test_deferred_errors_keep_their_precedence(self, text, message, position):
        with pytest.raises(ParseError) as error:
            parse(text)
        assert (str(error.value), error.value.position) == (
            f"{message} (at position {position})", position)

    @pytest.mark.parametrize(
        "lines,message",
        [
            ("tail: n >= 0: a -> constant w*(0)\nbogus: 1\n", "unknown instance key 'bogus'"),
            ("tail: n >= 0: b -> constant w*(0)\n", "row 0 names unknown block 'b'"),
            ("tail: n >= 0: a -> monotone [0,w*(w))\nbogus: 1\n",
             "unknown instance key 'bogus'"),
            ("tail: n >= 0: a -> constant w*(0)\n",
             "coefficient must be a natural number >= 1 (at position 0)"),
            ("row 0: a -> constant w*(0)\nbogus: 1\n",
             "coefficient must be a natural number >= 1 (at position 0)"),
        ],
    )
    def test_deferred_errors_in_instance_files(self, lines, message):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_instance(_INSTANCE + lines)

    @given(nested_ordinals(), st.integers(0, 3))
    def test_tail_form_of_a_folded_ast(self, x, start):
        row = _Row(start)
        assert row.evaluate(core._parse_to_ast(fmt(x))) == _lift(x)
        assert row.at == start

    def test_tail_form_of_a_deferred_error(self):
        with pytest.raises(_Raises):
            _Row(0).evaluate(core._parse_to_ast("n + w*(w)"))


class TestSharedNaturals:
    """The naturals below 64 are shared atoms with keys and hashes built at
    import, which the constructor returns; those above are built per call."""

    def test_constructor_returns_the_shared_naturals(self):
        assert core._SMALL == 64
        assert all(Ordinal(k) is core._NATS[k] for k in range(64))
        assert Ordinal(64) is not Ordinal(64) and Ordinal(64) == Ordinal(64)
        assert Ordinal(True) is ONE and Ordinal(False) is ZERO and Ordinal() is ZERO

    def test_term_lists_return_the_shared_naturals(self):
        # a term list that makes 0 or a natural below 64 is the shared one,
        # whatever zero object stands for its exponent (_raw itself would
        # return ZERO, so this zero is built by hand)
        own_zero = object.__new__(Ordinal)
        own_zero._terms, own_zero._hash, own_zero._key = (), None, None
        assert Ordinal.from_terms([]) is ZERO and Ordinal([]) is ZERO and Ordinal(()) is ZERO
        for k in range(1, 64):
            for exp in (0, ZERO, own_zero):
                assert Ordinal.from_terms([(exp, k)]) is core._NATS[k]
                assert Ordinal([(exp, k)]) is core._NATS[k]
        # from 64 on the exponent is kept as given, and every zero a path
        # can build is ZERO
        assert Ordinal.from_terms([(own_zero, 64)]) == Ordinal(64)
        assert Ordinal.from_terms([(Ordinal([]), 64)]).terms[0][0] is ZERO
        assert Ordinal.from_terms([(1, 2), (0, 3)]) == parse("w*2+3")
        # add and left_subtract return a zero operand's partner as given, so
        # the zero a term list makes must be ZERO itself
        for zero in (Ordinal.from_terms([]), Ordinal([])):
            assert add(zero, ZERO) is ZERO and add(ZERO, zero) is ZERO
            assert left_subtract(ZERO, zero) is ZERO

    def test_every_construction_path_returns_the_shared_naturals(self):
        # Ordinal._raw returns them, so no path builds a 0 or a natural
        # below 64 of its own; from 64 on each is built per call
        bijection = OmegaPowerBijection(OMEGA)
        tail = TailImage(0, [(_lift(ZERO), ((_lift(ZERO), (1, 1)),))])  # [0, n+1)
        assert bijection.up(ZERO) is ZERO and tail.at(0)[0][0] is ZERO
        assert Ordinal.from_terms([]) is ZERO and classify(ONE)[1] is ZERO
        for k in range(1, 70):
            x = Ordinal(k)
            high, low = fin_decode(OMEGA, fin_encode(OMEGA, [x, Ordinal(k + 1)]))
            cases = [
                (bijection.up(bijection.down(x)), k),
                (classify(Ordinal(k + 1))[1], k),
                (multiply(Ordinal(2), x), 2 * k),
                (multiply(x, Ordinal(3)), 3 * k),
                (parse(f"w^0*{k}"), k),
                (parse_template("w^0*n")(k), k),
                (Ordinal.from_terms([(ZERO, k)]), k),
                (tail.at(k)[0][1], k + 1),
                (low, k),
                (high, k + 1),
            ]
            for value, expected in cases:
                assert value == Ordinal(expected)
                assert expected >= 64 or value is core._NATS[expected], (k, value)
        assert multiply(Ordinal(2), Ordinal(32)) is not multiply(Ordinal(2), Ordinal(32))

    @pytest.mark.parametrize(
        "text", ["0", "1", "63", "64", "10000000000000000000000", "w^2+3", "w^(w^w+1)*3 + w + 7"]
    )
    def test_pickle_and_copy_round_trips(self, text):
        # a constructor that returns a shared natural must not hand one to
        # the unpickler to overwrite
        x = parse(text)
        protocols = range(pickle.HIGHEST_PROTOCOL + 1)
        copies = [pickle.loads(pickle.dumps(x, protocol)) for protocol in protocols]
        copies += [copy.copy(x), copy.deepcopy(x)]
        for y in copies:
            assert type(y) is Ordinal and y == x and fmt(y) == fmt(x) and hash(y) == hash(x)
        if x.is_nat() and x.nat_value() < 64:
            assert all(y is x for y in copies)
        assert ZERO.terms == () and ONE.terms == ((ZERO, 1),)
        assert [(n._key, n._hash) for n in core._NATS] == _IMPORT_SLOTS

    def test_nothing_written_to_a_shared_natural(self):
        argvs = [
            ["refute", "--instance", str(INSTANCES / "refute_demo.txt"), "--mode", "infpset",
             "--check", "100"],
            ["reduce", "--instance", str(INSTANCES / "case2_tower.txt"), "--verify-below", "w^2"],
        ]
        for argv in argvs:
            with redirect_stdout(io.StringIO()):
                assert main(argv) == 0
        for x, (key, h) in zip(core._NATS, _IMPORT_SLOTS):
            assert x._key is key and x._hash is h

    @given(st.integers(0, 70), st.integers(0, 70), nested_ordinals())
    def test_natural_sums_and_differences_are_shared(self, a, b, head):
        # a sum of two naturals, and a left difference that is a natural
        # (head + a to head + a + b, or head to head + b), is the shared
        # natural below 64, whatever terms stood above the constants
        x, y = Ordinal(a), Ordinal(b)
        low = add(head, x)
        results = [
            (add(x, y), a + b),
            (left_subtract(low, add(low, y)), b),
            (left_subtract(head, add(head, y)), b),
        ]
        for value, k in results:
            assert value == Ordinal(k) and (k >= core._SMALL or value is core._NATS[k])

    @pytest.mark.parametrize("k", [62, 63, 64, 65])
    def test_boundary(self, k):
        cases = [
            (f"{k}", Ordinal(k)),
            (f"w^{k}", Ordinal.from_terms([(Ordinal(k), 1)])),
            (f"w*{k}", Ordinal.from_terms([(ONE, k)])),
            (f"w^{k}*{k}", Ordinal.from_terms([(Ordinal(k), k)])),
        ]
        for text, expected in cases:
            x = parse(text)
            assert x == expected and compare(x, expected) == 0 and hash(x) == hash(expected)
            assert fmt(x) == text and parse(fmt(x)) == x
        assert parse(f"{k}") < parse(f"{k + 1}") and parse(f"{k}") == k
        assert hash(parse(f"{k}")) == hash(k)

    def test_digit_run_past_the_int_str_limit(self):
        digits = (sys.get_int_max_str_digits() or 4300) + 1
        text = "9" * digits
        big = 10**digits - 1
        for wrapped, expected in (
            (text, Ordinal(big)),
            (f"w^{text}", Ordinal.from_terms([(Ordinal(big), 1)])),
            (f"w*{text}", Ordinal.from_terms([(ONE, big)])),
        ):
            x = parse(wrapped)
            assert x == expected and fmt(x) == wrapped


class TestFormat:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0", "0"),
            ("w", "w"),
            ("w^2 + 3", "w^2 + 3"),
            ("w^1*1", "w"),
            ("w^w", "w^w"),
            ("w^(w+1)*2 + w*4 + 1", "w^(w + 1)*2 + w*4 + 1"),
        ],
    )
    def test_canonical_rendering(self, text, expected):
        assert fmt(parse(text)) == expected

    @given(nested_ordinals())
    def test_roundtrip(self, x):
        assert parse(fmt(x)) == x

    def test_coefficients_past_the_int_str_limit(self):
        # more digits than Python's int <-> str conversion allows by default
        big = 7**20000
        x = Ordinal.from_terms([(Ordinal(big), big), (ONE, big), (ZERO, big)])
        text = fmt(x)
        assert text.startswith("w^") and len(text) > 4 * 16_000
        assert parse(text) == x


class TestCompare:
    def test_equal(self):
        assert compare(OMEGA, OMEGA) == 0

    def test_degree_dominates(self):
        assert compare(o("w^3*5+w"), o("w^w")) == -1

    def test_coefficient_beats_tail(self):
        assert compare(o("w^2*2"), o("w^2+w*9")) == 1

    @given(nested_ordinals(), nested_ordinals(), nested_ordinals())
    def test_strict_total_order(self, a, b, c):
        assert compare(a, b) == -compare(b, a)
        if compare(a, b) <= 0 and compare(b, c) <= 0:
            assert compare(a, c) <= 0


class TestCompareReference:
    """compare, the rich comparisons and hash against the recursive compare."""

    @given(nested_ordinals(), nested_ordinals())
    def test_agrees_with_recursive_compare(self, a, b):
        expected = _recursive_compare(a, b)
        assert compare(a, b) == expected
        assert (a < b, a <= b, a > b, a >= b) == (
            expected < 0, expected <= 0, expected > 0, expected >= 0
        )
        assert (a == b, a != b) == (expected == 0, expected != 0)
        if a == b:
            assert hash(a) == hash(b)

    @given(nested_ordinals(), st.integers(0, 60))
    def test_agrees_with_ints(self, a, n):
        expected = _recursive_compare(a, Ordinal(n))
        assert (a == n) == (expected == 0) and (a < n) == (expected < 0)
        if a == n:
            assert hash(a) == hash(n)
            assert a in {n} and n in {a}

    def test_rich_comparisons_coerce_ints_only(self):
        # an ordinal operand skips the coercion; an int is still coerced,
        # and any other type gets NotImplemented
        assert Ordinal(3) == 3 and 3 == Ordinal(3)
        assert Ordinal(1) < 2 and 2 > Ordinal(1) and not Ordinal(2) <= 1
        assert (Ordinal(0) == "0") is False and Ordinal(0) != "0"
        assert Ordinal(0).__eq__("0") is NotImplemented
        with pytest.raises(TypeError):
            Ordinal(1) < "2"

    @pytest.mark.parametrize("n", [0, 1, 5, 2**64, 2**61 - 1])
    def test_natural_hashes_like_its_int(self, n):
        assert hash(Ordinal(n)) == hash(n)
        assert Ordinal(n) in {n}


class TestArithmetic:
    def test_absorption(self):
        assert add(OMEGA, o("w^2")) == o("w^2")

    def test_absorbed_sum_is_the_right_summand(self):
        assert add(ONE, OMEGA) is OMEGA
        x = parse("w^2+3")
        assert add(Ordinal(5), x) is x
        assert add(o("w*3+7"), x) is x

    def test_multiply_reassociates(self):
        assert multiply(o("w*2"), OMEGA) == o("w^2")

    def test_omega_power_exponent_law(self):
        assert omega_power(o("w+1")) == o("w^(w+1)")
        assert multiply(omega_power(OMEGA), OMEGA) == o("w^(w+1)")

    def test_mixed_addition(self):
        assert add(o("w^2+w*3"), o("w*2+1")) == o("w^2+w*5+1")

    def test_power_nat(self):
        assert power_nat(o("w+1"), 0) == ONE
        assert power_nat(o("w"), 3) == o("w^3")
        assert power_nat(o("w+1"), 2) == multiply(o("w+1"), o("w+1"))

    @given(nested_ordinals(), nested_ordinals(), nested_ordinals())
    def test_associativity(self, a, b, c):
        assert add(add(a, b), c) == add(a, add(b, c))
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))

    @given(nested_ordinals(), nested_ordinals(), nested_ordinals())
    def test_left_distributivity(self, a, b, c):
        assert multiply(a, add(b, c)) == add(multiply(a, b), multiply(a, c))

    @given(nested_ordinals(), nested_ordinals(), nested_ordinals())
    def test_strict_monotonicity(self, a, b, c):
        if compare(b, c) < 0:
            assert compare(add(a, b), add(a, c)) < 0
            if not a.is_zero():
                assert compare(multiply(a, b), multiply(a, c)) < 0

    @given(nested_ordinals(), nested_ordinals())
    def test_omega_power_homomorphism(self, a, b):
        assert omega_power(add(a, b)) == multiply(omega_power(a), omega_power(b))


class TestLeftSubtract:
    @pytest.mark.parametrize(
        "a,b,expected",
        [("w", "w^2", "w^2"), ("5", "w+7", "w+7"), ("w*3", "w*3+4", "4")],
    )
    def test_examples(self, a, b, expected):
        assert left_subtract(o(a), o(b)) == o(expected)

    def test_rejects_descending(self):
        with pytest.raises(OutOfRangeError):
            left_subtract(o("w^2"), o("w"))

    @given(nested_ordinals())
    def test_zero_hands_back_the_operand(self, b):
        # a carrier's first block starts at 0: element_at keeps the position
        # itself, with any key and hash already built
        assert left_subtract(ZERO, b) is b

    @given(nested_ordinals(), nested_ordinals())
    def test_inverse_law(self, a, b):
        low, high = (a, b) if compare(a, b) <= 0 else (b, a)
        assert add(low, left_subtract(low, high)) == high


class TestClassify:
    def test_zero(self):
        assert classify(ZERO) == ("zero", None)

    def test_successor(self):
        kind, pred = classify(o("w^2+3"))
        assert kind == "successor" and pred == o("w^2+2")

    def test_limit_reports_leading_exponent(self):
        kind, degree = classify(o("w^w*2"))
        assert kind == "limit" and degree == OMEGA

    @given(nested_ordinals())
    def test_partition(self, x):
        kind, payload = classify(x)
        if kind == "zero":
            assert x.is_zero()
        elif kind == "successor":
            assert add(payload, ONE) == x
        else:
            assert payload == x.degree


class TestConstruction:
    @pytest.mark.parametrize("k", [-1, -64, -(10**30)])
    def test_negative_rejected(self, k):
        with pytest.raises(BoundViolation, match="^ordinals are non-negative$"):
            Ordinal(k)

    def test_bad_term_order_rejected(self):
        with pytest.raises(BoundViolation):
            Ordinal.from_terms([(ONE, 1), (o("w"), 2)])

    def test_int_interop(self):
        assert OMEGA + 1 == o("w+1")
        assert 1 + OMEGA == OMEGA
        assert OMEGA * 2 == o("w*2")
        assert 2 * OMEGA == o("w")  # 2 * w absorbs the finite factor
        assert Ordinal(3) < OMEGA < o("w+1")
        assert int(Ordinal(7)) == 7

    @pytest.mark.parametrize("n", [0, 1, 2**61 - 1, 2**61, 10**30])
    def test_naturals_hash_like_ints(self, n):
        assert hash(Ordinal(n)) == hash(n)
        assert Ordinal(n).is_nat() and Ordinal(n).nat_value() == n

    @pytest.mark.parametrize("text", ["w + 1", "w", "w^2*3"])
    def test_nat_value_rejects_infinite(self, text):
        # one term at a nonzero exponent is no natural either
        x = o(text)
        assert not x.is_nat()
        message = f"^{re.escape(text)} is not a natural number$"
        with pytest.raises(OutOfRangeError, match=message):
            x.nat_value()
        with pytest.raises(OutOfRangeError, match=message):
            int(x)

    @pytest.mark.parametrize(
        "make", [lambda: Ordinal(True), lambda: Ordinal.from_terms([(0, True)])]
    )
    def test_bool_is_stored_as_its_natural(self, make):
        x = make()
        assert fmt(x) == "1" and parse(fmt(x)) == x
        assert x == ONE and x in {True} and hash(x) == hash(True)
        assert type(x.terms[0][1]) is int

    def test_false_is_zero(self):
        assert Ordinal(False).is_zero() and fmt(Ordinal(False)) == "0"
        assert fmt(Ordinal.from_terms([(True, 2)])) == "w*2"

    @pytest.mark.parametrize("value", [3.0, None, [3], [(1, 2, 3)]])
    def test_other_values_rejected(self, value):
        with pytest.raises(BoundViolation):
            Ordinal(value)

    def test_arithmetic_rejects_other_types(self):
        # an int operand is coerced; any other type gets NotImplemented
        with pytest.raises(TypeError):
            Ordinal(1) + "x"
        with pytest.raises(TypeError):
            "x" * OMEGA
        assert Ordinal(1).__add__("x") is NotImplemented
        assert OMEGA.__rmul__(1.5) is NotImplemented
