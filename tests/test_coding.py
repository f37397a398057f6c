import itertools
import random
import re
from operator import attrgetter

import pytest
from hypothesis import assume, event, example, given
import hypothesis.strategies as st

from ordkit import coding, core
from ordkit.carriers import QueryableSet
from ordkit.cli import main
from ordkit.coding import (
    MapSpec,
    CsbBijection,
    OmegaPowerBijection,
    cantor_pair,
    cantor_unpair,
    fin_decode,
    fin_encode,
    from_digits,
    pair_decode,
    pair_encode,
    pset_to_infpset,
)
from ordkit.core import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    add,
    compare,
    fmt,
    multiply,
    omega_power,
    parse,
)
from ordkit.errors import BoundViolation, CertificateError, FuelExhausted, InconsistentMapSpec

from reference import _dict_fin_decode, _dict_pair_decode, _quadratic_pair_encode, _validating_from_digits
from strategies import nested_ordinals


def o(text):
    return parse(text)


# twelve members whose finite-set code has a coefficient of over 6,000 digits
INT_STR_LIMIT_ALPHA = "w^w*2 + w^3"
INT_STR_LIMIT_SET = (
    "w^w*2+w^2*10+2", "w^w*2+w^2", "w^w*2+w*15+5", "w^w*2+w+5", "w^w*2",
    "w^w+w^16*9+w^12*12", "w^w+w^12+6", "w^w+17", "w^w+9", "w^17*20+w^12*10",
    "w^14*10+w^13*7+w*8", "w^10*20+w^6*18",
)


class TestDigits:
    """An ordinal's digit map is ``dict(x.terms)``; ``Ordinal`` validates the
    digit maps that come from outside, ``from_digits`` trusts its own."""

    def test_zero(self):
        assert dict(ZERO.terms) == {} and from_digits({}) == ZERO

    def test_reading(self):
        d = dict(o("w^2*3+5").terms)
        assert d[Ordinal(2)] == 3 and d[ZERO] == 5

    def test_from_digits(self):
        # zero digits are dropped and exponents put in CNF order
        assert from_digits({ZERO: 5, ONE: 0, OMEGA: 1}) == o("w^w+5")

    def test_int_exponents_are_coerced(self):
        x = Ordinal.from_terms([(1, 2), (0, 5)])
        assert x.terms == ((ONE, 2), (ZERO, 5))
        assert from_digits(dict(x.terms)) == o("w*2+5")

    @pytest.mark.parametrize(
        "digits",
        [{ONE: -1}, {1: -3}, {ONE: 1.5}, {ONE: "2"}, {ONE: None}, {"w": 1}, {1.0: 1}],
    )
    def test_bad_digits_and_exponents_rejected(self, digits):
        with pytest.raises(BoundViolation):
            Ordinal.from_terms(digits.items())

    def test_digit_lookup_coerces_int_exponents(self):
        # a natural hashes and compares like the int it equals
        d = dict(Ordinal.from_terms([(1, 2), (ZERO, 5)]).terms)
        assert d.get(1) == d.get(ONE) == 2
        assert d.get(0) == 5 and d.get(7, 0) == 0

    def test_exponent_given_twice_rejected(self):
        # 1 and Ordinal(1) are one dict key, so only a term list can repeat it
        with pytest.raises(BoundViolation):
            Ordinal.from_terms([(1, 2), (Ordinal(1), 3)])

    @given(nested_ordinals())
    def test_roundtrip(self, x):
        assert from_digits(dict(x.terms)) == x

    @given(nested_ordinals(), nested_ordinals())
    def test_rightlex_matches_ordinal_order(self, a, b):
        # the highest exponent whose digits differ decides the order
        da, db = dict(a.terms), dict(b.terms)
        differ = [e for e in da.keys() | db.keys() if da.get(e, 0) != db.get(e, 0)]
        expected = 0
        if differ:
            top = max(differ, key=lambda e: e.key)
            expected = 1 if da.get(top, 0) > db.get(top, 0) else -1
        assert compare(a, b) == expected


class TestCantorPairing:
    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    def test_bijective(self, a, b):
        assert cantor_unpair(cantor_pair(a, b)) == (a, b)

    @given(st.integers(0, 1_000_000))
    def test_surjective(self, z):
        a, b = cantor_unpair(z)
        assert cantor_pair(a, b) == z


class TestPairEncode:
    def test_zero_pair(self):
        assert pair_encode(OMEGA, ZERO, ZERO) == ZERO

    def test_naturals_match_cantor(self):
        assert pair_encode(OMEGA, ONE, Ordinal(2)) == Ordinal(cantor_pair(1, 2))

    def test_digitwise_at_omega_squared(self):
        z = pair_encode(o("w^2"), OMEGA, ONE)
        expected = Ordinal.from_terms(
            [(ONE, cantor_pair(1, 0)), (ZERO, cantor_pair(0, 1))]
        )
        assert z == expected

    def test_bounds_checked(self):
        with pytest.raises(BoundViolation):
            pair_encode(Ordinal(5), ONE, ONE)
        with pytest.raises(BoundViolation):
            pair_encode(OMEGA, OMEGA, ZERO)

    def test_exhaustive_injectivity_below_fifty(self):
        seen = set()
        for x in range(50):
            for y in range(50):
                z = pair_encode(OMEGA, Ordinal(x), Ordinal(y))
                assert compare(z, OMEGA) < 0
                assert z not in seen
                seen.add(z)
                assert pair_decode(OMEGA, z) == (Ordinal(x), Ordinal(y))

    @pytest.mark.parametrize("alpha_text", ["w", "w^2", "w^w", "w*2", "w^2*3+w"])
    def test_sampled_injectivity(self, alpha_text):
        alpha = o(alpha_text)
        rng = random.Random(11)
        values = _sample_below(alpha, rng, 40)
        codes = {}
        for x in values:
            for y in values:
                z = pair_encode(alpha, x, y)
                assert compare(z, alpha) < 0
                key = z
                assert codes.setdefault(key, (x, y)) == (x, y)
                assert pair_decode(alpha, z) == (x, y)

    def test_decode_off_range(self):
        # w^2's own degree slot cannot appear in a pair code below w^2
        assert pair_decode(o("w^2"), o("w^2")) is None


# the first three are powers of omega, under which pairing embeds no digit
_NATURAL_PAIR_ALPHAS = [
    "w", "w^2", "w^w", "w+1", "w*2", "w*2+5", "w^2+w", "w^2*3+w", "w^w+1", "w^w*3+5",
]


class TestCodecReference:
    """The term-tuple pairing and the trusting from_digits against the old
    dict-based, validating versions."""

    @given(nested_ordinals())
    def test_from_digits(self, x):
        d = dict(x.terms)
        assert from_digits(d).terms == _validating_from_digits(d).terms

    @given(
        nested_ordinals(),
        nested_ordinals(),
        st.integers(0, 2),
        st.integers(0, 2),
        st.booleans(),
    )
    def test_pair_encode(self, x, y, qx, qy, power_of_omega):
        top = x if compare(x, y) >= 0 else y
        mu = add(top.degree, ONE) if top else ONE
        if power_of_omega:
            alpha = omega_power(mu)  # w^mu: no embedding
        else:
            # w^mu*3 + 1 is no power of omega; the w^mu digit goes through
            # the embedding's Cantor-paired constant slot
            alpha = add(multiply(omega_power(mu), Ordinal(3)), ONE)
            x = add(multiply(omega_power(mu), Ordinal(qx)), x)
            y = add(multiply(omega_power(mu), Ordinal(qy)), y)
        z = pair_encode(alpha, x, y)
        assert z.terms == _quadratic_pair_encode(alpha, x, y).terms
        assert pair_decode(alpha, z) == (x, y)

    @given(
        nested_ordinals(),
        nested_ordinals(),
        st.integers(0, 3),
        st.integers(0, 4),
        st.booleans(),
    )
    def test_pair_decode(self, top, z, qz, q, power_of_omega):
        # z is drawn on and off the code range: a digit at w^mu or above, a
        # value past alpha, or a constant digit whose embedded w^mu digit q
        # passes alpha = w^mu*3 + 1
        constant = cantor_pair(cantor_pair(q, 0), 0)
        top = top if compare(top, z) >= 0 else z
        mu = add(top.degree, ONE) if top else ONE
        if power_of_omega:
            alpha = omega_power(mu)
        else:
            alpha = add(multiply(omega_power(mu), Ordinal(3)), ONE)
        z = add(add(multiply(omega_power(mu), Ordinal(qz)), z), Ordinal(constant))
        decoded = pair_decode(alpha, z)
        assert decoded == _dict_pair_decode(alpha, z)
        if decoded is not None:
            assert pair_encode(alpha, *decoded) == z
        if compare(z, alpha) >= 0:
            with pytest.raises(BoundViolation, match=re.escape(f"{z} is not below {alpha}")):
                fin_encode(alpha, [z])

    @given(
        nested_ordinals(),
        nested_ordinals(),
        nested_ordinals(),
        st.integers(0, 2),
        st.booleans(),
    )
    def test_pair_encode_bound(self, top, below, excess, bad, power_of_omega):
        # one component, or both, at or above alpha: pair_encode checks each
        # component once, before any embedding
        mu = add(top.degree, ONE) if top else ONE
        if power_of_omega:
            alpha = omega_power(mu)
        else:
            alpha = add(multiply(omega_power(mu), Ordinal(3)), ONE)
        below = below if compare(below, alpha) < 0 else ZERO
        above = add(alpha, excess)
        x, y = [(above, below), (below, above), (above, above)][bad]
        message = "^pair components must lie below alpha$"
        with pytest.raises(BoundViolation, match=message):
            pair_encode(alpha, x, y)
        with pytest.raises(BoundViolation, match=message):
            _quadratic_pair_encode(alpha, x, y)

    @given(
        st.integers(0, 10**6) | st.integers(0, 2**80),
        st.integers(0, 10**6) | st.integers(0, 2**80),
        st.sampled_from(_NATURAL_PAIR_ALPHAS),
    )
    @example(2**40, 2**40 - 1, "w^w*3+5")  # a code past 2**64
    def test_pair_naturals(self, m, n, alpha_text):
        # the refuters pair naturals, mostly under an alpha that is no power
        # of omega: each component's digit is Cantor-paired into the
        # constant slot first, and the pair code is one closed form
        alpha, x, y = o(alpha_text), Ordinal(m), Ordinal(n)
        z = pair_encode(alpha, x, y)
        assert z.terms == _quadratic_pair_encode(alpha, x, y).terms
        if alpha == OMEGA:
            assert z == Ordinal(cantor_pair(m, n))
        decoded = pair_decode(alpha, z)
        assert decoded == _dict_pair_decode(alpha, z) == (x, y)
        assert [part.terms for part in decoded] == [x.terms, y.terms]

    @given(
        st.integers(0, 10**6) | st.integers(0, 2**160),
        st.sampled_from(_NATURAL_PAIR_ALPHAS),
    )
    @example(10, "w+1")  # a half reads w + 1, which is not below w + 1
    @example(10, "w*2")  # a half reads w + 1, below w*2
    def test_unpair_naturals(self, code, alpha_text):
        # a natural z unpairs in closed form, unless a half gets a digit at
        # w^mu under an alpha that is no power of omega: that half is
        # compared with alpha on the general path
        alpha, z = o(alpha_text), Ordinal(code)
        decoded = pair_decode(alpha, z)
        expected = _dict_pair_decode(alpha, z)
        assert decoded == expected
        if decoded is not None:
            assert [part.terms for part in decoded] == [part.terms for part in expected]
            assert pair_encode(alpha, *decoded) == z

    @given(
        st.integers(0, 10**6) | st.integers(0, 7),
        st.integers(0, 10**6) | st.integers(0, 7),
        st.sampled_from(["w", "w^2", "w^w", "w+1", "w*5+2", "w^2*2"]),
    )
    @example(2**64 + 3, 1, "w*5+2")  # a component past 2**64
    def test_natural_codes_are_the_shared_naturals(self, m, n, alpha_text):
        # naturals are read from their term slots and come back, as codes
        # and as halves, through core's one natural builder: the shared
        # naturals below 64; a half paired with w takes the general path
        alpha, x, y = o(alpha_text), Ordinal(m), Ordinal(n)
        z = pair_encode(alpha, x, y)
        assert z.terms == _quadratic_pair_encode(alpha, x, y).terms
        decoded = pair_decode(alpha, z)
        assert decoded == (x, y)
        values = [z, *decoded]
        if alpha != OMEGA:
            values.append(pair_decode(alpha, pair_encode(alpha, OMEGA, y))[1])
        for value in values:
            k = value.nat_value()
            assert value == Ordinal(k) and (k >= core._SMALL or value is core._NATS[k])
        assert pair_encode(OMEGA, ONE, Ordinal(2)) is Ordinal(8)

    @pytest.mark.parametrize(
        "argv, code, out",
        [
            (["unpair", "--alpha", "w+1", "10"], 0, ["none"]),
            (["unpair", "--alpha", "w*2", "10"], 0, ["w + 1", "0"]),
            (["pair", "--alpha", "5", "1", "1"], 1,
             ["bound-violation", "alpha must be infinite, got 5"]),
            (["pair", "--alpha", "5", "1", "2"], 1,
             ["bound-violation", "alpha must be infinite, got 5"]),
            (["pair", "--alpha", "5", "w", "1"], 1,
             ["bound-violation", "alpha must be infinite, got 5"]),
            (["unpair", "--alpha", "0", "7"], 1,
             ["bound-violation", "alpha must be infinite, got 0"]),
        ],
    )
    def test_natural_codes_on_the_command_line(self, capsys, argv, code, out):
        # the first two take the general path (a half with a w^1 digit);
        # a finite alpha raises before any component is read
        assert main(argv) == code
        assert capsys.readouterr().out.splitlines() == out

    @given(nested_ordinals(), nested_ordinals(), st.integers(1, 3))
    def test_pair_decode_at_degree(self, top, rest, qz):
        # z's leading exponent is mu itself and z lies below
        # alpha = w^mu*3 + 1, no power of omega: the degree test refuses it
        mu = add(top.degree, ONE) if top else ONE
        alpha = add(multiply(omega_power(mu), Ordinal(3)), ONE)
        rest = rest if qz < 3 and compare(rest, omega_power(mu)) < 0 else ZERO
        z = add(multiply(omega_power(mu), Ordinal(qz)), rest)
        assert compare(z, alpha) < 0 and compare(z.degree, mu) == 0
        assert pair_decode(alpha, z) is None
        assert _dict_pair_decode(alpha, z) is None

    @given(
        st.lists(nested_ordinals(), max_size=4),
        nested_ordinals(),
        st.integers(0, 40),
        st.booleans(),
        st.booleans(),
    )
    def test_fin_decode(self, members, junk, constant, power_of_omega, encoded):
        # z is a code of distinct members, or an ordinal on or off the code
        # range whose constant digit is redrawn (it carries the arity)
        top = max([*members, junk], key=attrgetter("key"))
        mu = add(top.degree, ONE) if top else ONE
        if power_of_omega:
            alpha = omega_power(mu)
        else:
            alpha = add(multiply(omega_power(mu), Ordinal(3)), ONE)
        members = sorted(set(members), key=attrgetter("key"), reverse=True)
        if encoded:
            z = fin_encode(alpha, members)
        else:
            z = add(Ordinal._raw(tuple(t for t in junk.terms if not t[0].is_zero())), Ordinal(constant))
        decoded = fin_decode(alpha, z)
        assert decoded == _dict_fin_decode(alpha, z)
        if encoded:
            assert decoded == members

    def test_fin_decode_past_the_size_limit(self):
        # declared divergence from the reference, which re-encodes and so
        # raises: an 80,000-bit natural below w codes no set, as fin_encode
        # refuses the code, and decodes to None; up sends it to its power
        z = Ordinal(cantor_pair(1, 1 << 40000))
        assert fin_decode(OMEGA, z) is None
        with pytest.raises(BoundViolation, match="passes 65536 bits"):
            _dict_fin_decode(OMEGA, z)
        bij = OmegaPowerBijection(OMEGA)
        assert bij.up(z) == omega_power(z)
        assert bij.down(omega_power(z)) == z
        # a column that is never paired (one member, no constant digit) may
        # pass the limit; two members pair it and are refused
        alpha = o("w^2")
        member = Ordinal.from_terms([(ONE, 1 << 70000)])
        code = fin_encode(alpha, [member])
        assert fin_decode(alpha, code) == [member] == _dict_fin_decode(alpha, code)
        two = Ordinal.from_terms([(ONE, 1 << 70000), (ZERO, cantor_pair(2, 0))])
        assert fin_decode(alpha, two) is None

    def test_fin_decode_encodes_nothing(self, monkeypatch):
        # the range test is structural: no re-encode through fin_encode
        codes = [fin_encode(o("w^w"), members) for members in (
            [], [ZERO], [o("w^3"), o("w*2"), Ordinal(7)], [o("w^2"), ONE, ZERO])]
        codes += [Ordinal(2), o("w*5 + 3"), Ordinal(12345678901234567890)]
        want = [fin_decode(o("w^w"), z) for z in codes]
        calls = []
        encode = coding.fin_encode
        monkeypatch.setattr(coding, "fin_encode", lambda *args: calls.append(args) or encode(*args))
        assert [fin_decode(o("w^w"), z) for z in codes] == want
        assert calls == []


def _sample_below(alpha, rng, count):
    """Deterministic spread of ordinals below alpha."""
    out = [ZERO]
    terms = alpha.terms
    lead_exp = terms[0][0]
    for _ in range(count):
        value = Ordinal(rng.randrange(50))
        if not lead_exp.is_zero():
            # random two-term value below w**lead * coeff
            e2 = rng.randrange(0, 3)
            exp_pool = [e for e in (lead_exp, Ordinal(e2)) if not e.is_zero()]
            exp = exp_pool[rng.randrange(len(exp_pool))]
            coeff = rng.randrange(1, 6)
            candidate = Ordinal.from_terms([(exp, coeff)])
            if compare(candidate, alpha) < 0:
                value = candidate + Ordinal(rng.randrange(9))
        if compare(value, alpha) < 0:
            out.append(value)
    seen = set()
    unique = []
    for v in out:
        if v not in seen:
            seen.add(v)
            unique.append(v)
    return unique


class TestFinEncode:
    def test_empty_set(self):
        assert fin_encode(OMEGA, []) == ZERO
        assert fin_decode(OMEGA, ZERO) == []

    def test_singleton_zero(self):
        code = fin_encode(OMEGA, [ZERO])
        assert code != ZERO
        assert fin_decode(OMEGA, code) == [ZERO]

    def test_exhaustive_subsets_of_ten(self):
        codes = set()
        for r in range(11):
            for subset in itertools.combinations(range(10), r):
                members = [Ordinal(v) for v in reversed(subset)]
                code = fin_encode(OMEGA, members)
                assert compare(code, OMEGA) < 0
                assert code not in codes
                codes.add(code)
                assert fin_decode(OMEGA, code) == members

    def test_larger_alpha_samples(self):
        alpha = o("w^w")
        sets = [
            [o("w^3"), o("w*2"), Ordinal(7)],
            [o("w^3"), o("w*2")],
            [o("w^2+1")],
            [o("w^2"), ONE, ZERO],
        ]
        codes = [fin_encode(alpha, s) for s in sets]
        assert len(set(codes)) == len(codes)
        for code, members in zip(codes, sets):
            assert fin_decode(alpha, code) == members

    def test_duplicates_rejected(self):
        with pytest.raises(BoundViolation):
            fin_encode(OMEGA, [ONE, ONE])

    def test_largest_member_bounds_the_set(self):
        # one bound test per set: fin_encode checks the largest member, and
        # fin_decode the degree of the largest embedded member
        with pytest.raises(BoundViolation, match="w is not below w"):
            fin_encode(OMEGA, [Ordinal(3), OMEGA])
        # below alpha = w*2, but its first embedded member, w, is not below
        # w^mu = w: the w column codes (1, 0), the constant one (arity 2, 0, 1)
        z = Ordinal.from_terms([(ONE, cantor_pair(1, 0)), (ZERO, cantor_pair(2, cantor_pair(0, 1)))])
        assert fin_decode(o("w*2"), z) is None
        assert _dict_fin_decode(o("w*2"), z) is None

    def test_codes_past_the_int_str_limit(self):
        alpha = o(INT_STR_LIMIT_ALPHA)
        members = sorted((o(t) for t in INT_STR_LIMIT_SET), reverse=True)
        code = fin_encode(alpha, members)
        text = fmt(code)
        # a coefficient longer than Python's default int <-> str digit limit
        assert max(len(run) for run in re.findall(r"[0-9]+", text)) > 4300
        assert parse(text) == code
        assert fin_decode(alpha, parse(text)) == members

    def test_decode_junk(self):
        # arity header of 0 members is not a valid nonzero code
        assert fin_decode(OMEGA, Ordinal(2)) in (None, [ZERO], [ONE])  # decoded or rejected
        assert fin_decode(OMEGA, fin_encode(OMEGA, [Ordinal(3)])) == [Ordinal(3)]

    def test_decode_rejects_an_impossible_arity(self):
        # this code's header claims about 4 * 10**9 members: it must be
        # rejected before any per-member work, which would exhaust memory
        assert fin_decode(OMEGA, Ordinal(12345678901234567890)) is None
        for n in range(2, 12):
            # valid codes of growing arity: n members take over 2**(n - 2) bits
            members = [Ordinal(i) for i in reversed(range(n))]
            assert fin_decode(OMEGA, fin_encode(OMEGA, members)) == members

    def test_decode_rejects_a_code_at_alpha(self):
        # every code lies below alpha, so alpha itself decodes to nothing
        assert fin_decode(OMEGA, OMEGA) is None

    def test_encode_refuses_a_code_past_the_size_limit(self):
        # the code at least doubles per member: {0..15} takes 41,594 bits
        # and codes, {0..16} would take 83,187 and is refused
        members = [Ordinal(i) for i in reversed(range(16))]
        code = fin_encode(OMEGA, members)
        assert code.terms[0][1].bit_length() == 41_594
        assert fin_decode(OMEGA, code) == members
        for n in (17, 60):
            with pytest.raises(BoundViolation, match="passes 65536 bits"):
                fin_encode(OMEGA, [Ordinal(i) for i in range(n)])


class TestCsb:
    def test_singletons(self):
        f = MapSpec(lambda a: 5, lambda b: b == 5, lambda b: 0)
        g = MapSpec(lambda b: 0, lambda a: a == 0, lambda a: 5)
        h = CsbBijection(f, g)
        assert h.forward(0) == 5
        assert h.backward(5) == 0

    def test_identity(self):
        f = MapSpec(lambda a: a, lambda b: b in (0, 1, 2), lambda b: b)
        h = CsbBijection(f, f)
        assert [h.forward(a) for a in (0, 1, 2)] == [0, 1, 2]

    def test_shifted_chain(self):
        # f: n -> n on omega; g: n -> n + 1: stoppers classify correctly
        f = MapSpec(lambda a: a, lambda b: True, lambda b: b)
        g = MapSpec(lambda b: b + 1, lambda a: a >= 1, lambda a: a - 1)
        h = CsbBijection(f, g, fuel=100)
        for a in range(10):
            assert h.backward(h.forward(a)) == a

    def test_one_walk_serves_both_directions(self):
        # backward(5) walks the chain 5 <- 5 <- 4 <- ... <- 0 and records
        # the A-side elements it meets; forward(g(5)) steps once to 5, on
        # that chain, and asks f no range question
        f_range = []
        f = MapSpec(lambda a: a, lambda b: f_range.append(b) or True, lambda b: b)
        g = MapSpec(lambda b: b + 1, lambda a: a >= 1, lambda a: a - 1)
        h = CsbBijection(f, g, fuel=100)
        assert h.backward(5) == 5
        f_range.clear()
        assert h.forward(g.apply(5)) == 6
        assert f_range == []

    def test_fuel_exhaustion(self):
        # backward chain never terminates: f, g shift in opposite directions
        f = MapSpec(lambda a: a - 1, lambda b: True, lambda b: b + 1)
        g = MapSpec(lambda b: b - 1, lambda a: True, lambda a: a + 1)
        with pytest.raises(FuelExhausted):
            CsbBijection(f, g, fuel=50).forward(0)

    def test_negative_fuel_rejected(self):
        f = MapSpec(lambda a: a, lambda b: True, lambda b: b)
        with pytest.raises(BoundViolation):
            CsbBijection(f, f, fuel=-1)
        with pytest.raises(BoundViolation):
            OmegaPowerBijection(OMEGA, fuel=-1)
        with pytest.raises(FuelExhausted):
            CsbBijection(f, f, fuel=0).forward(0)

    def test_inconsistent_mapspec(self):
        f = MapSpec(lambda a: a, lambda b: True, lambda b: b + 1)  # wrong inverse
        g = MapSpec(lambda b: b, lambda a: True, lambda a: a)
        with pytest.raises(InconsistentMapSpec):
            CsbBijection(f, g, fuel=50).forward(3)


class TestOmegaPowerBijection:
    def test_zero_roundtrip(self):
        bij = OmegaPowerBijection(OMEGA)
        assert bij.up(bij.down(ZERO)) == ZERO

    @pytest.mark.parametrize("alpha_text", ["w", "w^2"])
    def test_roundtrips(self, alpha_text):
        alpha = o(alpha_text)
        bij = OmegaPowerBijection(alpha)
        rng = random.Random(5)
        for value in _sample_below(omega_power(alpha), rng, 60):
            assert bij.up(bij.down(value)) == value
        for value in _sample_below(alpha, rng, 60):
            assert bij.down(bij.up(value)) == value

    def test_deeper_alpha_roundtrips(self):
        alpha = o("w^w")
        bij = OmegaPowerBijection(alpha)
        for text in ("0", "7", "w", "w^3*2+w", "w^(w^2)", "w^(w^3+1)*4 + w^w + 2"):
            value = o(text)
            assert bij.up(bij.down(value)) == value
        for text in ("0", "5", "w*2", "w^5+w^2"):
            value = o(text)
            assert bij.down(bij.up(value)) == value

    def test_bound_violations(self):
        bij = OmegaPowerBijection(OMEGA)
        with pytest.raises(BoundViolation):
            bij.down(o("w^w"))
        with pytest.raises(BoundViolation):
            bij.up(OMEGA)

    @given(
        st.sampled_from(["w", "w+3", "w^2", "w^2*3+w", "w^w", "w^(w+1)+5"]),
        nested_ordinals(),
        st.lists(st.tuples(nested_ordinals(), st.integers(0, 3)), max_size=4),
        st.booleans(),
    )
    def test_decode_stays_below_the_power(self, alpha_text, z, digits, encoded):
        # the digit map checks no bound: each exponent is a pair_decode half,
        # so below alpha, and the value it builds lies below w**alpha
        alpha = o(alpha_text)
        if encoded:
            pairs = [pair_encode(alpha, e, Ordinal(c)) for e, c in dict(digits).items()
                     if compare(e, alpha) < 0]
            z = fin_encode(alpha, pairs)
        assume(compare(z, alpha) < 0)
        v = OmegaPowerBijection(alpha)._decode(z)
        event("off the range" if v is None else "decoded")
        assert v is None or compare(v, omega_power(alpha)) < 0

    def test_round_trip_decodes_each_code_once(self, monkeypatch):
        # up's range test and inverse, and down's walk, share the decode
        calls = []
        bij = OmegaPowerBijection(o("w^w"))
        decode = bij._decode_digits
        monkeypatch.setattr(bij, "_decode_digits", lambda z: calls.append(z) or decode(z))
        for text in ("0", "5", "w*2", "w^5+w^2"):
            z = o(text)
            assert bij.down(bij.up(z)) == z
        assert len(calls) == len(set(calls))

    @pytest.mark.parametrize("alpha_text", ["w^w", "w^3 + w", "w*2"])
    def test_round_trip_encodes_each_digit_map_once(self, monkeypatch, alpha_text):
        # down's answer, the inverse check of up's walk, and up's answer ask
        # for one digit map's code: fin_encode runs once per map
        alpha = o(alpha_text)
        bij = OmegaPowerBijection(alpha)
        calls = []
        encode = coding.fin_encode
        monkeypatch.setattr(
            coding, "fin_encode",
            lambda a, members: calls.append(frozenset(m.key for m in members)) or encode(a, members),
        )
        below_alpha = ["0", "1", "5", "w", "w+3", "w*2+1"]
        below_power = ["0", "7", "w", "w^2*3+w+1", "w^(w+1)*2+w^w+4"]
        for text in below_alpha:
            z = o(text)
            if compare(z, alpha) < 0:
                assert bij.down(bij.up(z)) == z
        for text in below_power:
            v = o(text)
            if compare(v, bij.bound) < 0:
                assert bij.up(bij.down(v)) == v
                assert bij.up(bij.down(v)) == v  # again: every code is memoized
        assert calls and len(calls) == len(set(calls))

    def test_direction_dispatch(self, capsys):
        assert main(["cnfbij", "--alpha", "w", "--dir", "down", "w*2+1"]) == 0
        value = capsys.readouterr().out.strip()
        assert main(["cnfbij", "--alpha", "w", "--dir", "up", value]) == 0
        assert capsys.readouterr().out == "w*2 + 1\n"
        with pytest.raises(SystemExit) as err:
            main(["cnfbij", "--alpha", "w", "--dir", "sideways", "0"])
        assert err.value.code == 2


class TestPsetToInfpset:
    def test_empty_set_goes_to_tagged_complement(self):
        alpha = OMEGA
        empty = QueryableSet(lambda x: False, ("finite", ()))
        image = pset_to_infpset(alpha, empty)
        assert image.contains(pair_encode(alpha, Ordinal(9), ONE))
        assert not image.contains(pair_encode(alpha, Ordinal(9), ZERO))

    def test_infinite_set_keeps_members(self):
        alpha = o("w*2")
        evens = QueryableSet(
            lambda x: x.is_nat() and x.nat_value() % 2 == 0,
            ("infinite", lambda k: Ordinal(2 * k)),
        )
        image = pset_to_infpset(alpha, evens)
        assert image.contains(pair_encode(alpha, Ordinal(4), ZERO))
        assert not image.contains(pair_encode(alpha, Ordinal(3), ZERO))
        kind, enum = image.certificate
        assert kind == "infinite"
        members = {enum(k) for k in range(30)}
        assert len(members) == 30 and all(image.contains(m) for m in members)

    def test_finite_set_enumerates_its_complement(self):
        # a finite input's certificate lists the codes (z, 1) for the
        # naturals z outside it, skipping 0 and 3
        alpha = OMEGA
        listed = (Ordinal(3), ZERO)
        finite_set = QueryableSet(lambda x: x in listed, ("finite", listed))
        image = pset_to_infpset(alpha, finite_set)
        kind, enum = image.certificate
        assert kind == "infinite"
        members = [enum(k) for k in range(20)]
        assert len(set(members)) == 20 and all(image.contains(m) for m in members)
        assert [pair_decode(alpha, m)[0].nat_value() for m in members[:4]] == [1, 2, 4, 5]

    def test_injectivity_witness(self):
        alpha = OMEGA
        a = QueryableSet(lambda x: x == ZERO, ("finite", (ZERO,)))
        b = QueryableSet(lambda x: False, ("finite", ()))
        fa, fb = pset_to_infpset(alpha, a), pset_to_infpset(alpha, b)
        probe = pair_encode(alpha, ZERO, ONE)
        assert fa.contains(probe) != fb.contains(probe)

    def test_bad_certificate(self):
        alpha = OMEGA
        liar = QueryableSet(lambda x: False, ("finite", (ONE,)))
        with pytest.raises(CertificateError):
            pset_to_infpset(alpha, liar)
        repeater = QueryableSet(lambda x: True, ("infinite", lambda k: ZERO))
        with pytest.raises(CertificateError):
            pset_to_infpset(alpha, repeater)
        greedy = QueryableSet(lambda x: x.is_nat(), ("finite", (ZERO, ONE)))
        with pytest.raises(CertificateError):
            pset_to_infpset(alpha, greedy)
        with pytest.raises(CertificateError):
            pset_to_infpset(alpha, QueryableSet(lambda x: True, None))
