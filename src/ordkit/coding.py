"""Explicit codings below epsilon-0.

They read an ordinal's terms as its digit map, exponents to digits.  The
digit-wise Cantor pairing injection alpha x alpha -> alpha and the
decoding of the finite-set coding fin(alpha) -> alpha work on term tuples
``x.terms`` themselves, already sorted by descending exponent.  Where
digits from several ordinals meet in a dict -- the column codes of
:func:`fin_encode` and the decoded digit map of the omega-power bijection
w**alpha <-> alpha -- :func:`from_digits` sorts them back.  Also: a
constructive bijection combinator from two opposing injections, and the
injection P(alpha) -> P_inf(alpha) on queryable sets.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterable, Optional

from .carriers import QueryableSet
from .core import ONE, ZERO, Ordinal, _natural, add, compare, omega_power
from .errors import BoundViolation, CertificateError, FuelExhausted, InconsistentMapSpec

__all__ = [
    "cantor_pair",
    "cantor_unpair",
    "pair_encode",
    "pair_decode",
    "fin_encode",
    "fin_decode",
    "MapSpec",
    "CsbBijection",
    "OmegaPowerBijection",
    "pset_to_infpset",
]


# -- digit maps --------------------------------------------------------------


def from_digits(digits: dict) -> Ordinal:
    """The ordinal whose digit map is ``digits``, so that
    ``from_digits(dict(x.terms)) == x``.  Zero digits are dropped; the rest
    is trusted: ordinal exponents and natural digits make a valid CNF."""
    terms = [(e, d) for e, d in digits.items() if d]
    terms.sort(key=lambda term: term[0].key, reverse=True)
    return Ordinal._raw(tuple(terms))


# -- natural-number pairing ---------------------------------------------------


def cantor_pair(a: int, b: int) -> int:
    """Cantor pairing (a+b)(a+b+1)/2 + b, a bijection of pairs onto naturals."""
    s = a + b
    return s * (s + 1) // 2 + b


def cantor_unpair(z: int) -> tuple:
    s = (math.isqrt(8 * z + 1) - 1) // 2
    b = z - s * (s + 1) // 2
    return s - b, b


# Longest code one pairing step may make.  {0..15} below w codes in 41,594
# bits and each further member about doubles the code, so {0..16} is refused.
_MAX_CODE_BITS = 1 << 16


def _tuple_code(digits: tuple) -> int:
    """Right-nested Cantor coding of a fixed-arity tuple of naturals.  Each
    pairing step about doubles the code's length, so a step that takes it
    past _MAX_CODE_BITS raises rather than growing without end."""
    code = digits[-1]
    for d in reversed(digits[:-1]):
        code = cantor_pair(d, code)
        if code.bit_length() > _MAX_CODE_BITS:
            raise BoundViolation(f"finite-set code passes {_MAX_CODE_BITS} bits")
    return code


def _tuple_decode(code: int, arity: int) -> tuple:
    """Inverse of :func:`_tuple_code` for ``arity >= 1``."""
    out = []
    for _ in range(arity - 1):
        d, code = cantor_unpair(code)
        out.append(d)
    out.append(code)
    return tuple(out)


# -- degree reduction: embed [0, alpha) into [0, w**mu), mu = degree(alpha) --


# both run on every pair code, so they read the terms slot directly
def _require_infinite(alpha: Ordinal):
    t = alpha._terms
    if not t or not t[0][0]._terms:
        raise BoundViolation(f"alpha must be infinite, got {alpha}")


def _is_omega_power(alpha: Ordinal) -> bool:
    t = alpha._terms
    return len(t) == 1 and t[0][1] == 1


def _embed_terms(alpha: Ordinal, terms: tuple) -> tuple:
    """Injection [0, alpha) -> [0, w**mu) on the terms of an x below alpha
    (not checked); identity when alpha = w**mu."""
    if _is_omega_power(alpha):
        return terms
    # x = w**mu * q + r with q a natural (alpha < w**(mu+1) forces q < w):
    # only the first term can sit at mu, only the last can be the constant
    q = d0 = 0
    if terms and compare(terms[0][0], alpha.degree) == 0:
        q, terms = terms[0][1], terms[1:]
    if terms and terms[-1][0].is_zero():
        d0, terms = terms[-1][1], terms[:-1]
    if q or d0:
        terms += ((ZERO, cantor_pair(q, d0)),)
    return terms


def _unembed_terms(alpha: Ordinal, terms: tuple) -> Optional[Ordinal]:
    """Inverse of :func:`_embed_terms` on the terms of a u below w**mu (not
    checked); None off its range."""
    if _is_omega_power(alpha):
        return Ordinal._raw(terms)
    code = 0
    if terms and terms[-1][0].is_zero():
        code, terms = terms[-1][1], terms[:-1]
    q, d0 = cantor_unpair(code)
    if d0:
        terms += ((ZERO, d0),)
    if not q:
        return Ordinal._raw(terms)  # below w**mu, so below alpha
    x = Ordinal._raw(((alpha.degree, q),) + terms)
    return x if compare(x, alpha) < 0 else None


# -- pairing on ordinals -------------------------------------------------------


def pair_encode(alpha: Ordinal, x: Ordinal, y: Ordinal) -> Ordinal:
    """Injective pairing: [0, alpha) x [0, alpha) -> [0, alpha), alpha infinite.

    Both components are embedded into w**degree(alpha) and paired
    digit-wise with the Cantor pairing, a missing digit counting as 0: one
    merge of the two term tuples by exponent.  Each bound is checked once.
    Two naturals, which lie below every infinite alpha, pair in closed form.
    """
    _require_infinite(alpha)
    tx, ty = x._terms, y._terms  # a natural has no term, or one of exponent 0
    if len(tx) < 2 and len(ty) < 2 and not (tx and tx[0][0]._terms or ty and ty[0][0]._terms):
        m, n = tx[0][1] if tx else 0, ty[0][1] if ty else 0
        if not _is_omega_power(alpha):
            m, n = cantor_pair(0, m), cantor_pair(0, n)  # as _embed_terms does
        return _natural(cantor_pair(m, n))
    if compare(x, alpha) >= 0 or compare(y, alpha) >= 0:
        raise BoundViolation("pair components must lie below alpha")
    u, v = _embed_terms(alpha, x.terms), _embed_terms(alpha, y.terms)
    terms = []
    i = j = 0
    while i < len(u) or j < len(v):
        # the larger exponent first; where both have it, both digits go in
        in_u = j == len(v) or (i < len(u) and u[i][0].key >= v[j][0].key)
        in_v = i == len(u) or (j < len(v) and v[j][0].key >= u[i][0].key)
        e = u[i][0] if in_u else v[j][0]
        terms.append((e, cantor_pair(u[i][1] if in_u else 0, v[j][1] if in_v else 0)))
        i += in_u
        j += in_v
    return Ordinal._raw(tuple(terms))


def pair_decode(alpha: Ordinal, z: Ordinal) -> Optional[tuple]:
    """Inverse of :func:`pair_encode` on its range; None off the range."""
    _require_infinite(alpha)
    t = z._terms
    if not t or len(t) == 1 and not t[0][0]._terms:  # a natural
        du, dv = cantor_unpair(t[0][1] if t else 0)
        if _is_omega_power(alpha):
            return _natural(du), _natural(dv)
        (qu, du), (qv, dv) = cantor_unpair(du), cantor_unpair(dv)
        if not qu and not qv:
            return _natural(du), _natural(dv)
        # a half with a w**mu digit is compared with alpha below
    # pair codes, and so both halves, lie strictly below w**mu; a z of degree
    # mu or more is also every z that is not below alpha
    if z.terms and compare(z.degree, alpha.degree) >= 0:
        return None
    # each half keeps z's descending exponent order
    u_terms, v_terms = [], []
    for e, c in z.terms:
        du, dv = cantor_unpair(c)
        if du:
            u_terms.append((e, du))
        if dv:
            v_terms.append((e, dv))
    x = _unembed_terms(alpha, tuple(u_terms))
    y = _unembed_terms(alpha, tuple(v_terms))
    if x is None or y is None:
        return None
    return x, y


# -- finite-set coding ---------------------------------------------------------


def fin_encode(alpha: Ordinal, elements: Iterable) -> Ordinal:
    """Injective coding of finite subsets of [0, alpha) into [0, alpha).

    Per exponent column the member digits are tuple-coded; the arity is
    prefixed into the constant slot.  The empty set maps to 0.  A set whose
    code passes _MAX_CODE_BITS raises BoundViolation.
    """
    _require_infinite(alpha)
    members = sorted(elements, key=attrgetter("key"), reverse=True)
    for a, b in zip(members, members[1:]):
        if compare(a, b) == 0:
            raise BoundViolation("finite-set coding needs distinct elements")
    if not members:
        return ZERO
    if compare(members[0], alpha) >= 0:
        raise BoundViolation(f"{members[0]} is not below {alpha}")
    # under alpha = w**mu the members are their own embeddings, in order
    embedded = members
    if not _is_omega_power(alpha):
        embedded = [Ordinal._raw(_embed_terms(alpha, x.terms)) for x in members]
        embedded.sort(key=attrgetter("key"), reverse=True)
    arity = len(embedded)
    member_digits = [dict(u.terms) for u in embedded]
    support = {ZERO}.union(*member_digits)
    digits = {}
    for e in support:
        column = tuple(u.get(e, 0) for u in member_digits)
        # the constant slot's tuple starts with the arity
        digits[e] = _tuple_code((arity, *column) if e == ZERO else column)
    return from_digits(digits)


def fin_decode(alpha: Ordinal, z: Ordinal) -> Optional[list]:
    """Inverse of :func:`fin_encode` on its range; None off the range.

    Returns the strictly decreasing list of members.
    """
    _require_infinite(alpha)
    if z.is_zero():
        return []
    if compare(z, alpha) >= 0:
        return None
    # the constant column comes last and starts with the arity
    columns = list(z.terms)
    constant = columns.pop()[1] if columns[-1][0].is_zero() else 0
    arity, d0 = cantor_unpair(constant)
    if d0:
        columns.append((ZERO, d0))
    # members are distinct and only the last can be 0, so the member before
    # it has a nonzero digit at position arity - 2 of some column; each
    # pairing step left of a nonzero tail at least doubles it, so that
    # column's code is at least 2**(arity - 2)
    if arity < 1 or arity > 2 + max((code for _, code in columns), default=0).bit_length():
        return None
    # fin_encode refuses what _tuple_code refuses: a column code past
    # _MAX_CODE_BITS made by a pairing step (each step's code is at least the
    # last one's).  The constant column always pairs, the others for arity >= 2.
    if constant.bit_length() > _MAX_CODE_BITS or (
        arity > 1 and any(code.bit_length() > _MAX_CODE_BITS for _, code in columns)
    ):
        return None
    # each member's terms come out in z's descending exponent order
    per_member: list = [[] for _ in range(arity)]
    for e, code in columns:
        for terms, d in zip(per_member, _tuple_decode(code, arity)):
            if d:
                terms.append((e, d))
    embedded = [Ordinal._raw(tuple(terms)) for terms in per_member]
    # fin_encode writes the embedded members strictly decreasing, so distinct
    # and below w**mu when the first one is
    if any(u.key <= v.key for u, v in zip(embedded, embedded[1:])):
        return None
    if embedded[0].terms and compare(embedded[0].degree, alpha.degree) >= 0:
        return None
    if _is_omega_power(alpha):
        return embedded  # the members themselves
    members = [_unembed_terms(alpha, u.terms) for u in embedded]
    if any(x is None for x in members):
        return None
    members.sort(key=attrgetter("key"), reverse=True)
    return members


# -- constructive bijection from two injections ---------------------------------


@dataclass
class MapSpec:
    """An evaluable injection with range test and inverse-on-range."""

    apply: Callable
    in_range: Callable
    invert: Callable
    label: str = ""


class CsbBijection:
    """Bijection built from injections f: A -> B and g: B -> A.

    Elements whose backward chain terminates on the A side (or never
    terminates, including cycles) map through f; the rest map through
    the inverse of g.  Chain chasing is fuel-bounded and memoized per
    instance, one memo per side shared by both directions; instances are
    single-owner.
    """

    def __init__(self, f: MapSpec, g: MapSpec, fuel: int = 10_000):
        if fuel < 0:
            raise BoundViolation(f"fuel must be non-negative, not {fuel}")
        self.f = f
        self.g = g
        self.fuel = fuel
        self._side_a: dict = {}
        self._side_b: dict = {}

    def _checked_invert(self, spec: MapSpec, value):
        pre = spec.invert(value)
        back = spec.apply(pre)
        if back != value:
            raise InconsistentMapSpec(
                f"inverse check failed for {spec.label or 'map'}: {pre!r} -> {back!r} != {value!r}"
            )
        return pre

    def _classify(self, value, memo: dict, other_memo: dict, first: MapSpec, second: MapSpec,
                  sides: str):
        """Side ('A' or 'B') of the chain through ``value``, followed
        backwards: through ``first``, then ``second``, and so on.  The chain
        stops where the next inverse is missing, on ``sides[0]`` at
        ``first`` and ``sides[1]`` at ``second``; a cycle counts as 'A'.

        The side is the chain's origin, the same from either direction, so
        the opposite-side elements the walk meets go into ``other_memo``,
        the memo of the other direction, and a walk ends at one found there."""
        seen = set()
        trail = []
        others = []
        for _ in range(self.fuel):
            if value in memo:
                side = memo[value]
                break
            if value in seen:
                side = "A"  # cyclic chain: route through f
                break
            seen.add(value)
            trail.append(value)
            if not first.in_range(value):
                side = sides[0]
                break
            other = self._checked_invert(first, value)
            if other in other_memo:
                side = other_memo[other]
                break
            others.append(other)
            if not second.in_range(other):
                side = sides[1]
                break
            value = self._checked_invert(second, other)
        else:
            raise FuelExhausted(f"chain classification undecided after {self.fuel} steps")
        for visited in trail:
            memo[visited] = side
        for visited in others:
            other_memo[visited] = side
        return side

    def forward(self, a):
        if self._classify(a, self._side_a, self._side_b, self.g, self.f, "AB") == "A":
            return self.f.apply(a)
        return self._checked_invert(self.g, a)

    def backward(self, b):
        if self._classify(b, self._side_b, self._side_a, self.f, self.g, "BA") == "B":
            return self.g.apply(b)
        return self._checked_invert(self.f, b)


# -- the omega-power bijection ----------------------------------------------------


class OmegaPowerBijection:
    """Bijection between [0, w**alpha) and [0, alpha) for infinite alpha.

    Forward (down) codes a value's digit map as a finite set of paired
    (exponent, digit) codes inside alpha; the opposing injection sends
    each ordinal below alpha to its omega power.  The two are glued by
    the two-sided-injection combinator.
    """

    def __init__(self, alpha: Ordinal, fuel: int = 10_000):
        _require_infinite(alpha)
        self.alpha = alpha
        self.bound = omega_power(alpha)
        # both memos are keyed by Ordinal.key: a key tuple hashes no ordinal
        self._decoded: dict = {}  # the digit map per code, None off the range
        codes: dict = {}  # the code per digit map

        def encode(v: Ordinal) -> Ordinal:
            # an inverse check, its answer and the walk back ask for one code
            key = v.key
            z = codes.get(key)
            if z is None:
                pairs = [pair_encode(alpha, e, Ordinal(c)) for e, c in v.terms]
                z = codes[key] = fin_encode(alpha, pairs)
            return z

        def in_encode_range(z: Ordinal) -> bool:
            return self._decode(z) is not None

        def decode(z: Ordinal) -> Ordinal:
            v = self._decode(z)
            if v is None:
                raise InconsistentMapSpec(f"{z} is not an encoded digit map")
            return v

        def in_power_range(v: Ordinal) -> bool:
            return _is_omega_power(v) and compare(v.degree, alpha) < 0

        self._csb = CsbBijection(
            MapSpec(encode, in_encode_range, decode, "digit-code"),
            MapSpec(omega_power, in_power_range, attrgetter("degree"), "omega-power"),
            fuel=fuel,
        )

    def _decode(self, z: Ordinal) -> Optional[Ordinal]:
        # the range test and the inverse both ask; _decode_digits is read at
        # call time, so that it can be replaced on an instance
        key = z.key
        try:
            return self._decoded[key]
        except KeyError:
            v = self._decoded[key] = self._decode_digits(z)
            return v

    def _decode_digits(self, z: Ordinal) -> Optional[Ordinal]:
        codes = fin_decode(self.alpha, z)
        if codes is None:
            return None
        digits = {}
        for code in codes:
            decoded = pair_decode(self.alpha, code)
            if decoded is None:
                return None
            e, c = decoded
            if not c.is_nat() or c.nat_value() < 1 or e in digits:
                return None
            digits[e] = c.nat_value()
        # every exponent is a pair_decode half, so below alpha: v < w**alpha
        return from_digits(digits)

    def down(self, v: Ordinal) -> Ordinal:
        if compare(v, self.bound) >= 0:
            raise BoundViolation(f"{v} is not below w**alpha = {self.bound}")
        return self._csb.forward(v)

    def up(self, z: Ordinal) -> Ordinal:
        if compare(z, self.alpha) >= 0:
            raise BoundViolation(f"{z} is not below alpha = {self.alpha}")
        return self._csb.backward(z)


# -- P(alpha) -> P_inf(alpha) -----------------------------------------------------


# leading naturals a certificate must agree with before pset_to_infpset trusts it
_CERTIFICATE_SAMPLES = 32


def pset_to_infpset(alpha: Ordinal, qset: QueryableSet) -> QueryableSet:
    """Injective map from subsets of [0, alpha) to infinite subsets.

    An infinite input A becomes the set of pair codes (z, 0) with z in A;
    a finite input becomes the codes (z, 1) with z outside A.  The output
    carries an infinite-enumerator certificate.
    """
    _require_infinite(alpha)
    if qset.certificate is None:
        raise CertificateError("a finiteness certificate is required")
    # alpha is infinite, so the first naturals all lie below it
    probes = map(Ordinal, range(_CERTIFICATE_SAMPLES))
    qset.validate_certificate(lambda x: compare(x, alpha) < 0, probes, _CERTIFICATE_SAMPLES)
    kind, payload = qset.certificate
    keep_members = kind == "infinite"
    member_tag = ZERO if keep_members else ONE
    # pair_decode is pure: each code is decoded once per set
    decode = functools.cache(functools.partial(pair_decode, alpha))

    def membership(y: Ordinal) -> bool:
        decoded = decode(y)
        return (
            decoded is not None
            and decoded[1] == member_tag
            and qset.contains(decoded[0]) == keep_members
        )

    if keep_members:
        def enumerate_member(k: int) -> Ordinal:
            return pair_encode(alpha, payload(k), ZERO)
    else:
        listed = set(payload)

        def enumerate_member(k: int) -> Ordinal:
            # complement members among the naturals, skipping the listed set
            x = ZERO
            remaining = k
            while True:
                if x not in listed:
                    if remaining == 0:
                        return pair_encode(alpha, x, ONE)
                    remaining -= 1
                x = add(x, ONE)

    return QueryableSet(membership, ("infinite", enumerate_member))
