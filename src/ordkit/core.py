"""Cantor-normal-form ordinal notations below epsilon-0.

An :class:`Ordinal` is an immutable list of ``(exponent, coefficient)``
terms with exponents themselves ordinals, strictly decreasing, and
coefficients positive integers.  The empty list denotes 0 and a natural
number is the single term with exponent 0.  All operations are total,
pure, and safe to share across threads.

Expression grammar (ASCII, whitespace-insensitive)::

    expr := term ("+" term)*
    term := "w" ("^" (atom | "w"))? ("*" atom)? | nat | "n"
    atom := nat | "n" | "(" expr ")"
    nat  := decimal >= 0   (0 forbidden as a coefficient)

A coefficient must evaluate to a natural number >= 1.  The variable ``n``
evaluates only in a template (:func:`parse_template`, the tail rows of
instance files); :func:`parse` rejects it.  The interval sets
``[lo,hi),[lo,hi)`` of instance files go through the same lexer and
parser (``_parse_bounds``).
"""

from __future__ import annotations

import functools
import operator
from typing import Callable, Iterable, Optional

from .errors import BoundViolation, OutOfRangeError, ParseError

__all__ = [
    "Ordinal",
    "ZERO",
    "ONE",
    "OMEGA",
    "parse",
    "parse_template",
    "fmt",
    "compare",
    "add",
    "multiply",
    "omega_power",
    "power_nat",
    "left_subtract",
    "classify",
]


# An ordinal built in code can nest deeper than the parser allows
# (MAX_NESTING).  Its key then passes Python's recursion limit, in the key
# build or in the C comparison of two keys.
_TOO_DEEP = "ordinal nested too deep to compare"


def _by_key(op: Callable) -> Callable:
    """A rich comparison of ordinals (or ints) by their keys; an ordinal
    operand skips the coercion, and a built key is read from its slot."""

    def method(self, other):
        if type(other) is not Ordinal:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        ka, kb = self._key, other._key
        try:
            return op(self.key if ka is None else ka, other.key if kb is None else kb)
        except RecursionError:
            raise BoundViolation(_TOO_DEEP) from None

    return method


def _arith(op: Callable) -> Callable:
    """An arithmetic operator of an ordinal and an ordinal (or int): ``op``
    of the ordinal and the coerced operand."""

    def method(self, other):
        other = _coerce(other)
        return NotImplemented if other is NotImplemented else op(self, other)

    return method


class Ordinal:
    """An ordinal below epsilon-0 in Cantor normal form."""

    __slots__ = ("_terms", "_hash", "_key")

    def __new__(cls, value: int | Iterable = 0):
        if type(value) is int:
            if 0 <= value < _SMALL:  # _NATS exists: the constants below use _raw
                return _NATS[value]
            if value < 0:
                raise BoundViolation("ordinals are non-negative")
            return cls._raw(((ZERO, value),))
        if isinstance(value, int):  # a bool is the natural it equals
            return cls(int(value))
        try:
            terms = tuple(value)
        except TypeError:
            raise BoundViolation(f"not an ordinal: {value!r}") from None
        terms = _validate(terms)
        if len(terms) == 1 and not terms[0][0]._terms:  # a natural: shared below _SMALL
            return _natural(terms[0][1])
        return cls._raw(terms) if terms else ZERO

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, a natural from its
        # int (so the small ones come back shared); the default would set the
        # slots of the ZERO that Ordinal() returns
        return (Ordinal, (self.nat_value() if self.is_nat() else self._terms,))

    @classmethod
    def _raw(cls, terms: tuple) -> "Ordinal":
        self = object.__new__(cls)
        self._terms = terms
        self._hash = None
        self._key = None
        return self

    @classmethod
    def from_terms(cls, terms: Iterable) -> "Ordinal":
        """Build from ``(exponent, coefficient)`` pairs; validates CNF shape."""
        return cls(terms)

    # -- structure ---------------------------------------------------------

    @property
    def terms(self) -> tuple:
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def is_nat(self) -> bool:
        t = self._terms
        return not t or (len(t) == 1 and not t[0][0]._terms)

    def nat_value(self) -> int:
        t = self._terms
        if not t:
            return 0
        if len(t) > 1 or t[0][0]._terms:
            raise OutOfRangeError(f"{self} is not a natural number")
        return t[0][1]

    @property
    def degree(self) -> "Ordinal":
        """Leading exponent; 0 for naturals (error on 0 itself)."""
        if not self._terms:
            raise OutOfRangeError("0 has no degree")
        return self._terms[0][0]

    def is_infinite(self) -> bool:
        return bool(self._terms) and not self._terms[0][0].is_zero()

    # -- comparisons -------------------------------------------------------

    @property
    def key(self) -> tuple:
        """The nested tuple ``((exponent.key, coeff), ...)``, built once.

        Tuples compare lexicographically, a proper prefix first, which on
        these keys is exactly the CNF order."""
        k = self._key
        if k is None:
            try:
                k = self._key = tuple([(e.key, c) for e, c in self._terms])
            except RecursionError:
                raise BoundViolation(_TOO_DEEP) from None
        return k

    __eq__ = _by_key(operator.eq)
    __lt__ = _by_key(operator.lt)
    __le__ = _by_key(operator.le)
    __gt__ = _by_key(operator.gt)
    __ge__ = _by_key(operator.ge)

    def __hash__(self):
        h = self._hash
        if h is None:
            # a natural hashes like the int it equals
            t = self._terms
            if not t:
                h = 0
            elif len(t) == 1 and not t[0][0]._terms:
                h = hash(t[0][1])
            else:
                h = hash(self.key)
            self._hash = h
        return h

    def __bool__(self):
        return bool(self._terms)

    # -- arithmetic --------------------------------------------------------

    # add and multiply are read at call time: they are defined below
    __add__ = _arith(lambda a, b: add(a, b))
    __radd__ = _arith(lambda a, b: add(b, a))
    __mul__ = _arith(lambda a, b: multiply(a, b))
    __rmul__ = _arith(lambda a, b: multiply(b, a))

    def __int__(self):
        return self.nat_value()

    def __str__(self):
        return fmt(self)

    def __repr__(self):
        return f"Ordinal({fmt(self)!r})"


def _coerce(value) -> "Ordinal":
    if isinstance(value, Ordinal):
        return value
    if isinstance(value, int):
        return Ordinal(value)
    return NotImplemented


def _validate(terms: tuple) -> tuple:
    fixed = []
    prev = None
    for item in terms:
        try:
            exp, coeff = item
        except (TypeError, ValueError):
            raise BoundViolation("terms must be (exponent, coefficient) pairs") from None
        exp = _coerce(exp)
        if exp is NotImplemented or not isinstance(coeff, int):
            raise BoundViolation("bad term component types")
        coeff = int(coeff)  # a bool is stored as the natural it equals
        if coeff < 1:
            raise BoundViolation("coefficients must be >= 1")
        if prev is not None and compare(prev, exp) <= 0:
            raise BoundViolation("exponents must be strictly decreasing")
        fixed.append((exp, coeff))
        prev = exp
    return tuple(fixed)


ZERO = Ordinal._raw(())
ONE = Ordinal._raw(((ZERO, 1),))
OMEGA = Ordinal._raw(((ONE, 1),))

# The naturals below _SMALL, the atoms that make up most exponents,
# coefficients, positions and pair codes, are the ones the constructor and
# the parser return.  Their keys and hashes (and OMEGA's) are built here, so
# nothing is written to a shared ordinal after import.
_SMALL = 64
_NATS = (ZERO, ONE, *(Ordinal._raw(((ZERO, k),)) for k in range(2, _SMALL)))
for _x in (*_NATS, OMEGA):
    _x._key, _x._hash = _x.key, hash(_x)
del _x


def _natural(k: int) -> Ordinal:
    """The natural ``k >= 0`` without the constructor call: shared below _SMALL."""
    return _NATS[k] if k < _SMALL else Ordinal._raw(((ZERO, k),))


def compare(a: Ordinal, b: Ordinal) -> int:
    """Standard ordinal order: -1, 0, or 1."""
    ka, kb = a._key, b._key  # the slot skips the property call once the key is built
    if ka is None:
        ka = a.key
    if kb is None:
        kb = b.key
    try:
        return (ka > kb) - (ka < kb)
    except RecursionError:
        raise BoundViolation(_TOO_DEEP) from None


# eventual._Row.add repeats these tests on tail forms; keep in step
def add(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal sum; terms of ``a`` below the degree of ``b`` are absorbed."""
    if not b._terms:
        return a
    if not a._terms:
        return b
    eb = b._terms[0][0]
    kb = eb.key
    i = 0
    ta = a._terms
    while i < len(ta) and ta[i][0].key > kb:
        i += 1
    if i < len(ta) and ta[i][0].key == kb:
        c = ta[i][1] + b._terms[0][1]
        if not (i or kb):  # two naturals
            return _natural(c)
        return Ordinal._raw(ta[:i] + ((eb, c),) + b._terms[1:])
    return Ordinal._raw(ta[:i] + b._terms)


def multiply(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal product, distributing over the right argument's terms."""
    if not a._terms or not b._terms:
        return ZERO
    lead_e, lead_c = a._terms[0]
    result = ZERO
    for e, c in b._terms:
        if e.is_zero():
            part = Ordinal._raw(((lead_e, lead_c * c),) + a._terms[1:])
        else:
            part = Ordinal._raw(((add(lead_e, e), c),))
        result = add(result, part)
    return result


def omega_power(a: Ordinal) -> Ordinal:
    """The ordinal w**a."""
    return Ordinal._raw(((a, 1),))


def power_nat(a: Ordinal, n: int) -> Ordinal:
    """Iterated product ``a * a * ... * a`` (n factors); a**0 = 1."""
    if n < 0:
        raise BoundViolation("exponent must be a natural number")
    result = ONE
    base = a
    while n:
        if n & 1:
            result = multiply(result, base)
        base = multiply(base, base)
        n >>= 1
    return result


# eventual._Row.subtract repeats these tests on tail forms; keep in step
def left_subtract(a: Ordinal, b: Ordinal) -> Ordinal:
    """The unique g with a + g = b; requires a <= b."""
    if not a._terms:
        return b
    c = compare(a, b)
    if c > 0:
        raise OutOfRangeError(f"cannot left-subtract: {a} > {b}")
    if c == 0:
        return ZERO
    ta, tb = a._terms, b._terms
    i = 0
    while i < len(ta) and i < len(tb) and ta[i] == tb[i]:
        i += 1
    if i == len(ta):
        return _natural(tb[i][1]) if not tb[i][0]._terms else Ordinal._raw(tb[i:])
    ea, ca = ta[i]
    eb, cb = tb[i]
    if ea.key < eb.key:
        return Ordinal._raw(tb[i:])
    # compare(a, b) < 0 forces ea == eb with ca < cb here
    if not eb._terms:  # the constants: b's last term
        return _natural(cb - ca)
    return Ordinal._raw(((eb, cb - ca),) + tb[i + 1:])


def classify(x: Ordinal) -> tuple:
    """Return ('zero', None), ('successor', pred), or ('limit', degree)."""
    if not x._terms:
        return ("zero", None)
    last_e, last_c = x._terms[-1]
    if last_e.is_zero():
        if last_c == 1:
            pred = Ordinal._raw(x._terms[:-1])
        else:
            pred = Ordinal._raw(x._terms[:-1] + ((last_e, last_c - 1),))
        return ("successor", pred)
    return ("limit", x._terms[0][0])


# -- parsing ---------------------------------------------------------------


# ASCII only: str.isdigit also accepts superscripts and other scripts' digits
_DIGITS = "0123456789"

# Deeper parentheses are a syntax error.  The parser, the evaluator, fmt and
# the comparison key recurse once per level, and at about 330 levels the
# parser alone meets Python's default recursion limit of 1000.
MAX_NESTING = 300


class _Lexer:
    """One token ahead: after each consumed token, spaces and tabs are
    skipped once and the next token is stored in ``tok``, with ``pos``
    where it starts.  A token is ``"nat"`` (a digit run), any other single
    character, or None at the end.  The parser reads ``tok`` and, where it
    already knows the token, consumes it with ``advance(pos + 1)``."""

    def __init__(self, text: str):
        self.text = text
        self.depth = 0  # open parentheses
        self.advance(0)

    def advance(self, pos: int):
        text = self.text
        end = len(text)
        while pos < end and text[pos] in " \t":
            pos += 1
        self.pos = pos
        if pos == end:
            self.tok = None
        else:
            ch = text[pos]
            self.tok = "nat" if ch in _DIGITS else ch

    def take_nat(self) -> int:
        text = self.text
        start = end = self.pos
        while end < len(text) and text[end] in _DIGITS:
            end += 1
        self.advance(end)
        return _nat_int(text[start:end])

    def expect(self, ch: str):
        if self.tok != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.advance(self.pos + 1)


# Python's int <-> str conversion refuses more digits than
# sys.get_int_max_str_digits(); finite-set codes can have such coefficients,
# and decimal converts them without the limit.  decimal is imported only
# when needed: loading it costs every process about 0.4 MB.


def _nat_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        import decimal

        return int(decimal.Decimal(text))


def _nat_str(n: int) -> str:
    try:
        return str(n)
    except ValueError:
        import decimal

        return str(decimal.Decimal(n))


# AST nodes: an Ordinal, the leaf (every sub-expression without n is parsed
# to its value); ('var', pos); ('add', [terms]), a sum with a node among its
# terms, its constant prefix folded into one leaf; ('term', exp, coeff, pos),
# w^exp*coeff with exp a leaf or a node and coeff an int or a node; and
# ('raise', message, pos), a coefficient check that failed in a constant
# part.  That one raises when evaluated, so a later syntax error comes first.

_BAD_COEFFICIENT = "coefficient must be a natural number >= 1"


def _parse_expr(lx: _Lexer):
    value = _parse_term(lx)
    terms = None  # the sum's terms, once one of them is a node
    while lx.tok == "+":
        lx.advance(lx.pos + 1)
        term = _parse_term(lx)
        if terms is not None:
            terms.append(term)
        elif type(value) is Ordinal and type(term) is Ordinal:
            value = add(value, term)
        else:
            terms = [value, term]
    return value if terms is None else ("add", terms)


def _parse_term(lx: _Lexer):
    tok = lx.tok
    pos = lx.pos
    if tok != "w":
        if tok == "(":  # a parenthesized expression is an exponent or a coefficient
            raise ParseError("expected a term", pos)
        return _parse_atom(lx, "expected a term")
    lx.advance(pos + 1)
    exp = ONE
    if lx.tok == "^":
        lx.advance(lx.pos + 1)
        if lx.tok == "w":
            exp = OMEGA
            lx.advance(lx.pos + 1)
        else:
            exp = _parse_atom(lx, "expected an exponent atom")
    coeff = 1
    if lx.tok == "*":
        lx.advance(lx.pos + 1)
        literal, coeff_pos = lx.tok == "nat", lx.pos
        coeff = _parse_atom(lx, "expected a coefficient")
        if type(coeff) is Ordinal:
            t = coeff._terms
            if len(t) == 1 and not t[0][0]._terms:
                coeff = t[0][1]
            elif literal:
                raise ParseError("coefficient 0 is not allowed", coeff_pos)
            elif type(exp) is Ordinal:
                return ("raise", _BAD_COEFFICIENT, pos)
            else:
                coeff = ("raise", _BAD_COEFFICIENT, pos)
    if type(exp) is Ordinal and type(coeff) is int:
        return Ordinal._raw(((exp, coeff),))
    return ("term", exp, coeff, pos)


def _parse_atom(lx: _Lexer, expected: str):
    """``nat | "n" | "(" expr ")"``; ``expected`` names the position in
    the error raised on anything else."""
    tok = lx.tok
    pos = lx.pos
    if tok == "nat":
        return _natural(lx.take_nat())
    if tok == "n":
        lx.advance(pos + 1)
        return ("var", pos)
    if tok != "(":
        raise ParseError(expected, pos)
    lx.advance(pos + 1)
    lx.depth += 1
    if lx.depth > MAX_NESTING:
        raise ParseError(f"more than {MAX_NESTING} nested parentheses", pos)
    inner = _parse_expr(lx)
    lx.expect(")")
    lx.depth -= 1
    return inner


# eventual._Row.evaluate repeats these tests on tail forms; keep in step
def _eval_ast(ast, n: Optional[int]) -> Ordinal:
    if type(ast) is Ordinal:
        return ast
    kind = ast[0]
    if kind == "var":
        if n is None:
            raise ParseError("variable n outside template", ast[1])
        return Ordinal(n)
    if kind == "add":
        terms = iter(ast[1])
        value = _eval_ast(next(terms), n)
        for term in terms:
            value = add(value, _eval_ast(term, n))
        return value
    if kind == "term":
        _, exp, coeff, pos = ast
        exp = _eval_ast(exp, n)
        if type(coeff) is not int:
            t = _eval_ast(coeff, n)._terms
            if len(t) != 1 or t[0][0]._terms:  # 0, or not a natural
                raise ParseError(_BAD_COEFFICIENT, pos)
            coeff = t[0][1]
        return Ordinal._raw(((exp, coeff),))
    if kind == "raise":
        raise ParseError(ast[1], ast[2])
    raise AssertionError(f"unknown node {kind}")


def _parse_to_ast(text: str):
    lx = _Lexer(text)
    ast = _parse_expr(lx)
    if lx.tok is not None:
        raise ParseError("trailing input", lx.pos)
    return ast


def _parse_bounds(text: str) -> list:
    """Parse ``[lo,hi),[lo,hi)`` (a trailing comma allowed) into the list of
    ``(lo, hi)`` bound ASTs."""
    lx = _Lexer(text)
    asts = []
    while lx.tok is not None:
        lx.expect("[")
        lo = _parse_expr(lx)
        lx.expect(",")
        hi = _parse_expr(lx)
        lx.expect(")")  # closes the interval, not a group: the depth stays
        asts.append((lo, hi))
        if lx.tok is not None:
            lx.expect(",")
    return asts


def _eval_bounds(asts: list, n: Optional[int]) -> list:
    """The ``(lo, hi)`` bound pairs of :func:`_parse_bounds` ASTs at ``n``."""
    return [(_eval_ast(lo, n), _eval_ast(hi, n)) for lo, hi in asts]


def parse(text: str) -> Ordinal:
    """Parse an ordinal expression; non-canonical input is normalized."""
    return _eval_ast(_parse_to_ast(text), None)


def parse_template(text: str) -> Callable[[Optional[int]], Ordinal]:
    """Parse an expression that may use the variable ``n``; the result
    evaluates it at ``n`` (None rejects the variable)."""
    return functools.partial(_eval_ast, _parse_to_ast(text))


# -- formatting ------------------------------------------------------------


def _is_one(x: Ordinal) -> bool:
    t = x._terms
    return len(t) == 1 and t[0][1] == 1 and not t[0][0]._terms


def fmt(x: Ordinal) -> str:
    """Canonical rendering; ``parse(fmt(x)) == x``.  Exponents 0, 1 and
    w are recognised from their terms."""
    if not x._terms:
        return "0"
    parts = []
    for e, c in x._terms:
        t = e._terms
        if not t:
            parts.append(_nat_str(c))
            continue
        if len(t) == 1 and not t[0][0]._terms:  # a natural exponent
            body = "w" if t[0][1] == 1 else "w^" + _nat_str(t[0][1])
        elif len(t) == 1 and t[0][1] == 1 and _is_one(t[0][0]):
            body = "w^w"
        else:
            body = f"w^({fmt(e)})"
        if c > 1:
            body += "*" + _nat_str(c)
        parts.append(body)
    return " + ".join(parts)
