"""Where a parsed tail settles: tail rows as eventual Cantor normal forms.

A tail row of an instance file is a function of ``n``.  Read symbolically,
each ordinal it builds is an *eventual CNF*: a tuple of ``(exponent,
coefficient)`` terms whose exponents are eventual CNFs and whose
coefficients are pairs ``(a, b)`` standing for ``a*n + b``.  The empty
tuple is 0.  A form stands for one ordinal per ``n``, a valid CNF (every
coefficient >= 1, exponents strictly decreasing) from some ``n`` on; two
different forms then differ for all large ``n``.

:class:`_Row` builds and images a row on eventual forms.  It runs the
interval steps of :mod:`intervals`, ``Piece.image``'s among them, as
their bound type, and repeats :mod:`core`'s ``add``, ``left_subtract``
and template evaluation with its "coefficient must be >= 1" check
(another term representation).  Each of those names its counterpart
here: the two must make the same tests in the same order.  A comparison
``a < b`` (or ``<=``, ``==``, ...) returns its final outcome, the one it
has for all large ``n``, and raises ``_Row.at`` to the least ``n`` from
which it has that outcome.  From ``at`` on, every concrete row takes the
same steps, so its image and its order type keep one CNF shape with
coefficients affine in ``n``, and a check that raises there raises on
every later row.

The parser checks a tail's block names once, as its first row, before it
asks where the tail settles, so this module reads only the blocks' order
types and never which blocks a carrier has.
"""

from __future__ import annotations

from functools import cmp_to_key
from operator import eq, ge, gt, lt

from .core import ZERO, Ordinal, _natural
from .intervals import canonical, monotone_image, order_type, point, union

__all__ = ["settle_point", "TailImage"]

_ZERO = ()
_ONE = ((_ZERO, (0, 1)),)


def _lift(x) -> tuple:
    """The constant eventual form of an ordinal."""
    return tuple((_lift(e), (0, c)) for e, c in x.terms)


def _value(x: tuple, n: int) -> Ordinal:
    """The form's value at ``n``, where it is a valid CNF; 0 and the naturals
    below 64 are the shared ones that :mod:`core` returns."""
    if len(x) == 1 and not x[0][0]:  # a natural
        a, b = x[0][1]
        return _natural(a * n + b)
    return Ordinal._raw(tuple([(_value(e, n), a * n + b) for e, (a, b) in x])) if x else ZERO


def _key(x: tuple, n: int) -> tuple:
    """``Ordinal.key`` of the form's value at ``n``."""
    return tuple([(_key(e, n), a * n + b) for e, (a, b) in x])


def _affine_compare(c: tuple, d: tuple, floor: int) -> tuple:
    """``(sign, since)`` for ``a*n + b`` against ``p*n + q``: the final sign
    and the least ``since >= floor`` from which it holds."""
    (a, b), (p, q) = c, d
    if a == p:
        return (b > q) - (b < q), floor
    sign = 1 if a > p else -1
    # the least n with sign * ((a - p)*n + b - q) > 0
    return sign, max(floor, sign * (q - b) // (sign * (a - p)) + 1)


def _compare(x: tuple, y: tuple, floor: int) -> tuple:
    """``(sign, since)`` for two forms valid from ``floor``, as for
    :func:`_affine_compare`."""
    for (ex, cx), (ey, cy) in zip(x, y):
        if ex != ey:
            sign, since = _compare(ex, ey, floor)
            break
        if cx != cy:
            sign, since = _affine_compare(cx, cy, floor)
            break
    else:
        return (len(x) > len(y)) - (len(x) < len(y)), floor
    # The first differing term's sign moves monotonically with n and is 0
    # at one n at most.  There the later terms decide, and they may give
    # the final sign one row early.
    if since > floor:
        kx, ky = _key(x, since - 1), _key(y, since - 1)
        if (kx > ky) - (kx < ky) == sign:
            since -= 1
    return sign, since


class _Raises(Exception):
    """A check that raises on every row from ``_Row.at`` on."""


class _Row:
    """The steps of building and imaging one tail row, on eventual forms.

    Each step asks what the concrete code asks, ``op(a, b)`` for a
    comparison ``op`` of two values, and :meth:`holds` answers with the
    final outcome of that test."""

    def __init__(self, start: int):
        self.at = start

    def holds(self, op, x: tuple, y: tuple) -> bool:
        """The final outcome ``op(sign, 0)`` of comparing ``x`` with ``y``,
        whose sign is ``sign`` from ``since`` on, 0 at ``since - 1`` on a tie
        and ``-sign`` below; raises ``at`` to where the test keeps it."""
        sign, since = _compare(x, y, self.at)
        final = op(sign, 0)
        if since > self.at:
            tie = _key(x, since - 1) == _key(y, since - 1)
            if not (tie and op(0, 0) != final):
                if op(-sign, 0) == final:
                    since = self.at
                elif tie:
                    since -= 1
            self.at = since
        return final

    # -- the bound type of intervals' steps (see intervals) ---------------------

    zero = _ZERO
    one = _ONE

    def lt(self, x: tuple, y: tuple) -> bool:
        """The final outcome of ``x < y``."""
        return self.holds(lt, x, y)

    @property
    def lo_key(self):
        # sorting asks only whether s[0] < t[0]
        return cmp_to_key(lambda s, t: -1 if self.lt(s[0], t[0]) else 0)

    # -- core ---------------------------------------------------------------

    def natural(self, a: int, b: int) -> tuple:
        """``Ordinal(a*n + b)``, which has no terms where it is 0."""
        if not self.holds(gt, ((_ZERO, (a, b)),), ((_ZERO, (0, 0)),)):
            return _ZERO
        return ((_ZERO, (a, b)),)

    def add(self, x: tuple, y: tuple) -> tuple:
        if not y:
            return x
        if not x:
            return y
        ey = y[0][0]
        i = 0
        while i < len(x) and self.holds(gt, x[i][0], ey):
            i += 1
        if i < len(x) and self.holds(eq, x[i][0], ey):
            (a, b), (p, q) = x[i][1], y[0][1]
            return x[:i] + ((ey, (a + p, b + q)),) + y[1:]
        return x[:i] + y

    def subtract(self, x: tuple, y: tuple) -> tuple:
        """``left_subtract(x, y)``; each call here has ``x <= y``."""
        if self.holds(eq, x, y):
            return _ZERO
        i = 0
        while i < len(x) and i < len(y) and self._same_term(x[i], y[i]):
            i += 1
        if i == len(x):
            return y[i:]
        (ex, (a, b)), (ey, (p, q)) = x[i], y[i]
        if self.holds(lt, ex, ey):
            return y[i:]
        return ((ey, (p - a, q - b)),) + y[i + 1:]

    def _same_term(self, s: tuple, t: tuple) -> bool:
        # exponent, then coefficient, as left_subtract's tuple equality asks
        return self.holds(eq, s[0], t[0]) and self.holds(eq, ((_ZERO, s[1]),), ((_ZERO, t[1]),))

    def evaluate(self, ast) -> tuple:
        """``core._eval_ast`` at the variable ``n``."""
        if type(ast) is Ordinal:
            return _lift(ast)
        kind = ast[0]
        if kind == "var":
            return self.natural(1, 0)
        if kind == "add":
            value = _ZERO
            for term in ast[1]:
                value = self.add(value, self.evaluate(term))
            return value
        if kind == "raise":
            raise _Raises
        _, exp, coeff, _ = ast
        exp = self.evaluate(exp)
        if type(coeff) is int:
            return ((exp, (0, coeff)),)
        coeff = self.evaluate(coeff)
        if len(coeff) != 1 or coeff[0][0]:  # 0, or not a natural
            raise _Raises
        return ((exp, coeff[0][1]),)


class TailImage:
    """The image of every tail row from ``start`` on, as the eventual forms
    of its intervals' bounds.

    From the settle point on, each bound is a valid form at every row, so
    each of its coefficients ``a*n + b`` has ``a >= 0``: a bound never
    falls as ``n`` grows, and one that moves at all rises at every row.
    """

    def __init__(self, start: int, intervals: list):
        self.start = start
        self.intervals = intervals

    def at(self, n: int) -> tuple:
        """The image of row ``n >= start`` as canonical ordinal bound pairs."""
        return tuple([(_value(lo, n), _value(hi, n)) for lo, hi in self.intervals])

    def first_reach(self, s, n: int):
        """The least row ``m >= n`` whose image holds ``[x, s)`` for some
        ``x < s``; None if no row does.  Such a row covers every point of
        a left neighbourhood of ``s`` (the point before it, if ``s`` is a
        successor), and finitely many rows cover one only if some row
        does."""
        floor = max(n, self.start)
        target, key = _lift(s), s.key
        best = None
        for lo, hi in self.intervals:
            # hi rises, so it reaches s from the row where the test settles
            row = _Row(floor)
            if not row.holds(ge, hi, target):
                continue
            # lo does not fall: past that row it is no lower
            if _key(lo, row.at) < key and (best is None or row.at < best):
                best = row.at
        return best


def settle_point(start: int, pieces: list, block_types: dict, alpha) -> tuple:
    """Where a tail may be left to its rule, and its image from there on.

    Returns ``(point, image)``.  ``point`` is one past the least ``n >=
    start`` from which every comparison and every raising check made while
    building and imaging row ``n`` has its final outcome.  ``image`` is a
    :class:`TailImage` valid from ``point`` on, or None when a check fails
    for good.

    ``pieces`` are the row's ``(label, kind, ast)`` triples (see
    ``carriers._parse_piece``), one on each block, as the parser has
    checked; ``block_types`` holds the carrier's block order types by
    label.  The rows before ``point`` are read as explicit rows; a check
    that fails for good already fails on the last of them.
    """
    row = _Row(start)
    try:
        built = []
        for label, kind, ast in pieces:
            if kind == "monotone":
                bounds = [(row.evaluate(lo), row.evaluate(hi)) for lo, hi in ast]
                built.append((label, kind, canonical(row, bounds)))
            else:
                built.append((label, kind, row.evaluate(ast)))
        image: tuple = ()
        for label, kind, value in built:
            if kind == "monotone":
                block = ((_ZERO, _lift(block_types[label])),)  # all its positions
                piece_image = monotone_image(row, value, order_type(row, value), block)
            else:
                piece_image = point(row, value)
            image = union(row, image, piece_image)
        if image and row.lt(_lift(alpha), image[-1][1]):
            raise _Raises
        order_type(row, image)  # its comparisons fix the shape of the row's delta
    except _Raises:
        return row.at + 1, None
    return row.at + 1, TailImage(row.at + 1, image)
