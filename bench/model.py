"""A small reference model of Cantor normal form, used to generate inputs
and to check answers without going through the ordkit code under test.

An ordinal is a tuple of ``(exponent, coefficient)`` pairs, exponents
being ordinals in the same form, strictly decreasing; ``()`` is 0.
"""

from __future__ import annotations

import functools

ZERO = ()
ONE = ((ZERO, 1),)
OMEGA = ((ONE, 1),)


def nat(k: int) -> tuple:
    return ((ZERO, k),) if k else ZERO


def w_pow(e: tuple, c: int = 1) -> tuple:
    return ((e, c),)


def cmp(a: tuple, b: tuple) -> int:
    for (ea, ca), (eb, cb) in zip(a, b):
        c = cmp(ea, eb)
        if c:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    return (len(a) > len(b)) - (len(a) < len(b))


def add(a: tuple, b: tuple) -> tuple:
    if not b:
        return a
    lead = b[0][0]
    kept = [t for t in a if cmp(t[0], lead) >= 0]
    if kept and cmp(kept[-1][0], lead) == 0:
        return tuple(kept[:-1]) + ((lead, kept[-1][1] + b[0][1]),) + b[1:]
    return tuple(kept) + b


def parse(text: str) -> tuple:
    """Read a grammar string (``expr := term ("+" term)*``) into model form."""
    value, pos = _expr(text.replace(" ", ""), 0)
    if pos != len(text.replace(" ", "")):
        raise ValueError(f"trailing input in {text!r}")
    return value


def _expr(s: str, pos: int) -> tuple:
    value, pos = _term(s, pos)
    while pos < len(s) and s[pos] == "+":
        term, pos = _term(s, pos + 1)
        value = add(value, term)
    return value, pos


def _nat(s: str, pos: int) -> tuple:
    end = pos
    while end < len(s) and s[end].isdigit():
        end += 1
    return int(s[pos:end]), end


def _term(s: str, pos: int) -> tuple:
    if s[pos] != "w":
        k, pos = _nat(s, pos)
        return nat(k), pos
    pos += 1
    e = ONE
    if pos < len(s) and s[pos] == "^":
        pos += 1
        if s[pos] == "(":
            e, pos = _expr(s, pos + 1)
            pos += 1  # the closing parenthesis
        elif s[pos] == "w":
            e, pos = OMEGA, pos + 1
        else:
            k, pos = _nat(s, pos)
            e = nat(k)
    c = 1
    if pos < len(s) and s[pos] == "*":
        c, pos = _nat(s, pos + 1)
    return w_pow(e, c), pos


def is_valid(x) -> bool:
    if not isinstance(x, tuple):
        return False
    for i, term in enumerate(x):
        if len(term) != 2 or not is_valid(term[0]) or not isinstance(term[1], int):
            return False
        if term[1] < 1 or (i and cmp(x[i - 1][0], term[0]) <= 0):
            return False
    return True


def of(ordinal) -> tuple:
    """The model form of an ``ordkit`` Ordinal, read through ``terms``."""
    return tuple((of(e), c) for e, c in ordinal.terms)


def render(x: tuple) -> str:
    """The canonical grammar string, as ``ordkit.core.fmt`` writes it."""
    if not x:
        return "0"
    parts = []
    for e, c in x:
        if not e:
            parts.append(str(c))
            continue
        body = "w" if e == ONE else "w^" + _atom(e)
        parts.append(body + (f"*{c}" if c > 1 else ""))
    return " + ".join(parts)


def _atom(e: tuple) -> str:
    if e == OMEGA:
        return "w"
    if len(e) == 1 and not e[0][0]:
        return str(e[0][1])
    return f"({render(e)})"


def flat_vector(x: tuple, k: int):
    """Digits ``(c_{k-1}, ..., c_0)`` when ``x < w^k`` has natural exponents."""
    vec = [0] * k
    for e, c in x:
        if len(e) > 1 or (e and e[0][0]) or (e and e[0][1] >= k):
            return None
        vec[k - 1 - (e[0][1] if e else 0)] = c
    return tuple(vec)


KEY = functools.cmp_to_key(cmp)


def cantor_pair(a: int, b: int) -> int:
    s = a + b
    return s * (s + 1) // 2 + b


def _from_digits(digits: dict) -> tuple:
    return tuple((e, c) for e, c in sorted(digits.items(), key=lambda t: KEY(t[0]),
                                           reverse=True) if c)


def _embed(alpha: tuple, x: tuple) -> tuple:
    """The digit-wise embedding of ``[0, alpha)`` into ``[0, w^degree(alpha))``
    that ordkit's pairing and finite-set codings use: ``w^mu*q + r`` becomes
    ``r`` with its constant digit ``d0`` replaced by ``cantor_pair(q, d0)``."""
    if len(alpha) == 1 and alpha[0][1] == 1:
        return x
    q, r = (x[0][1], x[1:]) if x and x[0][0] == alpha[0][0] else (0, x)
    digits = dict(r)
    digits[ZERO] = cantor_pair(q, digits.pop(ZERO, 0))
    return _from_digits(digits)


def fin_code_max_coefficient(alpha: tuple, members: list) -> int:
    """The largest coefficient of the code that ordkit's finite-set coding
    gives the distinct ``members`` below ``alpha``: per exponent, the members'
    digits are Cantor-coded as a tuple, and the arity is paired into the
    constant digit."""
    if not members:
        return 0
    embedded = sorted((dict(_embed(alpha, x)) for x in members),
                      key=lambda d: KEY(_from_digits(d)), reverse=True)
    digits = {}
    for e in set().union(*embedded):
        code = embedded[-1].get(e, 0)
        for u in reversed(embedded[:-1]):
            code = cantor_pair(u.get(e, 0), code)
        digits[e] = code
    digits[ZERO] = cantor_pair(len(members), digits.get(ZERO, 0))
    return max(digits.values())


def rand_below(rng, alpha: tuple, max_terms: int = 3, max_coeff: int = 20) -> tuple:
    """A random ordinal below ``alpha > 0``: keep a prefix of alpha's terms,
    lower the next one, and fill in a random tail below that term."""
    i = rng.randrange(len(alpha))
    e, c = alpha[i]
    prefix = alpha[:i]
    if not e:
        return prefix + nat(rng.randrange(c))
    head = ((e, rng.randint(1, c - 1)),) if c > 1 and rng.random() < 0.5 else ()
    return prefix + head + rand_below_power(rng, e, rng.randint(0, max_terms), max_coeff)


def rand_below_power(rng, e: tuple, n_terms: int, max_coeff: int = 20) -> tuple:
    """A random ordinal below ``w^e`` with at most ``n_terms`` terms."""
    exps = {rand_below(rng, e) for _ in range(n_terms)}
    return tuple((x, rng.randint(1, max_coeff)) for x in sorted(exps, key=KEY, reverse=True))


def tweak(rng, x: tuple) -> tuple:
    """A nearby ordinal: one coefficient moved by one at a random depth."""
    if not x:
        return ONE
    i = rng.randrange(len(x))
    e, c = x[i]
    if e and rng.random() < 0.5:
        term = (tweak(rng, e), c)
    else:
        term = (e, max(1, c + rng.choice((-1, 1))))
    y = x[:i] + (term,) + x[i + 1:]
    return y if is_valid(y) else x
