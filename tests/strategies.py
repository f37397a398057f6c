import functools
import re
from operator import attrgetter

import hypothesis.strategies as st

from ordkit.core import Ordinal, compare
from ordkit.intervals import OrdinalSet, format_interval_set


@st.composite
def flat_ordinals(draw, max_exponent=6, max_terms=4, max_coeff=50):
    """Ordinals below w**(max_exponent + 1) with natural exponents."""
    exponents = draw(
        st.lists(st.integers(0, max_exponent), max_size=max_terms, unique=True)
    )
    exponents.sort(reverse=True)
    terms = [(Ordinal(e), draw(st.integers(1, max_coeff))) for e in exponents]
    return Ordinal.from_terms(terms)


@functools.cache
def nested_ordinals(depth=2):
    """Ordinals with ordinal exponents, up to the given nesting depth.

    Each depth's strategy is built once, around the cached strategy of the
    depth below.  Depth 0 keeps a composite layer of its own as well:
    Hypothesis's example generation follows that nesting, and dropping it
    would change which ordinals are drawn."""
    inner = (
        flat_ordinals(max_exponent=2, max_terms=2, max_coeff=4)
        if depth == 0
        else nested_ordinals(depth - 1)
    )

    @st.composite
    def nested(draw):
        if depth == 0:
            return draw(inner)
        count = draw(st.integers(0, 3))
        exponents = []
        for _ in range(count):
            candidate = draw(inner)
            if all(compare(candidate, e) != 0 for e in exponents):
                exponents.append(candidate)
        exponents.sort(key=attrgetter("key"), reverse=True)
        terms = [(e, draw(st.integers(1, 4))) for e in exponents]
        return Ordinal.from_terms(terms)

    return nested()


def paired_off(bounds):
    """Sorted bounds paired off: the intervals of a set of several separate
    intervals (random pairs of bounds mostly merge into one interval)."""
    bounds = sorted(bounds, key=attrgetter("key"))
    return list(zip(bounds[::2], bounds[1::2]))


@st.composite
def tail_templates(draw, depth=1):
    """A sum of 1-3 terms: naturals, ``n``, and ``w^e*c`` with ``e`` a
    natural, ``n``, ``w`` or (at depth 1) a nested sum, and ``c`` absent, a
    natural, ``n`` or ``(n+k)``."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["power", "power", "n", "nat"]))
        if kind == "n":
            terms.append("n")
        elif kind == "nat":
            terms.append(str(draw(st.integers(1, 9))))
        else:
            exponents = ["n", str(draw(st.integers(1, 6))), "w"]
            if depth:
                exponents.append(f"({draw(tail_templates(depth - 1))})")
            exponent = draw(st.sampled_from(exponents))
            k = draw(st.integers(1, 12))
            coeff = draw(st.sampled_from(["", f"*{k}", "*n", f"*(n+{k})"]))
            terms.append(f"w^{exponent}{coeff}")
    return "+".join(terms)


@st.composite
def interval_set_texts(draw, template=False):
    """A rendered multi-interval set with spaces and tabs between tokens;
    a template replaces some numbers with ``n`` or ``(n+1)``."""
    bounds = draw(st.lists(nested_ordinals(), max_size=8))
    text = format_interval_set(OrdinalSet(paired_off(bounds)))
    tokens = re.findall(r"[0-9]+|.", text)
    if template:
        tokens = [
            draw(st.sampled_from([t, t, "n", "(n+1)"])) if t.isdigit() else t for t in tokens
        ]
    gaps = draw(st.lists(st.text(" \t", max_size=2), min_size=len(tokens) + 1,
                         max_size=len(tokens) + 1))
    return "".join(gap + token for gap, token in zip(gaps, tokens)) + gaps[-1]
