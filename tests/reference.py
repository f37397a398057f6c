"""The reference models the tests compare ordkit against: each is the code
an engine path replaced, or a more literal version of it.  Any model may
build ordinals and call core's ``compare``, ``add``, ``left_subtract``,
``multiply`` and ``omega_power``; each docstring names every other ``ordkit``
function its model calls, so what stays engine-checked can be read off
here.  pytest does not collect this module."""

import itertools
import re
from operator import attrgetter

from ordkit import core
from ordkit.carriers import BlockwiseMap, Carrier, Piece, _build_row
from ordkit.coding import _embed_terms, _tuple_decode, cantor_pair, cantor_unpair, fin_encode
from ordkit.core import (
    MAX_NESTING,
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    add,
    compare,
    fmt,
    left_subtract,
    multiply,
    omega_power,
    parse,
)
from ordkit.errors import BoundViolation, CoverageBroken, ParseError, TailLimitUndecided
from ordkit.intervals import OrdinalSet, parse_interval_set
from ordkit.reduction import _COVERAGE_WINDOW, _STAGE_SEARCH, ReductionResult, Stage


# -- core ----------------------------------------------------------------------


class _ReferenceLexer:
    """core._Lexer as it was, skipping blanks on every call; calls ``core._nat_int``."""

    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.depth = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return None
        ch = self.text[self.pos]
        if ch in core._DIGITS:
            return "nat"
        return ch

    def take_nat(self):
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in core._DIGITS:
            self.pos += 1
        return core._nat_int(self.text[start:self.pos]), start

    def expect(self, ch):
        self._skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1


def _reference_expr(lx):
    """core._parse_expr as it was, over the reference lexer: an unfolded
    AST of ('nat', k, pos), ('var', pos), ('w', pos), ('term', exp_ast|None,
    coeff_ast|None, pos) and ('add', [term_asts]) nodes."""
    terms = [_reference_term(lx)]
    while lx.peek() == "+":
        lx.expect("+")
        terms.append(_reference_term(lx))
    return ("add", terms)


def _reference_term(lx):
    """core's term rule as it was."""
    tok = lx.peek()
    pos = lx.pos
    if tok != "w":
        if tok == "(":
            raise ParseError("expected a term", pos)
        return _reference_atom(lx, "expected a term")
    lx.expect("w")
    exp_ast = coeff_ast = None
    if lx.peek() == "^":
        lx.expect("^")
        if lx.peek() == "w":
            exp_ast = ("w", lx.pos)
            lx.expect("w")
        else:
            exp_ast = _reference_atom(lx, "expected an exponent atom")
    if lx.peek() == "*":
        lx.expect("*")
        coeff_ast = _reference_atom(lx, "expected a coefficient")
        if coeff_ast[0] == "nat" and coeff_ast[1] == 0:
            raise ParseError("coefficient 0 is not allowed", coeff_ast[2])
    return ("term", exp_ast, coeff_ast, pos)


def _reference_atom(lx, expected):
    """core's atom rule as it was."""
    tok = lx.peek()
    pos = lx.pos
    if tok == "nat":
        value, npos = lx.take_nat()
        return ("nat", value, npos)
    if tok == "n":
        lx.expect("n")
        return ("var", pos)
    if tok != "(":
        raise ParseError(expected, pos)
    lx.expect("(")
    lx.depth += 1
    if lx.depth > MAX_NESTING:
        raise ParseError(f"more than {MAX_NESTING} nested parentheses", pos)
    inner = _reference_expr(lx)
    lx.expect(")")
    lx.depth -= 1
    return inner


def _reference_ast(text):
    """core._parse_to_ast as it was."""
    lx = _ReferenceLexer(text)
    ast = _reference_expr(lx)
    if lx.peek() is not None:
        raise ParseError("trailing input", lx.pos)
    return ast


def _reference_bounds(text):
    """core._parse_bounds as it was: the list of ``(lo, hi)`` ASTs."""
    lx = _ReferenceLexer(text)
    asts = []
    while lx.peek() is not None:
        lx.expect("[")
        lo = _reference_expr(lx)
        lx.expect(",")
        hi = _reference_expr(lx)
        lx.expect(")")
        asts.append((lo, hi))
        if lx.peek() is not None:
            lx.expect(",")
    return asts


def _reference_eval(ast, n):
    """core._eval_ast as it was: through omega_power, multiply and a sum from 0."""
    kind = ast[0]
    if kind == "nat":
        return Ordinal(ast[1])
    if kind == "w":
        return OMEGA
    if kind == "var":
        if n is None:
            raise ParseError("variable n outside template", ast[1])
        return Ordinal(n)
    if kind == "add":
        value = ZERO
        for term in ast[1]:
            value = add(value, _reference_eval(term, n))
        return value
    _, exp_ast, coeff_ast, pos = ast
    base = omega_power(ONE if exp_ast is None else _reference_eval(exp_ast, n))
    if coeff_ast is None:
        return base
    coeff = _reference_eval(coeff_ast, n)
    if not coeff.is_nat() or coeff.nat_value() < 1:
        raise ParseError("coefficient must be a natural number >= 1", pos)
    return multiply(base, coeff)


def _recursive_compare(a, b):
    """The term-walking compare that the cached key replaced."""
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = _recursive_compare(ea, eb)
        if c:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    la, lb = len(a.terms), len(b.terms)
    return 0 if la == lb else (-1 if la < lb else 1)


def embed_vec(vec):
    """The oracle's width-k vector as the ordinal with vec[i] at w^(k-1-i)."""
    k = len(vec)
    return Ordinal.from_terms([(Ordinal(k - 1 - i), c) for i, c in enumerate(vec) if c])


# -- intervals -----------------------------------------------------------------
#
# The nested-loop, sort-and-merge set algebra that the linear sweeps
# replaced, on tuples of (lo, hi) pairs.


def _ref_canonical(intervals):
    """The sorted, merged nonempty ``intervals``, as OrdinalSet keeps them."""
    pairs = [(lo, hi) for lo, hi in intervals if compare(lo, hi) < 0]
    pairs.sort(key=lambda pair: (pair[0].key, pair[1].key))
    merged = []
    for lo, hi in pairs:
        if merged and compare(lo, merged[-1][1]) <= 0:
            if compare(hi, merged[-1][1]) > 0:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return tuple(merged)


def _ref_intersect(a, b):
    """Each pair of intervals cut to their overlap."""
    out = []
    for alo, ahi in a:
        for blo, bhi in b:
            lo = alo if compare(alo, blo) >= 0 else blo
            hi = ahi if compare(ahi, bhi) <= 0 else bhi
            if compare(lo, hi) < 0:
                out.append((lo, hi))
    return _ref_canonical(out)


def _ref_difference(a, b):
    """Each interval of ``a`` cut by every interval of ``b`` in turn."""
    out = []
    for lo, hi in a:
        segments = [(lo, hi)]
        for blo, bhi in b:
            next_segments = []
            for slo, shi in segments:
                cut_lo = slo if compare(slo, blo) >= 0 else blo
                cut_hi = shi if compare(shi, bhi) <= 0 else bhi
                if compare(cut_lo, cut_hi) >= 0:
                    next_segments.append((slo, shi))
                    continue
                if compare(slo, cut_lo) < 0:
                    next_segments.append((slo, cut_lo))
                if compare(cut_hi, shi) < 0:
                    next_segments.append((cut_hi, shi))
            segments = next_segments
        out.extend(segments)
    return _ref_canonical(out)


def _ref_slice(a, p_lo, p_hi):
    """The members of ``a`` at positions ``[p_lo, p_hi)``."""
    out = []
    cum = ZERO
    for lo, hi in a:
        nxt = add(cum, left_subtract(lo, hi))
        s_lo = p_lo if compare(p_lo, cum) >= 0 else cum
        s_hi = p_hi if compare(p_hi, nxt) <= 0 else nxt
        if compare(s_lo, s_hi) < 0:
            out.append((add(lo, left_subtract(cum, s_lo)), add(lo, left_subtract(cum, s_hi))))
        cum = nxt
    return _ref_canonical(out)


def _ref_select(a, positions):
    """The union of one ``_ref_slice`` per interval of ``positions``."""
    out = ()
    for p_lo, p_hi in positions:
        out = _ref_canonical(out + _ref_slice(a, p_lo, p_hi))
    return out


def _ref_positions_of(a, subset):
    """The positions in ``a`` of the members of ``subset``."""
    out = []
    cum = ZERO
    for lo, hi in a:
        for slo, shi in _ref_intersect(subset, ((lo, hi),)):
            out.append((add(cum, left_subtract(lo, slo)), add(cum, left_subtract(lo, shi))))
        cum = add(cum, left_subtract(lo, hi))
    return _ref_canonical(out)


# -- coding --------------------------------------------------------------------


def _validating_from_digits(digits):
    """from_digits as it was: rebuild the ordinal through full CNF validation."""
    nonzero = [(e, d) for e, d in digits.items() if d]
    return Ordinal.from_terms(sorted(nonzero, key=lambda t: t[0].key, reverse=True))


def _quadratic_pair_encode(alpha, x, y):
    """pair_encode as it was: both term dicts rebuilt for every exponent.
    Calls ``cantor_pair`` and the engine's ``_embed_terms``."""
    if compare(x, alpha) >= 0 or compare(y, alpha) >= 0:
        raise BoundViolation("pair components must lie below alpha")
    u, v = (Ordinal.from_terms(_embed_terms(alpha, c.terms)) for c in (x, y))
    digits = {}
    for e in set(dict(u.terms)) | set(dict(v.terms)):
        du = dict(u.terms).get(e, 0)
        dv = dict(v.terms).get(e, 0)
        digits[e] = cantor_pair(du, dv)
    return _validating_from_digits(digits)


def _dict_unembed(alpha, u):
    """The inverse embedding as it was: via the digit dict, rebuilt by
    arithmetic; calls ``cantor_unpair``."""
    if len(alpha.terms) == 1 and alpha.terms[0][1] == 1:
        return u if compare(u, alpha) < 0 else None
    mu = alpha.degree
    if u.terms and compare(u.degree, mu) >= 0:
        return None
    digits = dict(u.terms)
    q, d0 = cantor_unpair(digits.pop(ZERO, 0))
    digits[ZERO] = d0
    x = add(multiply(omega_power(mu), Ordinal(q)), _validating_from_digits(digits))
    return x if compare(x, alpha) < 0 else None


def _dict_pair_decode(alpha, z):
    """pair_decode as it was: each half in a digit dict; calls ``cantor_unpair``."""
    if compare(z, alpha) >= 0 or (z.terms and compare(z.degree, alpha.degree) >= 0):
        return None
    halves = ({}, {})
    for e, c in z.terms:
        for half, d in zip(halves, cantor_unpair(c)):
            half[e] = d
    x, y = (_dict_unembed(alpha, _validating_from_digits(half)) for half in halves)
    return None if x is None or y is None else (x, y)


def _dict_fin_decode(alpha, z):
    """fin_decode as it was: a digit dict per member, sorted back into an
    ordinal by from_digits.  Calls ``cantor_unpair`` and the engine's
    ``_tuple_decode``, and range-tests through ``fin_encode``."""
    if z.is_zero():
        return []
    if compare(z, alpha) >= 0:
        return None
    digits = dict(z.terms)
    arity, d0 = cantor_unpair(digits.pop(ZERO, 0))
    if d0:
        digits[ZERO] = d0
    if arity < 1 or arity > 2 + max(digits.values(), default=0).bit_length():
        return None
    per_member = [dict() for _ in range(arity)]
    for e, code in digits.items():
        for u_digits, d in zip(per_member, _tuple_decode(code, arity)):
            if d:
                u_digits[e] = d
    members = []
    for u_digits in per_member:
        x = _dict_unembed(alpha, _validating_from_digits(u_digits))
        if x is None:
            return None
        members.append(x)
    if len(set(members)) != len(members):
        return None
    members.sort(key=attrgetter("key"), reverse=True)
    if compare(fin_encode(alpha, members), z) != 0:
        return None
    return members


# -- carriers ------------------------------------------------------------------
#
# Each of these applied the rule "a monotone piece maps the start of its
# domain onto its target and every later position to 0" by itself, as
# Piece.image / preimage / overflow now do.  Each calls ``Piece.domain_in``
# and OrdinalSet's set algebra, positions and order types.


def _ref_image_of(map_, carrier, restriction=None):
    """image_of as it was; also calls ``Carrier.full_restriction``."""
    if restriction is None:
        restriction = carrier.full_restriction()
    out = OrdinalSet()
    for piece in map_.pieces:
        r = restriction.get(piece.label)
        if r is None or r.is_empty():
            continue
        dom = piece.domain_in(carrier)
        part = dom.intersect(r)
        if part.is_empty():
            continue
        if piece.kind == "constant":
            out = out.union(OrdinalSet.point(piece.value))
            continue
        positions = dom.positions_of(part)
        length = piece.target.order_type()
        below = positions.intersect(OrdinalSet.interval(ZERO, length))
        out = out.union(piece.target.select_positions(below))
        if not positions.difference(OrdinalSet.interval(ZERO, length)).is_empty():
            out = out.union(OrdinalSet.point(ZERO))
    return out


def _ref_preimage_of(map_, carrier, target_set):
    """preimage_of as it was."""
    out = {label: OrdinalSet() for label in carrier.labels}
    for piece in map_.pieces:
        dom = piece.domain_in(carrier)
        if piece.kind == "constant":
            if target_set.contains(piece.value):
                out[piece.label] = out[piece.label].union(dom)
            continue
        length = piece.target.order_type()
        hit = piece.target.positions_of(target_set.intersect(piece.target))
        hit = hit.intersect(OrdinalSet.interval(ZERO, length))
        out[piece.label] = out[piece.label].union(dom.select_positions(hit))
        if target_set.contains(ZERO):
            total = dom.order_type()
            if compare(length, total) < 0:
                overflow = OrdinalSet.interval(length, total)
                out[piece.label] = out[piece.label].union(dom.select_positions(overflow))
    return out


def _ref_sample_elements(carrier, count):
    """Carrier.sample_elements as it was: every block's whole ladder built
    first, then taken round-robin.  Reads ``Carrier.blocks`` and the block
    order types."""
    ladders = []
    for label, shape in carrier.blocks:
        theta = shape.order_type()
        naturals = min(count, theta.nat_value()) if theta.is_nat() else count
        ladder = [(label, Ordinal(k)) for k in range(naturals)]
        for text in ("w", "w+1", "w*2", "w^2", "w^2+w", "w^3"):
            if compare(parse(text), theta) < 0:
                ladder.append((label, parse(text)))
        ladders.append(ladder)
    rounds = itertools.zip_longest(*ladders)
    return list(itertools.islice((w for r in rounds for w in r if w is not None), count))


def _ref_fiber(cmap, element):
    """CarrierMap.fiber as it was; also calls ``Carrier.check_element``."""
    cmap.dest.check_element(element)
    label, pos = element
    out = []
    for piece in cmap.pieces:
        if piece.target_label != label:
            continue
        dom = piece.domain_in(cmap.source)
        if piece.kind == "constant":
            if compare(piece.value, pos) == 0:
                total = dom.order_type()
                if not total.is_nat():
                    raise BoundViolation("infinite fiber")
                for p in dom.iter_prefix(total.nat_value()):
                    out.append((piece.label, p))
            continue
        length = piece.target.order_type()
        if piece.target.contains(pos):
            r = piece.target.locate(pos)
            if compare(r, dom.order_type()) < 0:
                out.append((piece.label, dom.enumerate(r)))
        if pos.is_zero():
            total = dom.order_type()
            if compare(length, total) < 0:
                overflow = left_subtract(length, total)
                if not overflow.is_nat():
                    raise BoundViolation("infinite fiber over 0")
                for k in range(overflow.nat_value()):
                    out.append((piece.label, dom.enumerate(add(length, Ordinal(k)))))
    return out


def _ref_compose_monotone(f_piece, g_piece, source):
    """reduction._compose_monotone as it was, on positions; also builds ``Piece``s."""
    fdom = f_piece.domain_in(source)
    iso_len = fdom.order_type()
    t_len = f_piece.target.order_type()
    if compare(t_len, iso_len) < 0:
        iso_len = t_len
    gdom = g_piece.domain_in(source)
    part = fdom.intersect(gdom)
    if part.is_empty():
        return []
    idx = fdom.positions_of(part).intersect(OrdinalSet.interval(ZERO, iso_len))
    if idx.is_empty():
        return []
    m_dom = f_piece.target.select_positions(idx)
    out = []
    if g_piece.kind == "constant":
        out.append(Piece(f_piece.target_label, "constant", value=g_piece.value, dom=m_dom))
        return out
    n_set = fdom.select_positions(idx)
    g_idx = gdom.positions_of(n_set)
    g_len = g_piece.target.order_type()
    live = g_idx.intersect(OrdinalSet.interval(ZERO, g_len))
    if not live.is_empty():
        values = g_piece.target.select_positions(live)
        live_n = gdom.select_positions(live)
        live_dom = f_piece.target.select_positions(
            fdom.positions_of(live_n).intersect(OrdinalSet.interval(ZERO, iso_len))
        )
        out.append(Piece(f_piece.target_label, "monotone", target=values, dom=live_dom))
    dead = g_idx.difference(OrdinalSet.interval(ZERO, g_len))
    if not dead.is_empty():
        dead_n = gdom.select_positions(dead)
        dead_dom = f_piece.target.select_positions(
            fdom.positions_of(dead_n).intersect(OrdinalSet.interval(ZERO, iso_len))
        )
        out.append(Piece(f_piece.target_label, "constant", value=ZERO, dom=dead_dom))
    return out


# -- reduction -----------------------------------------------------------------


def ordinal_sequence_limit(seq, start=0) -> tuple:
    """The supremum of a sequence settled from ``start`` on, with its
    attainment flag, read off two rows as the engine did before it read
    a tail's supremum off its order-type form (``TailImage.supremum``).
    Rows ``start`` and ``start + 1`` decide it: equal rows are constant;
    else, at the first term where they differ, a growing coefficient climbs
    to the next power and a growing exponent to the power of its own
    supremum.  Rows that fall or change shape raise."""
    a, b = seq(start), seq(start + 1)
    if a == b:
        return a, True
    if compare(a, b) > 0 or len(a.terms) != len(b.terms):
        raise TailLimitUndecided(f"sequence is not settled at {start}: {fmt(a)} then {fmt(b)}")
    i = next(i for i, (x, y) in enumerate(zip(a.terms, b.terms)) if x != y)
    prefix = Ordinal.from_terms(a.terms[:i])
    exponent = a.terms[i][0]
    if exponent == b.terms[i][0]:
        return add(prefix, omega_power(add(exponent, ONE))), False
    e_limit, _ = ordinal_sequence_limit(lambda n: seq(n).terms[i][0], start)
    return add(prefix, omega_power(e_limit)), False


# The settle point that eventual.settle_point replaced, kept as the
# reference: start + L + 1, where L sums every decimal literal in the tail
# row, in alpha and in the block order types.  (The parser counted a
# literal of six or more digits as past the 4096 cap, unread; the drawn
# literals are short enough to read, and the sum refuses them all the same.)
_DIGIT_RUN = re.compile("[0-9]+")


def _literal_settle(text: str) -> int:
    """The literal-sum settle point of an instance text with a tail.  Calls
    ``parse``, ``fmt`` and ``parse_interval_set``."""
    lines = dict(line.split(":", 1) for line in text.splitlines() if not line.startswith("#"))
    spec, _, row_text = lines["tail"].partition(":")
    start = int(spec.split(">=")[1])
    shapes = [part.split(":", 1)[1] for part in lines["carrier"].split(";")]
    texts = [
        row_text,
        fmt(parse(lines["alpha"])),
        *(fmt(parse_interval_set(shape).order_type()) for shape in shapes),
    ]
    return start + sum(map(int, _DIGIT_RUN.findall(" ".join(texts)))) + 1


class _RowsTail:
    """What a tail from the literal settle point ``start`` answered before
    it had forms, in the place of its ``TailImage``: each row imaged from
    its pieces and refused past alpha, the supremum off rows ``start`` and
    ``start + 1`` (:func:`ordinal_sequence_limit`), and no first reach, so
    verification scans only the rows it always scans.  Takes
    ``settle_point``'s arguments; builds rows with ``carriers._build_row``,
    images them with :func:`_ref_image_of` on a ``Carrier`` of the block
    order types, and reads ``OrdinalSet`` order types."""

    def __init__(self, start, pieces, block_types, alpha):
        self.start, self.pieces, self.alpha = start, pieces, alpha
        self.carrier = Carrier([(label, OrdinalSet.interval(ZERO, t)) for label, t in block_types.items()])

    def at(self, n) -> tuple:
        image = _ref_image_of(_build_row(self.pieces, n), self.carrier)
        if image and compare(self.alpha, image.intervals[-1][1]) < 0:
            raise CoverageBroken(f"row {n} maps outside [0, {fmt(self.alpha)})")
        return image.intervals

    def supremum(self) -> tuple:
        return ordinal_sequence_limit(lambda n: OrdinalSet._of(self.at(n)).order_type(), self.start)

    def first_reach(self, s, n):
        return None


def _ref_coverage_ok(report: list) -> bool:
    """The window's largest delta_m equals its largest qualifying one, in a
    stage record of ``(m, delta_m, qualifies)`` rows."""
    best = ZERO
    best_qual = ZERO
    for _, delta_m, qualifies in report:
        if compare(delta_m, best) > 0:
            best = delta_m
        if qualifies and compare(delta_m, best_qual) > 0:
            best_qual = delta_m
    return compare(best, best_qual) == 0


class _ReferenceStages(ReductionResult):
    """The stage construction as it was before row strength had one test
    and before the record was derived on demand: every window row is
    imaged on the chunk and on B_(n+1), the coverage condition compares
    the window's largest delta_m with its largest qualifying one, and each
    stage's q_map and coverage are built eagerly.  Rows are imaged by
    ``_ref_image_of``.  It subclasses ``ReductionResult``, reads rows and
    deltas through the engine's ``_KeptRows``, calls the ``Carrier``
    restrictions and builds ``Stage``, ``Piece`` and ``BlockwiseMap``."""

    def __init__(self, *args):
        super().__init__(*args)
        self._peeled = [ZERO]  # cumulative chunk lengths

    def _stage_coverage(self, restriction: dict) -> list:
        report = []
        for m in range(_COVERAGE_WINDOW):
            delta_m = self._kept.delta(m)
            image = _ref_image_of(self._kept.row(m), self.carrier, restriction)
            report.append((m, delta_m, compare(image.order_type(), delta_m) == 0))
        return report

    def _ref_chunk_iso(self, chunk: dict) -> BlockwiseMap:
        pieces = []
        acc = ZERO
        for label in self.carrier.labels:
            dom = chunk[label]
            if dom.is_empty():
                continue
            length = dom.order_type()
            target = OrdinalSet.interval(acc, add(acc, length))
            pieces.append(Piece(label, "monotone", target=target, dom=dom))
            acc = add(acc, length)
        return BlockwiseMap(pieces)

    def ensure_stage(self, n: int):
        while len(self.stages) <= n:
            index = len(self.stages)
            beta_n = omega_power(self._kept.delta(index))
            b_lo = add(self.beta, self._peeled[index])
            b_restriction = self.stages[-1].b_next if index else self.carrier.full_restriction()
            search = max(_STAGE_SEARCH, index + 8)
            k = None
            for cand in range(search):
                delta_c = self._kept.delta(cand)
                if compare(self._kept.delta(index), delta_c) >= 0:
                    continue
                image = _ref_image_of(self._kept.row(cand), self.carrier, b_restriction)
                if compare(image.order_type(), delta_c) == 0:
                    k = cand
                    break
            if k is None:
                raise CoverageBroken(f"no qualifying row above beta_{index} within {search} rows")
            beta_k = omega_power(self._kept.delta(k))
            if compare(multiply(beta_n, Ordinal(2)), beta_k) >= 0:
                raise CoverageBroken(f"beta_{index}*2 < beta_k fails at stage {index}")
            chunk_lo = b_lo
            chunk_hi = add(chunk_lo, beta_n)
            chunk = self.carrier.global_range_restriction(chunk_lo, chunk_hi)
            if _ref_coverage_ok(self._stage_coverage(chunk)):
                raise CoverageBroken("reserve chunk unexpectedly carries full row strength")
            b_next = {label: b_restriction[label].difference(chunk[label]) for label in chunk}
            after = self._stage_coverage(b_next)
            if not _ref_coverage_ok(after):
                raise CoverageBroken(f"coverage condition fails after stage {index}")
            q_map = self._ref_chunk_iso(chunk)
            reach = max([beta_n] + [s.beta for s in self.stages])
            stage = Stage(
                index, k, beta_n, reach, chunk_lo, chunk_hi, b_restriction, b_next, self._kept
            )
            # hand over the eagerly computed record in place of the derived one
            stage.q_map, stage.coverage = q_map, after
            self.stages.append(stage)
            self._peeled.append(add(self._peeled[index], beta_n))


def _three_pass_order_type(pairs: list) -> int:
    """The strict-order check that the rank check replaced, kept as the
    reference: irreflexive, then total and asymmetric, then transitive."""
    field_points = set()
    relation = set()
    for a, b in pairs:
        field_points.add(a)
        field_points.add(b)
        relation.add((a, b))
    for a in field_points:
        if (a, a) in relation:
            return 0
    for a in field_points:
        for b in field_points:
            if a == b:
                continue
            if ((a, b) in relation) == ((b, a) in relation):
                return 0
    for a, b in relation:
        for c in field_points:
            if (b, c) in relation and (a, c) not in relation:
                return 0
    return len(field_points)
