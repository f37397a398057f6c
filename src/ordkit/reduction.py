"""Reduction engines and refuters.

The centerpiece turns a presented surjection f: omega x M -> alpha into an
evaluable surjection M -> alpha.  The supremum delta of the rows' order
types is exact: the explicit rows give their largest, and a tail, settled
from its start (see :class:`~ordkit.carriers.SurjectionFamily`), gives its
supremum from two rows.  Case 1 (some row's order type attains the
supremum delta) composes the row isomorphism with the pairing-based step
from delta onto alpha.  Case 2 realizes the stage recursion at the order-type
level: q_n is the unique isomorphism from a peeled chunk of the carrier onto
[0, beta_n), the chunks live in a reserve zone [beta, beta*2) of the carrier
so that row strength (the coverage condition) survives every stage, and the
glued map sends everything outside the chunks to zero.

Also here: the diagonal set operation, the finite-to-one transfer, the
one-step refuters for listings of (infinite) subsets, the fiber witness of
power Dedekind infiniteness, and the well-order code surrogate decoder.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cache, cached_property
from operator import attrgetter
from typing import Callable, Iterable, Optional

from .carriers import (
    BlockwiseMap,
    Carrier,
    CarrierMap,
    Piece,
    QueryableSet,
    SurjectionFamily,
    image_of,
    preimage_of,
)
from .coding import OmegaPowerBijection, pair_decode, pair_encode, pset_to_infpset
from .core import (
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
from .errors import (
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
from .intervals import OrdinalSet

# Search and sampling bounds, each the single value every caller uses.
_ROW_SCAN = 64  # rows scanned for a witness or a first cover
_COVERAGE_WINDOW = 6  # kept rows whose strength a stage checks
_STAGE_SEARCH = 64  # least rows searched for a stage's qualifying row
_FUEL = 10_000  # stages per evaluated point, and the omega-power bijection's fuel
_REFUTER_SAMPLES = 64  # carrier sample points of a refuter
_MAX_CHECK = 10**8  # most listing pairs a refuter checks (about 900,000 kept)
_KURATOWSKI_SAMPLES = 256  # carrier sample points searched for a fiber

__all__ = [
    "cantor_diagonal",
    "ordinal_sequence_limit",
    "ReductionResult",
    "Stage",
    "reduce_omega_product",
    "verify_surjective",
    "VerificationReport",
    "finite_to_one_transfer",
    "TransferResult",
    "fiber_family_values",
    "RefutationWitness",
    "refute_powerset",
    "refute_infinite_powerset",
    "kuratowski_witness",
    "wellorder_decode",
    "ordinal_to_bits",
    "bits_to_ordinal",
]


# -- Cantor's diagonal ---------------------------------------------------------


def cantor_diagonal(
    listing: Callable, carrier: Carrier, ask: Optional[Callable] = None
) -> QueryableSet:
    """The set {x : x not in listing(x)}; never in the listing's range.
    ``ask(s, x)``, when given, answers for ``s.contains(x)``."""

    def membership(x) -> bool:
        carrier.check_element(x)
        listed = listing(x)
        return not (listed.contains(x) if ask is None else ask(listed, x))

    return QueryableSet(membership)


# -- the supremum of a settled tail ----------------------------------------------


def ordinal_sequence_limit(seq: Callable[[int], Ordinal], start: int = 0) -> tuple:
    """Supremum of a sequence settled from ``start`` on (see
    :class:`~ordkit.carriers.SurjectionFamily`), with attainment flag.
    Rows ``start`` and ``start + 1`` decide it: equal rows are constant;
    else, at the first term where they differ, a growing coefficient climbs
    to the next power and a growing exponent to the power of its own
    supremum.  Rows that fall or change shape raise."""
    a, b = seq(start), seq(start + 1)
    if a == b:
        return a, True
    if compare(a, b) > 0 or len(a.terms) != len(b.terms):
        raise TailLimitUndecided(
            f"sequence is not settled at {start}: {fmt(a)} then {fmt(b)}"
        )
    i = next(i for i, (x, y) in enumerate(zip(a.terms, b.terms)) if x != y)
    prefix = Ordinal.from_terms(a.terms[:i])
    exponent = a.terms[i][0]
    if exponent == b.terms[i][0]:
        return add(prefix, omega_power(add(exponent, ONE))), False
    e_limit, _ = ordinal_sequence_limit(lambda n: seq(n).terms[i][0], start)
    return add(prefix, omega_power(e_limit)), False


# -- the omega-product reduction --------------------------------------------------


@dataclass
class Stage:
    """One step of the peeling recursion.

    The recursion decides the stored fields: ``k``, ``beta``, the chunk
    bounds and ``b_restriction``.  ``q_map`` and ``coverage`` decide
    nothing, so they are derived on first read, from the chunk bounds and
    from B_(n+1) and the kept rows, which the stage shares with its result."""

    index: int
    k: int  # qualifying row (kept numbering)
    beta: Ordinal  # beta_n = w**delta_n
    reach: Ordinal  # the largest beta_m over stages m <= n
    chunk_lo: Ordinal  # global positions [chunk_lo, chunk_hi) feed q_n
    chunk_hi: Ordinal
    b_restriction: dict  # B_n as per-block position sets
    b_next: dict = field(repr=False, compare=False)  # B_(n+1)
    kept: _KeptRows = field(repr=False, compare=False)

    @cached_property
    def q_map(self) -> BlockwiseMap:
        """The iso from the chunk onto [0, beta_n)."""
        return _chunk_iso(self.kept.fam.carrier, self.chunk_lo, self.chunk_hi)

    @cached_property
    def coverage(self) -> list:
        """[(kept row m, delta_m, qualifies)] for every window row on B_(n+1)."""
        kept, window = self.kept, range(_COVERAGE_WINDOW)
        return [(m, kept.delta(m), kept.strong(m, self.b_next)) for m in window]


def _chunk_iso(carrier: Carrier, chunk_lo: Ordinal, chunk_hi: Ordinal) -> BlockwiseMap:
    """The unique order isomorphism from the global positions
    [chunk_lo, chunk_hi) onto [0, chunk_hi - chunk_lo), as block-wise
    monotone pieces."""
    chunk = carrier.global_range_restriction(chunk_lo, chunk_hi)
    pieces = []
    acc = ZERO
    for label in carrier.labels:
        dom = chunk[label]
        if dom.is_empty():
            continue
        length = dom.order_type()
        target = OrdinalSet.interval(acc, add(acc, length))
        pieces.append(Piece(label, "monotone", target=target, dom=dom))
        acc = add(acc, length)
    return BlockwiseMap(pieces)


def _top_rows(deltas: list) -> list:
    """The window rows whose delta_m is the window's largest."""
    top = max(deltas)
    return [m for m, delta_m in enumerate(deltas) if delta_m == top]


class ReductionResult:
    """An evaluable surjection M -> [0, alpha) with its construction record."""

    def __init__(self, fam: SurjectionFamily, kept, delta, attained_at):
        self.fam = fam
        self.carrier = fam.carrier
        self.alpha = fam.alpha
        self.delta = delta
        self._kept = kept  # _KeptRows view
        self.stages: list = []
        if attained_at is not None:
            self.case_taken = ("case1", attained_at)
            self.beta = None
            self._bij = None
        else:
            self.case_taken = ("case2", None)
            self.beta = omega_power(delta)
            self._bij = OmegaPowerBijection(delta, fuel=_FUEL)
            # the reserve zone Z is [beta, beta*2)
            self._zone_end = multiply(self.beta, Ordinal(2))
            theta = self.carrier.order_type
            if compare(theta, self._zone_end) < 0:
                raise PreconditionViolated(
                    "carrier order type must reach w**delta * 2 "
                    f"(need {fmt(self._zone_end)}, have {fmt(theta)})"
                )
            full = self.carrier.full_restriction()
            # every chunk lies in the reserve zone Z and every B_n contains
            # M \ Z, and a row's image only grows with its restriction: a
            # row strong on M \ Z is strong on every B_n, and a row weak on
            # Z is weak on every chunk.  Both answers are kept per row, by
            # caches over locals: one over self would keep it in a cycle.
            zone = self.carrier.global_range_restriction(self.beta, self._zone_end)
            outside = {label: full[label].difference(zone[label]) for label in full}
            self._strong_outside = cache(lambda j: kept.strong(j, outside))
            self._strong_on_zone = cache(lambda j: kept.strong(j, zone))

    # -- case 2 stages --------------------------------------------------

    @cached_property
    def _top(self) -> list:
        # the coverage condition holds on a restriction exactly when a
        # window row of the largest delta_m keeps full strength there
        return _top_rows([self._kept.delta(m) for m in range(_COVERAGE_WINDOW)])

    def _strong_on_b(self, j: int, b_restriction: dict) -> bool:
        """Kept row j is strong on B_n: decided once by M \\ Z, else exactly."""
        return self._strong_outside(j) or self._kept.strong(j, b_restriction)

    def _strong_on_chunk(self, j: int, chunk: dict) -> bool:
        """Kept row j is strong on a chunk: ruled out once by Z, else exactly."""
        return self._strong_on_zone(j) and self._kept.strong(j, chunk)

    def ensure_stage(self, n: int):
        """Build the stages up to n, running only the checks that can fail."""
        if self.case_taken[0] != "case2":
            raise PreconditionViolated("stages exist only in case 2")
        while len(self.stages) <= n:
            index = len(self.stages)
            delta_n = self._kept.delta(index)
            beta_n = omega_power(delta_n)
            # B_0 is the whole carrier, and B_n the last stage's B_(n+1)
            last = self.stages[-1] if index else None
            b_restriction = last.b_next if index else self.carrier.full_restriction()
            # least k with delta_n < delta_k (so beta_n*2 < beta_k) and full row strength on B_n.
            # B_n lies inside B_(n-1), so a row weak there is weak here, and
            # when delta_n >= delta_(n-1) a row not above delta_(n-1) is not
            # above delta_n: the search then resumes at the last stage's k
            search = max(_STAGE_SEARCH, index + 8)
            start = 0
            if index and compare(delta_n, self._kept.delta(index - 1)) >= 0:
                start = last.k
            k = None
            for cand in range(start, search):
                above = compare(delta_n, self._kept.delta(cand)) < 0
                if above and self._strong_on_b(cand, b_restriction):
                    k = cand
                    break
            if k is None:
                raise CoverageBroken(
                    f"no qualifying row above beta_{index} within {search} rows"
                )
            # the chunks are adjacent, from the start of the reserve zone on
            chunk_lo = last.chunk_hi if index else self.beta
            chunk_hi = add(chunk_lo, beta_n)
            chunk = self.carrier.global_range_restriction(chunk_lo, chunk_hi)
            # Branch order: first ask whether coverage survives keeping only
            # the candidate chunk.  Reserve-zone chunks never carry row
            # strength, so the complement branch is always the one taken; a
            # pass here means the instance left the structured class.
            if any(self._strong_on_chunk(m, chunk) for m in self._top):
                raise CoverageBroken(
                    "reserve chunk unexpectedly carries full row strength"
                )
            # B_n minus this chunk is B_(n+1)
            b_next = {label: b_restriction[label].difference(chunk[label]) for label in chunk}
            if not any(self._strong_on_b(m, b_next) for m in self._top):
                raise CoverageBroken(f"coverage condition fails after stage {index}")
            reach = max(last.reach, beta_n) if index else beta_n
            self.stages.append(Stage(
                index, k, beta_n, reach, chunk_lo, chunk_hi, b_restriction, b_next, self._kept
            ))

    def _first_stage(self, x: Ordinal, bound: Callable) -> Stage:
        """The first stage n < _FUEL with ``x < bound(stage n)``, a bound
        that never falls from stage to stage: a bisection over the stages
        built, then the next stages, built one at a time."""
        built = min(_FUEL, len(self.stages))
        n = bisect_right(self.stages, x, hi=built, key=bound)
        if n < built:
            return self.stages[n]
        for n in range(built, _FUEL):
            self.ensure_stage(n)
            if x < bound(self.stages[n]):
                return self.stages[n]
        raise FuelExhausted(f"no stage reaches {fmt(x)} within fuel {_FUEL}")

    # -- evaluation -------------------------------------------------------

    def surjection(self, element) -> Ordinal:
        return self._alpha_value(self.m_to_delta(element))

    def m_to_delta(self, element) -> Ordinal:
        """The intermediate surjection M -> [0, delta)."""
        if self.case_taken[0] == "case1":
            k = self.case_taken[1]
            value = self._kept.row(k)(self.carrier, element)
            return self._kept.image(k).locate(value)
        p = self.carrier.global_position(element)
        if compare(p, self.beta) < 0 or compare(p, self._zone_end) >= 0:
            # outside the reserve zone, so inside every B_n: the glued map
            # sends it to zero
            return self._bij.down(ZERO)
        # the chunks are adjacent and increasing
        stage = self._first_stage(p, attrgetter("chunk_hi"))
        return self._bij.down(left_subtract(stage.chunk_lo, p))

    def _alpha_value(self, z: Ordinal) -> Ordinal:
        """The pairing-decoded step from delta onto alpha, extended by zero."""
        decoded = _nat_pair(self.delta, z)
        if decoded is None or not self.fam.has_row(decoded[0]):
            return ZERO
        n, gamma = decoded
        image = self.fam.row_image(n)
        if compare(gamma, image.order_type()) >= 0:
            return ZERO
        return image.enumerate(gamma)

    # -- witnesses ---------------------------------------------------------

    def delta_witness(self, z: Ordinal):
        """A carrier element that the M -> delta stage sends to z < delta."""
        if compare(z, self.delta) >= 0:
            raise BoundViolation(f"{fmt(z)} is not below delta = {fmt(self.delta)}")
        if self.case_taken[0] == "case1":
            k = self.case_taken[1]
            target_value = self._kept.image(k).enumerate(z)
            found = _least_preimage(self._kept.row(k), self.carrier, target_value)
            if found is None:
                raise WitnessNotFound(f"row {k} has no preimage of {fmt(target_value)}")
            return found
        w = self._bij.up(z)
        # the first stage with w < beta_n is the first whose running largest beta passes w
        stage = self._first_stage(w, attrgetter("reach"))
        return self.carrier.element_at(add(stage.chunk_lo, w))

    def witness_for(self, gamma: Ordinal):
        """A carrier element mapped to gamma by the surjection."""
        if compare(gamma, self.alpha) >= 0:
            raise BoundViolation(f"target {fmt(gamma)} is not below alpha")
        scan = _row_scan(self.fam)
        rows = (n for n in range(scan) if self.fam.has_row(n))
        n = next((n for n in rows if self.fam.row_image(n).contains(gamma)), None)
        if n is None:
            # past the scan, the tail's forms name the first row that holds gamma
            n = self.fam.first_reach(add(gamma, ONE), scan)
        if n is None:
            raise WitnessNotFound(f"no row covers {fmt(gamma)} within {scan} rows")
        z = pair_encode(self.delta, Ordinal(n), self.fam.row_image(n).locate(gamma))
        return self.delta_witness(z)


def _least_preimage(row: BlockwiseMap, carrier: Carrier, value: Ordinal):
    """The least position, in the first block that has one, that ``row``
    maps to ``value``; None if there is none."""
    restriction = preimage_of(row, carrier, OrdinalSet.point(value))
    for label in carrier.labels:
        positions = restriction[label]
        if positions.is_empty():
            continue
        candidate = (label, positions.min_element())
        if compare(row(carrier, candidate), value) == 0:
            return candidate
    return None


def _nat_pair(theta: Ordinal, p: Ordinal) -> Optional[tuple]:
    """(n, q) when p codes a pair (n, q) below theta with n a natural, as
    an int; None otherwise."""
    decoded = pair_decode(theta, p)
    t = decoded[0]._terms if decoded else None
    if t is None or t and (len(t) > 1 or t[0][0]._terms):  # no pair, or n is not a natural
        return None
    return (t[0][1] if t else 0), decoded[1]


def _code_point(carrier: Carrier, n: int, y):
    """The element at the code of (n, y's global position): the point that
    a pairing sweep of the carrier reads as y in row n."""
    theta = carrier.order_type
    return carrier.element_at(pair_encode(theta, Ordinal(n), carrier.global_position(y)))


def _row_scan(fam: SurjectionFamily) -> int:
    """Rows searched one by one for a witness or a first cover: every
    explicit row (a transfer family can have many), and at least _ROW_SCAN
    rows of a tail.  Past them, a parsed tail's forms say which rows to
    go on to (see :meth:`SurjectionFamily.first_reach`)."""
    return max(_ROW_SCAN, len(fam.rows))


class _KeptRows:
    """Renumbered view of the family with finite-order-type rows dropped."""

    def __init__(self, fam: SurjectionFamily):
        self.fam = fam
        self._kept: list = []
        self._next_original = 0

    def _extend_to(self, j: int):
        while len(self._kept) <= j:
            n = self._next_original
            if self.fam.has_row(n) and self.fam.delta(n).is_infinite():
                self._kept.append(n)
            elif not self.fam.has_row(n) or n >= len(self.fam.rows):
                # a settled tail keeps one shape: once a tail row is finite, all are
                raise CoverageBroken(f"fewer than {j + 1} rows with infinite order type")
            self._next_original += 1

    def original(self, j: int) -> int:
        self._extend_to(j)
        return self._kept[j]

    def row(self, j: int) -> BlockwiseMap:
        return self.fam.row(self.original(j))

    def image(self, j: int) -> OrdinalSet:
        return self.fam.row_image(self.original(j))

    def delta(self, j: int) -> Ordinal:
        return self.fam.delta(self.original(j))

    def strong(self, j: int, restriction: dict) -> bool:
        """Kept row j keeps full strength on the restriction: its restricted
        image (a subset of its full image) still has order type delta_j."""
        image = image_of(self.row(j), self.fam.carrier, restriction)
        return compare(image.order_type(), self.delta(j)) == 0


def _compute_delta(fam: SurjectionFamily) -> tuple:
    """(delta, attained_kept_index or None) over the filtered rows."""
    # the kept rows among the explicit (non-tail) originals, in order
    explicit = [d for d in map(fam.delta, range(len(fam.rows))) if d.is_infinite()]
    best = ZERO
    best_at = None
    for j, d in enumerate(explicit):
        if compare(d, best) > 0:
            best, best_at = d, j
    if fam.tail_rule is not None:
        limit, attained = ordinal_sequence_limit(fam.delta, fam.tail_start)
        if limit.is_infinite() and compare(limit, best) > 0:
            # every tail row has the shape of the first, so all are kept
            return limit, (len(explicit) if attained else None)
    if best_at is None:
        raise PreconditionViolated("no rows with infinite order type")
    return best, best_at


def reduce_omega_product(fam: SurjectionFamily) -> ReductionResult:
    """Turn the presented surjection omega x M -> alpha into M -> alpha.

    Rows with finite order type are dropped and the rest renumbered; the
    supremum delta of the remaining order types must exceed omega.  Case 1
    (delta attained) inverts the attaining row; case 2 peels one chunk per
    stage from the carrier's reserve zone, each chunk isomorphic to
    [0, beta_n), and glues the stage maps with zero on the intersection.
    """
    delta, attained_at = _compute_delta(fam)
    if compare(delta, OMEGA) <= 0:
        raise PreconditionViolated(
            f"delta = {fmt(delta)} must exceed w for the reduction"
        )
    result = ReductionResult(fam, _KeptRows(fam), delta, attained_at)
    if result.case_taken[0] == "case2":
        result.ensure_stage(2)  # materialize the first stages eagerly
    return result


# -- bounded surjectivity verification ------------------------------------------


@dataclass
class VerificationReport:
    bound: Ordinal
    entries: list = field(default_factory=list)  # (interval, row, samples)

    def lines(self) -> list:
        out = []
        for (lo, hi), row, samples in self.entries:
            out.append(f"interval=[{fmt(lo)},{fmt(hi)}) row={row}")
            for target, (label, pos), value in samples:
                out.append(f"target={fmt(target)} witness={label}:{fmt(pos)} value={fmt(value)}")
        return out


# positive and increasing, so lo + x over them is distinct and increasing
_SPREAD = tuple(parse(text) for text in ("1", "2", "5", "w", "w*2+1", "w^2", "w^2+w+1", "w^3"))


def _interval_samples(lo: Ordinal, hi: Ordinal) -> list:
    samples = [lo]
    for x in _SPREAD:
        candidate = add(lo, x)
        if compare(candidate, hi) < 0:
            samples.append(candidate)
    return samples


def _still_coverable(fam: SurjectionFamily, rest: OrdinalSet, n: int) -> bool:
    """Whether rows from ``n`` on may still cover ``rest``: some row must
    hold its least point, and some row a left neighbourhood of its least
    upper bound.  Such a row lowers that bound, and ordinals do not fall
    forever, so taking rows while this holds ends."""
    least, top = rest.intervals[0][0], rest.intervals[-1][1]
    return fam.first_reach(add(least, ONE), n) is not None and fam.first_reach(top, n) is not None


def verify_surjective(result, bound: Ordinal) -> VerificationReport:
    """Witness search over every first-cover target interval below bound.

    ``result`` is a :class:`ReductionResult` or a :class:`TransferResult`.
    Targets are partitioned by the least row whose image covers them;
    each interval gets a deterministic spread of sample targets, every
    sample is inverted through the construction and the resulting witness
    re-evaluated.

    Rows are taken while there are any and, past the row scan, while later
    rows may still cover what is left (see :func:`_still_coverable`).  The
    rows settle the coverage first, so a refusal samples nothing.
    """
    if compare(bound, result.alpha) > 0:
        raise BoundViolation("bound must be at most alpha")
    if bound.is_zero():
        raise BoundViolation("bound 0 leaves no target to verify")
    rest = OrdinalSet.interval(ZERO, bound)  # the targets no row has covered yet
    scan = _row_scan(result.fam)
    first_covers = []  # (row, the targets it covers first)
    for n in itertools.count():
        if rest.is_empty():
            break
        if not result.fam.has_row(n) or n >= scan and not _still_coverable(result.fam, rest, n):
            raise WitnessNotFound(f"rows 0..{n - 1} do not cover [0, {fmt(bound)})")
        fresh = result.fam.row_image(n).intersect(rest)
        first_covers.append((n, fresh))
        rest = rest.difference(fresh)
    report = VerificationReport(bound)
    for n, fresh in first_covers:
        for lo, hi in fresh.intervals:
            samples = []
            for target in _interval_samples(lo, hi):
                witness = result.witness_for(target)
                value = result.surjection(witness)
                if compare(value, target) != 0:
                    raise WitnessNotFound("a witness failed re-evaluation")
                samples.append((target, witness, value))
            report.entries.append(((lo, hi), n, samples))
    return report


# -- finite-to-one transfer -------------------------------------------------------


def _compose_monotone(f_piece, g_piece, source: Carrier) -> list:
    """Pieces (over the destination carrier) of g restricted to one
    monotone f-piece composed with one g-piece."""
    # the part of both domains that f maps isomorphically onto its target
    both = f_piece.domain_in(source).intersect(g_piece.domain_in(source))
    iso = both.difference(f_piece.overflow(source))
    if iso.is_empty():
        return []
    label = f_piece.target_label
    if g_piece.kind == "constant":
        return [Piece(label, "constant", value=g_piece.value, dom=f_piece.image(source, iso))]
    dead = iso.intersect(g_piece.overflow(source))
    live = iso.difference(dead)
    out = []
    if not live.is_empty():
        values = g_piece.image(source, live)
        out.append(Piece(label, "monotone", target=values, dom=f_piece.image(source, live)))
    if not dead.is_empty():
        out.append(Piece(label, "constant", value=ZERO, dom=f_piece.image(source, dead)))
    return out


def _fiber_rows(f: CarrierMap, g: BlockwiseMap) -> list:
    """Rows of the induced family omega x M -> alpha: one row per monotone
    piece composition, one singleton row per point of each finite fiber
    chunk (constant pieces and zero-extension overflow)."""
    source = f.source
    rows = []
    for fp in f.pieces:
        if fp.kind == "constant":
            fiber, position = fp.domain_in(source), fp.value
        else:
            for gp in g.pieces:
                if gp.label != fp.label:
                    continue
                pieces = _compose_monotone(fp, gp, source)
                if pieces:
                    rows.append(BlockwiseMap(pieces))
            # zero-extension overflow: all of it lands on position 0
            fiber, position = fp.overflow(source), ZERO
        total = fiber.order_type()
        if not total.is_nat():
            raise PreconditionViolated(
                f"infinite fiber over {fmt(position)}: {fp.kind} carrier piece on {fp.label!r}"
            )
        # one row per fiber point q, sending the target position to g(q)
        for q in fiber.iter_prefix(total.nat_value()):
            value = g(source, (fp.label, q))
            piece = Piece(fp.target_label, "constant", value=value, dom=OrdinalSet.point(position))
            rows.append(BlockwiseMap([piece]))
    return rows


def fiber_family_values(n_size: int, m_size: int, f_vals, g_vals) -> list:
    """Finite-model view of the induced family, for exhaustive checks.

    Builds one-block carriers of the given sizes, presents f and g by
    per-point pieces, and returns the value of every induced row at every
    destination point (None where a row is silent).
    """
    n_carrier = Carrier([("n", OrdinalSet.interval(ZERO, Ordinal(n_size)))])
    m_carrier = Carrier([("m", OrdinalSet.interval(ZERO, Ordinal(m_size)))])
    def point_map(values, target_label=None) -> list:
        """One constant piece per point i of block n, with value values[i]."""
        return [
            Piece("n", "constant", value=Ordinal(values[i]),
                  dom=OrdinalSet.point(Ordinal(i)), target_label=target_label)
            for i in range(n_size)
        ]

    f_map = CarrierMap(n_carrier, m_carrier, point_map(f_vals, "m"))
    rows = _fiber_rows(f_map, BlockwiseMap(point_map(g_vals)))
    values = [[row.evaluate(m_carrier, ("m", Ordinal(i))) for i in range(m_size)] for row in rows]
    return [[None if v is None else v.nat_value() for v in row] for row in values]


@dataclass
class TransferResult:
    carrier: Carrier
    alpha: Ordinal
    fam: SurjectionFamily
    route: str  # 'reduce' | 'row' | 'sweep'
    reduction: Optional[ReductionResult]
    row_index: int = 0

    def surjection(self, element) -> Ordinal:
        if self.route == "reduce":
            return self.reduction.surjection(element)
        if self.route == "row":
            return self.fam.row(self.row_index)(self.carrier, element)
        decoded = _nat_pair(self.carrier.order_type, self.carrier.global_position(element))
        if decoded is None or decoded[0] >= len(self.fam.rows):
            return ZERO
        j, q = decoded
        return self.fam.row(j)(self.carrier, self.carrier.element_at(q))

    def witness_for(self, gamma: Ordinal):
        if self.route == "reduce":
            return self.reduction.witness_for(gamma)
        rows = [self.row_index] if self.route == "row" else range(len(self.fam.rows))
        for j in rows:
            if not self.fam.row_image(j).contains(gamma):
                continue
            y = _least_preimage(self.fam.row(j), self.carrier, gamma)
            if y is None:
                continue
            return y if self.route == "row" else _code_point(self.carrier, j, y)
        raise WitnessNotFound(f"no row reaches {fmt(gamma)}")


def finite_to_one_transfer(f: CarrierMap, g: BlockwiseMap, alpha: Ordinal) -> TransferResult:
    """From finite-to-one f: N -> M and surjective g: N -> [0, alpha),
    an evaluable surjection M -> [0, alpha).

    The fiber values are laid out as a presented family omega x M -> alpha
    and reduced when the reduction's precondition holds; otherwise the
    family is swept through the carrier's pairing enumeration (still a
    definable surjection, verified by bounded search).
    """
    if compare(alpha, OMEGA) < 0:
        raise PreconditionViolated("alpha must be infinite")
    if not g.is_total_on(f.source):
        raise PreconditionViolated("g must be total on the source carrier")
    # extend each row by 0 only where its pieces leave a block uncovered: a
    # whole-block default would overlap them, and image_of would count a 0
    # that the row never takes
    rows = []
    for row in _fiber_rows(f, g):
        pads = []
        for label in f.dest.labels:
            gap = row.gap(f.dest, label)
            if not gap.is_empty():
                pads.append(Piece(label, "constant", value=ZERO, dom=gap))
        rows.append(BlockwiseMap(row.pieces + tuple(pads)))
    fam = SurjectionFamily(f.dest, alpha, rows)
    fam.check_coverage()
    try:
        reduction = reduce_omega_product(fam)
        return TransferResult(f.dest, alpha, fam, "reduce", reduction)
    except PreconditionViolated:
        pass
    span = OrdinalSet.interval(ZERO, alpha)
    for j in range(len(rows)):
        if span.is_subset(fam.row_image(j)):
            # a single fiber row already surjects (e.g. singleton fibers)
            return TransferResult(f.dest, alpha, fam, "row", None, row_index=j)
    return TransferResult(f.dest, alpha, fam, "sweep", None)


# -- refuters ----------------------------------------------------------------------


@dataclass
class RefutationWitness:
    missed_set: QueryableSet
    # (tag, index, point, in_missed, in_listed, listed): the two answers the
    # refuter's search read; recheck asks both sets again
    distinguishers: list

    def recheck(self) -> bool:
        for _, _, point, in_missed, in_listed, set_ref in self.distinguishers:
            if self.missed_set.contains(point) != in_missed:
                return False
            if set_ref.contains(point) != in_listed:
                return False
            if in_missed == in_listed:
                return False
        return True


class _SampleAnswers:
    """One refuter call's answers of sets on its sample points, each asked
    once.  Per set ``[set, bits, asked]``: once bit k of ``asked`` is set,
    bit k of ``bits`` is the answer at ``points[k]`` (ints, as tuples of 64
    answers are too large for Python's small-object allocator and raised
    the refuters' peak memory).  Keyed by the set's id: the memo holds each
    set, so no id is reused while it lives.  :meth:`close` drops every
    answer, so that the rechecks ask afresh."""

    def __init__(self, points: list):
        self.points = points
        self._bit = {w: 1 << q for q, w in enumerate(points)}
        self._all = (1 << len(points)) - 1
        self._memo: dict = {}

    def _entry(self, s: QueryableSet) -> list:
        entry = self._memo.get(id(s))
        if entry is None:
            entry = self._memo[id(s)] = [s, 0, 0]
        return entry

    def ask(self, s: QueryableSet, x) -> bool:
        """``s.contains(x)``, asked once if ``x`` is a sample point."""
        bit = self._bit.get(x)
        if bit is None:
            return s.contains(x)
        entry = self._memo.get(id(s))
        if entry is None:
            entry = self._memo[id(s)] = [s, 0, 0]
        if not entry[2] & bit:
            entry[2] |= bit
            if s.contains(x):
                entry[1] |= bit
        return bool(entry[1] & bit)

    def signature(self, s: QueryableSet) -> int:
        """The answers of ``s`` on all the points, bit k for ``points[k]``:
        two sets differ on the points exactly when their signatures do."""
        entry = self._entry(s)
        missing = self._all & ~entry[2]
        if missing:
            points, bits = self.points, entry[1]
            while missing:
                bit = missing & -missing  # the lowest point not yet asked
                if s.contains(points[bit.bit_length() - 1]):
                    bits |= bit
                missing ^= bit
            entry[1], entry[2] = bits, self._all
        return entry[1]

    def confirm(self, s: QueryableSet, members: Iterable):
        """Record ``members``, points already confirmed in ``s``."""
        entry = self._entry(s)
        for x in members:
            bit = self._bit.get(x)
            if bit is not None:
                entry[1] |= bit
                entry[2] |= bit

    def close(self):
        self._bit, self._memo = {}, {}


def _listing_pairs(bound: int, width: int):
    """The pairs (n, i) with i < ``width`` among the first ``bound`` pairs in
    diagonal order, where (n, level - n) is pair level*(level+1)/2 + n."""
    for level in itertools.count():
        first = level * (level + 1) // 2
        if first >= bound:
            return
        for n in range(max(0, level - width + 1), min(level + 1, bound - first)):
            yield n, level - n


def _check_arguments(carrier: Carrier, table: list, check_bound: int) -> _SampleAnswers:
    """What both refuters need before any set is asked: a check bound in
    range, an infinite carrier and a nonempty table.  Returns the answers
    on the carrier's sample points, none asked yet."""
    if not 1 <= check_bound <= _MAX_CHECK:
        side = "least 1" if check_bound < 1 else f"most {_MAX_CHECK}"
        raise BoundViolation(f"check bound must be at {side}, not {check_bound}")
    if not carrier.order_type.is_infinite():
        raise PreconditionViolated("carrier must be infinite")
    if not table:
        raise PreconditionViolated("table must be nonempty")
    return _SampleAnswers(carrier.sample_elements(_REFUTER_SAMPLES))


def _induced_index(phi: Callable, table: list, answers: _SampleAnswers) -> tuple:
    """The cached maps (n, x) -> phi(n, x), and (n, x) -> the table index
    whose entry agrees with phi(n, x) on the sample points, 0 when none
    does.  Signs the table first: no two entries may agree there."""
    signatures = [answers.signature(entry) for entry in table]
    for i, signature in enumerate(signatures):
        if signature in signatures[i + 1:]:
            j = signatures.index(signature, i + 1)
            raise TableNotInjective(f"table entries {i} and {j} agree on all samples")
    index = {signature: i for i, signature in enumerate(signatures)}
    listed = cache(phi)

    @cache
    def induced(n: int, x) -> int:
        return index.get(answers.signature(listed(n, x)), 0)  # extended by zero

    return listed, induced


def _listing_claims(listed: Callable, points: list, check_bound: int, more: Callable):
    """The claims against the listed sets phi(n, points[i]) for the first
    ``check_bound`` pairs (n, i) in diagonal order: each is searched at
    the sample points, then at the points ``more(n, points[i])`` yields,
    which are read only when no sample point separates."""
    for n, q in _listing_pairs(check_bound, len(points)):
        x = points[q]
        yield (n, q), None, listed(n, x), itertools.chain(points, more(n, x))


def _refutation(
    missed: QueryableSet,
    claims: Iterable,
    answers: _SampleAnswers,
    missed_name: str,
    known_members: Iterable = (),
) -> RefutationWitness:
    """The witness: one distinguisher per claim ``(tag, index, listed,
    candidates)``, in the claims' order, at the first candidate point where
    ``listed`` differs from ``missed``; every distinguisher is rechecked.
    Table entry i is claimed as ("table", i), the listed set phi(n, sample
    i) as ((n, i), None).  The missed set is asked once per point in this
    call, and not at all at ``known_members``, points the caller has
    already confirmed in it.  Every other set is asked at most once per
    sample point, through ``answers``, until the recheck."""
    in_missed = dict.fromkeys(known_members, True)
    distinguishers = []
    for tag, index, listed, candidates in claims:
        for w in candidates:
            answer = in_missed.get(w)
            if answer is None:
                answer = in_missed[w] = missed.contains(w)
            in_listed = answers.ask(listed, w)
            if answer != in_listed:
                distinguishers.append((tag, index, w, answer, in_listed, listed))
                break
        else:
            claim = f"table entry {index}" if tag == "table" else "phi({}, sample {})".format(*tag)
            raise WitnessNotFound(f"cannot separate the {missed_name} from {claim}")
    witness = RefutationWitness(missed, distinguishers)
    answers.close()
    if not witness.recheck():
        raise WitnessNotFound("a recorded distinguisher failed re-evaluation")
    return witness


def refute_powerset(
    phi: Callable,
    carrier: Carrier,
    table: list,
    check_bound: int = 1000,
) -> RefutationWitness:
    """One extension step against a listing of subsets.

    The finite table plays the injective stage; the listing induces a
    family onto the table indices, the carrier's pairing enumeration
    collapses it to a single listing M -> P(M), and the diagonal of that
    listing is returned together with re-checkable distinguishers against
    every table entry and every listed set below the check bound.  A listed
    set phi(n, y) is separated at the first sample point where the diagonal
    differs from it, or failing that at its own code point, the element
    that collapses to (n, y).
    """
    answers = _check_arguments(carrier, table, check_bound)
    points = answers.points
    theta = carrier.order_type
    listed, induced = _induced_index(phi, table, answers)

    @cache
    def collapse(x) -> int:
        decoded = _nat_pair(theta, carrier.global_position(x))
        return 0 if decoded is None else induced(decoded[0], carrier.element_at(decoded[1]))

    def listing(x) -> QueryableSet:
        return table[collapse(x)]

    missed = cantor_diagonal(listing, carrier, answers.ask)

    # the code point of the first checked pair that induces entry i
    # separates the diagonal from table[i], found for every entry in one
    # walk; the samples are the fallback
    leads: dict = {}
    for n, q in _listing_pairs(check_bound, len(points)):
        if len(leads) == len(table):
            break
        i = induced(n, points[q])
        if i not in leads:
            leads[i] = [_code_point(carrier, n, points[q])]

    def code_point(n: int, x):
        yield _code_point(carrier, n, x)

    claims = itertools.chain(
        (("table", i, entry, leads.get(i, []) + points) for i, entry in enumerate(table)),
        _listing_claims(listed, points, check_bound, code_point),
    )
    return _refutation(missed, claims, answers, "diagonal")


def refute_infinite_powerset(
    phi: Callable,
    carrier: Carrier,
    table: list,
    check_bound: int = 1000,
    certificate_members: int = 100,
) -> RefutationWitness:
    """One extension step against a listing of infinite subsets.

    Runs the step at stage omega: a padded sweep surjection g: M -> omega
    carries subsets of omega into infinite subsets of M (pair codes tagged
    0 for members of an infinite set, 1 for non-members of a finite one);
    the table pulls back through that injection, the diagonal set B below
    omega is provably infinite (it contains every index beyond the table),
    and its image is returned with an infinite certificate.
    """
    answers = _check_arguments(carrier, table, check_bound)
    points = answers.points
    for i, entry in enumerate(table):
        if entry.certificate is None or entry.certificate[0] != "infinite":
            raise CertificateError(f"table entry {i} lacks an infinite certificate")
        answers.confirm(entry, entry.validate_certificate(carrier.is_element, samples=8))
    theta = carrier.order_type
    size = len(table)

    def infinite_phi(n: int, x) -> QueryableSet:
        listed = phi(n, x)
        if listed.certificate is not None and listed.certificate[0] == "finite":
            raise CertificateError("listed sets must be infinite")
        return listed

    listed, induced = _induced_index(infinite_phi, table, answers)

    # g and the coding steps below are pure: each is computed once per call
    @cache
    def g_value(x) -> Ordinal:
        """Padded sweep M -> omega: tag 0 routes through the listing,
        tag 1 enumerates omega directly."""
        decoded = _nat_pair(theta, carrier.global_position(x))
        if decoded is not None:
            j, q = decoded
            inner = _nat_pair(theta, q) if j == 0 else None
            if inner is not None:
                return Ordinal(induced(inner[0], carrier.element_at(inner[1])))
            if j == 1 and q.is_nat():
                return q
        return ZERO

    @cache
    def g_witness(v: Ordinal):
        """An element with g_value == v, via the padding lane."""
        return carrier.element_at(pair_encode(theta, ONE, v))

    @cache
    def lane_point(zeta: Ordinal, tag: Ordinal):
        """The element that g sends to the code of (zeta, tag) below omega."""
        return g_witness(pair_encode(OMEGA, zeta, tag))

    def carry(ordinal_set: QueryableSet) -> QueryableSet:
        """t: subsets of omega -> infinite subsets of M."""
        image = pset_to_infpset(OMEGA, ordinal_set)

        def membership(x) -> bool:
            return image.contains(g_value(x))

        _, enum = image.certificate

        def enumerator(k: int):
            return g_witness(enum(k))

        return QueryableSet(membership, ("infinite", enumerator))

    def table_pullback(z: int) -> QueryableSet:
        """u(z): the subset of omega whose carried image matches table[z],
        read through the tagged codes; garbage off the carried range."""
        entry = table[z]

        def zero_read(zeta: Ordinal) -> bool:
            return answers.ask(entry, lane_point(zeta, ZERO))

        def one_read(zeta: Ordinal) -> bool:
            return not answers.ask(entry, lane_point(zeta, ONE))

        for probe in range(_REFUTER_SAMPLES):
            if zero_read(Ordinal(probe)):
                return QueryableSet(zero_read)
        return QueryableSet(one_read)

    pullbacks = [table_pullback(z) for z in range(size)]

    def diag_membership(zeta: Ordinal) -> bool:
        # asked only at naturals: pair_decode under w and the certificate checks
        z = zeta.nat_value()
        if z >= size:
            return True  # beyond the table: u(z) is empty, so z enters B
        return not pullbacks[z].contains(zeta)

    diagonal = QueryableSet(diag_membership, ("infinite", lambda k: Ordinal(size + k)))
    missed = carry(diagonal)
    members = missed.validate_certificate(carrier.is_element, samples=certificate_members)

    # padding-lane elements of the diagonal's indices beyond the table (the
    # missed set's first members, so the checked ones are reused), and the
    # points a listed set is searched at after the samples: built once
    lane = members[:_REFUTER_SAMPLES]
    lane += [lane_point(Ordinal(p + size), ZERO) for p in range(len(lane), _REFUTER_SAMPLES)]
    probes = []
    for probe in range(_REFUTER_SAMPLES):
        probes += [g_witness(Ordinal(probe)), lane[probe]]

    claims = itertools.chain(
        (("table", i, entry, lane + points) for i, entry in enumerate(table)),
        _listing_claims(listed, points, check_bound, lambda n, x: probes),
    )
    return _refutation(missed, claims, answers, "missed set", members)


# -- power Dedekind infiniteness witness ---------------------------------------------


def kuratowski_witness(g: Callable, carrier: Carrier, bound: int) -> list:
    """From an evaluable surjection M -> omega (surjective below ``bound``),
    the disjoint fiber family n -> g^{-1}({n}) witnessing that the power
    set is Dedekind infinite.  Raises on an empty fiber below the bound."""
    points = carrier.sample_elements(_KURATOWSKI_SAMPLES)
    fibers = []
    for n in range(bound):
        fiber = QueryableSet(lambda x, target=Ordinal(n): compare(g(x), target) == 0)
        if not any(map(fiber.contains, points)):
            raise EmptyFiber(f"no sampled preimage of {n}; g is not surjective")
        fibers.append(fiber)
    return fibers


# -- well-order code surrogate ---------------------------------------------------------


def ordinal_to_bits(x: Ordinal) -> tuple:
    """Canonical code: the set of set-bit indices of the rendering's bytes."""
    text = fmt(x)
    bits = []
    for i, ch in enumerate(text.encode("ascii")):
        for j in range(8):
            if ch >> j & 1:
                bits.append(8 * i + j)
    return tuple(bits)


def bits_to_ordinal(bits: Iterable) -> Ordinal:
    """Inverse of :func:`ordinal_to_bits`; non-codes decode to 0."""
    bit_set = set(bits)
    if not bit_set:
        return ZERO
    if any(not isinstance(b, int) or b < 0 for b in bit_set):
        return ZERO
    size = max(bit_set) // 8 + 1
    chars = []
    for i in range(size):
        byte = sum(1 << j for j in range(8) if 8 * i + j in bit_set)
        if not (32 <= byte < 127):
            return ZERO
        chars.append(chr(byte))
    text = "".join(chars)
    try:
        value = parse(text)
    except ToolkitError:
        return ZERO
    if fmt(value) != text:
        return ZERO  # only canonical renderings count as codes
    return value


def _finite_strict_order_type(pairs: list) -> int:
    """The size of the field of ``pairs`` if they strictly and totally
    order it, else 0.  They do just when the ranks (the number of points
    related below a point) are distinct and ``a`` is related to ``b``
    exactly when it ranks lower: ``k*(k-1)/2`` pairs, each rising."""
    relation = set(pairs)
    rank = dict.fromkeys(itertools.chain.from_iterable(relation), 0)
    for _, b in relation:
        rank[b] += 1
    k = len(rank)
    if len(set(rank.values())) != k or len(relation) != k * (k - 1) // 2:
        return 0
    return k if all(rank[a] < rank[b] for a, b in relation) else 0


def wellorder_decode(code) -> Ordinal:
    """Total decoder from codes to ordinals below epsilon-0.

    A list of pairs of naturals is read as a finite strict order (its
    size is the order type); a collection of naturals is read as the
    bit-set code of a canonical rendering.  Everything else decodes to 0.
    """
    items = list(code)
    if items and all(
        isinstance(item, (tuple, list)) and len(item) == 2 for item in items
    ):
        pairs = [(int(a), int(b)) for a, b in items]
        return Ordinal(_finite_strict_order_type(pairs))
    if all(isinstance(item, int) for item in items):
        return bits_to_ordinal(items)
    return ZERO
