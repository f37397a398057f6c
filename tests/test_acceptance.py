"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import io
import itertools
import random
from contextlib import redirect_stdout
from pathlib import Path

from families import CARRIER, infinite_powerset_families, powerset_families
from ordkit.carriers import Carrier, QueryableSet, load_instance
from ordkit.cli import main as cli_main
from ordkit.coding import OmegaPowerBijection, fin_decode, fin_encode, pair_decode, pair_encode
from ordkit.core import (
    OMEGA,
    ZERO,
    Ordinal,
    add,
    compare,
    left_subtract,
    multiply,
    omega_power,
    parse,
)
from ordkit.errors import FuelExhausted
from ordkit.intervals import OrdinalSet, indecomposable_split
from ordkit.oracle import VecOverflow, exhaustive_check, vec_add, vec_cmp, vec_mul
from ordkit.reduction import (
    cantor_diagonal,
    reduce_omega_product,
    refute_infinite_powerset,
    refute_powerset,
    verify_surjective,
)
from reference import embed_vec

INSTANCES = Path(__file__).parent / "instances"


def o(text):
    return parse(text)


def report(number, description, passed=True):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number:2d} [{status}] {description}")
    assert passed, f"criterion {number}: {description}"


def rand_flat(rng, max_exp=5, max_terms=4, max_coeff=30):
    exponents = sorted(rng.sample(range(max_exp + 1), rng.randrange(max_terms + 1)), reverse=True)
    return Ordinal.from_terms([(Ordinal(e), rng.randrange(1, max_coeff)) for e in exponents])


def test_criterion_1_arithmetic_oracle_equivalence():
    vectors = list(itertools.product(range(6), repeat=3))
    cases = 0
    mismatches = 0
    for a in vectors:
        ea = embed_vec(a)
        for b in vectors:
            eb = embed_vec(b)
            cases += 1
            if embed_vec(vec_add(a, b)) != add(ea, eb):
                mismatches += 1
            if vec_cmp(a, b) != compare(ea, eb):
                mismatches += 1
            try:
                if embed_vec(vec_mul(a, b)) != multiply(ea, eb):
                    mismatches += 1
            except VecOverflow:
                pass
    report(
        1,
        f"vector-model agreement on {cases} cross-product cases, {mismatches} mismatches",
        cases >= 40_000 and mismatches == 0,
    )


def test_criterion_2_algebraic_laws():
    rng = random.Random(101)
    failures = 0
    trials = 10_000
    for _ in range(trials):
        a, b, c = rand_flat(rng), rand_flat(rng), rand_flat(rng)
        if add(add(a, b), c) != add(a, add(b, c)):
            failures += 1
        if multiply(multiply(a, b), c) != multiply(a, multiply(b, c)):
            failures += 1
        if multiply(a, add(b, c)) != add(multiply(a, b), multiply(a, c)):
            failures += 1
        if compare(b, c) < 0:
            if compare(add(a, b), add(a, c)) >= 0:
                failures += 1
            if not a.is_zero() and compare(multiply(a, b), multiply(a, c)) >= 0:
                failures += 1
        low, high = (a, b) if compare(a, b) <= 0 else (b, a)
        if add(low, left_subtract(low, high)) != high:
            failures += 1
    report(2, f"algebraic laws on {trials} random triples, {failures} failures", failures == 0)


class _OrdinalKey:
    def __init__(self, v):
        self.v = v

    def __lt__(self, other):
        return compare(self.v, other.v) < 0


def _rand_below(rng, alpha):
    """A random ordinal below alpha, for alpha of the shapes the
    criteria use: w, w^2, w^w, and their omega powers."""
    lead = alpha.degree
    if lead == Ordinal(1):
        return Ordinal(rng.randrange(100_000))
    if lead.is_nat():
        d = lead.nat_value()
        exponents = sorted(rng.sample(range(d), rng.randrange(min(d, 3) + 1)), reverse=True)
        return Ordinal.from_terms([(Ordinal(e), rng.randrange(1, 50)) for e in exponents])
    if lead == OMEGA:
        return rand_flat(rng, max_exp=5, max_terms=3, max_coeff=9)
    # lead below w^3: exponents of the form w*a + b
    count = rng.randrange(3)
    exponents = set()
    while len(exponents) < count:
        exponents.add(
            add(multiply(OMEGA, Ordinal(rng.randrange(5))), Ordinal(rng.randrange(5)))
        )
    ordered = sorted(exponents, key=_OrdinalKey, reverse=True)
    return Ordinal.from_terms([(e, rng.randrange(1, 9)) for e in ordered])


def _sample_pairs(rng, alpha, count):
    pairs = set()
    while len(pairs) < count:
        pairs.add((_rand_below(rng, alpha), _rand_below(rng, alpha)))
    return pairs


def test_criterion_3_pair_and_fin_codings():
    rng = random.Random(202)
    ok = True
    detail = []
    for alpha_text in ("w", "w^2", "w^w"):
        alpha = o(alpha_text)
        pairs = _sample_pairs(rng, alpha, 10_000)
        codes = set()
        for x, y in pairs:
            z = pair_encode(alpha, x, y)
            if compare(z, alpha) >= 0 or pair_decode(alpha, z) != (x, y):
                ok = False
            codes.add(z)
        if len(codes) != len(pairs):
            ok = False
        detail.append(f"{alpha_text}:{len(pairs)}")
    fin_codes = set()
    for r in range(11):
        for subset in itertools.combinations(range(10), r):
            members = [Ordinal(v) for v in reversed(subset)]
            code = fin_encode(OMEGA, members)
            fin_codes.add(code)
            if fin_decode(OMEGA, code) != members:
                ok = False
    if len(fin_codes) != 1024:
        ok = False
    report(3, f"pair codings injective ({', '.join(detail)}); fin coding exhaustive on 2^10 subsets", ok)


def test_criterion_4_omega_power_bijection_roundtrips():
    rng = random.Random(303)
    exhaustions = 0
    ok = True
    for alpha_text in ("w", "w^2"):
        alpha = o(alpha_text)
        bij = OmegaPowerBijection(alpha, fuel=10_000)
        lows = list(_sample_pairs(rng, alpha, 500))
        highs = list(_sample_pairs(rng, omega_power(alpha), 500))
        try:
            for x, y in lows:
                for v in (x, y):
                    if bij.down(bij.up(v)) != v:
                        ok = False
            for x, y in highs:
                for v in (x, y):
                    if bij.up(bij.down(v)) != v:
                        ok = False
        except FuelExhausted:
            exhaustions += 1
    report(
        4,
        f"omega-power bijection round trips (1000 samples per direction per alpha), "
        f"{exhaustions} fuel exhaustions",
        ok and exhaustions == 0,
    )


def test_criterion_5_csb_exhaustive():
    rep = exhaustive_check("csb_bijective", 5)
    report(5, f"two-sided-injection bijections exhaustive, {rep.cases} cases", rep.ok())


def _random_set_with_type(rng, power):
    """A random interval layout whose order type is exactly ``power``."""
    lead = power.degree

    def below():
        if lead == OMEGA:
            return rand_flat(rng, max_exp=4, max_terms=2, max_coeff=6)
        d = lead.nat_value()
        exponents = sorted(rng.sample(range(d), rng.randrange(min(d, 2) + 1)), reverse=True)
        return Ordinal.from_terms([(Ordinal(e), rng.randrange(1, 9)) for e in exponents])

    cuts = sorted({below() for _ in range(rng.randrange(4))}, key=_OrdinalKey)
    bounds = [ZERO] + [c for c in cuts if not c.is_zero()] + [power]
    base = ZERO
    intervals = []
    for lo, hi in zip(bounds, bounds[1:]):
        length = left_subtract(lo, hi)
        if length.is_zero():
            continue
        gap = below()
        base = add(base, gap)
        intervals.append((base, add(base, length)))
        base = add(base, length)
    return OrdinalSet(intervals)


def _random_partition(rng, s):
    b_parts, c_parts = [], []
    for lo, hi in s.intervals:
        cuts = [lo, hi]
        length = left_subtract(lo, hi)
        for _ in range(2):
            # split at a small or omega-scaled offset when it fits
            offset = rng.choice([Ordinal(rng.randrange(1, 9)), OMEGA, o("w^2")])
            if compare(offset, length) < 0:
                cuts.append(add(lo, offset))
        cuts = sorted(set(cuts), key=_OrdinalKey)
        for piece_lo, piece_hi in zip(cuts, cuts[1:]):
            target = b_parts if rng.random() < 0.5 else c_parts
            target.append((piece_lo, piece_hi))
    return OrdinalSet(b_parts), OrdinalSet(c_parts)


def test_criterion_6_indecomposable_split():
    rng = random.Random(404)
    failures = 0
    trials = 0
    for delta_text in ("1", "2", "3", "w"):
        power = omega_power(o(delta_text))
        for _ in range(1000):
            s = _random_set_with_type(rng, power)
            assert s.order_type() == power
            b, c = _random_partition(rng, s)
            trials += 1
            outcome = indecomposable_split(s, b, c)
            if outcome == "neither":
                failures += 1
            best = b.order_type() if compare(b.order_type(), c.order_type()) >= 0 else c.order_type()
            if best != power:
                failures += 1
    report(6, f"indecomposable split on {trials} random partitions, {failures} failures", failures == 0)


def test_criterion_7_reduction_engine_suite():
    suite = [
        ("case1_identity.txt", "w^2", "case1"),
        ("case1_mixed.txt", "w^3", "case1"),
        ("case2_tower.txt", "w^3", "case2"),
        ("case2_blocks.txt", "w^3", "case2"),
        ("case2_slow.txt", "w^3", "case2"),
        ("case2_filtered.txt", "w^3", "case2"),
    ]
    ok = True
    verified = 0
    for name, bound, expected_case in suite:
        fam = load_instance(INSTANCES / name)
        result = reduce_omega_product(fam)
        if result.case_taken[0] != expected_case:
            ok = False
        rep = verify_surjective(result, o(bound))
        if not rep.ok():
            ok = False
        verified += len(rep.entries)
        if result.case_taken[0] != "case2":
            continue
        result.ensure_stage(2)
        for stage in result.stages[:3]:
            nxt = stage.b_next
            if not all(
                nxt[label].is_subset(stage.b_restriction[label]) for label in nxt
            ):
                ok = False
            dom = OrdinalSet()
            for piece in stage.q_map.pieces:
                dom = dom.union(piece.dom)
            if dom.order_type() != stage.beta:
                ok = False
            for text in ("0", "3", "w", "w^2+1"):
                target = o(text)
                if compare(target, stage.beta) >= 0:
                    continue
                position = add(stage.chunk_lo, target)
                if stage.q_map(result.carrier, result.carrier.element_at(position)) != target:
                    ok = False
            beta_k = omega_power(result._kept.delta(stage.k))
            if compare(multiply(stage.beta, Ordinal(2)), beta_k) >= 0:
                ok = False
            if not all(q for _, _, q in stage.coverage):
                ok = False
    report(
        7,
        f"reduction suite: 6 instances verified ({verified} target intervals), "
        "stage invariants clean on first 3 stages",
        ok,
    )


def test_criterion_8_diagonal():
    rep = exhaustive_check("diagonal_missed", 3)
    carrier = Carrier([("m", OrdinalSet.interval(ZERO, o("w^2")))])

    def listing(x):
        pos = str(carrier.global_position(x))
        return QueryableSet(
            lambda y, pos=pos: (hash((pos, str(carrier.global_position(y)))) & 3) == 0
        )

    diag = cantor_diagonal(listing, carrier)
    xor_failures = 0
    samples = carrier.sample_elements(1000)
    for x in samples:
        if diag.contains(x) == listing(x).contains(x):
            xor_failures += 1
    report(
        8,
        f"diagonal exhaustive over {rep.cases} listings; pointwise xor on {len(samples)} samples, "
        f"{xor_failures} failures",
        rep.ok() and rep.cases == 512 and xor_failures == 0 and len(samples) >= 1000,
    )


def test_criterion_9_refuters():
    ok = True
    checked = 0
    for phi, table in powerset_families().values():
        witness = refute_powerset(phi, CARRIER, table, check_bound=1000)
        if not witness.recheck():
            ok = False
        checked += len(witness.distinguishers)

    members_ok = True
    for phi, table in infinite_powerset_families().values():
        witness = refute_infinite_powerset(
            phi, CARRIER, table, check_bound=1000, certificate_members=100
        )
        if not witness.recheck():
            ok = False
        checked += len(witness.distinguishers)
        kind, enum = witness.missed_set.certificate
        members = {enum(k) for k in range(100)}
        if kind != "infinite" or len(members) != 100:
            members_ok = False
        if not all(witness.missed_set.contains(m) for m in members):
            members_ok = False
    report(
        9,
        f"refuters: {checked} recorded distinguishers re-checked; "
        "infinite certificates enumerate 100 distinct members",
        ok and members_ok,
    )


def test_criterion_10_cli_determinism():
    command_set = [
        ("eval", "w^(w*2)*3 + w^2 + 5"),
        ("eval", "1+w"),
        ("cmp", "w^2", "w*9+5"),
        ("cmp", "w", "w"),
        ("pair", "--alpha", "w", "1", "2"),
        ("pair", "--alpha", "w^2", "w", "1"),
        ("unpair", "--alpha", "w^2", "w + 2"),
        ("fincode", "--alpha", "w", "2,5"),
        ("fincode", "--alpha", "w", ""),
        ("cnfbij", "--alpha", "w", "--dir", "down", "w^3+w"),
        ("cnfbij", "--alpha", "w^2", "--dir", "up", "w*3+4"),
        (
            "reduce",
            "--instance",
            str(INSTANCES / "case1_identity.txt"),
            "--verify-below",
            "w*5",
        ),
        (
            "reduce",
            "--instance",
            str(INSTANCES / "case2_tower.txt"),
            "--verify-below",
            "w^2",
        ),
        (
            "refute",
            "--instance",
            str(INSTANCES / "refute_demo.txt"),
            "--mode",
            "pset",
            "--check",
            "20",
        ),
        (
            "refute",
            "--instance",
            str(INSTANCES / "refute_demo.txt"),
            "--mode",
            "infpset",
            "--check",
            "20",
        ),
        ("selftest", "--size", "2"),
        ("eval", "w*0"),  # domain error path, also deterministic
    ]

    def run_all():
        outputs = []
        for argv in command_set:
            buffer = io.StringIO()
            with redirect_stdout(buffer):
                status = cli_main(list(argv))
            outputs.append((status, buffer.getvalue().encode("ascii")))
        return outputs

    first = run_all()
    second = run_all()
    report(
        10,
        f"CLI determinism: {len(command_set)} invocations byte-identical across two runs",
        first == second,
    )
