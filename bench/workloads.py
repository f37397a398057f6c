"""Seeded request lists for the ``codec``, ``reduce`` and ``refute`` workloads.

Each builder turns a seed into a list of :class:`Request` objects.  The
mix of request kinds is a fixed repeating pattern and every parameter
range is sampled in strata, so two seeds give different inputs with the
same shape.  A request's ``run`` is what gets timed; ``check`` compares
the answer with what the generator knows, or with an independent model,
and returns a failure reason or ``None``.

Calls go through module attributes (``core.parse``, ``cli.main``) so that
the tracer's wrappers, when installed, see them.

No request of a workload is expected to fail.  Three known defects of
ordkit fail on inputs of these shapes, so the generators leave those inputs
out; :func:`defect_probes` keeps one fixed input per defect, which a timed
run tries once, untimed and uncounted, to report whether the defect is
still there:

- ``tail-supremum`` (ROADMAP item 3), ``reduce``: for the mixed-growth tail
  ``w^a*n + w^n`` the engine prints ``delta=w^(a+1)`` instead of ``w^w``
  once ``a >= tail start + 15``; the generator draws ``a <= 15``.
- ``pset-sample-search``, ``refute``: ``refute --mode pset`` looks for a
  point separating the diagonal from a listed set only among the carrier's
  sample points, and gives up (``witness-not-found``) on about a quarter of
  the all-constant listings whose row 0 does not map every block to the
  same value; the pset listings keep row 0 of ``refute_demo.txt``, which
  maps every block to 0.
- ``int-str-limit``, ``codec``: ``fmt`` raises on coefficients of more than
  Python's int-to-str limit of digits, which the largest finite-set codes
  reach; the generator redraws such sets.
"""

from __future__ import annotations

import io
import os
import random
import sys
from contextlib import redirect_stdout

import model as M
from ordkit import carriers, cli, coding, core, oracle, reduction
from ordkit.intervals import OrdinalSet

WORKLOADS = ("codec", "reduce", "refute")


class Request:
    __slots__ = ("kind", "spec", "run", "check", "text")

    def __init__(self, kind, spec, run, check, text):
        self.kind = kind
        self.spec = spec  # a plain description of the inputs
        self.run = run  # () -> result; the timed part
        self.check = check  # result -> failure reason or None
        self.text = text  # result -> output text, for the digest


def build(workload: str, seed: int, workdir: str) -> list:
    """The request list of ``workload`` for ``seed``; instance files go to
    ``workdir``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "codec":
        return _codec(rng)
    if workload == "reduce":
        return _reduce(rng, workdir)
    if workload == "refute":
        return _refute(rng, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def _strata(rng, lo: int, hi: int, count: int):
    """An iterator over ``count`` draws from ``[lo, hi]``, one per
    equal-width stratum.  The strata come in bit-reversed order, so that
    every prefix spreads over the whole range: a run that gets through only
    part of the request list still sees small and large values alike."""
    width = (hi - lo + 1) / count
    draws = [lo + int(i * width) + rng.randrange(max(1, int(width))) for i in range(count)]
    by_rank = sorted(range(count), key=_bit_reversed)
    rank = {k: r for r, k in enumerate(by_rank)}
    return iter([draws[rank[k]] for k in range(count)])


def _bit_reversed(k: int) -> float:
    """The van der Corput number of ``k``: its binary digits mirrored
    behind the point (1 -> 0.5, 2 -> 0.25, 3 -> 0.75)."""
    x, bit = 0.0, 0.5
    while k:
        x, k, bit = x + bit * (k & 1), k >> 1, bit / 2
    return x


def _cli(argv: list) -> tuple:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        status = cli.main(argv)
    return status, buffer.getvalue()


def _cli_text(result) -> str:
    status, out = result
    return f"exit={status}\n{out}"


# -- codec ------------------------------------------------------------------


_POWER_ALPHAS = ("w", "w^2", "w^3", "w^w", "w^(w+1)", "w^(w^2)")
_OTHER_ALPHAS = ("w^2*3 + 1", "w*5 + 2", "w^3 + w", "w^w*2 + w^3", "w^(w+1) + w^w*4")
_BIJ_ALPHAS = ("w", "w^2", "w*2", "w^2 + w", "w^3")
_DEEP = "w^(w^(w^3))"  # bound for nested-exponent expressions
_FLAT_K = 6  # the oracle's vector width


def _codec(rng) -> list:
    deep = M.parse(_DEEP)
    flat = M.w_pow(M.nat(_FLAT_K))
    powers = [M.parse(a) for a in _POWER_ALPHAS]
    others = [M.parse(a) for a in _OTHER_ALPHAS]
    bij = [M.parse(a) for a in _BIJ_ALPHAS]
    pattern = (
        "eval", "cmp", "pair", "fincode", "unpair", "cmp-flat", "cnfbij-down",
        "eval", "pair", "fincode", "cmp", "cnfbij-up",
    )
    blocks = 100
    fin_sizes = _strata(rng, 0, 12, 2 * blocks)
    out = []
    for b in range(blocks):
        for j, kind in enumerate(pattern):
            alphas = powers if (b + j) % 2 else others
            alpha = alphas[rng.randrange(len(alphas))]
            if kind == "eval":
                out.append(_eval_request(rng, M.rand_below(rng, deep)))
            elif kind == "cmp":
                x = M.rand_below(rng, deep)
                y = M.tweak(rng, x) if rng.random() < 0.8 else M.rand_below(rng, deep)
                out.append(_cmp_request(x, y))
            elif kind == "cmp-flat":
                x = M.rand_below(rng, flat)
                y = M.tweak(rng, x) if rng.random() < 0.7 else M.rand_below(rng, flat)
                out.append(_cmp_request(x, y))
            elif kind == "pair":
                out.append(_pair_request(alpha, M.rand_below(rng, alpha), M.rand_below(rng, alpha)))
            elif kind == "unpair":
                out.append(_unpair_request(alpha, M.rand_below(rng, alpha)))
            elif kind == "fincode":
                out.append(_fin_request(alpha, _fin_members(rng, alpha, next(fin_sizes))))
            else:
                a = bij[rng.randrange(len(bij))]
                if kind == "cnfbij-down":
                    out.append(_bij_request(a, "down", M.rand_below(rng, M.w_pow(a))))
                else:
                    out.append(_bij_request(a, "up", M.rand_below(rng, a)))
    return out


def _fin_members(rng, alpha: tuple, size: int) -> list:
    """``size`` distinct members below ``alpha`` whose code ``fmt`` can print."""
    limit = sys.get_int_max_str_digits()
    while True:
        members = set()
        while len(members) < size:
            members.add(M.rand_below(rng, alpha))
        members = sorted(members, key=M.KEY, reverse=True)
        if not limit or M.fin_code_max_coefficient(alpha, members) < 10 ** limit:
            return members


def _noncanonical(rng, x: tuple) -> str:
    """A grammar string for ``x`` that the parser must normalise: a smaller
    leading term that gets absorbed and one coefficient split in two."""
    parts = []
    if x and x[0][0]:
        parts.append(M.render(M.rand_below_power(rng, x[0][0], 1) or M.ONE))
    for e, c in x:
        if c > 1 and rng.random() < 0.5:
            first = rng.randint(1, c - 1)
            parts += [M.render(((e, first),)), M.render(((e, c - first),))]
        else:
            parts.append(M.render(((e, c),)))
    return " + ".join(parts) if parts else "0"


def _codec_request(kind, spec, compute, check) -> Request:
    """A request that parses its inputs, computes, and prints the answer with
    ``fmt`` as the matching CLI command does; ``check`` sees the value."""

    def run():
        value = compute()
        return value, _show(kind, value)

    return Request(kind, spec, run, lambda r: check(r[0]), lambda r: r[1])


def _show(kind, value) -> str:
    if kind == "cmp":
        return ("less", "equal", "greater")[value + 1]
    if kind == "unpair":
        return "none" if value is None else f"{core.fmt(value[0])}\n{core.fmt(value[1])}"
    return core.fmt(value)


def _eval_request(rng, x: tuple) -> Request:
    text, want = _noncanonical(rng, x), M.render(x)

    def check(value):
        out = core.fmt(value)
        if out != want:
            return f"eval {text!r} gave {out!r}, expected {want!r}"
        if core.parse(out) != value:
            return f"parse(fmt(x)) != x for {out!r}"
        return None

    return _codec_request("eval", ("eval", text), lambda: core.parse(text), check)


def _cmp_request(x: tuple, y: tuple) -> Request:
    a, b = M.render(x), M.render(y)
    want = M.cmp(x, y)
    va, vb = M.flat_vector(x, _FLAT_K), M.flat_vector(y, _FLAT_K)

    def check(c):
        if c != want:
            return f"cmp {a!r} {b!r} gave {c}, model says {want}"
        if va is not None and vb is not None and oracle.vec_cmp(va, vb) != c:
            return f"cmp {a!r} {b!r} gave {c}, the oracle disagrees"
        return None

    return _codec_request(
        "cmp", ("cmp", a, b), lambda: core.compare(core.parse(a), core.parse(b)), check)


def _pair_request(alpha: tuple, x: tuple, y: tuple) -> Request:
    at, xt, yt = M.render(alpha), M.render(x), M.render(y)

    def check(z):
        if M.cmp(M.of(z), alpha) >= 0:
            return f"pair code {core.fmt(z)} not below {at}"
        decoded = coding.pair_decode(core.parse(at), z)
        if decoded is None or (M.of(decoded[0]), M.of(decoded[1])) != (x, y):
            return f"unpair(pair({xt}, {yt})) != ({xt}, {yt}) below {at}"
        return None

    return _codec_request("pair", ("pair", at, xt, yt), lambda: coding.pair_encode(
        core.parse(at), core.parse(xt), core.parse(yt)), check)


def _unpair_request(alpha: tuple, z: tuple) -> Request:
    at, zt = M.render(alpha), M.render(z)

    def check(decoded):
        if decoded is None:
            return None
        x, y = decoded
        if M.cmp(M.of(x), alpha) >= 0 or M.cmp(M.of(y), alpha) >= 0:
            return f"unpair {zt} gave components not below {at}"
        if M.of(coding.pair_encode(core.parse(at), x, y)) != z:
            return f"pair(unpair({zt})) != {zt} below {at}"
        return None

    return _codec_request("unpair", ("unpair", at, zt), lambda: coding.pair_decode(
        core.parse(at), core.parse(zt)), check)


def _fin_request(alpha: tuple, members: list) -> Request:
    at = M.render(alpha)
    texts = [M.render(m) for m in members]

    def check(z):
        if M.cmp(M.of(z), alpha) >= 0 and members:
            return f"fin code not below {at}"
        decoded = coding.fin_decode(core.parse(at), z)
        if decoded is None or [M.of(d) for d in decoded] != members:
            return f"fin_decode(fin_encode(S)) != S for {len(members)} members below {at}"
        return None

    return _codec_request("fincode", ("fincode", at, tuple(texts)), lambda: coding.fin_encode(
        core.parse(at), [core.parse(t) for t in texts]), check)


def _bij_request(alpha: tuple, direction: str, v: tuple) -> Request:
    at, vt = M.render(alpha), M.render(v)
    back = "up" if direction == "down" else "down"

    def compute():
        # a fresh bijection per request, as the cnfbij command builds it
        bij = coding.OmegaPowerBijection(core.parse(at), fuel=10_000)
        return getattr(bij, direction)(core.parse(vt))

    def check(z):
        bound = alpha if direction == "down" else M.w_pow(alpha)
        if M.cmp(M.of(z), bound) >= 0:
            return f"cnfbij {direction} {vt} gave {core.fmt(z)}, out of range"
        fresh = coding.OmegaPowerBijection(core.parse(at), fuel=10_000)
        if M.of(getattr(fresh, back)(z)) != v:
            return f"cnfbij round trip failed for {vt} below {at}"
        return None

    return _codec_request("cnfbij", ("cnfbij", at, direction, vt), compute, check)


# -- reduce -----------------------------------------------------------------

# The six shipped case instances with their known answers: case, k, alpha,
# delta, and the order type of kept row j (needed for deep stages only).
_SHIPPED = (
    ("case1_identity.txt", "case1", 0, "w^2", "w^2", None),
    ("case1_mixed.txt", "case1", 0, "w^3", "w^3", None),
    ("case2_blocks.txt", "case2", None, "w^w", "w^w", lambda j: M.w_pow(M.nat(2 * j + 2))),
    ("case2_filtered.txt", "case2", None, "w^w", "w^w", lambda j: M.w_pow(M.nat(j + 1))),
    ("case2_slow.txt", "case2", None, "w^3 + w^2", "w^3 + w^2",
     lambda j: M.add(M.w_pow(M.nat(3)), M.w_pow(M.ONE, j) if j else M.ZERO)),
    ("case2_tower.txt", "case2", None, "w^w", "w^w", lambda j: M.w_pow(M.nat(j + 1))),
)
SHIPPED_DIR = os.path.join("tests", "instances")

_WW = M.w_pow(M.OMEGA)
_FAMILIES = ("pow", "pow-k", "linear", "offset", "constant", "mixed")
_MIXED_A = (1, 15)  # range of a in w^a*n + w^n, below the tail-supremum defect
_DEEP_SHARE = 3  # every third case-2 request also evaluates deep stages


class Instance:
    """A generated instance: its text and the answers known in closed form."""

    def __init__(self, family, text, alpha, case, k, delta, kept_deltas, params):
        self.family = family
        self.text = text
        self.alpha = alpha
        self.case = case
        self.k = k  # attaining kept row in case 1
        self.delta = delta
        self.kept_deltas = kept_deltas  # delta of kept row j, j = 0, 1, ...
        self.params = params

    def head(self) -> str:
        k = f" k={self.k}" if self.case == "case1" else ""
        return f"case={self.case}{k} delta={M.render(self.delta)}"


def _tail_value(family: str, p: dict, n: int) -> tuple:
    """Order type of tail row ``n`` (the image is ``[0, T(n))``)."""
    if family == "pow":
        return M.w_pow(M.nat(n + p["c"]))
    if family == "pow-k":
        return M.w_pow(M.nat(p["k"] * n + p["c"]))
    if family == "linear":
        return M.w_pow(M.nat(p["c"]), n)
    if family == "offset":
        return M.add(M.w_pow(M.nat(p["c"])), M.w_pow(M.nat(p["b"]), n))
    if family == "constant":
        return p["x"]
    return M.add(M.w_pow(M.nat(p["a"]), n), M.w_pow(M.nat(n)))


def _tail_template(family: str, p: dict) -> str:
    if family == "pow":
        return f"w^(n+{p['c']})"
    if family == "pow-k":
        return "w^(" + "+".join(["n"] * p["k"]) + f"+{p['c']})"
    if family == "linear":
        return f"w^{p['c']}*n"
    if family == "offset":
        return f"w^{p['c']} + w^{p['b']}*n"
    if family == "constant":
        return M.render(p["x"])
    return f"w^{p['a']}*n + w^n"


# explicit-row targets on the main block: (text, order type, supremum)
_SMALL = (
    ("[0,w)", "w", "w"),
    ("[0,w),[w^2,w^2+w)", "w*2", "w^2+w"),
    ("[0,w^2)", "w^2", "w^2"),
    ("[w,w*2)", "w", "w*2"),
)


def _generate_instance(rng, family: str, a_value: int, variant: int) -> Instance:
    """``variant`` fixes the shape (number of explicit rows and extra blocks),
    so that every seed has the same mix of shapes."""
    p = {}
    if family == "pow":
        p["c"] = rng.randint(0, 3)
    elif family == "pow-k":
        p["k"], p["c"] = rng.randint(2, 3), rng.randint(0, 3)
    elif family == "linear":
        p["c"] = rng.randint(1, 4)
    elif family == "offset":
        p["c"] = rng.randint(2, 4)
        p["b"] = rng.randint(0, p["c"] - 1)
    elif family == "constant":
        p["x"] = M.parse(rng.choice(("w^2", "w^3", "w^2*3 + w", "w^3 + w^2", "w^4")))
    else:
        p["a"] = a_value
    if family == "constant":
        delta, case = p["x"], "case1"
    elif family == "linear":
        delta, case = M.w_pow(M.nat(p["c"] + 1)), "case2"
    elif family == "offset":
        delta, case = M.add(M.w_pow(M.nat(p["c"])), M.w_pow(M.nat(p["b"] + 1))), "case2"
    else:
        delta, case = _WW, "case2"
    alpha = delta
    # explicit rows: finite ones (dropped by the engine) and ones whose order
    # type stays below delta and whose image stays below alpha
    small = [(t, M.parse(ot)) for t, ot, sup in _SMALL
             if M.cmp(M.parse(ot), delta) < 0 and M.cmp(M.parse(sup), alpha) <= 0]
    explicit = []
    for _ in range(1 + variant % 3):
        if rng.random() < 0.25:
            explicit.append((f"constant {rng.randint(1, 9)}", None))
        else:
            explicit.append(small[rng.randrange(len(small))])
    if all(ot is None for _, ot in explicit):
        explicit[0] = small[0]
    if family == "constant" and rng.random() < 0.5:
        explicit.append((f"[0,{M.render(delta)})", delta))  # attained by an explicit row
    explicit = [(("monotone " + t) if ot is not None else t, ot) for t, ot in explicit]
    start = len(explicit)
    kept = [ot for _, ot in explicit if ot is not None]
    kept += [_tail_value(family, p, n) for n in range(start, start + 40)]
    k = kept.index(delta) if case == "case1" else None
    # the carrier must reach w^delta * 2 in case 2; the main block's shape is
    # one interval or two of equal order type
    power = M.w_pow(M.nat(4) if case == "case1" else delta)
    big = M.render(power)
    shape = rng.choice((f"[0,{big}*2)", f"[0,{big}),[{big}*3,{big}*4)"))
    extra = [
        (label, rng.choice(("[0,w)", "[0,w^2)", "[w,w*3)", "[0,w),[w^2,w^2*2)")))
        for label in "bcd"[: variant // 3 % 4]
    ]
    template = _tail_template(family, p)
    lines = [
        f"# generated: {family}, tail [0,{template})",
        "carrier: " + "; ".join([f"a:{shape}"] + [f"{label}:{s}" for label, s in extra]),
        f"alpha: {M.render(alpha)}",
    ]
    for i, (piece, _) in enumerate(explicit):
        side = "".join(f" ; {label} -> constant {i}" for label, _ in extra)
        lines.append(f"row {i}: a -> {piece}{side}")
    side = "".join(
        f" ; {label} -> constant {'n' if j % 2 == 0 else 'n+1'}" for j, (label, _) in enumerate(extra)
    )
    lines.append(f"tail: n >= {start}: a -> monotone [0,{template}){side}")
    return Instance(family, "\n".join(lines) + "\n", alpha, case, k, delta, kept, p)


def _powers_below(alpha: tuple) -> list:
    """Verify bounds w^j (j <= 4) strictly below alpha, or up to it in case 1."""
    return [M.w_pow(M.nat(j)) for j in range(1, 5) if M.cmp(M.w_pow(M.nat(j)), alpha) < 0]


def _reduce(rng, workdir: str) -> list:
    """Rounds of one shipped instance and one generated instance of each
    family, in shuffled order within the round."""
    shipped = []
    for name, case, k, alpha, delta, kept in _SHIPPED:
        kept = kept and [kept(j) for j in range(40)]
        inst = Instance("shipped", None, M.parse(alpha), case, k, M.parse(delta), kept, {"file": name})
        shipped.append((os.path.join(SHIPPED_DIR, name), inst))
    rounds = 24
    mixed_a = _strata(rng, _MIXED_A[0], _MIXED_A[1], rounds)
    out = []
    case2_seen = 0
    for r in range(rounds):
        batch = [shipped[r % len(shipped)]]
        for f, family in enumerate(_FAMILIES):
            a_value = next(mixed_a) if family == "mixed" else None
            inst = _generate_instance(rng, family, a_value, variant=r + 5 * f)
            batch.append((os.path.join(workdir, f"reduce-{r:02d}-{family}.txt"), inst))
        rng.shuffle(batch)
        for path, inst in batch:
            bounds = _powers_below(inst.alpha)
            if inst.case == "case1" and M.cmp(inst.alpha, M.w_pow(M.nat(4))) <= 0:
                bounds.append(inst.alpha)
            deep = None
            if inst.case == "case2":
                case2_seen += 1
                if case2_seen % _DEEP_SHARE == 0:
                    deep = [rng.randint(3, 16) for _ in range(2)]
            out.append(_reduce_request(path, inst, M.render(bounds[r % len(bounds)]), deep))
    return out


def prepare(requests: list):
    """Write the instance files that the requests read."""
    for req in requests:
        if req.spec[0] in ("reduce", "refute") and req.spec[2] is not None:
            with open(req.spec[1], "w", encoding="ascii") as handle:
                handle.write(req.spec[2])


def _reduce_request(path: str, inst: Instance, bound: str, deep) -> Request:
    argv = ["reduce", "--instance", path, "--verify-below", bound]

    def run():
        status, out = _cli(argv)
        stages = None
        if deep is not None and status == 0:
            stages = _deep_points(path, deep)
        return status, out, stages

    def check(result):
        status, out, stages = result
        if status != 0:
            return f"reduce {path} exited {status}: {out.splitlines()[:1]}"
        if "MISMATCH" in out:
            return f"reduce {path} printed a MISMATCH line"
        head = out.splitlines()[0]
        if head != inst.head():
            return f"reduce {path} printed {head!r}, expected {inst.head()!r}"
        if stages is not None:
            return _check_deep(inst, stages)
        return None

    def text(result):
        status, out, stages = result
        extra = "" if stages is None else "".join(f"{s}\n" for s in stages)
        return f"exit={status}\n{out}{extra}"

    spec = ("reduce", path, inst.text, bound, tuple(deep or ()))
    return Request(f"reduce-{inst.family}", spec, run, check, text)


def _deep_points(path: str, depths: list) -> list:
    """Evaluate the reduced surjection at points of deep stage chunks and
    invert each value back through the delta stage."""
    fam = carriers.load_instance(path)
    result = reduction.reduce_omega_product(fam)
    out = []
    for d in depths:
        result.ensure_stage(d)
        stage = result.stages[d]
        offset = core.parse("w*2+3") if core.compare(core.OMEGA, stage.beta) < 0 else core.ONE
        x = result.carrier.element_at(core.add(stage.chunk_lo, offset))
        value = result.surjection(x)
        z = result.m_to_delta(x)
        back = result.m_to_delta(result.delta_witness(z))
        out.append((d, M.of(stage.chunk_lo), M.of(value), M.of(z), M.of(back)))
    return out


def _check_deep(inst: Instance, stages: list):
    beta = M.w_pow(inst.delta)
    for d, chunk_lo, value, z, back in stages:
        peeled = M.ZERO
        for j in range(d):
            peeled = M.add(peeled, M.w_pow(inst.kept_deltas[j]))
        if chunk_lo != M.add(beta, peeled):
            return f"stage {d} starts at {M.render(chunk_lo)}, expected {M.render(M.add(beta, peeled))}"
        if M.cmp(value, inst.alpha) >= 0:
            return f"stage {d} point maps to {M.render(value)}, not below alpha"
        if back != z:
            return f"delta witness of {M.render(z)} maps to {M.render(back)}"
    return None


# -- refute -----------------------------------------------------------------

_SHAPES = ("[0,w)", "[0,w^2)", "[0,w*2)", "[0,w),[w^2,w^2+w)", "[0,w^2+w)", "[w,w^3)")
# half the requests are pset, so the median latency sits inside that group;
# the infpset, full and cofinite requests form the latency tail
_PATTERN = (
    "pset", "lib-empty", "pset", "lib-singletons", "pset", "infpset",
    "pset", "lib-x-only", "pset", "lib-full", "pset", "lib-cofinite",
)


def _listing_instance(rng, variant: int, uniform_row0: bool) -> str:
    """A listing of 2-3 blocks; with ``uniform_row0``, row 0 maps every block
    to 0, as in ``refute_demo.txt`` (see pset-sample-search above)."""
    labels = "abc"[: 2 + variant % 2]
    shapes = [rng.choice(_SHAPES) for _ in labels]
    explicit = 1 + variant // 2 % 3
    lines = ["# generated listing: all rows constant",
             "carrier: " + "; ".join(f"{l}:{s}" for l, s in zip(labels, shapes)),
             "alpha: w"]
    for i in range(explicit):
        values = [i] + [rng.randint(0, 3) for _ in labels[1:]]
        if i == 0 and uniform_row0:
            values = [0] * len(labels)
        lines.append(f"row {i}: " + " ; ".join(
            f"{l} -> constant {v}" for l, v in zip(labels, values)))
    tail = [f"{labels[0]} -> constant n"] + [
        f"{l} -> constant {rng.choice(('0', '1', 'n+1'))}" for l in labels[1:]
    ]
    lines.append(f"tail: n >= {explicit}: " + " ; ".join(tail))
    return "\n".join(lines) + "\n"


def _refute(rng, workdir: str) -> list:
    blocks = 24
    checks = {kind: _strata(rng, 20, 100, blocks * _PATTERN.count(kind))
              for kind in dict.fromkeys(_PATTERN)}
    out = []
    listings = 0
    for b in range(blocks):
        for j, kind in enumerate(_PATTERN):
            check = next(checks[kind])
            if kind in ("pset", "infpset"):
                path = os.path.join(workdir, f"refute-{b:02d}-{j:02d}.txt")
                text = _listing_instance(rng, listings, uniform_row0=kind == "pset")
                listings += 1
                out.append(_refute_cli_request(path, text, kind, check))
            else:
                out.append(_refute_lib_request(kind[4:], check, b))
    return out


def _refute_cli_request(path: str, text: str, mode: str, check: int) -> Request:
    argv = ["refute", "--instance", path, "--mode", mode, "--check", str(check)]

    def run():
        return _cli(argv)

    def check_result(result):
        status, out = result
        if status != 0:
            return f"refute {mode} exited {status}: {out.splitlines()[:1]}"
        lines = out.splitlines()
        if len(lines) < 2 or not lines[1].endswith("recheck=ok"):
            return f"refute {mode} did not print recheck=ok"
        return None

    spec = ("refute", path, text, mode, check)
    return Request("refute-" + mode, spec, run, check_result, _cli_text)


def _refute_lib_request(family: str, check: int, variant: int) -> Request:
    """Direct refuter calls on the listing families of acceptance criterion 9."""
    shape = ("w^2", "w^2*2", "w^3")[variant % 3]
    size = 3 + variant % 6
    certificate_members = 100

    def run():
        carrier = carriers.Carrier([("m", OrdinalSet.interval(core.ZERO, core.parse(shape)))])
        phi, table, infinite = _family(family, carrier, size)
        if infinite:
            return reduction.refute_infinite_powerset(
                phi, carrier, table, check_bound=check, certificate_members=certificate_members
            )
        return reduction.refute_powerset(phi, carrier, table, check_bound=check)

    def check_result(witness):
        if not witness.recheck():
            return f"refuter on {family} failed its recheck"
        if family in ("full", "cofinite"):
            kind, enum = witness.missed_set.certificate
            members = [enum(k) for k in range(certificate_members)]
            if kind != "infinite" or len(set(members)) != len(members):
                return f"infinite certificate on {family} repeats members"
            if not all(witness.missed_set.contains(x) for x in members):
                return f"infinite certificate on {family} lists non-members"
        return None

    def text(witness):
        lines = [f"{family} distinguishers={len(witness.distinguishers)}"]
        for tag, index, (label, pos), in_missed, in_listed, _ in witness.distinguishers[:10]:
            lines.append(f"{tag} {index} {label}:{core.fmt(pos)} {in_missed} {in_listed}")
        return "\n".join(lines)

    spec = ("refute-lib", family, shape, size, check)
    return Request("refute-lib-" + family, spec, run, check_result, text)


def _family(name: str, carrier, size: int):
    """(phi, table, infinite) for one listing family of criterion 9."""
    QS = carriers.QueryableSet
    if name == "empty":
        empty = QS(lambda x: False)
        return (lambda n, x: empty), [empty], False
    if name == "singletons":
        table = [QS(lambda y, i=i: y == ("m", core.Ordinal(i))) for i in range(size)]
        return (lambda n, x: QS(lambda y, x=x: y == x)), table, False
    if name == "x-only":
        pos = carrier.global_position

        def phi(n, x):
            cut = pos(x)
            return QS(lambda y: core.compare(pos(y), cut) < 0)

        table = [QS(lambda y, i=i: core.compare(pos(y), core.Ordinal(i)) < 0)
                 for i in range(1, size + 1)]
        return phi, table, False
    if name == "full":
        full = QS(lambda x: True, ("infinite", lambda k: ("m", core.Ordinal(k))))
        return (lambda n, x: full), [full], True

    def cofinite(i):
        return QS(
            lambda y: not (y[1].is_nat() and y[1].nat_value() <= i),
            ("infinite", lambda k: ("m", core.Ordinal(i + 1 + k))),
        )

    return (lambda n, x: cofinite(n)), [cofinite(i) for i in range(size)], True


# -- known-defect probes ------------------------------------------------------

_INT_STR_LIMIT_SET = (
    "w^w*2+w^2*10+2", "w^w*2+w^2", "w^w*2+w*15+5", "w^w*2+w+5", "w^w*2", "w^w+w^16*9+w^12*12",
    "w^w+w^12+6", "w^w+17", "w^w+9", "w^17*20+w^12*10", "w^14*10+w^13*7+w*8", "w^10*20+w^6*18",
)
_PSET_PROBE = """\
# refute_demo.txt with row 0 mapping the blocks apart
carrier: a:[0,w); b:[0,w^2)
alpha: w
row 0: a -> constant 0 ; b -> constant 1
row 1: a -> constant 1 ; b -> constant 0
tail: n >= 2: a -> constant n ; b -> constant 0
"""


def defect_probes(workload: str, workdir: str) -> list:
    """``(defect, request, signature)`` for each known defect that the
    generator of ``workload`` leaves out: a fixed input that fails with it,
    and ``signature(result, error)``, true when a failure is that defect."""
    if workload == "codec":
        members = sorted((M.parse(t) for t in _INT_STR_LIMIT_SET), key=M.KEY, reverse=True)
        return [("int-str-limit", _fin_request(M.parse("w^w*2 + w^3"), members),
                 lambda result, error: error is not None and "Exceeds the limit" in error)]
    if workload == "reduce":
        # one explicit row, so the tail starts at 1 and a = 20 is past 15
        inst = _generate_instance(random.Random(0), "mixed", 20, variant=0)
        path = os.path.join(workdir, "probe-tail-supremum.txt")
        return [("tail-supremum", _reduce_request(path, inst, "w^2", None),
                 lambda result, error: error is None
                 and result[1].startswith("case=case2 delta=w^21\n"))]
    path = os.path.join(workdir, "probe-pset.txt")
    return [("pset-sample-search", _refute_cli_request(path, _PSET_PROBE, "pset", 20),
             lambda result, error: error is None and result[0] == 1
             and result[1].startswith("witness-not-found\ncannot separate the diagonal"))]
