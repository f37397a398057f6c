"""Per-layer tracing of ordkit, installed from outside the package.

The tracer replaces public functions and methods of the six layers with
wrappers, in every ordkit module that binds them and on the classes that
define them; nothing under ``src/`` changes.

- Entry points of a layer (``cli.main``, ``load_instance``, the reduction
  engine and refuters, ``image_of``/``preimage_of``, ``pair_*``/``fin_*``,
  ``OmegaPowerBijection.up``/``down``) get one span per call: name, start,
  end, parent span and request id, kept in memory until the run ends.
- Hot primitives (the ``core`` arithmetic, ``compare``, eq and hash, and
  the ``OrdinalSet`` operations) only add to per-layer counts and times.

A layer's self time is the time inside its wrappers minus the time of the
wrappers of other layers nested inside them.  A hot primitive called from
inside its own layer is counted but not timed separately, which keeps the
recursion in ``compare`` cheap to trace.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = ("core", "intervals", "coding", "carriers", "reduction", "cli")
HARNESS = "bench"  # time inside a request but outside every layer


class Tracer:
    def __init__(self):
        self.counts = Counter()
        self.self_time = dict.fromkeys(LAYERS + (HARNESS,), 0.0)
        self.spans = []  # (name, start, end, parent span, request id)
        self.request = None
        self.total = 0.0  # wall time of all traced requests
        self._stack = [[HARNESS, 0.0, None]]  # [layer, child time, span id]
        self._setop_depth = 0
        self._refuter_depth = 0

    # -- wrapping ------------------------------------------------------------

    def wrap(self, layer, fn, span=None, count=None, before=None, after=None):
        """A timing wrapper for ``fn`` in ``layer``.

        ``span`` names a span recorded per call; ``count`` is a counter
        bumped per call.  ``before(args)`` returns state that is handed to
        ``after(args, result, state)``, which runs even if ``fn`` raises
        (``result`` is then None).
        """
        stack, counts, self_time, spans = self._stack, self.counts, self.self_time, self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if count is not None:
                counts[count] += 1
            state = before(args) if before is not None else None
            top = stack[-1]
            result = None
            try:
                if span is None and top[0] == layer:
                    result = fn(*args, **kwargs)
                    return result
                sid = None
                if span is not None:
                    sid = len(spans)
                    spans.append(None)
                frame = [layer, 0.0, sid if sid is not None else top[2]]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    end = clock()
                    stack.pop()
                    elapsed = end - start
                    self_time[layer] += elapsed - frame[1]
                    stack[-1][1] += elapsed
                    if sid is not None:
                        spans[sid] = (span, start, end, top[2], self.request)
            finally:
                if after is not None:
                    after(args, result, state)

        return wrapper

    def counter(self, fn, count):
        """A wrapper that only counts calls."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[count] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- requests ------------------------------------------------------------

    def run_request(self, request_id, fn):
        """Run one request as a root span and return its result."""
        self.request = request_id
        sid = len(self.spans)
        self.spans.append(None)
        root = self._stack[0]
        root[1], root[2] = 0.0, sid
        start = time.perf_counter()
        try:
            return fn()
        finally:
            end = time.perf_counter()
            elapsed = end - start
            self.total += elapsed
            self.self_time[HARNESS] += elapsed - root[1]
            self.spans[sid] = ("request", start, end, None, request_id)
            root[2] = None

    @contextmanager
    def paused(self):
        """Leave counts, self times and spans as they were before the block
        (used around answer checks, which call the library too)."""
        counts, self_time, n_spans = self.counts.copy(), dict(self.self_time), len(self.spans)
        try:
            yield
        finally:
            self.counts.clear()
            self.counts.update(counts)
            self.self_time.update(self_time)
            del self.spans[n_spans:]

    # -- installation ----------------------------------------------------------

    def install(self):
        """Wrap the layers' functions in every loaded ordkit module."""
        from ordkit import carriers, cli, coding, core, intervals, reduction

        counts = self.counts
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "ordkit"]

        def rebind(owner, name, wrapper_for):
            original = getattr(owner, name)
            wrapper = wrapper_for(original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
            if isinstance(owner, type):
                setattr(owner, name, wrapper)

        def spans(layer, owner, names):
            for name in names:
                rebind(owner, name, lambda fn, n=name: self.wrap(layer, fn, span=f"{layer}.{n}"))

        def hot(layer, owner, names):
            for name, key in names.items():
                count = f"{layer}.{key}_calls" if key else None
                rebind(owner, name, lambda fn, c=count: self.wrap(layer, fn, count=c))

        # core: aggregate counts and times only
        hot("core", core, {"compare": "compare", "add": "add", "multiply": "multiply",
                           "left_subtract": None, "parse": "parse", "parse_template": "parse",
                           "fmt": "fmt"})
        hot("core", core.Ordinal, {"__eq__": "eq", "__hash__": "hash"})

        # intervals: set algebra and queries on OrdinalSet
        Set = intervals.OrdinalSet

        def setop_before(args):
            self._setop_depth += 1
            return counts["core.compare_calls"] if self._setop_depth == 1 else None

        def setop_after(args, result, state):
            self._setop_depth -= 1
            if state is not None:
                counts["intervals.setop_compares"] += counts["core.compare_calls"] - state

        for name in ("union", "intersect", "difference"):
            rebind(Set, name, lambda fn: self.wrap(
                "intervals", fn, count="intervals.setop_calls",
                before=setop_before, after=setop_after))
        hot("intervals", Set, {"contains": "query", "enumerate": "query", "locate": "query",
                               "__init__": None, "order_type": None, "slice_positions": None,
                               "select_positions": None, "positions_of": None,
                               "is_subset": None})

        # coding
        spans("coding", coding.OmegaPowerBijection, ("up", "down"))
        hot("coding", coding, {"from_digits": "from_digits"})

        def encode_before(args):
            counts["coding.pair_encode_calls"] += 1
            if self._refuter_depth:
                counts["reduction.refuter_pair_encodes"] += 1

        def counted(name):
            return lambda args: counts.update((name,))

        rebind(coding, "pair_encode", lambda fn: self.wrap(
            "coding", fn, span="coding.pair_encode", before=encode_before))
        rebind(coding, "pair_decode", lambda fn: self.wrap(
            "coding", fn, span="coding.pair_decode",
            before=counted("coding.pair_decode_calls")))
        for name in ("fin_encode", "fin_decode"):
            rebind(coding, name, lambda fn, n=name: self.wrap(
                "coding", fn, span=f"coding.{n}", before=counted("coding.fin_calls")))

        # chain chasing in the two-sided-injection bijection: each range test
        # is one step; a forward/backward call with no step was a memo hit
        spec_init = coding.MapSpec.__init__

        def map_spec_init(spec, *args, **kwargs):
            spec_init(spec, *args, **kwargs)
            spec.in_range = self.counter(spec.in_range, "coding.chain_steps")

        coding.MapSpec.__init__ = map_spec_init

        def memo_after(args, result, state):
            counts["coding.csb_calls"] += 1
            if counts["coding.chain_steps"] == state:
                counts["coding.memo_hits"] += 1

        for name in ("forward", "backward"):
            rebind(coding.CsbBijection, name, lambda fn: self.wrap(
                "coding", fn, before=lambda args: counts["coding.chain_steps"], after=memo_after))

        # carriers
        spans("carriers", carriers, ("load_instance", "parse_instance", "preimage_of"))
        rebind(carriers, "image_of", lambda fn: self.wrap(
            "carriers", fn, span="carriers.image_of", count="carriers.image_calls"))
        rebind(carriers.QueryableSet, "contains",
               lambda fn: self.counter(fn, "carriers.membership_queries"))

        def row_image_after(args, result, state):
            counts["carriers.row_image_calls"] += 1
            if counts["carriers.image_calls"] == state:
                counts["carriers.row_image_hits"] += 1

        rebind(carriers.SurjectionFamily, "row_image", lambda fn: self.wrap(
            "carriers", fn, before=lambda args: counts["carriers.image_calls"],
            after=row_image_after))
        family_init = carriers.SurjectionFamily.__init__

        def family_init_counting(fam, *args, **kwargs):
            family_init(fam, *args, **kwargs)
            if fam.tail_rule is not None:
                fam.tail_rule = self.counter(fam.tail_rule, "reduction.tail_rows_evaluated")

        carriers.SurjectionFamily.__init__ = family_init_counting

        # reduction
        Result = reduction.ReductionResult
        spans("reduction", reduction, ("reduce_omega_product",))
        rebind(Result, "ensure_stage", lambda fn: self.wrap(
            "reduction", fn, span="reduction.ensure_stage",
            before=lambda args: len(args[0].stages),
            after=lambda args, result, state: counts.update(
                {"reduction.stages_built": len(args[0].stages) - state})))
        rebind(Result, "witness_for", lambda fn: self.wrap(
            "reduction", fn, span="reduction.witness_for",
            count="reduction.witness_searches"))
        rebind(reduction, "verify_surjective", lambda fn: self.wrap(
            "reduction", fn, span="reduction.verify_surjective",
            after=lambda args, report, state: report is not None and counts.update(
                {"reduction.verify_samples": sum(len(s) for _, _, s in report.entries)})))

        def refuter_before(args):
            self._refuter_depth += 1

        def refuter_after(args, witness, state):
            self._refuter_depth -= 1
            if witness is not None:
                counts["reduction.distinguishers"] += len(witness.distinguishers)

        for name in ("refute_powerset", "refute_infinite_powerset"):
            rebind(reduction, name, lambda fn, n=name: self.wrap(
                "reduction", fn, span=f"reduction.{n}",
                before=refuter_before, after=refuter_after))

        # cli
        spans("cli", cli, ("main",))

    # -- results -----------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics by name; units are declared in BENCHMARK.json."""
        c, t, total = self.counts, self.self_time, self.total

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = t[layer]
            out[f"{layer}.share"] = ratio(t[layer], total)
        for key in ("compare", "add", "multiply", "eq", "hash", "parse", "fmt"):
            out[f"core.{key}_calls"] = c[f"core.{key}_calls"]
        out["intervals.setop_calls"] = c["intervals.setop_calls"]
        out["intervals.compare_per_setop"] = ratio(
            c["intervals.setop_compares"], c["intervals.setop_calls"])
        out["intervals.query_calls"] = c["intervals.query_calls"]
        for key in ("pair_encode_calls", "pair_decode_calls", "fin_calls",
                    "from_digits_calls", "chain_steps"):
            out[f"coding.{key}"] = c[f"coding.{key}"]
        out["coding.memo_hit_ratio"] = ratio(c["coding.memo_hits"], c["coding.csb_calls"])
        out["carriers.image_calls"] = c["carriers.image_calls"]
        out["carriers.row_image_hit_ratio"] = ratio(
            c["carriers.row_image_hits"], c["carriers.row_image_calls"])
        out["carriers.membership_queries"] = c["carriers.membership_queries"]
        out["reduction.distinguishers"] = c["reduction.distinguishers"]
        out["reduction.pair_encode_per_distinguisher"] = ratio(
            c["reduction.refuter_pair_encodes"], c["reduction.distinguishers"])
        for key in ("tail_rows_evaluated", "stages_built", "verify_samples", "witness_searches"):
            out[f"reduction.{key}"] = c[f"reduction.{key}"]
        out["trace.total_s"] = total
        return out

    def write_spans(self, path: str):
        with open(path, "w", encoding="ascii") as handle:
            for sid, (name, start, end, parent, request) in enumerate(self.spans):
                handle.write(json.dumps([sid, name, start, end, parent, request]) + "\n")
