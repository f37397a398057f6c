"""One workload run in a fresh process.

    python3 bench/worker.py --workload W --seed N --mode M --seconds S --spawned T

Run from the root of a checkout.  Every mode first sets up: imports
ordkit, builds the seeded request list, writes its instance files and runs
one warm-up request.  Then ``setup`` stops, ``timed`` runs the closed
loop (one client, next request after the previous one completes) for S
seconds and then tries the known-defect probes once, untimed; ``traced``
replays the fixed trace list under the tracer, and ``replay`` replays the
same list without it.  The last line of standard
output is a JSON object with the results.  ``--spawned`` is the parent's
``time.monotonic()`` just before starting this process, so that set-up
time counts interpreter start-up too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from array import array
from collections import deque

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import model as M  # noqa: E402  (needs the path above)
import workloads as W  # noqa: E402
from tracer import Tracer  # noqa: E402

MIN_REQUESTS = 100  # at least ten samples beyond the p90
CAPACITY = 1 << 18  # latency slots allocated up front, so peak RSS does not grow with them
TRACE_LENGTH = {"codec": 600, "reduce": 70, "refute": 24}  # a prefix of the request list
OUT_DIR = ".bench_out"


def attempt(req):
    """Run one request: ``(result, error text or None)``."""
    try:
        return req.run(), None
    except (Exception, SystemExit) as exc:  # a traceback or usage exit is a failed request
        return None, f"{type(exc).__name__}: {exc}"


def verdict(req, result, error) -> tuple:
    """``(output text, failure reason or None)``."""
    if error is not None:
        return f"raised {error.split(':')[0]}", f"raised {error}"
    try:
        return req.text(result), req.check(result)
    except Exception as exc:  # a check that cannot even read the answer fails it
        return "unreadable", f"answer check raised {type(exc).__name__}: {exc}"


class Tally:
    """Attempted and failed requests of a run, and the digest of their outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digest = hashlib.sha256()
        self.digested = 0

    def add(self, req, text, failure, first_pass):
        self.attempted += 1
        if first_pass:
            self.digest.update(text.encode("ascii", "replace") + b"\0")
            self.digested += 1
        if failure is None:
            return
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{req.kind}: {failure}")

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "correct": self.failed == 0,
            "digest": f"sha256:{self.digest.hexdigest()}",
            "digested": self.digested,
        }


# -- calibration ---------------------------------------------------------------
#
# On a shared 2-vCPU Xeon virtual machine the speed swings by up to a quarter
# over seconds (3-second means of a fixed loop vary with a CV of about 10%),
# and raw wall and CPU times of 30-second runs spread by 17-28% between
# quartiles over ten runs: too widely to gate a change.  The timed metrics are
# therefore calibrated.  Every PROBE_EVERY seconds, outside the timed
# windows, the worker times a fixed pure-Python probe that does not touch
# ordkit, and each request's times are scaled by REFERENCE_PROBE_S over the
# median of the last PROBE_WINDOW probes: they read as on a machine that runs
# the probe in exactly REFERENCE_PROBE_S.  A change to ordkit moves them; a
# change of machine speed cancels out.  Raw times are reported next to them.

PROBE_EVERY = 0.02
PROBE_WINDOW = 5
REFERENCE_PROBE_S = 0.001
_PROBE_A = M.parse("w^(w^3+w*2+5)*3 + w^(w^2)*7 + w^9*2 + 17")
_PROBE_B = M.parse("w^(w^3+w*2+5)*3 + w^(w^2)*7 + w^9*2 + 18")


def probe() -> float:
    """Seconds taken by the fixed calibration task (1.0-1.4 ms on that machine)."""
    t0 = time.perf_counter()
    for _ in range(40):
        M.cmp(_PROBE_A, _PROBE_B)
        M.add(_PROBE_A, _PROBE_B)
        M.render(_PROBE_A)
    return time.perf_counter() - t0


class Calibration:
    def __init__(self):
        self.recent = deque((probe() for _ in range(PROBE_WINDOW)), maxlen=PROBE_WINDOW)
        self.samples = list(self.recent)
        self.scale = REFERENCE_PROBE_S / statistics.median(self.recent)
        self.last = time.perf_counter()

    def tick(self, now: float):
        if now - self.last >= PROBE_EVERY:
            self.recent.append(probe())
            self.samples.append(self.recent[-1])
            self.scale = REFERENCE_PROBE_S / statistics.median(self.recent)
            self.last = time.perf_counter()


def summarize(wall, cpu, weights) -> dict:
    """The timed metrics of per-request wall and CPU seconds.  A request
    weighs one over the number of times its position in the request list ran,
    so that the metrics describe the list's mix however many passes over it
    the machine's speed allowed: a run that got through 1.3 passes would
    otherwise count the first 30% of the list twice."""
    total = sum(weights)
    order = sorted(range(len(wall)), key=wall.__getitem__)

    def percentile(q: float) -> float:
        """Weighted nearest rank: the first latency whose cumulative weight
        reaches ``q`` of the total."""
        reached = 0.0
        for i in order:
            reached += weights[i]
            if reached >= q * total * (1 - 1e-12):
                return wall[i]
        return wall[order[-1]]

    return {
        "throughput_rps": total / sum(w * t for w, t in zip(weights, wall)),
        "cpu_ms_per_req": 1000 * sum(w * c for w, c in zip(weights, cpu)) / total,
        "latency_p50_ms": 1000 * percentile(0.5),
        "latency_p90_ms": 1000 * percentile(0.9),
    }


def timed(requests, seconds: float) -> dict:
    tally = Tally()
    wall, cpu, scale = (array("d", bytes(8 * CAPACITY)) for _ in range(3))
    calibration = Calibration()
    start = time.perf_counter()
    i = 0
    while True:
        req = requests[i % len(requests)]
        c0 = time.process_time()
        t0 = time.perf_counter()
        result, error = attempt(req)
        t1 = time.perf_counter()
        c1 = time.process_time()
        if i == len(wall):
            for samples in (wall, cpu, scale):
                samples.frombytes(bytes(8 * CAPACITY))
        wall[i], cpu[i], scale[i] = t1 - t0, c1 - c0, calibration.scale
        tally.add(req, *verdict(req, result, error), first_pass=i < len(requests))
        i += 1
        calibration.tick(t1)
        if t1 - start >= seconds and i >= MIN_REQUESTS:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    passes, rest = divmod(i, len(requests))
    weights = [1 / (passes + (k % len(requests) < rest)) for k in range(i)]
    wall, cpu, scale = wall[:i], cpu[:i], scale[:i]
    out = tally.summary()
    calibrated = summarize([t * f for t, f in zip(wall, scale)],
                           [c * f for c, f in zip(cpu, scale)], weights)
    out["metrics"] = dict(calibrated, peak_rss_mb=peak_rss_mb)
    out["raw"] = summarize(wall, cpu, weights)
    out["probe_ms"] = 1000 * statistics.median(calibration.samples)
    out["probe_reference_ms"] = 1000 * REFERENCE_PROBE_S
    out["latency_samples"] = i
    out["passes"] = i / len(requests)
    out["wall_s"] = time.perf_counter() - start
    return out


def probe_defects(workload: str, workdir: str) -> dict:
    """Known defect -> ``present`` if its probe fails with its signature,
    ``fixed`` if the probe passes its answer check, else the failure."""
    probes = W.defect_probes(workload, workdir)
    W.prepare([req for _, req, _ in probes])
    out = {}
    for name, req, signature in probes:
        result, error = attempt(req)
        failure = verdict(req, result, error)[1]
        if failure is None:
            out[name] = "fixed"
        else:
            out[name] = "present" if signature(result, error) else f"other failure: {failure}"
    return out


def replay(requests, tracer=None) -> dict:
    """Run the list once; with a tracer, each request is a root span and
    the answer checks run with the tracer's counts paused."""
    tally = Tally()
    total = 0.0
    for index, req in enumerate(requests):
        t0 = time.perf_counter()
        if tracer is None:
            result, error = attempt(req)
        else:
            result, error = tracer.run_request(index, lambda: attempt(req))
        total += time.perf_counter() - t0
        if tracer is None:
            tally.add(req, *verdict(req, result, error), first_pass=True)
        else:
            with tracer.paused():
                tally.add(req, *verdict(req, result, error), first_pass=True)
    out = tally.summary()
    out["total_s"] = total
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "traced", "replay"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--spawned", type=float, required=True)
    args = parser.parse_args(argv)

    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        requests = W.build(args.workload, args.seed, workdir)
        W.prepare(requests)
        verdict(requests[0], *attempt(requests[0]))  # warm-up
        setup_s = time.monotonic() - args.spawned
        setup_scale = REFERENCE_PROBE_S / statistics.median(probe() for _ in range(20))
        trace_list = requests[: TRACE_LENGTH[args.workload]]
        if args.mode == "setup":
            out = {}
        elif args.mode == "timed":
            out = timed(requests, args.seconds)
            out["defect_probes"] = probe_defects(args.workload, workdir)
        elif args.mode == "replay":
            out = replay(trace_list)
        else:
            tracer = Tracer()
            tracer.install()
            out = replay(trace_list, tracer)
            out["layers"] = tracer.metrics()
            spans = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
            tracer.write_spans(spans)
            out["spans"] = spans
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out["setup_s"] = setup_s * setup_scale
    out["setup_raw_s"] = setup_s
    out["requests"] = len(requests)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
