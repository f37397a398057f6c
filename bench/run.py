"""Seeded ordkit benchmark: one workload, one run.

    python3 bench/run.py --workload {codec,reduce,refute} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each part of a run happens in a fresh
worker process (``bench/worker.py``), so that set-up time and peak memory
belong to that workload alone.

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``: six
set-up-only workers and one timed worker that runs the closed loop for S
seconds; ``setup_s`` is the median of the seven set-up times.  Times are
calibrated against a fixed probe to cancel the machine's speed swings (see
``worker.py``); the raw times are printed too.  The timed worker then tries
once, untimed, one fixed input per known defect that the workload leaves
out (see ``workloads.py``), and the run prints whether each is still there.
``--trace 1`` replays a fixed prefix of the seeded request list once under
the tracer and once without it, and reports the per-layer metrics; their
counts repeat exactly for a given seed.

Human-readable lines come first; the last line of standard output is the
JSON result.  Full results go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracer import LAYERS  # the tracer imports ordkit only when installed

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SETUP_SAMPLES = 7
WORKER_TIMEOUT = 150  # seconds, for the whole run to stay within 180


class BenchError(Exception):
    pass


def worker(workload: str, seed: int, mode: str, seconds: float, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")  # fixed set order, so counts repeat
    argv = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--mode", mode, "--seconds", str(seconds)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            argv + ["--spawned", repr(spawned)], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker for {workload} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker for {workload} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def check_layout():
    for path in ("src/ordkit/__init__.py", "tests/instances/case2_tower.txt"):
        if not os.path.isfile(os.path.join(ROOT, path)):
            raise BenchError(f"{path} is missing: run from the root of an ordkit checkout")


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> tuple:
    runs = [worker(workload, seed, "setup", seconds, deadline) for _ in range(SETUP_SAMPLES - 1)]
    run = worker(workload, seed, "timed", seconds, deadline)
    setups = [(r["setup_s"], r["setup_raw_s"]) for r in runs + [run]]
    values = dict(run["metrics"], setup_s=statistics.median(s for s, _ in setups))
    notes = [
        f"latency samples: {run['latency_samples']} over {run['wall_s']:.1f} s "
        f"({run['passes']:.2f} passes over the request list, weighted to one)",
        f"calibration probe: median {run['probe_ms']:.4f} ms "
        f"(reference {run['probe_reference_ms']} ms)",
        "raw, uncalibrated: " + " ".join(f"{k}={v:.6g}" for k, v in run["raw"].items()),
        "setup samples (s, calibrated/raw): " + " ".join(f"{s:.4f}/{r:.4f}" for s, r in setups),
    ]
    return run, values, notes


def per_layer(workload: str, seed: int, seconds: float, deadline: float) -> tuple:
    traced = worker(workload, seed, "traced", seconds, deadline)
    untraced = worker(workload, seed, "replay", seconds, deadline)
    values = dict(traced["layers"])
    values["trace.overhead_ratio"] = traced["total_s"] / untraced["total_s"]
    notes = [
        f"traced list: {traced['attempted']} requests, spans in {traced['spans']}",
        "layer self times (s): "
        + " ".join(f"{layer}={values[layer + '.self_s']:.6f}" for layer in LAYERS),
    ]
    if traced["digest"] != untraced["digest"]:
        raise BenchError("traced and untraced replays gave different outputs")
    return traced, values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + WORKER_TIMEOUT
    try:
        check_layout()
        spec = load_spec()
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        measure = per_layer if args.trace else end_to_end
        run, values, notes = measure(args.workload, args.seed, args.seconds, deadline)
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": run["correct"], "attempted": run["attempted"],
              "failed": run["failed"], "metrics": metrics}
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"requests={run['attempted']} failed={run['failed']} "
          f"correct={run['correct']}")
    for line in run["failures"]:
        print(f"  failure: {line}")
    if "defect_probes" in run:
        print("known defects, probed once on fixed inputs (not timed, not counted): "
              + " ".join(f"{k}={v}" for k, v in run["defect_probes"].items()))
    print(f"output digest: {run['digest']} over the first {run['digested']} requests")
    for line in notes:
        print(line)
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    details = dict(run, metrics_reported=metrics, all_values=values, notes=notes)
    out = os.path.join(ROOT, ".bench_out",
                       f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(details, handle, indent=1, default=str)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
