"""Tests of the benchmark itself: seeded inputs, repeatable traced counts,
and well-formed metric names.  Run with ``python -m pytest bench``."""

import json
import os
import re
import subprocess
import sys
import time
from collections import Counter

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def specs(workload, seed, workdir):
    return [(req.kind, req.spec) for req in workloads.build(workload, seed, str(workdir))]


def specs_elsewhere(workload, seed, hash_seed):
    """The inputs as built by a fresh interpreter with another string hash."""
    code = ("import workloads; "
            f"print(repr([(r.kind, r.spec) for r in workloads.build({workload!r}, {seed}, 'w')]))")
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=os.pathsep.join([BENCH, os.path.join(ROOT, "src")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return out.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    first = specs_elsewhere(workload, 7, 1)
    assert first == specs_elsewhere(workload, 7, 2)
    assert first == repr(specs(workload, 7, "w")) + "\n"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_other_inputs_same_mix(workload, tmp_path):
    first, second = specs(workload, 7, tmp_path), specs(workload, 8, tmp_path)
    assert [spec for _, spec in first] != [spec for _, spec in second]
    assert Counter(kind for kind, _ in first) == Counter(kind for kind, _ in second)


def test_reduce_draws_the_whole_mixed_growth_range(tmp_path):
    reqs = workloads.build("reduce", 3, str(tmp_path))
    a_values = {req.spec[2].split("w^")[1].split("*")[0]
                for req in reqs if req.kind == "reduce-mixed"}
    assert a_values == {str(a) for a in range(1, 16)}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_defect_probes_report_a_verdict(workload, tmp_path):
    verdicts = worker.probe_defects(workload, str(tmp_path))
    assert verdicts and set(verdicts.values()) <= {"present", "fixed"}


def traced_layers(workload, seed):
    argv = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--mode", "traced", "--spawned", repr(time.monotonic())]
    env = dict(os.environ, PYTHONHASHSEED="0")
    out = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                         timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["layers"]


@pytest.mark.parametrize("workload", ["codec", "reduce"])
def test_traced_counts_repeat(workload):
    first, second = traced_layers(workload, 5), traced_layers(workload, 5)
    timing = (".self_s", ".share", "trace.")
    counts = {k: v for k, v in first.items() if not any(t in k for t in timing)}
    assert counts == {k: v for k, v in second.items() if k in counts}
    assert counts["core.compare_calls"] > 0


def test_metric_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    names += list(tracer.Tracer().metrics())
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    declared = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(declared) == len(set(declared))
    assert set(m["name"] for m in spec["per_layer"]) - {"trace.overhead_ratio"} <= set(
        tracer.Tracer().metrics())
    with open(os.path.join(BENCH, "layers.json"), encoding="utf-8") as handle:
        documented = json.load(handle)["metrics"]
    assert {m["name"] for m in spec["per_layer"]} <= set(documented)
