"""Tests of the benchmark itself (not of the package).

    python3 -m pytest bench/test_bench.py -q

Smoke-size runs (one repetition of each job list) check that every metric
named in BENCHMARK.json is reported with its unit, that the traced run shows
the layer shares the workloads were chosen for, and that a corrupted
answer-key entry drives verdict_ok_frac below 1.
"""

import json
import os
import random
import subprocess
import sys

import pytest

import keys
import run
import workloads
from spans import Tracer

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=run.ROOT, text=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert m["better"] in ("higher", "lower")
        assert m["unit"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    doc = _run(workload, 0)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == want
    assert doc["metrics"]["verdict_ok_frac"]["value"] == 1.0
    assert all(v["value"] > 0 for v in doc["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    doc = _run(workload, 1)
    assert doc["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == want
    m = {k: v["value"] for k, v in doc["metrics"].items()}
    assert m["trace.absent"] == 0
    if workload == "exact":
        selfs = {k: v for k, v in m.items() if k.endswith("self_s")}
        assert max(selfs, key=selfs.get) == "oracle.canonical_form.self_s"
        assert m["oracle.canonical_form.self_s"] > 0.5 * m["trace.wall_s"]
    else:
        assert m["oracle.canonical_form.calls"] == 0
    if workload == "arrows":
        assert m["verify.search_h_free_coloring.s"] > 0.9 * m["trace.wall_s"]
    if workload == "verify_trees":
        assert m["expander.sparsity.vacuous_frac"] == 1.0
        assert m["expander.verified_frac"] == 1.0


def _grade_subset(workload, corrupt):
    pkg = run.load_package()
    specs = workloads.generate(workload, 5, pkg)
    specs = sorted(specs, key=lambda s: s["name"])[:4]
    corrupt(specs[0])
    out = run.Outcomes()
    run.measure(specs, pkg, 0, out)
    return out.attempted, out.failed, run.grade(specs, pkg, out)


def test_corrupted_exact_key_lowers_verdict_ok_frac():
    def corrupt(spec):
        spec["value"] += 1

    attempted, failed, ok = _grade_subset("exact", corrupt)
    assert failed == 0 and ok < attempted


def test_corrupted_arrows_key_lowers_verdict_ok_frac():
    def corrupt(spec):
        spec["expect"] = "free" if spec["expect"] == "arrows" else "arrows"

    attempted, failed, ok = _grade_subset("arrows", corrupt)
    assert failed == 0 and ok < attempted


def test_tracer_reports_absent_attributes_and_restores():
    pkg = run.load_package()
    original = pkg.verify.find_subgraph
    tracer = Tracer()
    tracer.install("sizeramsey", {"verify.no_such_function": None,
                                  "verify.find_subgraph": lambda counts, res: res.no_such_field})
    try:
        assert tracer.absent == ["verify.no_such_function"]
        assert pkg.verify.find_subgraph is not original
        g = pkg.graphs.complete_graph(4)
        for _ in range(2):
            assert pkg.verify.find_subgraph(g, pkg.graphs.path_graph(3)) is not None
    finally:
        tracer.uninstall()
    assert pkg.verify.find_subgraph is original
    assert tracer.absent == ["verify.no_such_function",
                             "verify.find_subgraph (hook: AttributeError)"]
    assert tracer.summary()["verify.find_subgraph"]["calls"] == 2


def test_closed_forms():
    assert keys.ramsey_number("star", 3, 2) == 6
    assert keys.ramsey_number("star", 2, 2) == 3
    assert keys.ramsey_number("star", 3, 3) == 8
    assert keys.ramsey_number("path", 6, 2) == 8
    assert keys.exact_value("star", 3, 3, 4) == 9


def test_double_star_test_agrees_with_networkx():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(6, 9)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        star = [(0, 1)] + [(0, 2 + i) for i in range(a)] + [(1, 2 + a + i) for i in range(b)]
        assert keys.double_star_in(n, edges, a, b) == keys.networkx_contains(
            n, edges, a + b + 2, star)
