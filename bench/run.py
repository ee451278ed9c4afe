"""Benchmark for the sizeramsey package.

    python3 bench/run.py --workload {exact,arrows,verify_trees,all} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ./src.  One
process runs one job at a time (closed loop, one client, no threads).  A
run makes timed passes over the workload's fixed job list for about
--seconds (at least one pass).  Within a pass a job shorter than BATCH_S
repeats, so short jobs get enough samples for a steady median.  Every call
builds fresh package objects outside the timed call.  Reported times are
scaled to the speed of a fixed reference search timed next to each call
(see measure).  See DESIGN.md.  Every call's output is compared with an
answer key that does not come from the package (see keys.py).

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics of a traced run (half of the time untraced, half traced, to measure
the tracer's own overhead).  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The line before it
holds provenance and the details behind the metrics.  --workload all runs
each workload in its own process and prints a table.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (needs HERE on sys.path)
from spans import Tracer  # noqa: E402

MODULES = ("graphs", "verify", "colorings", "oracle", "embed", "expander",
           "geometry", "cli")
SETUP_RUNS = 5
IMPORT_RUNS = 5
# a job shorter than this repeats within a pass, up to MAX_BATCH calls
BATCH_S = 0.02
MAX_BATCH = 16
# the reference search's usual time on the 2-vCPU machine the benchmark was
# tuned on; scaled times are seconds at that speed
REF_NOMINAL_S = 0.0016
# a percentile needs this many samples beyond it to be reported as the tail
TAIL_BEYOND = 10


class BenchError(Exception):
    pass


def load_package() -> SimpleNamespace:
    """Import sizeramsey from this checkout's src/, never from elsewhere."""
    init = os.path.join(SRC, "sizeramsey", "__init__.py")
    if not os.path.isfile(init):
        raise BenchError(f"no package source at {init}")
    sys.path.insert(0, SRC)
    pkg = importlib.import_module("sizeramsey")
    if os.path.realpath(pkg.__file__) != os.path.realpath(init):
        raise BenchError(f"imported sizeramsey from {pkg.__file__}, not {init}")
    return SimpleNamespace(**{m: importlib.import_module(f"sizeramsey.{m}") for m in MODULES})


# ---------------------------------------------------------------------------
# measurement


def _budget_hit(result) -> bool:
    return getattr(result, "status", None) in ("open", "unknown")


class Outcomes:
    """Every execution's result, kept once per distinct record of a job, so
    that grading can check each execution without holding every result."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.records: dict[tuple[int, str], list] = {}  # (job, repr) -> [record, count]

    def add(self, j: int, failed: bool, record) -> None:
        self.attempted += 1
        if failed:
            self.failed += 1
            return
        entry = self.records.setdefault((j, repr(record)), [record, 0])
        entry[1] += 1


def run_job(spec: dict, j: int, pkg, out: Outcomes) -> float:
    """One call of job j on fresh package objects; returns its seconds."""
    job = workloads.materialize(spec, pkg)
    t0 = time.perf_counter()
    try:
        result = job.run()
    except Exception:  # a job's failure is data, not a crash
        elapsed = time.perf_counter() - t0
        out.add(j, True, None)
        return elapsed
    elapsed = time.perf_counter() - t0
    out.add(j, _budget_hit(result), job.digest(result))
    return elapsed


def freeze_corpus() -> None:
    """Move everything alive so far, the corpus included, out of the
    collector's way, so that a full collection inside a job scans what the
    package allocated and not the benchmark's inputs."""
    gc.collect()
    gc.freeze()


def _reference_graph(n: int, p: float, seed: int) -> list[set[int]]:
    rng = random.Random(seed)
    adj: list[set[int]] = [set() for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u].add(v)
                adj[v].add(u)
    return adj


REF_ADJ = _reference_graph(28, 0.5, 3)
REF_CLIQUES = 54  # 5-cliques of REF_ADJ


def reference_seconds() -> float:
    """Time of a fixed pure-Python backtracking search (the 5-cliques of a
    fixed 28-vertex graph), which needs nothing from the package."""
    found = 0

    def extend(size: int, cand: set[int]) -> None:
        nonlocal found
        if size == 5:
            found += 1
            return
        for v in sorted(cand):
            extend(size + 1, {w for w in cand & REF_ADJ[v] if w > v})

    t0 = time.perf_counter()
    extend(0, set(range(len(REF_ADJ))))
    elapsed = time.perf_counter() - t0
    if found != REF_CLIQUES:
        raise BenchError(f"reference search found {found} cliques, not {REF_CLIQUES}")
    return elapsed


def measure(specs: list[dict], pkg, seconds: float, out: Outcomes) -> dict:
    """Pass over the job list, one job at a time, until `seconds` have gone
    by; the first pass always completes.  Within a pass a job repeats until
    its calls add up to BATCH_S (at most MAX_BATCH calls), so short jobs get
    enough samples for a steady median.

    The reference search runs between batches.  Each call's time is also
    reported scaled to the reference speed: multiplied by REF_NOMINAL_S over
    the mean of the reference times just before and just after its batch.
    The host's speed drifts by tens of percent over minutes, and the
    reference drifts with it.  Returns each job's raw and scaled call times
    and the reference times."""
    raw: list[list[float]] = [[] for _ in specs]
    scaled: list[list[float]] = [[] for _ in specs]
    refs = [reference_seconds()]
    deadline = time.perf_counter() + seconds
    first = True
    while first or time.perf_counter() < deadline:
        for j, spec in enumerate(specs):
            if not first and time.perf_counter() >= deadline:
                break
            batch: list[float] = []
            while len(batch) < MAX_BATCH and sum(batch) < BATCH_S:
                batch.append(run_job(spec, j, pkg, out))
            refs.append(reference_seconds())
            scale = 2 * REF_NOMINAL_S / (refs[-2] + refs[-1])
            raw[j] += batch
            scaled[j] += [t * scale for t in batch]
        first = False
    return {"raw": raw, "scaled": scaled, "refs": refs}


def measure_passes(specs: list[dict], pkg, seconds: float, out: Outcomes) -> list[float]:
    """Whole passes, each job called once, while another pass of average
    length still fits in `seconds` (at least one); returns pass times.
    Layer counts divided by the number of passes are then exact."""
    walls: list[float] = []
    start = time.perf_counter()
    while not walls or (time.perf_counter() - start) * (len(walls) + 1) / len(walls) <= seconds:
        walls.append(sum(run_job(spec, j, pkg, out) for j, spec in enumerate(specs)))
    return walls


def grade(specs: list[dict], pkg, out: Outcomes) -> int:
    """Executions whose verdict equals the key."""
    workloads.attach_expectations(specs)
    jobs = [workloads.materialize(s, pkg) for s in specs]
    ok = 0
    for (j, _), (record, count) in out.records.items():
        try:
            ok += count * bool(jobs[j].check(record))
        except Exception:  # a result the key cannot read is a wrong verdict
            pass
    return ok


def job_times(samples: list[list[float]]) -> dict:
    """Each job's median call time; their sum, median and tail.

    The tail is the highest nearest-rank percentile with at least
    TAIL_BEYOND jobs above it."""
    per_job = sorted(statistics.median(s) for s in samples)
    n = len(per_job)
    rank = max(n - TAIL_BEYOND, 1)
    return {"sum": sum(per_job), "p50": statistics.median(per_job),
            "tail": per_job[rank - 1], "tail_percentile": round(100.0 * rank / n, 2),
            "jobs": n, "calls": sum(len(s) for s in samples)}


def _python_child(args: list[str]) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable] + args, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"child {args} failed: {proc.stderr.strip()[-500:]}")
    return elapsed


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters that import the package and
    generate the corpus, as every CLI call pays."""
    args = [os.path.join(HERE, "run.py"), "--setup-only", "--workload", workload,
            "--seed", str(seed)]
    return statistics.median(_python_child(args) for _ in range(SETUP_RUNS))


def import_seconds() -> float:
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import sizeramsey; print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run([sys.executable, "-c", code, SRC], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"import failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.strip()))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# tracing


def _certify_hook(counts, cert):
    counts["colorings.retries"] += cert.plan.retries
    counts["colorings.fallback_count"] += bool(cert.plan.parameters.get("fallback"))


def _trial_hook(counts, rep):
    counts["expander.trials"] += 1
    counts["expander.sparsity.vacuous"] += rep.sparsity_outcome == "vacuous"
    counts["expander.expansion.exhaustive"] += bool(rep.expansion_exhaustive)
    counts["expander.verified"] += bool(rep.verified)


def _add(key, value):
    def hook(counts, result):
        counts[key] += value(result)
    return hook


TRACE_POINTS = {
    "oracle.size_ramsey_exact": None,
    "oracle._grow_levels": _add("oracle.hosts_kept", lambda level: len(level[1])),
    "oracle.canonical_form": None,
    "oracle.arrows": None,
    "verify.search_h_free_coloring": _add("verify.search.nodes", lambda res: res[2]),
    "verify.find_subgraph": _add("verify.find_subgraph.hits", lambda res: res is not None),
    "verify.mono_copy": _add("verify.mono_copy.hits", lambda res: res is not None),
    "verify.verify_certificate": None,
    "verify.certificate_to_json": _add("verify.io.bytes", len),
    "verify.certificate_from_json": None,
    "colorings.certify": _certify_hook,
    "geometry.make_affine_plane": None,
    "embed.ramsey_embed_test": None,
    "embed.degree_peel": _add("embed.degree_peel.deletions", lambda res: len(res.deletions)),
    "embed.greedy_tree_embed": None,
    "graphs.bipartition": None,
    "graphs.induced_subgraph": None,
    "graphs.parse_graph6": None,
    "graphs.emit_graph6": None,
    "expander.appendix_trial": _trial_hook,
    "expander.sample_gnp": None,
    "expander.check_local_sparsity": None,
    "expander.check_expansion": _add("expander.check_expansion.sets", lambda res: res.checked),
    "expander.min_degree_peel": None,
    "expander.fp_embed": None,
    "cli.parse_graph_spec": None,
}


def _frac(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-pass layer numbers from the traced passes."""
    spans = tracer.summary()
    c = tracer.counts

    def get(name, field):
        return spans.get(name, {}).get(field, 0.0) / passes

    def count(key):
        return c.get(key, 0.0) / passes

    search_s = get("verify.search_h_free_coloring", "s")
    trials = count("expander.trials")
    return {
        "oracle.canonical_form.calls": get("oracle.canonical_form", "calls"),
        "oracle.canonical_form.self_s": get("oracle.canonical_form", "self_s"),
        "oracle.new_class_frac": _frac(count("oracle.hosts_kept"),
                                       get("oracle.canonical_form", "calls")),
        "oracle.arrows.calls": get("oracle.arrows", "calls"),
        "oracle.arrows.self_s": get("oracle.arrows", "self_s"),
        "verify.search.nodes": count("verify.search.nodes"),
        "verify.search_h_free_coloring.s": search_s,
        "verify.search.nodes_per_s": _frac(count("verify.search.nodes"), search_s),
        "verify.find_subgraph.calls": get("verify.find_subgraph", "calls"),
        "verify.find_subgraph.s": get("verify.find_subgraph", "s"),
        "verify.find_subgraph.hit_frac": _frac(count("verify.find_subgraph.hits"),
                                               get("verify.find_subgraph", "calls")),
        "verify.mono_copy.calls": get("verify.mono_copy", "calls"),
        "verify.mono_copy.s": get("verify.mono_copy", "s"),
        "verify.mono_copy.hit_frac": _frac(count("verify.mono_copy.hits"),
                                           get("verify.mono_copy", "calls")),
        "verify.verify_certificate.s": get("verify.verify_certificate", "s"),
        "verify.io.s": get("verify.certificate_to_json", "s")
        + get("verify.certificate_from_json", "s"),
        "verify.io.bytes": count("verify.io.bytes"),
        "colorings.construct.self_s": get("colorings.certify", "self_s"),
        "colorings.retries": count("colorings.retries"),
        "colorings.fallback_count": count("colorings.fallback_count"),
        "geometry.make_affine_plane.s": get("geometry.make_affine_plane", "s"),
        "embed.ramsey_embed_test.s": get("embed.ramsey_embed_test", "s"),
        "embed.degree_peel.s": get("embed.degree_peel", "s"),
        "embed.degree_peel.deletions": count("embed.degree_peel.deletions"),
        "embed.greedy_tree_embed.s": get("embed.greedy_tree_embed", "s"),
        "graphs.bipartition.s": get("graphs.bipartition", "s"),
        "graphs.induced_subgraph.s": get("graphs.induced_subgraph", "s"),
        "expander.sample_gnp.s": get("expander.sample_gnp", "s"),
        "expander.check_local_sparsity.s": get("expander.check_local_sparsity", "s"),
        "expander.check_expansion.s": get("expander.check_expansion", "s"),
        "expander.check_expansion.sets": count("expander.check_expansion.sets"),
        "expander.min_degree_peel.s": get("expander.min_degree_peel", "s"),
        "expander.fp_embed.s": get("expander.fp_embed", "s"),
        "expander.sparsity.vacuous_frac": _frac(count("expander.sparsity.vacuous"), trials),
        "expander.expansion.exhaustive_frac": _frac(count("expander.expansion.exhaustive"),
                                                    trials),
        "expander.verified_frac": _frac(count("expander.verified"), trials),
        "graphs.parse_graph6.s": get("graphs.parse_graph6", "s"),
        "graphs.emit_graph6.s": get("graphs.emit_graph6", "s"),
        "trace.absent": float(len(tracer.absent)),
    }


def write_spans(tracer: Tracer, workload: str, seed: int) -> str:
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{workload}-{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}, fh)
    return path


# ---------------------------------------------------------------------------
# provenance and reporting


def provenance(workload: str, seed: int) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    pkg_dir = os.path.join(SRC, "sizeramsey")
    for name in sorted(os.listdir(pkg_dir)):
        if name.endswith(".py"):
            with open(os.path.join(pkg_dir, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"workload": workload, "seed": seed, "commit": commit,
            "src_sha256": digest.hexdigest()[:16], "nproc": os.cpu_count(),
            "python": platform.python_version(), "loadavg": list(os.getloadavg())}


def _load_units() -> dict[str, str]:
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    pkg = load_package()
    units = _load_units()
    info = provenance(workload, seed)
    metrics: dict[str, float] = {}
    if not traced:
        metrics["setup_s"] = setup_seconds(workload, seed)
    specs = workloads.generate(workload, seed, pkg)
    out = Outcomes()
    freeze_corpus()
    if traced:
        plain = measure_passes(specs, pkg, seconds / 2, out)
        tracer = Tracer()
        tracer.install("sizeramsey", TRACE_POINTS)
        try:
            walls = measure_passes(specs, pkg, seconds / 2, out)
        finally:
            tracer.uninstall()
        metrics.update(layer_metrics(tracer, len(walls)))
        metrics["trace.overhead_frac"] = statistics.median(walls) / statistics.median(plain) - 1
        metrics["trace.wall_s"] = statistics.median(walls)
        metrics["cli.import_s"] = import_seconds()
        info.update(absent=tracer.absent, plain_walls=plain, traced_walls=walls,
                    spans_file=os.path.relpath(write_spans(tracer, workload, seed), ROOT))
    else:
        samples = measure(specs, pkg, seconds, out)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        times = job_times(samples["scaled"])
        raw = job_times(samples["raw"])
        metrics.update({"wall_s": times["sum"],
                        "job_p50_ms": times["p50"] * 1e3,
                        "job_tail_ms": times["tail"] * 1e3,
                        "peak_rss_mb": peak})
        info.update(tail_percentile=times["tail_percentile"], jobs=times["jobs"],
                    timed_calls=times["calls"],
                    fewest_samples=min(map(len, samples["raw"])),
                    raw_wall_s=raw["sum"], raw_job_p50_ms=raw["p50"] * 1e3,
                    raw_job_tail_ms=raw["tail"] * 1e3,
                    reference_ms=statistics.median(samples["refs"]) * 1e3)
    attempted, failed = out.attempted, out.failed
    ok = grade(specs, pkg, out)
    if not traced:
        metrics["verdict_ok_frac"] = ok / attempted
        metrics["completed_frac"] = 1 - failed / attempted
    info.update(failed_frac=failed / attempted, verdict_ok_frac=ok / attempted)
    return {
        "info": info,
        "result": {
            "correct": ok == attempted and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units.get(k, "")}
                        for k, v in metrics.items()},
        },
    }


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process; a table of every metric."""
    status = 0
    print(f"{'workload':12} {'metric':38} {'value':>14} unit")
    for w in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, text=True, stdout=subprocess.PIPE, timeout=900)
        if proc.returncode != 0:
            print(f"{w:12} FAILED (exit {proc.returncode})")
            status = 1
            continue
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, m in sorted(doc["metrics"].items()):
            print(f"{w:12} {name:38} {m['value']:14.6g} {m['unit']}")
        print(f"{w:12} {'correct':38} {str(doc['correct']):>14} "
              f"({doc['failed']} failed of {doc['attempted']})")
        status |= 0 if doc["correct"] else 1
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.setup_only:
            pkg = load_package()
            for spec in workloads.generate(args.workload, args.seed, pkg):
                workloads.materialize(spec, pkg)
            return 0
        if args.workload == "all":
            return run_all(args.seed, args.seconds, args.trace)
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ImportError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out["info"], sort_keys=True))
    print(json.dumps(out["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
