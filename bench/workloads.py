"""Seeded job lists for the four workloads.

`generate(workload, seed)` draws every input from the seed and returns
plain data (vertex counts, edge lists, color dicts, spec strings) with the
facts the answer key needs.  `materialize(spec, pkg)` turns one entry into
a Job whose `run` calls the package and whose `check` compares the result
with the key.  Jobs look functions up on the module objects at call time,
so a tracer that replaces module attributes sees every call.

The package never sees the seed: it receives only the generated inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import keys

WORKLOADS = ("exact", "arrows", "verify_trees")


@dataclass
class Job:
    """run() calls the package; digest() reduces its result, outside the
    timed call, to the small record that check() compares with the key.
    A job's records with equal repr() are checked once."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    digest: Callable[[object], object] = lambda result: result


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _relabel(n: int, edges, rng: random.Random) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted(keys.norm(perm[u], perm[v]) for u, v in edges)


def _reverse(n: int, edges) -> list[tuple[int, int]]:
    return sorted(keys.norm(n - 1 - u, n - 1 - v) for u, v in edges)


def _family_edges(family: str, size: int) -> tuple[int, list[tuple[int, int]]]:
    if family == "star":
        return size + 1, [(0, i) for i in range(1, size + 1)]
    if family == "path":
        return size, [(i, i + 1) for i in range(size - 1)]
    if family == "cycle":
        return size, [(i, (i + 1) % size) for i in range(size)]
    if family == "complete":
        return size, [(u, v) for u in range(size) for v in range(u + 1, size)]
    if family == "bicycle":
        return _family_edges("cycle", size)
    raise ValueError(family)


def _host_edges(kind: str, n: int) -> tuple[int, list[tuple[int, int]]]:
    if kind == "complete":
        return n, [(u, v) for u in range(n) for v in range(u + 1, n)]
    # balanced complete bipartite K_{n,n}
    return 2 * n, [(u, n + v) for u in range(n) for v in range(n)]


# ---------------------------------------------------------------------------
# exact: size_ramsey_exact on targets with closed-form values


EXACT_TARGETS = [
    ("star", 1, (2, 3)),
    ("star", 2, (1, 2, 3, 4, 5, 6)),
    ("star", 3, (1, 2, 3)),
    ("star", 4, (1, 2)),
    ("star", 5, (1,)),
    ("path", 4, (1, 2)),
    ("path", 5, (1,)),
    ("cycle", 3, (1,)),
    ("cycle", 4, (1,)),
    ("cycle", 5, (1,)),
    ("complete", 4, (1,)),
]


def _gen_exact(rng: random.Random) -> list[dict]:
    """Each target twice, under its family labeling and reversed (the same
    labeled graph for paths, cycles and cliques), so the list has enough
    jobs for a tail percentile above the median.  The seed only orders the
    list (see _gen_arrows)."""
    out = []
    for family, size, rs in EXACT_TARGETS:
        n, edges = _family_edges(family, size)
        for r in rs:
            value = keys.exact_value(family, size, len(edges), r)
            for k, labeled in enumerate((edges, _reverse(n, edges))):
                out.append({"kind": "exact", "name": f"{family}:{size}/r{r}/{k}",
                            "n": n, "edges": sorted(labeled), "r": r,
                            "value": value})
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# arrows: K_n -> (H)_r at n = R and n = R - 1 for known Ramsey numbers


ARROWS_CASES = [
    # (family, size, r, host kind, host sizes to decide)
    ("complete", 3, 2, "complete", (6, 5)),
    ("cycle", 4, 2, "complete", (6, 5)),
    ("cycle", 5, 2, "complete", (7,)),
    ("path", 4, 2, "complete", (5, 4)),
    ("path", 5, 2, "complete", (6, 5)),
    ("path", 6, 2, "complete", (7,)),
    ("star", 2, 2, "complete", (3, 2)),
    ("star", 2, 3, "complete", (5, 4)),
    ("star", 3, 2, "complete", (6, 5)),
    ("star", 3, 3, "complete", (8, 7)),
    ("bicycle", 4, 2, "bipartite", (5, 4)),
]


def _gen_arrows(rng: random.Random) -> list[dict]:
    """Each decision twice, under the family labeling and reversed.  The
    seed only orders the list: the anchored search follows the target's
    labels, so seeded labels would add their cost lottery to every metric."""
    out = []
    for family, size, r, host_kind, sizes in ARROWS_CASES:
        tn, tedges = _family_edges(family, size)
        ramsey = keys.ramsey_number(family, size, r)
        for k in sizes:
            hn, hedges = _host_edges(host_kind, k)
            for j, labeled in enumerate((tedges, _reverse(tn, tedges))):
                out.append({"kind": "arrows",
                            "name": f"{family}:{size}/r{r}/{host_kind}:{k}/{j}",
                            "n": tn, "edges": sorted(labeled), "r": r,
                            "host_n": hn, "host_edges": hedges,
                            "expect": "arrows" if k >= ramsey else "free"})
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# verify: certificates, planted refutations, containment queries


CERT_CASES = [
    ("beck", "dstar:6,6", 2),
    ("beck", "dstar:10,4", 2),
    ("weakbip", "path:6", 3),
    ("weakbip", "biclique:3,3", 2),
    ("gen2", "biclique:3,4", 3),
    ("gen2", "cycle:6", 3),
    ("double_star", "dstar:5,5", 4),
    ("double_star", "dstar:8,6", 3),
    ("double_star_2col", "dstar:120,80", 2),
    ("double_star_2col", "dstar:30,20", 2),
    ("chi3", "cycle:5", 4),
    ("chi3", "complete:4", 3),
    ("affine", "path:16", 4),
    ("affine", "path:25", 5),
]

# certificates re-colored so a planted copy of the target is monochromatic;
# double-star targets are left out because mono_copy on a seeded draw of them
# costs anywhere from 1 ms to 0.6 s (the twin-leaf blow-up, measured by the
# fixed tight family below instead)
PLANT_CASES = [c for c in CERT_CASES
               if c[0] not in ("affine", "beck", "double_star", "double_star_2col")]

# S_{n,m} against a host where one center pair has n + s and m + t
# candidate leaves but only n + m - 1 distinct ones: no copy exists, and the
# search must try every ordered choice of the first center's leaves.  Host
# labels are fixed, so every seed asks the same questions.  Three take
# about 0.5 s each on a 2-CPU machine.  With the largest certificate these
# are the workload's eleven slowest jobs, so its tail percentile reads the
# lightest of them, well apart from the next job.
TIGHT_DOUBLE_STARS = [(7, 3, 2, 1), (6, 4, 3, 1), (7, 3, 2, 0), (6, 4, 2, 1),
                      (7, 3, 1, 1), (7, 3, 1, 0), (7, 2, 1, 0), (6, 3, 2, 1),
                      (5, 4, 3, 1), (6, 3, 2, 0)]

# small dense pairs: host G(8, p) plus a spanning tree, connected target on
# 5 vertices; keyed by networkx
SMALL_PAIRS = 200
RANDOM_DOUBLE_STARS = [(5, 2, 11, 30)] * 20


def _connected(n: int, edges) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _host_at_bound(e_host: int, rng: random.Random, target=None):
    """Random connected host with e_host edges on about sqrt(4 e_host)
    vertices; with a target (n, edges), a copy of it is planted first and
    its image edges are returned too."""
    n = max(4, math.isqrt(4 * e_host), target[0] if target else 0)
    while n * (n - 1) // 2 < e_host:
        n += 1
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for _ in range(1000):
        planted: list[tuple[int, int]] = []
        if target is not None:
            image = rng.sample(range(n), target[0])
            planted = sorted({keys.norm(image[a], image[b]) for a, b in target[1]})
        taken = set(planted)
        rest = [p for p in pairs if p not in taken]
        edges = sorted(planted + rng.sample(rest, e_host - len(planted)))
        if _connected(n, edges):
            return n, edges, planted
    raise RuntimeError("no connected host drawn")


def _random_connected(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    edges = {keys.norm(rng.randrange(i), i) for i in range(1, n)}
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
    return sorted(edges)


def _tight_host(n: int, m: int, s: int, t: int):
    z = s + t + 1          # leaves shared by both centers
    x = n - t - 1          # leaves of the first center only
    y = m - s - 1          # leaves of the second center only
    # centers 0 and 1, then the three leaf groups, then two spare vertices
    # hung on first-center leaves so the host has enough vertices
    a = list(range(2, 2 + x))
    b = list(range(2 + x, 2 + x + y))
    c = list(range(2 + x + y, 2 + x + y + z))
    spare = 2 + x + y + z
    edges = [(0, 1)] + [(0, w) for w in a + c] + [(1, w) for w in b + c]
    edges += [(a[0], spare), (a[1], spare + 1)]
    return spare + 2, sorted(edges)


def _double_star(n: int, m: int) -> tuple[int, list[tuple[int, int]]]:
    edges = [(0, 1)] + [(0, 2 + i) for i in range(n)]
    edges += [(1, 2 + n + i) for i in range(m)]
    return n + m + 2, edges


def _gen_verify(rng: random.Random, pkg) -> list[dict]:
    def bound(strategy, spec, r):
        return pkg.colorings.strategy_bound(strategy, pkg.cli.parse_graph_spec(spec), r)

    out = []
    for strategy, spec, r in CERT_CASES:
        if strategy == "affine":
            # the construction's complete host: q^2 cells of (n-1)//q vertices
            q = pkg.geometry.q_for_ramsey(r)
            n = q * q * ((_spec_edges(spec)[0] - 1) // q)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        else:
            n, edges, _ = _host_at_bound(math.ceil(bound(strategy, spec, r)) - 1, rng)
        out.append({"kind": "certificate", "name": f"cert/{strategy}/{spec}",
                    "strategy": strategy, "spec": spec, "r": r,
                    "host_n": n, "host_edges": edges,
                    "seed": rng.randrange(2 ** 30)})
    for strategy, spec, r in PLANT_CASES:
        tn, tedges = _spec_edges(spec)
        n, edges, planted = _host_at_bound(
            math.ceil(bound(strategy, spec, r)) - 1, rng, (tn, tedges))
        out.append({"kind": "planted", "name": f"planted/{strategy}/{spec}",
                    "strategy": strategy, "spec": spec, "r": r,
                    "host_n": n, "host_edges": edges, "planted": planted,
                    "n": tn, "edges": tedges, "seed": rng.randrange(2 ** 30)})
    for i in range(SMALL_PAIRS):
        out.append({"kind": "contain", "name": f"pair/{i}",
                    "host_n": 8, "host_edges": _random_connected(8, 0.5, rng),
                    "n": 5, "edges": _random_connected(5, 0.3, rng)})
    for i, (n, m, hn, he) in enumerate(RANDOM_DOUBLE_STARS):
        pairs = [(u, v) for u in range(hn) for v in range(u + 1, hn)]
        tn, tedges = _double_star(n, m)
        out.append({"kind": "dstar", "name": f"dstar/{n},{m}/{i}", "ds": (n, m),
                    "host_n": hn, "host_edges": sorted(rng.sample(pairs, he)),
                    "n": tn, "edges": tedges})
    for n, m, s, t in TIGHT_DOUBLE_STARS:
        hn, hedges = _tight_host(n, m, s, t)
        tn, tedges = _double_star(n, m)
        out.append({"kind": "dstar", "name": f"tight/{n},{m}/{s},{t}", "ds": (n, m),
                    "host_n": hn, "host_edges": hedges, "n": tn, "edges": tedges})
    return out


def _spec_edges(spec: str) -> tuple[int, list[tuple[int, int]]]:
    head, _, rest = spec.partition(":")
    nums = [int(x) for x in rest.split(",")]
    if head == "dstar":
        return _double_star(*nums)
    if head == "biclique":
        a, b = nums
        return a + b, [(u, a + v) for u in range(a) for v in range(b)]
    return _family_edges(head, nums[0])


# ---------------------------------------------------------------------------
# trees: complete bipartite embeddings and random-host trials


EMBED_TREES = ["path:4", "path:10", "path:16", "path:30", "dstar:2,2", "dstar:20,20"]
EMBED_RS = (2, 3)
EMBED_COLORINGS = 2
TRIAL_A = (5.0, 20.0, 40.0, 80.0)     # N = 2 * 6 * a = 60, 240, 480, 960
TRIAL_B = 12.0
TRIAL_R = 2
TRIAL_TREE = "path:6"
TRIALS_PER_N = 8


def _bipartite_sides(tn: int, tedges) -> tuple[int, int]:
    side = {0: 0}
    adj: list[list[int]] = [[] for _ in range(tn)]
    for u, v in tedges:
        adj[u].append(v)
        adj[v].append(u)
    stack = [0]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in side:
                side[y] = 1 - side[x]
                stack.append(y)
    ones = sum(side.values())
    return tn - ones, ones


def _gen_trees(rng: random.Random) -> list[dict]:
    out = []
    for spec in EMBED_TREES:
        tn, tedges = _spec_edges(spec)
        n1, n2 = _bipartite_sides(tn, tedges)
        for r in EMBED_RS:
            a, b = 2 * r * n1 + 1, 2 * r * n2 + 1
            hedges = [(u, a + v) for u in range(a) for v in range(b)]
            for k in range(EMBED_COLORINGS):
                colors = {e: rng.randint(1, r) for e in hedges}
                out.append({"kind": "embed", "name": f"embed/{spec}/r{r}/{k}",
                            "spec": spec, "n": tn, "edges": _relabel(tn, tedges, rng),
                            "r": r, "host_n": a + b, "host_edges": hedges,
                            "colors": colors})
    # trial seeds are fixed, as exact and arrows targets are: the N=960
    # trials are where job_tail_ms falls, and seeded draws would add their
    # cost lottery to it
    tn, tedges = _spec_edges(TRIAL_TREE)
    for a in TRIAL_A:
        for k in range(TRIALS_PER_N):
            out.append({"kind": "trial", "name": f"trial/a{a:g}/{k}",
                        "a": a, "b": TRIAL_B, "r": TRIAL_R, "n": tn,
                        "edges": tedges, "seed": k})
    return out


def generate(workload: str, seed: int, pkg) -> list[dict]:
    rng = _rng(workload, seed)
    if workload == "exact":
        return _gen_exact(rng)
    if workload == "arrows":
        return _gen_arrows(rng)
    if workload == "verify_trees":
        out = _gen_verify(rng, pkg) + _gen_trees(rng)
        rng.shuffle(out)
        return out
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# ---------------------------------------------------------------------------
# jobs


def materialize(spec: dict, pkg) -> Job:
    """Build fresh package objects for one job, so every repetition pays
    the same lazy set-up (adjacency caches) inside its timed call."""
    return _MATERIALIZERS[spec["kind"]](spec, pkg)


def _exact_job(spec, pkg) -> Job:
    g = pkg.graphs.Graph(spec["n"], spec["edges"])
    value = spec["value"]

    def run():
        return pkg.oracle.size_ramsey_exact(g, spec["r"], value)

    def check(res) -> bool:
        return res == ("exact", value)

    return Job(spec["name"], run, check, lambda res: (res.status, res.value))


def _arrows_job(spec, pkg) -> Job:
    h = pkg.graphs.Graph(spec["n"], spec["edges"])
    host = pkg.graphs.Graph(spec["host_n"], spec["host_edges"])

    def run():
        return pkg.oracle.arrows(host, h, spec["r"])

    def check(res) -> bool:
        status, witness = res
        if status != spec["expect"]:
            return False
        if status == "free":
            return keys.coloring_free_of(spec["host_n"], spec["host_edges"],
                                         witness, spec["r"], spec["n"], spec["edges"])
        return True

    return Job(spec["name"], run, check, lambda res: (res.status, res.witness))


def _certificate_job(spec, pkg) -> Job:
    host = pkg.graphs.Graph(spec["host_n"], spec["host_edges"])
    v = pkg.verify

    def run():
        target = pkg.cli.parse_graph_spec(spec["spec"])
        cert = pkg.colorings.certify(spec["strategy"], host, target, spec["r"],
                                     seed=spec["seed"])
        text = v.certificate_to_json(cert)
        return cert.verdict, v.verify_certificate(v.certificate_from_json(text))

    def check(res) -> bool:
        return res == ("verified", "verified")

    return Job(spec["name"], run, check, lambda res: (res[0], res[1].verdict))


def _planted_job(spec, pkg) -> Job:
    host = pkg.graphs.Graph(spec["host_n"], spec["host_edges"])

    def run():
        target = pkg.cli.parse_graph_spec(spec["spec"])
        cert = pkg.colorings.certify(spec["strategy"], host, target, spec["r"],
                                     seed=spec["seed"])
        for u, w in spec["planted"]:
            cert.coloring.set(u, w, 1)
        return cert.verdict, pkg.verify.verify_certificate(cert)

    def digest(res):
        made, fresh = res
        return made, fresh.verdict, dict(fresh.coloring.colors), fresh.witness or {}

    def check(res) -> bool:
        made, verdict, colors, w = res
        return (made == "verified" and verdict == "refuted"
                and all(colors.get(e) == 1 for e in spec["planted"])
                and w.get("kind") == "mono_copy"
                and keys.mono_mapping_ok(spec["n"], spec["edges"], w.get("mapping"),
                                         colors, w.get("color")))

    return Job(spec["name"], run, check, digest)


def _contain_job(spec, pkg) -> Job:
    host = pkg.graphs.Graph(spec["host_n"], spec["host_edges"])
    target = pkg.graphs.Graph(spec["n"], spec["edges"])
    hedges = keys.edge_set(spec["host_edges"])

    def run():
        return pkg.verify.find_subgraph(host, target)

    def check(emb) -> bool:
        if spec["expect"] != (emb is not None):
            return False
        return emb is None or keys.mapping_ok(spec["n"], spec["edges"], emb, hedges)

    return Job(spec["name"], run, check)


def _embed_job(spec, pkg) -> Job:
    host = pkg.graphs.Graph(spec["host_n"], spec["host_edges"])
    tree = pkg.graphs.Graph(spec["n"], spec["edges"])
    coloring = pkg.verify.EdgeColoring(host, spec["r"], spec["colors"])
    top = max(keys.majority_sizes(spec["colors"], spec["r"]))

    def run():
        return pkg.embed.ramsey_embed_test(coloring, tree)

    def check(res) -> bool:
        color, mapping = res
        return (keys.majority_sizes(spec["colors"], spec["r"])[color] == top
                and keys.mono_mapping_ok(spec["n"], spec["edges"], mapping,
                                         spec["colors"], color))

    return Job(spec["name"], run, check)


def _trial_job(spec, pkg) -> Job:
    ex = pkg.expander
    tree = pkg.graphs.Graph(spec["n"], spec["edges"])

    def run():
        params = ex.ExpanderParams.from_constants(spec["a"], spec["b"], spec["r"], spec["n"])
        return ex.appendix_trial(params, tree, spec["seed"])

    def check(rep) -> bool:
        if "host" not in spec:
            spec["host"] = keys.trial_host(spec["a"], spec["b"], spec["r"],
                                           spec["n"], spec["seed"])
        big_n, _, edges, colors = spec["host"]
        sizes = keys.majority_sizes(colors, spec["r"])
        return (rep.verified and rep.N == big_n and rep.edge_count == len(edges)
                and sizes[rep.majority_color] == max(sizes)
                and keys.mono_mapping_ok(spec["n"], spec["edges"], rep.mapping,
                                         colors, rep.majority_color))

    return Job(spec["name"], run, check)


_MATERIALIZERS = {
    "exact": _exact_job,
    "arrows": _arrows_job,
    "certificate": _certificate_job,
    "planted": _planted_job,
    "contain": _contain_job,
    "dstar": _contain_job,
    "embed": _embed_job,
    "trial": _trial_job,
}


def attach_expectations(specs: list[dict]) -> None:
    """Containment keys: Hall's test for double stars, networkx VF2 for
    the small pairs.  Run once per process, outside every timed region."""
    for s in specs:
        if s["kind"] == "dstar":
            s["expect"] = keys.double_star_in(s["host_n"], s["host_edges"], *s["ds"])
        elif s["kind"] == "contain":
            s["expect"] = keys.networkx_contains(s["host_n"], s["host_edges"],
                                                 s["n"], s["edges"])
