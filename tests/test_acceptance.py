"""End-to-end acceptance checks.

One test per shipping criterion.  Each records a single PASS/FAIL line
(with its measured runtime) that conftest prints in a summary block after
the run, and fails the ordinary way on any violation.
"""

import functools
import itertools
import random
import time
import zlib
from fractions import Fraction
from math import ceil

import networkx as nx

import conftest
import helpers
from sizeramsey import (
    EdgeColoring,
    ExpanderParams,
    Graph,
    affine_component_coloring,
    appendix_trial,
    certify,
    check_expansion,
    complete_bipartite,
    complete_graph,
    cross_check_bounds,
    embed_host,
    find_subgraph,
    make_affine_plane,
    make_double_star,
    max_mono_component,
    path_graph,
    q_for_ramsey,
    ramsey_embed_test,
    size_ramsey_exact,
    star,
    verify_certificate,
    vizing_bucket_coloring,
)
from sizeramsey.colorings import _proper_coloring
from sizeramsey.graphs import edges_within


def criterion(num: int, name: str, limit_s: float | None = None):
    """Wrap a test so it always leaves one summary line, even on error.

    The wrapped function returns its detail string; raising marks the
    criterion FAIL with the exception as the detail."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            t0 = time.perf_counter()
            try:
                detail = fn()
            except BaseException as exc:
                _record(num, name, False,
                        f"{type(exc).__name__}: {exc}", t0, limit_s)
                raise
            elapsed = time.perf_counter() - t0
            ok = limit_s is None or elapsed <= limit_s
            _record(num, name, ok, detail, t0, limit_s)
            assert ok, f"criterion {num} ({name}) took {elapsed:.1f}s, " \
                       f"limit {limit_s}s"
        return wrapper

    return deco


def _record(num, name, ok, detail, t0, limit_s):
    elapsed = time.perf_counter() - t0
    budget = f" of {limit_s:.0f}s allowed" if limit_s is not None else ""
    conftest.ACCEPTANCE_LINES.append(
        f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'} - "
        f"{detail} [{elapsed:.1f}s{budget}]"
    )


@criterion(1, "exact star values", 300)
def test_criterion_01_exact_star_values():
    values = []
    for r, m, emax in [(2, 2, 4), (2, 3, 5), (3, 2, 4)]:
        res = size_ramsey_exact(star(m), r, emax=emax)
        assert res.status == "exact", (r, m, res.status, res.lower, res.upper)
        assert res.value == r * (m - 1) + 1, (r, m, res.value)
        values.append(f"(r={r},m={m})->{res.value}")
    return "brute force reproduced " + ", ".join(values)


@criterion(2, "affine plane axioms", 60)
def test_criterion_02_affine_plane_axioms():
    orders = [2, 3, 4, 5, 7, 8, 9]
    for q in orders:
        helpers.check_plane_axioms(make_affine_plane(q))
    return f"full incidence suite passed for q in {orders}"


@criterion(3, "coloring certificates")
def test_criterion_03_coloring_certificates():
    strategies = ("beck", "weakbip", "gen2", "double_star",
                  "double_star_2col", "chi3", "affine")
    per_strategy = 300
    total = 0
    for strategy in strategies:
        rng = random.Random(0xACCE97 + zlib.crc32(strategy.encode()) % 10_000)
        for _ in range(per_strategy):
            cert = certify(**helpers.coloring_instance(strategy, rng))
            fresh = verify_certificate(cert)
            assert fresh.verdict == "verified", (strategy, cert.plan, fresh.witness)
            assert cert.host.edge_count < cert.claimed_bound
            total += 1
    return f"{total} certificates ({len(strategies)} strategies x " \
           f"{per_strategy}), zero verification failures"


@criterion(4, "affine component bound", 60)
def test_criterion_04_affine_component_bound():
    def components_small(N, n, r):
        coloring, _ = affine_component_coloring(N, n, r)
        sizes = max_mono_component(coloring)
        assert sorted(sizes) == coloring.used_colors()
        assert all(s < n for s in sizes.values()), (N, n, r, sizes)

    components_small(8, 5, 3)
    rng = random.Random(0xAFF14E)
    for _ in range(50):
        r = rng.randint(3, 8)
        q = q_for_ramsey(r)
        s = rng.randint(1, 3)
        n = q * s + rng.randint(1, q)
        big = rng.randint(2, min(q * q * s, 24))
        components_small(big, n, r)
    return "base case (N=8, n=5, r=3) plus 50 random (r, n) with r in 3..8, " \
           "every color class below the component bound"


@criterion(5, "bucketed edge coloring")
def test_criterion_05_bucketed_edge_coloring():
    rng = random.Random(0xB0CCE7)
    for _ in range(100):
        n = rng.randint(4, 12)
        g = helpers.random_graph(rng, n, rng.randint(0, n * (n - 1) // 2))
        r = rng.randint(1, 4)
        k = rng.randint(1, 3)
        x_set = [v for v in range(n) if g.degree(v) <= r * k]
        coloring, _ = vizing_bucket_coloring(g, x_set, r, k)

        # each X vertex sees every bucket at most k times
        for v in x_set:
            loads = {}
            for w in g.adj[v]:
                c = coloring.get(v, w)
                assert c is not None
                loads[c] = loads.get(c, 0) + 1
            assert all(load <= k for load in loads.values()), (v, loads, r, k)

        # the underlying fine coloring is proper on G[X]
        inner = edges_within(g, x_set)
        proper = _proper_coloring(inner, r * k).colors
        seen = {}
        for u, w in inner:
            c = proper[(u, w)]
            for end in (u, w):
                assert (end, c) not in seen, (end, c)
                seen[(end, c)] = True
    return "100 random graphs: per-color degree <= k on X and the " \
           "intermediate coloring proper on G[X]"


@criterion(6, "monochromatic tree embedding", 600)
def test_criterion_06_tree_embedding():
    trees = [path_graph(4), make_double_star(2, 1), make_double_star(2, 2)]
    trials = 1000
    ran = 0
    for tree in trees:
        for r in (2, 3):
            host = embed_host(tree, r)
            rng = random.Random(0xE3BED + 97 * r + tree.vertex_count)
            for _ in range(trials):
                colors = {e: rng.randint(1, r) for e in host.sorted_edges()}
                coloring = EdgeColoring(host, r, colors)
                color, mapping = ramsey_embed_test(coloring, tree)
                assert 1 <= color <= r
                helpers.check_embedding(host, tree, mapping)
                for u, v in tree.edges:
                    assert coloring.get(mapping[u], mapping[v]) == color
                ran += 1

    # and the complete sweep of every 2-coloring of K_{3,3} for the path P3
    host = complete_bipartite(3, 3)
    edges = host.sorted_edges()
    p3 = path_graph(3)
    swept = 0
    for assignment in itertools.product((1, 2), repeat=len(edges)):
        coloring = EdgeColoring(host, 2, dict(zip(edges, assignment)))
        color, mapping = ramsey_embed_test(coloring, p3)
        helpers.check_embedding(host, p3, mapping)
        for u, v in p3.edges:
            assert coloring.get(mapping[u], mapping[v]) == color
        swept += 1
    return f"{ran} random host colorings (3 trees x r in 2,3 x {trials}) " \
           f"plus all {swept} colorings of the K33 sweep succeeded"


@criterion(7, "expansion implies tree embedding")
def test_criterion_07_expansion_implies_embedding():
    trees = [Graph(1), path_graph(2), path_graph(3)]

    def embeds_all(g):
        for tree in trees:
            emb = find_subgraph(g, tree)
            assert emb is not None, (sorted(g.edges), tree.vertex_count)
            helpers.check_embedding(g, tree, emb)

    # the antecedent is demanding on <= 9 vertices, so anchor it with two
    # hosts that provably satisfy it, then sample broadly
    k9 = complete_graph(9)
    k9_minus_matching = Graph(9, [e for e in k9.edges
                                  if e not in {(0, 1), (2, 3), (4, 5), (6, 7)}])
    passers = 0
    for g in (k9, k9_minus_matching):
        assert check_expansion(g, 2, 3).outcome == "pass"
        embeds_all(g)
        passers += 1

    rng = random.Random(0xE812A4)
    sampled = 0
    while sampled < 10_000:
        n = rng.randint(3, 9)
        g = helpers.random_gnp(rng, n, 0.2 + 0.75 * rng.random())
        if not nx.is_connected(helpers.to_networkx(g)):
            continue
        sampled += 1
        if check_expansion(g, 2, 3).outcome == "pass":
            embeds_all(g)
            passers += 1
    return f"{passers} hosts passed the expansion check (2 anchors + " \
           f"{sampled} connected samples), zero embedding counterexamples"


@criterion(8, "bounds bracket the truth")
def test_criterion_08_bounds_bracket():
    resolved = []
    for target, label, emax in [(star(2), "K_{1,2}", 4),
                                (star(3), "K_{1,3}", 5),
                                (path_graph(4), "P4", 8)]:
        report = cross_check_bounds(target, 2, emax=emax)
        assert report["violations"] == [], (label, report["violations"])
        exact = report["exact"]
        assert exact["status"] == "exact", (label, exact)
        lower = Fraction(report["lower_bound"]["num"],
                         report["lower_bound"]["den"])
        assert ceil(lower) <= exact["value"] <= report["upper_bound"], (
            label, lower, exact["value"], report["upper_bound"])
        resolved.append(f"{label}={exact['value']}")
    return "lower <= exact <= upper at r=2 for " + ", ".join(resolved)


@criterion(9, "sparse host trials")
def test_criterion_09_sparse_host_trials():
    # this calibration gives genuinely sparse hosts: p ~ 0.277 at N = 60
    params = ExpanderParams.from_constants(5.0, 12.0, 2, 6)
    assert params.N <= 60, params.N
    assert params.p < 1
    tree = path_graph(6)
    good = sum(appendix_trial(params, tree, seed).verified
               for seed in range(100))
    assert good >= 90, f"only {good}/100 trials verified"
    return f"{good}/100 seeds verified for P6 at r=2 on N={params.N} hosts " \
           f"with edge probability {params.p:.3f}"


@criterion(10, "subgraph search vs oracle", 900)
def test_criterion_10_subgraph_oracle():
    atlas = nx.graph_atlas_g()
    hosts, targets = [], []
    for G in atlas[1:]:
        if G.number_of_nodes() > 7:
            continue
        g = helpers.from_networkx(G)
        hosts.append(g)
        if nx.is_connected(G):
            targets.append(g)

    pairs = positives = 0
    for host in hosts:
        host_mat = helpers.adjacency_matrix(host)
        for target in targets:
            if target.vertex_count > host.vertex_count:
                continue
            pairs += 1
            emb = find_subgraph(host, target)
            if emb is not None:
                # a checked embedding is itself the injection the oracle
                # would find, so validating it settles the positive side
                helpers.check_embedding(host, target, emb)
                positives += 1
            elif target.edge_count <= host.edge_count:
                assert not helpers.has_injection(host_mat, target), (
                    sorted(host.edges), sorted(target.edges))
            # more target edges than host edges rules out any injection
    return f"{pairs} (host, target) pairs over every host on <= 7 vertices, " \
           f"{positives} embeddable, search and oracle agree on all"
