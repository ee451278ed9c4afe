"""Exact subgraph search, colorings, certificates, and the H-free searcher.

find_subgraph is the foundation every certificate verdict rests on, so it
gets an independent ground-truth check against the brute-force injection
oracle in helpers.
"""

import json
import random
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from sizeramsey import (
    Certificate,
    CertificateValidationError,
    ColoringPlan,
    DomainError,
    EdgeColoring,
    Graph,
    certificate_from_json,
    certificate_to_json,
    certify,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    enumerate_connected_graphs,
    find_subgraph,
    make_double_star,
    max_mono_component,
    mono_copy,
    path_graph,
    search_h_free_coloring,
    star,
    verify,
    verify_certificate,
)
from fractions import Fraction

import helpers


SMALL_TARGETS = [
    path_graph(2),
    path_graph(3),
    path_graph(4),
    path_graph(5),
    star(3),
    star(4),
    cycle_graph(3),
    cycle_graph(4),
    cycle_graph(5),
    complete_graph(4),
    make_double_star(2, 1),
    make_double_star(2, 2),
    complete_bipartite(2, 3),
]


def test_find_subgraph_basics():
    host = complete_graph(5)
    emb = find_subgraph(host, cycle_graph(5))
    assert emb is not None
    helpers.check_embedding(host, cycle_graph(5), emb)
    assert find_subgraph(path_graph(5), cycle_graph(3)) is None
    assert find_subgraph(cycle_graph(6), path_graph(6)) is not None
    assert find_subgraph(cycle_graph(6), cycle_graph(3)) is None
    assert find_subgraph(star(4), path_graph(4)) is None
    with pytest.raises(DomainError):
        find_subgraph(complete_graph(4), Graph(4, [(0, 1), (2, 3)]))


def test_find_subgraph_not_induced():
    # a copy need not be induced: P3 sits inside the triangle
    assert find_subgraph(cycle_graph(3), path_graph(3)) is not None


def test_find_subgraph_agrees_with_oracle_random():
    rng = random.Random(99)
    for trial in range(400):
        n = rng.randint(1, 7)
        host = helpers.random_gnp(rng, n, rng.random())
        mat = helpers.adjacency_matrix(host)
        target = rng.choice(SMALL_TARGETS)
        emb = find_subgraph(host, target)
        truth = helpers.has_injection(mat, target)
        assert (emb is not None) == truth, (host.edges, target.edges)
        if emb is not None:
            helpers.check_embedding(host, target, emb)


def test_edge_coloring_contracts():
    g = path_graph(4)
    col = EdgeColoring(g, 3)
    col.set(1, 0, 2)
    assert col.get(0, 1) == 2 and col.get(1, 0) == 2
    assert not col.is_total()
    col.set(1, 2, 1)
    col.set(2, 3, 1)
    assert col.is_total()
    assert col.used_colors() == [1, 2]
    assert col.classes() == {1: [(1, 2), (2, 3)], 2: [(0, 1)]}  # color 3 unused
    with pytest.raises(DomainError):
        col.set(0, 2, 1)  # not a host edge
    with pytest.raises(DomainError):
        col.set(0, 1, 4)  # outside the palette
    with pytest.raises(DomainError):
        EdgeColoring(g, 0)


def test_mono_copy_finds_lowest_color():
    g = complete_graph(4)
    col = EdgeColoring(g, 2, {e: 2 for e in g.edges})
    hit = mono_copy(col, path_graph(3))
    assert hit is not None and hit[0] == 2
    col2 = EdgeColoring(g, 2, {e: (1 if e == (0, 1) or e == (1, 2) else 2)
                               for e in g.edges})
    hit2 = mono_copy(col2, path_graph(3))
    assert hit2 is not None and hit2[0] == 1


def test_mono_copy_none_on_rainbow():
    g = cycle_graph(6)
    col = EdgeColoring(g, 6, {e: i + 1 for i, e in enumerate(g.sorted_edges())})
    assert mono_copy(col, path_graph(3)) is None


def test_mono_copy_edgeless_target():
    g = path_graph(3)
    col = EdgeColoring(g, 2, {e: 1 for e in g.edges})
    assert mono_copy(col, Graph(1)) == (1, {0: 0})
    empty_host = EdgeColoring(Graph(0), 2)
    assert mono_copy(empty_host, Graph(1)) is None
    with pytest.raises(DomainError):
        mono_copy(col, Graph(4))  # edgeless on four vertices is disconnected


def test_max_mono_component_against_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(5)
    for _ in range(120):
        g = helpers.random_gnp(rng, rng.randint(1, 9), 0.5)
        r = rng.randint(1, 4)
        col = EdgeColoring(g, r, {e: rng.randint(1, r) for e in g.edges})
        got = max_mono_component(col)
        assert sorted(got) == col.used_colors()
        for c in col.used_colors():
            sub = nx.Graph()
            sub.add_edges_from(e for e in g.edges if col.get(*e) == c)
            assert got[c] == max(len(comp) for comp in nx.connected_components(sub))


# ---------------------------------------------------------------------------
# certificates


def make_cert(**overrides):
    host = path_graph(4)
    coloring = EdgeColoring(host, 2, {(0, 1): 1, (1, 2): 2, (2, 3): 1})
    base = dict(
        target=make_double_star(1, 1),
        r=2,
        coloring=coloring,
        plan=ColoringPlan(strategy="double_star_2col", parts={"X": (0, 3)}),
        claimed_bound=Fraction(4),  # (1+1)(1+1)/2 + (1+1)^2/2 for S_{1,1}
        theorem_tag="double_star_2col",
        seed=0,
    )
    base.update(overrides)
    return Certificate(**base)


def test_verify_certificate_verdicts():
    from sizeramsey import verify_certificate

    ok = verify_certificate(make_cert())
    assert ok.verdict == "verified" and ok.witness is None
    bad = make_cert(target=path_graph(2))
    out = verify_certificate(bad)
    assert out.verdict == "refuted"
    assert out.witness["kind"] == "mono_copy"
    # the input certificate is never mutated
    assert bad.verdict == "unverified"


def test_verify_certificate_structural_errors():
    from sizeramsey import verify_certificate

    host = path_graph(4)
    partial = EdgeColoring(host, 2, {(0, 1): 1})
    with pytest.raises(CertificateValidationError) as err:
        verify_certificate(make_cert(coloring=partial))
    assert "partial" in str(err.value)
    with pytest.raises(CertificateValidationError):
        verify_certificate(make_cert(claimed_bound=Fraction(2)))  # 3 edges >= 2
    with pytest.raises(CertificateValidationError):
        verify_certificate(make_cert(target=Graph(4, [(0, 1), (2, 3)])))


def _stray_color(cert):
    cert.coloring.colors[(0, 1)] = 3  # past set()'s palette check
    return cert


@pytest.mark.parametrize("build, message", [
    (lambda: make_cert(r=0), "r must be >= 1, got 0"),
    (lambda: make_cert(claimed_bound=Fraction(0)),
     "claimed_bound must be positive, got 0"),
    (lambda: _stray_color(make_cert()), "edge (0, 1) has color 3 outside 1..2"),
    (lambda: make_cert(coloring=EdgeColoring(
        path_graph(4), 3, {(0, 1): 1, (1, 2): 2, (2, 3): 1})),
     "coloring palette 3 exceeds certificate r 2"),
    (lambda: make_cert(target=Graph(0, [])), "target graph is empty"),
], ids=["r", "claimed-bound", "stray-color", "palette", "empty-target"])
def test_structural_violations_are_named(build, message):
    with pytest.raises(CertificateValidationError) as err:
        verify_certificate(build())
    assert message in err.value.violations


def test_refuted_certificate_json_roundtrip_keeps_the_witness():
    out = verify_certificate(make_cert(target=path_graph(2)))
    assert out.verdict == "refuted" and out.witness["kind"] == "mono_copy"
    text = certificate_to_json(out)
    assert json.loads(text)["witness"] == json.loads(json.dumps(out.witness))
    restored = certificate_from_json(text)
    assert restored.verdict == "refuted"
    again = verify_certificate(restored)
    assert again.verdict == "refuted" and again.witness == out.witness


def test_verify_certificate_checks_the_claimed_bound():
    # beck's bound for P6 is 3, so a host of 2 edges is below it; a claim of
    # 10^6 passes the structural check and is refuted by the recomputation
    cert = certify("beck", path_graph(3), path_graph(6), 2)
    assert cert.verdict == "verified" and cert.claimed_bound == 3
    out = verify_certificate(replace(cert, claimed_bound=Fraction(10 ** 6)))
    assert out.verdict == "refuted"
    assert out.witness == {"kind": "bound", "theorem_tag": "beck",
                           "claimed": {"num": 10 ** 6, "den": 1},
                           "bound": {"num": 3, "den": 1}}
    # an unknown tag, a palette the strategy cannot have, or a target
    # outside its domain (P6 is no double star) has no bound
    for tag, palette in (("folklore", 2), ("weakbip", 3), ("gen2", 4), ("chi3", 4),
                         ("double_star_2col", 2)):
        out = verify_certificate(replace(cert, theorem_tag=tag, r=palette))
        assert out.verdict == "refuted" and out.witness["bound"] is None, tag
    # a palette that divides gives the construction's bound back: weakbip's
    # certificates carry 2r colors
    weak = certify("weakbip", path_graph(3), path_graph(6), 2)
    assert weak.r == 4 and verify_certificate(weak).verdict == "verified"


def test_verify_cost_does_not_grow_with_the_palette():
    # only the colors in use are visited, so a palette of 10^9 costs
    # what a palette of 2 does
    cert = certify("beck", path_graph(3), path_graph(6), 2)
    doc = json.loads(certificate_to_json(cert))
    doc["r"] = 10 ** 9
    start = time.perf_counter()
    fresh = verify_certificate(certificate_from_json(json.dumps(doc)))
    assert time.perf_counter() - start < 0.5
    assert fresh.verdict == "verified" and fresh.r == 10 ** 9
    # nor does recomputing the affine bound: with r >= 2n - 1 every cell is
    # empty and the bound is 1, without a search for the prime power q
    cert = certify("affine", complete_graph(1), path_graph(3), 3)
    assert cert.plan.parameters["below_recommended_n"] is True
    doc = json.loads(certificate_to_json(cert))
    doc["r"] = 10 ** 30
    doc["claimed_bound"] = {"num": 1, "den": 1}
    start = time.perf_counter()
    fresh = verify_certificate(certificate_from_json(json.dumps(doc)))
    assert time.perf_counter() - start < 0.5
    assert fresh.verdict == "verified"


def test_affine_component_check_ignores_the_editable_plan():
    # K4 recolored without a monochromatic P4, but color 1 is a star on all
    # four vertices: the tag and the target fix the component bound, so no
    # edit of the plan's strategy or n switches the check off
    cert = certify("affine", complete_graph(4), path_graph(4), 3)
    assert cert.plan.parameters["below_recommended_n"] is True
    recolor = {(0, 1): 1, (0, 2): 1, (0, 3): 1, (1, 2): 2, (2, 3): 2, (1, 3): 3}
    refuted = {"kind": "component", "color": 1, "size": 4, "bound": 4}
    for key, value in ((None, None), ("n", 100), ("strategy", "beck"),
                       ("strategy", "none")):
        doc = json.loads(certificate_to_json(cert))
        doc["coloring"] = [[u, v, recolor[u, v]] for u, v, _ in doc["coloring"]]
        if key == "n":
            doc["parameters"]["n"] = value
        elif key is not None:
            doc[key] = value
        out = verify_certificate(certificate_from_json(json.dumps(doc)))
        assert out.verdict == "refuted", (key, value)
        assert out.witness == refuted, (key, value)


def test_certificate_json_roundtrip_is_byte_stable():
    cert = certify("beck", helpers.random_graph(random.Random(3), 6, 4),
                   make_double_star(3, 3), 2)
    text = certificate_to_json(cert)
    again = certificate_to_json(certificate_from_json(text))
    assert text == again
    doc = json.loads(text)
    assert doc["schema_version"] == 1
    assert doc["verdict"] == "verified"
    restored = certificate_from_json(text)
    assert restored.host == cert.host
    assert restored.target == cert.target
    assert restored.claimed_bound == cert.claimed_bound


def test_certificate_from_json_rejects_garbage():
    for text in ("{not json", "[" * 100_000, '{"r": ' + "9" * 5000 + "}"):
        with pytest.raises(CertificateValidationError):
            certificate_from_json(text)
    with pytest.raises(CertificateValidationError):
        certificate_from_json(json.dumps({"schema_version": 1}))
    with pytest.raises(CertificateValidationError):
        certificate_from_json(json.dumps({
            "schema_version": 99, "host_graph6": "Ch", "target_graph6": "Ch",
            "r": 2, "strategy": "beck", "coloring": [],
            "claimed_bound": {"num": 1, "den": 1}, "theorem_tag": "beck",
        }))
    valid = {
        "schema_version": 1, "host_graph6": "Bw", "target_graph6": "Bw",
        "r": 2, "strategy": "beck", "coloring": [[0, 1, 1], [0, 2, 1], [1, 2, 2]],
        "claimed_bound": {"num": 9, "den": 2}, "theorem_tag": "beck",
    }
    certificate_from_json(json.dumps(valid))
    for bad in ({"coloring": [[0, "1", 1], [0, 2, 1], [1, 2, 2]]},
                {"coloring": 5},
                {"plan_parts": {"X": 3}},
                {"r": True},
                {"host_graph6": [66, 119]},
                {"target_graph6": 10 ** 6},
                {"strategy": ["beck"]},
                {"seed": "1"}):
        with pytest.raises(CertificateValidationError):
            certificate_from_json(json.dumps({**valid, **bad}))


# ---------------------------------------------------------------------------
# exhaustive H-free coloring search


def test_search_h_free_trivial_cases():
    # K3 cannot be 2-colored without a monochromatic P2 (any edge is one)
    status, colors, nodes = search_h_free_coloring(
        complete_graph(3), path_graph(2), 2)
    assert status == "arrows"
    # ... but avoiding P3 in K3 with 2 colors is impossible too: three
    # edges, two colors, two share a color and they always touch
    status, colors, _ = search_h_free_coloring(complete_graph(3), path_graph(3), 2)
    assert status == "arrows"
    status, colors, _ = search_h_free_coloring(path_graph(3), path_graph(3), 2)
    assert status == "free"
    assert colors is not None and len(colors) == 2


def test_search_h_free_star_formula_cases():
    # K_{1,3} with 2 colors: a host needs a degree-5 vertex by the
    # pigeonhole, so the 5-star arrows and the 4-star does not
    status, _, _ = search_h_free_coloring(star(5), star(3), 2)
    assert status == "arrows"
    status, colors, _ = search_h_free_coloring(star(4), star(3), 2)
    assert status == "free"


def test_search_h_free_budget():
    status, _, nodes = search_h_free_coloring(
        complete_graph(6), cycle_graph(4), 3, node_budget=5)
    assert status == "unknown"
    assert nodes >= 5
    with pytest.raises(DomainError, match="node_budget"):
        search_h_free_coloring(complete_graph(6), cycle_graph(4), 3, node_budget=-1)


def test_search_h_free_witness_is_checked():
    rng = random.Random(11)
    for _ in range(60):
        g = helpers.random_gnp(rng, rng.randint(2, 6), 0.6)
        target = rng.choice([path_graph(3), path_graph(4), cycle_graph(3)])
        status, colors, _ = search_h_free_coloring(g, target, 2)
        if status == "free":
            col = EdgeColoring(g, 2, colors)
            assert mono_copy(col, target) is None


def test_searches_do_not_recurse_per_host_edge():
    # depths beyond the interpreter's default recursion limit of 1000
    status, colors, nodes = search_h_free_coloring(path_graph(1100), star(3), 2)
    assert (status, nodes) == ("free", 1099)
    assert colors == {(i, i + 1): 1 for i in range(1099)}
    host, target = path_graph(1200), path_graph(1100)
    helpers.check_embedding(host, target, find_subgraph(host, target))


def test_search_h_free_compiles_anchored_orders_once(monkeypatch):
    # the anchored orders depend only on the target: one per orbit of its
    # oriented edges, a single one for K3, however many nodes the search
    # visits
    calls = []
    original = verify._search_order

    def counting(target, seed=()):
        calls.append(seed)
        return original(target, seed)

    monkeypatch.setattr(verify, "_search_order", counting)
    status, _, nodes = search_h_free_coloring(complete_graph(6), complete_graph(3), 2)
    assert status == "arrows" and nodes > 6
    assert len(calls) == 1


def _all_anchored_plans(target: Graph) -> list:
    """One anchored plan per target edge and orientation, the 2·e(H)
    plans a search without the orbit cut runs."""
    return [verify._compile_plan(target,
                                 verify._search_order(target, seed=(x, y)))
            for a, b in target.sorted_edges() for x, y in ((a, b), (b, a))]


def _first_copy_through(plans: list, adj, u: int, v: int):
    """The first copy the set kernel finds with prefix (u, v), trying the
    plans in turn, or None."""
    return next(filter(None, (verify._backtrack_embed(plan, adj, (), (u, v))
                              for plan in plans)), None)


def _differential_targets() -> list[Graph]:
    # every connected target on at most 5 vertices, then P6, C5, K4, K_{2,3}
    small = [g for e in range(1, 11)
             for g in enumerate_connected_graphs(e, max_vertices=5)]
    return small + [path_graph(6), cycle_graph(5), complete_graph(4),
                    complete_bipartite(2, 3)]


@pytest.mark.parametrize("target, count", [
    (complete_graph(3), 1), (cycle_graph(4), 1), (cycle_graph(5), 1),
    (complete_graph(4), 1), (complete_bipartite(2, 2), 1),
    (path_graph(4), 3), (path_graph(5), 4), (path_graph(6), 5),
    (star(2), 2), (star(3), 2), (star(6), 2),
], ids=["K3", "C4", "C5", "K4", "K22", "P4", "P5", "P6", "K12", "K13", "K16"])
def test_one_anchored_plan_per_orbit_of_oriented_edges(target, count):
    plans = verify._anchored_plans(target)
    assert len(plans) == count
    # plans[0], the copy search of the free-witness re-check, is that of
    # the first sorted edge in its first orientation
    assert list(plans[0][0][:2]) == list(target.sorted_edges()[0])


def test_orbit_plans_find_a_copy_through_an_edge_exactly_when_all_do():
    # random classes of hosts on 4 to 8 vertices, every edge in both
    # orientations: the kept plans and all 2·e(H) plans agree
    rng = random.Random(16)
    targets = _differential_targets()
    assert len(targets) == 34
    outcomes = set()
    for target in targets:
        reps = verify._anchored_plans(target)
        every = _all_anchored_plans(target)
        for _ in range(12):
            g = helpers.random_gnp(rng, rng.randint(4, 8), rng.uniform(0.3, 0.9))
            # a random color class of a partial coloring of g
            adj = verify._class_adjacency(
                e for e in g.sorted_edges() if rng.random() < 0.8)
            # the same class as the coloring search holds it, bitmasks by vertex
            masks = [sum(1 << w for w in adj.get(x, ()))
                     for x in range(g.vertex_count)]
            for u in adj:
                for v in adj[u]:
                    kept = _first_copy_through(reps, adj, u, v)
                    full = _first_copy_through(every, adj, u, v)
                    assert (kept is None) == (full is None), (
                        target.sorted_edges(), g.sorted_edges(), u, v)
                    # the search's mask kernel returns the set kernel's copy
                    assert next(filter(None, (
                        verify._embed_through_edge(plan, masks, u, v)
                        for plan in reps)), None) == kept
                    outcomes.add(kept is None)
    assert outcomes == {True, False}


def test_orbit_plans_leave_every_search_result_unchanged():
    # (status, coloring, nodes) of a seeded corpus equal those of the
    # search over all 2·e(H) plans
    rng = random.Random(61)
    statuses = set()
    for target in _differential_targets():
        every = _all_anchored_plans(target)
        for _ in range(3):
            g = helpers.random_gnp(rng, rng.randint(4, 7), rng.uniform(0.4, 0.9))
            r = rng.randint(1, 3)
            got = search_h_free_coloring(g, target, r, node_budget=20_000)
            want = verify._search_h_free(g, every, r, 20_000)
            assert got == want, (target.sorted_edges(), g.sorted_edges(), r)
            statuses.add(got[0])
    assert statuses >= {"free", "arrows"}


def test_search_h_free_matches_brute_force():
    # every connected host through 7 edges at r = 2 and through 5 edges at
    # r = 3: the status agrees with trying all r^m colorings in lex order,
    # and a free witness is the first target-free one, so the host-twin
    # and color-precedence cuts lose no coloring the search would return
    targets = [path_graph(3), path_graph(4), complete_graph(3), cycle_graph(4),
               star(3)]
    calls = 0
    for r, emax in ((2, 7), (3, 5)):
        for e in range(1, emax + 1):
            for host in enumerate_connected_graphs(e):
                edges = host.sorted_edges()
                for target in targets:
                    first = helpers.first_h_free_coloring(
                        edges, host.vertex_count, target.sorted_edges(),
                        target.vertex_count, r)
                    status, colors, _ = search_h_free_coloring(host, target, r)
                    if first is None:
                        assert status == "arrows", (host.edges, target.edges, r)
                    else:
                        assert status == "free", (host.edges, target.edges, r)
                        assert colors == dict(zip(edges, first))
                    calls += 1
    assert calls == 5 * (131 + 22)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=6), st.data())
def test_find_subgraph_oracle_property(n, data):
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pool), unique=True,
                               max_size=len(pool))) if pool else []
    host = Graph(n, edges)
    target = data.draw(st.sampled_from(SMALL_TARGETS))
    emb = find_subgraph(host, target)
    assert (emb is not None) == helpers.has_injection(
        helpers.adjacency_matrix(host), target)


# ---------------------------------------------------------------------------
# twin symmetry breaking: interchangeable target vertices


class _CountingAdjacency(tuple):
    """A host adjacency tuple that counts its lookups."""

    lookups = 0

    def __getitem__(self, v):
        _CountingAdjacency.lookups += 1
        return tuple.__getitem__(self, v)


def test_twin_leaves_are_not_tried_in_every_order():
    # no S_{7,3} in this host, and the first center has 9 candidate leaves
    # for its 7 twin leaves: trying them in every order costs millions of
    # host lookups, in increasing order a few thousand
    host = helpers.tight_double_star_host(7, 3, 2, 1)
    target = make_double_star(7, 3)
    plan = verify._compile_plan(target, verify._search_order(target))
    adj = _CountingAdjacency(host.adj)
    _CountingAdjacency.lookups = 0
    assert verify._backtrack_embed(plan, adj, range(host.vertex_count)) is None
    assert _CountingAdjacency.lookups <= 20_000


def test_compiled_twin_table():
    # S_{2,3}: leaves 2, 3 of center 0 and 4, 5, 6 of center 1 are false
    # twins; in K4 minus the edge 23, 0 and 1 are true twins, 2 and 3 false
    order = [0, 1, 2, 3, 4, 5, 6]
    _, _, _, twin = verify._compile_plan(make_double_star(2, 3), order)
    assert twin == [-1, -1, -1, 2, -1, 4, 5]
    diamond = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    _, _, _, twin = verify._compile_plan(diamond, [0, 2, 1, 3])
    assert twin == [-1, -1, 0, 1]


def _twin_rich_target(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return make_double_star(rng.randint(1, 4), rng.randint(1, 3))
    if kind == 1:
        return star(rng.randint(1, 6))
    if kind == 2:
        return complete_bipartite(rng.randint(1, 3), rng.randint(1, 4))
    if kind == 3:
        return complete_graph(rng.randint(2, 5))
    if kind == 4:
        return helpers.complete_multipartite(
            [rng.randint(1, 3) for _ in range(rng.randint(2, 3))])
    return helpers.spider([rng.randint(1, 2) for _ in range(rng.randint(2, 4))])


def test_twin_rich_targets_agree_with_networkx():
    from networkx.algorithms.isomorphism import GraphMatcher

    def exists(host, target):
        return GraphMatcher(helpers.to_networkx(host),
                            helpers.to_networkx(target)).subgraph_is_monomorphic()

    rng = random.Random(2007)
    hits = mono_hits = 0
    for trial in range(300):
        target = _twin_rich_target(rng)
        n = rng.randint(max(2, target.vertex_count - 1), 11)
        host = helpers.random_gnp(rng, n, rng.uniform(0.15, 0.7))
        if rng.random() < 0.5 and target.vertex_count <= n:
            # plant a copy on random vertices
            image = rng.sample(range(n), target.vertex_count)
            host = Graph(n, host.edges | {tuple(sorted((image[u], image[v])))
                                          for u, v in target.edges})
        emb = find_subgraph(host, target)
        assert (emb is not None) == exists(host, target), (host.edges, target.edges)
        if emb is not None:
            hits += 1
            helpers.check_embedding(host, target, emb)
        coloring = EdgeColoring(host, 2, {e: rng.randint(1, 2) for e in host.edges})
        hit = mono_copy(coloring, target)
        classes = {c: Graph(n, es) for c, es in coloring.classes().items()}
        assert (hit is not None) == any(exists(g, target) for g in classes.values())
        if hit is not None:
            mono_hits += 1
            color, emb = hit
            assert not any(exists(classes[c], target) for c in classes if c < color)
            helpers.check_embedding(classes[color], target, emb)
    # both outcomes well represented (227 and 144 copies found)
    assert 100 <= hits <= 270 and 50 <= mono_hits <= 250
