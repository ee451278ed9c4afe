"""Ground-truth machinery: canonical forms, host enumeration, exhaustive
arrowing, exact size-Ramsey values, and the bound cross-checker."""

import hashlib
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import networkx as nx
import pytest

import helpers
from sizeramsey import oracle, verify
from sizeramsey import (
    ArrowingResult,
    DomainError,
    Graph,
    arrows,
    canonical_form,
    complete_bipartite,
    complete_graph,
    cross_check_bounds,
    cycle_graph,
    embed_host,
    emit_graph6,
    enumerate_connected_graphs,
    mono_copy,
    EdgeColoring,
    make_double_star,
    parse_graph6,
    path_graph,
    size_ramsey_exact,
    star,
)

# ---------------------------------------------------------------------------
# canonical forms


def relabel(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    return Graph(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges])


def test_canonical_form_relabel_invariant(rng):
    for _ in range(120):
        n = rng.randint(1, 9)
        e = rng.randint(0, n * (n - 1) // 2)
        g = helpers.random_graph(rng, n, e)
        assert canonical_form(g) == canonical_form(relabel(g, rng))


def test_canonical_form_matches_networkx_isomorphism(rng):
    # same (n, e) pairs so non-isomorphic cases are not decided by counting
    agree_iso = 0
    for _ in range(200):
        n = rng.randint(4, 8)
        e = rng.randint(n - 1, n * (n - 1) // 2)
        a = helpers.random_graph(rng, n, e)
        b = relabel(a, rng) if rng.random() < 0.4 else helpers.random_graph(rng, n, e)
        iso = nx.is_isomorphic(helpers.to_networkx(a), helpers.to_networkx(b))
        assert (canonical_form(a) == canonical_form(b)) == iso
        agree_iso += iso
    assert agree_iso >= 40  # the permuted copies keep the positive side populated


def test_canonical_form_separates_regular_pairs():
    # K_{3,3} and the triangular prism are both cubic on 6 vertices and are
    # indistinguishable by plain color refinement
    k33 = Graph(6, [(i, j) for i in range(3) for j in range(3, 6)])
    prism = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                      (0, 3), (1, 4), (2, 5)])
    assert canonical_form(k33) != canonical_form(prism)


def petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, edges)


def test_canonical_form_vertex_transitive(rng):
    # a single refinement class of 10 forces the individualization path
    pent_prism = Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                       + [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
                       + [(i, i + 5) for i in range(5)])
    p = petersen()
    assert canonical_form(p) == canonical_form(relabel(p, rng))
    assert canonical_form(p) != canonical_form(pent_prism)


def rook_graph() -> Graph:
    # K4 x K4: (a, b) ~ (c, d) when they share a row or a column
    cells = [(a, b) for a in range(4) for b in range(4)]
    return Graph(16, [(i, j) for i in range(16) for j in range(i + 1, 16)
                      if (cells[i][0] == cells[j][0]) != (cells[i][1] == cells[j][1])])


def shrikhande_graph() -> Graph:
    # Cayley graph of Z4 x Z4 with connection set {+-(0,1), +-(1,0), +-(1,1)}
    steps = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    return Graph(16, [(i, j) for i in range(16) for j in range(i + 1, 16)
                      if ((j // 4 - i // 4) % 4, (j % 4 - i % 4) % 4) in steps])


def hypercube(d: int) -> Graph:
    return Graph(1 << d, [(v, v | 1 << k) for v in range(1 << d)
                          for k in range(d) if not v >> k & 1])


def test_canonical_form_separates_strongly_regular_pair():
    # both are srg(16, 6, 2, 2): color refinement leaves one class, so only
    # individualization can tell them apart
    rook, shrikhande = rook_graph(), shrikhande_graph()
    assert not nx.is_isomorphic(helpers.to_networkx(rook),
                                helpers.to_networkx(shrikhande))
    assert canonical_form(rook) != canonical_form(shrikhande)


def test_canonical_form_relabel_invariant_on_symmetric_graphs():
    rng = random.Random(20140101)
    graphs = [petersen(), hypercube(4), rook_graph(), shrikhande_graph(),
              complete_bipartite(4, 4), cycle_graph(12), make_double_star(4, 3)]
    for g in graphs:
        form = canonical_form(g)
        for _ in range(5):
            assert canonical_form(relabel(g, rng)) == form


def plant_twins(rng: random.Random, g: Graph, count: int) -> Graph:
    """g plus `count` new vertices, each a copy of a random vertex's
    neighborhood, adjacent to that vertex or not."""
    n, edges = g.vertex_count, list(g.edges)
    adj = [set(a) for a in g.adj]
    for _ in range(count):
        v = rng.randrange(n)
        new_nbrs = set(adj[v]) | ({v} if rng.random() < 0.5 else set())
        adj.append(new_nbrs)
        for w in new_nbrs:
            adj[w].add(n)
            edges.append((w, n))
        n += 1
    return Graph(n, edges)


def test_canonical_form_matches_networkx_with_twins():
    # hosts with many twins exercise the pruning; the non-isomorphic side
    # moves one edge, so n and e always agree
    rng = random.Random(1998)
    agree_iso = 0
    for _ in range(300):
        base = helpers.random_graph(rng, rng.randint(2, 6), rng.randint(1, 8))
        a = plant_twins(rng, base, rng.randint(1, 4))
        b = relabel(a, rng)
        if rng.random() < 0.5:
            pool = [(u, v) for u in range(b.vertex_count)
                    for v in range(u + 1, b.vertex_count) if not b.has_edge(u, v)]
            if pool:
                edges = set(b.edges)
                edges.remove(rng.choice(sorted(edges)))
                edges.add(rng.choice(pool))
                b = Graph(b.vertex_count, edges)
        iso = nx.is_isomorphic(helpers.to_networkx(a), helpers.to_networkx(b))
        assert (canonical_form(a) == canonical_form(b)) == iso
        agree_iso += iso
    assert 100 <= agree_iso <= 250  # both sides stay populated


def test_canonical_form_degenerate():
    assert canonical_form(Graph(0)) == (0, 0)
    assert canonical_form(Graph(1))[0] == 1
    assert canonical_form(Graph(3)) == canonical_form(Graph(3))


@pytest.mark.parametrize("emax, count, digest", [
    (8, 358, "64815e4d1035425e4f0ba6520e7db8914f117f419ee1c251f62793f7241eed11"),
    # through 8 edges every leaf of every search tree has the same code, so
    # only 9 edges tell the least leaf code from, say, the greatest
    (9, 1068, "ece3ef372440bc3b61245e58c95ba4d07d715685883cdae2a2dbb701a904b885"),
], ids=["8-edges", "9-edges"])
def test_canonical_forms_are_pinned(emax, count, digest):
    # SHA-256 of the sorted (edge count, form) rows of every class through
    # emax edges, which do not depend on the representative a class keeps;
    # the enumeration that kept first-seen representatives gives the same
    # digests
    rows = sorted((e, canonical_form(g))
                  for e, graphs, _ in oracle._grow_levels(emax, None) for g in graphs)
    assert len(rows) == count
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


@pytest.mark.parametrize("g", [Graph(1200), star(1200)],
                         ids=["edgeless-1200", "star-1200"])
def test_canonical_form_depth_is_not_bounded_by_recursion(g):
    # twins pruned, the search tree is a path with one level per vertex
    n, code = canonical_form(g)
    assert n == g.vertex_count
    # the least code orders the center last, so each row of the upper
    # triangle ends in its only one: the rows below a row of length k + 1
    # hold k(k + 1)/2 bits
    want = 0 if g.edge_count == 0 else sum(1 << k * (k + 1) // 2
                                           for k in range(n - 1))
    assert code == want


def test_wl_colors_matches_ranking_every_key_at_once():
    # random starting colorings, most with classes of one vertex, which
    # are ranked without their neighbor tuples
    rng = random.Random(2014)
    singletons = 0
    for _ in range(400):
        n = rng.randint(1, 12)
        g = helpers.random_graph(rng, n, rng.randint(0, n * (n - 1) // 2))
        colors = [rng.randrange(rng.randint(1, 2 * n)) for _ in range(n)]
        adj = [sorted(a) for a in g.adj]
        got = oracle._wl_colors(n, adj, colors)
        assert got == helpers.wl_colors_reference(n, g.adj, colors)
        singletons += any(colors.count(c) == 1 for c in colors)
    assert singletons >= 300


def test_leaf_code_matches_reading_every_pair():
    # one bit set per edge gives the row-by-row reading of all n(n-1)/2
    # pairs, on random graphs under random orderings
    rng = random.Random(1998)
    for _ in range(400):
        n = rng.randint(1, 14)
        g = helpers.random_graph(rng, n, rng.randint(0, n * (n - 1) // 2))
        ordering = list(range(n))
        rng.shuffle(ordering)
        position = [0] * n
        for i, v in enumerate(ordering):
            position[v] = i
        assert (oracle._adjacency_code(n, g.edges, position)
                == helpers.adjacency_code_reference(g, ordering))


# ---------------------------------------------------------------------------
# connected-host enumeration


def test_enumeration_counts(monkeypatch):
    # connected unlabeled graphs by edge count, no isolated vertices
    # (OEIS A002905), every level from one pass
    expected = [1, 1, 3, 5, 12, 30, 79, 227, 710, 2322, 8071]
    # per edge count: the children that pass the twin cut, each of which
    # the deletion filter judges, and the canonical forms computed
    children, forms = Counter(), Counter()
    original_filter, original_form = oracle._deletion_filter, oracle.canonical_form

    def counting_filter(g):
        keep = original_filter(g)

        def counted(u, v):
            children[g.edge_count + 1] += 1
            return keep(u, v)
        return counted

    def counting_form(g):
        forms[g.edge_count] += 1
        return original_form(g)

    monkeypatch.setattr(oracle, "_deletion_filter", counting_filter)
    monkeypatch.setattr(oracle, "canonical_form", counting_form)
    levels = list(oracle._grow_levels(len(expected), None))
    assert [e for e, _, _ in levels] == list(range(1, len(expected) + 1))
    assert [len(got) for _, got, _ in levels] == expected
    for e, got, _ in levels:
        for g in got:
            assert g.edge_count == e
            assert all(g.degree(v) >= 1 for v in range(g.vertex_count))
            assert nx.is_connected(helpers.to_networkx(g))
    assert children[11] == 65_962
    assert forms[11] <= children[11] // 4


def test_enumeration_pairwise_nonisomorphic():
    graphs = enumerate_connected_graphs(5)
    mats = [helpers.to_networkx(g) for g in graphs]
    for i in range(len(graphs)):
        for j in range(i + 1, len(graphs)):
            assert not nx.is_isomorphic(mats[i], mats[j])


def test_enumeration_vertex_cap():
    capped = enumerate_connected_graphs(4, max_vertices=4)
    assert len(capped) == 2  # C4 and the triangle with a pendant edge
    assert all(g.vertex_count <= 4 for g in capped)


@pytest.mark.parametrize("vmax", [1, 0, -1])
def test_enumeration_cap_below_two_vertices_leaves_every_level_empty(vmax):
    # K2, the one graph with a single edge, has two vertices
    assert enumerate_connected_graphs(1, max_vertices=vmax) == []
    assert [len(graphs) for _, graphs, _ in oracle._grow_levels(3, vmax)] == [0, 0, 0]
    assert enumerate_connected_graphs(1, max_vertices=2) == [Graph(2, [(0, 1)])]


@pytest.mark.parametrize("emax, vmax", [(8, None), (8, 4), (8, 5)])
def test_enumeration_matches_unpruned_reference(emax, vmax):
    # the same classes, level by level, as trying every child; which
    # child represents a class is the generator's own choice
    got = [[canonical_form(g) for g in graphs]
           for _, graphs, _ in oracle._grow_levels(emax, vmax)]
    want = [[canonical_form(Graph(n, edges)) for n, edges in level]
            for level in helpers.connected_levels(emax, vmax)]
    assert [len(level) for level in got] == [len(level) for level in want]
    assert [set(level) for level in got] == [set(level) for level in want]


def test_enumeration_matches_the_graph_atlas():
    # every connected graph on at most 7 vertices, class for class, with
    # networkx's atlas as the reference and its isomorphism test as the
    # judge: no canonical form on the reference side
    atlas: dict[tuple, list] = {}
    for a in nx.graph_atlas_g():
        if a.number_of_edges() and nx.is_connected(a):
            bucket = (a.number_of_nodes(), a.number_of_edges(),
                      tuple(sorted(d for _, d in a.degree())))
            atlas.setdefault(bucket, []).append(a)
    ours: dict[tuple, list] = {}
    for e, graphs, _ in oracle._grow_levels(21, 7):
        for g in graphs:
            bucket = (g.vertex_count, e, tuple(sorted(g.degrees())))
            ours.setdefault(bucket, []).append(helpers.to_networkx(g))
    assert ours.keys() == atlas.keys()
    for bucket, graphs in ours.items():
        assert len(graphs) == len(atlas[bucket]), bucket
        # atlas graphs are pairwise non-isomorphic, so one match each and
        # no atlas graph matched twice makes the bucket a bijection
        matched = set()
        for g in graphs:
            hits = [i for i, a in enumerate(atlas[bucket]) if nx.is_isomorphic(g, a)]
            assert len(hits) == 1, bucket
            matched.add(hits[0])
        assert len(matched) == len(graphs), bucket


def test_enumeration_prunes_twin_orbits(monkeypatch):
    # through 7 edges: K2 and the 179 children that pass both cuts and
    # are filed into buckets; the twin cut alone leaves 500, and trying
    # every child takes 706.  Of those 180, canonical forms are computed
    # only for the 85 that share a bucket with another child
    filed, forms = [], []
    original_file, original_form = oracle._file, oracle.canonical_form

    def counting_file(buckets, forms, g):
        filed.append(g.edge_count)
        return original_file(buckets, forms, g)

    def counting_form(g):
        forms.append(g.edge_count)
        return original_form(g)

    monkeypatch.setattr(oracle, "_file", counting_file)
    monkeypatch.setattr(oracle, "canonical_form", counting_form)
    assert sum(len(graphs) for _, graphs, _ in oracle._grow_levels(7, None)) == 131
    assert 1 + len(filed) == 180
    assert len(forms) == 85


def test_a_shared_invariant_key_keeps_both_classes():
    # two triangles joined by the edge 0-3, and the 6-cycle 0-1-3-5-4-2
    # with the long chord 0-5: degrees 3, 3, 2, 2, 2, 2, each degree-3
    # vertex's neighbors summing to 7 and each degree-2 vertex's to 5, so
    # only canonical forms tell them apart
    triangles, chorded = parse_graph6("E{CW"), parse_graph6("EqIW")
    assert sorted(triangles.edges) == [(0, 1), (0, 2), (0, 3), (1, 2),
                                       (3, 4), (3, 5), (4, 5)]
    assert sorted(chorded.edges) == [(0, 1), (0, 2), (0, 5), (1, 3),
                                     (2, 4), (3, 5), (4, 5)]
    key = oracle._invariant_key(6, triangles.edges)
    assert oracle._invariant_key(6, chorded.edges) == key
    assert canonical_form(triangles) != canonical_form(chorded)
    # filed under one key, both classes stay, each under the graph that
    # came first, and a relabeled copy of either joins its class
    rng = random.Random(1998)
    buckets, forms = {}, {}
    assert oracle._file(buckets, forms, triangles)
    assert forms == {}
    assert oracle._file(buckets, forms, chorded)
    assert not oracle._file(buckets, forms, relabel(chorded, rng))
    assert not oracle._file(buckets, forms, relabel(triangles, rng))
    assert buckets == {key: None}
    assert list(forms.values()) == [triangles, chorded]
    # and the enumeration keeps both at 7 edges, as these representatives,
    # among 79 classes
    level = {e: graphs for e, graphs, _ in oracle._grow_levels(7, None)}[7]
    assert {"E{CW", "EqIW"} <= {emit_graph6(g) for g in level}
    assert len({canonical_form(g) for g in level}) == len(level) == 79


def test_deletion_filter_rejects_a_cycle_child_with_a_leaf():
    # P4 plus the chord 0-2: a triangle with a pendant edge, whose
    # pendant edge outranks every cycle edge
    assert not oracle._deletion_filter(path_graph(4))(0, 2)
    # the same class made by hanging the pendant edge passes
    assert oracle._deletion_filter(cycle_graph(3))(0, 3)


def test_deletion_filter_looks_past_bridges():
    # squares 0-1-2-3 and 4-5-6-7 joined by the bridge 3-4: the bridge
    # has the greatest key (6, 3, 0), then the square edges at 3 and 4
    # (5, 2, 0), then the rest (4, 2, 0).  A leafless child whose only
    # higher-key edge is the bridge is kept
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (4, 5), (5, 6), (6, 7), (4, 7)]
    parent = Graph(8, [e for e in edges if e != (0, 3)])
    assert oracle._deletion_filter(parent)(0, 3)
    # with a higher-key cycle edge that has no common neighbor, which only
    # a connectivity check without that edge tells from a bridge, it is
    # rejected
    parent = Graph(8, [e for e in edges if e != (0, 1)])
    assert not oracle._deletion_filter(parent)(0, 1)


def test_deletion_filter_matches_networkx_reference(rng):
    # every child of random connected parents, pendant children included,
    # judged by the filter and by a reference read off its docstring
    kept = rejected = 0
    for _ in range(400):
        n = rng.randint(2, 9)
        tree = helpers.random_tree(rng, n)
        extra = helpers.random_graph(rng, n, rng.randint(0, n))
        parent = Graph(n, tree.edges | extra.edges)
        keep = oracle._deletion_filter(parent)
        children = [(u, v) for u in range(n) for v in range(u + 1, n)
                    if not parent.has_edge(u, v)] + [(u, n) for u in range(n)]
        for u, v in children:
            got = keep(u, v)
            assert got == helpers.deletion_filter_reference(parent, u, v), (
                sorted(parent.edges), u, v)
            kept += got
            rejected += not got
    assert kept >= 1000 and rejected >= 1000


def test_enumeration_bad_edge_count():
    with pytest.raises(DomainError):
        enumerate_connected_graphs(0)


# ---------------------------------------------------------------------------
# arrowing decisions


def test_arrows_star_formula_cases():
    # r(m-1)+1 star edges force a monochromatic K_{1,m}; one fewer does not
    res = arrows(star(5), star(3), 2)
    assert res.status == "arrows" and res.witness is None

    res = arrows(star(4), star(3), 2)
    assert res.status == "free"
    col = EdgeColoring(star(4), 2, res.witness)
    assert mono_copy(col, star(3)) is None


def test_arrows_triangle_path():
    assert arrows(Graph(3, [(0, 1), (1, 2), (0, 2)]), path_graph(3), 2).status == "arrows"
    assert arrows(path_graph(3), path_graph(3), 2).status == "free"


def test_arrows_one_color_is_containment():
    k3 = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert arrows(k3, path_graph(3), 1).status == "arrows"
    res = arrows(path_graph(4), k3, 1)
    assert res.status == "free"
    assert set(res.witness.values()) == {1}  # the only color in a 1-palette


@pytest.mark.parametrize("removed, status", [([(0, 1)], "arrows"),
                                             ([(0, 1), (2, 3)], "free")],
                         ids=["K6-e", "K6-2e"])
def test_p4_three_colors_arrowing_half(removed, status):
    # the arrowing half of R^_3(P4) = 14: K6 minus an edge arrows P4 in
    # three colors, K6 minus two disjoint edges does not; a brute force
    # that shares no code with the search agrees on both
    edges = [e for e in complete_graph(6).sorted_edges() if e not in removed]
    res = arrows(Graph(6, edges), path_graph(4), 3)
    assert res.status == status
    assert (helpers.p4_free_coloring(edges, 3) is None) == (status == "arrows")
    if res.witness is not None:
        assert all(helpers.is_p4_free([e for e in edges if res.witness[e] == c])
                   for c in (1, 2, 3))


def test_arrows_budget_and_domain():
    res = arrows(star(5), star(3), 2, node_budget=1)
    assert res.status == "unknown" and res.witness is None
    with pytest.raises(DomainError):
        arrows(star(2), star(2), 0)
    assert arrows(complete_graph(5), path_graph(3), 2, node_budget=0).status == "unknown"
    with pytest.raises(DomainError, match="node_budget"):
        arrows(complete_graph(5), path_graph(3), 2, node_budget=-5)


UPPER_BOUND_TREES = {"P4": path_graph(4), "P5": path_graph(5),
                     "P6": path_graph(6), "S22": make_double_star(2, 2)}


@pytest.mark.parametrize("name, r", [("P4", 2), ("P4", 3), ("P5", 2), ("P6", 2),
                                     ("S22", 2)])
def test_upper_bound_host_arrows(name, r):
    # the paper's complete bipartite host K_{2r n1 + 1, 2r n2 + 1} is proven
    # to arrow by exhaustive search, not only on sampled colorings; the
    # host-twin cuts of the coloring search bring each of these within
    # 330,000 nodes
    tree = UPPER_BOUND_TREES[name]
    res = arrows(embed_host(tree, r), tree, r, node_budget=2_000_000)
    assert res.status == "arrows", res.nodes


def test_arrows_k13_13_to_p6_is_pinned():
    # the paper's P6 host at r = 2; one anchored plan per orbit of P6's
    # oriented edges visits the nodes that all ten plans did
    res = arrows(complete_bipartite(13, 13), path_graph(6), 2)
    assert (res.status, res.nodes) == ("arrows", 9_759)


def test_a_dropped_plan_orbit_surfaces_as_an_error(monkeypatch):
    # keeping only K_{1,2}'s centre-to-leaf plan misses the copy through
    # the host edge (1, 2) anchored leaf-to-centre: the search answers
    # "free", and the re-check of its witness raises instead of passing a
    # wrong verdict on
    host, target = Graph(3, [(0, 2), (1, 2)]), star(2)
    assert arrows(host, target, 1).status == "arrows"
    original = verify._anchored_plans

    def centre_to_leaf_only(h):
        return [p for p in original(h) if p[0][0] == 0]

    monkeypatch.setattr(verify, "_anchored_plans", centre_to_leaf_only)
    with pytest.raises(AssertionError,
                       match="free witness contains a monochromatic copy"):
        arrows(host, target, 1)


# ---------------------------------------------------------------------------
# exact values


def test_exact_smallest_star():
    res = size_ramsey_exact(star(2), 2, emax=4)
    assert res.status == "exact"
    assert res.value == res.lower == res.upper == 3
    assert res.arrowing_host_graph6 == "Bw"  # the triangle
    assert res.unknown_hosts == []
    assert res.nodes > 0
    d = res.to_dict()
    assert d["value"] == 3 and d["target_graph6"] == res.target_graph6


def test_exact_open_when_emax_short():
    # K_{1,3} needs 5 edges at r=2, so a 3-edge cap proves nothing arrows
    res = size_ramsey_exact(star(3), 2, emax=3)
    assert res.status == "open"
    assert res.value is None and res.upper is None
    assert res.lower == 5


def test_exact_budget_collects_unknowns():
    res = size_ramsey_exact(star(2), 2, emax=3, node_budget=1)
    assert res.status == "open"
    assert res.unknown_hosts != []
    # the 2-edge host is ruled out by proof (two colors of one edge each),
    # so the undecided 3-edge hosts set the floor
    assert res.lower == 3
    with pytest.raises(DomainError, match="node_budget"):
        size_ramsey_exact(star(2), 2, emax=3, node_budget=-1)


@pytest.mark.parametrize("target, r", [(star(2), 6), (path_graph(4), 2)],
                         ids=["S2-6", "P4-2"])
def test_exact_search_starts_at_the_pigeonhole_bound(monkeypatch, target, r):
    # r(e(H)-1) edges split into r colors of e(H)-1 edges each: no host
    # that small is decided, by the coloring search or by a coloring
    # inherited from its parent, and the first decided are at the start
    decided = []
    original_search, original_inherit = oracle._search_h_free, oracle._inherit

    def searching(g, *args):
        decided.append(g.edge_count)
        return original_search(g, *args)

    def inheriting(g, *args):
        colors = original_inherit(g, *args)
        if colors is not None:
            decided.append(g.edge_count)
        return colors

    monkeypatch.setattr(oracle, "_search_h_free", searching)
    monkeypatch.setattr(oracle, "_inherit", inheriting)
    res = size_ramsey_exact(target, r, emax=7)
    assert res.status == "exact" and res.value == 7
    assert decided and min(decided) == r * (target.edge_count - 1) + 1


@pytest.mark.parametrize("target, r, emax, lower",
                         [(star(6), 6, 11, 31), (path_graph(4), 3, 5, 7)],
                         ids=["S6-6", "P4-3"])
def test_exact_below_the_pigeonhole_bound_grows_no_level(monkeypatch, target,
                                                          r, emax, lower):
    # with emax below r(e(H)-1)+1 every host in range is ruled out by
    # proof: the lower end is that start, and no level is grown
    grown = []
    original = oracle._grow_levels

    def recording(*args):
        for level in original(*args):
            grown.append(level[0])
            yield level

    monkeypatch.setattr(oracle, "_grow_levels", recording)
    res = size_ramsey_exact(target, r, emax=emax)
    assert res.status == "open" and res.upper is None
    assert res.lower == lower and res.nodes == 0
    assert grown == []
    # the spy does see the levels of a call that searches
    size_ramsey_exact(star(2), 2, emax=3)
    assert grown == [1, 2, 3]


def test_a_wrong_inherited_color_surfaces_as_an_error(monkeypatch):
    # a mask check that finds no copy through the new edge accepts color 1
    # for every host; the whole-coloring re-check raises on the first that
    # holds a monochromatic copy instead of passing a wrong "free" on
    monkeypatch.setattr(oracle, "_embed_through_edge", lambda *args: None)
    with pytest.raises(AssertionError,
                       match="free witness contains a monochromatic copy"):
        size_ramsey_exact(path_graph(4), 2, emax=7)


def test_a_dropped_plan_orbit_in_the_exact_search_surfaces_as_an_error(
        monkeypatch):
    # no host inherits, so every host is searched, over K_{1,2}'s
    # centre-to-leaf plan alone: the search answers "free" for the
    # triangle, which arrows, and the one re-check of free colorings
    # raises instead of passing a wrong "free" on
    assert size_ramsey_exact(star(2), 2, emax=3).arrowing_host_graph6 == "Bw"
    original_plans, original_search = oracle._anchored_plans, oracle._search_h_free
    answers = []

    def searching(g, *args):
        res = original_search(g, *args)
        answers.append((emit_graph6(g), res[0]))
        return res

    monkeypatch.setattr(oracle, "_inherit", lambda *args: None)
    monkeypatch.setattr(oracle, "_anchored_plans", lambda h: [
        p for p in original_plans(h) if p[0][0] == 0])
    monkeypatch.setattr(oracle, "_search_h_free", searching)
    with pytest.raises(AssertionError,
                       match="free witness contains a monochromatic copy"):
        size_ramsey_exact(star(2), 2, emax=3)
    assert ("Bw", "free") in answers


K4_MINUS_E = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


@pytest.mark.parametrize("target", [star(2), star(3), star(4), path_graph(4),
                                    path_graph(5), complete_graph(3),
                                    cycle_graph(4), K4_MINUS_E],
                         ids=["S2", "S3", "S4", "P4", "P5", "K3", "C4", "K4-e"])
def test_exact_matches_a_per_host_arrows_loop(target):
    # field for field, the node count aside: inherited colorings, which
    # skip the searches, never change a value, a bracket or a host
    for r in (1, 2, 3):
        got = size_ramsey_exact(target, r, 8).to_dict()
        del got["nodes"]
        assert got == helpers.exact_reference(target, r, 8), r


def test_exact_compiles_the_target_once_per_call(monkeypatch):
    calls = []
    original = verify._compile_plan

    def counting(target, order):
        calls.append(target)
        return original(target, order)

    monkeypatch.setattr(verify, "_compile_plan", counting)
    res = size_ramsey_exact(path_graph(4), 2, emax=7)
    # one compile per orbit of P4's oriented edges, none per host
    assert res.value == 7 and len(calls) == 3
    # nothing is kept from one call to the next
    size_ramsey_exact(path_graph(4), 2, emax=7)
    assert len(calls) == 6


def test_exact_domain_errors():
    with pytest.raises(DomainError):
        size_ramsey_exact(Graph(3), 2, emax=2)  # no edges
    with pytest.raises(DomainError):
        size_ramsey_exact(star(2), 0, emax=2)
    with pytest.raises(DomainError):
        size_ramsey_exact(star(2), 2, emax=0)


# ---------------------------------------------------------------------------
# bound cross-checking


def test_cross_check_star_consistent():
    report = cross_check_bounds(star(2), 2, emax=3)
    assert report["violations"] == []
    assert report["exact"]["status"] == "exact"
    assert report["exact"]["value"] == 3
    lb = report["lower_bound"]
    assert lb["num"] == 3 and lb["den"] == 1 and lb["tag"] == "pigeonhole"
    assert report["upper_bound"] is not None
    assert report["upper_bound"] >= 3
    assert report["r"] == 2


def _planted(monkeypatch, lower=None, upper=None):
    # bounds the package never gives, to reach each contradiction
    if lower is not None:
        monkeypatch.setattr(oracle, "lower_bound_value",
                            lambda h, r: (Fraction(lower), "planted"))
    if upper is not None:
        monkeypatch.setattr(oracle, "upper_bound_value", lambda h, r: upper)


def test_cross_check_reports_contradictions_on_an_exact_result(monkeypatch):
    _planted(monkeypatch, lower=4, upper=2)
    report = cross_check_bounds(star(2), 2, emax=3)
    assert report["exact"]["status"] == "exact" and report["exact"]["value"] == 3
    assert report["violations"] == [
        "an arrowing host with 3 edges beats the planted lower bound 4",
        "all hosts up to 2 edges were eliminated, contradicting the tree "
        "upper bound 2",
    ]


def test_cross_check_reports_contradictions_on_an_open_result(monkeypatch):
    # emax 2 is below the pigeonhole start 3: open, lower 3, no upper
    _planted(monkeypatch, upper=2)
    report = cross_check_bounds(star(2), 2, emax=2)
    assert report["exact"]["status"] == "open"
    assert report["exact"]["upper"] is None
    assert report["violations"] == [
        "all hosts up to 2 edges were eliminated, contradicting the tree "
        "upper bound 2"]
    # an open result with an arrowing host: the search never leaves one
    # below an unsettled level on these targets, so the result is planted
    settled = size_ramsey_exact(star(2), 2, emax=3)
    monkeypatch.setattr(oracle, "size_ramsey_exact", lambda *args: replace(
        settled, status="open", value=None, lower=2))
    _planted(monkeypatch, lower=4, upper=3)
    report = cross_check_bounds(star(2), 2, emax=3)
    assert report["violations"] == [
        "an arrowing host with 3 edges beats the planted lower bound 4"]


def test_cross_check_nontree_has_no_upper():
    report = cross_check_bounds(cycle_graph(4), 2, emax=4)
    assert report["upper_bound"] is None
    assert report["exact"]["status"] == "open"
    assert report["violations"] == []


def test_cross_check_reports_instead_of_raising():
    # budget-starved search still yields a structured report; the search
    # starts at 3 edges, as no 2-edge host can arrow K_{1,2} with 2 colors
    report = cross_check_bounds(star(2), 2, emax=3, node_budget=1)
    assert isinstance(report["violations"], list)
    assert report["exact"]["unknown_hosts"] != []
