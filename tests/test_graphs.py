"""Graph type, standard families, predicates, and the two file formats."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from sizeramsey import (
    BipartiteProfile,
    DomainError,
    EdgeListError,
    Graph,
    Graph6Error,
    beta,
    bipartition,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    emit_edge_list,
    emit_graph6,
    empty_graph,
    is_bipartite,
    is_connected,
    is_double_star,
    is_star,
    is_tree,
    make_double_star,
    parse_edge_list,
    parse_graph6,
    path_graph,
    profile,
    star,
)

import helpers


def test_graph_rejects_self_loops_and_range():
    with pytest.raises(DomainError):
        Graph(3, [(1, 1)])
    with pytest.raises(DomainError):
        Graph(3, [(0, 3)])
    with pytest.raises(DomainError):
        Graph(-1)


def test_graph_deduplicates_and_normalizes():
    g = Graph(3, [(1, 0), (0, 1), (1, 2)])
    assert g.edge_count == 2
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert g.degree(1) == 2
    assert g.neighbors(1) == frozenset({0, 2})


def test_families():
    assert complete_graph(5).edge_count == 10
    assert complete_bipartite(3, 4).edge_count == 12
    assert path_graph(1).edge_count == 0
    assert cycle_graph(5).degrees() == [2] * 5
    assert star(3).degrees() == [3, 1, 1, 1]
    ds = make_double_star(2, 3)
    assert ds.vertex_count == 7
    assert ds.degree(0) == 3 and ds.degree(1) == 4
    with pytest.raises(DomainError):
        cycle_graph(2)


def test_biclique_rejects_a_negative_side():
    # a negative side once built an edgeless graph on a + b vertices
    for a, b in ((3, -1), (-1, 3), (-2, -2)):
        with pytest.raises(DomainError, match="nonnegative"):
            complete_bipartite(a, b)
    assert complete_bipartite(0, 3).sorted_edges() == []


def test_predicates():
    assert is_connected(path_graph(6))
    assert not is_connected(Graph(4, [(0, 1), (2, 3)]))
    assert is_connected(empty_graph(1))
    assert is_bipartite(cycle_graph(6))
    assert not is_bipartite(cycle_graph(5))
    assert is_tree(path_graph(4))
    assert not is_tree(cycle_graph(4))
    assert not is_tree(Graph(3, [(0, 1)]))  # disconnected


def test_bipartition_sides():
    parts = bipartition(complete_bipartite(2, 3))
    assert parts is not None
    assert sorted(map(len, parts)) == [2, 3]
    assert bipartition(cycle_graph(3)) is None


def test_star_and_double_star_recognition():
    assert is_star(star(5))
    assert is_star(path_graph(3))  # K_{1,2}
    assert not is_star(path_graph(4))
    assert is_double_star(make_double_star(3, 2)) == (3, 2)
    assert is_double_star(path_graph(4)) == (1, 1)
    assert is_double_star(star(4)) is None
    assert is_double_star(cycle_graph(4)) is None


def test_double_star_recognition_matches_isomorphism():
    # every tree on at most 10 vertices, in networkx's labeling and
    # reversed, against networkx's isomorphism test, which shares none of
    # is_double_star's reasoning
    for order in range(1, 11):
        shapes = [(n, order - 2 - n) for n in range(1, order - 2)
                  if n >= order - 2 - n]
        for tree in nx.nonisomorphic_trees(order):
            matches = [nm for nm in shapes if nx.is_isomorphic(
                tree, helpers.to_networkx(make_double_star(*nm)))]
            assert len(matches) <= 1
            want = matches[0] if matches else None
            for labeled in (tree, nx.relabel_nodes(tree, lambda v: order - 1 - v)):
                got = is_double_star(helpers.from_networkx(labeled))
                assert got == want, sorted(labeled.edges)


def test_profile_canonical_orientation():
    # parts ordered so n1*delta1 >= n2*delta2, larger delta breaking ties
    p = profile(make_double_star(2, 1))
    assert (p.n1 * p.delta1, p.delta1) >= (p.n2 * p.delta2, p.delta2)
    assert p.n1 * p.delta1 >= p.n2 * p.delta2
    q = profile(complete_bipartite(2, 5))
    assert (q.n1, q.delta1, q.n2, q.delta2) == (2, 5, 5, 2)


def test_beta_values():
    assert beta(path_graph(4)) == 8
    assert beta(complete_bipartite(3, 3)) == 18
    assert beta(make_double_star(3, 3)) == 32
    with pytest.raises(DomainError):
        beta(cycle_graph(5))


def test_profile_swap_roundtrip():
    p = profile(complete_bipartite(2, 5))
    assert isinstance(p, BipartiteProfile)
    s = p.swapped()
    assert (s.n1, s.delta1) == (p.n2, p.delta2)
    assert s.swapped() == p


def test_alpha_full():
    # star side dominates: delta1 = 5 vs n2 = 5
    assert helpers.is_alpha_full(star(5), 1)
    assert helpers.is_alpha_full(path_graph(4), 1)  # delta 2 >= 1 * n 2
    assert not helpers.is_alpha_full(path_graph(8), 1)


def test_graph6_known_values():
    # the 4-path encodes to "Ch"; round-trip through networkx agrees
    nx = pytest.importorskip("networkx")
    for g in [path_graph(4), cycle_graph(5), complete_graph(7), star(3),
              empty_graph(2), complete_bipartite(3, 4)]:
        text = emit_graph6(g)
        q = nx.from_graph6_bytes(text.encode())
        assert helpers.from_networkx(q) == g
        assert parse_graph6(text) == g


def test_graph6_header_and_errors():
    assert parse_graph6(">>graph6<<Ch") == path_graph(4)
    with pytest.raises(Graph6Error):
        parse_graph6("")
    with pytest.raises(Graph6Error):
        parse_graph6("C\x01")
    with pytest.raises(Graph6Error):
        parse_graph6("C")  # truncated bit vector


def test_edge_list_roundtrip_and_errors():
    g = Graph(5, [(0, 1), (2, 4)])
    assert parse_edge_list(emit_edge_list(g)) == g
    parsed = parse_edge_list("3\n0 1\n# comment\n")
    assert parsed.vertex_count == 3 and parsed.edge_count == 1
    headerless = parse_edge_list("0 1\n1 2\n")
    assert headerless.vertex_count == 3
    # an endpoint beyond the declared count is blamed on its own line
    with pytest.raises(EdgeListError) as err:
        parse_edge_list("2\n0 2\n")
    assert err.value.line == 2
    with pytest.raises(EdgeListError) as err:
        parse_edge_list("3\n0 1\n1 5\n")
    assert err.value.line == 3
    with pytest.raises(EdgeListError) as err:
        parse_edge_list("# header\n\n4\n0 1\n2 3\n# note\n3 4\n")
    assert err.value.line == 7
    with pytest.raises(EdgeListError):
        parse_edge_list("0 1\n3\n")  # count line after an edge
    with pytest.raises(EdgeListError):
        parse_edge_list("1 1\n")  # self-loop


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n < 2:
        return Graph(n)
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picked = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
    return Graph(n, picked)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(graphs())
def test_graph6_roundtrip_random(g):
    assert parse_graph6(emit_graph6(g)) == g


@settings(max_examples=120, deadline=None, derandomize=True)
@given(graphs())
def test_edge_list_roundtrip_random(g):
    assert parse_edge_list(emit_edge_list(g)) == g


@settings(max_examples=80, deadline=None, derandomize=True)
@given(graphs(max_n=8), st.randoms(use_true_random=False))
def test_graph6_matches_networkx_random(g, pyrng):
    nx = pytest.importorskip("networkx")
    ours = emit_graph6(g)
    theirs = nx.to_graph6_bytes(helpers.to_networkx(g), header=False).decode().strip()
    assert ours == theirs


def test_bipartite_profile_random_trees():
    rng = random.Random(7)
    for _ in range(60):
        t = helpers.random_tree(rng, rng.randint(2, 12))
        p = profile(t)
        sides = bipartition(t)
        assert sides is not None
        assert {p.n1, p.n2} == {len(sides[0]), len(sides[1])} or p.n1 == p.n2
        assert p.n1 * p.delta1 >= p.n2 * p.delta2
        assert beta(t) == p.n1 * p.delta1 + p.n2 * p.delta2
