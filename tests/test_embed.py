"""Degree peeling, greedy tree embedding, and the majority-color test."""

import random
import sys
from fractions import Fraction

import pytest

from sizeramsey import (
    DomainError,
    EdgeColoring,
    Graph,
    complete_bipartite,
    cycle_graph,
    degree_peel,
    embed_host,
    embed_host_sides,
    greedy_tree_embed,
    is_tree,
    make_double_star,
    path_graph,
    profile,
    ramsey_embed_test,
    star,
    upper_bound_value,
)

import helpers


def test_degree_peel_thresholds():
    g = complete_bipartite(3, 4)
    res = degree_peel(g, range(3), range(3, 7), Fraction(2), Fraction(2))
    # all degrees are 3 or 4, comfortably above the thresholds of 1
    assert set(res.kept()) == set(range(7))
    assert res.deletions == ()


def test_degree_peel_removes_low_degree_cascade():
    # a pendant path hanging off one side collapses vertex by vertex
    g = Graph(6, [(0, 3), (1, 3), (2, 3), (3, 4), (4, 5)])
    res = degree_peel(g, [0, 1, 2, 4], [3, 5], Fraction(4), Fraction(4))
    # thresholds d/2 = 2: degree <= 2 vertices peel away entirely
    assert res.kept() == ()
    assert len(res.deletions) == 6
    # deletions are logged lowest degree first, index breaking ties
    assert res.deletions[0][0] == 5 or res.deletions[0][1] <= 2


def test_degree_peel_keeps_core():
    # K_{3,3} plus a pendant: only the pendant and nothing else peels
    g = Graph(7, [(u, 3 + v) for u in range(3) for v in range(3)] + [(0, 6)])
    res = degree_peel(g, [0, 1, 2], [3, 4, 5, 6], Fraction(4), Fraction(4))
    assert set(res.kept()) == set(range(6))
    assert [d[0] for d in res.deletions] == [6]


def test_degree_peel_rejects_overlap():
    with pytest.raises(DomainError):
        degree_peel(path_graph(4), [0, 1], [1, 2], Fraction(1), Fraction(1))


def test_degree_peel_strict_at_exact_average():
    # vertices at exactly d/2 are deleted (the inequality is not strict)
    g = star(2)  # center degree 2, leaves degree 1
    res = degree_peel(g, [0], [1, 2], Fraction(4), Fraction(2))
    # center: threshold 2, degree 2 -> deleted; leaves follow
    assert res.kept() == ()


def test_greedy_tree_embed_in_complete_host():
    rng = random.Random(31)
    from sizeramsey import complete_graph

    host = complete_graph(9)
    for _ in range(40):
        t = helpers.random_tree(rng, rng.randint(1, 9))
        emb = greedy_tree_embed(host, t)
        assert emb is not None
        helpers.check_embedding(host, t, emb)


def test_greedy_tree_embed_failure():
    assert greedy_tree_embed(path_graph(3), star(3)) is None
    assert greedy_tree_embed(Graph(2), path_graph(2)) is None


def test_greedy_tree_embed_no_backtracking_is_deterministic():
    host = helpers.random_gnp(random.Random(12), 12, 0.5)
    t = make_double_star(3, 2)
    a = greedy_tree_embed(host, t)
    b = greedy_tree_embed(host, t)
    assert a == b


def test_upper_bound_value():
    # host K_{2rn1+1, 2rn2+1}, edge count the product of the side sizes
    p = profile(path_graph(4))
    assert (p.n1, p.n2) == (2, 2)
    assert embed_host_sides(path_graph(4), 2) == (9, 9)
    assert upper_bound_value(path_graph(4), 2) == 81
    assert upper_bound_value(star(2), 2) == (2 * 2 * 1 + 1) * (2 * 2 * 2 + 1)
    host = embed_host(path_graph(4), 2)
    assert host.vertex_count == 18 and host.edge_count == 81
    with pytest.raises(DomainError):
        upper_bound_value(cycle_graph(4), 2)
    for fn in (upper_bound_value, embed_host_sides, embed_host):
        with pytest.raises(DomainError):
            fn(path_graph(3), 0)


def test_ramsey_embed_test_random_colorings():
    rng = random.Random(77)
    for t in [path_graph(4), make_double_star(2, 1), make_double_star(2, 2)]:
        for r in (2, 3):
            host = embed_host(t, r)
            for _ in range(25):
                col = EdgeColoring(
                    host, r, {e: rng.randint(1, r) for e in host.edges})
                color, emb = ramsey_embed_test(col, t)
                assert 1 <= color <= r
                helpers.check_embedding(host, t, emb)
                for u, v in t.edges:
                    assert col.get(emb[u], emb[v]) == color


def test_ramsey_embed_test_exhaustive_k33():
    # every 2-coloring of K_{3,3} yields a majority-color P3; 2^9 cases
    host = complete_bipartite(3, 3)
    t = path_graph(3)
    edges = host.sorted_edges()
    for mask in range(2 ** 9):
        col = EdgeColoring(
            host, 2,
            {e: 1 + ((mask >> i) & 1) for i, e in enumerate(edges)})
        color, emb = ramsey_embed_test(col, t)
        helpers.check_embedding(host, t, emb)


def test_ramsey_embed_test_domain_errors():
    host = embed_host(path_graph(4), 2)
    partial = EdgeColoring(host, 2)
    with pytest.raises(DomainError):
        ramsey_embed_test(partial, path_graph(4))
    full = EdgeColoring(host, 2, {e: 1 for e in host.edges})
    with pytest.raises(DomainError):
        ramsey_embed_test(full, cycle_graph(4))  # not a tree
    wrong_host = EdgeColoring(path_graph(5), 2,
                              {e: 1 for e in path_graph(5).edges})
    with pytest.raises(DomainError):
        ramsey_embed_test(wrong_host, path_graph(4))


def test_ramsey_embed_majority_tie_breaks_low():
    # split the colors so classes tie; the reported color must be 1
    host = complete_bipartite(2, 2)
    edges = host.sorted_edges()
    col = EdgeColoring(host, 2, {e: 1 + (i % 2) for i, e in enumerate(edges)})
    color, emb = ramsey_embed_test(col, path_graph(2))
    assert color == 1


def test_ramsey_embed_test_refuses_a_non_injective_mapping(monkeypatch):
    # both leaves of P3 sent to one host vertex: every tree edge still lies
    # in the majority color, but the image is not a copy of the tree
    def collapse_leaves(core, tree):
        u, v = core.sorted_edges()[0]
        return {1: u, 0: v, 2: v}

    monkeypatch.setattr(sys.modules["sizeramsey.embed"], "greedy_tree_embed",
                        collapse_leaves)
    host = complete_bipartite(3, 3)
    col = EdgeColoring(host, 2, {e: 1 for e in host.edges})
    with pytest.raises(AssertionError, match="not injective"):
        ramsey_embed_test(col, path_graph(3))
