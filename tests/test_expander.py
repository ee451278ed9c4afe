"""Random host sampling, structure checks, and the end-to-end trials."""

import math
import json
import random

import pytest

from sizeramsey import (
    DomainError,
    ExpanderParams,
    Graph,
    appendix_trial,
    check_expansion,
    check_local_sparsity,
    complete_graph,
    cycle_graph,
    find_subgraph,
    min_degree_peel,
    path_graph,
    sample_gnp,
    star,
)

import helpers


def test_params_arithmetic():
    params = ExpanderParams.from_constants(1.0, 40.0, 2, 6)
    lnr = math.log(2)
    assert params.c1 == pytest.approx(40.0 * 2 * lnr)
    assert params.c2 == pytest.approx(40.0 * lnr / 4)
    # c2 = c1 / (4r) by construction
    assert params.c2 == pytest.approx(params.c1 / (4 * params.r))
    assert params.N == math.ceil(1.0 * 2 * 6)
    assert params.p == pytest.approx(params.c1 / params.N)


def test_params_delta_high_precision():
    # recompute delta with 40-digit arithmetic and demand 12 digits
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    for a, b, r, n in [(1.0, 40.0, 2, 6), (2.0, 9.0, 3, 5), (1.5, 21.0, 4, 8)]:
        params = ExpanderParams.from_constants(a, b, r, n)
        c1 = mp.mpf(b) * r * mp.log(r)
        c2 = mp.mpf(b) * mp.log(r) / 4
        want = (c2 / (5 * c1)) ** (c2 / (c2 - 1))
        assert abs(params.delta - float(want)) <= 1e-12 * float(want)


def test_params_domain_errors():
    with pytest.raises(DomainError):
        ExpanderParams.from_constants(1.0, 40.0, 1, 6)
    with pytest.raises(DomainError):
        ExpanderParams.from_constants(1.0, 1.0, 2, 6)  # b ln 2 < 4
    with pytest.raises(DomainError):
        ExpanderParams.from_constants(-1.0, 40.0, 2, 6)
    with pytest.raises(DomainError):
        ExpanderParams.from_constants(1.0, 40.0, 2, 0)


def test_sample_gnp_deterministic_and_clamped():
    a = sample_gnp(12, 0.4, 9)
    b = sample_gnp(12, 0.4, 9)
    assert a == b
    assert sample_gnp(12, 0.4, 10) != a  # overwhelmingly likely, fixed seeds
    assert sample_gnp(6, 1.5, 0).edge_count == 15  # p clamps to 1
    assert sample_gnp(6, -2.0, 0).edge_count == 0
    assert sample_gnp(0, 0.5, 0).vertex_count == 0


def test_local_sparsity_outcomes():
    # a path spans k-1 edges on any k vertices: always sparse
    rep = check_local_sparsity(path_graph(8), 0.0, 4)
    assert rep.outcome == "pass" and rep.exhaustive
    # K4 has subsets spanning > (1+0)|S| edges
    rep2 = check_local_sparsity(complete_graph(4), 0.0, 4)
    assert rep2.outcome == "fail" and rep2.witness is not None
    w = rep2.witness
    sub_edges = sum(1 for u in w for v in w
                    if u < v and complete_graph(4).has_edge(u, v))
    assert sub_edges > len(w)
    assert check_local_sparsity(complete_graph(4), 0.0, 0).outcome == "vacuous"
    rep3 = check_local_sparsity(complete_graph(8), 0.0, 8, budget=3)
    assert rep3.outcome == "budget" and not rep3.exhaustive
    assert rep3.checked == 3
    with pytest.raises(DomainError):
        check_local_sparsity(path_graph(4), -0.5, 2)


def test_expansion_outcomes():
    # K9: any X of size at most 3 sees all remaining vertices
    rep = check_expansion(complete_graph(9), 2, 3)
    assert rep.outcome == "pass" and rep.exhaustive
    # a path expands poorly: the whole end pair has one outside neighbor
    rep2 = check_expansion(path_graph(6), 2, 3)
    assert rep2.outcome == "fail" and rep2.witness is not None
    assert check_expansion(Graph(0), 2, 3).outcome == "fail"
    assert check_expansion(complete_graph(3), 2, 0).outcome == "vacuous"
    rep3 = check_expansion(complete_graph(9), 2, 5, budget=4)
    assert rep3.outcome == "budget" and not rep3.exhaustive
    # the budget counts examined sets, so exactly 4 were checked
    assert rep3.checked == 4
    with pytest.raises(DomainError):
        check_expansion(complete_graph(3), -1, 2)


def test_expansion_auto_mode_switches():
    # exhaustive up to 24 vertices, sampled above
    small = check_expansion(complete_graph(9), 2, 2)
    assert small.exhaustive
    big = check_expansion(sample_gnp(30, 0.9, 0), 1, 2, seed=3)
    assert big.outcome == "pass" and not big.exhaustive
    assert big.checked == 2000


def test_min_degree_peel():
    # pendant vertices fall away below threshold 2, the cycle survives
    g = Graph(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)])
    core, kept = min_degree_peel(g, 2)
    assert kept == (0, 1, 2)
    assert core.edge_count == 3
    # threshold 0 keeps everything
    whole, kept2 = min_degree_peel(g, 0)
    assert kept2 == tuple(range(6))
    # a huge threshold destroys the graph
    empty, kept3 = min_degree_peel(g, 99)
    assert kept3 == () and empty.vertex_count == 0


def test_fp_embed_exactness_against_oracle():
    """The trial's tree search (find_subgraph, which replaced the old
    fp_embed) is exact on the trees it hunts, and the trial refuses a
    target that is not a tree."""
    rng = random.Random(55)
    trees = [Graph(1), path_graph(2), path_graph(3), path_graph(5),
             star(3), Graph(7, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (4, 6)])]
    for _ in range(150):
        host = helpers.random_gnp(rng, rng.randint(1, 7), rng.random())
        t = rng.choice(trees)
        emb = find_subgraph(host, t)
        truth = helpers.has_injection(helpers.adjacency_matrix(host), t)
        assert (emb is not None) == truth
        if emb is not None:
            helpers.check_embedding(host, t, emb)
    params = ExpanderParams.from_constants(1.0, 40.0, 2, 6)
    with pytest.raises(DomainError):
        appendix_trial(params, cycle_graph(3), seed=0)


def test_appendix_trial_deterministic():
    params = ExpanderParams.from_constants(1.0, 40.0, 2, 6)
    a = appendix_trial(params, path_graph(6), seed=3)
    b = appendix_trial(params, path_graph(6), seed=3)
    assert a.to_json() == b.to_json()
    assert a.seed == 3 and a.N == params.N
    # single-line JSON for log-friendly streaming
    assert "\n" not in a.to_json()
    json.loads(a.to_json())


def test_appendix_trial_verified_fields():
    params = ExpanderParams.from_constants(1.0, 40.0, 2, 6)
    rep = appendix_trial(params, path_graph(6), seed=0)
    assert rep.embedded and rep.verified
    assert rep.mapping is not None and len(rep.mapping) == 6
    assert rep.majority_color in (1, 2)
    assert rep.majority_edges >= rep.edge_count / 2
    assert rep.core_size <= params.N
    assert rep.sparsity_outcome in ("pass", "fail", "vacuous", "budget")


def test_appendix_trial_worst_of_k():
    params = ExpanderParams.from_constants(1.0, 40.0, 2, 6)
    rep = appendix_trial(params, path_graph(6), seed=1,
                         adversary="worst_of_k", k=8)
    assert rep.adversary == "worst_of_k"
    # the adversary minimizes the majority class, never below half
    assert rep.majority_edges >= rep.edge_count / 2
    with pytest.raises(DomainError):
        appendix_trial(params, path_graph(6), seed=1,
                       adversary="worst_of_k", k=0)
    with pytest.raises(DomainError):
        appendix_trial(params, path_graph(6), seed=1, adversary="meanest")
    with pytest.raises(DomainError):
        appendix_trial(params, cycle_graph(4), seed=1)


def test_ab_inequality():
    with pytest.raises(DomainError):
        helpers.ab_inequality_holds(1.0, 1.0, 2, 2)
    # generous a makes the right side tiny
    assert helpers.ab_inequality_holds(1e9, 40.0, 2, 2)
    assert not helpers.ab_inequality_holds(1e-9, 40.0, 2, 2)
