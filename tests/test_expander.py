"""Random host sampling, structure checks, and the end-to-end trials."""

import hashlib
import math
import json
import random
from dataclasses import astuple
from itertools import combinations, islice

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

from sizeramsey import expander

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


def test_set_checks_reject_nan_delta_and_negative_budget():
    # a NaN delta compares false with every edge count, so K6 would "pass"
    assert check_local_sparsity(complete_graph(6), 0.0, 4).outcome == "fail"
    with pytest.raises(DomainError):
        check_local_sparsity(complete_graph(6), float("nan"), 4)
    # a negative budget is never reached, so it would check every set
    with pytest.raises(DomainError):
        check_local_sparsity(complete_graph(6), 0.0, 4, budget=-1)
    with pytest.raises(DomainError):
        check_expansion(complete_graph(9), 2, 5, budget=-1)
    assert check_expansion(complete_graph(9), 2, 5, budget=0).checked == 0


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
    # arguments are checked before the empty graph's outright failure
    with pytest.raises(DomainError):
        check_expansion(Graph(0), -1, 2)
    with pytest.raises(DomainError):
        check_expansion(Graph(0), 2, -5)


def test_expansion_auto_mode_switches():
    # exhaustive up to 24 vertices, sampled above
    small = check_expansion(complete_graph(9), 2, 2)
    assert small.exhaustive
    big = check_expansion(sample_gnp(30, 0.9, 0), 1, 2, seed=3)
    assert big.outcome == "pass" and not big.exhaustive
    assert big.checked == 2000


def test_random_sets_sizes_members_and_seed():
    n, limit = 100, 12
    sets = list(expander._random_sets(n, limit, 4))
    assert len(sets) == 2000
    assert all(1 <= len(xs) <= limit and set(xs) <= set(range(n)) for xs in sets)
    # members are distinct, whatever container carries them
    assert all(len(set(xs)) == len(xs) for xs in sets)
    assert {len(xs) for xs in sets} == set(range(1, limit + 1))
    assert [sorted(xs) for xs in expander._random_sets(n, limit, 4)] == \
        [sorted(xs) for xs in sets]
    assert [sorted(xs) for xs in expander._random_sets(n, limit, 5)] != \
        [sorted(xs) for xs in sets]


def test_random_sets_end_when_limit_is_the_whole_host():
    sets = list(expander._random_sets(25, 25, 0))
    assert len(sets) == 2000 and max(len(xs) for xs in sets) == 25
    rep = check_expansion(complete_graph(25), 0, 25)
    assert rep.outcome == "pass" and not rep.exhaustive and rep.checked == 2000


def test_random_sets_are_pinned():
    # 200 vertices is above random.sample's set-size threshold, where these
    # are also the sets of rng.sample(range(200), rng.randint(1, 10))
    first = [sorted(xs) for xs in islice(expander._random_sets(200, 10, 11), 50)]
    assert hashlib.sha256(json.dumps(first).encode()).hexdigest() == (
        "abd17c03a190db82ef39efc629cde3f00e1e749b8ad744c2ecb7372e1dcbcf33")


# the references return SetCheckReport's fields as a tuple:
# (outcome, exhaustive, witness, checked)
def _first_failure_reference(sets, fails, budget, exhaustive):
    checked = 0
    for s in sets:
        if checked == budget:
            return ("budget", False, None, checked)
        checked += 1
        if fails(s):
            return ("fail", exhaustive, tuple(sorted(s)), checked)
    return ("pass", exhaustive, None, checked)


def _sparsity_reference(g, delta, k_max, budget):
    """check_local_sparsity with the edges of a set counted on sets."""
    if k_max <= 0:
        return ("vacuous", True, None, 0)

    def spans_too_much(members):
        e = sum(1 for u in members for w in g.neighbors(u)
                if w in members and w > u)
        return e > (1 + delta) * len(members)

    return _first_failure_reference(expander._connected_sets(g, k_max),
                                    spans_too_much, budget, True)


def _expansion_reference(g, factor, max_set, budget, seed):
    """check_expansion with the outside neighbors counted on sets."""
    n = g.vertex_count
    if n == 0:
        return ("fail", True, (), 0)
    limit = min(max_set, n)
    if limit == 0:
        return ("vacuous", True, None, 0)

    def expands_too_little(xs):
        members = set(xs)
        boundary = set()
        for u in members:
            boundary.update(g.neighbors(u))
        return len(boundary - members) < factor * len(members)

    if n <= 24:
        sets = (xs for size in range(1, limit + 1)
                for xs in combinations(range(n), size))
    else:
        # the documented draw: a size uniform on 1..limit, then distinct
        # members uniform on range(n), each number by getrandbits rejection
        rng = random.Random(seed)

        def below(m):
            x = rng.getrandbits(m.bit_length())
            while x >= m:
                x = rng.getrandbits(m.bit_length())
            return x

        def draw():
            size, members = 1 + below(limit), set()
            while len(members) < size:
                members.add(below(n))
            return members

        sets = (draw() for _ in range(2000))
    return _first_failure_reference(sets, expands_too_little, budget, n <= 24)


def test_set_checks_match_set_based_reference():
    """Both checks give the reports of a reference that counts on Python
    sets, on hosts of 0-40 vertices (exhaustive and sampled expansion)."""
    rng = random.Random(2024)
    outcomes = {"sparsity": set(), "expansion": set()}
    for _ in range(120):
        n = rng.randint(0, 40)
        g = sample_gnp(n, rng.choice([0.05, 0.15, 0.3, 0.6]), rng.randrange(10**6))
        budget = rng.choice([1, 3, 50, 10**6])
        delta = rng.choice([0.0, 0.1, 0.5])
        k_max = rng.randint(0, 5)
        got = check_local_sparsity(g, delta, k_max, budget=budget)
        assert astuple(got) == _sparsity_reference(g, delta, k_max, budget)
        outcomes["sparsity"].add(got.outcome)
        factor, max_set, seed = rng.randint(0, 3), rng.randint(0, 3), rng.randrange(100)
        got = check_expansion(g, factor, max_set, budget=budget, seed=seed)
        assert astuple(got) == _expansion_reference(g, factor, max_set, budget, seed)
        outcomes["expansion"].add((got.outcome, got.exhaustive))
    assert outcomes["sparsity"] == {"pass", "fail", "vacuous", "budget"}
    assert {"pass", "fail", "vacuous", "budget"} <= {o for o, _ in outcomes["expansion"]}
    assert {("pass", True), ("fail", True), ("pass", False), ("fail", False)} \
        <= outcomes["expansion"]


def test_trial_reports_are_pinned_at_the_benchmark_shapes():
    # P6, b = 12, r = 2 at N = 60, 240, 480, 960 and seeds 0 and 1
    tree = path_graph(6)
    text = "".join(
        appendix_trial(ExpanderParams.from_constants(a, 12.0, 2, 6), tree, seed).to_json()
        + "\n"
        for a in (5, 20, 40, 80) for seed in (0, 1))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "b05bf2dc686694c2613e482ebcc21b1896855823ce8c8636b1653219e0f4bd27")


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
