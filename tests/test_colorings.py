"""The lower-bound constructions and their certificates."""

import itertools
import random
import time
import warnings
from fractions import Fraction

import pytest

from sizeramsey import (
    CapacityError,
    ConstructionError,
    DomainError,
    EdgeColoring,
    Graph,
    STRATEGIES,
    affine_component_coloring,
    beck_coloring,
    certify,
    chi3_coloring,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    double_star_2coloring,
    double_star_coloring,
    gen2_coloring,
    lower_bound_value,
    make_double_star,
    max_mono_component,
    mono_copy,
    parse_graph6,
    path_graph,
    scaled_bipartite_coloring,
    scaled_nonstar_coloring,
    star,
    strategy_bound,
    vizing_bucket_coloring,
    weakbip_coloring,
)

from sizeramsey.colorings import (
    _component_bounded_search,
    _exhaustive_proper,
    _proper_coloring,
)
from sizeramsey.graphs import edges_within, profile

import helpers


# ---------------------------------------------------------------------------
# bucket lemma


def per_color_degrees(coloring: EdgeColoring, v: int) -> dict[int, int]:
    out: dict[int, int] = {}
    for (a, b), c in coloring.colors.items():
        if v in (a, b):
            out[c] = out.get(c, 0) + 1
    return out


def proper_on(colors: dict, edges) -> bool:
    at: dict[tuple[int, int], set] = {}
    for u, v in edges:
        c = colors[(u, v)]
        for w in (u, v):
            key = (w, c)
            if key in at:
                return False
            at[key] = {(u, v)}
    return True


def test_vizing_bucket_random_instances():
    rng = random.Random(20)
    for _ in range(100):
        n = rng.randint(3, 12)
        g = helpers.random_gnp(rng, n, rng.uniform(0.2, 0.8))
        r, k = rng.randint(1, 4), rng.randint(1, 3)
        x = frozenset(v for v in g.vertices() if g.degree(v) <= r * k - 1)
        coloring, _ = vizing_bucket_coloring(g, x, r, k)
        # every X-incident edge colored, nothing else
        for e in g.edges:
            touched = e[0] in x or e[1] in x
            assert (coloring.get(*e) is not None) == touched
        for v in x:
            for c, d in per_color_degrees(coloring, v).items():
                assert d <= k, (v, c, d)
        # G[X] carries the proper coloring with rk colors, bucketed
        inner = edges_within(g, x)
        fine = _proper_coloring(inner, r * k).colors
        assert proper_on(fine, inner)
        assert all(coloring.get(*e) == (fine[e] - 1) // k + 1 for e in inner)


def test_vizing_bucket_rejects_high_degree():
    g = star(5)
    with pytest.raises(ConstructionError) as err:
        vizing_bucket_coloring(g, {0}, 2, 2)  # degree 5 > 4
    assert "vertex 0" in str(err.value)
    with pytest.raises(DomainError):
        vizing_bucket_coloring(g, {9}, 2, 2)
    with pytest.raises(DomainError):
        vizing_bucket_coloring(g, {0}, 0, 2)


def test_vizing_bucket_tight_degree_fallback():
    # degree exactly r*k leaves no slack; the exhaustive fallback must
    # still deliver the bucket guarantee on small graphs
    g = complete_graph(4)
    x = frozenset(range(4))  # all degrees 3 = r*k
    coloring, plan = vizing_bucket_coloring(g, x, 3, 1)
    for v in x:
        for c, d in per_color_degrees(coloring, v).items():
            assert d <= 1
    assert plan.parameters["tight_degree_vertices"] == [0, 1, 2, 3]


def test_fan_step_cost_does_not_grow_with_the_palette():
    # the fan scans the colors present at its center, not the whole
    # palette, so r = 10^6 costs what r = 2 does
    start = time.perf_counter()
    cert = certify("weakbip", complete_graph(6), path_graph(4), 10 ** 6)
    assert time.perf_counter() - start < 0.5
    assert cert.verdict == "verified"


def test_vizing_bucket_is_deterministic():
    g = helpers.random_gnp(random.Random(4), 10, 0.5)
    x = frozenset(v for v in g.vertices() if g.degree(v) <= 5)
    a, _ = vizing_bucket_coloring(g, x, 3, 2)
    b, _ = vizing_bucket_coloring(g, x, 3, 2)
    assert a.colors == b.colors


# ---------------------------------------------------------------------------
# the exhaustive searches, against brute force


def _seeded_edge_lists(seed: int, count: int) -> list[list[tuple[int, int]]]:
    # 1 to 8 edges on labels 0..9, in a shuffled order, so that some labels
    # go unused and the search does not meet the edges sorted
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(10) for v in range(u + 1, 10)]
    return [rng.sample(pairs, rng.randint(1, 8)) for _ in range(count)]


def _first_in_product_order(edges, palette, ok):
    # value precedence keeps the least coloring that meets a predicate
    # closed under renaming colors, so brute force returns the search's
    for colors in itertools.product(range(1, palette + 1), repeat=len(edges)):
        found = dict(zip(edges, colors))
        if ok(found):
            return found
    return None


def _largest_class_component(found) -> int:
    # union-find over each color class separately
    parent = {}

    def root(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for (u, v), c in found.items():
        parent[root((c, u))] = root((c, v))
    sizes: dict = {}
    for x in list(parent):
        sizes[root(x)] = sizes.get(root(x), 0) + 1
    return max(sizes.values())


def test_exhaustive_proper_is_the_first_proper_coloring():
    outcomes = set()
    for k, edges in enumerate(_seeded_edge_lists(21, 40)):
        palette = 2 + k % 2
        want = _first_in_product_order(edges, palette,
                                       lambda found: proper_on(found, edges))
        assert _exhaustive_proper(edges, palette) == want, (edges, palette)
        outcomes.add(want is None)
    assert outcomes == {True, False}


def test_component_bounded_search_is_the_first_bounded_coloring():
    outcomes = set()
    for k, edges in enumerate(_seeded_edge_lists(22, 40)):
        palette, n_bound = 2 + k % 2, 3 + k % 3
        want = _first_in_product_order(
            edges, palette,
            lambda found: _largest_class_component(found) < n_bound)
        assert _component_bounded_search(edges, palette, n_bound) == want, (
            edges, palette, n_bound)
        outcomes.add(want is None)
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# affine blow-up


def test_affine_component_bound_base_case():
    coloring, plan = affine_component_coloring(8, 5, 3)
    comp = max_mono_component(coloring)
    assert set(comp) == {1, 2, 3}
    assert all(size < 5 for size in comp.values()), comp
    assert coloring.is_total()
    assert plan.parameters["q"] == 2


def test_affine_capacity_error():
    with pytest.raises(CapacityError) as err:
        affine_component_coloring(17, 5, 3)  # capacity 2^2 * 2 = 8
    assert err.value.max_value == 8


def test_affine_records_below_guidance():
    _, plan = affine_component_coloring(4, 5, 3)  # n = 5 < r^2 = 9
    assert plan.parameters["below_recommended_n"] is True
    _, plan = affine_component_coloring(4, 9, 3)
    assert "below_recommended_n" not in plan.parameters


def test_certify_affine_below_guidance_under_an_error_filter():
    # below the guidance n >= r^2 = 9 the certificate records the fact and
    # nothing is raised beside it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = certify("affine", complete_graph(4), path_graph(4), 3)
    assert cert.verdict == "verified"
    assert cert.plan.parameters["below_recommended_n"] is True


def test_affine_trivial_and_domain_cases():
    coloring, _ = affine_component_coloring(1, 4, 3)
    # every cell is empty: no prime power is searched for, so the plan of
    # the edgeless host records q = 0 at once
    start = time.perf_counter()
    _, plan = affine_component_coloring(1, 4, 10 ** 18)
    assert time.perf_counter() - start < 1
    assert coloring.host.vertex_count == 1
    assert plan.parameters["q"] == 0
    with pytest.raises(DomainError):
        affine_component_coloring(5, 4, 2)  # r < 3
    with pytest.raises(DomainError):
        affine_component_coloring(5, 1, 3)  # n < 2


def test_affine_random_component_bounds():
    rng = random.Random(8)
    from sizeramsey import q_for_ramsey

    for _ in range(30):
        r = rng.randint(3, 8)
        q = q_for_ramsey(r)
        n = rng.randint(q + 1, 20)
        cap = q * q * ((n - 1) // q)
        big = rng.randint(2, min(cap, 24))
        coloring, _ = affine_component_coloring(big, n, r)
        assert max(max_mono_component(coloring).values()) < n


# ---------------------------------------------------------------------------
# the individual constructions, spot checks


def test_beck_split_semantics():
    g = complete_bipartite(2, 3)
    coloring, plan = beck_coloring(g, make_double_star(3, 3))  # delta1 = 4
    x = set(plan.parts["X"])
    assert x == set(g.vertices())  # all degrees below 4
    for e in g.edges:
        assert coloring.get(*e) == 2  # nothing crosses out of X
    assert coloring.r == 2


def test_beck_requires_a_host_below_its_bound():
    # K8 has 28 edges against beta(P4)/4 = 2; the red/blue split of K8
    # holds a monochromatic P4, so the construction must refuse the host
    with pytest.raises(DomainError):
        beck_coloring(complete_graph(8), path_graph(4))
    with pytest.raises(DomainError):
        certify("beck", complete_graph(8), path_graph(4), 2)


def test_chi3_rejects_bipartite_and_fat_hosts():
    with pytest.raises(DomainError):
        chi3_coloring(path_graph(4), cycle_graph(4), 3)
    with pytest.raises(DomainError):
        chi3_coloring(complete_graph(8), cycle_graph(3), 2)  # 28 >= 9


def test_chi3_is_seed_deterministic():
    g = helpers.random_graph(random.Random(1), 10, 10)
    a, plan_a = chi3_coloring(g, cycle_graph(3), 4, seed=7)
    b, plan_b = chi3_coloring(g, cycle_graph(3), 4, seed=7)
    assert a.colors == b.colors
    assert plan_a.retries == plan_b.retries
    assert a.r == 12


def test_weakbip_rejects_stars_and_fat_hosts():
    with pytest.raises(DomainError):
        weakbip_coloring(path_graph(3), star(3), 3)
    big = complete_graph(10)
    with pytest.raises(DomainError):
        weakbip_coloring(big, cycle_graph(4), 2)


def test_gen2_case_dispatch():
    rng = random.Random(2)
    # delta1 <= delta2 after canonical orientation: C6
    g = helpers.random_graph(rng, 8, helpers.strict_floor(
        strategy_bound("gen2", cycle_graph(6), 3)))
    _, plan = gen2_coloring(g, cycle_graph(6), 3)
    assert plan.parameters["case"] == "1"
    # delta1 > delta2, n1 <= n2: S_{4,2} orients to (3, 5, 5, 3)
    ds = make_double_star(4, 2)
    g2 = helpers.random_graph(rng, 9, helpers.strict_floor(
        strategy_bound("gen2", ds, 3)))
    _, plan2 = gen2_coloring(g2, ds, 3)
    assert plan2.parameters["case"] == "2"
    # delta1 > delta2 and n1 > n2
    t = helpers.CASE3_TARGET
    g3 = helpers.random_graph(rng, 10, helpers.strict_floor(
        strategy_bound("gen2", t, 2)))
    _, plan3 = gen2_coloring(g3, t, 2)
    assert plan3.parameters["case"] == "3.1"  # natural dispatch at desk scale
    _, plan4 = gen2_coloring(g3, t, 2, case3_split="3.2")
    assert plan4.parameters["case"] == "3.2"
    with pytest.raises(DomainError):
        gen2_coloring(g3, t, 2, case3_split="nope")


def test_gen2_rejects_stars():
    with pytest.raises(DomainError):
        gen2_coloring(path_graph(3), star(4), 2)


# (target graph6, r, host, seed, case3_split, case, part sizes, first color
# of the interface palette the instance must use): hosts on which gen2
# colors X-to-Y edges, so the paths that only run with Y nonempty are
# checked unaided by certify's fallback
GEN2_PATHS = [
    # the cycle C6 that the benchmark certifies at r = 3: every X vertex
    # meets both Y vertices, so its two interface edges take colors 7 and 8
    ("EhEG", 3, complete_bipartite(2, 3), 0, None, "1", {"X": 3, "Y": 2}, 8),
    ("EkE?", 3, parse_graph6("HPhoP?c"), 0, None, "2",
     {"X": 8, "Y": 1, "Y_0": 1}, 7),
    ("HhOK?C@", 2, complete_bipartite(2, 4), 0, None, "3.1",
     {"X": 4, "Y": 2, "X0": 0, "X1": 4, "Y_3": 2}, 7),
    ("JhOK?C@?_?_", 2, parse_graph6("E\\Jo"), 442, "3.2", "3.2",
     {"X": 4, "Y": 2, "X0": 1, "X1": 3, "Y0": 0, "Y1": 2,
      "X1_2": 1, "X1_3": 2, "Y1_3": 2}, 9),
    ("Ji_GS?@?S??", 2, parse_graph6("F~~~g"), 123, "3.2", "3.2",
     {"X": 2, "Y": 5, "X0": 0, "X1": 2, "Y0": 0, "Y1": 5,
      "X1_0": 1, "Y1_0": 3, "X1_2": 1, "Y1_2": 1, "Y1_3": 1}, 9),
    # the 4-arm spider on K_{2,6}: Y = Y0 = (0, 1), both heavy toward X1,
    # so the r-way split of Y0 colors the whole interface from 3r + 1 on
    ("HkE?K?@", 2, complete_bipartite(2, 6), 0, "3.2", "3.2",
     {"X": 6, "Y": 2, "X0": 0, "X1": 6, "Y0": 2, "Y1": 0,
      "X1_0": 1, "X1_2": 1, "X1_3": 4}, 7),
]


@pytest.mark.parametrize("target6, r, host, seed, split, case, sizes, first",
                         GEN2_PATHS,
                         ids=["1", "2", "3.1", "3.2a", "3.2b", "3.2-heavy-Y0"])
def test_gen2_colors_the_x_to_y_interface(target6, r, host, seed, split, case,
                                          sizes, first):
    target = parse_graph6(target6)
    coloring, plan = gen2_coloring(host, target, r, seed, case3_split=split)
    assert plan.parameters["case"] == case
    assert {name: len(part) for name, part in plan.parts.items()} == sizes
    assert any(c >= first for c in coloring.used_colors())
    if case != "2":
        # the bucket lemma's per-anchor bound on colors 2r+1..3r: X at
        # width delta1 - 1 in Case 1, X0 at width delta2 - 1 in Case 3
        prof = profile(target)
        anchors, width = (("X", prof.delta1 - 1) if case == "1"
                          else ("X0", prof.delta2 - 1))
        for a in plan.parts[anchors]:
            degrees = per_color_degrees(coloring, a)
            assert all(degrees.get(c, 0) <= width for c in range(2 * r + 1, 3 * r + 1))
    assert mono_copy(coloring, target) is None
    cert = certify("gen2", host, target, r, seed=seed, case3_split=split)
    assert cert.verdict == "verified"
    assert "fallback" not in cert.plan.parameters


@pytest.mark.parametrize("host, target6, seed, split", [
    (complete_graph(11), "IsaCA@?O?", 392609544, None),
    (complete_bipartite(2, 6), "HkE?K?@", 0, "3.2"),
], ids=["2", "3.2"])
def test_gen2_parts_do_not_depend_on_r(host, target6, seed, split):
    # indexed parts are written only when non-empty, so a huge palette adds
    # no parts, and the certificate grows only by the digits of r
    from sizeramsey import certificate_to_json

    small, large = (certify("gen2", host, parse_graph6(target6), r, seed=seed,
                            case3_split=split) for r in (4, 10 ** 5))
    assert small.plan.parameters["case"] == large.plan.parameters["case"]
    assert sorted(small.plan.parts) == sorted(large.plan.parts)
    growth = len(certificate_to_json(large)) - len(certificate_to_json(small))
    assert 0 < growth < 40


def test_chi3_colors_the_v0_interface():
    coloring, plan = chi3_coloring(star(6), complete_graph(3), 3)
    assert plan.parts["V0"] == (0,)
    assert all(coloring.get(0, v) == 4 for v in range(1, 7))  # color r + 1
    assert mono_copy(coloring, complete_graph(3)) is None
    cert = certify("chi3", star(6), complete_graph(3), 3)
    assert cert.verdict == "verified"
    assert "fallback" not in cert.plan.parameters


def test_double_star_colorings():
    g = helpers.random_graph(random.Random(3), 8, 10)
    ds = make_double_star(3, 3)
    coloring, plan = double_star_coloring(g, ds, 4)
    assert coloring.r == 4 and coloring.is_total()
    assert mono_copy(coloring, ds) is None
    with pytest.raises(DomainError):
        # too many edges
        double_star_coloring(complete_graph(10), make_double_star(2, 2), 3)
    with pytest.raises(DomainError):
        double_star_coloring(g, cycle_graph(4), 4)  # not a double star

    coloring2, _ = double_star_2coloring(g, ds)
    assert coloring2.r == 2
    assert mono_copy(coloring2, ds) is None
    with pytest.raises(DomainError):
        double_star_2coloring(complete_graph(10), make_double_star(2, 2))


def test_scaled_wrappers():
    rng = random.Random(6)
    # bipartite branch routes through the half-palette construction
    t = complete_bipartite(3, 3)
    g = helpers.random_graph(rng, 10, helpers.strict_floor(
        strategy_bound("weakbip", t, 3)))
    coloring, plan = scaled_nonstar_coloring(g, t, 6)
    assert plan.parameters["inner_r"] == 3
    assert max(coloring.used_colors(), default=0) <= 6
    assert mono_copy(coloring, t) is None
    # non-bipartite branch uses a third of the palette
    c5 = cycle_graph(5)
    g2 = helpers.random_graph(rng, 8, helpers.strict_floor(
        Fraction(2 * 2 * 5, 4)))
    coloring2, plan2 = scaled_nonstar_coloring(g2, c5, 7)
    assert plan2.parameters["inner_r"] == 2
    assert max(coloring2.used_colors(), default=0) <= 6 <= 7
    assert mono_copy(coloring2, c5) is None
    with pytest.raises(DomainError):
        scaled_nonstar_coloring(g, t, 5)
    with pytest.raises(DomainError):
        scaled_nonstar_coloring(g, star(3), 6)

    g3 = helpers.random_graph(rng, 10, helpers.strict_floor(
        strategy_bound("gen2", t, 2)))
    coloring3, plan3 = scaled_bipartite_coloring(g3, t, 16)
    assert plan3.parameters["inner_r"] == 2
    assert max(coloring3.used_colors(), default=0) <= 16
    assert mono_copy(coloring3, t) is None
    with pytest.raises(DomainError):
        scaled_bipartite_coloring(g3, t, 15)
    with pytest.raises(DomainError):
        scaled_bipartite_coloring(g3, c5, 16)


# ---------------------------------------------------------------------------
# bounds


def test_lower_bound_star_formula():
    assert lower_bound_value(star(2), 2) == (Fraction(3), "pigeonhole")
    assert lower_bound_value(star(3), 2) == (Fraction(5), "pigeonhole")
    assert lower_bound_value(star(2), 3) == (Fraction(4), "pigeonhole")
    assert lower_bound_value(path_graph(3), 2) == (Fraction(3), "pigeonhole")
    # a star's pigeonhole value is exact, so no non-star bound joins it
    assert lower_bound_value(star(2), 64) == (Fraction(65), "pigeonhole")


def test_lower_bound_worked_examples():
    # the pigeonhole count r(m-1)+1 beats double_star_2col's 4 at r=2
    assert lower_bound_value(path_graph(4), 2) == (Fraction(5), "pigeonhole")
    assert lower_bound_value(path_graph(4), 3) == (Fraction(7), "pigeonhole")
    assert lower_bound_value(cycle_graph(5), 3) == (Fraction(13), "pigeonhole")
    # each other tag still wins somewhere: 16 against 13, 255/2 against 65,
    # and 320 against 257
    assert lower_bound_value(make_double_star(3, 3), 2) == (
        Fraction(16), "double_star_2col")
    assert lower_bound_value(make_double_star(2, 2), 16) == (
        Fraction(255, 2), "double_star")
    assert lower_bound_value(cycle_graph(5), 64) == (
        Fraction(64 * 64 * 5, 64), "nonstar_edges")
    with pytest.raises(DomainError):
        lower_bound_value(Graph(3, [(0, 1)]), 2)
    with pytest.raises(DomainError):
        lower_bound_value(path_graph(4), 0)


def test_lower_bound_beats_trivial_eventually():
    # the quadratic-in-r bound r^2 m / 64 overtakes pigeonhole's r(m - 1) + 1
    # for large r: K_{3,3} reads 576 against 513 at r = 64, and doubling r
    # multiplies the bound by 4
    h = complete_bipartite(3, 3)
    small, small_tag = lower_bound_value(h, 64)
    large, large_tag = lower_bound_value(h, 128)
    assert small_tag == large_tag == "nonstar_edges"
    assert (small, large) == (576, 2304)
    assert large == 4 * small


def test_strategy_bound_errors():
    with pytest.raises(DomainError):
        strategy_bound("double_star", cycle_graph(4), 3)
    with pytest.raises(DomainError):
        strategy_bound("weakbip", star(3), 3)
    with pytest.raises(DomainError):
        strategy_bound("bogus", path_graph(4), 2)


# ---------------------------------------------------------------------------
# certification


def test_certify_runs_every_strategy():
    rng = random.Random(0xFEED)
    for strategy in STRATEGIES:
        for _ in range(12):
            kwargs = helpers.coloring_instance(strategy, rng)
            cert = certify(**kwargs)
            assert cert.verdict == "verified", (strategy, kwargs)
            assert cert.plan.strategy == strategy
            assert cert.host.edge_count < cert.claimed_bound
            if strategy not in ("weakbip", "gen2"):
                # the proof-backed constructions must verify unaided
                assert "fallback" not in cert.plan.parameters, (strategy, kwargs)


def test_certify_is_seed_deterministic():
    from sizeramsey import certificate_to_json

    rng = random.Random(42)
    kwargs = helpers.coloring_instance("chi3", rng)
    a = certificate_to_json(certify(**kwargs))
    b = certificate_to_json(certify(**kwargs))
    assert a == b


def test_certify_rejects_bad_inputs():
    with pytest.raises(DomainError):
        certify("unknown", path_graph(3), path_graph(4), 2)
    with pytest.raises(DomainError):
        certify("beck", path_graph(3), Graph(3), 2)
    with pytest.raises(DomainError):
        certify("double_star", path_graph(3), cycle_graph(4), 3)
    with pytest.raises(DomainError):
        certify("affine", path_graph(5), path_graph(5), 3)  # host not complete
    with pytest.raises(DomainError):
        certify("beck", path_graph(3), path_graph(4), 0)


def test_weakbip_fallback_replaces_a_coloring_with_a_copy():
    # the two degree-3 vertices of the tree GsOGGG are at distance 3, so a
    # copy fits in one bucket color with both of them in Y (see
    # weakbip_coloring); the construction alone leaves that copy, and
    # certify's exhaustive fallback recolors the host
    host, tree = parse_graph6("Ho}?pRW"), parse_graph6("GsOGGG")
    coloring, plan = weakbip_coloring(host, tree, 2)
    hit = mono_copy(coloring, tree)
    assert hit is not None and hit[0] == 1
    assert "fallback" not in plan.parameters
    cert = certify("weakbip", host, tree, 2, seed=0)
    assert cert.verdict == "verified"
    assert mono_copy(cert.coloring, tree) is None
    assert cert.plan.parameters["fallback"] == "h_free_search"
    assert cert.plan.parameters["primary_witness_color"] == 1


def test_certify_verifies_a_construction_once(monkeypatch):
    # every copy search, through mono_copy or any module's own reference
    # to it, ends in verify._mono_copy
    import sizeramsey.verify as verify_module

    calls = []
    real = verify_module._mono_copy
    monkeypatch.setattr(verify_module, "_mono_copy",
                        lambda *args: calls.append(args) or real(*args))
    rng = random.Random(0xFEED)
    for strategy in ("weakbip", "gen2"):
        calls.clear()
        cert = certify(**helpers.coloring_instance(strategy, rng))
        assert cert.verdict == "verified"
        assert "fallback" not in cert.plan.parameters
        assert len(calls) == 1, strategy


def test_certify_affine_records_component_bound():
    cert = certify("affine", complete_graph(8), path_graph(5), 3)
    assert cert.verdict == "verified"
    assert cert.plan.parameters["n"] == 5
    assert max(max_mono_component(cert.coloring).values()) < 5
