"""Byte-for-byte regression corpus for the exact searches and constructions.

golden.json holds the output of a fixed corpus: certificate JSON for one
or more hosts per strategy, peel deletion orders, target-free coloring
searches with their node counts, embeddings (twin-rich targets among
them), exact size-Ramsey results and the enumerated connected hosts of
each small edge count.  Any change to a verdict, a coloring, a search
order or a node count shows up here.  Regenerate only for an intended
change of behaviour:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os
import random
from fractions import Fraction

from sizeramsey import (
    Graph,
    certificate_to_json,
    EdgeColoring,
    certify,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    degree_peel,
    emit_graph6,
    enumerate_connected_graphs,
    find_subgraph,
    make_double_star,
    min_degree_peel,
    mono_copy,
    parse_graph6,
    path_graph,
    sample_gnp,
    search_h_free_coloring,
    size_ramsey_exact,
    star,
    vizing_bucket_coloring,
)
from sizeramsey.colorings import _proper_coloring
from sizeramsey.graphs import edges_within

import helpers

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

# (strategy, host graph6, target graph6, r, seed, case3_split); together
# they reach every construction path seen in random instances, including
# the exhaustive component-bounded search (weakbip, C4, r=3 on E}k?) and
# the target-free search for Y (the two weakbip cases with r=4)
CERTIFICATES = [
    ("beck", "JoOJ?BG_oC?", "KsaCA@?OA?G?", 2, 129212779, None),
    ("weakbip", "K~~~~~~~~~~~", "IsaAA@?O?", 3, 236935928, None),
    ("weakbip", "J~~~~~~~~~_", "IsaCA@?O?", 3, 987016237, None),
    ("weakbip", "I~^~~~~~w", "IsaCA@?O?", 3, 909750844, None),
    ("weakbip", "E}k?", "Cr", 3, 0, None),
    ("weakbip", "I~~~~~~~w", "EsP?", 4, 705191892, None),
    ("weakbip", "I~|~~~~|w", "EFz_", 4, 935903182, None),
    ("weakbip", "Ho}?pRW", "GsOGGG", 2, 0, None),
    ("gen2", "J~~~~~~~~~_", "IsaAA@?O?", 4, 739395966, None),
    ("gen2", "J~~~~~~~~~_", "IsaCA@?O?", 4, 392609544, None),
    ("gen2", "K~~\\~~Y~^}^r", "H?BUTag", 4, 501867781, None),
    ("gen2", "K~~\\~~Y~^}^r", "H?BUTag", 4, 501867781, "3.2"),
    ("gen2", "ExJw", "EhEG", 4, 130438148, None),
    ("double_star", "I~~~~~~~w", "KsaCA@?OA?G?", 5, 45907036, None),
    ("double_star", "I~|y|~\\~w", "IsaAA@?O?", 5, 282314246, None),
    ("double_star_2col", "KXRvNT}}h}^x", "MsaCC@?OA?G?O?O??", 2, 487987801, None),
    ("chi3", "J}rrGax~~v?", "Ehfw", 4, 653529630, None),
    ("chi3", "H~~^z~}", "Ehfw", 4, 67769584, None),
    ("affine", "Q~~~~~~~~~~~~~~~~~~~~~~~~~w", "IhCGGC@?G", 5, 192921969, None),
]

# the degree_peel cases of test_embed.py: (n, edges, part1, part2, d1, d2)
PEELS = [
    (7, [(u, 3 + v) for u in range(3) for v in range(4)], [0, 1, 2],
     [3, 4, 5, 6], 2, 2),
    (6, [(0, 3), (1, 3), (2, 3), (3, 4), (4, 5)], [0, 1, 2, 4], [3, 5], 4, 4),
    (7, [(u, 3 + v) for u in range(3) for v in range(3)] + [(0, 6)],
     [0, 1, 2], [3, 4, 5, 6], 4, 4),
    (3, [(0, 1), (0, 2)], [0], [1, 2], 4, 2),
]

SEARCH_TARGETS = {"P4": path_graph(4), "K3": complete_graph(3), "S3": star(3)}

# (target name, target, host name, host) searched with r = 2 only: larger
# hosts, where a search runs to thousands of nodes
LARGE_SEARCHES = [
    ("C4", cycle_graph(4), "K44", complete_bipartite(4, 4)),
    ("C4", cycle_graph(4), "K55", complete_bipartite(5, 5)),
    ("P5", path_graph(5), "K5", complete_graph(5)),
    ("P5", path_graph(5), "K6", complete_graph(6)),
]

# (target name, target, r, emax) for size_ramsey_exact: the star formula
# r(m-1)+1 at three (m, r) pairs, P4 at r=2, K4 with one color, and one
# cap too short to decide anything ("open")
EXACT = [
    ("S2", star(2), 6, 7),
    ("S3", star(3), 3, 7),
    ("S4", star(4), 2, 7),
    ("P4", path_graph(4), 2, 7),
    ("K4", complete_graph(4), 1, 6),
    ("S3", star(3), 2, 3),
]


def _search(host: Graph, target: Graph, r: int, budget: int | None) -> str:
    status, colors, nodes = search_h_free_coloring(host, target, r, node_budget=budget)
    return json.dumps([status, sorted(colors.items()) if colors else colors, nodes])


def _searches() -> dict[str, str]:
    out = {}
    for name, target in SEARCH_TARGETS.items():
        for n in (3, 4, 5, 6):
            for r in (2, 3):
                for budget in (None, 40):
                    key = f"search/{name}/K{n}/r{r}/budget{budget}"
                    out[key] = _search(complete_graph(n), target, r, budget)
    for name, target, host_name, host in LARGE_SEARCHES:
        for budget in (None, 40):
            key = f"search/{name}/{host_name}/r2/budget{budget}"
            out[key] = _search(host, target, 2, budget)
    return out


def _certificates() -> dict[str, str]:
    out = {}
    for strategy, host, target, r, seed, split in CERTIFICATES:
        cert = certify(strategy, parse_graph6(host), parse_graph6(target), r,
                       seed=seed, case3_split=split)
        out[f"cert/{strategy}/{host}/{target}/{r}/{split}"] = certificate_to_json(cert)
    return out


def _peels() -> dict[str, str]:
    out = {}
    for i, (n, edges, p1, p2, d1, d2) in enumerate(PEELS):
        res = degree_peel(Graph(n, edges), p1, p2, Fraction(d1), Fraction(d2))
        out[f"degree_peel/{i}"] = json.dumps([res.kept1, res.kept2, res.deletions])
    for seed in range(3):
        g = sample_gnp(80, 0.08, seed)
        for thr in (Fraction(2), Fraction(5, 2), Fraction(4), Fraction(9, 2)):
            core, kept = min_degree_peel(g, thr)
            out[f"min_degree_peel/{seed}/{thr}"] = json.dumps(
                [kept, sorted(core.edges)])
    return out


def _embeddings() -> dict[str, str]:
    out = {}
    trees = {"P6": path_graph(6), "S5": star(5), "D32": make_double_star(3, 2)}
    for seed in range(3):
        host = sample_gnp(30, 0.15, seed)
        for name, tree in trees.items():
            emb = find_subgraph(host, tree)
            out[f"find_subgraph/{seed}/{name}"] = json.dumps(
                sorted(emb.items()) if emb else emb)
        coloring, _ = vizing_bucket_coloring(host, range(30), 3, 4)
        for name, tree in trees.items():
            out[f"mono_copy/{seed}/{name}"] = json.dumps(mono_copy(coloring, tree))
    # color 1 is a star, which holds no P4; color 2 has a star component
    # first and a path component second, so the search reaches the second
    # component of the second class
    edges = {(0, v): 1 for v in (1, 2, 3, 4)}
    edges.update({(5, v): 2 for v in (6, 7, 8, 9)})
    edges.update({(v, v + 1): 2 for v in (10, 11, 12, 13)})
    coloring = EdgeColoring(Graph(15, edges), 2, edges)
    out["mono_copy/components/P4"] = json.dumps(mono_copy(coloring, path_graph(4)))
    # the proper coloring under the bucket lemma on K4 with 3 * 1 colors
    proper = _proper_coloring(edges_within(complete_graph(4), range(4)), 3)
    out["vizing_bucket/K4/3/1"] = json.dumps(sorted(proper.colors.items()))
    return out


# targets with interchangeable vertices: (name, target, host without a
# copy); the host with a copy is a random graph with the target planted
TWIN_TARGETS = [
    ("S32", make_double_star(3, 2), helpers.tight_double_star_host(3, 2, 1, 0)),
    ("S44", make_double_star(4, 4), helpers.tight_double_star_host(4, 4, 2, 1)),
    ("K14", star(4), helpers.petersen_graph()),
    ("K23", complete_bipartite(2, 3), helpers.petersen_graph()),
    ("C4", cycle_graph(4), helpers.petersen_graph()),
    ("K4", complete_graph(4), helpers.complete_multipartite([3, 3, 3])),
]


def _planted(target: Graph, seed: int) -> tuple[Graph, set[tuple[int, int]]]:
    """G(14, 0.2) with a copy of target on random vertices, and the copy's
    edges."""
    rng = random.Random(seed)
    host = sample_gnp(14, 0.2, seed)
    image = rng.sample(range(14), target.vertex_count)
    copy = {tuple(sorted((image[u], image[v]))) for u, v in target.edges}
    return Graph(14, host.edges | copy), copy


def _two_colored(host: Graph, keep: set[tuple[int, int]], seed: int) -> EdgeColoring:
    """Each edge colored 1 or 2 at random, the edges in keep colored 2."""
    rng = random.Random(seed)
    colors = {e: 2 if e in keep or rng.random() < 0.5 else 1
              for e in host.sorted_edges()}
    return EdgeColoring(host, 2, colors)


def _twins() -> dict[str, str]:
    out = {}
    for i, (name, target, free_host) in enumerate(TWIN_TARGETS):
        with_copy, copy = _planted(target, 100 + i)
        for kind, host, keep in (("copy", with_copy, copy), ("free", free_host, set())):
            emb = find_subgraph(host, target)
            out[f"twins/find_subgraph/{name}/{kind}"] = json.dumps(
                sorted(emb.items()) if emb else emb)
            coloring = _two_colored(host, keep, 200 + i)
            out[f"twins/mono_copy/{name}/{kind}"] = json.dumps(mono_copy(coloring, target))
    spider = helpers.spider([1, 1, 2, 2, 3])
    for name, tree, seed in (("S32", make_double_star(3, 2), 300), ("spider", spider, 301)):
        with_copy, _ = _planted(tree, seed)
        free_host = helpers.tight_double_star_host(3, 2, 1, 0)
        for kind, host in (("copy", with_copy), ("free", free_host)):
            emb = find_subgraph(host, tree)
            out[f"twins/find_subgraph/tree/{name}/{kind}"] = json.dumps(
                sorted(emb.items()) if emb else emb)
    for name, target in (("K13", star(3)), ("S22", make_double_star(2, 2))):
        for n in (5, 6):
            out[f"twins/search/{name}/K{n}/r2"] = _search(complete_graph(n), target, 2, None)
    tight = helpers.tight_double_star_host(6, 3, 2, 0)
    emb = find_subgraph(tight, make_double_star(6, 3))
    out["twins/tight/6,3/2,0"] = json.dumps(sorted(emb.items()) if emb else emb)
    return out


def _exact() -> dict[str, str]:
    out = {}
    for name, target, r, emax in EXACT:
        res = size_ramsey_exact(target, r, emax)
        out[f"exact/{name}/r{r}/emax{emax}"] = json.dumps(res.to_dict())
    return out


def _enumerations() -> dict[str, str]:
    # every level's representatives, in the order the enumeration returns them
    out = {}
    for e in range(1, 9):
        graphs = enumerate_connected_graphs(e)
        out[f"enumerate/{e}"] = json.dumps([emit_graph6(g) for g in graphs])
    capped = enumerate_connected_graphs(6, max_vertices=5)
    out["enumerate/6/vmax5"] = json.dumps([emit_graph6(g) for g in capped])
    return out


def _load() -> dict[str, str]:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def _check(actual: dict[str, str]) -> None:
    golden = _load()
    for key, value in actual.items():
        assert key in golden, key
        assert value == golden[key], key


def test_golden_certificates():
    _check(_certificates())


def test_golden_searches():
    _check(_searches())


def test_golden_peels():
    _check(_peels())


def test_golden_embeddings():
    _check(_embeddings())


def test_golden_twins():
    _check(_twins())


def test_golden_exact():
    _check(_exact())


def test_golden_enumerations():
    _check(_enumerations())


if __name__ == "__main__":
    doc = {**_certificates(), **_searches(), **_peels(), **_embeddings(),
           **_twins(), **_exact(), **_enumerations()}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(doc)} entries to {GOLDEN}")
