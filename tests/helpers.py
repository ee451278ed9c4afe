"""Shared test utilities: a vectorized brute-force embedding oracle,
references for the host enumeration, its deletion filter and the exact
size-Ramsey search, a brute-force P4-free coloring search, random
instance generators for the coloring constructions, and builders of
twin-rich graphs.

The oracle here is deliberately independent of the package's own search:
it materializes every injective vertex map as a numpy array and checks all
target edges at once, so agreement between the two is meaningful evidence.

At the end are two of the paper's conditions that only the tests check:
the alpha-full tree condition and the constants inequality for a and b.
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from sizeramsey import (
    DomainError,
    Graph,
    complete_bipartite,
    cycle_graph,
    make_double_star,
    is_tree,
    path_graph,
    profile,
    q_for_ramsey,
    star,
    strategy_bound,
)


def to_networkx(g: Graph):
    import networkx as nx

    out = nx.Graph()
    out.add_nodes_from(range(g.vertex_count))
    out.add_edges_from(g.edges)
    return out


def from_networkx(nxg) -> Graph:
    nodes = sorted(nxg.nodes())
    index = {v: i for i, v in enumerate(nodes)}
    return Graph(len(nodes), [(index[u], index[v]) for u, v in nxg.edges()])


def adjacency_matrix(g: Graph) -> np.ndarray:
    mat = np.zeros((g.vertex_count, g.vertex_count), dtype=bool)
    for u, v in g.edges:
        mat[u, v] = mat[v, u] = True
    return mat


@lru_cache(maxsize=None)
def injection_table(n_host: int, n_target: int) -> np.ndarray:
    """All injections [n_target] -> [n_host] as an array of rows."""
    perms = list(itertools.permutations(range(n_host), n_target))
    return np.array(perms, dtype=np.intp).reshape(len(perms), n_target)


def has_injection(host_mat: np.ndarray, target: Graph) -> bool:
    """Ground truth for subgraph containment by exhaustive injective maps."""
    n_host = host_mat.shape[0]
    if target.vertex_count > n_host:
        return False
    if target.edge_count == 0:
        return True
    rows = injection_table(n_host, target.vertex_count)
    alive = np.ones(len(rows), dtype=bool)
    for a, b in target.sorted_edges():
        alive &= host_mat[rows[:, a], rows[:, b]]
        if not alive.any():
            return False
    return True


def first_h_free_coloring(host_edges: list[tuple[int, int]], host_n: int,
                          target_edges: list[tuple[int, int]], target_n: int,
                          r: int) -> tuple[int, ...] | None:
    """Ground truth for the target-free coloring search: the first r-coloring
    of host_edges, in lexicographic order of the color tuple, with no
    monochromatic copy of the target, or None when every one has a copy.

    Plain Python over plain edge lists: every injective vertex map gives
    the bitmask of host edges one copy uses, and a coloring has a
    monochromatic copy when some copy's mask lies inside one color's mask.
    """
    index = {tuple(sorted(e)): k for k, e in enumerate(host_edges)}
    copies = set()
    for image in itertools.permutations(range(host_n), target_n):
        mask = 0
        for a, b in target_edges:
            k = index.get(tuple(sorted((image[a], image[b]))))
            if k is None:
                break
            mask |= 1 << k
        else:
            copies.add(mask)
    for colors in itertools.product(range(1, r + 1), repeat=len(host_edges)):
        classes = [0] * (r + 1)
        for k, c in enumerate(colors):
            classes[c] |= 1 << k
        if not any(mask & cls == mask for mask in copies for cls in classes[1:]):
            return colors
    return None


def connected_levels(emax: int, vmax: int | None = None
                     ) -> list[list[tuple[int, list[tuple[int, int]]]]]:
    """Reference for the host enumeration: level e lists one
    (vertex_count, sorted_edges) per isomorphism class of connected graphs
    with e edges, sorted.  Every parent makes every child, each non-edge
    added and a pendant hung at each vertex, and a class keeps the first
    child seen, as the enumeration did before it pruned twin orbits."""
    from sizeramsey import canonical_form

    k2 = Graph(2, [(0, 1)])
    level = {canonical_form(k2): k2}
    out = [[(2, [(0, 1)])]]
    for _ in range(2, emax + 1):
        nxt = {}
        for g in level.values():
            n = g.vertex_count
            children = [Graph(n, list(g.edges) + [(u, v)])
                        for u, v in itertools.combinations(range(n), 2)
                        if not g.has_edge(u, v)]
            if vmax is None or n < vmax:
                children += [Graph(n + 1, list(g.edges) + [(u, n)])
                             for u in range(n)]
            for child in children:
                nxt.setdefault(canonical_form(child), child)
        level = nxt
        out.append(sorted((g.vertex_count, g.sorted_edges()) for g in level.values()))
    return out


def deletion_filter_reference(parent: Graph, u: int, v: int) -> bool:
    """Reference for oracle._deletion_filter(parent)(u, v), read off its
    docstring with networkx: build the child, whose removable edges are
    its pendant edges and the edges nx.bridges does not list, and keep it
    when no removable edge's key exceeds the key of its new edge uv.  A
    pendant edge is keyed by (degree of its attachment vertex, sum of that
    vertex's neighbors' degrees), a cycle edge by (degree sum, smaller
    degree, common neighbors), and pendant edges outrank cycle edges."""
    import networkx as nx

    child = to_networkx(parent)
    child.add_edge(u, v)
    deg = child.degree
    bridges = {frozenset(e) for e in nx.bridges(child)}

    def key(x, y):
        if deg[y] == 1:
            x, y = y, x
        if deg[x] == 1:
            return (1, deg[y], sum(deg[w] for w in child[y]))
        return (0, deg[x] + deg[y], min(deg[x], deg[y]),
                len(set(child[x]) & set(child[y])))

    removable = [(x, y) for x, y in child.edges
                 if 1 in (deg[x], deg[y]) or frozenset((x, y)) not in bridges]
    return all(key(x, y) <= key(u, v) for x, y in removable)


def exact_reference(h: Graph, r: int, emax: int) -> dict:
    """Reference for size_ramsey_exact(h, r, emax).to_dict() less its node
    count: every host from the pigeonhole start r(e(h)-1)+1 edges up goes
    through arrows, with no budget and no coloring carried from a parent
    host, until one arrows."""
    from sizeramsey import arrows, emit_graph6, enumerate_connected_graphs

    start = r * (h.edge_count - 1) + 1
    out = {"target_graph6": emit_graph6(h), "r": r, "status": "open",
           "value": None, "lower": max(emax + 1, start), "upper": None,
           "emax": emax, "unknown_hosts": [], "arrowing_host_graph6": None}
    for e in range(start, emax + 1):
        for g in enumerate_connected_graphs(e):
            if arrows(g, h, r).status == "arrows":
                return {**out, "status": "exact", "value": e, "lower": e,
                        "upper": e, "arrowing_host_graph6": emit_graph6(g)}
    return out


def is_p4_free(edges: list[tuple[int, int]]) -> bool:
    """Whether the graph on these edges has no path on four vertices:
    exactly when each of its components is a triangle or a star."""
    adj: dict[int, set[int]] = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    seen: set[int] = set()
    for s in adj:
        if s in seen:
            continue
        comp, stack = {s}, [s]
        while stack:
            for w in adj[stack.pop()] - comp:
                comp.add(w)
                stack.append(w)
        seen |= comp
        size = sum(len(adj[x]) for x in comp) // 2
        star = size == len(comp) - 1 == max(len(adj[x]) for x in comp)
        if not (star or size == len(comp) == 3):
            return False
    return True


def p4_free_coloring(edges: list[tuple[int, int]], r: int
                     ) -> tuple[int, ...] | None:
    """Ground truth for arrows(host, P4, r) over a plain edge list: the
    first r-coloring, in lexicographic order of the color tuple, whose
    color classes are all P4-free, or None when there is none.  Adding an
    edge never removes a P4, so a prefix whose last color class has one
    is dropped with every coloring that extends it."""
    colors: list[int] = []

    def extend() -> bool:
        if len(colors) == len(edges):
            return True
        for c in range(1, r + 1):
            colors.append(c)
            cls = [e for e, k in zip(edges, colors) if k == c]
            if is_p4_free(cls) and extend():
                return True
            colors.pop()
        return False

    return tuple(colors) if extend() else None


def wl_colors_reference(n: int, adj, colors: list[int]) -> list[int]:
    """Reference for oracle._wl_colors: each round ranks every vertex's
    (color, sorted neighbor colors) among all n such keys at once."""
    nclasses = len(set(colors))
    while True:
        keys = [(colors[v], tuple(sorted(colors[w] for w in adj[v])))
                for v in range(n)]
        uniq = sorted(set(keys))
        rank = {k: i for i, k in enumerate(uniq)}
        new = [rank[k] for k in keys]
        if len(uniq) == nclasses or len(uniq) == n:
            return new
        colors, nclasses = new, len(uniq)


def adjacency_code_reference(g: Graph, ordering: list[int]) -> int:
    """Reference for oracle._adjacency_code: the upper triangle of g's
    adjacency matrix under ordering, every pair tested, read row by row."""
    n = g.vertex_count
    code = 0
    for i in range(n):
        for j in range(i + 1, n):
            code = (code << 1) | g.has_edge(ordering[i], ordering[j])
    return code


def check_plane_axioms(plane) -> None:
    """Full incidence-axiom suite for an affine plane of order q."""
    q = plane.q
    points = range(plane.point_count)
    assert plane.point_count == q * q
    assert len(plane.lines) == q * q + q
    assert len(plane.classes) == q + 1
    for line in plane.lines:
        assert len(line) == q
    # every pair of distinct points lies on exactly one common line
    on_lines = [set() for _ in points]
    for lid, line in enumerate(plane.lines):
        for p in line:
            on_lines[p].add(lid)
    for p1, p2 in itertools.combinations(points, 2):
        common = on_lines[p1] & on_lines[p2]
        assert len(common) == 1, (p1, p2, sorted(common))
        lid = next(iter(common))
        assert plane.line_through(p1, p2)[0] == lid
    # each parallel class partitions the point set
    for cls in plane.classes:
        assert len(cls) == q
        covered = sorted(p for lid in cls for p in plane.lines[lid])
        assert covered == list(points)
    # the classes partition the line set
    all_lines = sorted(lid for cls in plane.classes for lid in cls)
    assert all_lines == list(range(len(plane.lines)))


def check_embedding(host: Graph, target: Graph, emb: dict) -> None:
    assert sorted(emb) == list(range(target.vertex_count))
    assert len(set(emb.values())) == target.vertex_count
    for u, v in target.edges:
        assert host.has_edge(emb[u], emb[v]), (u, v, emb)


# ---------------------------------------------------------------------------
# random graphs


def strict_floor(bound: Fraction) -> int:
    """Largest integer strictly below a positive fraction."""
    return (bound.numerator - 1) // bound.denominator


def random_graph(rng, n: int, e: int) -> Graph:
    pool = list(itertools.combinations(range(n), 2))
    return Graph(n, rng.sample(pool, min(e, len(pool))))


def random_gnp(rng, n: int, p: float) -> Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph(n, edges)


def random_tree(rng, n: int) -> Graph:
    if n <= 1:
        return Graph(n)
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return Graph(n, edges)


def wheel_graph(n: int) -> Graph:
    """Hub n-1 joined to every vertex of the cycle 0..n-2."""
    rim = [(i, (i + 1) % (n - 1)) for i in range(n - 1)]
    return Graph(n, rim + [(i, n - 1) for i in range(n - 1)])


# ---------------------------------------------------------------------------
# twin-rich graphs: targets whose leaves or parts are interchangeable


def spider(legs: list[int]) -> Graph:
    """Center 0 with one path of each given length hung on it."""
    edges = []
    n = 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, n))
            prev = n
            n += 1
    return Graph(n, edges)


def complete_multipartite(parts: list[int]) -> Graph:
    """Every pair of vertices in different parts adjacent."""
    side = [i for i, size in enumerate(parts) for _ in range(size)]
    n = len(side)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if side[u] != side[v]])


def petersen_graph() -> Graph:
    """Cubic, girth 5: no C4, no K_{2,3}, no K_{1,4}."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def tight_double_star_host(n: int, m: int, s: int, t: int) -> Graph:
    """A host without S_{n,m} where the centers 0 and 1 have n + s and
    m + t candidate leaves but only n + m - 1 distinct ones, so a search
    without symmetry breaking tries every ordered choice of the first
    center's leaves.  The construction of the benchmark's tight jobs."""
    z = s + t + 1          # leaves shared by both centers
    x = n - t - 1          # leaves of the first center only
    y = m - s - 1          # leaves of the second center only
    a = list(range(2, 2 + x))
    b = list(range(2 + x, 2 + x + y))
    c = list(range(2 + x + y, 2 + x + y + z))
    spare = 2 + x + y + z
    edges = [(0, 1)] + [(0, w) for w in a + c] + [(1, w) for w in b + c]
    edges += [(a[0], spare), (a[1], spare + 1)]
    return Graph(spare + 2, edges)


# the 9-vertex bipartite target whose profile has delta1 > delta2 and
# n1 > n2 in canonical orientation, exercising the hardest split case
CASE3_TARGET = Graph(
    9,
    [(0, 5), (0, 6), (0, 7), (0, 8),
     (1, 5), (1, 6),
     (2, 7), (2, 8),
     (3, 5), (3, 7),
     (4, 6), (4, 8)],
)


# ---------------------------------------------------------------------------
# instance generators for the coloring constructions


BIPARTITE_POOL = [
    path_graph(4),
    path_graph(6),
    cycle_graph(4),
    cycle_graph(6),
    complete_bipartite(2, 3),
    complete_bipartite(3, 3),
    complete_bipartite(3, 4),
    make_double_star(2, 2),
    make_double_star(3, 3),
    make_double_star(4, 4),
    make_double_star(5, 3),
    CASE3_TARGET,
]

NONBIPARTITE_POOL = [
    cycle_graph(3),
    cycle_graph(5),
    cycle_graph(7),
    Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    wheel_graph(5),
    wheel_graph(6),
]

BECK_POOL = BIPARTITE_POOL + [star(4), star(6), make_double_star(5, 5)]


def coloring_instance(strategy: str, rng) -> dict:
    """One random (host, target, r, ...) tuple satisfying the preconditions
    of the named construction, as kwargs for certify()."""
    if strategy == "beck":
        target = rng.choice(BECK_POOL)
        r = 2
    elif strategy == "weakbip":
        target = rng.choice(BIPARTITE_POOL)
        r = rng.randint(2, 4)
    elif strategy == "gen2":
        target = rng.choice(BIPARTITE_POOL)
        r = rng.randint(2, 4)
    elif strategy == "double_star":
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        r = rng.randint(3, 6)
        target = make_double_star(n, m)
    elif strategy == "double_star_2col":
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        r = 2
        target = make_double_star(n, m)
    elif strategy == "chi3":
        target = rng.choice(NONBIPARTITE_POOL)
        r = rng.randint(2, 4)
    elif strategy == "affine":
        r = rng.randint(3, 6)
        q = q_for_ramsey(r)
        n = rng.randint(q + 1, 14)
        cap = q * q * ((n - 1) // q)
        big = rng.randint(2, min(cap, 18))
        from sizeramsey import complete_graph

        return {
            "strategy": "affine",
            "host": complete_graph(big),
            "target": path_graph(n),
            "r": r,
            "seed": rng.randrange(2**30),
        }
    else:
        raise ValueError(strategy)
    bound = strategy_bound(strategy, target, r)
    e_cap = strict_floor(bound)
    n_host = rng.randint(3, 12)
    host = random_graph(rng, n_host, rng.randint(0, e_cap))
    return {
        "strategy": strategy,
        "host": host,
        "target": target,
        "r": r,
        "seed": rng.randrange(2**30),
    }


def is_alpha_full(t: Graph, alpha: Fraction | int) -> bool:
    """Whether a tree satisfies delta1 >= alpha*n2 or delta2 >= alpha*n1."""
    if not is_tree(t):
        raise DomainError("is_alpha_full requires a tree")
    alpha = Fraction(alpha)
    if not 0 < alpha <= 1:
        raise DomainError(f"alpha must be in (0, 1], got {alpha}")
    p = profile(t)
    return p.delta1 >= alpha * p.n2 or p.delta2 >= alpha * p.n1


def ab_inequality_holds(a: float, b: float, r: int, max_tree_degree: int,
                        log=math.log) -> bool:
    """Whether (1/(20 r))^(1 + 4/(b log r - 4)) >= (2 Delta + 2)/(a r).

    This is the constants inequality behind choosing a and b; it is
    deliberately not a precondition of the trials, which verify their
    outcome directly.
    """
    if r < 2:
        raise DomainError(f"need r >= 2, got {r}")
    denom = b * log(r) - 4
    if denom <= 0:
        raise DomainError(f"b*log(r) = {b * log(r)} must exceed 4")
    lhs = (1.0 / (20 * r)) ** (1 + 4 / denom)
    rhs = (2 * max_tree_degree + 2) / (a * r)
    return lhs >= rhs
