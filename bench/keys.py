"""Answer keys that do not come from the package.

Nothing here imports sizeramsey.  Graphs arrive as plain data: a vertex
count and a collection of edges (pairs of ints), or a dict of colors keyed
by sorted edge pairs.  Keys are closed-form values from the literature,
Hall's condition for double stars, networkx's VF2 matcher for small
containment pairs, and edge-by-edge re-checks of every mapping the package
returns.
"""

from __future__ import annotations

import math
import random


def norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def edge_set(edges) -> set[tuple[int, int]]:
    return {norm(u, v) for u, v in edges}


# ---------------------------------------------------------------------------
# closed forms


def exact_value(family: str, size: int, edges: int, r: int) -> int:
    """Known r-color size-Ramsey number of a small target.

    One color: the target itself is the smallest host.  Stars K_{1,m}:
    r(m-1)+1, since fewer edges split into r classes of at most m-1
    edges each, while the star with that many edges has m of them in
    one color by pigeonhole.  P4 with two colors: 7 (Faudree and
    Sheehan, 1983).
    """
    if r == 1:
        return edges
    if family == "star":
        return r * (size - 1) + 1
    if family == "path" and size == 4 and r == 2:
        return 7
    raise ValueError(f"no closed form for {family}:{size} with r={r}")


def _burr_roberts(leaves: list[int]) -> int:
    """R(K_{1,n_1}, ..., K_{1,n_k}) = sum(n_i - 1) + theta, with theta = 1
    when the number of even n_i is positive and even, else 2."""
    evens = sum(1 for n in leaves if n % 2 == 0)
    theta = 1 if evens > 0 and evens % 2 == 0 else 2
    return sum(n - 1 for n in leaves) + theta


def ramsey_number(family: str, size: int, r: int) -> int:
    """Classical (or bipartite) Ramsey number of a target with r colors.

    complete:3 -- R(K3, K3) = 6.
    cycle:4 -- R(C4, C4) = 6 (Chvatal-Harary 1972).
    cycle:5 -- R(C5, C5) = 9 (R(C_n, C_n) = 2n - 1 for odd n >= 5).
    path:n -- R(P_n, P_n) = n + floor(n/2) - 1 (Gerencser-Gyarfas 1967).
    star:m -- Burr-Roberts (1973) multicolor star formula.
    bicycle:4 -- bipartite b(C4, C4) = 5 (Beineke-Schwenk 1976).
    """
    if family == "star":
        return _burr_roberts([size] * r)
    if r != 2:
        raise ValueError(f"{family}:{size} has no closed form for r={r}")
    if family == "path":
        return size + size // 2 - 1
    table = {("complete", 3): 6, ("cycle", 4): 6, ("cycle", 5): 9,
             ("bicycle", 4): 5}
    return table[(family, size)]


# ---------------------------------------------------------------------------
# containment


def double_star_in(n_vertices: int, edges, n: int, m: int) -> bool:
    """Whether the host contains S_{n,m}: some edge uv with
    |N(u)-v| >= n, |N(v)-u| >= m and |N(u) | N(v) - {u, v}| >= n + m
    (Hall's condition for the two leaf sets)."""
    adj: list[set[int]] = [set() for _ in range(n_vertices)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    for u, v in edges:
        for a, b in ((u, v), (v, u)):
            na = adj[a] - {b}
            nb = adj[b] - {a}
            if len(na) >= n and len(nb) >= m and len(na | nb) >= n + m:
                return True
    return False


def networkx_contains(host_n: int, host_edges, target_n: int, target_edges) -> bool:
    """VF2 monomorphism test: is the target a (not necessarily induced)
    subgraph of the host?"""
    import networkx as nx
    from networkx.algorithms import isomorphism

    g = nx.Graph()
    g.add_nodes_from(range(host_n))
    g.add_edges_from(host_edges)
    h = nx.Graph()
    h.add_nodes_from(range(target_n))
    h.add_edges_from(target_edges)
    return isomorphism.GraphMatcher(g, h).subgraph_is_monomorphic()


def mapping_ok(target_n: int, target_edges, mapping, host_edges) -> bool:
    """Every target vertex mapped, injectively, onto host vertices, and
    every target edge onto a host edge."""
    if mapping is None:
        return False
    mp = {int(k): int(v) for k, v in dict(mapping).items()}
    if sorted(mp) != list(range(target_n)):
        return False
    if len(set(mp.values())) != target_n:
        return False
    hs = host_edges if isinstance(host_edges, (set, frozenset, dict)) else edge_set(host_edges)
    return all(norm(mp[u], mp[v]) in hs for u, v in target_edges)


def mono_mapping_ok(target_n: int, target_edges, mapping, colors: dict, color: int) -> bool:
    """mapping_ok inside the class of the given color."""
    if mapping is None:
        return False
    cls = {e for e, c in colors.items() if c == color}
    return mapping_ok(target_n, target_edges, mapping, cls)


def coloring_free_of(host_n: int, host_edges, colors: dict, r: int,
                     target_n: int, target_edges) -> bool:
    """Whether colors is a total r-coloring of the host with no
    monochromatic copy of the target (checked per class with VF2)."""
    hs = edge_set(host_edges)
    if set(colors) != hs or any(not 1 <= c <= r for c in colors.values()):
        return False
    for c in range(1, r + 1):
        cls = [e for e, cc in colors.items() if cc == c]
        if len(cls) >= len(target_edges) and networkx_contains(
                host_n, cls, target_n, target_edges):
            return False
    return True


def majority_sizes(colors: dict, r: int) -> list[int]:
    counts = [0] * (r + 1)
    for c in colors.values():
        counts[c] += 1
    return counts


# ---------------------------------------------------------------------------
# random-host trials, re-derived from their documented seeding


def trial_host(a: float, b: float, r: int, n: int, seed: int):
    """(N, p, edges, colors) of the G(N, p) trial the package draws for
    this seed: N = ceil(a r n), p = b r ln(r) / N, each pair (u < v) kept
    in order when a seeded draw falls below p, then edges colored
    uniformly from a second stream seeded with seed ^ 0x9E3779B9."""
    big_n = math.ceil(a * r * n - 1e-9)
    p = min(max(b * r * math.log(r) / big_n, 0.0), 1.0)
    rng = random.Random(seed)
    edges = [(u, v) for u in range(big_n) for v in range(u + 1, big_n)
             if rng.random() < p]
    crng = random.Random(seed ^ 0x9E3779B9)
    colors = {e: crng.randint(1, r) for e in sorted(edges)}
    return big_n, p, edges, colors
