"""Tree embeddings that realize the complete bipartite upper bound.

Any r-coloring of a large enough complete bipartite host contains a
monochromatic copy of a given tree: take the majority color class, peel
low-degree vertices at half the class's exact average degrees, and embed
the tree greedily into the surviving core.  `ramsey_embed_test` runs the
whole pipeline on a concrete coloring and returns the copy it found.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .graphs import (
    Graph,
    bipartition,
    complete_bipartite,
    induced_subgraph,
    is_tree,
    peel,
    profile,
)
from .verify import EdgeColoring

__all__ = [
    "PeelResult",
    "degree_peel",
    "greedy_tree_embed",
    "upper_bound_value",
    "embed_host_sides",
    "embed_host",
    "ramsey_embed_test",
]


@dataclass(frozen=True)
class PeelResult:
    """Survivors of a two-sided degree peel plus the deletion log.

    deletions records (vertex, degree at the moment of deletion) in the
    order the peel removed them.
    """

    kept1: tuple[int, ...]
    kept2: tuple[int, ...]
    deletions: tuple[tuple[int, int], ...]

    def kept(self) -> tuple[int, ...]:
        return tuple(sorted(self.kept1 + self.kept2))


def degree_peel(g: Graph, part1, part2, d1: Fraction, d2: Fraction) -> PeelResult:
    """Repeatedly delete a part-i vertex of current degree at most d_i/2,
    lowest (degree, index) first, until none is eligible.

    Degrees count neighbors inside part1 | part2 only.  When d1 and d2 are
    the exact average degrees of the two sides, the survivors are nonempty
    and every surviving part-i vertex has degree strictly above d_i/2.
    """
    p1, p2 = set(part1), set(part2)
    if p1 & p2:
        raise DomainError(f"parts overlap in {sorted(p1 & p2)[:3]}")
    support = p1 | p2
    for v in support:
        if not 0 <= v < g.vertex_count:
            raise DomainError(f"vertex {v} outside the host")
    cap1 = Fraction(d1) // 2
    cap2 = Fraction(d2) // 2
    deletions = peel(g, {v: cap1 if v in p1 else cap2 for v in support})
    alive = support - {v for v, _ in deletions}
    return PeelResult(
        kept1=tuple(sorted(alive & p1)),
        kept2=tuple(sorted(alive & p2)),
        deletions=tuple(deletions),
    )


def greedy_tree_embed(host: Graph, tree: Graph) -> dict[int, int] | None:
    """Embed a tree by a breadth-first greedy walk, or return None.

    The root is a maximum-degree tree vertex; every host vertex is tried
    as its image (hosts of both part orientations are thereby covered),
    but below the root each tree vertex takes the first unused neighbor of
    its parent's image, highest host degree first, with no backtracking.
    """
    if not is_tree(tree):
        raise DomainError("greedy_tree_embed requires a tree target")
    nt = tree.vertex_count
    if nt > host.vertex_count:
        return None
    root = max(tree.vertices(), key=lambda v: (tree.degree(v), -v))
    order = [root]
    parent = {root: None}
    seen = {root}
    i = 0
    while i < len(order):
        v = order[i]
        i += 1
        for w in sorted(tree.neighbors(v)):
            if w not in seen:
                seen.add(w)
                parent[w] = v
                order.append(w)
    starts = sorted(host.vertices(), key=lambda v: (-host.degree(v), v))
    for start in starts:
        image = {root: start}
        used = {start}
        ok = True
        for v in order[1:]:
            anchor = image[parent[v]]
            choice = None
            for w in sorted(host.neighbors(anchor),
                            key=lambda w: (-host.degree(w), w)):
                if w not in used:
                    choice = w
                    break
            if choice is None:
                ok = False
                break
            image[v] = choice
            used.add(choice)
        if ok:
            return image
    return None


def upper_bound_value(t: Graph, r: int) -> int:
    """Edge count (2 r n1 + 1)(2 r n2 + 1) of the complete bipartite host
    that forces a monochromatic copy of the tree t under any r-coloring."""
    a, b = embed_host_sides(t, r)
    return a * b


def embed_host_sides(t: Graph, r: int) -> tuple[int, int]:
    if r < 1:
        raise DomainError(f"need r >= 1, got {r}")
    if not is_tree(t):
        raise DomainError("the upper bound host is defined for trees")
    p = profile(t)
    return 2 * r * p.n1 + 1, 2 * r * p.n2 + 1


def embed_host(t: Graph, r: int) -> Graph:
    """The complete bipartite host realizing upper_bound_value(t, r)."""
    a, b = embed_host_sides(t, r)
    return complete_bipartite(a, b)


def ramsey_embed_test(coloring: EdgeColoring, tree: Graph
                      ) -> tuple[int, dict[int, int]]:
    """Find a monochromatic copy of the tree in a colored complete
    bipartite host via majority class, peel, and greedy embedding.

    The host must be complete bipartite.  Returns (color, mapping); if the
    pipeline fails to produce a copy (possible when the host is smaller
    than the guaranteed dimensions) an AssertionError is raised.
    """
    host = coloring.host
    if not coloring.is_total():
        raise DomainError("the coloring must assign every host edge a color")
    sides = bipartition(host)
    if sides is None:
        raise DomainError("host must be bipartite")
    a_side, b_side = sides
    if host.edge_count != len(a_side) * len(b_side):
        raise DomainError("host must be a complete bipartite graph")
    if not is_tree(tree) or tree.vertex_count == 0:
        raise DomainError("target must be a nonempty tree")
    classes = coloring.classes()
    majority = max(classes, key=lambda c: (len(classes[c]), -c), default=1)
    class_edges = classes.get(majority, [])
    class_graph = Graph(host.vertex_count, class_edges)
    e1 = len(class_edges)
    if e1 == 0:
        raise AssertionError("majority color class is empty")
    d1 = Fraction(e1, len(a_side))
    d2 = Fraction(e1, len(b_side))
    peel = degree_peel(class_graph, a_side, b_side, d1, d2)
    core_vertices = peel.kept()
    core, back = induced_subgraph(class_graph, core_vertices)
    emb = greedy_tree_embed(core, tree)
    if emb is None:
        raise AssertionError(
            f"no copy of the tree found in majority color {majority} "
            f"(class of {e1} edges, core of {len(core_vertices)} vertices)"
        )
    mapping = {tv: back[hv] for tv, hv in emb.items()}
    if (len(set(mapping.values())) != tree.vertex_count
            or any(coloring.get(mapping[u], mapping[v]) != majority
                   for u, v in tree.edges)):
        raise AssertionError("embedding is not injective or left the "
                             "majority class")
    return majority, mapping
