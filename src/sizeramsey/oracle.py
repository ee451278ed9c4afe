"""Brute-force size-Ramsey ground truth for small targets.

Hosts are enumerated by edge count up to isomorphism (a minimal arrowing
host is connected, since a monochromatic copy of a connected target lies
inside one component), each host is tested by exhaustive coloring search,
and the resulting exact values are compared against the package's own
lower and upper bounds.  Disagreements are reported, never patched over.

Five cuts skip work without changing any level, value or arrowing host
(size_ramsey_exact says what else they change).  The enumeration makes
one child per orbit of the parent's twin swaps, and drops a child before
its canonical form when one of its removable edges (a pendant edge, or an
edge on a cycle) has a greater invariant key than the edge just added.
Every class still has a child that passes both: re-add its greatest-key
edge to the representative of what removing that edge leaves.  So every
level holds the classes that trying every child gives, each represented
by the first child that passes (see _grow_levels).  A passing child gets
a canonical form only when another shares its cheap invariant key, n and
the sorted (degree, neighbor-degree sum) pairs (_file).  The exact search
starts at r(e(H)-1)+1 edges (colorings._pigeonhole_bound): a host with at
most r(e(H)-1) edges splits into r colors of fewer than e(H) edges each,
so none of its colors holds a copy of H and it cannot arrow.  And a host
whose parent in the enumeration has an H-free coloring first tries to
extend it by a color on the new edge (_inherit); only a host that
inherits none is searched.  Every free coloring, inherited or searched,
is re-checked at one site, by the set kernel's _mono_copy.

The exact search tries every connected host up to emax edges, whatever
its vertex count, so a reported lower end of a bracket is proved; only
enumerate_connected_graphs takes a vertex cap.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

from .colorings import _pigeonhole_bound, lower_bound_value
from .embed import upper_bound_value
from .errors import DomainError
from .graphs import Graph, emit_graph6, is_connected, is_tree
from .verify import (
    EdgeColoring,
    _anchored_plans,
    _embed_through_edge,
    _mono_copy,
    _search_h_free,
    _twin_labels,
    mono_copy,
    search_h_free_coloring,
)

__all__ = [
    "canonical_form",
    "enumerate_connected_graphs",
    "ArrowingResult",
    "arrows",
    "ExactResult",
    "size_ramsey_exact",
    "cross_check_bounds",
]

# search nodes per host that the exact search spends by default
_NODE_BUDGET = 2_000_000


# ---------------------------------------------------------------------------
# canonical forms (complete isomorphism invariant)


def _wl_colors(n: int, adj, colors: list[int]) -> list[int]:
    """Color refinement with rank-compressed labels.

    Each round's label of v is the rank of (old label, sorted neighbor
    labels) among all vertices, which is isomorphism-invariant; rounds
    strictly refine the partition until a round splits no class or every
    class is a singleton, and the result is the coarsest equitable
    refinement of the input.

    The ranks are those of sorting all n keys each round, at less cost:

    - Keys sort by old label first, so a key's rank is the number of
      distinct keys of smaller old labels plus the rank of its neighbor
      tuple within its own class: each class is ranked on its own, in
      label order.
    - A vertex alone in its class is keyed by its label alone, with no
      neighbor tuple: no other key shares that label, so the tuple could
      never decide its rank.
    - After the first round, a class can split only if a member has a
      neighbor whose class split in the round before.  Otherwise each
      member's neighbor labels are its previous ones, renamed class by
      class, and stay equal across the class.  Other classes keep one rank
      without building tuples, and when no class of two or more can split,
      the round that would confirm it is skipped: it would return the same
      ranks.
    """
    classes: list[list[int]] = [[] for _ in range(max(colors) + 1)]
    for v, c in enumerate(colors):
        classes[c].append(v)
    classes = [cell for cell in classes if cell]
    touched = None  # the classes that may split; None for all
    while True:
        new = [0] * n
        refined: list[list[int]] = []
        moved: list[int] = []
        rank = 0
        for c, cell in enumerate(classes):
            if len(cell) == 1 or (touched is not None and c not in touched):
                for v in cell:
                    new[v] = rank
                refined.append(cell)
                rank += 1
                continue
            by_key: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                key = tuple(sorted([colors[w] for w in adj[v]]))
                by_key.setdefault(key, []).append(v)
            if len(by_key) > 1:
                moved += cell
            for k in sorted(by_key):
                part = by_key[k]
                for v in part:
                    new[v] = rank
                refined.append(part)
                rank += 1
        touched = {c for v in moved for w in adj[v]
                   if len(refined[c := new[w]]) > 1}
        if not touched:
            return new
        colors, classes = new, refined


def _adjacency_code(n: int, edges, position: list[int]) -> int:
    """The upper triangle of the adjacency matrix, vertex v in row
    position[v], read row by row as one binary number.  Row i holds the
    pairs (i, j), j > i, first bit highest, and the n-2-i rows below it
    hold (n-2-i)(n-1-i)/2 bits, so pair (i, j) is bit
    (n-1-j) + (n-2-i)(n-1-i)/2: one bit is set per edge, and the
    non-edges, most of the n(n-1)/2 pairs, are never visited."""
    code = 0
    for u, v in edges:
        i, j = position[u], position[v]
        if i > j:
            i, j = j, i
        code |= 1 << ((n - 1 - j) + (n - 2 - i) * (n - 1 - i) // 2)
    return code


def _canon_code(edges, adj, colors: list[int]) -> int:
    """Least leaf code of the individualization-refinement tree below the
    equitable coloring `colors` (McKay & Piperno, "Practical graph
    isomorphism II", 2014), pruned at twins, which share a twin label.

    Colorings are ranks, so one whose greatest color is n-1 is a leaf,
    and its colors are the positions of the vertices in the leaf's
    ordering.  The twin labels are asked for only when a class has to be
    split; a graph that refinement alone orders never needs them.

    The tree is walked with an explicit stack of the refined colorings
    still to visit, so its depth, up to the vertex count, is not bounded
    by the interpreter's recursion limit.  The least code does not depend
    on the order in which the leaves are met."""
    n = len(adj)
    best = None
    label = None
    stack = [colors]
    while stack:
        colors = stack.pop()
        top = max(colors)
        if top == n - 1:
            code = _adjacency_code(n, edges, colors)
            if best is None or code < best:
                best = code
            continue
        classes: list[list[int]] = [[] for _ in range(top + 1)]
        for v, c in enumerate(colors):
            classes[c].append(v)
        cell = next(cell for cell in classes if len(cell) >= 2)
        if label is None:
            label = _twin_labels(adj)
        tried: set[int] = set()
        for v in cell:
            if label[v] not in tried:
                tried.add(label[v])
                seeded = [2 * c for c in colors]
                seeded[v] += 1
                stack.append(_wl_colors(n, adj, seeded))
    return best


def canonical_form(g: Graph) -> tuple[int, int]:
    """A complete isomorphism invariant: (n, canonical adjacency code).

    The code is the least adjacency code over the leaves of a search tree:
    refine the degree partition to an equitable coloring, individualize
    each vertex of its first non-singleton class in turn, refine again and
    repeat until every class is a singleton, whose class order is a
    vertex ordering.  Every step is defined from the graph and the colors
    alone, so isomorphic graphs have isomorphic trees, the same leaf codes
    and the same minimum; equal codes come from two orderings under which
    the adjacency matrices coincide, which is an isomorphism.  So the form
    is equal exactly for isomorphic graphs.

    A vertex v is skipped when it is a twin of a class member w already
    tried (same open or same closed neighborhood, see verify._twin_labels).
    Swapping v and w is then an automorphism that fixes every vertex
    individualized so far, and so maps the subtree below v onto the one
    below w: both give the same least code.

    Two shortcuts leave every code as it was.  _wl_colors keys a vertex
    alone in its color by that color alone, which already fixes its rank,
    so every refined coloring, and so the tree, is unchanged.  A leaf's
    code sets one bit per edge, where the row-by-row reading of the
    ordering puts that pair, so it is the number that reading all
    n(n-1)/2 pairs gives.  The search reads neighbor lists built from
    g.edges, not g.adj, so a graph whose form is all that is asked of it,
    as for most children in _grow_levels, never builds its adjacency sets.
    """
    n = g.vertex_count
    if n == 0:
        return (0, 0)
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    colors = _wl_colors(n, adj, [len(a) for a in adj])
    return (n, _canon_code(g.edges, adj, colors))


# ---------------------------------------------------------------------------
# connected host enumeration by edge count


def _deletion_filter(g: Graph):
    """keep(u, v): whether the child of g made by adding the edge uv, a
    pendant edge at u when v is g's vertex count, may be the first of its
    class, because no removable edge of the child outranks uv.

    A removable edge is a pendant edge, whose leaf goes with it, or a
    cycle edge: removing it leaves a connected graph with one edge fewer,
    and the new edge of every child is one.  Edges are ranked by a key
    computed from the child alone, so an isomorphism maps each edge to one
    of the same key.  Pendant edges outrank cycle edges; a pendant edge
    is keyed by (degree of its attachment vertex, sum of that vertex's
    neighbors' degrees), and a cycle edge by (degree sum, smaller degree,
    number of common neighbors).

    Degrees, neighbor-degree sums and leaves are those of g, updated for
    the new edge, so a pendant child is judged without building it.  A
    cycle child with a leaf is rejected outright; one without is built as
    neighbor sets.  An outranking edge with a common neighbor lies on a
    cycle; for any other, is_connected asks whether the child stays
    connected without it, which holds exactly when it lies on a cycle."""
    n = g.vertex_count
    adj = g.adj
    deg = [len(a) for a in adj]
    sums = [sum(deg[w] for w in a) for a in adj]
    leaves = [(leaf, next(iter(adj[leaf]))) for leaf in range(n) if deg[leaf] == 1]

    def keep(u: int, v: int) -> bool:
        if v == n:
            # a leaf other than u keeps its attachment a; a gains a unit of
            # neighbor degree when u is its neighbor (a == u ties uv)
            top = (deg[u] + 1, sums[u] + 1)
            return not any((deg[a], sums[a] + (u in adj[a])) > top
                           for leaf, a in leaves if leaf != u and a != u)
        if any(leaf != u and leaf != v for leaf, _ in leaves):
            return False
        child = [set(a) for a in adj]
        child[u].add(v)
        child[v].add(u)

        def key(x: int, y: int) -> tuple[int, int, int]:
            dx, dy = len(child[x]), len(child[y])
            return dx + dy, min(dx, dy), len(child[x] & child[y])

        top = key(u, v)
        for x, y in g.edges:
            k = key(x, y)
            if k > top and (k[2] or is_connected(
                    Graph(n, [*g.edges - {(x, y)}, (u, v)]))):
                return False
        return True

    return keep


def _invariant_key(n: int, edges) -> int:
    """A hash of n and the sorted (degree, sum of the neighbors' degrees)
    pairs of the graph on vertices 0..n-1 with the given edges: an
    isomorphism invariant far cheaper than canonical_form.  Hashing keeps
    each key one small int; graphs whose hashes collide only share a
    bucket (see _file)."""
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    sums = [0] * n
    for u, v in edges:
        sums[u] += deg[v]
        sums[v] += deg[u]
    return hash((n, tuple(sorted(zip(deg, sums)))))


def _file(buckets: dict, forms: dict, g: Graph) -> bool:
    """File g under its _invariant_key; whether it starts a new class.

    buckets[key] holds the first graph with that key until a second one
    lands there; from then on it holds None, and the graphs of that key
    are filed in forms, by canonical form, each class under its first
    graph.  So forms are computed only for graphs that share a key, the
    first of them included.  Isomorphic graphs share a key, so the
    classes found are those that filing every graph by its form finds,
    with the same first graphs."""
    key = _invariant_key(g.vertex_count, g.edges)
    first = buckets.setdefault(key, g)
    if first is g:
        return True
    if first is not None:
        forms[canonical_form(first)] = first
        buckets[key] = None
    return forms.setdefault(canonical_form(g), g) is g


def _next_level(parents: list[Graph], index: list[int], vmax: int | None
                ) -> tuple[list[Graph], list[tuple[int, int, int]]]:
    """One step of _grow_levels: the representatives of the next level, in
    the order their classes were found, and for each the (index[i] of its
    parent parents[i], u, v) of the edge uv it adds, a pendant edge when v
    is the parent's vertex count."""
    buckets: dict[int, Graph | None] = {}
    forms: dict[tuple[int, int], Graph] = {}
    reps: list[Graph] = []
    origins: list[tuple[int, int, int]] = []
    for g, p in zip(parents, index):
        n = g.vertex_count
        label = _twin_labels(g.adj)
        keep = _deletion_filter(g)
        least = [v for v in range(n) if label[v] == v]
        # second[u]: the next member of the class of its least member u
        second: dict[int, int] = {}
        for v in range(n):
            if label[v] != v:
                second.setdefault(label[v], v)
        adds = [(u, v) for u in least for v in range(u + 1, n)
                if (label[v] == v or v == second.get(u))
                and not g.has_edge(u, v) and keep(u, v)]
        if vmax is None or n + 1 <= vmax:
            adds += [(u, n) for u in least if keep(u, n)]
        for u, v in adds:
            child = Graph(max(n, v + 1), [*g.edges, (u, v)])
            if _file(buckets, forms, child):
                reps.append(child)
                origins.append((p, u, v))
    return reps, origins


def _grow_levels(emax: int, vmax: int | None):
    """Yield (e, graphs, origins) for e = 1..emax: graphs holds one
    representative per isomorphism class of connected graphs with e edges
    and no isolated vertices (at most vmax vertices when given), and
    origins[i] is the (index of the parent in the level before, u, v) of
    the edge uv that graphs[i] adds to it: the graph is the parent plus
    that edge, on the parent's vertex labels.  K2, the first level, has
    origin None; a vmax below 2 leaves every level empty.  Callers ensure
    emax >= 1.

    Every connected graph with e+1 edges yields a connected predecessor
    with e edges: remove a cycle edge if one exists, otherwise remove a
    leaf; so edge-additions between existing vertices plus pendant
    attachments reach everything.

    Two cuts, both from McKay's canonical augmentation ("Isomorph-free
    exhaustive generation", J. Algorithms 1998), skip children before
    their canonical forms are computed.

    - Each parent makes one child per orbit of its twin swaps.  A new
      edge joins the least members of two twin classes, or the two least
      members of one false-twin class; a pendant hangs only at the least
      member of a class.  Swapping twins is an automorphism of the
      parent, so a skipped child is isomorphic to the kept child that its
      swaps map it to.
    - A child is dropped when one of its removable edges has a strictly
      greater key than its new edge (_deletion_filter), which asks
      is_connected whether an edge lies on a cycle.

    No class is lost.  Take a class C and a removable edge e' of C with
    the greatest key.  C - e' (with its leaf, if e' is pendant) is
    connected, has no more vertices than C, and its class has one
    representative P in the level before.  Adding the image of e' to P,
    or its twin-swap image, which the first cut keeps, gives a child
    isomorphic to C whose new edge corresponds to e'.  The key is
    invariant, so that edge is greatest too and the child passes.  The
    children of a class that several parents, or several edges of equal
    key, make are still merged: by canonical form, computed only for the
    children that share an _invariant_key with another (_file).

    A class is represented by the first of its children that passes both
    cuts, parents taken in the order their classes were found, so
    representatives depend on this generator; the levels hold the same
    classes as trying every child would.  Each level is yielded sorted
    by (vertex count, sorted edges).
    """
    # the level in the order its classes were found, and the index of
    # each graph in the sorted level yielded
    graphs = [Graph(2, [(0, 1)])] if vmax is None or vmax >= 2 else []
    index = [0] * len(graphs)
    yield 1, graphs, [None] * len(graphs)
    for e in range(2, emax + 1):
        graphs, origins = _next_level(graphs, index, vmax)
        order = sorted(range(len(graphs)), key=lambda i: (
            graphs[i].vertex_count, graphs[i].sorted_edges()))
        index = [0] * len(graphs)
        for k, i in enumerate(order):
            index[i] = k
        level = e, [graphs[i] for i in order], [origins[i] for i in order]
        # the next level needs only graphs and index
        del order, origins
        yield level


def enumerate_connected_graphs(edge_count: int, max_vertices: int | None = None
                               ) -> list[Graph]:
    """All connected graphs with exactly edge_count edges, one per
    isomorphism class, no isolated vertices."""
    if edge_count < 1:
        raise DomainError(f"edge_count must be >= 1, got {edge_count}")
    out: list[Graph] = []
    for e, graphs, _ in _grow_levels(edge_count, max_vertices):
        if e == edge_count:
            out = graphs
    return out


# ---------------------------------------------------------------------------
# arrowing


@dataclass(frozen=True)
class ArrowingResult:
    """Outcome of deciding g -> (h)_r by exhaustive coloring search."""

    status: str  # "arrows" | "free" | "unknown"
    nodes: int
    witness: dict[tuple[int, int], int] | None = None


def arrows(g: Graph, h: Graph, r: int, node_budget: int | None = None
           ) -> ArrowingResult:
    """Decide whether every r-coloring of g contains a monochromatic h.

    A "free" answer carries the witness coloring, re-verified here against
    the independent monochromatic-copy search before being returned.
    """
    if r < 1:
        raise DomainError(f"need r >= 1, got {r}")
    status, colors, nodes = search_h_free_coloring(g, h, r, node_budget)
    if status == "free" and mono_copy(EdgeColoring(g, r, colors), h):
        raise AssertionError(
            "free witness contains a monochromatic copy; searcher bug")
    return ArrowingResult(status, nodes, colors)


def _inherit(g: Graph, r: int, plans, edges: list[tuple[int, int]],
             colors: bytes, u: int, v: int) -> bytes | None:
    """A coloring of g with no copy of the target through the edge uv, or
    None.  g is a parent host plus uv, on the parent's labels, edges its
    sorted edges, and colors a target-free coloring of the parent: one
    color per edge, in sorted-edge order.

    uv takes the least color 1..r through which no copy of the target
    passes, asked of its _anchored_plans on that color's bitmasks by
    _embed_through_edge: the parent's coloring holds no copy, so a copy
    in the extension uses uv (the edge-by-edge extension of McKay &
    Radziszowski, "R(4,5) = 25", 1995).  The extension is returned
    unchecked; size_ramsey_exact re-checks it whole.  None when every
    color makes a copy: g may still be free, and only a search can tell."""
    k = edges.index((u, v))
    masks = [[0] * g.vertex_count for _ in range(r + 1)]
    for (x, y), c in zip(edges[:k] + edges[k + 1:], colors):
        masks[c][x] |= 1 << y
        masks[c][y] |= 1 << x
    for c in range(1, r + 1):
        adj = masks[c]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        if all(_embed_through_edge(plan, adj, u, v) is None for plan in plans):
            return colors[:k] + bytes((c,)) + colors[k:]
    return None


@dataclass
class ExactResult:
    """Exact value or bracket for the r-color size-Ramsey number of target.

    status "exact" means lower == upper == value.  Otherwise "open":
    lower is the least edge count not yet ruled out, upper the least edge
    count of a proven arrowing host (None if none found up to emax).
    nodes counts the coloring search's nodes over the hosts it searched;
    a host that inherits a coloring from its parent adds none.
    """

    target_graph6: str
    r: int
    status: str
    value: int | None
    lower: int
    upper: int | None
    emax: int
    nodes: int
    unknown_hosts: list[str] = field(default_factory=list)
    arrowing_host_graph6: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def size_ramsey_exact(h: Graph, r: int, emax: int,
                      node_budget: int | None = _NODE_BUDGET) -> ExactResult:
    """Smallest edge count of a host arrowing h with r colors, by complete
    enumeration of connected hosts (vertex counts never exceed e+1).

    Hosts with at most r(e(h)-1) edges are ruled out by proof, not search:
    split their edges into r colors of at most e(h)-1 edges each and no
    color holds a copy of h.  The search starts at r(e(h)-1)+1 edges; the
    smaller levels are still grown, as parents of the next, and none is
    grown when that start exceeds emax.

    Each host is its parent in the level before plus one new edge (see
    _grow_levels).  The hosts with r(e(h)-1) edges get that pigeonhole
    split, in sorted-edge order, as their h-free coloring.  A later host
    whose parent has an h-free coloring tries to extend it, one color on
    the new edge (_inherit), and is free with no search when that
    passes.  Every other host is searched by verify._search_h_free.  Both
    run the target's anchored plans, one per orbit of its oriented edges,
    compiled once per call.  Every free coloring, inherited or searched,
    is re-checked whole at one site, by _mono_copy on the set kernel with
    plans[0] run without prescribed images, and a monochromatic copy
    raises.  Only the free colorings of the level just decided are kept,
    as bytes, one color per edge.

    Budget-limited hosts are collected rather than guessed at: the result
    is only "exact" when every smaller host was definitively shown not to
    arrow.  An inherited coloring can settle a host that the search would
    leave undecided, so lower can only rise over searching every host.
    A host that arrows never inherits, so upper and the arrowing host are
    those of searching every host, and so is every field but nodes when
    no host is left undecided.
    """
    if not is_connected(h) or h.edge_count == 0:
        raise DomainError("the target must be connected with at least one edge")
    if r < 1:
        raise DomainError(f"need r >= 1, got {r}")
    if emax < 1:
        raise DomainError(f"need emax >= 1, got {emax}")
    if node_budget is not None and node_budget < 0:
        raise DomainError(f"need node_budget >= 0, got {node_budget}")
    plans = _anchored_plans(h)
    m = h.edge_count
    start = _pigeonhole_bound(m, r)
    total_nodes = 0
    unknown: list[tuple[int, str]] = []
    found_e: int | None = None
    found_host: str | None = None
    # witness[p]: a target-free coloring of host p of the level before, as
    # bytes in sorted-edge order, or None when that host has none
    witness: list[bytes | None] = []
    levels = _grow_levels(emax, None) if start <= emax else ()
    for e, graphs, origins in levels:
        if e < start - 1:
            continue
        if e == start - 1:
            # r colors of e(h)-1 edges each, edges taken in sorted order
            witness = [bytes(i // (m - 1) + 1 for i in range(e))] * len(graphs)
            continue
        free: list[bytes | None] = []
        for g, origin in zip(graphs, origins):
            edges = g.sorted_edges()
            colors = None
            if witness:
                p, u, v = origin
                if witness[p] is not None:
                    colors = _inherit(g, r, plans, edges, witness[p], u, v)
            if colors is None:
                verdict, searched, nodes = _search_h_free(g, plans, r, node_budget)
                total_nodes += nodes
                if verdict == "arrows":
                    found_e = e
                    found_host = emit_graph6(g)
                    break
                if verdict == "unknown":
                    unknown.append((e, emit_graph6(g)))
                else:
                    colors = bytes(searched[x] for x in edges)
            if colors is not None and _mono_copy(
                    EdgeColoring(g, r, dict(zip(edges, colors))), h, plans[0]):
                raise AssertionError(
                    "free witness contains a monochromatic copy; "
                    "search or extension bug")
            free.append(colors)
        if found_e is not None:
            break
        witness = free
    lower = found_e if found_e is not None else max(emax + 1, start)
    if unknown:
        lower = min(lower, min(e for e, _ in unknown))
    status = "exact" if found_e is not None and lower == found_e else "open"
    return ExactResult(
        target_graph6=emit_graph6(h),
        r=r,
        status=status,
        value=found_e if status == "exact" else None,
        lower=lower,
        upper=found_e,
        emax=emax,
        nodes=total_nodes,
        unknown_hosts=[g6 for _, g6 in unknown],
        arrowing_host_graph6=found_host,
    )


# ---------------------------------------------------------------------------
# cross-checking bounds against ground truth


def cross_check_bounds(h: Graph, r: int, emax: int,
                       node_budget: int | None = _NODE_BUDGET) -> dict:
    """Compare the package's bounds for h against the brute-force value.

    Returns a report dict with a "violations" list; an inconsistency is
    reported, never raised, so a falsified bound surfaces in test output
    with its full context.
    """
    lower, tag = lower_bound_value(h, r)
    upper = upper_bound_value(h, r) if is_tree(h) else None
    exact = size_ramsey_exact(h, r, emax, node_budget)
    violations: list[str] = []
    # an "exact" result has value == lower == upper, so one pair of
    # checks covers it and an open result alike
    if exact.upper is not None and exact.upper < math.ceil(lower):
        violations.append(
            f"an arrowing host with {exact.upper} edges beats the "
            f"{tag} lower bound {lower}"
        )
    if upper is not None and exact.lower > upper:
        violations.append(
            f"all hosts up to {exact.lower - 1} edges were eliminated, "
            f"contradicting the tree upper bound {upper}"
        )
    return {
        "target_graph6": emit_graph6(h),
        "r": r,
        "lower_bound": {"num": lower.numerator, "den": lower.denominator,
                        "tag": tag},
        "upper_bound": upper,
        "exact": exact.to_dict(),
        "violations": violations,
    }
