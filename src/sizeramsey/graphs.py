"""Immutable simple graphs, bipartite profiles, and the graph6/edge-list codecs.

Vertices are always the integers 0..vertex_count-1.  Edges are unordered
pairs stored as (min, max) tuples.  Everything downstream (colorings,
verification, the exact oracle) builds on this module and nothing here
imports from the rest of the package except the shared error types.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .errors import DomainError, EdgeListError, Graph6Error

__all__ = [
    "Graph",
    "BipartiteProfile",
    "empty_graph",
    "complete_graph",
    "complete_bipartite",
    "path_graph",
    "cycle_graph",
    "star",
    "make_double_star",
    "is_connected",
    "is_bipartite",
    "is_tree",
    "bipartition",
    "profile",
    "beta",
    "is_star",
    "is_double_star",
    "induced_subgraph",
    "edges_within",
    "peel",
    "parse_graph6",
    "emit_graph6",
    "parse_edge_list",
    "emit_edge_list",
]


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class Graph:
    """An immutable undirected simple graph.

    Self-loops are rejected at construction time, and an edge given more
    than once, in either orientation, is stored once, so every algorithm
    in the package may assume a simple graph.
    """

    __slots__ = ("vertex_count", "edges", "_adj")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]] = ()):
        if vertex_count < 0:
            raise DomainError(f"vertex_count must be nonnegative, got {vertex_count}")
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                raise DomainError(f"self-loop at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise DomainError(
                    f"edge ({u}, {v}) out of range for {vertex_count} vertices"
                )
            seen.add(_normalize_edge(u, v))
        self.vertex_count = vertex_count
        self.edges = frozenset(seen)
        self._adj: tuple[frozenset[int], ...] | None = None

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def adj(self) -> tuple[frozenset[int], ...]:
        if self._adj is None:
            nbrs: list[set[int]] = [set() for _ in range(self.vertex_count)]
            for u, v in self.edges:
                nbrs[u].add(v)
                nbrs[v].add(u)
            self._adj = tuple(frozenset(s) for s in nbrs)
        return self._adj

    def neighbors(self, v: int) -> frozenset[int]:
        return self.adj[v]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def degrees(self) -> list[int]:
        return [len(s) for s in self.adj]

    def max_degree(self) -> int:
        return max(self.degrees(), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return _normalize_edge(u, v) in self.edges

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def vertices(self) -> range:
        return range(self.vertex_count)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertex_count == other.vertex_count and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.vertex_count}, e={self.edge_count})"


# ---------------------------------------------------------------------------
# standard families


def empty_graph(n: int) -> Graph:
    return Graph(n)


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} with part 0..a-1 on one side and a..a+b-1 on the other."""
    if a < 0 or b < 0:
        raise DomainError(f"biclique sides must be nonnegative, got ({a}, {b})")
    return Graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def path_graph(n: int) -> Graph:
    """Path on n vertices (n - 1 edges)."""
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise DomainError(f"cycle needs at least 3 vertices, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star(m: int) -> Graph:
    """K_{1,m}: center 0 joined to leaves 1..m."""
    if m < 1:
        raise DomainError(f"star needs at least one leaf, got {m}")
    return Graph(m + 1, [(0, i) for i in range(1, m + 1)])


def make_double_star(n: int, m: int) -> Graph:
    """S_{n,m}: adjacent centers 0 and 1 of degrees n+1 and m+1.

    Vertex layout: 0 and 1 are the centers, 2..n+1 are the leaves of 0,
    and n+2..n+m+1 are the leaves of 1.
    """
    if n < 1 or m < 1:
        raise DomainError(f"double star needs n, m >= 1, got ({n}, {m})")
    edges = [(0, 1)]
    edges += [(0, 2 + i) for i in range(n)]
    edges += [(1, 2 + n + i) for i in range(m)]
    return Graph(n + m + 2, edges)


# ---------------------------------------------------------------------------
# predicates and decompositions


def is_connected(g: Graph) -> bool:
    if g.vertex_count <= 1:
        return True
    seen = {0}
    stack = [0]
    adj = g.adj
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.vertex_count


def _two_color(g: Graph) -> list[int] | None:
    """2-color every component via BFS; None if some component has an odd cycle."""
    color = [-1] * g.vertex_count
    adj = g.adj
    for s in range(g.vertex_count):
        if color[s] != -1:
            continue
        color[s] = 0
        queue = [s]
        while queue:
            u = queue.pop()
            for w in adj[u]:
                if color[w] == -1:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return None
    return color


def is_bipartite(g: Graph) -> bool:
    return _two_color(g) is not None


def is_tree(g: Graph) -> bool:
    return g.vertex_count >= 1 and g.edge_count == g.vertex_count - 1 and is_connected(g)


def bipartition(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The two parts of a connected bipartite graph, or None if odd cycles exist.

    The part containing vertex 0 comes first, both parts sorted, so the
    result is deterministic.  Disconnected input is a domain error because
    the split would not be unique.
    """
    if not is_connected(g):
        raise DomainError("bipartition requires a connected graph")
    color = _two_color(g)
    if color is None:
        return None
    part0 = tuple(v for v in range(g.vertex_count) if color[v] == 0)
    part1 = tuple(v for v in range(g.vertex_count) if color[v] == 1)
    return part0, part1


@dataclass(frozen=True)
class BipartiteProfile:
    """Part sizes and part max degrees of a connected bipartite graph.

    Canonical orientation: parts ordered by (n*delta, delta, n) descending,
    so n1*delta1 >= n2*delta2, with ties broken toward delta1 >= delta2.
    """

    n1: int
    n2: int
    delta1: int
    delta2: int

    @property
    def beta(self) -> int:
        """n1*delta1 + n2*delta2; orientation-independent."""
        return self.n1 * self.delta1 + self.n2 * self.delta2

    def swapped(self) -> "BipartiteProfile":
        return BipartiteProfile(self.n2, self.n1, self.delta2, self.delta1)


def profile(h: Graph) -> BipartiteProfile:
    """Canonical BipartiteProfile of a connected bipartite graph with >= 1 edge."""
    if h.edge_count == 0:
        raise DomainError("profile requires at least one edge")
    parts = bipartition(h)
    if parts is None:
        raise DomainError("profile requires a bipartite graph")
    a, b = parts
    da = max(h.degree(v) for v in a)
    db = max(h.degree(v) for v in b)
    key_a = (len(a) * da, da, len(a))
    key_b = (len(b) * db, db, len(b))
    if key_a >= key_b:
        return BipartiteProfile(len(a), len(b), da, db)
    return BipartiteProfile(len(b), len(a), db, da)


def beta(h: Graph) -> int:
    """beta of the profile of h: n1*delta1 + n2*delta2."""
    return profile(h).beta


def is_star(h: Graph) -> bool:
    """True iff h is K_{1,m} for some m >= 1 (equivalently some part max degree is 1)."""
    p = profile(h)
    return p.delta1 == 1 or p.delta2 == 1 or p.n1 == 1 or p.n2 == 1


def is_double_star(h: Graph) -> tuple[int, int] | None:
    """(n, m) with n >= m >= 1 if h is the double star S_{n,m}, else None."""
    if not is_tree(h):
        return None
    centers = [v for v in h.vertices() if h.degree(v) >= 2]
    if len(centers) != 2:
        return None
    # a vertex inside the path joining the two centers would be a third
    # center, so they are adjacent, and each has a leaf
    n, m = sorted((h.degree(v) - 1 for v in centers), reverse=True)
    return n, m


# ---------------------------------------------------------------------------
# subgraph helpers


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Relabelled induced subgraph plus the new->old vertex mapping."""
    keep = sorted(set(vertices))
    index = {v: i for i, v in enumerate(keep)}
    edges = [
        (index[u], index[v]) for u, v in g.edges if u in index and v in index
    ]
    return Graph(len(keep), edges), tuple(keep)


def edges_within(g: Graph, s: Iterable[int]) -> list[tuple[int, int]]:
    ss = set(s)
    return sorted(e for e in g.edges if e[0] in ss and e[1] in ss)


def peel(g: Graph, caps: Mapping[int, int]) -> list[tuple[int, int]]:
    """Repeatedly delete, among the vertices that are keys of caps, the one
    of lowest (degree, index) whose current degree is at most its cap,
    until none is eligible.

    Degrees count neighbors among the undeleted keys of caps only.  Returns
    the deletions as (vertex, degree at deletion) in order.  Degrees only
    fall, so an eligible vertex stays eligible; a heap holds one entry per
    change of an eligible vertex's degree and skips stale ones.
    """
    deg = {v: sum(1 for w in g.adj[v] if w in caps) for v in caps}
    heap = [(d, v) for v, d in deg.items() if d <= caps[v]]
    heapq.heapify(heap)
    deletions: list[tuple[int, int]] = []
    while heap:
        d, v = heapq.heappop(heap)
        if deg[v] != d:
            continue
        deletions.append((v, d))
        deg[v] = -1  # deleted: its stale entries and degree updates are skipped
        for w in g.adj[v]:
            dw = deg.get(w, -1) - 1
            if dw >= 0:
                deg[w] = dw
                if dw <= caps[w]:
                    heapq.heappush(heap, (dw, w))
    return deletions


# ---------------------------------------------------------------------------
# graph6 codec (McKay's format, one graph per string)

_G6_HEADER = ">>graph6<<"


def _g6_bits(data: bytes, start_offset: int) -> Iterator[int]:
    for i, byte in enumerate(data):
        if not 63 <= byte <= 126:
            raise Graph6Error(
                f"byte 0x{byte:02x} outside graph6 range", offset=start_offset + i
            )
        value = byte - 63
        for shift in (5, 4, 3, 2, 1, 0):
            yield (value >> shift) & 1


def parse_graph6(text: str | bytes) -> Graph:
    """Decode a graph6 string; errors carry the byte offset of the problem."""
    if isinstance(text, str):
        try:
            raw = text.encode("ascii")
        except UnicodeEncodeError as exc:
            raise Graph6Error(f"non-ASCII character {text[exc.start]!r} in graph6 input",
                              offset=exc.start) from None
    elif isinstance(text, (bytes, bytearray)):
        raw = bytes(text)
    else:
        raise Graph6Error(f"graph6 input must be str or bytes, not {type(text).__name__}")
    raw = raw.strip()
    if raw.startswith(_G6_HEADER.encode("ascii")):
        raw = raw[len(_G6_HEADER):]
    if not raw:
        raise Graph6Error("empty graph6 input", offset=0)
    pos = 0
    first = raw[0]
    if first == 126:
        if len(raw) >= 2 and raw[1] == 126:
            raise Graph6Error("graph6 8-byte vertex counts not supported", offset=0)
        if len(raw) < 4:
            raise Graph6Error("truncated graph6 vertex count", offset=len(raw))
        n = 0
        for i in range(1, 4):
            b = raw[i]
            if not 63 <= b <= 126:
                raise Graph6Error(f"byte 0x{b:02x} outside graph6 range", offset=i)
            n = (n << 6) | (b - 63)
        pos = 4
    else:
        if not 63 <= first <= 126:
            raise Graph6Error(f"byte 0x{first:02x} outside graph6 range", offset=0)
        n = first - 63
        pos = 1
    pair_count = n * (n - 1) // 2
    need = (pair_count + 5) // 6
    body = raw[pos:]
    if len(body) < need:
        raise Graph6Error(
            f"graph6 body too short: need {need} bytes, have {len(body)}",
            offset=pos + len(body),
        )
    if len(body) > need:
        raise Graph6Error(
            f"graph6 body too long: need {need} bytes, have {len(body)}",
            offset=pos + need,
        )
    edges = []
    bits = _g6_bits(body, pos)
    k = 0
    for v in range(1, n):
        for u in range(v):
            if next(bits) == 1:
                edges.append((u, v))
            k += 1
    # remaining bits are padding and must be zero
    pad_index = k
    for bit in bits:
        if bit != 0:
            raise Graph6Error(
                "nonzero padding bit in graph6 body", offset=pos + pad_index // 6
            )
        pad_index += 1
    return Graph(n, edges)


def emit_graph6(g: Graph) -> str:
    """Encode to graph6.  Vertex counts up to 258047 are supported."""
    n = g.vertex_count
    if n > 258047:
        raise Graph6Error(f"vertex count {n} exceeds the 3-byte graph6 form")
    if n < 63:
        head = chr(n + 63)
    else:
        head = chr(126) + "".join(
            chr(((n >> shift) & 63) + 63) for shift in (12, 6, 0)
        )
    bits: list[int] = []
    for v in range(1, n):
        for u in range(v):
            bits.append(1 if g.has_edge(u, v) else 0)
    while len(bits) % 6 != 0:
        bits.append(0)
    body = "".join(
        chr((bits[i] << 5 | bits[i + 1] << 4 | bits[i + 2] << 3
             | bits[i + 3] << 2 | bits[i + 4] << 1 | bits[i + 5]) + 63)
        for i in range(0, len(bits), 6)
    )
    return head + body


# ---------------------------------------------------------------------------
# edge-list codec: optional single-token vertex-count line, then "u v" lines


def parse_edge_list(text: str) -> Graph:
    declared_n: int | None = None
    edges: list[tuple[int, int]] = []
    max_seen = -1
    saw_edge_line = False
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) == 1:
            if saw_edge_line or declared_n is not None:
                raise EdgeListError(
                    "vertex-count line allowed only once, before any edge", lineno
                )
            try:
                declared_n = int(tokens[0])
            except ValueError:
                raise EdgeListError(f"expected an integer, got {tokens[0]!r}", lineno)
            if declared_n < 0:
                raise EdgeListError(f"negative vertex count {declared_n}", lineno)
            continue
        if len(tokens) != 2:
            raise EdgeListError(f"expected 'u v', got {line!r}", lineno)
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListError(f"non-integer endpoint in {line!r}", lineno)
        if u < 0 or v < 0:
            raise EdgeListError(f"negative vertex in {line!r}", lineno)
        if u == v:
            raise EdgeListError(f"self-loop at vertex {u}", lineno)
        if declared_n is not None and max(u, v) >= declared_n:
            raise EdgeListError(
                f"vertex {max(u, v)} exceeds declared vertex count {declared_n}",
                lineno,
            )
        saw_edge_line = True
        edges.append((u, v))
        max_seen = max(max_seen, u, v)
    n = declared_n if declared_n is not None else max_seen + 1
    return Graph(max(n, 0), edges)


def emit_edge_list(g: Graph) -> str:
    lines = [str(g.vertex_count)]
    lines += [f"{u} {v}" for u, v in g.sorted_edges()]
    return "\n".join(lines) + "\n"
