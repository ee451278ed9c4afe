"""Exact verification: subgraph search, edge colorings, and certificates.

Everything a coloring construction claims is re-checked here by explicit
search, never by trusting the construction.  The embedding search is a
plain backtracking algorithm over a connectivity-preserving vertex order
with degree pruning; it is exact and is itself cross-checked against a
brute-force oracle in the test suite.

A target and one vertex order are compiled into a plan (the order, each
position's earlier neighbors, each position's degree, each position's
last earlier twin) before any search runs it, and the search may
prescribe the images of the plan's first positions.  The target-free
coloring search compiles its anchored plans, whose first two positions
map onto the newly colored host edge, once per call and runs them at
every search node; the exact oracle compiles them once for every host it
searches.  There is one anchored plan per orbit of oriented target edges
under the target's automorphisms, not one per edge and orientation:
anchors in one orbit find a copy through the same host edges (see
_anchored_plans).

Two kernels run the plans, and neither calls the other.  The coloring
search holds its color classes as bitmasks and embeds through the new
edge with _embed_through_edge: candidate pools are ANDs of neighbor
masks, as in Ullmann's bit-vector refinement (J. ACM 1976).
find_subgraph and _mono_copy, which re-checks every free witness of the
coloring search, call _backtrack_embed on adjacency sets, one plan per
call.  Both kernels return the lex-least embedding, and the test suite
compares them copy for copy; a fault in the search's kernel then meets a
check that does not share it.

Twins are target vertices with the same open neighborhood (false twins,
such as the leaves of one star center) or the same closed neighborhood
(true twins, such as the vertices of a clique).  Swapping two twins is a
target automorphism, so the search takes twins' images in increasing
order and never tries the same copy once per ordering of its twins.  This
is the symmetry-breaking condition of Grochow & Kellis (RECOMB 2007) cut
down to twins; it returns exactly the embedding the search without it
returns (see _backtrack_embed).

The target-free coloring search breaks the symmetry of the host's twins
in the same spirit.  Swapping two host twins permutes the host edges, and
the search keeps only colorings whose tuple of colors, in sorted-edge
order, is lexicographically no greater than its image under each such
swap: the lex-leader constraints of Crawford, Ginsberg, Luks & Roy (KR
1996), beside the existing precedence of new colors.  All of them are
lex-leader constraints of one group, host automorphisms times color
permutations, on one edge order (Law & Lee, Constraints 2006).  The least
target-free coloring is no greater than any of its images, which are all
target-free, so it meets every constraint.  The search tries colors in
increasing order and finds that coloring first, so statuses and witness
colorings are those of the search without these cuts; only the node
counts fall (see backtrack_edge_coloring).
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import CertificateValidationError, DomainError
from .graphs import Graph, emit_graph6, is_connected, parse_graph6

__all__ = [
    "Embedding",
    "find_subgraph",
    "EdgeColoring",
    "ColoringPlan",
    "mono_copy",
    "max_mono_component",
    "Certificate",
    "verify_certificate",
    "certificate_to_json",
    "certificate_from_json",
    "backtrack_edge_coloring",
    "search_h_free_coloring",
]

Embedding = dict[int, int]

# ---------------------------------------------------------------------------
# embedding search


def _search_order(target: Graph, seed: tuple[int, ...] = ()) -> list[int]:
    """Vertex order that keeps every later vertex attached to an earlier one.

    Starts from the given seed vertices (used by the anchored search),
    otherwise from a maximum-degree vertex, and greedily appends the
    highest-degree attached vertex.  For connected targets every position
    after the first has at least one earlier neighbor.
    """
    n = target.vertex_count
    tadj = target.adj
    degs = target.degrees()
    order = list(seed)
    placed = set(order)
    # the vertices with a placed neighbor
    attached: set[int] = set()
    for v in order:
        attached |= tadj[v]
    while len(order) < n:
        best_key = None
        best_v = -1
        for v in range(n):
            if v in placed:
                continue
            key = (v in attached, degs[v], -v)
            if best_key is None or key > best_key:
                best_key = key
                best_v = v
        order.append(best_v)
        placed.add(best_v)
        attached |= tadj[best_v]
    return order


# a target compiled for one search order: (order, parents, need, twin),
# where parents[i] lists the earlier positions adjacent to position i,
# need[i] is its target degree, and twin[i] is the last earlier position
# whose vertex is a twin of position i's (same open or same closed
# neighborhood), or -1.  Twins are interchangeable: swapping two is a
# target automorphism, so the search may ask a twin's image to exceed the
# image of the twin before it (see _backtrack_embed)
_Plan = tuple[Sequence[int], list[list[int]], list[int], list[int]]


def _twin_labels(adj: Sequence[Iterable[int]]) -> list[int]:
    """label[v]: the least of v and its twins, so that twins, and only
    twins, share a label.  adj[v] holds the neighbors of v, as a set or
    a list.

    Twinship is an equivalence whose classes are cliques (true twins) or
    independent sets (false twins), never both for one vertex, and one
    dict holds both kinds of key: an open neighborhood N(u) never equals a
    closed one N[v], as v in N(u) would put u in N(v), a subset of N(u).
    """
    first: dict[frozenset[int], int] = {}
    label: list[int] = []
    for v, nbrs in enumerate(adj):
        nbrs = frozenset(nbrs)
        w = first.setdefault(nbrs, v)
        if w == v:
            w = first.setdefault(nbrs | {v}, v)
        label.append(w)
    return label


def _compile_plan(target: Graph, order: Sequence[int]) -> _Plan:
    """The plan of target for the given order.  It depends only on the
    target and the order, so a search that runs one order many times
    compiles it once."""
    tadj = target.adj
    label = _twin_labels(target.adj)
    pos = {v: i for i, v in enumerate(order)}
    parents = [[pos[w] for w in tadj[tv] if pos[w] < i]
               for i, tv in enumerate(order)]
    # twins form classes, so the last earlier one is the whole constraint
    twin: list[int] = []
    last: dict[int, int] = {}
    for i, tv in enumerate(order):
        twin.append(last.get(label[tv], -1))
        last[label[tv]] = i
    return order, parents, [len(tadj[tv]) for tv in order], twin


def _backtrack_embed(
    plan: _Plan,
    host_adj,
    host_vertices: Sequence[int],
    prefix: tuple[int, ...] = (),
) -> Embedding | None:
    """Depth-first search over the target vertices in the plan's order,
    with an explicit stack of candidate iterators, one per placed vertex.

    The first len(prefix) positions take only their prescribed images,
    which must be adjacent to their placed parents' images; a later
    position with placed parents takes the common host neighborhood of
    their images, in increasing order; any other takes host_vertices,
    which must be increasing.  A position whose last earlier twin also
    lies after the prefix takes only images above that twin's.  Every
    candidate needs at least the position's target degree.  host_adj is
    indexed directly, so every candidate must be one of its keys.

    The twin cut changes no result.  Candidates increase at every
    position after the prefix, so the search returns the embedding whose
    images, read in position order, are lexicographically least.  If twin
    positions t < i after the prefix had images[t] > images[i], swapping
    the two images would give another embedding with the same prefix, and
    a smaller one.  So the least embedding already meets the cut.
    """
    order, parents, need, twin = plan
    n = len(order)
    k = len(prefix)
    images: list[int] = [-1] * n
    used: set[int] = set()
    pending: list[Iterator[int]] = []
    i = 0
    while True:
        if i == n:
            return {order[j]: images[j] for j in range(n)}
        if i == len(pending):
            if i < k:
                cands: Sequence[int] = (prefix[i],)
            elif parents[i]:
                pool = set(host_adj[images[parents[i][0]]])
                for p in parents[i][1:]:
                    pool &= host_adj[images[p]]
                cands = sorted(pool)
            else:
                cands = host_vertices
            # twin[i] < i, so a twin after the prefix puts i after it too
            t = twin[i]
            if t >= k:
                cands = cands[bisect_right(cands, images[t]):]
            pending.append(iter(cands))
        else:
            # the deeper search below this vertex's image failed
            used.remove(images[i])
        for hv in pending[i]:
            nbrs = host_adj[hv]
            if hv in used or len(nbrs) < need[i]:
                continue
            if i < k and any(images[p] not in nbrs for p in parents[i]):
                continue
            images[i] = hv
            used.add(hv)
            i += 1
            break
        else:
            pending.pop()
            if i == 0:
                return None
            i -= 1


def _embed_through_edge(plan: _Plan, adj: Sequence[int], u: int, v: int
                        ) -> Embedding | None:
    """The embedding _backtrack_embed(plan, set_adj, (), (u, v)) returns,
    with the host given as bitmasks: bit w of adj[x] is set for each
    neighbor w of x, and uv is an edge.  The kernel of the target-free
    coloring search, in the manner of Ullmann's bit-vector refinement
    (J. ACM 1976).

    The plan is anchored, so its first two positions are adjacent and take
    u and v.  The target is connected, so every later position has a
    placed parent, and its candidates are the common neighbors of its
    parents' images less the used ones, above the image of its last
    earlier twin when that twin lies after the anchor.  Candidates are
    taken in increasing order, each needing at least the position's
    target degree, from an explicit stack of the remaining pools.
    """
    order, parents, need, twin = plan
    if adj[u].bit_count() < need[0] or adj[v].bit_count() < need[1]:
        return None
    n = len(order)
    images = [u, v] + [-1] * (n - 2)
    used = (1 << u) | (1 << v)
    pools: list[int] = []  # pools[j]: the untried candidates of position j + 2
    i = 2
    while i < n:
        if i - 2 == len(pools):
            ps = parents[i]
            pool = adj[images[ps[0]]] & ~used
            for p in ps[1:]:
                pool &= adj[images[p]]
            t = twin[i]
            if t >= 2:
                pool &= -(2 << images[t])
        else:
            # the deeper search below this position's image failed
            pool = pools.pop()
            used ^= 1 << images[i]
        while pool:
            low = pool & -pool
            pool ^= low
            hv = low.bit_length() - 1
            if adj[hv].bit_count() >= need[i]:
                pools.append(pool)
                images[i] = hv
                used |= low
                i += 1
                break
        else:
            if i == 2:
                return None
            i -= 1
    return {order[j]: images[j] for j in range(n)}


def find_subgraph(host: Graph, target: Graph) -> Embedding | None:
    """First injective edge-preserving embedding of target into host, or None.

    The copy need not be induced.  The target must be connected; the host
    may be anything.  Exactness of this search is what every certificate
    verdict in the package rests on.
    """
    if target.vertex_count > 0 and not is_connected(target):
        raise DomainError("find_subgraph requires a connected target")
    if target.vertex_count > host.vertex_count:
        return None
    if target.edge_count > host.edge_count:
        return None
    if target.max_degree() > host.max_degree():
        return None
    plan = _compile_plan(target, _search_order(target))
    return _backtrack_embed(plan, host.adj, range(host.vertex_count))


# ---------------------------------------------------------------------------
# edge colorings


class EdgeColoring:
    """A (possibly partial) assignment of colors 1..r to host edges."""

    __slots__ = ("host", "r", "colors")

    def __init__(
        self,
        host: Graph,
        r: int,
        colors: Mapping[tuple[int, int], int] | None = None,
    ):
        if r < 1:
            raise DomainError(f"palette size must be >= 1, got {r}")
        self.host = host
        self.r = r
        self.colors: dict[tuple[int, int], int] = {}
        if colors:
            for (u, v), c in colors.items():
                self.set(u, v, c)

    def set(self, u: int, v: int, c: int) -> None:
        e = (u, v) if u < v else (v, u)
        if e not in self.host.edges:
            raise DomainError(f"edge {e} not in host")
        if not 1 <= c <= self.r:
            raise DomainError(f"color {c} outside palette 1..{self.r}")
        self.colors[e] = c

    def get(self, u: int, v: int) -> int | None:
        return self.colors.get((u, v) if u < v else (v, u))

    def is_total(self) -> bool:
        return len(self.colors) == self.host.edge_count

    def used_colors(self) -> list[int]:
        return sorted(set(self.colors.values()))

    def classes(self) -> dict[int, list[tuple[int, int]]]:
        """Sorted edge list of each color in use; unused colors are absent,
        so the cost does not depend on the palette size."""
        out: dict[int, list[tuple[int, int]]] = {c: [] for c in self.used_colors()}
        for e, c in self.colors.items():
            out[c].append(e)
        for c in out:
            out[c].sort()
        return out

    def __repr__(self) -> str:
        return f"EdgeColoring(r={self.r}, colored={len(self.colors)}/{self.host.edge_count})"


@dataclass
class ColoringPlan:
    """How a coloring was produced: strategy name, vertex parts, parameters."""

    strategy: str
    parts: dict[str, tuple[int, ...]] = field(default_factory=dict)
    parameters: dict[str, object] = field(default_factory=dict)
    retries: int = 0


def mono_copy(coloring: EdgeColoring, target: Graph) -> tuple[int, Embedding] | None:
    """First (color, embedding) of a monochromatic copy of target, or None.

    Colors are scanned in increasing order; classes that are too small in
    edges, vertices, or max degree are skipped without search.
    """
    if target.vertex_count > 0 and not is_connected(target):
        raise DomainError("mono_copy requires a connected target")
    nt = target.vertex_count
    if target.edge_count == 0:
        # a copy of an edgeless target exists in every color class iff the
        # host has enough vertices; color 1 is reported by convention
        if nt <= coloring.host.vertex_count:
            return 1, {i: i for i in range(nt)}
        return None
    return _mono_copy(coloring, target,
                      _compile_plan(target, _search_order(target)))


def _mono_copy(coloring: EdgeColoring, target: Graph, plan: _Plan
               ) -> tuple[int, Embedding] | None:
    """mono_copy of a target with edges, searched with the given plan of
    it, run on the set kernel _backtrack_embed without prescribed images.
    Any plan finds a copy in a class that holds one, so a caller that
    needs only whether a copy exists may pass a plan it already compiled;
    the copy found may then differ from mono_copy's."""
    et = target.edge_count
    nt = target.vertex_count
    dt = target.max_degree()
    for c, edges in sorted(coloring.classes().items()):
        if len(edges) < et:
            continue
        adj = _class_adjacency(edges)
        if len(adj) < nt:
            continue
        if max(len(s) for s in adj.values()) < dt:
            continue
        # a connected target lies inside one component of the class, so
        # search component by component; classes built to keep every
        # component small are dismissed here without any backtracking
        for comp in _components(adj):
            if len(comp) < nt:
                continue
            if sum(len(adj[v]) for v in comp) // 2 < et:
                continue
            if max(len(adj[v]) for v in comp) < dt:
                continue
            emb = _backtrack_embed(plan, adj, sorted(comp))
            if emb is not None:
                return c, emb
    return None


def _class_adjacency(edges: Iterable[tuple[int, int]]) -> dict[int, set[int]]:
    """Adjacency of the graph the given edges span, keyed by its vertices."""
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def _components(adj: Mapping[int, set[int]]) -> Iterator[set[int]]:
    """Vertex sets of the components of adj, by increasing least vertex."""
    seen: set[int] = set()
    for start in sorted(adj):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        yield comp


def max_mono_component(coloring: EdgeColoring) -> dict[int, int]:
    """Largest connected component size (in vertices) of each color in use.

    Unused colors are absent; their components are single vertices."""
    return {c: max(map(len, _components(_class_adjacency(edges))))
            for c, edges in sorted(coloring.classes().items())}


# ---------------------------------------------------------------------------
# certificates


@dataclass
class Certificate:
    """A host coloring together with the claim it certifies.

    claimed_bound is the edge threshold of the construction that produced
    the coloring: the host must have strictly fewer edges, and the
    coloring must contain no monochromatic copy of the target.  The host
    is the coloring's; the certificate does not store it again.
    """

    target: Graph
    r: int
    coloring: EdgeColoring
    plan: ColoringPlan
    claimed_bound: Fraction
    theorem_tag: str
    seed: int | None = None
    verdict: str = "unverified"
    witness: dict | None = None

    @property
    def host(self) -> Graph:
        return self.coloring.host


def _structural_violations(cert: Certificate) -> list[str]:
    problems: list[str] = []
    if cert.r < 1:
        problems.append(f"r must be >= 1, got {cert.r}")
    if cert.claimed_bound <= 0:
        problems.append(f"claimed_bound must be positive, got {cert.claimed_bound}")
    for (u, v), c in sorted(cert.coloring.colors.items()):
        if not 1 <= c <= cert.r:
            problems.append(f"edge ({u}, {v}) has color {c} outside 1..{cert.r}")
    if not cert.coloring.is_total():
        missing = sorted(cert.host.edges - set(cert.coloring.colors))
        problems.append(f"coloring is partial; {len(missing)} uncolored edges, e.g. {missing[:3]}")
    if cert.coloring.r > cert.r:
        problems.append(f"coloring palette {cert.coloring.r} exceeds certificate r {cert.r}")
    if not (cert.host.edge_count < cert.claimed_bound):
        problems.append(
            f"host has {cert.host.edge_count} edges, not below the claimed bound "
            f"{cert.claimed_bound}"
        )
    if cert.target.vertex_count == 0:
        problems.append("target graph is empty")
    elif not is_connected(cert.target):
        problems.append("target graph is disconnected")
    return problems


def verify_certificate(cert: Certificate) -> Certificate:
    """Recompute the verdict of a certificate from scratch.

    Structural defects raise CertificateValidationError listing every
    violation found.  Otherwise the returned copy carries verdict
    'verified', or 'refuted' together with a witness.  The function is
    pure: identical input yields an identical verdict.

    After the coloring itself is checked, the claimed bound is recomputed
    from the theorem tag, the target and the palette (see
    colorings.certificate_bound).  A claim that differs, an unknown tag or
    a palette the tag cannot have is refuted with a witness of kind
    'bound' giving the recomputed bound, or None.
    """
    # colorings imports this module, so its bound formulas load lazily
    from .colorings import certificate_bound

    problems = _structural_violations(cert)
    if problems:
        raise CertificateValidationError(problems)
    hit = mono_copy(cert.coloring, cert.target)
    if hit is not None:
        color, emb = hit
        witness = {"kind": "mono_copy", "color": color,
                   "mapping": {int(k): int(v) for k, v in sorted(emb.items())}}
        return replace(cert, verdict="refuted", witness=witness)
    if cert.theorem_tag == "affine":
        # the tag and the target fix the bound, not the editable plan; an
        # unused color's single-vertex components never reach it, as a
        # target on one vertex is a monochromatic copy found above
        n_bound = cert.target.vertex_count
        comp = max_mono_component(cert.coloring)
        for c in sorted(comp):
            if comp[c] >= n_bound:
                witness = {"kind": "component", "color": c, "size": comp[c],
                           "bound": n_bound}
                return replace(cert, verdict="refuted", witness=witness)
    bound = certificate_bound(cert.theorem_tag, cert.target, cert.r)
    if bound != cert.claimed_bound:
        witness = {"kind": "bound", "theorem_tag": cert.theorem_tag,
                   "claimed": _jsonable(cert.claimed_bound),
                   "bound": _jsonable(bound)}
        return replace(cert, verdict="refuted", witness=witness)
    return replace(cert, verdict="verified", witness=None)


_SCHEMA_VERSION = 1


def certificate_to_json(cert: Certificate) -> str:
    """Deterministic JSON encoding: sorted keys, no timestamps, so identical
    certificates serialize to identical bytes."""
    doc = {
        "schema_version": _SCHEMA_VERSION,
        "host_graph6": emit_graph6(cert.host),
        "target_graph6": emit_graph6(cert.target),
        "r": cert.r,
        "strategy": cert.plan.strategy,
        "parameters": _jsonable(cert.plan.parameters),
        "plan_parts": {k: list(v) for k, v in sorted(cert.plan.parts.items())},
        "seed": cert.seed,
        "coloring": [[u, v, c] for (u, v), c in sorted(cert.coloring.colors.items())],
        "claimed_bound": {
            "num": cert.claimed_bound.numerator,
            "den": cert.claimed_bound.denominator,
        },
        "theorem_tag": cert.theorem_tag,
        "verdict": cert.verdict,
    }
    if cert.witness is not None:
        doc["witness"] = _jsonable(cert.witness)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _jsonable(value):
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)


def certificate_from_json(text: str) -> Certificate:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integers too long to convert,
        # RecursionError arrays or objects nested too deep to decode
        raise CertificateValidationError([f"malformed JSON: {exc}"])
    problems: list[str] = []
    if not isinstance(doc, dict):
        raise CertificateValidationError(["certificate document must be an object"])
    if doc.get("schema_version") != _SCHEMA_VERSION:
        problems.append(f"unsupported schema_version {doc.get('schema_version')!r}")
    required = ["host_graph6", "target_graph6", "r", "strategy", "coloring",
                "claimed_bound", "theorem_tag"]
    for key in required:
        if key not in doc:
            problems.append(f"missing field {key!r}")
    if problems:
        raise CertificateValidationError(problems)
    try:
        host = parse_graph6(doc["host_graph6"])
    except Exception as exc:
        problems.append(f"host_graph6: {exc}")
    try:
        target = parse_graph6(doc["target_graph6"])
    except Exception as exc:
        problems.append(f"target_graph6: {exc}")
    if problems:
        raise CertificateValidationError(problems)
    r = doc["r"]
    if type(r) is not int or r < 1:
        raise CertificateValidationError([f"r must be a positive integer, got {r!r}"])
    entries = doc["coloring"]
    if not isinstance(entries, list):
        raise CertificateValidationError([f"coloring {entries!r} is not a list"])
    coloring = EdgeColoring(host, r)
    for item in entries:
        if not (isinstance(item, list) and len(item) == 3
                and all(type(x) is int for x in item)):
            problems.append(f"coloring entry {item!r} is not [u, v, c] of integers")
            continue
        u, v, c = item
        try:
            coloring.set(u, v, c)
        except DomainError as exc:
            problems.append(str(exc))
    bound = doc["claimed_bound"]
    try:
        claimed = Fraction(bound["num"], bound["den"])
    except Exception:
        problems.append(f"claimed_bound {bound!r} is not a num/den object")
        claimed = Fraction(1)
    parts = doc.get("plan_parts", {})
    if not (isinstance(parts, dict) and all(
            isinstance(vs, list) and all(type(x) is int for x in vs)
            for vs in parts.values())):
        problems.append(f"plan_parts {parts!r} is not an object of integer lists")
    parameters = doc.get("parameters", {})
    if not isinstance(parameters, dict):
        problems.append(f"parameters {parameters!r} is not an object")
    for key in ("strategy", "theorem_tag", "verdict"):
        if not isinstance(doc.get(key, ""), str):
            problems.append(f"{key} {doc[key]!r} is not a string")
    seed = doc.get("seed")
    if seed is not None and type(seed) is not int:
        problems.append(f"seed {seed!r} is not an integer")
    if problems:
        raise CertificateValidationError(problems)
    plan = ColoringPlan(
        strategy=doc["strategy"],
        parts={k: tuple(v) for k, v in parts.items()},
        parameters=parameters,
    )
    return Certificate(
        target=target,
        r=r,
        coloring=coloring,
        plan=plan,
        claimed_bound=claimed,
        theorem_tag=doc["theorem_tag"],
        seed=seed,
        verdict=doc.get("verdict", "unverified"),
        witness=doc.get("witness"),
    )


# ---------------------------------------------------------------------------
# exhaustive edge-coloring search (shared by the oracle and the
# constructions' last-resort fallbacks)


def backtrack_edge_coloring(
    edges: Sequence[tuple[int, int]],
    r: int,
    admissible,
    node_budget: int | None = None,
    swaps: Sequence[Sequence[tuple[int, int]]] = (),
) -> tuple[str, dict[tuple[int, int], int] | None, int]:
    """Backtracking search for an r-coloring of edges, in the given order,
    such that admissible(adj, u, v) holds each time an edge (u, v) joins a
    color class whose adjacency (the edge included) is adj.  adj is a list
    of bitmasks indexed by vertex, 1 plus the largest endpoint long: bit w
    of adj[x] is set while xw has that color.  The predicate must not
    change it.

    Returns (status, coloring, nodes) where status is 'free' (coloring
    found), 'arrows' (search space exhausted, none exists), or 'unknown'
    (node budget hit).  Every color tried counts as a node.  The search
    keeps an explicit stack, so its depth is not bounded by the
    interpreter's recursion limit.

    Two kinds of symmetry are broken, both as lex-leader constraints
    x <=_lex g(x) (Crawford, Ginsberg, Luks & Roy, KR 1996), x being the
    tuple of colors in edge order:

    - colors: a new color comes only after every smaller one has
      appeared (value precedence), so x is least among its images under
      permutations of the colors;
    - edges: each entry of swaps lists the edge-index pairs (lo, hi),
      lo < hi, that one automorphism exchanges, sorted by lo, and fixes
      every other edge.  x <=_lex g(x) fails iff at the first pair whose
      colors differ, colors[lo] > colors[hi].  When a color is tried on
      edge i, each swap with a pair hi == i is rescanned: the scan stops
      at a pair whose hi is still uncolored, or whose colors differ, and
      the color is cut when colors[lo] > colors[hi] there.

    The cuts change no status and no coloring, provided that the finished
    colorings passing admissible at every edge (the valid ones) are closed
    under permuting the colors and under the automorphisms of swaps.  All
    the constraints then belong to one group acting on one edge order, as in
    Law & Lee (Constraints 2006).  Let x* be the lex-least valid coloring.
    Each of its images g(x*) is valid, so x* <=_lex g(x*) for every
    constraint, and no cut removes a prefix of x*.  The search tries
    colors in increasing order, so it meets valid colorings in lex order
    and returns x* with the cuts as without them, or finds that none
    exists.  The cut tree is a subtree of the uncut one, visited in the
    same order, so a search that ended within a node budget without the
    cuts returns the same result with them.
    """
    m = len(edges)
    nv = 1 + max((max(e) for e in edges), default=-1)
    # value precedence puts at most m colors in use
    class_adj = [[0] * nv for _ in range(min(r, m) + 1)]
    colors = [0] * m  # color currently placed on each edge, 0 for none
    used = [0] * (m + 1)  # used[i]: largest color among edges[:i]
    # watch[i]: the swaps to rescan when edge i takes a color
    watch: list[list[Sequence[tuple[int, int]]]] = [[] for _ in range(m)]
    for pairs in swaps:
        for _, hi in pairs:
            watch[hi].append(pairs)
    nodes = 0
    i = 0
    while 0 <= i < m:
        u, v = edges[i]
        c = colors[i]
        if c:
            # everything after edge i failed under color c; take it back
            adj = class_adj[c]
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
        limit = min(used[i] + 1, r)
        while c < limit:
            c += 1
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                return "unknown", None, nodes
            colors[i] = c
            if watch[i] and any(_after_its_swap(pairs, colors, i)
                                for pairs in watch[i]):
                continue
            adj = class_adj[c]
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
            if admissible(adj, u, v):
                used[i + 1] = max(used[i], c)
                i += 1
                break
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
        else:
            colors[i] = 0
            i -= 1
    if i < 0:
        return "arrows", None, nodes
    return "free", dict(zip(edges, colors)), nodes


def _after_its_swap(pairs: Sequence[tuple[int, int]], colors: list[int],
                    i: int) -> bool:
    """Whether colors, fixed on the edges up to i, already come after their
    image under the swap whose edge-index pairs (lo, hi) are given sorted
    by lo."""
    for lo, hi in pairs:
        if hi > i or colors[lo] < colors[hi]:
            return False
        if colors[lo] > colors[hi]:
            return True
    return False


def _host_twin_swaps(g: Graph) -> list[list[tuple[int, int]]]:
    """For each two consecutive twins a < b of g, the pairs (lo, hi) of
    indices into g.sorted_edges() that swapping a and b exchanges: lo of
    (a, w) and hi of (b, w) for each neighbor w of a other than b, which
    puts lo < hi.  Each list is sorted by lo.

    Swapping twins is a host automorphism that fixes every other edge.
    The swaps of consecutive members generate every permutation of a twin
    class, such as a side of K_{a,b}, all of K_n or the leaves of a star.
    Swaps that exchange no edges, of isolated vertices, are left out.
    """
    swaps = []
    # row[v][w]: the index of edge vw, built at the first twin pair
    row: list[dict[int, int]] = []
    last: dict[int, int] = {}  # the latest member of each twin class
    for b, lab in enumerate(_twin_labels(g.adj)):
        a = last.get(lab, b)
        last[lab] = b
        if a == b:
            continue
        if not row:
            row = [{} for _ in range(g.vertex_count)]
            for k, (x, y) in enumerate(g.sorted_edges()):
                row[x][y] = row[y][x] = k
        pairs = sorted((row[a][w], row[b][w]) for w in row[a] if w != b)
        if pairs:
            swaps.append(pairs)
    return swaps


def search_h_free_coloring(
    g: Graph,
    target: Graph,
    r: int,
    node_budget: int | None = None,
) -> tuple[str, dict[tuple[int, int], int] | None, int]:
    """Backtracking search for an r-coloring of g with no monochromatic target.

    Returns (status, coloring, nodes) as backtrack_edge_coloring does, over
    the host edges in sorted order.  An edge is admissible in a color when
    no copy of the target in that class uses it, so the valid colorings
    are the target-free ones, closed under permuting the colors and under
    every host automorphism.  The search breaks the symmetry of the host's
    twins (see _host_twin_swaps) besides that of the colors.  By the
    argument in backtrack_edge_coloring, the status and the coloring are
    those of the search without the twin cuts, the lex-least target-free
    coloring in sorted-edge order; only the node count falls.
    """
    if node_budget is not None and node_budget < 0:
        raise DomainError(f"need node_budget >= 0, got {node_budget}")
    return _search_h_free(g, _anchored_plans(target), r, node_budget)


def _anchored_plans(target: Graph) -> list[_Plan]:
    """One anchored plan per orbit of oriented target edges under the
    target's automorphisms, its order starting with the orbit's first
    oriented edge (x, y) in sorted-edge order: the plans of a target-free
    coloring search.  plans[0] is that of the first sorted edge in its
    first orientation.  They depend only on the target, so a caller that
    searches many hosts for one target compiles them once.

    An oriented edge (x', y') lies in the orbit of a kept (x, y) exactly
    when the plan of (x, y) embeds the target into itself with prefix
    (x', y'): an injective edge-preserving self-map of a finite graph is
    an automorphism.  Automorphisms keep degrees, so anchors of other
    degrees skip that search.  A copy of the target through the host edge
    uv anchored at (x, y) becomes, composed with an automorphism, one
    anchored at any other member of the orbit, so the kept plans find a
    copy through uv exactly when all 2·e(H) plans do, and statuses,
    witnesses and node counts are those of the search over all of them.

    Were an orbit wrongly merged, admissibility could only loosen: the
    search could answer "free" but never a wrong "arrows".  oracle.arrows
    re-checks a free witness with mono_copy, and the exact oracle with
    _mono_copy over plans[0]; both raise on a monochromatic copy.  A
    witness that passes is target-free, hence, as in
    backtrack_edge_coloring, the lex-least target-free coloring.
    """
    if target.edge_count == 0:
        raise DomainError("search needs a target with at least one edge")
    if not is_connected(target):
        raise DomainError("search needs a connected target")
    degs = target.degrees()
    anchors: list[tuple[int, int]] = []
    plans: list[_Plan] = []
    for a, b in target.sorted_edges():
        for x, y in ((a, b), (b, a)):
            if any(degs[x] == degs[p] and degs[y] == degs[q]
                   and _backtrack_embed(plan, target.adj, (), (x, y)) is not None
                   for (p, q), plan in zip(anchors, plans)):
                continue
            anchors.append((x, y))
            plans.append(_compile_plan(target, _search_order(target, seed=(x, y))))
    return plans


def _search_h_free(g: Graph, plans: list[_Plan], r: int,
                   node_budget: int | None
                   ) -> tuple[str, dict[tuple[int, int], int] | None, int]:
    """search_h_free_coloring over the target's _anchored_plans."""

    def no_copy_through(adj, u, v) -> bool:
        for plan in plans:
            if _embed_through_edge(plan, adj, u, v) is not None:
                return False
        return True

    # one color leaves every coloring fixed by every swap: nothing to cut
    swaps = _host_twin_swaps(g) if r > 1 else []
    return backtrack_edge_coloring(g.sorted_edges(), r, no_copy_through,
                                   node_budget, swaps)
