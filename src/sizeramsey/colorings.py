"""Adversary edge colorings that certify size-Ramsey lower bounds.

Each constructor colors a host graph whose edge count is below the
threshold of the corresponding bound, in a way that provably leaves no
monochromatic copy of the target.  Constructions never self-certify:
`certify` runs the exact verifier over the finished coloring and only a
verifier pass yields the verdict "verified".  The target-free fallback
lives in `certify` too, for every strategy: when the verifier finds a
monochromatic copy, an exhaustive target-free search recolors the host
with the same palette and the recoloring is verified in its place.

Every edge threshold is written once, in the `_*_bound` functions of the
"edge thresholds" section below; each construction's precondition,
`strategy_bound`, `lower_bound_value` and the exact search in `oracle`
all call them.

Every construction takes the host and the target it colors against, and
derives the target's profile or double-star shape itself.

Randomized steps are Las Vegas: partitions are resampled under a seeded
RNG until the exact success condition holds, so a returned coloring is
always sound and only the retry count varies with the seed.  A plan's
`retries` counts the re-draws after the first; after _MAX_RETRIES draws
without success the construction raises LasVegasError.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from dataclasses import replace
from fractions import Fraction
from math import comb

from .errors import (
    CapacityError,
    ConstructionError,
    DomainError,
    LasVegasError,
)
from .geometry import (
    MAX_FIELD_SIZE,
    make_affine_plane,
    q_for_partition,
    q_for_ramsey,
)
from .graphs import (
    BipartiteProfile,
    Graph,
    beta,
    complete_graph,
    edges_within,
    induced_subgraph,
    is_bipartite,
    is_connected,
    is_double_star,
    is_star,
    profile,
)
from .verify import (
    Certificate,
    ColoringPlan,
    EdgeColoring,
    backtrack_edge_coloring,
    search_h_free_coloring,
    verify_certificate,
)

__all__ = [
    "vizing_bucket_coloring",
    "affine_component_coloring",
    "beck_coloring",
    "chi3_coloring",
    "weakbip_coloring",
    "gen2_coloring",
    "double_star_coloring",
    "double_star_2coloring",
    "scaled_nonstar_coloring",
    "scaled_bipartite_coloring",
    "lower_bound_value",
    "strategy_bound",
    "certificate_bound",
    "certify",
    "STRATEGIES",
]


# ---------------------------------------------------------------------------
# proper edge coloring (fan recoloring), the engine behind the bucket lemma


class _PaletteStuck(Exception):
    def __init__(self, vertex: int):
        super().__init__(f"no free color at vertex {vertex}")
        self.vertex = vertex


class _ProperState:
    __slots__ = ("palette", "at", "colors")

    def __init__(self, palette: int):
        self.palette = palette
        self.at: dict[int, dict[int, int]] = defaultdict(dict)
        self.colors: dict[tuple[int, int], int] = {}

    def first_free(self, v: int) -> int | None:
        row = self.at[v]
        for c in range(1, self.palette + 1):
            if c not in row:
                return c
        return None

    def set(self, u: int, v: int, c: int) -> None:
        e = (u, v) if u < v else (v, u)
        self.colors[e] = c
        self.at[u][c] = v
        self.at[v][c] = u

    def unset(self, u: int, v: int) -> int:
        e = (u, v) if u < v else (v, u)
        c = self.colors.pop(e)
        del self.at[u][c]
        del self.at[v][c]
        return c

    def color_of(self, u: int, v: int) -> int | None:
        return self.colors.get((u, v) if u < v else (v, u))


def _mg_insert(st: _ProperState, u: int, v: int) -> None:
    """Color edge (u, v) by the fan/path recoloring step.

    Always succeeds when the palette exceeds the max degree; with a tight
    palette it may raise _PaletteStuck, which callers turn into an
    exhaustive fallback.
    """
    # maximal fan of u starting at v
    fan = [v]
    fan_set = {v}
    while True:
        last = fan[-1]
        nxt = None
        for c, w in sorted(st.at[u].items()):
            if c not in st.at[last] and w not in fan_set:
                nxt = w
                break
        if nxt is None:
            break
        fan.append(nxt)
        fan_set.add(nxt)
    c = st.first_free(u)
    if c is None:
        raise _PaletteStuck(u)
    d = st.first_free(fan[-1])
    if d is None:
        raise _PaletteStuck(fan[-1])
    if d not in st.at[u]:
        _rotate_and_set(st, u, fan, len(fan) - 1, d)
        return
    # invert the maximal cd-alternating path starting at u along color d
    path: list[tuple[int, int, int]] = []
    cur, expect = u, d
    while True:
        nxt = st.at[cur].get(expect)
        if nxt is None:
            break
        path.append((cur, nxt, expect))
        cur = nxt
        expect = c if expect == d else d
    for x, y, _ in path:
        st.unset(x, y)
    for x, y, col in path:
        st.set(x, y, c if col == d else d)
    # first fan prefix that is still a fan and ends where d is free
    for i, w in enumerate(fan):
        if d in st.at[w]:
            continue
        ok = True
        for j in range(1, i + 1):
            cc = st.color_of(u, fan[j])
            if cc is None or cc in st.at[fan[j - 1]]:
                ok = False
                break
        if ok:
            _rotate_and_set(st, u, fan, i, d)
            return
    # only reachable when the palette equals the max degree; the caller
    # falls back to an exhaustive search
    raise _PaletteStuck(u)


def _rotate_and_set(st: _ProperState, u: int, fan: list[int], i: int, d: int) -> None:
    shifted = [st.color_of(u, fan[j]) for j in range(1, i + 1)]
    for j in range(1, i + 1):
        st.unset(u, fan[j])
    for j, col in enumerate(shifted):
        st.set(u, fan[j], col)
    st.set(u, fan[i], d)


def _exhaustive_proper(edges: list[tuple[int, int]], palette: int
                       ) -> dict[tuple[int, int], int] | None:
    """Complete search for a proper edge coloring; None when impossible.

    Only attempted on at most 24 edges, as a fallback when the fan
    algorithm stalls on a palette equal to the max degree.
    """
    if len(edges) > 24:
        return None

    def ends_alone(adj, u, v) -> bool:
        return adj[u].bit_count() == 1 and adj[v].bit_count() == 1

    _, found, _ = backtrack_edge_coloring(edges, palette, ends_alone)
    return found


def _proper_coloring(edges: list[tuple[int, int]], palette: int) -> _ProperState:
    st = _ProperState(palette)
    try:
        for u, v in edges:
            _mg_insert(st, u, v)
    except _PaletteStuck as exc:
        found = _exhaustive_proper(edges, palette)
        if found is None:
            raise ConstructionError(
                f"no proper edge coloring with {palette} colors exists or was found "
                f"(stuck near vertex {exc.vertex})"
            )
        st = _ProperState(palette)
        for (u, v), c in found.items():
            st.set(u, v, c)
    return st


# ---------------------------------------------------------------------------
# edge thresholds, one per theorem tag: each construction's precondition,
# strategy_bound and lower_bound_value all read them from here

_STAR_TARGET = "target is a star; the star bound is exact instead"


def _pigeonhole_bound(m: int, r: int) -> int:
    """r(m - 1) + 1 for a target with m edges: a host with fewer edges
    splits into r colors of at most m - 1 edges each, none holding the
    target.  Exact for the star with m edges."""
    return r * (m - 1) + 1


def _nonstar_edges_bound(m: int, r: int) -> Fraction:
    """r^2 e(H) / 64 for a non-star H with m edges and r >= 6."""
    return Fraction(r * r * m, 64)


def _nonstar_beta_bound(b: int, r: int) -> Fraction:
    """r^2 beta(H) / 2048 for a bipartite non-star H and r >= 16."""
    return Fraction(r * r * b, 2048)


def _beck_bound(b: int) -> Fraction:
    """Beck's 2-color threshold beta(H)/4, with beta = n1 delta1 + n2 delta2."""
    return Fraction(b, 4)


def _oriented_delta_first(prof: BipartiteProfile) -> BipartiteProfile:
    return prof if prof.delta1 >= prof.delta2 else prof.swapped()


def _weakbip_bound(prof: BipartiteProfile, r: int) -> Fraction:
    """r^2 (delta2 - 1)(n1 + n2) / 4, the parts oriented delta1 >= delta2."""
    p = _oriented_delta_first(prof)
    if p.delta2 < 2:
        raise DomainError(_STAR_TARGET)
    return Fraction(r * r * (p.delta2 - 1) * (p.n1 + p.n2), 4)


def _gen2_bound(prof: BipartiteProfile, r: int) -> Fraction:
    """r^2 (delta1 - 1) n1 / 4 in canonical orientation."""
    if min(prof.delta1, prof.delta2) < 2 or min(prof.n1, prof.n2) < 2:
        raise DomainError(_STAR_TARGET)
    return Fraction(r * r * (prof.delta1 - 1) * prof.n1, 4)


def _chi3_bound(m: int, r: int) -> Fraction:
    """r^2 e(H) / 4 for a non-bipartite H with m edges."""
    return Fraction(r * r * m, 4)


def _double_star_shape(h: Graph) -> tuple[int, int]:
    """(n, m) with n >= m of a double star target S_{n,m}."""
    ds = is_double_star(h)
    if ds is None:
        raise DomainError("target is not a double star")
    return ds


def _double_star_bound(n: int, m: int, r: int) -> Fraction:
    """(r^2 - 1)(nm + m^2) / 16 for S_{n,m}."""
    return Fraction((r * r - 1) * (n * m + m * m), 16)


def _double_star_2col_bound(n: int, m: int) -> Fraction:
    """beta(S_{n,m})/4 + (m+1)^2/2 with two colors; beta/4 = (n+1)(m+1)/2."""
    return Fraction((n + 1) * (m + 1), 2) + Fraction((m + 1) ** 2, 2)


def _affine_bound(n: int, r: int) -> Fraction:
    """C(capacity, 2) + 1 for a target on n vertices: the capacity clique
    of the affine blow-up (_affine_cells) is the largest host it colors."""
    return Fraction(comb(_affine_cells(r, n)[2], 2) + 1)


def _require_below(g: Graph, bound: Fraction) -> None:
    if g.edge_count >= bound:
        raise DomainError(
            f"host has {g.edge_count} edges; the construction needs fewer than {bound}"
        )


def _degree_split(g: Graph, cap: int, y_limit: Fraction | int
                  ) -> tuple[frozenset[int], list[int]]:
    """X, the vertices of degree at most cap, and Y, the others in order.

    Below the construction's edge threshold Y has fewer than y_limit
    vertices, so a larger Y means the threshold was not met.
    """
    x = frozenset(v for v in g.vertices() if g.degree(v) <= cap)
    y = sorted(set(g.vertices()) - x)
    if not len(y) < y_limit:
        raise ConstructionError(
            f"{len(y)} high-degree vertices contradict the edge precondition"
        )
    return x, y


# ---------------------------------------------------------------------------
# steps shared by several constructions


def _split_2coloring(g: Graph, x) -> dict[tuple[int, int], int]:
    """Red (1) on the edges leaving X, blue (2) on the edges on either side."""
    return {(u, v): 1 if (u in x) != (v in x) else 2 for u, v in g.edges}


def _cell_coloring(edges, cell: dict[int, int], plane, base: int
                   ) -> dict[tuple[int, int], int]:
    """Color an edge inside one cell `base`, and an edge between two cells
    `base` plus the parallel class of the line through them.

    Lines of one class are disjoint, so every monochromatic component lies
    in the cells of a single line.
    """
    out = {}
    for u, v in edges:
        cu, cv = cell[u], cell[v]
        out[(u, v)] = base if cu == cv else base + plane.class_of_pair(cu, cv)
    return out


# draws a Las Vegas step makes before it gives up
_MAX_RETRIES = 1000


def _resample(seed: int, draw, judge, failure: str, statistic: str):
    """Las Vegas loop: draw from one seeded RNG until judge accepts.

    judge(sample) returns (statistic, accepted).  Returns the accepted
    sample, the smallest statistic seen and the number of re-draws after
    the first; after _MAX_RETRIES draws raises LasVegasError instead.
    """
    rng = random.Random(seed)
    best = None
    for retries in range(_MAX_RETRIES):
        sample = draw(rng)
        stat, ok = judge(sample)
        if best is None or stat < best:
            best = stat
        if ok:
            return sample, best, retries
    raise LasVegasError(failure, retries=_MAX_RETRIES, best=f"{statistic} {best}")


# ---------------------------------------------------------------------------
# the bucket lemma: rk proper colors grouped into r buckets of width k


def _bucketed(edges, x, r: int, k: int) -> dict[tuple[int, int], int]:
    """The bucket lemma: colors 1..r on every edge of `edges` incident with
    X, each vertex of X meeting every color at most k times.  Every vertex
    of X must have at most rk of these edges.

    A proper coloring of the edges inside X with rk colors is extended over
    the X-leaving edges by giving each X endpoint pairwise distinct unused
    colors; colors (i-1)k+1 .. ik then form bucket i.
    """
    st = _proper_coloring(sorted(e for e in edges if e[0] in x and e[1] in x), r * k)
    for u, v in sorted(e for e in edges if (e[0] in x) != (e[1] in x)):
        xe = u if u in x else v
        # xe has at most rk of the edges and this one is uncolored, so one
        # of the rk colors is free there; the outside endpoint is unconstrained
        c = st.first_free(xe)
        st.colors[(u, v)] = c
        st.at[xe][c] = v if xe == u else u
    return {e: (c - 1) // k + 1 for e, c in st.colors.items()}


def vizing_bucket_coloring(g: Graph, x_set, r: int, k: int
                           ) -> tuple[EdgeColoring, ColoringPlan]:
    """Color every edge incident with X using r colors so that each vertex
    of X has degree at most k in every color, by the bucket lemma
    (_bucketed).

    Vertices of X with degree above rk make the guarantee impossible and
    raise a ConstructionError naming the vertex.
    """
    if r < 1 or k < 1:
        raise DomainError(f"need r >= 1 and k >= 1, got r={r}, k={k}")
    x = frozenset(x_set)
    for v in x:
        if not 0 <= v < g.vertex_count:
            raise DomainError(f"X contains vertex {v} outside the host")
    palette = r * k
    for v in sorted(x):
        if g.degree(v) > palette:
            raise ConstructionError(
                f"vertex {v} has degree {g.degree(v)} > r*k = {palette}; "
                "the per-color degree bound cannot hold"
            )
    coloring = EdgeColoring(g, r, _bucketed(g.edges, x, r, k))
    soft = [v for v in sorted(x) if g.degree(v) == palette]
    plan = ColoringPlan(
        strategy="vizing_bucket",
        parts={"X": tuple(sorted(x))},
        parameters={"r": r, "k": k, "palette": palette,
                    "tight_degree_vertices": soft},
    )
    return coloring, plan


# ---------------------------------------------------------------------------
# coloring the small leftover part (Y or V0) with a fresh palette


def _component_bounded_search(edges: list[tuple[int, int]], num_colors: int,
                              n_bound: int) -> dict[tuple[int, int], int] | None:
    """Exhaustively color edges with num_colors so every monochromatic
    component stays below n_bound vertices; None if impossible or after
    200,000 search nodes."""

    def component_small(adj, u, v) -> bool:
        # seen and frontier are vertex masks; the frontier's vertices are
        # seen but their neighbors not yet added
        seen = frontier = 1 << u
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = adj[low.bit_length() - 1] & ~seen
            if new:
                seen |= new
                if seen.bit_count() >= n_bound:
                    return False
                frontier |= new
        return True

    _, found, _ = backtrack_edge_coloring(edges, num_colors, component_small,
                                          200_000)
    return found


def _color_small_part(g: Graph, vertices, n_bound: int, first_color: int,
                      num_colors: int, target: Graph
                      ) -> tuple[dict[tuple[int, int], int], str]:
    """Color the edges inside `vertices` with a fresh palette so that no
    color class has a connected component on n_bound or more vertices.

    Tries, in order: nothing to do; a single color (valid when the part is
    smaller than n_bound); an affine blow-up; a small exhaustive search;
    and a target-free coloring search whose result is sound for the
    certificate even without the component bound.
    """
    vs = sorted(set(vertices))
    edges = edges_within(g, vs)
    if not edges:
        return {}, "empty"
    if len(vs) < n_bound:
        return {e: first_color for e in edges}, "single"
    if num_colors >= 3:
        q, s, capacity = _affine_cells(num_colors, n_bound)
        if len(vs) <= capacity:
            cell = {v: i // s for i, v in enumerate(vs)}
            return (_cell_coloring(edges, cell, make_affine_plane(q), first_color),
                    "affine")
    if len(edges) <= 30:
        found = _component_bounded_search(edges, num_colors, n_bound)
        if found is not None:
            return ({e: first_color + c - 1 for e, c in found.items()},
                    "exhaustive")
    sub, mapping = induced_subgraph(g, vs)
    status, colors, _ = search_h_free_coloring(sub, target, num_colors,
                                               node_budget=2_000_000)
    if status == "free" and colors is not None:
        out = {}
        for (a, b), c in colors.items():
            u, v = mapping[a], mapping[b]
            e = (u, v) if u < v else (v, u)
            out[e] = first_color + c - 1
        return out, "h_free"
    raise ConstructionError(
        f"cannot color a part of {len(vs)} vertices and {len(edges)} edges "
        f"with {num_colors} colors under component bound {n_bound}"
    )


# ---------------------------------------------------------------------------
# affine blow-up coloring of complete hosts


def _affine_cells(r: int, n: int) -> tuple[int, int, int]:
    """(q, s, capacity) of the affine blow-up that r-colors a clique with
    every monochromatic component below n vertices: the q^2 points of
    AG(2, q), q = q_for_ramsey(r), become cells of s = (n - 1) // q
    vertices, q*q*s in all.

    When (r + 2) // 2 >= n every candidate q exceeds n - 1, so the cells
    are empty; (0, 0, 0) is returned without the search for q, whose trial
    division would cost time growing with sqrt(r).
    """
    if r >= 3 and (r + 2) // 2 >= n:
        return 0, 0, 0
    q = q_for_ramsey(r)
    s = (n - 1) // q
    return q, s, q * q * s


def affine_component_coloring(N: int, n: int, r: int
                              ) -> tuple[EdgeColoring, ColoringPlan]:
    """r-color K_N so every monochromatic component has fewer than n vertices.

    Points of AG(2, q) become cells of floor((n-1)/q) consecutive vertices;
    an edge between distinct cells takes the parallel class of the line
    through them, and edges inside a cell join the slope-0 class.  Every
    monochromatic component then lies inside one line's cell union, which
    has at most q*floor((n-1)/q) <= n-1 vertices.

    When every cell is empty (see _affine_cells), the plan records q,
    cell size and capacity 0, and only a host on at most one vertex fits.
    """
    if r < 3:
        raise DomainError(f"affine coloring needs r >= 3, got {r}")
    if n < 2:
        raise DomainError(f"component bound n must be >= 2, got {n}")
    q, s, capacity = _affine_cells(r, n)
    host = complete_graph(N)
    plan = ColoringPlan(
        strategy="affine",
        parameters={"q": q, "cell_size": s, "capacity": capacity,
                    "n": n, "r": r},
    )
    if n < r * r:
        plan.parameters["below_recommended_n"] = True
    if N <= 1:
        return EdgeColoring(host, r), plan
    if N > capacity:
        raise CapacityError(
            f"K_{N} exceeds the affine blow-up with cells of {s}",
            max_value=capacity,
        )
    cell = {v: v // s for v in range(N)}
    colors = _cell_coloring(host.edges, cell, make_affine_plane(q), 1)
    _indexed_parts(plan.parts, "cell", cell)
    return EdgeColoring(host, r, colors), plan


# ---------------------------------------------------------------------------
# the 2-color split construction


def beck_coloring(g: Graph, h: Graph) -> tuple[EdgeColoring, ColoringPlan]:
    """Red/blue coloring leaving no monochromatic h when e(g) < beta(h)/4.

    X collects the vertices of degree below delta1 of h's canonical
    profile (n1*delta1 >= n2*delta2, on which the counting argument
    depends); edges across the X/Y split go red (1), edges inside either
    side go blue (2).
    """
    prof = profile(h)
    _require_below(g, _beck_bound(prof.beta))
    x = frozenset(v for v in g.vertices() if g.degree(v) < prof.delta1)
    plan = ColoringPlan(
        strategy="beck",
        parts={"X": tuple(sorted(x)),
               "Y": tuple(sorted(set(g.vertices()) - x))},
        parameters={"delta1": prof.delta1, "beta": prof.beta},
    )
    return EdgeColoring(g, 2, _split_2coloring(g, x)), plan


# ---------------------------------------------------------------------------
# coloring against non-bipartite targets


def chi3_coloring(g: Graph, h: Graph, r: int, seed: int = 0
                  ) -> tuple[EdgeColoring, ColoringPlan]:
    """Color g with at most 3r colors leaving no monochromatic copy of a
    non-bipartite h, provided e(g) < r^2 e(h) / 4.

    High-degree vertices V0 are handled separately; one color isolates the
    bipartite V0/rest interface (no odd cycle fits there); the rest is
    randomly partitioned into q^2 cells of an affine plane and resampled
    until every line's cell union spans fewer than e(h) edges, after which
    coloring cross-cell edges by parallel class confines every
    monochromatic component to one such union.
    """
    if r < 2:
        raise DomainError(f"chi3 coloring needs r >= 2, got {r}")
    if r > MAX_FIELD_SIZE:
        # its plane's order q_for_partition(r) >= r would exceed every field
        raise DomainError(
            f"chi3 coloring needs r <= {MAX_FIELD_SIZE}, the largest field size, "
            f"got {r}")
    if not is_connected(h) or h.edge_count == 0:
        raise DomainError("target must be connected with at least one edge")
    if is_bipartite(h):
        raise DomainError("target must be non-bipartite; use a bipartite construction")
    m = h.edge_count
    _require_below(g, _chi3_bound(m, r))
    v0 = sorted(v for v in g.vertices() if g.degree(v) ** 2 > r * r * m)
    rest = sorted(set(g.vertices()) - set(v0))
    colors: dict[tuple[int, int], int] = {}
    inner, inner_method = _color_small_part(
        g, v0, n_bound=h.vertex_count, first_color=1, num_colors=r, target=h
    )
    colors.update(inner)
    v0set = set(v0)
    for u, v in g.edges:
        if (u in v0set) != (v in v0set):
            colors[(u, v)] = r + 1
    # Las Vegas cell partition of the remaining vertices
    q = q_for_partition(r)
    plane = make_affine_plane(q)
    lines_through: list[list[int]] = [[] for _ in range(q * q)]
    for lid, pts in enumerate(plane.lines):
        for p in pts:
            lines_through[p].append(lid)
    rest_edges = edges_within(g, rest)

    def peak_line_load(cell: dict[int, int]) -> tuple[int, bool]:
        loads = [0] * len(plane.lines)
        for u, v in rest_edges:
            cu, cv = cell[u], cell[v]
            if cu == cv:
                for lid in lines_through[cu]:
                    loads[lid] += 1
            else:
                lid, _ = plane.line_through(cu, cv)
                loads[lid] += 1
        peak = max(loads, default=0)
        return peak, peak < m

    cell, best_load, retries = _resample(
        seed, lambda rng: {v: rng.randrange(q * q) for v in rest},
        peak_line_load, f"no cell partition with all line loads below {m}",
        "best peak line load")
    colors.update(_cell_coloring(rest_edges, cell, plane, r + 2))
    parts: dict[str, tuple[int, ...]] = {"V0": tuple(v0)}
    _indexed_parts(parts, "cell", cell)
    plan = ColoringPlan(
        strategy="chi3",
        parts=parts,
        parameters={"q": q, "m": m, "r": r, "v0_method": inner_method,
                    "max_line_load": best_load},
        retries=retries,
    )
    return EdgeColoring(g, 3 * r, colors), plan


# ---------------------------------------------------------------------------
# bipartite constructions


def weakbip_coloring(g: Graph, h: Graph, r: int
                     ) -> tuple[EdgeColoring, ColoringPlan]:
    """Color g with at most 2r colors against a bipartite non-star h,
    provided e(g) < r^2 (delta2 - 1)(n1 + n2) / 4 with delta2 the smaller
    of the two part max degrees.

    Low-degree vertices X get the bucket lemma over all their edges with
    width delta2 - 1; the few remaining vertices Y span few edges and get a
    fresh palette under the component bound n1 + n2.

    The coloring is returned unverified, and it has a narrow unsound
    regime.  In a bucket color every X vertex has degree at most
    k = delta2 - 1, so each vertex of H of degree above k must map into Y;
    when no two of them are adjacent, all their edges can run between Y
    and X inside one bucket color.  For example, with r = 2 on the host
    Ho}?pRW this leaves a copy of the 8-vertex tree GsOGGG in color 1: the
    tree's two degree-3 vertices are at distance 3 and k = 2.  `certify`
    finds such a copy and falls back to a target-free search.
    """
    if r < 2:
        raise DomainError(f"weakbip coloring needs r >= 2, got {r}")
    p = _oriented_delta_first(profile(h))
    _require_below(g, _weakbip_bound(p, r))
    k = p.delta2 - 1
    x, y = _degree_split(g, r * k - 1, Fraction(r * (p.n1 + p.n2), 2))
    colors = _bucketed(g.edges, x, r, k)
    y_colors, y_method = _color_small_part(
        g, y, n_bound=p.n1 + p.n2, first_color=r + 1, num_colors=r, target=h
    )
    colors.update(y_colors)
    plan = ColoringPlan(
        strategy="weakbip",
        parts={"X": tuple(sorted(x)), "Y": tuple(y)},
        parameters={"k": k, "r": r, "y_method": y_method},
    )
    return EdgeColoring(g, 2 * r, colors), plan


def _indexed_parts(parts: dict, name: str, index_of: dict[int, int]) -> None:
    """Set parts[f"{name}_{i}"] to the vertices of index i, for each index in use."""
    groups: dict[int, list[int]] = defaultdict(list)
    for v in sorted(index_of):
        groups[index_of[v]].append(v)
    parts.update((f"{name}_{i}", tuple(vs)) for i, vs in groups.items())


def gen2_coloring(g: Graph, h: Graph, r: int, seed: int = 0,
                  case3_split: str | None = None
                  ) -> tuple[EdgeColoring, ColoringPlan]:
    """Color g with at most 8r colors against a bipartite non-star h,
    provided e(g) < r^2 (delta1 - 1) n1 / 4 in canonical orientation.

    Each edge role gets its own palette: intra-X buckets (1..r), the
    leftover Y part (r+1..2r), the X-to-Y interface (2r+1 up), and in the
    hardest case randomized block pairs (4r+1..8r) colored by the 2-color
    split, with the blocks of one matching pairwise vertex-disjoint so a
    connected monochromatic subgraph stays inside a single block.

    Indexed parts (Y_i, X1_i, Y1_i) are written only when non-empty, and no
    list or loop is sized by r: no cost grows with r on a fixed host.

    case3_split forces the subcase ("3.1" or "3.2") for testing; the
    natural dispatch picks 3.1 whenever 64 r^4 delta1^2 >= n1.  The
    coloring is returned unverified; like weakbip_coloring's it may leave a
    copy of h, which `certify` finds and recolors away.
    """
    if r < 2:
        raise DomainError(f"gen2 coloring needs r >= 2, got {r}")
    prof = profile(h)
    _require_below(g, _gen2_bound(prof, r))
    n1, n2, d1, d2 = prof.n1, prof.n2, prof.delta1, prof.delta2
    k1 = d1 - 1
    x, y = _degree_split(g, r * k1 - 1, Fraction(r * n1, 2))
    # intra-X buckets, colors 1..r; every case below recolors the X-to-Y
    # edges the bucket lemma also colors
    colors = _bucketed(g.edges, x, r, k1)
    # inside Y, colors r+1..2r
    y_colors, y_method = _color_small_part(
        g, y, n_bound=n1 + n2, first_color=r + 1, num_colors=r, target=h
    )
    colors.update(y_colors)
    yset = set(y)
    # each X-to-Y edge once, as (edge, X end, Y end)
    cross = sorted(
        ((u, v), u, v) if u in x else ((u, v), v, u)
        for u, v in g.edges
        if (u in x) != (v in x)
    )
    parts: dict[str, tuple[int, ...]] = {"X": tuple(sorted(x)), "Y": tuple(y)}
    params: dict[str, object] = {"k": k1, "r": r, "y_method": y_method}
    retries = 0
    if d1 <= d2:
        # Case 1: bucket the interface at width delta1 - 1, colors 2r+1..3r
        params["case"] = "1"
        # X vertices have degree at most r k1 - 1, within the lemma's cap
        interface = _bucketed([e for e, _, _ in cross], x, r, k1)
        colors.update((e, 2 * r + c) for e, c in interface.items())
    elif n1 <= n2:
        # Case 2: split Y by index mod r into parts below n1, color by part
        params["case"] = "2"
        if (len(y) + r - 1) // r > n1 - 1:
            raise ConstructionError("Y cannot be split into parts below n1")
        part_of = {v: i % r for i, v in enumerate(y)}
        for e, _, b in cross:
            colors[e] = 2 * r + 1 + part_of[b]
        _indexed_parts(parts, "Y", part_of)
    else:
        # Case 3: delta1 > delta2 and n1 > n2
        k0 = d2 - 1
        x0 = frozenset(
            v for v in x
            if sum(1 for w in g.neighbors(v) if w in yset) <= r * k0 - 1
        )
        x1 = sorted(x - x0)
        parts["X0"] = tuple(sorted(x0))
        parts["X1"] = tuple(x1)
        cross_x1 = [c for c in cross if c[1] not in x0]
        # bucket the X0 interface at width delta2 - 1, colors 2r+1..3r; X0
        # vertices have at most r k0 - 1 neighbors in Y, within the cap
        interface = _bucketed([e for e, a, _ in cross if a in x0], x0, r, k0)
        colors.update((e, 2 * r + c) for e, c in interface.items())
        split = case3_split
        if split is None:
            split = "3.1" if 64 * r ** 4 * d1 * d1 >= n1 else "3.2"
        if split not in ("3.1", "3.2"):
            raise DomainError(f"case3_split must be '3.1' or '3.2', got {split!r}")
        params["case"] = split
        x1set = set(x1)
        if split == "3.1":
            # randomized 2r-partition of Y; every part below n1 and every
            # X1 vertex with below delta1 neighbors in each part
            def worst_part(assign: dict[int, int]) -> tuple[int, bool]:
                worst = max(Counter(assign.values()).values(), default=0)
                if worst > n1 - 1:
                    return worst, False
                for v in x1set:
                    counts = Counter(assign[w] for w in g.neighbors(v) if w in yset)
                    most = max(counts.values(), default=0)
                    if most > d1 - 1:
                        return max(worst, most), False
                return worst, True

            assign, _, retries = _resample(
                seed, lambda rng: {v: rng.randrange(2 * r) for v in y},
                worst_part, "no balanced Y partition found for the interface",
                "best worst-part statistic")
            for e, _, b in cross_x1:
                colors[e] = 3 * r + 1 + assign[b]
            _indexed_parts(parts, "Y", assign)
        else:
            # Case 3.2: heavy Y0 toward X1 handled by an r-way split, the
            # remainder by 2r x 2r random blocks, one 2-color pair per
            # block matching
            thresh = Fraction(r, 2) * Fraction(d1 * n1, n2)
            y0 = sorted(
                v for v in y
                if sum(1 for w in g.neighbors(v) if w in x1set) >= thresh
            )
            y1 = sorted(set(y) - set(y0))
            parts["Y0"] = tuple(y0)
            parts["Y1"] = tuple(y1)
            if not Fraction(len(y0)) < Fraction(r * n2, 2):
                raise ConstructionError(
                    f"{len(y0)} heavy vertices contradict the edge precondition"
                )
            if (len(y0) + r - 1) // r > n2 - 1:
                raise ConstructionError("Y0 cannot be split into parts below n2")
            part_of = {v: i % r for i, v in enumerate(y0)}
            block_edges = []
            for e, a, b in cross_x1:
                if b in part_of:
                    colors[e] = 3 * r + 1 + part_of[b]
                else:
                    block_edges.append((e, a, b))
            # Las Vegas double partition: every block spans fewer edges
            # than Beck's threshold, so Beck's split colors it
            quarter = _beck_bound(prof.beta)

            def peak_block_load(blocks) -> tuple[int, bool]:
                ax, ay = blocks
                loads = Counter((ax[a], ay[b]) for _, a, b in block_edges)
                peak = max(loads.values(), default=0)
                return peak, peak < quarter

            (ax, ay), _, retries = _resample(
                seed,
                lambda rng: ({v: rng.randrange(2 * r) for v in x1},
                             {v: rng.randrange(2 * r) for v in y1}),
                peak_block_load,
                "no block partition with all block loads below beta/4",
                "best peak block load")
            # per-block degree-split 2-coloring on the pair owned by the
            # block's matching index
            deg_in_block: Counter = Counter()
            for _, a, b in block_edges:
                deg_in_block[ax[a], ay[b], a] += 1
                deg_in_block[ax[a], ay[b], b] += 1
            for e, a, b in block_edges:
                i, j = ax[a], ay[b]
                base = 4 * r + 2 * ((i + j) % (2 * r))
                low_a = deg_in_block[i, j, a] < d1
                low_b = deg_in_block[i, j, b] < d1
                colors[e] = base + 1 if low_a != low_b else base + 2
            _indexed_parts(parts, "X1", ax)
            _indexed_parts(parts, "Y1", ay)
    plan = ColoringPlan(strategy="gen2", parts=parts, parameters=params,
                        retries=retries)
    return EdgeColoring(g, 8 * r, colors), plan

# ---------------------------------------------------------------------------
# double stars


def double_star_coloring(g: Graph, h: Graph, r: int
                         ) -> tuple[EdgeColoring, ColoringPlan]:
    """r-color g against the double star h = S_{n,m} (n >= m), provided
    e(g) < (r^2 - 1)(nm + m^2)/16.

    Edges at low-degree vertices are bucketed at width m with floor(r/2)
    colors: any copy would need a center of per-color degree m+1 inside X,
    or its central edge entirely among the few high-degree vertices, whose
    span is colored with the remaining ceil(r/2) colors under the
    component bound n + m + 2.  Both exclusions are unconditional.
    """
    n, m = _double_star_shape(h)
    if r < 2:
        raise DomainError(f"double star coloring needs r >= 2, got {r}")
    _require_below(g, _double_star_bound(n, m, r))
    r_low = r // 2
    r_high = r - r_low
    x, y = _degree_split(g, r_low * m - 1, Fraction(r_high, 2) * (n + m))
    colors = _bucketed(g.edges, x, r_low, m)
    y_colors, y_method = _color_small_part(
        g, y, n_bound=n + m + 2, first_color=r_low + 1, num_colors=r_high,
        target=h,
    )
    colors.update(y_colors)
    plan = ColoringPlan(
        strategy="double_star",
        parts={"X": tuple(sorted(x)), "Y": tuple(y)},
        parameters={"n": n, "m": m, "r": r, "y_method": y_method},
    )
    return EdgeColoring(g, r, colors), plan


def double_star_2coloring(g: Graph, h: Graph
                          ) -> tuple[EdgeColoring, ColoringPlan]:
    """Red/blue coloring of g leaving no monochromatic h = S_{n,m}
    (n >= m), provided e(g) < (n+1)(m+1)/2 + (m+1)^2/2.

    X holds the vertices of degree at most m.  Red crossing edges force a
    center into X with total degree at most m; blue components containing
    a central edge live inside Y, which the edge bound keeps below
    n + m + 2 vertices.
    """
    n, m = _double_star_shape(h)
    _require_below(g, _double_star_2col_bound(n, m))
    x, y = _degree_split(g, m, n + m + 2)
    plan = ColoringPlan(
        strategy="double_star_2col",
        parts={"X": tuple(sorted(x)), "Y": tuple(y)},
        parameters={"n": n, "m": m},
    )
    return EdgeColoring(g, 2, _split_2coloring(g, x)), plan


# ---------------------------------------------------------------------------
# theorem-level wrappers that split r into the inner palette


def scaled_nonstar_coloring(g: Graph, h: Graph, r: int, seed: int = 0
                            ) -> tuple[EdgeColoring, ColoringPlan]:
    """At most r colors against any connected non-star h for r >= 6, via
    floor(r/3) inner colors (non-bipartite) or floor(r/2) (bipartite)."""
    if r < 6:
        raise DomainError(f"the scaled non-star coloring needs r >= 6, got {r}")
    if not is_connected(h) or h.edge_count == 0:
        raise DomainError("target must be connected with at least one edge")
    if is_bipartite(h):
        inner = r // 2
        coloring, plan = weakbip_coloring(g, h, inner)
    else:
        inner = r // 3
        coloring, plan = chi3_coloring(g, h, inner, seed)
    plan.parameters["scaled_from_r"] = r
    plan.parameters["inner_r"] = inner
    return coloring, plan


def scaled_bipartite_coloring(g: Graph, h: Graph, r: int, seed: int = 0
                              ) -> tuple[EdgeColoring, ColoringPlan]:
    """At most r colors against a connected bipartite non-star h for
    r >= 16, via floor(r/8) inner colors in the general construction."""
    if r < 16:
        raise DomainError(f"the scaled bipartite coloring needs r >= 16, got {r}")
    if not is_connected(h) or not is_bipartite(h) or h.edge_count == 0:
        raise DomainError("target must be connected and bipartite")
    inner = r // 8
    coloring, plan = gen2_coloring(g, h, inner, seed)
    plan.parameters["scaled_from_r"] = r
    plan.parameters["inner_r"] = inner
    return coloring, plan


# ---------------------------------------------------------------------------
# lower bounds


def lower_bound_value(h: Graph, r: int) -> tuple[Fraction, str]:
    """The best applicable size-Ramsey lower bound for h with r colors,
    as (exact fraction, tag).

    Stars get the pigeonhole bound r(m - 1) + 1, their exact value.
    Otherwise the maximum over every bound whose hypotheses h and r
    satisfy is returned, the pigeonhole bound first, with ties resolved
    toward the earlier tag in the candidate order.
    """
    if r < 1:
        raise DomainError(f"need r >= 1, got {r}")
    if h.edge_count == 0 or not is_connected(h):
        raise DomainError("lower bounds require a connected target with edges")
    m = h.edge_count
    bip = is_bipartite(h)
    pigeonhole = (Fraction(_pigeonhole_bound(m, r)), "pigeonhole")
    if bip and is_star(h):
        return pigeonhole
    cands: list[tuple[Fraction, str]] = [pigeonhole]
    if r >= 6:
        cands.append((_nonstar_edges_bound(m, r), "nonstar_edges"))
    if bip:
        b = beta(h)
        if r == 2:
            cands.append((_beck_bound(b), "beck"))
        if r >= 16:
            cands.append((_nonstar_beta_bound(b, r), "nonstar_beta"))
        ds = is_double_star(h)
        if ds is not None:
            n, mm = ds
            cands.append((_double_star_bound(n, mm, r), "double_star"))
            if r == 2:
                cands.append((_double_star_2col_bound(n, mm), "double_star_2col"))
    return max(cands, key=lambda cand: cand[0])  # the first of tied bounds


# ---------------------------------------------------------------------------
# certification entry points


def _affine_on_complete_host(g: Graph, h: Graph, r: int, *_
                             ) -> tuple[EdgeColoring, ColoringPlan]:
    if g.edge_count != comb(g.vertex_count, 2):
        raise DomainError("the affine strategy requires a complete host")
    return affine_component_coloring(g.vertex_count, h.vertex_count, r)


# one row per strategy: (palette factor, edge threshold, construction).
# The palette factor is a certificate's palette as a multiple of the r its
# bound is stated for; the beck and double_star_2col bounds ignore r.  The
# threshold takes (target, r), the construction (host, target, r, seed,
# case3_split).
_STRATEGY_TABLE = {
    "beck": (1, lambda h, r: _beck_bound(beta(h)),
             lambda g, h, r, *_: beck_coloring(g, h)),
    "weakbip": (2, lambda h, r: _weakbip_bound(profile(h), r),
                lambda g, h, r, *_: weakbip_coloring(g, h, r)),
    "gen2": (8, lambda h, r: _gen2_bound(profile(h), r), gen2_coloring),
    "double_star": (1, lambda h, r: _double_star_bound(*_double_star_shape(h), r),
                    lambda g, h, r, *_: double_star_coloring(g, h, r)),
    "double_star_2col": (1, lambda h, r: _double_star_2col_bound(*_double_star_shape(h)),
                         lambda g, h, r, *_: double_star_2coloring(g, h)),
    "chi3": (3, lambda h, r: _chi3_bound(h.edge_count, r),
             lambda g, h, r, seed, _: chi3_coloring(g, h, r, seed)),
    "affine": (1, lambda h, r: _affine_bound(h.vertex_count, r),
               _affine_on_complete_host),
}

STRATEGIES = tuple(_STRATEGY_TABLE)


def _strategy_row(strategy: str):
    if strategy not in _STRATEGY_TABLE:
        raise DomainError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    return _STRATEGY_TABLE[strategy]


def strategy_bound(strategy: str, target: Graph, r: int) -> Fraction:
    """Edge threshold of a construction, from its row of the strategy
    table: hosts must stay strictly below it."""
    return _strategy_row(strategy)[1](target, r)


def certificate_bound(theorem_tag: str, target: Graph, palette: int
                      ) -> Fraction | None:
    """The bound a certificate of the tagged strategy claims for target
    with the given palette, as certify writes it, or None when no
    certificate can carry the tag, the target and the palette together:
    an unknown tag, a palette that is not a multiple of the strategy's
    factor, or a target or r outside the strategy's domain."""
    row = _STRATEGY_TABLE.get(theorem_tag)
    if row is None or palette % row[0]:
        return None
    try:
        return row[1](target, palette // row[0])
    except DomainError:
        return None


def certify(strategy: str, host: Graph, target: Graph, r: int, seed: int = 0,
            case3_split: str | None = None) -> Certificate:
    """Run a construction on the host and verify the result exactly.

    The construction and the claimed bound are those of the strategy's row
    of the strategy table, _STRATEGY_TABLE.  The returned certificate's
    verdict is written only by the verifier; "verified" therefore always
    means an exact search found no monochromatic copy of the target.  If
    the construction left a copy,
    the host is recolored by an exhaustive target-free search with the
    same palette, the plan records the copy's color as
    primary_witness_color and "h_free_search" as fallback, and the
    recoloring is verified instead.
    """
    if r < 1:
        raise DomainError(f"need r >= 1, got {r}")
    if not is_connected(target) or target.edge_count == 0:
        raise DomainError("target must be connected with at least one edge")
    _, bound, construct = _strategy_row(strategy)
    coloring, plan = construct(host, target, r, seed, case3_split)
    cert = verify_certificate(Certificate(
        target=target,
        r=coloring.r,
        coloring=coloring,
        plan=plan,
        claimed_bound=bound(target, r),
        theorem_tag=strategy,
        seed=seed,
    ))
    if cert.witness is None or cert.witness["kind"] != "mono_copy":
        return cert
    color = cert.witness["color"]
    plan.parameters["primary_witness_color"] = color
    status, colors, nodes = search_h_free_coloring(
        cert.host, target, cert.r, node_budget=3_000_000
    )
    if status != "free" or colors is None:
        raise ConstructionError(
            f"construction left a monochromatic copy (color {color}) and the "
            f"exhaustive fallback ended with status {status!r} after {nodes} nodes"
        )
    plan.parameters["fallback"] = "h_free_search"
    return verify_certificate(
        replace(cert, coloring=EdgeColoring(cert.host, cert.r, colors))
    )
