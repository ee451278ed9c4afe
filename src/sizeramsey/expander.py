"""Random sparse hosts for tree targets: sampling, structure checks, and
end-to-end embedding trials.

A trial samples G(N, p), lets an adversary r-color it, peels the majority
class at half the measured average degree over 2r, and then looks for the
tree by complete backtracking.  Every claim in the report is re-checked
against the actual coloring, so `verified` never rests on the asymptotic
argument that motivates the parameters.

The argument's two set properties, local sparsity of the host and
expansion of the core (Friedman and Pippenger, "Expanding graphs contain
all small trees", 1987), go through one loop that stops at the first
failing set or at the budget.  Expansion is evaluated on a table of
neighbor bitmasks built once per check (bit w of nb[u] is set when w is
adjacent to u), so a set's boundary costs a few int operations per
member.  Each report says whether its sets were all of them, a random
sample, or none because the property is vacuous.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import combinations

from .errors import DomainError
from .graphs import Graph, induced_subgraph, is_tree, peel
from .verify import EdgeColoring, find_subgraph

__all__ = [
    "ExpanderParams",
    "SetCheckReport",
    "TrialReport",
    "sample_gnp",
    "check_local_sparsity",
    "check_expansion",
    "min_degree_peel",
    "appendix_trial",
]


@dataclass(frozen=True)
class ExpanderParams:
    """Derived constants of a random-host trial for a tree on n vertices.

    N = a*r*n vertices sampled at p = c1/N, where c1 = b*r*log(r) and
    c2 = b*log(r)/4 are the target average degrees before and after
    thinning to one color; delta = (c2/(5 c1))^(c2/(c2-1)) is the local
    sparsity scale.  The identity c2 = c1/(4r) holds by construction.
    """

    a: float
    b: float
    r: int
    n: int
    N: int
    p: float
    c1: float
    c2: float
    delta: float

    @classmethod
    def from_constants(cls, a: float, b: float, r: int, n: int) -> "ExpanderParams":
        if r < 2:
            raise DomainError(f"need r >= 2, got {r}")
        if n < 1:
            raise DomainError(f"need n >= 1, got {n}")
        if not (0 < a < math.inf and 0 < b < math.inf):
            raise DomainError(f"constants must be positive and finite, got a={a}, b={b}")
        lnr = math.log(r)
        c1 = b * r * lnr
        c2 = b * lnr / 4
        if not math.isfinite(c1):
            raise DomainError(f"c1 = b*r*log(r) = {c1} is not a finite edge density")
        if c2 <= 1:
            raise DomainError(
                f"b*log(r) = {b * lnr} must exceed 4 for the sparsity scale"
            )
        delta = (c2 / (5 * c1)) ** (c2 / (c2 - 1))
        size = a * r * n
        if size == math.inf:
            raise DomainError(f"a*r*n = {size} is not a finite host size")
        big_n = math.ceil(size - 1e-9)
        if big_n < 1:
            raise DomainError(f"a*r*n = {size} leaves the host without vertices")
        return cls(a=a, b=b, r=r, n=n, N=big_n, p=c1 / big_n, c1=c1, c2=c2,
                   delta=float(delta))


def sample_gnp(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with each pair included independently; deterministic in seed.

    One random number is drawn per vertex pair, so a call costs Theta(n^2)
    however sparse the graph: n = 80,000 means 3.2e9 draws.  The stream is
    kept as it is because pinned trial reports and the benchmark's answer
    key re-derive it.
    """
    if n < 0:
        raise DomainError(f"need n >= 0, got {n}")
    rng = random.Random(seed)
    q = min(max(p, 0.0), 1.0)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < q]
    return Graph(n, edges)


@dataclass(frozen=True)
class SetCheckReport:
    """Outcome of a universally quantified vertex-set property check.

    outcome is "pass", "fail", "vacuous", or "budget"; exhaustive records
    whether every relevant set was actually enumerated, so a sampled pass
    is never mistaken for a proof.
    """

    outcome: str
    exhaustive: bool
    witness: tuple[int, ...] | None
    checked: int


# the sampled expansion check draws this many random sets
_SAMPLES = 2000


def _first_failure(sets, fails, budget: int, exhaustive: bool) -> SetCheckReport:
    """Check the sets in turn until one fails or the budget runs out.

    checked counts the sets actually examined; the budget stops the loop
    only when another set remains, so a family of exactly budget sets
    still passes.  exhaustive says whether sets is every relevant set.
    """
    checked = 0
    for s in sets:
        if checked == budget:
            return SetCheckReport("budget", False, None, checked)
        checked += 1
        if fails(s):
            return SetCheckReport("fail", exhaustive, tuple(sorted(s)), checked)
    return SetCheckReport("pass", exhaustive, None, checked)


def _connected_sets(g: Graph, k_max: int):
    """Yield every connected vertex set of size <= k_max exactly once.

    Standard rooted enumeration: sets are grown only by neighbors that are
    larger than the root, each extension considered once.
    """
    for root in range(g.vertex_count):
        stack = [(frozenset([root]),
                  tuple(sorted(w for w in g.neighbors(root) if w > root)))]
        while stack:
            s, ext = stack.pop()
            yield s
            for i, w in enumerate(ext):
                grown = s | {w}
                if len(grown) > k_max:
                    continue
                new_ext = set(ext[i + 1:])
                for x in g.neighbors(w):
                    if x > root and x not in grown:
                        new_ext.add(x)
                stack.append((grown, tuple(sorted(new_ext))))


def check_local_sparsity(g: Graph, delta: float, k_max: int,
                         budget: int = 200_000) -> SetCheckReport:
    """Check that every vertex set S with |S| <= k_max spans at most
    (1 + delta)|S| edges.

    The (1 + delta)|S| form, and the cap k_max = floor(delta N) that
    `appendix_trial` passes, are this package's reading of the paper's
    appendix argument; PAPER.md holds only the abstract, so the form is
    not checked against the paper here.

    A minimal violating set is connected (edge counts add over components),
    so only connected sets are enumerated, all of them up to the budget.
    k_max <= 0 makes the property vacuous.
    """
    if delta < 0:
        raise DomainError(f"delta must be >= 0, got {delta}")
    if k_max <= 0:
        return SetCheckReport("vacuous", True, None, 0)

    def spans_too_much(members) -> bool:
        e = sum(1 for u in members for w in g.neighbors(u)
                if w in members and w > u)
        return e > (1 + delta) * len(members)

    return _first_failure(_connected_sets(g, k_max), spans_too_much, budget,
                          exhaustive=True)


def check_expansion(g: Graph, factor: int, max_set: int,
                    budget: int = 500_000, seed: int = 0) -> SetCheckReport:
    """Check that every nonempty X with |X| <= max_set has at least
    factor * |X| neighbors outside X.

    The empty graph fails outright: it expands nothing.  Hosts of at most
    24 vertices have every subset enumerated, up to the budget; larger
    hosts get 2000 random subsets drawn from seed, and their pass is
    explicitly non-exhaustive.  A set's outside neighbors are counted on
    neighbor bitmasks: the union of nb[u] over members, less the members.
    """
    if factor < 0 or max_set < 0:
        raise DomainError("factor and max_set must be nonnegative")
    if g.vertex_count == 0:
        return SetCheckReport("fail", True, (), 0)
    n = g.vertex_count
    limit = min(max_set, n)
    if limit == 0:
        return SetCheckReport("vacuous", True, None, 0)
    # nb[u] has bit w set for each neighbor w of u
    nb = [sum(1 << w for w in nbrs) for nbrs in g.adj]

    def expands_too_little(xs) -> bool:
        reach = inside = 0
        for u in xs:
            reach |= nb[u]
            inside |= 1 << u
        return (reach & ~inside).bit_count() < factor * len(xs)

    exhaustive = n <= 24
    if exhaustive:
        sets = (xs for size in range(1, limit + 1)
                for xs in combinations(range(n), size))
    else:
        rng = random.Random(seed)
        # the size is drawn before the members, as trial reports depend on it
        sets = (rng.sample(range(n), rng.randint(1, limit))
                for _ in range(_SAMPLES))
    return _first_failure(sets, expands_too_little, budget, exhaustive)


def min_degree_peel(g: Graph, threshold) -> tuple[Graph, tuple[int, ...]]:
    """Repeatedly delete a vertex of current degree strictly below the
    threshold, lowest (degree, index) first.

    Returns the surviving induced subgraph relabeled 0..k-1 together with
    the kept tuple mapping new labels back to the original ones.
    """
    cap = math.ceil(Fraction(threshold)) - 1
    deleted = {v for v, _ in peel(g, dict.fromkeys(g.vertices(), cap))}
    kept = tuple(v for v in g.vertices() if v not in deleted)
    core, mapping = induced_subgraph(g, kept)
    return core, mapping


@dataclass
class TrialReport:
    """One sampled trial, fully instrumented.

    verified is True only when the embedding was found and every mapped
    tree edge was re-checked to carry the majority color in the actual
    adversary coloring.
    """

    seed: int
    n: int
    N: int
    p: float
    edge_count: int
    adversary: str
    sparsity_outcome: str
    sparsity_exhaustive: bool
    majority_color: int
    majority_edges: int
    peel_threshold_num: int
    peel_threshold_den: int
    core_size: int
    expansion_outcome: str
    expansion_exhaustive: bool
    embedded: bool
    verified: bool
    mapping: dict[int, int] | None

    def to_json(self) -> str:
        doc = asdict(self)
        if doc["mapping"] is not None:
            doc["mapping"] = {str(k): v for k, v in sorted(doc["mapping"].items())}
        return json.dumps(doc, sort_keys=True)


def appendix_trial(params: ExpanderParams, tree: Graph, seed: int,
                   adversary: str = "random", k: int = 32) -> TrialReport:
    """Sample one host, color it adversarially, and hunt the tree.

    adversary "random" colors edges uniformly; "worst_of_k" draws k random
    colorings and keeps the one whose majority class is smallest.  The
    peel threshold is the measured average degree of the sample divided
    by 2r.
    """
    if not is_tree(tree) or tree.vertex_count == 0:
        raise DomainError("the trial needs a nonempty tree target")
    r = params.r
    g = sample_gnp(params.N, params.p, seed)
    k_max = math.floor(params.delta * params.N)
    spars = check_local_sparsity(g, params.delta, k_max)
    # a stream distinct from the sampler's but still a pure function of seed
    rng = random.Random(seed ^ 0x9E3779B9)
    edges = g.sorted_edges()

    def draw() -> dict[tuple[int, int], int]:
        return {e: rng.randint(1, r) for e in edges}

    if adversary == "random":
        chosen = draw()
    elif adversary == "worst_of_k":
        if k < 1:
            raise DomainError(f"worst_of_k needs k >= 1, got {k}")
        chosen = None
        chosen_majority = None
        for _ in range(k):
            cand = draw()
            counts = [0] * (r + 1)
            for c in cand.values():
                counts[c] += 1
            peak = max(counts[1:], default=0)
            if chosen_majority is None or peak < chosen_majority:
                chosen, chosen_majority = cand, peak
    else:
        raise DomainError(f"adversary must be 'random' or 'worst_of_k', got {adversary!r}")
    coloring = EdgeColoring(g, r, chosen)
    classes = coloring.classes()
    majority = max(classes, key=lambda c: (len(classes[c]), -c), default=1)
    class_edges = classes.get(majority, [])
    class_graph = Graph(params.N, class_edges)
    if params.N > 0:
        threshold = Fraction(2 * g.edge_count, params.N) / (2 * r)
    else:
        threshold = Fraction(0)
    core, kept = min_degree_peel(class_graph, threshold)
    expansion = check_expansion(
        core, factor=tree.max_degree(),
        max_set=max(2 * tree.vertex_count - 2, 1),
        budget=200_000, seed=seed,
    )
    emb = find_subgraph(core, tree)
    mapping = None
    verified = False
    if emb is not None:
        mapping = {tv: kept[hv] for tv, hv in emb.items()}
        verified = all(
            coloring.get(mapping[u], mapping[v]) == majority
            for u, v in tree.edges
        ) and len(set(mapping.values())) == tree.vertex_count
    return TrialReport(
        seed=seed,
        n=tree.vertex_count,
        N=params.N,
        p=params.p,
        edge_count=g.edge_count,
        adversary=adversary,
        sparsity_outcome=spars.outcome,
        sparsity_exhaustive=spars.exhaustive,
        majority_color=majority,
        majority_edges=len(class_edges),
        peel_threshold_num=threshold.numerator,
        peel_threshold_den=threshold.denominator,
        core_size=core.vertex_count,
        expansion_outcome=expansion.outcome,
        expansion_exhaustive=expansion.exhaustive,
        embedded=emb is not None,
        verified=verified,
        mapping=mapping,
    )
