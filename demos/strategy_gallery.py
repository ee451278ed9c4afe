"""Every lower-bound construction once, end to end.

Each strategy gets a small target it is built for, a host just under its
edge threshold, and a full verification pass."""

import math
import random

from sizeramsey import (
    certify,
    complete_graph,
    cycle_graph,
    make_double_star,
    complete_bipartite,
    strategy_bound,
)
from sizeramsey.graphs import Graph


def host_under(strategy, target, r, seed=0):
    e = math.ceil(strategy_bound(strategy, target, r)) - 1
    rng = random.Random(seed)
    n = max(4, math.isqrt(4 * e))
    while n * (n - 1) // 2 < e:
        n += 1
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, rng.sample(pairs, e))


cases = [
    ("beck", complete_bipartite(2, 3), 2),
    ("weakbip", cycle_graph(6), 3),
    ("gen2", complete_bipartite(3, 3), 2),
    ("double_star", make_double_star(3, 2), 4),
    ("double_star_2col", make_double_star(2, 2), 2),
    ("chi3", cycle_graph(5), 3),
]

for strategy, target, r in cases:
    host = host_under(strategy, target, r)
    cert = certify(strategy, host, target, r)
    print(f"{strategy:18s} r={r}  host {host.vertex_count:2d}v/{host.edge_count:3d}e"
          f"  bound {str(cert.claimed_bound):>8s}  {cert.verdict}")

# affine wants a clique host sized to the plane's capacity; the target is
# deliberately below the n >= r^2 guidance, which the plan records as
# below_recommended_n
cert = certify("affine", complete_graph(8),
               Graph(5, [(i, i + 1) for i in range(4)]), 3)
print(f"{'affine':18s} r=3  host  8v/ 28e  bound {str(cert.claimed_bound):>8s}"
      f"  {cert.verdict}")
