"""
Random sparse hosts against an adversary
========================================

The linear upper bound for bounded-degree trees rides on a random host:
color it any way you like, the majority color class peels down to a core
that still expands, and the tree embeds greedily into that core.  Each
trial below draws a host, lets a seeded adversary color it, and replays
the full pipeline.
"""

from sizeramsey import ExpanderParams, appendix_trial, path_graph

tree = path_graph(6)
params = ExpanderParams.from_constants(1.0, 40.0, r=2, n=tree.vertex_count)
print(f"tree P6, r=2: host on N={params.N} vertices, edge probability "
      f"p={min(params.p, 1.0):.3f}")
print(f"constants: c1={params.c1:.2f} c2={params.c2:.2f} "
      f"delta={params.delta:.5f}")

good = 0
for seed in range(12):
    rep = appendix_trial(params, tree, seed)
    good += rep.verified
    print(f"seed {seed:2d}: majority color {rep.majority_color} with "
          f"{rep.majority_edges} edges, core {rep.core_size}, "
          f"{'embedded' if rep.verified else 'missed'}")
print(f"{good}/12 trials verified")

# the worst_of_k adversary hunts for a bad coloring instead of guessing
rep = appendix_trial(params, tree, 0, adversary="worst_of_k", k=16)
print(f"worst-of-16 adversary, seed 0: "
      f"{'still embedded' if rep.verified else 'found a miss'}")
