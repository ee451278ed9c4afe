"""
Shattering a clique with an affine plane
========================================

AG(2, q) has q+1 parallel classes of lines.  Blowing each point up into a
cell of floor((n-1)/q) vertices and coloring an edge by the class of the
line through its endpoints' points keeps every monochromatic component
inside a single line's worth of cells, i.e. below n vertices, using only
q+1 <= r colors.
"""

from sizeramsey import (
    affine_component_coloring,
    make_affine_plane,
    max_mono_component,
    q_for_ramsey,
)

r, n, N = 3, 5, 8
q = q_for_ramsey(r)
plane = make_affine_plane(q)
print(f"r={r} colors, component bound n={n}, plane of order q={q}")
print(f"AG(2, {q}): {plane.point_count} points, {len(plane.lines)} lines, "
      f"{len(plane.classes)} parallel classes")
for cid, cls in enumerate(plane.classes):
    print(f"  class {cid}: lines {[sorted(plane.lines[l]) for l in cls]}")

coloring, plan = affine_component_coloring(N, n, r)  # n < r*r is fine here

print(f"\ncolored K_{N} with {len(coloring.colors)} edges")
sizes = max_mono_component(coloring)
for color in sorted(sizes):
    status = "< n" if sizes[color] < n else "TOO BIG"
    print(f"  color {color}: largest component {sizes[color]}  {status}")
