"""
Bracketing the path P4 from both sides
======================================

Lower bound from the best applicable bound (here the pigeonhole count
r(m-1)+1), upper bound from the complete bipartite embedding host, exact
value from exhaustive search in between.  P4 is small enough that the bracket pins down the truth.
"""

from fractions import Fraction

from sizeramsey import cross_check_bounds, path_graph

report = cross_check_bounds(path_graph(4), r=2, emax=8)

lb = report["lower_bound"]
print(f"lower bound: {Fraction(lb['num'], lb['den'])} via {lb['tag']}")
print(f"upper bound: {report['upper_bound']} (monochromatic-embedding host)")

exact = report["exact"]
print(f"exact value: {exact['value']} "
      f"(minimal host {exact['arrowing_host_graph6']}, "
      f"{exact['nodes']} search nodes)")

if report["violations"]:
    for v in report["violations"]:
        print("VIOLATION:", v)
else:
    print("bracket holds: lower <= exact <= upper")
