"""Explicit cycles identifying higher homology with derived functors.

Each generator of a derived symmetric power maps to an alternating sum of
wedge-times-divided-power terms.  These sums are literal kernel vectors;
scaling an argument by p lands them in the boundary image (certified by an
exact integral solve), and the induced maps are isomorphisms through
weight 7.
"""

from derham.complexes import homology_of
from derham.comparison import eta, verify_theorem
from derham.reference import build_C, f_matrix, lift_change_in_boundaries, verify_f_welldefined

def show(cycle, n, r, i):
    """A cycle, keyed by (content c, place k in the block of c), at the
    labels of the full complex: position full.block(c).at(i)[k]."""
    full = build_C(n, r)
    labels = full.labels(i)
    for pos, coeff in sorted((full.block(c).at(i)[k], x) for (c, k), x in cycle.items()):
        wedge, mono = labels[pos]
        print(f"   {coeff:+d} * wedge{wedge} (x) gamma{mono}")


# The fundamental weight-4 cycle: x1 (x) x1 g2(x2) - x2 (x) x2 g2(x1).
# It lies in one content block, 2 (x1 + x2).
cycle = eta(1, 2, 4, [1, 2], 2)
print("weight-4 cycle, in the block of content", sorted({c for c, _ in cycle}))
show(cycle, 4, 2, 1)

# Its class generates H_1 = Z/2.
print("\nH_1 at weight 4 on Z^2:", homology_of("C", 4, 2).invariants(1))
print("comparison matrix (one generator):", f_matrix(1, 4, 2, 2))

# The three-term weight-6 cycle in homological degree 2.
cycle6 = eta(2, 2, 6, [1, 2, 3], 3)
print("\nweight-6 cycle in degree 2:")
show(cycle6, 6, 3, 2)

# Well-definedness evidence: scalings are boundaries, relations cancel.
report = verify_f_welldefined(1, 6, 2, 3)
print("\nweight-6 well-definedness:", report["scalings"], report["jacobi"])
print("lift changes stay in the boundary image:",
      lift_change_in_boundaries(1, 6, 2, 3))

# The isomorphism range: every degree and weight up to 7.
print("\nisomorphism checks on Z^3:")
for n in range(2, 8):
    print(f"   weight {n}:",
          [verify_theorem(i, n, 3) for i in (1, 2, 3)])
