"""Degree-0 homology as divided powers of mod-p reductions.

The map takes a divided monomial to the sum, over primes p dividing the
weight, of its p-th root monomial whenever every exponent is divisible
by p.  It kills boundaries, satisfies the defining relations of divided
powers, and induces an isomorphism from H_0.
"""

from derham.abelian import expected_h0
from derham.comparison import h0_target, q_matrix, verify_h0_iso, verify_q_relations
from derham.complexes import homology_of
from derham.reference import q_kills_boundaries

N, RANK = 6, 2

target = h0_target(N, RANK)
print(f"expected H_0 at weight {N} on Z^{RANK}: {expected_h0(N, RANK)}")
print("target generators (prime, monomial) with cyclic orders:")
for gen, order in zip(target.generators, target.orders):
    print("   ", gen, "order", order)

q = q_matrix(N, RANK)
print(f"\ncomparison map: {len(q.columns)} columns, {len(q.target.orders)} target rows")
print("kills boundaries:", q_kills_boundaries(q))

report = verify_q_relations(N, RANK)
print("relation suite:", report.checked, "-> failures:", len(report.failures))

print("\ncomputed H_0:", homology_of("C", N, RANK).invariants(0))
print("isomorphism:", verify_h0_iso(N, RANK))

# The identification works far beyond the tabulated weights.
for n in (9, 10, 12):
    print(f"weight {n}: iso = {verify_h0_iso(n, RANK)}, "
          f"H_0 = {homology_of('C', n, RANK).invariants(0)}")
