"""Derived symmetric powers over F_p through the Koszul complex.

The weight-n Koszul complex has terms wedge^a (x) sym^(n-a); its cokernels
give the derived functors of the symmetric power.  A second description by
generators and relations (wedges tensor monomials, modulo alternating
sums) is computed independently and agrees in every degree.
"""

from math import comb

from derham.koszul import derived_sp, generator_presentation, presentation_dimension
from derham.reference import build_koszul, presentations_agree

cpx = build_koszul(3, 2, 2)
print("weight-3 Koszul complex on (F_2)^2, term dimensions:",
      [cpx.dim(a) for a in range(3, -1, -1)])

# The first derived functor of the symmetric cube is the degree-3 Lie
# functor: dimension (r^3 - r)/3.
for r in range(1, 5):
    group = derived_sp(1, 3, 2, r)
    print(f"rank {r}: dim L_1 sym^3 = {group.dimension}  "
          f"(Lie formula gives {(r**3 - r) // 3})")

# The top derived functor collapses to a wedge power.
for n in range(1, 5):
    print(f"dim L_{n-1} sym^{n} on (F_3)^4 =",
          derived_sp(n - 1, n, 3, 4).dimension, "= C(4, n) =", comb(4, n))

# Generators and relations reproduce the Koszul cokernel dimension.
pres = generator_presentation(1, 4, 2, 2)
print("\nweight-4 presentation: generators =", len(pres.generators),
      " relations =", pres.relations.width,
      " quotient dim =", presentation_dimension(pres))
print("agrees with the cokernel:", presentations_agree(1, 4, 2, 2))

# Representative labels of a derived functor: coset basis vectors.
group = derived_sp(1, 3, 2, 2)
print("\nrepresentatives of L_1 sym^3 on (F_2)^2:")
for wedge, mono in group.representatives:
    print("   wedge", wedge, "(x) monomial", mono)
