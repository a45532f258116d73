"""Divided power calculus: monomial bases, products, and closed forms.

The divided power algebra keeps symbols gamma_i(x) that behave like
x^i / i! without ever dividing.  On cyclic groups its components are again
cyclic, of an order controlled by the stabilized gcd (r, n^infinity).
"""

from derham import abelian as ab
from derham import bases
from derham import reference as ref
from derham.intlinalg import GroupInvariants
from derham.numtheory import gcd_stable

# Monomial bases of the three functors on Z^2.
for functor in ("wedge", "sym", "gamma"):
    print(functor, "degree 2 on Z^3:", bases.enumerate_basis(functor, 2, 3))

# gamma_1(x) * gamma_2(x) = 3 gamma_3(x): the binomial structure constant.
print("\ngamma_1 * gamma_2 on one variable:", ref.gamma_product((1,), (2,)))

# x^r = r! gamma_r(x), checked by iterating the module action.
print("power identities hold:", ref.gamma_power_identity_check())

# the stabilized gcd: the largest divisor of r supported on primes of n
for r, n in ((2, 2), (3, 2), (4, 6), (12, 6)):
    print(f"(r={r}, n^inf={n}):", gcd_stable(r, n))

# Divided powers of cyclic groups: Gamma_2(Z/2) carries 4-torsion.
print("\nGamma_2(Z/2) =", ab.gamma_cyclic(2, 2))
print("Gamma_3(Z/3) =", ab.gamma_cyclic(3, 3))
print("Gamma_3(Z/2) =", ab.gamma_cyclic(3, 2))

# The exponential law assembles divided powers of sums.
v2 = ab.elementary(2, 2)
print("Gamma_2((Z/2)^2) =", ab.gamma_group(2, v2))

# Tensor and torsion products in closed form.
z4 = GroupInvariants(0, (4,))
print("\nTor(Z/4, Z/4) =", ab.tor(z4, z4))
print("Tor^[3](Z/2) =", ref.tor_power(3, GroupInvariants(0, (2,))))

# Expanding a divided power of a sum of generators integrally.
out = ref.gamma_of_vector((1, 1), 2)
labels = bases.enumerate_basis("gamma", 2, 2)
print("\ngamma_2(x + y) =", {labels[k]: c for k, c in sorted(out.items())})
