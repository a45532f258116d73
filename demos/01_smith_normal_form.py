"""Exact integer linear algebra: Smith form, cokernels, presented groups.

The program keeps every matrix as a list of rows of Python ints, so nothing
ever rounds.  The Smith normal form U @ M @ V = D is the engine behind all
the homology computations in this package: it keeps the diagonal, the rows
of U and the columns of V, and SnfResult.U, .D and .V build numpy object
arrays from them for a demo like this one, as do the dense helpers
ref.intmat, ref.mat_mul, ref.is_zero and ref.det_exact used below, from
derham.reference, the module of code that no command runs.
"""

from derham import intlinalg as la
from derham import reference as ref
from derham.complexes import build_C, homology_of

# A matrix with interesting invariant factors.
m = ref.intmat([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
u, d, v = la.smith_normal_form(m)
print("M =")
print(m)
print("diagonal of D:", la.smith_normal_form(m).diagonal)
print("U M V == D:", ref.is_zero(ref.mat_mul(ref.mat_mul(u, m), v) - d))
print("det U, det V:", ref.det_exact(u), ref.det_exact(v))

# The cokernel Z^3 / im(M) read off the diagonal.
print("\ncoker(M):", la.invariants_of_cokernel(m))

# Divisor chains normalize automatically: Z/2 + Z/3 is cyclic of order 6.
print("coker(diag(2, 3)):", la.invariants_of_cokernel([[2, 0], [0, 3]]))

# Homology is read off the same Smith forms.  The weight-2 complex on Z is
# Z --(-2)--> Z (x (x) x goes to -2 gamma_2(x)), so H_0 = Z/2.
hom = homology_of("C", 2, 1)
full = build_C(2, 1)
print("\nd_1 of C^2(Z):", full.d(1).tolist())
print("H_0 of C^2(Z):", hom.invariants(0))

# The same group as Z/m_1 + ... + Z/m_k, read off the Smith form of d_1:
# the m_k are its invariant factors other than 1, and the matching rows of
# U, each a content c with a sparse row over the labels of c's block, send
# each cycle to its class.  The full complex places label k of the block of
# c at the basis position full.block(c).at(i)[k].
orders, classes = hom.presentation(0)
print("presentation: orders =", list(orders), "invariants =", la.GroupInvariants(0, orders))
for j in range(full.dim(0)):
    cls = [
        sum(u for l, u in row.items() if full.block(c).at(0)[l] == j) % m
        for (c, row), m in zip(classes, orders)
    ]
    print(f"class of basis vector {j} of C_0: {cls} mod {list(orders)}")

# Exact coordinates inside a sublattice, from one Smith decomposition.
solver = la.LinearSolver(ref.intmat([[2], [4]]))
print("\n(6,12) in the lattice spanned by (2,4):", list(solver.solve([6, 12])))
print("cokernel of (2,4):", solver.cokernel())

# A map from a finite presented group onto a sum of cyclic groups, given
# by their orders, is decided from the relations and one Smith reduction.
z6 = ref.intmat([[6]])
f = ref.intmat([[1], [1]])
print("Z/6 -> Z/2 + Z/3 by g -> (1,1) is an isomorphism:",
      la.presented_map_is_iso(f, z6, [2, 3]))
