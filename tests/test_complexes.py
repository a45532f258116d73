"""Complex construction, homology, decomposition and Kunneth checks."""

from derham import abelian as ab
from derham import complexes as cx
from derham import intlinalg as la
from derham.bases import wedge_normalize
from derham.intlinalg import GroupInvariants


def test_build_C_rank_one_weight_two():
    c = cx.build_C(2, 1)
    assert [c.dim(i) for i in range(3)] == [1, 1, 0]
    # x (x) x maps to -(x * x) = -2 gamma_2(x)
    assert c.d(1)[0, 0] == -2


def test_build_C_rank_zero_trivial():
    c = cx.build_C(3, 0)
    assert all(c.dim(i) == 0 for i in range(4))


def test_build_C_weight_zero_is_unit_complex():
    for r in range(4):
        c = cx.build_C(0, r)
        assert c.labels(0) == (((), (0,) * r),)
        assert c.labels(-1) == c.labels(1) == ()
        assert [c.dim(i) for i in (-1, 0, 1)] == [0, 1, 0]
        h = cx.homology_of("C", 0, r)
        assert h.invariants(0) == GroupInvariants(1, ())
        assert all(h.invariants(i).is_trivial for i in (-1, 1, 2))


def test_build_C_dimension_counts():
    c = cx.build_C(4, 2)
    assert c.d(1).shape == (5, 8)
    for i in range(5):
        assert c.dim(i) == len(c.bases[i].left) * len(c.bases[i].right)


def test_build_D_weight_one_identity():
    for r in (1, 2, 3):
        d = cx.build_D(1, r)
        assert la.is_zero(d.d(1) - la.identity(r))


def test_build_D_rank_one_weight_two():
    d = cx.build_D(2, 1)
    # x^2 extracts x with multiplicity 2; wedge^2 of a line is 0
    assert [d.dim(i) for i in range(3)] == [0, 1, 1]
    assert d.d(2)[0, 0] == 2


def test_dd_zero_moderate_ranges():
    # construction asserts d compose d = 0; exercise both families
    for n in range(1, 7):
        for r in range(4):
            cx.build_C(n, r)
            cx.build_D(n, r)


def test_homology_prime_weight_three():
    got = cx.homology(cx.build_C(3, 2), 0)
    assert got == GroupInvariants(0, (3, 3))


def test_homology_prime_vanishing():
    c = cx.build_C(5, 3)
    for i in (1, 2, 3):
        assert cx.homology(c, i).is_trivial


def test_homology_weight_four_rank_two():
    got = cx.homology(cx.build_C(4, 2), 0)
    assert got == GroupInvariants(0, (2, 4, 4))


def test_homology_rank_one_h0_cyclic():
    for n in range(2, 13):
        assert cx.homology(cx.build_C(n, 1), 0) == GroupInvariants(0, (n,))


def test_homology_out_of_range_degrees():
    c = cx.build_C(2, 2)
    assert cx.homology(c, 3).is_trivial
    assert cx.homology(c, -1).is_trivial


def test_presentation_agrees_with_invariants():
    for family in ("C", "D"):
        for n in range(1, 6):
            for r in (1, 2):
                h = cx.homology_of(family, n, r)
                for i in range(n + 1):
                    pres, classes = h.presentation(i)
                    assert classes.shape[0] == pres.gens
                    assert pres.invariants() == h.invariants(i)


def _kernel_basis_presentation(cplx, i):
    """H_i with a basis K of the cycles as generators and each column of
    d_(i+1), solved in K, as a relation."""
    snf = la.smith_normal_form(cplx.d(i))
    kernel = snf.V[:, snf.rank :]
    solver = la.LinearSolver(kernel)
    d_in = cplx.d(i + 1)
    rel = la.zeros(kernel.shape[1], d_in.shape[1])
    for j in range(d_in.shape[1]):
        rel[:, j] = solver.solve(d_in[:, j])
    return la.PresentedGroup(kernel.shape[1], rel), kernel


def test_classes_of_cycle_basis_are_an_isomorphism():
    # the class matrix, applied to a basis of the cycles, induces an
    # isomorphism from the kernel-basis presentation onto the new one
    cells = [(f, n, r) for f in ("C", "D") for n in range(1, 6) for r in range(3)]
    for family, n, r in cells + [("C", 6, 3)]:
        h = cx.homology_of(family, n, r)
        for i in range(n + 1):
            old, kernel = _kernel_basis_presentation(h.cx, i)
            new, classes = h.presentation(i)
            f = la.mat_mul(classes, kernel)
            assert la.presented_map_is_iso(f, old, new), (family, n, r, i)


def test_c4_rank2_degree1_presentation():
    pres, _ = cx.homology_of("C", 4, 2).presentation(1)
    assert pres.invariants() == GroupInvariants(0, (2,))


def _generator_permutation_matrix(c, degree, perm):
    """Signed permutation induced on a C-family chain basis by a generator
    permutation (1-based perm of 1..r)."""
    labels = c.bases[degree].labels()
    index = {lab: i for i, lab in enumerate(labels)}
    mat = la.zeros(len(labels), len(labels))
    for j, (w, e) in enumerate(labels):
        sign, w2 = wedge_normalize(tuple(perm[g - 1] for g in w))
        e2 = [0] * len(e)
        for g, exp in enumerate(e, start=1):
            e2[perm[g - 1] - 1] = exp
        mat[index[(w2, tuple(e2))], j] = sign
    return mat


def test_homology_stable_under_generator_permutation():
    import itertools

    for n in (3, 4):
        c = cx.build_C(n, 3)
        h = cx.homology_of("C", n, 3)
        for perm in itertools.permutations((1, 2, 3)):
            mats = [
                _generator_permutation_matrix(c, i, perm) for i in range(n + 1)
            ]
            # transform every differential consistently: P_{i-1} d_i P_i^T
            # (signed permutation matrices are orthogonal); the homology is
            # read off the Smith diagonals, so those must not move
            for i in range(1, n + 1):
                moved = la.mat_mul(la.mat_mul(mats[i - 1], c.d(i)), mats[i].T)
                assert la.snf_diagonal(moved) == h.snf(i).diagonal


# -- block decomposition and Kunneth ------------------------------------------


def test_block_decomposition_small():
    for n in (2, 3, 4, 5):
        assert cx.block_decomposition_matches(n, 1, 1)
    assert cx.block_decomposition_matches(3, 1, 2)
    assert cx.block_decomposition_matches(4, 1, 2)
    assert cx.block_decomposition_matches(3, 2, 1)
    assert cx.block_decomposition_matches(4, 2, 2)
    assert cx.block_decomposition_matches(6, 1, 2)


def test_kunneth_weight_two():
    assert cx.kunneth_check(2, 1, 1, 0)


def test_kunneth_weight_four_degree_one():
    # the interesting Tor contribution: Tor(Z/2, Z/2) inside H_1 C^4(Z^2)
    assert cx.kunneth_check(4, 1, 1, 1)
    assert cx.homology(cx.build_C(4, 2), 1) == GroupInvariants(0, (2,))


def test_kunneth_prime_weights():
    for n in (3, 5):
        for k in (1, 2):
            assert cx.kunneth_check(n, 1, 1, k)


def test_cross_effect_weight_two_trivial():
    assert cx.cross_effect_h0(2, 1, 1).is_trivial
    assert cx.cross_effect_h0_expected(2, 1, 1).is_trivial


def test_cross_effect_weight_four():
    got = cx.cross_effect_h0(4, 1, 1)
    assert got == GroupInvariants(0, (2,))
    assert got == cx.cross_effect_h0_expected(4, 1, 1)


def test_cross_effect_weight_six():
    got = cx.cross_effect_h0(6, 1, 1)
    # H_0C^2 (x) H_0C^4 + H_0C^3 (x) H_0C^3 + H_0C^4 (x) H_0C^2
    assert got == GroupInvariants(0, (2, 2, 3))
    assert got == cx.cross_effect_h0_expected(6, 1, 1)
    assert cx.cross_effect_h0(8, 2, 2) == cx.cross_effect_h0_expected(8, 2, 2)


# -- divided powers of elementary groups as cokernels ---------------------------


def test_gamma_elementary_rank_one():
    for p in (2, 3):
        for n in range(1, 6):
            got = cx.gamma_elementary_invariants(n, p, 1)
            expect = ab.gamma_cyclic(n, p)
            assert got == expect


def test_gamma_elementary_cross_module():
    for p in (2, 3):
        for r in (1, 2, 3):
            for n in range(1, 7):
                got = cx.gamma_elementary_invariants(n, p, r)
                expect = ab.gamma_group(n, ab.elementary(p, r))
                assert got == expect
