"""Exact linear algebra: Smith form, cokernels, homology, presentations.

Homology of a composable pair goes through ComplexHomology, the package's
one homology route, on a two-step complex.
"""

import io
import itertools
import math
import operator
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from derham import intlinalg as la
from derham import reference
from derham.complexes import (
    Block,
    ChainComplexZ,
    ComplexHomology,
    PairBasis,
    _koszul,
    build,
    build_C,
    homology_of,
)
from derham.reference import _check_dd_zero


def small_matrices(max_dim=4, max_entry=6):
    dims = st.integers(1, max_dim)
    entry = st.integers(-max_entry, max_entry)
    return dims.flatmap(
        lambda m: dims.flatmap(
            lambda n: st.lists(
                st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m
            )
        )
    ).map(reference.intmat)


# diagonal blocks whose sum needs the divisor-chain fix-up: 2 + 3 = 1 + 6
CHAIN_FIXUP_BLOCKS = ([[2]], [[3]], [[4]], [[6]], [[2, 0], [0, 3]])


def shuffled_block_sums(max_dim=3, max_zero=2):
    """Block sums of 2-4 small blocks and some zero rows and columns, with
    rows and columns shuffled, so the nonzero pattern has several
    connected components."""
    block = st.one_of(
        st.sampled_from(CHAIN_FIXUP_BLOCKS).map(reference.intmat), small_matrices(max_dim)
    )

    @st.composite
    def draw_sum(draw):
        blocks = draw(st.lists(block, min_size=2, max_size=4))
        pad = reference.zeros(draw(st.integers(0, max_zero)), draw(st.integers(0, max_zero)))
        a = reference.block_diag(blocks + [pad])
        rows = draw(st.permutations(range(a.shape[0])))
        cols = draw(st.permutations(range(a.shape[1])))
        return a[np.ix_(rows, cols)]

    return draw_sum()


def minor_gcd_diagonal(a):
    """Independent oracle: d_1 * ... * d_k = gcd of all k x k minors."""
    m, n = a.shape
    diag = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                sub = a[np.ix_(rows, cols)]
                g = np.gcd(g, abs(reference.det_exact(sub)))
        if g == 0:
            break
        diag.append(g // prev)
        prev = g
    while len(diag) < min(m, n):
        diag.append(0)
    return diag


# -- Smith normal form -------------------------------------------------------


def test_snf_result_unpacks_as_u_d_v():
    a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16], [0, 0, 0]]
    res = la.smith_normal_form(a)
    u, d, v = res
    assert (u.shape, d.shape, v.shape) == ((4, 4), (4, 3), (3, 3))
    assert (u @ np.array(a, dtype=object) @ v).tolist() == d.tolist()
    assert [d[t, t] for t in range(3)] == res.diagonal == [2, 2, 156]
    assert [x.tolist() for x in res] == [res.U.tolist(), res.D.tolist(), res.V.tolist()]


# The textbook elimination on dense object arrays, as intlinalg ran it before
# it moved to sparse rows: the reference the sparse elimination must match
# operation for operation, so U, D and V agree entry for entry.


def _swap_rows(a, i, j):
    a[[i, j], :] = a[[j, i], :]


def _swap_cols(a, i, j):
    a[:, [i, j]] = a[:, [j, i]]


def _find_pivot(a, t):
    """Position of a nonzero of minimal absolute value in a[t:, t:]."""
    block = a[t:, t:]
    if block.size == 0:
        return None
    unit = np.argwhere((block == 1) | (block == -1))
    if unit.size:
        i, j = unit[0]
        return t + int(i), t + int(j)
    nz = np.argwhere(block != 0)
    if not nz.size:
        return None
    best = min(nz, key=lambda ij: abs(block[ij[0], ij[1]]))
    return t + int(best[0]), t + int(best[1])


def _snf_dense(a, u, v):
    """Drive a to Smith form by unimodular row/column operations on the
    whole matrix; u and v accumulate them so that u @ original @ v == a."""
    rows, cols = a.shape
    t = 0
    while t < min(rows, cols):
        piv = _find_pivot(a, t)
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            _swap_rows(a, t, pi)
            _swap_rows(u, t, pi)
        if pj != t:
            _swap_cols(a, t, pj)
            _swap_cols(v, t, pj)
        while True:
            # clear column t below the pivot
            i = t + 1
            while i < rows:
                x = a[i, t]
                if x != 0:
                    q = x // a[t, t]
                    if q:
                        a[i, t:] -= q * a[t, t:]
                        u[i, :] -= q * u[t, :]
                    if a[i, t] != 0:
                        # remainder beats the pivot; promote it and restart
                        _swap_rows(a, t, i)
                        _swap_rows(u, t, i)
                        continue
                i += 1
            # clear row t; column swaps may dirty column t again
            dirtied = False
            j = t + 1
            while j < cols:
                x = a[t, j]
                if x != 0:
                    q = x // a[t, t]
                    if q:
                        a[t:, j] -= q * a[t:, t]
                        v[:, j] -= q * v[:, t]
                    if a[t, j] != 0:
                        _swap_cols(a, t, j)
                        _swap_cols(v, t, j)
                        dirtied = True
                        continue
                j += 1
            if not dirtied:
                break
        # make the pivot divide everything that remains
        if a[t, t] != 1 and a[t, t] != -1:
            rem = a[t + 1 :, t + 1 :] % a[t, t]
            bad = np.argwhere(rem != 0)
            if bad.size:
                i = t + 1 + int(bad[0][0])
                a[t, t:] += a[i, t:]
                u[t, :] += u[i, :]
                continue  # re-run elimination at the same t
        if a[t, t] < 0:
            a[t, t:] = -a[t, t:]
            u[t, :] = -u[t, :]
        t += 1


def assert_sparse_elimination_matches_dense(m):
    """Reduce m as one matrix both ways: U, D and V must agree entry for
    entry, and every entry of the sparse result must be a Python int."""
    rows, cols = m.shape
    want = (m.copy(), reference.identity(rows), reference.identity(cols))
    _snf_dense(*want)
    a = [la._nonzero(row) for row in m.tolist()]
    urows, vcols = la._eliminate(a, cols)
    got = (np.asarray(la.SparseRows(a, cols)), np.asarray(la.SparseRows(urows, rows)),
           np.asarray(la.SparseRows(vcols, cols)).T)
    for name, w, g in zip("DUV", want, got):
        assert g.shape == w.shape, name
        assert all(type(x) is int for x in g.flat), name
        assert g.tolist() == w.tolist(), name


def koszul_block(n, i):
    """d_i of the Koszul complex on n coordinates with every c_j = 1: the
    content block of (1^n), rows the (i - 1)-subsets, columns the i-subsets."""
    rows = {s: k for k, s in enumerate(itertools.combinations(range(n), i - 1))}
    cols = list(itertools.combinations(range(n), i))
    d = reference.zeros(len(rows), len(cols))
    for c, subset in enumerate(cols):
        for pos in range(i):
            d[rows[subset[:pos] + subset[pos + 1 :]], c] = (-1) ** pos
    return d


@settings(max_examples=100, deadline=None)
@given(small_matrices())
def test_sparse_elimination_matches_dense_on_small_matrices(a):
    assert_sparse_elimination_matches_dense(a)


def test_sparse_elimination_matches_dense_on_wide_tall_diagonal_empty_and_koszul():
    rnd = random.Random(12)
    big = 10**20
    for shape in [(3, 40), (40, 3)] * 5:
        m = [[rnd.randint(-big, big) if rnd.random() < 0.3 else 0 for _ in range(shape[1])]
             for _ in range(shape[0])]
        assert_sparse_elimination_matches_dense(reference.intmat(m))
    for diag in ([2, 3], [4, 6, 10]):
        assert_sparse_elimination_matches_dense(reference.intmat(np.diag(diag).tolist()))
    for shape in [(0, 0), (0, 3), (3, 0), (3, 4)]:
        assert_sparse_elimination_matches_dense(reference.zeros(*shape))
    for i in range(1, 9):
        assert_sparse_elimination_matches_dense(koszul_block(8, i))


def test_snf_1x1():
    res = la.smith_normal_form([[7]])
    assert res.diagonal == [7]
    assert reference.is_zero(reference.mat_mul(reference.mat_mul(res.U, reference.intmat([[7]])), res.V) - res.D)
    assert res.U[0, 0] in (1, -1) and res.V[0, 0] in (1, -1)


def test_snf_identity():
    for k in (1, 2, 5):
        res = la.smith_normal_form(reference.identity(k))
        assert res.diagonal == [1] * k


def test_snf_rank_one_example():
    # hand row-reduction: rank 1, gcd of entries 2
    res = la.smith_normal_form([[2, 4], [4, 8]])
    assert res.diagonal == [2, 0]


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_snf_matches_minor_gcd_oracle(a):
    res = la.smith_normal_form(a)
    assert res.diagonal == minor_gcd_diagonal(a)


@settings(max_examples=60, deadline=None)
@given(shuffled_block_sums(max_dim=2, max_zero=1))
def test_snf_of_block_sum_matches_minor_gcd_oracle(a):
    assert la.smith_normal_form(a).diagonal == minor_gcd_diagonal(a)


def assert_smith_form(a):
    """U @ a @ V = D, U and V unimodular, D diagonal with a divisor chain."""
    u, d, v = la.smith_normal_form(a)
    assert reference.is_zero(reference.mat_mul(reference.mat_mul(u, a), v) - d)
    assert abs(reference.det_exact(u)) == 1
    assert abs(reference.det_exact(v)) == 1
    diag = [int(d[i, i]) for i in range(min(d.shape))]
    for x, y in zip(diag, diag[1:]):
        if x and y:
            assert y % x == 0
    assert all(x >= 0 for x in diag)
    off = d.copy()
    for i in range(min(d.shape)):
        off[i, i] = 0
    assert reference.is_zero(off)


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_snf_recomposition_and_unimodularity(a):
    assert_smith_form(a)


@settings(max_examples=60, deadline=None)
@given(shuffled_block_sums())
def test_snf_of_block_sum_recomposition_and_unimodularity(a):
    assert_smith_form(a)


def test_snf_of_shuffled_differentials_matches_dense_reduction():
    # the per-component reduction against one elimination of the whole matrix
    rng = np.random.default_rng(5)
    cx = build_C(5, 3)
    for i in range(1, cx.n + 1):
        d = cx.d(i)
        d = d[np.ix_(rng.permutation(d.shape[0]), rng.permutation(d.shape[1]))]
        whole = d.copy()
        _snf_dense(whole, reference.identity(d.shape[0]), reference.identity(d.shape[1]))
        u, got, v = la.smith_normal_form(d)
        assert reference.is_zero(got - whole), i
        assert reference.is_zero(reference.mat_mul(reference.mat_mul(u, d), v) - got), i


def test_snf_empty_shapes():
    for shape in [(0, 0), (0, 3), (3, 0)]:
        res = la.smith_normal_form(reference.zeros(*shape))
        assert res.D.shape == shape


def test_snf_diagonal_fast_path_agrees():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = reference.intmat(rng.integers(-9, 9, size=(5, 6)).tolist())
        assert la.snf_diagonal(a) == la.smith_normal_form(a).diagonal


def test_snf_against_sympy_on_larger_matrices():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = np.random.default_rng(42)
    for _ in range(10):
        m = int(rng.integers(2, 12))
        n = int(rng.integers(2, 12))
        scale = int(rng.integers(3, 100))
        a = rng.integers(-scale, scale + 1, size=(m, n)).tolist()
        mine = [d for d in la.snf_diagonal(reference.intmat(a)) if d]
        ref = [
            int(x)
            for x in invariant_factors(sympy.Matrix(a), domain=sympy.ZZ)
            if x
        ]
        assert mine == ref


# -- cokernel invariants ------------------------------------------------------


def test_cokernel_multiplication_by_n():
    for n in range(2, 9):
        inv = la.invariants_of_cokernel([[n]])
        assert inv == la.GroupInvariants(0, (n,))


def test_cokernel_zero_map():
    inv = la.invariants_of_cokernel(reference.zeros(3, 2))
    assert inv == la.GroupInvariants(3, ())


def test_cokernel_crt_normalization():
    # Z/2 + Z/3 = Z/6 via the divisor chain
    inv = la.invariants_of_cokernel([[2, 0], [0, 3]])
    assert inv == la.GroupInvariants(0, (6,))
    assert la.GroupInvariants(0, (2, 3)) == la.GroupInvariants(0, (6,))
    assert la.GroupInvariants(0, (4, 6)) == la.GroupInvariants(0, (2, 12))


def _pairwise_divisor_chain(torsion):
    """The reference: one pairwise gcd/lcm pass, quadratic in the length.
    Once entry i has met every later entry it divides all of them, and the
    later gcd/lcm steps keep it so."""
    mods = sorted(int(m) for m in torsion if int(m) > 1)
    for i in range(len(mods)):
        for j in range(i + 1, len(mods)):
            a, b = mods[i], mods[j]
            if b % a != 0:
                g = math.gcd(a, b)
                mods[i], mods[j] = g, a * b // g
    return tuple(m for m in mods if m > 1)


def test_divisor_chain_matches_the_pairwise_pass():
    # mixed primes, prime powers, moduli with a large prime factor, zeros
    # and ones; and lists that already form a chain, sorted or shuffled
    rng = random.Random(20)
    moduli = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 16, 18, 25, 27, 30, 49, 60, 64,
              97, 3 * 1009, 3 * 2**40, 10**18 + 9)
    for _ in range(500):
        mixed = [rng.choice(moduli) for _ in range(rng.randint(0, 30))]
        steps = [rng.choice((1, 2, 3, 5, 4)) for _ in range(rng.randint(0, 12))]
        chained = list(itertools.accumulate(steps, operator.mul))
        shuffled = rng.sample(chained, len(chained))
        for torsion in (mixed, chained, shuffled):
            assert la._divisor_chain(torsion) == _pairwise_divisor_chain(torsion), torsion
    assert la._divisor_chain([10**18 + 9, 2, 2]) == (2, 2 * (10**18 + 9))


def test_group_invariants_are_a_value_in_normal_form():
    # the divisor chain from any order of the moduli, with the 1s dropped;
    # equal groups hash equal, and the JSON form builds the group back
    forms = [la.GroupInvariants(1, t) for t in ((4, 2), (2, 4), (1, 4, 1, 2), [2, 1, 4])]
    for g in forms:
        assert g.torsion == (2, 4)
        assert g == forms[0] and hash(g) == hash(forms[0])
    assert la.GroupInvariants(0, (2, 3)) == la.GroupInvariants(0, (6,))
    others = [la.GroupInvariants(1, (8,)), la.GroupInvariants(2, (2, 4)), la.GroupInvariants(1)]
    assert len(set(forms + others)) == 4
    assert all(g != forms[0] for g in others)
    assert forms[0] != (1, (2, 4))
    for g in forms + others + [la.TRIVIAL_GROUP]:
        assert la.GroupInvariants(**g.as_dict()) == g
    assert repr(forms[0]) == "GroupInvariants(free_rank=1, torsion=(2, 4))"
    assert str(forms[0]) == "Z + Z/2 + Z/4"


@settings(max_examples=40, deadline=None)
@given(small_matrices(max_dim=3, max_entry=4), st.randoms(use_true_random=False))
def test_cokernel_invariant_under_unimodular_factors(a, rnd):
    def random_unimodular(n):
        u = reference.identity(n)
        for _ in range(6):
            i, j = rnd.randrange(n), rnd.randrange(n)
            if i != j:
                u[i, :] += rnd.randint(-2, 2) * u[j, :]
        return u

    m, n = a.shape
    if m == 0 or n == 0:
        return
    u = random_unimodular(m)
    v = random_unimodular(n)
    transformed = reference.mat_mul(reference.mat_mul(u, a), v)
    assert la.invariants_of_cokernel(a) == la.invariants_of_cokernel(transformed)


# -- homology of a composable pair --------------------------------------------


def _pair_complex(d_in, d_out) -> ChainComplexZ:
    """Z^a --d_in--> Z^b --d_out--> Z^c as a complex in degrees 2, 1, 0, so
    that its degree-1 homology is ker(d_out) / im(d_in)."""
    d_in, d_out = reference.as_intmat(d_in), reference.as_intmat(d_out)
    dims = (d_out.shape[0], d_out.shape[1], d_in.shape[1])
    bases = tuple(PairBasis(tuple(range(k)), ((),)) for k in dims)
    # no content vector: the whole complex is one block
    diffs = tuple(la.sparse_rows(d) for d in (d_out, d_in))
    block = Block((), tuple(tuple(range(k)) for k in dims), diffs)
    return ChainComplexZ("pair", 2, 0, bases, (block,))


def _pair_homology(d_in, d_out) -> ComplexHomology:
    return ComplexHomology(_pair_complex(d_in, d_out))


def test_hand_built_complexes_keep_their_own_solvers():
    # two one-block complexes of family "pair" and content (), with
    # different matrices: neither may read the other's Smith decomposition
    first = _pair_homology(reference.intmat([[2]]), reference.zeros(0, 1))
    second = _pair_homology(reference.intmat([[3]]), reference.zeros(0, 1))
    for _ in range(2):
        assert first.invariants(1) == la.GroupInvariants(0, (2,))
        assert second.invariants(1) == la.GroupInvariants(0, (3,))
        assert first.presentation(1)[0] == (2,)
        assert second.presentation(1)[0] == (3,)
    assert first.solver(2).block(()) is not second.solver(2).block(())
    assert _pair_homology(reference.intmat([[5]]), reference.zeros(0, 1)).invariants(1) == la.GroupInvariants(0, (5,))


def test_homology_zero_maps():
    d0 = reference.zeros(0, 4)
    dz = reference.zeros(4, 0)
    assert _pair_homology(dz, d0).invariants(1) == la.GroupInvariants(4, ())


def test_homology_multiplication_by_n():
    for n in (2, 5, 12):
        d_in = reference.intmat([[n]])
        d_out = reference.zeros(0, 1)
        got = _pair_homology(d_in, d_out).invariants(1)
        assert got == la.GroupInvariants(0, (n,))


def test_homology_middle_of_three_term_complex():
    # Z --2--> Z --0--> Z : kernel everything, image 2Z
    d_in = reference.intmat([[2]])
    d_out = reference.intmat([[0]])
    assert _pair_homology(d_in, d_out).invariants(1) == la.GroupInvariants(0, (2,))


def test_homology_rejects_nonzero_composition():
    # the construction-time check refuses d d != 0 and uncomposable shapes
    with pytest.raises(AssertionError):
        _check_dd_zero(_pair_complex([[1]], [[1]]))
    with pytest.raises(ValueError):
        _check_dd_zero(_pair_complex(reference.zeros(3, 1), reference.zeros(1, 2)))


def _random_composable_pair(rng, dim=5):
    """d_out then d_in with d_out @ d_in = 0, built from a kernel basis."""
    d_out = reference.intmat(rng.integers(-4, 4, size=(rng.integers(1, 4), dim)).tolist())
    snf = la.smith_normal_form(d_out)
    kernel = snf.V[:, snf.rank :]
    coeff = reference.intmat(rng.integers(-3, 3, size=(kernel.shape[1], 3)).tolist())
    d_in = reference.mat_mul(kernel, coeff)
    return d_in, d_out


def test_presentation_agrees_with_direct_invariants():
    rng = np.random.default_rng(7)
    finite = 0
    for _ in range(25):
        d_in, d_out = _random_composable_pair(rng)
        hom = _pair_homology(d_in, d_out)
        if hom.invariants(1).free_rank:
            with pytest.raises(la.InfiniteGroupUnsupportedError):
                hom.presentation(1)
            continue
        orders, classes = hom.presentation(1)
        assert len(classes) == len(orders)
        # the one block, with no content, holds every position of degree 1
        for content, row in classes:
            assert content == ()
            assert set(row) <= set(range(d_out.shape[1]))
        assert la.GroupInvariants(0, orders) == hom.invariants(1)
        finite += 1
    assert 0 < finite < 25


def test_homology_invariants_stable_under_basis_permutation():
    rng = np.random.default_rng(11)
    for _ in range(15):
        d_in, d_out = _random_composable_pair(rng)
        expect = _pair_homology(d_in, d_out).invariants(1)
        p_mid = rng.permutation(d_out.shape[1])
        p_left = rng.permutation(d_out.shape[0])
        p_right = rng.permutation(d_in.shape[1])
        got = _pair_homology(
            d_in[np.ix_(p_mid, p_right)], d_out[np.ix_(p_left, p_mid)]
        ).invariants(1)
        assert got == expect


def test_presentation_trivial_d_out():
    d_in = reference.intmat([[2, 0], [0, 3]])
    orders, _ = _pair_homology(d_in, reference.zeros(0, 2)).presentation(1)
    assert la.GroupInvariants(0, orders) == la.GroupInvariants(0, (6,))


def test_presentation_kernel_of_surjection():
    # H = ker(1 1) = Z has a free part, so it has no finite presentation
    hom = _pair_homology(reference.zeros(2, 0), reference.intmat([[1, 1]]))
    assert hom.invariants(1) == la.GroupInvariants(1, ())
    with pytest.raises(la.InfiniteGroupUnsupportedError):
        hom.presentation(1)


# -- lattice coordinates -------------------------------------------------------


def test_coordinates_zero_vector():
    c = la.LinearSolver(reference.intmat([[1, 0], [0, 1]])).solve([0, 0])
    assert list(c) == [0, 0]


def test_coordinates_standard_basis():
    c = la.LinearSolver(reference.identity(3)).solve([4, -1, 7])
    assert list(c) == [4, -1, 7]


def test_coordinates_scaled_column():
    c = la.LinearSolver(reference.intmat([[2], [4]])).solve([6, 12])
    assert list(c) == [3]


def test_coordinates_not_in_lattice():
    solver = la.LinearSolver(reference.intmat([[2], [4]]))
    with pytest.raises(la.NotInLatticeError):
        solver.solve([3, 6])  # rational but not integral
    with pytest.raises(la.NotInLatticeError):
        solver.solve([1, 0])  # not even rational


# -- presented map isomorphism --------------------------------------------------


def _cyclic(n):
    return reference.intmat([[n]])


def test_iso_identity_map():
    assert la.presented_map_is_iso(reference.identity(1), _cyclic(6), [6]) is True


def test_iso_zero_map_not_surjective():
    assert la.presented_map_is_iso(reference.intmat([[0]]), _cyclic(2), [2]) is False


def test_iso_z4_to_z2_well_defined_but_not_iso():
    # 4g maps to 4g = 0 in Z/2, so no NotWellDefined; invariants differ.
    assert la.presented_map_is_iso(reference.intmat([[1]]), _cyclic(4), [2]) is False


def test_iso_not_well_defined():
    with pytest.raises(la.NotWellDefinedError):
        la.presented_map_is_iso(reference.intmat([[1]]), _cyclic(2), [3])


def test_iso_rejects_infinite_groups():
    # the target Z is the order 0
    free = reference.zeros(1, 0)
    with pytest.raises(la.InfiniteGroupUnsupportedError):
        la.presented_map_is_iso(reference.identity(1), free, [0])
    # Z/2 -> Z is not well defined either, but infiniteness is checked first
    with pytest.raises(la.InfiniteGroupUnsupportedError):
        la.presented_map_is_iso(reference.intmat([[1]]), _cyclic(2), [0])
    # a free source onto a finite target
    with pytest.raises(la.InfiniteGroupUnsupportedError):
        la.presented_map_is_iso(reference.identity(1), free, [2])


def test_iso_rejects_a_negative_order_before_reducing(monkeypatch):
    calls = _count_reductions(monkeypatch)
    with pytest.raises(ValueError, match="nonnegative"):
        la.presented_map_is_iso(reference.identity(2), _cyclic(2), [2, -3])
    with pytest.raises(la.InfiniteGroupUnsupportedError):
        la.presented_map_facts(reference.identity(2), _cyclic(2), [0, 3])
    assert calls == []


def test_iso_between_equal_invariants_with_different_presentations():
    # Z/6 presented directly, onto Z/2 + Z/3
    f = reference.intmat([[1], [1]])  # g -> (1, 1), a generator of Z/2 + Z/3
    assert la.presented_map_is_iso(f, _cyclic(6), [2, 3]) is True


# (f, relations, orders, width of f, facts, is_iso or the error it raises)
_MAP_CASES = [
    ([[1]], [[6]], [6], 1, (True, True), True),
    ([[1], [1]], [[6]], [2, 3], 1, (True, True), True),
    ([[0]], [[2]], [2], 1, (True, False), False),
    ([[1]], [[4]], [2], 1, (True, True), False),
    ([[1]], [[2]], [3], 1, (False, True), la.NotWellDefinedError),
    ([[3, 2]], [[2, 0], [0, 3]], [6], 2, (True, True), True),
    ([[1, 1]], [[2, 0], [0, 3]], [6], 2, (False, True), la.NotWellDefinedError),
    # a free source, Z with no relation: its numpy form is zeros(1, 0)
    ([[1]], [[]], [2], 1, (True, True), la.InfiniteGroupUnsupportedError),
    # a source with no generators onto Z/1 and onto Z/2
    ([[]], [], [1], 0, (True, True), True),
    ([[]], [], [2], 0, (True, False), False),
]


def _map_forms(rows, width):
    """The matrix rows as dense lists, a numpy object array and SparseRows."""
    return [rows, reference.intmat(rows, width), la.sparse_rows(rows, width)]


def _iso_or_error(f, relations, orders):
    try:
        return la.presented_map_is_iso(f, relations, orders)
    except ValueError as exc:
        return type(exc)


@pytest.mark.parametrize("case", _MAP_CASES)
def test_presented_map_reads_every_matrix_form(case):
    rows, rel, orders, gens, facts, iso = case
    width = len(rel[0]) if rel else 0
    target = la.GroupInvariants(0, orders)
    for f, relations in itertools.product(_map_forms(rows, gens), _map_forms(rel, width)):
        assert la.presented_map_facts(f, relations, orders) == (*facts, target)
        assert _iso_or_error(f, relations, orders) is iso


def _count_reductions(monkeypatch) -> list:
    calls = []
    reduce = la._reduce

    def counted(rows, width):
        calls.append((len(rows), width))
        return reduce(rows, width)

    monkeypatch.setattr(la, "_reduce", counted)
    return calls


def test_iso_reduces_each_relation_matrix_once(monkeypatch):
    # the source relations and [f | diag(orders)] for surjectivity; the
    # target's orders are not reduced
    calls = _count_reductions(monkeypatch)
    assert la.presented_map_is_iso(reference.intmat([[1], [1]]), _cyclic(6), [2, 3]) is True
    assert len(calls) == 2


def test_complex_homology_reduces_each_differential_once(monkeypatch):
    calls = _count_reductions(monkeypatch)
    for cache in (build_C, _koszul):
        cache.cache_clear()
    full = build_C(4, 2)
    hom = ComplexHomology(full)
    for i in range(full.n + 1):
        hom.invariants(i)
    # d_0, ..., d_{n+1}: invariants(n) asks for d_{n+1}; the groups read one
    # block per S_r orbit of content vectors, here (0, 4), (1, 3) and (2, 2)
    assert len(calls) == (full.n + 2) * len(full.orbits) == 18

    def one_round():
        for i in range(full.n + 1):
            hom.presentation(i)
            hom.invariants(i)

    # the presentations add the one block with torsion that is not an orbit
    # representative, (4, 0) in degree 1, but its nonzero entries are those
    # of (0, 4), so it shares their Smith decomposition; nothing is reduced
    # twice, also not for a second homology of the same complex
    one_round()
    with_torsion = [
        (i, b.content)
        for i in range(1, full.n + 2)
        for b in full.blocks
        if b.content != tuple(sorted(b.content))
        and any(m > 1 for m in hom.solver(i).diagonal(b.content))
    ]
    assert with_torsion == [(1, (4, 0))]
    assert hom.solver(1).block((4, 0)) is hom.solver(1).block((0, 4))
    assert len(calls) == 18
    one_round()
    hom = ComplexHomology(full)
    one_round()
    assert len(calls) == 18


# -- F_p routines ----------------------------------------------------------------


def test_fp_rank_identity():
    for p in (2, 3, 5):
        assert la.fp_rank(reference.identity(4), p) == 4
        assert la.fp_cokernel_basis(reference.identity(4), p) == []


def test_fp_rank_multiple_of_p():
    assert la.fp_rank([[2]], 2) == 0
    assert la.fp_cokernel_basis([[2]], 2) == [0]


def test_fp_rank_parity_example():
    assert la.fp_rank([[1, 1], [1, 1]], 2) == 1
    assert len(la.fp_cokernel_basis([[1, 1], [1, 1]], 2)) == 1


def test_fp_rank_counts_smith_diagonal_units_mod_p():
    # universal coefficients: rank over F_p = nonzero invariant factors prime to p
    for family in "CD":
        for n in range(1, 7):
            for r in range(1, 4):
                hom, full = homology_of(family, n, r), build(family, n, r)
                for i in range(n + 2):
                    # the Smith diagonal of d_i, block by block, each read
                    # off its orbit representative
                    solver = hom.solver(i)
                    diag = [x for b in full.blocks for x in solver.diagonal(b.content)]
                    for p in (2, 3, 5):
                        want = sum(1 for x in diag if x % p)
                        assert la.fp_rank(full.d(i), p) == want, (family, n, r, i, p)


def test_fp_rejects_composite_modulus():
    with pytest.raises(la.NotPrimeError):
        la.fp_rank([[1]], 6)
    with pytest.raises(la.NotPrimeError):
        la.fp_cokernel_basis([[1]], 1)


def _fp_column_echelon(m, p):
    """Column echelon form of m mod p on int64 columns, as intlinalg ran it
    before its F_p routines moved to sparse rows: (echelon, pivot rows).
    Residues times residues stay below p^2, so int64 is exact for p < 2^31."""
    a = (reference.as_intmat(m) % p).astype(np.int64)
    rows, cols = a.shape
    pivots = []
    c = 0
    for i in range(rows):
        if c >= cols:
            break
        nz = np.nonzero(a[i, c:])[0]
        if nz.size == 0:
            continue
        k = c + int(nz[0])
        if k != c:
            a[:, [c, k]] = a[:, [k, c]]
        inv = pow(int(a[i, c]), -1, p)
        a[:, c] = (a[:, c] * inv) % p
        for j in np.nonzero(a[i, :])[0]:
            if j != c:
                a[:, j] = (a[:, j] - a[i, j] * a[:, c]) % p
        pivots.append(i)
        c += 1
    return a, pivots


FP_PRIMES = (2, 3, 5, 7, 101, 10007)


def _fp_cases(rng, p):
    """Random matrices of several shapes and densities, zero matrices,
    matrices already in echelon form and multiples of p."""
    for rows, cols, density in [(1, 1, 1.0), (4, 7, 0.5), (9, 5, 0.7), (12, 12, 0.2), (20, 30, 0.1)]:
        a = rng.integers(-3 * p, 3 * p, size=(rows, cols)) * (rng.random((rows, cols)) < density)
        yield a.tolist()
        yield (p * a).tolist()
        # rows that repeat or combine earlier ones
        b = np.vstack([a, a[: rows // 2] * 2 + a[1 : rows // 2 + 1]]) if rows > 1 else a
        yield b.tolist()
    for rows, cols in [(0, 0), (0, 4), (3, 0), (5, 5), (3, 8)]:
        yield reference.zeros(rows, cols)
    for k in (1, 4, 9):
        yield reference.identity(k).tolist()
        upper = np.triu(rng.integers(-p, p, size=(k, k + 2)), 1)
        upper[np.arange(k), np.arange(k)] = 1
        yield upper.tolist()
        yield upper.T.tolist()


def test_fp_rank_and_cokernel_rows_match_the_int64_echelon():
    rng = np.random.default_rng(19)
    cases = 0
    for p in FP_PRIMES:
        for m in _fp_cases(rng, p):
            _, pivots = _fp_column_echelon(m, p)
            assert la.fp_rank(m, p) == len(pivots), (p, m)
            assert la.fp_cokernel_basis(m, p) == [i for i in range(len(m)) if i not in pivots]
            cases += 1
    assert cases == len(FP_PRIMES) * 29


# -- exchange format ---------------------------------------------------------------


def test_text_round_trip():
    a = reference.intmat([[1, -2, 3], [0, 5, -6]])
    assert la.mat_parse(la.mat_to_text(a)) == (a.tolist(), 3)


def test_json_round_trip():
    a = reference.intmat([[10**30, -1], [0, 2]])
    assert la.mat_parse(reference.mat_to_json(a)) == (a.tolist(), 2)


def test_round_trip_big_negative_and_empty_shapes():
    big = reference.intmat([[2**64 + 1, -(2**70)], [-3, 0], [2**63, -(2**63) - 1]])
    for a in (big, reference.zeros(0, 3), reference.zeros(3, 0), reference.zeros(0, 0)):
        for text in (la.mat_to_text(a), reference.mat_to_json(a)):
            rows, cols = la.mat_parse(text)
            assert (len(rows), cols) == a.shape
            assert rows == a.tolist()
            assert all(type(x) is int for row in rows for x in row)
    # the exact text: one line per row, entries separated by single spaces
    assert la.mat_to_text(big) == (
        "3 2\n18446744073709551617 -1180591620717411303424\n-3 0\n"
        "9223372036854775808 -9223372036854775809\n"
    )
    # against the cell-by-cell writer, on dense and sparse matrices of mixed
    # signs and sizes (entries beyond 2**64), with all-zero rows, and through
    # write_text given the nonzero entries
    rng = np.random.default_rng(11)
    mats = [big, reference.zeros(0, 3), reference.zeros(2, 0), reference.zeros(4, 5)]
    for rows, cols, density in [(6, 5, 1.0), (1, 1, 1.0), (7, 9, 0.1), (12, 5, 0.5), (30, 40, 0.02)]:
        a = reference.zeros(rows, cols)
        for i, j in zip(*np.nonzero(rng.random((rows, cols)) < density)):
            a[i, j] = int(rng.integers(-9, 10)) * 7 ** int(rng.integers(0, 40))
        a[rng.integers(rows), :] = 0
        mats.append(a)
    for a in mats:
        lines = [f"{a.shape[0]} {a.shape[1]}"]
        lines.extend(" ".join(map(str, row)) for row in a.tolist())
        text = la.mat_to_text(a)
        assert text == "\n".join(lines) + "\n"
        assert la.mat_parse(text) == (a.tolist(), a.shape[1])
        buf = io.StringIO()
        rows, cols = np.nonzero(a)
        la.write_text(buf, a.shape, rows.tolist(), cols.tolist(), a[rows, cols].tolist())
        assert buf.getvalue() == text
    assert sum(abs(x) > 2**64 for a in mats[4:] for x in a.reshape(-1)) > 10
    assert la.mat_to_text(reference.zeros(0, 3)) == "0 3\n"
    assert la.mat_to_text(reference.zeros(2, 0)) == "2 0\n\n\n"
    assert reference.mat_to_json(reference.zeros(0, 2)) == '{"cols": 2, "data": [], "rows": 0}'


def test_parser_reads_tokens_as_int_does():
    tokens = ["-0", "+3", "007", "1_000", "-12", "0", "+3", "12345678901234567890123"]
    rows, _ = reference.mat_from_text(f"2 4\n{' '.join(tokens)}\n")
    flat = [x for row in rows for x in row]
    assert flat == [int(t) for t in tokens]
    assert flat[:4] == [0, 3, 7, 1000]
    assert all(type(x) is int for x in flat)
    with pytest.raises(ValueError, match="'2.7'"):
        reference.mat_from_text("1 2\n1 2.7\n")
    # with several bad tokens, the error names the first one read
    for text, first in (("1 3 x 1 y", "x"), ("1 3 1 y x", "y"), ("1 3 y y x", "y")):
        with pytest.raises(ValueError, match=f"'{first}'"):
            reference.mat_from_text(text)


def _whole_text_reference(text):
    """The text parser as it read a whole text before the reader streamed
    it: one split, every token through int(), the errors in this order."""
    header = re.match(r"\s*(\S+)\s+(\S+)", text)
    if header is None:
        raise ValueError("matrix text must start with 'rows cols'")
    rows, cols = int(header[1]), int(header[2])
    if rows < 0 or cols < 0:
        raise ValueError(f"a matrix cannot have shape {rows} x {cols}")
    data = text.split()[2:]
    if len(data) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, found {len(data)}")
    values = list(map(int, data))
    return [values[k * cols : (k + 1) * cols] for k in range(rows)], cols


def _layouts(tokens, rows, cols, rnd):
    """The text of a matrix, given its tokens row-major, in several layouts."""
    head = f"{rows} {cols}"
    lines = [" ".join(tokens[k * cols : (k + 1) * cols]) for k in range(rows)]
    yield "one row per line", "\n".join([head] + lines) + "\n"
    yield "one line", " ".join([head] + tokens)
    cuts = sorted(rnd.sample(range(len(tokens) + 1), min(len(tokens) + 1, 1 + len(tokens) // 3)))
    pieces = [" ".join(tokens[a:b]) for a, b in zip([0] + cuts, cuts + [len(tokens)])]
    yield "rows split across lines", "\n".join([head] + pieces) + "\n"
    seps = [" ", "   ", "\t", " \t ", "\n", "\r\n", "\n\n  "]
    mixed = "".join(rnd.choice(seps) + t for t in [str(rows), str(cols)] + tokens)
    yield "tabs and runs of spaces", rnd.choice(["", "\n", " \t"]) + mixed + rnd.choice(["", "\n"])
    k = rnd.randint(0, len(tokens))
    yield "entries on the header line", " ".join([head] + tokens[:k]) + "\n" + " ".join(tokens[k:])


def test_streaming_reader_matches_the_whole_text_parser_in_every_layout():
    rnd = random.Random(23)
    special = ["-0", "00", "+3", "007", "1_000", "-12", str(2**64 + 7), str(-(2**70) - 1),
               "100", "-1000"]
    cases = 0
    for rows, cols, density in [(0, 0, 0), (0, 4, 0), (3, 0, 0), (1, 1, 1), (5, 7, 0.3),
                                (12, 9, 0.1), (4, 30, 0.6), (20, 3, 0.9)]:
        for _ in range(4):
            tokens = [rnd.choice(special) if rnd.random() < density else "0"
                      for _ in range(rows * cols)]
            for name, text in _layouts(tokens, rows, cols, rnd):
                want, width = _whole_text_reference(text)
                sparse = [la._nonzero(row) for row in want]
                assert la.mat_parse(text) == (want, width), name
                for got in (la.read_text(text.splitlines(keepends=True)),
                            la.read_text(text.split(" ")),  # pieces cut at any whitespace
                            la.mat_read(io.StringIO(text))):
                    assert isinstance(got, la.SparseRows) and got.width == width, name
                    assert list(got) == sparse, (name, text)
                    assert all(list(row) == sorted(row) for row in got), name
                    assert all(type(x) is int for row in got for x in row.values()), name
                cases += 1
    assert cases == 8 * 4 * 5
    # values past 2**64 and every special token were read, the zero ones dropped
    got = la.read_text(["1 10\n", " ".join(special)])
    assert dict(got[0]) == {2: 3, 3: 7, 4: 1000, 5: -12, 6: 2**64 + 7, 7: -(2**70) - 1,
                            8: 100, 9: -1000}


@pytest.mark.parametrize(
    "text",
    ["2\n", "2 x\n1 2\n", "-1 2\n", "2 2\n1 0\n0\n", "", " \n\t\n", "x\n2 1 2\n",
     "2 2 1 2 3", "1 2\n1 2.7\n", "1 3 x 1 y", "1 3 1 y x", "1 3\ny\ny x", "1 2 x\n",
     "1 1\n1\n2\n", "2 -3\n", "1 2\n0x1 0\n", "3 1\n\n\n1\n2 x", "1 3\n0 00-1 0", "1 2 007 1e3"],
)
def test_streaming_reader_errors_as_the_whole_text_parser(text):
    # the error cases of the snf command's test, and more: each raises the
    # message the whole-text parser raised, however the text is fed
    with pytest.raises(ValueError) as want:
        _whole_text_reference(text)
    for read in (lambda: la.read_text(text.splitlines(keepends=True)),
                 lambda: la.mat_read(io.StringIO(text)),
                 lambda: la.mat_parse(text)):
        with pytest.raises(ValueError) as got:
            read()
        assert str(got.value) == str(want.value)


def test_smith_reduction_leaves_the_shared_koszul_rows_unchanged():
    # _eliminate works in place, so the reduction copies the rows it is
    # given; the blocks of _koszul are shared by every complex that holds them
    _koszul.cache_clear()
    for left, right in (("wedge", "gamma"), ("sym", "wedge"), ("wedge", "sym")):
        for values in [(1,), (3,), (1, 1), (2, 1), (2, 2), (1, 1, 1, 1), (3, 2, 1), (2, 2, 2, 1)]:
            diffs = _koszul(left, right, values)[3]
            before = [[dict(row) for row in d] for d in diffs]
            for d, rows in zip(diffs, before):
                first, second = la.LinearSolver(d), la.LinearSolver(d)
                assert [dict(row) for row in d] == rows, (left, right, values)
                assert first.diag == second.diag
                assert first.snf.urows == second.snf.urows
                assert first.snf.vcols == second.snf.vcols
                assert first.diag == la.LinearSolver(np.asarray(d)).diag  # read dense
            assert _koszul(left, right, values)[3] is diffs
    # a single component is reduced whole, on copies all the same
    one = la.SparseRows([{0: 2, 1: 4}, {0: 4, 1: 6}], 2)
    assert la.smith_normal_form(one).diagonal == [2, 2]
    assert one == [{0: 2, 1: 4}, {0: 4, 1: 6}]


def test_sparse_rows_read_as_dense_by_numpy_and_by_tolist():
    m = la.SparseRows([{1: 2**70}, {}, {0: -3, 2: 1}], 4)
    assert m.shape == (3, 4)
    assert m.tolist() == [[0, 2**70, 0, 0], [0, 0, 0, 0], [-3, 0, 1, 0]]
    a = np.asarray(m)
    assert a.dtype == object and a.shape == (3, 4) and a.tolist() == m.tolist()
    assert np.asarray(la.SparseRows([], 5)).shape == (0, 5)
    assert la.sparse_rows(m) is m
    assert la.sparse_rows(a) == list(m) and la.sparse_rows(a).width == 4
    assert la.sparse_rows([], 3).shape == (0, 3)


def test_text_format_shape():
    text = la.mat_to_text(reference.intmat([[1, 2], [3, 4]]))
    assert text.splitlines()[0] == "2 2"


def test_parse_rejects_bad_counts():
    with pytest.raises(ValueError):
        reference.mat_from_text("2 2 1 2 3")
