"""Exact linear algebra: Smith form, cokernels, homology, presentations.

Homology of a composable pair goes through ComplexHomology, the package's
one homology route, on a two-step complex.
"""

import io
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from derham import intlinalg as la
from derham.complexes import (
    Block,
    ChainComplexZ,
    ComplexHomology,
    PairBasis,
    _check_dd_zero,
    build_C,
    homology_of,
)


def small_matrices(max_dim=4, max_entry=6):
    dims = st.integers(1, max_dim)
    entry = st.integers(-max_entry, max_entry)
    return dims.flatmap(
        lambda m: dims.flatmap(
            lambda n: st.lists(
                st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m
            )
        )
    ).map(la.intmat)


# diagonal blocks whose sum needs the divisor-chain fix-up: 2 + 3 = 1 + 6
CHAIN_FIXUP_BLOCKS = ([[2]], [[3]], [[4]], [[6]], [[2, 0], [0, 3]])


def shuffled_block_sums(max_dim=3, max_zero=2):
    """Block sums of 2-4 small blocks and some zero rows and columns, with
    rows and columns shuffled, so the nonzero pattern has several
    connected components."""
    block = st.one_of(
        st.sampled_from(CHAIN_FIXUP_BLOCKS).map(la.intmat), small_matrices(max_dim)
    )

    @st.composite
    def draw_sum(draw):
        blocks = draw(st.lists(block, min_size=2, max_size=4))
        pad = la.zeros(draw(st.integers(0, max_zero)), draw(st.integers(0, max_zero)))
        a = la.block_diag(blocks + [pad])
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
                g = np.gcd(g, abs(la.det_exact(sub)))
        if g == 0:
            break
        diag.append(g // prev)
        prev = g
    while len(diag) < min(m, n):
        diag.append(0)
    return diag


# -- Smith normal form -------------------------------------------------------


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
    want = (m.copy(), la.identity(m.shape[0]), la.identity(m.shape[1]))
    _snf_dense(*want)
    got = (m.copy(), la.identity(m.shape[0]), la.identity(m.shape[1]))
    la._snf_whole(*got, la._components(m)[1])
    for name, w, g in zip("DUV", want, got):
        assert g.shape == w.shape, name
        assert all(type(x) is int for x in g.flat), name
        assert g.tolist() == w.tolist(), name


def koszul_block(n, i):
    """d_i of the Koszul complex on n coordinates with every c_j = 1: the
    content block of (1^n), rows the (i - 1)-subsets, columns the i-subsets."""
    rows = {s: k for k, s in enumerate(itertools.combinations(range(n), i - 1))}
    cols = list(itertools.combinations(range(n), i))
    d = la.zeros(len(rows), len(cols))
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
        assert_sparse_elimination_matches_dense(la.intmat(m))
    for diag in ([2, 3], [4, 6, 10]):
        assert_sparse_elimination_matches_dense(la.intmat(np.diag(diag).tolist()))
    for shape in [(0, 0), (0, 3), (3, 0)]:
        assert_sparse_elimination_matches_dense(la.zeros(*shape))
    for i in range(1, 9):
        assert_sparse_elimination_matches_dense(koszul_block(8, i))


def test_snf_1x1():
    res = la.smith_normal_form([[7]])
    assert res.diagonal == [7]
    assert la.is_zero(la.mat_mul(la.mat_mul(res.U, la.intmat([[7]])), res.V) - res.D)
    assert res.U[0, 0] in (1, -1) and res.V[0, 0] in (1, -1)


def test_snf_identity():
    for k in (1, 2, 5):
        res = la.smith_normal_form(la.identity(k))
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
    assert la.is_zero(la.mat_mul(la.mat_mul(u, a), v) - d)
    assert abs(la.det_exact(u)) == 1
    assert abs(la.det_exact(v)) == 1
    diag = [int(d[i, i]) for i in range(min(d.shape))]
    for x, y in zip(diag, diag[1:]):
        if x and y:
            assert y % x == 0
    assert all(x >= 0 for x in diag)
    off = d.copy()
    for i in range(min(d.shape)):
        off[i, i] = 0
    assert la.is_zero(off)


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
        _snf_dense(whole, la.identity(d.shape[0]), la.identity(d.shape[1]))
        u, got, v = la.smith_normal_form(d)
        assert la.is_zero(got - whole), i
        assert la.is_zero(la.mat_mul(la.mat_mul(u, d), v) - got), i


def test_snf_empty_shapes():
    for shape in [(0, 0), (0, 3), (3, 0)]:
        res = la.smith_normal_form(la.zeros(*shape))
        assert res.D.shape == shape


def test_snf_diagonal_fast_path_agrees():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = la.intmat(rng.integers(-9, 9, size=(5, 6)).tolist())
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
        mine = [d for d in la.snf_diagonal(la.intmat(a)) if d]
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
    inv = la.invariants_of_cokernel(la.zeros(3, 2))
    assert inv == la.GroupInvariants(3, ())


def test_cokernel_crt_normalization():
    # Z/2 + Z/3 = Z/6 via the divisor chain
    inv = la.invariants_of_cokernel([[2, 0], [0, 3]])
    assert inv == la.GroupInvariants(0, (6,))
    assert la.GroupInvariants(0, (2, 3)) == la.GroupInvariants(0, (6,))
    assert la.GroupInvariants(0, (4, 6)) == la.GroupInvariants(0, (2, 12))


@settings(max_examples=40, deadline=None)
@given(small_matrices(max_dim=3, max_entry=4), st.randoms(use_true_random=False))
def test_cokernel_invariant_under_unimodular_factors(a, rnd):
    def random_unimodular(n):
        u = la.identity(n)
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
    transformed = la.mat_mul(la.mat_mul(u, a), v)
    assert la.invariants_of_cokernel(a) == la.invariants_of_cokernel(transformed)


# -- homology of a composable pair --------------------------------------------


def _pair_complex(d_in, d_out) -> ChainComplexZ:
    """Z^a --d_in--> Z^b --d_out--> Z^c as a complex in degrees 2, 1, 0, so
    that its degree-1 homology is ker(d_out) / im(d_in)."""
    d_in, d_out = la.as_intmat(d_in), la.as_intmat(d_out)
    dims = (d_out.shape[0], d_out.shape[1], d_in.shape[1])
    bases = tuple(PairBasis(tuple(range(k)), ((),)) for k in dims)
    # no content vector: the whole complex is one block
    block = Block((), tuple(tuple(range(k)) for k in dims), (d_out, d_in))
    return ChainComplexZ("pair", 2, 0, bases, (block,))


def _pair_homology(d_in, d_out) -> ComplexHomology:
    return ComplexHomology(_pair_complex(d_in, d_out))


def test_homology_zero_maps():
    d0 = la.zeros(0, 4)
    dz = la.zeros(4, 0)
    assert _pair_homology(dz, d0).invariants(1) == la.GroupInvariants(4, ())


def test_homology_multiplication_by_n():
    for n in (2, 5, 12):
        d_in = la.intmat([[n]])
        d_out = la.zeros(0, 1)
        got = _pair_homology(d_in, d_out).invariants(1)
        assert got == la.GroupInvariants(0, (n,))


def test_homology_middle_of_three_term_complex():
    # Z --2--> Z --0--> Z : kernel everything, image 2Z
    d_in = la.intmat([[2]])
    d_out = la.intmat([[0]])
    assert _pair_homology(d_in, d_out).invariants(1) == la.GroupInvariants(0, (2,))


def test_homology_rejects_nonzero_composition():
    # the construction-time check refuses d d != 0 and uncomposable shapes
    with pytest.raises(AssertionError):
        _check_dd_zero(_pair_complex([[1]], [[1]]))
    with pytest.raises(ValueError):
        _check_dd_zero(_pair_complex(la.zeros(3, 1), la.zeros(1, 2)))


def _random_composable_pair(rng, dim=5):
    """d_out then d_in with d_out @ d_in = 0, built from a kernel basis."""
    d_out = la.intmat(rng.integers(-4, 4, size=(rng.integers(1, 4), dim)).tolist())
    snf = la.smith_normal_form(d_out)
    kernel = snf.V[:, snf.rank :]
    coeff = la.intmat(rng.integers(-3, 3, size=(kernel.shape[1], 3)).tolist())
    d_in = la.mat_mul(kernel, coeff)
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
        pres, classes = hom.presentation(1)
        assert classes.shape == (pres.gens, d_out.shape[1])
        assert pres.invariants() == hom.invariants(1)
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
    d_in = la.intmat([[2, 0], [0, 3]])
    pres, _ = _pair_homology(d_in, la.zeros(0, 2)).presentation(1)
    assert pres.invariants() == la.GroupInvariants(0, (6,))


def test_presentation_kernel_of_surjection():
    # H = ker(1 1) = Z has a free part, so it has no finite presentation
    hom = _pair_homology(la.zeros(2, 0), la.intmat([[1, 1]]))
    assert hom.invariants(1) == la.GroupInvariants(1, ())
    with pytest.raises(la.InfiniteGroupUnsupportedError):
        hom.presentation(1)


# -- lattice coordinates -------------------------------------------------------


def test_coordinates_zero_vector():
    c = la.LinearSolver(la.intmat([[1, 0], [0, 1]])).solve([0, 0])
    assert list(c) == [0, 0]


def test_coordinates_standard_basis():
    c = la.LinearSolver(la.identity(3)).solve([4, -1, 7])
    assert list(c) == [4, -1, 7]


def test_coordinates_scaled_column():
    c = la.LinearSolver(la.intmat([[2], [4]])).solve([6, 12])
    assert list(c) == [3]


def test_coordinates_not_in_lattice():
    solver = la.LinearSolver(la.intmat([[2], [4]]))
    with pytest.raises(la.NotInLatticeError):
        solver.solve([3, 6])  # rational but not integral
    with pytest.raises(la.NotInLatticeError):
        solver.solve([1, 0])  # not even rational


# -- presented map isomorphism --------------------------------------------------


def _cyclic(n):
    return la.PresentedGroup(1, la.intmat([[n]]))


def test_iso_identity_map():
    g = _cyclic(6)
    assert la.presented_map_is_iso(la.identity(1), g, g) is True


def test_iso_zero_map_not_surjective():
    g = _cyclic(2)
    assert la.presented_map_is_iso(la.intmat([[0]]), g, g) is False


def test_iso_z4_to_z2_well_defined_but_not_iso():
    # 4g maps to 4g = 0 in Z/2, so no NotWellDefined; invariants differ.
    assert la.presented_map_is_iso(la.intmat([[1]]), _cyclic(4), _cyclic(2)) is False


def test_iso_not_well_defined():
    with pytest.raises(la.NotWellDefinedError):
        la.presented_map_is_iso(la.intmat([[1]]), _cyclic(2), _cyclic(3))


def test_iso_rejects_infinite_groups():
    free = la.PresentedGroup(1, la.zeros(1, 0))
    with pytest.raises(la.InfiniteGroupUnsupportedError):
        la.presented_map_is_iso(la.identity(1), free, free)
    # Z/2 -> Z is not well defined either, but infiniteness is checked first
    with pytest.raises(la.InfiniteGroupUnsupportedError):
        la.presented_map_is_iso(la.intmat([[1]]), _cyclic(2), free)


def test_iso_between_equal_invariants_with_different_presentations():
    # Z/6 presented directly and as Z/2 + Z/3
    source = _cyclic(6)
    target = la.PresentedGroup(2, la.intmat([[2, 0], [0, 3]]))
    f = la.intmat([[1], [1]])  # g -> (1, 1), a generator of Z/2 + Z/3
    assert la.presented_map_is_iso(f, source, target) is True


def _count_reductions(monkeypatch) -> list:
    calls = []
    reduce = la._snf_inplace

    def counted(a, u, v):
        calls.append(a.shape)
        reduce(a, u, v)

    monkeypatch.setattr(la, "_snf_inplace", counted)
    return calls


def test_iso_reduces_each_relation_matrix_once(monkeypatch):
    # the source relations, the target relations (invariants and
    # well-definedness both) and [f | target relations] for surjectivity
    calls = _count_reductions(monkeypatch)
    source = _cyclic(6)
    target = la.PresentedGroup(2, la.intmat([[2, 0], [0, 3]]))
    assert la.presented_map_is_iso(la.intmat([[1], [1]]), source, target) is True
    assert len(calls) == 3


def test_complex_homology_reduces_each_differential_once(monkeypatch):
    calls = _count_reductions(monkeypatch)
    hom = ComplexHomology(build_C(4, 2))
    for i in range(hom.cx.n + 1):
        hom.invariants(i)
    # d_0, ..., d_{n+1}: invariants(n) asks for d_{n+1}; the groups read one
    # block per S_r orbit of content vectors
    assert len(calls) == (hom.cx.n + 2) * len(hom.cx.orbits)

    def one_round():
        for i in range(hom.cx.n + 1):
            hom.presentation(i)
            hom.invariants(i)
            assert hom.boundary_solver(i).rank == hom.solver(i + 1).rank

    # the presentations add the blocks with torsion that are not orbit
    # representatives, and nothing is reduced twice
    one_round()
    with_torsion = [
        (i, b.content)
        for i in range(1, hom.cx.n + 2)
        for b in hom.cx.blocks
        if b.content != tuple(sorted(b.content))
        and any(m > 1 for m in hom.solver(i).diagonal(b.content))
    ]
    assert with_torsion
    assert len(calls) == (hom.cx.n + 2) * len(hom.cx.orbits) + len(with_torsion)
    one_round()
    assert len(calls) == (hom.cx.n + 2) * len(hom.cx.orbits) + len(with_torsion)
    assert all(hom.boundary_solver(i) is hom.solver(i + 1) for i in range(hom.cx.n + 1))


# -- F_p routines ----------------------------------------------------------------


def test_fp_rank_identity():
    for p in (2, 3, 5):
        assert la.fp_rank(la.identity(4), p) == 4
        assert la.fp_cokernel_basis(la.identity(4), p) == []


def test_fp_rank_multiple_of_p():
    assert la.fp_rank([[2]], 2) == 0
    basis = la.fp_cokernel_basis([[2]], 2)
    assert len(basis) == 1 and list(basis[0]) == [1]


def test_fp_rank_parity_example():
    assert la.fp_rank([[1, 1], [1, 1]], 2) == 1
    assert len(la.fp_cokernel_basis([[1, 1], [1, 1]], 2)) == 1


def test_fp_rank_counts_smith_diagonal_units_mod_p():
    # universal coefficients: rank over F_p = nonzero invariant factors prime to p
    for family in "CD":
        for n in range(1, 7):
            for r in range(1, 4):
                hom = homology_of(family, n, r)
                for i in range(n + 2):
                    # the Smith diagonal of d_i, block by block, each read
                    # off its orbit representative
                    solver = hom.solver(i)
                    diag = [x for b in hom.cx.blocks for x in solver.diagonal(b.content)]
                    for p in (2, 3, 5):
                        want = sum(1 for x in diag if x % p)
                        assert la.fp_rank(hom.cx.d(i), p) == want, (family, n, r, i, p)


def test_fp_rejects_composite_modulus():
    with pytest.raises(la.NotPrimeError):
        la.fp_rank([[1]], 6)


# -- exchange format ---------------------------------------------------------------


def test_text_round_trip():
    a = la.intmat([[1, -2, 3], [0, 5, -6]])
    b = la.mat_parse(la.mat_to_text(a))
    assert la.is_zero(a - b)


def test_json_round_trip():
    a = la.intmat([[10**30, -1], [0, 2]])
    b = la.mat_parse(la.mat_to_json(a))
    assert la.is_zero(a - b)


def test_round_trip_big_negative_and_empty_shapes():
    big = la.intmat([[2**64 + 1, -(2**70)], [-3, 0], [2**63, -(2**63) - 1]])
    for a in (big, la.zeros(0, 3), la.zeros(3, 0), la.zeros(0, 0)):
        for text in (la.mat_to_text(a), la.mat_to_json(a)):
            b = la.mat_parse(text)
            assert b.dtype == object and b.shape == a.shape
            assert b.tolist() == a.tolist()
            assert all(type(x) is int for x in b.reshape(-1))
    # the exact text: one line per row, entries separated by single spaces
    assert la.mat_to_text(big) == (
        "3 2\n18446744073709551617 -1180591620717411303424\n-3 0\n"
        "9223372036854775808 -9223372036854775809\n"
    )
    # against the cell-by-cell writer, on dense and sparse matrices of mixed
    # signs and sizes (entries beyond 2**64), with all-zero rows, and through
    # write_text given the nonzero entries
    rng = np.random.default_rng(11)
    mats = [big, la.zeros(0, 3), la.zeros(2, 0), la.zeros(4, 5)]
    for rows, cols, density in [(6, 5, 1.0), (1, 1, 1.0), (7, 9, 0.1), (12, 5, 0.5), (30, 40, 0.02)]:
        a = la.zeros(rows, cols)
        for i, j in zip(*np.nonzero(rng.random((rows, cols)) < density)):
            a[i, j] = int(rng.integers(-9, 10)) * 7 ** int(rng.integers(0, 40))
        a[rng.integers(rows), :] = 0
        mats.append(a)
    for a in mats:
        lines = [f"{a.shape[0]} {a.shape[1]}"]
        lines.extend(" ".join(map(str, row)) for row in a.tolist())
        text = la.mat_to_text(a)
        assert text == "\n".join(lines) + "\n"
        assert la.mat_parse(text).tolist() == a.tolist()
        buf = io.StringIO()
        rows, cols = np.nonzero(a)
        la.write_text(buf, a.shape, rows.tolist(), cols.tolist(), a[rows, cols].tolist())
        assert buf.getvalue() == text
    assert sum(abs(x) > 2**64 for a in mats[4:] for x in a.reshape(-1)) > 10
    assert la.mat_to_text(la.zeros(0, 3)) == "0 3\n"
    assert la.mat_to_text(la.zeros(2, 0)) == "2 0\n\n\n"
    assert la.mat_to_json(la.zeros(0, 2)) == '{"cols": 2, "data": [], "rows": 0}'


def test_parser_reads_tokens_as_int_does():
    tokens = ["-0", "+3", "007", "1_000", "-12", "0", "+3", "12345678901234567890123"]
    a = la.mat_from_text(f"2 4\n{' '.join(tokens)}\n")
    assert a.reshape(-1).tolist() == [int(t) for t in tokens]
    assert a.reshape(-1).tolist()[:4] == [0, 3, 7, 1000]
    assert all(type(x) is int for x in a.reshape(-1))
    with pytest.raises(ValueError, match="'2.7'"):
        la.mat_from_text("1 2\n1 2.7\n")
    # with several bad tokens, the error names the first one read
    for text, first in (("1 3 x 1 y", "x"), ("1 3 1 y x", "y"), ("1 3 y y x", "y")):
        with pytest.raises(ValueError, match=f"'{first}'"):
            la.mat_from_text(text)


def test_text_format_shape():
    text = la.mat_to_text(la.intmat([[1, 2], [3, 4]]))
    assert text.splitlines()[0] == "2 2"


def test_parse_rejects_bad_counts():
    with pytest.raises(ValueError):
        la.mat_from_text("2 2 1 2 3")
