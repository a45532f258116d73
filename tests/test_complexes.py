"""Complex construction, homology, decomposition and Kunneth checks."""

import numpy as np
import pytest

from derham import abelian as ab
from derham import complexes as cx
from derham import intlinalg as la
from derham import reference as ref
from derham.bases import (
    basis_index,
    enumerate_basis,
    sym_multiply,
    wedge_delete,
    wedge_normalize,
)
from derham.intlinalg import GroupInvariants
from derham.reference import gamma_module_action, to_dense, wedge_insert


def test_build_C_rank_one_weight_two():
    c = ref.build_C(2, 1)
    assert [c.dim(i) for i in range(3)] == [1, 1, 0]
    # x (x) x maps to -(x * x) = -2 gamma_2(x)
    assert c.d(1)[0, 0] == -2


def test_build_C_rank_zero_trivial():
    c = ref.build_C(3, 0)
    assert all(c.dim(i) == 0 for i in range(4))


def test_build_C_weight_zero_is_unit_complex():
    for r in range(4):
        c = ref.build_C(0, r)
        assert c.labels(0) == (((), (0,) * r),)
        assert c.labels(-1) == c.labels(1) == ()
        assert [c.dim(i) for i in (-1, 0, 1)] == [0, 1, 0]
        h = cx.homology_of("C", 0, r)
        assert h.invariants(0) == GroupInvariants(1, ())
        assert all(h.invariants(i).is_trivial for i in (-1, 1, 2))


def test_build_C_dimension_counts():
    c = ref.build_C(4, 2)
    assert c.d(1).shape == (5, 8)
    for i in range(5):
        assert c.dim(i) == len(c.bases[i].left) * len(c.bases[i].right)


def test_build_D_weight_one_identity():
    for r in (1, 2, 3):
        d = ref.build_D(1, r)
        assert ref.is_zero(d.d(1) - ref.identity(r))


def test_build_D_rank_one_weight_two():
    d = ref.build_D(2, 1)
    # x^2 extracts x with multiplicity 2; wedge^2 of a line is 0
    assert [d.dim(i) for i in range(3)] == [0, 1, 1]
    assert d.d(2)[0, 0] == 2


def test_dd_zero_moderate_ranges():
    # construction asserts d compose d = 0; exercise both families
    for n in range(1, 7):
        for r in range(4):
            ref.build_C(n, r)
            ref.build_D(n, r)


def _moves(family, x, y):
    """(coefficient, left, right) terms of d on the label x (x) y: C and K
    move a wedge factor of x into y, D a generator of the monomial x, with
    its multiplicity, into the wedge y."""
    if family == "D":
        for j, mult in enumerate(x, start=1):
            sign, w = wedge_insert(j, y)
            if mult and sign:
                yield sign * mult, x[: j - 1] + (mult - 1,) + x[j:], w
        return
    for p, j in enumerate(x, start=1):
        sign, rest = wedge_delete(x, p)
        if family == "C":
            coeff, m = gamma_module_action(j, y)
        else:
            coeff, m = 1, sym_multiply(j, y)
        yield sign * coeff, rest, m


def _reference_entries(family, n, r, i):
    """The nonzero entries {(row, column): value} of d_i, built label by
    label from the bases' structure constants."""
    left, right = {"C": ("wedge", "gamma"), "D": ("sym", "wedge"), "K": ("wedge", "sym")}[family]
    cols_left, cols_right = enumerate_basis(left, i, r), enumerate_basis(right, n - i, r)
    rows_left, rows_right = basis_index(left, i - 1, r), basis_index(right, n - i + 1, r)
    out = {}
    for a, x in enumerate(cols_left):
        for b, y in enumerate(cols_right):
            for coeff, x2, y2 in _moves(family, x, y):
                key = (rows_left[x2] * len(rows_right) + rows_right[y2], a * len(cols_right) + b)
                out[key] = out.get(key, 0) + coeff
    return {key: x for key, x in out.items() if x}


def test_differentials_match_the_structure_constants():
    # n = 0, r = 0 and r > n are in the grid
    for n in range(9):
        for r in range(6):
            for family, c in (
                ("C", ref.build_C(n, r)),
                ("D", ref.build_D(n, r)),
                ("K", ref._build_complex("K", "wedge", "sym", n, r)),
            ):
                for i in range(n + 2):
                    rows, cols, values = c.entries(i)
                    got = dict(zip(zip(rows, cols), values))
                    assert got == _reference_entries(family, n, r, i), (family, n, r, i)


def test_partition_check_refuses_a_missing_block():
    c = ref.build_C(4, 2)
    cx._check_partition(c, c.blocks, [1] * len(c.blocks))
    with pytest.raises(ValueError):
        cx._check_partition(c, c.blocks[1:], [1] * (len(c.blocks) - 1))


def test_homology_prime_weight_three():
    got = ref.homology(ref.build_C(3, 2), 0)
    assert got == GroupInvariants(0, (3, 3))


def test_homology_prime_vanishing():
    c = ref.build_C(5, 3)
    for i in (1, 2, 3):
        assert ref.homology(c, i).is_trivial


def test_homology_weight_four_rank_two():
    got = ref.homology(ref.build_C(4, 2), 0)
    assert got == GroupInvariants(0, (2, 4, 4))


def test_homology_rank_one_h0_cyclic():
    for n in range(2, 13):
        assert ref.homology(ref.build_C(n, 1), 0) == GroupInvariants(0, (n,))


def test_homology_out_of_range_degrees():
    c = ref.build_C(2, 2)
    assert ref.homology(c, 3).is_trivial
    assert ref.homology(c, -1).is_trivial


def test_presentation_agrees_with_invariants():
    for family in ("C", "D"):
        for n in range(1, 6):
            for r in (1, 2):
                h = cx.homology_of(family, n, r)
                for i in range(n + 1):
                    orders, classes = h.presentation(i)
                    assert len(classes) == len(orders)
                    assert GroupInvariants(0, orders) == h.invariants(i)


def _kernel_basis_presentation(cplx, i):
    """H_i with a basis K of the cycles as generators and each column of
    d_(i+1), solved in K, as a relation."""
    snf = la.smith_normal_form(cplx.d(i))
    kernel = snf.V[:, snf.rank :]
    solver = la.LinearSolver(kernel)
    d_in = cplx.d(i + 1)
    rel = ref.zeros(kernel.shape[1], d_in.shape[1])
    for j in range(d_in.shape[1]):
        rel[:, j] = solver.solve(d_in[:, j])
    return rel, kernel


def test_classes_of_cycle_basis_are_an_isomorphism():
    # the class rows, applied to a basis of the cycles, induce an
    # isomorphism from the kernel-basis presentation onto the cyclic orders
    cells = [(f, n, r) for f in ("C", "D") for n in range(1, 6) for r in range(3)]
    for family, n, r in cells + [("C", 6, 3)]:
        h, full = cx.homology_of(family, n, r), ref.build(family, n, r)
        for i in range(n + 1):
            old, kernel = _kernel_basis_presentation(full, i)
            orders, classes = h.presentation(i)
            # a class row over the block of c reads the positions of c in full
            f = ref.intmat(
                [
                    sum(u * kernel[full.block(c).at(i)[l]] for l, u in row.items()).tolist()
                    for c, row in classes
                ],
                kernel.shape[1],
            )
            assert la.presented_map_is_iso(f, old, orders), (family, n, r, i)


def test_c4_rank2_degree1_presentation():
    orders, _ = cx.homology_of("C", 4, 2).presentation(1)
    assert GroupInvariants(0, orders) == GroupInvariants(0, (2,))


def _generator_permutation_matrix(c, degree, perm):
    """Signed permutation induced on a C-family chain basis by a generator
    permutation (1-based perm of 1..r)."""
    labels = c.bases[degree].labels()
    index = {lab: i for i, lab in enumerate(labels)}
    mat = ref.zeros(len(labels), len(labels))
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
        c = ref.build_C(n, 3)
        h = cx.homology_of("C", n, 3)
        for perm in itertools.permutations((1, 2, 3)):
            mats = [
                _generator_permutation_matrix(c, i, perm) for i in range(n + 1)
            ]
            # transform every differential consistently: P_{i-1} d_i P_i^T
            # (signed permutation matrices are orthogonal); the homology is
            # read off the rank and the cokernel invariants, which together
            # determine the Smith diagonal, so those must not move
            for i in range(1, n + 1):
                moved = la.LinearSolver(
                    ref.mat_mul(ref.mat_mul(mats[i - 1], c.d(i)), mats[i].T)
                )
                assert moved.rank == h.solver(i).rank
                assert moved.cokernel() == h.solver(i).cokernel()


def test_blocks_share_the_smith_diagonal_of_their_orbit():
    # a coordinate permutation maps the block of c onto the block of sorted(c)
    # by a signed permutation, so the homology reads one block per orbit
    from derham.reference import build_koszul

    diagonals = {}
    for n in range(1, 7):
        for r in range(5):
            for c in (
                ref.build_C(n, r),
                ref.build_D(n, r),
                ref._build_complex("K", "wedge", "sym", n, r),
            ):
                assert c.blocks or c.dim(0) == 0
                for b in c.blocks:
                    assert sum(b.content) == n
                    rep = c.block(tuple(sorted(b.content)))
                    for i in range(1, n + 1):
                        key = (c.family, n, r, rep.content, i)
                        if key not in diagonals:
                            diagonals[key] = la.snf_diagonal(rep.d(i))
                        assert la.snf_diagonal(b.d(i)) == diagonals[key], (key, b.content)
    # over F_2 and F_3 the Koszul blocks agree with their orbit in rank
    for p in (2, 3):
        k = build_koszul(5, 3, p)
        for b in k.blocks:
            rep = k.block(tuple(sorted(b.content)))
            for i in range(1, 6):
                assert la.fp_rank(b.d(i), p) == la.fp_rank(rep.d(i), p)


def _block_keys(c, i):
    """The block key (content, k) of each degree-i position of a full complex."""
    return {pos: (b.content, k) for b in c.blocks for k, pos in enumerate(b.at(i))}


def test_label_key_places_every_label_of_c_at_its_basis_position():
    # block-local coordinates against the full builder's positions
    for n in range(7):
        for r in range(4):
            full = ref.build_C(n, r)
            for i in range(n + 1):
                for pos, (wedge, mono) in enumerate(full.labels(i)):
                    c, k = cx.label_key(tuple(g - 1 for g in wedge), mono)
                    assert full.block(c).at(i)[k] == pos, (n, r, i, wedge, mono)


def test_dense_differential_is_the_block_sum():
    for c in (ref.build_C(5, 3), ref.build_D(5, 3)):
        orbit = cx.homology_of(c.family, c.n, c.rank).source
        assert sum(len(b.at(2)) for b in c.blocks) == c.dim(2)
        for i in range(0, c.n + 2):
            d = c.d(i)
            assert d.shape == (c.dim(i - 1), c.dim(i))
            rebuilt = ref.zeros(*d.shape)
            for b in c.blocks:
                if b.at(i - 1) and b.at(i):
                    rebuilt[np.ix_(b.at(i - 1), b.at(i))] = b.d(i)
            assert (d == rebuilt).all()
            # is_cycle applies the blocks, of the full complex or of the
            # orbit route alike; a column of d_i is a cycle of d_(i-1), a
            # basis vector usually is not
            cols, rows = _block_keys(c, i), _block_keys(c, i - 1)
            for k in range(d.shape[1]):
                for source in (c, orbit):
                    assert cx.is_cycle(source, i, {cols[k]: 1}) == ref.is_zero(d[:, k])
                    column = {rows[pos]: x for pos, x in enumerate(d[:, k]) if x}
                    assert cx.is_cycle(source, i - 1, column)


def test_block_solves_agree_with_the_dense_solver():
    # solves take and give block keys; the reference is the dense d_i of
    # the full complex, at the positions of those keys
    rng = np.random.default_rng(3)
    h, full = cx.homology_of("C", 6, 3), ref.build_C(6, 3)
    for i in range(1, 7):
        d = full.d(i)
        rows, cols = _block_keys(full, i - 1), _block_keys(full, i)
        dense, blocks = la.LinearSolver(d), h.solver(i)
        assert blocks.rank == dense.rank
        assert blocks.cokernel() == dense.cokernel()
        for _ in range(5):
            v = ref.mat_vec(d, np.array(rng.integers(-3, 4, d.shape[1]).tolist(), dtype=object))
            x = blocks.solve({rows[k]: c for k, c in enumerate(v.tolist()) if c})
            at = {key: pos for pos, key in cols.items()}
            assert ref.is_zero(ref.mat_vec(d, to_dense({at[key]: c for key, c in x.items()}, d.shape[1])) - v)
        # multiples of basis vectors: boundaries, torsion classes and
        # vectors outside the rational span
        for k in range(d.shape[0]):
            for m in (1, 2, 3):
                e = ref.zeros(d.shape[0], 1)[:, 0]
                e[k] = m
                assert blocks.contains({rows[k]: m}) == dense.contains(e), (i, k, m)
        # a place outside the rows of its block, or no content of C^6(Z^3)
        for content in {key[0] for key in rows.values()}:
            for outside in (-1, len(full.block(content).at(i - 1))):
                with pytest.raises(ValueError):
                    blocks.solve({(content, outside): 1})
        for content in ((6, 0), (7, 0, 0), (7, -1, 0)):
            with pytest.raises(ValueError):
                blocks.solve({(content, 0): 1})


# -- block decomposition and Kunneth ------------------------------------------


def test_block_decomposition_small():
    for n in (2, 3, 4, 5):
        assert ref.block_decomposition_matches(n, 1, 1)
    assert ref.block_decomposition_matches(3, 1, 2)
    assert ref.block_decomposition_matches(4, 1, 2)
    assert ref.block_decomposition_matches(3, 2, 1)
    assert ref.block_decomposition_matches(4, 2, 2)
    assert ref.block_decomposition_matches(6, 1, 2)


def _tensor_labels(a, b, k):
    return [(k1, l1, l2) for k1 in range(k + 1) for l1 in a.labels(k1) for l2 in b.labels(k - k1)]


def _tensor_diff(a, b, k):
    """d(x (x) y) = dx (x) y + (-1)^|x| x (x) dy as Kronecker block sums:
    column block k1 holds a_k1 (x) b_(k-k1); dx (x) y lands in row block
    k1 - 1 and x (x) dy in row block k1 (the zero-row d_0 blocks keep the
    offsets aligned)."""
    along_a = ref.block_diag(
        [np.kron(a.d(k1), ref.identity(b.dim(k - k1))) for k1 in range(k + 1)]
    )
    along_b = ref.block_diag(
        [(-1) ** k1 * np.kron(ref.identity(a.dim(k1)), b.d(k - k1)) for k1 in range(k + 1)]
    )
    return along_a + along_b


def _dense_block_decomposition_matches(n, rank_a, rank_b):
    """The reference: permute each dense d_k of C^n(Z^(a+b)) into the
    weight order and compare it with the block sum of the dense tensor
    differentials."""
    big = ref.build_C(n, rank_a + rank_b)
    pairs = [(ref.build_C(i, rank_a), ref.build_C(n - i, rank_b)) for i in range(n + 1)]
    order = []
    for k in range(n + 1):
        position = {ref._split_label(label, rank_a): pos for pos, label in enumerate(big.labels(k))}
        perm = [
            position.get((i, label), -1)
            for i, (a, b) in enumerate(pairs)
            for label in _tensor_labels(a, b, k)
        ]
        if sorted(perm) != list(range(big.dim(k))):
            return False
        order.append(perm)
    for k in range(1, n + 1):
        expect = ref.block_diag([_tensor_diff(a, b, k) for a, b in pairs])
        if not ref.is_zero(big.d(k)[np.ix_(order[k - 1], order[k])] - expect):
            return False
    return True


def test_block_decomposition_matches_the_dense_kronecker_route():
    cells = [(2, 1, 1), (3, 1, 1), (4, 1, 1), (5, 1, 1), (3, 1, 2), (4, 1, 2), (3, 2, 1)]
    cells += [(4, 2, 2), (6, 1, 2), (6, 2, 2), (7, 2, 3)]
    for cell in cells:
        assert ref.block_decomposition_matches(*cell) is True, cell
        assert _dense_block_decomposition_matches(*cell) is True, cell


def _with_one_entry(c, change):
    """C with the first nonzero entry of d_1, in the first block that has
    one, replaced by change(entry)."""
    for k, b in enumerate(c.blocks):
        d = la.SparseRows(map(dict, b.d(1)), b.d(1).width)  # the shared rows stay as they are
        hit = [(row, col) for row, line in enumerate(d) for col in line]
        if hit:
            row, col = hit[0]
            d[row][col] = change(d[row][col])
            block = cx.Block(b.content, b.positions, (d,) + b.diffs[1:], b.solvers, b.first)
            blocks = c.blocks[:k] + (block,) + c.blocks[k + 1 :]
            return ref.ChainComplexZ(c.family, c.n, c.rank, c.bases, blocks)
    raise AssertionError("no nonzero entry")


@pytest.mark.parametrize("change", [lambda x: -x, lambda x: 2 * x], ids=["sign", "doubled"])
def test_block_decomposition_refuses_a_changed_entry(monkeypatch, change):
    build_C = ref.build_C
    broken = _with_one_entry(build_C(4, 3), change)
    monkeypatch.setattr(ref, "build_C", lambda n, r: broken if (n, r) == (4, 3) else build_C(n, r))
    assert ref.block_decomposition_matches(4, 1, 2) is False
    assert _dense_block_decomposition_matches(4, 1, 2) is False


def test_dd_check_refuses_a_changed_entry_on_sparse_rows():
    # a changed entry of d_1 in a block with a d_2 makes d_1 d_2 != 0; the
    # blocks of _koszul are checked where they are written, any other here
    c = ref.build_C(4, 3)
    ref._check_dd_zero(c)
    wide = next(k for k, b in enumerate(c.blocks) if any(b.d(2)))
    for change in (lambda x: -x, lambda x: 2 * x):
        head = ref.ChainComplexZ(c.family, c.n, c.rank, c.bases, c.blocks[wide:])
        with pytest.raises(AssertionError, match="d_1 d_2 != 0"):
            ref._check_dd_zero(_with_one_entry(head, change))
    assert all(isinstance(d, la.SparseRows) for b in c.blocks for d in b.diffs)


def test_orbit_complex_keeps_one_block_per_content():
    oc = cx.OrbitComplex("C", 6, 3)
    for c in oc.contents:
        b = oc.block(c)
        assert oc.block(c) is b
        assert b.diffs is cx._koszul(*cx.FACTORS["C"], tuple(x for x in c if x))[3]
    assert [oc.block(c) for c in oc.orbits] == oc.blocks
    for bad in ((7, 0, -1), (1, 2), (1, 1, 1)):
        for _ in range(2):
            with pytest.raises(ValueError, match="is no content"):
                oc.block(bad)


def test_kunneth_weight_two():
    assert cx.kunneth_check(2, 1, 1, 0)


def test_kunneth_weight_four_degree_one():
    # the interesting Tor contribution: Tor(Z/2, Z/2) inside H_1 C^4(Z^2)
    assert cx.kunneth_check(4, 1, 1, 1)
    assert ref.homology(ref.build_C(4, 2), 1) == GroupInvariants(0, (2,))


def test_kunneth_prime_weights():
    for n in (3, 5):
        for k in (1, 2):
            assert cx.kunneth_check(n, 1, 1, k)


def test_cross_effect_weight_two_trivial():
    assert ref.cross_effect_h0(2, 1, 1).is_trivial
    assert ref.cross_effect_h0_expected(2, 1, 1).is_trivial


def test_cross_effect_weight_four():
    got = ref.cross_effect_h0(4, 1, 1)
    assert got == GroupInvariants(0, (2,))
    assert got == ref.cross_effect_h0_expected(4, 1, 1)


def test_cross_effect_weight_six():
    got = ref.cross_effect_h0(6, 1, 1)
    # H_0C^2 (x) H_0C^4 + H_0C^3 (x) H_0C^3 + H_0C^4 (x) H_0C^2
    assert got == GroupInvariants(0, (2, 2, 3))
    assert got == ref.cross_effect_h0_expected(6, 1, 1)
    assert ref.cross_effect_h0(8, 2, 2) == ref.cross_effect_h0_expected(8, 2, 2)


def _dense_cross_effect_h0(n, rank_a, rank_b):
    """The reference: the cokernel of the dense d_1 restricted to the basis
    vectors of both weights positive."""
    big = ref.build_C(n, rank_a + rank_b)
    weights = [
        [ref._split_label(label, rank_a)[0] for label in big.labels(k)]
        for k in (0, 1)
    ]
    mixed = [[pos for pos, w in enumerate(ws) if 0 < w < n] for ws in weights]
    return la.invariants_of_cokernel(big.d(1)[np.ix_(*mixed)])


def test_cross_effect_blocks_match_dense_slice():
    for n in range(2, 7):
        for a, b in ((1, 1), (1, 2), (2, 2)):
            assert ref.cross_effect_h0(n, a, b) == _dense_cross_effect_h0(n, a, b)


# -- divided powers of elementary groups as cokernels ---------------------------


def test_gamma_elementary_rank_one():
    for p in (2, 3):
        for n in range(1, 6):
            got = ref.gamma_elementary_invariants(n, p, 1)
            expect = ab.gamma_cyclic(n, p)
            assert got == expect


def test_gamma_elementary_cross_module():
    for p in (2, 3):
        for r in (1, 2, 3):
            for n in range(1, 7):
                got = ref.gamma_elementary_invariants(n, p, r)
                expect = ab.gamma_group(n, ab.elementary(p, r))
                assert got == expect


# -- the orbit route against the full route -----------------------------------

ORBIT_CELLS = [(f, n, r) for f in "CD" for n in range(9) for r in range(6)] + [
    ("C", 7, 6),
    ("C", 7, 7),
]


def _every_block_invariants(c, i):
    """The full route without the orbit shortcut: H_i from the Smith
    diagonal of every content block of d_i and d_(i+1)."""
    if not 0 <= i <= c.n:
        return GroupInvariants(0, ())
    diag = {
        k: [x for b in c.blocks for x in la.snf_diagonal(la.as_rows(b.d(k), len(b.at(k)))[0])]
        for k in (i, i + 1)
    }
    rank = {k: sum(1 for x in d if x) for k, d in diag.items()}
    return GroupInvariants(c.dim(i) - rank[i] - rank[i + 1], [x for x in diag[i + 1] if x > 1])


@pytest.mark.parametrize("family,n,r", ORBIT_CELLS)
def test_orbit_route_matches_the_full_route(family, n, r):
    oc = cx.OrbitComplex(family, n, r)
    full = ref.build(family, n, r)
    hom = cx.ComplexHomology(oc)
    # the reference reduces its own blocks, not the shared _koszul solvers
    own = tuple(cx.Block(b.content, b.positions, b.diffs, first=b.first) for b in full.blocks)
    reference = cx.ComplexHomology(ref.ChainComplexZ(full.family, n, r, full.bases, own))
    # the partitions are the sorted contents, their sizes the blocks per orbit
    assert oc.orbits == dict(full.orbits)
    for rep in oc.orbits:
        # a representative block is the full builder's, entry for entry
        b, whole = oc.block(rep), full.block(rep)
        assert b.diffs == whole.diffs
        assert [len(b.at(i)) for i in range(n + 1)] == [len(whole.at(i)) for i in range(n + 1)]
    for i in range(-1, n + 2):
        got = hom.invariants(i)
        assert got == reference.invariants(i), (i, got)
        if 0 <= i <= n and n:
            assert got == ab.closed_form_homology(family, n, i, r), i
        assert got == _every_block_invariants(full, i), i
    # the orbit route builds no basis and no full complex
    assert "cx" not in vars(hom)


def test_blocks_built_without_solvers_hold_their_own():
    d = la.SparseRows([{0: 2}], 1)
    first = cx.Block((), ((0,), (0,)), (d,))
    second = cx.Block((), ((0,), (0,)), (d,))
    assert first.solvers == second.solvers == {}
    assert first.solvers is not second.solvers
    first.solvers[1] = la.LinearSolver(first.d(1))
    assert second.solvers == {}


def test_shared_block_solvers_equal_fresh_ones():
    # a block's Smith decomposition is shared by every content, rank and
    # complex with its (left, right, nonzero entries, degree); each must be
    # the one a fresh reduction of that content's own block gives
    for family in "CD":
        for n in range(8):
            for r in range(5):
                hom = cx.homology_of(family, n, r)
                for i in range(n + 1):
                    hom.invariants(i)
                for b in ref.build(family, n, r).blocks:
                    for i in range(n + 2):
                        shared = hom.solver(i).block(b.content)
                        fresh = la.LinearSolver(b.d(i), len(b.at(i)))
                        assert shared.snf.diagonal == fresh.snf.diagonal, (family, n, r, b.content, i)
                        assert shared.snf.urows == fresh.snf.urows, (family, n, r, b.content, i)
                        assert shared.snf.vcols == fresh.snf.vcols, (family, n, r, b.content, i)


def test_full_builder_places_each_block_in_ascending_positions():
    # _koszul's label order is the order of the basis positions
    for n in range(9):
        for r in range(6):
            for c in (ref.build_C(n, r), ref.build_D(n, r), ref._build_complex("K", "wedge", "sym", n, r)):
                for b in c.blocks:
                    assert all(list(at) == sorted(at) for at in b.positions), (c.family, n, r, b.content)


@pytest.mark.parametrize("family,n,r", [("C", 6, 3), ("D", 6, 3), ("C", 5, 5), ("D", 4, 2)])
def test_orbit_check_refuses_a_dropped_partition(monkeypatch, family, n, r):
    partitions = list(cx._partitions(n, r))
    cx.OrbitComplex(family, n, r)
    for k in range(len(partitions)):
        dropped = partitions[:k] + partitions[k + 1:]
        monkeypatch.setattr(cx, "_partitions", lambda n, parts: iter(dropped))
        with pytest.raises(ValueError, match="do not hold every position"):
            cx.OrbitComplex(family, n, r)


def test_orbit_complex_refuses_what_it_cannot_build():
    for args in (("K", 3, 2), ("C", -1, 2), ("D", 2, -1)):
        with pytest.raises(ValueError):
            cx.OrbitComplex(*args)


def test_both_routes_share_one_smith_decomposition_per_block(monkeypatch):
    calls = []
    reduce = la._reduce

    def counted(rows, width):
        calls.append((len(rows), width))
        return reduce(rows, width)

    def refuse(*args):
        raise AssertionError("a full complex was built")

    monkeypatch.setattr(la, "_reduce", counted)
    # neither the invariants nor the presentations build a full complex
    for name in ("_build_complex", "build_C", "build_D"):
        monkeypatch.setattr(ref, name, refuse)
    monkeypatch.setattr(cx, "placed_blocks", refuse)
    for cache in (cx.homology_of, cx._koszul):
        cache.cache_clear()
    hom = cx.homology_of("C", 6, 3)
    for i in range(7):
        hom.invariants(i)
    # one block per orbit and d_0, ..., d_7: the 7 partitions of 6 into at
    # most 3 parts have different nonzero entries
    orbits = len(hom.source.orbits)
    assert len(calls) == 8 * orbits == 56
    for i in range(1, 7):
        hom.presentation(i)
    # the presentations add the blocks with torsion that are not orbit
    # representatives, but only (0, 4, 2) has nonzero entries in an order no
    # representative has; (3, 0, 3) and (6, 0, 0) share (0, 3, 3)'s and
    # (0, 0, 6)'s matrices.  The invariants reduce nothing again
    assert len(calls) == 57
    for i in range(7):
        hom.invariants(i)
    for i in range(1, 7):
        hom.presentation(i)
    assert len(calls) == 57
    # each content's solver is the one of its matrix, reduced once
    held = [
        (s, c) for s in hom._solver.values() for c, b in hom.source._blocks.items() if s.i in b.solvers
    ]
    solvers = {id(s.block(c)) for s, c in held}
    assert len(solvers) == len(calls) < len(held)
    # the partitions of 6 into at most 2 parts are among those above, so
    # the same complex on Z^2 reduces nothing
    for i in range(7):
        cx.homology_of("C", 6, 2).invariants(i)
    assert len(calls) == 57
