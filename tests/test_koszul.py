"""Koszul complexes mod p and derived symmetric powers."""

from itertools import product as iproduct
from math import comb

import pytest

from derham import complexes
from derham import koszul as kz
from derham import intlinalg as la
from derham import reference as ref
from derham.bases import enumerate_basis, sym_multiply, wedge_delete


def test_weight_one_identity():
    for r in (1, 2, 3):
        cpx = ref.build_koszul(1, r, 2)
        assert ref.is_zero(cpx.d(1) - ref.identity(r))


def test_weight_two_dimensions():
    cpx = ref.build_koszul(2, 2, 2)
    assert [cpx.dim(a) for a in (2, 1, 0)] == [1, 4, 3]


def test_kappa_compose_zero_ranges():
    # construction asserts kappa kappa = 0 mod p
    for p in (2, 3):
        for n in range(1, 9):
            for r in range(5):
                ref.build_koszul(n, r, p)


def test_build_rejects_composite():
    with pytest.raises(la.NotPrimeError):
        ref.build_koszul(2, 2, 4)


def test_derived_sp_line_square():
    assert kz.derived_sp(1, 2, 2, 1).dimension == 0  # wedge pair on a line


def test_derived_sp_cube_degree_one():
    got = kz.derived_sp(1, 3, 2, 2)
    assert got.dimension == 2  # the degree-3 Lie functor of a plane


def test_derived_sp_top_case():
    got = kz.derived_sp(2, 3, 3, 3)
    assert got.dimension == 1
    assert got.representatives == (((1, 2, 3), (0, 0, 0)),)


def test_derived_sp_top_dimension_is_wedge():
    for p in (2, 3, 5):
        for n in range(1, 5):
            for r in range(5):
                assert kz.derived_sp(n - 1, n, p, r).dimension == comb(r, n)


def test_derived_sp_representatives_match_the_dense_cokernel_basis():
    # the reference: the cokernel basis of the whole d_(i+2) mod p
    for p in (2, 3, 5):
        for n in range(1, 7):
            for r in range(5):
                cpx = ref.build_koszul(n, r, p)
                for i in range(n):
                    labels = cpx.labels(i + 1)
                    dense = la.fp_cokernel_basis(cpx.d(i + 2), p)
                    want = tuple(labels[k] for k in dense)
                    got = kz.derived_sp(i, n, p, r)
                    assert got.representatives == want, (i, n, p, r)
                    assert got.dimension == len(want)


def test_derived_sp_finds_pivots_once_per_distinct_block(monkeypatch):
    # the 792 contents of weight 7 on Z^6 have 63 distinct tuples of nonzero
    # entries (the compositions of 7 into at most 6 parts); one F_p
    # elimination per content made 792 calls
    calls = []
    pivots = la._fp_pivot_rows

    def counted(m, p):
        calls.append(m)
        return pivots(m, p)

    monkeypatch.setattr(la, "_fp_pivot_rows", counted)
    kz.derived_sp.cache_clear()
    complexes._koszul.cache_clear()
    kz.derived_sp(2, 7, 2, 6)
    kz.derived_sp.cache_clear()
    assert len(calls) == 63


def test_derived_sp_degree_out_of_range():
    with pytest.raises(kz.DegreeOutOfRangeError):
        kz.derived_sp(3, 3, 2, 2)
    assert ref.derived_sp_dimension(3, 3, 2, 2) == 0


def test_lie_cube_dimension_formula():
    # first derived functor of the symmetric cube: dim = C(r,2)*r - C(r,3)
    # at every rank the CLI accepts; the table's q = 6, i = 1 cell uses it
    for p in (2, 3):
        for r in range(1, 7):
            got = kz.derived_sp(1, 3, p, r).dimension
            assert got == comb(r, 2) * r - comb(r, 3)
            assert got == (r**3 - r) // 3


def test_presentation_top_case_no_relations():
    pres = kz.generator_presentation(1, 2, 2, 2)
    assert len(pres.generators) == 1
    assert pres.relations.tolist() == [[]]
    assert kz.presentation_dimension(pres) == 1


def _dense_relations(i, n, p, r):
    """The F_p relations as one dense row per generator, written in place
    column by column: the reference for the sparse rows."""
    generators = [
        (w, m)
        for w in enumerate_basis("wedge", i + 1, r)
        for m in enumerate_basis("sym", n - i - 1, r)
    ]
    gen_index = {g: k for k, g in enumerate(generators)}
    tails = [
        (xs, y)
        for xs in enumerate_basis("wedge", i + 2, r)
        for y in enumerate_basis("sym", n - i - 2, r)
    ]
    relations = [[0] * len(tails) for _ in generators]
    for col, (xs, y) in enumerate(tails):
        for k in range(1, i + 3):
            sign, w2 = wedge_delete(xs, k)
            row = relations[gen_index[(w2, sym_multiply(xs[k - 1], y))]]
            row[col] = (row[col] + sign) % p
    return relations


def test_presentation_relations_match_the_dense_reference():
    for n, p, r in iproduct(range(1, 9), (2, 3, 5), range(5)):
        for i in range(n):
            rel = kz.generator_presentation(i, n, p, r).relations
            assert rel.tolist() == _dense_relations(i, n, p, r), (i, n, p, r)
            assert all(x for row in rel for x in row.values()), (i, n, p, r)
            assert all(list(row) == sorted(row) for row in rel), (i, n, p, r)


def test_presentation_agreement_small():
    for p in (2, 3):
        for n in range(1, 6):
            for i in range(n):
                for r in range(4):
                    assert ref.presentations_agree(i, n, p, r)


def test_presentation_weight_four():
    # two independent routes to the same dimension
    pres = kz.generator_presentation(1, 4, 2, 2)
    assert kz.presentation_dimension(pres) == kz.derived_sp(1, 4, 2, 2).dimension


def test_cross_effect_dimension_identity():
    # dim L1(sym^2) on a sum minus the pure parts equals the product of dims
    for p in (2, 3):
        for v in range(1, 4):
            for w in range(1, 4):
                whole = kz.derived_sp(1, 2, p, v + w).dimension
                pure = kz.derived_sp(1, 2, p, v).dimension + kz.derived_sp(1, 2, p, w).dimension
                assert whole - pure == v * w
