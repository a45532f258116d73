"""Koszul complexes mod p and derived symmetric powers."""

from math import comb

import pytest

from derham import koszul as kz
from derham import intlinalg as la


def test_weight_one_identity():
    for r in (1, 2, 3):
        cpx = kz.build_koszul(1, r, 2)
        assert la.is_zero(cpx.d(1) - la.identity(r))


def test_weight_two_dimensions():
    cpx = kz.build_koszul(2, 2, 2)
    assert [cpx.dim(a) for a in (2, 1, 0)] == [1, 4, 3]


def test_kappa_compose_zero_ranges():
    # construction asserts kappa kappa = 0 mod p
    for p in (2, 3):
        for n in range(1, 9):
            for r in range(5):
                kz.build_koszul(n, r, p)


def test_build_rejects_composite():
    with pytest.raises(la.NotPrimeError):
        kz.build_koszul(2, 2, 4)


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
                cpx = kz.build_koszul(n, r, p)
                for i in range(n):
                    labels = cpx.labels(i + 1)
                    dense = la.fp_cokernel_basis(cpx.d(i + 2), p)
                    want = tuple(labels[k] for k in dense)
                    got = kz.derived_sp(i, n, p, r)
                    assert got.representatives == want, (i, n, p, r)
                    assert got.dimension == len(want)


def test_derived_sp_degree_out_of_range():
    with pytest.raises(kz.DegreeOutOfRangeError):
        kz.derived_sp(3, 3, 2, 2)
    assert kz.derived_sp_dimension(3, 3, 2, 2) == 0


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
    assert pres.relations == [[]]
    assert kz.presentation_dimension(pres) == 1


def test_presentation_agreement_small():
    for p in (2, 3):
        for n in range(1, 6):
            for i in range(n):
                for r in range(4):
                    assert kz.presentations_agree(i, n, p, r)


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
