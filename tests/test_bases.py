"""Basis enumeration and structure constants for wedge/sym/divided powers."""

from math import comb

import numpy as np
import pytest

from derham import bases
from derham import reference as ref
from derham.reference import intmat, is_zero, mat_mul


def test_wedge_basis_rank3():
    assert bases.enumerate_basis("wedge", 2, 3) == ((1, 2), (1, 3), (2, 3))
    assert bases.basis_size("wedge", 2, 3) == 3


def test_gamma_basis_order():
    assert bases.enumerate_basis("gamma", 3, 2) == ((3, 0), (2, 1), (1, 2), (0, 3))


def test_gamma_unit_basis():
    for r in (0, 1, 4):
        assert bases.enumerate_basis("gamma", 0, r) == ((0,) * r,)


def test_basis_sizes_match_closed_forms():
    for r in range(5):
        for d in range(6):
            monomials = 1 if d == 0 else comb(r + d - 1, d)
            assert len(bases.enumerate_basis("wedge", d, r)) == comb(r, d)
            assert len(bases.enumerate_basis("sym", d, r)) == monomials
            assert len(bases.enumerate_basis("gamma", d, r)) == monomials
            assert bases.basis_size("wedge", d, r) == comb(r, d)
            assert bases.basis_size("gamma", d, r) == monomials


def test_negative_degree_empty():
    assert bases.enumerate_basis("sym", -1, 3) == ()


# -- products and actions -----------------------------------------------------


def test_gamma_product_unit():
    assert ref.gamma_product((2, 1), (0, 0)) == (1, (2, 1))


def test_gamma_product_single_variable():
    assert ref.gamma_product((1,), (2,)) == (3, (3,))


def test_gamma_product_two_variables():
    # C(3,2) * C(2,1) = 6
    assert ref.gamma_product((2, 1), (1, 1)) == (6, (3, 2))


def test_gamma_product_commutative_associative():
    # exhaustive over rank 2 and degrees up to 5
    rank = 2
    monos = [
        m
        for d in range(1, 6)
        for m in bases.enumerate_basis("gamma", d, rank)
    ]
    for m1 in monos:
        for m2 in monos:
            assert ref.gamma_product(m1, m2) == ref.gamma_product(m2, m1)
    for m1 in monos:
        for m2 in monos:
            for m3 in monos:
                c12, m12 = ref.gamma_product(m1, m2)
                c_l, m_l = ref.gamma_product(m12, m3)
                c23, m23 = ref.gamma_product(m2, m3)
                c_r, m_r = ref.gamma_product(m1, m23)
                assert (c12 * c_l, m_l) == (c23 * c_r, m_r)


def test_module_action():
    assert ref.gamma_module_action(1, (0,)) == (1, (1,))
    assert ref.gamma_module_action(1, (2,)) == (3, (3,))
    assert ref.gamma_module_action(1, (0, 2)) == (1, (1, 2))


def test_sym_multiply():
    assert bases.sym_multiply(1, (0, 0)) == (1, 0)
    assert bases.sym_multiply(1, (1, 1)) == (2, 1)
    assert bases.sym_multiply(1, (2, 0)) == (3, 0)


def test_wedge_insert():
    assert ref.wedge_insert(2, (2, 5)) == (0, None)
    assert ref.wedge_insert(1, (2, 3)) == (1, (1, 2, 3))
    assert ref.wedge_insert(3, (1, 2, 4)) == (1, (1, 2, 3, 4))
    assert ref.wedge_insert(4, (1, 2, 3, 5)) == (-1, (1, 2, 3, 4, 5))


def test_wedge_normalize():
    assert bases.wedge_normalize((2, 1)) == (-1, (1, 2))
    assert bases.wedge_normalize((3, 1, 2)) == (1, (1, 2, 3))
    assert bases.wedge_normalize((1, 1)) == (0, None)


def test_identity_suite():
    assert ref.gamma_power_identity_check() is True


def test_gamma_sign_rule():
    # even degrees are insensitive to negation, odd degrees flip
    assert ref.gamma_of_vector((-1,), 2) == {0: 1}
    assert ref.gamma_of_vector((-1,), 3) == {0: -1}


# -- expansion of divided powers of vectors ------------------------------------


def test_gamma_of_sum_two_variables():
    # degree 2 of x + y: gamma_2(x) + xy + gamma_2(y)
    out = ref.gamma_of_vector((1, 1), 2)
    labels = bases.enumerate_basis("gamma", 2, 2)
    readable = {labels[k]: c for k, c in out.items()}
    assert readable == {(2, 0): 1, (1, 1): 1, (0, 2): 1}


def test_gamma_of_scaled_vector():
    out = ref.gamma_of_vector((2, 0), 3)
    labels = bases.enumerate_basis("gamma", 3, 2)
    readable = {labels[k]: c for k, c in out.items()}
    assert readable == {(3, 0): 8}


def test_divided_product_matches_module_action():
    # x * gamma_2(x) = 3 gamma_3(x)
    out = ref.divided_product([(1, (1,)), (2, (1,))], 1)
    assert out == {0: 3}


def test_divided_product_mixed():
    # gamma_2(x) * gamma_1(y) over rank 2
    out = ref.divided_product([(2, (1, 0)), (1, (0, 1))], 2)
    labels = bases.enumerate_basis("gamma", 3, 2)
    readable = {labels[k]: c for k, c in out.items()}
    assert readable == {(2, 1): 1}


def test_divided_product_rejects_bad_rank():
    with pytest.raises(bases.DegreeMismatchError):
        ref.divided_product([(1, (1, 0, 0))], 2)


# -- functoriality of induced matrices ------------------------------------------


def _sample_maps():
    return [
        np.array([[1, 0], [0, 1]], dtype=object),
        np.array([[1, 1], [0, 1]], dtype=object),
        np.array([[2, 0], [1, -1]], dtype=object),
        np.array([[0, 1], [1, 0]], dtype=object),
    ]


def test_induced_matrix_identity():
    for d in range(4):
        size = bases.basis_size("gamma", d, 2)
        got = ref.gamma_induced_matrix(np.eye(2, dtype=object), d)
        assert got == [[int(j == k) for k in range(size)] for j in range(size)]


def test_induced_matrices_compose():
    for t in _sample_maps():
        for s in _sample_maps():
            for d in range(1, 5):
                lhs = intmat(ref.gamma_induced_matrix(mat_mul(t, s), d))
                rhs = mat_mul(
                    ref.gamma_induced_matrix(t, d), ref.gamma_induced_matrix(s, d)
                )
                assert is_zero(lhs - rhs)


def test_induced_matrix_respects_scaling():
    # substitution by 3x on the line in degree r multiplies by 3^r
    t = np.array([[3]], dtype=object)
    for d in range(1, 5):
        got = ref.gamma_induced_matrix(t, d)
        assert got[0][0] == 3**d
