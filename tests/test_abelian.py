"""Closed-form tensor/Tor/divided-power calculus on cyclic direct sums."""

import math

import pytest

from derham import abelian as ab
from derham import reference as ref
from derham.bases import exponent_vectors
from derham.complexes import homology_of
from derham.intlinalg import TRIVIAL_GROUP, GroupInvariants
from derham.numtheory import OutOfRangeError


Z = ab.Z


def Zmod(m):
    return GroupInvariants(0, (m,))


def group(*summands):
    """A direct sum of cyclic groups; summand 0 stands for Z."""
    return GroupInvariants(summands.count(0), tuple(m for m in summands if m))


def test_tensor_unit():
    a = group(0, 4, 6)
    assert ab.tensor(Z, a) == a
    assert ab.tensor(a, Z) == a


def test_tensor_gcd():
    assert ab.tensor(Zmod(6), Zmod(4)) == Zmod(2)
    assert ab.tensor(Zmod(3), Zmod(4)).is_trivial


def test_tor_examples():
    assert ab.tor(Zmod(4), Zmod(4)) == Zmod(4)  # the 4-torsion seen by f_1^8
    assert ab.tor(Z, Zmod(5)).is_trivial
    assert ab.tor(Zmod(6), Zmod(15)) == Zmod(3)


def test_tensor_tor_commutative_associative():
    samples = [
        Z,
        Zmod(2),
        Zmod(4),
        group(0, 2),
        group(2, 3, 4),
    ]
    for a in samples:
        for b in samples:
            assert ab.tensor(a, b) == ab.tensor(b, a)
            assert ab.tor(a, b) == ab.tor(b, a)
            for c in samples:
                lhs = ab.tensor(ab.tensor(a, b), c)
                rhs = ab.tensor(a, ab.tensor(b, c))
                assert lhs == rhs
                lhs = ab.tor(ab.tor(a, b), c)
                rhs = ab.tor(a, ab.tor(b, c))
                assert lhs == rhs


def test_tor_power():
    assert ref.tor_power(2, GroupInvariants(3)).is_trivial
    got = ref.tor_power(2, group(2, 4))
    assert got == group(2, 2, 2, 4)
    assert ref.tor_power(3, Zmod(2)) == Zmod(2)
    with pytest.raises(ref.DegreeTooSmallError):
        ref.tor_power(1, Zmod(2))


def test_gamma_cyclic_values():
    assert ab.gamma_cyclic(2, 2) == Zmod(4)
    assert ab.gamma_cyclic(3, 2) == Zmod(2)
    assert ab.gamma_cyclic(3, 3) == Zmod(9)
    assert ab.gamma_cyclic(1, 7) == Zmod(7)
    assert ab.gamma_cyclic(0, 5) == Z
    assert ab.gamma_cyclic(6, 12) == Zmod(72)  # 12 * (6, 12^inf) = 12 * 6


def test_gamma_group_rank_one_free():
    for n in range(5):
        assert ab.gamma_group(n, Z) == Z


def test_gamma_group_elementary_square():
    got = ab.gamma_group(2, ab.elementary(2, 2))
    assert got == group(4, 2, 4)


def test_gamma_group_exponential_law():
    samples = [Z, Zmod(2), Zmod(3), Zmod(4), Zmod(6), group(2, 2), group(0, 3)]
    for a in samples:
        for b in samples:
            for n in range(5):
                whole = ab.gamma_group(n, ab.direct_sum([a, b]))
                split = ab.direct_sum(
                    ab.tensor(ab.gamma_group(i, a), ab.gamma_group(n - i, b))
                    for i in range(n + 1)
                )
                assert whole == split


def test_monomial_orders_refine_gamma_group():
    # the divided powers of (Z/p)^r decompose with one cyclic summand per
    # degree-n exponent vector
    from derham.bases import enumerate_basis

    for p in (2, 3):
        for r in (1, 2, 3):
            for n in range(1, 5):
                orders = [
                    ab.monomial_order_mod_p(e, p)
                    for e in enumerate_basis("gamma", n, r)
                ]
                assert group(*orders) == ab.gamma_group(n, ab.elementary(p, r))


def test_expected_h0_rank_one_is_cyclic():
    for n in range(2, 13):
        assert ab.expected_h0(n, 1) == GroupInvariants(0, (n,))


def test_expected_h0_prime_degree():
    for p in (2, 3, 5, 7):
        for r in range(4):
            got = ab.expected_h0(p, r)
            assert got == ab.elementary(p, r)


def test_expected_h0_weight_four():
    got = ab.expected_h0(4, 2)
    assert got == group(4, 2, 4)


def test_table_zero_cells():
    assert ab.expected_table_entry(5, 1, 3).is_trivial
    for q in (2, 3, 5, 7):
        for i in (1, 2, 3):
            assert ab.expected_table_entry(q, i, 4).is_trivial
    assert ab.expected_table_entry(4, 2, 4).is_trivial
    assert ab.expected_table_entry(6, 3, 4).is_trivial


def test_table_wedge_cells():
    assert ab.expected_table_entry(4, 1, 2) == Zmod(2)  # one wedge pair mod 2
    assert ab.expected_table_entry(6, 2, 3) == Zmod(2)  # one wedge triple
    assert ab.expected_table_entry(4, 1, 4) == GroupInvariants(
        0, (2,) * math.comb(4, 2)
    )


def test_table_lie_cell_dimensions():
    # degree-3 Lie functor of an r-dimensional space has dim (r^3 - r)/3
    for r in range(1, 5):
        got = ab.expected_table_entry(6, 1, r)
        lie_dim = (r**3 - r) // 3
        expect = ab.direct_sum(
            [ab.elementary(3, math.comb(r, 2)), ab.elementary(2, lie_dim)]
        )
        assert got == expect


def test_table_out_of_range():
    with pytest.raises(ab.OutOfTableError):
        ab.expected_table_entry(8, 0, 2)
    with pytest.raises(ab.OutOfTableError):
        ab.expected_table_entry(6, 4, 2)


def test_rendering():
    assert str(group(0, 0, 2, 4)) == "Z^2 + Z/2 + Z/4"
    assert str(TRIVIAL_GROUP) == "0"
    assert group(2, 3).as_dict() == {"free_rank": 0, "torsion": [6]}



CLOSED_FORM_CELLS = [
    (family, n, r) for family in "CD" for n in range(1, 9) for r in range(1, 5)
] + [("C", 6, 5)]


@pytest.mark.parametrize("family,n,r", CLOSED_FORM_CELLS)
def test_closed_form_matches_every_degree(family, n, r):
    hom = homology_of(family, n, r)
    for i in range(n + 1):
        assert hom.invariants(i) == ab.closed_form_homology(family, n, i, r), i


def test_closed_form_weight_eight():
    # contents (2, 6), (4, 4), (6, 2) in H_1: the 4-torsion comes from (4, 4)
    assert ab.closed_form_homology("C", 8, 1, 2) == group(2, 2, 4)
    # D reflects the wedge degree: its degree n - 1 holds what C's H_0 holds
    assert ab.closed_form_homology("D", 8, 7, 2) == ab.closed_form_homology("C", 8, 0, 2)
    with pytest.raises(OutOfRangeError):
        ab.closed_form_homology("C", 0, 0, 2)
    with pytest.raises(ValueError):
        ab.closed_form_homology("E", 4, 0, 2)


def _closed_form_per_content(family, n, i, rank):
    """The reference: the closed form summed over every content vector c,
    (Z/gcd c)^C(s-1, k) with s = |supp c| and k = i (C) or s - (n - i) (D)."""
    torsion = []
    for c in exponent_vectors(n, rank):
        g = math.gcd(*c)
        s = sum(1 for x in c if x)
        k = i if family == "C" else s - (n - i)
        if g > 1 and 0 <= k < s:
            torsion.extend([g] * math.comb(s - 1, k))
    return GroupInvariants(0, tuple(torsion))


def test_closed_form_per_partition_matches_the_sum_over_contents():
    for family in "CD":
        for n in range(1, 9):
            for r in range(6):
                for i in range(-1, n + 2):
                    got = ab.closed_form_homology(family, n, i, r)
                    assert got == _closed_form_per_content(family, n, i, r), (family, n, i, r)


@pytest.mark.parametrize("n,r", [(6, 3), (5, 5), (8, 2)])
def test_closed_form_refuses_a_dropped_partition(monkeypatch, n, r):
    partitions = list(ab._partitions(n, r))
    ab.closed_form_homology("C", n, 1, r)
    for k in range(len(partitions)):
        dropped = partitions[:k] + partitions[k + 1:]
        monkeypatch.setattr(ab, "_partitions", lambda n, parts: iter(dropped))
        with pytest.raises(ValueError, match="miss contents"):
            ab.closed_form_homology("C", n, 1, r)
