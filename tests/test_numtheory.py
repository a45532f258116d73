"""Valuations, stabilized gcd, and the binomial congruence."""

import math

import pytest

from derham import numtheory as nt
from derham import reference as ref
from derham.intlinalg import NotPrimeError


def test_gcd_stable_coprime():
    assert nt.gcd_stable(3, 2) == 1


def test_gcd_stable_power_of_two():
    # makes divided squares of Z/2 carry 4-torsion: 2 * (2, 2^inf) = 4
    assert nt.gcd_stable(2, 2) == 2


def test_gcd_stable_mixed():
    assert nt.gcd_stable(4, 6) == 4  # gcd(4,6)=2, gcd(4,36)=4, stable


def test_gcd_stable_matches_literal_limit():
    for r in range(1, 40):
        for n in range(1, 12):
            m = max(1, r.bit_length())
            assert nt.gcd_stable(r, n) == math.gcd(r, n**m)


def test_gcd_stable_divides_and_idempotent():
    for r in range(1, 60):
        for n in range(1, 12):
            g = nt.gcd_stable(r, n)
            assert r % g == 0
            assert nt.gcd_stable(g, n) == g


def test_gcd_stable_rejects_nonpositive():
    with pytest.raises(nt.OutOfRangeError):
        nt.gcd_stable(0, 2)


def test_binomial_basics():
    assert nt.binomial(5, 0) == 1
    assert nt.binomial(6, 2) == 15
    assert nt.binomial(7, 3) == nt.binomial(7, 4) == 35


def test_binomial_out_of_range():
    with pytest.raises(nt.OutOfRangeError):
        nt.binomial(3, 5)
    with pytest.raises(nt.OutOfRangeError):
        nt.binomial(3, -1)


def test_v_p():
    assert nt.v_p(2, 12) == 2
    assert nt.v_p(3, 12) == 1
    assert nt.v_p(5, 12) == 0
    with pytest.raises(nt.OutOfRangeError):
        nt.v_p(2, 0)


def test_lemma_worked_examples():
    # r = v_2(2*3*1*2) = 2; C(6,2) = 15 = 3 mod 4
    rep = ref.check_binomial_lemma(2, 3, 1)
    assert (rep.lhs, rep.rhs, rep.modulus, rep.holds) == (15, 3, 4, True)
    # r = v_3(3*2*1*1) = 1; C(6,3) = 20 = 2 mod 3
    rep = ref.check_binomial_lemma(3, 2, 1)
    assert (rep.lhs, rep.rhs, rep.modulus, rep.holds) == (20, 2, 3, True)
    # r = v_2(2*2*1*1) = 2; C(4,2) = 6 = 2 mod 4
    rep = ref.check_binomial_lemma(2, 2, 1)
    assert (rep.lhs, rep.rhs, rep.modulus, rep.holds) == (6, 2, 4, True)


def test_lemma_sweep_small():
    for p in (2, 3, 5, 7):
        out = nt.sweep_binomial_lemma(p, 25)
        assert out["failed"] == 0
        assert out["checked"] == sum(n - 1 for n in range(2, 26))


def _reference_sweep(p, max_n):
    """checked, failed and the first failing (n, k) of a sweep, one
    ``check_binomial_lemma`` report per pair."""
    reports = [ref.check_binomial_lemma(p, n, k) for n in range(2, max_n + 1) for k in range(1, n)]
    failures = [{"p": p, "n": rep.n, "k": rep.k} for rep in reports if not rep.holds]
    return len(reports), len(failures), failures[0] if failures else None


def test_lemma_sweep_matches_the_per_check_reports():
    for p in (2, 3, 5, 7):
        for max_n in (2, 3, 17, 40):
            out = nt.sweep_binomial_lemma(p, max_n)
            checked, failed, first = _reference_sweep(p, max_n)
            assert (out["checked"], out["failed"]) == (checked, failed) == (checked, 0)
            assert "first_failure" not in out


def test_lemma_sweep_reports_a_wrong_modulus(monkeypatch):
    # Jacobsthal: the congruence holds modulo p^(3 + v_p(n k (n-k))) for
    # p >= 5, but not modulo p^3 times the lemma's p^v_p(p n k (n-k))
    modulus = nt._lemma_modulus
    monkeypatch.setattr(nt, "_lemma_modulus", lambda p, n, k: modulus(p, n, k) * p**3)
    for p in (2, 3, 5, 7):
        out = nt.sweep_binomial_lemma(p, 40)
        checked, failed, first = _reference_sweep(p, 40)
        assert failed > 0
        assert (out["checked"], out["failed"], out["first_failure"]) == (checked, failed, first)


def test_lemma_sweep_refuses_a_non_prime():
    for p in (1, 4, 9):
        with pytest.raises(NotPrimeError):
            nt.sweep_binomial_lemma(p, 10)


def test_lemma_range_errors():
    with pytest.raises(nt.OutOfRangeError):
        ref.check_binomial_lemma(2, 3, 3)
    with pytest.raises(NotPrimeError):
        ref.check_binomial_lemma(4, 3, 1)


def test_central_divisibility_examples():
    assert ref.check_central_divisibility(6, 6) is True  # 1 divides 1
    assert ref.check_central_divisibility(6, 2) is True  # 3 divides 15
    assert ref.check_central_divisibility(8, 6) is True  # 4 divides 28


def test_central_divisibility_sweep():
    assert all(
        ref.check_central_divisibility(n, k)
        for n in range(1, 80)
        for k in range(1, n + 1)
    )
