"""Closed-form functor calculus on finitely generated abelian groups.

Groups are ``GroupInvariants``, the type the computed homology has.  Tensor,
Tor and divided powers are evaluated summand by summand on the
divisor-chain decomposition Z^f + Z/m1 + ... + Z/mk.  Any cyclic
decomposition gives the same isomorphism type (tensor and Tor are additive,
divided powers obey the exponential law), so the results can be compared
with the homology directly.  They are the expected right-hand sides that the
matrix pipeline is checked against.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable

from .bases import _partitions, basis_size
from .intlinalg import TRIVIAL_GROUP, GroupInvariants
from .numtheory import OutOfRangeError, gcd_stable, v_p


class OutOfTableError(ValueError):
    """Requested a homology table cell outside the tabulated range."""


def prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


Z = GroupInvariants(1)


def _cyclics(a: GroupInvariants) -> tuple[int, ...]:
    """The summands of a's divisor-chain decomposition; 0 stands for Z."""
    return (0,) * a.free_rank + a.torsion


def elementary(p: int, dim: int) -> GroupInvariants:
    """The elementary abelian group (Z/p)^dim."""
    return GroupInvariants(0, (p,) * dim)


def direct_sum(groups: Iterable[GroupInvariants]) -> GroupInvariants:
    free, torsion = 0, []
    for g in groups:
        free += g.free_rank
        torsion.extend(g.torsion)
    return GroupInvariants(free, tuple(torsion))


def _tensor_cyclics(a: GroupInvariants, b: GroupInvariants) -> list[int]:
    """The cyclic summands of a (x) b; 0 stands for Z."""
    return [math.gcd(x, y) for x in _cyclics(a) for y in _cyclics(b)]


def _from_cyclics(summands: list[int]) -> GroupInvariants:
    """The direct sum of cyclic groups of these orders; 0 stands for Z."""
    return GroupInvariants(summands.count(0), tuple(m for m in summands if m))


def tensor(a: GroupInvariants, b: GroupInvariants) -> GroupInvariants:
    """Bilinear over summands: Z/x (x) Z/y = Z/gcd(x, y), reading Z as Z/0."""
    return _from_cyclics(_tensor_cyclics(a, b))


def tor(a: GroupInvariants, b: GroupInvariants) -> GroupInvariants:
    """Torsion product: Tor(Z, -) = 0 and Tor(Z/a, Z/b) = Z/gcd(a,b)."""
    return GroupInvariants(
        0, tuple(math.gcd(x, y) for x in a.torsion for y in b.torsion)
    )


def gamma_cyclic(r: int, n: int) -> GroupInvariants:
    """Degree-r divided power of Z/n: cyclic of order n * (r, n^infinity)."""
    if r < 0 or n < 2:
        raise OutOfRangeError("need degree >= 0 and modulus >= 2")
    if r == 0:
        return Z
    return GroupInvariants(0, (n * gcd_stable(r, n),))


def gamma_grades(a: GroupInvariants, top: int) -> list[GroupInvariants]:
    """Divided powers of a in every degree 0..top via the exponential law.

    Degree-n divided powers of a direct sum split as the sum over i + j = n
    of (degree-i of the first part) tensor (degree-j of the second).
    """
    acc = [Z] + [TRIVIAL_GROUP] * top  # divided powers of the zero group
    for m in _cyclics(a):
        cyc = [Z] + [
            (Z if m == 0 else gamma_cyclic(i, m)) for i in range(1, top + 1)
        ]
        acc = [
            _from_cyclics(
                [g for i in range(n + 1) for g in _tensor_cyclics(acc[i], cyc[n - i])]
            )
            for n in range(top + 1)
        ]
    return acc


def gamma_group(n: int, a: GroupInvariants) -> GroupInvariants:
    """Degree-n divided power of a finitely generated abelian group."""
    if n < 0:
        raise OutOfRangeError("degree must be nonnegative")
    return gamma_grades(a, n)[n]


def monomial_order_mod_p(exponents: tuple[int, ...], p: int) -> int:
    """Order of a divided monomial of an elementary abelian p-group.

    The monomial with exponent vector e generates a cyclic summand of order
    p^(1 + min valuation of the nonzero exponents).
    """
    nonzero = [e for e in exponents if e]
    if not nonzero:
        raise OutOfRangeError("the empty monomial generates a free summand")
    return p ** (1 + min(v_p(p, e) for e in nonzero))


def expected_h0(n: int, rank: int) -> GroupInvariants:
    """Sum over primes p | n of the (n/p)-th divided power of (Z/p)^rank."""
    if n < 2:
        raise OutOfRangeError("degree must be at least 2")
    return direct_sum(
        gamma_group(n // p, elementary(p, rank)) for p in prime_divisors(n)
    )


def closed_form_homology(family: str, n: int, i: int, rank: int) -> GroupInvariants:
    """H_i of C^n(Z^rank) or D^n(Z^rank), n >= 1, without any matrix.

    Every differential keeps the content vector c in N^rank (wedge
    indicator plus divided or symmetric exponents) fixed, and the block of
    c is the integral Koszul complex on (c_j : c_j > 0).  With s = |supp c|
    its homology is (Z/gcd c)^C(s-1, k) in degree k, so

        H_i(C^n(Z^r)) = sum over |c| = n of (Z/gcd c)^C(s-1, i),

    and D, the dual Koszul complex, reflects the wedge degree n - i to
    k = s - (n - i).  The summand of c depends only on its partition
    lambda, the nonzero entries sorted, so the sum runs over the partitions
    of n into at most rank parts, each counted r! / ((r - s)! prod m_k!)
    times, the m_k the multiplicities of its parts.  Those counts must add
    up to the number of contents, so a dropped partition raises.
    """
    if family not in ("C", "D"):
        raise ValueError(f"unknown family {family!r}")
    if n < 1:
        raise OutOfRangeError("weight must be at least 1")
    torsion: list[int] = []
    contents = 0
    for part in _partitions(n, rank):
        s = len(part)
        orbit = math.perm(rank, s) // math.prod(map(math.factorial, Counter(part).values()))
        contents += orbit
        g = math.gcd(*part)
        k = i if family == "C" else s - (n - i)
        if g > 1 and 0 <= k < s:
            torsion.extend([g] * (orbit * math.comb(s - 1, k)))
    if contents != basis_size("gamma", n, rank):
        raise ValueError(f"the partitions of {n} into at most {rank} parts miss contents")
    return GroupInvariants(0, tuple(torsion))


def expected_table_entry(q: int, i: int, rank: int) -> GroupInvariants:
    """Closed-form table cell for the homology of the wedge-times-divided
    complex in weight q at homological degree i, evaluated on Z^rank."""
    if not (2 <= q <= 7 and 0 <= i <= 3 and rank >= 0):
        raise OutOfTableError(f"cell (q={q}, i={i}, rank={rank}) is not tabulated")
    if i == 0:
        return expected_h0(q, rank)

    def wedge(p, deg):
        return elementary(p, math.comb(rank, deg))

    if q == 4 and i == 1:
        return wedge(2, 2)
    if q == 6 and i == 1:
        # the degree-3 Lie functor of F_2^rank, the first derived symmetric
        # cube, has Witt's dimension (r^3 - r)/3 (tests check it against
        # the Koszul model)
        return direct_sum([wedge(3, 2), elementary(2, (rank**3 - rank) // 3)])
    if q == 6 and i == 2:
        return wedge(2, 3)
    return TRIVIAL_GROUP
