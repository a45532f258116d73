"""Monomial bases and structure constants for wedge, symmetric and divided
powers of Z^r.

Basis labels are plain tuples: a wedge is a strictly increasing tuple of
generator indices (1-based), a symmetric or divided monomial is an exponent
vector of length r.  Exponent vectors are enumerated with the first variable
taking the largest exponent first, wedges in combinations order, and tensor
bases lexicographically by (left, right); every matrix built on top is then
reproducible bit for bit.

Vectors over a basis are dicts mapping basis index to an integer coefficient.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb, prod
from typing import Sequence

WedgeIndex = tuple[int, ...]
Exponents = tuple[int, ...]
Vector = dict[int, int]


class DegreeMismatchError(ValueError):
    """Operands or arguments have incompatible degrees."""


@lru_cache(maxsize=None)
def exponent_vectors(degree: int, rank: int) -> tuple[Exponents, ...]:
    """All length-rank vectors of nonnegative integers summing to degree."""
    if rank == 0:
        return ((),) if degree == 0 else ()
    if rank == 1:
        return ((degree,),)
    out = []
    for e in range(degree, -1, -1):
        out.extend((e,) + tail for tail in exponent_vectors(degree - e, rank - 1))
    return tuple(out)


def _partitions(n: int, parts: int, least: int = 1):
    """The partitions of n into at most ``parts`` parts, none below ``least``,
    each as its parts in ascending order."""
    if n == 0:
        yield ()
    for k in range(least, n + 1 if parts else 0):
        yield from ((k, *rest) for rest in _partitions(n - k, parts - 1, k))


@lru_cache(maxsize=None)
def enumerate_basis(functor: str, degree: int, rank: int) -> tuple[tuple, ...]:
    """Ordered basis labels of wedge/sym/gamma powers of Z^rank.

    Sizes are C(rank, degree) for 'wedge' and C(rank + degree - 1, degree)
    for 'sym' and 'gamma'.  A negative degree yields the empty basis; a
    negative rank is refused.
    """
    if rank < 0:
        raise ValueError("rank must be nonnegative")
    if degree < 0:
        return ()
    if functor == "wedge":
        return tuple(combinations(range(1, rank + 1), degree))
    if functor in ("sym", "gamma"):
        return exponent_vectors(degree, rank)
    raise ValueError(f"unknown functor {functor!r}")


@lru_cache(maxsize=None)
def basis_index(functor: str, degree: int, rank: int) -> dict[tuple, int]:
    labels = enumerate_basis(functor, degree, rank)
    return {label: i for i, label in enumerate(labels)}


def basis_size(functor: str, degree: int, rank: int) -> int:
    if degree < 0:
        return 0
    if functor == "wedge":
        return comb(rank, degree)
    if degree == 0:
        return 1
    return comb(rank + degree - 1, degree)


# ---------------------------------------------------------------------------
# structure constants


def sym_multiply(j: int, m: Exponents) -> Exponents:
    """Multiply a symmetric monomial by the j-th generator; coefficient 1."""
    out = list(m)
    out[j - 1] += 1
    return tuple(out)


def wedge_delete(w: WedgeIndex, position: int) -> tuple[int, WedgeIndex]:
    """Delete the factor at 1-based position with sign (-1)^position."""
    return (-1) ** position, w[:position - 1] + w[position:]


def wedge_normalize(indices: Sequence[int]) -> tuple[int, WedgeIndex | None]:
    """Sort a tuple of generator indices into a basis wedge, tracking sign."""
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        k = i
        while k > 0 and idx[k - 1] > idx[k]:
            idx[k - 1], idx[k] = idx[k], idx[k - 1]
            sign = -sign
            k -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return 0, None
    return sign, tuple(idx)


# ---------------------------------------------------------------------------
# vectors over a monomial basis


def vec_add(acc: Vector, key: int, coeff: int) -> None:
    if coeff:
        new = acc.get(key, 0) + coeff
        if new:
            acc[key] = new
        else:
            acc.pop(key, None)


def divided_monomials(terms: Sequence[tuple[int, Sequence[int]]], rank: int) -> dict:
    """Expand a product of divided powers of integer vectors, keyed by
    exponent vector: gamma_d(v) is the sum, over e with |e| = d on the
    support of v, of prod v_j^e_j gamma_e, and gamma_e gamma_f is
    prod_j C(e_j + f_j, e_j) gamma_(e+f).  terms is a list of (degree,
    vector) pairs; degree-0 factors are the unit, a negative degree is 0.
    """
    out = {(0,) * rank: 1}
    for degree, vec in terms:
        if len(vec) != rank:
            raise DegreeMismatchError("vector of wrong rank")
        if degree < 0:
            return {}
        support = [j for j, x in enumerate(vec) if x]
        step: dict = {}
        for e in exponent_vectors(degree, len(support)):
            x = prod(int(vec[j]) ** k for j, k in zip(support, e))
            for m, c in out.items():
                new, coeff = list(m), c * x
                for j, k in zip(support, e):
                    coeff *= comb(m[j] + k, k)
                    new[j] += k
                key = tuple(new)
                step[key] = step.get(key, 0) + coeff
        out = {m: c for m, c in step.items() if c}
    return out


def unit_terms(monomial: Exponents) -> list[tuple[int, tuple[int, ...]]]:
    """A divided monomial as the (degree, unit vector) factors that
    ``divided_monomials`` expands back into it."""
    rank = len(monomial)
    return [
        (e, tuple(1 if t == j else 0 for t in range(rank)))
        for j, e in enumerate(monomial)
        if e
    ]
