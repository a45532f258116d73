"""Koszul complexes over prime fields and derived symmetric powers.

The weight-n Koszul complex on V = (F_p)^r has terms wedge^a(V) (x)
sym^(n-a)(V); the differential moves one wedge factor into the symmetric
side with alternating sign.  Derived symmetric powers are cokernels of these
differentials, read off its ``_koszul`` content blocks with no full complex
built, the top derived functor reducing to a plain wedge power.  A second,
generators-and-relations presentation of the same groups, its F_p relations
written as sparse rows with no zero stored, is kept alongside so the two
descriptions can be compared dimension by dimension.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from . import intlinalg as la
from .bases import basis_index, enumerate_basis, exponent_vectors, sym_multiply, wedge_delete
from .complexes import Block, _koszul, block_label
from .intlinalg import require_prime


class DegreeOutOfRangeError(ValueError):
    """Derived functor degree outside 0 <= i <= n - 1."""


class DerivedSpGroup(NamedTuple):
    """The i-th derived functor of sym^n on (F_p)^r, as an F_p-vector space.

    Realized as the cokernel of the Koszul differential into
    wedge^(i+1) (x) sym^(n-i-1); representatives are standard basis labels
    completing the image.
    """

    i: int
    n: int
    p: int
    r: int
    dimension: int
    representatives: tuple[tuple, ...]  # (wedge, sym monomial) labels


@lru_cache(maxsize=None)
def derived_sp(i: int, n: int, p: int, r: int) -> DerivedSpGroup:
    """coker of the Koszul map landing in wedge^(i+1) (x) sym^(n-i-1).

    For i = n - 1 the incoming term is zero (negative symmetric degree), so
    the group is the whole wedge^n - the top derived functor is a plain
    wedge power.

    The representatives label, in basis order, the places outside the pivot
    rows of the map's ``_koszul`` blocks, found once per distinct block: a
    row is a pivot of the map's column echelon form iff it is one of its block's.
    """
    require_prime(p)
    if not 0 <= i <= n - 1:
        raise DegreeOutOfRangeError(f"need 0 <= i <= {n - 1}, got {i}")
    free, reps = {}, []  # free: block values -> its places outside the pivots
    for c in exponent_vectors(n, r):
        support = [j for j, cj in enumerate(c, start=1) if cj]
        values = tuple(c[j - 1] for j in support)
        wedges, _, *block = _koszul("wedge", "sym", values)
        if values not in free:
            free[values] = la.fp_cokernel_basis(Block(c, *block).d(i + 2), p)
        reps += (block_label(c, support, wedges[i + 1][k]) for k in free[values])
    wedge_at, sym_at = basis_index("wedge", i + 1, r), basis_index("sym", n - i - 1, r)
    reps.sort(key=lambda label: (wedge_at[label[0]], sym_at[label[1]]))
    return DerivedSpGroup(i, n, p, r, len(reps), tuple(reps))


class GeneratorPresentation(NamedTuple):
    """Generators and relations for a derived symmetric power.

    Generators pair a wedge of length i+1 (the top derived functor of the
    symmetric power of weight i+1) with a symmetric monomial of the
    complementary degree; relations are alternating sums that delete one
    argument from a length-(i+2) tuple and multiply it into the monomial.
    """

    i: int
    n: int
    p: int
    r: int
    generators: tuple[tuple, ...]
    relations: la.SparseRows  # over F_p, one row per generator, one column per relation


@lru_cache(maxsize=None)
def generator_presentation(i: int, n: int, p: int, r: int) -> GeneratorPresentation:
    require_prime(p)
    if not 0 <= i <= n - 1:
        raise DegreeOutOfRangeError(f"need 0 <= i <= {n - 1}, got {i}")
    wedges = enumerate_basis("wedge", i + 1, r)
    syms = enumerate_basis("sym", n - i - 1, r)
    generators = tuple((w, m) for w in wedges for m in syms)
    gen_index = {g: k for k, g in enumerate(generators)}
    tails = [
        (xs, y)
        for xs in enumerate_basis("wedge", i + 2, r)
        for y in enumerate_basis("sym", n - i - 2, r)
    ]
    relations = la.SparseRows(({} for _ in generators), len(tails))
    for col, (xs, y) in enumerate(tails):
        for k in range(1, i + 3):
            sign, w2 = wedge_delete(xs, k)
            row = relations[gen_index[(w2, sym_multiply(xs[k - 1], y))]]
            if x := (row.pop(col, 0) + sign) % p:
                row[col] = x
    return GeneratorPresentation(i, n, p, r, generators, relations)


def presentation_dimension(pres: GeneratorPresentation) -> int:
    """Dimension of the presented F_p-vector space."""
    return len(pres.generators) - la.fp_rank(pres.relations, pres.p)

