"""Comparison maps between closed-form groups and computed homology.

Three verification layers:

* the degree-0 map sending a divided monomial to its p-th root monomials,
  one summand per prime dividing the weight, which identifies H_0 with a
  sum of divided powers of mod-p reductions;
* the higher maps sending a generator of a derived symmetric power to an
  explicit alternating cycle (eta) in the integral complex, which identify
  H_i for weights up to 7;
* the weight-8 map in degree 1, where the identification breaks because the
  homology acquires 4-torsion while the source has exponent 2.

Everything is checked with exact integer linear algebra.  Every map lands
in a finite sum of cyclic groups, given by its orders (those of H_i, or of
the divided monomials of the expected H_0), and is decided against them.  A
source is its relation matrix, [p I | the F_p relations] as sparse rows,
and the prime summands are block-summed by shifting columns.  Cycles stay
sparse vectors in block-local coordinates, {(content c, k): coefficient}
with k the place of a label in the block of c: a class is read off the rows
of U of that block, and boundary membership is an integral solve on it, so
no basis of the complex is enumerated.

The degree-0 map is decided once per partition of the weight
(``verify_h0_iso``), with ``q_matrix``, one column per divided monomial, as
the tests' reference; the relation suite evaluates q in the basis of
``h0_target``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from itertools import product as iproduct
from math import gcd, prod
from operator import add, mod
from typing import NamedTuple

from . import intlinalg as la
from .abelian import monomial_order_mod_p, prime_divisors
from .bases import (
    DegreeMismatchError,
    basis_size,
    divided_monomials,
    enumerate_basis,
    unit_terms,
    vec_add,
    wedge_normalize,
)
from .complexes import homology_of, is_cycle, label_key
from .intlinalg import GroupInvariants
from .koszul import generator_presentation
from .numtheory import binomial


# ---------------------------------------------------------------------------
# the degree-0 comparison map


class H0Target(NamedTuple):
    """Explicit generator list for the expected H_0: one generator per
    divided monomial of each summand, with its cyclic order."""

    n: int
    r: int
    generators: tuple[tuple[int, tuple[int, ...]], ...]  # (prime, monomial)
    orders: tuple[int, ...]
    rows: dict  # (prime, monomial) -> row

    def reduce(self, vec: list[int]) -> tuple[int, ...]:
        return tuple(map(mod, vec, self.orders))


@lru_cache(maxsize=None)
def h0_target(n: int, r: int) -> H0Target:
    gens = []
    orders = []
    for p in prime_divisors(n):
        for mono in enumerate_basis("gamma", n // p, r):
            gens.append((p, mono))
            orders.append(monomial_order_mod_p(mono, p))
    rows = {key: row for row, key in enumerate(gens)}
    return H0Target(n, r, tuple(gens), tuple(orders), rows)


class QMap(NamedTuple):
    """The degree-0 comparison, one sparse column per content vector c of
    weight n: columns[c] = {target row: 1} at the row of c/p in the summand
    of each prime p dividing every entry of c.  So q keeps contents."""

    n: int
    r: int
    target: H0Target
    columns: dict


@lru_cache(maxsize=None)
def q_matrix(n: int, r: int) -> QMap:
    """Build the degree-0 comparison, one column per divided monomial: the
    tests' reference for ``verify_h0_iso``, which no command builds."""
    if n < 2:
        raise ValueError("need n >= 2")
    target = h0_target(n, r)
    columns = {c: {} for c in enumerate_basis("gamma", n, r)}
    for c, p in iproduct(columns, prime_divisors(n)):
        if not any(x % p for x in c):
            columns[c][target.rows[p, tuple(x // p for x in c)]] = 1
    return QMap(n, r, target, columns)


def _column_onto(column: dict, orders) -> bool:
    """Whether a column y = {row k: y_k} of q is onto the sum of Z/m_k over
    its rows: whether the minors of [y | diag(m)] of full size, prod(m) and
    each y_t prod(m_s : s != t), have gcd 1."""
    m = [orders[k] for k in column]
    minors = (y * prod(m[:t] + m[t + 1:]) for t, y in enumerate(column.values()))
    return gcd(prod(m), *minors) == 1


def verify_h0_iso(n: int, r: int) -> bool:
    """Whether q induces an isomorphism from H_0 of C^n(Z^r) onto the
    expected sum: a well-defined surjection between isomorphic finite
    groups.  No q_matrix or target basis is built.

    q sends the divided monomial c to the generator of c/p, of order
    ``monomial_order_mod_p(c/p, p)``, for each prime p dividing gcd c.  q,
    the orders and d_1 commute with permuting the coordinates, so each S_r
    orbit is decided at its sorted representative c, counted orbit-size
    times: well defined when each entry ±c_j of c's one-row d_1 vanishes
    modulo the orders of c's column; onto when that column is onto its
    rows (``_column_onto``) and, as c -> (p, c/p) is one to one, the columns
    hold every target generator, sum over p of ``basis_size("gamma", n/p,
    r)``; the target's invariants are the columns' orders.  The source's
    are ``invariants(0)``, read off one block of d_0 and d_1 per orbit.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    hom, primes = homology_of("C", n, r), prime_divisors(n)
    well_defined, onto, orders = True, True, []
    for c, orbit in hom.source.orbits.items():
        g = gcd(*c)
        column = [monomial_order_mod_p(tuple(x // p for x in c), p) for p in primes if g % p == 0]
        d1 = hom.source.block(c).d(1)[0]
        well_defined = well_defined and all(x % m == 0 for x in d1.values() for m in column)
        onto = onto and _column_onto(dict.fromkeys(range(len(column)), 1), column)
        orders += column * orbit
    onto = onto and len(orders) == sum(basis_size("gamma", n // p, r) for p in primes)
    target = GroupInvariants(0, tuple(orders))
    return la.MapFacts(well_defined, onto, target).iso(hom.invariants(0))


# ---------------------------------------------------------------------------
# relation suite for the degree-0 map


def _q_value(expr, primes, r: int, target: H0Target) -> tuple[int, ...]:
    """Evaluate the defining formula on a formal product of divided powers.

    expr is a list of (degree, integer vector) factors with degrees summing
    to n, and primes the primes dividing every degree.  For each such p,
    the product of the degree/p powers of the reductions is expanded
    integrally and read off modulo the target orders.
    """
    out = [0] * len(target.generators)
    for p in primes:
        for mono, c in divided_monomials([(j // p, v) for j, v in expr], r).items():
            out[target.rows[p, mono]] += c
    return target.reduce(out)


def _substitution_pool(r: int) -> list[tuple[int, ...]]:
    """Basis vectors and sums of two distinct basis vectors."""
    units = [tuple(1 if t == k else 0 for t in range(r)) for k in range(r)]
    sums = [
        tuple(a + b for a, b in zip(units[k], units[l]))
        for k in range(r)
        for l in range(k + 1, r)
    ]
    return units + sums


class RelationReport(NamedTuple):
    n: int
    r: int
    checked: dict
    failures: list

    @property
    def total_checked(self) -> int:
        return sum(self.checked.values())

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_q_relations(n: int, r: int) -> RelationReport:
    """Exhaustively substitute into the three defining relations.

    Substituted elements run over all basis vectors and all sums of two
    basis vectors; exponent splits are exhausted; the remaining factors, the
    tail, run over all divided monomials of the complementary degree.  An
    expression is 0 when no prime divides every degree, else evaluated once.

    The relations for a tail of degree n - j have expressions whose other
    degrees are j or sum to j.  So when no prime of n divides both j and
    every degree of the tail, every expression of the group is 0 and each of
    its checks holds: they are counted, not built.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    target = h0_target(n, r)
    pool = _substitution_pool(r)
    checked = {"merge": 0, "sum": 0, "sign": 0}
    failures = []
    primes, zero, values = prime_divisors(n), (0,) * len(target.generators), {}

    def split(j):
        """The tails of degree n - j, as factors, whose groups some prime
        evaluates, and the number of the other tails."""
        monomials = enumerate_basis("gamma", n - j, r)
        live = [unit_terms(m) for m in monomials if any(gcd(j, *m) % p == 0 for p in primes)]
        return live, len(monomials) - len(live)

    tails = {j: split(j) for j in range(1, n + 1)}

    def q(expr):
        degrees = gcd(*[j for j, _ in expr])
        dividing = [p for p in primes if degrees % p == 0]
        if not dividing:
            return zero
        key = tuple(expr)
        if key not in values:
            values[key] = _q_value(key, dividing, r, target)
        return values[key]

    def scaled(value, c):
        return target.reduce([c * x for x in value])

    # merging two powers of the same element costs a binomial coefficient
    for s in range(2, n + 1):
        live, dead = tails[s]
        checked["merge"] += dead * (s - 1) * len(pool)
        for tail in live:
            for j1 in range(1, s):
                j2 = s - j1
                for x in pool:
                    lhs = q([(j1, x), (j2, x)] + tail)
                    rhs = scaled(q([(s, x)] + tail), binomial(s, j1))
                    checked["merge"] += 1
                    if lhs != rhs:
                        failures.append(("merge", s, j1, x, tuple(tail)))
    # the first argument is additive via the exponent-split expansion
    for j1 in range(1, n + 1):
        live, dead = tails[j1]
        checked["sum"] += dead * len(pool) ** 2
        for tail in live:
            for x in pool:
                for y in pool:
                    summed = tuple(a + b for a, b in zip(x, y))
                    lhs = q([(j1, summed)] + tail)
                    rhs = [0] * len(target.generators)
                    for k in range(j1 + 1):
                        term = q([(k, x), (j1 - k, y)] + tail)
                        rhs = list(map(add, rhs, term))
                    checked["sum"] += 1
                    if lhs != target.reduce(rhs):
                        failures.append(("sum", j1, x, y, tuple(tail)))
    # negating an argument multiplies by the parity of its exponent
    for j1 in range(1, n + 1):
        live, dead = tails[j1]
        checked["sign"] += dead * len(pool)
        for tail in live:
            for x in pool:
                negated = tuple(-c for c in x)
                lhs = q([(j1, negated)] + tail)
                rhs = scaled(q([(j1, x)] + tail), (-1) ** j1)
                checked["sign"] += 1
                if lhs != rhs:
                    failures.append(("sign", j1, x, tuple(tail)))
    return RelationReport(n, r, checked, failures)


# ---------------------------------------------------------------------------
# the higher comparison cycles


def _unit_vector(index: int, r: int) -> tuple[int, ...]:
    if not 1 <= index <= r:
        raise DegreeMismatchError(f"generator index {index} outside 1..{r}")
    return tuple(1 if t == index - 1 else 0 for t in range(r))


def eta_vector(i: int, p: int, n: int, args, r: int) -> dict:
    """Expand the comparison cycle on integer-vector arguments, keyed by
    block (see ``complexes.label_key``).

    args is a sequence of n/p vectors in Z^r; the first i+1 feed the wedge
    part.  Wedge factors are expanded multilinearly over the supports of
    their arguments and normalized with signs; the divided-power factor is
    expanded through the product rules.
    """
    if n % p != 0:
        raise DegreeMismatchError("p must divide n")
    m = n // p
    args = [tuple(int(c) for c in v) for v in args]
    if len(args) != m:
        raise DegreeMismatchError(f"need {m} arguments, got {len(args)}")
    if i + 1 > m:
        raise DegreeMismatchError("too few arguments for the wedge part")
    if i < 1:
        raise DegreeMismatchError("the cycle lives in positive degrees")
    out: dict = {}
    for t in range(1, i + 2):
        wedge_args = [args[k] for k in range(i + 1) if k != t - 1]
        gamma_terms = [(p - 1, args[k]) for k in range(i + 1) if k != t - 1]
        gamma_terms.append((p, args[t - 1]))
        gamma_terms.extend((p, args[k]) for k in range(i + 1, m))
        gamma_part = divided_monomials(gamma_terms, r)
        if not gamma_part:
            continue
        sign_t = (-1) ** t
        # multilinear expansion of the wedge of integer vectors
        supports = ([j for j, x in enumerate(vec) if x] for vec in wedge_args)
        for choice in iproduct(*supports):
            sign_w, w = wedge_normalize(choice)
            if sign_w == 0:
                continue
            total = sign_t * sign_w * prod(vec[j] for vec, j in zip(wedge_args, choice))
            for mono, c in gamma_part.items():
                vec_add(out, label_key(w, mono), total * c)
    return out


def eta(i: int, p: int, n: int, lifts, r: int) -> dict:
    """The comparison cycle on standard-basis lifts, in wedge^i (x)
    divided^(n-i) of C^n(Z^r), keyed by block; checked to be a cycle.

    Term t drops the t-th of the first i+1 arguments from the wedge, takes
    (p-1)-st divided powers of the others, and the p-th divided power of
    the dropped one and of every remaining argument.
    """
    vec = eta_vector(i, p, n, [_unit_vector(k, r) for k in lifts], r)
    # the cycle lives in one content block, p times the sum of the lifts
    if not is_cycle(homology_of("C", n, r).source, i, vec):
        raise AssertionError(f"eta({i}, {p}, {n}, {tuple(lifts)}) is not a cycle")
    return vec


# ---------------------------------------------------------------------------
# the comparison matrices and the isomorphism range


def _generator_lifts(label, n_over_p: int, i: int) -> list[int]:
    """Argument indices of a source generator: wedge entries then the
    symmetric monomial entries with multiplicity."""
    wedge, mono = label
    out = list(wedge)
    for j, e in enumerate(mono, start=1):
        out.extend([j] * e)
    assert len(out) == n_over_p
    return out


class TheoremBlock(NamedTuple):
    """One prime summand of the degree-i comparison: the relations of its
    source over Z, [p I | the F_p relations] as sparse rows, one per source
    generator, and its matrix into the homology presentation, as dense rows:
    one per cyclic summand of H_i, one entry per source generator."""

    i: int
    n: int
    p: int
    r: int
    relations: la.SparseRows
    matrix: list[list[int]]
    generator_labels: tuple


@lru_cache(maxsize=None)
def theorem_block(i: int, n: int, p: int, r: int) -> TheoremBlock:
    """Assemble the matrix of one prime's comparison map in degree i.

    Each generator's cycle, checked to be a cycle by ``eta``, is sent to
    its class in the homology presentation: class k is the row of U in
    classes[k] applied to the cycle's entries in that class's block.
    """
    if n % p or not 1 <= i <= n // p - 1:
        raise DegreeMismatchError(f"no comparison for i={i}, n={n}, p={p}")
    pres = generator_presentation(i, n // p, p, r)
    orders, classes = homology_of("C", n, r).presentation(i)
    hits: dict[tuple, list[tuple[int, int]]] = {}  # block key -> (class, U entry)
    for k, (content, row) in enumerate(classes):
        for l, u in row.items():
            hits.setdefault((content, l), []).append((k, u))
    gens = len(pres.generators)
    mat = [[0] * gens for _ in orders]
    for col, label in enumerate(pres.generators):
        lifts = _generator_lifts(label, n // p, i)
        for key, c in eta(i, p, n, lifts, r).items():
            for k, u in hits.get(key, ()):
                mat[k][col] += c * u
    relations = la.SparseRows(
        ({k: p} | {gens + j: x for j, x in rel.items()} for k, rel in enumerate(pres.relations)),
        gens + pres.relations.width,
    )
    return TheoremBlock(i, n, p, r, relations, mat, pres.generators)


def assemble_comparison(i: int, n: int, r: int) -> tuple[list[list[int]], la.SparseRows]:
    """Block sum of the per-prime comparisons into the degree-i homology:
    the matrices side by side, the source relations down the diagonal, each
    block's columns shifted past those of the blocks before it.

    Primes p with no degree-i source (i > n/p - 1) contribute no block.
    """
    orders, _ = homology_of("C", n, r).presentation(i)
    blocks = [
        theorem_block(i, n, p, r)
        for p in prime_divisors(n)
        if 1 <= i <= n // p - 1
    ]
    relations = la.SparseRows()
    for b in blocks:
        relations += ({relations.width + j: x for j, x in row.items()} for row in b.relations)
        relations.width += b.relations.width
    mat = [list(chain.from_iterable(b.matrix[k] for b in blocks)) for k in range(len(orders))]
    return mat, relations


def verify_theorem(i: int, n: int, r: int) -> bool:
    """The assembled comparison is an isomorphism onto the degree-i homology."""
    if not (1 <= i and 2 <= n):
        raise ValueError("need i >= 1 and n >= 2")
    orders, _ = homology_of("C", n, r).presentation(i)
    mat, relations = assemble_comparison(i, n, r)
    return la.presented_map_is_iso(mat, relations, orders)


# ---------------------------------------------------------------------------
# the weight-8 counterexample


def f18_counterexample(r: int) -> dict:
    """The degree-1, weight-8 comparison fails: its source has exponent 2
    while the homology carries 4-torsion (for rank at least 2)."""
    if r < 1:
        raise ValueError("need rank >= 1")
    hom = homology_of("C", 8, r)
    target_inv = hom.invariants(1)
    block = theorem_block(1, 8, 2, r)
    orders, _ = hom.presentation(1)
    facts = la.presented_map_facts(block.matrix, block.relations, orders)
    source_inv = la.invariants_of_cokernel(block.relations)
    exponent = 1 if source_inv.is_trivial else max(source_inv.torsion)
    return {
        "rank": r,
        "source_generators": len(block.generator_labels),
        "source_dimension": len(source_inv.torsion),
        "source_invariants": source_inv.as_dict(),
        "source_exponent": exponent,
        "target_invariants": target_inv.as_dict(),
        "contains_order4": any(t % 4 == 0 for t in target_inv.torsion),
        "map_well_defined": facts.well_defined,
        "map_surjective": facts.surjective,
        "map_is_iso": facts.iso(source_inv),
    }
