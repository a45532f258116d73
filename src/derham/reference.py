"""Code that no command runs: the references the tests and demos read.

The dense numpy views of a matrix, the dense exchange forms, the full
Koszul complex over F_p, iterated Tor, the divided-power structure
constants at basis positions, the degree-0 map decided column by column,
and the checks that build a full complex or certify the comparison maps by
second routes.  No module on the command path imports this one, so a
command neither compiles nor loads it; numpy is imported when a view is
called.

The complexes and the lemma's modulus are read through their modules at
call time, so a test that replaces ``complexes.build_C``,
``complexes._build_complex`` or ``numtheory._lemma_modulus`` reaches the
checks here as well.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from functools import lru_cache
from itertools import product as iproduct
from math import gcd, prod
from typing import Callable, NamedTuple, Sequence

from . import complexes, numtheory
from . import intlinalg as la
from .abelian import direct_sum, tensor, tor
from .bases import (
    DegreeMismatchError,
    Exponents,
    Vector,
    WedgeIndex,
    basis_index,
    basis_size,
    divided_monomials,
    enumerate_basis,
    unit_terms,
    vec_add,
)
from .comparison import (
    QMap,
    _column_onto,
    _generator_lifts,
    _unit_vector,
    eta_vector,
    theorem_block,
)
from .intlinalg import GroupInvariants, as_rows, read_text, require_prime
from .koszul import derived_sp, generator_presentation, presentation_dimension
from .numtheory import OutOfRangeError, binomial


# ---------------------------------------------------------------------------
# dense views of matrices (numpy object arrays) and the dense exchange forms


def intmat(rows: Sequence[Sequence[int]], cols: int | None = None):
    """Build an exact integer numpy matrix from nested sequences.

    ``cols`` is required to disambiguate the empty matrix with zero rows.
    """
    rows = [list(r) for r in rows]
    if rows:
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        if cols is not None and cols != width:
            raise ValueError("cols does not match row length")
    else:
        width = 0 if cols is None else cols
    a = zeros(len(rows), width)
    for i, r in enumerate(rows):
        for j, x in enumerate(r):
            a[i, j] = int(x)
    return a


def zeros(rows: int, cols: int):
    import numpy as np

    return np.zeros((rows, cols), dtype=object)


def identity(n: int):
    a = zeros(n, n)
    for i in range(n):
        a[i, i] = 1
    return a


def as_intmat(m):
    import numpy as np

    if isinstance(m, np.ndarray):
        if m.ndim != 2:
            raise ValueError("expected a 2-d array")
        if m.dtype == object:
            return m
        return m.astype(object)
    return intmat(m)


def hstack(blocks: Sequence):
    import numpy as np

    blocks = [as_intmat(b) for b in blocks]
    if not blocks:
        return zeros(0, 0)
    return np.hstack(blocks)


def block_diag(blocks: Sequence):
    """Block sum: the blocks down the diagonal, zeros elsewhere."""
    blocks = [as_intmat(b) for b in blocks]
    out = zeros(sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks))
    r0 = c0 = 0
    for b in blocks:
        r, c = b.shape
        out[r0 : r0 + r, c0 : c0 + c] = b
        r0, c0 = r0 + r, c0 + c
    return out


def mat_mul(a, b):
    """Exact product, accumulated column by column (fast when b is sparse)."""
    import numpy as np

    a = as_intmat(a)
    b = as_intmat(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    out = zeros(a.shape[0], b.shape[1])
    for j in range(b.shape[1]):
        col = b[:, j]
        for k in np.nonzero(col != 0)[0]:
            out[:, j] += col[k] * a[:, k]
    return out


def mat_vec(a, v):
    import numpy as np

    a = as_intmat(a)
    v = np.asarray(v, dtype=object)
    out = np.zeros(a.shape[0], dtype=object)
    for k in np.nonzero(v != 0)[0]:
        out += v[k] * a[:, k]
    return out


def is_zero(a) -> bool:
    import numpy as np

    return bool(np.all(np.asarray(a) == 0))


def det_exact(a) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = as_intmat(a)
    n, m = a.shape
    if n != m:
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    w = a.copy()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if w[k, k] == 0:
            for i in range(k + 1, n):
                if w[i, k] != 0:
                    w[[k, i], :] = w[[i, k], :]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                w[i, j] = (w[i, j] * w[k, k] - w[i, k] * w[k, j]) // prev
            w[i, k] = 0
        prev = w[k, k]
    return sign * int(w[n - 1, n - 1])


def mat_from_text(text: str, check: Callable[[int, int], None] | None = None) -> tuple[list, int]:
    """(rows, cols) of a matrix in the text format, dense; see ``read_text``."""
    m = read_text((text,), check)
    return m.tolist(), m.width


def mat_to_json(m) -> str:
    rows, width = as_rows(m)
    payload = {
        "rows": len(rows),
        "cols": width,
        "data": [int(x) for row in rows for x in row],
    }
    return json.dumps(payload, sort_keys=True)


# ---------------------------------------------------------------------------
# binomial congruences, one case at a time


class LemmaReport(NamedTuple):
    p: int
    n: int
    k: int
    lhs: int
    rhs: int
    modulus: int
    holds: bool


def check_binomial_lemma(p: int, n: int, k: int) -> LemmaReport:
    """Check C(pn, pk) = C(n, k) mod p^r with r = v_p(p*n*k*(n-k)).

    The congruence holds for every prime p and 0 < k < n; the report form
    exists so sweeps can surface a counterexample if one ever appeared.
    """
    require_prime(p)
    if not 0 < k < n:
        raise OutOfRangeError("need 0 < k < n")
    modulus = numtheory._lemma_modulus(p, n, k)
    lhs = binomial(p * n, p * k)
    rhs = binomial(n, k)
    return LemmaReport(p, n, k, lhs, rhs, modulus, (lhs - rhs) % modulus == 0)


def check_central_divisibility(n: int, k: int) -> bool:
    """n/(n,k) divides C(n, k); exercised as a property suite."""
    if not 1 <= k <= n:
        raise OutOfRangeError("need 1 <= k <= n")
    return binomial(n, k) % (n // gcd(n, k)) == 0


# ---------------------------------------------------------------------------
# iterated Tor


class DegreeTooSmallError(ValueError):
    """Iterated Tor is only defined from the second power on."""


def tor_power(n: int, a: GroupInvariants) -> GroupInvariants:
    """Iterated torsion product Tor(...Tor(Tor(A, A), A)..., A), n factors."""
    if n < 2:
        raise DegreeTooSmallError("iterated Tor starts at the square")
    out = tor(a, a)
    for _ in range(n - 2):
        out = tor(out, a)
    return out


# ---------------------------------------------------------------------------
# structure constants of divided powers at basis positions


def gamma_product(m1: Exponents, m2: Exponents) -> tuple[int, Exponents]:
    """Product of divided monomials: coefficient prod_k C(e_k + f_k, e_k)."""
    if len(m1) != len(m2):
        raise DegreeMismatchError("monomials of different rank")
    coeff = prod(binomial(e + f, e) for e, f in zip(m1, m2))
    return coeff, tuple(e + f for e, f in zip(m1, m2))


def gamma_module_action(j: int, m: Exponents) -> tuple[int, Exponents]:
    """Multiply a divided monomial by the j-th generator (1-based)."""
    e = m[j - 1]
    out = list(m)
    out[j - 1] = e + 1
    return e + 1, tuple(out)


def wedge_insert(j: int, w: WedgeIndex) -> tuple[int, WedgeIndex | None]:
    """Insert generator j into a sorted wedge.

    Sign is (-1)^(number of factors strictly before the insertion slot);
    returns (0, None) when j already occurs.
    """
    if j in w:
        return 0, None
    pos = bisect_left(w, j)
    return (-1) ** pos, w[:pos] + (j,) + w[pos:]


def to_dense(v: Vector, size: int) -> list[int]:
    out = [0] * size
    for k, x in v.items():
        out[k] = x
    return out


def gamma_of_vector(vec: Sequence[int], degree: int) -> Vector:
    """Degree-d divided power of an integer vector, expanded in monomials.

    The sum-of-arguments relation makes the coefficient of the exponent
    vector e equal to the product of the vector entries raised to e.
    """
    return divided_product([(degree, vec)], len(vec))


def divided_product(terms: Sequence[tuple[int, Sequence[int]]], rank: int) -> Vector:
    """``divided_monomials`` at the basis positions of the divided power of
    total degree."""
    out = divided_monomials(terms, rank)
    if not out:
        return {}
    index = basis_index("gamma", sum(next(iter(out))), rank)
    return {index[m]: c for m, c in out.items()}


def gamma_induced_matrix(t, degree: int) -> list[list[int]]:
    """Matrix of the divided-power functor applied to t: Z^r -> Z^s, as
    rows; t is an s x r matrix (see ``intlinalg.as_rows``).

    The column of a monomial e is the expansion of the product of the
    degree-e_k divided powers of the image columns of t.
    """
    rows, r = as_rows(t)
    images = [tuple(int(row[k]) for row in rows) for k in range(r)]
    source = enumerate_basis("gamma", degree, r)
    out = [[0] * len(source) for _ in range(basis_size("gamma", degree, len(rows)))]
    for j, e in enumerate(source):
        terms = [(e_k, images[k]) for k, e_k in enumerate(e)]
        for pos, coeff in divided_product(terms, len(rows)).items():
            out[pos][j] = coeff
    return out


def gamma_power_identity_check(r_max: int = 6, scalar_max: int = 4) -> bool:
    """Sanity identities of divided powers on one generator.

    Multiplying the unit by x r times must produce r! times the r-th
    divided power, and substituting n*x must scale degree r by n^r.
    """
    for r in range(1, r_max + 1):
        coeff, mono = 1, (0,)
        for _ in range(r):
            step, mono = gamma_module_action(1, mono)
            coeff *= step
        factorial = prod(range(1, r + 1))
        if mono != (r,) or coeff != factorial:
            return False
        for n in range(-scalar_max, scalar_max + 1):
            expanded = gamma_of_vector((n,), r)
            expect = {0: n**r} if n else {}
            if expanded != expect:
                return False
    return True


# ---------------------------------------------------------------------------
# full complexes: homology, d d = 0, the tensor split and cross-effects


def homology(cx: complexes.ChainComplexZ, i: int) -> GroupInvariants:
    """Invariants of the degree-i homology of a built complex."""
    return complexes.homology_of(cx.family, cx.n, cx.rank).invariants(i)


def _check_dd_zero(cx) -> None:
    """Refuse d d != 0 in a block not written (and checked) by _koszul."""
    for b in cx.blocks:
        if i := complexes._dd_nonzero(b.diffs, b.first):
            raise AssertionError(f"d_{i-1} d_{i} != 0 in {cx.family}^{cx.n}(Z^{cx.rank})")


def _split_label(label, rank_a: int):
    """Split a C^n(Z^(a+b)) basis label into first/second block labels."""
    wedge, exps = label
    w_a = tuple(g for g in wedge if g <= rank_a)
    w_b = tuple(g - rank_a for g in wedge if g > rank_a)
    e_a = exps[:rank_a]
    e_b = exps[rank_a:]
    weight_a = len(w_a) + sum(e_a)
    k1 = len(w_a)
    return weight_a, (k1, (w_a, e_a), (w_b, e_b))


def _tensor_entries(a: complexes.ChainComplexZ, b: complexes.ChainComplexZ, k: int) -> dict:
    """The nonzero entries of the degree-k differential of a (x) b,
    d(x (x) y) = dx (x) y + (-1)^|x| x (x) dy, keyed by (row, column)
    labels (k1, left, right).  dx (x) y lowers k1 and x (x) dy keeps it, so
    the two parts never share an entry."""
    out = {}
    for k1 in range(k + 1):
        k2 = k - k1
        rows_a, cols_a, left = a.labels(k1 - 1), a.labels(k1), b.labels(k2)
        for r, c, x in zip(*a.entries(k1)):
            for y in left:
                out[(k1 - 1, rows_a[r], y), (k1, cols_a[c], y)] = x
        rows_b, cols_b, sign = b.labels(k2 - 1), b.labels(k2), (-1) ** k1
        for r, c, x in zip(*b.entries(k2)):
            for y in cols_a:
                out[(k1, y, rows_b[r]), (k1, y, cols_b[c])] = sign * x
    return out


def block_decomposition_matches(n: int, rank_a: int, rank_b: int) -> bool:
    """Entry-for-entry check of C^n(Z^(a+b)) against its weight blocks.

    Splitting each basis label by the generators among the first rank_a
    must map the degree-k labels one-to-one onto those of the sum over i of
    C^i(Z^a) (x) C^(n-i)(Z^b), and carry the nonzero entries of every d_k
    onto those of the tensor differentials.
    """
    build_C = complexes.build_C
    big = build_C(n, rank_a + rank_b)
    pairs = [(build_C(i, rank_a), build_C(n - i, rank_b)) for i in range(n + 1)]
    position = []  # per degree: split label -> position in big
    for k in range(n + 1):
        split = {_split_label(label, rank_a): pos for pos, label in enumerate(big.labels(k))}
        tensor_labels = {
            (i, (k1, l1, l2))
            for i, (a, b) in enumerate(pairs)
            for k1 in range(k + 1)
            for l1 in a.labels(k1)
            for l2 in b.labels(k - k1)
        }
        if len(split) != big.dim(k) or split.keys() != tensor_labels:
            return False
        position.append(split)
    for k in range(1, n + 1):
        expect = {
            (position[k - 1][i, row], position[k][i, col]): x
            for i, (a, b) in enumerate(pairs)
            for (row, col), x in _tensor_entries(a, b, k).items()
        }
        rows, cols, values = big.entries(k)
        if dict(zip(zip(rows, cols), values)) != expect:
            return False
    return True


def cross_effect_h0(n: int, rank_a: int, rank_b: int) -> GroupInvariants:
    """H_0 of the blocks of C^n(Z^(a+b)) with both weights positive.

    These are the content blocks c with c[:a] and c[a:] both nonzero, and
    H_0 of a block is the cokernel of its d_1; the two pure parts are
    exactly the summand complexes, so this is H_0 of the big complex minus
    the pure summands.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    hom = complexes.homology_of("C", n, rank_a + rank_b)
    return direct_sum(
        hom.solver(1).block(c).cokernel()
        for c in hom.source.contents
        if any(c[:rank_a]) and any(c[rank_a:])
    )


def cross_effect_h0_expected(n: int, rank_a: int, rank_b: int) -> GroupInvariants:
    """The closed-form cross-effect: sum of H_0 (x) H_0 over positive weights."""
    grid_a = complexes._homology_grid(n, rank_a)
    grid_b = complexes._homology_grid(n, rank_b)
    pieces = [tensor(grid_a[i, 0], grid_b[n - i, 0]) for i in range(1, n)]
    return direct_sum(pieces)


def gamma_elementary_invariants(n: int, p: int, r: int) -> GroupInvariants:
    """Degree-n divided power of (Z/p)^r computed as an integral cokernel.

    Present (Z/p)^r as Z^r modulo the sublattice p Z^r.  The integral
    divided power then surjects onto the one of the quotient, with kernel
    spanned by gamma_k(c) * m over kernel elements c, degrees 1 <= k <= n
    and monomials m of degree n - k.  Values of gamma_k on the grid
    {0..k}^r suffice to span, because a polynomial of degree at most k in
    each variable is an integer combination of its values there.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if n == 0:
        return GroupInvariants(1, ())
    dim = basis_size("gamma", n, r)
    columns: list[list[int]] = []
    seen: set[tuple] = set()
    for k in range(1, n + 1):
        tails = enumerate_basis("gamma", n - k, r)
        for point in iproduct(range(k + 1), repeat=r):
            if not any(point):
                continue
            scaled = tuple(p * c for c in point)
            for tail in tails:
                terms = [(k, scaled)] + unit_terms(tail)
                key = tuple(to_dense(divided_product(terms, r), dim))
                if any(key) and key not in seen:
                    seen.add(key)
                    columns.append(key)
    if not columns:
        return GroupInvariants(dim, ())
    return la.invariants_of_cokernel([list(row) for row in zip(*columns)])


# ---------------------------------------------------------------------------
# the Koszul complex over F_p


@lru_cache(maxsize=None)
def build_koszul(n: int, r: int, p: int) -> complexes.ChainComplexZ:
    """Weight-n Koszul complex on (F_p)^r, built by no command, the tests'
    reference: terms wedge^a (x) sym^(n-a), d d = 0 checked over Z, d mod p.
    Its blocks hold matrices of their own, so each has its own solvers."""
    require_prime(p)
    cx = complexes._build_complex("K", "wedge", "sym", n, r)

    def mod_p(d):
        return la.SparseRows(({j: y for j, x in row.items() if (y := x % p)} for row in d), d.width)

    blocks = tuple(
        complexes.Block(b.content, b.positions, tuple(map(mod_p, b.diffs)), first=b.first)
        for b in cx.blocks
    )
    return complexes.ChainComplexZ(cx.family, cx.n, cx.rank, cx.bases, blocks)


def derived_sp_dimension(i: int, n: int, p: int, r: int) -> int:
    """Dimension, with degrees outside the complex counted as zero."""
    if i < 0 or i > n - 1:
        return 0
    return derived_sp(i, n, p, r).dimension


def presentations_agree(i: int, n: int, p: int, r: int) -> bool:
    """The relations quotient and the Koszul cokernel have equal dimension."""
    return presentation_dimension(generator_presentation(i, n, p, r)) == derived_sp(
        i, n, p, r
    ).dimension


# ---------------------------------------------------------------------------
# well-definedness of the comparison maps


def q_kills_boundaries(q: QMap) -> bool:
    """Every column of d_1 must map to 0 modulo the target cyclic orders.

    d_1 keeps contents, and its block of c is one row, the divided monomial
    c, with entries x = ±c_j, read off the block alone.  Each column of that
    block maps to x times the column y of c, so x·y_k must vanish modulo the
    order of each row k."""
    orders, source = q.target.orders, complexes.homology_of("C", q.n, q.r).source
    return all(
        x * y % orders[k] == 0
        for c, column in q.columns.items()
        for x in source.block(c).d(1)[0].values()
        for k, y in column.items()
    )


def h0_map_is_iso(q: QMap, hom: complexes.ComplexHomology) -> bool:
    """Whether q induces an isomorphism from H_0 of hom's complex onto the
    target, the sum of cyclic groups of the target orders: a well-defined
    surjection between isomorphic finite groups, decided column by column,
    the reference for ``comparison.verify_h0_iso``.

    The source is ``hom.invariants(0)``, read off one block of d_0 and d_1
    per S_r orbit of content vectors.  If every target row lies in exactly
    one column, q is the direct sum of its columns, so it is onto exactly
    when each column, of at most 2 rows, is onto its rows' cyclic groups.
    A q not graded this way is refused as not onto."""
    orders = q.target.orders
    rows = sorted(k for column in q.columns.values() for k in column)
    onto = rows == list(range(len(orders))) and all(
        _column_onto(column, orders) for column in q.columns.values()
    )
    target = GroupInvariants(0, orders)
    return la.MapFacts(q_kills_boundaries(q), onto, target).iso(hom.invariants(0))


def f_matrix(i: int, n: int, p: int, r: int) -> list[list[int]]:
    """Matrix of the degree-i comparison for one prime, with every source
    relation checked to go to 0 modulo the cyclic orders of H_i."""
    block = theorem_block(i, n, p, r)
    orders, _ = complexes.homology_of("C", n, r).presentation(i)
    facts = la.presented_map_facts(block.matrix, block.relations, orders)
    if not facts.well_defined:
        raise la.NotWellDefinedError(
            f"comparison relations not boundaries at i={i}, n={n}, p={p}"
        )
    return block.matrix


def jacobi_eta_image(i: int, n: int, p: int, r: int, xs, tail) -> dict:
    """Image of one alternating relation under the cycle assignment.

    xs is a tuple of i+2 generator indices, tail a symmetric monomial; the
    image is the signed sum of the cycles obtained by dropping one index
    into the symmetric arguments.  The terms cancel pairwise, so the sum is
    the zero vector in the chain group itself.
    """
    acc: dict = {}
    for k in range(1, i + 3):
        rest = xs[:k - 1] + xs[k:]
        args = [_unit_vector(g, r) for g in rest]
        sym_args = [_unit_vector(xs[k - 1], r)]
        for j, e in enumerate(tail, start=1):
            sym_args.extend([_unit_vector(j, r)] * e)
        term = eta_vector(i, p, n, list(args) + sym_args, r)
        sign = (-1) ** k
        for key, c in term.items():
            vec_add(acc, key, sign * c)
    return acc


def verify_f_welldefined(i: int, n: int, p: int, r: int) -> dict:
    """Evidence that the degree-i comparison is well defined.

    (a) scaling any single argument by p turns the cycle into a boundary,
    certified by an exact integral solve against the incoming differential;
    (b) every alternating relation maps to the literal zero vector (with a
    boundary-membership fallback that is never expected to trigger).
    """
    block = theorem_block(i, n, p, r)
    boundaries = complexes.homology_of("C", n, r).solver(i + 1)
    m = n // p
    report = {
        "cell": {"i": i, "n": n, "p": p, "rank": r},
        "cycles": len(block.generator_labels),
        "scalings": {"checked": 0, "boundary": 0, "failures": []},
        "jacobi": {"checked": 0, "zero": 0, "boundary": 0, "failures": []},
    }
    for label in block.generator_labels:
        lifts = _generator_lifts(label, m, i)
        for slot in range(m):
            vectors = [_unit_vector(g, r) for g in lifts]
            vectors[slot] = tuple(p * c for c in vectors[slot])
            scaled = eta_vector(i, p, n, vectors, r)
            report["scalings"]["checked"] += 1
            if boundaries.contains(scaled):
                report["scalings"]["boundary"] += 1
            else:
                report["scalings"]["failures"].append((label, slot))
    tuples = enumerate_basis("wedge", i + 2, r)
    tails = enumerate_basis("sym", m - i - 2, r)
    for xs in tuples:
        for tail in tails:
            image = jacobi_eta_image(i, n, p, r, xs, tail)
            report["jacobi"]["checked"] += 1
            if not image:
                report["jacobi"]["zero"] += 1
            elif boundaries.contains(image):
                report["jacobi"]["boundary"] += 1
            else:
                report["jacobi"]["failures"].append((xs, tail))
    report["ok"] = not (
        report["scalings"]["failures"] or report["jacobi"]["failures"]
    )
    return report


def lift_change_in_boundaries(i: int, n: int, p: int, r: int) -> bool:
    """Replacing a lift x_k by x_k + p*x_m moves the cycle by a boundary."""
    block = theorem_block(i, n, p, r)
    boundaries = complexes.homology_of("C", n, r).solver(i + 1)
    m = n // p
    for label in block.generator_labels:
        lifts = _generator_lifts(label, m, i)
        base = eta_vector(i, p, n, [_unit_vector(g, r) for g in lifts], r)
        for slot in range(m):
            for other in range(1, r + 1):
                vectors = [_unit_vector(g, r) for g in lifts]
                vectors[slot] = tuple(
                    c + p * u
                    for c, u in zip(vectors[slot], _unit_vector(other, r))
                )
                shifted = eta_vector(i, p, n, vectors, r)
                diff = dict(shifted)
                for key, c in base.items():
                    vec_add(diff, key, -c)
                if not boundaries.contains(diff):
                    return False
    return True
