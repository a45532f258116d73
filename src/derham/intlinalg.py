"""Exact linear algebra over the integers and over prime fields.

Entries are plain Python ints, so every operation is exact, entries may grow
without bound, and no floating point is used.  A matrix is a sequence of
dense rows (a 2-d numpy array is read through ``tolist()``; ``cols`` gives
the width of one without rows) or ``SparseRows``, the one form the Smith and
F_p eliminations read, a dense matrix converted once on entry.  Only
``SnfResult.U``/``.D``/``.V`` and ``np.asarray`` of SparseRows make numpy
object arrays here, for tests, demos and tracing, importing numpy when
called; the dense numpy views (``intmat``, ``zeros``, ``identity``,
``as_intmat``, ``hstack``, ``block_diag``, ``mat_mul``, ``mat_vec``,
``is_zero``, ``det_exact``) have moved to ``derham.reference``.

The central primitive is the Smith normal form ``U @ M @ V = D`` with
unimodular ``U``, ``V``; everything else (cokernels, lattice solves, finite
group presentations) reduces to it.  A presented group is its relation
matrix, one row per generator and one column per relation, and its
invariants are those of the cokernel.  A map from one into a finite sum of
cyclic groups takes the target as its list of orders: it is well defined
when row k of f times the source relations is divisible by m_k, onto when
one Smith reduction of [f | diag(orders)], built as sparse rows, has a
trivial cokernel, and the target's invariants are the orders themselves.  The
reduction runs on each connected component of a matrix's nonzero pattern
separately, by elimination on sparse {column: value} rows with V kept
transposed, step for step as the dense elimination the tests keep as the
reference, so U, D and V match it entry for entry; the result keeps the
sparse rows of U and columns of V.  The complexes hand their differentials
over as content blocks of at most C(r, r // 2) columns already; a whole
differential read from a file, shuffled or not, splits into the same blocks
here, so its elimination never sees the whole matrix either.  Over F_p the
rank and the cokernel rows come from one elimination on sparse rows mod p.

The exchange format is plain text ("rows cols", then one line of entries
per row) or JSON.  Text rows are written from the nonzero entries, spliced
into one line of "0" tokens, and text is streamed into SparseRows with one
``int()`` per token other than "0", so both directions pay per nonzero
rather than per cell beyond the split.  JSON accepts only integers.
"""

from __future__ import annotations

import io
import itertools
import json
import re
from itertools import compress
from math import gcd, inf
from operator import itemgetter
from typing import IO, Callable, Iterable, NamedTuple, Sequence


class NotInLatticeError(ValueError):
    """A vector has no exact integer coordinates in the given lattice basis."""


class NotWellDefinedError(ValueError):
    """A matrix does not send source relations into the target relation span."""


class InfiniteGroupUnsupportedError(ValueError):
    """Isomorphism tests and homology presentations need finite groups."""


class NotPrimeError(ValueError):
    """A modulus that must be prime is not."""


# ---------------------------------------------------------------------------
# matrices as rows


def as_rows(m, cols: int | None = None) -> tuple[list, int]:
    """m as (rows, width).  m is a sequence of equally long rows of ints, or
    a 2-d array (anything with ``shape`` and ``tolist()``); cols is the
    width of a matrix without rows.  A list of rows is returned as it is."""
    if hasattr(m, "shape"):
        if len(m.shape) != 2:
            raise ValueError("expected a 2-d array")
        return m.tolist(), m.shape[1]
    rows = m if isinstance(m, list) else list(m)
    if not rows:
        return rows, cols or 0
    width = len(rows[0])
    if cols is not None and cols != width:
        raise ValueError("cols does not match row length")
    if any(len(r) != width for r in rows):
        raise ValueError("ragged rows")
    return rows, width


def _nonzero(row: Sequence[int]) -> dict[int, int]:
    """A row's nonzero entries as {column: value}, ascending."""
    return {j: row[j] for j in compress(range(len(row)), row)}


class SparseRows(list):
    """A matrix as its rows {column: value}, nonzero entries only, columns
    ascending, and its width: the one form the Smith and F_p eliminations
    read.  ``tolist()`` and numpy read it as the dense rows x width matrix."""

    __slots__ = ("width",)
    shape = property(lambda self: (len(self), self.width))

    def __init__(self, rows: Iterable[dict] = (), width: int = 0):
        super().__init__(rows)
        self.width = width

    def tolist(self) -> list[list[int]]:
        return [[row.get(j, 0) for j in range(self.width)] for row in self]

    def __array__(self, dtype=None, copy=None):
        import numpy as np

        out = np.zeros(self.shape, dtype=object)
        for i, row in enumerate(self):
            for j, x in row.items():
                out[i, j] = x
        return out.astype(dtype or object, copy=False)


def sparse_rows(m, cols: int | None = None) -> SparseRows:
    """m itself when it is SparseRows, else the dense matrix m converted."""
    if isinstance(m, SparseRows):
        return m
    rows, width = as_rows(m, cols)
    return SparseRows(map(_nonzero, rows), width)


# ---------------------------------------------------------------------------
# Smith normal form


def _transpose(lines: Sequence[dict], length: int) -> list[dict]:
    """The sparse columns of sparse rows, or the rows of columns; length is
    the number of lines the result has."""
    out = [{} for _ in range(length)]
    for i, line in enumerate(lines):
        for j, x in line.items():
            out[j][i] = x
    return out


class SnfResult:
    """U @ m @ V = D for a matrix m of the given shape: the diagonal of D,
    the rows of U and the columns of V, each sparse {index: value}.

    U, D and V themselves are numpy object matrices built on each access,
    for tests, demos and tracing; unpacking gives them in that order.  The
    program reads ``diagonal``, ``urows``, ``vcols`` and ``sparse``.
    """

    __slots__ = ("shape", "diagonal", "urows", "vcols")

    def __init__(self, shape: tuple[int, int], diagonal: list[int], urows: list[dict],
                 vcols: list[dict]):
        self.shape, self.diagonal, self.urows, self.vcols = shape, diagonal, urows, vcols

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)

    def sparse(self, name: str) -> tuple[list[dict], int]:
        """U, D or V as sparse rows, with its width."""
        height, width = self.shape
        if name == "U":
            return self.urows, height
        if name == "V":
            return _transpose(self.vcols, width), width
        if name == "D":
            rows = [{t: d} if d else {} for t, d in enumerate(self.diagonal)]
            return rows + [{} for _ in range(height - len(rows))], width
        raise ValueError(f"no factor {name!r}")

    @property
    def U(self):
        return SparseRows(*self.sparse("U")).__array__()

    @property
    def D(self):
        return SparseRows(*self.sparse("D")).__array__()

    @property
    def V(self):
        return SparseRows(*self.sparse("V")).__array__()

    def __iter__(self):
        return iter((self.U, self.D, self.V))


def _axpy(y: dict, q: int, x: dict) -> None:
    """y -= q * x on sparse rows, dropping the zeros this makes."""
    for k, xk in x.items():
        if w := y.get(k, 0) - q * xk:
            y[k] = w
        else:
            del y[k]


def _combine(coeffs: dict, lines: Sequence[dict]) -> dict:
    """The sum of coeffs[k] * lines[k] over sparse lines."""
    out: dict = {}
    for k, q in coeffs.items():
        _axpy(out, -q, lines[k])
    return out


def _eliminate(a: list[dict], width: int) -> tuple[list[dict], list[dict]]:
    """Drive the sparse rows a ({column: value}, no zero stored) of a matrix
    of the given width to Smith form in place, and return the rows of U and
    of V transposed: U @ original @ V == final a.  The pivot is the first +-1
    of a[t:, t:] in row-major order, else its first entry of least |value|."""
    height = len(a)
    u, vt = [{i: 1} for i in range(height)], [{j: 1} for j in range(width)]

    def swap_cols(j: int) -> None:
        vt[t], vt[j] = vt[j], vt[t]
        for row in a[t:]:  # rows above t hold their pivot only
            x, y = row.pop(t, 0), row.pop(j, 0)
            if y:
                row[t] = y
            if x:
                row[j] = x

    t = 0
    while t < min(height, width):
        best = (inf, 0, 0)
        for i in range(t, height):
            for k, x in a[i].items():
                if (abs(x), i, k) < best:
                    best = (abs(x), i, k)
            if best[0] == 1:
                break
        if best[0] == inf:
            break
        _, pi, pj = best
        a[t], a[pi], u[t], u[pi] = a[pi], a[t], u[pi], u[t]
        if pj != t:
            swap_cols(pj)
        while True:
            # clear column t below the pivot
            for i in range(t + 1, height):
                while t in a[i]:
                    q = a[i][t] // a[t][t]
                    if q:
                        _axpy(a[i], q, a[t])
                        _axpy(u[i], q, u[t])
                    if t in a[i]:
                        # remainder beats the pivot; promote it and restart
                        a[t], a[i], u[t], u[i] = a[i], a[t], u[i], u[t]
            # clear row t; column swaps may dirty column t again
            dirtied = False
            col = [(t, a[t][t])]
            for j in sorted(k for k in a[t] if k > t):
                while j in a[t]:
                    q = a[t][j] // a[t][t]
                    if q:
                        for r, y in col:
                            if w := a[r].get(j, 0) - q * y:
                                a[r][j] = w
                            else:
                                del a[r][j]
                        _axpy(vt[j], q, vt[t])
                    if j in a[t]:
                        swap_cols(j)
                        col = [(r, a[r][t]) for r in range(t, height) if t in a[r]]
                        dirtied = True
            if not dirtied:
                break
        # make the pivot divide everything that remains
        p = a[t][t]
        rest = range(t + 1, height) if abs(p) > 1 else ()
        bad = next((i for i in rest if any(x % p for x in a[i].values())), None)
        if bad is not None:
            _axpy(a[t], -1, a[bad])
            _axpy(u[t], -1, u[bad])
            continue  # re-run elimination at the same t
        if p < 0:
            a[t][t] = -p
            u[t] = {k: -x for k, x in u[t].items()}
        t += 1
    return u, vt


def _components(sparse: list[dict], width: int) -> list[tuple[list[int], list[int]]]:
    """The rows and columns, ascending, of each connected component of the
    nonzero pattern of sparse rows (a bipartite graph, edge (i, j) where row
    i has a nonzero in column j) in the order of their first row."""
    height = len(sparse)
    parent = list(range(height + width))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, row in enumerate(sparse):
        for j in row:
            ri, rj = find(i), find(height + j)
            if ri != rj:
                parent[rj] = ri
    groups: dict[int, tuple[list[int], list[int]]] = {}
    for i, row in enumerate(sparse):
        if row:
            groups.setdefault(find(i), ([], []))[0].append(i)
    for j in sorted(set().union(*sparse)):
        groups[find(height + j)][1].append(j)
    return list(groups.values())


def _reduce(sparse: list[dict], width: int) -> tuple[list[int], list[dict], list[dict]]:
    """The Smith diagonal of sparse rows, the rows of U and the columns of
    V, one connected component of its nonzero pattern at a time, by
    elimination on copies of the rows (V transposed, the dense pivots).

    A zero matrix, with no component, is its own Smith form.  A matrix with
    one component is reduced whole.  Otherwise each component is reduced on
    its own and its transforms become the component's rows of U and columns
    of V.  The diagonal then holds the units, the other nonzero entries and
    the zeros, in that order (so the kernel is spanned by V's trailing
    columns), and one more reduction of the small diagonal of non-units
    restores the divisor chain (2 + 3 becomes 1 + 6).
    """
    size = min(len(sparse), width)
    comps = _components(sparse, width)
    if len(comps) <= 1:
        a = [dict(row) for row in sparse]
        urows, vcols = _eliminate(a, width)
        return [a[t].get(t, 0) for t in range(size)], urows, vcols
    units, others, zero_rows, zero_cols = [], [], [], []
    for rs, cs in comps:
        at = {j: k for k, j in enumerate(cs)}
        block = [{at[j]: x for j, x in sparse[i].items()} for i in rs]
        urows, vcols = _eliminate(block, len(cs))
        urows = [{rs[k]: x for k, x in row.items()} for row in urows]
        vcols = [{cs[k]: x for k, x in col.items()} for col in vcols]
        rank = sum(map(bool, block))  # the pivots lead the diagonal
        for t in range(rank):
            d = block[t][t]
            (units if d == 1 else others).append((d, urows[t], vcols[t]))
        zero_rows += urows[rank:]
        zero_cols += vcols[rank:]
    zero_rows += ({i: 1} for i, row in enumerate(sparse) if not row)
    zero_cols += ({j: 1} for j in sorted(set(range(width)).difference(*sparse)))
    others.sort(key=itemgetter(0))
    pivots = units + others
    diagonal = [d for d, _, _ in pivots] + [0] * (size - len(pivots))
    urows = [urow for _, urow, _ in pivots] + zero_rows
    vcols = [vcol for _, _, vcol in pivots] + zero_cols
    chain = [d for d, _, _ in others]
    if any(y % x for x, y in zip(chain, chain[1:])):
        lo, hi = len(units), len(pivots)
        block = [{t: d} for t, d in enumerate(chain)]
        du, dvt = _eliminate(block, len(chain))
        diagonal[lo:hi] = [block[t][t] for t in range(len(chain))]
        old_u, old_v = urows[lo:hi], vcols[lo:hi]
        urows[lo:hi] = [_combine(row, old_u) for row in du]
        vcols[lo:hi] = [_combine(col, old_v) for col in dvt]
    return diagonal, urows, vcols


def smith_normal_form(m, cols: int | None = None) -> SnfResult:
    """Smith normal form with unimodular transforms: U @ m @ V = D.

    The diagonal of D is nonnegative and each entry divides the next
    nonzero one; D is uniquely determined by m.  A dense m is converted to
    SparseRows once; cols is the width of a dense m without rows."""
    a = sparse_rows(m, cols)
    return SnfResult(a.shape, *_reduce(a, a.width))


def snf_diagonal(m) -> list[int]:
    """The invariant factors of m: the diagonal of smith_normal_form(m)."""
    return smith_normal_form(m).diagonal


# ---------------------------------------------------------------------------
# finitely generated abelian group invariants


def _coprime_base(values: Iterable[int]) -> list[int]:
    """Pairwise coprime numbers above 1 whose powers multiply to each value,
    by gcds alone: two numbers that share a factor g > 1 give way to g and
    their cofactors, which divides the product of all held numbers by g."""
    base, todo = [], [v for v in values if v > 1]
    while todo:
        x = todo.pop()
        k = next((k for k, b in enumerate(base) if gcd(x, b) > 1), None)
        if k is None:
            base.append(x)
            continue
        b = base.pop(k)
        g = gcd(x, b)
        todo += [y for y in (g, b // g, x // g) if y > 1]
    return base


def _divisor_chain(torsion: Iterable[int]) -> tuple[int, ...]:
    """Normalize arbitrary torsion moduli to a divisor chain m1 | m2 | ...

    Moduli that already form one are returned sorted.  Otherwise the
    primary decomposition, with the primes grouped into a coprime base so
    that nothing is factored: the k-th largest invariant factor is the
    product, over each b of the base, of the k-th largest of the moduli's
    b-parts b^v_b(m).  E.g. [2, 3] -> [6], [4, 6] -> [2, 12].
    """
    mods = sorted(int(m) for m in torsion if int(m) > 1)
    if all(b % a == 0 for a, b in zip(mods, mods[1:])):
        return tuple(mods)
    distinct, chain = set(mods), [1] * len(mods)  # chain largest first
    for b in _coprime_base(distinct):
        power = dict.fromkeys(distinct, 1)
        for m in distinct:
            while m % (power[m] * b) == 0:
                power[m] *= b
        for k, m in enumerate(sorted(mods, key=power.get, reverse=True)):
            chain[k] *= power[m]
    return tuple(m for m in reversed(chain) if m > 1)


class GroupInvariants:
    """Isomorphism type of a finitely generated abelian group.

    torsion is the divisor chain m1 | m2 | ... with every mk >= 2, so two
    groups are isomorphic iff their invariants compare equal.
    """

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: Iterable[int] = ()):
        self.free_rank = free_rank
        self.torsion = _divisor_chain(torsion)

    def _key(self) -> tuple:
        return self.free_rank, self.torsion

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"GroupInvariants(free_rank={self.free_rank!r}, torsion={self.torsion!r})"

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def as_dict(self) -> dict:
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{m}" for m in self.torsion)
        return " + ".join(parts) if parts else "0"


TRIVIAL_GROUP = GroupInvariants(0, ())


class LinearSolver:
    """One Smith decomposition U @ A @ V = D of a matrix A, and what is read
    off it: the rank, the cokernel and exact solves."""

    def __init__(self, a, cols: int | None = None):
        self.snf = smith_normal_form(a, cols)
        self.shape = self.snf.shape
        self.diag = self.snf.diagonal
        self.rank = self.snf.rank

    def cokernel(self) -> GroupInvariants:
        """Invariants of Z^rows / (column span of A)."""
        torsion = tuple(d for d in self.diag if d > 1)
        return GroupInvariants(self.shape[0] - self.rank, torsion)

    def solve(self, v: Sequence[int]) -> list[int]:
        """Return x with A @ x = v, or raise NotInLatticeError."""
        v = list(v)
        if len(v) != self.shape[0]:
            raise ValueError("vector length does not match matrix rows")
        x = [0] * self.shape[1]
        for i, urow in enumerate(self.snf.urows):
            y = sum(c * v[k] for k, c in urow.items())
            if i < self.rank:
                q, r = divmod(y, self.diag[i])
                if r:
                    raise NotInLatticeError("no integral solution (divisibility)")
                for j, c in self.snf.vcols[i].items():
                    x[j] += q * c
            elif y:
                raise NotInLatticeError("no rational solution")
        return x

    def contains(self, v) -> bool:
        try:
            self.solve(v)
            return True
        except NotInLatticeError:
            return False


def invariants_of_cokernel(m) -> GroupInvariants:
    """Invariants of Z^rows / (column span of m): a presented group, one row
    per generator and one column per relation, in any form ``sparse_rows``
    reads."""
    return LinearSolver(m).cokernel()


def onto_cyclic_sum(f, orders: Sequence[int]) -> bool:
    """Whether f (columns in Z^k) hits every generator of Z/m_1 + ... + Z/m_k:
    one Smith reduction of [f | diag(m_1, ..., m_k)], as sparse rows."""
    f = sparse_rows(f)
    if len(f) != len(orders):
        raise ValueError("map rows do not match the orders")
    rows = (row | ({f.width + t: m} if m else {}) for t, (row, m) in enumerate(zip(f, orders)))
    return invariants_of_cokernel(SparseRows(rows, f.width + len(orders))).is_trivial


class MapFacts(NamedTuple):
    """What a generator matrix induces from a presented group to a finite
    sum of cyclic groups."""

    well_defined: bool
    surjective: bool
    target: GroupInvariants

    def iso(self, source: GroupInvariants) -> bool:
        """Given the invariants of the source: a well-defined surjection
        onto an isomorphic finitely generated abelian group is bijective."""
        return self.well_defined and self.surjective and source == self.target


def presented_map_facts(f, relations, orders: Sequence[int]) -> MapFacts:
    """What f (source generators to the generators of Z/m_1 + ... + Z/m_k,
    m_k = orders[k]) induces from the group presented by relations (one row
    per generator): whether it sends every source relation to 0, that is,
    whether row k of f times the relations is divisible by m_k; whether it
    is onto; and the target's invariants.  f and relations are in any form
    ``sparse_rows`` reads.

    An order of 0 (Z) raises InfiniteGroupUnsupportedError and a negative
    one ValueError, before anything is reduced."""
    orders = [int(m) for m in orders]
    if any(m < 0 for m in orders):
        raise ValueError(f"cyclic orders must be nonnegative: {orders}")
    if 0 in orders:
        raise InfiniteGroupUnsupportedError("both groups must be finite")
    relations = sparse_rows(relations)
    f = sparse_rows(f, len(relations))
    if len(f) != len(orders) or f.width != len(relations):
        raise ValueError("map shape does not match the source and the orders")
    well_defined = not any(
        x % m for row, m in zip(f, orders) for x in _combine(row, relations).values()
    )
    return MapFacts(well_defined, onto_cyclic_sum(f, orders), GroupInvariants(0, orders))


def presented_map_is_iso(f, relations, orders: Sequence[int]) -> bool:
    """Decide whether f induces an isomorphism from the finite group
    presented by relations onto Z/m_1 + ... + Z/m_k, given as its orders.

    f maps source generators to target generators.  Both groups must be
    finite, which raises InfiniteGroupUnsupportedError.  Well-definedness
    (every source relation sent to 0) is a precondition and raises
    NotWellDefinedError when violated.
    """
    relations = sparse_rows(relations)
    facts = presented_map_facts(f, relations, orders)
    src_inv = LinearSolver(relations).cokernel()
    if src_inv.free_rank:
        raise InfiniteGroupUnsupportedError("both groups must be finite")
    if not facts.well_defined:
        raise NotWellDefinedError("a source relation is not sent to zero")
    return facts.iso(src_inv)


# ---------------------------------------------------------------------------
# linear algebra over F_p


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def require_prime(p: int) -> None:
    """Raise NotPrimeError unless p is prime."""
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")


def _fp_pivot_rows(m, p: int) -> tuple[list[int], int]:
    """The rows of m, ascending, that are not combinations of the rows
    before them mod p, and the number of rows.

    Rows are reduced one at a time, sparse, against the rows kept so far,
    each kept row scaled to lead with 1; a row that does not reduce to 0 is
    kept.  These are the pivot rows of m's column echelon form mod p.
    """
    require_prime(p)
    rows = sparse_rows(m)
    kept: dict[int, dict] = {}  # leading column -> kept row, led by 1
    pivots = []
    for i, row in enumerate(rows):
        r = {j: y for j, x in row.items() if (y := x % p)}
        while hit := [j for j in r if j in kept]:
            j = min(hit)
            q = r[j]
            for k, x in kept[j].items():
                if y := (r.get(k, 0) - q * x) % p:
                    r[k] = y
                else:
                    del r[k]
        if r:
            lead = min(r)
            inv = pow(r[lead], -1, p)
            kept[lead] = {k: x * inv % p for k, x in r.items()}
            pivots.append(i)
    return pivots, len(rows)


def fp_rank(m, p: int) -> int:
    """Rank of m over F_p."""
    return len(_fp_pivot_rows(m, p)[0])


def fp_cokernel_basis(m, p: int) -> list[int]:
    """The rows i, ascending, whose standard basis vectors e_i complete
    im(m mod p) to the full codomain: those outside the pivot rows."""
    pivots, height = _fp_pivot_rows(m, p)
    taken = set(pivots)
    return [i for i in range(height) if i not in taken]


# ---------------------------------------------------------------------------
# matrix exchange format


def write_text(
    fh: IO[str], shape: tuple[int, int], rows: Sequence[int], cols: Sequence[int], values: Sequence
) -> None:
    """Write a matrix in the text exchange format to fh, given its shape and
    its nonzero entries values[k] at (rows[k], cols[k]) in row-major order.

    Every line is cut from one line of "0" tokens, in which the token of
    column c starts at offset 2c: a row's entries are spliced in between the
    cuts, and every empty row is that line itself.
    """
    height, width = shape
    fh.write(f"{height} {width}\n")
    blank = " ".join(["0"] * width) + "\n"
    done = 0
    for r, group in itertools.groupby(zip(rows, cols, values), key=itemgetter(0)):
        fh.writelines(itertools.repeat(blank, r - done))
        pieces, start = [], 0
        for _, c, x in group:
            pieces += (blank[start : 2 * c], str(x))
            start = 2 * c + 1
        pieces.append(blank[start:])
        fh.write("".join(pieces))
        done = r + 1
    fh.writelines(itertools.repeat(blank, height - done))


def mat_to_text(m, cols: int | None = None) -> str:
    """m in the text format.  m is a matrix (see ``as_rows``) or a list of
    sparse {column: value} rows, whose width cols must give."""
    if not hasattr(m, "shape") and m and isinstance(m[0], dict):
        lines, width = [sorted(row.items()) for row in m], cols
    else:
        rows, width = as_rows(m, cols)
        lines = [_nonzero(row).items() for row in rows]
    entries = [(i, j, x) for i, line in enumerate(lines) for j, x in line]
    buf = io.StringIO()
    write_text(buf, (len(lines), width), *(zip(*entries) if entries else ((), (), ())))
    return buf.getvalue()


def _check_shape(rows: int, cols: int, check: Callable[[int, int], None] | None) -> None:
    if rows < 0 or cols < 0:
        raise ValueError(f"a matrix cannot have shape {rows} x {cols}")
    if check is not None:
        check(rows, cols)


_NONZERO = re.compile(r"[^0\s]\S*")  # from a character other than 0 to its token's end


def _zero_tokens(text: str) -> int:
    """How many tokens text of zeros and whitespace holds (a run "00" is one)."""
    return text.count("0") if "00" not in text else len(text.split())


def read_text(lines: Iterable[str], check: Callable[[int, int], None] | None = None) -> SparseRows:
    """A matrix in the text format, read a line (or any piece cut at
    whitespace) at a time, entries counted across lines, so any layout reads
    alike: a regex finds the tokens other than "0", the only ones through
    ``int()``, and counts the "0" between.  check gets the header's shape
    before the body is read.  Errors, in order: header, shape, count, token."""
    lines, head = iter(lines), []
    while len(head) < 2 and (line := next(lines, None)) is not None:
        head += line.split()
    if len(head) < 2:
        raise ValueError("matrix text must start with 'rows cols'")
    height, width = int(head[0]), int(head[1])
    _check_shape(height, width, check)
    out, size, seen, bad = SparseRows(({} for _ in range(height)), width), height * width, 0, None
    for line in itertools.chain([" ".join(head[2:])], lines):
        prev = 0
        for m in _NONZERO.finditer(line):
            gap = line[prev : m.start()]
            lead = gap.rstrip("0")  # zeros glued to the token open it
            seen += _zero_tokens(lead)
            try:
                x = int(gap[len(lead) :] + m[0])
            except ValueError as exc:
                bad = bad or exc
            else:
                if x and seen < size:
                    out[seen // width][seen % width] = x
            seen, prev = seen + 1, m.end()
        seen += _zero_tokens(line[prev:])
    if seen != size:
        raise ValueError(f"expected {size} entries, found {seen}")
    if bad:
        raise bad
    return out


def _json_int(x, what: str) -> int:
    """x itself, when JSON read it as an integer (not a float, not a bool)."""
    if type(x) is not int:
        raise ValueError(f"{what} must be a JSON integer, not {json.dumps(x)}")
    return x


def mat_from_json(text: str, check: Callable[[int, int], None] | None = None) -> tuple[list, int]:
    """(rows, cols) of a matrix in the JSON format.  check, when given, is
    called with its shape before the entries are checked and split."""
    payload = json.loads(text)
    rows = _json_int(payload["rows"], "rows")
    cols = _json_int(payload["cols"], "cols")
    _check_shape(rows, cols, check)
    data = payload["data"]
    if type(data) is not list:
        raise ValueError("data must be a JSON list")
    if len(data) != rows * cols:
        raise ValueError("data length does not match rows*cols")
    for x in data:
        _json_int(x, "every entry")
    return [data[k * cols : (k + 1) * cols] for k in range(rows)], cols


def mat_read(lines: Iterable[str], check: Callable[[int, int], None] | None = None) -> SparseRows:
    """Either exchange form from its lines (a file, or one string): JSON,
    told by "{" after whitespace, joined and read whole, else text streamed
    by ``read_text``; check is called with the shape before the body."""
    lines = iter(lines)
    first = next((line for line in lines if not line.isspace()), "")
    if first.lstrip().startswith("{"):
        return sparse_rows(*mat_from_json(first + "".join(lines), check))
    return read_text(itertools.chain([first], lines), check)


def mat_parse(text: str, check: Callable[[int, int], None] | None = None) -> tuple[list, int]:
    """Either exchange form as dense (rows, cols); see ``mat_read``."""
    m = mat_read((text,), check)
    return m.tolist(), m.width
