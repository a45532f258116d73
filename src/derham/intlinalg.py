"""Exact linear algebra over the integers and over prime fields.

All matrices are 2-dimensional numpy arrays with ``dtype=object`` holding
plain Python ints, so every operation is exact and entries may grow without
bound.  No floating point is used anywhere.

The central primitive is the Smith normal form ``U @ M @ V = D`` with
unimodular ``U``, ``V``; everything else (cokernels, lattice solves, finite
group presentations and the maps between them) reduces to it.  The
reduction runs on each connected component of a matrix's nonzero pattern
separately, by elimination on sparse {column: value} rows with V kept
transposed, step for step as the dense elimination the tests keep as the
reference, so U, D and V match it entry for entry.  The complexes hand their
differentials over as content blocks of at most C(r, r // 2) columns
already; a whole differential read from a file, shuffled or not, splits
into the same blocks here, so its elimination never sees the whole matrix
either.

The exchange format is plain text ("rows cols", then one line of entries
per row) or JSON.  Text rows are written from the nonzero entries, spliced
into one line of "0" tokens, and text is parsed through one ``int()`` per
distinct token, so both directions pay per nonzero rather than per cell.
JSON accepts only integers.
"""

from __future__ import annotations

import io
import itertools
import json
from dataclasses import dataclass
from math import gcd, inf
from operator import itemgetter
from typing import IO, Iterable, NamedTuple, Sequence

import numpy as np


class NotInLatticeError(ValueError):
    """A vector has no exact integer coordinates in the given lattice basis."""


class NotWellDefinedError(ValueError):
    """A matrix does not send source relations into the target relation span."""


class InfiniteGroupUnsupportedError(ValueError):
    """Isomorphism tests and homology presentations need finite groups."""


class NotPrimeError(ValueError):
    """A modulus that must be prime is not."""


# ---------------------------------------------------------------------------
# matrix construction helpers


def intmat(rows: Sequence[Sequence[int]], cols: int | None = None) -> np.ndarray:
    """Build an exact integer matrix from nested sequences.

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
    a = np.zeros((len(rows), width), dtype=object)
    for i, r in enumerate(rows):
        for j, x in enumerate(r):
            a[i, j] = int(x)
    return a


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=object)


def identity(n: int) -> np.ndarray:
    a = zeros(n, n)
    for i in range(n):
        a[i, i] = 1
    return a


def as_intmat(m) -> np.ndarray:
    if isinstance(m, np.ndarray):
        if m.ndim != 2:
            raise ValueError("expected a 2-d array")
        if m.dtype == object:
            return m
        return m.astype(object)
    return intmat(m)


def hstack(blocks: Sequence[np.ndarray]) -> np.ndarray:
    blocks = [as_intmat(b) for b in blocks]
    if not blocks:
        return zeros(0, 0)
    return np.hstack(blocks)


def block_diag(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Block sum: the blocks down the diagonal, zeros elsewhere."""
    blocks = [as_intmat(b) for b in blocks]
    out = zeros(sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks))
    r0 = c0 = 0
    for b in blocks:
        r, c = b.shape
        out[r0 : r0 + r, c0 : c0 + c] = b
        r0, c0 = r0 + r, c0 + c
    return out


def mat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact product, accumulated column by column (fast when b is sparse)."""
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


def mat_vec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    a = as_intmat(a)
    out = np.zeros(a.shape[0], dtype=object)
    for k in np.nonzero(v != 0)[0]:
        out += v[k] * a[:, k]
    return out


def is_zero(a: np.ndarray) -> bool:
    return bool(np.all(a == 0))


def det_exact(a: np.ndarray) -> int:
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


# ---------------------------------------------------------------------------
# Smith normal form


class SnfResult(NamedTuple):
    U: np.ndarray
    D: np.ndarray
    V: np.ndarray

    @property
    def diagonal(self) -> list[int]:
        k = min(self.D.shape)
        return [int(self.D[i, i]) for i in range(k)]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


def _axpy(y: dict, q: int, x: dict) -> None:
    """y -= q * x on sparse rows, dropping the zeros this makes."""
    for k, xk in x.items():
        if w := y.get(k, 0) - q * xk:
            y[k] = w
        else:
            del y[k]


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


def _scatter(m: np.ndarray, rows: Iterable[dict]) -> None:
    """Zero m, then write the t-th sparse row of rows as row t of m."""
    m[...] = 0
    for t, row in enumerate(rows):
        for k, x in row.items():
            m[t, k] = x


def _snf_whole(a: np.ndarray, u: np.ndarray, v: np.ndarray, rows: list[dict]) -> None:
    """Reduce a, with sparse rows rows, as one matrix into a, u and v."""
    urows, vcols = _eliminate(rows, a.shape[1])
    for m, lines in ((a, rows), (u, urows), (v.T, vcols)):
        _scatter(m, lines)


def _components(a: np.ndarray) -> tuple[list[tuple[list[int], list[int]]], list[dict]]:
    """The rows and columns, ascending, of each connected component of a's
    nonzero pattern (a bipartite graph, edge (i, j) where a[i, j] != 0) in
    the order of their first row, and a's sparse rows, from one scan."""
    rows = a.shape[0]
    parent = list(range(rows + a.shape[1]))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    nz = np.nonzero(a)
    sparse: list[dict] = [{} for _ in range(rows)]
    for i, j, x in zip(nz[0].tolist(), nz[1].tolist(), a[nz].tolist()):
        sparse[i][j] = x
        ri, rj = find(i), find(rows + j)
        if ri != rj:
            parent[rj] = ri
    groups: dict[int, tuple[list[int], list[int]]] = {}
    for i, row in enumerate(sparse):
        if row:
            groups.setdefault(find(i), ([], []))[0].append(i)
    for j in sorted(set(nz[1].tolist())):
        groups[find(rows + j)][1].append(j)
    return list(groups.values()), sparse


def _snf_inplace(a: np.ndarray, u: np.ndarray, v: np.ndarray) -> None:
    """Drive a to Smith form one connected component of its nonzero pattern
    at a time, by elimination on sparse rows (V transposed, the dense pivots).

    u and v must arrive as identities; on return u @ original @ v == final a.
    A matrix with at most one component is reduced whole.  Otherwise each
    component is reduced on its own and its transforms are written into
    the component's rows of u and columns of v.  The diagonal then holds
    the units, the other nonzero entries and the zeros, in that order (so
    the kernel is spanned by v's trailing columns), and one more reduction
    of the small diagonal of non-units restores the divisor chain (2 + 3
    becomes 1 + 6).
    """
    comps, sparse = _components(a)
    if len(comps) <= 1:
        _snf_whole(a, u, v, sparse)
        return
    units, others, zero_rows, zero_cols = [], [], [], []
    for rs, cs in comps:
        at = {j: k for k, j in enumerate(cs)}
        block = [{at[j]: x for j, x in sparse[i].items()} for i in rs]
        urows, vcols = _eliminate(block, len(cs))
        urows = [{rs[k]: x for k, x in row.items()} for row in urows]
        vcols = [{cs[k]: x for k, x in col.items()} for col in vcols]
        rank = sum(map(bool, block))  # the pivots lead the diagonal
        for k in range(rank):
            d = block[k][k]
            (units if d == 1 else others).append((d, urows[k], vcols[k]))
        zero_rows += urows[rank:]
        zero_cols += vcols[rank:]
    zero_rows += ({i: 1} for i, row in enumerate(sparse) if not row)
    zero_cols += ({j: 1} for j in sorted(set(range(a.shape[1])).difference(*sparse)))
    others.sort(key=itemgetter(0))
    pivots = units + others
    _scatter(a, [{t: d} for t, (d, _, _) in enumerate(pivots)])
    _scatter(u, [urow for _, urow, _ in pivots] + zero_rows)
    _scatter(v.T, [vcol for _, _, vcol in pivots] + zero_cols)
    chain = [d for d, _, _ in others]
    if any(y % x for x, y in zip(chain, chain[1:])):
        lo, hi = len(units), len(pivots)
        du, dv = identity(hi - lo), identity(hi - lo)
        _snf_whole(a[lo:hi, lo:hi], du, dv, [{k: d} for k, d in enumerate(chain)])
        u[lo:hi, :] = mat_mul(du, u[lo:hi, :])
        v[:, lo:hi] = mat_mul(v[:, lo:hi], dv)


def smith_normal_form(m) -> SnfResult:
    """Smith normal form with unimodular transforms: U @ m @ V = D.

    The diagonal of D is nonnegative and each entry divides the next
    nonzero one; D is uniquely determined by m.
    """
    a = as_intmat(m).copy()
    u, v = identity(a.shape[0]), identity(a.shape[1])
    _snf_inplace(a, u, v)
    return SnfResult(u, a, v)


def snf_diagonal(m) -> list[int]:
    """The invariant factors of m: the diagonal of smith_normal_form(m).

    There is one elimination on sparse rows, per connected component of m's
    nonzero pattern, and it always accumulates U and V; skipping them was
    measured to save about 3%, well inside run-to-run noise.
    """
    return smith_normal_form(m).diagonal


# ---------------------------------------------------------------------------
# finitely generated abelian group invariants


def _divisor_chain(torsion: Iterable[int]) -> tuple[int, ...]:
    """Normalize arbitrary torsion moduli to a divisor chain m1 | m2 | ...

    One pass of pairwise gcd/lcm suffices: once entry i has met every later
    entry it divides all of them, and the later gcd/lcm steps keep it so.
    E.g. [2, 3] -> [6], [4, 6] -> [2, 12].
    """
    mods = sorted(int(m) for m in torsion if int(m) > 1)
    if all(b % a == 0 for a, b in zip(mods, mods[1:])):
        return tuple(mods)
    for i in range(len(mods)):
        for j in range(i + 1, len(mods)):
            a, b = mods[i], mods[j]
            if b % a != 0:
                g = gcd(a, b)
                mods[i], mods[j] = g, a * b // g
    return tuple(m for m in mods if m > 1)


@dataclass(frozen=True)
class GroupInvariants:
    """Isomorphism type of a finitely generated abelian group.

    torsion is the divisor chain m1 | m2 | ... with every mk >= 2, so two
    groups are isomorphic iff their invariants compare equal.
    """

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "torsion", _divisor_chain(self.torsion))

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

    def __init__(self, a):
        a = as_intmat(a)
        self.a = a
        self.snf = smith_normal_form(a)
        self.diag = self.snf.diagonal
        self.rank = sum(1 for d in self.diag if d != 0)

    def cokernel(self) -> GroupInvariants:
        """Invariants of Z^rows / (column span of A)."""
        torsion = tuple(d for d in self.diag if d > 1)
        return GroupInvariants(self.a.shape[0] - self.rank, torsion)

    def solve(self, v) -> np.ndarray:
        """Return x with A @ x = v, or raise NotInLatticeError."""
        u, _, vmat = self.snf
        v = np.asarray(v, dtype=object)
        if len(v) != self.a.shape[0]:
            raise ValueError("vector length does not match matrix rows")
        y = mat_vec(u, v)
        coeffs = np.zeros(self.a.shape[1], dtype=object)
        for i in range(self.a.shape[0]):
            if i < self.rank:
                q, r = divmod(int(y[i]), self.diag[i])
                if r:
                    raise NotInLatticeError("no integral solution (divisibility)")
                coeffs[i] = q
            elif y[i] != 0:
                raise NotInLatticeError("no rational solution")
        return mat_vec(vmat, coeffs)

    def contains(self, v) -> bool:
        try:
            self.solve(v)
            return True
        except NotInLatticeError:
            return False


@dataclass(frozen=True)
class PresentedGroup:
    """Z^gens modulo the column span of the relation matrix."""

    gens: int
    relations: np.ndarray  # gens rows, one relation per column

    def __post_init__(self):
        rel = as_intmat(self.relations)
        if rel.shape[0] != self.gens:
            raise ValueError("relation matrix must have one row per generator")
        object.__setattr__(self, "relations", rel)

    @classmethod
    def cyclic_sum(cls, orders: Sequence[int]) -> PresentedGroup:
        """Z/m_1 + ... + Z/m_k, with diag(m_1, ..., m_k) as relations."""
        rel = zeros(len(orders), len(orders))
        for k, m in enumerate(orders):
            rel[k, k] = m
        return cls(len(orders), rel)

    def solver(self) -> LinearSolver:
        """A Smith decomposition of the relation matrix as it stands.

        The solver is built afresh on each call: kept on the group, it
        would hold U and V for as long as the group lives.
        """
        return LinearSolver(self.relations)

    def invariants(self) -> GroupInvariants:
        return self.solver().cokernel()


def invariants_of_cokernel(m) -> GroupInvariants:
    """Invariants of Z^rows / (column span of m)."""
    a = as_intmat(m)
    return PresentedGroup(a.shape[0], a).invariants()


class MapFacts(NamedTuple):
    """What a generator matrix induces between two presented groups."""

    well_defined: bool
    surjective: bool
    target: GroupInvariants

    def iso(self, source: GroupInvariants) -> bool:
        """Given the invariants of the source: a well-defined surjection
        onto an isomorphic finitely generated abelian group is bijective."""
        return self.well_defined and self.surjective and source == self.target


def presented_map_facts(f, source: PresentedGroup, target: PresentedGroup) -> MapFacts:
    """Whether f (source generators to target generators) sends every
    source relation into the target relation span, whether it hits every
    target generator modulo the target relations, and the target's
    invariants, all from one reduction of the target relations."""
    f = as_intmat(f)
    if f.shape != (target.gens, source.gens):
        raise ValueError("map shape does not match the presentations")
    solver = target.solver()
    mapped = mat_mul(f, source.relations)
    well_defined = all(solver.contains(mapped[:, j]) for j in range(mapped.shape[1]))
    surjective = invariants_of_cokernel(hstack([f, target.relations])).is_trivial
    return MapFacts(well_defined, surjective, solver.cokernel())


def presented_map_is_iso(f, source: PresentedGroup, target: PresentedGroup) -> bool:
    """Decide whether f induces an isomorphism of finite presented groups.

    f maps source generators to target generators.  Both groups must be
    finite, which is checked first.  Well-definedness (every source
    relation lands in the target relation span) is a precondition and
    raises NotWellDefinedError when violated.
    """
    src_inv = source.invariants()
    facts = presented_map_facts(f, source, target)
    if src_inv.free_rank or facts.target.free_rank:
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


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")


def _fp_column_echelon(m, p: int) -> tuple[np.ndarray, list[int]]:
    """Column echelon form of m mod p; returns (echelon, pivot row list).

    Residues fit comfortably in int64 (products stay below p^2), so the
    elimination runs on machine integers and remains exact.
    """
    a = (as_intmat(m) % p).astype(np.int64)
    rows, cols = a.shape
    pivots: list[int] = []
    c = 0
    for i in range(rows):
        if c >= cols:
            break
        nz = np.nonzero(a[i, c:])[0]
        if nz.size == 0:
            continue
        k = c + int(nz[0])
        if k != c:
            a[:, [c, k]] = a[:, [k, c]]
        inv = pow(int(a[i, c]), -1, p)
        a[:, c] = (a[:, c] * inv) % p
        hit = np.nonzero(a[i, :])[0]
        for j in hit:
            if j != c:
                a[:, j] = (a[:, j] - a[i, j] * a[:, c]) % p
        pivots.append(i)
        c += 1
    return a, pivots


def fp_rank(m, p: int) -> int:
    """Rank of m over F_p."""
    _require_prime(p)
    _, pivots = _fp_column_echelon(m, p)
    return len(pivots)


def fp_cokernel_basis(m, p: int) -> list[np.ndarray]:
    """Standard basis vectors completing im(m mod p) to the full codomain."""
    _require_prime(p)
    a = as_intmat(m)
    _, pivots = _fp_column_echelon(a, p)
    taken = set(pivots)
    out = []
    for i in range(a.shape[0]):
        if i not in taken:
            e = zeros(a.shape[0], 1)[:, 0]
            e[i] = 1
            out.append(e)
    return out


# ---------------------------------------------------------------------------
# matrix exchange format


def _from_flat(values: Iterable[int], rows: int, cols: int) -> np.ndarray:
    return np.fromiter(values, dtype=object, count=rows * cols).reshape(rows, cols)


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


def mat_to_text(m) -> str:
    a = as_intmat(m)
    rows, cols = np.nonzero(a)
    buf = io.StringIO()
    write_text(buf, a.shape, rows.tolist(), cols.tolist(), a[rows, cols].tolist())
    return buf.getvalue()


def mat_from_text(text: str) -> np.ndarray:
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("matrix text must start with 'rows cols'")
    rows, cols = int(tokens[0]), int(tokens[1])
    data = tokens[2:]
    if len(data) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, found {len(data)}")
    try:
        value = {t: int(t) for t in set(data)}
    except ValueError:
        list(map(int, data))  # name the first bad token, as in reading order
        raise
    return _from_flat(map(value.__getitem__, data), rows, cols)


def mat_to_json(m) -> str:
    a = as_intmat(m)
    payload = {
        "rows": a.shape[0],
        "cols": a.shape[1],
        "data": list(map(int, a.reshape(-1).tolist())),
    }
    return json.dumps(payload, sort_keys=True)


def _json_int(x, what: str) -> int:
    """x itself, when JSON read it as an integer (not a float, not a bool)."""
    if type(x) is not int:
        raise ValueError(f"{what} must be a JSON integer, not {json.dumps(x)}")
    return x


def mat_from_json(text: str) -> np.ndarray:
    payload = json.loads(text)
    rows = _json_int(payload["rows"], "rows")
    cols = _json_int(payload["cols"], "cols")
    data = payload["data"]
    if type(data) is not list:
        raise ValueError("data must be a JSON list")
    if len(data) != rows * cols:
        raise ValueError("data length does not match rows*cols")
    for x in data:
        _json_int(x, "every entry")
    return _from_flat(data, rows, cols)


def mat_parse(text: str) -> np.ndarray:
    """Parse either exchange form (plain text or JSON)."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return mat_from_json(stripped)
    return mat_from_text(text)
