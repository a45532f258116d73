"""Integer chain complexes built from wedge, symmetric and divided powers.

Two families are materialized for a free abelian group Z^r:

* family "C": degree i carries wedge^i  (x)  divided^(n-i); the differential
  deletes a wedge factor with sign (-1)^position and multiplies it into the
  divided-power side.
* family "D": degree i carries sym^i  (x)  wedge^(n-i); the differential
  extracts a generator from the symmetric monomial (with its multiplicity)
  and inserts it into the wedge.

Both, and the Koszul complex wedge^a (x) sym^(n-a) of ``koszul``, come from
one builder.  The differential moves one generator between the factors and
so keeps a label's content: the vector c in N^r that counts each generator
once per wedge occurrence and with its exponent in a monomial.  So every
complex is a direct sum of content blocks, one for each c with |c| = n, and
the builder writes each block from c alone: the integral Koszul complex on
(c_j : c_j > 0), with its degrees reflected in D and at most C(r, r // 2)
columns.  At construction the blocks are checked to hold every position of
every degree, and d compose d = 0 block by block.  A block's d_i is a tuple
of rows, each a tuple of Python ints: immutable and hashable, so zero blocks
are shared and blocks with equal matrices are checked once.  Library code
reads only the blocks, and the nonzero entries of a d_i, in row order,
through ``entries``; the dense d_i, a numpy object array, is assembled from
them on each call, for tests and demos, and only it imports numpy.

Homology is read off Smith normal forms of the blocks, cached per complex.
Permuting the coordinates by sigma is a chain automorphism that maps the
block of c onto the block of sigma c by a signed permutation, so the Smith
diagonal of every block is read off its S_r-orbit representative, the block
of sorted(c).  A finite H_i is also presented from the Smith forms of the
blocks of d_(i+1): their invariant factors give the cyclic summands, and the
matching rows of their left transforms U send each cycle to its class.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, compress
from itertools import product as iproduct
from operator import mul

from . import intlinalg as la
from .abelian import direct_sum, tensor, tor
from .bases import (
    basis_index,
    basis_size,
    divided_product,
    enumerate_basis,
    exponent_vectors,
    to_dense,
    unit_terms,
    wedge_delete,
)
from .intlinalg import GroupInvariants


@dataclass(frozen=True)
class PairBasis:
    """Tensor basis ordered lexicographically by (left label, right label)."""

    left: tuple
    right: tuple

    @property
    def size(self) -> int:
        return len(self.left) * len(self.right)

    def index(self, left_idx: int, right_idx: int) -> int:
        return left_idx * len(self.right) + right_idx

    def labels(self) -> tuple:
        return tuple((l, r) for l in self.left for r in self.right)


@dataclass(frozen=True)
class Block:
    """The content block c of a complex: positions[i] lists, ascending, the
    degree-i basis positions whose labels have content c (i = 0..n), and
    diffs[i-1] is d_i restricted to them, as a tuple of rows: one row per
    position of positions[i-1], one entry per position of positions[i]."""

    content: tuple
    positions: tuple[tuple[int, ...], ...]
    diffs: tuple[tuple[tuple[int, ...], ...], ...]

    def at(self, i: int) -> tuple[int, ...]:
        """Positions of degree i, () outside 0..n."""
        return self.positions[i] if 0 <= i < len(self.positions) else ()

    @cached_property
    def orbit(self) -> tuple:
        """The content of the S_r-orbit representative: the sorted entries."""
        return tuple(sorted(self.content))

    def d(self, i: int) -> tuple[tuple[int, ...], ...]:
        """The rows of the block of d_i, with d_0 = d_{n+1} = 0; it has
        len(at(i)) columns."""
        if 1 <= i <= len(self.diffs):
            return self.diffs[i - 1]
        return ((0,) * len(self.at(i)),) * len(self.at(i - 1))


@dataclass(frozen=True)
class ChainComplexZ:
    """Length-n complex of based free modules with integer differentials,
    stored as content blocks: every d_i is the block sum of blocks[k].d(i)
    over the positions of each block.  Outside 0..n every module is zero.
    A complex without content is one block, with content ().
    """

    family: str
    n: int
    rank: int
    bases: tuple[PairBasis, ...]
    blocks: tuple[Block, ...]

    def dim(self, i: int) -> int:
        if 0 <= i <= self.n:
            return self.bases[i].size
        return 0

    def labels(self, i: int) -> tuple:
        """Basis labels of degree i, ordered as the rows and columns of d."""
        if 0 <= i <= self.n:
            return self.bases[i].labels()
        return ()

    def block(self, content: tuple) -> Block:
        return self._by_content[content]

    @cached_property
    def _by_content(self) -> dict[tuple, Block]:
        return {b.content: b for b in self.blocks}

    @cached_property
    def orbits(self) -> Counter:
        """Number of blocks per S_r-orbit representative."""
        return Counter(b.orbit for b in self.blocks)

    @cached_property
    def _owner(self) -> tuple[list[int], ...]:
        """For each degree 0..n, the number of the block owning each position."""
        owner = tuple([0] * self.dim(i) for i in range(self.n + 1))
        for k, b in enumerate(self.blocks):
            for i, positions in enumerate(b.positions):
                for pos in positions:
                    owner[i][pos] = k
        return owner

    def blocks_holding(self, i: int, positions) -> list[Block]:
        """The blocks that hold the given degree-i positions, each once."""
        owner = self._owner[i]
        return [self.blocks[k] for k in sorted({owner[pos] for pos in positions})]

    def entries(self, i: int) -> tuple[list[int], list[int], list[int]]:
        """The nonzero entries of d_i as (rows, cols, values), read off the
        blocks, in row-major order."""
        triples = []
        for b in self.blocks:
            row_at, col_at = b.at(i - 1), b.at(i)
            for k, row in enumerate(b.d(i)):
                for l in compress(range(len(row)), row):
                    triples.append((row_at[k], col_at[l], row[l]))
        triples.sort()  # positions are distinct, so values are never compared
        return [t[0] for t in triples], [t[1] for t in triples], [t[2] for t in triples]

    def d(self, i: int):
        """Matrix of d_i with the boundary conventions d_0 = d_{n+1} = 0, a
        numpy object array assembled from the blocks on every call.  Only
        tests and demos read a dense d_i; the library reads the blocks and
        ``entries``."""
        import numpy as np

        rows, cols, values = self.entries(i)
        mat = la.zeros(self.dim(i - 1), self.dim(i))
        mat[rows, cols] = np.array(values, dtype=object)
        return mat

    def is_cycle(self, i: int, vec: dict[int, int]) -> bool:
        """Whether d_i kills a degree-i vector (position -> coefficient),
        applying only the blocks that hold its entries."""
        for b in self.blocks_holding(i, vec):
            coeffs = [vec.get(pos, 0) for pos in b.at(i)]
            if any(sum(map(mul, row, coeffs)) for row in b.d(i)):
                return False
        return True


def _check_dd_zero(cx: ChainComplexZ) -> None:
    # a block's matrices depend on the values of its content, not on where
    # its support sits, so most blocks repeat another's matrices exactly
    checked = set()
    for b in cx.blocks:
        if b.diffs in checked:
            continue
        checked.add(b.diffs)
        for i, (left, right) in enumerate(zip(b.diffs, b.diffs[1:]), start=2):
            # most blocks are empty in most degrees: only multiply the others
            if not (left and left[0] and right):
                continue
            if len(left[0]) != len(right):
                raise ValueError(f"d_{i-1} and d_{i} do not compose")
            cols = list(zip(*right))
            if any(sum(map(mul, row, col)) for row in left for col in cols):
                raise AssertionError(
                    f"d_{i-1} d_{i} != 0 in {cx.family}^{cx.n}(Z^{cx.rank})"
                )


def _check_partition(cx: ChainComplexZ) -> None:
    """The blocks hold every position of every degree.  Positions come from
    the contents, not from the labels, so a missed label would otherwise
    drop out silently."""
    held = [0] * (cx.n + 1)
    for i, degree in enumerate(zip(*(b.positions for b in cx.blocks))):
        held[i] = sum(map(len, degree))
    if held != [cx.dim(i) for i in range(cx.n + 1)]:
        raise ValueError(
            f"the blocks of {cx.family}^{cx.n}(Z^{cx.rank}) do not hold every position"
        )


def _build_complex(family: str, left: str, right: str, n: int, r: int) -> ChainComplexZ:
    """The complex with degree-i term left^i(Z^r) (x) right^(n-i)(Z^r), one
    of the two the wedge, built block by block from the contents.

    In the block of content c with support S, each subset W of S is one
    label, the wedge W with the other factor c - 1_W, in degree |W| (n - |W|
    for a right wedge).  d takes a factor j out of a left wedge with
    wedge_delete's sign and coefficient c_j (1 into sym), or puts j of S - W
    into a right wedge with wedge_insert's sign and multiplicity c_j.
    """
    if n < 0 or r < 0:
        raise ValueError("need n >= 0 and r >= 0")
    bases = tuple(
        PairBasis(enumerate_basis(left, i, r), enumerate_basis(right, n - i, r))
        for i in range(n + 1)
    )
    wedge_left = left == "wedge"
    other = right if wedge_left else left
    unit = right == "sym"  # a symmetric product has coefficient 1
    sizes = range(min(n, r) + 1)  # of a wedge
    degree = [w if wedge_left else n - w for w in sizes]
    width = [len(bases[i].right) for i in degree]
    wedge_at = [basis_index("wedge", w, r) for w in sizes]
    other_at = [basis_index(other, n - w, r) for w in sizes]
    faces = {  # W -> (sign, W minus j, j) for each factor j
        W: [(*wedge_delete(W, p), j) for p, j in enumerate(W, start=1)]
        for w in sizes
        for W in wedge_at[w]
    }
    blocks = []
    for c in exponent_vectors(n, r):
        support = [j for j, cj in enumerate(c, start=1) if cj]
        positions = [()] * (n + 1)
        labels = []  # labels[w]: the W with |W| = w, by ascending position
        for w in range(len(support) + 1):
            found = []
            for W in combinations(support, w):
                m = list(c)
                for j in W:
                    m[j - 1] -= 1
                a, b = wedge_at[w][W], other_at[w][tuple(m)]
                found.append((a * width[w] + b, W) if wedge_left else (b * width[w] + a, W))
            positions[degree[w]], at = zip(*sorted(found))
            labels.append(at)
        index = {W: k for at in labels for k, W in enumerate(at)}
        mats = {}
        for w in range(1, len(labels)):
            # column W, rows W minus a factor
            mat = [[0] * len(labels[w]) for _ in labels[w - 1]]
            for col, W in enumerate(labels[w]):
                for sign, rest, j in faces[W]:
                    mat[index[rest]][col] = sign if unit else sign * c[j - 1]
            if not wedge_left:
                # a right wedge gains j instead: the transpose, and
                # wedge_insert(j, rest) has the sign opposite to wedge_delete's
                mat = [[-x for x in col] for col in zip(*mat)]
            mats[max(degree[w - 1], degree[w])] = tuple(map(tuple, mat))
        diffs = tuple(
            mats[i] if i in mats else ((0,) * len(positions[i]),) * len(positions[i - 1])
            for i in range(1, n + 1)
        )
        blocks.append(Block(c, tuple(positions), diffs))
    cx = ChainComplexZ(family, n, r, bases, tuple(blocks))
    _check_partition(cx)
    _check_dd_zero(cx)
    return cx


@lru_cache(maxsize=None)
def build_C(n: int, r: int) -> ChainComplexZ:
    """The complex with degree-i term wedge^i(Z^r) (x) divided^(n-i)(Z^r).

    n = 0 gives the unit complex: Z in degree 0, with the one label
    ((), (0,) * r), the weight-0 factor of a tensor decomposition.
    """
    return _build_complex("C", "wedge", "gamma", n, r)


@lru_cache(maxsize=None)
def build_D(n: int, r: int) -> ChainComplexZ:
    """The complex with degree-i term sym^i(Z^r) (x) wedge^(n-i)(Z^r)."""
    return _build_complex("D", "sym", "wedge", n, r)


def build(family: str, n: int, r: int) -> ChainComplexZ:
    if family == "C":
        return build_C(n, r)
    if family == "D":
        return build_D(n, r)
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# homology with cached Smith decompositions


class DifferentialSolver:
    """The Smith decompositions of d_i, one LinearSolver per content block,
    each computed on first use.

    The rank and the cokernel read each block's Smith diagonal off its
    S_r-orbit representative, so they reduce one block per orbit.  Solves
    reduce the blocks the right-hand side touches.
    """

    def __init__(self, cx: ChainComplexZ, i: int):
        self.cx = cx
        self.i = i
        self._blocks: dict[tuple, la.LinearSolver] = {}

    def block(self, content: tuple) -> la.LinearSolver:
        """The Smith decomposition of the block of d_i with this content."""
        if content not in self._blocks:
            b = self.cx.block(content)
            self._blocks[content] = la.LinearSolver(b.d(self.i), len(b.at(self.i)))
        return self._blocks[content]

    def diagonal(self, content: tuple) -> list[int]:
        """The Smith diagonal of a block, read off its orbit representative."""
        return self.block(self.cx.block(content).orbit).diag

    @cached_property
    def rank(self) -> int:
        return sum(
            count * self.block(rep).rank for rep, count in self.cx.orbits.items()
        )

    @cached_property
    def torsion(self) -> tuple[int, ...]:
        """The Smith diagonal entries above 1, over all blocks."""
        return tuple(
            m
            for rep, count in self.cx.orbits.items()
            for m in self.block(rep).diag * count
            if m > 1
        )

    def cokernel(self) -> GroupInvariants:
        """Invariants of Z^rows / (column span of d_i)."""
        return GroupInvariants(self.cx.dim(self.i - 1) - self.rank, self.torsion)

    def solve(self, v: dict[int, int]) -> dict[int, int]:
        """Return x with d_i x = v, both {position: coefficient}, solving
        only on the blocks that hold v's positions, or raise
        NotInLatticeError."""
        if not all(0 <= pos < self.cx.dim(self.i - 1) for pos in v):
            raise ValueError("vector position outside the rows of d_i")
        x = {}
        for b in self.cx.blocks_holding(self.i - 1, v):
            coeffs = self.block(b.content).solve([v.get(pos, 0) for pos in b.at(self.i - 1)])
            x.update((pos, c) for pos, c in zip(b.at(self.i), coeffs) if c)
        return x

    def contains(self, v: dict[int, int]) -> bool:
        try:
            self.solve(v)
            return True
        except la.NotInLatticeError:
            return False


class ComplexHomology:
    """All homology data of one complex, read off one cached
    DifferentialSolver per differential."""

    def __init__(self, cx: ChainComplexZ):
        self.cx = cx
        self._solver: dict[int, DifferentialSolver] = {}
        self._presentation: dict[int, tuple] = {}

    def solver(self, i: int) -> DifferentialSolver:
        """The block Smith decompositions of d_i, kept for reuse."""
        if i not in self._solver:
            self._solver[i] = DifferentialSolver(self.cx, i)
        return self._solver[i]

    def invariants(self, i: int) -> GroupInvariants:
        """Degree-i homology along the direct route (no presentation).

        Free rank is nullity(d_i) - rank(d_{i+1}); the torsion is read off
        the invariant factors of the blocks of d_{i+1} because the cycle
        lattice is saturated.
        """
        if not 0 <= i <= self.cx.n:
            return la.TRIVIAL_GROUP
        nullity = self.cx.dim(i) - self.solver(i).rank
        boundaries = self.solver(i + 1)
        return GroupInvariants(nullity - boundaries.rank, boundaries.torsion)

    def presentation(self, i: int) -> tuple[tuple[int, ...], tuple]:
        """The finite degree-i homology as Z/m_1 + ... + Z/m_k, and how a
        cycle is sent to its class: the orders m_k, and classes[k], the
        degree-i positions of a block with a row of that block's U, sparse
        {index into the positions: value}.

        H_i is the sum over content blocks.  In a block, with U d_{i+1} V = D,
        d_{i+1}(V e_k) = D_kk U^-1 e_k, so the first rank columns of U^-1
        span the saturation of the block's boundaries.  When nullity(d_i) =
        rank(d_{i+1}) (then also in every block) that saturation is every
        cycle: a cycle z has class (U z_c)_k mod D_kk, where z_c is its
        block-c part.  The m_k are the diagonal entries other than 0 and 1 of
        the blocks, and classes[k] pairs the block's positions with the
        matching row of its U.  A free part raises
        InfiniteGroupUnsupportedError.
        """
        if i not in self._presentation:
            boundaries = self.solver(i + 1)
            if self.cx.dim(i) - self.solver(i).rank != boundaries.rank:
                raise la.InfiniteGroupUnsupportedError(
                    f"H_{i} has a free part; only finite homology is presented"
                )
            with_torsion = {
                rep for rep in self.cx.orbits if any(m > 1 for m in boundaries.block(rep).diag)
            }
            orders, classes = [], []
            for b in self.cx.blocks:
                if b.orbit in with_torsion:
                    solver = boundaries.block(b.content)
                    for k, m in enumerate(solver.diag):
                        if m > 1:
                            orders.append(m)
                            classes.append((b.at(i), solver.snf.urows[k]))
            self._presentation[i] = (tuple(orders), tuple(classes))
        return self._presentation[i]


@lru_cache(maxsize=None)
def homology_of(family: str, n: int, r: int) -> ComplexHomology:
    return ComplexHomology(build(family, n, r))


def homology(cx: ChainComplexZ, i: int) -> GroupInvariants:
    """Invariants of the degree-i homology of a built complex."""
    return homology_of(cx.family, cx.n, cx.rank).invariants(i)


# ---------------------------------------------------------------------------
# direct sum decomposition of C^n(Z^(a+b)) into tensor products


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


def _tensor_entries(a: ChainComplexZ, b: ChainComplexZ, k: int) -> dict:
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


# ---------------------------------------------------------------------------
# Kunneth and cross-effect checks


def _homology_grid(n: int, rank: int) -> dict[tuple[int, int], GroupInvariants]:
    """H_k of the weight-i complex on Z^rank for all 0 <= k, i <= n."""
    return {
        (i, k): homology_of("C", i, rank).invariants(k)
        for i in range(n + 1)
        for k in range(n + 1)
    }


def kunneth_check(n: int, rank_a: int, rank_b: int, k: int) -> bool:
    """Compare H_k C^n(Z^(a+b)) with its Kunneth evaluation.

    The right side sums, over weights i + j = n, the tensor terms in total
    degree k and the Tor terms in total degree k - 1, computed from the
    matrix-level homology of the smaller complexes; the extension splits
    because all groups involved are finite direct sums of cyclics.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    left = homology_of("C", n, rank_a + rank_b).invariants(k)
    grid_a = _homology_grid(n, rank_a)
    grid_b = _homology_grid(n, rank_b)
    pieces = []
    for i in range(n + 1):
        j = n - i
        for r in range(k + 1):
            pieces.append(tensor(grid_a[i, r], grid_b[j, k - r]))
        for r in range(k):
            pieces.append(tor(grid_a[i, r], grid_b[j, k - 1 - r]))
    return left == direct_sum(pieces)


def cross_effect_h0(n: int, rank_a: int, rank_b: int) -> GroupInvariants:
    """H_0 of the blocks of C^n(Z^(a+b)) with both weights positive.

    These are the content blocks c with c[:a] and c[a:] both nonzero, and
    H_0 of a block is the cokernel of its d_1; the two pure parts are
    exactly the summand complexes, so this is H_0 of the big complex minus
    the pure summands.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    hom = homology_of("C", n, rank_a + rank_b)
    return direct_sum(
        hom.solver(1).block(b.content).cokernel()
        for b in hom.cx.blocks
        if any(b.content[:rank_a]) and any(b.content[rank_a:])
    )


def cross_effect_h0_expected(n: int, rank_a: int, rank_b: int) -> GroupInvariants:
    """The closed-form cross-effect: sum of H_0 (x) H_0 over positive weights."""
    grid_a = _homology_grid(n, rank_a)
    grid_b = _homology_grid(n, rank_b)
    pieces = [tensor(grid_a[i, 0], grid_b[n - i, 0]) for i in range(1, n)]
    return direct_sum(pieces)


# ---------------------------------------------------------------------------
# divided powers of an elementary abelian group as a matrix-level cokernel


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

