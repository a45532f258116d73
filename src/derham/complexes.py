"""Integer chain complexes built from wedge, symmetric and divided powers.

Two families are materialized for a free abelian group Z^r:

* family "C": degree i carries wedge^i  (x)  divided^(n-i); the differential
  deletes a wedge factor with sign (-1)^position and multiplies it into the
  divided-power side.
* family "D": degree i carries sym^i  (x)  wedge^(n-i); the differential
  extracts a generator from the symmetric monomial (with its multiplicity)
  and inserts it into the wedge.

The differential moves one generator between the factors and so keeps a
label's content: the vector c in N^r that counts each generator once per
wedge occurrence and with its exponent in a monomial.  So every complex is a
direct sum of content blocks, one for each c with |c| = n: the integral
Koszul complex on (c_j : c_j > 0), degrees reflected in D, which
``_koszul`` writes once per process from those entries, for C, D and the
Koszul complex wedge^a (x) sym^(n-a) of ``koszul``.  A block's d_i is
sparse rows, written and checked (d d = 0) once per process.

Permuting the coordinates by sigma maps the block of c onto the block of
sigma c by a signed permutation.  So ``homology_of(...).invariants`` reads,
with no basis, one block per partition of n into at most r parts (sorted,
zeros in front) times its orbit size r! / prod(m_k!), the m_k the
multiplicities of its entries, zeros included: ``OrbitComplex``.  Each
``_koszul`` block is Smith-reduced once per degree and process, for every
content, rank and complex it serves (``Block.solvers``).

Chains, cycles and classes are written in block-local coordinates, as
{(content c, k): coefficient} with k the place of a label in the block of
c: ``DifferentialSolver.solve``, ``is_cycle`` and the classes of
``ComplexHomology.presentation`` apply one block at a time and read no
basis.  A finite H_i is presented from the Smith forms of the blocks of
d_(i+1): their invariant factors give the cyclic summands, and the matching
rows of their left transforms U send each cycle to its class.

``homology --dump-matrices`` reads every block placed at the basis
positions of its labels (``placed_blocks``) and writes each d_i from their
entries in row order (``block_entries``), with no basis listed and no
complex kept.  The full complexes that tests and demos read, with labels
and a dense d_i, are built from the same placement in ``derham.reference``.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property, lru_cache
from itertools import combinations
from math import factorial, prod
from operator import mul

from . import intlinalg as la
from .abelian import direct_sum, tensor, tor
from .bases import _partitions, basis_index, basis_size, exponent_vectors
from .intlinalg import GroupInvariants

FACTORS = {"C": ("wedge", "gamma"), "D": ("sym", "wedge")}  # left^i (x) right^(n-i)


class Block:
    """The content block c of a complex: positions[i] lists, ascending, the
    degree-i basis positions whose labels have content c (i = 0..n), and
    diffs[t] is d_i, i = first + t, restricted to them, as SparseRows: a row
    {k: value} per position of positions[i-1], k the place of one of
    positions[i]; the rows are shared, so only read.  Every other d_i has no
    entry.  solvers[i] is d(i)'s Smith decomposition, a dict of the block's
    own unless one is given."""

    __slots__ = ("content", "positions", "diffs", "solvers", "first")

    def __init__(self, content: tuple, positions: tuple[tuple[int, ...], ...],
                 diffs: tuple[la.SparseRows, ...], solvers: dict | None = None, first: int = 1):
        self.content, self.positions, self.diffs = content, positions, diffs
        self.solvers = {} if solvers is None else solvers
        self.first = first

    def at(self, i: int) -> tuple[int, ...]:
        """Positions of degree i, () outside 0..n."""
        return self.positions[i] if 0 <= i < len(self.positions) else ()

    def d(self, i: int) -> la.SparseRows:
        """The block of d_i, len(at(i - 1)) rows and len(at(i)) columns; a
        d_i outside diffs, such as d_0 and d_{n+1}, is zero."""
        if 0 <= i - self.first < len(self.diffs):
            return self.diffs[i - self.first]
        return la.SparseRows(({} for _ in self.at(i - 1)), len(self.at(i)))


def _dd_nonzero(diffs: tuple, first: int = 1) -> int:
    """The first i with d_(i-1) d_i != 0, else 0, for diffs d_first, d_(first
    + 1), ...: a row of d_(i-1) times d_i adds the sparse rows of d_i it
    picks, as the d_i of a weight-12 block reach 924 x 792 with at most 12
    entries a row."""
    for i, (left, right) in enumerate(zip(diffs, diffs[1:]), start=first + 1):
        if left.width != len(right):
            raise ValueError(f"d_{i-1} and d_{i} do not compose")
        for row in left:
            acc: dict = {}
            for k, x in row.items():
                for j, y in right[k].items():
                    acc[j] = acc.get(j, 0) + x * y
            if any(acc.values()):
                return i
    return 0


def _check_partition(cx, blocks, sizes) -> None:
    """The blocks hold every label of every degree of cx, block k counted
    sizes[k] times.  Blocks come from contents, not from the labels, so a
    missed label would otherwise drop out silently."""
    held = [0] * (cx.n + 1)
    for i, degree in enumerate(zip(*(b.positions for b in blocks))):
        held[i] = sum(map(mul, map(len, degree), sizes))
    if held != [cx.dim(i) for i in range(cx.n + 1)]:
        raise ValueError(
            f"the blocks of {cx.family}^{cx.n}(Z^{cx.rank}) do not hold every position"
        )


@lru_cache(maxsize=None)
def _koszul(left: str, right: str, values: tuple[int, ...]) -> tuple:
    """(wedges, index, positions, diffs, solvers, first) of the block of
    left^i (x) right^(n-i) whose content c has the nonzero entries values.
    With S the support, each W in S is a label, the wedge W with the other
    factor c - 1_W, in degree |W| (n - |W| for a right wedge).  wedges[i]
    lists the degree-i W, as indices into S, by basis position: in lex order
    for a left wedge, else in descending lex order of c - 1_W, the reverse;
    index[W] is the place of W in its degree, and positions[i] numbers
    them.  d takes the factor j at place q (from 0) out of a left wedge with
    sign (-1)^(q+1) and coefficient c_j (1 into sym), or puts j of S - W
    into a right wedge with the opposite sign and multiplicity c_j.  The
    labels fill the |S| + 1 degrees 0..|S| (n - |S|..n for a right wedge),
    so diffs holds only the |S| differentials between two of them, d_first
    and up; d d = 0 is checked here.  solvers, empty here, is shared by all
    blocks of it."""
    wedge_left, n, s = left == "wedge", sum(values), len(values)
    wedges, positions, index = [()] * (n + 1), [()] * (n + 1), {}
    for w in range(s + 1):
        at = tuple(combinations(range(s), w))
        at, i = (at, w) if wedge_left else (at[::-1], n - w)
        wedges[i], positions[i] = at, tuple(range(len(at)))
        index.update(zip(at, positions[i]))
    first = 1 if wedge_left else n - s + 1
    diffs = []
    for i in range(first, first + s):
        rows, cols = wedges[i - 1], wedges[i]
        mat = la.SparseRows([{} for _ in rows], len(cols))
        # each W of the side with the larger wedges, and each factor j of it:
        # a left wedge loses j, a right one gains it, with the opposite sign;
        # either way each row receives its columns in ascending order
        for k, W in enumerate(cols if wedge_left else rows):
            for q, j in enumerate(W):
                x = (1 if q % 2 else -1) * (1 if right == "sym" else values[j])
                if wedge_left:
                    mat[index[W[:q] + W[q + 1:]]][k] = x
                else:
                    mat[k][index[W[:q] + W[q + 1:]]] = -x
        diffs.append(mat)
    if i := _dd_nonzero(diffs, first):
        raise AssertionError(f"d_{i-1} d_{i} != 0 in the {left}/{right} block of {values}")
    return tuple(wedges), index, tuple(positions), tuple(diffs), {}, first


def block_label(c: tuple, support: list[int], W: tuple) -> tuple[tuple, tuple]:
    """The label of the place W, indices into support (the j >= 1 with
    c_j > 0), in the block of c: the wedge W with the other factor c - 1_W."""
    W, m = tuple(map(support.__getitem__, W)), list(c)
    for j in W:
        m[j - 1] -= 1
    return W, tuple(m)


def placed_blocks(left: str, right: str, n: int, r: int) -> list[Block]:
    """Every content block of the complex with degree-i term left^i(Z^r)
    (x) right^(n-i)(Z^r), one of the two the wedge, in the order of
    ``exponent_vectors``: c's block from ``_koszul``, each place at the basis
    position of its label (``block_label``), the basis of a degree ordered
    lexicographically by (left label, right label).  No basis is listed;
    ``basis_index`` ranks each factor."""
    wedge_left = left == "wedge"
    other = right if wedge_left else left
    sizes = range(min(n, r) + 1)  # of a wedge
    wedge_at = [basis_index("wedge", w, r) for w in sizes]
    other_at = [basis_index(other, n - w, r) for w in sizes]
    widths, blocks = [basis_size(right, n - i, r) for i in range(n + 1)], []
    for c in exponent_vectors(n, r):
        support = [j for j, cj in enumerate(c, start=1) if cj]
        values = tuple([c[j - 1] for j in support])
        wedges, _, _, diffs, solvers, first = _koszul(left, right, values)
        positions = []
        for at, width in zip(wedges, widths):
            found = []
            for W in at:
                W, m = block_label(c, support, W)
                a, b = wedge_at[len(W)][W], other_at[len(W)][m]
                found.append(a * width + b if wedge_left else b * width + a)
            positions.append(tuple(found))
        blocks.append(Block(c, tuple(positions), diffs, solvers, first))
    return blocks


def block_entries(blocks, i: int) -> tuple[list[int], list[int], list[int]]:
    """The nonzero entries of d_i, the sum of the blocks at their positions,
    as (rows, cols, values) in row-major order."""
    triples = []
    for b in blocks:
        row_at, col_at = b.at(i - 1), b.at(i)
        if row_at and col_at:  # else d_i of the block is empty
            for k, row in enumerate(b.d(i)):
                triples += ((row_at[k], col_at[l], x) for l, x in row.items())
    triples.sort()  # positions are distinct, so values are never compared
    return [t[0] for t in triples], [t[1] for t in triples], [t[2] for t in triples]


class OrbitComplex:
    """C^n(Z^r) or D^n(Z^r) as its S_r orbits of content blocks, with no
    basis: orbits maps the sorted content of each partition to its orbit
    size, and block(c) is the block of c positioned in its own basis, kept
    per content.  Checked: orbit sizes times block sizes give
    ``basis_size`` in every degree (``_koszul`` checks d d = 0)."""

    def __init__(self, family: str, n: int, rank: int):
        if family not in FACTORS or n < 0 or rank < 0:
            raise ValueError(f"no complex {family}^{n}(Z^{rank})")
        self.family, self.n, self.rank = family, n, rank
        self._blocks: dict[tuple, Block] = {}
        _check_partition(self, self.blocks, list(self.orbits.values()))

    @cached_property
    def orbits(self) -> dict[tuple, int]:
        r = self.rank
        reps = ((0,) * (r - len(part)) + part for part in _partitions(self.n, r))
        return {c: factorial(r) // prod(map(factorial, Counter(c).values())) for c in reps}

    def dim(self, i: int) -> int:
        left, right = FACTORS[self.family]
        return basis_size(left, i, self.rank) * basis_size(right, self.n - i, self.rank)

    @property
    def contents(self) -> tuple[tuple, ...]:
        """Every content vector, in the order of the basis."""
        return exponent_vectors(self.n, self.rank)

    def block(self, content: tuple) -> Block:
        if content in self._blocks:
            return self._blocks[content]
        if len(content) != self.rank or sum(content) != self.n or min(content, default=0) < 0:
            raise ValueError(f"{content} is no content of {self.family}^{self.n}(Z^{self.rank})")
        values = tuple(x for x in content if x)
        b = self._blocks[content] = Block(content, *_koszul(*FACTORS[self.family], values)[2:])
        return b

    @property
    def blocks(self) -> list[Block]:
        return [self.block(c) for c in self.orbits]


def label_key(wedge: tuple, mono: tuple) -> tuple[tuple, int]:
    """The block-local key (c, k) of the label wedge (x) gamma_mono of C,
    the wedge a sorted tuple of generators from 0: c = mono + 1_wedge, and
    k the place of the wedge, as indices into the support of c, in the
    block of c."""
    c = list(mono)
    for j in wedge:
        c[j] += 1
    support = [j for j, x in enumerate(c) if x]
    index = _koszul(*FACTORS["C"], tuple(c[j] for j in support))[1]
    return tuple(c), index[tuple(map(support.index, wedge))]


def by_content(vec: dict) -> dict[tuple, dict[int, int]]:
    """A block-keyed vector {(content, k): x} as {content: {k: x}}."""
    out: dict[tuple, dict[int, int]] = {}
    for (content, k), x in vec.items():
        out.setdefault(content, {})[k] = x
    return out


def is_cycle(source, i: int, vec: dict) -> bool:
    """Whether d_i of source kills a block-keyed degree-i vector, applying
    one block at a time."""
    for content, coeffs in by_content(vec).items():
        d = source.block(content).d(i)
        if any(sum(x * coeffs.get(k, 0) for k, x in row.items()) for row in d):
            return False
    return True


# ---------------------------------------------------------------------------
# homology with cached Smith decompositions


class DifferentialSolver:
    """The Smith decompositions of d_i, one LinearSolver per content block,
    each computed on first use in the block's ``solvers``: for the blocks of
    ``_koszul``, once per (left, right, values, i) and process.

    The rank and the cokernel read each block's Smith diagonal off its
    S_r-orbit representative, so they reduce at most one block per orbit.
    Solves reduce the blocks the right-hand side touches.
    """

    def __init__(self, hom: ComplexHomology, i: int):
        self.hom = hom
        self.i = i

    def block(self, content: tuple) -> la.LinearSolver:
        """The Smith decomposition of the block of d_i with this content."""
        b = self.hom.source.block(content)
        if self.i not in b.solvers:
            b.solvers[self.i] = la.LinearSolver(b.d(self.i))
        return b.solvers[self.i]

    def diagonal(self, content: tuple) -> list[int]:
        """The Smith diagonal of a block, read off its orbit representative."""
        return self.block(tuple(sorted(content))).diag

    @cached_property
    def rank(self) -> int:
        return sum(
            count * self.block(rep).rank for rep, count in self.hom.source.orbits.items()
        )

    @cached_property
    def torsion(self) -> tuple[int, ...]:
        """The Smith diagonal entries above 1, over all blocks."""
        torsion = []
        for rep, count in self.hom.source.orbits.items():
            torsion += [m for m in self.block(rep).diag if m > 1] * count
        return tuple(torsion)

    def cokernel(self) -> GroupInvariants:
        """Invariants of Z^rows / (column span of d_i)."""
        return GroupInvariants(self.hom.source.dim(self.i - 1) - self.rank, self.torsion)

    def solve(self, v: dict) -> dict:
        """Return x with d_i x = v, both block-keyed {(content, k): value},
        solving on the blocks of v's contents one at a time, or raise
        NotInLatticeError."""
        x = {}
        for content, coeffs in by_content(v).items():
            rows = len(self.hom.source.block(content).at(self.i - 1))
            if not all(0 <= k < rows for k in coeffs):
                raise ValueError("vector entry outside the rows of d_i")
            dense = [coeffs.get(k, 0) for k in range(rows)]
            x.update(((content, l), c) for l, c in enumerate(self.block(content).solve(dense)) if c)
        return x

    def contains(self, v: dict) -> bool:
        try:
            self.solve(v)
            return True
        except la.NotInLatticeError:
            return False


class ComplexHomology:
    """All homology data of one complex, read off one cached
    DifferentialSolver per differential.  The invariants, kept per degree,
    read the orbits of source; presentations and solves read the blocks of
    source, one content at a time, in block-local coordinates.  No full
    basis is enumerated for an ``OrbitComplex``."""

    def __init__(self, source: OrbitComplex):
        self.source = source
        self._solver: dict[int, DifferentialSolver] = {}
        self._invariants: dict[int, GroupInvariants] = {}
        self._presentation: dict[int, tuple] = {}

    def solver(self, i: int) -> DifferentialSolver:
        """The block Smith decompositions of d_i, kept for reuse."""
        if i not in self._solver:
            self._solver[i] = DifferentialSolver(self, i)
        return self._solver[i]

    def invariants(self, i: int) -> GroupInvariants:
        """Degree-i homology along the direct route (no presentation).

        Free rank is nullity(d_i) - rank(d_{i+1}); the torsion is read off
        the invariant factors of the blocks of d_{i+1} because the cycle
        lattice is saturated.  Each is a sum over orbits of orbit size times
        the representative block's.
        """
        if not 0 <= i <= self.source.n:
            return la.TRIVIAL_GROUP
        if i not in self._invariants:
            nullity = self.source.dim(i) - self.solver(i).rank
            boundaries = self.solver(i + 1)
            self._invariants[i] = GroupInvariants(nullity - boundaries.rank, boundaries.torsion)
        return self._invariants[i]

    def presentation(self, i: int) -> tuple[tuple[int, ...], tuple]:
        """The finite degree-i homology as Z/m_1 + ... + Z/m_k, and how a
        cycle is sent to its class: the orders m_k, and classes[k], a content
        c with a row of the U of c's block, sparse {k: value} over the
        block-local coordinates of degree i.

        H_i is the sum over content blocks.  In a block, with U d_{i+1} V = D,
        d_{i+1}(V e_k) = D_kk U^-1 e_k, so the first rank columns of U^-1
        span the saturation of the block's boundaries.  When nullity(d_i) =
        rank(d_{i+1}) (then also in every block) that saturation is every
        cycle: a cycle z has class (U z_c)_k mod D_kk, where z_c is its
        block-c part.  The m_k are the diagonal entries other than 0 and 1 of
        the blocks, in the order of source.contents, and classes[k] pairs the
        content with the matching row of its U.  A free part raises
        InfiniteGroupUnsupportedError.
        """
        if i not in self._presentation:
            boundaries = self.solver(i + 1)
            if self.source.dim(i) - self.solver(i).rank != boundaries.rank:
                raise la.InfiniteGroupUnsupportedError(
                    f"H_{i} has a free part; only finite homology is presented"
                )
            with_torsion = {
                rep for rep in self.source.orbits if any(m > 1 for m in boundaries.block(rep).diag)
            }
            orders, classes = [], []
            for content in self.source.contents:
                if tuple(sorted(content)) in with_torsion:
                    solver = boundaries.block(content)
                    for k, m in enumerate(solver.diag):
                        if m > 1:
                            orders.append(m)
                            classes.append((content, solver.snf.urows[k]))
            self._presentation[i] = (tuple(orders), tuple(classes))
        return self._presentation[i]


@lru_cache(maxsize=None)
def homology_of(family: str, n: int, r: int) -> ComplexHomology:
    """The homology of C^n(Z^r) or D^n(Z^r) on the orbit route, with no
    full complex built."""
    return ComplexHomology(OrbitComplex(family, n, r))


# ---------------------------------------------------------------------------
# Kunneth checks


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


def __getattr__(name: str):
    """``build_C`` and ``build_D``, the full complexes of ``derham.reference``,
    read here only by the benchmark: ``bench/spans.py`` wraps both and
    ``bench/test_bench.py`` imports ``build_C``.  Reading one loads
    ``derham.reference``, which no command does."""
    if name in ("build_C", "build_D"):
        from . import reference

        return getattr(reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
