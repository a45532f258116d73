"""Closed-form answers the benchmark checks the program's outputs against.

The differentials of C^n(Z^r) and D^n(Z^r) keep the content vector
c in N^r (wedge indicator plus divided or symmetric exponents) fixed, and
the block of content c is the integral Koszul complex on the integers
(c_j : c_j > 0).  Its homology depends only on g = gcd(c) and the support
size s = |supp c|, so

    H_i(C^n(Z^r)) = sum over |c| = n of (Z/g)^C(s-1, i),

and D, the dual Koszul complex, has the same formula with the wedge degree
j = n - i reflected to s - j.  Nothing here imports the program under test.
"""

from __future__ import annotations

import random
from collections import defaultdict
from itertools import combinations
from math import comb, gcd


def contents(n: int, r: int):
    """Every c in N^r with |c| = n."""
    if r == 0:
        if n == 0:
            yield ()
        return
    for head in range(n, -1, -1):
        for tail in contents(n - head, r - 1):
            yield (head,) + tail


def divisor_chain(moduli) -> list[int]:
    """Invariant factors m1 | m2 | ... (all > 1) of a sum of cyclic groups."""
    powers = defaultdict(list)
    for m in moduli:
        p = 2
        while m > 1:
            if p * p > m:
                p = m
            e = 1
            while m % p == 0:
                m //= p
                e *= p
            if e > 1:
                powers[p].append(e)
            p += 1
    length = max((len(v) for v in powers.values()), default=0)
    chain = [1] * length
    for v in powers.values():
        v.sort()
        for k, e in enumerate(v):
            chain[length - len(v) + k] *= e
    return chain


def homology(family: str, n: int, r: int, i: int) -> dict:
    """H_i of family^n(Z^r) as {"free_rank": 0, "torsion": [divisor chain]}."""
    if family not in ("C", "D"):
        raise ValueError(f"unknown family {family!r}")
    moduli = []
    for c in contents(n, r):
        g = gcd(*c)
        if g == 1:
            continue
        s = sum(1 for x in c if x)
        k = i if family == "C" else s - (n - i)
        if 0 <= k <= s - 1:
            moduli.extend([g] * comb(s - 1, k))
    return {"free_rank": 0, "torsion": divisor_chain(moduli)}


def dim_C(n: int, r: int, i: int) -> int:
    """Rank of wedge^i(Z^r) (x) divided^(n-i)(Z^r)."""
    if not 0 <= i <= n:
        return 0
    return comb(r, i) * comb(n - i + r - 1, r - 1)


def snf_diagonal_C(n: int, r: int, i: int) -> list[int]:
    """Smith diagonal of d_i : C_i -> C_(i-1) of C^n(Z^r), n >= 1.

    All homology is torsion, so rank(d_n) = dim C_n and
    rank(d_j) = dim C_j - rank(d_(j+1)); the invariant factors above 1 are
    the torsion of H_(i-1), because the cycle lattice is saturated.
    """
    rank = 0
    for j in range(n, i - 1, -1):
        rank = dim_C(n, r, j) - rank
    torsion = homology("C", n, r, i - 1)["torsion"]
    size = min(dim_C(n, r, i - 1), dim_C(n, r, i))
    return [1] * (rank - len(torsion)) + torsion + [0] * (size - rank)


def differential_C(n: int, r: int, i: int) -> list[list[int]]:
    """Matrix of d_i of C^n(Z^r), built independently of the program.

    d(x_w1 ^ ... ^ x_wi (x) g) = sum_k (-1)^k x_w1 ^ ..^ x_wk-hat ^ .. (x) x_wk g,
    with x_j acting on divided powers by gamma_e -> (e_j + 1) gamma_(e + 1_j).
    Rows and columns are in an order of this module's choosing.
    """
    wedges_src = list(combinations(range(r), i))
    wedges_dst = {w: k for k, w in enumerate(combinations(range(r), i - 1))}
    gammas_src = list(contents(n - i, r))
    gammas_dst = {e: k for k, e in enumerate(contents(n - i + 1, r))}
    rows = len(wedges_dst) * len(gammas_dst)
    mat = [[0] * (len(wedges_src) * len(gammas_src)) for _ in range(rows)]
    col = 0
    for w in wedges_src:
        for e in gammas_src:
            for k, j in enumerate(w):
                e2 = list(e)
                e2[j] += 1
                row = wedges_dst[w[:k] + w[k + 1:]] * len(gammas_dst) + gammas_dst[tuple(e2)]
                mat[row][col] += (-1) ** k * e2[j]
            col += 1
    return mat


def permuted(mat: list[list[int]], seed) -> list[list[int]]:
    """mat with rows and columns shuffled by random.Random(seed)."""
    rng = random.Random(seed)
    rows = list(range(len(mat)))
    cols = list(range(len(mat[0]) if mat else 0))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return [[mat[i][j] for j in cols] for i in rows]


def mat_text(mat: list[list[int]]) -> str:
    """The program's plain-text matrix exchange format."""
    cols = len(mat[0]) if mat else 0
    lines = [f"{len(mat)} {cols}"]
    lines.extend(" ".join(map(str, row)) for row in mat)
    return "\n".join(lines) + "\n"
