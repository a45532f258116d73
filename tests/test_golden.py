"""Pinned differentials: the SHA-256 of every d_i in the matrix text format.

The digests in differentials_sha256.json were recorded from the separate
hand-written loops that built C, D and the Koszul complexes before they
shared one builder; any change to a basis order, sign or coefficient shows
up here as a changed digest.  Keys are "C n r", "D n r" and "K<p> n r".
"""

import hashlib
import json
from pathlib import Path

from derham.complexes import build_C, build_D
from derham.intlinalg import mat_to_text
from derham.koszul import build_koszul

GOLDEN = json.loads((Path(__file__).parent / "differentials_sha256.json").read_text())


def _digests(cx):
    return [
        hashlib.sha256(mat_to_text(cx.d(i)).encode()).hexdigest()
        for i in range(1, cx.n + 1)
    ]


def _built(key):
    family, n, r = key.split()
    n, r = int(n), int(r)
    if family == "C":
        return build_C(n, r)
    if family == "D":
        return build_D(n, r)
    return build_koszul(n, r, int(family[1:]))


def test_golden_covers_all_cells():
    expected = {
        f"{family} {n} {r}"
        for family in ("C", "D", "K2", "K3")
        for n in range(1, 7)
        for r in range(4)
    }
    assert set(GOLDEN) == expected


def test_differentials_match_pinned_digests():
    mismatched = [key for key, want in GOLDEN.items() if _digests(_built(key)) != want]
    assert mismatched == []
