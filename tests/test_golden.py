"""Pinned outputs: the SHA-256 of every d_i in the matrix text format, and
of the CLI's stdout for `verify --all`, `verify kunneth --max-n 4`, the
rank-2 table in every format, the JSON homology of C^4(Z^2) and D^4(Z^2),
`counterexample f18 --rank 2` and `--rank 5`, `verify h0` and `verify h0
--max-n 12 --rank 4`, `verify relations`, the rank-4 JSON table, three
`derived-sp` cells and `verify theorem --rank 4` and `--rank 5`.

The digests in differentials_sha256.json were recorded from the separate
hand-written loops that built C, D and the Koszul complexes before they
shared one builder; any change to a basis order, sign or coefficient shows
up here as a changed digest.  Keys are "C n r", "D n r" and "K<p> n r".
"""

import hashlib
import json
from pathlib import Path

from derham import cli
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


# SHA-256 of stdout.  The first five were recorded while the closed forms
# were still evaluated on a separate summand-multiset type (the "expected"
# columns come from them), the next three while the Smith form was still
# reached through separate transform-free and cached routes, the next three
# while H_0 was still decided on the dense d_1, one integral solve per
# column, the next four while derived_sp still read the cokernel basis
# of the whole dense d_(i+2) mod p, and the last three while the comparison
# maps were still decided against a presented target, with a dense class
# matrix and dense cycles.
CLI_STDOUT_SHA256 = {
    "verify --all": "40d71ff10d02d4d442c90e12769023523c2bed5e9155f1934f0d55097c4044b1",
    "table --rank 2 --format md": "de77e65d7deaaf42bea5316df590aef53846e27a908bf43a1d0e8f9210ee489d",
    "table --rank 2 --format csv": "57aec819bbd87311fac1205d759e376b2722bcb98a26c295a69e1e76d11b72c2",
    "table --rank 2 --format json": "325bcff804121c23b94731ff21a2c8555d4b4ad0ba4b8c73ee35ad101e686573",
    "verify kunneth --max-n 4": "f881de3185cad9664fc7439162c9dfa2252d0e6d2484512517b20e78bfcada7b",
    "homology --family C --n 4 --rank 2 --format json": "2f40cd1570c79fc4407d58e38265f6b82ff07076bb1be6711e0c48502bb52ea0",
    "homology --family D --n 4 --rank 2 --format json": "9b8838f4e95d0d484091203074cd5ed7dac0941f2cc4305b358ceb1700ff6056",
    "counterexample f18 --rank 2": "2e31e9d57a65dcc21d9735f717a4d518d352b725b24bc46d8bf8f8bb4fd4c139",
    "verify h0": "d9198cb1c6f8467ea72d8f170a3c76f58db1ae4c1b12370c454fcb7240deddb1",
    "verify relations": "e383f5a7874d47d247c8023f9fb41fb3da3049c3a1c86e507265c3d79eab88e7",
    "table --rank 4 --format json": "01419e690fa79562d5781b37a13109a1b1e1a7e517666194ebc99967e6307161",
    "derived-sp --i 1 --n 3 --p 2 --rank 2": "7af785f0ec712ac84e186b3a979c191ee87d3f908497a5eb4d32a2435e817fab",
    "derived-sp --i 1 --n 6 --p 2 --rank 4": "4944f7086385f1565a5308c5ae6ba2a12cfb7156e1154a23b3f1d61eb0030799",
    "derived-sp --i 2 --n 5 --p 3 --rank 3": "25f33480abcbb0228463b2ad37959690d82a8cdbe850555f00f65612ab4162ae",
    "verify theorem --rank 4": "4ce1ac9592ceba5c142ce7931d5db967c7ca069a11385cd658e08384c30b982e",
    "verify theorem --rank 5": "807d658fb1ad453accf5c491b380cff66eefa76e7ec7e5462e2bcf05bae5c615",
    "counterexample f18 --rank 5": "028b777a88c03d6d9c6b904c9b9cd63ee31df9e2b7f3b1292da8ecc1ef406ea7",
    "verify h0 --max-n 12 --rank 4": "05bb5afc49e2bb3011f1b8bdc0c64c5a770d07ee3f928129ff433193132aea00",
}


def test_cli_stdout_matches_pinned_digests(capsys):
    mismatched = []
    for command, want in CLI_STDOUT_SHA256.items():
        assert cli.main(command.split()) == 0, command
        out = capsys.readouterr().out
        if hashlib.sha256(out.encode()).hexdigest() != want:
            mismatched.append(command)
    assert mismatched == []
