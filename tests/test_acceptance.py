"""Acceptance suite: the headline structural results, at full stated ranges.

Every check is exact (tolerance zero); each criterion prints one PASS line
with its wall time.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import subprocess
import sys
import time
from math import comb

from derham import intlinalg as la
from derham import reference as ref
from derham.abelian import elementary, expected_table_entry, prime_divisors
from derham.comparison import (
    f18_counterexample,
    q_matrix,
    verify_h0_iso,
    verify_q_relations,
    verify_theorem,
)
from derham.complexes import build, build_C, homology_of, kunneth_check
from derham.intlinalg import GroupInvariants
from derham.koszul import derived_sp
from derham.numtheory import sweep_binomial_lemma
from derham.reference import (
    check_central_divisibility,
    lift_change_in_boundaries,
    presentations_agree,
    q_kills_boundaries,
    verify_f_welldefined,
)


def _announce(number: int, label: str, started: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number} [{label}]: PASS ({elapsed:.2f}s)")


def test_criterion_1_rank_one_h0():
    started = time.perf_counter()
    for n in range(2, 13):
        got = homology_of("C", n, 1).invariants(0)
        assert got == GroupInvariants(0, (n,)), (n, got)
    _announce(1, "rank-1 H_0 is Z/n for n <= 12", started)


def test_criterion_2_prime_weight_vanishing():
    started = time.perf_counter()
    for p in (2, 3, 5, 7):
        for r in range(5):
            hom = homology_of("C", p, r)
            assert hom.invariants(0) == elementary(p, r)
            for i in range(1, p + 1):
                assert hom.invariants(i).is_trivial, (p, r, i)
    _announce(2, "prime weights: H_0 = (Z/p)^r, higher homology vanishes", started)


def test_criterion_3_h0_structure():
    started = time.perf_counter()
    for n in range(2, 13):
        for r in range(4):
            assert q_kills_boundaries(q_matrix(n, r)), (n, r)
            assert verify_h0_iso(n, r), (n, r)
    for n in range(2, 9):
        for r in (1, 2):
            report = verify_q_relations(n, r)
            assert report.ok, (n, r, report.failures[:3])
    _announce(3, "H_0 structure: iso for n <= 12, relations exhausted", started)


def test_criterion_4_binomial_lemma():
    started = time.perf_counter()
    total = 0
    for p in (2, 3, 5, 7):
        out = sweep_binomial_lemma(p, 60)
        assert out["failed"] == 0, out
        total += out["checked"]
    assert total == 4 * sum(n - 1 for n in range(2, 61))
    assert all(
        check_central_divisibility(n, k)
        for n in range(1, 201)
        for k in range(1, n + 1)
    )
    _announce(4, f"binomial congruence ({total} cases) and divisibility", started)


def test_criterion_5_homology_table():
    started = time.perf_counter()
    for q in range(2, 8):
        for r in range(1, 5):
            hom = homology_of("C", q, r)
            for i in range(4):
                got = hom.invariants(i)
                expect = expected_table_entry(q, i, r)
                assert got == expect, (q, i, r, str(got), str(expect))
                if i >= 1:
                    assert verify_theorem(i, q, r), (q, i, r)
    # the 4-torsion cell called out explicitly
    assert homology_of("C", 4, 2).invariants(0) == GroupInvariants(0, (2, 4, 4))
    _announce(5, "full homology table for weights 2..7, ranks 1..4", started)


def _theorem_cells():
    for n in range(2, 8):
        for p in prime_divisors(n):
            for i in range(1, n // p):
                for r in range(1, 5):
                    yield i, n, p, r


def test_criterion_6_well_definedness():
    started = time.perf_counter()
    cells = list(_theorem_cells())
    assert cells
    for i, n, p, r in cells:
        report = verify_f_welldefined(i, n, p, r)
        assert report["ok"], (i, n, p, r, report)
        assert report["scalings"]["checked"] == report["scalings"]["boundary"]
        assert report["jacobi"]["zero"] == report["jacobi"]["checked"]
        assert lift_change_in_boundaries(i, n, p, r), (i, n, p, r)
    _announce(6, f"cycles, scalings and relations over {len(cells)} cells", started)


def test_criterion_7_koszul_agreement():
    started = time.perf_counter()
    for p in (2, 3, 5, 7):
        for n in range(1, 8):
            for r in range(5):
                for i in range(n):
                    assert presentations_agree(i, n, p, r), (i, n, p, r)
                assert derived_sp(n - 1, n, p, r).dimension == comb(r, n)
    _announce(7, "derived symmetric powers: presentation = Koszul cokernel", started)


def test_criterion_8_f18_counterexample():
    started = time.perf_counter()
    report = f18_counterexample(2)
    assert report["contains_order4"] is True
    assert report["source_exponent"] in (1, 2)
    assert report["map_well_defined"] is True
    assert report["map_is_iso"] is False
    _announce(8, "weight-8 breakdown: exponent-2 source, 4-torsion target", started)


def test_criterion_9_structural_invariants():
    started = time.perf_counter()
    # d compose d = 0 is asserted inside every constructor
    for family in ("C", "D"):
        for n in range(1, 9):
            for r in range(5):
                build(family, n, r)
    # Smith triples recompose exactly; determinants certified at small sizes
    for family in ("C", "D"):
        for n in range(1, 7):
            for r in range(4):
                cx = build(family, n, r)
                for i in range(1, n + 1):
                    m = cx.d(i)
                    u, d, v = la.smith_normal_form(m)
                    assert ref.is_zero(ref.mat_mul(ref.mat_mul(u, m), v) - d)
                    if 0 < max(m.shape) <= 12:
                        assert abs(ref.det_exact(u)) == 1
                        assert abs(ref.det_exact(v)) == 1
    big = build_C(7, 4).d(2)
    u, d, v = la.smith_normal_form(big)
    assert ref.is_zero(ref.mat_mul(ref.mat_mul(u, big), v) - d)
    # Kunneth consistency at every homological degree
    for n in range(2, 7):
        for a, b in ((1, 1), (1, 2)):
            for k in range(n + 1):
                assert kunneth_check(n, a, b, k), (n, a, b, k)
    _announce(9, "d d = 0, Smith recomposition, Kunneth consistency", started)


def test_criterion_10_determinism(tmp_path):
    started = time.perf_counter()
    outputs = []
    for run in (0, 1):
        path = tmp_path / f"all-{run}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "derham.cli", "verify", "--all",
             "--output", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["pass"] is True
    _announce(10, "verify --all is byte-identical across runs", started)
