"""Tests of the benchmark's own code: the oracle, the span arithmetic and
the output checks.  Run with ``python3 -m pytest bench``."""

import os
import sys
import time

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from derham.complexes import build_C, homology_of  # noqa: E402
from derham.intlinalg import snf_diagonal  # noqa: E402


@pytest.mark.parametrize("family", ["C", "D"])
def test_oracle_matches_homology_of(family):
    for n in range(1, 7):
        for r in range(1, 4):
            hom = homology_of(family, n, r)
            for i in range(n + 1):
                assert hom.invariants(i).as_dict() == oracle.homology(family, n, r, i), (n, r, i)


@pytest.mark.parametrize("n,r,i", [(4, 2, 1), (4, 3, 1), (5, 3, 2), (6, 2, 2), (6, 3, 3)])
def test_snf_oracle_and_differential(n, r, i):
    mine = np.array(oracle.differential_C(n, r, i), dtype=object)
    theirs = build_C(n, r).d(i)
    assert mine.shape == theirs.shape
    assert snf_diagonal(mine) == oracle.snf_diagonal_C(n, r, i) == snf_diagonal(theirs)


def test_divisor_chain():
    assert oracle.divisor_chain([2, 4, 4, 3, 6, 9, 12]) == [2, 6, 12, 12, 36]
    assert oracle.divisor_chain([]) == []


def _span(name, start, end, parent):
    return [name, start, end, parent, 7]


def test_self_time_arithmetic():
    trace = [
        _span("cli", 0.0, 10.0, None),
        _span("a", 1.0, 5.0, 0),
        _span("b", 2.0, 3.0, 1),
        _span("b", 3.5, 4.0, 1),
        _span(spans.BOOKKEEPING, 5.0, 5.5, 0),
        _span("c", 6.0, 9.0, 0),
        _span("a", 7.0, 8.0, 5),
    ]
    assert spans.self_times(trace) == pytest.approx([2.5, 2.5, 1.0, 0.5, 0.5, 2.0, 1.0])
    summary = spans.summarize(trace, {"b.extra": 3})
    assert summary["cli.self_s"] == pytest.approx(2.5)
    assert summary["a.s"] == pytest.approx(3.5)
    assert summary["a.calls"] == 2
    assert summary["b.s"] == pytest.approx(1.5)
    assert summary["covered"] == pytest.approx(7.0)  # a and c, not the bookkeeping
    assert summary["b.extra"] == 3
    assert "trace.s" not in summary


def test_merge_adds_counts_and_keeps_largest_bits():
    total = {"a.calls": 2, "x.max_bits": 7}
    spans.merge(total, {"a.calls": 3, "x.max_bits": 5, "b.s": 1.5})
    assert total == {"a.calls": 5, "x.max_bits": 7, "b.s": 1.5}


def test_self_time_counts_overlapping_children_once():
    trace = [_span("p", 0.0, 10.0, None), _span("x", 1.0, 4.0, 0), _span("y", 3.0, 6.0, 0)]
    assert spans.self_times(trace)[0] == pytest.approx(5.0)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return str(tmp_path_factory.mktemp("work"))


def _output(cmd, work):
    record = run.run_command(cmd, False, 0, work, time.monotonic() + 120)
    assert "failure" not in record, record["failure"]
    with open(os.path.join(work, "stdout"), "rb") as fh:
        return fh.read()


def _fails(cmd, out):
    return any(check(out) for check in cmd.checks)


def _flip_pass(out):
    assert b'"pass":true' in out
    return out.replace(b'"pass":true', b'"pass":false', 1)


def test_theorem_and_suite_checks_catch_corruption(work):
    for cmd in run.theorem(0, 0, work) + run.suite(0, 0, work):
        out = _output(cmd, work)
        assert not _fails(cmd, out)
        assert _fails(cmd, _flip_pass(out)), cmd.argv
        assert _fails(cmd, b"not json"), cmd.argv
        if cmd.argv[:2] in (["verify", "--all"], ["verify", "theorem"]):
            assert _fails(cmd, out + b" "), cmd.argv


@pytest.mark.parametrize("family,n,r", [("C", 4, 2), ("D", 4, 2)])
def test_homology_check_catches_corruption(work, family, n, r):
    cmd = run.Command(
        ["homology", "--family", family, "--n", str(n), "--rank", str(r), "--format", "json"],
        (run.homology_matches(family, n, r),),
    )
    out = _output(cmd, work)
    assert not _fails(cmd, out)
    assert b'"torsion":[2' in out
    assert _fails(cmd, out.replace(b'"torsion":[2', b'"torsion":[4', 1))
    assert _fails(cmd, out.replace(b'"torsion":[2', b'"torsion":[2,2', 1))
    assert _fails(cmd, out.replace(b'"free_rank":0', b'"free_rank":1', 1))
    assert _fails(cmd, b'{"records": []}')


def _matrix_text(mats):
    return "".join(oracle.mat_text(m.tolist()) for m in mats).encode()


def test_snf_check_catches_corruption(work):
    (cmd,) = run.snf(3, 0, work)
    out = _output(cmd, work)
    assert not _fails(cmd, out)
    d, u, v = run.parse_matrices(out, 3)
    k = min(d.shape)
    bad_diag = d.copy()
    bad_diag[k - 1, k - 1] += 2
    bad_u = u.copy()
    bad_u[0, 1] += 1
    off_diag = d.copy()
    off_diag[0, 1] = 1
    for mats in ([bad_diag, u, v], [d, bad_u, v], [off_diag, u, v], [d, u, v[:, :-1]]):
        assert _fails(cmd, _matrix_text(mats))
    assert _fails(cmd, out[: len(out) // 2])
    assert _fails(cmd, out + b"1\n")


def test_run_command_counts_failures(work, monkeypatch):
    deadline = time.monotonic() + 120
    refused = run.run_command(run.Command(["homology", "--n", "2"], ()), False, 0, work, deadline)
    assert "exit 2" in refused["failure"]
    wrong = run.run_command(run.Command(["verify", "lemma"], (lambda out: "wrong",)), False, 0, work, deadline)
    assert wrong["failure"].endswith("wrong")
    monkeypatch.setattr(run, "COMMAND_TIMEOUT_S", 0.5)
    slow = run.run_command(run.theorem(0, 0, work)[0], False, 0, work, deadline)
    assert "timeout" in slow["failure"]
