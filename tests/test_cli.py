"""Command-line interface: subcommands, formats, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from derham import cli
from derham import intlinalg as la
from derham.abelian import closed_form_homology
from derham.complexes import build


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_table_markdown(capsys):
    code, out, _ = run_cli(["table", "--max-n", "4", "--rank", "1"], capsys)
    assert code == 0
    assert "| q |" in out
    assert "PASS" in out and "FAIL" not in out


def test_table_json_schema(capsys):
    code, out, _ = run_cli(
        ["table", "--max-n", "3", "--rank", "2", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    rec = payload["records"][0]
    assert set(rec) == {"cell", "computed", "expected", "pass"}
    assert set(rec["cell"]) == {"n", "i", "rank"}
    assert set(rec["computed"]) == {"free_rank", "torsion"}


def test_table_rank_zero_trivial(capsys):
    code, out, _ = run_cli(
        ["table", "--max-n", "7", "--rank", "0", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert all(
        rec["computed"] == {"free_rank": 0, "torsion": []}
        for rec in payload["records"]
    )


def test_table_csv(capsys):
    code, out, _ = run_cli(
        ["table", "--max-n", "2", "--rank", "1", "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,i,rank,computed,expected,pass"
    assert lines[1].startswith("2,0,1,Z/2,Z/2,True")


def test_homology_json(capsys):
    code, out, _ = run_cli(
        [
            "homology", "--family", "C", "--n", "4", "--rank", "2",
            "--degree", "0", "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["records"][0]["computed"] == {"free_rank": 0, "torsion": [2, 4, 4]}


def test_homology_family_d(capsys):
    code, out, _ = run_cli(
        ["homology", "--family", "D", "--n", "2", "--rank", "1"], capsys
    )
    assert code == 0
    assert "H_1" in out


def test_homology_mismatch_with_closed_form_exits_1(monkeypatch, capsys):
    args = ["homology", "--family", "C", "--n", "4", "--rank", "2", "--format", "json"]
    code, expect, _ = run_cli(args, capsys)
    assert code == 0
    monkeypatch.setattr(
        cli, "closed_form_homology", lambda family, n, i, rank: la.GroupInvariants(0, (3,))
    )
    code, out, err = run_cli(args, capsys)
    assert code == 1
    assert out == expect
    assert "mismatch: H_0 = Z/2 + Z/4 + Z/4 but the closed form gives Z/3" in err


def test_homology_dump_matrices(tmp_path, capsys):
    dump = tmp_path / "mats"
    code, _, _ = run_cli(
        [
            "homology", "--family", "C", "--n", "2", "--rank", "1",
            "--dump-matrices", str(dump),
        ],
        capsys,
    )
    assert code == 0
    stored = la.mat_parse((dump / "d_1.txt").read_text())
    assert stored.tolist() == [[-2]]


def test_dump_matrices_equal_the_dense_differentials(tmp_path, capsys):
    # the dump streams each d_i from the blocks; it must read as the dense d_i
    for family in ("C", "D"):
        dump = tmp_path / family
        argv = ["homology", "--family", family, "--n", "4", "--rank", "3",
                "--dump-matrices", str(dump)]
        assert run_cli(argv, capsys)[0] == 0
        cx = build(family, 4, 3)
        for i in range(1, 5):
            assert (dump / f"d_{i}.txt").read_text() == la.mat_to_text(cx.d(i))


def test_snf_round_trip(tmp_path, capsys):
    src = tmp_path / "m.txt"
    src.write_text("1 1\n6\n")
    code, out, _ = run_cli(["snf", str(src)], capsys)
    assert code == 0
    assert la.mat_parse(out).tolist() == [[6]]


def test_snf_dumped_differential(tmp_path, capsys):
    dump = tmp_path / "mats"
    run_cli(
        [
            "homology", "--family", "C", "--n", "4", "--rank", "2",
            "--dump-matrices", str(dump),
        ],
        capsys,
    )
    code, out, _ = run_cli(["snf", str(dump / "d_1.txt")], capsys)
    assert code == 0
    d = la.mat_parse(out)
    diag = [int(d[i, i]) for i in range(min(d.shape))]
    # consistent with H_0 = Z/2 + Z/4 + Z/4
    assert diag == [1, 1, 2, 4, 4]


def test_snf_identity(tmp_path, capsys):
    src = tmp_path / "m.json"
    src.write_text(la.mat_to_json(la.identity(3)))
    code, out, _ = run_cli(["snf", str(src), "--transforms"], capsys)
    assert code == 0
    assert out.count("3 3") == 3


def test_snf_parse_error_exit_2(tmp_path, capsys):
    src = tmp_path / "bad.txt"
    src.write_text("2 2 1 2 3")
    code, _, err = run_cli(["snf", str(src)], capsys)
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "payload",
    [
        '{"rows": 1, "cols": 2, "data": [2.7, true]}',
        '{"rows": 1, "cols": 2, "data": [1, true]}',
        '{"rows": 1, "cols": 1, "data": [1e300]}',
        '{"rows": 2.5, "cols": 1, "data": [1, 2]}',
    ],
    ids=["float", "bool", "big-float", "float-rows"],
)
def test_snf_json_refuses_non_integers(tmp_path, capsys, payload):
    # int() would truncate or round each of these into a matrix
    src = tmp_path / "m.json"
    src.write_text(payload)
    code, out, err = run_cli(["snf", str(src)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read matrix: ")
    assert "JSON integer" in err


def test_snf_refuses_transforms_quadratic_in_the_input(tmp_path, capsys):
    # a 10 KB column of 5000 rows asks for a 5000 x 5000 U
    src = tmp_path / "column.txt"
    src.write_text("5000 1\n" + "1\n" * 5000)
    assert len(src.read_bytes()) < 11_000
    code, out, err = run_cli(["snf", str(src)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: a 5000 x 1 matrix needs 2.50e+07 entries")


@pytest.mark.parametrize(
    "argv",
    [
        ["homology", "--family", "C", "--n", "2", "--rank", "1", "--output", "{missing}/x.json"],
        ["homology", "--family", "C", "--n", "2", "--rank", "1", "--dump-matrices", "{file}/x"],
        ["snf", "--output-dir", "{file}", "{matrix}"],
        ["verify", "h0", "--output", "{missing}/y.json"],
    ],
    ids=[
        "output-in-missing-dir", "dump-under-a-file", "snf-output-dir-is-a-file", "verify-output",
    ],
)
def test_unwritable_path_exits_2(tmp_path, capsys, argv):
    # a path that cannot be written is bad usage (exit 2), not a mismatch (1)
    plain = tmp_path / "plain.txt"
    plain.write_text("not a directory\n")
    matrix = tmp_path / "m.txt"
    matrix.write_text("1 1\n6\n")
    paths = {"missing": tmp_path / "missing", "file": plain, "matrix": matrix}
    code, out, err = run_cli([arg.format(**paths) for arg in argv], capsys)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].startswith("error: [Errno ")
    assert "Traceback" not in err


def test_basis_dump(capsys):
    code, out, _ = run_cli(
        ["basis", "--functor", "gamma", "--degree", "3", "--rank", "2"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 4
    assert payload["labels"][0] == [3, 0]


def test_derived_sp_command(capsys):
    code, out, _ = run_cli(
        ["derived-sp", "--i", "1", "--n", "3", "--p", "2", "--rank", "2"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 2
    assert payload["dimension"] == payload["presentation_dimension"]


def test_verify_lemma(capsys):
    code, out, _ = run_cli(["verify", "lemma", "--p", "2", "--max-n", "40"], capsys)
    assert code == 0
    payload = json.loads(out)
    record = payload["reports"]["lemma"]["records"][0]
    assert record["checked"] == 780  # C(40, 2)
    assert record["failed"] == 0


def test_verify_h0_small(capsys):
    code, out, _ = run_cli(
        ["verify", "h0", "--max-n", "6", "--rank", "2"], capsys
    )
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_theorem_small(capsys):
    code, out, _ = run_cli(
        ["verify", "theorem", "--max-n", "6", "--rank", "2"], capsys
    )
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_relations_small(capsys):
    code, out, _ = run_cli(
        ["verify", "relations", "--max-n", "5", "--rank", "2"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True


def test_verify_kunneth(capsys):
    code, out, _ = run_cli(["verify", "kunneth", "--max-n", "4"], capsys)
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_requires_suite(capsys):
    code, _, err = run_cli(["verify"], capsys)
    assert code == 2
    assert "suite" in err


def test_counterexample_f18(capsys):
    code, out, _ = run_cli(["counterexample", "f18", "--rank", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["contains_order4"] is True
    assert payload["report"]["map_is_iso"] is False


def test_counterexample_f18_rank_one(capsys):
    # rank 1 has no cross-effect, so the map is an isomorphism of zeros
    code, out, _ = run_cli(["counterexample", "f18", "--rank", "1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["contains_order4"] is False


# Argument errors: each is refused with exit 2 and a message, not a traceback.
BAD_ARGUMENTS = (
    ["basis", "--functor", "sym", "--degree", "2", "--rank", "-1"],
    ["derived-sp", "--i", "1", "--n", "3", "--p", "4", "--rank", "2"],
    ["derived-sp", "--i", "5", "--n", "3", "--p", "2", "--rank", "2"],
    ["derived-sp", "--i", "0", "--n", "3", "--p", "2", "--rank", "-1"],
    ["counterexample", "f18", "--rank", "0"],
    ["counterexample", "f18", "--rank", "7"],
    # the builder accepts n = 0 (the unit complex), the CLI does not
    ["homology", "--family", "C", "--n", "0", "--rank", "2"],
    ["verify", "lemma", "--p", "4"],
    # ranges without a cell would pass vacuously
    ["verify", "theorem", "--rank", "0"],
    ["verify", "theorem", "--max-n", "1"],
    ["verify", "h0", "--max-n", "1"],
    ["verify", "kunneth", "--max-n", "1"],
    ["verify", "relations", "--rank", "0"],
    ["verify", "relations", "--max-n", "1"],
    ["verify", "lemma", "--max-n", "1"],
    ["table", "--max-n", "1"],
    # 0 is a value, not an absent option
    ["verify", "kunneth", "--max-n", "0"],
    ["verify", "h0", "--max-n", "0"],
    ["verify", "lemma", "--max-n", "0"],
    ["verify", "lemma", "--p", "0"],
    # differentials above MAX_DIFFERENTIAL_CELLS, refused before any build
    ["homology", "--family", "C", "--n", "12", "--rank", "6"],
    ["homology", "--family", "D", "--n", "12", "--rank", "5"],
    ["verify", "h0", "--max-n", "12", "--rank", "6"],
    ["counterexample", "f18", "--rank", "6"],
    ["derived-sp", "--i", "1", "--n", "12", "--p", "2", "--rank", "5"],
    # a lemma sweep of hours, a basis of 6.9e10 labels
    ["verify", "lemma", "--max-n", "10000"],
    ["basis", "--functor", "gamma", "--degree", "20", "--rank", "20"],
)


def test_range_caps_exit_2(capsys):
    code, _, err = run_cli(["table", "--max-n", "20", "--rank", "2"], capsys)
    assert code == 2
    assert "capped" in err
    for argv in BAD_ARGUMENTS:
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: "), argv


def test_warning_above_defaults(capsys):
    code, _, err = run_cli(
        ["verify", "h0", "--max-n", "8", "--rank", "1"], capsys
    )
    assert code == 0
    assert "warning" in err


def test_seed_flag_is_refused(capsys):
    # everything is deterministic, so there is no --seed option
    with pytest.raises(SystemExit) as exc:
        cli.main(["--seed", "7", "table", "--max-n", "2", "--rank", "1"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_jobs_flag(capsys):
    # accepted for interface stability and ignored
    code, out, _ = run_cli(
        ["table", "--max-n", "4", "--rank", "2", "--format", "json", "--jobs", "2"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_all_deterministic(tmp_path):
    # two fresh processes must produce byte-identical JSON
    outs = []
    for k in (0, 1):
        path = tmp_path / f"run{k}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "derham.cli", "verify", "--all",
             "--output", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
    payload = json.loads(outs[0])
    assert payload["pass"] is True
    assert set(payload["reports"]) == {"lemma", "h0", "theorem", "relations", "kunneth"}


def test_homology_c7_rank6_in_bounded_memory(tmp_path):
    # the largest C^7 the cost guard accepts: built and reduced block by
    # block, it must match the closed form without the dense differentials
    out = tmp_path / "out.json"
    with open(out, "w") as fh:
        proc = subprocess.Popen(
            [sys.executable, "-m", "derham.cli", "homology", "--family", "C",
             "--n", "7", "--rank", "6", "--format", "json"],
            stdout=fh,
            stderr=subprocess.DEVNULL,
        )
        # the rusage of this one child: RUSAGE_CHILDREN of a process that
        # waited for nothing else
        _, status, usage = os.wait4(proc.pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    records = json.loads(out.read_text())["records"]
    assert [rec["cell"]["i"] for rec in records] == list(range(8))
    for rec in records:
        expected = closed_form_homology("C", 7, rec["cell"]["i"], 6)
        assert rec["computed"] == expected.as_dict()
    assert usage.ru_maxrss < 200 * 1024  # kilobytes


def test_dump_matrices_c7_rank6_streamed_in_bounded_memory(tmp_path):
    # each d_i is written from the blocks' entries, so no dense d_i of up
    # to 1.05e7 cells is built or kept; the files are the ones the dense
    # writer produced (digest recorded from the dense route)
    dump = tmp_path / "mats"
    proc = subprocess.Popen(
        [sys.executable, "-m", "derham.cli", "homology", "--family", "C",
         "--n", "7", "--rank", "6", "--format", "json", "--dump-matrices", str(dump)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    _, status, usage = os.wait4(proc.pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    digest = hashlib.sha256()
    for i in range(1, 8):
        digest.update((dump / f"d_{i}.txt").read_bytes())
    assert digest.hexdigest() == (
        "ef70c4d5f098a165685ae03ca3ab671ae09f3e74e940954d005fbf7f41293b53"
    )
    assert usage.ru_maxrss < 100 * 1024  # kilobytes


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "derham.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "verify" in proc.stdout


def test_snf_transforms_of_shuffled_differential_pinned(tmp_path, capsys):
    # D, U and V of a matrix with many components, byte for byte: the
    # digest was recorded before the elimination moved to sparse rows.  It
    # runs after the subprocess RSS tests above: a child spawned by this
    # process reports this process's peak RSS as its own ru_maxrss.
    d = build("C", 8, 4).d(2)
    rng = np.random.default_rng(11)
    d = d[rng.permutation(d.shape[0])]
    d = d[:, rng.permutation(d.shape[1])]
    assert d.shape == (480, 504)
    src = tmp_path / "d2.txt"
    src.write_text(la.mat_to_text(d))
    code, out, _ = run_cli(["snf", str(src), "--transforms"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "98c84826d2f299adb48508a08b819f83271f7e44b0a107dd99f557f1dbbaaf2c"
    )
