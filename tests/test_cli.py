"""Command-line interface: subcommands, formats, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from derham import cli
from derham import intlinalg as la
from derham import reference as ref
from derham.abelian import closed_form_homology


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
    assert la.mat_parse((dump / "d_1.txt").read_text()) == ([[-2]], 1)


def test_dump_matrices_equal_the_dense_differentials(tmp_path, capsys):
    # the dump streams each d_i from the blocks; it must read as the dense d_i
    for family in ("C", "D"):
        dump = tmp_path / family
        argv = ["homology", "--family", family, "--n", "4", "--rank", "3",
                "--dump-matrices", str(dump)]
        assert run_cli(argv, capsys)[0] == 0
        cx = ref.build(family, 4, 3)
        for i in range(1, 5):
            assert (dump / f"d_{i}.txt").read_text() == la.mat_to_text(cx.d(i))


def test_dump_matrices_match_the_golden_digests(tmp_path, capsys):
    # every C and D cell of differentials_sha256.json, rank 0 and the empty
    # degrees above the rank included, written by the command itself
    golden = json.loads((Path(__file__).parent / "differentials_sha256.json").read_text())
    cells = [key for key in golden if key[0] in "CD"]
    assert len(cells) == 48
    for key in cells:
        family, n, rank = key.split()
        dump = tmp_path / key.replace(" ", "_")
        argv = ["homology", "--family", family, "--n", n, "--rank", rank,
                "--dump-matrices", str(dump)]
        assert run_cli(argv, capsys)[0] == 0, key
        digests = [
            hashlib.sha256((dump / f"d_{i}.txt").read_bytes()).hexdigest()
            for i in range(1, int(n) + 1)
        ]
        assert digests == golden[key], key


@pytest.mark.parametrize("family,n,rank", [("C", 8, 4), ("D", 8, 4), ("C", 6, 5)])
def test_homology_builds_no_full_complex(monkeypatch, capsys, family, n, rank):
    # the groups are read off one block per partition; no basis is placed
    from derham import complexes

    argv = ["homology", "--family", family, "--n", str(n), "--rank", str(rank), "--format", "json"]
    complexes.homology_of.cache_clear()
    code, expected, _ = run_cli(argv, capsys)
    assert code == 0

    def refuse(n, r):
        raise AssertionError(f"full complex of weight {n} on Z^{r} built")

    monkeypatch.setattr(ref, "build_C", refuse)
    monkeypatch.setattr(ref, "build_D", refuse)
    for cache in (complexes.homology_of, complexes._koszul):
        cache.cache_clear()
    assert run_cli(argv, capsys)[:2] == (0, expected)
    complexes.homology_of.cache_clear()


@pytest.mark.parametrize(
    "command,builds",
    [
        ("verify theorem --rank 4", 0),
        ("table --rank 4", 0),
        ("verify h0 --max-n 8 --rank 3", 0),
        ("counterexample f18 --rank 3", 0),
        ("homology --family C --n 4 --rank 2 --dump-matrices DIR", 0),
        ("derived-sp --i 2 --n 7 --p 2 --rank 3", 0),
    ],
)
def test_comparison_commands_build_no_full_complex(monkeypatch, capsys, tmp_path, command, builds):
    # the comparison cycles, their classes and solves, and the degree-0 map
    # read content blocks in block-local coordinates, as derived-sp reads its
    # Koszul blocks; the matrix dump places the blocks at basis positions,
    # with no basis listed and no full complex built
    from derham import comparison, complexes, koszul

    calls = []
    build_complex = ref._build_complex

    def counted(*args):
        calls.append(args)
        return build_complex(*args)

    # build_C, build_D and build_koszul read the builder as a name of ref
    monkeypatch.setattr(ref, "_build_complex", counted)
    # start from fresh caches, as a new process would, so none hides a build
    for cache in (ref.build_C, ref.build_D, complexes.homology_of,
                  complexes._koszul, comparison.q_matrix, comparison.theorem_block,
                  ref.build_koszul, koszul.derived_sp):
        cache.cache_clear()
    argv = [str(tmp_path) if word == "DIR" else word for word in command.split()]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and out
    assert len(calls) == builds, calls


def test_verify_theorem_reduces_each_block_matrix_once(monkeypatch, capsys):
    # 393 content blocks of d_i are reduced on `verify theorem --rank 4`,
    # but they hold 145 distinct matrices, each reduced once; the other
    # reductions decide the comparison maps
    from derham import comparison, complexes, koszul

    inside, blocks, total = [], [], []
    block, snf = complexes.DifferentialSolver.block, la.smith_normal_form

    def counted_block(self, content):
        inside.append(content)
        try:
            return block(self, content)
        finally:
            inside.pop()

    def counted_snf(*args):
        (blocks if inside else total).append(args)
        return snf(*args)

    monkeypatch.setattr(complexes.DifferentialSolver, "block", counted_block)
    monkeypatch.setattr(la, "smith_normal_form", counted_snf)
    for cache in (ref.build_C, ref.build_D, complexes.homology_of,
                  complexes._koszul, comparison.q_matrix, comparison.theorem_block,
                  ref.build_koszul, koszul.derived_sp):
        cache.cache_clear()
    code, out, _ = run_cli(["verify", "theorem", "--rank", "4"], capsys)
    assert code == 0 and json.loads(out)["pass"] is True
    assert (len(blocks), len(blocks) + len(total)) == (145, 289)


PARSER_CASES = [
    [],
    ["--help"],
    ["bogus"],
    ["snf"],
    ["snf", "m.txt", "--bogus"],
    ["verify", "nope"],
    ["table", "--rank", "x"],
    ["verify", "theorem", "--rank", "4"],
    ["homology", "--family", "C", "--n", "4", "--rank", "2", "--format", "json"],
    ["snf", "-", "--transforms"],
] + [[name, "--help"] for name in cli.SUBCOMMANDS]


def _parse(run, argv):
    """What run makes of argv: the namespace, or the exit code, with the
    text on stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(run(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", PARSER_CASES, ids=lambda argv: " ".join(argv) or "none")
def test_main_parses_as_the_parser_with_every_subcommand(monkeypatch, argv):
    # main builds only the subparser that argv names first; its namespaces,
    # help texts and usage errors equal those of the full parser
    for name in vars(cli):
        if name.startswith("cmd_"):
            monkeypatch.setattr(cli, name, lambda ns: ns)
    built = []
    build_parser = cli._build_parser

    def recorded(names=cli.SUBCOMMANDS):
        built.append(list(names))
        return build_parser(names)

    monkeypatch.setattr(cli, "_build_parser", recorded)
    assert _parse(cli.main, argv) == _parse(build_parser().parse_args, argv)
    named = argv[0] in cli.SUBCOMMANDS if argv else False
    assert built == [argv[:1] if named else list(cli.SUBCOMMANDS)]


def test_snf_round_trip(tmp_path, capsys):
    src = tmp_path / "m.txt"
    src.write_text("1 1\n6\n")
    code, out, _ = run_cli(["snf", str(src)], capsys)
    assert code == 0
    assert la.mat_parse(out) == ([[6]], 1)


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
    d, cols = la.mat_parse(out)
    diag = [d[i][i] for i in range(min(len(d), cols))]
    # consistent with H_0 = Z/2 + Z/4 + Z/4
    assert diag == [1, 1, 2, 4, 4]


def test_snf_identity(tmp_path, capsys):
    src = tmp_path / "m.json"
    src.write_text(ref.mat_to_json(ref.identity(3)))
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


class _BodyUnread(io.StringIO):
    """A stream that fails if read past its first lines."""

    def read(self, *args):
        raise AssertionError("the body was read")


def test_snf_refuses_a_header_before_reading_the_body(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", _BodyUnread("3000 3000\n0 0 0\n"))
    code, out, err = run_cli(["snf", "-", "--transforms"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: a 3000 x 3000 matrix needs 2.70e+07 entries")


@pytest.mark.parametrize(
    "text",
    ["2 2\n1 0\n0 3\n", "\n\n2\n2 1 0 0 3", "2 2 1 0\n0 3\n", "2\n", "2 x\n1 2\n", "-1 2\n",
     "2 2\n1 0\n0\n", '{"rows": 1, "cols": 1, "data": [4]}', '\n  {"rows": 1, "cols": 1, "data": [4]}'],
)
def test_snf_reads_every_input_as_the_whole_file_parser(tmp_path, capsys, text):
    # the header is read first, and the result or the error is the one
    # mat_parse gives on the whole text
    src = tmp_path / "m.txt"
    src.write_text(text)
    code, out, err = run_cli(["snf", str(src)], capsys)
    try:
        rows, cols = la.mat_parse(text)
    except ValueError as exc:
        assert (code, out, err) == (2, "", f"error: cannot read matrix: {exc}\n")
    else:
        assert (code, out) == (0, la.mat_to_text(*la.smith_normal_form(rows, cols).sparse("D")))


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


@pytest.mark.parametrize(
    "argv,digest",
    [
        ("--i 2 --n 7 --p 2 --rank 6",
         "68377227b1b08bafc6fbc505016f9c1aa6533ad06edde785bc7476d8eb5cf89f"),
        ("--i 0 --n 10 --p 2 --rank 5",
         "3a1c80f15d3f184a7485166df170c1b3e3cab3148be19ee40e29fecadb097dc0"),
        ("--i 0 --n 2 --p 2 --rank 60",
         "fb0a41ecf00a3bdcb9f1ef6a07c70537dceead30ed656d6a3560b8b9ef12d5b3"),
    ],
)
def test_derived_sp_stdout_pinned(capsys, argv, digest):
    # digests of the cokernel read off the whole Koszul complex: the route
    # through one block per distinct tuple of entries must reproduce them
    code, out, _ = run_cli(["derived-sp", *argv.split()], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
    # a dense presentation growing as n^2; binomials of about p * n bits
    ["derived-sp", "--i", "0", "--n", "13", "--p", "2", "--rank", "2"],
    ["verify", "lemma", "--p", "1009"],
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
        ["verify", "h0", "--max-n", "6", "--rank", "5"], capsys
    )
    assert code == 0
    assert "warning" in err


def test_default_suite_ranges_do_not_warn(capsys):
    # each suite warns only above the range it runs with no options
    for suite in ("h0", "relations", "theorem", "kunneth"):
        code, out, err = run_cli(["verify", suite], capsys)
        assert (code, err) == (0, ""), suite
        assert json.loads(out)["pass"] is True
    for argv, above in (
        (["verify", "relations", "--max-n", "9", "--rank", "1"], "n=9, rank=1"),
        (["verify", "h0", "--max-n", "4", "--rank", "5"], "n=4, rank=5"),
        (["verify", "theorem", "--max-n", "3", "--rank", "5"], "n=3, rank=5"),
    ):
        code, _, err = run_cli(argv, capsys)
        assert code == 0, argv
        assert err.startswith(f"warning: {above} is above"), argv


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


# Runs derham.cli.main with the arguments that follow and writes the child's
# own peak RSS (VmHWM, in kB) as the last line of stderr.  On Linux the
# ru_maxrss of a child includes the high-water mark of the process that
# spawned it, here pytest's.
_PEAK_RSS_CHILD = """
import sys
from derham.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    peak = next(line for line in fh if line.startswith("VmHWM:"))
sys.stderr.write(peak.split()[1] + "\\n")
sys.exit(code)
"""


def _run_with_peak_rss(args, stdout):
    """Run one CLI command in a child: its exit code and its peak RSS in kB."""
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_CHILD, *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
    )
    return proc.returncode, int(proc.stderr.split()[-1])


def test_homology_c7_rank6_in_bounded_memory(tmp_path):
    # the largest C^7 the cost guard accepts: built and reduced block by
    # block, it must match the closed form without the dense differentials
    out = tmp_path / "out.json"
    with open(out, "w") as fh:
        code, peak_kb = _run_with_peak_rss(
            ["homology", "--family", "C", "--n", "7", "--rank", "6", "--format", "json"],
            fh,
        )
    assert code == 0
    records = json.loads(out.read_text())["records"]
    assert [rec["cell"]["i"] for rec in records] == list(range(8))
    for rec in records:
        expected = closed_form_homology("C", 7, rec["cell"]["i"], 6)
        assert rec["computed"] == expected.as_dict()
    assert peak_kb < 200 * 1024


def test_dump_matrices_c7_rank6_streamed_in_bounded_memory(tmp_path):
    # each d_i is written from the blocks' entries, so no dense d_i of up
    # to 1.05e7 cells is built or kept; the files are the ones the dense
    # writer produced (digest recorded from the dense route)
    dump = tmp_path / "mats"
    code, peak_kb = _run_with_peak_rss(
        ["homology", "--family", "C", "--n", "7", "--rank", "6", "--format", "json",
         "--dump-matrices", str(dump)],
        subprocess.DEVNULL,
    )
    assert code == 0
    digest = hashlib.sha256()
    for i in range(1, 8):
        digest.update((dump / f"d_{i}.txt").read_bytes())
    assert digest.hexdigest() == (
        "ef70c4d5f098a165685ae03ca3ab671ae09f3e74e940954d005fbf7f41293b53"
    )
    assert peak_kb < 100 * 1024


def test_verify_h0_rank4_weight12_in_bounded_memory():
    # H_0 is read off the content blocks of d_1; the dense d_1 and one
    # integral solve per column peaked at 84 MB
    code, peak_kb = _run_with_peak_rss(
        ["verify", "h0", "--max-n", "12", "--rank", "4"], subprocess.PIPE
    )
    assert code == 0
    assert peak_kb < 70 * 1024


# Runs the Python source that follows and writes the child's peak RSS (in
# kB) as the last line of stderr, as _PEAK_RSS_CHILD does for the CLI.
_PEAK_RSS_LIBRARY = """
import sys
exec(sys.argv[1])
with open("/proc/self/status") as fh:
    peak = next(line for line in fh if line.startswith("VmHWM:"))
sys.stderr.write(peak.split()[1] + "\\n")
"""


def _library_call_with_peak_rss(source):
    """Run library code in a child: its stdout and its peak RSS in kB."""
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_LIBRARY, source],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, int(proc.stderr.split()[-1])


def test_verify_h0_rank12_every_weight_in_bounded_memory():
    # decided per partition of n; one q column per content and a block read
    # per content peaked at 1563 MB
    out, peak_kb = _library_call_with_peak_rss(
        "from derham.comparison import verify_h0_iso\n"
        "print(all(verify_h0_iso(n, 12) for n in range(2, 13)))"
    )
    assert out == "True\n"
    assert peak_kb < 64 * 1024


def test_closed_form_c12_rank12_in_bounded_memory():
    # summed per partition of 12; the sum over the 1.35e6 contents of every
    # degree peaked at 549 MB (digest recorded from it)
    out, peak_kb = _library_call_with_peak_rss(
        "import json\n"
        "from derham.abelian import closed_form_homology\n"
        "groups = [closed_form_homology('C', 12, i, 12).as_dict() for i in range(13)]\n"
        "print(json.dumps(groups, sort_keys=True, separators=(',', ':')))"
    )
    assert hashlib.sha256(out.strip().encode()).hexdigest() == (
        "a300766838ab865c52c3f0064bfed1b71f2af9a696cfc3b6c465b2b40f749102"
    )
    assert peak_kb < 64 * 1024


def test_derived_sp_rank6_in_bounded_memory(tmp_path):
    # the generator presentation is written as sparse rows; its dense
    # gens x relations matrix peaked at 39.5 MB (digest recorded from it)
    out = tmp_path / "out.json"
    with open(out, "w") as fh:
        code, peak_kb = _run_with_peak_rss(
            ["derived-sp", "--i", "2", "--n", "7", "--p", "2", "--rank", "6"], fh
        )
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "68377227b1b08bafc6fbc505016f9c1aa6533ad06edde785bc7476d8eb5cf89f"
    )
    assert peak_kb < 32 * 1024


def test_snf_refuses_an_oversized_header_in_bounded_memory(tmp_path):
    # an 18 MB file of a 3000 x 3000 zero matrix: the transforms guard reads
    # the header line's shape before the body is read (the guard on the
    # parsed matrix peaked at 279 MB, on the whole file read at 51 MB)
    src = tmp_path / "zeros.txt"
    with open(src, "w") as fh:
        fh.write("3000 3000\n")
        fh.writelines(["0 " * 2999 + "0\n"] * 3000)
    assert src.stat().st_size > 18_000_000
    code, peak_kb = _run_with_peak_rss(["snf", str(src), "--transforms"], subprocess.PIPE)
    assert code == 2
    assert peak_kb < 30 * 1024


def test_snf_transforms_of_a_large_signed_identity_in_bounded_memory(tmp_path):
    # 4.5 MB of text, 2.25e6 tokens: streamed line by line into sparse rows,
    # the body never sits whole in memory as text, tokens or dense rows (read
    # whole and made dense, it peaked at 71 MB).  D = I, U = the input and
    # V = I, byte for byte.
    n = 1500

    def line(i, x):
        return " ".join(["0"] * i + [x] + ["0"] * (n - 1 - i)) + "\n"

    rows = [line(i, "1" if i % 2 else "-1") for i in range(n)]
    ones = [line(i, "1") for i in range(n)]
    src, out = tmp_path / "signed_identity.txt", tmp_path / "out.txt"
    src.write_text(f"{n} {n}\n" + "".join(rows))
    assert src.stat().st_size > 4_500_000
    with open(out, "w") as fh:
        code, peak_kb = _run_with_peak_rss(["snf", str(src), "--transforms"], fh)
    assert code == 0
    identity = f"{n} {n}\n" + "".join(ones)
    assert out.read_text() == identity + src.read_text() + identity
    assert peak_kb < 45 * 1024


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "derham.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "verify" in proc.stdout


def test_snf_transforms_of_shuffled_differential_pinned(tmp_path, capsys):
    # D, U and V of a matrix with many components, byte for byte: the
    # digest was recorded before the elimination moved to sparse rows.
    d = ref.build("C", 8, 4).d(2)
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
