"""No command imports numpy, dataclasses or the reference code.

The program computes on lists of Python-int rows.  numpy backs only the
dense views that tests, demos and the benchmark's tracer read
(``SnfResult.U``/``.D``/``.V``, and in ``derham.reference`` the dense d_i of
a full complex and the dense helpers), each importing it when called.  No module of the
package uses ``dataclasses`` (which loads ``inspect``), and the code that no
command runs is in ``derham.reference``, which no command imports.  Here
``import derham.cli``, and each command the benchmark runs, at small sizes,
run in a fresh interpreter through ``derham.cli.main``, which must leave
numpy, dataclasses, inspect and derham.reference unloaded, and load exactly
the package and its eight command modules.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from derham import cli

ROOT = Path(__file__).resolve().parent.parent

_CHILD = """
import sys
from derham.cli import main
code = main(sys.argv[1:]) if sys.argv[1:] else 0
sys.stdout.flush()
sys.stderr.write("numpy loaded\\n" if "numpy" in sys.modules else "numpy absent\\n")
unwanted = [m for m in ("dataclasses", "inspect", "derham.reference") if m in sys.modules]
package = sorted(m for m in sys.modules if m.split(".")[0] == "derham")
sys.stderr.write(" ".join(unwanted) + "|" + " ".join(package) + "\\n")
sys.exit(code)
"""

COMMAND_MODULES = ["derham"] + [
    f"derham.{name}"
    for name in ("abelian", "bases", "cli", "comparison", "complexes", "intlinalg", "koszul",
                 "numtheory")
]


def _run(argv):
    """Exit code and the numpy line of argv run in a fresh child, after
    checking that the child loaded none of dataclasses, inspect and
    derham.reference, and of the package only its command modules."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, *argv],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        timeout=120,
    )
    *_, numpy_line, modules = proc.stderr.strip().splitlines()
    unwanted, package = modules.split("|")
    assert (unwanted.split(), package.split()) == ([], COMMAND_MODULES)
    return proc.returncode, numpy_line


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["verify", "--all"],
        ["verify", "theorem", "--rank", "2"],
        ["verify", "h0", "--max-n", "4", "--rank", "2"],
        ["verify", "relations", "--max-n", "4"],
        ["verify", "kunneth"],
        ["counterexample", "f18", "--rank", "2"],
        ["homology", "--family", "D", "--n", "6", "--rank", "3", "--format", "json"],
        ["derived-sp", "--i", "2", "--n", "7", "--p", "2", "--rank", "3"],
        ["derived-sp", "--i", "2", "--n", "7", "--p", "2", "--rank", "6"],
        ["table", "--rank", "2"],
        ["basis", "--functor", "gamma", "--degree", "3", "--rank", "2"],
    ],
    ids=lambda argv: " ".join(argv) or "import",
)
def test_command_leaves_numpy_unloaded(argv):
    assert _run(argv) == (0, "numpy absent")


def test_dump_matrices_leaves_numpy_unloaded(tmp_path):
    # the dump writes each d_i from the nonzero entries of the content
    # blocks placed at basis positions, with no full complex built
    argv = ["homology", "--family", "C", "--n", "5", "--rank", "3"]
    assert _run(argv + ["--dump-matrices", str(tmp_path / "mats")]) == (0, "numpy absent")
    assert sorted(p.name for p in (tmp_path / "mats").iterdir()) == [
        f"d_{i}.txt" for i in range(1, 6)
    ]


def test_snf_transforms_leaves_numpy_unloaded(tmp_path, capsys):
    dump = tmp_path / "mats"
    argv = ["homology", "--family", "C", "--n", "6", "--rank", "3", "--dump-matrices", str(dump)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert _run(["snf", str(dump / "d_2.txt"), "--transforms"]) == (0, "numpy absent")
