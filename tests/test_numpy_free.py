"""No command imports numpy.

The program computes on lists of Python-int rows.  numpy backs only the
dense views that tests, demos and the benchmark's tracer read
(``ChainComplexZ.d``, ``SnfResult.U``/``.D``/``.V`` and the dense helpers of
``intlinalg``), each importing it when called.  Here ``import derham.cli``,
and each command the benchmark runs, at small sizes, run in a fresh
interpreter through ``derham.cli.main``, which must leave numpy unloaded.
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
sys.exit(code)
"""


def _run(argv):
    """Exit code and the last stderr line of argv run in a fresh child."""
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
    return proc.returncode, proc.stderr.strip().splitlines()[-1]


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
    # the dump writes each d_i from the full complex's nonzero entries
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
