"""The traced benchmark still finds every program function it wraps.

``bench/spans.py`` names its layers by module and attribute and fails when
it is installed if one is missing, so a rename in the program would stop
every traced benchmark run.  Here the module is loaded without installing
it, and one traced command is run as the benchmark runs it.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from derham.intlinalg import mat_to_text
from derham.reference import build_C

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    spans = _load_spans()
    for layer, modname, attr, _, cached in spans.LAYERS:
        mod = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            fn = vars(getattr(mod, cls_name)).get(meth)
        else:
            fn = getattr(mod, attr, None)
        assert callable(fn), (layer, modname, attr)
        if cached:
            assert hasattr(fn, "cache_info"), (layer, modname, attr)


def _traced_layers(tmp_path, argv) -> dict:
    """The layer summary of argv run in a traced child, as the benchmark
    runs it."""
    record = tmp_path / "record.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(record), "1", "0", "--", *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(record.read_text())["layers"]


def test_traced_child_records_the_h0_layer(tmp_path):
    layers = _traced_layers(tmp_path, ["verify", "h0", "--max-n", "4", "--rank", "2"])
    assert layers["comparison.h0.calls"] > 0


def test_traced_snf_counts_its_input_and_its_text(tmp_path):
    # the tracer reads the Smith input as an array and U, D and V off the
    # result; the matrix text goes through mat_parse and mat_to_text
    d = build_C(6, 3).d(2)
    path = tmp_path / "d2.txt"
    path.write_text(mat_to_text(d))
    layers = _traced_layers(tmp_path, ["snf", str(path), "--transforms"])
    assert layers["intlinalg.snf.calls"] > 0
    assert layers["intlinalg.snf.cells"] == d.shape[0] * d.shape[1]
    assert layers["intlinalg.snf.nnz"] == sum(1 for x in d.flat if x)
    assert layers["intlinalg.snf.max_bits"] > 0
    assert layers["intlinalg.io.bytes"] > len(path.read_text())


def test_traced_theorem_counts_its_reductions(tmp_path):
    layers = _traced_layers(tmp_path, ["verify", "theorem", "--rank", "2"])
    for key in ("intlinalg.snf.calls", "intlinalg.snf.cells", "intlinalg.solver.calls",
                "intlinalg.iso.calls", "koszul.calls"):
        assert layers[key] > 0, key
    # the comparison reads content blocks in block-local coordinates and
    # builds no full complex
    assert layers.get("complexes.build.calls", 0) == 0
    assert layers["complexes.build.cache_misses"] == 0


def test_traced_matrix_dump_builds_no_full_complex(tmp_path):
    # `homology --dump-matrices` writes each d_i from the content blocks
    # placed at basis positions; the tracer still finds build_C and build_D
    # through derham.complexes, and they are never called
    argv = ["homology", "--family", "C", "--n", "4", "--rank", "2",
            "--dump-matrices", str(tmp_path / "dump")]
    layers = _traced_layers(tmp_path, argv)
    assert layers.get("complexes.build.calls", 0) == 0
    assert layers["complexes.build.cache_misses"] == 0
