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


def test_traced_child_records_the_h0_layer(tmp_path):
    record = tmp_path / "record.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(record), "1", "0", "--",
         "verify", "h0", "--max-n", "4", "--rank", "2"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(record.read_text())["layers"]
    assert layers["comparison.h0.calls"] > 0
