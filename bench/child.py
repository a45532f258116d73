"""Run one derham command in this fresh interpreter and record its cost.

Usage: python3 bench/child.py RECORD TRACE RUN_ID -- DERHAM_ARGS...

Puts the checkout's ``src`` on the path, imports ``derham.cli``, notes the
monotonic clock (the end of set-up), optionally installs the layer tracer,
and times ``derham.cli.main`` up to its return with stdout flushed.  The
JSON record written to RECORD holds that time, the exit code, the peak RSS
and, when TRACE is 1, the per-layer summary.
"""

import time
import os
import sys


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import derham.cli

    import_done = time.monotonic()
    import json
    import resource

    record_path, trace, run_id = sys.argv[1], sys.argv[2] == "1", int(sys.argv[3])
    argv = sys.argv[sys.argv.index("--") + 1:]
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer(run_id)
        tracer.install()
    start = time.perf_counter()
    try:
        code = derham.cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    wall = time.perf_counter() - start
    record = {
        "import_done": import_done,
        "wall_s": wall,
        "exit": code,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        record["layers"] = tracer.summary()
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
