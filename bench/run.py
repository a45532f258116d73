"""Benchmark of the derham command line, one fresh interpreter per command.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A pass runs the workload's commands once, each through ``derham.cli.main``
in its own process (``bench/child.py``) with ``src`` on the path, ``--jobs
1`` and ``DERHAM_JOBS`` unset, so no cache carries over between commands.
Passes repeat until S seconds have elapsed.  Every output is checked after
its timed span; a nonzero exit, a timeout or a failed check is a failed
operation.  ``warning:`` lines on stderr are not failures.

With ``--trace 0`` the last stdout line reports
  wall_s       median over passes of the summed main() times of a pass,
  setup_s      median over the run's processes (the commands and SETUP_PROBES
               bare ``--help`` probes) of spawn to ``import derham.cli`` done,
  peak_rss_mb  the largest ru_maxrss of any command process.
With ``--trace 1`` passes alternate untraced and traced, and the line
reports the ``per_layer`` metrics of BENCHMARK.json as medians over traced
passes; ``trace.overhead_s`` is the traced minus the untraced median wall.
The line before it records the machine, the run identity and the samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

import oracle
from spans import max_bits, merge

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

# SHA-256 of stdout as recorded at commit 9f7ff08.  The output must stay
# byte-identical, so a mismatch is a failed operation, never a re-record.
SEED_SHA256 = {
    "verify --all": "40d71ff10d02d4d442c90e12769023523c2bed5e9155f1934f0d55097c4044b1",
    "verify theorem --rank 4": "4ce1ac9592ceba5c142ce7931d5db967c7ca069a11385cd658e08384c30b982e",
}
HOMOLOGY_CELLS = (("C", 8, 4), ("D", 8, 4), ("C", 6, 5))
SNF_CELL = (8, 4, 2)  # d_2 of C^8(Z^4), 480 x 504
COMMAND_TIMEOUT_S = 120
RUN_LIMIT_S = 170
SETUP_PROBES = 4  # extra set-up samples per run, beyond the commands

Check = Callable[[bytes], "str | None"]


class Command(NamedTuple):
    argv: list[str]
    checks: tuple[Check, ...]


# ---------------------------------------------------------------------------
# output checks: each returns None, or the reason the output is wrong


def reports_pass(out: bytes) -> str | None:
    try:
        payload = json.loads(out)
    except ValueError:
        return "stdout is not JSON"
    return None if isinstance(payload, dict) and payload.get("pass") is True else "pass is not true"


def matches_seed(key: str) -> Check:
    def check(out: bytes) -> str | None:
        if hashlib.sha256(out).hexdigest() != SEED_SHA256[key]:
            return f"stdout of {key} differs from the recorded SHA-256"
        return None

    return check


def homology_matches(family: str, n: int, r: int) -> Check:
    want = [
        {"cell": {"family": family, "n": n, "i": i, "rank": r}, "computed": oracle.homology(family, n, r, i)}
        for i in range(n + 1)
    ]

    def check(out: bytes) -> str | None:
        try:
            got = json.loads(out)["records"]
        except (ValueError, KeyError, TypeError):
            return "unreadable homology output"
        return None if got == want else f"homology of {family}^{n}(Z^{r}) differs from the oracle"

    return check


def parse_matrices(out: bytes, count: int) -> list[np.ndarray]:
    """``count`` matrices in the plain-text exchange format, back to back."""
    tokens = out.split()
    mats, pos = [], 0
    for _ in range(count):
        if pos + 2 > len(tokens):
            raise ValueError("missing matrix header")
        rows, cols = int(tokens[pos]), int(tokens[pos + 1])
        body = tokens[pos + 2: pos + 2 + rows * cols]
        if len(body) != rows * cols:
            raise ValueError("truncated matrix")
        if max(map(len, body), default=0) < 16:
            mat = np.array(body).astype(np.int64)
        else:
            mat = np.array([int(t) for t in body], dtype=object)
        mats.append(mat.reshape(rows, cols))
        pos += 2 + rows * cols
    if pos != len(tokens):
        raise ValueError("trailing output")
    return mats


def product_equals(u: np.ndarray, a: np.ndarray, v: np.ndarray, d: np.ndarray) -> bool:
    """U @ A @ V == D exactly: in float64 when every partial sum stays below
    2^53, so that the product is exact, else in Python integers."""
    if 3 * max_bits([u, a, v]) + 2 * max(a.shape).bit_length() < 53:
        return bool(np.array_equal(u.astype(float) @ a.astype(float) @ v.astype(float), d.astype(float)))
    u, a, v = (m.astype(object) for m in (u, a, v))
    return bool(np.array_equal(u.dot(a).dot(v), d))


def snf_correct(matrix: list[list[int]], diagonal: list[int]) -> Check:
    a = np.array(matrix, dtype=object)
    rows, cols = a.shape

    def check(out: bytes) -> str | None:
        try:
            d, u, v = parse_matrices(out, 3)
        except ValueError as exc:
            return f"unreadable snf output: {exc}"
        if d.shape != (rows, cols) or u.shape != (rows, rows) or v.shape != (cols, cols):
            return "snf output has the wrong shapes"
        k = min(rows, cols)
        if [int(d[i, i]) for i in range(k)] != diagonal:
            return "Smith diagonal differs from the oracle"
        if np.count_nonzero(d) != sum(1 for x in diagonal if x):
            return "D is not diagonal"
        if not product_equals(u, a, v, d):
            return "U A V != D"
        return None

    return check


# ---------------------------------------------------------------------------
# workloads: commands of pass k for a seed, with inputs written under work


def theorem(seed: int, k: int, work: str) -> list[Command]:
    return [
        Command(
            ["verify", "theorem", "--rank", "4", "--jobs", "1"],
            (reports_pass, matches_seed("verify theorem --rank 4")),
        )
    ]


def homology(seed: int, k: int, work: str) -> list[Command]:
    """The three cap-size cells, then the ``snf`` command on one of their
    differentials; the latter is the workload's only seeded input."""
    return [
        Command(
            ["homology", "--family", f, "--n", str(n), "--rank", str(r), "--format", "json", "--jobs", "1"],
            (homology_matches(f, n, r),),
        )
        for f, n, r in HOMOLOGY_CELLS
    ] + snf(seed, k, work)


def suite(seed: int, k: int, work: str) -> list[Command]:
    return [
        Command(["verify", "--all", "--jobs", "1"], (reports_pass, matches_seed("verify --all"))),
        Command(["verify", "h0", "--jobs", "1"], (reports_pass,)),
        Command(["verify", "relations", "--jobs", "1"], (reports_pass,)),
        Command(["verify", "kunneth", "--jobs", "1"], (reports_pass,)),
        Command(["counterexample", "f18", "--rank", "3", "--jobs", "1"], (reports_pass,)),
    ]


def snf(seed: int, k: int, work: str) -> list[Command]:
    """``snf FILE --transforms`` on a shuffled d_2 of C^8(Z^4).  Each pass
    shuffles rows and columns afresh, so a run samples several pivot orders;
    one order alone varies the time by about 25%."""
    n, r, i = SNF_CELL
    matrix = oracle.permuted(oracle.differential_C(n, r, i), f"{seed}:{k}")
    path = os.path.join(work, "snf_input.txt")
    with open(path, "w") as fh:
        fh.write(oracle.mat_text(matrix))
    return [Command(["snf", path, "--transforms"], (snf_correct(matrix, oracle.snf_diagonal_C(n, r, i)),))]


WORKLOADS = {"theorem": theorem, "homology": homology, "suite": suite}


# ---------------------------------------------------------------------------
# running


def run_command(cmd: Command, traced: bool, run_id: int, work: str, deadline: float) -> dict:
    """One operation.  The record has wall_s, setup_s and maxrss_kb (plus
    layers when traced), or a ``failure`` reason."""
    record_path = os.path.join(work, "record.json")
    out_path = os.path.join(work, "stdout")
    err_path = os.path.join(work, "stderr")
    if os.path.exists(record_path):
        os.remove(record_path)
    argv = [sys.executable, os.path.join(BENCH, "child.py"), record_path,
            "1" if traced else "0", str(run_id), "--", *cmd.argv]
    env = {k: v for k, v in os.environ.items() if k != "DERHAM_JOBS"}
    timeout = min(COMMAND_TIMEOUT_S, max(5.0, deadline - time.monotonic()))
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        spawned = time.monotonic()
        try:
            proc = subprocess.run(argv, stdout=out, stderr=err, env=env, cwd=ROOT, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"failure": f"{' '.join(cmd.argv)}: timeout after {timeout:.0f} s"}
    if proc.returncode != 0:
        with open(err_path, "rb") as fh:
            tail = fh.read().decode(errors="replace").strip().splitlines()[-1:]
        return {"failure": f"{' '.join(cmd.argv)}: exit {proc.returncode} {tail}"}
    try:
        with open(record_path) as fh:
            record = json.load(fh)
    except (OSError, ValueError):
        return {"failure": f"{' '.join(cmd.argv)}: no record"}
    record["setup_s"] = record["import_done"] - spawned
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    for check in cmd.checks:
        reason = check(stdout)
        if reason:
            record["failure"] = f"{' '.join(cmd.argv)}: {reason}"
            break
    return record


def run_passes(workload: str, seed: int, seconds: int, trace: bool, work: str):
    """Set-up probes, then (traced, records) per pass.  With trace, passes
    alternate untraced and traced, at least one of each."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    # a bare ``derham --help`` process; the first one writes the bytecode
    probe = Command(["--help"], ())
    probes = [run_command(probe, False, -1, work, deadline) for _ in range(SETUP_PROBES + 1)][1:]
    start = time.monotonic()
    out, run_id = [], 0
    while True:
        traced = trace and len(out) % 2 == 1
        records = []
        # a traced pass reuses the inputs of the untraced pass before it
        for cmd in WORKLOADS[workload](seed, len(out) // 2 if trace else len(out), work):
            records.append(run_command(cmd, traced, run_id, work, deadline))
            run_id += 1
        out.append((traced, records))
        elapsed = time.monotonic() - start
        if elapsed >= seconds and (not trace or len(out) >= 2):
            break
        if elapsed > RUN_LIMIT_S / 2:
            break
    return probes, out


def pass_layers(records: list[dict]) -> dict:
    """Sum the layer summaries of one pass's commands (max for max_bits)."""
    total: dict = {"wall": 0.0}
    for rec in records:
        total["wall"] += rec["wall_s"]
        merge(total, rec["layers"])
    total["trace.coverage"] = total.get("covered", 0.0) / total["wall"]
    return total


def tail_percentile(samples: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 20:
        return None
    return {"percentile": round(100 * (n - 10) / n, 1), "value": sorted(samples)[n - 11]}


def metrics(probes: list[dict], passes: list[tuple[bool, list[dict]]], trace: bool, spec: dict) -> tuple[dict, dict]:
    good = [[r for r in recs if "failure" not in r] for _, recs in passes]
    untraced = [sum(r["wall_s"] for r in recs) for (t, _), recs in zip(passes, good) if not t and recs]
    samples = {"wall_s": untraced, "wall_s_tail": tail_percentile(untraced)}
    if not trace:
        ops = [r for recs in good for r in recs]
        setups = [r["setup_s"] for r in ops + probes if "failure" not in r]
        values = {
            "wall_s": statistics.median(untraced),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(r["maxrss_kb"] for r in ops) / 1024,
        }
        samples["setup_s"] = len(setups)
        names = spec["end_to_end"]
    else:
        layers = [pass_layers(recs) for (t, _), recs in zip(passes, good) if t and recs]
        traced_wall = statistics.median(p["wall"] for p in layers)
        samples["traced_wall_s"] = [p["wall"] for p in layers]
        values = {m["name"]: statistics.median(p.get(m["name"], 0) for p in layers) for m in spec["per_layer"]}
        values["trace.overhead_s"] = traced_wall - statistics.median(untraced)
        names = spec["per_layer"]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}, samples


# ---------------------------------------------------------------------------
# run identity


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _git_commit() -> str | None:
    """HEAD of the checkout's .git, read directly; None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def identity() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "derham", "cli.py")):
        print(f"error: no derham sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    work = os.path.join(BENCH, ".work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        probes, passes = run_passes(ns.workload, ns.seed, ns.seconds, bool(ns.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = [r for _, recs in passes for r in recs]
    failures = [r["failure"] for r in records if "failure" in r]
    for reason in failures:
        print(f"failed: {reason}", file=sys.stderr)
    try:
        values, samples = metrics(probes, passes, bool(ns.trace), spec)
    except statistics.StatisticsError:
        print("error: no operation succeeded; nothing to report", file=sys.stderr)
        return 1
    run = {"workload": ns.workload, "seed": ns.seed, "seconds": ns.seconds, "trace": ns.trace,
           "passes": len(passes), "samples": samples, **identity()}
    print(json.dumps({"run": run}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": values,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
