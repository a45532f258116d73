"""Command-line front end: tables, verification suites, dumps, Smith form.

Exit codes: 0 all checks pass, 1 a mathematical mismatch was found, 2 bad
usage or unparsable input.  Identical configurations produce byte-identical
JSON so runs can be diffed and gated in CI.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext

from . import intlinalg as la
from .abelian import closed_form_homology, expected_h0, expected_table_entry
from .bases import basis_size
from .comparison import (
    f18_counterexample,
    verify_h0_iso,
    verify_q_relations,
    verify_theorem,
)
from .complexes import build, homology_of, kunneth_check
from .koszul import derived_sp, generator_presentation, presentation_dimension
from .numtheory import sweep_binomial_lemma

HARD_MAX_N = 12
HARD_MAX_RANK = 6
DEFAULT_MAX_N = 7
DEFAULT_RANK = 2
DEFAULT_PRIMES = (2, 3, 5, 7)
# Entries of the largest d_i of C^n(Z^rank) counted as a dense matrix, a
# proxy for the cost of its content blocks, since no command assembles it:
# C^7(Z^6) has 1.05e7, C^12(Z^5) 7.2e7.  `snf` holds its matrix with both
# transforms, rows^2 + rows*cols + cols^2.
MAX_DIFFERENTIAL_CELLS = 2 * 10**7
# `basis --degree 10 --rank 10` lists 9.2e4 labels (2 MB of JSON); degree
# and rank 20 would list 6.9e10.
MAX_BASIS_LABELS = 10**6
# The lemma sweep checks about N^2/2 binomials per prime, with growing
# integers: about 1.5 s at N = 200 and 6 s at N = 300.
MAX_LEMMA_N = 200


class UsageError(Exception):
    pass


def _refuse_costly(n: int, rank: int) -> None:
    """Refuse (n, rank) when the largest d_i of C^n(Z^rank) has too many
    dense entries: a proxy bound, as every command reads content blocks.

    D^n and the Koszul complex wedge^i (x) sym^(n-i) have the same term
    sizes, and the sizes grow with n and rank, so this bounds every complex
    a range up to (n, rank) builds.
    """
    dims = [
        basis_size("wedge", i, rank) * basis_size("gamma", n - i, rank)
        for i in range(n + 1)
    ]
    cells = max((a * b for a, b in zip(dims, dims[1:])), default=0)
    if cells > MAX_DIFFERENTIAL_CELLS:
        raise UsageError(
            f"n={n}, rank={rank} needs a differential with {cells:.2e} entries; "
            f"the limit is {MAX_DIFFERENTIAL_CELLS:.0e}"
        )


class RunConfig:
    """A command's range: weights up to max_n on Z^rank.  A range above
    default, or above (7, 4), draws a warning."""

    def __init__(self, max_n: int = DEFAULT_MAX_N, rank: int = DEFAULT_RANK,
                 default: tuple[int, int] = (DEFAULT_MAX_N, 4)):
        self.max_n, self.rank, self.default = max_n, rank, default

    def validate(self, first_n: int = 1, first_rank: int = 0) -> None:
        """Refuse a range past the caps or the cost limit, and one that ends
        before (first_n, first_rank): with no cell it would pass vacuously."""
        if self.max_n > HARD_MAX_N or self.rank > HARD_MAX_RANK:
            raise UsageError(
                f"ranges capped at n <= {HARD_MAX_N}, rank <= {HARD_MAX_RANK}"
            )
        if self.max_n < first_n or self.rank < first_rank:
            raise UsageError(
                f"this range starts at n = {first_n}, rank = {first_rank}"
            )
        _refuse_costly(self.max_n, self.rank)
        if self.max_n > max(self.default[0], DEFAULT_MAX_N) or self.rank > max(self.default[1], 4):
            print(
                f"warning: n={self.max_n}, rank={self.rank} is above the "
                "default desk scale; expect longer runtimes",
                file=sys.stderr,
            )


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# table


def _table_cell(q, i, rank):
    """One table cell: the comparison map onto H_i is an isomorphism (checked
    first, at matrix level) and H_i is the expected group."""
    iso = verify_h0_iso(q, rank) if i == 0 else verify_theorem(i, q, rank)
    computed = homology_of("C", q, rank).invariants(i)
    expected = expected_table_entry(q, i, rank)
    return {
        "cell": {"n": q, "i": i, "rank": rank},
        "computed": computed.as_dict(),
        "expected": expected.as_dict(),
        "pass": iso and computed == expected,
    }


def cmd_table(ns) -> int:
    config = RunConfig(max_n=ns.max_n, rank=ns.rank)
    config.validate(first_n=2)
    if config.max_n > 7:
        raise UsageError("the closed-form table covers weights up to 7")
    records = [
        _table_cell(q, i, config.rank)
        for q in range(2, config.max_n + 1)
        for i in range(4)
    ]
    ok = all(rec["pass"] for rec in records)
    if ns.format == "json":
        payload = {
            "command": "table",
            "config": {"max_n": config.max_n, "rank": config.rank},
            "records": records,
            "pass": ok,
        }
        _emit(_json_dumps(payload), ns.output)
    elif ns.format == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["n", "i", "rank", "computed", "expected", "pass"])
        for rec in records:
            writer.writerow(
                [
                    rec["cell"]["n"],
                    rec["cell"]["i"],
                    rec["cell"]["rank"],
                    _render(rec["computed"]),
                    _render(rec["expected"]),
                    rec["pass"],
                ]
            )
        _emit(buf.getvalue(), ns.output)
    else:
        _emit(_render_table_md(records, config), ns.output)
    return 0 if ok else 1


def _render(inv: dict) -> str:
    """A record's group, written back through GroupInvariants.__str__."""
    return str(la.GroupInvariants(**inv))


def _render_table_md(records, config: RunConfig) -> str:
    by_cell = {
        (r["cell"]["n"], r["cell"]["i"]): r for r in records
    }
    lines = [
        f"Homology of the weight-q complexes on Z^{config.rank}",
        "",
        "| q | H_0 | H_1 | H_2 | H_3 |",
        "|---|-----|-----|-----|-----|",
    ]
    for q in range(config.max_n, 1, -1):
        row = [f"| {q} |"]
        for i in range(4):
            rec = by_cell[(q, i)]
            mark = "PASS" if rec["pass"] else "FAIL"
            row.append(f" {_render(rec['computed'])} ({mark}) |")
        lines.append("".join(row))
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# homology / basis / derived-sp dumps


def cmd_homology(ns) -> int:
    config = RunConfig(max_n=ns.n, rank=ns.rank)
    config.validate()
    hom = homology_of(ns.family, ns.n, ns.rank)
    degrees = [ns.degree] if ns.degree is not None else list(range(ns.n + 1))
    groups = {i: hom.invariants(i) for i in degrees}
    records = [
        {
            "cell": {"family": ns.family, "n": ns.n, "i": i, "rank": ns.rank},
            "computed": groups[i].as_dict(),
        }
        for i in degrees
    ]
    if ns.dump_matrices:
        os.makedirs(ns.dump_matrices, exist_ok=True)
        cx = build(ns.family, ns.n, ns.rank)
        for i in range(1, ns.n + 1):
            path = os.path.join(ns.dump_matrices, f"d_{i}.txt")
            with open(path, "w") as fh:
                la.write_text(fh, (cx.dim(i - 1), cx.dim(i)), *cx.entries(i))
    if ns.format == "json":
        _emit(_json_dumps({"command": "homology", "records": records}), ns.output)
    else:
        lines = [f"{ns.family}^{ns.n}(Z^{ns.rank})"]
        lines.extend(f"  H_{i} = {groups[i]}" for i in degrees)
        _emit("\n".join(lines) + "\n", ns.output)
    # the closed form is the independent second route; stdout stays as is
    expected = {i: closed_form_homology(ns.family, ns.n, i, ns.rank) for i in degrees}
    mismatched = [i for i in degrees if groups[i] != expected[i]]
    for i in mismatched:
        print(
            f"mismatch: H_{i} = {groups[i]} but the closed form gives {expected[i]}",
            file=sys.stderr,
        )
    return 1 if mismatched else 0


def cmd_basis(ns) -> int:
    from .bases import enumerate_basis

    if ns.rank < 0:
        raise UsageError("rank must be nonnegative")
    size = basis_size(ns.functor, ns.degree, ns.rank)
    if size > MAX_BASIS_LABELS:
        raise UsageError(
            f"the basis has {size:.2e} labels; the limit is {MAX_BASIS_LABELS:.0e}"
        )
    labels = enumerate_basis(ns.functor, ns.degree, ns.rank)
    payload = {
        "functor": ns.functor,
        "degree": ns.degree,
        "rank": ns.rank,
        "size": len(labels),
        "labels": [list(l) for l in labels],
    }
    _emit(_json_dumps(payload), ns.output)
    return 0


def cmd_derived_sp(ns) -> int:
    if not la.is_prime(ns.p):
        raise UsageError(f"--p {ns.p} is not prime")
    if not 0 <= ns.i <= ns.n - 1:
        raise UsageError(f"need 0 <= i <= n - 1, got i={ns.i}, n={ns.n}")
    if ns.rank < 0:
        raise UsageError("rank must be nonnegative")
    # capped like every other command: it reads a Koszul block per content
    if ns.n > HARD_MAX_N:
        raise UsageError(f"derived-sp is capped at n <= {HARD_MAX_N}")
    _refuse_costly(ns.n, ns.rank)
    group = derived_sp(ns.i, ns.n, ns.p, ns.rank)
    pres = generator_presentation(ns.i, ns.n, ns.p, ns.rank)
    payload = {
        "i": ns.i,
        "n": ns.n,
        "p": ns.p,
        "rank": ns.rank,
        "dimension": group.dimension,
        "presentation_dimension": presentation_dimension(pres),
        "representatives": [
            {"wedge": list(w), "monomial": list(m)} for w, m in group.representatives
        ],
    }
    _emit(_json_dumps(payload), ns.output)
    return 0 if payload["dimension"] == payload["presentation_dimension"] else 1


# ---------------------------------------------------------------------------
# verification suites


def _verify_lemma(primes, max_n) -> dict:
    records = [sweep_binomial_lemma(p, max_n) for p in sorted(primes)]
    return {
        "suite": "lemma",
        "records": records,
        "checked": sum(r["checked"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "pass": all(r["failed"] == 0 for r in records),
    }


def _verify_h0(max_n, rank) -> dict:
    def cell(n, r):
        computed = homology_of("C", n, r).invariants(0)
        expected = expected_h0(n, r)
        ok = verify_h0_iso(n, r) and computed == expected
        return {
            "cell": {"n": n, "rank": r},
            "computed": computed.as_dict(),
            "expected": expected.as_dict(),
            "pass": ok,
        }

    records = [
        cell(n, r) for n in range(2, max_n + 1) for r in range(rank + 1)
    ]
    return {
        "suite": "h0",
        "records": records,
        "pass": all(r["pass"] for r in records),
    }


def _verify_theorem(max_n, rank) -> dict:
    records = [
        _table_cell(n, i, r)
        for n in range(2, max_n + 1)
        for i in (1, 2, 3)
        for r in range(1, rank + 1)
    ]
    return {
        "suite": "theorem",
        "records": records,
        "pass": all(r["pass"] for r in records),
    }


def _verify_relations(max_n, rank) -> dict:
    records = []
    for n in range(2, max_n + 1):
        for r in range(1, rank + 1):
            rep = verify_q_relations(n, r)
            records.append(
                {
                    "cell": {"n": n, "rank": r},
                    "checked": rep.checked,
                    "failures": len(rep.failures),
                    "pass": rep.ok,
                }
            )
    return {
        "suite": "relations",
        "records": records,
        "pass": all(r["pass"] for r in records),
    }


def _verify_kunneth(max_n, rank_pairs=((1, 1), (1, 2))) -> dict:
    records = []
    for n in range(2, max_n + 1):
        for a, b in rank_pairs:
            for k in range(n + 1):
                ok = kunneth_check(n, a, b, k)
                records.append(
                    {
                        "cell": {"n": n, "rank_a": a, "rank_b": b, "k": k},
                        "pass": ok,
                    }
                )
    return {
        "suite": "kunneth",
        "records": records,
        "pass": all(r["pass"] for r in records),
    }


def _default(value, default):
    """An option's value; only an absent option takes the default."""
    return default if value is None else value


def _suite_config(ns, max_n: int, rank: int) -> RunConfig:
    """A suite's range: its defaults (max_n, rank) for the absent options."""
    return RunConfig(_default(ns.max_n, max_n), _default(ns.rank, rank), (max_n, rank))


def _run_suite(ns) -> dict:
    if ns.suite == "lemma":
        primes = DEFAULT_PRIMES if ns.p is None else [ns.p]
        if not all(la.is_prime(p) for p in primes):
            raise UsageError(f"--p {ns.p} is not prime")
        max_n = _default(ns.max_n, 60)
        if not 2 <= max_n <= MAX_LEMMA_N:
            raise UsageError(f"the lemma range is 2 <= n <= {MAX_LEMMA_N}")
        # C(pn, pk) has about pn bits, so the cost grows with p * n
        cap = max(DEFAULT_PRIMES) * MAX_LEMMA_N
        if max(primes) * max_n > cap:
            raise UsageError(f"the lemma range is capped at p * n <= {cap}")
        return _verify_lemma(primes, max_n)
    if ns.suite == "h0":
        config = _suite_config(ns, 12, 3)
        config.validate(first_n=2)
        return _verify_h0(config.max_n, config.rank)
    if ns.suite == "theorem":
        config = _suite_config(ns, DEFAULT_MAX_N, 4)
        config.validate(first_n=2, first_rank=1)
        if config.max_n > 7:
            raise UsageError("the isomorphism range stops at weight 7")
        return _verify_theorem(config.max_n, config.rank)
    if ns.suite == "relations":
        config = _suite_config(ns, 8, 2)
        config.validate(first_n=2, first_rank=1)
        return _verify_relations(config.max_n, config.rank)
    # kunneth: the rank pairs (1, 1) and (1, 2) build complexes up to rank 3
    config = RunConfig(_default(ns.max_n, 6), 3)
    config.validate(first_n=2)
    return _verify_kunneth(config.max_n)


def cmd_verify(ns) -> int:
    if ns.all:
        suites = {
            "lemma": _verify_lemma(DEFAULT_PRIMES, 60),
            "h0": _verify_h0(DEFAULT_MAX_N, 3),
            "theorem": _verify_theorem(DEFAULT_MAX_N, DEFAULT_RANK),
            "relations": _verify_relations(DEFAULT_MAX_N, DEFAULT_RANK),
            "kunneth": _verify_kunneth(6),
        }
        payload = {
            "command": "verify --all",
            "reports": suites,
            "pass": all(s["pass"] for s in suites.values()),
        }
    elif ns.suite is None:
        raise UsageError("choose a suite (h0, theorem, lemma, relations, kunneth) or --all")
    else:
        report = _run_suite(ns)
        payload = {
            "command": f"verify {ns.suite}",
            "reports": {ns.suite: report},
            "pass": report["pass"],
        }
    _emit(_json_dumps(payload), ns.output)
    return 0 if payload["pass"] else 1


def cmd_counterexample(ns) -> int:
    if ns.which != "f18":
        raise UsageError("the only tabulated counterexample is f18")
    if ns.rank < 1:
        raise UsageError("f18 needs rank >= 1")
    _refuse_costly(8, ns.rank)
    report = f18_counterexample(ns.rank)
    expected_breakage = ns.rank >= 2
    ok = (
        report["map_well_defined"]
        and report["source_exponent"] <= 2
        and report["contains_order4"] == expected_breakage
        and report["map_is_iso"] == (not expected_breakage)
    )
    payload = {"command": "counterexample f18", "report": report, "pass": ok}
    _emit(_json_dumps(payload), ns.output)
    return 0 if ok else 1


def _refuse_transforms(rows: int, cols: int) -> None:
    """Refuse a matrix whose transforms are too large: U is rows x rows and
    V is cols x cols, however sparse the input.  Checked on the header's
    shape, before the body is read."""
    cells = rows * rows + rows * cols + cols * cols
    if cells > MAX_DIFFERENTIAL_CELLS:
        raise UsageError(
            f"a {rows} x {cols} matrix needs {cells:.2e} entries with its transforms; "
            f"the limit is {MAX_DIFFERENTIAL_CELLS:.0e}"
        )


def cmd_snf(ns) -> int:
    try:
        with open(ns.input) if ns.input != "-" else nullcontext(sys.stdin) as fh:
            # text is streamed into sparse rows, its shape refused before the
            # body is read; JSON is read whole
            matrix = la.mat_read(fh, check=_refuse_transforms)
    except (OSError, ValueError, KeyError) as exc:
        raise UsageError(f"cannot read matrix: {exc}")
    res = la.smith_normal_form(matrix)
    names = "DUV" if ns.output_dir or ns.transforms else "D"
    texts = (la.mat_to_text(*res.sparse(name)) for name in names)
    if ns.output_dir:
        os.makedirs(ns.output_dir, exist_ok=True)
        for name, text in zip(names, texts):
            with open(os.path.join(ns.output_dir, f"{name}.txt"), "w") as fh:
                fh.write(text)
    else:
        sys.stdout.writelines(texts)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


SUBCOMMANDS = ("table", "homology", "basis", "derived-sp", "verify", "counterexample", "snf")


def _build_parser(names=SUBCOMMANDS) -> argparse.ArgumentParser:
    """The parser with the named subcommands.  Its usage lists every
    subcommand whichever are built, so the top-level messages are the same."""
    parser = argparse.ArgumentParser(
        prog="derham",
        description="exact homology of divided-power de Rham complexes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    if names != SUBCOMMANDS:
        sub.metavar = "{" + ",".join(SUBCOMMANDS) + "}"

    def common(p):
        p.add_argument("--output", default=None, help="write to a file")
        p.add_argument("--jobs", type=int, default=None,
                       help="ignored; cells are evaluated in order")

    if "table" in names:
        p = sub.add_parser("table", help="homology table with expected values")
        p.add_argument("--max-n", type=int, default=DEFAULT_MAX_N)
        p.add_argument("--rank", type=int, default=DEFAULT_RANK)
        p.add_argument("--format", choices=("md", "json", "csv"), default="md")
        common(p)
        p.set_defaults(fn=cmd_table)

    if "homology" in names:
        p = sub.add_parser("homology", help="homology of one complex")
        p.add_argument("--family", choices=("C", "D"), required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--rank", type=int, required=True)
        p.add_argument("--degree", type=int, default=None)
        p.add_argument("--format", choices=("md", "json"), default="md")
        p.add_argument("--dump-matrices", default=None, metavar="DIR")
        common(p)
        p.set_defaults(fn=cmd_homology)

    if "basis" in names:
        p = sub.add_parser("basis", help="dump a monomial basis")
        p.add_argument("--functor", choices=("wedge", "sym", "gamma"), required=True)
        p.add_argument("--degree", type=int, required=True)
        p.add_argument("--rank", type=int, required=True)
        common(p)
        p.set_defaults(fn=cmd_basis)

    if "derived-sp" in names:
        p = sub.add_parser("derived-sp", help="derived symmetric power over F_p")
        p.add_argument("--i", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--p", type=int, required=True)
        p.add_argument("--rank", type=int, required=True)
        common(p)
        p.set_defaults(fn=cmd_derived_sp)

    if "verify" in names:
        p = sub.add_parser("verify", help="run a verification suite")
        p.add_argument("suite", nargs="?",
                       choices=("h0", "theorem", "lemma", "relations", "kunneth"))
        p.add_argument("--all", action="store_true", help="every suite at defaults")
        p.add_argument("--max-n", type=int, default=None)
        p.add_argument("--rank", type=int, default=None)
        p.add_argument("--p", type=int, default=None, help="single prime for lemma")
        common(p)
        p.set_defaults(fn=cmd_verify)

    if "counterexample" in names:
        p = sub.add_parser("counterexample", help="report a failing comparison")
        p.add_argument("which", choices=("f18",))
        p.add_argument("--rank", type=int, default=2)
        common(p)
        p.set_defaults(fn=cmd_counterexample)

    if "snf" in names:
        p = sub.add_parser("snf", help="Smith normal form of a matrix file")
        p.add_argument("input", help="matrix file, text or JSON (read whole), or - for stdin")
        p.add_argument("--transforms", action="store_true",
                       help="also print U and V")
        p.add_argument("--output-dir", default=None)
        p.set_defaults(fn=cmd_snf)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a command that names its subcommand first needs only that subparser
    named = argv[:1] if argv[:1] and argv[0] in SUBCOMMANDS else SUBCOMMANDS
    ns = _build_parser(named).parse_args(argv)
    try:
        return ns.fn(ns)
    except (UsageError, OSError) as exc:
        # a path that cannot be read or written is bad usage, not a mismatch
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
