"""Per-layer spans around calls into the program's public functions.

A traced command process installs a Tracer after ``import derham.cli`` and
before ``main`` runs.  The program's modules bind names with
``from .x import f``, so each function is replaced in every derham module
namespace that holds it, and each method on its class.  A span records its
layer, start, end, parent span and run id; spans stay in memory and are
summarised once, when the command returns.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

NAME, START, END, PARENT, RUN = range(5)

# Bookkeeping done by a wrapper after its span closes; a sibling span of
# this name keeps it out of the caller's self time.
BOOKKEEPING = "trace"


def max_bits(mats) -> int:
    """Bit length of the largest absolute entry over integer matrices."""
    out = 0
    for m in mats:
        if m.size:
            out = max(out, abs(int(m.max())).bit_length(), abs(int(m.min())).bit_length())
    return out


def _snf_counts(args, result) -> dict:
    a = np.asarray(args[0])
    mats = [result.U, result.D, result.V] if hasattr(result, "U") else [np.asarray(result, dtype=object)]
    return {
        "intlinalg.snf.cells": a.size,
        "intlinalg.snf.nnz": int(np.count_nonzero(a)),
        "intlinalg.snf.max_bits": max_bits(mats),
    }


def _io_counts(args, result) -> dict:
    text = result if isinstance(result, str) else args[0]
    return {"intlinalg.io.bytes": len(text)}


def _eta_counts(args, result) -> dict:
    return {"comparison.eta.terms": sum(1 for c in result.values() if c)}


def _relation_counts(args, result) -> dict:
    return {"comparison.relations.checks": result.total_checked}


def _lemma_counts(args, result) -> dict:
    return {"numtheory.lemma.checks": result["checked"]}


# (layer, module, attribute, counter, lru-cached)
LAYERS = (
    ("cli", "derham.cli", "main", None, False),
    ("bases.enumerate_basis", "derham.bases", "enumerate_basis", None, False),
    ("complexes.build", "derham.complexes", "build_C", None, True),
    ("complexes.build", "derham.complexes", "build_D", None, True),
    ("complexes.presentation", "derham.complexes", "ComplexHomology.presentation", None, False),
    ("complexes.kunneth", "derham.complexes", "kunneth_check", None, False),
    ("intlinalg.snf", "derham.intlinalg", "smith_normal_form", _snf_counts, False),
    ("intlinalg.snf", "derham.intlinalg", "snf_diagonal", _snf_counts, False),
    ("intlinalg.solver", "derham.intlinalg", "LinearSolver.__init__", None, False),
    ("intlinalg.solve", "derham.intlinalg", "LinearSolver.solve", None, False),
    ("intlinalg.iso", "derham.intlinalg", "presented_map_is_iso", None, False),
    ("intlinalg.cokernel", "derham.intlinalg", "invariants_of_cokernel", None, False),
    ("intlinalg.io", "derham.intlinalg", "mat_parse", _io_counts, False),
    ("intlinalg.io", "derham.intlinalg", "mat_to_text", _io_counts, False),
    ("koszul", "derham.koszul", "generator_presentation", None, False),
    ("koszul", "derham.koszul", "derived_sp", None, False),
    ("comparison.eta", "derham.comparison", "eta_vector", _eta_counts, False),
    ("comparison.theorem_block", "derham.comparison", "theorem_block", None, True),
    ("comparison.relations", "derham.comparison", "verify_q_relations", _relation_counts, False),
    ("comparison.h0", "derham.comparison", "q_matrix", None, False),
    ("comparison.h0", "derham.comparison", "verify_h0_iso", None, False),
    ("numtheory.lemma", "derham.numtheory", "sweep_binomial_lemma", _lemma_counts, False),
    ("abelian.expected", "derham.abelian", "expected_table_entry", None, False),
    ("abelian.expected", "derham.abelian", "expected_h0", None, False),
)


def merge(total: dict, extra: dict) -> None:
    """Add counters into total; a ``.max_bits`` counter keeps the largest."""
    for key, value in extra.items():
        if key.endswith(".max_bits"):
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its child spans' intervals."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for k, span in enumerate(spans):
        covered, reach = 0.0, span[START]
        for a, b in sorted(children[k]):
            a, b = max(a, reach), min(b, span[END])
            if b > a:
                covered += b - a
                reach = b
        out.append(span[END] - span[START] - covered)
    return out


def summarize(spans, counts: dict) -> dict:
    """Layer metrics of one command: self seconds and calls per layer, the
    counters, and ``covered``, the time inside the top-level layer spans
    (the children of the ``cli`` span)."""
    out = defaultdict(int, counts)
    roots = {k for k, s in enumerate(spans) if s[NAME] == "cli"}
    for span, self_s in zip(spans, self_times(spans)):
        name = span[NAME]
        if name == BOOKKEEPING:
            continue
        out["cli.self_s" if name == "cli" else f"{name}.s"] += self_s
        out[f"{name}.calls"] += 1
        if span[PARENT] in roots:
            out["covered"] += span[END] - span[START]
    return dict(out)


class Tracer:
    """Records spans for one command process (one run id)."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict = {}
        self.caches: list[tuple[str, object]] = []

    def wrap(self, layer: str, fn, counter=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            idx = len(spans)
            spans.append([layer, clock(), None, parent, self.run_id])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][END] = clock()
                stack.pop()
            if counter is not None:
                t0 = clock()
                merge(self.counts, counter(args, result))
                spans.append([BOOKKEEPING, t0, clock(), parent, self.run_id])
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "derham" or name.startswith("derham.")]
        for layer, modname, attr, counter, cached in LAYERS:
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self.wrap(layer, cls.__dict__[meth], counter))
                continue
            orig = getattr(mod, attr)
            traced = self.wrap(layer, orig, counter)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, traced)
            if cached:
                self.caches.append((layer, orig))

    def summary(self) -> dict:
        counts = dict(self.counts)
        for layer, orig in self.caches:
            info = orig.cache_info()
            merge(counts, {f"{layer}.cache_hits": info.hits, f"{layer}.cache_misses": info.misses})
        return summarize(self.spans, counts)
