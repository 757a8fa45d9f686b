"""In-memory span tracer that wraps mishit's public layer functions.

Each layer is a span name over one or more public functions.  ``install``
replaces every reference to those functions in every loaded ``mishit``
module namespace (for example ``mishit.process.alpha_induced`` as well as
``mishit.graph.alpha_induced``), so calls are caught whichever import the
caller used; ``uninstall`` puts the originals back.  Spans carry the task
id and the parent span, are kept in memory, and are written out at the
end.  A span's self time is its duration minus that of its direct children.

Work counts are taken at the same boundary from arguments and results.
Counts marked "computed" in NOTES.md (scan word passes, DP cells) are sizes
derived from the arguments, not counters inside the program.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _family_size(args, kwargs, result):
    family = _arg(args, kwargs, 0, "family")
    return {"sets": len(getattr(family, "sets", family))}


def _scan_passes(args, kwargs, result):
    code = _arg(args, kwargs, 0, "code")
    return {"word_passes": len(code.words) << code.m}


def _trials(args, kwargs, result):
    return {"trials": getattr(result, "trials_used", 0)}  # the Hadamard code has no trials


# (span name, defining module, public functions, work counter)
LAYERS = (
    ("graph.solve", "mishit.graph", ("alpha", "alpha_induced", "maximum_independent_set"), None),
    ("graph.enumerate", "mishit.graph", ("enumerate_mis",), lambda a, k, r: {"sets": len(r)}),
    ("graph.random_graph", "mishit.graph", ("random_graph",), None),
    ("graph.io", "mishit.graph", ("load_graph", "save_graph"), None),
    ("families.build", "mishit.families",
     ("build_shift_graph", "shift_mis_family", "shift_cycle_hitting_set",
      "build_hamming_graph", "hamming_mis_family"), None),
    ("hitting.min_hitting_set", "mishit.hitting", ("min_hitting_set",), _family_size),
    ("hitting.h_of_graph", "mishit.hitting", ("h_of_graph",), None),
    ("hitting.code_search", "mishit.hitting", ("min_covering_code_search",), None),
    ("hitting.scan", "mishit.hitting", ("covering_radius", "find_far_point"), _scan_passes),
    ("hitting.code_build", "mishit.hitting",
     ("build_hadamard_covering_code", "build_random_covering_code"), _trials),
    ("hajnal.kernel_corona", "mishit.hajnal", ("kernel_corona",), None),
    ("hajnal.random_corpus", "mishit.hajnal", ("random_corpus_check",), None),
    ("hajnal.exhaustive", "mishit.hajnal", ("exhaustive_corpus_check",),
     lambda a, k, r: {"graphs": r.checked}),
    ("hajnal.rows", "mishit.hajnal", ("exhaustive_corpus_rows",), None),
    ("process.dp", "mishit.process", ("alpha_prime_exact",),
     lambda a, k, r: {"cells": 1 << _arg(a, k, 0, "g").n}),
    ("process.mc", "mishit.process", ("alpha_prime_mc",),
     lambda a, k, r: {"samples": _arg(a, k, 1, "samples")}),
    ("process.deletion", "mishit.process", ("run_deletion_process",),
     lambda a, k, r: {"steps": len(r.steps)}),
    ("process.stats", "mishit.process", ("success_statistics",), None),
    ("parallel.map", "mishit.parallel", ("parallel_map",),
     lambda a, k, r: {"items": len(_arg(a, k, 1, "items"))}),
)
GENERATORS = frozenset({"exhaustive_corpus_rows"})
SOLVE = "graph.solve"


def _solve_key(fn_name, args, kwargs):
    """(n, adjacency, vertex set) of a solve: equal keys are the same question."""
    g = _arg(args, kwargs, 0, "g")
    if fn_name == "alpha_induced":
        within = _arg(args, kwargs, 1, "within")
        bits = getattr(within, "bits", within)
    else:
        bits = (1 << g.n) - 1
    return g.n, g.adj, bits


class Tracer:
    """Spans as [name, parent, task, start, end, counts] lists, in call order."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._task: str | None = None
        self._solved: set = set()
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, parent, self._task, time.perf_counter(), None, {}])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, counts: dict) -> None:
        span = self.spans[sid]
        span[4] = time.perf_counter()
        span[5] = counts
        self._stack.pop()

    @contextmanager
    def task(self, task_id: str, kind: str = "cli"):
        """Root span of one task; solve repeats are judged within it."""
        self._task = task_id
        self._solved = set()
        sid = self._open(kind)
        try:
            yield
        finally:
            self._close(sid, {})
            self._task = None

    def _wrap(self, name, fn_name, fn, counter):
        tracer = self

        if fn_name in GENERATORS:
            # the span runs from the first item to exhaustion; the CLI consumes
            # the generator in one extend() call, so nothing interleaves
            def generator_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                sid = tracer._open(name)
                try:
                    yield from inner
                finally:
                    tracer._close(sid, {})

            return generator_wrapper

        def wrapper(*args, **kwargs):
            counts = {}
            if name == SOLVE:
                key = _solve_key(fn_name, args, kwargs)
                counts["repeat"] = int(key in tracer._solved)
                tracer._solved.add(key)
            sid = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(sid, counts)
                raise
            if counter is not None:
                counts.update(counter(args, kwargs, result))
            tracer._close(sid, counts)
            return result

        return wrapper

    def install(self) -> None:
        mishit_modules = [
            mod for mod_name, mod in sorted(sys.modules.items())
            if mod is not None and (mod_name == "mishit" or mod_name.startswith("mishit."))
        ]
        for name, home, fn_names, counter in LAYERS:
            for fn_name in fn_names:
                original = getattr(sys.modules[home], fn_name)
                wrapper = self._wrap(name, fn_name, original, counter)
                for mod in mishit_modules:
                    if getattr(mod, fn_name, None) is original:
                        self._patches.append((mod, fn_name, original))
                        setattr(mod, fn_name, wrapper)

    def uninstall(self) -> None:
        for mod, fn_name, original in reversed(self._patches):
            setattr(mod, fn_name, original)
        self._patches.clear()

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - c for (_, _, _, start, end, _), c in zip(self.spans, child)]

    def write_jsonl(self, path, t0: float) -> None:
        """One span per line; times in seconds since ``t0``."""
        selfs = self.self_times()
        with open(path, "w") as fh:
            for sid, ((name, parent, task, start, end, counts), self_s) in enumerate(zip(self.spans, selfs)):
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "task": task, "name": name,
                    "start_s": start - t0, "dur_s": end - start, "self_s": self_s, **counts,
                }) + "\n")


def layer_totals(tracer: Tracer, spans: slice) -> tuple[dict, dict]:
    """Per span name and per task: calls, self seconds, summed work counts.

    ``spans`` selects the spans of one pass, so one tracer can hold several.
    """
    by_name: dict[str, dict] = defaultdict(lambda: defaultdict(int))
    by_task: dict[str, dict] = defaultdict(lambda: defaultdict(int))
    selfs = tracer.self_times()
    for (name, _, task, start, end, counts), self_s in zip(tracer.spans[spans], selfs[spans]):
        agg = by_name[name]
        agg["calls"] += 1
        agg["self_s"] += self_s
        for key, value in counts.items():
            agg[key] += value
        if name == SOLVE and counts.get("repeat"):
            agg["repeat_s"] += end - start
        if task is not None:
            per = by_task[task]
            per[f"{name}.calls"] += 1
            if name == SOLVE and counts.get("repeat"):
                per["graph.solve.repeats"] += 1
                per["graph.solve.repeat_s"] += end - start
    return by_name, by_task
