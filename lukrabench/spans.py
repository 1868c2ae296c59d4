"""Spans of a traced job, and the arithmetic that turns them into per-layer
figures.

A span is [id, name, start, end, parent id]. Recursive hot functions do not get
a span per call: their outermost calls are summed per (name, parent) into
`hot`, and every call, recursive or not, is counted in `calls`. A span's self
time is its duration minus the durations of its child spans and hot entries.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict


class Recorder:
    """Keeps the spans and counts of one job in memory until `dump`."""

    def __init__(self, job: str):
        self.job = job
        self.spans: list[list] = []
        self.stack: list[int | None] = [None]
        self.hot: dict[tuple[str, int | None], list[float]] = {}
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)

    def span(self, name: str, fn, post=None):
        """Wrap fn in a span; post(args, result) may add counts afterwards."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            record = [len(spans), name, clock(), None, stack[-1]]
            spans.append(record)
            stack.append(record[0])
            try:
                out = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if post is not None:
                post(args, out)
            return out

        return traced

    def hot_span(self, name: str, fn):
        """Wrap a recursive fn: time its outermost calls, count every call."""
        calls, stack, clock = self.calls, self.stack, time.perf_counter
        active = [False]

        def traced(*args, **kwargs):
            calls[name] += 1
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = True
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                entry = self.hot.setdefault((name, stack[-1]), [0.0, 0])
                entry[0] += clock() - start
                entry[1] += 1
                active[0] = False

        return traced

    def counted(self, fn, pre=None, post=None):
        """Wrap fn without a span, only to count: pre(args) may return
        replacement args, post(args, result) adds counts."""
        def traced(*args, **kwargs):
            if pre is not None:
                args = pre(args)
            out = fn(*args, **kwargs)
            if post is not None:
                post(args, out)
            return out

        return traced

    def counted_iter(self, name: str, fn):
        """Wrap a generator function; count the items it yields."""
        counts = self.counts

        def traced(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return traced

    def dump(self, **extra) -> dict:
        return {
            "job": self.job,
            "spans": self.spans,
            "hot": [[name, parent, secs, outer] for (name, parent), (secs, outer) in self.hot.items()],
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            **extra,
        }


def self_times(spans, hot) -> dict[str, float]:
    """Total self time per span name: duration minus the children's part."""
    children: dict[int, float] = defaultdict(float)
    for _, _, start, end, parent in spans:
        if parent is not None:
            children[parent] += end - start
    for _, parent, secs, _ in hot:
        if parent is not None:
            children[parent] += secs
    out: dict[str, float] = defaultdict(float)
    for sid, name, start, end, _ in spans:
        out[name] += (end - start) - children[sid]
    for name, _, secs, _ in hot:
        out[name] += secs
    return dict(out)


# Spans whose summed self time is a per-layer metric "<name>.self_s".
SELF_TIMED = [
    "freealg.build_free", "freealg.size_formula", "freealg.minimal_elements",
    "filters.all_filters", "filters.quotient", "filters.subdirect_embedding",
    "filters.classify_simple",
    "algebra.homomorphisms", "algebra.product", "algebra.subalgebra_closure",
    "algebra.delta_admissible",
    "laws.check_property_suite", "laws.check_LRdelta_quasi",
    "formulas.eval_formula", "formulas.parse",
    "logic.theorem_suite", "logic.is_tautology",
    "proofs.check_proof", "fo.fo_eval",
]
# Counts the shim adds up, each a per-layer metric of unit "count".
COUNTS = [
    "freealg.elements", "freealg.table_entries", "freealg.coords",
    "filters.upsets_tried", "filters.filters_found",
    "algebra.homomorphisms.candidates", "algebra.homomorphisms.found",
    "algebra.FiniteAlgebra.table_entries", "laws.assignments",
    "logic.sweep_evals", "formulas.parse.nodes", "proofs.lines",
]
VERDICTS = ("logic.is_tautology", "logic.consequence")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(dumps: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer figures of one traced batch: sums over its jobs, except the
    per-job medians cli.spawn_s and cli.import_s."""
    selfs: dict[str, float] = defaultdict(float)
    spans_named: dict[str, int] = defaultdict(int)
    calls: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    for d in dumps:
        for name, secs in self_times(d["spans"], d["hot"]).items():
            selfs[name] += secs
        for span in d["spans"]:
            spans_named[span[1]] += 1
        for name, n in d["calls"].items():
            calls[name] += n
        for name, n in d["counts"].items():
            counts[name] += n
    out: dict[str, tuple[float, str]] = {
        "cli.spawn_s": (statistics.median(d["spawn_s"] for d in dumps), "s"),
        "cli.import_s": (statistics.median(d["import_s"] for d in dumps), "s"),
        "cli.load_s": (selfs["cli.load"], "s"),
        "cli.emit_s": (selfs["cli.emit"], "s"),
        "cli.bytes_in": (sum(d["bytes_in"] for d in dumps), "B"),
        "cli.bytes_out": (sum(d["bytes_out"] for d in dumps), "B"),
    }
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = (selfs[name], "s")
    for name in COUNTS:
        out[name] = (counts[name], "count")
    out["filters.all_filters.calls"] = (spans_named["filters.all_filters"], "count")
    out["formulas.eval_formula.calls"] = (calls["formulas.eval_formula"], "count")
    out["fo.eval_term.calls"] = (calls["fo.eval_term"], "count")
    out["filters.filter_yield"] = (
        _ratio(counts["filters.filters_found"], counts["filters.upsets_tried"]), "ratio")
    out["algebra.homomorphisms.hit_ratio"] = (
        _ratio(counts["algebra.homomorphisms.found"], counts["algebra.homomorphisms.candidates"]),
        "ratio")
    out["logic.evals_per_verdict"] = (
        _ratio(counts["logic.sweep_evals"], sum(spans_named[v] for v in VERDICTS)), "count")
    return out
