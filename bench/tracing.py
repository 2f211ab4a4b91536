"""Spans recorded from outside diolab, and the per-layer metrics derived from them.

A layer is timed by rebinding one of its public names in the namespace of
the module that calls it (``diolab.regions.gap_multiset`` times arith as
seen from regions) to a wrapper that records a span, and by restoring the
original afterwards.  Nothing under ``src/`` knows it is being traced.

A span is ``(id, name, start, end, parent_id)`` with ``perf_counter``
times.  The parent is the innermost open span of the same thread, so calls
made on diolab's worker threads start new roots.  Spans stay in memory until
the run ends.  A span's self time is its duration minus the time covered by
its direct children.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict

# (owner, attribute, span name, note).  The owner is the module, or class,
# whose namespace the caller looks the name up in; note names a counter fed
# from each call's result.
LAYER_PATCHES = (
    ("diolab.cli", "run_dichotomy_scan", "harness.run_dichotomy_scan", None),
    ("diolab.harness", "estimate_union_measure", "sampler.estimate_union_measure", None),
    ("diolab.sampler", "sample_points", "sampler.sample_points", "points"),
    ("diolab.sampler", "nearest_coprime_distance", "sampler.coprime_fallback", None),
    ("diolab.psi.PowerLog", "values", "psi.values", None),
    ("diolab.psi.TablePsi", "values", "psi.values", None),
    ("diolab.psi.IndicatorSupport", "values", "psi.values", None),
    ("diolab.psi.ConditionalPsi", "values", "psi.values", None),
    ("diolab.psi.PadicWeightedPsi", "values", "psi.values", None),
    ("diolab.psi", "default_phi_table", "arith.default_phi_table", "phi_limit"),
    ("diolab.regions", "radical", "arith.radical", None),
    ("diolab.regions", "gap_multiset", "arith.gap_multiset", None),
    ("diolab.regions", "coprime_dist_cdf", "regions.coprime_dist_cdf", None),
    ("diolab.harness", "slice_union", "regions.slice_union", None),
    ("diolab.regions.IntervalUnion", "intersection_measure", "regions.intersection_measure", None),
)

# counter name -> (how to read a number off a call's result, how to combine)
NOTES = {
    "points": (lambda result: result.shape[0], lambda old, new: old + new),
    "phi_limit": (lambda result: result.limit, max),
}


def resolve(path: str):
    """The module or class named by a dotted path such as ``diolab.psi.PowerLog``."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            owner = getattr(owner, attr)
        return owner
    raise ModuleNotFoundError(path)


class NullTracer:
    """Stands in for Tracer when tracing is off: phases cost nothing."""

    def span(self, name):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.counts: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._count_lock = threading.Lock()  # diolab's worker threads feed the counters too
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent))

    def _wrap(self, fn, name: str, note: str | None):
        # span() inlined: some layers are called tens of thousands of times for
        # a few microseconds each, and a generator per call would swamp them
        spans, stack_of, ids, counts, lock = self.spans, self._stack, self._ids, self.counts, self._count_lock
        read, combine = NOTES[note] if note else (None, None)

        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent))
            if read is not None:
                value = read(result)
                with lock:
                    counts[note] = combine(counts[note], value) if note in counts else value
            return result

        return traced

    def patch(self, owner, attr: str, name: str, note: str | None = None) -> None:
        original = vars(owner)[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, note))

    def restore(self) -> None:
        """Put every rebound name back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def patched(self, own_module, own_calls: dict[str, str]):
        """Rebind the package's layer names and the caller's own diolab names."""
        try:
            for owner, attr, name, note in LAYER_PATCHES:
                self.patch(resolve(owner), attr, name, note)
            for attr, name in own_calls.items():
                self.patch(own_module, attr, name)
            yield self
        finally:
            self.restore()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent"], "spans": self.spans,
                       "counts": self.counts}, fh)


class SpanIndex:
    """Lookups over a finished list of spans."""

    def __init__(self, spans):
        self.spans = sorted(spans)  # by id, so every parent precedes its children
        self.kids: dict[int, list] = defaultdict(list)
        self.phase: dict[int, str] = {0: ""}
        self.above: dict[int, frozenset] = {0: frozenset()}
        for sid, name, _, _, parent in self.spans:
            self.kids[parent].append(sid)
        by_id = {s[0]: s for s in self.spans}
        self.by_id = by_id
        for sid, name, _, _, parent in self.spans:
            self.phase[sid] = name if name.startswith("phase.") else self.phase[parent]
            pname = by_id[parent][1] if parent else None
            self.above[sid] = self.above[parent] | {pname} if pname else self.above[parent]

    def named(self, name: str, phase: str | None = None, outermost: bool = False) -> list:
        out = [s for s in self.spans if s[1] == name]
        if phase is not None:
            out = [s for s in out if self.phase[s[0]] == phase]
        if outermost:
            out = [s for s in out if name not in self.above[s[0]]]
        return out

    def self_time(self, span) -> float:
        kids = self.kids.get(span[0], ())
        return (span[3] - span[2]) - sum(self.by_id[k][3] - self.by_id[k][2] for k in kids)


def total(spans) -> float:
    return sum(s[3] - s[2] for s in spans)


def layer_metrics(spans, counts: dict, extra: dict) -> dict[str, float]:
    """Every per-layer metric; a layer a workload never calls reads 0."""
    ix = SpanIndex(spans)
    m: dict[str, float] = {}

    cli = ix.named("cli.main")
    scans = ix.named("harness.run_dichotomy_scan")
    for tag in ("w1", "w2"):
        m[f"cli.experiment_{tag}_s"] = total(ix.named("cli.main", phase=f"phase.{tag}"))
    m["cli.emit_s"] = sum(ix.self_time(s) for s in cli)
    m["cli.bytes_written"] = extra.get("cli_bytes_written", 0)
    m["harness.run_dichotomy_scan_s"] = total(scans)
    m["harness.self_s"] = sum(ix.self_time(s) for s in scans)

    eum_w1 = ix.named("sampler.estimate_union_measure", phase="phase.w1")
    eum_w2 = ix.named("sampler.estimate_union_measure", phase="phase.w2")
    for entry, span in zip(extra.get("battery_entries", ()), eum_w1):
        m[f"sampler.estimate_union_measure.{entry}_s"] = span[3] - span[2]
    for entry in ("tail", "divergent", "max3"):
        m.setdefault(f"sampler.estimate_union_measure.{entry}_s", 0.0)
    m["sampler.w2_over_w1"] = total(eum_w2) / total(eum_w1) if eum_w1 else 0.0
    sp = ix.named("sampler.sample_points")
    fb = ix.named("sampler.coprime_fallback")
    points = counts.get("points", 0)
    m["sampler.sample_points.calls"] = len(sp)
    m["sampler.sample_points_s"] = total(sp)
    m["sampler.points"] = points
    m["sampler.coprime_fallback.calls"] = len(fb)
    m["sampler.coprime_fallback_s"] = total(fb)
    m["sampler.coprime_fallback_per_sample"] = len(fb) / points if points else 0.0
    m["sampler.scan_self_s"] = sum(ix.self_time(s) for s in eum_w1)

    vals = ix.named("psi.values", outermost=True)
    m["psi.values.calls"] = len(vals)
    m["psi.values_s"] = total(vals)

    for layer in ("arith.radical", "arith.gap_multiset", "regions.coprime_dist_cdf"):
        found = ix.named(layer)
        m[f"{layer}.calls"] = len(found)
        m[f"{layer}_s"] = total(found)
    lookups = m["regions.coprime_dist_cdf.calls"]
    m["regions.law_cache_hit_ratio"] = 1.0 - m["arith.gap_multiset.calls"] / lookups if lookups else 0.0
    for n in (2, 3):
        law = ix.named("regions.product_region_measure_coprime", phase=f"phase.n{n}")
        m[f"regions.product_law_n{n}_s"] = sum(ix.self_time(s) for s in law)
        if n == 3:
            m["regions.product_law_n3.calls"] = len(law)

    m["arith.default_phi_table_s"] = total(ix.named("arith.default_phi_table"))
    m["arith.phi_table_bytes"] = 8 * (counts["phi_limit"] + 1) if "phi_limit" in counts else 0
    sums = ix.named("psi.cond1_scan") + ix.named("psi.partial_sum_scan")
    m["psi.cond1_scan_s"] = total(ix.named("psi.cond1_scan"))
    m["psi.partial_sum_scan_s"] = total(ix.named("psi.partial_sum_scan"))
    m["psi.self_s"] = sum(ix.self_time(s) for s in sums)

    for layer in ("regions.slice_union", "regions.intersection_measure",
                  "borel_cantelli.bc_lower_bound", "fibering.cross_fibering_check"):
        found = ix.named(layer)
        m[f"{layer}.calls"] = len(found)
        m[f"{layer}_s"] = total(found)
    m["regions.truncated_union_float_s"] = total(ix.named("regions.truncated_union_1d", phase="phase.bc"))
    m["regions.truncated_union_exact_s"] = total(ix.named("regions.truncated_union_1d", phase="phase.fraction"))
    return m
