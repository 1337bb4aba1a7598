"""Per-layer tracing from outside the library.

Hooks replace the attribute a caller resolves at call time (a module global
or a class method) with a wrapper that records a span: name, start, end,
parent and request id.  Self time is a span's duration minus the time its
child spans cover, wrappers included, so tracing cost lands in no layer's
self time; it is tallied per request as overhead instead.  Hot spans are
folded into per-request (name, parent) -> count/total/self aggregates so a
trace fits in memory.  A hook whose target does not exist is reported as
absent and does not fail the run.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

# (span name, module, class or None, attribute, observer)
# The module globals are the bindings the callers resolve: dictmatch imported
# compute_period and least_rotation from strings1d, so patching strings1d
# alone would miss them.
HOOKS = (
    ("strings1d.compute_period", "dictmatch", None, "compute_period", "chars"),
    ("strings1d.least_rotation", "dictmatch", None, "least_rotation", None),
    ("strings1d.summarize_row", "dictmatch", None, "summarize_row", None),
    ("strings1d.summarize_row", "classify", None, "summarize_row", None),
    ("strings1d.registry.get", "strings1d", "NameRegistry", "get", "get"),
    ("strings1d.registry.intern", "strings1d", "NameRegistry", "intern", "intern"),
    ("lw2d.add_row", "lw2d", "TwoDLWBuilder", "add_row", "add_row"),
    ("lw2d.alg2_2dlw", "classify", None, "alg2_2dlw", None),
    ("dictmatch.build_index", "dictmatch", None, "build_index", None),
    ("dictmatch.search_text", "dictmatch", None, "search_text", None),
    ("dictmatch.verify_candidate", "dictmatch", None, "verify_candidate", "verify"),
    ("classify.classify_matrix", "classify", None, "classify_matrix", None),
    ("classify.query", "classify", None, "longest_suffix_prefix", "query"),
    ("classify.query", "classify", None, "conjugacy_shift", "query"),
    ("workbench.read_matrix_file", "workbench", None, "read_matrix_file", "bytes"),
)

# Spans called thousands of times per request; the rest are kept one by one.
FOLDED = {
    "strings1d.compute_period",
    "strings1d.least_rotation",
    "strings1d.summarize_row",
    "strings1d.registry.get",
    "strings1d.registry.intern",
    "lw2d.add_row",
    "dictmatch.verify_candidate",
    "classify.query",
}


class Tracer:
    """Span stack, folded aggregates, boundary counts and per-request overhead."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # frames: [name, child_ns]
        self.request = -1
        self.spans: list[tuple] = []  # (request, name, parent, start_ns, end_ns)
        self.folded: dict[tuple, list[int]] = {}  # (request, name, parent) -> [n, total, self]
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.overhead_ns: dict[int, int] = defaultdict(int)
        self.request_ns: dict[int, int] = {}
        self.dictmatch_calls = 0
        self.absent: list[str] = []
        self.installed: set[str] = set()
        self._restore: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _close(self, name, frame, parent, start, end):
        dur = end - start
        own = dur - frame[1]
        parent_name = parent[0] if parent is not None else None
        self.self_ns[name] += own
        self.calls[name] += 1
        if name in FOLDED:
            key = (self.request, name, parent_name)
            agg = self.folded.get(key)
            if agg is None:
                self.folded[key] = [1, dur, own]
            else:
                agg[0] += 1
                agg[1] += dur
                agg[2] += own
        else:
            self.spans.append((self.request, name, parent_name, start, end))

    def begin_request(self, request_id: int) -> None:
        self.request = request_id
        self.stack.append(["request", 0])
        self._request_start = time.perf_counter_ns()

    def end_request(self) -> None:
        end = time.perf_counter_ns()
        frame = self.stack.pop()
        self.request_ns[self.request] = end - self._request_start
        self._close("request", frame, None, self._request_start, end)

    # -- hooks -----------------------------------------------------------

    def _wrap(self, fn, name: str, observer: str | None, via_dictmatch: bool):
        tracer = self
        stack = self.stack
        clock = time.perf_counter_ns
        overhead = self.overhead_ns
        counts = self.counts

        def wrapper(*args, **kwargs):
            entered = clock()
            parent = stack[-1] if stack else None
            frame = [name, 0]
            if via_dictmatch:
                tracer.dictmatch_calls += 1
            before = None
            if observer == "intern":
                before = len(args[0])
            elif observer == "add_row":
                prefix = getattr(args[0], "lcm_prefix", None)
                if prefix:
                    counts["add_row.later"] += 1
                    if prefix[-1] % args[1] == 0:
                        counts["add_row.divisible"] += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            if observer == "chars":
                counts["compute_period.chars"] += len(args[0])
            elif observer == "get":
                counts["get.misses"] += result is None
            elif observer == "intern":
                counts["intern.new"] += len(args[0]) > before
            elif observer == "verify":
                window, group = args[0], args[1]
                head_split = getattr(group, "r", 0) < len(getattr(window, "periods", ()))
                counts["candidates.head_split" if head_split else "candidates.degenerate"] += 1
                counts["hits"] += len(result)
                counts["hit_calls"] += bool(result)
            elif observer == "query":
                counts["query.match"] += result is not None
            elif observer == "bytes":
                counts["read.bytes"] += os.path.getsize(args[0])
            tracer._close(name, frame, parent, start, end)
            left = clock()
            overhead[tracer.request] += (left - entered) - (end - start)
            if parent is not None:
                parent[1] += left - entered
            return result

        return wrapper

    def install(self, modules: dict) -> None:
        """Wrap every hook target that exists; record the others as absent."""
        for name, mod_name, cls_name, attr, observer in HOOKS:
            owner = modules.get(mod_name)
            if owner is not None and cls_name is not None:
                owner = getattr(owner, cls_name, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.absent.append(f"{mod_name}.{cls_name + '.' if cls_name else ''}{attr}")
                continue
            wrapped = self._wrap(fn, name, observer, mod_name == "dictmatch")
            self.installed.add(name)
            self._restore.append((owner, attr, fn))
            setattr(owner, attr, wrapped)

    def absent_spans(self) -> set[str]:
        """Span names none of whose hook targets exist."""
        return {hook[0] for hook in HOOKS} - self.installed

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)

    # -- output ----------------------------------------------------------

    def dump(self) -> dict:
        """Spans and folded aggregates, as written to the trace file."""
        return {
            "spans": [
                {"request": r, "name": n, "parent": p, "start_ns": s, "end_ns": e}
                for r, n, p, s, e in self.spans
            ],
            "folded": [
                {"request": r, "name": n, "parent": p, "count": c, "total_ns": t, "self_ns": o}
                for (r, n, p), (c, t, o) in self.folded.items()
            ],
            "overhead_ns": dict(self.overhead_ns),
            "absent": self.absent,
        }
