"""Span recording around the program's layer entry points.

The traced benchmark run (``--trace 1``) wraps the public entry point of
each layer -- ``compile_source``, ``trace_to_file``, the columnar block
decoder, ``AutoCheck.run`` / ``cache_key``, the static loop analysis, the
artifact store and the serve daemon's handlers -- with a span recorder.
Nothing inside the program is edited: the wrappers replace module and class
attributes at the call sites the program itself looks up, and ``install``
returns the function that puts the originals back.

A span records its name, start and end (``time.perf_counter``, which is
``CLOCK_MONOTONIC`` on Linux and so comparable across the benchmark and the
daemon process), its parent span, the request it belongs to and a few
counts.  Spans stay in memory until the run ends.  :func:`layer_metrics`
turns the spans of both processes into the per-layer metrics; a span's self
time is its duration minus the part of it that its children cover.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple


class Recorder:
    """In-memory span store with a per-thread parent stack."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.enabled = True
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._prefix = f"{os.getpid()}:"
        #: modules traced under a span, re-run without a sink afterwards
        self.traced_modules: List[Tuple[Any, str]] = []

    def _stack(self) -> List[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def request(self, request_id: Optional[str]) -> Iterator[None]:
        """Tag the spans this thread opens with ``request_id``."""
        previous = getattr(self._local, "request", None)
        self._local.request = request_id
        try:
            yield
        finally:
            self._local.request = previous

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Optional[Dict[str, Any]]]:
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        with self._lock:
            self._next_id += 1
            span_id = f"{self._prefix}{self._next_id}"
        span = {"id": span_id, "name": name,
                "parent": stack[-1]["id"] if stack else None,
                "request": getattr(self._local, "request", None),
                "start": time.perf_counter(), "end": 0.0, "attrs": attrs}
        stack.append(span)
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)

    def rerun_untraced(self) -> None:
        """Run every traced module again without a trace sink.

        The gap between ``tracer.trace`` and ``tracer.untraced`` spans over
        the same modules is the cost of emitting the trace.
        """
        from repro.tracer.driver import compile_and_run

        modules, self.traced_modules = self.traced_modules, []
        for module, name in modules:
            with self.request(name), self.span("tracer.untraced"):
                compile_and_run(module)


def _timed(recorder: Recorder, name: str, fn: Callable[..., Any],
           after: Optional[Callable[..., None]] = None) -> Callable[..., Any]:
    """``fn`` inside a span; ``after(span, result, args, kwargs)`` may add
    counts to the span."""
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with recorder.span(name) as span:
            result = fn(*args, **kwargs)
            if span is not None and after is not None:
                after(span, result, args, kwargs)
        return result
    return wrapper


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every layer entry point; return the undo function."""
    from repro.codegen import lowering
    from repro.core import pipeline
    from repro.core.pipeline import AutoCheck
    from repro.serve import server
    from repro.store import cache
    from repro.store.cache import ArtifactStore
    from repro.trace.binio import read_layout
    from repro.trace.columnar import TraceColumnarReader
    from repro.tracer import driver

    undo: List[Tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, wrapper: Callable[..., Any]) -> None:
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def after_trace(span, result, args, kwargs) -> None:
        module, path = args[0], args[1]
        span["attrs"]["bytes"] = result[0]
        span["attrs"]["records"] = read_layout(path).record_count
        recorder.traced_modules.append(
            (module, kwargs.get("module_name", "module")))

    def after_run(span, report, args, kwargs) -> None:
        info = report.cache_info
        if info is not None and info.hit:
            return
        timings = report.timings
        span["attrs"]["fused_s"] = timings.get("fused_analysis")
        span["attrs"]["identify_s"] = timings.get("identify_variables")
        span["attrs"]["records"] = timings.get_count("fused_analysis")

    def after_load(span, report, args, kwargs) -> None:
        span["attrs"]["hit"] = int(report is not None)

    def after_publish(span, path, args, kwargs) -> None:
        span["attrs"]["bytes"] = os.path.getsize(path)

    iter_blocks = TraceColumnarReader.__dict__["iter_blocks"]

    def timed_iter_blocks(self, *args: Any, **kwargs: Any):
        blocks = iter_blocks(self, *args, **kwargs)
        while True:
            with recorder.span("trace.decode") as span:
                try:
                    block = next(blocks)
                except StopIteration:
                    return
                if span is not None:
                    span["attrs"]["records"] = block.count
            yield block

    patch(lowering, "compile_source",
          _timed(recorder, "codegen.compile", lowering.compile_source))
    patch(driver, "trace_to_file",
          _timed(recorder, "tracer.trace", driver.trace_to_file, after_trace))
    patch(TraceColumnarReader, "iter_blocks", timed_iter_blocks)
    patch(AutoCheck, "run",
          _timed(recorder, "core.run", AutoCheck.run, after_run))
    patch(AutoCheck, "cache_key",
          _timed(recorder, "store.address", AutoCheck.cache_key))
    for name in ("find_loops", "find_induction_variable"):
        patch(pipeline, name, _timed(recorder, "analysis.induction",
                                     getattr(pipeline, name)))
    patch(ArtifactStore, "load",
          _timed(recorder, "store.load", ArtifactStore.load, after_load))
    patch(ArtifactStore, "store",
          _timed(recorder, "store.publish", ArtifactStore.store,
                 after_publish))
    patch(cache, "report_from_dict",
          _timed(recorder, "store.deserialize", cache.report_from_dict))
    patch(cache, "report_to_dict",
          _timed(recorder, "store.serialize", cache.report_to_dict))
    patch(server, "canonical_report_json",
          _timed(recorder, "store.serialize", server.canonical_report_json))

    def restore() -> None:
        while undo:
            owner, attr, original = undo.pop()
            setattr(owner, attr, original)

    return restore


# ---------------------------------------------------------------------- #
# Aggregation
# ---------------------------------------------------------------------- #
def _union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Summed self time per span name."""
    children: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"]))
    totals: Dict[str, float] = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = _union_length(
            (max(start, a), min(end, b))
            for a, b in children.get(span["id"], ()) if b > start and a < end)
        totals[span["name"]] = (totals.get(span["name"], 0.0)
                                + (end - start) - covered)
    return totals


def _merged(intervals: Iterable[Tuple[float, float]]) -> List[List[float]]:
    merged: List[List[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return merged


def uncovered_share(spans: List[Dict[str, Any]],
                    on: List[Tuple[float, float]],
                    off: List[Tuple[float, float]]) -> float:
    """Share of the traced time that no span of any process covers.

    The traced time is the union of the ``on`` windows minus the ``off``
    windows (units run with spans off inside a traced stretch).
    """
    windows: List[Tuple[float, float]] = []
    holes = _merged(off)
    for start, end in _merged(on):
        for hole_start, hole_end in holes:
            if hole_end <= start or hole_start >= end:
                continue
            if hole_start > start:
                windows.append((start, hole_start))
            start = max(start, hole_end)
        if end > start:
            windows.append((start, end))
    wall = sum(end - start for start, end in windows)
    covered = sum(_union_length(
        (max(start, s["start"]), min(end, s["end"]))
        for s in spans if s["end"] > start and s["start"] < end)
        for start, end in windows)
    return 1.0 - covered / wall if wall else 0.0


def _attr_sum(spans: List[Dict[str, Any]], name: str, attr: str) -> float:
    return sum(s["attrs"].get(attr, 0) for s in spans if s["name"] == name)


def _count(spans: List[Dict[str, Any]], name: str) -> int:
    return sum(1 for s in spans if s["name"] == name)


def layer_metrics(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer metrics (everything but ``serve.*`` and ``tracing.*``)."""
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    # Decode time per analysis run, so the walk is the fused stage minus it.
    decode_in_run: Dict[str, float] = {}
    for span in spans:
        if span["name"] == "trace.decode" and span["parent"] in by_id:
            decode_in_run[span["parent"]] = (
                decode_in_run.get(span["parent"], 0.0)
                + span["end"] - span["start"])
    walk_s = 0.0
    walk_by_request: Dict[str, Tuple[float, int]] = {}
    for span in spans:
        if span["name"] != "core.run" or "fused_s" not in span["attrs"]:
            continue
        walk = span["attrs"]["fused_s"] - decode_in_run.get(span["id"], 0.0)
        walk_s += walk
        seconds, records = walk_by_request.get(span["request"], (0.0, 0))
        walk_by_request[span["request"]] = (
            seconds + walk, records + span["attrs"]["records"])

    def krec_per_s(request: str) -> float:
        seconds, records = walk_by_request.get(request, (0.0, 0))
        return records / seconds / 1000.0 if seconds > 0 else 0.0

    hits = int(_attr_sum(spans, "store.load", "hit"))
    lookups = _count(spans, "store.load")
    return {
        "codegen.compile_s": own.get("codegen.compile", 0.0),
        "codegen.calls": _count(spans, "codegen.compile"),
        "tracer.trace_s": own.get("tracer.trace", 0.0),
        "tracer.records": int(_attr_sum(spans, "tracer.trace", "records")),
        "tracer.bytes": int(_attr_sum(spans, "tracer.trace", "bytes")),
        "tracer.untraced_s": own.get("tracer.untraced", 0.0),
        "trace.decode_s": own.get("trace.decode", 0.0),
        "trace.blocks": sum(1 for s in spans if s["name"] == "trace.decode"
                            and "records" in s["attrs"]),
        "trace.records": int(_attr_sum(spans, "trace.decode", "records")),
        "core.walk_s": walk_s,
        "core.identify_s": _attr_sum(spans, "core.run", "identify_s"),
        "core.krec_per_s.ep": krec_per_s("ep"),
        "core.krec_per_s.cg": krec_per_s("cg"),
        "analysis.induction_s": own.get("analysis.induction", 0.0),
        "store.address_s": own.get("store.address", 0.0),
        "store.load_s": own.get("store.load", 0.0),
        "store.deserialize_s": own.get("store.deserialize", 0.0),
        "store.publish_s": own.get("store.publish", 0.0),
        "store.serialize_s": own.get("store.serialize", 0.0),
        "store.publish_bytes": int(_attr_sum(spans, "store.publish", "bytes")),
        "store.hits": hits,
        "store.misses": lookups - hits,
        "store.hit_ratio": hits / lookups if lookups else 0.0,
    }
