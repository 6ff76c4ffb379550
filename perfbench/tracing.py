"""Thread-correct span tracing for the benchmark's traced run.

The program's own ``OBS.span`` keeps one process-global span stack, so a
serving writer thread and a reader thread mis-nest each other's spans.
This tracer keeps one stack per thread instead.  Every span records its
name, start, end, thread, the span that caused it (``parent``) and the id
of the client operation it belongs to (``op``), so one client op's spans
can be followed across the writer thread of the service.

Spans are wrapped around the *public entry points* of each layer by
:func:`install`, from this file, without touching the program; the
wrappers cost one attribute check while the tracer is inactive.  Spans
stay in memory and are written out once, as Chrome-trace JSON, by
:meth:`Tracer.write_chrome`.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable

import numpy as np


class Tracer:
    """In-memory span recorder with per-thread stacks and op ids."""

    def __init__(self) -> None:
        self.active = False
        self._local = threading.local()
        self._ids = itertools.count(1)
        #: (span id, parent id, op id, name, thread id, start, end)
        self.spans: list[tuple[int, int, int, str, int, float, float]] = []
        #: Work counters the wrappers tally (not the program's OBS counters).
        self.counts: dict[str, float] = defaultdict(float)
        self._counts_lock = threading.Lock()
        #: ``(op id, root span id)`` of the one client write awaiting its
        #: acknowledgement.  The service applies it on its writer thread,
        #: whose spans take their op and parent from here.
        self.pending_write: tuple[int, int] | None = None
        self._origin = time.perf_counter()

    def add(self, name: str, amount: float = 1) -> None:
        """Add to one of the tracer's own work counters (thread-safe)."""
        with self._counts_lock:
            self.counts[name] += amount

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> tuple:
        """Open a span on this thread; returns the token :meth:`end` takes."""
        stack = self._stack()
        if stack:
            op, parent = stack[-1]
        elif self.pending_write is not None:
            op, parent = self.pending_write
        else:
            op, parent = 0, 0
        span_id = next(self._ids)
        stack.append((op, span_id))
        return (span_id, parent, op, name, time.perf_counter())

    def end(self, token: tuple) -> None:
        finished = time.perf_counter()
        self._stack().pop()
        span_id, parent, op, name, started = token
        self.spans.append(
            (span_id, parent, op, name, threading.get_ident(), started, finished)
        )

    def current(self) -> tuple[int, int]:
        """``(op id, span id)`` of the innermost open span on this thread."""
        return self._stack()[-1]

    def begin_op(self, kind: str) -> tuple:
        """Open the root span of one client operation (a fresh op id)."""
        op = next(self._ids)
        span_id = next(self._ids)
        self._stack().append((op, span_id))
        return (span_id, 0, op, f"client.{kind}", time.perf_counter())

    # -- analysis ------------------------------------------------------------

    def ledger(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds.

        Self time is a span's duration minus the time its children on the
        same thread cover.  A child on another thread (the writer applying a
        client's write) ran concurrently with its parent's wait, so it is
        not subtracted.
        """
        threads = {span[0]: span[4] for span in self.spans}
        covered: dict[int, float] = defaultdict(float)
        for span_id, parent, _op, _name, tid, started, finished in self.spans:
            if parent and threads.get(parent) == tid:
                covered[parent] += finished - started
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0}
        )
        for span_id, _parent, _op, name, _tid, started, finished in self.spans:
            row = table[name]
            row["calls"] += 1
            row["inclusive_s"] += finished - started
            row["self_s"] += finished - started - covered[span_id]
        return dict(table)

    def op_waits(self, kind: str) -> list[float]:
        """Per client op of ``kind``: latency minus the traced work it caused.

        The work is every span whose parent is the op's root span, on any
        thread; what remains is time the op spent queued or blocked on a
        lock, not working.
        """
        roots = {
            span[0]: span[6] - span[5]
            for span in self.spans
            if span[3] == f"client.{kind}"
        }
        worked: dict[int, float] = defaultdict(float)
        for _span_id, parent, _op, _name, _tid, started, finished in self.spans:
            if parent in roots:
                worked[parent] += finished - started
        return [latency - worked[root] for root, latency in roots.items()]

    def write_chrome(self, path: str) -> None:
        """Write every span as one Chrome/Perfetto ``traceEvents`` file."""
        threads: dict[int, int] = {}
        events = []
        for span_id, parent, op, name, tid, started, finished in self.spans:
            events.append(
                {
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "pid": 1,
                    "tid": threads.setdefault(tid, len(threads) + 1),
                    "ts": round((started - self._origin) * 1e6, 3),
                    "dur": round((finished - started) * 1e6, 3),
                    "args": {"id": span_id, "parent": parent, "op": op},
                }
            )
        events.sort(key=lambda event: event["ts"])
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def intersecting_partitions(queries, table) -> list[int]:
    """Per query, how many of the release's partitions its box intersects.

    The §5.4 match rule, vectorized.  It is also the benchmark's oracle for
    the service's ``distinct`` answers.
    """
    lows = np.array([p.box.lows for p in table.partitions])
    highs = np.array([p.box.highs for p in table.partitions])
    qlows = np.array([q.box.lows for q in queries])
    qhighs = np.array([q.box.highs for q in queries])
    overlaps = np.logical_and(
        (lows[None, :, :] <= qhighs[:, None, :]).all(axis=2),
        (qlows[:, None, :] <= highs[None, :, :]).all(axis=2),
    )
    return [int(count) for count in overlaps.sum(axis=1)]


def _wrap_call(tracer: Tracer, name: str, original: Callable) -> Callable:
    @functools.wraps(original)
    def traced(*args, **kwargs):
        if not tracer.active:
            return original(*args, **kwargs)
        token = tracer.begin(name)
        try:
            return original(*args, **kwargs)
        finally:
            tracer.end(token)

    return traced


def _wrap_pages(tracer: Tracer, name: str, original: Callable) -> Callable:
    """Wrap a page generator so each page's decode is one span."""

    def timed(pages):
        while True:
            token = tracer.begin(name)
            try:
                page = next(pages)
            except StopIteration:
                return
            finally:
                tracer.end(token)
            yield page

    @functools.wraps(original)
    def traced(*args, **kwargs):
        pages = original(*args, **kwargs)
        return timed(pages) if tracer.active else pages

    return traced


def _wrap_finish_bulk(tracer: Tracer, original: Callable) -> Callable:
    """Span ``finish_bulk`` and count the leaves its walk visits.

    The count is a second walk, in a ``harness.*`` span of its own, so it
    adds to the traced run's wall time but to no layer's self time.
    """

    @functools.wraps(original)
    def traced(tree):
        if not tracer.active:
            return original(tree)
        capacity = tree.leaf_capacity
        walked = over = 0
        token = tracer.begin("harness.leaf_count")
        for leaf in tree.iter_leaves():
            walked += 1
            if len(leaf.records) > capacity:
                over += 1
        tracer.end(token)
        tracer.add("rtree.finish_bulk_leaves_walked", walked)
        tracer.add("rtree.finish_bulk_leaves_over", over)
        token = tracer.begin("rtree.finish_bulk")
        try:
            return original(tree)
        finally:
            tracer.end(token)

    return traced


def _wrap_evaluate(tracer: Tracer, original: Callable) -> Callable:
    """Span ``QueryEngine.evaluate``; afterwards count matching partitions.

    The match count (for ``query.useful_entry_ratio``) is one vectorized
    overlap test over the release's boxes, in a ``harness.*`` span of its
    own so it counts as neither evaluation nor waiting.
    """

    @functools.wraps(original)
    def traced(engine, queries, kind="count"):
        if not tracer.active:
            return original(engine, queries, kind)
        token = tracer.begin("query.evaluate")
        try:
            values = original(engine, queries, kind)
        finally:
            tracer.end(token)
        if engine.table is not None and queries:
            token = tracer.begin("harness.match_count")
            matching = sum(intersecting_partitions(queries, engine.table))
            tracer.add("query.matching_partitions", matching)
            tracer.end(token)
        return values

    return traced


def traced_split_policy(tracer: Tracer, inner):
    """A delegating :class:`~repro.index.split.SplitPolicy` that spans and
    counts every ``choose_split`` call (passed via ``split_policy=``)."""
    from repro.index.split import SplitPolicy

    class TracedSplitPolicy(SplitPolicy):
        def choose_split(self, records, min_count, domain_extents):
            if not tracer.active:
                return inner.choose_split(records, min_count, domain_extents)
            tracer.add("split.calls")
            tracer.add("split.records_examined", len(records))
            token = tracer.begin("split.choose")
            try:
                return inner.choose_split(records, min_count, domain_extents)
            finally:
                tracer.end(token)

    return TracedSplitPolicy()


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap each layer's public entry points; returns the undo function."""
    import repro.api
    import repro.core.anonymizer
    import repro.durability.recovery
    import repro.serve.service
    from repro.core.anonymizer import RTreeAnonymizer
    from repro.dataset.io import RecordFileReader
    from repro.durability.manager import DurabilityManager
    from repro.index.buffer_tree import BufferTreeLoader
    from repro.index.rtree import RPlusTree
    from repro.query.engine import QueryEngine

    calls = [
        (repro.core.anonymizer, "subtree_scan", "release.group"),
        (repro.core.anonymizer, "build_compacted_partitions", "release.emit"),
        (repro.api, "release_digest", "release.digest"),
        (repro.serve.service, "release_digest", "release.digest"),
        (repro.api, "audit_release", "audit"),
        (repro.serve.service, "audit_release", "audit"),
        (BufferTreeLoader, "insert_batch", "buffer_tree.insert_batch"),
        (BufferTreeLoader, "drain", "buffer_tree.drain"),
        (RPlusTree, "delete", "rtree.delete"),
        (RPlusTree, "update", "rtree.update"),
        (DurabilityManager, "log_insert", "wal.log"),
        (DurabilityManager, "log_delete", "wal.log"),
        (DurabilityManager, "log_update", "wal.log"),
        (DurabilityManager, "log_batched_insert", "wal.log"),
        (DurabilityManager, "commit_batch", "wal.log"),
        (repro.durability.recovery, "read_snapshot", "recovery.snapshot_read"),
        (repro.durability.recovery, "read_wal", "recovery.wal_read"),
        (RTreeAnonymizer, "anonymize", "release"),
        (RTreeAnonymizer, "insert", "engine.write"),
        (RTreeAnonymizer, "insert_batch", "engine.write"),
        (RTreeAnonymizer, "delete", "engine.write"),
        (RTreeAnonymizer, "update", "engine.write"),
        (QueryEngine, "__init__", "query.engine_build"),
    ]
    undo: list[tuple[object, str, object]] = []
    for owner, attribute, name in calls:
        original = owner.__dict__[attribute]
        undo.append((owner, attribute, original))
        setattr(owner, attribute, _wrap_call(tracer, name, original))
    for owner, attribute, wrapper in (
        (RecordFileReader, "iter_point_batches",
         lambda original: _wrap_pages(tracer, "io.decode", original)),
        (RPlusTree, "finish_bulk",
         lambda original: _wrap_finish_bulk(tracer, original)),
        (QueryEngine, "evaluate",
         lambda original: _wrap_evaluate(tracer, original)),
    ):
        original = owner.__dict__[attribute]
        undo.append((owner, attribute, original))
        setattr(owner, attribute, wrapper(original))

    def uninstall() -> None:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)

    return uninstall
