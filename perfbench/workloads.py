"""The benchmark's two workloads, run inside one fresh child process.

Each workload generates its inputs from the seed, drives the program only
through its public API (``repro.api`` and ``AnonymizerService``), times
what a user waits for, and checks the outputs.  A failed check raises
:class:`GateFailure`, which fails the run.  See ``perfbench/README.md``
for why each workload exists and what it loads or bypasses.

The benchmark runs on a shared machine whose speed switches between a
fast and a slower phase (about 1.7x) for anything from milliseconds to
minutes.  So every timed unit of work (a file load, a release, a query
batch, a write) is timed by the :class:`SpeedClock`: short probes of a
fixed pure-Python task around and inside the unit read the machine's
speed, and the unit's time is scaled to the probe's reference speed.
Units that can be repeated on the same state (bulk_publish's loads,
releases, queries and writes; query_read's writes and releases) run once
per *round*, and each unit's figure is its median over the rounds.
"""

from __future__ import annotations

import functools
import gc
import os
import resource
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import api
from repro.dataset.io import RecordFileReader, RecordFileWriter
from repro.dataset.landsend import LandsEndGenerator
from repro.dataset.record import Record
from repro.durability.manager import DurabilityConfig
from repro.geometry.box import Box
from repro.index.split import MinMarginSplitPolicy
from repro.obs import OBS
from repro.query.engine import QueryEngine, group_by_queries, point_query
from repro.query.ranges import RangeQuery, count_anonymized_bulk

from tracing import Tracer, install, intersecting_partitions, traced_split_policy

#: Granularities every workload publishes (``release_s``).
RELEASE_KS = (10, 25, 50, 100)
#: The query_read recipes: 12 > the service's 8 cached pushdown engines.
QUERY_KS = (5, 6, 8, 10, 12, 15, 20, 25, 30, 40, 50, 100)
#: The granularity whose digest query_read compares across recovery.
RECOVERY_K = 25
#: Seed of the fixed (k, kind) order of query batches.
SCHEDULE_SEED = 20070415
#: Queries per batch.
BATCH_QUERIES = 10
#: Query batch kinds and their shares.
QUERY_MIX = (("range", 0.60), ("distinct", 0.15), ("point", 0.15), ("groupby", 0.10))
#: Single-record write kinds and their shares.
WRITE_MIX = (("insert", 0.4), ("delete", 0.3), ("update", 0.3))
#: A run makes ``--seconds // ROUND_S`` rounds (3 at 16 s), at least 2.
ROUND_S = 5
#: bulk_publish: query batches and direct writes per round.
TAIL_QUERY_BATCHES = 160
TAIL_WRITES = 100
#: bulk_publish repeats its (cheap) set-up and reports the median.
BULK_SETUP_REPEATS = 5
#: query_read loads its durable service this many times in set-up (the
#: first ones are closed again), so ingest is a median over loads too.
PRELOADS = 2
#: query_read nominal offered rate, in batches per second, and the share
#: of ``--seconds`` the one read pass runs at it.  At 10 batches/s the
#: service is under a third busy on a quiet machine.
NOMINAL_RATE = 10
READ_SHARE = 0.75
#: The higher rungs of the query_read ladder (batches per second), run
#: after the read pass for ``query_max_qps``, sharing a quarter of
#: ``--seconds``.
LADDER = (20, 30, 45, 60)
LADDER_SHARE = 0.25
#: Open-loop sender threads: one at the nominal rate, so no sender's
#: speed probe runs while another sender holds the interpreter; two on the
#: ladder, whose latencies are not adjusted.
SENDERS = 1
LADDER_SENDERS = 2
#: p99 batch latency limit of a ladder step, and how late its last batch
#: may finish before the backlog counts as growing.
LATENCY_LIMIT_S = 0.25
#: query_read write tail: inserts only, so both write percentiles sit on
#: one mode (a service insert drains and walks every leaf; a delete or
#: update does not, and a 40/30/30 mix puts p50 on the edge of the fast
#: mode).  Each round offers them at ``WRITE_RATE`` per second through the
#: durable service, then deletes them again, untimed, so the next round
#: starts from the same records.
READ_TAIL_WRITES = 60
WRITE_RATE = 20
#: Share of query batches whose answers are re-checked against the oracle.
ORACLE_SAMPLE = 0.1
#: Latency reported for an op that failed (it misses every limit).
FAILED_LATENCY_MS = 180_000.0
#: How long one speed probe (:func:`probe`) takes on the machine the
#: benchmark was tuned on, in its fast phase (x86-64 Xeon at 2.0 GHz,
#: Python 3.11).  The :class:`SpeedClock` scales every timed unit to it.
PROBE_REFERENCE_S = 1.05e-4
#: The speed clock probes inside a unit at most this often.
MARK_SPACING_S = 0.05


class GateFailure(AssertionError):
    """A correctness check failed; the run is not valid."""


def gate(condition: bool, message: str) -> None:
    if not condition:
        raise GateFailure(message)


@dataclass
class Batch:
    k: int
    label: str  # range / distinct / point / groupby
    kind: str  # the service's query kind: count / distinct
    queries: list[RangeQuery]


@dataclass
class Run:
    """What one workload run measured and checked."""

    workload: str
    seed: int
    records: int
    seconds: float
    traced: bool
    fault_oracle: bool = False
    metrics: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    gates: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    write_latencies: list[float] = field(default_factory=list)
    query_latencies: list[float] = field(default_factory=list)
    oracle_samples: list[tuple[Batch, list[int], object]] = field(
        default_factory=list
    )

    def passed(self, name: str) -> None:
        self.gates.append(name)


# -- inputs ---------------------------------------------------------------


class Inputs:
    """Everything a run feeds the program, drawn from the seed."""

    def __init__(self, seed: int, records: int, workdir: str) -> None:
        generator = LandsEndGenerator(seed)
        self.rng = np.random.default_rng((seed, 7))
        self.points = generator.generate_points(records)
        self.lows = self.points.min(axis=0)
        self.highs = self.points.max(axis=0)
        # Inserted and moved records come from a disjoint slice of the same
        # stream, clipped into the loaded extent the schema was built from.
        self.extra = np.clip(
            generator.generate_points(2 * records // 10 + 64, stream_offset=1),
            self.lows,
            self.highs,
        )
        self.path = os.path.join(workdir, "records.bin")
        with RecordFileWriter(self.path, self.points.shape[1]) as writer:
            writer.write_batch(self.points)
        self.domain = Box(
            tuple(float(v) for v in self.lows), tuple(float(v) for v in self.highs)
        )

    @property
    def records(self) -> int:
        return self.points.shape[0]

    # -- writes ---------------------------------------------------------------

    def write_ops(self, count: int, mix=WRITE_MIX) -> tuple[list[tuple], list[int]]:
        """``count`` single-record ops in the given mix, shuffled.

        Returns the ops and the live record count after each op.
        """
        kinds = [
            mix[index][0]
            for index in self.exact_draws(count, [share for _, share in mix])
        ]
        current = {
            rid: tuple(float(v) for v in row)
            for rid, row in enumerate(self.points.tolist())
        }
        alive = list(current)
        fresh = iter(self.extra.tolist())
        next_rid = self.records
        ops: list[tuple] = []
        live: list[int] = []
        for kind in kinds:
            if kind == "insert":
                record = Record(next_rid, tuple(float(v) for v in next(fresh)))
                next_rid += 1
                current[record.rid] = record.point
                alive.append(record.rid)
                ops.append(("insert", record))
            else:
                slot = int(self.rng.integers(len(alive)))
                rid = alive[slot]
                if kind == "delete":
                    alive[slot] = alive[-1]
                    alive.pop()
                    ops.append(("delete", rid, current.pop(rid)))
                else:
                    record = Record(rid, tuple(float(v) for v in next(fresh)))
                    ops.append(("update", rid, current[rid], record))
                    current[rid] = record.point
            live.append(len(alive))
        return ops, live

    # -- queries --------------------------------------------------------------

    def batch(self, k: int, label: str) -> Batch:
        """One batch of ``BATCH_QUERIES`` queries of one kind."""
        rng = self.rng
        if label in ("range", "distinct"):
            pairs = rng.choice(self.records, (BATCH_QUERIES, 2))
            lows = np.minimum(self.points[pairs[:, 0]], self.points[pairs[:, 1]])
            highs = np.maximum(self.points[pairs[:, 0]], self.points[pairs[:, 1]])
            queries = [
                RangeQuery(Box(tuple(map(float, lo)), tuple(map(float, hi))))
                for lo, hi in zip(lows.tolist(), highs.tolist())
            ]
            return Batch(k, label, "count" if label == "range" else "distinct", queries)
        if label == "point":
            rows = rng.choice(self.records, BATCH_QUERIES)
            queries = [point_query(self.points[row]) for row in rows]
            return Batch(k, label, "count", queries)
        dimension = int(rng.integers(self.points.shape[1]))
        edges = np.linspace(
            self.lows[dimension], self.highs[dimension], BATCH_QUERIES + 1
        )
        return Batch(k, label, "count", group_by_queries(self.domain, dimension, edges))

    def exact_draws(self, count: int, weights, rng=None) -> list[int]:
        """``count`` indices in exactly the given proportions, shuffled.

        Exact shares (largest remainder) instead of independent draws keep
        the mix, and with it the latency percentiles, the same every seed.
        """
        rng = self.rng if rng is None else rng
        shares = np.asarray(weights, dtype=float) * count / np.sum(weights)
        counts = np.floor(shares).astype(int)
        remainder = count - counts.sum()
        counts[np.argsort(counts - shares)[:remainder]] += 1
        draws = np.repeat(np.arange(len(counts)), counts)
        rng.shuffle(draws)
        return draws.tolist()

    def mixed_batches(self, count: int, ks: tuple[int, ...], zipf: bool) -> list[Batch]:
        """``count`` batches in the kind mix; k uniform or Zipf over ``ks``.

        The order of (k, kind) pairs is one fixed schedule for every seed:
        which recipe follows which decides the engine cache's evictions, so
        a per-seed order would change the work.  The seed draws the queries.
        """
        weights = 1.0 / np.arange(1, len(ks) + 1) if zipf else np.ones(len(ks))
        labels = [label for label, _ in QUERY_MIX]
        schedule = np.random.default_rng(SCHEDULE_SEED)
        k_draws = self.exact_draws(count, weights, schedule)
        label_draws = self.exact_draws(
            count, [share for _, share in QUERY_MIX], schedule
        )
        return [
            self.batch(ks[k], labels[label])
            for k, label in zip(k_draws, label_draws)
        ]


# -- measurement helpers -------------------------------------------------------


def reference_task() -> float:
    """A fixed pure-Python task, independent of the program: tuples, a
    dict, float arithmetic and a sort, about 0.1 ms."""
    table = {}
    total = 0.0
    for i in range(400):
        point = (i * 0.5, float(i % 13), i * 1.5)
        table[i % 61] = point
        total += point[0] * point[2] - point[1]
    return total + sorted(table.values())[0][0]


def probe() -> float:
    """How long the reference task takes right now: best of three runs."""
    fastest = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        reference_task()
        fastest = min(fastest, time.perf_counter() - started)
    return fastest


class SpeedClock:
    """Times one unit of work at a time, scaled to the reference speed.

    A unit timed while the machine runs at 1/1.7 of its speed reads 1.7x
    too long, and so does a probe taken right next to it.  The clock takes
    a probe (:func:`probe`) when a unit starts and ends, and also inside
    it, when the program reaches one of the entry points in :meth:`install`
    or :meth:`split_policy` (each page a file load pulls, each step of a
    release, each leaf split) at least ``MARK_SPACING_S`` after the last
    probe.  The unit's time is split at those marks, probe time left out,
    and each segment is scaled by ``PROBE_REFERENCE_S`` over the mean of
    the probes at its two ends.  Only one unit is timed at a time; marks
    may come from the service's writer thread while the client waits.
    """

    def __init__(self) -> None:
        #: (arrived, left, probe) per mark while a unit is timed.
        self.marks: list[tuple[float, float, float]] | None = None
        #: Every probe's slowdown over the reference, for the provenance.
        self.slowdowns: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap the entry points that mark a unit, from this file."""
        import repro.api
        import repro.core.anonymizer
        import repro.serve.service

        for owner, attribute in (
            (repro.core.anonymizer, "subtree_scan"),
            (repro.core.anonymizer, "build_compacted_partitions"),
            (repro.api, "release_digest"),
            (repro.serve.service, "release_digest"),
            (repro.api, "audit_release"),
            (repro.serve.service, "audit_release"),
        ):
            original = owner.__dict__[attribute]
            self._undo.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap_call(original))
        original = RecordFileReader.__dict__["iter_point_batches"]
        self._undo.append((RecordFileReader, "iter_point_batches", original))
        RecordFileReader.iter_point_batches = self._wrap_pages(original)

    def close(self) -> None:
        for owner, attribute, original in reversed(self._undo):
            setattr(owner, attribute, original)
        self._undo = []

    def _wrap_call(self, original: Callable) -> Callable:
        clock = self

        @functools.wraps(original)
        def marked(*args, **kwargs):
            clock.mark()
            try:
                return original(*args, **kwargs)
            finally:
                clock.mark()

        return marked

    def _wrap_pages(self, original: Callable) -> Callable:
        clock = self

        @functools.wraps(original)
        def marked(*args, **kwargs):
            for page in original(*args, **kwargs):
                clock.mark()
                yield page

        return marked

    def split_policy(self, inner):
        """A delegating :class:`~repro.index.split.SplitPolicy` that marks
        the unit at each leaf split (passed via ``split_policy=``)."""
        from repro.index.split import SplitPolicy

        clock = self

        class MarkedSplitPolicy(SplitPolicy):
            def choose_split(self, records, min_count, domain_extents):
                clock.mark()
                return inner.choose_split(records, min_count, domain_extents)

        return MarkedSplitPolicy()

    def mark(self, force: bool = False) -> None:
        marks = self.marks  # once: the client may stop the unit meanwhile
        if marks is None:
            return
        arrived = time.perf_counter()
        if not force and arrived - marks[-1][1] < MARK_SPACING_S:
            return
        speed = probe()
        self.slowdowns.append(speed / PROBE_REFERENCE_S)
        marks.append((arrived, time.perf_counter(), speed))

    def start(self) -> None:
        self.marks = []
        self.mark(force=True)

    def stop(self) -> float:
        """Ends the unit; returns its adjusted seconds."""
        self.mark(force=True)
        marks, self.marks = self.marks, None
        return sum(
            (end[0] - begin[1]) * 2 * PROBE_REFERENCE_S / (begin[2] + end[2])
            for begin, end in zip(marks, marks[1:])
        )

    def abandon(self) -> None:
        self.marks = None


# -- measurement helpers -------------------------------------------------------


def percentile_ms(latencies: list[float], q: float) -> float:
    return float(np.percentile(np.array(latencies) * 1e3, q))


def rounds_for(seconds: float) -> int:
    return max(2, int(seconds // ROUND_S))


def typical(rounds: list[list[float]], what: str) -> list[float]:
    """Per unit of work, its median adjusted time over the rounds.

    Every round times the same units on the same state.  A unit that
    failed in any round keeps its failure time.
    """
    gate(len({len(times) for times in rounds}) == 1,
         f"{what}: rounds timed different numbers of units")
    times = np.array(rounds)
    failed = (times >= FAILED_LATENCY_MS / 1e3).any(axis=0)
    return np.where(failed, FAILED_LATENCY_MS / 1e3,
                    np.median(times, axis=0)).tolist()


def checked_release(run: Run, release, expected_records: int, where: str) -> None:
    """The release gates: audit k-verdict and record conservation."""
    gate(
        bool(release.audit["k_satisfied"]),
        f"{where}: audit at k={release.k} reports k_satisfied=False",
    )
    total = sum(len(partition) for partition in release.table.partitions)
    gate(
        total == expected_records,
        f"{where}: k={release.k} partitions hold {total} records, "
        f"expected {expected_records}",
    )
    run.passed(f"{where}: k={release.k} audited, {total} records")


def check_oracle(run: Run) -> None:
    """Re-answer the sampled batches with the scalar oracle; must match.

    Consumes the samples, so a workload may check as it goes.
    """
    kinds: dict[str, int] = {}
    samples, run.oracle_samples = run.oracle_samples, []
    for index, (batch, values, table) in enumerate(samples):
        if batch.kind == "count":
            expected = [int(v) for v in count_anonymized_bulk(batch.queries, table)]
        else:
            expected = intersecting_partitions(batch.queries, table)
        if run.fault_oracle and index == 0:
            expected[0] += 1  # a deliberately wrong oracle answer
        gate(
            list(values) == expected,
            f"{batch.label} batch at k={batch.k} answered {list(values)}, "
            f"oracle says {expected}",
        )
        kinds[batch.label] = kinds.get(batch.label, 0) + 1
    gate(bool(kinds), "no query batch was sampled for the oracle check")
    run.passed(f"oracle agrees on sampled batches {kinds}")


def sample_for_oracle(run: Run, rng: np.random.Generator, batch: Batch,
                      values, table, seen: set[str]) -> None:
    """Keep a seeded share of batches, and the first of every kind."""
    if batch.label not in seen or rng.random() < ORACLE_SAMPLE:
        seen.add(batch.label)
        run.oracle_samples.append((batch, list(values), table))


def same_answers(first: list, again: list, what: str) -> None:
    """A later round must answer every batch as the first did."""
    gate(first == again, f"{what}: a later round answered differently")


# -- workloads ----------------------------------------------------------------


class Context:
    """Per-run shared state: the tracer (traced runs only), the speed
    clock and the work dir; and the timed client ops built on them."""

    def __init__(self, run: Run, workdir: str) -> None:
        self.run = run
        self.workdir = workdir
        self.rounds = rounds_for(run.seconds)
        self.tracer: Tracer | None = Tracer() if run.traced else None
        self._uninstall = install(self.tracer) if self.tracer else None
        # Installed over the tracer's wrappers, so no probe lands in a span.
        self.clock = SpeedClock()
        self.clock.install()

    def split_policy(self):
        """The program's default split policy, marked for the speed clock
        (and traced in a traced run)."""
        policy = MinMarginSplitPolicy()
        if self.tracer is not None:
            policy = traced_split_policy(self.tracer, policy)
        return self.clock.split_policy(policy)

    def timed_op(self, kind: str, call: Callable[[], object], adjust: bool = True):
        """Run one client op; returns ``(result, seconds)`` (result None
        on failure).  With ``adjust`` the speed clock times it."""
        run, tracer = self.run, self.tracer
        run.attempted += 1
        if adjust:
            self.clock.start()
        token = tracer.begin_op(kind) if tracer is not None and tracer.active else None
        started = time.perf_counter()
        try:
            result = call()
        except GateFailure:
            raise
        except Exception as error:  # a failed op counts; the run goes on
            run.failed += 1
            print(f"op {kind} failed: {error!r}", flush=True)
            self.clock.abandon()
            return None, FAILED_LATENCY_MS / 1e3
        finally:
            if token is not None:
                tracer.end(token)
        seconds = time.perf_counter() - started
        if adjust:
            seconds = self.clock.stop()
        return result, seconds

    def timed_load(self, handle, path: str) -> float:
        """Load ``path`` into ``handle``; returns the adjusted seconds."""
        consumed, seconds = self.timed_op("load", lambda: handle.load(path))
        gate(consumed == self.run.records,
             f"loaded {consumed} of {self.run.records}")
        return seconds

    def publish(self, release, expected_records: int, where: str):
        """Publish at every ``RELEASE_KS``; returns (seconds per k, releases)."""
        walls = []
        published = {}
        for k in RELEASE_KS:
            result, seconds = self.timed_op("release", lambda k=k: release(k))
            gate(result is not None, f"{where}: release k={k} failed")
            checked_release(self.run, result, expected_records, where)
            walls.append(seconds)
            published[k] = result
        return walls, published

    def apply_write(self, target, op: tuple, service: bool) -> float:
        """One single-record write, waiting for its acknowledgement."""
        kind = op[0]
        if service:
            if kind == "insert":
                call = lambda: target.submit_insert(op[1]).result()
            elif kind == "delete":
                call = lambda: target.submit_delete(op[1], op[2]).result()
            else:
                call = lambda: target.submit_update(op[1], op[2], op[3]).result()
        elif kind == "insert":
            call = lambda: target.insert(op[1])
        elif kind == "delete":
            call = lambda: target.delete(op[1], op[2])
        else:
            call = lambda: target.update(op[1], op[2], op[3])
        tracer = self.tracer
        if tracer is not None and tracer.active:
            # The root span opens inside timed_op; the writer thread's
            # spans find it through pending_write while this write is in
            # flight.
            def tagged():
                tracer.pending_write = tracer.current()
                try:
                    return call()
                finally:
                    tracer.pending_write = None

            _, seconds = self.timed_op("write", tagged)
        else:
            _, seconds = self.timed_op("write", call)
        return seconds

    def paced_writes(self, service, ops: list[tuple], rate: float) -> list[float]:
        """Service writes offered at ``rate`` per second, one at a time.

        Returns each write's latency from its due time, on the adjusted
        clock like :meth:`open_loop`'s: write ``i`` starts at its due time
        or when write ``i - 1`` is acknowledged, whichever is later.
        """
        latencies, finished = [], 0.0
        start = time.perf_counter()
        for index, op in enumerate(ops):
            delay = start + index / rate - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            seconds = self.apply_write(service, op, service=True)
            finished = max(index / rate, finished) + seconds
            latencies.append(finished - index / rate)
        return latencies

    def open_loop(self, service, batches: list[Batch], rate: float,
                  senders: int = SENDERS):
        """Send ``batches`` at ``rate`` per second from ``senders`` threads.

        Each batch is due at ``start + i / rate`` whether or not earlier
        ones finished; its latency runs from that due time, so a stall also
        charges the batches queued behind it.

        With one sender each batch's service time is adjusted by the speed
        clock, and the latencies are those of the same queue run on the
        adjusted clock: batch ``i`` starts at its due time or when batch
        ``i - 1`` finishes, whichever is later.  With more senders they
        would overlap on the clock, so the latencies are as measured.
        Returns the latencies, how late each send was, the answers, and
        how long after the step's nominal end the last batch finished.
        """
        count = len(batches)
        results: list[tuple[float, float, object, float] | None] = [None] * count
        lock = threading.Lock()
        next_index = [0]
        start = time.perf_counter() + 0.02

        def sender() -> None:
            while True:
                with lock:
                    index = next_index[0]
                    if index >= count:
                        return
                    next_index[0] += 1
                due = start + index / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                batch = batches[index]
                result, seconds = self.timed_op(
                    "query",
                    lambda: service.query(batch.queries, k=batch.k, kind=batch.kind),
                    adjust=senders == 1,
                )
                results[index] = (seconds, sent - due, result, time.perf_counter())

        threads = [threading.Thread(target=sender, name=f"bench-sender-{i}")
                   for i in range(senders)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if senders == 1:
            latencies, finished = [], 0.0
            for index, entry in enumerate(results):
                finished = max(index / rate, finished) + entry[0]
                latencies.append(finished - index / rate)
        else:
            latencies = [entry[0] + entry[1] for entry in results]
        lags = [entry[1] for entry in results]
        answers = [entry[2] for entry in results]
        last = max(entry[3] for entry in results)
        return latencies, lags, answers, last - (start + count / rate)

    def start_window(self) -> None:
        """Set-up is done: start tracing and the program's counters."""
        if self.tracer is not None:
            OBS.enable(reset=True)
            self.tracer.active = True

    def pause_window(self) -> None:
        """Stop tracing and counting for a check outside the measurement."""
        if self.tracer is not None:
            self.tracer.active = False
            OBS.disable()

    def resume_window(self) -> None:
        if self.tracer is not None:
            OBS.enable(reset=False)
            self.tracer.active = True

    stop_window = pause_window

    def close(self) -> None:
        self.clock.close()
        if self._uninstall is not None:
            self._uninstall()


def bulk_publish(ctx: Context) -> None:
    """File → open + bulk load → releases at four k's (the batch path).

    Each round loads a fresh handle, publishes, asks the same query
    batches of the publications through one pushdown engine per release,
    and applies the same single-record writes to the published index
    (§2.2), with no service, cache or WAL.  Queries and writes alternate,
    so each kind's samples spread over the whole stretch.
    """
    run = ctx.run
    setups = []
    for _ in range(BULK_SETUP_REPEATS):
        ctx.clock.start()
        inputs = Inputs(run.seed, run.records, ctx.workdir)
        writes, live = inputs.write_ops(TAIL_WRITES)
        batches = inputs.mixed_batches(TAIL_QUERY_BATCHES, RELEASE_KS, zipf=False)
        setups.append(ctx.clock.stop())
    run.metrics["setup_s"] = float(np.median(setups))
    ctx.start_window()
    oracle_rng = np.random.default_rng((run.seed, 11))
    loads, release_walls, query_times, write_times = [], [], [], []
    answers: list[list] = []
    for round_index in range(ctx.rounds):
        handle = releases = engines = None
        gc.collect()  # the previous round's index must not pad peak RSS
        handle = api.open(inputs.path, split_policy=ctx.split_policy())
        loads.append([ctx.timed_load(handle, inputs.path)])
        walls, releases = ctx.publish(lambda k: handle.release(k=k),
                                      inputs.records, "bulk_publish")
        release_walls.append(walls)
        for k, release in releases.items():
            key = f"k{k}"
            gate(run.digests.setdefault(key, release.digest) == release.digest,
                 f"bulk_publish: round {round_index} published k={k} differently")

        engines = {k: QueryEngine(release.table) for k, release in releases.items()}
        seen: set[str] = set()
        query_times.append([])
        write_times.append([])
        answers.append([])
        for step in range(max(len(batches), len(writes))):
            if step < len(batches):
                batch = batches[step]
                engine = engines[batch.k]
                values, seconds = ctx.timed_op(
                    "query", lambda: engine.evaluate(batch.queries, batch.kind)
                )
                query_times[-1].append(seconds)
                answers[-1].append(None if values is None else list(values))
                if values is not None and round_index == 0:
                    sample_for_oracle(run, oracle_rng, batch, values,
                                      releases[batch.k].table, seen)
            if step < len(writes):
                write_times[-1].append(
                    ctx.apply_write(handle, writes[step], service=False)
                )
        same_answers(answers[0], answers[-1], "bulk_publish queries")
        if round_index == 0:
            ctx.pause_window()
            check_oracle(run)
            ctx.resume_window()
    ctx.stop_window()
    run.metrics["ingest_records_per_s"] = inputs.records / sum(typical(loads, "load"))
    run.metrics["release_s"] = sum(typical(release_walls, "release"))
    run.query_latencies = typical(query_times, "query")
    run.write_latencies = typical(write_times, "write")
    run.counts["rounds"] = ctx.rounds
    checked_release(run, handle.release(k=RELEASE_KS[0]), live[-1],
                    "bulk_publish after writes")


def query_read(ctx: Context) -> None:
    """Open-loop reads of warmed releases, then a durable write tail and
    recovery, on one durable service."""
    run = ctx.run
    ctx.clock.start()
    inputs = Inputs(run.seed, run.records, ctx.workdir)
    writes, _ = inputs.write_ops(READ_TAIL_WRITES, (("insert", 1.0),))
    undo = [("delete", op[1].rid, op[1].point) for op in reversed(writes)]
    batches = inputs.mixed_batches(
        max(1, int(NOMINAL_RATE * run.seconds * READ_SHARE)), QUERY_KS, zipf=True
    )
    ladder = [(rate, max(1, int(rate * run.seconds * LADDER_SHARE / len(LADDER))))
              for rate in LADDER]
    ladder_batches = inputs.mixed_batches(
        sum(count for _, count in ladder), QUERY_KS, zipf=True
    )
    setup_s = ctx.clock.stop()
    loads = []
    for attempt in range(PRELOADS):
        wal_dir = os.path.join(ctx.workdir, f"state-{attempt}")
        service = api.open(
            inputs.path, serve=True, durability=DurabilityConfig(dir=wal_dir),
            split_policy=ctx.split_policy(),
        )
        loads.append([ctx.timed_load(service, inputs.path)])
        if attempt + 1 < PRELOADS:
            service.close()
            service = None
            shutil.rmtree(wal_dir)
            gc.collect()  # one service at a time in memory
    setup_s += sum(load[0] for load in loads)
    run.metrics["ingest_records_per_s"] = inputs.records / sum(typical(loads, "load"))
    ctx.clock.start()
    service.engine.checkpoint()
    setup_s += ctx.clock.stop()
    walls, warmed = ctx.publish(service.release, inputs.records, "query_read warm-up")
    setup_s += sum(walls)
    release_walls = [walls]
    for k in QUERY_KS:
        if k not in warmed:
            warmed[k], seconds = ctx.timed_op("release", lambda k=k: service.release(k))
            gate(warmed[k] is not None, f"query_read warm-up: release k={k} failed")
            setup_s += seconds
            checked_release(run, warmed[k], inputs.records, "query_read warm-up")
    for k, snapshot in warmed.items():
        run.digests[f"k{k}"] = snapshot.digest
    run.metrics["setup_s"] = setup_s

    ctx.start_window()
    oracle_rng = np.random.default_rng((run.seed, 11))
    seen: set[str] = set()
    # One read pass: no write runs during it, so every batch reads its
    # warmed snapshot.  Reads are not repeated in rounds: a longer pass of
    # distinct batches samples the heavy-tailed batch costs better.
    latencies, lags, results, _ = ctx.open_loop(service, batches, NOMINAL_RATE)
    for batch, result in zip(batches, results):
        if result is None:
            continue
        gate(result.digest == warmed[batch.k].digest,
             f"batch at k={batch.k} answered from an unexpected release")
        sample_for_oracle(run, oracle_rng, batch, result.values,
                          warmed[batch.k].table, seen)
    run.query_latencies = latencies
    run.metrics["query_p99_ms"] = percentile_ms(run.query_latencies, 99)
    run.metrics["client.lag_p99_ms"] = percentile_ms(lags, 99)
    max_rate, cursor = NOMINAL_RATE, 0
    for rate, count in ladder:
        latencies, _, _, finished_late = ctx.open_loop(
            service, ladder_batches[cursor:cursor + count], rate, LADDER_SENDERS
        )
        cursor += count
        run.counts[f"ladder_{rate}_batches_per_s"] = count
        if (percentile_ms(latencies, 99) > LATENCY_LIMIT_S * 1e3
                or finished_late > LATENCY_LIMIT_S):
            break
        max_rate = rate
    run.metrics["query_max_qps"] = float(max_rate * BATCH_QUERIES)

    # Write rounds: each offers the same inserts, deletes them again
    # (untimed), and publishes cold, so every round starts from the same
    # records.
    write_times = []
    for _ in range(ctx.rounds):
        write_times.append(ctx.paced_writes(service, writes, WRITE_RATE))
        for op in undo:
            service.submit_delete(op[1], op[2]).result()
        walls, published = ctx.publish(service.release, inputs.records,
                                       "query_read after writes")
        release_walls.append(walls)
    run.write_latencies = typical(write_times, "write")
    run.counts["logged_writes"] = 2 * len(writes) * ctx.rounds
    final_digest = published[RECOVERY_K].digest
    service.close()
    service = published = None
    gc.collect()  # the closed service must not pad the recovered peak RSS
    recovered, seconds = ctx.timed_op(
        "recover", lambda: api.recover(wal_dir, split_policy=ctx.split_policy())
    )
    ctx.stop_window()
    gate(recovered is not None, "recovery failed")
    run.metrics["recover_s"] = seconds
    run.metrics["release_s"] = sum(typical(release_walls, "release"))
    try:
        replayed = recovered.recovery.replayed_ops
        logged = run.counts["logged_writes"]
        gate(replayed == logged, f"recovery replayed {replayed} ops, expected {logged}")
        run.passed(f"recovery replayed exactly {replayed} ops")
        release = recovered.release(k=RECOVERY_K)
        checked_release(run, release, inputs.records, "query_read recovered")
        gate(release.digest == final_digest,
             "release digest after recovery differs from before close")
        run.passed("digest after recovery equals digest before close")
    finally:
        recovered.close()
    run.counts["rounds"] = ctx.rounds
    run.counts["read_batches"] = len(batches)
    # Every read batch was answered from its warmed snapshot; the oracle
    # re-answers a sample of them on that snapshot.
    check_oracle(run)


WORKLOADS = {
    "bulk_publish": bulk_publish,
    "query_read": query_read,
}


def execute(run: Run, root: str) -> dict[str, object]:
    """Run one workload end to end; returns its measurements and evidence."""
    os.makedirs(root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{run.workload}-", dir=root)
    ctx = Context(run, workdir)
    correct, error = True, None
    try:
        WORKLOADS[run.workload](ctx)
    except GateFailure as failure:
        correct, error = False, str(failure)
    finally:
        ctx.stop_window()
        ctx.close()
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = dict(run.metrics)
    if run.write_latencies:
        metrics["write_p50_ms"] = percentile_ms(run.write_latencies, 50)
        metrics["write_p90_ms"] = percentile_ms(run.write_latencies, 90)
    if run.query_latencies:
        metrics["query_p50_ms"] = percentile_ms(run.query_latencies, 50)
        metrics["query_p90_ms"] = percentile_ms(run.query_latencies, 90)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["failed_ops_frac"] = run.failed / max(1, run.attempted)
    document: dict[str, object] = {
        "workload": run.workload,
        "correct": correct,
        "error": error,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
        "samples": {
            "write_latencies": len(run.write_latencies),
            "query_batches": len(run.query_latencies),
            **run.counts,
        },
        "digests": run.digests,
        "gates": run.gates,
        # How much slower than the reference the probes read, as a median:
        # the machine phase this run's raw times would have carried.
        "probe_slowdown": float(np.median(ctx.clock.slowdowns or [0.0])),
    }
    if ctx.tracer is not None:
        document["ledger"] = ledger_metrics(ctx.tracer, run)
        document["tracer"] = ctx.tracer
    return document


def ledger_metrics(tracer: Tracer, run: Run) -> dict[str, float]:
    """The per-layer metrics of a traced run (0 where a layer was bypassed)."""
    table = tracer.ledger()

    def self_s(*names: str) -> float:
        return sum(table[name]["self_s"] for name in names if name in table)

    def inclusive_s(name: str) -> float:
        return table[name]["inclusive_s"] if name in table else 0.0

    def counter(name: str) -> int:
        return OBS.counter_value(name)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    counts = tracer.counts
    queries = counter("query.count_queries") + counter("query.distinct_queries")
    hits, misses = counter("serve.cache_hits"), counter("serve.cache_misses")
    engine_hits, builds = counter("query.engine_cache_hits"), counter("query.engine_builds")
    writes = run.counts.get("logged_writes", len(run.write_latencies))
    return {
        "io.decode_s": self_s("io.decode"),
        "buffer_tree.insert_batch_s": self_s("buffer_tree.insert_batch"),
        "buffer_tree.drain_s": self_s("buffer_tree.drain"),
        "buffer_tree.flushes": counter("buffer_tree.flushes"),
        "buffer_tree.pushed_records": counter("buffer_tree.pushed_records"),
        "split.choose_s": self_s("split.choose"),
        "split.calls": counts["split.calls"],
        "split.records_examined": counts["split.records_examined"],
        "rtree.finish_bulk_s": self_s("rtree.finish_bulk"),
        "rtree.finish_bulk_leaves_walked": counts["rtree.finish_bulk_leaves_walked"],
        "rtree.finish_bulk_useful_ratio": ratio(
            counts["rtree.finish_bulk_leaves_over"],
            counts["rtree.finish_bulk_leaves_walked"],
        ),
        "rtree.delete_s": self_s("rtree.delete"),
        "rtree.update_s": self_s("rtree.update"),
        "rtree.leaf_splits": counter("rtree.leaf_splits"),
        "rtree.dissolves": counter("rtree.dissolves"),
        "release.group_s": self_s("release.group"),
        "release.emit_s": self_s("release.emit"),
        "release.digest_s": self_s("release.digest"),
        "release.partitions": counter("anonymizer.partitions"),
        "audit.s": self_s("audit"),
        "wal.log_s": self_s("wal.log"),
        "wal.fsyncs": counter("wal.fsyncs"),
        "wal.bytes_per_op": ratio(counter("wal.bytes"), writes),
        "recovery.snapshot_read_s": self_s("recovery.snapshot_read"),
        "recovery.wal_read_s": self_s("recovery.wal_read"),
        "recovery.replay_s": max(
            0.0,
            inclusive_s("client.recover")
            - inclusive_s("recovery.snapshot_read")
            - inclusive_s("recovery.wal_read"),
        ),
        "recovery.replayed_ops": counter("recovery.replayed_ops"),
        "serve.write_wait_s": sum(tracer.op_waits("write")),
        "serve.read_wait_s": sum(tracer.op_waits("query")),
        "serve.release_rebuilds": misses,
        "serve.release_cache_hit_ratio": ratio(hits, hits + misses),
        "serve.epoch_bumps": counter("serve.epoch_bumps"),
        "query.engine_build_s": self_s("query.engine_build"),
        "query.engine_builds": builds,
        "query.engine_cache_hit_ratio": ratio(engine_hits, engine_hits + builds),
        "query.evaluate_s": self_s("query.evaluate"),
        "query.nodes_visited_per_query": ratio(counter("query.nodes_visited"), queries),
        "query.nodes_pruned_per_query": ratio(counter("query.nodes_pruned"), queries),
        "query.entries_scanned_per_query": ratio(
            counter("query.partitions_scanned"), queries
        ),
        "query.useful_entry_ratio": ratio(
            counts["query.matching_partitions"], counter("query.partitions_scanned")
        ),
    }
