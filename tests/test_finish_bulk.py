"""``finish_bulk`` visits only the leaves bulk mode left over-full.

Work bounds: ``rtree.finish_bulk_leaves`` counts the leaves
:meth:`~repro.index.rtree.RPlusTree.finish_bulk` examines.  A one-record
``insert_batch``, a durable service insert and a WAL replay of
single-insert batch commits each examine at most the one leaf the batch
over-filled — not every leaf of the tree.  Every case makes some batch
over-fill a leaf, so the counter must also be live (the full walk kept in
:mod:`tests.oracles.rtree` reads the whole leaf count instead).

Differential: random ``insert`` / ``insert_batch`` / ``delete`` /
``update`` sequences run on two anonymizers, one as shipped and one whose
``finish_bulk`` is the full-walk oracle; after every operation both must hold
the same tree (leaf sequence, cut hierarchy, record order) and page I/O,
outside bulk mode both pass ``check_invariants()``, and after every drain
both publish equal ``subtree`` / ``sequential`` / ``hilbert`` releases.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api, obs
from repro.core.anonymizer import RTreeAnonymizer
from repro.core.partition import release_digest
from repro.dataset.record import Record
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import Table
from repro.durability import DurabilityConfig
from repro.durability.checkpoint import serialize_tree
from repro.index.node import LeafNode
from repro.index.rtree import RPlusTree
from repro.obs import OBS
from repro.storage.buffer_pool import BufferPool
from repro.storage.pagefile import PageFile
from tests.conftest import random_records
from tests.oracles.rtree import install_full_walk

EXAMINED = "rtree.finish_bulk_leaves"


@contextmanager
def metered() -> Iterator[None]:
    obs.enable()
    try:
        yield
    finally:
        obs.disable()


def overflowing_inserts(tree: RPlusTree, first_rid: int) -> list[Record]:
    """Records that fill the emptiest leaf to capacity, then one past it.

    Each reuses a point of the leaf's own records, so it routes there and
    the over-full leaf still has a legal cut.
    """
    leaf = min(tree.leaves(), key=lambda leaf: len(leaf.records))
    points = [record.point for record in leaf.records]
    need = tree.leaf_capacity - len(leaf.records) + 1
    return [
        Record(first_rid + index, points[index % len(points)], ("flu",))
        for index in range(need)
    ]


class TestWorkBounds:
    def test_one_record_batch_examines_only_its_leaf(self, schema3) -> None:
        table = Table(schema3, tuple(random_records(20_000, seed=13)))
        anonymizer = RTreeAnonymizer(table, base_k=5)
        anonymizer.bulk_load(table)
        *fill, last = overflowing_inserts(anonymizer.tree, len(table))
        for record in fill:
            anonymizer.insert(record)  # fills to capacity; no split yet
        with metered():
            anonymizer.insert_batch([last])
            examined = OBS.counter_value(EXAMINED)
            splits = OBS.counter_value("rtree.leaf_splits")
        assert anonymizer.leaf_count() > 1_000
        assert examined == 1
        assert splits >= 1
        anonymizer.tree.check_invariants()

    def test_durable_service_insert_examines_only_its_leaf(
        self, schema3, tmp_path
    ) -> None:
        table = Table(schema3, tuple(random_records(5_000, seed=14)))
        durability = DurabilityConfig(tmp_path / "state")
        with api.open(
            table, base_k=5, durability=durability, serve=True
        ) as service:
            service.load(table)
            inserts = overflowing_inserts(service.engine.tree, len(table))
            per_insert: list[int] = []
            with metered():
                for record in inserts:
                    before = OBS.counter_value(EXAMINED)
                    service.insert(record)
                    per_insert.append(OBS.counter_value(EXAMINED) - before)
                groups = OBS.counter_value("serve.write_groups")
            assert service.engine.leaf_count() > 250
            service.engine.tree.check_invariants()
        assert groups == len(inserts)
        # Only the last insert over-fills its leaf.
        assert per_insert == [0] * (len(inserts) - 1) + [1]

    def test_recovery_replay_examines_only_overfilled_leaves(
        self, schema3, tmp_path
    ) -> None:
        table = Table(schema3, tuple(random_records(5_000, seed=15)))
        directory = tmp_path / "state"
        handle = api.open(table, base_k=5, durability=DurabilityConfig(directory))
        handle.load(table)
        handle.checkpoint()
        leaf = handle.engine.tree.leaves()[0]
        points = [record.point for record in leaf.records]
        for index in range(50):
            record = Record(len(table) + index, points[index % len(points)], ("flu",))
            handle.insert_batch([record])
        expected = release_digest(handle.engine.anonymize(10))
        handle.close()
        with metered():
            recovered = api.recover(directory)
            examined = OBS.counter_value(EXAMINED)
        try:
            assert recovered.recovery.replayed_ops == 50
            assert recovered.engine.leaf_count() > 250
            # A one-record batch over-fills at most one leaf; 50 records
            # into one leaf's region over-fill it at least once.
            assert 1 <= examined <= 50
            assert release_digest(recovered.engine.anonymize(10)) == expected
        finally:
            recovered.close()


# -- differential against the full walk ------------------------------------------

SCHEMA2 = Schema(
    (Attribute.numeric("a", 0, 7), Attribute.numeric("b", 0, 7)),
    sensitive=("s",),
)


def paged_anonymizer(k: int) -> RTreeAnonymizer:
    """Fanout 3, four-record pages and a 32-page pool.

    Small buffers make flushes land mid-batch, and the small pool evicts,
    so the page I/O both twins report is compared under eviction.
    """
    pool: BufferPool[Record] = BufferPool(
        PageFile(page_bytes=64, record_bytes=16), 32 * 64
    )
    return RTreeAnonymizer(Table(SCHEMA2, ()), base_k=k, max_fanout=3, pool=pool)


def assert_same_tree(shipped: RTreeAnonymizer, oracle: RTreeAnonymizer) -> None:
    assert [
        sorted(r.rid for r in leaf.records) for leaf in shipped.tree.leaves()
    ] == [sorted(r.rid for r in leaf.records) for leaf in oracle.tree.leaves()]
    assert serialize_tree(shipped.tree) == serialize_tree(oracle.tree)
    assert shipped.io_stats() == oracle.io_stats()
    if not shipped.tree.in_bulk_mode:
        shipped.tree.check_invariants()
        oracle.tree.check_invariants()


def assert_same_after_drain(
    shipped: RTreeAnonymizer, oracle: RTreeAnonymizer, k: int
) -> None:
    assert_same_tree(shipped, oracle)
    if len(shipped) < k:
        return
    for strategy in ("subtree", "sequential", "hilbert"):
        assert release_digest(shipped.anonymize(k, strategy=strategy)) == (
            release_digest(oracle.anonymize(k, strategy=strategy))
        )


def log_splits(tree: RPlusTree) -> list[list[int]]:
    """Record the rids of every leaf ``tree`` starts to split, in order."""
    log: list[list[int]] = []
    split = tree._split_leaf

    def logged(leaf: LeafNode) -> None:
        log.append(sorted(record.rid for record in leaf.records))
        split(leaf)

    tree._split_leaf = logged  # type: ignore[method-assign]
    return log


class OpRunner:
    """Applies one operation to both anonymizers and compares them."""

    def __init__(self, k: int) -> None:
        self.k = k
        self.shipped = paged_anonymizer(k)
        self.oracle = paged_anonymizer(k)
        install_full_walk(self.oracle.tree)
        self.split_logs = (
            log_splits(self.shipped.tree),
            log_splits(self.oracle.tree),
        )
        self.next_rid = 0
        self.deletes_in_bulk_mode = 0

    def record(self, point: tuple[int, int]) -> Record:
        self.next_rid += 1
        return Record(self.next_rid, (float(point[0]), float(point[1])), ("x",))

    def delivered(self) -> list[Record]:
        """Records in leaves (not loader buffers), in rid order."""
        return sorted(
            (r for leaf in self.shipped.tree.leaves() for r in leaf.records),
            key=lambda r: r.rid,
        )

    def apply(self, op: tuple) -> None:
        kind = op[0]
        pair = (self.shipped, self.oracle)
        if kind == "insert":
            record = self.record(op[1])
            for anonymizer in pair:
                anonymizer.insert(record)
        elif kind in ("buffer", "batch"):
            records = [self.record(point) for point in op[1]]
            for anonymizer in pair:
                if kind == "buffer":
                    anonymizer.loader.insert_batch(records)  # left undrained
                else:
                    anonymizer.insert_batch(records)
        elif kind == "drain":
            for anonymizer in pair:
                anonymizer.loader.drain()
        elif kind in ("delete", "update"):
            delivered = self.delivered()
            if not delivered:
                return
            victim = delivered[op[1] % len(delivered)]
            if self.shipped.tree.in_bulk_mode:
                self.deletes_in_bulk_mode += 1
            for anonymizer in pair:
                if kind == "delete":
                    anonymizer.delete(victim.rid, victim.point)
                else:
                    moved = Record(
                        victim.rid, (float(op[2][0]), float(op[2][1])), ("x",)
                    )
                    anonymizer.update(victim.rid, victim.point, moved)
        assert self.split_logs[0] == self.split_logs[1]
        assert_same_tree(self.shipped, self.oracle)
        if kind in ("batch", "drain"):
            assert_same_after_drain(self.shipped, self.oracle, self.k)

    def finish(self) -> None:
        self.apply(("drain",))


def operations(span: int) -> st.SearchStrategy[tuple]:
    point = st.tuples(st.integers(0, span), st.integers(0, span))
    index = st.integers(0, 10_000)
    return st.one_of(
        st.tuples(st.just("insert"), point),
        st.tuples(st.just("buffer"), st.lists(point, min_size=1, max_size=40)),
        st.tuples(st.just("batch"), st.lists(point, min_size=1, max_size=40)),
        st.tuples(st.just("drain")),
        st.tuples(st.just("delete"), index),
        st.tuples(st.just("update"), index, point),
    )


@settings(max_examples=60, deadline=None)
@given(
    k=st.sampled_from([2, 3]),
    # span 1 puts every record on one of four points: split refusals.
    ops=st.sampled_from([1, 3, 7]).flatmap(
        lambda span: st.lists(operations(span), min_size=1, max_size=30)
    ),
)
def test_touched_set_matches_full_walk(k: int, ops: list[tuple]) -> None:
    runner = OpRunner(k)
    for op in ops:
        runner.apply(op)
    runner.finish()


def test_scripted_sequence_reaches_every_case() -> None:
    """Refusals, dissolves and deletes in bulk mode all occur and agree."""
    runner = OpRunner(k=3)
    grid = [(x, y) for x in range(8) for y in range(8)]
    with metered():
        runner.apply(("batch", grid * 2))
        # Undrained buffers keep the tree in bulk mode through the deletes.
        # The right-hand leaf over-fills first; the left-hand one must
        # still be split first.
        runner.apply(("buffer", [(7, 7)] * 20 + [(0, 0)] * 20))
        # Both copies of the x=0 column and one of x=1 (lowest rids first):
        # the leaves over those 2x2 blocks fall below k and dissolve.
        for index in [0] * 16 + [48] * 8:
            runner.apply(("delete", index))
        bulk_dissolves = OBS.counter_value("rtree.dissolves")
        runner.apply(("update", 5, (1, 1)))
        runner.apply(("drain",))
        # Duplicate-heavy: one point cannot be cut, so the leaf stays over-full.
        runner.apply(("batch", [(4, 4)] * 30))
        runner.apply(("insert", (4, 4)))
        runner.apply(("batch", [(4, 4)]))
        refusals = OBS.counter_value("rtree.split_refusals")
        # The (7, 7) leaf has no legal cut (its other point, (7, 6), holds
        # fewer than k records), so it stays over-full and registered;
        # deleting its (7, 7) records outside bulk mode dissolves it.
        dissolves = OBS.counter_value("rtree.dissolves")
        while OBS.counter_value("rtree.dissolves") == dissolves:
            delivered = runner.delivered()
            last = max(
                i for i, r in enumerate(delivered) if r.point == (7.0, 7.0)
            )
            runner.apply(("delete", last))
    runner.finish()
    assert runner.deletes_in_bulk_mode > 0
    assert bulk_dissolves > 0
    assert refusals > 0
