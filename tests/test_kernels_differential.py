"""Kernel-vs-oracle differential suite.

The columnar kernels' contract is *bit-for-bit equality* with the scalar
loops they replaced, which live on as test oracles (``tests/oracles``):
swapping the oracles in must never change a release.  This suite enforces
it end to end across a grid of datasets × k × worker counts, comparing
leaf regions, partition boxes and membership, the release digest, and the
audit record (modulo its sequence field) between a normal run and an
oracle-patched one — the same four levels as the serial/parallel
differential suite, with the oracle swap as the axis instead of the
worker count.

One small cell runs in tier-1 on every push; the full grid carries the
``stress`` marker and runs in the dedicated CI job alongside the byte-level
writer/reader and loader differentials below.  The pinned digests at the
end hold the releases fixed without any patching.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from repro.core.anonymizer import RTreeAnonymizer
from repro.core.partition import release_digest
from repro.dataset.agrawal import make_agrawal_table
from repro.dataset.census import make_census_table
from repro.dataset.io import RecordFileReader, RecordFileWriter, write_table
from repro.index.bulk import DEFAULT_HILBERT_BITS as BITS
from repro.index.bulk import hilbert_partitions, hilbert_sorted
from repro.obs import AUDITOR
from repro.parallel.engine import _scan_slice
from repro.parallel.planner import (
    plan_file_shards,
    plan_record_shards,
    slice_bounds,
)
from tests import oracles

RECORDS = 600
STRESS_RECORDS = 2_400
SEED = 7
DATASETS = {
    "census": make_census_table,
    "agrawal": make_agrawal_table,
}
GRID = [
    (dataset, k, workers)
    for dataset in sorted(DATASETS)
    for k in (5, 25)
    for workers in (1, 4)
]


@lru_cache(maxsize=None)
def _table(dataset: str, records: int):
    return DATASETS[dataset](records, seed=SEED)


def _domain(table):
    return table.schema.domain_lows(), table.schema.domain_highs()


@pytest.fixture(scope="module")
def record_files(tmp_path_factory):
    staging = tmp_path_factory.mktemp("kernels_differential")
    paths = {}
    for dataset in DATASETS:
        for records in (RECORDS, STRESS_RECORDS):
            path = str(staging / f"{dataset}-{records}.records")
            write_table(_table(dataset, records), path)
            paths[dataset, records] = path
    return paths


def _release_snapshot(
    dataset: str, k: int, workers: int | None, records: int, path: str
):
    """Load from file, publish at k, and capture every compared level."""
    table = _table(dataset, records)
    anonymizer = RTreeAnonymizer(table, base_k=min(5, k))
    consumed = anonymizer.bulk_load_file(path, workers=workers)
    assert consumed == records
    AUDITOR.enable(reset=True)
    try:
        release = anonymizer.anonymize(k)
        audit = dict(AUDITOR.latest)
    finally:
        AUDITOR.disable()
    audit.pop("sequence", None)
    regions = [
        (region.lows, region.highs) for region in anonymizer.leaf_regions()
    ]
    partitions = [
        ((p.box.lows, p.box.highs), sorted(p.rids()))
        for p in release.partitions
    ]
    return regions, partitions, release_digest(release), audit


def _assert_oracles_agree(
    scalar_oracles, dataset, k, workers, records, path
) -> None:
    fast = _release_snapshot(dataset, k, workers, records, path)
    with scalar_oracles() as calls:
        slow = _release_snapshot(dataset, k, workers, records, path)
    # The swap reached the pipeline: the release's MBRs always come from
    # the group-MBR twin, and the serial file load decodes every page
    # (the sharded one plans by keying a sample) in this process.
    assert calls["group_mbrs"] > 0
    if workers is None:
        assert calls["decode_points"] > 0
    else:
        assert calls["hilbert_keys_for_points"] > 0
    for name, got, expected in zip(
        ("regions", "partitions", "digest", "audit"), fast, slow
    ):
        assert got == expected, (
            f"{dataset} k={k} workers={workers}: {name} diverged between "
            "the kernels and the scalar oracles"
        )


def test_small_cell_release_identical_across_flag(
    record_files, scalar_oracles
) -> None:
    """The tier-1 cell: serial and sharded, census at the default k."""
    path = record_files["census", RECORDS]
    for workers in (None, 2):
        _assert_oracles_agree(scalar_oracles, "census", 5, workers, RECORDS, path)


@pytest.mark.stress
@pytest.mark.parametrize(("dataset", "k", "workers"), GRID)
def test_release_identical_across_flag(
    dataset: str, k: int, workers: int, record_files, scalar_oracles
) -> None:
    path = record_files[dataset, STRESS_RECORDS]
    _assert_oracles_agree(
        scalar_oracles, dataset, k, workers, STRESS_RECORDS, path
    )


@pytest.mark.stress
def test_forced_multiprocessing_identical_across_flag(
    monkeypatch, record_files, scalar_oracles
) -> None:
    """Cross the real process boundary: pool workers are forked, so they
    inherit the parent's oracle patches, and a forced pool must behave
    like the in-process fallback on both paths."""
    monkeypatch.setenv("REPRO_PARALLEL_POOL", "force")
    path = record_files["census", RECORDS]
    _assert_oracles_agree(scalar_oracles, "census", 5, 4, RECORDS, path)


@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_hilbert_ordering_identical_across_flag(
    dataset: str, scalar_oracles
) -> None:
    """The loader's sort — keys, stable tie order, and grouping — is the
    innermost surface the keying kernel touches; compare it directly."""
    table = _table(dataset, RECORDS)
    records = list(table.records)
    lows, highs = _domain(table)
    fast = (
        hilbert_sorted(records, lows, highs),
        hilbert_partitions(records, lows, highs, 5),
    )
    with scalar_oracles() as calls:
        slow = (
            hilbert_sorted(records, lows, highs),
            hilbert_partitions(records, lows, highs, 5),
        )
    assert calls["hilbert_keys_for_points"] == 2
    assert fast == slow


@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_shard_plans_identical_across_flag(
    dataset: str, record_files, scalar_oracles
) -> None:
    """Planner sampling keys through the kernels must place the exact same
    shard boundaries (they are plain Python ints on both paths)."""
    table = _table(dataset, RECORDS)
    records = list(table.records)
    lows, highs = _domain(table)
    path = record_files[dataset, RECORDS]

    def plans():
        return [
            (
                plan_record_shards(records, shards, lows, highs, BITS),
                plan_file_shards(path, shards, lows, highs, BITS),
            )
            for shards in (2, 5)
        ]

    fast = plans()
    with scalar_oracles() as calls:
        slow = plans()
    assert calls["hilbert_keys_for_points"] == 4
    assert calls["decode_points"] > 0
    assert fast == slow


@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_shard_scan_equals_the_scalar_loop(dataset: str, record_files) -> None:
    """Each worker's columnar scan (page decode, batch keys, searchsorted
    bucketing) yields the per-record loop's buckets, for file slices and
    in-memory slices alike."""
    table = _table(dataset, RECORDS)
    records = list(table.records)
    lows, highs = _domain(table)
    path = record_files[dataset, RECORDS]
    for shards in (1, 5):
        plan = plan_record_shards(records, shards, lows, highs, BITS)
        geometry = (plan.boundaries, plan.lows, plan.highs, plan.bits)
        for start, count in slice_bounds(len(records), 3):
            for task in (
                ("file", (path, start, count, 10, 64), *geometry),
                ("records", records[start : start + count], *geometry),
            ):
                buckets, stats = _scan_slice(task)
                assert buckets == oracles.scan_slice(task)
                assert stats["records"] == count


def test_batch_writer_produces_byte_identical_files(tmp_path) -> None:
    """``write_batch`` against a per-record ``write_point`` control file."""
    table = _table("census", RECORDS)
    points = [record.point for record in table.records]
    scalar_path = tmp_path / "scalar.records"
    batch_path = tmp_path / "batch.records"
    with RecordFileWriter(scalar_path, len(points[0])) as writer:
        for point in points:
            writer.write_point(point)
    with RecordFileWriter(batch_path, len(points[0])) as writer:
        written = writer.write_batch(np.array(points, dtype=np.float64))
    assert written == len(points)
    assert batch_path.read_bytes() == scalar_path.read_bytes()


def test_batch_reader_yields_the_scalar_rows(tmp_path) -> None:
    """``iter_point_batches`` over every batch size tiles ``iter_points``
    exactly, including the slice-window form the shard scanners use."""
    table = _table("census", RECORDS)
    path = tmp_path / "census.records"
    write_table(table, path)
    reader = RecordFileReader(path)
    scalar = [tuple(point) for point in reader.iter_points()]
    for batch_size in (1, 7, 256, 10_000):
        rows: list[tuple[float, ...]] = []
        positions: list[int] = []
        for position, points in reader.iter_point_batches(batch_size):
            positions.append(position)
            rows.extend(tuple(row) for row in points.tolist())
        assert rows == scalar
        assert positions[0] == 0
    window = list(reader.iter_point_batches(64, start=100, count=37))
    windowed = [
        tuple(row) for _, points in window for row in points.tolist()
    ]
    assert windowed == scalar[100:137]
    assert window[0][0] == 100


#: ``release_digest`` of a serial file load at base k 5.  These literals
#: guard the kernel path on its own terms, with no oracle patching: any
#: change to keying, splitting, grouping or emission that moves a
#: release shows here.
PINNED_DIGESTS = {
    ("census", 5): "e32ac2711bb2a6988dccc683312998f4a6bd64851ade10d4e0bcdc827772975d",
    ("census", 25): "c0e0b39f261571d0f77e44aac7f65f41c742e9a99647f7d257af97c3c6ef77a6",
    ("agrawal", 5): "6f0ac61ba0f69c4792cf17045e7c47a91f6b089218137452a3300c9050ee0e4d",
    ("agrawal", 25): "92e2b48262c61b7728a30d211d983acf912ee9d795f55ae7f16a1e66f3762aa1",
}


def test_release_digests_are_pinned(record_files) -> None:
    got = {}
    for dataset, k in PINNED_DIGESTS:
        anonymizer = RTreeAnonymizer(_table(dataset, RECORDS), base_k=5)
        assert anonymizer.bulk_load_file(record_files[dataset, RECORDS]) == RECORDS
        got[dataset, k] = release_digest(anonymizer.anonymize(k))
    assert got == PINNED_DIGESTS
