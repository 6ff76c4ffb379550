"""Property tests for the columnar kernels against their scalar oracles.

Every kernel in :mod:`repro.kernels` claims *bit-identity* with a scalar
twin (:mod:`tests.oracles`, or scalar code ``repro`` still calls, such as
:mod:`repro.index.hilbert` and :meth:`Box.from_points`).  This suite makes
that claim falsifiable:
hypothesis drives each kernel and its oracle over the same inputs and the
assertions demand exact equality — floats compare with ``==`` (and
``repr`` where the sign of zero matters), byte strings byte-for-byte, and
keys as Python integers, never through a tolerance.

The one *defined* divergence — signed-zero fold direction in the MBR
kernels — is pinned down by an explicit edge test instead of being
papered over, so a change in numpy's tie-breaking would fail loudly here
rather than silently shift release digests.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset.record import Record
from repro.geometry.box import Box, union_all
from repro.index.hilbert import hilbert_key, quantize
from repro.index.split import MidpointSplitPolicy, candidate_thresholds
from repro.kernels import RecordBatch
from repro.kernels.boxes import (
    array_to_boxes,
    boxes_to_array,
    group_mbrs,
    intersect_masks,
    intersections,
    margins,
    mbr_of_points,
    union_all_boxes,
    union_arrays,
    volumes,
)
from repro.kernels.codec import decode_points, encode_points, points_to_tuples
from repro.kernels.hilbert import (
    hilbert_keys,
    hilbert_keys_for_points,
    quantize_batch,
)
from repro.kernels.split import best_threshold_batch, candidate_thresholds_batch
from tests import oracles

# -- strategies ---------------------------------------------------------------

#: Clean finite floats: no NaN/inf and no -0.0, so float equality is exact
#: and the signed-zero fold caveat (tested separately) cannot trigger.
finite = st.floats(
    allow_nan=False, allow_infinity=False, width=32
).map(lambda value: value + 0.0)

#: Integer-coded coordinates — what record files actually hold.
coded = st.integers(-1000, 1000).map(float)


def point_arrays(coords=coded, min_rows=1, max_rows=40, max_dims=5):
    """(N, dims) float64 arrays with every row the same width."""
    return st.integers(1, max_dims).flatmap(
        lambda dims: st.lists(
            st.lists(coords, min_size=dims, max_size=dims),
            min_size=min_rows,
            max_size=max_rows,
        ).map(lambda rows: np.array(rows, dtype=np.float64))
    )


def cell_arrays(bits: int, max_dims: int = 9):
    top = (1 << bits) - 1
    return st.integers(1, max_dims).flatmap(
        lambda dims: st.lists(
            st.lists(st.integers(0, top), min_size=dims, max_size=dims),
            min_size=1,
            max_size=30,
        ).map(lambda rows: np.array(rows, dtype=np.uint64))
    )


# -- Hilbert keying -----------------------------------------------------------


class TestHilbertKeys:
    @given(st.integers(1, 10).flatmap(lambda b: st.tuples(st.just(b), cell_arrays(b))))
    def test_batch_keys_equal_scalar_keys(self, case) -> None:
        bits, cells = case
        keys = hilbert_keys(cells, bits).tolist()
        expected = [hilbert_key(row, bits) for row in cells.tolist()]
        assert keys == expected

    def test_wide_keys_exceed_64_bits_exactly(self) -> None:
        # census/agrawal shape: 9 dims x 10 bits = 90-bit keys.  The object
        # path must deliver the full integer, not the key modulo 2**64.
        rng = np.random.default_rng(3)
        cells = rng.integers(0, 1 << 10, size=(64, 9), dtype=np.uint64)
        keys = hilbert_keys(cells, 10)
        assert keys.dtype == object
        expected = [hilbert_key(row, 10) for row in cells.tolist()]
        assert keys.tolist() == expected
        assert any(key >> 64 for key in expected)  # the grid really is wide

    def test_narrow_keys_stay_uint64(self) -> None:
        cells = np.array([[1, 2], [3, 0]], dtype=np.uint64)
        assert hilbert_keys(cells, 4).dtype == np.uint64

    @pytest.mark.parametrize(("dims", "bits"), [(2, 3), (3, 2)])
    def test_full_grid_is_a_bijection_with_adjacent_steps(
        self, dims: int, bits: int
    ) -> None:
        """Over the whole grid the keys are a permutation of the key space
        and walking them in order moves one unit along one axis — the two
        structural facts that make Hilbert sorting a locality-preserving
        loader."""
        side = 1 << bits
        cells = np.array(
            [
                [(index >> (bits * d)) & (side - 1) for d in range(dims)]
                for index in range(side**dims)
            ],
            dtype=np.uint64,
        )
        keys = hilbert_keys(cells, bits).tolist()
        assert sorted(keys) == list(range(side**dims))
        walk = [row for _, row in sorted(zip(keys, cells.tolist()))]
        for here, there in zip(walk, walk[1:]):
            assert sum(abs(a - b) for a, b in zip(here, there)) == 1

    def test_dims_one_returns_cells(self) -> None:
        cells = np.array([[5], [0], [7]], dtype=np.uint64)
        assert hilbert_keys(cells, 3).tolist() == [5, 0, 7]

    def test_empty_batch(self) -> None:
        assert hilbert_keys(np.empty((0, 3), dtype=np.uint64), 4).tolist() == []

    def test_rejects_oversized_cells(self) -> None:
        with pytest.raises(ValueError, match="does not fit in 2 bits"):
            hilbert_keys(np.array([[4, 0]], dtype=np.uint64), 2)

    def test_rejects_wrong_rank(self) -> None:
        with pytest.raises(ValueError, match="must be"):
            hilbert_keys(np.array([1, 2, 3], dtype=np.uint64), 4)
        with pytest.raises(ValueError, match="at least one coordinate"):
            hilbert_keys(np.empty((2, 0), dtype=np.uint64), 4)


class TestQuantize:
    @given(
        point_arrays(coords=st.integers(-50, 150).map(float), max_dims=4),
        st.integers(1, 10),
    )
    def test_batch_quantize_equals_scalar(self, points, bits: int) -> None:
        dims = points.shape[1]
        lows = [0.0] * dims
        highs = [100.0] * dims
        cells = quantize_batch(points, lows, highs, bits)
        expected = [quantize(row, lows, highs, bits) for row in points.tolist()]
        assert cells.tolist() == expected

    @given(point_arrays(coords=finite, max_dims=3))
    def test_degenerate_and_inverted_extents_quantize_to_zero(self, points) -> None:
        dims = points.shape[1]
        lows = [10.0] * dims
        highs = [10.0] * dims  # extent 0 -> cell 0, as in the scalar path
        assert quantize_batch(points, lows, highs, 8).tolist() == [
            quantize(row, lows, highs, 8) for row in points.tolist()
        ]
        highs = [5.0] * dims  # negative extent is also "not positive"
        assert quantize_batch(points, lows, highs, 8).tolist() == [
            quantize(row, lows, highs, 8) for row in points.tolist()
        ]

    def test_rejects_non_finite(self) -> None:
        with pytest.raises(ValueError, match="non-finite"):
            quantize_batch(
                np.array([[np.nan, 0.0]]), [0.0, 0.0], [1.0, 1.0], 4
            )

    @given(point_arrays(coords=coded, max_dims=4), st.integers(1, 10))
    def test_fused_keys_equal_scalar_composition(self, points, bits: int) -> None:
        dims = points.shape[1]
        lows = [-1000.0] * dims
        highs = [1000.0] * dims
        keys = hilbert_keys_for_points(points, lows, highs, bits).tolist()
        assert keys == oracles.hilbert_keys_for_points(
            points, lows, highs, bits
        ).tolist()


# -- MBR arithmetic -----------------------------------------------------------


def _boxes_from(array: np.ndarray) -> list[Box]:
    dims = array.shape[1] // 2
    return [
        Box(
            tuple(min(a, b) for a, b in zip(row[:dims], row[dims:])),
            tuple(max(a, b) for a, b in zip(row[:dims], row[dims:])),
        )
        for row in array.tolist()
    ]


class TestBoxKernels:
    @given(point_arrays(coords=finite))
    def test_mbr_of_points_equals_box_from_points(self, points) -> None:
        kernel = mbr_of_points(points)
        oracle = Box.from_points(points.tolist())
        assert repr(kernel) == repr(oracle)  # repr catches a -0.0 drift

    def test_mbr_rejects_empty_with_scalar_message(self) -> None:
        with pytest.raises(ValueError, match="empty collection of points"):
            mbr_of_points(np.empty((0, 2)))
        with pytest.raises(ValueError, match="empty collection of points"):
            Box.from_points([])

    def test_signed_zero_fold_direction_is_the_defined_divergence(self) -> None:
        """The one documented gap: numpy's min/max keep the *last* zero on a
        ties-only axis while the scalar fold keeps the *first*.  Values are
        equal (0.0 == -0.0); only the sign bit differs — impossible on the
        integer-coded data releases are built from, and pinned here so a
        numpy behavior change surfaces as a test failure."""
        points = np.array([[0.0], [-0.0]])
        kernel = mbr_of_points(points)
        oracle = Box.from_points(points.tolist())
        assert kernel == oracle  # dataclass equality: -0.0 == 0.0
        assert repr(oracle.lows) == "(0.0,)"  # scalar keeps the first zero
        assert repr(kernel.lows) == "(-0.0,)"  # kernel keeps the last zero

    @given(
        point_arrays(coords=finite, min_rows=1, max_rows=30),
        st.lists(st.integers(1, 29), max_size=6),
    )
    def test_group_mbrs_equal_per_group_folds(self, points, cuts) -> None:
        total = points.shape[0]
        starts = sorted({0, *(cut for cut in cuts if cut < total)})
        kernel = group_mbrs(points, starts)
        oracle = oracles.group_mbrs(points, starts)
        assert [repr(box) for box in kernel] == [repr(box) for box in oracle]

    def test_group_mbrs_validates_offsets(self) -> None:
        points = np.zeros((4, 2))
        assert group_mbrs(points, []) == []
        with pytest.raises(ValueError, match="begin at 0"):
            group_mbrs(points, [1])
        with pytest.raises(ValueError, match="empty collection"):
            group_mbrs(points, [0, 2, 2])
        with pytest.raises(ValueError, match="empty collection"):
            group_mbrs(points, [0, 4])  # trailing group is empty

    @given(point_arrays(coords=finite, min_rows=1, max_rows=20, max_dims=3))
    def test_union_volumes_margins_equal_box_methods(self, points) -> None:
        dims = points.shape[1]
        array = np.concatenate([points, points + np.abs(points)], axis=1)
        boxes = _boxes_from(array)
        packed = boxes_to_array(boxes)
        assert repr(union_all_boxes(boxes)) == repr(union_all(boxes))
        unioned = union_arrays(packed)
        assert unioned.tolist() == list(
            union_all(boxes).lows + union_all(boxes).highs
        )
        assert volumes(packed).tolist() == [box.area() for box in boxes]
        assert margins(packed).tolist() == [box.margin() for box in boxes]
        assert array_to_boxes(packed) == boxes
        assert dims == boxes[0].dimensions

    def test_union_rejects_empty_with_scalar_message(self) -> None:
        with pytest.raises(ValueError, match="empty collection of boxes"):
            boxes_to_array([])
        with pytest.raises(ValueError, match="empty collection of boxes"):
            union_arrays(np.empty((0, 4)))

    def test_dims_one_degenerate_boxes(self) -> None:
        # A single zero-width extent: area 0, margin 0, intersection = self.
        box = Box((3.0,), (3.0,))
        packed = boxes_to_array([box])
        assert volumes(packed).tolist() == [box.area()] == [0.0]
        assert margins(packed).tolist() == [box.margin()] == [0.0]
        assert intersections(packed, box) == [box.intersection(box)] == [box]

    @given(
        point_arrays(coords=coded, min_rows=1, max_rows=20, max_dims=3),
        st.lists(coded, min_size=6, max_size=6),
    )
    def test_intersections_equal_box_methods(self, points, probe_coords) -> None:
        dims = points.shape[1]
        array = np.concatenate([points, points + np.abs(points)], axis=1)
        boxes = _boxes_from(array)
        packed = boxes_to_array(boxes)
        probe = Box(
            tuple(
                min(a, b)
                for a, b in zip(probe_coords[:dims], probe_coords[dims : 2 * dims])
            ),
            tuple(
                max(a, b)
                for a, b in zip(probe_coords[:dims], probe_coords[dims : 2 * dims])
            ),
        )
        assert intersect_masks(packed, probe).tolist() == [
            box.intersects(probe) for box in boxes
        ]
        assert intersections(packed, probe) == [
            box.intersection(probe) for box in boxes
        ]


# -- record codec -------------------------------------------------------------


class TestCodec:
    @given(point_arrays(coords=st.integers(-(2**31), 2**31 - 1).map(float)))
    def test_encode_matches_struct_pack_stream(self, points) -> None:
        dims = points.shape[1]
        packer = struct.Struct(f"<{dims}i")
        expected = b"".join(
            packer.pack(*(int(round(value)) for value in row))
            for row in points.tolist()
        )
        assert encode_points(points) == expected

    @given(point_arrays(coords=st.integers(-(2**31), 2**31 - 1).map(float)))
    def test_decode_matches_struct_iter_unpack(self, points) -> None:
        dims = points.shape[1]
        chunk = encode_points(points)
        expected = points_to_tuples(oracles.decode_points(chunk, dims))
        decoded = decode_points(chunk, dims)
        assert points_to_tuples(decoded) == expected
        assert decoded.tolist() == points.tolist()  # int32 -> float64 is exact

    def test_int32_boundaries_round_trip(self) -> None:
        edge = np.array(
            [[-(2**31), 2**31 - 1], [0.0, -1.0]], dtype=np.float64
        )
        assert decode_points(encode_points(edge), 2).tolist() == edge.tolist()

    def test_out_of_range_refused_not_wrapped(self) -> None:
        with pytest.raises(ValueError, match="int32"):
            encode_points(np.array([[2.0**31]]))
        with pytest.raises(ValueError, match="int32"):
            encode_points(np.array([[-(2.0**31) - 1.0]]))
        with pytest.raises(struct.error):  # the scalar refusal it mirrors
            struct.Struct("<i").pack(2**31)

    @given(st.lists(st.integers(-8, 8), min_size=1, max_size=12))
    def test_half_to_even_rounding_matches_python_round(self, halves) -> None:
        values = np.array([[h / 2.0 for h in halves]])
        expected = struct.Struct(f"<{len(halves)}i").pack(
            *(int(round(h / 2.0)) for h in halves)
        )
        assert encode_points(values) == expected

    def test_zero_record_pages(self) -> None:
        assert encode_points(np.empty((0, 3))) == b""
        assert decode_points(b"", 3).shape == (0, 3)

    def test_torn_page_rejected(self) -> None:
        with pytest.raises(ValueError, match="whole number"):
            decode_points(b"\x00" * 10, 3)

    def test_rejects_non_finite(self) -> None:
        with pytest.raises(ValueError, match="non-finite"):
            encode_points(np.array([[np.inf]]))


# -- split thresholds ---------------------------------------------------------


#: Tie-heavy value lists: a tiny alphabet forces duplicate runs, the case
#: the run-boundary arithmetic must get exactly right.
tie_heavy = st.lists(st.integers(0, 6).map(float), min_size=0, max_size=40)


class TestThresholdKernel:
    @given(tie_heavy, st.integers(1, 6))
    def test_batch_equals_scalar_sweep(self, values, min_count: int) -> None:
        assert candidate_thresholds_batch(values, min_count) == (
            oracles.candidate_thresholds_batch(values, min_count)
        )

    @given(st.lists(finite, min_size=0, max_size=40), st.integers(1, 6))
    def test_batch_equals_scalar_sweep_on_floats(self, values, min_count) -> None:
        assert candidate_thresholds_batch(values, min_count) == (
            oracles.candidate_thresholds_batch(values, min_count)
        )

    def test_empty_single_and_uniform_inputs(self) -> None:
        assert candidate_thresholds_batch([], 1) == []
        assert candidate_thresholds_batch([3.0], 1) == []
        assert candidate_thresholds_batch([7.0] * 10, 1) == []
        assert best_threshold_batch([5.0, 5.0], 1) is None

    def test_dispatch_agrees_across_the_flag(self, scalar_oracles) -> None:
        """``candidate_thresholds`` dispatches to the kernel, and swapping
        the oracle in behind it changes nothing."""
        values = [1.0, 1.0, 2.0, 3.0, 50.0, 51.0]
        fast = candidate_thresholds(values, 1)
        with scalar_oracles() as calls:
            slow = candidate_thresholds(values, 1)
        assert calls["candidate_thresholds_batch"] == 1
        assert fast == slow == [(2.0, 3), (3.0, 4)]


class TestMidpointEmptyGuard:
    def test_empty_records_return_none_not_crash(self) -> None:
        # Regression (found writing the kernels): max() over no extents.
        assert MidpointSplitPolicy().choose_split([], 2, (10.0, 10.0)) is None

    def test_undersized_groups_return_none(self) -> None:
        records = [Record(0, (1.0, 2.0)), Record(1, (3.0, 4.0))]
        assert MidpointSplitPolicy().choose_split(records, 2, (10.0, 10.0)) is None


# -- RecordBatch --------------------------------------------------------------


class TestRecordBatch:
    @given(point_arrays(coords=coded, min_rows=0, max_rows=20))
    def test_record_round_trip(self, points) -> None:
        records = [
            Record(rid, tuple(row)) for rid, row in enumerate(points.tolist())
        ]
        batch = RecordBatch.from_records(records)
        assert len(batch) == len(records)
        assert batch.to_records() == records
        assert list(batch.iter_records()) == records

    def test_empty_batch_shape(self) -> None:
        batch = RecordBatch.from_records([])
        assert len(batch) == 0
        assert batch.points.shape == (0, 0)
        assert batch.to_records() == []

    def test_from_points_assigns_file_position_rids(self) -> None:
        batch = RecordBatch.from_points(np.zeros((3, 2)), first_rid=10)
        assert batch.rids.tolist() == [10, 11, 12]

    def test_mbr_and_keys_route_through_the_kernels(self) -> None:
        points = np.array([[1.0, 8.0], [5.0, 2.0]])
        batch = RecordBatch.from_points(points)
        assert batch.mbr() == Box((1.0, 2.0), (5.0, 8.0))
        lows, highs = (0.0, 0.0), (10.0, 10.0)
        assert batch.hilbert_keys(lows, highs, 4).tolist() == [
            hilbert_key(quantize(row, lows, highs, 4), 4)
            for row in points.tolist()
        ]

    def test_mismatched_rids_rejected(self) -> None:
        with pytest.raises(ValueError, match="rids for"):
            RecordBatch(np.zeros((3, 2)), np.zeros(2, dtype=np.int64))
        with pytest.raises(ValueError, match="must be"):
            RecordBatch(np.zeros(3), np.zeros(3, dtype=np.int64))
