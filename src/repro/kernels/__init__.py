"""Numpy-backed columnar kernels for the anonymizer's hot paths.

Each hot loop has one implementation, the kernel here.  Its scalar twin
is a *differential oracle* kept with the tests (``tests/oracles``, or the
original pure-Python code where ``src`` still uses it): the property suite
proves element-wise equality, and the differential grid proves
whole-pipeline releases are bit-identical with the oracles swapped in.
See ``docs/KERNELS.md`` for the layout, the oracle-testing pattern, and
the checklist for adding a kernel.
"""

from repro.kernels.batch import RecordBatch
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
from repro.kernels.codec import (
    RECORD_DTYPE,
    decode_points,
    encode_points,
    points_to_tuples,
)
from repro.kernels.hilbert import (
    hilbert_keys,
    hilbert_keys_for_points,
    quantize_batch,
)
from repro.kernels.split import (
    best_threshold_batch,
    candidate_thresholds_batch,
)

__all__ = [
    "RecordBatch",
    "RECORD_DTYPE",
    "array_to_boxes",
    "best_threshold_batch",
    "boxes_to_array",
    "candidate_thresholds_batch",
    "decode_points",
    "encode_points",
    "group_mbrs",
    "hilbert_keys",
    "hilbert_keys_for_points",
    "intersect_masks",
    "intersections",
    "margins",
    "mbr_of_points",
    "points_to_tuples",
    "quantize_batch",
    "union_all_boxes",
    "union_arrays",
    "volumes",
]
