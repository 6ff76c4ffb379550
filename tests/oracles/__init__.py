"""Scalar twins of the columnar kernels: the differential oracles.

Each hot loop in ``repro`` has one implementation, a numpy kernel.  The
pure-Python loops those kernels replaced live here and are used only by
the tests, two ways:

* property suites compare a kernel with its twin element-wise
  (``tests/test_kernels.py``);
* :func:`install` — behind the ``scalar_oracles`` fixture — swaps the
  twins in for the kernel entry points, so a whole pipeline can run once
  as shipped and once on the oracles and the two releases be compared
  (``tests/test_kernels_differential.py``).

Scalar code that ``repro`` itself still calls stays where it is and is
used as the oracle in place: :mod:`repro.index.hilbert`,
:meth:`repro.geometry.box.Box.from_points`, and the ``struct`` codec
behind ``RecordFileReader.iter_records``/``iter_points`` and
``RecordFileWriter.write_point``.

The whole-tree walks the R+-tree replaced (``finish_bulk`` over every
leaf, recursive ``iter_leaves``) live in :mod:`tests.oracles.rtree`.
"""

from __future__ import annotations

import importlib
import struct
import sys
from bisect import bisect_right
from collections import Counter
from typing import Callable, Sequence

import numpy as np

from repro.dataset.io import RecordFileReader
from repro.dataset.record import Record
from repro.geometry.box import Box
from repro.index.hilbert import hilbert_key, quantize


def hilbert_keys_for_points(
    points: np.ndarray,
    lows: Sequence[float],
    highs: Sequence[float],
    bits: int,
) -> np.ndarray:
    """Per-row ``hilbert_key(quantize(...))``, as an object array of ints."""
    rows = np.asarray(points, dtype=np.float64).tolist()
    return np.array(
        [hilbert_key(quantize(row, lows, highs, bits), bits) for row in rows],
        dtype=object,
    )


def group_mbrs(points: np.ndarray, starts: Sequence[int]) -> list[Box]:
    """One :meth:`Box.from_points` fold per contiguous group of rows."""
    rows = [tuple(row) for row in np.asarray(points, dtype=np.float64).tolist()]
    bounds = list(starts) + [len(rows)]
    return [
        Box.from_points(rows[start:end]) for start, end in zip(bounds, bounds[1:])
    ]


def decode_points(chunk: bytes, dimensions: int) -> np.ndarray:
    """Decode a page record by record with ``struct``."""
    record = struct.Struct(f"<{dimensions}i")
    if len(chunk) % record.size:
        raise ValueError(
            f"page of {len(chunk)} bytes is not a whole number of "
            f"{record.size}-byte records"
        )
    rows = [
        tuple(float(value) for value in values)
        for values in record.iter_unpack(chunk)
    ]
    return np.array(rows, dtype=np.float64).reshape(-1, dimensions)


def candidate_thresholds_batch(
    values: Sequence[float], min_count: int
) -> list[tuple[float, int]]:
    """The linear sweep over sorted values (see ``candidate_thresholds``)."""
    total = len(values)
    if total < 2 * min_count:
        return []
    ordered = sorted(values)
    target = total / 2.0
    balanced: tuple[float, int] | None = None
    balanced_distance = float("inf")
    widest: tuple[float, int] | None = None
    widest_gap = -1.0
    index = 0
    while index < total:
        value = ordered[index]
        # Advance to the last occurrence of this distinct value.
        while index + 1 < total and ordered[index + 1] == value:
            index += 1
        left_count = index + 1
        right_count = total - left_count
        if right_count == 0:
            break
        if left_count >= min_count and right_count >= min_count:
            distance = abs(left_count - target)
            if distance < balanced_distance:
                balanced_distance = distance
                balanced = (value, left_count)
            gap = ordered[index + 1] - value
            if gap > widest_gap:
                widest_gap = gap
                widest = (value, left_count)
        index += 1
    candidates: list[tuple[float, int]] = []
    if balanced is not None:
        candidates.append(balanced)
    if widest is not None and widest != balanced:
        candidates.append(widest)
    return candidates


def scan_slice(task: tuple) -> list[list[tuple[int, Record]]]:
    """The per-record shard scan: key, ``bisect_right`` bucket, sort.

    Takes the same task tuple as ``repro.parallel.engine._scan_slice`` and
    returns the buckets it must produce.
    """
    kind, payload, boundaries, lows, highs, bits = task
    if kind == "file":
        path, start, count, first_rid, batch_size = payload
        stream = RecordFileReader(path).iter_records(
            batch_size, first_rid=first_rid, start=start, count=count
        )
    else:
        stream = payload
    buckets: list[list[tuple[int, Record]]] = [
        [] for _ in range(len(boundaries) + 1)
    ]
    for record in stream:
        key = hilbert_key(quantize(record.point, lows, highs, bits), bits)
        buckets[bisect_right(boundaries, key)].append((key, record))
    for bucket in buckets:
        bucket.sort(key=lambda pair: (pair[0], pair[1].rid))
    return buckets


#: Kernel entry point name -> (defining module, scalar twin).
KERNEL_TWINS: dict[str, tuple[str, Callable]] = {
    "hilbert_keys_for_points": ("repro.kernels.hilbert", hilbert_keys_for_points),
    "group_mbrs": ("repro.kernels.boxes", group_mbrs),
    "candidate_thresholds_batch": (
        "repro.kernels.split",
        candidate_thresholds_batch,
    ),
    "decode_points": ("repro.kernels.codec", decode_points),
}


def install(monkeypatch) -> Counter:  # noqa: ANN001 - pytest.MonkeyPatch
    """Swap every kernel entry point in ``repro`` for its scalar twin.

    Patches the defining module and every loaded ``repro`` module that
    bound the kernel by name, so module-level and call-time imports both
    reach the twin.  Forked pool workers inherit the patches.  Returns a
    counter of twin calls made in this process, so a test can prove the
    swap reached the code it exercised.
    """
    calls: Counter = Counter()
    for name, (module_name, twin) in KERNEL_TWINS.items():
        kernel = getattr(importlib.import_module(module_name), name)

        def counted(*args, _name=name, _twin=twin, **kwargs):  # noqa: ANN002
            calls[_name] += 1
            return _twin(*args, **kwargs)

        for loaded_name, module in list(sys.modules.items()):
            if (
                loaded_name == "repro" or loaded_name.startswith("repro.")
            ) and getattr(module, name, None) is kernel:
                monkeypatch.setattr(module, name, counted)
    return calls
