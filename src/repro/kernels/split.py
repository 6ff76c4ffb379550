"""Vectorized split-threshold selection via cumulative run statistics.

The scalar oracle (``tests/oracles``) is one linear
sweep over the sorted values that tracks the most balanced legal boundary
(first strict improvement wins) and the widest-gap boundary (likewise).
This kernel computes the same two winners from the sorted array's distinct
value runs with ``argmin``/``argmax`` — numpy's "first occurrence on ties"
matches the scalar sweep's strict-inequality updates exactly, so the
returned ``(threshold, left_count)`` pairs are identical, including the
order (balanced first) and the dedup rule.

Single-record and empty inputs fall out naturally (``total < 2 *
min_count`` refuses them, as in the oracle); a run of one distinct value
yields no legal boundary on either path.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def candidate_thresholds_batch(
    values: Sequence[float] | np.ndarray, min_count: int
) -> list[tuple[float, int]]:
    """Promising legal thresholds along one dimension, vectorized.

    The implementation behind :func:`repro.index.split.candidate_thresholds`;
    same results as the scalar linear sweep the tests keep as its oracle.
    """
    data = np.asarray(values, dtype=np.float64)
    total = int(data.size)
    if total < 2 * min_count:
        return []
    ordered = np.sort(data, kind="stable")
    # Boundary i sits between ordered[i] and ordered[i + 1]; a boundary is
    # a candidate only at the *last* occurrence of a distinct value.
    ends = np.nonzero(ordered[:-1] != ordered[1:])[0]
    if ends.size == 0:
        return []
    left_counts = ends + 1
    legal = (left_counts >= min_count) & (total - left_counts >= min_count)
    ends = ends[legal]
    left_counts = left_counts[legal]
    if ends.size == 0:
        return []
    target = total / 2.0
    distances = np.abs(left_counts - target)
    balanced_at = int(distances.argmin())
    balanced = (
        float(ordered[ends[balanced_at]]),
        int(left_counts[balanced_at]),
    )
    gaps = ordered[ends + 1] - ordered[ends]
    widest_at = int(gaps.argmax())
    widest = (float(ordered[ends[widest_at]]), int(left_counts[widest_at]))
    candidates = [balanced]
    if widest != balanced:
        candidates.append(widest)
    return candidates


def best_threshold_batch(
    values: Sequence[float] | np.ndarray, min_count: int
) -> tuple[float, int] | None:
    """The most balanced legal threshold — kernel twin of ``best_threshold``."""
    candidates = candidate_thresholds_batch(values, min_count)
    return candidates[0] if candidates else None
