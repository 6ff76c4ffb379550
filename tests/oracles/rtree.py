"""Whole-tree twins of the R+-tree's leaf walks: the differential oracles.

:meth:`repro.index.rtree.RPlusTree.finish_bulk` visits only the leaves
the tree registered as over-full, sorted into left-to-right order by
their root paths, and :meth:`~repro.index.rtree.RPlusTree.iter_leaves`
walks one explicit stack.  The forms they replaced — a full walk of
every leaf, and a nested recursive generator — live here and are used
only by the tests (``tests/test_finish_bulk.py``,
``tests/test_rtree.py``).
"""

from __future__ import annotations

import types
from typing import Iterator

from repro.index.node import LeafNode, Node
from repro.index.rtree import RPlusTree
from repro.obs import OBS


def iter_leaves_recursive(tree: RPlusTree) -> Iterator[LeafNode]:
    """Leaves left to right, by recursion over ``children()``."""
    if tree.root is None:
        return
    yield from _leaves_under(tree.root)


def _leaves_under(node: Node) -> Iterator[LeafNode]:
    if node.is_leaf:
        yield node  # type: ignore[misc]
        return
    for child in node.children():  # type: ignore[union-attr]
        yield from _leaves_under(child)


def finish_bulk_full_walk(tree: RPlusTree) -> None:
    """Leave bulk mode by examining every leaf, left to right.

    Counts each walked leaf as examined under ``rtree.finish_bulk_leaves``,
    so a work-bound test run against this twin sees the whole-tree cost.
    """
    tree._split_trigger = tree.leaf_capacity
    leaves = list(iter_leaves_recursive(tree))
    if OBS.enabled:
        OBS.count("rtree.finish_bulk_leaves", len(leaves))
    for leaf in leaves:
        if len(leaf.records) > tree.leaf_capacity:
            tree._split_leaf(leaf)


def install_full_walk(tree: RPlusTree) -> None:
    """Make ``tree.finish_bulk`` the full walk, for this instance only."""
    tree.finish_bulk = types.MethodType(finish_bulk_full_walk, tree)  # type: ignore[method-assign]
