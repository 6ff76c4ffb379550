"""Shared fixtures for the test suite."""

from __future__ import annotations

import random
from collections import Counter
from contextlib import AbstractContextManager, contextmanager
from typing import Callable, Iterator

import pytest

from repro.dataset.record import Record
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import Table


@pytest.fixture
def schema3() -> Schema:
    """A small three-attribute numeric schema over [0, 100]^3."""
    return Schema(
        (
            Attribute.numeric("a", 0, 100),
            Attribute.numeric("b", 0, 100),
            Attribute.numeric("c", 0, 100),
        ),
        sensitive=("diagnosis",),
    )


def random_records(
    count: int, dimensions: int = 3, seed: int = 0, low: int = 0, high: int = 100
) -> list[Record]:
    """Reproducible integer-coded records with a one-column payload."""
    rng = random.Random(seed)
    diagnoses = ("flu", "anemia", "cancer", "whiplash")
    return [
        Record(
            rid,
            tuple(float(rng.randint(low, high)) for _ in range(dimensions)),
            (diagnoses[rng.randrange(len(diagnoses))],),
        )
        for rid in range(count)
    ]


@pytest.fixture
def small_table(schema3: Schema) -> Table:
    """200 random records over the three-attribute schema."""
    return Table(schema3, random_records(200, seed=1))


@pytest.fixture
def medium_table(schema3: Schema) -> Table:
    """2,000 random records over the three-attribute schema."""
    return Table(schema3, random_records(2_000, seed=2))


@pytest.fixture
def scalar_oracles() -> Callable[[], AbstractContextManager[Counter]]:
    """Swap ``repro``'s kernels for their scalar twins (``tests/oracles``).

    ``with scalar_oracles() as calls:`` runs the block on the twins and
    restores the kernels on exit; ``calls`` counts the twin calls made in
    this process, so a test can prove the swap reached its code.
    """
    from tests.oracles import install

    @contextmanager
    def swapped() -> Iterator[Counter]:
        with pytest.MonkeyPatch.context() as patch:
            yield install(patch)

    return swapped
