"""Unit tests for work-splitting helpers."""

import pytest

from repro.parallel.batching import chunk_ranges


def test_chunk_ranges_partition():
    ranges = chunk_ranges(10, 3)
    assert ranges == [(0, 4), (4, 7), (7, 10)]
    covered = [i for a, b in ranges for i in range(a, b)]
    assert covered == list(range(10))


def test_chunk_ranges_more_chunks_than_items():
    ranges = chunk_ranges(2, 5)
    assert ranges == [(0, 1), (1, 2)]


def test_chunk_ranges_empty_total():
    assert chunk_ranges(0, 4) == []


def test_chunk_ranges_validation():
    with pytest.raises(ValueError):
        chunk_ranges(-1, 2)
    with pytest.raises(ValueError):
        chunk_ranges(5, 0)

