"""The growth engine behind all_trees and all_chordal_graphs."""

import pytest

from edgebetti import enumeration
from edgebetti.enumeration import all_chordal_graphs, all_trees


@pytest.mark.parametrize("enumerate_, top", [(all_chordal_graphs, 7), (all_trees, 9)])
def test_each_order_is_grown_once(monkeypatch, enumerate_, top):
    real = enumeration.canonical_key
    calls = []

    def counting(g):
        calls.append(g.n)
        return real(g)

    monkeypatch.setattr(enumeration, "canonical_key", counting)
    enumeration._classes.cache_clear()
    enumerate_(top)
    fresh = len(calls)
    enumeration._classes.cache_clear()
    calls.clear()
    for n in range(1, top + 1):
        enumerate_(n)
    assert len(calls) == fresh
    # a repeated call grows nothing
    enumerate_(top)
    assert len(calls) == fresh


@pytest.mark.parametrize("enumerate_", [all_chordal_graphs, all_trees])
def test_returned_lists_are_fresh(enumerate_):
    first = enumerate_(6)
    expected = [g.adj for g in first]
    first.reverse()
    first.pop()
    assert [g.adj for g in enumerate_(6)] == expected
