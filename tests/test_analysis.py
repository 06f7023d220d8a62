"""Regularity, projective dimension, extremal corners, and table rendering."""

import itertools
import json
import random

import pytest

from edgebetti import analysis
from edgebetti.analysis import (
    ExtremalReport,
    extremal_positions,
    projective_dimension,
    regularity,
    render_table,
)
from edgebetti.betti import BettiTable, betti_table
from edgebetti.graphs import induced_matching_number, new_graph
from edgebetti.homology import InvariantError


def table(n, entries):
    return BettiTable(n, {(0, 0): 1, **entries})


def test_regularity_and_projdim():
    t = table(6, {(1, 1): 4, (2, 1): 3, (2, 2): 1, (3, 2): 1})
    assert regularity(t) == 2
    assert projective_dimension(t) == 3
    trivial = table(2, {})
    assert regularity(trivial) == 0
    assert projective_dimension(trivial) == 0


def test_extremal_trivial_table():
    rep = extremal_positions(table(3, {}))
    assert rep.positions == ((0, 0, 1),)
    assert rep.count == 1 and rep.unique
    assert rep.regularity == 0 and rep.projective_dimension == 0


def test_extremal_single_corner():
    t = table(5, {(1, 1): 4, (2, 1): 3, (2, 2): 1, (3, 2): 1})
    rep = extremal_positions(t)
    assert rep.positions == ((3, 2, 1),)
    assert rep.unique


def test_extremal_two_corners():
    # (3,1) survives because nothing sits weakly north-east of it.
    t = table(6, {(1, 1): 2, (2, 2): 5, (3, 1): 7})
    rep = extremal_positions(t)
    assert rep.positions == ((2, 2, 5), (3, 1, 7))
    assert rep.count == 2 and not rep.unique
    assert rep.regularity == 2 and rep.projective_dimension == 3


def test_extremal_checks_unique_corner_equivalence(monkeypatch):
    # A wrong projective dimension moves the far corner off the only corner.
    monkeypatch.setattr(analysis, "projective_dimension", lambda t: 0)
    with pytest.raises(InvariantError, match="unique-corner"):
        extremal_positions(table(5, {(1, 1): 4, (2, 1): 3, (2, 2): 1, (3, 2): 1}))


def test_extremal_unit_entry_dominated():
    # Any nontrivial entry knocks (0,0) out of corner candidacy.
    rep = extremal_positions(table(2, {(1, 1): 1}))
    assert rep.positions == ((1, 1, 1),)


def test_extremal_positions_antichain_randomized():
    rng = random.Random(29)
    for _ in range(40):
        entries = {}
        for _ in range(rng.randint(1, 8)):
            entries[(rng.randint(1, 5), rng.randint(1, 4))] = rng.randint(1, 9)
        entries = {k: v for k, v in entries.items() if sum(k) <= 9}
        t = table(9, entries)
        rep = extremal_positions(t)
        pts = [(i, j) for i, j, _ in rep.positions]
        # pairwise incomparable under the componentwise order
        for a, b in itertools.combinations(pts, 2):
            assert not (a[0] <= b[0] and a[1] <= b[1])
            assert not (b[0] <= a[0] and b[1] <= a[1])
        # every support point is dominated by some corner
        for (i, j) in t.support() - {(0, 0)}:
            assert any(i <= k and j <= l for k, l in pts)
        assert rep.unique == ((rep.projective_dimension, rep.regularity) in t.support())


def test_report_validation():
    rep = ExtremalReport(positions=((2, 3, 1), (4, 1, 2)))
    assert (rep.count, rep.unique) == (2, False)
    assert (rep.regularity, rep.projective_dimension) == (3, 4)
    assert ExtremalReport(positions=((0, 0, 1),)).unique
    with pytest.raises(ValueError, match="at least one corner"):
        ExtremalReport(positions=())
    with pytest.raises(ValueError, match="antichain"):
        ExtremalReport(positions=((1, 2, 1), (2, 2, 1)))
    with pytest.raises(ValueError, match="antichain"):  # not sorted by i
        ExtremalReport(positions=((2, 1, 1), (1, 2, 1)))
    with pytest.raises(ValueError, match="positive"):
        ExtremalReport(positions=((1, 1, 0),))


def test_regularity_at_least_induced_matching_number():
    # For any graph, the induced matching number bounds regularity below.
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(1, 7)
        pairs = list(itertools.combinations(range(n), 2))
        g = new_graph(n, [e for e in pairs if rng.random() < 0.4])
        t = betti_table(g)
        assert regularity(t) >= induced_matching_number(g)


def test_render_grid():
    t = table(5, {(1, 1): 4, (2, 1): 3, (2, 2): 1, (3, 2): 1})
    assert render_table(t, "grid") == "1 . . .\n. 4 3 .\n. . 1 1"
    assert render_table(table(2, {})) == "1"


def test_render_grid_alignment():
    t = table(4, {(1, 1): 12, (2, 1): 3})
    assert render_table(t, "grid") == "1  . .\n. 12 3"


def test_render_json_and_csv():
    t = table(3, {(1, 1): 3, (2, 1): 2})
    assert json.loads(render_table(t, "json")) == {
        "n": 3,
        "entries": [[0, 0, 1], [1, 1, 3], [2, 1, 2]],
    }
    assert render_table(t, "csv") == "i,j,value\n0,0,1\n1,1,3\n2,1,2"
    with pytest.raises(ValueError):
        render_table(t, "latex")
