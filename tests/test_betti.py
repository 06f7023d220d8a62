"""Betti tables via the subset-homology sweep, checked against naive recomputation."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from edgebetti import betti, homology, linalg
from edgebetti.betti import (
    MAX_SWEEP_VERTICES,
    BettiTable,
    _hochster_terms,
    betti_single,
    betti_table,
    hilbert_numerator,
    k_polynomial,
)
from edgebetti.families import g_pr1, g_rb
from edgebetti.graphs import is_chordal, is_connected, iter_bits, new_graph
from edgebetti.homology import (
    FieldSpec,
    InvariantError,
    homology_dims_from_levels,
    independent_sets_by_card,
    star_cluster,
)

from oracles import has_isolated_vertex, naive_betti_table, naive_fold_walk


def cycle(n):
    return new_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return new_graph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n):
    return new_graph(n, itertools.combinations(range(n), 2))


def random_graph(n, rng, p=0.5):
    return new_graph(
        n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    )


# --- the BettiTable container ------------------------------------------------


def test_table_requires_unit_entry():
    BettiTable(2, {(0, 0): 1, (1, 1): 1})
    with pytest.raises(ValueError):
        BettiTable(2, {(1, 1): 1})
    with pytest.raises(ValueError):
        BettiTable(2, {(0, 0): 2})


def test_table_rejects_bad_entries():
    with pytest.raises(ValueError):
        BettiTable(2, {(0, 0): 1, (1, 1): 0})  # zero stored
    with pytest.raises(ValueError):
        BettiTable(2, {(0, 0): 1, (-1, 1): 1})
    with pytest.raises(ValueError):
        BettiTable(2, {(0, 0): 1, (2, 1): 1})  # degree 3 > n = 2
    with pytest.raises(ValueError):
        BettiTable(-1, {(0, 0): 1})


def test_table_get_and_support():
    t = BettiTable(3, {(0, 0): 1, (1, 1): 3, (2, 1): 2})
    assert t.get(1, 1) == 3
    assert t.get(5, 5) == 0
    assert t.support() == {(0, 0), (1, 1), (2, 1)}


def test_table_json_round_trip():
    t = BettiTable(3, {(0, 0): 1, (1, 1): 3, (2, 1): 2})
    d = t.to_json_dict()
    assert d == {"n": 3, "entries": [[0, 0, 1], [1, 1, 3], [2, 1, 2]]}
    assert BettiTable(d["n"], {(i, j): v for i, j, v in d["entries"]}) == t


# --- the sweep on known graphs -----------------------------------------------


def test_edgeless_graphs():
    # No edges: the ideal is zero and the resolution is just the ring.
    for n in (0, 1, 4):
        t = betti_table(new_graph(n, []))
        assert t.entries == {(0, 0): 1}


def test_single_edge():
    # One edge xy: 0 <- S <- S(-2) <- 0.
    t = betti_table(new_graph(2, [(0, 1)]))
    assert t.entries == {(0, 0): 1, (1, 1): 1}


def test_triangle_table():
    t = betti_table(complete(3))
    assert t.entries == {(0, 0): 1, (1, 1): 3, (2, 1): 2}


def test_path5_table():
    # 5-vertex path: linear strand plus two higher entries.
    t = betti_table(path(5))
    assert t.entries == {
        (0, 0): 1,
        (1, 1): 4,
        (2, 1): 3,
        (2, 2): 1,
        (3, 2): 1,
    }


def test_c5_table_has_top_corner():
    # The pentagon's independence complex is a circle, so the full subset
    # contributes beta_{3,5} = 1.
    t = betti_table(cycle(5))
    assert t.get(3, 2) == 1


def test_gpr1_42_table():
    t = betti_table(g_pr1(4, 2))
    assert t.entries == {
        (0, 0): 1,
        (1, 1): 5,
        (2, 1): 5,
        (2, 2): 2,
        (3, 1): 1,
        (3, 2): 3,
        (4, 2): 1,
    }


def test_beta_1_1_counts_edges():
    rng = random.Random(13)
    for _ in range(20):
        g = random_graph(rng.randint(1, 7), rng)
        t = betti_table(g)
        assert t.get(1, 1) == g.num_edges()


def test_matches_naive_oracle():
    rng = random.Random(17)
    for _ in range(25):
        g = random_graph(rng.randint(1, 6), rng, p=0.45)
        t = betti_table(g)
        assert t.entries == naive_betti_table(g)


def test_field_changes_nothing_on_small_graphs():
    rng = random.Random(19)
    for _ in range(10):
        g = random_graph(rng.randint(1, 6), rng)
        t_qq = betti_table(g)
        assert betti_table(g, field=FieldSpec.gf(2)).entries == t_qq.entries
        assert betti_table(g, field=FieldSpec.gf(3)).entries == t_qq.entries


# A flag RP^2 on 12 vertices: the 6-vertex RP^2 (triangles 012 023 034 045
# 051 124 235 341 452 513) with six edges subdivided.  It is Ind(G) for G the
# complement of its 1-skeleton, so its 2-torsion reaches the table at W = V.
RP2_WITNESS = new_graph(12, [tuple(map(int, e.split("-"))) for e in (
    "0-1 0-7 0-8 0-9 0-10 0-11 1-2 1-4 1-9 1-10 2-4 2-5 2-11 3-5 3-6 3-7 3-9 "
    "3-10 4-6 4-8 4-10 5-7 5-11 6-8 6-9 6-10 6-11 7-8 7-10 8-9 8-11 9-11 10-11"
).split()])
RP2_WITNESS_QQ = {
    (0, 0): 1, (1, 1): 33, (2, 1): 132, (3, 1): 226, (4, 1): 195, (5, 1): 85,
    (6, 1): 20, (7, 1): 2, (2, 2): 28, (3, 2): 195, (4, 2): 547, (5, 2): 812,
    (6, 2): 695, (7, 2): 352, (8, 2): 99, (9, 2): 12,
}


def test_table_depends_on_field_rp2_witness(monkeypatch):
    pivots = []
    monkeypatch.setattr(linalg, "Fraction", lambda *a: pivots.append(a) or Fraction(*a))
    tables = {}
    for p in (None, 2, 3):
        # Each sweep must take under 0.5 s of CPU time; a slow moment on a
        # shared host gets two more tries.
        for _ in range(3):
            pivots.clear()
            t0 = time.process_time()
            tables[p] = betti_table(RP2_WITNESS, FieldSpec(p)).entries
            if time.process_time() - t0 < 0.5:
                break
        else:
            pytest.fail(f"the {FieldSpec(p)} sweep took 0.5 s or more three times")
        if p is None:
            # the whole QQ sweep takes exactly one non-unit pivot
            assert len(pivots) == 1
    assert tables[None] == RP2_WITNESS_QQ
    assert tables[3] == tables[None]
    gf2 = dict(tables[None])
    gf2[9, 3] = gf2[10, 2] = 1
    assert tables[2] == gf2


def _seeded_sweep_graph():
    """Seeded G(13, 26), redrawn until connected, non-chordal, min degree 2."""
    rng = random.Random(13)
    pairs = list(itertools.combinations(range(13), 2))
    while True:
        g = new_graph(13, rng.sample(pairs, 26))
        if min(a.bit_count() for a in g.adj) >= 2 and is_connected(g) and not is_chordal(g):
            return g


# betti_table of _seeded_sweep_graph(), the same over QQ, GF(2), GF(3) and
# GF(2^61 - 1).
SWEEP_GRAPH_TABLE = {
    (0, 0): 1, (1, 1): 26, (2, 1): 76, (2, 2): 74, (3, 1): 78, (3, 2): 412,
    (3, 3): 11, (4, 1): 38, (4, 2): 903, (4, 3): 73, (5, 1): 12, (5, 2): 1091,
    (5, 3): 204, (6, 1): 2, (6, 2): 841, (6, 3): 301, (7, 2): 457, (7, 3): 250,
    (8, 2): 188, (8, 3): 117, (9, 2): 57, (9, 3): 29, (10, 2): 11, (10, 3): 3,
    (11, 2): 1,
}


# 2^61 - 1: every GF(p) row is copied mod p, and no other table test takes
# residues this large
@pytest.mark.parametrize("p", [None, 2, 3, 2**61 - 1])
def test_golden_table_of_a_non_chordal_13_vertex_graph(p):
    assert betti_table(_seeded_sweep_graph(), FieldSpec(p)).entries == SWEEP_GRAPH_TABLE


def test_grb53_sweep_visits_4422_subsets_with_16948_ranks(monkeypatch):
    # The benchmark's self-test reads these counts from its traced passes of
    # betti_table; the same pin here runs on every interpreter the suite runs
    # on, on the rank sweep itself, so that it holds whatever path
    # betti_table takes.  Each of the 4422 non-cone subsets of g_rb(5,3) has
    # homology, so the leaf chain closes none of them.
    counts = {}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(
        betti, "independent_sets_by_card", counted("listings", independent_sets_by_card)
    )
    monkeypatch.setattr(homology, "matrix_rank", counted("ranks", linalg.matrix_rank))
    g = g_rb(5, 3)
    for p in (None, 2, 3):
        counts.update(listings=0, ranks=0)
        for _ in _hochster_terms(tuple(g.adj), range(1, 1 << g.n), p):
            pass
        assert counts == {"listings": 4422, "ranks": 16948}, p


def test_sweeps_in_turn_equal_fresh_calls():
    # A sweep carries nothing from one subset or one sweep to the next: QQ,
    # then GF(2), then GF(3), then QQ again over the RP^2 witness give,
    # subset by subset, what fresh calls on each W give.  A non-cone W that
    # a sweep leaves out, closed by the leaf chain, has no homology in the
    # fresh call.
    adj = tuple(RP2_WITNESS.adj)
    masks = range(1, 1 << RP2_WITNESS.n)
    for p in (None, 2, 3, None):
        fresh = {
            w: homology_dims_from_levels(independent_sets_by_card(adj, w), p)
            for w in masks
            if not has_isolated_vertex(adj, w)
        }
        swept = list(_hochster_terms(adj, masks, p))
        kept = {w for w, _ in swept}
        assert swept == [(w, dims) for w, dims in fresh.items() if w in kept], p
        skipped = [dims for w, dims in fresh.items() if w not in kept]
        assert not any(d for dims in skipped for d in dims.values()), p
        # 594 of the 3533 non-cone subsets are closed
        assert len(skipped) > 500, p


def test_jobs_below_one_rejected():
    with pytest.raises(ValueError, match="jobs"):
        betti_table(complete(5), jobs=0)


def test_sweep_size_cap():
    big = new_graph(MAX_SWEEP_VERTICES + 1, [])
    with pytest.raises(ValueError, match="vertices"):
        betti_table(big)
    # the single-cell sweep shares the guard
    with pytest.raises(ValueError, match="vertices"):
        betti_single(big, 1, 1)


# --- single-position evaluation ----------------------------------------------


def test_betti_single_matches_table():
    g = path(5)
    t = betti_table(g)
    for i in range(6):
        for j in range(4):
            if (i, j) == (0, 0) or (i > 0 and j > 0 and i + j <= g.n):
                assert betti_single(g, i, j) == t.get(i, j), (i, j)


def test_betti_single_edge_cases():
    g = path(3)
    assert betti_single(g, 0, 0) == 1
    assert betti_single(g, 0, 1) == 0
    assert betti_single(g, 1, 0) == 0
    with pytest.warns(UserWarning, match="identically 0"):
        assert betti_single(g, 3, 2) == 0


# --- Hilbert series cross-check ----------------------------------------------


def test_hilbert_numerator_known():
    assert hilbert_numerator(new_graph(2, [(0, 1)])) == (1, 0, -1)
    assert hilbert_numerator(complete(3)) == (1, 0, -3, 2)
    # Edgeless: the ideal is zero, numerator is 1.
    assert hilbert_numerator(new_graph(3, [])) == (1,)


def test_k_polynomial_known():
    t = betti_table(complete(3))
    assert k_polynomial(t) == (1, 0, -3, 2)


def test_hilbert_equals_k_polynomial_randomized():
    rng = random.Random(23)
    for _ in range(30):
        g = random_graph(rng.randint(0, 7), rng)
        assert k_polynomial(betti_table(g)) == hilbert_numerator(g)


def test_cluster_of_a_non_simplex_raises(monkeypatch):
    # The star cluster is contractible because sigma is a simplex of
    # Ind(G_W).  The sweep grows sigma' on the fold end r, and only when r
    # is not empty.  Add to sigma' a neighbour u of its first vertex, with
    # the wall N(u) & r: sigma is then no simplex, the listing and the
    # dropped facets follow the widened sigma, and the dimensions are no
    # longer those of Ind(G_W).  The Hilbert check sees it.
    g = g_rb(3, 2)
    ends = []

    def widened(order, r):
        ends.append(r)
        sigma, walls = star_cluster(order, r)
        u = walls[0] & -walls[0]
        return sigma | u, walls + [g.adj[u.bit_length() - 1] & r]

    monkeypatch.setattr(betti, "star_cluster", widened)
    with pytest.raises(InvariantError, match="Hilbert numerator"):
        betti_table(g)
    assert ends and all(ends)


def test_leaf_chain_that_closes_the_empty_set_raises(monkeypatch):
    # A leaf chain that ends at the empty set leaves a sphere, Ind of the
    # empty graph suspended; only a chain that ends at a cone closes W.  A
    # sweep that also drops every W whose chain ends at the empty set closes
    # those spheres, and their reduced Euler characteristics, face counts
    # that no rank cancels, go missing from the table.  The Hilbert check
    # sees it.
    g = g_rb(3, 2)
    sweep = betti._hochster_terms

    def closing_empty(adj, masks, p):
        for w, dims in sweep(adj, masks, p):
            if naive_fold_walk(g, frozenset(iter_bits(w)))[1] != frozenset():
                yield w, dims

    monkeypatch.setattr(betti, "_hochster_terms", closing_empty)
    with pytest.raises(InvariantError, match="Hilbert numerator"):
        betti_table(g)


def test_table_with_a_dropped_face_raises(monkeypatch):
    # A listing that loses one face of its top nonempty level (the sweep
    # pads the levels to alpha) still gets dimensions f - r - r that satisfy
    # the Euler identity of the shortened listing, so only the table-level
    # Hilbert check sees the lost face.
    def dropped(adj, w, sigma, depth):
        levels = independent_sets_by_card(adj, w, sigma, depth)
        top = max(c for c, level in enumerate(levels) if level)
        levels[top] = levels[top][1:]
        return levels

    monkeypatch.setattr(betti, "independent_sets_by_card", dropped)
    with pytest.raises(InvariantError, match="Hilbert numerator"):
        betti_table(g_rb(3, 2))
