"""Verification reports, random chordal generation, and small-order enumeration."""

import itertools
import random
import time

import pytest

from edgebetti.enumeration import (
    MAX_CHORDAL_VERTICES,
    MAX_TREE_VERTICES,
    all_chordal_graphs,
    all_trees,
    canonical_key,
    random_chordal,
)
from edgebetti.families import g_rb, star_triangle
from edgebetti.graphs import is_chordal, is_connected, new_graph
from edgebetti.verify import (
    VerificationReport,
    verify_cert_support,
    verify_gpr1,
    verify_grb,
    verify_reg_eq_indmatch,
)

from oracles import naive_is_chordal


def cycle(n):
    return new_graph(n, [(i, (i + 1) % n) for i in range(n)])


def test_report_consistency_enforced():
    # passed is derived from expected == computed, so it cannot disagree
    assert VerificationReport("x", {}, 1, 1).passed
    assert not VerificationReport("x", {}, 1, 2).passed
    # skipped is derived too: a claim that does not apply expects nothing
    skipped = VerificationReport("x", {"reason": "not chordal"}, None, None)
    assert skipped.skipped and skipped.passed
    assert not VerificationReport("x", {}, 1, 1).skipped
    with pytest.raises(TypeError):
        VerificationReport("x", {}, None, None, skipped=True)
    with pytest.raises(TypeError):
        VerificationReport("x", {}, 1, 1, passed=True)


def test_report_json_dict():
    rep = VerificationReport("x", {"r": 2}, 1, 1, runtime=0.12345678)
    d = rep.to_json_dict()
    assert list(d) == ["claim", "params", "expected", "computed", "passed", "skipped", "runtime"]
    assert d["claim"] == "x" and d["passed"] is True
    assert d["runtime"] == 0.123457
    assert d["skipped"] is False
    assert VerificationReport("x", {}, 1, 2).to_json_dict()["passed"] is False


@pytest.mark.parametrize("r,b", [(2, 2), (3, 2), (3, 3)])
def test_verify_grb_passes(r, b):
    rep = verify_grb(r, b)
    assert rep.passed and not rep.skipped
    assert rep.computed["extremal_count"] == b
    assert rep.computed["projective_dimension"] == 2 * r + b - 1


def test_verify_grb_rejects_out_of_range():
    with pytest.raises(ValueError):
        verify_grb(3, 1)
    with pytest.raises(ValueError):
        verify_grb(7, 3)  # 17 vertices > cap


@pytest.mark.parametrize("p,r", [(2, 1), (4, 2), (5, 3)])
def test_verify_gpr1_passes(p, r):
    rep = verify_gpr1(p, r)
    assert rep.passed
    assert rep.computed["extremal_positions"] == [[p, r]]
    assert rep.computed["certificate_at_corner"] is True


def test_verify_gpr1_fails_without_corner_certificate(monkeypatch):
    import edgebetti.verify as verify_mod

    monkeypatch.setattr(verify_mod, "find_certificate", lambda g, i, j: None)
    rep = verify_gpr1(3, 2)
    assert not rep.passed
    assert rep.computed["certificate_at_corner"] is False
    assert rep.expected["certificate_at_corner"] is True


def test_verify_gpr1_rejects_out_of_range():
    with pytest.raises(ValueError):
        verify_gpr1(2, 2)
    with pytest.raises(ValueError):
        verify_gpr1(16, 1)  # 17 vertices > cap


def test_verify_cert_support_on_chordal():
    rep = verify_cert_support(star_triangle(2), "st2")
    assert rep.passed and not rep.skipped
    assert rep.expected == rep.computed
    assert rep.params["graph"] == "st2"


def test_verify_cert_support_skips_non_chordal():
    rep = verify_cert_support(cycle(4), "c4")
    assert rep.skipped and rep.passed
    assert rep.expected is None and rep.computed is None
    assert rep.params["reason"] == "not chordal"


def test_verify_cert_support_cap():
    with pytest.raises(ValueError, match="17 > 16"):
        verify_cert_support(new_graph(17, []))


def test_verify_cert_support_at_the_sweep_cap():
    # the check takes every graph its Betti table takes: g_rb(6,2) has 14
    # vertices, and its table and certified positions take about 0.2 s
    rep = verify_cert_support(g_rb(6, 2), "grb62")
    assert rep.passed and not rep.skipped
    assert [2 * 6 + 2 - 1, 1] in rep.computed


def test_verify_reg_eq_indmatch():
    assert verify_reg_eq_indmatch(g_rb(3, 2), "grb32").passed
    assert verify_reg_eq_indmatch(new_graph(4, []), "empty").passed
    rep = verify_reg_eq_indmatch(cycle(5), "c5")
    assert rep.skipped  # the claim is only made for chordal graphs


def test_random_chordal_is_chordal_and_seeded():
    rng = random.Random(123)
    graphs = [random_chordal(rng.randint(0, 8), rng) for _ in range(40)]
    for g in graphs:
        assert is_chordal(g)
    for g in graphs:
        if g.n <= 6:
            assert naive_is_chordal(g)
    # same seed, same stream
    rng2 = random.Random(123)
    again = [random_chordal(rng2.randint(0, 8), rng2) for _ in range(40)]
    assert graphs == again


def test_random_chordal_hits_nontrivial_graphs():
    rng = random.Random(7)
    samples = [random_chordal(6, rng) for _ in range(30)]
    assert any(g.num_edges() >= 6 for g in samples)
    assert len({g.adj for g in samples}) > 5  # not collapsing to one shape


def test_all_trees_counts():
    # Isomorphism-class counts for trees on 1..12 vertices (OEIS A000055).
    assert [len(all_trees(n)) for n in range(1, 13)] == [
        1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551
    ]


def test_all_trees_are_distinct_trees():
    for n in (5, 6, 8, 9):
        trees = all_trees(n)
        for g in trees:
            assert g.n == n
            assert is_connected(g) and g.num_edges() == n - 1
        keys = {canonical_key(g) for g in trees}
        assert len(keys) == len(trees)


def test_all_trees_complete_against_brute_force():
    # Every connected (n-1)-edge graph on n <= 6 vertices appears, up to iso.
    for n in range(2, 7):
        pairs = list(itertools.combinations(range(n), 2))
        seen = set()
        for combo in itertools.combinations(pairs, n - 1):
            g = new_graph(n, combo)
            if is_connected(g):
                seen.add(canonical_key(g))
        assert seen == {canonical_key(g) for g in all_trees(n)}


def test_all_chordal_graphs_counts():
    # Includes disconnected graphs; class counts for n = 1..8 (OEIS A048192).
    assert [len(all_chordal_graphs(n)) for n in range(1, 9)] == [
        1, 2, 4, 10, 27, 94, 393, 2119
    ]


def test_all_chordal_graphs_complete_against_brute_force():
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        seen = set()
        for bits in range(1 << len(pairs)):
            g = new_graph(n, [pairs[t] for t in range(len(pairs)) if bits >> t & 1])
            if naive_is_chordal(g):
                seen.add(canonical_key(g))
        enumerated = {canonical_key(g) for g in all_chordal_graphs(n)}
        assert seen == enumerated
        assert len(enumerated) == len(all_chordal_graphs(n))


@pytest.mark.parametrize(
    "enumerate_, cap", [(all_trees, MAX_TREE_VERTICES), (all_chordal_graphs, MAX_CHORDAL_VERTICES)]
)
def test_enumerators_reject_orders_above_their_cap(enumerate_, cap):
    with pytest.raises(ValueError, match="capped"):
        enumerate_(cap + 1)


def relabel(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return new_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_canonical_key_is_isomorphism_invariant():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randint(1, 7)
        pairs = list(itertools.combinations(range(n), 2))
        g = new_graph(n, [e for e in pairs if rng.random() < 0.5])
        assert canonical_key(g) == canonical_key(relabel(g, rng))
    for g in all_chordal_graphs(8):
        key = canonical_key(g)
        assert all(canonical_key(relabel(g, rng)) == key for _ in range(3))


def test_canonical_key_counts_every_graph_class():
    # Classes of all labelled graphs on n = 1..5 vertices (OEIS A000088).
    rng = random.Random(5)
    counts = []
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        keys = set()
        for bits in range(1 << len(pairs)):
            g = new_graph(n, [pairs[t] for t in range(len(pairs)) if bits >> t & 1])
            key = canonical_key(g)
            assert canonical_key(relabel(g, rng)) == key
            keys.add(key)
        counts.append(len(keys))
    assert counts == [1, 2, 4, 11, 34]


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return new_graph(10, outer + spokes + inner)


@pytest.mark.parametrize(
    "g",
    [
        new_graph(10, []),
        new_graph(10, list(itertools.combinations(range(10), 2))),
        cycle(10),
        new_graph(10, [(u, v) for u in range(5) for v in range(5, 10)]),
        petersen(),
    ],
    ids=["empty10", "K10", "C10", "K5,5", "petersen"],
)
def test_canonical_key_is_fast_on_symmetric_graphs(g):
    # Without twin pruning the empty graph, K10 and K5,5 branch 10! ways.
    t0 = time.perf_counter()
    key = canonical_key(g)
    assert time.perf_counter() - t0 < 1.0
    assert canonical_key(relabel(g, random.Random(3))) == key


def test_canonical_key_separates_non_isomorphic():
    a = new_graph(4, [(0, 1), (1, 2), (2, 3)])  # path
    b = new_graph(4, [(0, 1), (0, 2), (0, 3)])  # star
    c = cycle(4)
    keys = {canonical_key(a), canonical_key(b), canonical_key(c)}
    assert len(keys) == 3
