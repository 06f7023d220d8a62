"""Verification reports, random chordal generation, and small-order enumeration."""

import itertools
import random

import pytest

from edgebetti.families import g_rb, star_triangle
from edgebetti.graphs import is_chordal, is_connected, new_graph
from edgebetti.verify import (
    MAX_CHORDAL_VERTICES,
    MAX_TREE_VERTICES,
    VerificationReport,
    all_chordal_graphs,
    all_trees,
    canonical_key,
    random_chordal,
    verify_cert_support,
    verify_gpr1,
    verify_grb,
    verify_reg_eq_indmatch,
)

from oracles import naive_is_chordal


def cycle(n):
    return new_graph(n, [(i, (i + 1) % n) for i in range(n)])


def test_report_consistency_enforced():
    VerificationReport("x", {}, 1, 1, passed=True)
    with pytest.raises(ValueError):
        VerificationReport("x", {}, 1, 2, passed=True)
    with pytest.raises(ValueError):
        VerificationReport("x", {}, 1, 1, passed=False)


def test_report_json_dict():
    rep = VerificationReport("x", {"r": 2}, 1, 1, passed=True, runtime=0.12345678)
    d = rep.to_json_dict()
    assert d["claim"] == "x" and d["passed"] is True
    assert d["runtime"] == 0.123457
    assert d["skipped"] is False


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
        verify_grb(6, 2)  # 14 vertices > cap


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
        verify_gpr1(13, 1)  # 14 vertices > cap


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
    with pytest.raises(ValueError):
        verify_cert_support(new_graph(11, []))


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
    # Includes disconnected graphs; 1, 2, 4, 10, 27 classes for n = 1..5.
    assert [len(all_chordal_graphs(n)) for n in range(1, 6)] == [1, 2, 4, 10, 27]


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


def test_canonical_key_is_isomorphism_invariant():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randint(1, 7)
        pairs = list(itertools.combinations(range(n), 2))
        edges = [e for e in pairs if rng.random() < 0.5]
        g = new_graph(n, edges)
        perm = list(range(n))
        rng.shuffle(perm)
        h = new_graph(n, [(perm[u], perm[v]) for u, v in edges])
        assert canonical_key(g) == canonical_key(h)


def test_canonical_key_separates_non_isomorphic():
    a = new_graph(4, [(0, 1), (1, 2), (2, 3)])  # path
    b = new_graph(4, [(0, 1), (0, 2), (0, 3)])  # star
    c = cycle(4)
    keys = {canonical_key(a), canonical_key(b), canonical_key(c)}
    assert len(keys) == 3
