"""Bouquet certificates: validation, exhaustive search, and support prediction."""

import itertools
import random
import warnings

import pytest

from edgebetti import bouquets
from edgebetti.betti import betti_table
from edgebetti.bouquets import (
    Certificate,
    certified_positions,
    find_certificate,
    validate_bouquet_set,
)
from edgebetti.families import g_pr1, g_rb, path_star, star_triangle
from edgebetti.graphs import is_chordal, new_graph
from edgebetti.homology import InvariantError

from oracles import naive_certified_positions


def path(n):
    return new_graph(n, [(i, i + 1) for i in range(n - 1)])


def test_bouquet_validation():
    # The shape checks of one bouquet, each on a one-bouquet certificate.
    Certificate(((0, (1, 2)),), ((0, 1),))
    with pytest.raises(ValueError, match="at least one leaf"):
        Certificate(((0, ()),), ((0, 1),))
    with pytest.raises(ValueError, match="sorted and distinct"):
        Certificate(((0, (2, 1)),), ((0, 1),))  # unsorted
    with pytest.raises(ValueError, match="sorted and distinct"):
        Certificate(((0, (1, 1)),), ((0, 1),))  # repeated leaf
    with pytest.raises(ValueError, match="its own leaf"):
        Certificate(((1, (1, 2)),), ((1, 2),))  # root among leaves
    with pytest.raises(ValueError, match="negative root"):
        Certificate(((-1, (0,)),), ((-1, 0),))
    assert Certificate(((2, (0, 5)),), ((0, 2),)).witness == 0b100101


def test_bouquet_set_validation():
    b0 = (0, (1,))
    b2 = (2, (3,))
    Certificate((b0, b2), ((0, 1), (2, 3)))
    with pytest.raises(ValueError, match="sorted by root"):
        Certificate((b2, b0), ((2, 3), (0, 1)))  # roots out of order
    with pytest.raises(ValueError, match="sorted by root"):
        Certificate((b0, (0, (2,))), ((0, 1), (0, 2)))  # repeated root
    with pytest.raises(ValueError, match="one representative per bouquet"):
        Certificate((b0, b2), ((0, 1),))  # representative count off
    with pytest.raises(ValueError, match="sorted form"):
        Certificate((b0,), ((1, 0),))  # unsorted pair
    with pytest.raises(ValueError, match="root-leaf edge"):
        Certificate((b0,), ((2, 3),))  # not a root-leaf edge of b0
    with pytest.raises(ValueError, match="root-leaf edge"):
        Certificate(((1, (0, 2)),), ((0, 2),))  # two leaves, not an edge at the root
    with pytest.raises(ValueError, match="one representative per bouquet"):
        Certificate((), ())


def test_certificate_type():
    cert = Certificate(((0, (1, 4)), (2, (3,))), ((0, 1), (2, 3)))
    assert cert.type == (3, 2)  # 5 vertices, 2 bouquets
    assert cert.witness == 0b11111


def test_certificate_validation_and_json():
    cert = Certificate(((0, (1,)),), ((0, 1),))
    assert (cert.type, cert.witness) == ((1, 1), 0b11)
    assert cert.to_json_dict() == {
        "type": [1, 1],
        "bouquets": [{"root": 0, "leaves": [1]}],
        "representatives": [[0, 1]],
    }
    assert cert == Certificate(((0, (1,)),), ((0, 1),))


def test_validate_bouquet_set_against_graph():
    g = path(6)  # 0-1-2-3-4-5
    ok = Certificate(((1, (0,)), (4, (3, 5))), ((0, 1), (3, 4)))
    assert validate_bouquet_set(g, ok)
    # overlapping bouquets: shared vertex 2
    overlap = Certificate(((1, (0, 2)), (2, (3,))), ((0, 1), (2, 3)))
    assert not validate_bouquet_set(g, overlap)
    # shared vertex 2, although the representatives are an induced matching
    shared_leaf = Certificate(((1, (0, 2)), (3, (2, 4))), ((0, 1), (3, 4)))
    assert not validate_bouquet_set(g, shared_leaf)
    # disjoint but representatives not induced (edge 2-3 joins them)
    close = Certificate(((1, (2,)), (3, (4,))), ((1, 2), (3, 4)))
    assert not validate_bouquet_set(g, close)
    # leaf not adjacent to root: structural, raises
    with pytest.raises(ValueError):
        validate_bouquet_set(g, Certificate(((0, (2,)),), ((0, 2),)))
    # vertex out of range: structural, raises
    with pytest.raises(ValueError):
        validate_bouquet_set(path(2), Certificate(((0, (5,)),), ((0, 5),)))


def test_validate_whole_graph_bouquet_in_grb():
    # The hub z of g_rb(r,b) is adjacent to everything, so one bouquet can
    # swallow the whole vertex set; its type is (2r+b-1, 1).
    for r, b in ((2, 2), (3, 2), (4, 3)):
        g = g_rb(r, b)
        z = 2 * r
        leaves = tuple(v for v in range(g.n) if v != z)
        cert = Certificate(((z, leaves),), ((min(z, leaves[0]), max(z, leaves[0])),))
        assert validate_bouquet_set(g, cert)
        assert cert.type == (2 * r + b - 1, 1)


def test_find_certificate_single_edge():
    g = new_graph(2, [(0, 1)])
    cert = find_certificate(g, 1, 1)
    assert cert is not None
    assert cert.type == (1, 1)
    assert cert.witness == 0b11
    assert cert.bouquets == ((0, (1,)),)


def test_find_certificate_impossible_types():
    g = path(4)
    assert find_certificate(g, 0, 1) is None  # i < j
    assert find_certificate(g, 2, 0) is None  # j < 1
    assert find_certificate(g, 4, 2) is None  # i + j > n
    # (3, 2) needs two independent edges plus one attachment, but P4 has
    # only one induced matching of size 2 and no vertex left over.
    assert find_certificate(g, 3, 2) is None


def test_find_certificate_star():
    # Star K_{1,4}: center 0. Type (i, 1) exists for every i <= 4.
    g = new_graph(5, [(0, v) for v in (1, 2, 3, 4)])
    for i in range(1, 5):
        cert = find_certificate(g, i, 1)
        assert cert is not None and cert.type == (i, 1)
    assert find_certificate(g, 2, 2) is None  # no induced matching of size 2


def test_find_certificate_is_deterministic_and_valid():
    g = g_rb(4, 2)
    a = find_certificate(g, 6, 4)
    b = find_certificate(g, 6, 4)
    assert a == b
    assert a is not None
    assert validate_bouquet_set(g, a)
    assert a.type == (6, 4)
    # bouquets partition the witness
    total = sum(1 + len(leaves) for _, leaves in a.bouquets)
    assert total == a.witness.bit_count()


def test_find_certificate_checks_what_it_builds(monkeypatch):
    monkeypatch.setattr(bouquets, "validate_bouquet_set", lambda g, bs: False)
    with pytest.raises(InvariantError, match="bouquet set"):
        find_certificate(path(3), 1, 1)


def test_find_certificate_respects_lex_order():
    # Two disjoint edges 0-1, 2-3: the first matching in lex order is
    # ((0,1),) so the type (1,1) certificate roots at 0.
    g = new_graph(4, [(0, 1), (2, 3)])
    cert = find_certificate(g, 1, 1)
    assert cert.bouquets[0][0] == 0
    cert22 = find_certificate(g, 2, 2)
    assert cert22 is not None
    assert cert22.witness == 0b1111


def test_find_certificate_pins_first_multi_bouquet_certificates():
    # the first certificate in the search order, on the two families
    assert find_certificate(g_pr1(8, 5), 8, 5).to_json_dict() == {
        "type": [8, 5],
        "bouquets": [
            {"root": 0, "leaves": [7]},
            {"root": 1, "leaves": [8]},
            {"root": 2, "leaves": [9]},
            {"root": 3, "leaves": [10]},
            {"root": 11, "leaves": [4, 5, 6, 12]},
        ],
        "representatives": [[0, 7], [1, 8], [2, 9], [3, 10], [4, 11]],
    }
    assert find_certificate(g_rb(5, 3), 7, 3).to_json_dict() == {
        "type": [7, 3],
        "bouquets": [
            {"root": 2, "leaves": [7, 10]},
            {"root": 3, "leaves": [8]},
            {"root": 12, "leaves": [0, 1, 5, 6]},
        ],
        "representatives": [[2, 7], [3, 8], [0, 12]],
    }


def test_find_certificate_none_on_grb_vanishing_corner():
    # The two-corner family member has nothing at (6, 2).
    g = g_rb(3, 2)
    assert find_certificate(g, 6, 2) is None
    assert betti_table(g).get(6, 2) == 0


def test_find_certificate_warns_on_non_chordal():
    # C4 is not chordal, so a missing certificate proves nothing; the
    # warning comes whether or not a certificate is found
    c4 = new_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    for i, j, found in ((1, 1, True), (0, 1, False)):
        with pytest.warns(UserWarning, match="^graph is not chordal; a missing certificate"):
            assert (find_certificate(c4, i, j) is not None) == found


def test_find_certificate_silent_on_chordal():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert find_certificate(g_rb(3, 2), 3, 2) is not None


def test_certificates_exist_at_extremal_positions_of_path_star():
    for r in range(1, 7):
        g = path_star(r)
        cert = find_certificate(g, r + 1, r)
        assert cert is not None
        assert cert.witness == (1 << g.n) - 1  # uses every vertex
        sizes = sorted(1 + len(leaves) for _, leaves in cert.bouquets)
        assert sizes == [2] * (r - 1) + [3]
        # the hub z is a leaf of the one 3-vertex bouquet, rooted at a y vertex
        hub = 2 * r
        root, leaves = max(cert.bouquets, key=lambda b: len(b[1]))
        assert hub in leaves
        assert r <= root < 2 * r


def test_size_caps():
    # both searches take the induced-matching search's cap of 16 vertices
    big_search = new_graph(17, [])
    with pytest.raises(ValueError, match="17 > 16"):
        find_certificate(big_search, 1, 1)
    assert find_certificate(big_search, 0, 1) is None  # impossible type, no search
    # C17 is not chordal, but the refusal comes before the warning
    big_predict = new_graph(17, [(k, (k + 1) % 17) for k in range(17)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="17 > 16"):
            certified_positions(big_predict)


def test_certified_positions_small_graphs():
    assert certified_positions(new_graph(0, [])) == {(0, 0)}
    assert certified_positions(new_graph(3, [])) == {(0, 0)}
    assert certified_positions(new_graph(2, [(0, 1)])) == {(0, 0), (1, 1)}
    assert certified_positions(path(3)) == {(0, 0), (1, 1), (2, 1)}


def test_certified_positions_warn_on_non_chordal():
    c4 = new_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.warns(UserWarning, match="chordal"):
        certified_positions(c4)


def test_certified_positions_match_support_on_chordal_samples():
    for g in (path(6), star_triangle(2), g_rb(3, 2), path_star(3)):
        assert certified_positions(g) == betti_table(g).support()


def test_certified_positions_match_brute_force():
    # Search-order shortcuts vs. plain enumeration of every bouquet set.
    # Non-chordal samples are fine here: both sides list certified types.
    rng = random.Random(37)
    for _ in range(25):
        n = rng.randint(1, 6)
        pairs = list(itertools.combinations(range(n), 2))
        g = new_graph(n, [e for e in pairs if rng.random() < 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = certified_positions(g)
        assert got == naive_certified_positions(g)


def test_certified_positions_sound_off_chordal_graphs():
    # Off chordal graphs the certificates may miss positions, but every
    # certified one is nonzero in the table.
    rng = random.Random(41)
    checked = 0
    while checked < 40:
        n = rng.randint(4, 9)
        pairs = list(itertools.combinations(range(n), 2))
        g = new_graph(n, [e for e in pairs if rng.random() < 0.4])
        if is_chordal(g):
            continue
        with pytest.warns(UserWarning, match="not chordal"):
            certified = certified_positions(g)
        assert certified <= betti_table(g).support()
        checked += 1
