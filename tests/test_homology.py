"""Field parsing, independence complexes, and reduced homology on known spaces."""

import itertools
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from edgebetti import betti, homology, linalg
from edgebetti.enumeration import all_chordal_graphs
from edgebetti.graphs import iter_bits, mask_of, new_graph
from edgebetti.homology import (
    MAX_SWEEP_VERTICES,
    FieldSpec,
    homology_dims_from_levels,
    independence_numbers,
    independent_sets_by_card,
    greedy_order,
    reduced_homology_dims,
    star_cluster,
)

from oracles import (
    face_levels,
    has_isolated_vertex,
    independent_subsets,
    naive_fold_walk,
    naive_homology_dims,
)
from test_betti import RP2_WITNESS


def test_fieldspec_parse():
    assert FieldSpec.parse("qq") == FieldSpec(None)
    assert FieldSpec.parse("rationals") == FieldSpec()
    assert FieldSpec.parse("GF2") == FieldSpec.gf(2)
    assert FieldSpec.parse("gfp:7") == FieldSpec(7)
    assert FieldSpec.parse(" gfp:101 ") == FieldSpec(101)
    for bad in ("gf3", "zz", "gfp:", "gfp:x", "gfp:-3", "gfp:1.5"):
        with pytest.raises(ValueError, match="unknown field"):
            FieldSpec.parse(bad)
    with pytest.raises(ValueError, match="not prime"):
        FieldSpec.parse("gfp:4")
    # leading zeros do not count towards the 20-digit bound; 5000 digits
    # are refused before int() meets its own limit
    assert FieldSpec.parse("gfp:" + "0" * 5000 + "7") == FieldSpec(7)
    with pytest.raises(ValueError, match="below 2\\^64"):
        FieldSpec.parse("gfp:" + "9" * 5000)


def test_fieldspec_requires_prime():
    with pytest.raises(ValueError):
        FieldSpec(4)
    with pytest.raises(ValueError):
        FieldSpec.gf(1)
    with pytest.raises(ValueError):
        FieldSpec.gf(91)  # 7 * 13
    FieldSpec.gf(2147483647)  # Mersenne prime is fine
    FieldSpec.gf(2**61 - 1)  # so is one just below the 2^64 bound
    # 399165290221 * 798330580441: a strong pseudoprime to all twelve
    # Miller-Rabin bases, refused by the bound
    with pytest.raises(ValueError, match="below 2\\^64"):
        FieldSpec.gf(318665857834031151167461)
    # 2.0 % 2 == 0 and 2.0 == 2 would pass the prime test, and the sweep
    # would then run in floats; a bool is no prime
    for bad in (2.0, 3.0):
        with pytest.raises(ValueError, match=f"modulus {bad} is not an integer"):
            FieldSpec(bad)
    for bad in (True, False):
        with pytest.raises(ValueError, match="not prime"):
            FieldSpec(bad)


def test_fieldspec_str():
    assert str(FieldSpec()) == "QQ"
    assert str(FieldSpec.gf(5)) == "GF(5)"


def test_independent_sets_by_card_path():
    g = new_graph(3, [(0, 1), (1, 2)])
    levels = independent_sets_by_card(g.adj, g.vertices_mask())
    assert levels == [[0], [0b001, 0b010, 0b100], [0b101]]
    # restricted to a sub-mask the ambient numbering is kept
    levels = independent_sets_by_card(g.adj, 0b110)
    assert levels == [[0], [0b010, 0b100]]
    # only the faces that miss sigma and meet N(v) for every v in sigma, so
    # not the empty face; the levels end at the largest one
    assert independent_sets_by_card(g.adj, 0b111, 0b010) == [[], [0b001, 0b100], [0b101]]
    assert independent_sets_by_card(g.adj, 0b111, 0b001) == [[], [0b010]]
    # sigma = {0, 2} is the path's star cluster simplex: both walls are N(1)
    assert star_cluster(greedy_order(g.adj), 0b111) == (0b101, [0b010, 0b010])
    assert independent_sets_by_card(g.adj, 0b111, 0b101) == [[], [0b010]]
    # with a depth the levels run to it, padded with empty ones
    assert independent_sets_by_card(g.adj, 0b111, 0b001, 2) == [[], [0b010], []]
    # in the path 0-1-2-3, sigma = {0, 3} needs both 1 and 2, which are
    # adjacent: nothing is kept
    p4 = new_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert independent_sets_by_card(p4.adj, 0b1111, 0b1001) == [[]]


def test_empty_face_is_listed_only_without_sigma():
    # The empty face misses every wall, so it lies in the star cluster of
    # any nonempty sigma and is listed only when sigma is empty.  P3 relative
    # to sigma = {1} then lists the two ends and the edge between them, and
    # the wall N(1) = {0, 2} drops the empty facet of each end and no facet
    # of {0, 2}: the dims are those of Ind(P3), a point and an edge.
    p3 = new_graph(3, [(0, 1), (1, 2)])
    levels = independent_sets_by_card(p3.adj, 0b111, 0b010)
    assert levels == [[], [0b001, 0b100], [0b101]]
    for p in (None, 2, 3):
        want = reduced_homology_dims(p3, FieldSpec(p))
        assert want == {-1: 0, 0: 1, 1: 0}
        assert homology_dims_from_levels(levels, p, [0b101]) == want
    # every independent sigma of every W of C5 and of P5
    c5, p5 = (new_graph(5, [(i, (i + 1) % 5) for i in range(k)]) for k in (5, 4))
    for g in (c5, p5):
        for w in range(1 << 5):
            for level in independent_sets_by_card(g.adj, w):
                for sigma in level:
                    got = independent_sets_by_card(g.adj, w, sigma)[0]
                    assert got == ([] if sigma else [0]), (g.adj, w, sigma)


def test_independent_sets_match_oracle():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(0, 6)
        pairs = list(itertools.combinations(range(n), 2))
        edges = [e for e in pairs if rng.random() < 0.5]
        g = new_graph(n, edges)
        levels = independent_sets_by_card(g.adj, g.vertices_mask())
        got = {m for level in levels for m in level}
        expected = {mask_of(s) for s in independent_subsets(g, frozenset(range(n)))}
        assert got == expected


def test_pending_vertices_keep_the_filtered_listing():
    # The search keeps the vertices of sigma that the partial face does not
    # dominate yet, and lists a face only when none is left.  For random
    # independent sets sigma of G_W that are not maximal, the listing is the
    # whole listing filtered to the faces that meet N(v) & W for every v in
    # sigma, in the same order and padded to alpha(G_W); the empty face
    # meets every wall only when sigma is empty.
    rng = random.Random(25)
    checked = one_neighbour = 0
    while checked < 2_000:
        n = rng.randint(2, 9)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.35]
        g = new_graph(n, edges)
        adj = tuple(g.adj)
        w = rng.randrange(1, 1 << n)
        whole = independent_sets_by_card(adj, w)
        sigma = rng.choice([f for level in whole for f in level])
        if all(adj[v] & sigma for v in iter_bits(w & ~sigma)):
            continue  # maximal, or the empty face of an empty G_W
        walls = [adj[v] & w for v in iter_bits(sigma)]
        levels = independent_sets_by_card(adj, w, sigma, len(whole) - 1)
        assert levels == [
            [f for f in level if all(f & wall for wall in walls)] for level in whole
        ], (adj, w, sigma)
        checked += 1
        one_neighbour += any(wall.bit_count() == 1 for wall in walls)
    # 554 of them have a vertex of sigma with one neighbour in W
    assert one_neighbour > 500
    # 0 - 1 - 2 and the lone vertex 3: every face kept relative to sigma =
    # {0} holds 1, and sigma = {3} has no neighbour to meet, so nothing is
    # listed
    g = new_graph(4, [(0, 1), (1, 2)])
    assert independent_sets_by_card(g.adj, 0b1111, 0b0001) == [[], [0b0010], [0b1010]]
    assert independent_sets_by_card(g.adj, 0b1111, 0b1000) == [[]]
    assert independent_sets_by_card(g.adj, 0b1111, 0b1001, 3) == [[], [], [], []]
    # in 0 - 1 - 2 - 3 - 4, sigma = {0, 3}: a kept face holds 1, which takes
    # 2 from 3, so it holds 4 too, and {1, 4} is the one kept face; in
    # W = {1, 2, 3, 4}, sigma = {1, 4}: a kept face holds 2, which takes 3,
    # the only neighbour of 4, and nothing is kept
    p5 = new_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert independent_sets_by_card(p5.adj, 0b11111, 0b01001) == [[], [], [0b10010]]
    assert independent_sets_by_card(p5.adj, 0b11110, 0b10010) == [[]]


def test_star_cluster():
    # path 0-1-2-3 plus the pendant edge 1-4
    g = new_graph(5, [(0, 1), (1, 2), (2, 3), (1, 4)])
    order = greedy_order(g.adj)
    assert [bit for bit, _ in order] == [0b00001, 0b01000, 0b10000, 0b00100, 0b00010]
    # vertices 0, 3 and 4 have one neighbour each: the lowest, 0, starts
    # sigma, then 3 and 4 join it in that order; sigma = {0, 3, 4} is a
    # maximal independent set and its walls are N(0), N(3) and N(4)
    assert star_cluster(order, 0b11111) == (0b11001, [0b00010, 0b00100, 0b00010])
    # in W = {1, 2, 3, 4} vertices 3 and 4 have one neighbour each (2 and 1),
    # vertices 1 and 2 more: vertex 3 starts sigma, and 4 joins it
    assert star_cluster(order, 0b11110) == (0b11000, [0b00100, 0b00010])
    # Vertex 0's only neighbour is 1, so every face kept relative to
    # sigma = {0} holds vertex 1 and none of 0, 2 and 4: {1} and {1, 3}.
    # Vertex 3's only neighbour is 2, which leaves {2} with any of 0 and 4.
    # Relative to the greedy sigma = {0, 3, 4} a kept face would hold both 1
    # and 2, an edge, so nothing is kept: the levels are padded to alpha = 3.
    assert independent_sets_by_card(g.adj, 0b11111, 0b00001) == [[], [0b00010], [0b01010]]
    assert independent_sets_by_card(g.adj, 0b11111, 0b01000) == [
        [], [0b00100], [0b00101, 0b10100], [0b10101]
    ]
    assert independent_sets_by_card(g.adj, 0b11111, 0b11001, 3) == [[], [], [], []]
    # vertex 3 is isolated in W = {0, 1, 3}, so Ind(G_W) is a cone, and the
    # sweep closes it; W = {} is no subset the sweep yields either
    assert has_isolated_vertex(g.adj, 0b01011)
    assert list(betti._hochster_terms(tuple(g.adj), [0b01011, 0], None)) == []


def test_independence_complex_small():
    # Single edge: two isolated points.
    k2 = new_graph(2, [(0, 1)])
    assert independent_sets_by_card(k2.adj, k2.vertices_mask()) == [[0], [0b01, 0b10]]
    # 4-cycle 0-1-2-3: the two diagonals.
    c4 = new_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert independent_sets_by_card(c4.adj, c4.vertices_mask())[2] == [0b0101, 0b1010]
    # Edgeless graph: the full simplex.
    e3 = new_graph(3, [])
    assert independent_sets_by_card(e3.adj, e3.vertices_mask())[3] == [0b111]


def test_independence_complex_c5():
    # Pentagon: independence complex is again a 5-cycle (facets = the five
    # independent pairs), with one circle's worth of homology.
    g = new_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    levels = independent_sets_by_card(g.adj, g.vertices_mask())
    assert levels[2] == [0b00101, 0b01001, 0b01010, 0b10010, 0b10100]
    assert reduced_homology_dims(g) == {-1: 0, 0: 0, 1: 1}


def test_homology_empty_complex():
    # The graph on no vertices: Ind is {emptyset} alone, dim ~H_{-1} = 1.
    assert reduced_homology_dims(new_graph(0, [])) == {-1: 1}


def test_homology_point_and_simplex():
    assert reduced_homology_dims(new_graph(1, [])) == {-1: 0, 0: 0}
    assert reduced_homology_dims(new_graph(3, [])) == {-1: 0, 0: 0, 1: 0, 2: 0}


def test_homology_two_points():
    assert reduced_homology_dims(new_graph(2, [(0, 1)])) == {-1: 0, 0: 1}
    # Ind(K_{1,3}) is a point and a solid triangle.  Its cone star is the
    # centre, which no face of the triangle meets, and the dims still run
    # up to dim 2.
    claw = new_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert reduced_homology_dims(claw) == {-1: 0, 0: 1, 1: 0, 2: 0}


def test_homology_octahedron_and_cones():
    # Ind(3K2) is the join of three 0-spheres: the octahedral 2-sphere.
    three_k2 = new_graph(6, [(0, 1), (2, 3), (4, 5)])
    assert reduced_homology_dims(three_k2) == {-1: 0, 0: 0, 1: 0, 2: 1}
    # An isolated vertex lies in every maximal face: Ind is a cone.
    c5_plus_point = new_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    for g in (new_graph(7, three_k2.edges()), c5_plus_point):
        assert not any(reduced_homology_dims(g).values())


def test_homology_hollow_triangle_and_sphere():
    # Not flag complexes, so they are built from generators, not graphs.
    triangle = face_levels(3, [0b011, 0b101, 0b110])
    assert homology_dims_from_levels(triangle, None) == {-1: 0, 0: 0, 1: 1}
    # Boundary of the tetrahedron: a 2-sphere.
    sphere = face_levels(4, [0b1111 ^ (1 << v) for v in range(4)])
    assert homology_dims_from_levels(sphere, None) == {-1: 0, 0: 0, 1: 0, 2: 1}


def _projective_plane_graph():
    # Barycentric subdivision of the minimal 6-vertex RP^2: one vertex per
    # face, one simplex per chain of faces.  It is flag, so it is Ind(G) for G
    # the complement of its 1-skeleton, i.e. G joins incomparable faces.
    triangles = [
        (0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 5), (0, 4, 5),
        (1, 2, 4), (1, 2, 5), (1, 3, 5), (2, 3, 4), (3, 4, 5),
    ]
    faces = sorted(
        {mask_of(f) for t in triangles for k in (1, 2, 3) for f in itertools.combinations(t, k)}
    )
    edges = [
        (a, b)
        for a, b in itertools.combinations(range(len(faces)), 2)
        if faces[a] & faces[b] not in (faces[a], faces[b])
    ]
    return new_graph(len(faces), edges)


def test_homology_field_dependence_projective_plane(monkeypatch):
    # H_1(RP^2) is pure 2-torsion, so GF(2) sees a dimension in degrees 1
    # and 2 while QQ and GF(3) see nothing.
    g = _projective_plane_graph()
    with pytest.raises(ValueError, match="31 > 16"):
        reduced_homology_dims(g)  # above the sweep cap; use the levels directly
    levels = independent_sets_by_card(g.adj, g.vertices_mask())
    assert [len(level) for level in levels] == [1, 31, 90, 60]
    # The torsion leaves a QQ row whose lead is not +-1: count the non-unit
    # pivots matrix_rank scales through a Fraction.
    pivots = []
    monkeypatch.setattr(linalg, "Fraction", lambda *a: pivots.append(a) or Fraction(*a))
    assert homology_dims_from_levels(levels, None) == {-1: 0, 0: 0, 1: 0, 2: 0}
    assert pivots
    assert homology_dims_from_levels(levels, 2) == {-1: 0, 0: 0, 1: 1, 2: 1}
    assert homology_dims_from_levels(levels, 3) == {-1: 0, 0: 0, 1: 0, 2: 0}


def test_cycle_homology_matches_kozlov_up_to_the_cap():
    # Kozlov (J. Combin. Theory Ser. A 88, 1999): Ind(C_n) is a wedge of two
    # (k-1)-spheres for n = 3k, S^(k-1) for n = 3k+1 and S^k for n = 3k+2.
    for n in range(3, MAX_SWEEP_VERTICES + 1):
        k, rest = divmod(n, 3)
        expected = ({k - 1: 2}, {k - 1: 1}, {k: 1})[rest]
        cycle = new_graph(n, [(i, (i + 1) % n) for i in range(n)])
        full = cycle.vertices_mask()
        for p in (None, 2, 3):
            dims = reduced_homology_dims(cycle, FieldSpec(p))
            assert {d: v for d, v in dims.items() if v} == expected, (n, p)
            # the sweep takes the same complex relative to its star cluster
            relative = dict(betti._hochster_terms(tuple(cycle.adj), [full], p))[full]
            assert relative == dims, (n, p)


def test_homology_matches_oracle_on_random_complexes():
    # The naive oracle only knows QQ; GF(p) behaviour is covered by the
    # projective-plane case above plus the rank cross-checks in test_linalg.
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 6)
        universe = range(1, 1 << n)
        gens = rng.sample(universe, k=min(rng.randint(1, 8), (1 << n) - 1))
        levels = face_levels(n, gens)
        faces = [frozenset(iter_bits(m)) for level in levels for m in level]
        assert homology_dims_from_levels(levels, None) == naive_homology_dims(faces)


def _induced(adj, w):
    """Adjacency of G_W with W renumbered 0..|W|-1 in increasing order.

    Two subsets with the same induced graph have the same boundary ranks at
    every level, so the whole-matrix ranks are computed once per key.
    """
    pos = {v: k for k, v in enumerate(iter_bits(w))}
    return tuple(sum(1 << pos[u] for u in iter_bits(adj[v] & w)) for v in pos)


def _renumbered(w, mask):
    """*mask*, a subset of *w*, with w renumbered as in `_induced`."""
    return sum(1 << k for k, v in enumerate(iter_bits(w)) if mask >> v & 1)


def _full_rank(levels, c, p, walls=()):
    """Rank of the boundary map from the c-vertex faces, every row built.

    With *walls*, of the map relative to the faces that miss some wall: the
    rows and columns are the faces that meet every wall, and a facet that
    misses a wall is left out of its row.
    """
    below, faces = (
        [m for m in levels[d] if all(m & wall for wall in walls)] for d in (c - 1, c)
    )
    index = {m: t for t, m in enumerate(below)}
    rows = [
        {
            index[f ^ (1 << v)]: (-1) ** k
            for k, v in enumerate(iter_bits(f))
            if f ^ (1 << v) in index
        }
        for f in faces
    ]
    return len(linalg.matrix_rank(rows, p))


def _oracle_source_graphs():
    """Every chordal graph up to 7 vertices, then 40 random graphs on 4 to 9
    vertices (seed 12)."""
    rng = random.Random(12)
    randoms = []
    for _ in range(40):
        n = rng.randint(4, 9)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4]
        randoms.append(new_graph(n, edges))
    return [h for n in range(1, 8) for h in all_chordal_graphs(n)] + randoms


def test_star_listing_is_the_filtered_whole_listing(monkeypatch):
    # For each kept W whose walk folds s times and ends at r, the listing
    # keeps only the faces of Ind(G_r) that meet every wall of the
    # `star_cluster` sigma' of r, in the order of the whole listing of r;
    # the empty face meets every wall only when there are none, at r empty.
    # The levels are padded to alpha(G_W) - s, and with the s empty levels
    # below them the level count, and with it the rank calls and the dense
    # dims, stay those of the whole complex of G_W.  Every W whose walk does
    # not end at a cone is listed here directly, from the oracle's folds;
    # then the sweep must hand on exactly these subsets, each with the
    # levels and walls taken here.
    handed = []
    monkeypatch.setattr(
        betti,
        "homology_dims_from_levels",
        lambda levels, p, walls: handed.append((levels, walls)) or {},
    )
    kept = folded = 0
    for g in _oracle_source_graphs():
        adj = tuple(g.adj)
        alpha = independence_numbers(adj)
        order = greedy_order(adj)
        whole = [independent_sets_by_card(adj, w) for w in range(1 << g.n)]
        assert alpha == [len(levels) - 1 for levels in whole]
        direct = {}
        for w in range(1, 1 << g.n):
            folds, end = naive_fold_walk(g, frozenset(iter_bits(w)))
            if end is None:
                continue
            s, r = len(folds), mask_of(end)
            sigma, walls = star_cluster(order, r) if r else (0, [])
            # a vertex of sigma' with one neighbour in r would have folded
            assert all(wall.bit_count() > 1 for wall in walls), (adj, w)
            assert alpha[w] - s >= alpha[r], (adj, w)
            filtered = [[f for f in level if all(f & wall for wall in walls)] for level in whole[r]]
            levels = [[]] * s + filtered + [[]] * (alpha[w] - s - alpha[r])
            assert len(levels) == len(whole[w]), (adj, w)
            folded += s > 0
            direct[w] = levels, walls
        handed.clear()
        swept = [w for w, _ in betti._hochster_terms(adj, range(1, 1 << g.n), 2)]
        assert swept == list(direct)
        assert handed == [direct[w] for w in swept]
        kept += len(swept)
    # The sweep hands on 25778 subsets, and the walks of 18538 of them fold.
    assert kept == 25_778
    assert folded == 18_538


def test_fold_end_is_listed_s_levels_up(monkeypatch):
    # Let the walk fold s times and end at r.  By the fold lemma Ind(G_W) is
    # Ind(G_r) suspended s times, so ~H_k(Ind G_W) = ~H_{k-s}(Ind G_r), and
    # the sweep hands on s empty levels, then the listing of r relative to
    # the `star_cluster` sigma' of r down to depth alpha(G_W) - s, with the
    # walls of sigma'.  A walk that ends at the empty set lists the empty
    # face alone, s levels up: the sphere S^(s-1).  The dimensions are those
    # of the whole complex of G_W in QQ, GF(2) and GF(3).
    handed = []
    monkeypatch.setattr(
        betti,
        "homology_dims_from_levels",
        lambda levels, p, walls: handed.append((levels, walls)) or {},
    )
    fields = (None, 2, 3)
    expected = {}
    folded = spheres = 0
    for g in _oracle_source_graphs():
        adj = tuple(g.adj)
        alpha = independence_numbers(adj)
        order = greedy_order(adj)
        handed.clear()
        swept = [w for w, _ in betti._hochster_terms(adj, range(1, 1 << g.n), None)]
        assert len(handed) == len(swept)
        for w, (levels, walls) in zip(swept, handed):
            folds, end = naive_fold_walk(g, frozenset(iter_bits(w)))
            s, r = len(folds), mask_of(end)
            sigma, walls_r = star_cluster(order, r) if r else (0, [])
            assert walls == walls_r, (adj, w)
            below = independent_sets_by_card(adj, r, sigma, alpha[w] - s)
            assert levels == [[]] * s + below, (adj, w)
            if not s:
                continue
            folded += 1
            if not r:
                spheres += 1
                assert levels[s] == [0] and not any(levels[s + 1 :]), (adj, w)
            induced = _induced(adj, w)
            if induced not in expected:
                edges = [(u, v) for u, nbrs in enumerate(induced) for v in iter_bits(nbrs) if u < v]
                h = new_graph(len(induced), edges)
                expected[induced] = [reduced_homology_dims(h, FieldSpec(p)) for p in fields]
            got = [homology_dims_from_levels(levels, p, walls) for p in fields]
            assert got == expected[induced], (adj, w)
    # of the 25778 kept subsets, 18538 fold at least once, and 17938 of
    # these end at the empty set
    assert (folded, spheres) == (18_538, 17_938)


def test_leaf_chain_closes_only_contractible_complexes(monkeypatch):
    # Let u be a leaf of G_W with neighbour x.  Every other neighbour of x
    # dominates u, so the fold lemma (Engstrom 2009) deletes them, and
    # Ind(G_W) is the suspension of Ind(G_{W - N[x]}).  A W whose leaf chain
    # ends at a cone is therefore contractible.  One that ends at the empty
    # set is a sphere: P3 ends there after one step, and its complex, an
    # edge and a point, has ~H_0 = 1.  P4 ends at the cone on one vertex.
    p3, p4 = (new_graph(n, [(i, i + 1) for i in range(n - 1)]) for n in (3, 4))
    assert list(betti._hochster_terms(tuple(p3.adj), [0b111], None)) == [
        (0b111, {-1: 0, 0: 1, 1: 0})
    ]
    assert list(betti._hochster_terms(tuple(p4.adj), [0b1111], None)) == []
    # In one edge and a point, vertex 0 is a leaf below the isolated vertex
    # 2: the walk folds first, to {2}, which is the cone that closes W.
    k2_point = new_graph(3, [(0, 1)])
    assert list(betti._hochster_terms(tuple(k2_point.adj), [0b111], None)) == []
    # Every non-cone subset the sweep leaves out, of the oracle's source
    # graphs, the RP^2 witness and C_n for n <= 12, is taken whole by
    # reduced_homology_dims and has no homology in QQ, GF(2) and GF(3).
    monkeypatch.setattr(betti, "homology_dims_from_levels", lambda levels, p, walls: {})
    cycles = [new_graph(n, [(i, (i + 1) % n) for i in range(n)]) for n in range(3, 13)]
    closed_dims = {}
    closed = 0
    for g in _oracle_source_graphs() + [RP2_WITNESS] + cycles:
        adj = tuple(g.adj)
        swept = {w for w, _ in betti._hochster_terms(adj, range(1, 1 << g.n), None)}
        for w in range(1, 1 << g.n):
            if has_isolated_vertex(adj, w) or w in swept:
                continue
            closed += 1
            induced = _induced(adj, w)
            if induced not in closed_dims:
                edges = [(u, v) for u, nbrs in enumerate(induced) for v in iter_bits(nbrs) if u < v]
                h = new_graph(len(induced), edges)
                closed_dims[induced] = [reduced_homology_dims(h, FieldSpec(p)) for p in (None, 2, 3)]
            assert not any(d for dims in closed_dims[induced] for d in dims.values()), (adj, w)
    # 5050 are closed; a chain that stopped after its first step would
    # close 4695
    assert closed >= 5_000


def test_cleared_ranks_equal_full_ranks(monkeypatch):
    # Clearing skips the rows of faces that lead the map above.  A rank that
    # came out too low at one level would raise two adjacent dimensions and
    # still pass the sign check and the table's Hilbert check, so compare
    # every level with the rank of the whole matrix.  Inputs: every non-cone
    # subset of every chordal graph up to 7 vertices and of 40 random graphs
    # up to 9 (each induced graph once), the RP^2 witness and Ind(C_n) for
    # n <= 12.  Then every non-cone subset of every source graph is taken
    # whole, and relative to the star cluster of its `star_cluster` sigma
    # from the faces that meet every wall, as the sweep lists them, padded
    # to the whole listing's length: the relative ranks must equal those of
    # the relative matrix, level by level, and the dimensions must equal the
    # whole complex's.
    graphs = set()
    sweeps = []  # per source graph: its non-cone subsets W in mask order, with G_W
    for g in _oracle_source_graphs():
        subsets = [
            (w, _induced(g.adj, w)) for w in range(1, 1 << g.n) if not has_isolated_vertex(g.adj, w)
        ]
        sweeps.append((g.adj, subsets))
        graphs.update(induced for _, induced in subsets)
    graphs.add(tuple(RP2_WITNESS.adj))
    for n in range(3, 13):
        graphs.add(tuple(new_graph(n, [(i, (i + 1) % n) for i in range(n)]).adj))
    calls = []

    def recorded(rank):
        def wrapper(rows, *args):
            leads = rank(rows, *args)
            calls.append((len(rows), len(leads)))
            return leads

        return wrapper

    monkeypatch.setattr(homology, "matrix_rank", recorded(linalg.matrix_rank))

    def check(levels, p, full, where, walls=()):
        calls.clear()
        dims = homology_dims_from_levels(levels, p, walls)
        top = len(levels) - 1
        assert len(calls) == top, where
        above = 0
        for c, (rows, rank), want in zip(range(top, 0, -1), calls, full):
            kept = sum(1 for f in levels[c] if all(f & wall for wall in walls))
            assert rows == kept - above, (where, c)
            assert rank == want, (where, c)
            above = rank
        return dims

    fields = (None, 2, 3)
    full, relative, whole_listing = {}, {}, {}
    for adj in sorted(graphs):
        everything = (1 << len(adj)) - 1
        levels = whole_listing[adj] = independent_sets_by_card(adj, everything)
        for p in fields:
            tops = range(len(levels) - 1, 0, -1)
            full[adj, p] = [_full_rank(levels, c, p) for c in tops]
            check(levels, p, full[adj, p], (adj, p))
    assert len(graphs) > 1500
    for adj, subsets in sweeps:
        order = greedy_order(adj)
        for w, induced in subsets:
            levels = independent_sets_by_card(adj, w)
            sigma, walls = star_cluster(order, w)
            met = independent_sets_by_card(adj, w, sigma, len(levels) - 1)
            # sigma follows the degrees in the source graph, so the relative
            # ranks are keyed by G_W and sigma, both renumbered
            key = induced, _renumbered(w, sigma)
            if (key, None) not in relative:
                whole = whole_listing[induced]
                inner = [induced[v] for v in iter_bits(key[1])]
                for p in fields:
                    tops = range(len(whole) - 1, 0, -1)
                    relative[key, p] = [_full_rank(whole, c, p, inner) for c in tops]
            for p in fields:
                whole = check(levels, p, full[induced, p], (adj, w, p))
                where = (adj, w, p, walls)
                assert check(met, p, relative[key, p], where, walls) == whole, where
    assert sum(len(subsets) for _, subsets in sweeps) > 25_000


def test_every_maximal_sigma_gives_the_whole_homology():
    # Barmak: the star cluster of a simplex of a flag complex is
    # contractible, so any maximal independent set sigma of G_W will do, not
    # only the one `star_cluster` picks.  For every non-cone W of every
    # chordal graph up to 6 vertices, of 40 random graphs up to 8 and of the
    # RP^2 witness, and for every maximal independent set sigma of G_W, the
    # listing relative to sigma is the filtered whole listing, and its
    # dimensions are those of the whole complex in QQ, GF(2) and GF(3).
    rng = random.Random(20)
    randoms = []
    for _ in range(40):
        n = rng.randint(4, 8)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4]
        randoms.append(new_graph(n, edges))
    sources = [h for n in range(1, 7) for h in all_chordal_graphs(n)] + randoms + [RP2_WITNESS]
    fields = (None, 2, 3)
    expected = {}
    clusters = 0
    for g in sources:
        adj = tuple(g.adj)
        for w in range(1, 1 << g.n):
            if has_isolated_vertex(adj, w):
                continue
            induced = _induced(adj, w)
            if induced not in expected:
                edges = [(u, v) for u, nbrs in enumerate(induced) for v in iter_bits(nbrs) if u < v]
                h = new_graph(len(induced), edges)
                expected[induced] = [reduced_homology_dims(h, FieldSpec(p)) for p in fields]
            whole = independent_sets_by_card(adj, w)
            maximal = [
                f
                for level in whole
                for f in level
                if all(adj[v] & f for v in iter_bits(w & ~f))
            ]
            for sigma in maximal:
                walls = [adj[v] & w for v in iter_bits(sigma)]
                levels = independent_sets_by_card(adj, w, sigma, len(whole) - 1)
                assert levels == [
                    [f for f in level if all(f & wall for wall in walls)] for level in whole
                ], (adj, w, sigma)
                got = [homology_dims_from_levels(levels, p, walls) for p in fields]
                assert got == expected[induced], (adj, w, sigma)
                clusters += 1
    assert clusters > 30_000


def test_cone_has_no_reduced_homology():
    rng = random.Random(9)
    for _ in range(10):
        n = rng.randint(2, 6)
        pool = range(1, 1 << (n - 1))
        gens = rng.sample(pool, k=min(rng.randint(1, 6), len(pool)))
        apex = 1 << (n - 1)
        dims = homology_dims_from_levels(face_levels(n, [m | apex for m in gens]), None)
        assert all(v == 0 for v in dims.values())


# A rank pushed too high (one lead per row, dependent or not) makes a
# homology dimension negative.  (A rank of 0 would not do: the ranks cancel
# from the table's alternating sum, so the Hilbert check still holds.)
_TAMPERED_SWEEP = """
import sys
import edgebetti.homology as homology
from edgebetti import FieldSpec, betti_table, new_graph
homology.matrix_rank = lambda rows, p: list(range(len(rows)))
try:
    betti_table(new_graph(3, [(0, 1), (1, 2)]), FieldSpec.gf(2))
except Exception as exc:
    print(sys.flags.optimize, type(exc).__name__)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_identity_checks_survive_optimize(flags):
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _TAMPERED_SWEEP],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.stdout.split() == [str(len(flags)), "InvariantError"], proc.stderr
