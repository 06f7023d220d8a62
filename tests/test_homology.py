"""Field parsing, simplicial complexes, and reduced homology on known spaces."""

import itertools
import random
import subprocess
import sys

import pytest

from edgebetti.graphs import iter_bits, mask_of, new_graph
from edgebetti.homology import (
    FieldSpec,
    SimplicialComplex,
    homology_dims_from_levels,
    independence_complex,
    independent_sets_by_card,
    reduced_homology_dims,
)

from oracles import independent_subsets, naive_homology_dims


def test_fieldspec_parse():
    assert FieldSpec.parse("qq") == FieldSpec(None)
    assert FieldSpec.parse("rationals") == FieldSpec.rationals()
    assert FieldSpec.parse("GF2") == FieldSpec.gf(2)
    assert FieldSpec.parse("gfp:7") == FieldSpec(7)
    assert FieldSpec.parse(" gfp:101 ") == FieldSpec(101)
    for bad in ("gf3", "zz", "gfp:", "gfp:x"):
        with pytest.raises(ValueError):
            FieldSpec.parse(bad)


def test_fieldspec_requires_prime():
    with pytest.raises(ValueError):
        FieldSpec(4)
    with pytest.raises(ValueError):
        FieldSpec.gf(1)
    with pytest.raises(ValueError):
        FieldSpec.gf(91)  # 7 * 13
    FieldSpec.gf(2147483647)  # Mersenne prime is fine


def test_fieldspec_str():
    assert str(FieldSpec()) == "QQ"
    assert str(FieldSpec.gf(5)) == "GF(5)"


def test_complex_validation():
    SimplicialComplex(0, (0,))  # {emptyset} is legal
    with pytest.raises(ValueError):
        SimplicialComplex(2, ())
    with pytest.raises(ValueError):
        SimplicialComplex(1, (0b10,))  # facet out of range
    with pytest.raises(ValueError):
        SimplicialComplex(2, (0b11, 0b01))  # not sorted / nested
    with pytest.raises(ValueError):
        SimplicialComplex(2, (0b01, 0b11))  # nested facets


def test_from_faces_keeps_maximal():
    cx = SimplicialComplex.from_faces(3, [0b011, 0b001, 0b100])
    assert cx.facets == (0b011, 0b100)
    assert SimplicialComplex.from_faces(3, []).facets == (0,)


def test_dim_and_has_face():
    cx = SimplicialComplex.from_faces(3, [0b011, 0b100])
    assert cx.dim == 1
    assert cx.has_face(0)
    assert cx.has_face(0b010)
    assert not cx.has_face(0b110)
    assert SimplicialComplex(0, (0,)).dim == -1


def test_faces_by_card():
    cx = SimplicialComplex.from_faces(3, [0b011, 0b101])
    levels = cx.faces_by_card()
    assert levels == [[0], [0b001, 0b010, 0b100], [0b011, 0b101]]


def test_independent_sets_by_card_path():
    g = new_graph(3, [(0, 1), (1, 2)])
    levels = independent_sets_by_card(g.adj, g.vertices_mask())
    assert levels == [[0], [0b001, 0b010, 0b100], [0b101]]
    # restricted to a sub-mask the ambient numbering is kept
    levels = independent_sets_by_card(g.adj, 0b110)
    assert levels == [[0], [0b010, 0b100]]


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


def test_independence_complex_small():
    # Single edge: two isolated points.
    assert independence_complex(new_graph(2, [(0, 1)])).facets == (0b01, 0b10)
    # 4-cycle 0-1-2-3: the two diagonals.
    c4 = new_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert independence_complex(c4).facets == (0b0101, 0b1010)
    # Edgeless graph: the full simplex.
    assert independence_complex(new_graph(3, [])).facets == (0b111,)


def test_independence_complex_c5():
    # Pentagon: independence complex is again a 5-cycle (facets = the five
    # independent pairs), with one circle's worth of homology.
    g = new_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    cx = independence_complex(g)
    assert cx.facets == (0b00101, 0b01001, 0b01010, 0b10010, 0b10100)
    assert reduced_homology_dims(cx) == {-1: 0, 0: 0, 1: 1}


def test_homology_empty_complex():
    # {emptyset} alone: dim ~H_{-1} = 1.
    cx = SimplicialComplex(0, (0,))
    assert reduced_homology_dims(cx) == {-1: 1}


def test_homology_point_and_simplex():
    pt = SimplicialComplex.from_faces(1, [0b1])
    assert reduced_homology_dims(pt) == {-1: 0, 0: 0}
    simplex = SimplicialComplex.from_faces(3, [0b111])
    assert reduced_homology_dims(simplex) == {-1: 0, 0: 0, 1: 0, 2: 0}


def test_homology_two_points():
    cx = SimplicialComplex.from_faces(2, [0b01, 0b10])
    assert reduced_homology_dims(cx) == {-1: 0, 0: 1}


def test_homology_hollow_triangle_and_sphere():
    triangle = SimplicialComplex.from_faces(3, [0b011, 0b101, 0b110])
    assert reduced_homology_dims(triangle) == {-1: 0, 0: 0, 1: 1}
    # Boundary of the tetrahedron: a 2-sphere.
    faces = [0b1111 ^ (1 << v) for v in range(4)]
    sphere = SimplicialComplex.from_faces(4, faces)
    assert reduced_homology_dims(sphere) == {-1: 0, 0: 0, 1: 0, 2: 1}


def test_homology_field_dependence_projective_plane():
    # Minimal 6-vertex triangulation of the real projective plane: H_1 is
    # pure 2-torsion, so GF(2) sees a dimension in degrees 1 and 2 while QQ
    # and GF(3) see nothing.
    triangles = [
        (0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 5), (0, 4, 5),
        (1, 2, 4), (1, 2, 5), (1, 3, 5), (2, 3, 4), (3, 4, 5),
    ]
    cx = SimplicialComplex.from_faces(6, [mask_of(t) for t in triangles])
    assert len(cx.faces_by_card()[2]) == 15  # every edge of K6 shows up
    assert reduced_homology_dims(cx, FieldSpec.rationals()) == {-1: 0, 0: 0, 1: 0, 2: 0}
    assert reduced_homology_dims(cx, FieldSpec.gf(2)) == {-1: 0, 0: 0, 1: 1, 2: 1}
    assert reduced_homology_dims(cx, FieldSpec.gf(3)) == {-1: 0, 0: 0, 1: 0, 2: 0}


def test_homology_matches_oracle_on_random_complexes():
    # The naive oracle only knows QQ; GF(p) behaviour is covered by the
    # projective-plane case above plus the rank cross-checks in test_linalg.
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 6)
        universe = range(1, 1 << n)
        gens = rng.sample(universe, k=min(rng.randint(1, 8), (1 << n) - 1))
        cx = SimplicialComplex.from_faces(n, gens)
        levels = cx.faces_by_card()
        faces = [frozenset(iter_bits(m)) for level in levels for m in level]
        assert homology_dims_from_levels(levels, None) == naive_homology_dims(faces)


def test_cone_has_no_reduced_homology():
    rng = random.Random(9)
    for _ in range(10):
        n = rng.randint(2, 6)
        pool = range(1, 1 << (n - 1))
        gens = rng.sample(pool, k=min(rng.randint(1, 6), len(pool)))
        apex = 1 << (n - 1)
        cx = SimplicialComplex.from_faces(n, [m | apex for m in gens])
        dims = reduced_homology_dims(cx)
        assert all(v == 0 for v in dims.values())


# A rank pushed too high makes a homology dimension negative.  (A rank of 0
# would not do: the rank terms telescope, so the Euler identity still holds.)
_TAMPERED_SWEEP = """
import sys
import edgebetti.homology as homology
from edgebetti import FieldSpec, betti_table, new_graph
homology.rank_gf2 = lambda masks: len(masks)
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
