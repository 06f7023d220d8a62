"""Family generators: sizes, shapes, labels, and parameter validation."""

import pytest

from edgebetti.families import (
    build_family,
    g_pr1,
    g_rb,
    parse_family_spec,
    path_star,
    star_triangle,
)
from edgebetti.graphs import is_chordal, is_connected, iter_bits, mask_of, new_graph

from oracles import edge_set


def is_tree(g):
    return is_connected(g) and g.num_edges() == g.n - 1


@pytest.mark.parametrize("r", range(1, 7))
def test_path_star_shape(r):
    g = path_star(r)
    assert g.n == 2 * r + 1
    assert is_tree(g)
    z = 2 * r
    assert g.degree(z) == r
    # Each unit is a path x_i - y_i - z.
    for i in range(r):
        assert g.has_edge(i, r + i)
        assert g.has_edge(r + i, z)
        assert not g.has_edge(i, z)
    assert g.labels == tuple(
        [f"x_{i}" for i in range(1, r + 1)] + [f"y_{i}" for i in range(1, r + 1)] + ["z"]
    )


def test_path_star_smallest():
    assert path_star(1) == new_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match=r"path_star requires r >= 1, got r=0"):
        path_star(0)


@pytest.mark.parametrize("r", range(1, 6))
def test_star_triangle_shape(r):
    g = star_triangle(r)
    assert g.n == 2 * r + 1
    assert g.num_edges() == 3 * r
    assert is_chordal(g)
    z = 2 * r
    for i in range(r):
        assert g.has_edge(i, r + i) and g.has_edge(i, z) and g.has_edge(r + i, z)
    with pytest.raises(ValueError):
        star_triangle(0)


@pytest.mark.parametrize("r,b", [(2, 2), (3, 2), (3, 3), (4, 3), (5, 3)])
def test_g_rb_shape(r, b):
    g = g_rb(r, b)
    assert g.n == 2 * r + b
    assert g.num_edges() == 3 * r + 3 * b * (b - 1) // 2
    assert is_chordal(g)
    assert is_connected(g)
    # Removing the w block leaves the r-triangle star.
    core = (1 << (2 * r + 1)) - 1
    assert tuple(g.adj[v] & core for v in range(2 * r + 1)) == star_triangle(r).adj
    # w_j is adjacent to z, x_1..x_j, y_1..y_j and every other w (earlier
    # ones by its own attachment, later ones by theirs).
    for j in range(1, b):
        wj = 2 * r + j
        expected = {2 * r}
        expected |= set(range(j)) | {r + i for i in range(j)}
        expected |= {2 * r + i for i in range(1, b) if i != j}
        assert {u for u in range(g.n) if g.has_edge(wj, u)} == expected


def test_g_rb_rejects_bad_params():
    with pytest.raises(ValueError, match="b >= 2"):
        g_rb(3, 1)
    with pytest.raises(ValueError):
        g_rb(2, 3)  # b > r
    with pytest.raises(ValueError):
        g_rb(1, 0)


def test_g_rb_55_closed_neighborhood_of_w1_is_complete():
    # In g_rb(5,3) the closed neighborhood of w_1 = {x_1, y_1, z, w_1, w_2}
    # induces a complete graph: 10 edges on 5 vertices.
    g = g_rb(5, 3)
    w1 = 11
    nb = [u for u in range(g.n) if g.has_edge(w1, u)] + [w1]
    assert sorted(g.labels[u] for u in nb) == ["w_1", "w_2", "x_1", "y_1", "z"]
    mask = mask_of(nb)
    assert sum((g.adj[v] & mask).bit_count() for v in iter_bits(mask)) // 2 == 10


@pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (3, 2), (5, 2), (6, 4), (8, 3)])
def test_g_pr1_shape(p, r):
    g = g_pr1(p, r)
    assert g.n == p + r
    assert is_tree(g)
    z = p + r - 1
    assert g.degree(z) == r
    # y_r carries z plus the star of leaves x_r..x_{p-1}.
    yr = p - 1 + (r - 1)
    assert g.degree(yr) == p - r + 1
    for j in range(r, p):
        assert g.has_edge(j - 1, yr)


def test_g_pr1_specializes_to_path_star():
    for r in range(1, 6):
        assert g_pr1(r + 1, r) == path_star(r)
        assert g_pr1(r + 1, r).labels == path_star(r).labels


def test_g_pr1_42_edge_list():
    g = g_pr1(4, 2)
    assert g.n == 6
    assert edge_set(g) == {
        frozenset(e) for e in [(0, 3), (1, 4), (2, 4), (3, 5), (4, 5)]
    }
    assert g.labels == ("x_1", "x_2", "x_3", "y_1", "y_2", "z")


def test_g_pr1_rejects_bad_params():
    with pytest.raises(ValueError):
        g_pr1(2, 2)  # needs r < p
    with pytest.raises(ValueError):
        g_pr1(1, 0)


def test_build_family_dispatch():
    assert build_family("path-star", [3]) == path_star(3)
    assert build_family("grb", [4, 2]) == g_rb(4, 2)
    with pytest.raises(ValueError, match="unknown family"):
        build_family("petersen", [1])
    with pytest.raises(ValueError, match="parameter"):
        build_family("grb", [4])


def test_parse_family_spec():
    assert parse_family_spec("grb:5,3") == g_rb(5, 3)
    assert parse_family_spec("star-triangle:2") == star_triangle(2)
    for bad in ("grb", "grb:4", "grb:4,x", ":3", "grb:", "grb:3,,2", "grb:,3,2", "grb:3,2,"):
        with pytest.raises(ValueError):
            parse_family_spec(bad)
