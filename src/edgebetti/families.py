"""Deterministic generators for the built-in graph families.

All generators use one fixed vertex layout so certificates and tables are
comparable across runs: the x block first (x_1 at index 0), then the y
block, then z, then the w block.  Labels carry the same names.

``g_rb`` only accepts b >= 2, because the b = 1 member of the family is the
path star ``g_pr1(r+1, r)``, not the star triangle the inductive
construction starts from.
"""

from __future__ import annotations

from .graphs import MAX_PARSE_VERTICES, Graph, new_graph


def _labels(r: int, extra: list[str]) -> list[str]:
    return [f"x_{i}" for i in range(1, r + 1)] + [f"y_{i}" for i in range(1, r + 1)] + extra


def star_triangle(r: int) -> Graph:
    """r triangles {z, x_i, y_i} glued at the common vertex z."""
    if r < 1:
        raise ValueError("star_triangle requires r >= 1")
    z = 2 * r
    edges = []
    for i in range(r):
        edges += [(z, i), (z, r + i), (i, r + i)]
    return new_graph(2 * r + 1, edges, _labels(r, ["z"]))


def g_rb(r: int, b: int) -> Graph:
    """Chordal graph on 2r+b vertices with regularity r and b extremal corners.

    Starts from star_triangle(r) and adds w_1..w_{b-1}, where w_j is joined
    to z, x_1..x_j, y_1..y_j and the earlier w's.  Vertex w_j sits at index
    2r+j.
    """
    if b == 1:
        raise ValueError(
            "g_rb requires b >= 2: the b = 1 member of the family is the tree "
            "path_star(r), not a star-triangle extension"
        )
    if not 2 <= b <= r:
        raise ValueError(f"g_rb requires 2 <= b <= r, got r={r}, b={b}")
    n = 2 * r + b
    z = 2 * r
    edges = star_triangle(r).edges()
    for j in range(1, b):
        wj = 2 * r + j
        edges.append((wj, z))
        edges += [(wj, i) for i in range(j)]
        edges += [(wj, r + i) for i in range(j)]
        edges += [(wj, 2 * r + i) for i in range(1, j)]
    labels = _labels(r, ["z"] + [f"w_{j}" for j in range(1, b)])
    return new_graph(n, edges, labels)


def g_pr1(p: int, r: int) -> Graph:
    """Tree on p+r vertices with regularity r, projective dimension p and a
    unique extremal Betti corner at (p, r).

    Vertices: x_1..x_{p-1}, then y_1..y_r, then z.  Edges: z-y_i for all i,
    x_i-y_i for i < r, and x_j-y_r for j = r..p-1.  With p = r+1 this is
    exactly path_star(r).
    """
    if not 1 <= r < p:
        raise ValueError(f"g_pr1 requires 1 <= r < p, got p={p}, r={r}")
    n = p + r
    y = lambda i: p - 1 + (i - 1)  # noqa: E731 - tiny index helpers
    x = lambda j: j - 1  # noqa: E731
    z = n - 1
    edges = [(z, y(i)) for i in range(1, r + 1)]
    edges += [(x(i), y(i)) for i in range(1, r)]
    edges += [(x(j), y(r)) for j in range(r, p)]
    labels = [f"x_{j}" for j in range(1, p)] + [f"y_{i}" for i in range(1, r + 1)] + ["z"]
    return new_graph(n, edges, labels)


def path_star(r: int) -> Graph:
    """Tree of r paths x_i - y_i - z glued at the common center z: the b = 1
    member of the paper's family, ``g_pr1(r+1, r)``.

    2r+1 vertices; regularity r with a single extremal Betti corner at
    (r+1, r).
    """
    if r < 1:
        raise ValueError(f"path_star requires r >= 1, got r={r}")
    return g_pr1(r + 1, r)


# name -> (builder, parameter count, order of the graph it builds)
FAMILY_BUILDERS = {
    "path-star": (path_star, 1, lambda r: 2 * r + 1),
    "star-triangle": (star_triangle, 1, lambda r: 2 * r + 1),
    "grb": (g_rb, 2, lambda r, b: 2 * r + b),
    "gpr1": (g_pr1, 2, lambda p, r: p + r),
}


def build_family(name: str, params: list[int]) -> Graph:
    """Build a named family graph; used by the CLI (`grb:5,3` style specs).

    An order above ``MAX_PARSE_VERTICES`` is rejected before anything is
    built: no graph reader would accept the result.
    """
    if name not in FAMILY_BUILDERS:
        raise ValueError(f"unknown family {name!r}; choose from {sorted(FAMILY_BUILDERS)}")
    builder, arity, order = FAMILY_BUILDERS[name]
    if len(params) != arity:
        raise ValueError(f"family {name} takes {arity} parameter(s), got {len(params)}")
    n = order(*params)
    if n > MAX_PARSE_VERTICES:
        raise ValueError(f"family {name} would have {n} > {MAX_PARSE_VERTICES} vertices")
    return builder(*params)


def parse_family_spec(spec: str) -> Graph:
    """Parse an inline family spec like ``grb:5,3`` or ``path-star:3``."""
    name, sep, rest = spec.partition(":")
    if not sep:
        raise ValueError("family spec must look like name:p1,p2")
    try:
        params = [int(t) for t in rest.split(",")]
    except ValueError:
        raise ValueError(f"bad family parameters in {spec!r}") from None
    return build_family(name, params)
