"""Small-order graph enumeration up to isomorphism, and random chordal graphs.

Trees and chordal graphs are grown by one rule and deduplicated by one
canonical form.  Each order is grown from the classes one order below by
joining a new vertex to a "site" of each: any one vertex for trees, any
clique for chordal graphs.  ``canonical_key`` is an exact canonical form
from colour refinement and individualisation (McKay and Piperno,
"Practical graph isomorphism, II", 2014).  ``random_chordal`` draws seeded
random chordal graphs for the property sweeps.
"""

from __future__ import annotations

import functools
import random
from typing import Callable

from .graphs import Graph, iter_bits, new_graph

# Largest orders the enumerators accept; a call at the cap takes seconds
# (2-core box: all_trees(14) about 6 s, all_chordal_graphs(9) about 8 s).
MAX_TREE_VERTICES = 14
MAX_CHORDAL_VERTICES = 9


def random_chordal(n: int, rng: random.Random) -> Graph:
    """Random chordal graph on n vertices: each new vertex is attached to a
    clique grown greedily from a shuffled prefix of the earlier vertices.

    Reverse insertion order is a perfect elimination ordering, so the
    result is always chordal.  Deterministic for a given rng state; not
    necessarily connected.
    """
    adj = [0] * n
    edges = []
    for v in range(1, n):
        want = rng.randint(0, v)
        clique: list[int] = []
        for w in rng.sample(range(v), v):
            if len(clique) == want:
                break
            if all(adj[w] >> c & 1 for c in clique):
                clique.append(w)
        for w in clique:
            adj[v] |= 1 << w
            adj[w] |= 1 << v
            edges.append((w, v))
    return new_graph(n, edges)


def _refine(adj: tuple[int, ...], cells: list[int], splitters: list[int]) -> list[int]:
    """Refine the ordered cells (vertex bitmasks) to an equitable partition.

    Each splitter S splits every cell by the number of neighbours its
    vertices have in S, the pieces ordered by that number; every new piece
    becomes a splitter in turn.  No step looks at vertex labels, so the
    result is equivariant: relabelling the graph relabels the cells.
    """
    while splitters:
        s = splitters.pop()
        out = []
        for c in cells:
            if c & (c - 1):
                pieces: dict[int, int] = {}
                for v in iter_bits(c):
                    k = (adj[v] & s).bit_count()
                    pieces[k] = pieces.get(k, 0) | 1 << v
                if len(pieces) > 1:
                    split = [pieces[k] for k in sorted(pieces)]
                    out += split
                    splitters += split
                    continue
            out.append(c)
        cells = out
    return cells


def _least_leaf(adj: tuple[int, ...], cells: list[int]) -> tuple:
    """Least relabelled adjacency over the search tree below *cells*.

    A discrete partition orders the vertices, and its leaf is the
    adjacency in that order.  Otherwise each vertex of the first
    non-singleton cell is individualised in turn, except that only one
    vertex per twin class is tried: swapping twins u and v (N(u) - {v} =
    N(v) - {u}) is an automorphism fixing every earlier choice, so it maps
    one subtree onto the other.
    """
    for i, c in enumerate(cells):
        if c & (c - 1):
            break
    else:
        pos = {c.bit_length() - 1: i for i, c in enumerate(cells)}
        return tuple(
            sum(1 << pos[u] for u in iter_bits(adj[c.bit_length() - 1])) for c in cells
        )
    reps: list[int] = []
    for v in iter_bits(c):
        # twins have equal closed neighbourhoods (adjacent) or ones that
        # differ in exactly u and v (not adjacent)
        closed = adj[v] | 1 << v
        if not any(closed ^ (adj[u] | 1 << u) in (0, 1 << u | 1 << v) for u in reps):
            reps.append(v)
    return min(
        _least_leaf(adj, _refine(adj, cells[:i] + [1 << v, c ^ 1 << v] + cells[i + 1:], [1 << v]))
        for v in reps
    )


def canonical_key(g: Graph) -> tuple:
    """Canonical form: equal for two graphs exactly when they are isomorphic.

    Colour refinement from the one-cell partition, then individualisation
    and refinement down to discrete partitions; the key is the least
    relabelled adjacency over all of them.  Every step is equivariant, so
    isomorphic graphs reach the same set of leaves.
    """
    full = (1 << g.n) - 1
    return _least_leaf(g.adj, _refine(g.adj, [full], [full]) if g.n else [])


def _leaf_sites(g: Graph) -> list[int]:
    return [1 << v for v in range(g.n)]


def _all_cliques(g: Graph) -> list[int]:
    """Every clique of g as a bitmask, the empty one included."""
    out = [0]

    def rec(base: int, allowed: int) -> None:
        for v in iter_bits(allowed):
            out.append(base | 1 << v)
            # extend only by later neighbours of v, so each clique comes once
            rec(base | 1 << v, allowed & g.adj[v] & -(2 << v))

    rec(0, (1 << g.n) - 1)
    return out


@functools.cache
def _classes(n: int, sites: Callable[[Graph], list[int]]) -> dict[tuple, Graph]:
    """Canonical key -> first-seen representative, for the graphs on n >= 1
    vertices grown from one vertex by joining each new vertex to a site.

    Order n is grown from order n - 1 by joining vertex n - 1 to each site
    (a vertex mask) of each smaller class in turn, keeping the first
    candidate per key.  Cached, so each order is grown once per process.
    """
    if n == 1:
        g = new_graph(1, [])
        return {canonical_key(g): g}
    found: dict[tuple, Graph] = {}
    for g in _classes(n - 1, sites).values():
        edges = g.edges()
        for site in sites(g):
            cand = new_graph(n, edges + [(u, n - 1) for u in iter_bits(site)])
            found.setdefault(canonical_key(cand), cand)
    return found


def all_trees(n: int) -> list[Graph]:
    """All trees on n vertices, one per isomorphism class, in key order.

    Every tree on n >= 2 vertices is a tree on n-1 vertices plus a leaf, so
    a new leaf on each vertex of each smaller class reaches every class.
    """
    if n > MAX_TREE_VERTICES:
        raise ValueError(f"all_trees is capped at {MAX_TREE_VERTICES} vertices, got {n}")
    found = _classes(n, _leaf_sites) if n >= 1 else {}
    return [found[k] for k in sorted(found)]


def all_chordal_graphs(n: int) -> list[Graph]:
    """All chordal graphs on n vertices, one per isomorphism class, in key
    order.

    Every chordal graph has a simplicial vertex, so a new vertex on each
    clique (possibly empty) of each smaller class reaches every class.
    """
    if n > MAX_CHORDAL_VERTICES:
        raise ValueError(
            f"all_chordal_graphs is capped at {MAX_CHORDAL_VERTICES} vertices, got {n}"
        )
    found = _classes(n, _all_cliques) if n >= 1 else {}
    return [found[k] for k in sorted(found)]
