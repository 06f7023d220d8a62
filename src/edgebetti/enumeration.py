"""Small-order graph enumeration up to isomorphism, and random chordal graphs.

Trees and chordal graphs are grown order by order from the classes one
order below and deduplicated by a canonical form: a rooted code at the
center for trees, and for chordal graphs an exact canonical form from
colour refinement and individualisation (McKay and Piperno, "Practical
graph isomorphism, II", 2014).  ``random_chordal`` draws seeded random
chordal graphs for the property sweeps.
"""

from __future__ import annotations

import random

from .graphs import Graph, iter_bits, new_graph

# Largest orders the enumerators accept; a call at the cap takes seconds
# (2-core box: all_trees(14) about 2.5 s, all_chordal_graphs(9) about 7 s).
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


def _rooted_code(adj: tuple[int, ...], root: int, parent: int) -> tuple:
    return tuple(sorted(_rooted_code(adj, u, root) for u in iter_bits(adj[root]) if u != parent))


def _tree_key(g: Graph) -> tuple:
    """Canonical code of a tree: rooted code at its center(s)."""
    if g.n == 1:
        return ()
    degree = [g.adj[v].bit_count() for v in range(g.n)]
    alive = set(range(g.n))
    layer = [v for v in alive if degree[v] <= 1]
    while len(alive) > 2:
        nxt = []
        for v in layer:
            alive.discard(v)
            for u in iter_bits(g.adj[v]):
                if u in alive:
                    degree[u] -= 1
                    if degree[u] == 1:
                        nxt.append(u)
        layer = nxt
    return min(_rooted_code(g.adj, c, -1) for c in alive)


def all_trees(n: int) -> list[Graph]:
    """All trees on n vertices, one per isomorphism class.

    Grown order by order: every tree on n >= 2 vertices is a tree on n-1
    vertices plus a leaf, so attaching a new vertex to each vertex of each
    smaller class reaches every class.  One representative is kept per
    canonical code, in the order of the codes.
    """
    if n > MAX_TREE_VERTICES:
        raise ValueError(f"all_trees is capped at {MAX_TREE_VERTICES} vertices, got {n}")
    if n < 1:
        return []
    level = [new_graph(1, [])]
    for size in range(2, n + 1):
        found: dict[tuple, Graph] = {}
        for g in level:
            edges = g.edges()
            for v in range(g.n):
                cand = new_graph(size, edges + [(v, size - 1)])
                key = _tree_key(cand)
                if key not in found:
                    found[key] = cand
        level = [found[k] for k in sorted(found)]
    return level


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


def _all_cliques(adj: list[int], n: int) -> list[int]:
    """Every clique of the graph as a bitmask, the empty one included."""
    out = [0]

    def rec(base: int, allowed: int) -> None:
        m = allowed
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            out.append(base | low)
            rec(base | low, m & adj[v])

    rec(0, (1 << n) - 1)
    return out


def all_chordal_graphs(n: int) -> list[Graph]:
    """All chordal graphs on n vertices, one per isomorphism class.

    Grown by attaching each new vertex to a clique (possibly empty) of a
    smaller chordal graph — every chordal graph arises this way — with
    canonical-form deduplication at each order.
    """
    if n > MAX_CHORDAL_VERTICES:
        raise ValueError(
            f"all_chordal_graphs is capped at {MAX_CHORDAL_VERTICES} vertices, got {n}"
        )
    if n < 1:
        return []
    level: dict[tuple, Graph] = {}
    g1 = new_graph(1, [])
    level[canonical_key(g1)] = g1
    for size in range(2, n + 1):
        nxt: dict[tuple, Graph] = {}
        for g in level.values():
            adj = list(g.adj)
            for clique in _all_cliques(adj, g.n):
                edges = g.edges() + [(u, size - 1) for u in iter_bits(clique)]
                cand = new_graph(size, edges)
                key = canonical_key(cand)
                if key not in nxt:
                    nxt[key] = cand
        level = nxt
    return [level[k] for k in sorted(level)]
