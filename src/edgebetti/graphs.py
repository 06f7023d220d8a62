"""Finite simple graphs on dense integer vertices, stored as adjacency bitsets.

Vertices are 0..n-1; a vertex set is an int whose bit v is set iff v belongs
to the set.  All operations are pure functions on immutable inputs, so they
are safe to call from multiple threads or processes.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, Sequence

Edge = tuple[int, int]

# Largest order the text and JSON readers accept, checked before any
# per-vertex work.  The readers, writers, `is_chordal` and `is_connected`
# take every graph up to it; the exponential computations cap lower.
MAX_PARSE_VERTICES = 64

# Largest graph `induced_matchings` searches: the number of induced
# matchings, and so the search, can grow exponentially in n.
MAX_SEARCH_VERTICES = 16


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of *mask* in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class Graph:
    """Finite simple graph: no loops, no multiple edges.

    ``adj[v]`` is the open-neighborhood bitmask of v.  ``labels``, when
    present, are distinct display names (generators use them so search
    results stay human readable); they do not affect equality.
    """

    __slots__ = ("n", "adj", "labels")

    def __init__(self, n: int, adj: Sequence[int], labels: Sequence[str] | None = None):
        if len(adj) != n:
            raise ValueError("adjacency length must equal n")
        for v, row in enumerate(adj):
            if row >> v & 1:
                raise ValueError(f"loop at vertex {v}")
            if row < 0 or row >> n:
                raise ValueError(f"adjacency of vertex {v} out of range")
        for v in range(n):
            for u in iter_bits(adj[v]):
                if not adj[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
        if labels is not None:
            if len(labels) != n:
                raise ValueError("labels must have length n")
            if len(set(labels)) != n:
                raise ValueError("labels must be distinct")
            labels = tuple(labels)
        self.n = n
        self.adj = tuple(adj)
        self.labels = labels

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges()})"

    def vertices_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> list[Edge]:
        out = []
        for u in range(self.n):
            for v in iter_bits(self.adj[u] >> (u + 1) << (u + 1)):
                out.append((u, v))
        return out

    def num_edges(self) -> int:
        return sum(self.degree(v) for v in range(self.n)) // 2


def new_graph(n: int, edges: Iterable[Edge], labels: Sequence[str] | None = None) -> Graph:
    """Build a graph from an edge list; duplicate edges collapse."""
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"loop edge ({u},{v}) not allowed")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, adj, labels)


def is_connected(g: Graph) -> bool:
    """BFS connectivity; the empty graph counts as connected."""
    if g.n == 0:
        return True
    seen = 1
    frontier = 1
    while frontier:
        grown = 0
        for v in iter_bits(frontier):
            grown |= g.adj[v]
        frontier = grown & ~seen
        seen |= frontier
    return seen == g.vertices_mask()


def is_chordal(g: Graph) -> bool:
    """Chordality by simplicial elimination (Dirac 1961).

    A vertex is simplicial when its neighbours form a clique.  The graph is
    chordal iff deleting simplicial vertices one at a time empties it: every
    nonempty chordal graph has a simplicial vertex and stays chordal when one
    is deleted, while no vertex of an induced cycle of length >= 4 is ever
    simplicial.  The lowest-index simplicial vertex goes first.
    """
    adj = g.adj
    left = g.vertices_mask()
    while left:
        for v in iter_bits(left):
            nb = adj[v] & left
            if all(nb & ~adj[u] == 1 << u for u in iter_bits(nb)):
                left ^= 1 << v
                break
        else:
            return False
    return True


def induced_matchings(g: Graph) -> Iterator[tuple[Edge, ...]]:
    """Every nonempty induced matching of g, in lexicographic order of the
    edge indices in `Graph.edges`.

    The walk is depth first: picking an edge (u,v) blocks N[u] | N[v], so
    every edge picked later is disjoint from it and joined to it by no edge.
    A graph above ``MAX_SEARCH_VERTICES`` is refused when the function is
    called, before the first matching is asked for.
    """
    if g.n > MAX_SEARCH_VERTICES:
        raise ValueError(f"graph has {g.n} > {MAX_SEARCH_VERTICES} vertices")
    edges = g.edges()
    closed = [g.adj[v] | 1 << v for v in range(g.n)]
    chosen: list[Edge] = []

    def rec(start: int, blocked: int) -> Iterator[tuple[Edge, ...]]:
        for idx in range(start, len(edges)):
            u, v = edges[idx]
            if blocked & (1 << u | 1 << v):
                continue
            chosen.append(edges[idx])
            yield tuple(chosen)
            yield from rec(idx + 1, blocked | closed[u] | closed[v])
            chosen.pop()

    return rec(0, 0)


def is_induced_matching(g: Graph, m: Iterable[Edge]) -> bool:
    """True iff the edges *m* are pairwise disjoint and joined by no edge of g.

    Raises ValueError when *m* contains a non-edge.  Otherwise *m* is an
    induced matching iff its vertex set U has 2|m| vertices and g[U] has
    exactly the |m| edges of *m*.
    """
    m = list(m)
    for u, v in m:
        if not (0 <= u < g.n and 0 <= v < g.n and g.has_edge(u, v)):
            raise ValueError(f"({u},{v}) is not an edge of the graph")
    used = mask_of(w for e in m for w in e)
    degrees = sum((g.adj[w] & used).bit_count() for w in iter_bits(used))
    return used.bit_count() == 2 * len(m) and degrees == 2 * len(m)


def induced_matching_number(g: Graph) -> int:
    """Maximum size of an induced matching, over every `induced_matchings`
    (so capped at ``MAX_SEARCH_VERTICES``)."""
    return max(map(len, induced_matchings(g)), default=0)


# ---------------------------------------------------------------------------
# Graph text and JSON formats
#
# Text: first line "n m", then m lines "u v" (0-based).  JSON:
# {"n": int, "edges": [[u, v], ...], "labels": [...]? }.


def graph_to_text(g: Graph) -> str:
    lines = [f"{g.n} {g.num_edges()}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> Graph:
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("graph text must start with 'n m'")
    try:
        values = [int(t) for t in tokens]
    except ValueError as exc:
        raise ValueError(f"bad token in graph text: {exc}") from None
    n, m = values[0], values[1]
    _check_order(n)
    if m < 0:
        raise ValueError(f"edge count {m} is negative")
    if len(values) != 2 + 2 * m:
        raise ValueError(f"expected {2 * m} numbers after 'n m', found {len(values) - 2}")
    edges = [(values[2 + 2 * k], values[3 + 2 * k]) for k in range(m)]
    return new_graph(n, edges)


def graph_to_json_dict(g: Graph) -> dict:
    out: dict = {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}
    if g.labels is not None:
        out["labels"] = list(g.labels)
    return out


def graph_from_json_dict(obj: dict) -> Graph:
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise ValueError("graph JSON needs 'n' and 'edges' keys")
    n, edges, labels = obj["n"], obj["edges"], obj.get("labels")
    if not _is_int(n):
        raise ValueError(f"bad graph JSON: 'n' must be an integer, got {n!r}")
    _check_order(n)
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(map(_is_int, e)) for e in edges
    ):
        raise ValueError("bad graph JSON: 'edges' must be a list of [u, v] integer pairs")
    if labels is not None and not (
        isinstance(labels, list) and all(isinstance(s, str) for s in labels)
    ):
        raise ValueError("bad graph JSON: 'labels' must be a list of strings")
    return new_graph(n, edges, labels)


def _check_order(n: int) -> None:
    if not 0 <= n <= MAX_PARSE_VERTICES:
        raise ValueError(f"graph order {n} outside 0..{MAX_PARSE_VERTICES}")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def parse_graph(text: str) -> Graph:
    """Read a graph in either supported format (JSON is detected by '{'),
    after dropping one leading byte-order mark, as some editors write."""
    text = text.removeprefix("\ufeff")
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(stripped)
        except (json.JSONDecodeError, RecursionError) as exc:
            # deep nesting exhausts the decoder's recursion before any check
            raise ValueError(f"bad graph JSON: {exc}") from None
        return graph_from_json_dict(obj)
    return graph_from_text(text)


def format_graph(g: Graph, fmt: str = "text") -> str:
    if fmt == "text":
        return graph_to_text(g)
    if fmt == "json":
        return json.dumps(graph_to_json_dict(g)) + "\n"
    raise ValueError(f"unknown graph format {fmt!r}")
