"""Star-shaped witnesses for nonzero Betti positions.

A bouquet in a graph is a star: a root plus leaves all adjacent to it.  A
set of bouquets is *strongly disjoint* when the bouquets are pairwise
vertex-disjoint and one representative root-leaf edge can be picked per
bouquet so that the representatives form an induced matching.  A strongly
disjoint set with s bouquets covering t vertices in total has type
(t - s, s).

On a chordal graph, beta_{i,i+j}(S/I(G)) is nonzero exactly when some
induced subgraph G_W is covered by a strongly disjoint set of bouquets of
type (i, j); `find_certificate` searches for such a witness exhaustively
and `certified_positions` collects every witnessed type.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterator

from .graphs import Graph, is_chordal, is_induced_matching, iter_bits, mask_of
from .homology import InvariantError

MAX_SEARCH_VERTICES = 16
MAX_PREDICT_VERTICES = 13

Edge = tuple[int, int]


@dataclass(frozen=True)
class Certificate:
    """A set of bouquets plus one representative root-leaf edge each.

    ``bouquets`` holds (root, leaves) pairs sorted by root, each with
    nonempty, sorted and distinct leaves; ``representatives`` holds the
    edge (u, v), u < v, picked for each bouquet, index-aligned.  Whether
    the set is strongly disjoint in a given graph is up to
    `validate_bouquet_set`.
    """

    bouquets: tuple[tuple[int, tuple[int, ...]], ...]
    representatives: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if not self.bouquets or len(self.bouquets) != len(self.representatives):
            raise ValueError("need one representative per bouquet (and at least one)")
        prev_root = -1
        for (root, leaves), (u, v) in zip(self.bouquets, self.representatives):
            if root < 0:
                raise ValueError("negative root")
            if root <= prev_root:
                raise ValueError("bouquets must be sorted by root")
            prev_root = root
            if not leaves:
                raise ValueError("bouquet needs at least one leaf")
            prev = -1
            for leaf in leaves:
                if leaf <= prev:
                    raise ValueError("leaves must be sorted and distinct")
                if leaf == root:
                    raise ValueError("root cannot be its own leaf")
                prev = leaf
            if u >= v:
                raise ValueError(f"representative ({u},{v}) not in sorted form")
            if root not in (u, v) or (u if root == v else v) not in leaves:
                raise ValueError(f"representative ({u},{v}) is not a root-leaf edge")

    @property
    def type(self) -> tuple[int, int]:
        """(total leaves, #bouquets): the position (i, j) witnessed."""
        return sum(len(leaves) for _, leaves in self.bouquets), len(self.bouquets)

    @property
    def witness(self) -> int:
        """The covered vertex set W as a bitmask."""
        return mask_of(v for root, leaves in self.bouquets for v in (root, *leaves))

    def to_json_dict(self) -> dict:
        return {
            "type": list(self.type),
            "bouquets": [
                {"root": root, "leaves": list(leaves)} for root, leaves in self.bouquets
            ],
            "representatives": [list(e) for e in self.representatives],
        }


def validate_bouquet_set(g: Graph, cert: Certificate) -> bool:
    """True iff the bouquets of *cert* are a strongly disjoint set in *g*.

    Structural defects (vertex out of range, leaf not adjacent to its root)
    raise ValueError; mere failure of strong disjointness — overlapping
    bouquets, or representatives not an induced matching — returns False.
    """
    for root, leaves in cert.bouquets:
        for v in (root, *leaves):
            if v >= g.n:
                raise ValueError(f"vertex {v} out of range")
        for leaf in leaves:
            if not g.has_edge(root, leaf):
                raise ValueError(f"leaf {leaf} not adjacent to root {root}")
    # each bouquet has 1 + |leaves| distinct vertices, so the bouquets are
    # disjoint iff together they cover i + j vertices
    if cert.witness.bit_count() != sum(cert.type):
        return False
    return is_induced_matching(g, cert.representatives)


def _induced_matchings(
    edges: list[Edge], closed: list[int], exact: int | None
) -> Iterator[tuple[Edge, ...]]:
    """Induced matchings among *edges*, in lexicographic edge-list order.

    With *exact* set, only matchings of that size are yielded; otherwise
    every nonempty one is.  ``closed`` holds closed neighborhood masks.
    """
    chosen: list[Edge] = []

    def rec(start: int, blocked: int) -> Iterator[tuple[Edge, ...]]:
        if exact is not None and len(chosen) == exact:
            yield tuple(chosen)
            return
        stop = len(edges) if exact is None else len(edges) - (exact - len(chosen)) + 1
        for idx in range(start, stop):
            u, v = edges[idx]
            if blocked & (1 << u | 1 << v):
                continue
            chosen.append(edges[idx])
            if exact is None:
                yield tuple(chosen)
            yield from rec(idx + 1, blocked | closed[u] | closed[v])
            chosen.pop()

    yield from rec(0, 0)


def _rooted_matchings(g: Graph, exact: int | None) -> Iterator[tuple]:
    """(matching, roots, attachable) for each induced matching (of size
    *exact*, or every nonempty one, in lexicographic edge-list order) and
    each choice of one root per edge, smaller endpoints first; attachable
    lists the vertices outside the matching adjacent to some root.
    """
    closed = [g.adj[v] | 1 << v for v in range(g.n)]
    for matching in _induced_matchings(g.edges(), closed, exact):
        vm = mask_of(w for e in matching for w in e)
        for pattern in range(1 << len(matching)):
            # bit k clear: root of edge k is its smaller endpoint
            roots = [e[pattern >> k & 1] for k, e in enumerate(matching)]
            near = 0
            for r in roots:
                near |= g.adj[r]
            yield matching, roots, list(iter_bits(near & ~vm))


def find_certificate(g: Graph, i: int, j: int) -> Certificate | None:
    """Search g for a strongly disjoint bouquet set of type (i, j).

    The search is complete: it enumerates induced matchings of size j as
    representative systems (lexicographic edge order), each choice of roots
    (smaller endpoints first), then pads the bouquets with the i - j
    smallest attachable outside vertices, each hung on its smallest
    adjacent root.  Returns the first certificate in that order, hence a
    deterministic one, or None.  Types with j < 1, i < j or i + j > n are
    impossible and return None immediately.
    """
    if g.n > MAX_SEARCH_VERTICES:
        raise ValueError(f"graph has {g.n} > {MAX_SEARCH_VERTICES} vertices")
    if j < 1 or i < j or i + j > g.n:
        return None
    need = i - j
    for matching, roots, attachable in _rooted_matchings(g, j):
        if len(attachable) < need:
            continue
        leaves = {r: [u + v - r] for (u, v), r in zip(matching, roots)}
        for w in attachable[:need]:
            leaves[min(r for r in roots if g.adj[w] >> r & 1)].append(w)
        ordered = sorted(zip(roots, matching))
        cert = Certificate(
            tuple((r, tuple(sorted(leaves[r]))) for r, _ in ordered),
            tuple(e for _, e in ordered),
        )
        if cert.type != (i, j) or not validate_bouquet_set(g, cert):
            raise InvariantError(f"search built an invalid bouquet set of type ({i},{j})")
        return cert
    return None


def certified_positions(g: Graph) -> set[tuple[int, int]]:
    """All positions (i, j) witnessed by some strongly disjoint bouquet set,
    plus the unit position (0, 0).

    On a chordal graph this is exactly the support of the Betti table of
    S/I(g); elsewhere it is still a sound list of nonzero positions but may
    be incomplete, so a warning is emitted.
    """
    if g.n > MAX_PREDICT_VERTICES:
        raise ValueError(f"graph has {g.n} > {MAX_PREDICT_VERTICES} vertices")
    if g.n and not is_chordal(g):
        warnings.warn(
            "graph is not chordal: certified positions list nonzero Betti "
            "positions but may miss some",
            stacklevel=2,
        )
    out = {(0, 0)}
    for matching, _, attachable in _rooted_matchings(g, None):
        s = len(matching)
        for e in range(len(attachable) + 1):
            out.add((s + e, s))
    return out
