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
and `certified_positions` collects every witnessed type.  On any other
graph a witness still proves a position nonzero, but a missing one proves
nothing, so both warn there.  Both read one walk, `graphs.induced_matchings`
(the search skips the matchings whose size is not j), so both take its size
guard: it refuses a graph above ``MAX_SEARCH_VERTICES``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from .graphs import (
    Edge, Graph, induced_matchings, is_chordal, is_induced_matching, iter_bits, mask_of
)
from .homology import InvariantError


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


def _rooted_matchings(g: Graph, exact: int | None) -> Iterator[tuple]:
    """(matching, roots, attachable) for each induced matching, in the
    order of `induced_matchings` and of size *exact* when that is set, and
    each choice of one root per edge, smaller endpoints first; attachable
    is the mask of the vertices outside the matching adjacent to some root.
    """
    for matching in induced_matchings(g):
        if exact is not None and len(matching) != exact:
            continue
        vm = mask_of(w for e in matching for w in e)
        for pattern in range(1 << len(matching)):
            # bit k clear: root of edge k is its smaller endpoint
            roots = [e[pattern >> k & 1] for k, e in enumerate(matching)]
            near = 0
            for r in roots:
                near |= g.adj[r]
            yield matching, roots, near & ~vm


def find_certificate(g: Graph, i: int, j: int) -> Certificate | None:
    """Search g for a strongly disjoint bouquet set of type (i, j).

    The search is complete: it takes the induced matchings of size j, in
    lexicographic edge order, as representative systems, each choice of
    roots (smaller endpoints first), then pads the bouquets with the i - j
    smallest attachable outside vertices, each hung on its smallest
    adjacent root.  Returns the first certificate in that order, hence a
    deterministic one, or None.  Types with j < 1, i < j or i + j > n are
    impossible and return None without a search, at any size.  None proves
    beta_{i,i+j} = 0 only on a chordal graph, so any other graph warns.
    """
    cert = None
    need = i - j
    if j >= 1 and need >= 0 and i + j <= g.n:
        for matching, roots, attachable in _rooted_matchings(g, j):
            if attachable.bit_count() < need:
                continue
            leaves = {r: [u + v - r] for (u, v), r in zip(matching, roots)}
            for w in islice(iter_bits(attachable), need):
                leaves[min(r for r in roots if g.adj[w] >> r & 1)].append(w)
            ordered = sorted(zip(roots, matching))
            cert = Certificate(
                tuple((r, tuple(sorted(leaves[r]))) for r, _ in ordered),
                tuple(e for _, e in ordered),
            )
            if cert.type != (i, j) or not validate_bouquet_set(g, cert):
                raise InvariantError(f"search built an invalid bouquet set of type ({i},{j})")
            break
    if not is_chordal(g):
        warnings.warn(
            "graph is not chordal; a missing certificate does not imply a "
            "vanishing Betti number",
            stacklevel=2,
        )
    return cert


def certified_positions(g: Graph) -> set[tuple[int, int]]:
    """All positions (i, j) witnessed by some strongly disjoint bouquet set,
    plus the unit position (0, 0).

    On a chordal graph this is exactly the support of the Betti table of
    S/I(g); elsewhere it is still a sound list of nonzero positions but may
    be incomplete, so a warning is emitted after the search.
    """
    out = {(0, 0)}
    for matching, _, attachable in _rooted_matchings(g, None):
        s = len(matching)
        for e in range(attachable.bit_count() + 1):
            out.add((s + e, s))
    if not is_chordal(g):
        warnings.warn(
            "graph is not chordal: certified positions list nonzero Betti "
            "positions but may miss some",
            stacklevel=2,
        )
    return out
