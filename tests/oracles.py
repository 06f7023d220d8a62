"""Independent, deliberately naive reference implementations for the tests.

Everything here recomputes results straight from definitions with none of
the package's shortcuts: dense sympy matrices over the rationals, no cone
pruning, vertex sets as frozensets, exhaustive searches.  Slow on purpose —
keep inputs to n <= 6 or so.  The one exception is `link_regularity`, which
reads the regularity off a different formula and takes each link's homology
from the package's whole-complex path, not from the sweep.
"""

from __future__ import annotations

from itertools import combinations, product

import sympy

from edgebetti.graphs import new_graph
from edgebetti.homology import reduced_homology_dims


def edge_set(g) -> set[frozenset[int]]:
    return {frozenset(e) for e in g.edges()}


def independent_subsets(g, w: frozenset[int]) -> list[frozenset[int]]:
    edges = edge_set(g)
    out = []
    for size in range(len(w) + 1):
        for combo in combinations(sorted(w), size):
            if all(frozenset(p) not in edges for p in combinations(combo, 2)):
                out.append(frozenset(combo))
    return out


def face_levels(n: int, generators) -> list[list[int]]:
    """Faces of the complex generated by *generators* (bitmasks on n vertices),
    grouped by cardinality as `homology_dims_from_levels` takes them.

    Level c lists the c-vertex faces in increasing order; level 0 is [0], so
    no generators give the complex {emptyset}.
    """
    faces = {0}
    for gen in generators:
        if not 0 <= gen < 1 << n:
            raise ValueError(f"generator {gen:#x} out of range for n={n}")
        sub = gen
        while sub:  # every nonempty submask of gen
            faces.add(sub)
            sub = (sub - 1) & gen
    levels = [[] for _ in range(max(f.bit_count() for f in faces) + 1)]
    for f in sorted(faces):
        levels[f.bit_count()].append(f)
    return levels


def naive_homology_dims(faces: list[frozenset[int]]) -> dict[int, int]:
    """Reduced homology over QQ of the complex with the given face list."""
    by_card: dict[int, list[frozenset[int]]] = {}
    for f in faces:
        by_card.setdefault(len(f), []).append(f)
    top = max(by_card)
    levels = [sorted(by_card.get(c, []), key=sorted) for c in range(top + 1)]
    ranks = [0] * (top + 2)
    for c in range(1, top + 1):
        lower = {f: idx for idx, f in enumerate(levels[c - 1])}
        mat = sympy.zeros(max(len(lower), 1), max(len(levels[c]), 1))
        for col, face in enumerate(levels[c]):
            for t, v in enumerate(sorted(face)):
                mat[lower[face - {v}], col] = (-1) ** t
        ranks[c] = mat.rank() if levels[c] else 0
    return {
        k: len(levels[k + 1]) - ranks[k + 1] - ranks[k + 2] for k in range(-1, top)
    }


def has_isolated_vertex(adj, w: int) -> bool:
    """Whether G_W has a vertex with no neighbour in W, so that Ind(G_W) is
    a cone; *adj* is a list of adjacency bitmasks and *w* a vertex mask."""
    return not all(adj[v] & w for v in range(len(adj)) if w >> v & 1)


def naive_fold_walk(g, w: frozenset[int]) -> tuple[list[tuple[int, int]], frozenset[int] | None]:
    """The leaf chain from W: its folds (u, x), and where it ends, None at a
    cone, else the last r.

    While the vertex set r (W at first) has a vertex with exactly one
    neighbour x in r, the lowest such vertex u is taken and r loses x and
    the neighbours of x.  The chain ends at an r with an isolated vertex
    (None) or at an r, possibly empty, with neither kind of vertex (that r).
    """
    edges = edge_set(g)
    r = set(w)
    folds = []
    while True:
        nbrs = {v: {u for u in r if frozenset((u, v)) in edges} for v in sorted(r)}
        if any(not s for s in nbrs.values()):
            return folds, None
        leaves = [v for v, s in nbrs.items() if len(s) == 1]
        if not leaves:
            return folds, frozenset(r)
        (x,) = nbrs[leaves[0]]
        folds.append((leaves[0], x))
        r -= nbrs[x] | {x}


def link_regularity(g, field) -> int:
    """Castelnuovo-Mumford regularity of S/I(g) over *field*, read off the
    links of Ind(g), with no Betti table.

    Hochster's formula for local cohomology (Bruns and Herzog, Cohen-Macaulay
    Rings, Thm 5.3.8) gives reg = the largest k + 1 with ~H_k(lk F) != 0 over
    the faces F of Ind(g), and the link of an independent set F is
    Ind(g - N[F]).  Each distinct link is taken once, by the package's
    `reduced_homology_dims` of the induced subgraph, the whole complex with
    no sweep.  A maximal F has the link {emptyset}, so the result is >= 0.
    """
    edges = edge_set(g)
    links = {
        frozenset(v for v in range(g.n) if all(v != u and frozenset((u, v)) not in edges for u in f))
        for f in independent_subsets(g, frozenset(range(g.n)))
    }
    reg = 0
    for link in links:
        pos = {v: k for k, v in enumerate(sorted(link))}
        h = new_graph(len(pos), [(pos[a], pos[b]) for a, b in g.edges() if a in pos and b in pos])
        dims = reduced_homology_dims(h, field)
        reg = max(reg, max((k + 1 for k, d in dims.items() if d), default=0))
    return reg


def naive_betti_table(g) -> dict[tuple[int, int], int]:
    """Betti numbers summed over every subset, no pruning, dense ranks."""
    table = {(0, 0): 1}
    for size in range(1, g.n + 1):
        for combo in combinations(range(g.n), size):
            w = frozenset(combo)
            dims = naive_homology_dims(independent_subsets(g, w))
            for k, d in dims.items():
                if d and k >= 0:
                    key = (size - k - 1, k + 1)
                    table[key] = table.get(key, 0) + d
    return table


def naive_is_chordal(g) -> bool:
    """No vertex subset of size >= 4 may induce a cycle."""
    edges = edge_set(g)
    for size in range(4, g.n + 1):
        for combo in combinations(range(g.n), size):
            deg = {
                v: sum(frozenset((v, u)) in edges for u in combo if u != v)
                for v in combo
            }
            if any(d != 2 for d in deg.values()):
                continue
            # all degrees 2: a disjoint union of cycles; connected => one cycle
            seen = {combo[0]}
            frontier = [combo[0]]
            while frontier:
                v = frontier.pop()
                for u in combo:
                    if u not in seen and frozenset((v, u)) in edges:
                        seen.add(u)
                        frontier.append(u)
            if len(seen) == size:
                return False
    return True


def naive_induced_matchings(g) -> list[tuple]:
    """Every nonempty edge subset, as a tuple of edges in `edges` order, whose
    edges are pairwise disjoint and meet no common edge of g."""
    edges = [frozenset(e) for e in g.edges()]
    out = []
    for size in range(1, len(edges) + 1):
        for sub in combinations(edges, size):
            verts = [v for e in sub for v in e]
            if len(set(verts)) != 2 * size:
                continue
            if any(
                e != a and e != b and e & a and e & b
                for e in edges
                for a, b in combinations(sub, 2)
            ):
                continue
            out.append(tuple(tuple(sorted(e)) for e in sub))
    return out


def naive_induced_matching_number(g) -> int:
    return max(map(len, naive_induced_matchings(g)), default=0)


def _rep_choices_form_induced_matching(g, bouquets) -> bool:
    edges = edge_set(g)
    leaf_lists = [sorted(leaves) for _, leaves in bouquets]
    for choice in product(*leaf_lists):
        reps = [frozenset((root, leaf)) for (root, _), leaf in zip(bouquets, choice)]
        verts = [v for e in reps for v in e]
        if len(set(verts)) != 2 * len(reps):
            continue
        if any(
            e not in (a, b) and e & a and e & b
            for e in edges
            for a, b in combinations(reps, 2)
        ):
            continue
        return True
    return False


def naive_certified_positions(g) -> set[tuple[int, int]]:
    """Positions witnessed by a strongly disjoint bouquet set — brute force.

    Tries every subset W, every root set inside it, and every assignment of
    the remaining vertices of W as leaves of adjacent roots.
    """
    edges = edge_set(g)
    out = {(0, 0)}
    for size in range(2, g.n + 1):
        for combo in combinations(range(g.n), size):
            w = set(combo)
            for s in range(1, size // 2 + 1):
                if (size - s, s) in out:
                    continue
                for roots in combinations(sorted(w), s):
                    rest = sorted(w - set(roots))
                    owners = [
                        [r for r in roots if frozenset((r, v)) in edges] for v in rest
                    ]
                    if any(not o for o in owners):
                        continue
                    hit = False
                    for assign in product(*owners):
                        leaves = {r: set() for r in roots}
                        for v, r in zip(rest, assign):
                            leaves[r].add(v)
                        if any(not l for l in leaves.values()):
                            continue
                        if _rep_choices_form_induced_matching(
                            g, [(r, leaves[r]) for r in roots]
                        ):
                            hit = True
                            break
                    if hit:
                        out.add((size - s, s))
                        break
    return out
