"""Graded Betti tables of edge ideals, by summing homology over vertex subsets.

For a graph G on n vertices and the quotient S/I(G) of the polynomial ring by
its edge ideal, Hochster's formula gives

    beta_{i,i+j} = sum over |W| = i+j of dim ~H_{j-1}(Ind(G_W))

where Ind(G_W) is the independence complex of the induced subgraph on W.  The
sweep over subsets skips any W that one rule, the fold lemma (Engstrom
2009), proves contractible.  Let u be a vertex of r (W at first) with at most
one neighbour in r.  With none, Ind(G_r) is a cone; with one, x, Ind(G_r) is
the suspension of Ind(G_{r - N[x]}), and r gives way to r - N[x].  A walk
that ends at a cone leaves Ind(G_W) contractible.  A walk that folds s
times and ends at r leaves Ind(G_W) the s-fold suspension of Ind(G_r), so
each remaining subset gets an exact rank computation per boundary map of
Ind(G_r), shifted s degrees up and taken relative to the star cluster of a
maximal independent set of G_r, a contractible subcomplex.

Tables are sparse maps (i, j) -> beta_{i,i+j} with the unit entry (0,0) -> 1
always present.  The alternating sum of a table is the numerator of the
Hilbert series of S/I(G), which `hilbert_numerator` recomputes independently
from independent-set counts; `betti_table` raises `InvariantError` when the
two disagree.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .graphs import Graph
from .homology import (
    MAX_SWEEP_VERTICES,
    FieldSpec,
    HomologyProfile,
    InvariantError,
    greedy_order,
    homology_dims_from_levels,
    independence_numbers,
    independent_sets_by_card,
    star_cluster,
)

MAX_COUNT_VERTICES = 20

Position = tuple[int, int]


@dataclass(frozen=True)
class BettiTable:
    """Sparse grid of graded Betti numbers of S/I for an edge ideal.

    ``entries`` maps (homological degree i, strand j) to beta_{i,i+j} > 0;
    the unit entry (0,0) -> 1 is stored explicitly.  ``n`` is the number of
    polynomial variables (= vertices of the graph).  Treat instances as
    immutable: the entry dict is never to be modified after construction.
    """

    n: int
    entries: dict[Position, int]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("negative variable count")
        if self.entries.get((0, 0)) != 1:
            raise ValueError("table must contain the unit entry (0,0) -> 1")
        for (i, j), v in self.entries.items():
            if i < 0 or j < 0:
                raise ValueError(f"negative position ({i},{j})")
            if not isinstance(v, int) or v <= 0:
                raise ValueError(f"entry at ({i},{j}) must be a positive int, got {v!r}")
            if i + j > self.n:
                raise ValueError(f"entry at ({i},{j}) lies beyond degree n={self.n}")

    def get(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def support(self) -> set[Position]:
        return set(self.entries)

    def to_json_dict(self) -> dict:
        ents = sorted([i, j, v] for (i, j), v in self.entries.items())
        return {"n": self.n, "entries": ents}


def _hochster_terms(
    adj: Sequence[int], masks: Iterable[int], p: int | None
) -> Iterator[tuple[int, HomologyProfile]]:
    """(W, reduced homology dims of Ind(G_W)) for every nonempty W in *masks*
    that the fold walk does not close; a closed complex is contractible, has
    no reduced homology and is skipped.

    This is the only loop over vertex subsets: every sweep goes through it,
    and it refuses a graph above ``MAX_SWEEP_VERTICES`` before the first
    subset.  The fold walk starts at r = W, and the lowest vertex of r with
    at most one neighbour in r decides each step.  With no neighbour, r is
    a cone, which closes W.  With one, x, Ind(G_r) is the suspension of
    Ind(G_{r - N[x]}), and the walk starts again from r - N[x].  A vertex
    isolated in r lies in no N[x] of a later step, so a walk that passes
    a cone still ends at one.  A walk that finds no such vertex keeps W.
    The empty set is no cone, and Ind of the empty graph suspended is a
    sphere, so a walk that ends there keeps W (P3 is one).  A kept W whose
    walk folds s times and ends at r has ~H_k(Ind G_W) = ~H_{k-s}(Ind G_r)
    (Engstrom 2009), so only Ind(G_r) is listed, relative to the star
    cluster SC(sigma) of the maximal independent set sigma that
    `star_cluster` grows over r in one `greedy_order` per sweep (none when
    r is empty, which lists the empty face alone).  SC(sigma) is
    contractible (Barmak 2013), so the relative homology is the reduced
    homology of Ind(G_r).  Only the faces that meet N(v) & r for every v in
    sigma are listed, and a face loses its facet F - x when x is its only
    vertex in some N(v) & r.  Below the listing go s empty levels, which
    shift its dimensions s degrees up.  The listing runs to depth
    alpha(G_W) - s, read from one `independence_numbers` table per sweep;
    each fold takes at least one off alpha, its leaf, so the depth is at
    least alpha(G_r).  The dims then stay dense on -1 .. dim Ind(G_W), and
    each level up to alpha(G_W) still gets its one rank call.  Only that table and the order pass from
    one subset to the next.  This is the one place where a complex is taken
    relative to a cluster; `reduced_homology_dims` takes the whole complex.
    """
    if len(adj) > MAX_SWEEP_VERTICES:
        raise ValueError(f"graph has {len(adj)} > {MAX_SWEEP_VERTICES} vertices")
    alpha = independence_numbers(adj)
    order = greedy_order(adj)
    for w in masks:
        # the fold walk from r = W; each step scans r from its lowest vertex
        r = m = w
        s = 0
        while m:
            low = m & -m
            m ^= low
            x = adj[low.bit_length() - 1] & r
            if x & (x - 1) == 0:
                if not x:
                    break  # r is a cone: Ind(G_W) is contractible
                s += 1
                r &= ~(x | adj[x.bit_length() - 1])
                m = r
        else:
            # no vertex with at most one neighbour in r, the empty r included
            if w:
                # Ind(G_W) is Ind(G_r) suspended s times: list r relative to
                # a greedy set on it, s levels up
                sigma, walls = star_cluster(order, r) if r else (0, [])
                levels = independent_sets_by_card(adj, r, sigma, alpha[w] - s)
                yield w, homology_dims_from_levels([[]] * s + levels, p, walls)


def betti_table(g: Graph, field: FieldSpec = FieldSpec(), jobs: int = 1) -> BettiTable:
    """Full graded Betti table of S/I(g) over *field*.

    Sweeps the nonempty subsets W as masks 1 .. 2^n - 1 in one serial loop.
    ``jobs`` is accepted for existing callers: it must be at least 1 and has
    no other effect.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    cells: dict[Position, int] = {(0, 0): 1}
    for w, dims in _hochster_terms(tuple(g.adj), range(1, 1 << g.n), field.p):
        size = w.bit_count()
        for k, d in dims.items():
            if d:
                key = (size - k - 1, k + 1)
                cells[key] = cells.get(key, 0) + d
    table = BettiTable(g.n, cells)
    # The ranks cancel from this identity (each dim is f - r - r), but the
    # face counts do not: a face missing from a listing breaks it.
    if k_polynomial(table) != hilbert_numerator(g):
        raise InvariantError("alternating sum of the table != Hilbert numerator")
    return table


def betti_single(
    g: Graph, i: int, j: int, field: FieldSpec = FieldSpec()
) -> int:
    """Single Betti number beta_{i,i+j}(S/I(g)), summing only |W| = i+j.

    Degrees beyond the variable count vanish; asking for one emits a
    warning and returns 0.
    """
    if i == 0 and j == 0:
        return 1
    if i <= 0 or j <= 0:
        return 0
    if i + j > g.n:
        warnings.warn(
            f"beta_({i},{i + j}) of a ring in {g.n} variables is identically 0",
            stacklevel=2,
        )
        return 0
    masks = (w for w in range(1 << g.n) if w.bit_count() == i + j)
    return sum(dims.get(j - 1, 0) for _, dims in _hochster_terms(tuple(g.adj), masks, field.p))


def _trim(coeffs: list[int]) -> tuple[int, ...]:
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _independent_set_counts(adj: Sequence[int], vmask: int) -> list[int]:
    counts = [0] * (vmask.bit_count() + 1)
    counts[0] = 1

    def rec(size: int, avail: int) -> None:
        while avail:
            low = avail & -avail
            avail ^= low
            counts[size + 1] += 1
            rest = avail & ~adj[low.bit_length() - 1]
            if rest:
                rec(size + 1, rest)

    rec(0, vmask)
    return counts


def hilbert_numerator(g: Graph) -> tuple[int, ...]:
    """Numerator of the Hilbert series of S/I(g), as coefficients in t.

    Computed straight from the independent-set counts of g:
    sum over independent A of t^|A| (1-t)^(n-|A|).  Serves as a cross-check
    oracle for the Betti sweep via `k_polynomial`.
    """
    if g.n > MAX_COUNT_VERTICES:
        raise ValueError(f"graph has {g.n} > {MAX_COUNT_VERTICES} vertices")
    n = g.n
    counts = _independent_set_counts(tuple(g.adj), g.vertices_mask())
    poly = [0] * (n + 1)
    for s, c in enumerate(counts):
        if not c:
            continue
        for k in range(n - s + 1):
            poly[s + k] += c * (-1) ** k * math.comb(n - s, k)
    return _trim(poly)


def k_polynomial(t: BettiTable) -> tuple[int, ...]:
    """Alternating sum of the table: sum of (-1)^i beta_{i,i+j} t^(i+j).

    Equals `hilbert_numerator` of the underlying graph for every correct
    table, whatever the coefficient field.
    """
    poly = [0] * (t.n + 1)
    for (i, j), v in t.entries.items():
        poly[i + j] += (-1) ** i * v
    return _trim(poly)
