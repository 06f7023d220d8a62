"""Independence complexes and exact reduced simplicial homology.

Faces are vertex subsets encoded as bitmasks.  Reduced homology dimensions
come from boundary-matrix ranks:

    dim ~H_k = f_k - rank d_k - rank d_{k+1}

with the reduced convention that d_0 maps every vertex to the empty face,
so the complex {emptyset} has ~H_{-1} of dimension one and a cone has no
reduced homology at all.  A Hochster sweep takes each Ind(G_W) relative to
a contractible subcomplex, the star cluster SC(sigma) of an independent set
sigma of G_W (Barmak 2013): the union of the stars of the vertices v of
sigma, where the star of v is the set of faces that miss N(v).  Ind(G_W) is
a flag complex, so the stars of some vertices of sigma meet in the star of
the face they span, a cone, and by the nerve lemma SC(sigma) is homotopy
equivalent to the simplex on sigma, so contractible.  Hence ~H_k(Ind G_W) =
H_k(Ind G_W, SC(sigma)), and only the faces that meet N(v) for every v in
sigma are listed and enter the matrices; sigma = {v} gives Adamaszek's
(2012) cone v * Ind(G_{W - N[v]}).  Any nonempty simplex will do, maximal
or not.  The sweep takes the end r of its fold walk relative to a greedy
independent set of G_r and shifts the listing s levels up, one per fold,
since Ind(G_W) is Ind(G_r) suspended s times (Engstrom 2009).  The levels
still run up to alpha(G_W), the largest face of the whole complex, so the
dimensions stay dense on -1 .. dim Ind(G_W).  A face's boundary row is one
format in every field, the dict facet mask -> +-1, built afresh for each
complex; relative to a cluster a face leaves out the facets that miss a
wall.  A face that loses every facet has a zero row: it is a cycle, and
its row is never built.  Almost every face of a fold end's listing is one.
Ranks are exact, taken by `matrix_rank` from the top level down with
clearing (Chen and Kerber 2011): the row of a face that leads a reduced row
of the map above is skipped.  Each level gets one `matrix_rank` call,
whatever it holds, and the dimensions are written from the top degree down.
Leads are facet masks in every field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Sequence

from .graphs import Graph
from .linalg import matrix_rank

HomologyProfile = dict[int, int]

# Largest graph one Hochster sweep runs on; reduced_homology_dims, which
# lists the whole complex of the graph, refuses a larger one too.
MAX_SWEEP_VERTICES = 16


class InvariantError(RuntimeError):
    """An internal identity failed: a bug in the computation, never bad input.

    Raised in place of ``assert`` so that the checks also run under
    ``python -O``.
    """


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Moduli must lie below this bound, under which Miller-Rabin with the bases
# above is deterministic: the least composite that passes all twelve is
# 318665857834031151167461 > 2^78 (Sorenson and Webster 2017).
_MODULUS_BOUND = 1 << 64


def _is_prime(m: int) -> bool:
    # deterministic Miller-Rabin for m < _MODULUS_BOUND
    if m < 2:
        return False
    for q in _MR_WITNESSES:
        if m % q == 0:
            return m == q
    d = m - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_WITNESSES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field for homology: exact rationals, or GF(p).

    ``p`` is None for the rationals, a prime below 2^64 for GF(p).
    """

    p: int | None = None

    def __post_init__(self) -> None:
        # 2.0 would pass the prime test and run the sweep in floats
        if self.p is not None and not isinstance(self.p, int):
            raise ValueError(f"modulus {self.p!r} is not an integer")
        if self.p is not None and self.p >= _MODULUS_BOUND:
            raise ValueError(f"modulus {self.p} must be below 2^64")
        if self.p is not None and not _is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    @classmethod
    def gf(cls, p: int) -> "FieldSpec":
        return cls(p)

    @classmethod
    def parse(cls, text: str) -> "FieldSpec":
        """Parse a CLI field token: "qq" (or "rationals"), "gf2", "gfp:<p>"."""
        t = text.strip().lower()
        if t in ("qq", "rationals", "rational"):
            return cls(None)
        if t == "gf2":
            return cls(2)
        if t.startswith("gfp:") and t[4:].isdecimal():
            # 2^64 has 20 digits: refuse longer moduli before int() does,
            # with its own message, past 4300 digits
            digits = t[4:].lstrip("0") or "0"
            if len(digits) > 20:
                raise ValueError(f"modulus {digits} must be below 2^64")
            return cls(int(digits))
        raise ValueError(f"unknown field {text!r} (expected qq, gf2 or gfp:<p>)")

    def __str__(self) -> str:
        return "QQ" if self.p is None else f"GF({self.p})"


def independent_sets_by_card(
    adj: Sequence[int], vmask: int, sigma: int = 0, depth: int | None = None
) -> list[list[int]]:
    """Independent subsets of *vmask* that miss *sigma* and meet N(v) for
    every v in *sigma*, grouped by cardinality.

    ``adj`` is the ambient adjacency bitset list; masks keep ambient vertex
    numbering.  Level c lists the kept c-vertex sets in a fixed deterministic
    order (lexicographic by increasing vertex list), so a kept face comes in
    the order the whole listing gives it.  Level 0 is ``[0]`` when *sigma*
    is 0 and ``[]`` otherwise, since the empty face meets no N(v).  The
    levels end at the largest kept face, or at level *depth* when one is
    given, which must be at least that size.

    For an independent *sigma* these are the faces of Ind(G_vmask) outside
    the star cluster of sigma.  One search lists them: it keeps the
    vertices of sigma that the partial face does not dominate yet, and
    lists a face only when none is pending, so with *sigma* 0 every face
    is kept.
    """
    levels: list[list[int]] = [
        [] for _ in range((vmask.bit_count() if depth is None else depth) + 1)
    ]
    if not sigma:
        levels[0].append(0)

    def seek(mask: int, size: int, avail: int, pending: int) -> None:
        # pending: the vertices of sigma that mask does not dominate yet
        while avail:
            low = avail & -avail
            avail ^= low
            sub = mask | low
            nbrs = adj[low.bit_length() - 1]
            rest = avail & ~nbrs
            left = pending & ~nbrs
            if not left:
                levels[size + 1].append(sub)
            if rest:
                seek(sub, size + 1, rest, left)

    seek(0, 0, vmask & ~sigma, sigma)
    if depth is None:
        while len(levels) > 1 and not levels[-1]:
            levels.pop()
    return levels


def independence_numbers(adj: Sequence[int]) -> list[int]:
    """alpha(G_W) for every vertex mask W of the graph with adjacency *adj*.

    Doubles the table once per vertex u: a mask m | u, with m below u, either
    leaves u out or takes u with an independent set of m - N(u), so
    alpha(m | u) = max(alpha(m), 1 + alpha(m - N(u))).  Since m - N(u) lies
    in m, the second term wins just when alpha(m - N(u)) = alpha(m), which
    the comparison below tests without calling max.
    """
    alpha = [0]
    for u in range(len(adj)):
        keep = ~adj[u] & ((1 << u) - 1)
        alpha += [a if alpha[m & keep] < a else a + 1 for m, a in enumerate(alpha)]
    return alpha


def greedy_order(adj: Sequence[int]) -> list[tuple[int, int]]:
    """The vertices of the graph with adjacency *adj* as (bit, adjacency)
    pairs, in order of degree, the lower vertex first on a tie: the order
    in which `star_cluster` grows sigma."""
    ranked = sorted(range(len(adj)), key=lambda v: (adj[v].bit_count(), v))
    return [(1 << v, adj[v]) for v in ranked]


def star_cluster(order: Sequence[tuple[int, int]], w: int) -> tuple[int, list[int]]:
    """A maximal independent set sigma of G_W and its walls N(v) & W, one
    for each v in sigma, in the order they join it.  The sweep calls it on
    the end r of its fold walk, not on W.

    sigma is grown greedily over W in *order*, from `greedy_order`: a
    vertex joins when none of its neighbours has, so sigma starts at the
    vertex of W of least degree in G, and vertices of small neighbourhood,
    which cut the most faces, come first.  The faces of Ind(G_W) that miss
    some wall form the star cluster of sigma; the faces that meet every
    wall form the relative complex.  A vertex that is isolated in G_W joins
    with an empty wall, which no face meets.
    """
    sigma = 0
    walls = []
    free = w
    for bit, nbrs in order:
        if bit & free:
            nbrs &= w
            sigma |= bit
            walls.append(nbrs)
            free &= ~(bit | nbrs)
            if not free:
                break
    return sigma, walls


def homology_dims_from_levels(
    levels: list[list[int]],
    p: int | None,
    walls: Sequence[int] = (),
) -> HomologyProfile:
    """Reduced homology dimensions of a complex given by faces-per-cardinality.

    ``levels[c]`` must list the c-vertex faces, ``levels[0] == [0]`` for a
    whole complex.  Returns a dense map k -> dim ~H_k for k = -1 .. dim,
    each written as the rank loop reaches it, so the keys run from the top
    degree down.  Coefficients are QQ when *p* is None, GF(p) otherwise.  A
    face's boundary row is the dict facet mask -> +-1 in every field, built
    here for every listed face that clearing does not skip and whose row is
    not zero.

    With *walls*, the sets N(v) & W for the vertices v of an independent
    set sigma of G_W (in the sweep W is the fold end, sigma its
    `star_cluster` set), ``levels[c]`` must list the c-vertex faces of
    Ind(G_W) that meet every wall, as ``independent_sets_by_card(adj, W,
    sigma)`` gives them, and the dimensions are taken relative to the star
    cluster SC(sigma), the faces that miss some wall.  The empty face
    misses every wall, so level 0 is empty.  A face F loses its facet F - x
    exactly when x is the only vertex of F in some wall: F - x misses that
    wall, and the row of F is built without it.  When every vertex of F is
    alone in some wall the row is zero: F is a cycle, counted in its level,
    and no row of it is built or handed to the rank.  Since SC(sigma) is
    contractible the dimensions are those of the whole complex.  A relative
    listing needs its walls: without them a face keeps every facet, listed
    or not.  With no *walls* every listed face is kept, for any complex.
    Empty levels put below a listing shift its dimensions up one degree
    each, as the sweep's folds do; each level still gets its one
    `matrix_rank` call, with no rows when all of its rows are zero.
    """
    top = len(levels) - 1
    dims: HomologyProfile = {}
    # rank of the boundary map from the level above
    above = 0
    # A face that leads a reduced row z of the map above is a face of the
    # cycle z: d(z) = 0 writes its row below through the rows of the other
    # faces of z, all on one side of the lead.  Skipping it keeps the span.
    cleared: Collection[int] = ()
    for c in range(top, 0, -1):
        level = levels[c]
        matrix = []
        for face in level:
            if face in cleared:
                continue
            drop = 0
            for wall in walls:
                x = face & wall
                if x & (x - 1) == 0:
                    drop |= x
            if drop == face:
                # every facet misses a wall: a zero row, and face a cycle
                continue
            row = {}
            sign = 1
            m = face
            while m:
                low = m & -m
                m ^= low
                if not low & drop:
                    row[face ^ low] = sign
                sign = -sign
            matrix.append(row)
        leads = matrix_rank(matrix, p)
        rank = len(leads)
        dims[c - 1] = dim = len(level) - rank - above
        if dim < 0:
            raise InvariantError(f"negative homology dimension at k={c - 1}")
        above = rank
        # most levels of a relative complex lead nothing: no set for them
        cleared = set(leads) if leads else ()
    dims[-1] = dim = len(levels[0]) - above
    if dim < 0:
        raise InvariantError("negative homology dimension at k=-1")
    return dims


def reduced_homology_dims(g: Graph, field: FieldSpec = FieldSpec()) -> HomologyProfile:
    """Reduced homology dimensions of the independence complex Ind(*g*) over
    *field*, as k -> dim ~H_k.

    The map is dense on -1 .. dim Ind(g); every other degree is zero.  The
    whole complex is listed and taken as it is.
    """
    if g.n > MAX_SWEEP_VERTICES:
        raise ValueError(f"graph has {g.n} > {MAX_SWEEP_VERTICES} vertices")
    return homology_dims_from_levels(independent_sets_by_card(g.adj, g.vertices_mask()), field.p)
