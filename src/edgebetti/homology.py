"""Independence complexes and exact reduced simplicial homology.

Faces are vertex subsets encoded as bitmasks.  Reduced homology dimensions
come from boundary-matrix ranks:

    dim ~H_k = f_k - rank d_k - rank d_{k+1}

with the reduced convention that d_0 maps every vertex to the empty face,
so the complex {emptyset} has ~H_{-1} of dimension one and a cone has no
reduced homology at all.  A Hochster sweep takes each Ind(G_W) relative to
a cone inside it: for a vertex v of W, the faces that miss N(v) form the
cone K = v * Ind(G_{W - N[v]}), so ~H_k(Ind G_W) = H_k(Ind G_W, K) and only
the faces that meet N(v) are listed and enter the matrices (Adamaszek 2012);
the levels still run up to alpha(G_W), the largest face of the whole
complex, so the dimensions stay dense on -1 .. dim Ind(G_W).  A face's
boundary row is one format in every field, the dict facet mask -> +-1, and
a sweep builds it once and keeps it for every later complex that holds the
face.  Ranks are exact, taken by `matrix_rank` from the top level down with
clearing (Chen and Kerber 2011): the row of a face that leads a reduced row
of the map above is skipped.  Leads are facet masks in every field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
    adj: Sequence[int], vmask: int, star: int | None = None
) -> list[list[int]]:
    """Independent subsets of *vmask* that meet *star*, grouped by cardinality.

    ``adj`` is the ambient adjacency bitset list; masks keep ambient vertex
    numbering.  Level c lists the kept c-vertex sets in a fixed deterministic
    order (lexicographic by increasing vertex list), so a kept face comes in
    the order the whole listing gives it.  Level 0 is always ``[0]``; the
    levels end at the largest kept face.  *star* defaults to *vmask*, which
    keeps every face.  While a partial face misses *star* the search only
    goes on while a star vertex is still available; once it meets *star*
    every extension is listed.
    """
    if star is None:
        star = vmask
    levels: list[list[int]] = [[] for _ in range(vmask.bit_count() + 1)]
    levels[0].append(0)

    def rec(mask: int, size: int, avail: int) -> None:
        # mask meets star: list every extension
        while avail:
            low = avail & -avail
            avail ^= low
            sub = mask | low
            levels[size + 1].append(sub)
            rest = avail & ~adj[low.bit_length() - 1]
            if rest:
                rec(sub, size + 1, rest)

    def seek(mask: int, size: int, avail: int) -> None:
        # mask misses star: descend only while a star vertex is available
        while avail & star:
            low = avail & -avail
            avail ^= low
            sub = mask | low
            rest = avail & ~adj[low.bit_length() - 1]
            if low & star:
                levels[size + 1].append(sub)
                if rest:
                    rec(sub, size + 1, rest)
            elif rest & star:
                seek(sub, size + 1, rest)

    seek(0, 0, vmask)
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


def cone_star(adj: Sequence[int], w: int) -> int:
    """N(v) & W for the lowest vertex v of least degree in G_W, or 0 when W
    is empty or has an isolated vertex (then Ind(G_W) is a cone).

    The faces of Ind(G_W) that miss this set form the cone
    v * Ind(G_{W - N[v]}); the least degree leaves the fewest faces outside.
    """
    star = 0
    least = w.bit_count()
    m = w
    while m:
        low = m & -m
        m ^= low
        nbrs = adj[low.bit_length() - 1] & w
        if not nbrs:
            return 0
        d = nbrs.bit_count()
        if d < least:
            star, least = nbrs, d
    return star


def homology_dims_from_levels(
    levels: list[list[int]],
    p: int | None,
    rows: dict[int, dict[int, int]] | None = None,
    star: int | None = None,
) -> HomologyProfile:
    """Reduced homology dimensions of a complex given by faces-per-cardinality.

    ``levels[c]`` must list the c-vertex faces; ``levels[0] == [0]``.  Returns
    a dense map k -> dim ~H_k for k = -1 .. dim.  Coefficients are QQ when
    *p* is None, GF(p) otherwise.  A face's boundary row is the dict facet
    mask -> +-1 in every field; it is taken from *rows*, face mask -> row,
    and built and stored there only when *rows* has not met the face before.
    A sweep passes one dict for all its complexes; without one, a fresh dict
    is used.

    With *star* = N(v) & W from `cone_star`, ``levels[c]`` must list the
    c-vertex faces of Ind(G_W) that meet *star*, as
    ``independent_sets_by_card(adj, W, star)`` gives them, and the dimensions
    are taken relative to the cone K of the faces that miss it: a face that
    meets *star* in one vertex x loses its facet F - x, a face of K.  Since K
    is contractible the dimensions are those of the whole complex.  With
    *star* None every listed face is kept, for any complex.
    """
    if rows is None:
        rows = {}
    top = len(levels) - 1
    # kept[c] = number of c-vertex faces kept; the empty face misses any star
    kept = [len(level) for level in levels]
    if star is not None:
        kept[0] = 0
    # rank_out[c] = rank of the boundary map from the c-vertex faces down
    rank_out = [0] * (top + 2)
    # A face that leads a reduced row z of the map above is a face of the
    # cycle z: d(z) = 0 writes its row below through the rows of the other
    # faces of z, all on one side of the lead.  Skipping it keeps the span.
    cleared: set[int] = set()
    for c in range(top, 0, -1):
        matrix = []
        for face in levels[c]:
            if face in cleared:
                continue
            row = rows.get(face)
            if row is None:
                row = {}
                sign = 1
                m = face
                while m:
                    low = m & -m
                    m ^= low
                    row[face ^ low] = sign
                    sign = -sign
                rows[face] = row
            if star is not None:
                x = face & star
                if x & (x - 1) == 0:
                    row = dict(row)
                    del row[face ^ x]
            matrix.append(row)
        leads = matrix_rank(matrix, p)
        rank_out[c] = len(leads)
        cleared = set(leads)
    dims: HomologyProfile = {}
    for k in range(-1, top):
        d = kept[k + 1] - rank_out[k + 1] - rank_out[k + 2]
        if d < 0:
            raise InvariantError(f"negative homology dimension at k={k}")
        dims[k] = d
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
