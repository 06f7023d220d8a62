"""Independence complexes and exact reduced simplicial homology.

Faces are vertex subsets encoded as bitmasks.  Reduced homology dimensions
come from boundary-matrix ranks:

    dim ~H_k = f_k - rank d_k - rank d_{k+1}

with the reduced convention that d_0 maps every vertex to the empty face,
so the complex {emptyset} has ~H_{-1} of dimension one and a cone has no
reduced homology at all.  Ranks are exact: one online echelon loop over the
rationals (plain ints while every pivot leads with +-1) or GF(p), and bitmask
XOR elimination over GF(2), taken from the top level down with clearing (Chen
and Kerber 2011): the row of a face that leads a reduced row of the map above
is skipped.  A sweep builds each face's row once and keeps it in a
`FaceCache` for every later complex that holds the face.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

from .graphs import Graph
from .linalg import matrix_rank, rank_gf2

HomologyProfile = dict[int, int]

# Largest graph whose subsets one sweep, or one reduced_homology_dims call,
# will enumerate.
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
            return cls(int(t[4:]))
        raise ValueError(f"unknown field {text!r} (expected qq, gf2 or gfp:<p>)")

    def __str__(self) -> str:
        return "QQ" if self.p is None else f"GF({self.p})"


def independent_sets_by_card(adj: Sequence[int], vmask: int) -> list[list[int]]:
    """Independent subsets of *vmask*, grouped by cardinality.

    ``adj`` is the ambient adjacency bitset list; masks keep ambient vertex
    numbering.  Level c lists the c-vertex sets in a fixed deterministic
    order (lexicographic by increasing vertex list).
    """
    levels: list[list[int]] = [[] for _ in range(vmask.bit_count() + 1)]
    levels[0].append(0)

    def rec(mask: int, size: int, avail: int) -> None:
        while avail:
            low = avail & -avail
            avail ^= low
            v = low.bit_length() - 1
            sub = mask | low
            levels[size + 1].append(sub)
            rest = avail & ~adj[v]
            if rest:
                rec(sub, size + 1, rest)

    rec(0, 0, vmask)
    while len(levels) > 1 and not levels[-1]:
        levels.pop()
    return levels


class FaceCache:
    """Boundary rows of the faces one sweep has met, each built once.

    The boundary of a face does not depend on the complex it lies in, so one
    sweep over the subsets of a graph keeps one cache for its one field and
    drops it when the sweep ends.  Over QQ and GF(p) a row is a dict keyed by
    the face masks of the facets, with alternating signs.  Over GF(2) a row
    is a bitmask over column ids: ``ids[c]`` numbers the c-vertex faces in
    the order they are first met, so the row of a c-vertex face is as wide
    as the number of (c-1)-vertex faces the sweep has met, not 2^n bits.
    """

    __slots__ = ("rows", "ids")

    def __init__(self) -> None:
        self.rows: dict[int, dict[int, int] | int] = {}
        self.ids: defaultdict[int, dict[int, int]] = defaultdict(dict)


def homology_dims_from_levels(
    levels: list[list[int]], p: int | None, cache: FaceCache | None = None
) -> HomologyProfile:
    """Reduced homology dimensions of a complex given by faces-per-cardinality.

    ``levels[c]`` must list the c-vertex faces; ``levels[0] == [0]``.  Returns
    a dense map k -> dim ~H_k for k = -1 .. dim.  Coefficients are QQ when
    *p* is None, GF(p) otherwise.  Each face's boundary row is taken from
    *cache* and built only when the cache has not met the face before; a
    cache must serve one field only.  Without one, a fresh cache is used.
    """
    if cache is None:
        cache = FaceCache()
    rows, ids = cache.rows, cache.ids
    top = len(levels) - 1
    # rank_out[c] = rank of the boundary map from the c-vertex faces down
    rank_out = [0] * (top + 2)
    # A face that leads a reduced row z of the map above is a face of the
    # cycle z: d(z) = 0 writes its row below through the rows of the other
    # faces of z, all on one side of the lead.  Skipping it keeps the span.
    # Leads are face masks over QQ and GF(p), column ids over GF(2).
    cleared: set[int] = set()
    for c in range(top, 0, -1):
        if p == 2:
            masks = []
            face_ids, col_ids = ids[c], ids[c - 1]
            for face in levels[c]:
                if face_ids.get(face) in cleared:
                    continue
                row = rows.get(face)
                if row is None:
                    row = 0
                    m = face
                    while m:
                        low = m & -m
                        m ^= low
                        col = col_ids.get(face ^ low)
                        if col is None:
                            col = col_ids[face ^ low] = len(col_ids)
                        row |= 1 << col
                    rows[face] = row
                masks.append(row)
            leads = rank_gf2(masks)
        else:
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
                matrix.append(row)
            leads = matrix_rank(matrix, p)
        rank_out[c] = len(leads)
        cleared = set(leads)
    dims: HomologyProfile = {}
    for k in range(-1, top):
        d = len(levels[k + 1]) - rank_out[k + 1] - rank_out[k + 2]
        if d < 0:
            raise InvariantError(f"negative homology dimension at k={k}")
        dims[k] = d
    # reduced Euler characteristic must match the face counts
    euler_faces = sum((-1) ** c * len(levels[c]) for c in range(top + 1))
    euler_homology = sum((-1) ** (k + 1) * d for k, d in dims.items())
    if euler_faces != euler_homology:
        raise InvariantError("Euler characteristic mismatch")
    return dims


def reduced_homology_dims(g: Graph, field: FieldSpec = FieldSpec()) -> HomologyProfile:
    """Reduced homology dimensions of the independence complex Ind(*g*) over
    *field*, as k -> dim ~H_k.

    The map is dense on -1 .. dim Ind(g); every other degree is zero.
    """
    if g.n > MAX_SWEEP_VERTICES:
        raise ValueError(f"graph has {g.n} > {MAX_SWEEP_VERTICES} vertices")
    return homology_dims_from_levels(independent_sets_by_card(g.adj, g.vertices_mask()), field.p)
