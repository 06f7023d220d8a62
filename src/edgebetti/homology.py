"""Independence complexes and exact reduced simplicial homology.

Faces are vertex subsets encoded as bitmasks.  Reduced homology dimensions
come from boundary-matrix ranks:

    dim ~H_k = f_k - rank d_k - rank d_{k+1}

with the reduced convention that d_0 maps every vertex to the empty face,
so the complex {emptyset} has ~H_{-1} of dimension one and a cone has no
reduced homology at all.  Ranks are exact: fraction-free elimination over
the rationals, or echelon forms over GF(p).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .graphs import Graph, iter_bits
from .linalg import matrix_rank, rank_gf2

HomologyProfile = dict[int, int]


class InvariantError(RuntimeError):
    """An internal identity failed: a bug in the computation, never bad input.

    Raised in place of ``assert`` so that the checks also run under
    ``python -O``.
    """


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(m: int) -> bool:
    # deterministic Miller-Rabin, valid far beyond any sane modulus
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

    ``p`` is None for the rationals, a prime for GF(p).
    """

    p: int | None = None

    def __post_init__(self) -> None:
        if self.p is not None and not _is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls(None)

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
        if t.startswith("gfp:"):
            return cls(int(t[4:]))
        raise ValueError(f"unknown field {text!r} (expected qq, gf2 or gfp:<p>)")

    def __str__(self) -> str:
        return "QQ" if self.p is None else f"GF({self.p})"


@dataclass(frozen=True)
class SimplicialComplex:
    """Abstract simplicial complex on vertices 0..n-1, stored by its facets.

    ``facets`` holds the maximal faces as bitmasks, sorted, pairwise
    non-nested.  The complex containing only the empty face is
    ``facets == (0,)``; a complex is never void here.
    """

    n: int
    facets: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("negative vertex count")
        if not isinstance(self.facets, tuple) or not self.facets:
            raise ValueError("facets must be a nonempty tuple (use (0,) for {emptyset})")
        full = (1 << self.n) - 1
        prev = -1
        for f in self.facets:
            if not 0 <= f <= full:
                raise ValueError(f"facet {f:#x} out of range for n={self.n}")
            if f <= prev:
                raise ValueError("facets must be strictly increasing")
            prev = f
        for f in self.facets:
            for g in self.facets:
                if f != g and f & g == f:
                    raise ValueError("facet contained in another facet")

    @classmethod
    def from_faces(cls, n: int, faces: Iterable[int]) -> "SimplicialComplex":
        """Complex generated by *faces* (downward closure of their maxima).

        An empty iterable yields the complex {emptyset}.
        """
        fs = set(faces)
        fs.add(0)
        maximal = [f for f in fs if not any(f != g and f & g == f for g in fs)]
        if not maximal:
            maximal = [0]
        return cls(n, tuple(sorted(maximal)))

    @property
    def dim(self) -> int:
        """Dimension: largest face cardinality minus one (-1 for {emptyset})."""
        return max(f.bit_count() for f in self.facets) - 1

    def has_face(self, mask: int) -> bool:
        return any(mask & f == mask for f in self.facets)

    def faces_by_card(self) -> list[list[int]]:
        """All faces grouped by cardinality; level c lists the c-vertex faces.

        Level 0 is always [0] (the empty face).  Each level is sorted.
        """
        top = self.dim + 1
        levels: list[set[int]] = [set() for _ in range(top + 1)]
        seen = set(self.facets)
        stack = list(self.facets)
        while stack:
            m = stack.pop()
            levels[m.bit_count()].add(m)
            mm = m
            while mm:
                low = mm & -mm
                mm ^= low
                sub = m ^ low
                if sub not in seen:
                    seen.add(sub)
                    stack.append(sub)
        return [sorted(level) for level in levels]


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


def independence_complex(g: Graph) -> SimplicialComplex:
    """The complex whose faces are the independent vertex sets of *g*."""
    levels = independent_sets_by_card(g.adj, g.vertices_mask())
    faces = [m for level in levels for m in level]
    return SimplicialComplex.from_faces(g.n, faces)


def homology_dims_from_levels(levels: list[list[int]], p: int | None) -> HomologyProfile:
    """Reduced homology dimensions of a complex given by faces-per-cardinality.

    ``levels[c]`` must list the c-vertex faces; ``levels[0] == [0]``.  Returns
    a dense map k -> dim ~H_k for k = -1 .. dim.  Coefficients are QQ when
    *p* is None, GF(p) otherwise.
    """
    top = len(levels) - 1
    # rank_out[c] = rank of the boundary map from the c-vertex faces down
    rank_out = [0] * (top + 2)
    for c in range(1, top + 1):
        lower = levels[c - 1]
        index = {m: t for t, m in enumerate(lower)}
        if p == 2:
            masks = []
            for face in levels[c]:
                row = 0
                for v in iter_bits(face):
                    row |= 1 << index[face ^ (1 << v)]
                masks.append(row)
            rank_out[c] = rank_gf2(masks)
        else:
            rows = []
            for face in levels[c]:
                row: dict[int, int] = {}
                sign = 1
                for v in iter_bits(face):
                    row[index[face ^ (1 << v)]] = sign
                    sign = -sign
                rows.append(row)
            rank_out[c] = matrix_rank(rows, p)
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


def reduced_homology_dims(
    cx: SimplicialComplex, field: FieldSpec = FieldSpec()
) -> HomologyProfile:
    """Reduced homology dimensions of *cx* over *field*, as k -> dim ~H_k.

    The map is dense on -1 .. dim(cx); every other degree is zero.
    """
    return homology_dims_from_levels(cx.faces_by_card(), field.p)
