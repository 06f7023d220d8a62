"""Exact rank of sparse integer matrices, over the rationals or GF(p).

Matrices arrive as lists of rows, each row a dict column -> nonzero int
coefficient (boundary matrices have entries in {-1, +1}).  GF(2) rows may
instead come as bitmasks, for ``rank_gf2``.

``matrix_rank`` is one online echelon loop for every field.  Each row is
reduced against the pivot rows stored so far, which are keyed by their
highest column and scaled to lead with 1; a row that does not reduce to zero
becomes the next pivot.  Over GF(p) every entry is reduced mod p.  Over the
rationals a lead of +-1 keeps the pivot in plain ints, which for simplicial
boundary matrices is almost always the case; any other lead is divided out
as an exact ``Fraction``, so the result is exact in every case.  The work is
deterministic: rows are taken in the order given, and copied, never changed.

Both return the lead columns of the echelon, so the rank is their count:
the highest column of each reduced row (``matrix_rank``) or its lowest bit
(``rank_gf2``).  The set of leads depends only on the row space.
"""

from __future__ import annotations

from fractions import Fraction

Row = dict[int, int]


def rank_gf2(masks: list[int]) -> list[int]:
    """Lead columns (lowest bits) over GF(2) of rows given as bitmasks."""
    pivots: dict[int, int] = {}
    for m in masks:
        while m:
            low = m & -m
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = m
                break
            m ^= piv
    return [low.bit_length() - 1 for low in pivots]


def matrix_rank(rows: list[Row], p: int | None = None) -> list[int]:
    """Lead columns (highest) of an integer matrix over QQ (p None) or GF(p),
    p prime."""
    pivots: dict[int, Row] = {}
    for row in rows:
        if p is None:
            r = dict(row)
        else:
            r = {c: v % p for c, v in row.items() if v % p}
        while r:
            c = max(r)
            piv = pivots.get(c)
            if piv is None:
                lead = r[c]
                if lead != 1:
                    if p is not None:
                        inv = pow(lead, -1, p)
                        r = {cc: vv * inv % p for cc, vv in r.items()}
                    else:
                        inv = -1 if lead == -1 else Fraction(1, lead)
                        r = {cc: vv * inv for cc, vv in r.items()}
                pivots[c] = r
                break
            f = r[c]
            for cc, vv in piv.items():
                nv = r.get(cc, 0) - f * vv
                if p is not None:
                    nv %= p
                if nv:
                    r[cc] = nv
                else:
                    del r[cc]
    return list(pivots)
