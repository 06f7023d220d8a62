"""Exact rank of sparse integer matrices, over the rationals or GF(p).

Matrices arrive as lists of rows, each row a dict column -> nonzero int
coefficient (boundary matrices have entries in {-1, +1}).

``matrix_rank`` is one online echelon for every field.  Each row is reduced
against the pivot rows stored so far, which are keyed by their highest
column; a row that does not reduce to zero becomes the next pivot.  Over
GF(p), p = 2 included, every entry is reduced mod p, and pivots are scaled
to lead with 1.  Over the rationals a lead of +-1 keeps the pivot in plain
ints, which for simplicial boundary matrices is almost always the case; any
other lead is divided out as an exact ``Fraction``, so the result is exact
in every case.  The work is deterministic: rows are taken in the order
given, and copied, never changed.

It returns the lead columns of the echelon, the highest column of each
reduced row, so the rank is their count.  The set of leads depends only on
the row space.
"""

from __future__ import annotations

from fractions import Fraction

Row = dict[int, int]


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
