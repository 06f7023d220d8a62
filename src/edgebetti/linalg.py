"""Exact rank of sparse integer matrices, over the rationals or GF(p).

Matrices arrive as lists of rows, each row a dict column -> nonzero int
coefficient (boundary matrices have entries in {-1, +1}).  Everything is
deterministic: pivot choices break ties by row then column index.

The rational path is fraction free as long as a +-1 pivot exists, which for
simplicial boundary matrices is almost always; a core without one takes a
non-unit pivot and continues in exact Fractions, so the result is exact in
every case.
"""

from __future__ import annotations

from fractions import Fraction

Row = dict[int, int]


def rank_gf2(masks: list[int]) -> int:
    """Rank over GF(2) of rows given as bitmasks."""
    pivots: dict[int, int] = {}
    rank = 0
    for m in masks:
        while m:
            low = m & -m
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = m
                rank += 1
                break
            m ^= piv
    return rank


def rank_mod_p(rows: list[Row], p: int) -> int:
    """Rank over GF(p), by online reduction to row echelon form."""
    pivots: dict[int, Row] = {}
    rank = 0
    for row in rows:
        r = {c: v % p for c, v in row.items() if v % p}
        while r:
            c = min(r)
            piv = pivots.get(c)
            if piv is None:
                inv = pow(r[c], -1, p)
                pivots[c] = {cc: vv * inv % p for cc, vv in r.items()}
                rank += 1
                break
            f = r[c]
            for cc, vv in piv.items():
                nv = (r.get(cc, 0) - f * vv) % p
                if nv:
                    r[cc] = nv
                else:
                    r.pop(cc, None)
        # zero rows contribute nothing
    return rank


def rank_rational(rows: list[Row]) -> int:
    """Exact rank over the rationals.

    Repeatedly pivots on a +-1 entry chosen Markowitz style (minimal fill
    estimate (len(row)-1)*(colcount-1)), which keeps all arithmetic in plain
    ints.  If the active matrix still has entries but none of them is +-1,
    it pivots on the lowest column of the first active row instead; from
    then on the entries are exact Fractions, and a later +-1 (int or
    Fraction) is again preferred.
    """
    act = []
    for r in rows:
        rr = {c: v for c, v in r.items() if v}
        if rr:
            act.append(rr)
    rank = 0
    while act:
        colcount: dict[int, int] = {}
        for r in act:
            for c in r:
                colcount[c] = colcount.get(c, 0) + 1
        best = None
        for ri, r in enumerate(act):
            fill_row = len(r) - 1
            for c, v in r.items():
                if v == 1 or v == -1:
                    key = (fill_row * (colcount[c] - 1), ri, c)
                    if best is None or key < best:
                        best = key
        if best is None:
            pi, pc = 0, min(act[0])
        else:
            _, pi, pc = best
        piv = act.pop(pi)
        pv = piv[pc]
        inv = pv if pv in (1, -1) else 1 / Fraction(pv)
        nxt = []
        for r in act:
            f = r.get(pc)
            if f:
                mult = f * inv  # == f / pv
                for c, v in piv.items():
                    nv = r.get(c, 0) - mult * v
                    if nv:
                        r[c] = nv
                    else:
                        r.pop(c, None)
            if r:
                nxt.append(r)
        act = nxt
        rank += 1
    return rank


def matrix_rank(rows: list[Row], p: int | None = None) -> int:
    """Rank of an integer matrix over QQ (p None) or GF(p)."""
    if p is None:
        return rank_rational(rows)
    return rank_mod_p(rows, p)
