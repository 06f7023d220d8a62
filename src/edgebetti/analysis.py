"""Invariants read off a Betti table: regularity, projective dimension,
extremal entries.

An entry beta_{i,i+j} is extremal when every other entry (k, l) with k >= i
and l >= j vanishes — a corner of the table.  The corners form an antichain,
there is always at least one, and there is exactly one precisely when the
far corner beta_{p,p+r} (p = projective dimension, r = regularity) is
nonzero.  That equivalence is checked on every call as an internal sanity
check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .betti import BettiTable, Position
from .homology import InvariantError


@dataclass(frozen=True)
class ExtremalReport:
    """Corner entries of a Betti table plus the headline invariants.

    ``positions`` lists (i, j, value) by increasing i (hence strictly
    decreasing j — an antichain).
    """

    positions: tuple[tuple[int, int, int], ...]
    count: int
    regularity: int
    projective_dimension: int
    unique: bool

    def __post_init__(self) -> None:
        if self.count != len(self.positions) or self.count < 1:
            raise ValueError("count must equal the number of positions (>= 1)")
        if self.unique != (self.count == 1):
            raise ValueError("unique flag inconsistent with count")
        prev_i, prev_j = -1, None
        for i, j, v in self.positions:
            if v <= 0:
                raise ValueError("extremal values must be positive")
            if i <= prev_i or (prev_j is not None and j >= prev_j):
                raise ValueError("positions must be an antichain sorted by i")
            prev_i, prev_j = i, j


def regularity(t: BettiTable) -> int:
    """Largest strand j carrying a nonzero entry (Castelnuovo-Mumford)."""
    return max(j for _, j in t.entries)


def projective_dimension(t: BettiTable) -> int:
    """Largest homological degree i carrying a nonzero entry."""
    return max(i for i, _ in t.entries)


def extremal_positions(t: BettiTable) -> ExtremalReport:
    """All corner entries of the table.

    The unit entry (0,0) counts as a corner only for the trivial table
    (zero ideal); any other entry dominates it out of candidacy.
    """
    support = t.support()
    if len(support) == 1:
        corners = [(0, 0)]
    else:
        corners = sorted(
            (i, j)
            for (i, j) in support - {(0, 0)}
            if not any(
                (k, l) != (i, j) and k >= i and l >= j for (k, l) in support
            )
        )
    reg = regularity(t)
    pd = projective_dimension(t)
    report = ExtremalReport(
        positions=tuple((i, j, t.get(i, j)) for i, j in corners),
        count=len(corners),
        regularity=reg,
        projective_dimension=pd,
        unique=len(corners) == 1,
    )
    # corner count 1 must coincide with the far corner (pd, reg) being hit
    if report.unique != ((pd, reg) in support):
        raise InvariantError("unique-corner equivalence broke")
    return report


def _render_grid(t: BettiTable) -> str:
    reg = regularity(t)
    pd = projective_dimension(t)
    cells = [
        [str(t.get(i, j)) if t.get(i, j) else "." for i in range(pd + 1)]
        for j in range(reg + 1)
    ]
    widths = [max(len(row[i]) for row in cells) for i in range(pd + 1)]
    return "\n".join(
        " ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in cells
    )


def _render_csv(t: BettiTable) -> str:
    lines = ["i,j,value"]
    for (i, j), v in sorted(t.entries.items()):
        lines.append(f"{i},{j},{v}")
    return "\n".join(lines)


def render_table(t: BettiTable, fmt: str = "grid") -> str:
    """Render a table as a text grid, JSON, or CSV.

    The grid has one row per strand j = 0..regularity and one column per
    homological degree i = 0..projective dimension, zeros shown as ".",
    columns right-aligned and single-space separated.
    """
    if fmt == "grid":
        return _render_grid(t)
    if fmt == "json":
        return json.dumps(t.to_json_dict(), sort_keys=True)
    if fmt == "csv":
        return _render_csv(t)
    raise ValueError(f"unknown table format {fmt!r}")
