"""Invariants read off a Betti table: regularity, projective dimension,
extremal entries.

An entry beta_{i,i+j} is extremal when every other entry (k, l) with k >= i
and l >= j vanishes — a corner of the table.  The corners form an antichain,
there is always at least one, and there is exactly one precisely when the
far corner beta_{p,p+r} (p = projective dimension, r = regularity) is
nonzero.  The first and last corners give r and p; both facts are checked
on every call as internal sanity checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .betti import BettiTable
from .homology import InvariantError


@dataclass(frozen=True)
class ExtremalReport:
    """Corner entries of a Betti table, and the invariants they determine.

    ``positions`` lists (i, j, value) by increasing i (hence strictly
    decreasing j — an antichain).  The first corner sits on the top strand
    and the last in the last column, so they give the regularity and the
    projective dimension.
    """

    positions: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if not self.positions:
            raise ValueError("a table has at least one corner")
        prev_i, prev_j = -1, None
        for i, j, v in self.positions:
            if v <= 0:
                raise ValueError("extremal values must be positive")
            if i <= prev_i or (prev_j is not None and j >= prev_j):
                raise ValueError("positions must be an antichain sorted by i")
            prev_i, prev_j = i, j

    @property
    def count(self) -> int:
        return len(self.positions)

    @property
    def unique(self) -> bool:
        return len(self.positions) == 1

    @property
    def regularity(self) -> int:
        return self.positions[0][1]

    @property
    def projective_dimension(self) -> int:
        return self.positions[-1][0]


def regularity(t: BettiTable) -> int:
    """Largest strand j carrying a nonzero entry (Castelnuovo-Mumford)."""
    return max(j for _, j in t.entries)


def projective_dimension(t: BettiTable) -> int:
    """Largest homological degree i carrying a nonzero entry."""
    return max(i for i, _ in t.entries)


def extremal_positions(t: BettiTable) -> ExtremalReport:
    """All corner entries: the nonzero (i, j) that no other nonzero (k, l)
    with k >= i and l >= j dominates.  Every entry has k, l >= 0, so any
    other entry dominates the unit (0,0): it is a corner only of the
    trivial table (zero ideal)."""
    support = t.support()
    corners = sorted(
        (i, j)
        for (i, j) in support
        if not any((k, l) != (i, j) and k >= i and l >= j for (k, l) in support)
    )
    report = ExtremalReport(tuple((i, j, t.get(i, j)) for i, j in corners))
    reg = regularity(t)
    pd = projective_dimension(t)
    # the corners must give the table's invariants, and there must be one
    # corner exactly when the far corner (pd, reg) is hit
    if (report.projective_dimension, report.regularity) != (pd, reg):
        raise InvariantError(
            f"unique-corner check broke: the corners give (pd, reg) = "
            f"({report.projective_dimension}, {report.regularity}), the table ({pd}, {reg})"
        )
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
