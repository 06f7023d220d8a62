"""Replayable checks of the headline facts about the graph families.

Each ``verify_*`` function recomputes a claim from scratch — Betti table,
invariants, certificate search — and returns a VerificationReport whose
``passed`` property is simply ``expected == computed``.  Reports serialize to
JSON-friendly dicts so the CLI can stream them as JSON lines.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .analysis import extremal_positions, projective_dimension, regularity
from .betti import betti_table
from .bouquets import certified_positions, find_certificate
from .families import g_pr1, g_rb
from .graphs import Graph, induced_matching_number, is_chordal, is_connected

MAX_ORACLE_VERTICES = 13
MAX_EQUIVALENCE_VERTICES = 10


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of replaying one claim: pass iff expected == computed."""

    claim: str
    params: dict
    expected: object
    computed: object
    skipped: bool = False
    runtime: float = 0.0

    @property
    def passed(self) -> bool:
        return self.expected == self.computed

    def to_json_dict(self) -> dict:
        return {
            "claim": self.claim,
            "params": self.params,
            "expected": self.expected,
            "computed": self.computed,
            "passed": self.passed,
            "skipped": self.skipped,
            "runtime": round(self.runtime, 6),
        }


def _report(claim: str, params: dict, expected, computed, t0: float) -> VerificationReport:
    return VerificationReport(
        claim=claim,
        params=params,
        expected=expected,
        computed=computed,
        runtime=time.perf_counter() - t0,
    )


def _skipped(claim: str, params: dict, reason: str, t0: float) -> VerificationReport:
    return VerificationReport(
        claim=claim,
        params=dict(params, reason=reason),
        expected=None,
        computed=None,
        skipped=True,
        runtime=time.perf_counter() - t0,
    )


def _is_tree(g: Graph) -> bool:
    return is_connected(g) and g.num_edges() == g.n - 1


def check_grb_params(r: int, b: int) -> None:
    """Raise ValueError unless ``verify_grb(r, b)`` accepts (r, b)."""
    if not 2 <= b <= r:
        raise ValueError(f"need 2 <= b <= r, got r={r}, b={b}")
    if 2 * r + b > MAX_ORACLE_VERTICES:
        raise ValueError(f"2r+b = {2 * r + b} exceeds the {MAX_ORACLE_VERTICES}-vertex cap")


def check_gpr1_params(p: int, r: int) -> None:
    """Raise ValueError unless ``verify_gpr1(p, r)`` accepts (p, r)."""
    if not 1 <= r < p:
        raise ValueError(f"need 1 <= r < p, got p={p}, r={r}")
    if p + r > MAX_ORACLE_VERTICES:
        raise ValueError(f"p+r = {p + r} exceeds the {MAX_ORACLE_VERTICES}-vertex cap")


def verify_grb(r: int, b: int) -> VerificationReport:
    """Hub-cascade family on 2r+b vertices: regularity r, projective
    dimension 2r+b-1, exactly b extremal entries at the predicted
    positions, and the predicted vanishing rectangle actually zero."""
    check_grb_params(r, b)
    t0 = time.perf_counter()
    g = g_rb(r, b)
    table = betti_table(g)
    report = extremal_positions(table)
    positions = [[r + b + i - 1, r - i + 1] for i in range(1, b)] + [[2 * r + b - 1, 1]]
    rect_zero = all(
        table.get(r + 2 * b - 2 + i, j) == 0
        for i in range(1, r - b + 1)
        for j in range(2, r - b - i + 3)
    )
    computed = {
        "chordal": is_chordal(g),
        "induced_matching_number": induced_matching_number(g),
        "regularity": regularity(table),
        "projective_dimension": projective_dimension(table),
        "extremal_count": report.count,
        "extremal_positions": sorted([i, j] for i, j, _ in report.positions),
        "vanishing_rectangle": rect_zero,
    }
    expected = {
        "chordal": True,
        "induced_matching_number": r,
        "regularity": r,
        "projective_dimension": 2 * r + b - 1,
        "extremal_count": b,
        "extremal_positions": sorted(positions),
        "vanishing_rectangle": True,
    }
    return _report("grb", {"r": r, "b": b}, expected, computed, t0)


def verify_cert_support(g: Graph, name: str = "graph") -> VerificationReport:
    """Chordal equivalence: bouquet-certified positions == table support."""
    if g.n > MAX_EQUIVALENCE_VERTICES:
        raise ValueError(f"graph has {g.n} > {MAX_EQUIVALENCE_VERTICES} vertices")
    t0 = time.perf_counter()
    params = {"graph": name, "n": g.n, "edges": g.num_edges()}
    if not is_chordal(g):
        return _skipped("cert-support", params, "not chordal", t0)
    certified = sorted(certified_positions(g))
    support = sorted(betti_table(g).support())
    return _report(
        "cert-support",
        params,
        [list(p) for p in certified],
        [list(p) for p in support],
        t0,
    )


def verify_gpr1(p: int, r: int) -> VerificationReport:
    """Caterpillar family on p+r vertices: unique extremal entry at (p, r),
    certified by a bouquet set of type (p, r).

    p = r+1 is the path star, the b = 1 member of the paper's family.
    """
    check_gpr1_params(p, r)
    t0 = time.perf_counter()
    g = g_pr1(p, r)
    table = betti_table(g)
    report = extremal_positions(table)
    computed = {
        "tree": _is_tree(g),
        "chordal": is_chordal(g),
        "regularity": regularity(table),
        "projective_dimension": projective_dimension(table),
        "extremal_count": report.count,
        "extremal_positions": [[i, j] for i, j, _ in report.positions],
        "certificate_at_corner": find_certificate(g, p, r) is not None,
    }
    expected = {
        "tree": True,
        "chordal": True,
        "regularity": r,
        "projective_dimension": p,
        "extremal_count": 1,
        "extremal_positions": [[p, r]],
        "certificate_at_corner": True,
    }
    return _report("gpr1", {"p": p, "r": r}, expected, computed, t0)


def verify_reg_eq_indmatch(g: Graph, name: str = "graph") -> VerificationReport:
    """On chordal graphs, regularity equals the induced matching number."""
    if g.n > MAX_ORACLE_VERTICES:
        raise ValueError(f"graph has {g.n} > {MAX_ORACLE_VERTICES} vertices")
    t0 = time.perf_counter()
    params = {"graph": name, "n": g.n, "edges": g.num_edges()}
    if not is_chordal(g):
        return _skipped("reg-indmatch", params, "not chordal", t0)
    return _report(
        "reg-indmatch",
        params,
        {"regularity": induced_matching_number(g)},
        {"regularity": regularity(betti_table(g))},
        t0,
    )
