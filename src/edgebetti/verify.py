"""Replayable checks of the headline facts about the graph families.

Each ``verify_*`` function recomputes a claim from scratch — Betti table,
invariants, certificate search — and returns a VerificationReport whose
flags are derived: ``passed`` is ``expected == computed``, and ``skipped``
(a claim that does not apply, with the reason in ``params``) is ``expected
is None``.  Reports serialize to JSON-friendly dicts so the CLI can stream
them as JSON lines.

Every check computes a Betti table, so each one refuses a graph above the
sweep's cap, ``homology.MAX_SWEEP_VERTICES``, before any work.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .analysis import extremal_positions, regularity
from .betti import BettiTable, betti_table
from .bouquets import certified_positions, find_certificate
from .families import FAMILY_BUILDERS
from .graphs import Graph, induced_matching_number, is_chordal, is_connected
from .homology import MAX_SWEEP_VERTICES


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of replaying one claim: pass iff expected == computed."""

    claim: str
    params: dict
    expected: object
    computed: object
    runtime: float = 0.0

    @property
    def passed(self) -> bool:
        return self.expected == self.computed

    @property
    def skipped(self) -> bool:
        return self.expected is None

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


def _is_tree(g: Graph) -> bool:
    return is_connected(g) and g.num_edges() == g.n - 1


def oracle_member(family: str, *params: int) -> Graph:
    """The *family* member with *params*, refused before it is built when its
    order exceeds ``MAX_SWEEP_VERTICES``; the builder checks the family's
    own parameter rule."""
    builder, _, order = FAMILY_BUILDERS[family]
    n = order(*params)
    if n > MAX_SWEEP_VERTICES:
        spec = f"{family}:{','.join(map(str, params))}"
        raise ValueError(f"{spec} has {n} > {MAX_SWEEP_VERTICES} vertices")
    return builder(*params)


def _corner_facts(g: Graph) -> tuple[BettiTable, dict]:
    """The Betti table of *g*, and the facts both family checks share:
    chordality, regularity, projective dimension, corner count and corner
    positions."""
    table = betti_table(g)
    report = extremal_positions(table)
    return table, {
        "chordal": is_chordal(g),
        "regularity": report.regularity,
        "projective_dimension": report.projective_dimension,
        "extremal_count": report.count,
        "extremal_positions": [[i, j] for i, j, _ in report.positions],
    }


def verify_grb(r: int, b: int) -> VerificationReport:
    """Hub-cascade family on 2r+b vertices: regularity r, projective
    dimension 2r+b-1, exactly b extremal entries at the predicted
    positions, and the predicted vanishing rectangle actually zero."""
    t0 = time.perf_counter()
    g = oracle_member("grb", r, b)
    table, computed = _corner_facts(g)
    computed["induced_matching_number"] = induced_matching_number(g)
    computed["vanishing_rectangle"] = all(
        table.get(r + 2 * b - 2 + i, j) == 0
        for i in range(1, r - b + 1)
        for j in range(2, r - b - i + 3)
    )
    positions = [[r + b + i - 1, r - i + 1] for i in range(1, b)] + [[2 * r + b - 1, 1]]
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
    if g.n > MAX_SWEEP_VERTICES:
        raise ValueError(f"graph has {g.n} > {MAX_SWEEP_VERTICES} vertices")
    t0 = time.perf_counter()
    params = {"graph": name, "n": g.n, "edges": g.num_edges()}
    if not is_chordal(g):
        return _report("cert-support", dict(params, reason="not chordal"), None, None, t0)
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
    t0 = time.perf_counter()
    g = oracle_member("gpr1", p, r)
    _, computed = _corner_facts(g)
    computed["tree"] = _is_tree(g)
    computed["certificate_at_corner"] = find_certificate(g, p, r) is not None
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
    if g.n > MAX_SWEEP_VERTICES:
        raise ValueError(f"graph has {g.n} > {MAX_SWEEP_VERTICES} vertices")
    t0 = time.perf_counter()
    params = {"graph": name, "n": g.n, "edges": g.num_edges()}
    if not is_chordal(g):
        return _report("reg-indmatch", dict(params, reason="not chordal"), None, None, t0)
    return _report(
        "reg-indmatch",
        params,
        {"regularity": induced_matching_number(g)},
        {"regularity": regularity(betti_table(g))},
        t0,
    )
