"""Replayable checks of the headline facts about the graph families.

Each ``verify_*`` function recomputes a claim from scratch — Betti table,
invariants, certificate search — and returns a VerificationReport whose
``passed`` flag is simply ``expected == computed``.  Reports serialize to
JSON-friendly dicts so the CLI can stream them as JSON lines.

Also here: seeded random chordal graph generation and small-order graph
enumeration up to isomorphism (trees; chordal graphs), used by the
property sweeps.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import permutations
from typing import Iterator

from .analysis import extremal_positions, projective_dimension, regularity
from .betti import betti_table
from .bouquets import certified_positions, find_certificate
from .families import g_pr1, g_rb
from .graphs import Graph, induced_matching_number, is_chordal, is_connected, iter_bits, new_graph

MAX_ORACLE_VERTICES = 13
MAX_EQUIVALENCE_VERTICES = 10
# Largest orders the enumerators accept; a call at the cap takes seconds.
MAX_TREE_VERTICES = 14
MAX_CHORDAL_VERTICES = 8


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of replaying one claim: pass iff expected == computed."""

    claim: str
    params: dict
    expected: object
    computed: object
    passed: bool
    skipped: bool = False
    runtime: float = 0.0

    def __post_init__(self) -> None:
        if self.passed != (self.expected == self.computed):
            raise ValueError("passed flag must mirror expected == computed")

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
        passed=expected == computed,
        runtime=time.perf_counter() - t0,
    )


def _skipped(claim: str, params: dict, reason: str, t0: float) -> VerificationReport:
    return VerificationReport(
        claim=claim,
        params=dict(params, reason=reason),
        expected=None,
        computed=None,
        passed=True,
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


def random_chordal(n: int, rng: random.Random) -> Graph:
    """Random chordal graph on n vertices: each new vertex is attached to a
    clique grown greedily from a shuffled prefix of the earlier vertices.

    Reverse insertion order is a perfect elimination ordering, so the
    result is always chordal.  Deterministic for a given rng state; not
    necessarily connected.
    """
    adj = [0] * n
    edges = []
    for v in range(1, n):
        want = rng.randint(0, v)
        clique: list[int] = []
        for w in rng.sample(range(v), v):
            if len(clique) == want:
                break
            if all(adj[w] >> c & 1 for c in clique):
                clique.append(w)
        for w in clique:
            adj[v] |= 1 << w
            adj[w] |= 1 << v
            edges.append((w, v))
    return new_graph(n, edges)


# ---------------------------------------------------------------------------
# small-order enumeration up to isomorphism


def _rooted_code(adj: tuple[int, ...], root: int, parent: int) -> tuple:
    return tuple(sorted(_rooted_code(adj, u, root) for u in iter_bits(adj[root]) if u != parent))


def _tree_key(g: Graph) -> tuple:
    """Canonical code of a tree: rooted code at its center(s)."""
    if g.n == 1:
        return ()
    degree = [g.adj[v].bit_count() for v in range(g.n)]
    alive = set(range(g.n))
    layer = [v for v in alive if degree[v] <= 1]
    while len(alive) > 2:
        nxt = []
        for v in layer:
            alive.discard(v)
            for u in iter_bits(g.adj[v]):
                if u in alive:
                    degree[u] -= 1
                    if degree[u] == 1:
                        nxt.append(u)
        layer = nxt
    return min(_rooted_code(g.adj, c, -1) for c in alive)


def all_trees(n: int) -> list[Graph]:
    """All trees on n vertices, one per isomorphism class.

    Grown order by order: every tree on n >= 2 vertices is a tree on n-1
    vertices plus a leaf, so attaching a new vertex to each vertex of each
    smaller class reaches every class.  One representative is kept per
    canonical code, in the order of the codes.
    """
    if n > MAX_TREE_VERTICES:
        raise ValueError(f"all_trees is capped at {MAX_TREE_VERTICES} vertices, got {n}")
    if n < 1:
        return []
    level = [new_graph(1, [])]
    for size in range(2, n + 1):
        found: dict[tuple, Graph] = {}
        for g in level:
            edges = g.edges()
            for v in range(g.n):
                cand = new_graph(size, edges + [(v, size - 1)])
                key = _tree_key(cand)
                if key not in found:
                    found[key] = cand
        level = [found[k] for k in sorted(found)]
    return level


def _vertex_invariants(adj: list[int], n: int) -> list:
    inv = [adj[v].bit_count() for v in range(n)]
    for _ in range(2):
        inv = [
            (inv[v], tuple(sorted(inv[u] for u in iter_bits(adj[v]))))
            for v in range(n)
        ]
    return inv


def canonical_key(g: Graph) -> tuple:
    """Hashable isomorphism invariant, complete at small order.

    Vertices are first partitioned by an iterated degree invariant; the key
    is that partition plus the minimum relabeled edge list over all
    partition-respecting orderings.  Isomorphisms preserve the invariant,
    so exploring only these orderings is exhaustive.
    """
    n = g.n
    inv = _vertex_invariants(list(g.adj), n)
    cells: dict = {}
    for v in range(n):
        cells.setdefault(inv[v], []).append(v)
    ordered_cells = [cells[k] for k in sorted(cells)]
    sizes = tuple(len(c) for c in ordered_cells)
    edges = g.edges()
    best = None
    for perms in _product_permutations(ordered_cells):
        pos = {}
        nxt = 0
        for cell_perm in perms:
            for v in cell_perm:
                pos[v] = nxt
                nxt += 1
        key = tuple(
            sorted((min(pos[u], pos[v]), max(pos[u], pos[v])) for u, v in edges)
        )
        if best is None or key < best:
            best = key
    return (n, sizes, best)


def _product_permutations(cells: list[list[int]]) -> Iterator[list]:
    if not cells:
        yield []
        return
    head, *rest = cells
    for p in permutations(head):
        for tail in _product_permutations(rest):
            yield [p, *tail]


def _all_cliques(adj: list[int], n: int) -> list[int]:
    """Every clique of the graph as a bitmask, the empty one included."""
    out = [0]

    def rec(base: int, allowed: int) -> None:
        m = allowed
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            out.append(base | low)
            rec(base | low, m & adj[v])

    rec(0, (1 << n) - 1)
    return out


def all_chordal_graphs(n: int) -> list[Graph]:
    """All chordal graphs on n vertices, one per isomorphism class.

    Grown by attaching each new vertex to a clique (possibly empty) of a
    smaller chordal graph — every chordal graph arises this way — with
    canonical-form deduplication at each order.
    """
    if n > MAX_CHORDAL_VERTICES:
        raise ValueError(
            f"all_chordal_graphs is capped at {MAX_CHORDAL_VERTICES} vertices, got {n}"
        )
    if n < 1:
        return []
    level: dict[tuple, Graph] = {}
    g1 = new_graph(1, [])
    level[canonical_key(g1)] = g1
    for size in range(2, n + 1):
        nxt: dict[tuple, Graph] = {}
        for g in level.values():
            adj = list(g.adj)
            for clique in _all_cliques(adj, g.n):
                edges = g.edges() + [(u, size - 1) for u in iter_bits(clique)]
                cand = new_graph(size, edges)
                key = canonical_key(cand)
                if key not in nxt:
                    nxt[key] = cand
        level = nxt
    return [level[k] for k in sorted(level)]
