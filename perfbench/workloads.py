"""The benchmark's workloads: inputs from a seed, one measured pass, checks.

sweep-qq   Betti tables over QQ of four 13-vertex graphs, each followed by
           betti_single at the table's last extremal corner.  The exact
           rational rank carries most of the time, so rank tuning and a
           homotopy/memo sweep engine show here.
sweep-gf   The same graphs and subsets over GF(2) and GF(3).  Rank is cheap,
           so the subset loop, independent-set enumeration and boundary build
           dominate; a change to the rational rank should not show here.
census     The verify sweeps over hundreds of small graphs: cert-support on
           every tree up to 8 and every chordal graph up to 7 vertices (579
           graphs, enumerated in the pass) and reg-indmatch on 25 seeded
           random chordal graphs of each order 6-11.  Enumeration, bouquets and
           per-call set-up dominate; no 13-vertex rank work runs.

Every pass is one closed loop with one caller: each call starts when the
previous one returned.  Checks run after the pass, outside its timing.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from itertools import combinations

# Betti table of g_rb(5, 3), strand by strand: strand j holds beta_{i,i+j}
# for i = first, first+1, ...  Chordal graphs have torsion-free homology on
# every induced independence complex, so the table is the same over every
# field and all three sweep fields are checked against it.
GOLDEN_GRB53_STRANDS = {
    1: (1, [24, 94, 248, 512, 798, 925, 792, 495, 220, 66, 12, 1]),
    2: (2, [33, 86, 91, 53, 18, 3]),
    3: (3, [37, 100, 105, 57, 18, 3]),
    4: (4, [18, 49, 49, 23, 6, 1]),
    5: (5, [3, 8, 7, 2]),
}
GOLDEN_GRB53 = {(0, 0): 1} | {
    (first + k, j): v
    for j, (first, values) in GOLDEN_GRB53_STRANDS.items()
    for k, v in enumerate(values)
}

# Number of isomorphism classes, n = 1, 2, ...: trees (OEIS A000055) and
# chordal graphs (OEIS A048192).
TREE_COUNTS = (1, 1, 1, 2, 3, 6, 11, 23)
CHORDAL_COUNTS = (1, 2, 4, 10, 27, 94, 393)

RANDOM_N = 13
RANDOM_EDGES = (20, 30)
# 25 random chordal graphs of each order 6..11.  A fixed count per order:
# with orders drawn at random, the number of 11-vertex graphs (which carry
# most of the work) moved table_s by 16 % between seeds.
CENSUS_RANDOM_ORDERS = range(6, 12)
CENSUS_RANDOM_EACH = 25


@dataclass(frozen=True)
class SweepCase:
    name: str
    graph: object
    golden: dict | None = None
    corner: tuple[int, int] | None = None


def graph_digest(graphs) -> str:
    canon = [[g.n, sorted(g.edges())] for g in graphs]
    return hashlib.sha256(json.dumps(canon).encode()).hexdigest()[:16]


def random_sweep_graph(eb, n: int, m: int, rng: random.Random):
    """Seeded G(n, m), redrawn until connected, non-chordal, min degree >= 2.

    Isolated vertices and leaves turn whole halves of the subset lattice into
    cones; without the degree condition the sweep work of a 13-vertex G(n, m)
    varied by about 25 % between seeds, with it by about 2 %.
    """
    pairs = list(combinations(range(n), 2))
    while True:
        g = eb.new_graph(n, rng.sample(pairs, m))
        if (
            min(a.bit_count() for a in g.adj) >= 2
            and eb.is_connected(g)
            and not eb.is_chordal(g)
        ):
            return g


def sweep_inputs(eb, seed: int) -> list[SweepCase]:
    rng = random.Random(seed)
    cases = [
        SweepCase("g_rb(5,3)", eb.g_rb(5, 3), golden=GOLDEN_GRB53),
        SweepCase("g_pr1(8,5)", eb.g_pr1(8, 5), corner=(8, 5)),
    ]
    for m in RANDOM_EDGES:
        cases.append(SweepCase(f"G({RANDOM_N},{m})", random_sweep_graph(eb, RANDOM_N, m, rng)))
    return cases


def sweep_pass(eb, cases, fields) -> list[dict]:
    """betti_table, its extremal corners, then betti_single at the last one."""
    out = []
    for case in cases:
        for field in fields:
            entry = {"case": case, "field": field}
            try:
                entry["table"] = eb.betti_table(case.graph, field, jobs=1)
                entry["report"] = eb.extremal_positions(entry["table"])
                i, j, _ = entry["report"].positions[-1]
                entry["corner"] = (i, j)
                entry["single"] = eb.betti_single(case.graph, i, j, field)
            except Exception as exc:  # a raising call is a failed operation
                entry["error"] = f"{type(exc).__name__}: {exc}"
            out.append(entry)
    return out


def check_sweep(eb, entries) -> tuple[int, list[str]]:
    """Two operations per entry (table, single); returns (attempted, failures)."""
    failures = []
    for e in entries:
        label = f"{e['case'].name} {e['field']}"
        table, case = e.get("table"), e["case"]
        if "report" in e:
            problems = []
            if eb.k_polynomial(table) != eb.hilbert_numerator(case.graph):
                problems.append("alternating sum != Hilbert numerator")
            if case.golden is not None and table.entries != case.golden:
                problems.append("table differs from the golden table")
            if case.corner is not None:
                got = [(i, j) for i, j, _ in e["report"].positions]
                if got != [case.corner]:
                    problems.append(f"extremal corners {got} != [{case.corner}]")
            if problems:
                failures.append(f"{label} table: {'; '.join(problems)}")
        else:
            failures.append(f"{label} table: {e['error']}")
        if "single" not in e:
            failures.append(f"{label} single: {e['error'] if 'report' in e else 'not run'}")
        elif e["single"] != table.get(*e["corner"]):
            failures.append(f"{label} single{e['corner']} = {e['single']} != {table.get(*e['corner'])}")
    return 2 * len(entries), failures


def census_pass(eb, seed: int) -> dict:
    out = {"enum": [], "graphs": [], "reports": [], "errors": []}

    def enum(kind, n, call):
        try:
            found = call()
        except Exception as exc:
            out["errors"].append(f"{kind}({n}): {type(exc).__name__}: {exc}")
            return []
        out["enum"].append((kind, n, len(found)))
        return found

    work = []
    for n in range(1, len(TREE_COUNTS) + 1):
        trees = enum("all_trees", n, lambda: eb.all_trees(n))
        work += [("cert", f"tree{n}#{k}", g) for k, g in enumerate(trees)]
    for n in range(1, len(CHORDAL_COUNTS) + 1):
        chordal = enum("all_chordal_graphs", n, lambda: eb.all_chordal_graphs(n))
        work += [("cert", f"chordal{n}#{k}", g) for k, g in enumerate(chordal)]
    rng = random.Random(seed)
    for n in CENSUS_RANDOM_ORDERS:
        for k in range(CENSUS_RANDOM_EACH):
            drawn = enum("random_chordal", n, lambda: [eb.random_chordal(n, rng)])
            work += [("reg", f"random{n}#{k}", g) for g in drawn]
    for check, name, g in work:
        out["graphs"].append(g)
        try:
            if check == "cert":
                out["reports"].append(eb.verify_cert_support(g, name))
            else:
                out["reports"].append(eb.verify_reg_eq_indmatch(g, name))
        except Exception as exc:
            out["errors"].append(f"{check} {name}: {type(exc).__name__}: {exc}")
    return out


def check_census(eb, out) -> tuple[int, list[str]]:
    """One operation per enumerator call and per verify call."""
    failures = list(out["errors"])
    expected = {"all_trees": TREE_COUNTS, "all_chordal_graphs": CHORDAL_COUNTS}
    for kind, n, count in out["enum"]:
        if kind in expected and count != expected[kind][n - 1]:
            failures.append(f"{kind}({n}) gave {count} graphs, expected {expected[kind][n - 1]}")
    for r in out["reports"]:
        if not r.passed or r.skipped:
            failures.append(f"{r.claim} {r.params}: passed={r.passed} skipped={r.skipped}")
    attempted = len(out["enum"]) + len(out["reports"]) + len(out["errors"])
    return attempted, failures
