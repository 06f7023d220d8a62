"""Self-test of the benchmark itself.  Run from the repository root:

    python3 perfbench/selftest.py

It checks that
  1. a tampered result (one table entry off by one, a wrong single Betti
     number, a raising call) is counted as a failed operation;
  2. the traced counts repeat exactly across two runs with the same seed, on
     every workload, and g_rb(5,3) visits 4422 non-cone subsets with 16948
     rank calls in every field;
  3. a boundary missing from the package is reported absent, and its
     metrics are left out rather than read as zero.
Exits 1 on the first failed check.  Takes about a minute and a half.
"""

from __future__ import annotations

import sys

from run import run_pass, set_up
from spans import LAYER_BOUNDARIES, Tracer, layer_metrics
from workloads import check_sweep

REPEATED_COUNTS = (
    "betti.noncone",
    "linalg.rank_calls",
    "homology.indep.faces",
    "verify.enum.candidates",
)


def expect(cond: bool, what: str) -> None:
    if not cond:
        print(f"FAIL {what}")
        sys.exit(1)
    print(f"ok   {what}")


def tampered_results_fail() -> None:
    _, eb, (cases, fields) = set_up("sweep-qq", 1)
    case = cases[0]
    table = eb.BettiTable(case.graph.n, dict(case.golden))
    report = eb.extremal_positions(table)
    i, j, _ = report.positions[-1]
    good = {
        "case": case,
        "field": fields[0],
        "table": table,
        "report": report,
        "corner": (i, j),
        "single": table.get(i, j),
    }
    expect(check_sweep(eb, [good]) == (2, []), "the golden g_rb(5,3) table passes every check")

    entries = dict(case.golden)
    entries[(2, 1)] += 1
    off = eb.BettiTable(case.graph.n, entries)
    bad = dict(good, table=off, report=eb.extremal_positions(off))
    attempted, failures = check_sweep(eb, [bad])
    expect(attempted == 2 and len(failures) == 1, "a table entry off by one is one failed operation")

    attempted, failures = check_sweep(eb, [dict(good, single=good["single"] + 1)])
    expect(attempted == 2 and len(failures) == 1, "a wrong betti_single is one failed operation")

    raised = {"case": case, "field": fields[0], "error": "RuntimeError: boom"}
    expected = [f"{case.name} QQ table: RuntimeError: boom", f"{case.name} QQ single: not run"]
    expect(check_sweep(eb, [raised]) == (2, expected), "a raising call fails the table and the single")


def counts_repeat() -> None:
    for workload in ("sweep-qq", "sweep-gf", "census"):
        seen = []
        for _ in range(2):
            _, eb, inputs = set_up(workload, 3)
            p = run_pass(eb, inputs, workload, 3, LAYER_BOUNDARIES)
            expect(not p["failures"], f"{workload}: traced pass has no failed check")
            metrics = layer_metrics(p["tracer"])
            counts = {k: v for k, (v, unit) in metrics.items() if unit == "count"}
            seen.append((counts, p["ops"]))
        (first, ops), (second, _) = seen
        expect(first == second, f"{workload}: all {len(first)} traced counts repeat across two runs")
        expect(all(k in first for k in REPEATED_COUNTS), f"{workload}: the named counts are reported")
        grb = [op for op in ops if op["graph"] == "g_rb(5,3)"]
        if workload != "census":
            expect(len(grb) >= 1, f"{workload}: g_rb(5,3) table calls were traced")
        for op in grb:
            expect(
                (op["noncone"], op["rank_calls"]) == (4422, 16948),
                f"{workload}: g_rb(5,3) over {op['field']}: 4422 non-cone subsets, 16948 rank calls",
            )


def missing_boundary_is_absent() -> None:
    _, eb, _ = set_up("sweep-gf", 1)
    betti = sys.modules[eb.betti_table.__module__]
    saved = betti.independent_sets_by_card
    del betti.independent_sets_by_card
    try:
        tracer = Tracer(LAYER_BOUNDARIES).install(eb)
        tracer.uninstall()
    finally:
        betti.independent_sets_by_card = saved
    metrics = layer_metrics(tracer)
    expect(tracer.absent == {"homology.indep"}, f"a removed boundary is absent: {sorted(tracer.absent)}")
    gone = [k for k in metrics if k.startswith(("homology.indep", "betti.noncone"))]
    expect(not gone and "homology.dims.calls" in metrics, "its metrics are left out, the others stay")


if __name__ == "__main__":
    tampered_results_fail()
    missing_boundary_is_absent()
    counts_repeat()
    print("selftest passed")
