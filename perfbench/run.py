"""Benchmark of edgebetti: end-to-end and per-layer timings of three workloads.

Run from the root of a checkout (nothing to build; the package is imported
from ./src):

    python3 perfbench/run.py --workload sweep-qq --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py for why each exists): sweep-qq, sweep-gf, census.

A run repeats the workload's pass while another one fits in --seconds (at
least twice) and checks every pass's outputs.  Each pass starts from its own
set-up: a fresh import of the package from ./src plus input construction.
setup_s is the median over those set-ups and a few more before the first
pass.

Times are in reference seconds (see speed.py): a short fixed probe runs
every 0.1 s at call boundaries, and the time between two probes is scaled
by their measured speed, so that the figures do not move with the load
other tenants put on a shared host.  The measured times are
kept in the results file.  Every end-to-end time is the median over the
run's passes.

With --trace 0 only the end-to-end boundaries (betti_table, betti_single,
the enumerators and the verify checks) are timed; with --trace 1 the passes
alternate between that and a fully traced pass, and the per-layer metrics of
the traced passes (medians over them) are reported.

Everything runs in this one process, serially: EDGEBETTI_JOBS is removed
from the environment and betti_table gets jobs=1.  Outputs go to
perfbench/out/.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from spans import END_TO_END_BOUNDARIES, LAYER_BOUNDARIES, RANK_SPANS, Tracer, layer_metrics
from speed import REFERENCE_S, probe
from workloads import (
    census_pass,
    check_census,
    check_sweep,
    graph_digest,
    sweep_inputs,
    sweep_pass,
)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPS = 4
WORKLOADS = ("sweep-qq", "sweep-gf", "census")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "table_s": "s", "peak_rss_mb": "MB"}
# Printed for the workloads they apply to, in seconds, not gated: they are
# not defined on every workload.
WORKLOAD_METRICS = ("grb53_table_s", "single_s", "enum_s", "verify_s")


class SetupError(RuntimeError):
    pass


def set_up(workload: str, seed: int):
    """Fresh import of the package from ./src plus the workload's inputs."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    for name in [m for m in sys.modules if m == "edgebetti" or m.startswith("edgebetti.")]:
        del sys.modules[name]
    try:
        eb = importlib.import_module("edgebetti")
    except ImportError as exc:
        raise SetupError(f"cannot import edgebetti from {SRC}: {exc}") from exc
    if not Path(eb.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"edgebetti imported from {eb.__file__}, not from {SRC}")
    if workload == "census":
        inputs = None
    else:
        fields = [eb.FieldSpec()] if workload == "sweep-qq" else [eb.FieldSpec.gf(2), eb.FieldSpec.gf(3)]
        inputs = (sweep_inputs(eb, seed), fields)
    return perf_counter() - t0, eb, inputs


def run_pass(eb, inputs, workload, seed, boundaries):
    """One pass: its checks and its end-to-end times in reference seconds."""
    tracer = Tracer(boundaries).install(eb)
    tracer.probe()
    t0 = perf_counter()
    try:
        out = census_pass(eb, seed) if workload == "census" else sweep_pass(eb, *inputs)
    finally:
        t1 = perf_counter()
        tracer.uninstall()
    tracer.probe()
    clock = tracer.clock()
    agg = tracer.aggregate()

    def span_s(layer):
        return agg.get(layer, {}).get("s", 0.0)

    e2e = {"wall_s": clock.between(t0, t1), "table_s": span_s("betti.table")}
    if workload == "census":
        attempted, failures = check_census(eb, out)
        e2e |= {"enum_s": span_s("verify.enum"), "verify_s": span_s("verify.check")}
        digest = graph_digest(out["graphs"])
        ops = []
    else:
        attempted, failures = check_sweep(eb, out)
        top = [(name, s0, s1) for name, s0, s1, parent in tracer.spans if parent < 0]
        tables = [clock.between(s0, s1) for name, s0, s1 in top if name == "betti.table"]
        e2e |= {
            "single_s": span_s("betti.single"),
            "grb53_table_s": sum(t for e, t in zip(out, tables) if e["case"].name == "g_rb(5,3)"),
        }
        digest = graph_digest([case.graph for case in inputs[0]])
        ops = [
            {
                "graph": entry["case"].name,
                "field": str(entry["field"]),
                "noncone": n["homology.indep"],
                "rank_calls": sum(n[k] for k in RANK_SPANS),
            }
            for entry, n in zip(out, tracer.per_root("betti.table"))
        ]
    return {
        "e2e": e2e,
        "measured_wall_s": t1 - t0 - sum(d for t, d in tracer.probes[1:-1]),
        "tracer": tracer,
        "attempted": attempted,
        "failures": failures,
        "digest": digest,
        "ops": ops,
    }


def median_of(passes: list[dict], key: str) -> float:
    return statistics.median(p["e2e"][key] for p in passes)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.environ.pop("EDGEBETTI_JOBS", None)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg_start": os.getloadavg(),
        "jobs": 1,
        "processes": 1,
    }
    setup_times: list[float] = []  # reference seconds
    measured_setup: list[float] = []

    def fresh_setup():
        before = probe()
        dt, eb, inputs = set_up(args.workload, args.seed)
        setup_times.append(dt * REFERENCE_S * 2 / (before + probe()))
        measured_setup.append(dt)
        return eb, inputs

    try:
        for _ in range(SETUP_REPS):
            fresh_setup()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    # trace 0: plain passes only, at least two;
    # trace 1: plain and fully traced passes in turn, at least one of each.
    # Every pass gets its own fresh import, so nothing cached at module level
    # carries over from one pass to the next.
    modes = [END_TO_END_BOUNDARIES] if args.trace == 0 else [END_TO_END_BOUNDARIES, LAYER_BOUNDARIES]
    min_rounds = 2 if args.trace == 0 else 1
    plain, traced = [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        for boundaries in modes:
            p = run_pass(*fresh_setup(), args.workload, args.seed, boundaries)
            (traced if boundaries is LAYER_BOUNDARIES else plain).append(p)
        # start another round only if it should end within --seconds
        now = perf_counter()
        if len(plain) >= min_rounds and now - start + (now - t0) > args.seconds:
            break
    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    info["inputs_sha256"] = sorted({p["digest"] for p in passes})
    info["passes"] = len(plain)
    info["traced_passes"] = len(traced)

    e2e = {
        "wall_s": median_of(plain, "wall_s"),
        "setup_s": statistics.median(setup_times),
        "table_s": median_of(plain, "table_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {name: median_of(plain, name) for name in WORKLOAD_METRICS if name in plain[0]["e2e"]}
    if args.trace:
        per_pass = [layer_metrics(p["tracer"]) for p in traced]
        layers = {
            name: (statistics.median(m[name][0] for m in per_pass), unit)
            for name, (_, unit) in per_pass[0].items()
        }
        layers["trace.overhead_frac"] = (median_of(traced, "wall_s") / e2e["wall_s"] - 1, "ratio")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
        absent = sorted(traced[-1]["tracer"].absent)
    else:
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in e2e.items()}
        absent = []

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "info": info,
        "setup_s_each": setup_times,
        "measured_setup_s_each": measured_setup,
        "pass_wall_s": [p["e2e"]["wall_s"] for p in plain],
        "measured_pass_wall_s": [p["measured_wall_s"] for p in plain],
        "traced_pass_wall_s": [p["e2e"]["wall_s"] for p in traced],
        "end_to_end": e2e | extra,
        "metrics": metrics,
        "absent_layers": absent,
        "table_ops": traced[-1]["ops"] if traced else [],
        "attempted": attempted,
        "failures": failures,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if traced:
        traced[-1]["tracer"].write_spans(OUT / f"{stem}-spans.json")

    print(f"info {json.dumps(info, sort_keys=True)}")
    for name, value in (e2e | extra).items():
        unit = END_TO_END_UNITS.get(name, "s")
        print(f"{name} {value:.6f} {unit}")
    frac = len(failures) / attempted
    print(f"failed_frac {frac:.6f} ratio ({len(failures)} of {attempted} operations)")
    for f in failures[:10]:
        print(f"FAILED {f}")
    if args.trace:
        for op in record["table_ops"]:
            print(f"table {json.dumps(op)}")
        if absent:
            print(f"absent layers: {', '.join(absent)}")
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
