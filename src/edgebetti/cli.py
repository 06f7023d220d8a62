"""Command line front end.

Subcommands:

  gen      build one of the named graph families and write it out
  betti    compute a Betti table (or a single cell) of a graph's edge ideal
  cert     search a graph for a bouquet certificate of a given type
  verify   replay the family/equivalence checks, streaming JSON-line reports

Graphs come either from a file (or stdin with "-") in the text or JSON
format, or inline via --family, e.g. --family grb:5,3.  Exit codes:
0 success, 1 at least one verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .analysis import render_table
from .betti import betti_single, betti_table
from .bouquets import find_certificate
from .enumeration import (
    MAX_CHORDAL_VERTICES,
    MAX_TREE_VERTICES,
    all_chordal_graphs,
    all_trees,
    random_chordal,
)
from .families import FAMILY_BUILDERS, build_family, parse_family_spec
from .graphs import Graph, format_graph, is_chordal, parse_graph
from .homology import FieldSpec
from .verify import (
    MAX_EQUIVALENCE_VERTICES,
    MAX_ORACLE_VERTICES,
    check_gpr1_params,
    check_grb_params,
    verify_cert_support,
    verify_gpr1,
    verify_grb,
    verify_reg_eq_indmatch,
)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_graph(args: argparse.Namespace) -> Graph:
    family = getattr(args, "family", None)
    path = getattr(args, "input", None)
    if (family is None) == (path is None):
        raise ValueError("need exactly one input: a graph file or --family")
    if family is not None:
        return parse_family_spec(family)
    return parse_graph(_read_text(path))


def _parse_range(flag: str, text: str, symbol: str | None = None) -> tuple[int, int | str]:
    """Parse the value of --*flag*, "3" or "2..5"; the upper bound may be
    *symbol* (e.g. "2..r")."""
    lo_text, dots, hi_text = text.partition("..")
    hi_text = hi_text.strip()
    try:
        lo = int(lo_text)
        if not dots:
            return lo, lo
        if symbol is not None and hi_text == symbol:
            return lo, hi_text
        return lo, int(hi_text)
    except ValueError:
        forms = "N or A..B" if symbol is None else f"N, A..B or A..{symbol}"
        raise ValueError(f"--{flag} takes {forms}, got {text!r}") from None


def _param_grid(args, outer: str, inner: str, top, check) -> list[tuple[int, int]]:
    """Every (outer, inner) pair that the scope's two range flags name.

    The inner range may end in the outer flag's name, e.g. "--b 2..r",
    which stands for ``top(outer value)``.  Every range must be nonempty
    and every pair must pass *check*, the family's parameter rule, before
    the first report runs.  The rule caps both values, so even a huge
    range fails within a few pairs.
    """
    o_lo, o_hi = _parse_range(outer, getattr(args, outer))
    i_lo, i_hi = _parse_range(inner, getattr(args, inner), symbol=outer)
    if o_hi < o_lo:
        raise ValueError(f"empty range --{outer} {o_lo}..{o_hi}")
    grid = []
    for a in range(o_lo, o_hi + 1):
        top_a = top(a) if i_hi == outer else i_hi
        if top_a < i_lo:
            raise ValueError(f"empty range --{inner} {i_lo}..{top_a} at {outer} = {a}")
        for b in range(i_lo, top_a + 1):
            check(a, b)
            grid.append((a, b))
    return grid


def cmd_gen(args: argparse.Namespace) -> int:
    g = build_family(args.family, tuple(args.params))
    text = format_graph(g, args.format)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def cmd_betti(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    field = FieldSpec.parse(args.field)
    if args.cell is not None:
        i, j = args.cell
        print(betti_single(g, i, j, field))
        return 0
    table = betti_table(g, field)
    if args.json:
        fmt = "json"
    elif args.csv:
        fmt = "csv"
    else:
        fmt = "grid"
    print(render_table(table, fmt))
    return 0


def cmd_cert(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    if g.n and not is_chordal(g):
        print(
            "warning: graph is not chordal; a missing certificate does not "
            "imply a vanishing Betti number",
            file=sys.stderr,
        )
    cert = find_certificate(g, args.i, args.j)
    print("none" if cert is None else json.dumps(cert.to_json_dict()))
    return 0


def _emit(report, failures: list) -> None:
    print(json.dumps(report.to_json_dict(), sort_keys=True))
    if not report.passed:
        failures.append(report.claim)


def _sweep_graphs(args: argparse.Namespace, max_n: int):
    """Yield (name, graph) pairs for the support / reg-indmatch scopes.

    *max_n* is the largest order the scope's check accepts; an enumeration
    bound above it, or above the enumerator's own cap, is rejected before
    the first graph is yielded.
    """
    modes = [
        args.family is not None,
        args.input is not None,
        args.trees_upto is not None,
        args.all_chordal_upto is not None,
        args.random is not None,
    ]
    if sum(modes) != 1:
        raise ValueError(
            "need exactly one graph source: --family, an input file, "
            "--trees-upto, --all-chordal-upto or --random"
        )
    for flag, value, cap in (
        ("--trees-upto", args.trees_upto, min(MAX_TREE_VERTICES, max_n)),
        ("--all-chordal-upto", args.all_chordal_upto, min(MAX_CHORDAL_VERTICES, max_n)),
        ("--random", args.random, None),
        ("--max-n", args.max_n if args.random is not None else None, max_n),
    ):
        if value is None:
            continue
        if value < 1:
            raise ValueError(f"{flag} must be at least 1, got {value}")
        if cap is not None and value > cap:
            raise ValueError(f"{flag} {value} exceeds the {cap}-vertex cap of this scope")
    if args.family is not None or args.input is not None:
        yield args.family or args.input, _load_graph(args)
    elif args.trees_upto is not None:
        for n in range(1, args.trees_upto + 1):
            for idx, g in enumerate(all_trees(n)):
                yield f"tree(n={n},#{idx})", g
    elif args.all_chordal_upto is not None:
        for n in range(1, args.all_chordal_upto + 1):
            for idx, g in enumerate(all_chordal_graphs(n)):
                yield f"chordal(n={n},#{idx})", g
    else:
        rng = random.Random(args.seed)
        for idx in range(args.random):
            n = rng.randint(1, args.max_n)
            yield f"random(seed={args.seed},#{idx},n={n})", random_chordal(n, rng)


def cmd_verify(args: argparse.Namespace) -> int:
    failures: list = []
    if args.scope == "grb":
        for r, b in _param_grid(args, "r", "b", lambda r: r, check_grb_params):
            _emit(verify_grb(r, b), failures)
    elif args.scope == "gpr1":
        for p, r in _param_grid(args, "p", "r", lambda p: p - 1, check_gpr1_params):
            _emit(verify_gpr1(p, r), failures)
    elif args.scope == "support":
        for name, g in _sweep_graphs(args, MAX_EQUIVALENCE_VERTICES):
            _emit(verify_cert_support(g, name), failures)
    elif args.scope == "reg-indmatch":
        for name, g in _sweep_graphs(args, MAX_ORACLE_VERTICES):
            _emit(verify_reg_eq_indmatch(g, name), failures)
    return 1 if failures else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgebetti",
        description="Betti tables of edge ideals, with bouquet certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a family graph")
    p_gen.add_argument("family", choices=sorted(FAMILY_BUILDERS))
    p_gen.add_argument("params", nargs="+", type=int, help="family parameters")
    p_gen.add_argument("--format", choices=("text", "json"), default="text")
    p_gen.add_argument("-o", "--output", default="-", help="output path (default stdout)")
    p_gen.set_defaults(func=cmd_gen)

    def add_input(p):
        p.add_argument("input", nargs="?", help="graph file, or - for stdin")
        p.add_argument("--family", help="inline family spec, e.g. grb:5,3")

    p_betti = sub.add_parser("betti", help="Betti table of a graph's edge ideal")
    add_input(p_betti)
    p_betti.add_argument("--field", default="qq", help="qq (default), gf2, or gfp:<p>")
    output = p_betti.add_mutually_exclusive_group()
    output.add_argument("--json", action="store_true", help="emit the table as JSON")
    output.add_argument("--csv", action="store_true", help="emit the table as CSV")
    output.add_argument(
        "--cell", nargs=2, type=int, metavar=("I", "J"), help="print the single entry (i, j)"
    )
    p_betti.set_defaults(func=cmd_betti)

    p_cert = sub.add_parser("cert", help="search for a bouquet certificate")
    p_cert.add_argument("i", type=int)
    p_cert.add_argument("j", type=int)
    add_input(p_cert)
    p_cert.set_defaults(func=cmd_cert)

    p_verify = sub.add_parser(
        "verify", help="replay family and equivalence checks (JSON lines)"
    )
    p_verify.add_argument(
        "scope", choices=("grb", "gpr1", "support", "reg-indmatch")
    )
    add_input(p_verify)
    p_verify.add_argument("--r", default=None, help='range like "2..4"; for grb, --b may be "2..r"')
    p_verify.add_argument("--b", default=None, help='range for grb, e.g. "2..r"')
    p_verify.add_argument("--p", default=None, help='range for gpr1; --r may then be "1..p"')
    p_verify.add_argument("--trees-upto", type=int, default=None, metavar="N")
    p_verify.add_argument("--all-chordal-upto", type=int, default=None, metavar="N")
    p_verify.add_argument("--random", type=int, default=None, metavar="COUNT")
    p_verify.add_argument("--max-n", type=int, default=8, help="max size for --random")
    p_verify.add_argument("--seed", type=int, default=0, help="seed for --random")
    p_verify.set_defaults(func=cmd_verify)
    return parser


_VERIFY_RANGE_DEFAULTS = {
    "grb": {"r": "2..4", "b": "2..r"},
    "gpr1": {"p": "2..6", "r": "1..p"},
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        for key, value in _VERIFY_RANGE_DEFAULTS.get(args.scope, {}).items():
            if getattr(args, key) is None:
                setattr(args, key, value)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
