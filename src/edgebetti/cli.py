"""Command line front end.

Subcommands:

  gen      build one of the named graph families and write it out
  betti    compute a Betti table (or a single cell) of a graph's edge ideal
  cert     search a graph for a bouquet certificate of a given type
  verify   replay the family/equivalence checks, streaming JSON-line reports

Graphs come either from a file (or stdin with "-") in the text or JSON
format, or inline via --family, e.g. --family grb:5,3.  Exit codes:
0 success, 1 at least one verification failure, 2 usage error (a path
that cannot be opened included), 74 when the output cannot be written, as
on a full disk (EX_IOERR of sysexits.h), 141 when the reader closes stdout
early (as in ``| head -1``): the command stops quietly with the code a
shell reports for a tool that SIGPIPE ends (128 + 13).
`main` prints every diagnostic on stderr: a refusal is one ``error:`` line
alone, else each library warning becomes one ``warning:`` line.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import warnings

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
from .graphs import Graph, format_graph, parse_graph
from .homology import MAX_SWEEP_VERTICES, FieldSpec
from .verify import (
    oracle_member,
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


def _param_grid(args, family: str, outer: str, inner: str, top) -> list[tuple[int, int]]:
    """Every (outer, inner) pair that the scope's two range flags name.

    The inner range may end in the outer flag's name, e.g. "--b 2..r",
    which stands for ``top(outer value)``.  Every range must be nonempty
    and every pair must pass `oracle_member`, before the first report
    runs.  The family's rule and the vertex cap bound both values, so even
    a huge range fails within a few pairs.
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
            oracle_member(family, a, b)
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
        print(betti_single(g, *args.cell, field))
    else:
        print(render_table(betti_table(g, field), args.fmt))
    return 0


def cmd_cert(args: argparse.Namespace) -> int:
    # the search refuses a graph above its cap before anything is printed
    cert = find_certificate(_load_graph(args), args.i, args.j)
    print("none" if cert is None else json.dumps(cert.to_json_dict()))
    return 0


def _replay(reports) -> int:
    """Print each report as one JSON line; 1 if any of them failed, else 0."""
    failed = False
    for report in reports:
        print(json.dumps(report.to_json_dict(), sort_keys=True))
        failed |= not report.passed
    return 1 if failed else 0


def _sweep_graphs(args: argparse.Namespace):
    """Yield (name, graph) pairs for the support / reg-indmatch scopes.

    Both scopes' checks compute a Betti table, so an enumeration bound above
    ``MAX_SWEEP_VERTICES``, or above the enumerator's own cap, is rejected
    before the first graph is yielded.
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
    if args.random is None:
        for flag, value in (("--max-n", args.max_n), ("--seed", args.seed)):
            if value is not None:
                raise ValueError(f"{flag} needs --random")
    top = MAX_SWEEP_VERTICES
    for flag, value, cap in (
        ("--trees-upto", args.trees_upto, min(MAX_TREE_VERTICES, top)),
        ("--all-chordal-upto", args.all_chordal_upto, min(MAX_CHORDAL_VERTICES, top)),
        ("--random", args.random, None),
        ("--max-n", args.max_n, top),
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
        seed = 0 if args.seed is None else args.seed
        rng = random.Random(seed)
        for idx in range(args.random):
            n = rng.randint(1, 8 if args.max_n is None else args.max_n)
            yield f"random(seed={seed},#{idx},n={n})", random_chordal(n, rng)


def cmd_verify_grb(args: argparse.Namespace) -> int:
    grid = _param_grid(args, "grb", "r", "b", lambda r: r)
    return _replay(verify_grb(r, b) for r, b in grid)


def cmd_verify_gpr1(args: argparse.Namespace) -> int:
    grid = _param_grid(args, "gpr1", "p", "r", lambda p: p - 1)
    return _replay(verify_gpr1(p, r) for p, r in grid)


def cmd_verify_support(args: argparse.Namespace) -> int:
    return _replay(verify_cert_support(g, name) for name, g in _sweep_graphs(args))


def cmd_verify_reg_indmatch(args: argparse.Namespace) -> int:
    return _replay(verify_reg_eq_indmatch(g, name) for name, g in _sweep_graphs(args))


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
    for fmt in ("json", "csv"):
        help_text = f"emit the table as {fmt.upper()}"
        output.add_argument(f"--{fmt}", dest="fmt", action="store_const", const=fmt, help=help_text)
    output.add_argument(
        "--cell", nargs=2, type=int, metavar=("I", "J"), help="print the single entry (i, j)"
    )
    p_betti.set_defaults(func=cmd_betti, fmt="grid")

    p_cert = sub.add_parser("cert", help="search for a bouquet certificate")
    p_cert.add_argument("i", type=int)
    p_cert.add_argument("j", type=int)
    add_input(p_cert)
    p_cert.set_defaults(func=cmd_cert)

    p_verify = sub.add_parser("verify", help="replay family and equivalence checks (JSON lines)")
    scopes = p_verify.add_subparsers(dest="scope", required=True)
    # Each scope takes only its own flags.  Abbreviations are off, so that
    # no flag of another scope can pass for a prefix of one of these.
    for scope, func, ranges in (
        ("grb", cmd_verify_grb, {"r": "2..4", "b": "2..r"}),
        ("gpr1", cmd_verify_gpr1, {"p": "2..6", "r": "1..p"}),
        ("support", cmd_verify_support, None),
        ("reg-indmatch", cmd_verify_reg_indmatch, None),
    ):
        p = scopes.add_parser(scope, allow_abbrev=False)
        p.set_defaults(func=func)
        if ranges:
            for flag, default in ranges.items():
                p.add_argument(f"--{flag}", default=default, help="range (default %(default)s)")
            continue
        add_input(p)
        p.add_argument("--trees-upto", type=int, metavar="N")
        p.add_argument("--all-chordal-upto", type=int, metavar="N")
        p.add_argument("--random", type=int, metavar="COUNT")
        p.add_argument("--max-n", type=int, help="max order for --random (default 8)")
        p.add_argument("--seed", type=int, help="seed for --random (default 0)")
    return parser


# 128 + SIGPIPE
EXIT_CLOSED_STDOUT = 141


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        try:
            code = args.func(args)
            # stdout is None when it was closed before the start
            if sys.stdout is not None:
                sys.stdout.flush()
        except BrokenPipeError:
            # Point stdout at the null device, so that the flush at exit
            # finds nothing to write to a closed pipe.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return EXIT_CLOSED_STDOUT
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            # An OSError that names a path comes from opening a file that
            # the command line gave; one that names none, from an open
            # stream, as a write to a full disk: EX_IOERR of sysexits.h.
            return 74 if isinstance(exc, OSError) and exc.filename is None else 2
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return code
