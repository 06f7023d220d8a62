"""End-to-end CLI behaviour through main(argv)."""

import contextlib
import importlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgebetti.betti import betti_table
from edgebetti.cli import main
from edgebetti.families import g_rb, path_star, star_triangle
from edgebetti.graphs import graph_to_text, new_graph, parse_graph
from edgebetti.verify import VerificationReport

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_text(capsys):
    code, out, err = run(capsys, "gen", "path-star", "2")
    assert code == 0
    assert parse_graph(out) == path_star(2)


def test_gen_json(capsys):
    code, out, _ = run(capsys, "gen", "grb", "3", "2", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["n"] == 8
    assert parse_graph(out) == g_rb(3, 2)
    assert d["labels"][-1] == "w_1"


def test_gen_to_file(capsys, tmp_path):
    target = tmp_path / "g.txt"
    code, out, _ = run(capsys, "gen", "star-triangle", "2", "-o", str(target))
    assert code == 0 and out == ""
    assert parse_graph(target.read_text()) == star_triangle(2)


def test_gen_output_ends_in_one_newline(capsys, tmp_path):
    expected = "3 2\n0 1\n1 2\n"
    code, out, _ = run(capsys, "gen", "path-star", "1")
    assert code == 0 and out == expected
    target = tmp_path / "g.txt"
    code, out, _ = run(capsys, "gen", "path-star", "1", "-o", str(target))
    assert code == 0 and out == ""
    assert target.read_bytes() == expected.encode()


def test_gen_bad_params(capsys):
    code, _, err = run(capsys, "gen", "grb", "3")  # missing b
    assert code == 2
    assert err.startswith("error:")
    with pytest.raises(SystemExit):  # argparse rejects unknown families itself
        main(["gen", "petersen", "1"])


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "path-star", "32"],
        ["gen", "path-star", "1000000000"],
        ["betti", "--family", "path-star:1000000000"],
    ],
)
def test_family_order_capped_before_building(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_gen_largest_family_reads_back(capsys):
    code, out, _ = run(capsys, "gen", "path-star", "31")  # 63 vertices
    assert code == 0
    assert parse_graph(out) == path_star(31)


def test_betti_grid_from_file(capsys, tmp_path):
    f = tmp_path / "triangle.txt"
    f.write_text("3 3\n0 1\n0 2\n1 2\n")
    code, out, _ = run(capsys, "betti", str(f))
    assert code == 0
    assert out == "1 . .\n. 3 2\n"


def test_betti_from_stdin(capsys, monkeypatch):
    g = new_graph(2, [(0, 1)])
    monkeypatch.setattr(sys, "stdin", io.StringIO(graph_to_text(g)))
    code, out, _ = run(capsys, "betti", "-")
    assert code == 0
    assert out == "1 .\n. 1\n"


def test_betti_json_round_trip(capsys):
    code, out, _ = run(capsys, "betti", "--family", "grb:3,2", "--json")
    assert code == 0
    assert json.loads(out) == betti_table(g_rb(3, 2)).to_json_dict()


def test_betti_csv(capsys):
    code, out, _ = run(capsys, "betti", "--family", "path-star:1", "--csv")
    assert code == 0
    assert out == "i,j,value\n0,0,1\n1,1,2\n2,1,1\n"


def test_betti_single_cell(capsys):
    code, out, _ = run(capsys, "betti", "--family", "grb:3,2", "--cell", "1", "1")
    assert code == 0
    assert out.strip() == str(g_rb(3, 2).num_edges())


def test_betti_cell_at_far_corner(capsys):
    # Only the full 13-vertex subset contributes at (12, 1).
    code, out, _ = run(capsys, "betti", "--family", "grb:5,3", "--cell", "12", "1")
    assert code == 0
    assert out.strip() == "1"


def test_betti_cell_beyond_the_variables_warns_in_one_line(capsys):
    # beta_(10,20) of a ring in 8 variables: one warning line, no source line
    code, out, err = run(capsys, "betti", "--family", "grb:3,2", "--cell", "10", "10")
    assert code == 0 and out == "0\n"
    assert err.splitlines() == ["warning: beta_(10,20) of a ring in 8 variables is identically 0"]


def test_betti_cell_size_limit_only_where_a_sweep_runs(capsys):
    # g_rb(9,2) has 20 vertices: the unit cell and cells beyond the
    # variables answer without a sweep, so at any size; (3, 2) is refused
    code, out, err = run(capsys, "betti", "--family", "grb:9,2", "--cell", "0", "0")
    assert (code, out, err) == (0, "1\n", "")
    code, out, err = run(capsys, "betti", "--family", "grb:9,2", "--cell", "15", "10")
    assert code == 0 and out == "0\n"
    assert err.splitlines() == ["warning: beta_(15,25) of a ring in 20 variables is identically 0"]
    code, out, err = run(capsys, "betti", "--family", "grb:9,2", "--cell", "3", "2")
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: graph has 20 > 16 vertices"]


def test_betti_gf2_matches_qq_here(capsys):
    _, qq, _ = run(capsys, "betti", "--family", "star-triangle:2")
    _, gf2, _ = run(capsys, "betti", "--family", "star-triangle:2", "--field", "gf2")
    assert qq == gf2


def test_betti_rejects_jobs_flag(capsys):
    # The sweep is serial; --jobs is an unknown flag like any other.
    with pytest.raises(SystemExit) as exc:
        main(["betti", "--family", "path-star:2", "--jobs", "2"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "--jobs" in out.err


@pytest.mark.parametrize(
    "flags",
    [
        ["--json", "--csv"],
        ["--cell", "1", "1", "--json"],
        ["--csv", "--cell", "1", "1"],
    ],
    ids=["json-csv", "cell-json", "csv-cell"],
)
def test_betti_output_flags_exclusive(capsys, flags):
    # One output form per call: a second one is a usage error, not dropped.
    with pytest.raises(SystemExit) as exc:
        main(["betti", "--family", "grb:3,2", *flags])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "not allowed with argument" in out.err


@pytest.mark.parametrize(
    "text",
    [
        '{"n":3,"edges":5}',
        '{"n":3,"labels":5}',
        '{"n":3,"edges":[],"labels":5}',
        # an order far above every cap is rejected while parsing, before any
        # per-vertex allocation, in both formats
        '{"n":1000000000,"edges":[]}',
        "1000000000 0",
        # nesting deep enough to exhaust the JSON decoder's recursion (a
        # short id: pytest puts the test id in the subprocess environment)
        pytest.param('{"n":' * 50000, id="deep-nesting"),
    ],
)
def test_betti_rejects_malformed_json(text):
    proc = subprocess.run(
        [sys.executable, "-m", "edgebetti", "betti", "-"],
        input=text,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "token, message",
    [
        ("gfp:4", "modulus 4 is not prime"),
        ("gfp:x", "unknown field 'gfp:x' (expected qq, gf2 or gfp:<p>)"),
        ("gfp:", "unknown field 'gfp:' (expected qq, gf2 or gfp:<p>)"),
        (
            "gfp:318665857834031151167461",
            "modulus 318665857834031151167461 must be below 2^64",
        ),
        # past int()'s 4300-digit limit
        ("gfp:" + "9" * 5000, "modulus " + "9" * 5000 + " must be below 2^64"),
    ],
    ids=["gfp:4", "gfp:x", "gfp:", "gfp:pseudoprime", "gfp:huge"],
)
def test_betti_bad_field(capsys, token, message):
    code, out, err = run(capsys, "betti", "--family", "path-star:1", "--field", token)
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: {message}"]


def test_betti_cell_size_capped(capsys):
    # g_rb(7,3) has 17 vertices, one above the sweep cap that the table has
    code, out, err = run(capsys, "betti", "--family", "grb:7,3", "--cell", "3", "2")
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: graph has 17 > 16 vertices"]


def test_betti_needs_exactly_one_source(capsys, tmp_path):
    code, _, err = run(capsys, "betti")
    assert code == 2 and "exactly one input" in err
    f = tmp_path / "g.txt"
    f.write_text("2 1\n0 1\n")
    code, _, err = run(capsys, "betti", str(f), "--family", "path-star:1")
    assert code == 2 and "exactly one input" in err


def test_cert_found(capsys):
    code, out, err = run(capsys, "cert", "3", "2", "--family", "path-star:2")
    assert code == 0 and err == ""
    # the README's line, byte for byte
    assert out == (
        '{"type": [3, 2], "bouquets": [{"root": 1, "leaves": [3]}, '
        '{"root": 2, "leaves": [0, 4]}], "representatives": [[1, 3], [0, 2]]}\n'
    )


def test_cert_none(capsys):
    code, out, _ = run(capsys, "cert", "6", "2", "--family", "grb:3,2")
    assert code == 0
    assert out.strip() == "none"


def test_cert_warns_on_non_chordal(capsys, tmp_path):
    # one warning line, whether a certificate is found or the type is impossible
    f = tmp_path / "c4.txt"
    f.write_text("4 4\n0 1\n0 3\n1 2\n2 3\n")
    warning = (
        "warning: graph is not chordal; a missing certificate does not imply a "
        "vanishing Betti number"
    )
    code, out, err = run(capsys, "cert", "1", "1", str(f))
    assert code == 0 and err.splitlines() == [warning]
    assert json.loads(out)["type"] == [1, 1]
    code, out, err = run(capsys, "cert", "0", "1", str(f))
    assert code == 0 and err.splitlines() == [warning]
    assert out == "none\n"


def test_cert_above_the_cap_is_one_error_line(capsys, tmp_path):
    # C20 is not chordal, but the refusal comes before the warning
    f = tmp_path / "c20.txt"
    f.write_text(graph_to_text(new_graph(20, [(k, (k + 1) % 20) for k in range(20)])))
    code, out, err = run(capsys, "cert", "1", "1", str(f))
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: graph has 20 > 16 vertices"]


def test_verify_path_star_is_the_gpr1_boundary(capsys):
    # The path star is g_pr1(r+1, r); its corner certificate is replayed
    # by the gpr1 scope, and there is no separate path-star scope.
    for r in (1, 2):
        code, out, _ = run(capsys, "verify", "gpr1", "--p", str(r + 1), "--r", str(r))
        assert code == 0
        rep = json.loads(out)
        assert rep["passed"] is True and rep["params"] == {"p": r + 1, "r": r}
        assert rep["computed"]["certificate_at_corner"] is True
    with pytest.raises(SystemExit) as exc:
        main(["verify", "path-star", "--r", "1..2"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_verify_grb_symbolic_range(capsys):
    code, out, _ = run(capsys, "verify", "grb", "--r", "2..3", "--b", "2..r")
    assert code == 0
    reports = [json.loads(line) for line in out.strip().splitlines()]
    params = [rep["params"] for rep in reports]
    assert params == [{"r": 2, "b": 2}, {"r": 3, "b": 2}, {"r": 3, "b": 3}]
    last = reports[-1]
    assert list(last) == sorted(last)
    del last["runtime"]
    facts = {
        "chordal": True,
        "extremal_count": 3,
        "extremal_positions": [[6, 3], [7, 2], [8, 1]],
        "induced_matching_number": 3,
        "projective_dimension": 8,
        "regularity": 3,
        "vanishing_rectangle": True,
    }
    assert last == {
        "claim": "grb",
        "computed": facts,
        "expected": facts,
        "params": {"b": 3, "r": 3},
        "passed": True,
        "skipped": False,
    }


def test_verify_gpr1_symbolic_range(capsys):
    code, out, _ = run(capsys, "verify", "gpr1", "--p", "2..3", "--r", "1..p")
    assert code == 0
    params = [json.loads(line)["params"] for line in out.strip().splitlines()]
    assert params == [{"p": 2, "r": 1}, {"p": 3, "r": 1}, {"p": 3, "r": 2}]


def test_verify_support_trees(capsys):
    code, out, _ = run(capsys, "verify", "support", "--trees-upto", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 1 + 1 + 2 + 3  # tree classes for n = 1..5
    assert all(json.loads(line)["passed"] for line in lines)


def test_verify_support_all_chordal(capsys):
    code, out, _ = run(capsys, "verify", "support", "--all-chordal-upto", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 2 + 4 + 10  # chordal classes for n = 1..4
    assert all(json.loads(line)["passed"] for line in lines)


@pytest.mark.parametrize(
    "argv, reason",
    [
        # an enumeration bound above the enumerator's cap (14 for trees, 9
        # for chordal graphs) or the sweep's 16-vertex cap
        pytest.param(("support", "--trees-upto", "15"), "14-vertex cap", id="argv0"),
        pytest.param(("support", "--all-chordal-upto", "10"), "cap", id="argv1"),
        pytest.param(("reg-indmatch", "--trees-upto", "15"), "14-vertex cap", id="argv2"),
        pytest.param(
            ("support", "--random", "20", "--seed", "1", "--max-n", "17"),
            "16-vertex cap",
            id="argv3",
        ),
        # the whole parameter grid is checked before the first report
        pytest.param(("grb", "--r", "2..3", "--b", "2..3"), "2 <= b <= r", id="grb-b-above-r"),
        pytest.param(("gpr1", "--p", "6..8", "--r", "5..6"), "1 <= r < p", id="gpr1-r-at-p"),
        pytest.param(("grb", "--r", "2..1"), "empty range", id="grb-empty-range"),
        pytest.param(("support", "--random", "-3"), "at least 1", id="negative-random"),
        pytest.param(
            ("reg-indmatch", "--random", "2", "--max-n", "0"), "at least 1", id="max-n-zero"
        ),
        # the --random options mean nothing without it
        pytest.param(
            ("support", "--trees-upto", "5", "--max-n", "0"),
            "--max-n needs --random",
            id="max-n-without-random",
        ),
        pytest.param(
            ("reg-indmatch", "--family", "path-star:1", "--seed", "3"),
            "--seed needs --random",
            id="seed-without-random",
        ),
        # a malformed range names its flag and the accepted forms
        pytest.param(("grb", "--r", "x"), "--r takes N or A..B, got 'x'", id="grb-bad-range"),
        pytest.param(
            ("gpr1", "--p", "2..3", "--r", "1..r"),
            "--r takes N, A..B or A..p, got '1..r'",
            id="gpr1-bad-symbol",
        ),
    ],
)
def test_verify_rejects_enumeration_above_cap(capsys, argv, reason):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error:") and reason in err


@pytest.mark.parametrize(
    "argv",
    [
        ("grb", "--trees-upto", "3"),
        ("grb", "--family", "grb:2,2"),
        ("grb", "FILE"),
        ("gpr1", "--b", "7"),
        ("support", "--family", "path-star:1", "--b", "2"),
        ("reg-indmatch", "--family", "path-star:1", "--p", "3"),
        # not a prefix of --random either: abbreviations are off
        ("reg-indmatch", "--random", "2", "--r", "3"),
    ],
    ids=[
        "grb-trees-upto",
        "grb-family",
        "grb-file",
        "gpr1-b",
        "support-b",
        "reg-indmatch-p",
        "reg-indmatch-r-prefix",
    ],
)
def test_verify_rejects_flags_outside_scope(capsys, tmp_path, argv):
    # Each scope parses only its own flags; another scope's flag is a usage
    # error, never silently dropped.
    f = tmp_path / "g.txt"
    f.write_text("2 1\n0 1\n")
    with pytest.raises(SystemExit) as exc:
        main(["verify", *(str(f) if a == "FILE" else a for a in argv)])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_verify_reg_indmatch_random(capsys):
    code, out, _ = run(capsys, "verify", "reg-indmatch", "--random", "5", "--seed", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    names = [json.loads(line)["params"]["graph"] for line in lines]
    assert all(name.startswith("random(seed=3,") for name in names)


def test_verify_support_single_family(capsys):
    code, out, _ = run(capsys, "verify", "support", "--family", "star-triangle:2")
    assert code == 0
    rep = json.loads(out.strip())
    assert rep["passed"] is True and rep["params"]["graph"] == "star-triangle:2"


def test_verify_rejects_multiple_sources(capsys):
    code, _, err = run(
        capsys, "verify", "support", "--family", "path-star:1", "--trees-upto", "3"
    )
    assert code == 2
    assert "exactly one graph source" in err


def test_verify_exit_code_on_failure(capsys, monkeypatch):
    import edgebetti.cli as cli_mod

    failing = VerificationReport("cert-support", {"graph": "x"}, 1, 2)
    monkeypatch.setattr(cli_mod, "verify_cert_support", lambda g, name: failing)
    code, out, _ = run(capsys, "verify", "support", "--family", "path-star:1")
    assert code == 1
    assert json.loads(out.strip())["passed"] is False


def test_console_script_installed():
    # Checks the console-script contract from its pyproject.toml declaration,
    # so the suite passes from a plain checkout without an install.
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]
    assert scripts["edgebetti"] == "edgebetti.cli:main"
    module_name, attr = scripts["edgebetti"].split(":")
    assert callable(getattr(importlib.import_module(module_name), attr))

    # The wrapper an installer generates: call the target, exit with its result.
    wrapper = f"import sys; from {module_name} import {attr}; sys.exit({attr}())"

    def script(*argv):
        return subprocess.run(
            [sys.executable, "-c", wrapper, *argv], capture_output=True, text=True
        )

    proc = script("gen", "path-star", "2")
    assert proc.returncode == 0
    assert parse_graph(proc.stdout) == path_star(2)

    proc = script("gen", "grb", "3")  # missing b
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")


def test_closed_stdout_stops_quietly():
    # `verify support --trees-upto 9 | head -1`: the reader closes the pipe
    # after the first report, and the sweep stops with no error line, no
    # traceback, and the exit code a shell gives a tool that SIGPIPE ends.
    proc = subprocess.Popen(
        [sys.executable, "-m", "edgebetti", "verify", "support", "--trees-upto", "9"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert err == ""
    assert json.loads(first)["claim"] == "cert-support"
    # a stdout closed before the start has nothing to break: exit 0, quietly
    closed = subprocess.run(
        ["sh", "-c", f'"{sys.executable}" -m edgebetti betti --family grb:2,2 >&-'],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (closed.returncode, closed.stderr) == (0, "")


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_failed_write_has_its_own_exit_code():
    # A write that fails, as on a full disk, is not a usage error: one error
    # line and exit code 74.  A path that cannot be opened stays exit 2.
    def cli(*argv, stdout):
        return subprocess.run(
            [sys.executable, "-m", "edgebetti", *argv],
            stdout=stdout,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )

    with open("/dev/full", "w") as full:
        for argv in (("betti", "--family", "grb:2,2"), ("gen", "grb", "2", "2")):
            proc = cli(*argv, stdout=full)
            assert proc.returncode == 74, argv
            assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        proc = cli("gen", "grb", "2", "2", "-o", "/dev/full", stdout=subprocess.DEVNULL)
        assert proc.returncode == 74
    proc = cli("gen", "grb", "2", "2", "-o", "/nonexistent/x", stdout=subprocess.DEVNULL)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "edgebetti", "betti", "--family", "path-star:1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1 . .\n. 2 1\n"


# ---------------------------------------------------------------------------
# argv fuzz: a grammar of the four subcommands, their flags, small integers,
# ranges and family specs.  No stdin and no file paths: every graph comes
# from --family, and no stray token can land in an input slot.

_INT = st.integers(-2, 5).map(str)
# Family parameters and verify ranges stay smaller, so that no member has
# more than 12 vertices and no single argv runs for more than a fraction of
# a second.
_PARAM = st.integers(-2, 3).map(str)
_BOUND = st.integers(-2, 4).map(str)
_RANGE = st.one_of(
    _BOUND,
    st.tuples(_BOUND, _BOUND).map("..".join),
    st.tuples(_BOUND, st.sampled_from(["r", "p"])).map("..".join),
    st.sampled_from(["x", "..", "2..", "..3", "1..q", ""]),
)
_FAMILY_NAMES = st.sampled_from(["path-star", "star-triangle", "grb", "gpr1", "petersen"])
_FAMILY = st.one_of(
    st.sampled_from(["path-star:2", "star-triangle:2", "grb:3,2", "grb:3,3", "gpr1:4,2"]),
    st.builds(
        lambda name, params: f"{name}:{','.join(params)}",
        _FAMILY_NAMES,
        st.lists(_PARAM, min_size=1, max_size=2),
    ),
    st.sampled_from(["grb", "grb:", "grb:x", ":3"]),
)


def _opt(flag, values):
    return values.map(lambda v: [flag, v])


def _flags(*groups):
    return st.lists(st.one_of(*groups), max_size=4).map(lambda gs: [t for g in gs for t in g])


def _argv(*parts):
    return st.tuples(*parts).map(lambda ps: [t for p in ps for t in p])


_ARGV = st.one_of(
    _argv(
        st.just(["gen"]),
        _FAMILY_NAMES.map(lambda name: [name]),
        st.lists(_INT, min_size=1, max_size=2),
        _flags(_opt("--format", st.sampled_from(["text", "json", "dot"]))),
    ),
    _argv(
        st.just(["betti"]),
        _opt("--family", _FAMILY) | st.just([]),
        _flags(
            _opt("--field", st.sampled_from(["qq", "gf2", "gfp:3", "gfp:4", "gfp:x"])),
            st.just(["--json"]),
            st.just(["--csv"]),
            st.tuples(_INT, _INT).map(lambda ij: ["--cell", *ij]),
            _opt("--jobs", _INT),
        ),
    ),
    _argv(
        st.just(["cert"]),
        st.lists(_INT | st.just("x"), min_size=1, max_size=2),
        _opt("--family", _FAMILY) | st.just([]),
    ),
    _argv(
        st.just(["verify"]),
        st.sampled_from(["grb", "gpr1", "support", "reg-indmatch", "path-star"]).map(
            lambda scope: [scope]
        ),
        _flags(
            _opt("--r", _RANGE),
            _opt("--b", _RANGE),
            _opt("--p", _RANGE),
            _opt("--family", _FAMILY),
            _opt("--trees-upto", _INT),
            _opt("--all-chordal-upto", _INT),
            _opt("--random", _INT),
            _opt("--max-n", _INT),
            _opt("--seed", _INT),
        ),
    ),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_ARGV)
def test_cli_argv_fuzz_exits_cleanly(argv):
    # argparse rejects a malformed argv itself, with a usage line and
    # SystemExit(2); every other outcome is main's return value.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2 and err.getvalue().startswith("usage:"), argv
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    if code == 2:
        assert out.getvalue() == "", argv
