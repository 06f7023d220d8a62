"""End-to-end CLI behaviour through main(argv)."""

import importlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from edgebetti.betti import BettiTable, betti_table
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
    table = BettiTable.from_json_dict(json.loads(out))
    assert table == betti_table(g_rb(3, 2))


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


def test_betti_gf2_matches_qq_here(capsys):
    _, qq, _ = run(capsys, "betti", "--family", "star-triangle:2")
    _, gf2, _ = run(capsys, "betti", "--family", "star-triangle:2", "--field", "gf2")
    assert qq == gf2


def test_betti_jobs_schedules_agree(capsys):
    _, serial, _ = run(capsys, "betti", "--family", "path-star:2", "--jobs", "1")
    _, parallel, _ = run(capsys, "betti", "--family", "path-star:2", "--jobs", "2")
    assert serial == parallel


def test_betti_rejects_jobs_below_one(capsys):
    code, out, err = run(capsys, "betti", "--family", "path-star:2", "--jobs", "0")
    assert code == 2
    assert out == "" and err.startswith("error:")


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


def test_betti_bad_field(capsys):
    code, _, err = run(capsys, "betti", "--family", "path-star:1", "--field", "gfp:4")
    assert code == 2
    assert "not prime" in err


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
    d = json.loads(out)
    assert d["type"] == [3, 2]
    assert len(d["bouquets"]) == 2
    assert len(d["representatives"]) == 2


def test_cert_none(capsys):
    code, out, _ = run(capsys, "cert", "6", "2", "--family", "grb:3,2")
    assert code == 0
    assert out.strip() == "none"


def test_cert_warns_on_non_chordal(capsys, tmp_path):
    f = tmp_path / "c4.txt"
    f.write_text("4 4\n0 1\n0 3\n1 2\n2 3\n")
    code, out, err = run(capsys, "cert", "1", "1", str(f))
    assert code == 0
    assert "not chordal" in err
    assert json.loads(out)["type"] == [1, 1]


def test_verify_path_star_range(capsys):
    code, out, _ = run(capsys, "verify", "path-star", "--r", "1..2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        rep = json.loads(line)
        assert rep["passed"] is True and rep["claim"] == "path-star"


def test_verify_grb_symbolic_range(capsys):
    code, out, _ = run(capsys, "verify", "grb", "--r", "2..3", "--b", "2..r")
    assert code == 0
    params = [json.loads(line)["params"] for line in out.strip().splitlines()]
    assert params == [{"r": 2, "b": 2}, {"r": 3, "b": 2}, {"r": 3, "b": 3}]


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
    "argv",
    [
        ("support", "--trees-upto", "11"),  # above the 10-vertex cert-support cap
        ("support", "--all-chordal-upto", "9"),  # above the chordal enumerator cap
        ("reg-indmatch", "--trees-upto", "14"),  # above the 13-vertex oracle cap
        ("support", "--random", "20", "--seed", "1", "--max-n", "12"),  # above 10
    ],
)
def test_verify_rejects_enumeration_above_cap(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "cap" in err


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

    failing = VerificationReport("cert-support", {"graph": "x"}, 1, 2, passed=False)
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


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "edgebetti", "betti", "--family", "path-star:1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1 . .\n. 2 1\n"
