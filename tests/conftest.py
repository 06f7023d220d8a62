"""Shared fixtures: family graphs and their Betti tables, computed once per session.

The heavyweight tables (13-vertex family members) take a few seconds each, so
every test that needs one pulls it from the session-scoped caches below instead
of recomputing.
"""

import os
import random
from pathlib import Path

import pytest

from edgebetti import (
    FieldSpec,
    all_trees,
    betti_table,
    g_pr1,
    g_rb,
    path_star,
    random_chordal,
    star_triangle,
)

# Parameter grids shared between the unit tests and the acceptance battery.
GRB_CASES = [(r, b) for r in range(2, 7) for b in range(2, r + 1) if 2 * r + b <= 13]
PATH_STAR_RANGE = range(1, 7)
STAR_TRIANGLE_RANGE = range(1, 5)
GPR1_CASES = [(p, r) for p in range(2, 12) for r in range(1, p) if p + r <= 12]

RANDOM_CHORDAL_SEED = 20250825
RANDOM_CHORDAL_COUNT = 100
RANDOM_CHORDAL_MAX_N = 8


def pytest_configure(config):
    # pyproject.toml puts src/ on this process's path only; the CLI tests
    # start Python subprocesses that must import the same checkout.
    src = str(Path(__file__).resolve().parent.parent / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def family_graphs():
    graphs = {}
    for r, b in GRB_CASES:
        graphs["grb", r, b] = g_rb(r, b)
    for r in PATH_STAR_RANGE:
        graphs["path-star", r] = path_star(r)
    for r in STAR_TRIANGLE_RANGE:
        graphs["star-triangle", r] = star_triangle(r)
    for p, r in GPR1_CASES:
        graphs["gpr1", p, r] = g_pr1(p, r)
    return graphs


@pytest.fixture(scope="session")
def qq_tables(family_graphs):
    return {key: betti_table(g) for key, g in family_graphs.items()}


@pytest.fixture(scope="session")
def gf2_tables(family_graphs):
    # Only the graphs that get recomputed over GF(2): g_rb sweep + path stars.
    field = FieldSpec.gf(2)
    keys = [k for k in family_graphs if k[0] in ("grb", "path-star")]
    return {key: betti_table(family_graphs[key], field=field) for key in keys}


@pytest.fixture(scope="session")
def tree_pool():
    trees = []
    for n in range(1, 8):
        trees.extend(all_trees(n))
    return trees


@pytest.fixture(scope="session")
def random_chordal_pool():
    rng = random.Random(RANDOM_CHORDAL_SEED)
    return [
        random_chordal(rng.randint(1, RANDOM_CHORDAL_MAX_N), rng)
        for _ in range(RANDOM_CHORDAL_COUNT)
    ]


@pytest.fixture(scope="session")
def tree_tables(tree_pool):
    return [betti_table(g) for g in tree_pool]


@pytest.fixture(scope="session")
def random_chordal_tables(random_chordal_pool):
    return [betti_table(g) for g in random_chordal_pool]
