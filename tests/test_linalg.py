"""Exact rank engines, cross-checked against sympy on random sparse matrices."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF, ZZ
from sympy.polys.matrices import DomainMatrix

from edgebetti.linalg import matrix_rank


def sympy_rank(rows, ncols, p=None):
    if not rows or ncols == 0:
        return 0
    dense = [[r.get(c, 0) for c in range(ncols)] for r in rows]
    return DomainMatrix.from_list(dense, ZZ if p is None else GF(p)).rank()


def test_rank_gf2_basics():
    assert len(matrix_rank([], 2)) == 0
    assert len(matrix_rank([{}, {}], 2)) == 0
    assert len(matrix_rank([{0: 1}, {1: 1}, {0: 1, 1: -1}], 2)) == 2
    assert len(matrix_rank([{0: 1, 1: -1, 2: 1}, {1: 1, 2: 1}, {0: -1}], 2)) == 2
    assert matrix_rank([{40: 1}, {40: -1, 0: 1}, {0: 1}], 2) == [40, 0]


def test_rank_mod_p_basics():
    assert len(matrix_rank([], 3)) == 0
    assert len(matrix_rank([{0: 3}], 3)) == 0  # 3 == 0 mod 3
    assert len(matrix_rank([{0: 1}, {1: 5}, {0: 4, 1: 1}], 5)) == 2
    assert len(matrix_rank([{0: 1, 1: 1}, {0: 1, 1: 2}], 7)) == 2


def test_rank_mod_p_dependent_rows():
    # 2 * (1, 2) == (2, 4) over any field: rank 1 everywhere.
    rows = [{0: 1, 1: 2}, {0: 2, 1: 4}]
    for p in (2, 3, 5, 7):
        assert len(matrix_rank(rows, p)) == 1
    assert len(matrix_rank(rows)) == 1


def test_rank_rational_basics():
    assert len(matrix_rank([])) == 0
    assert len(matrix_rank([{}])) == 0
    assert len(matrix_rank([{0: 1}, {1: 1}, {0: 1, 1: 1}])) == 2
    ident = [{i: 1} for i in range(6)]
    assert len(matrix_rank(ident)) == 6


def test_rank_differs_between_fields():
    # [[1,1],[1,-1]] is invertible over QQ but singular mod 2.
    rows = [{0: 1, 1: 1}, {0: 1, 1: -1}]
    assert len(matrix_rank(rows)) == 2
    assert len(matrix_rank(rows, p=2)) == 1
    # An all-3 entries matrix vanishes mod 3 only.
    rows = [{0: 3, 1: 3}]
    assert len(matrix_rank(rows)) == 1
    assert len(matrix_rank(rows, p=3)) == 0
    assert len(matrix_rank(rows, p=5)) == 1


def test_rank_rational_non_unit_pivots():
    # No +-1 entries anywhere: every pivot is non-unit and the elimination
    # continues in Fractions.
    rows = [{0: 2, 1: 4}, {0: 6, 1: 8}, {0: 2, 1: 4}]
    assert len(matrix_rank(rows)) == 2
    rows = [{0: 2}, {0: 4}]
    assert len(matrix_rank(rows)) == 1
    # All-even random matrices stay free of +-1 entries for several pivots.
    rng = random.Random(4)
    for _ in range(80):
        rows = _random_rows(rng, rng.randint(1, 7), 7, 0.6, lo=-5, hi=5)
        rows = [{c: 2 * v for c, v in r.items()} for r in rows]
        assert len(matrix_rank(rows)) == sympy_rank(rows, 7)


def test_matrix_rank_dispatch_gf2_parity():
    # Even entries vanish mod 2 before echelon.
    rows = [{0: 2, 1: 1}, {0: 2}]
    assert len(matrix_rank(rows, p=2)) == 1
    assert len(matrix_rank(rows)) == 2


def _random_rows(rng, nrows, ncols, density, lo=-1, hi=1):
    rows = []
    for _ in range(nrows):
        row = {}
        for c in range(ncols):
            if rng.random() < density:
                v = 0
                while v == 0:
                    v = rng.randint(lo, hi)
                row[c] = v
        rows.append(row)
    return rows


def test_rank_matches_sympy_on_random_pm1_matrices():
    # The shape the homology code produces: sparse entries in {-1, +1}.
    rng = random.Random(2)
    for _ in range(60):
        rows = _random_rows(rng, rng.randint(0, 7), rng.randint(1, 7), 0.4)
        expected = sympy_rank(rows, 7)
        assert len(matrix_rank(rows)) == expected
        for p in (2, 3, 5):
            assert len(matrix_rank(rows, p=p)) == sympy_rank(rows, 7, p=p)


def test_rank_matches_sympy_with_larger_entries():
    rng = random.Random(3)
    for _ in range(40):
        rows = _random_rows(rng, rng.randint(1, 6), rng.randint(1, 6), 0.5, lo=-9, hi=9)
        assert len(matrix_rank(rows)) == sympy_rank(rows, 6)
        # entries other than +-1 take the reducing path in every field
        for p in (2, 3, 7):
            assert len(matrix_rank(rows, p=p)) == sympy_rank(rows, 6, p=p)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.lists(
        st.dictionaries(st.integers(0, 5), st.sampled_from([-1, 1]), max_size=6),
        max_size=6,
    )
)
def test_rank_field_invariants(rows):
    r_qq = len(matrix_rank([dict(r) for r in rows]))
    # Rank over QQ can only drop when reducing mod p.
    for p in (2, 3):
        assert len(matrix_rank([dict(r) for r in rows], p=p)) <= r_qq
    assert r_qq <= len(rows)


def test_rank_does_not_mutate_input():
    # Leads of +1, -1 and 2: the kept pivot, the negated one and the
    # Fraction-scaled one must all be copies.
    rows = [{0: 1, 1: -1}, {0: 1, 1: 1}, {1: 1, 2: 2}, {0: 3, 2: 2}, {2: 1}]
    snapshot = [dict(r) for r in rows]
    len(matrix_rank(rows))
    len(matrix_rank(rows, p=2))
    len(matrix_rank(rows, 3))
    assert rows == snapshot


def _cols(rows, keep):
    return [{c: v for c, v in r.items() if keep(c)} for r in rows]


def test_leads_are_the_echelon_columns_of_the_row_space():
    # A column c leads a highest-column echelon iff some vector of the row
    # space ends at c, i.e. iff dropping the columns below c and then also c
    # itself loses rank.
    rng = random.Random(6)
    for _ in range(40):
        ncols = rng.randint(1, 6)
        rows = _random_rows(rng, rng.randint(0, 6), ncols, 0.5, lo=-3, hi=3)
        snapshot = [dict(r) for r in rows]
        for p in (None, 2, 3, 5):
            leads = matrix_rank(rows, p)
            assert len(set(leads)) == len(leads) == sympy_rank(rows, ncols, p)
            expected = {
                c
                for c in range(ncols)
                if sympy_rank(_cols(rows, lambda k: k >= c), ncols, p)
                > sympy_rank(_cols(rows, lambda k: k > c), ncols, p)
            }
            assert set(leads) == expected
        assert rows == snapshot
