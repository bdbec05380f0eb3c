"""Integer and rational linear algebra."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdsgit.errors import DimensionMismatchError
from mdsgit.linalg import (
    det,
    dot,
    hermite_normal_form,
    kernel_basis,
    primitive,
    rank_of,
    saturate_rows,
    smith_normal_form,
    solve_rational,
    to_int_vec,
    vsub,
)
from oracles import fraction_rank, minors_gcd_divisors

small_entries = st.integers(min_value=-9, max_value=9)


def matrices(max_rows=4, max_cols=4):
    return st.integers(min_value=1, max_value=max_rows).flatmap(
        lambda m: st.integers(min_value=1, max_value=max_cols).flatmap(
            lambda n: st.lists(
                st.lists(small_entries, min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            )
        )
    )


def test_vector_ops():
    assert dot((1, 2, 3), (4, 5, 6)) == 32
    assert vsub((1, 2), (3, 4)) == (-2, -2)
    with pytest.raises(DimensionMismatchError):
        dot((1, 2), (1, 2, 3))


def test_primitive():
    assert primitive((4, -6, 2)) == (2, -3, 1)
    assert primitive((0, 0)) == (0, 0)
    assert primitive((-3,)) == (-1,)  # gcd removed, sign kept
    assert to_int_vec((Fraction(1, 2), Fraction(3, 4))) == (2, 3)


def test_det_and_rank():
    assert det([[2, 0], [0, 3]]) == 6
    assert det([[1, 2], [2, 4]]) == 0
    assert det([[0, 1], [1, 0]]) == -1
    assert rank_of([[1, 2], [2, 4], [0, 1]]) == 2
    assert rank_of([]) == rank_of([[0, 0]]) == 0


@st.composite
def matrices_with_dependent_rows(draw):
    m = draw(matrices())
    n = len(m[0])
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        coeffs = draw(st.lists(small_entries, min_size=len(m), max_size=len(m)))
        m.append([sum(c * row[j] for c, row in zip(coeffs, m)) for j in range(n)])
    if draw(st.booleans()):
        m.append([0] * n)
    return draw(st.permutations(m))


@settings(max_examples=120, deadline=None)
@given(matrices_with_dependent_rows())
def test_rank_of_against_fraction_rank(m):
    assert rank_of(m) == fraction_rank(m)


def test_smith_normal_form_frozen():
    d, u, v = smith_normal_form([[2, 0], [0, 3]])
    assert [d[0][0], d[1][1]] == [1, 6]
    d, u, v = smith_normal_form([[1, 1, 1]])
    assert d[0] == (1, 0, 0)


def _mat_mul(a, b):
    return tuple(tuple(dot(row, col) for col in zip(*b)) for row in a)


@settings(max_examples=120, deadline=None)
@given(matrices())
def test_smith_normal_form_properties(m):
    d, u, v = smith_normal_form(m)
    assert _mat_mul(_mat_mul(u, m), v) == d
    assert abs(det(u)) == 1 and abs(det(v)) == 1
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    for i, row in enumerate(d):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0
    nonzero = [x for x in diag if x]
    assert all(x > 0 for x in nonzero)
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    assert nonzero == minors_gcd_divisors(m)


def test_hermite_normal_form_frozen():
    h = hermite_normal_form([[2, 4], [1, 1]])
    assert h == ((1, 1), (0, 2))
    h = hermite_normal_form([[0, 1], [1, 0]])
    assert h == ((1, 0), (0, 1))


@settings(max_examples=120, deadline=None)
@given(matrices())
def test_hermite_normal_form_properties(m):
    h = hermite_normal_form(m)
    # row-style echelon with positive pivots, entries above reduced
    pivots = []
    for row in h:
        nz = next((j for j, x in enumerate(row) if x), None)
        if nz is None:
            continue
        assert not pivots or nz > pivots[-1][1]
        assert row[nz] > 0
        pivots.append((row, nz))
    for i, (row, col) in enumerate(pivots):
        for above, _ in pivots[:i]:
            assert 0 <= above[col] < row[col]
    # same row lattice: mutual membership via rational solve
    for row in m:
        assert _in_row_space(h, row)
    for row in h:
        assert _in_row_space(m, row)
    assert len(h) == fraction_rank(h) == fraction_rank(m)


def _in_row_space(rows, target):
    rows = [r for r in rows if any(r)]
    if not any(target):
        return True
    if not rows:
        return False
    sol = solve_rational(tuple(zip(*rows)), target)
    return sol is not None


@settings(max_examples=120, deadline=None)
@given(matrices())
def test_kernel_basis_properties(m):
    ncols = len(m[0])
    basis = kernel_basis(m, ncols)
    for b in basis:
        assert all(dot(row, b) == 0 for row in m)
    assert len(basis) == ncols - fraction_rank(m)
    assert fraction_rank(basis) == len(basis)


def test_kernel_is_saturated():
    # kernel of [[2, 4]] must contain the primitive (2, -1), not only (4, -2)
    basis = kernel_basis([[2, 4]], 2)
    assert basis == ((2, -1),)


def test_saturate_rows():
    assert saturate_rows([[2, 0], [0, 2]], 2) == ((1, 0), (0, 1))
    assert saturate_rows([[2, 4]], 2) == ((1, 2),)


@pytest.mark.parametrize("n", range(1, 6))
def test_saturate_no_rows(n):
    # the saturation of the zero lattice is zero
    assert saturate_rows((), n) == ()


def test_solve_rational():
    sol = solve_rational([[2, 0], [0, 4]], (1, 2))
    assert sol == (Fraction(1, 2), Fraction(1, 2))
    assert solve_rational([[1, 1], [1, 1]], (0, 1)) is None
    sol = solve_rational([[1, 1]], (3,))
    assert sol is not None and sum(sol) == 3
