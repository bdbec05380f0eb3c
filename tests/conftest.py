"""Shared fan and weight fixtures."""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from mdsgit.toric import Fan, make_fan, weight_system
from oracles import fraction_rank


def projective_plane() -> Fan:
    rays = [(1, 0), (0, 1), (-1, -1)]
    return make_fan(rays, [(0, 1), (0, 2), (1, 2)])


def projective_plane_minus_a_cone() -> Fan:
    """P^2 without the cone (1, 2): a valid fan that no chamber has as its quotient."""
    rays = [(1, 0), (0, 1), (-1, -1)]
    return make_fan(rays, [(0, 1), (0, 2)])


def product_of_lines() -> Fan:
    rays = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    return make_fan(rays, [(0, 2), (0, 3), (1, 2), (1, 3)])


def cube_fan() -> Fan:
    """Three projective lines; the eight octants of R^3."""
    rays = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    cones = [(i, j, k) for i in (0, 1) for j in (2, 3) for k in (4, 5)]
    return make_fan(rays, cones)


def hirzebruch(a: int) -> Fan:
    rays = [(1, 0), (0, 1), (-1, a), (0, -1)]
    return make_fan(rays, [(0, 1), (1, 2), (2, 3), (3, 0)])


def blown_up_plane() -> Fan:
    rays = [(1, 0), (0, 1), (-1, -1), (1, 1)]
    return make_fan(rays, [(0, 3), (1, 3), (1, 2), (0, 2)])


def twice_blown_up_plane() -> Fan:
    rays = [(1, 0), (0, 1), (-1, -1), (1, 1), (-1, 0)]
    return make_fan(rays, [(0, 3), (1, 3), (1, 4), (2, 4), (0, 2)])


def weighted_plane() -> Fan:
    """P(1, 1, 2); simplicial but not smooth."""
    rays = [(1, 0), (0, 1), (-1, -2)]
    return make_fan(rays, [(0, 1), (0, 2), (1, 2)])


def twisted_prism(gon=((1, 0), (0, 1), (-1, -1))) -> Fan:
    """The twisted prism over a polygon: complete, simplicial, not projective.

    Rays a_i = (x_i, 1) and b_i = (x_i, -1) over the polygon x_0..x_{n-1};
    the caps are fan-triangulated from a_0 and b_0, and each side
    a_i a_{i+1} b_{i+1} b_i is cut along a_i-b_{i+1}.  rho = 2n - 3.
    """
    n = len(gon)
    rays = [(x, y, 1) for x, y in gon] + [(x, y, -1) for x, y in gon]
    cones = [(0, i, i + 1) for i in range(1, n - 1)]
    cones += [(n, n + i, n + i + 1) for i in range(1, n - 1)]
    for i in range(n):
        a, a1, b, b1 = i, (i + 1) % n, n + i, n + (i + 1) % n
        cones += [(a, a1, b1), (a, b1, b)]
    return make_fan(rays, [tuple(sorted(c)) for c in cones])


def flop_weights():
    """Rank one weights (1, 1, -1, -1); the classic small wall crossing."""
    return weight_system([(1,), (1,), (-1,), (-1,)])


@st.composite
def full_rank_columns(draw, max_rho=3):
    """rho to 6 columns of rank rho <= max_rho with entries in -2..2.

    Entries take both signs, so many effective cones are not pointed.
    """
    rho = draw(st.integers(min_value=1, max_value=max_rho))
    entry = st.integers(min_value=-2, max_value=2)
    return draw(
        st.lists(st.tuples(*[entry] * rho), min_size=rho, max_size=6).filter(
            lambda cols: fraction_rank(cols) == rho
        )
    )


@pytest.fixture
def p2():
    return projective_plane()


@pytest.fixture
def p1xp1():
    return product_of_lines()


@pytest.fixture
def p1cubed():
    return cube_fan()


@pytest.fixture
def blp2():
    return blown_up_plane()


@pytest.fixture
def bl2p2():
    return twice_blown_up_plane()


@pytest.fixture
def p112():
    return weighted_plane()


@pytest.fixture
def prism3():
    return twisted_prism()


@pytest.fixture
def flop():
    return flop_weights()
