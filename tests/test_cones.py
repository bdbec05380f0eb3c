"""Exact polyhedral cones: construction, duality, intersection, splitting."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdsgit.cones import (
    adjacent_pairs,
    cone_from_generators,
    cone_from_inequalities,
    dual,
    full_space,
    intersect,
    minkowski_sum,
    positive_orthant,
    split_by_hyperplanes,
    zero_cone,
)
from mdsgit.errors import InvariantViolationError
from mdsgit.linalg import dot, vneg
from oracles import (
    brute_force_facets,
    brute_force_rays,
    count_chambers_bruteforce,
    fraction_rank,
    signs_of,
    single_flip_pairs,
)

entries = st.integers(min_value=-5, max_value=5)


def gens_strategy(dim, max_gens=6):
    vec = st.tuples(*[entries] * dim).filter(any)
    return st.lists(vec, min_size=1, max_size=max_gens)


def test_positive_orthant_forms():
    c = positive_orthant(3)
    eye = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert cone_from_generators(eye) == c
    assert cone_from_inequalities(eye) == c
    assert c.dim == 3 and not c.lineality and not c.equations


def test_zero_and_full():
    z = zero_cone(2)
    f = full_space(2)
    assert z.dim == 0 and f.dim == 2
    assert dual(z) == f and dual(f) == z
    assert cone_from_generators([], ambient_dim=2) == z


def test_halfplane_with_lineality():
    c = cone_from_generators([(1, 0), (-1, 0), (0, 1)])
    assert c.lineality == ((1, 0),)
    assert c.generators == ((0, 1),)
    assert c.inequalities == ((0, 1),)


def test_contains():
    c = positive_orthant(2)
    assert c.contains((1, 1)) == "interior"
    assert c.contains((1, 0)) == "boundary"
    assert c.contains((0, 0)) == "boundary"
    assert c.contains((-1, 0)) == "outside"


def test_dual_of_simplicial():
    c = cone_from_generators([(1, 0), (1, 2)])
    d = dual(c)
    assert sorted(d.generators) == [(-1, 1), (2, -1)] or sorted(d.generators) == sorted(
        c.inequalities
    )
    assert d.generators == c.inequalities


@settings(max_examples=80, deadline=None)
@given(gens_strategy(3))
def test_dual_involution(gens):
    c = cone_from_generators(gens)
    assert dual(dual(c)) == c


@settings(max_examples=80, deadline=None)
@given(gens_strategy(3))
def test_generators_satisfy_own_inequalities(gens):
    c = cone_from_generators(gens)
    for g in list(c.generators) + list(gens):
        assert all(dot(h, g) >= 0 for h in c.inequalities)
        assert all(dot(e, g) == 0 for e in c.equations)


@settings(max_examples=60, deadline=None)
@given(gens_strategy(3))
def test_redundant_generator_is_harmless(gens):
    total = tuple(sum(g[i] for g in gens) for i in range(3))
    c1 = cone_from_generators(gens)
    c2 = cone_from_generators(list(gens) + [total])
    assert c1 == c2


@settings(max_examples=60, deadline=None)
@given(gens_strategy(3, max_gens=5))
def test_facets_against_bruteforce(gens):
    c = cone_from_generators(gens)
    if c.dim != 3 or c.lineality:
        return
    assert sorted(c.inequalities) == brute_force_facets(c.generators, 3)


@st.composite
def implicit_equality_systems(draw):
    """Inequalities with forced opposite pairs and duplicates, plus equations."""
    dim = draw(st.integers(min_value=3, max_value=4))
    vec = st.tuples(*[st.integers(min_value=-2, max_value=2)] * dim).filter(any)
    ineqs = draw(st.lists(vec, min_size=1, max_size=6))
    opposite = [vneg(h) for h in draw(st.lists(st.sampled_from(ineqs), max_size=2))]
    duplicates = draw(st.lists(st.sampled_from(ineqs), max_size=2))
    rows = draw(st.permutations(ineqs + opposite + duplicates))
    return dim, rows, draw(st.lists(vec, max_size=2))


@settings(max_examples=150, deadline=None)
@given(implicit_equality_systems())
def test_conversion_with_implicit_equalities_against_bruteforce(system):
    # intermediate cones of the conversion may be lower-dimensional
    dim, ineqs, eqs = system
    rows = ineqs + eqs + [vneg(e) for e in eqs]
    c = cone_from_inequalities(ineqs, eqs, ambient_dim=dim)
    assert len(c.lineality) == dim - fraction_rank(rows)
    if not c.lineality:
        assert list(c.generators) == brute_force_rays(rows, dim)


def test_conversion_keeps_the_face_of_an_opposite_pair():
    rows = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)]
    c = cone_from_inequalities(rows)
    assert c.generators == ((0, 0, 1), (0, 1, 0)) == tuple(brute_force_rays(rows, 3))
    assert c.equations == ((1, 0, 0),) and not c.lineality


def test_intersect_and_minkowski():
    quad = positive_orthant(2)
    half = cone_from_inequalities([(1, -1)])
    lower = intersect(quad, half)
    assert lower == cone_from_generators([(1, 0), (1, 1)])
    back = minkowski_sum(lower, cone_from_generators([(0, 1)]))
    assert back == quad
    assert intersect(quad, full_space(2)) == quad
    assert minkowski_sum(quad, zero_cone(2)) == quad


def test_split_known_counts():
    quad = positive_orthant(2)
    cells = split_by_hyperplanes(quad, [(1, -1)])
    assert len(cells) == 2
    assert sorted(c.mask for c in cells) == [0, 1]
    cells = split_by_hyperplanes(full_space(2), [(1, 0), (0, 1)])
    assert len(cells) == 4
    cells = split_by_hyperplanes(full_space(2), [(1, 0), (0, 1), (1, -1)])
    assert len(cells) == 6


def test_split_rejects_vanishing_hyperplane():
    line = cone_from_generators([(1, 0), (-1, 0)])
    with pytest.raises(InvariantViolationError):
        split_by_hyperplanes(line, [(0, 1)])


def test_split_signs_are_strict():
    quad = positive_orthant(2)
    hyps = [(1, -1), (2, -1)]
    for cell in split_by_hyperplanes(quad, hyps):
        rep = tuple(sum(r[i] for r in cell.rays) for i in range(2))
        for k, h in enumerate(hyps):
            d = dot(h, rep)
            assert d != 0 and (d > 0) == bool(cell.mask >> k & 1)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(entries, entries, entries).filter(any),
        min_size=1,
        max_size=4,
    )
)
def test_split_count_matches_bruteforce(hyps):
    base = positive_orthant(3)
    usable = [h for h in hyps if _crosses(h)]
    cells = split_by_hyperplanes(base, usable)
    expected = count_chambers_bruteforce(usable, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    assert len(cells) == expected
    assert len({c.mask for c in cells}) == len(cells)
    for c in cells:
        # the stored mask is the side of each hyperplane the representative is on
        rep = tuple(map(sum, zip(*c.rays)))
        assert all(dot(h, rep) != 0 for h in usable)
        assert c.mask == sum(1 << k for k, h in enumerate(usable) if dot(h, rep) > 0)
    pairs = adjacent_pairs([c.mask for c in cells], len(usable))
    assert set(pairs) == single_flip_pairs([signs_of(c.mask, len(usable)) for c in cells])
    assert list(pairs) == sorted(pairs)


def _crosses(h):
    # keep hyperplanes that do not contain the open octant entirely on one side
    return not (all(x >= 0 for x in h) or all(x <= 0 for x in h))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(), ((0, 0, 1),)]),
    st.lists(
        st.tuples(*[st.integers(min_value=-3, max_value=3)] * 3).filter(any),
        min_size=1,
        max_size=4,
    ),
)
def test_split_with_lineality_matches_oracle(base_ineqs, hyps):
    # the whole space and a half-space: every cut starts on a cell with lineality
    base = cone_from_inequalities(base_ineqs, ambient_dim=3)
    assert base.lineality
    cells = split_by_hyperplanes(base, hyps)
    assert len(cells) == count_chambers_bruteforce(hyps, base_ineqs, 3)
    for cell in cells:
        sided = [tuple(s * x for x in h) for s, h in zip(signs_of(cell.mask, len(hyps)), hyps)]
        expected = cone_from_inequalities(list(base_ineqs) + sided, ambient_dim=3)
        assert cone_from_generators(cell.rays, cell.lineality, ambient_dim=3) == expected
