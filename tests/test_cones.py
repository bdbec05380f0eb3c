"""Exact polyhedral cones: construction, duality, intersection, splitting."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import twisted_prism
from mdsgit.cones import (
    Cone,
    adjacent_pairs,
    cone_from_generators,
    cone_from_inequalities,
    cut_by_inequalities,
    dual,
    intersect,
    minkowski_sum,
    split_by_hyperplanes,
)
from mdsgit.errors import InvariantViolationError
from mdsgit.linalg import dot, vneg
from mdsgit.toric import cox_weights, make_fan, weight_system
from mdsgit.vgit import enumerate_chambers
from oracles import (
    brute_force_facets,
    brute_force_rays,
    count_chambers_bruteforce,
    fraction_rank,
    signs_of,
    single_flip_pairs,
)

entries = st.integers(min_value=-5, max_value=5)

# canonical forms written down, for conversions to be compared against
QUADRANT = Cone(2, ((0, 1), (1, 0)), ((0, 1), (1, 0)), (), ())
OCTANT = Cone(3, ((0, 0, 1), (0, 1, 0), (1, 0, 0)), ((0, 0, 1), (0, 1, 0), (1, 0, 0)), (), ())
ORIGIN = Cone(2, (), (), ((1, 0), (0, 1)), ())
PLANE = Cone(2, (), (), (), ((1, 0), (0, 1)))


def gens_strategy(dim, max_gens=6):
    vec = st.tuples(*[entries] * dim).filter(any)
    return st.lists(vec, min_size=1, max_size=max_gens)


def test_positive_orthant_forms():
    c = OCTANT
    eye = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert cone_from_generators(eye) == c
    assert cone_from_inequalities(eye) == c
    assert c.dim == 3 and not c.lineality and not c.equations


def test_zero_and_full():
    z, f = ORIGIN, PLANE
    assert z.dim == 0 and f.dim == 2
    assert dual(z) == f and dual(f) == z
    assert cone_from_generators([], ambient_dim=2) == z


def test_halfplane_with_lineality():
    c = cone_from_generators([(1, 0), (-1, 0), (0, 1)])
    assert c.lineality == ((1, 0),)
    assert c.generators == ((0, 1),)
    assert c.inequalities == ((0, 1),)


def test_contains():
    c = QUADRANT
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


@st.composite
def conversion_systems(draw):
    """Rows with redundant, duplicate, non-primitive and opposite rows, plus equations.

    The opposite rows are implicit equations of the inequalities and
    lineality of the generators, and the equations are lineality of the
    generators, so both conversions also take their two-pass route.
    """
    dim = draw(st.integers(min_value=2, max_value=4))
    vec = st.tuples(*[st.integers(min_value=-2, max_value=2)] * dim).filter(any)
    rows = draw(st.lists(vec, min_size=1, max_size=6))
    picked = st.lists(st.sampled_from(rows), max_size=2)
    rows += [tuple(map(sum, zip(a, b))) for a, b in zip(draw(picked), draw(picked))]
    rows += draw(picked)  # duplicates
    rows += [tuple(3 * x for x in h) for h in draw(picked)]  # non-primitive
    rows += [vneg(h) for h in draw(st.lists(st.sampled_from(rows), max_size=1))]
    rows = [h for h in draw(st.permutations(rows)) if any(h)]
    return dim, rows, draw(st.lists(vec, max_size=1))


@settings(max_examples=200, deadline=None)
@example((3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)], []))
@example((2, [(1, 0), (0, 1), (1, 1), (2, 0), (1, 0)], []))
@given(conversion_systems())
def test_one_pass_conversions_against_bruteforce(system):
    # a pointed, full-dimensional cone reads its facets, or its dual its
    # rays, off one pass's masks; everything else takes two passes
    dim, rows, eqs = system
    c = cone_from_inequalities(rows, eqs, ambient_dim=dim)
    g = cone_from_generators(rows, eqs, ambient_dim=dim)
    assert g == dual(c)
    for cone in (c, g):
        assert cone.dim == fraction_rank(list(cone.generators) + list(cone.lineality))
    if not c.lineality:
        assert list(c.generators) == brute_force_rays(rows + eqs + [vneg(e) for e in eqs], dim)
    if c.is_full_dim and not c.lineality:
        assert list(c.inequalities) == brute_force_facets(c.generators, dim)
    if g.is_full_dim and not g.lineality:
        # the facets of pos(rows) are the rays of its dual cone
        assert list(g.inequalities) == brute_force_rays(rows, dim)
        assert list(g.generators) == brute_force_rays(g.inequalities, dim)


@st.composite
def cut_systems(draw):
    """A pointed, full-dimensional cone and more rows to cut it by.

    The cone is spanned by the drawn rows, each turned to the positive side
    of a drawn vector v, and by e_i + 2v for each i.  Every generator is
    positive on v, so the cone is pointed, and the e_i + 2v are independent
    (their determinant is 1 + 2 sum(v), odd), so it is full-dimensional.
    """
    dim, rows, _ = draw(conversion_systems())
    vec = st.tuples(*[st.integers(min_value=-2, max_value=2)] * dim)
    v = draw(vec.filter(any))
    rows = [h if dot(h, v) > 0 else vneg(h) for h in rows if dot(h, v)]
    rows += [tuple(int(i == j) + 2 * x for j, x in enumerate(v)) for i in range(dim)]
    seed = cone_from_generators(rows, ambient_dim=dim)
    more = draw(st.lists(vec, min_size=1, max_size=5))
    more += [vneg(h) for h in draw(st.lists(st.sampled_from(more), max_size=1))]
    return seed, more


def _check_cut(seed, more):
    """The cut of seed by more is the conversion of all the rows, or raises if that is lower-dimensional.

    Its facets are the brute-force facets of its generators, and the rays
    it gives for each are the generators tight on it.
    """
    dim = seed.ambient_dim
    whole = cone_from_inequalities(seed.inequalities + tuple(more), ambient_dim=dim)
    if not whole.is_full_dim:
        with pytest.raises(InvariantViolationError, match="not full-dimensional"):
            cut_by_inequalities(seed, more)
        return whole
    cut, tight = cut_by_inequalities(seed, more)
    assert cut == whole
    facets = brute_force_facets(cut.generators, dim)
    assert list(cut.inequalities) == facets
    assert [sorted(rays) for rays in tight] == [
        [g for g in cut.generators if dot(n, g) == 0] for n in facets]
    return cut


@settings(max_examples=150, deadline=None)
@given(cut_systems())
def test_cut_equals_the_conversion_of_all_rows(system):
    _check_cut(*system)


def _corpus_weight_systems():
    corpus = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"
    systems = []
    for path in sorted(corpus.glob("*.json")):
        doc = json.loads(path.read_text())
        if "fan" in doc:
            fan = doc["fan"]
            systems.append(cox_weights(make_fan(fan["rays"], fan["cones"])))
        elif "weights" in doc:
            systems.append(weight_system(doc["weights"]["columns"]))
    return systems


def test_cut_gives_every_chamber_of_the_corpus_and_the_prism():
    # each chamber is its first key subset's simplicial cone cut by the
    # facet normals of the other subsets, as vgit builds it, with each
    # facet's tight rays those of the brute-force facets
    systems = _corpus_weight_systems() + [cox_weights(twisted_prism())]
    assert len(systems) == 14
    chambers = 0
    for ws in systems:
        normals_of = dict(ws.simplicial_cones)
        for ch in enumerate_chambers(ws).chambers:
            first = ch.key[0]
            seed = cone_from_generators([c for j, c in enumerate(ws.columns) if first >> j & 1],
                                        ambient_dim=ws.rho)
            rest = [h for m in ch.key[1:] for h in normals_of[m]]
            assert _check_cut(seed, rest) == ch.cone
            chambers += 1
    assert chambers == 79 + 24


def test_cut_refuses_a_cone_that_is_not_pointed_and_full_dimensional():
    for cone in (cone_from_inequalities([(1, 0)]), cone_from_generators([(1, 0)])):
        with pytest.raises(InvariantViolationError, match="pointed, full-dimensional"):
            cut_by_inequalities(cone, [(0, 1)])


def test_conversion_keeps_the_face_of_an_opposite_pair():
    rows = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)]
    c = cone_from_inequalities(rows)
    assert c.generators == ((0, 0, 1), (0, 1, 0)) == tuple(brute_force_rays(rows, 3))
    assert c.equations == ((1, 0, 0),) and not c.lineality


def test_intersect_and_minkowski():
    quad = QUADRANT
    half = cone_from_inequalities([(1, -1)])
    lower = intersect(quad, half)
    assert lower == cone_from_generators([(1, 0), (1, 1)])
    back = minkowski_sum(lower, cone_from_generators([(0, 1)]))
    assert back == quad
    assert intersect(quad, PLANE) == quad
    assert minkowski_sum(quad, ORIGIN) == quad


def test_split_known_counts():
    quad = QUADRANT
    cells = split_by_hyperplanes(quad, [(1, -1)])
    assert len(cells) == 2
    assert sorted(c.mask for c in cells) == [0, 1]
    cells = split_by_hyperplanes(PLANE, [(1, 0), (0, 1)])
    assert len(cells) == 4
    cells = split_by_hyperplanes(PLANE, [(1, 0), (0, 1), (1, -1)])
    assert len(cells) == 6


def test_split_rejects_vanishing_hyperplane():
    line = cone_from_generators([(1, 0), (-1, 0)])
    with pytest.raises(InvariantViolationError):
        split_by_hyperplanes(line, [(0, 1)])


def test_split_signs_are_strict():
    quad = QUADRANT
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
    base = OCTANT
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
