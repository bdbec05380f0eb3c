"""Fans, Cox weight data, Gale duality, quotient fans, unstable loci."""

from __future__ import annotations

from itertools import combinations
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    blown_up_plane,
    cube_fan,
    hirzebruch,
    product_of_lines,
    projective_plane,
    twice_blown_up_plane,
    twisted_prism,
    weighted_plane,
)
from mdsgit.errors import (
    DegenerateLinearizationError,
    DimensionMismatchError,
    EmptySemistableLocusError,
    InputTooLargeError,
    InvalidFanError,
    NonIntegerEntryError,
    RankDeficientWeightsError,
)
from mdsgit import toric
from mdsgit.toric import (
    MAX_TABLE_WORK,
    FanValidation,
    canonicalize_fan,
    cox_weights,
    g_ample_cone,
    gale_dual,
    make_fan,
    quotient_fan_data,
    unstable_locus,
    validate_fan,
    wall_hyperplanes,
    weight_system,
)
from oracles import (
    cones_meet_in_common_face,
    cramer_coefficients,
    facet_sides,
    fraction_rank,
    random_complete_fan,
    simplicial_collection,
    simplicial_table,
    spanned_hyperplanes,
    unstable_supports,
)

LIBRARY = [
    projective_plane,
    product_of_lines,
    cube_fan,
    lambda: hirzebruch(0),
    lambda: hirzebruch(1),
    lambda: hirzebruch(2),
    lambda: hirzebruch(3),
    blown_up_plane,
    twice_blown_up_plane,
    weighted_plane,
]


@pytest.fixture(params=LIBRARY, ids=lambda f: getattr(f, "__name__", "hirzebruch"))
def library_fan(request):
    return request.param()


def test_make_fan_rejects_bad_rays():
    with pytest.raises(InvalidFanError):
        make_fan([(0, 0), (1, 0)], [(0, 1)])
    with pytest.raises(InvalidFanError):
        make_fan([(1, 0), (2, 0)], [(0,), (1,)])  # same primitive ray twice
    with pytest.raises(InvalidFanError):
        make_fan([(1, 0)], [(1,)])  # index out of range


def test_make_fan_rejects_non_integer_entries():
    with pytest.raises(NonIntegerEntryError, match="cone 1 has the entry 1.7"):
        make_fan([(1, 0), (0, 1), (-1, -1)], [(0, 1), (0, 1.7)])
    with pytest.raises(NonIntegerEntryError, match="cone 0 has the entry True"):
        make_fan([(1, 0), (0, 1)], [(0, True)])
    with pytest.raises(NonIntegerEntryError, match="ray 1 has the entry 1.0"):
        make_fan([(1, 0), (0, 1.0)], [(0, 1)])


def test_validate_fan_catches_overlap():
    # two 2d cones overlapping in a 2d region, not a common face
    fan = make_fan([(1, 0), (0, 1), (1, 1), (-1, 2)], [(0, 1), (2, 3)])
    assert validate_fan(fan) == FanValidation(
        False, ("cones (0, 1) and (2, 3) do not meet along their common face ()",), False)


def test_validate_fan_catches_meeting_in_part_of_a_facet():
    # the cones share only e2, yet meet in cone(e2, (1, 1, 0)): part of the
    # facet cone(e1, e2) of the orthant
    fan = make_fan([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 0, -1)],
                   [(0, 1, 2), (1, 3, 4)])
    assert validate_fan(fan) == FanValidation(
        False, ("cones (0, 1, 2) and (1, 3, 4) do not meet along their common face (1,)",), False)
    assert not cones_meet_in_common_face(fan.rays, (0, 1, 2), (1, 3, 4))


def _meeting_issues(rays, cones):
    """The "do not meet" issues the oracle predicts, in validate_fan's order."""
    return tuple(
        f"cones {a} and {b} do not meet along their common face "
        f"{tuple(sorted(set(a) & set(b)))}"
        for a, b in combinations(cones, 2)
        if not cones_meet_in_common_face(rays, a, b)
    )


@st.composite
def simplicial_collections(draw):
    dim = draw(st.integers(2, 4))
    pool = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim).filter(any),
                         min_size=dim, max_size=dim + 3, unique=True))
    index_sets = draw(st.lists(
        st.frozensets(st.integers(0, len(pool) - 1), min_size=1, max_size=dim),
        min_size=2, max_size=4, unique=True))
    return simplicial_collection(pool, index_sets)


@settings(max_examples=150, deadline=None)
@given(simplicial_collections())
def test_validate_fan_against_oracle(collection):
    assume(collection is not None)
    rays, cones = collection
    fan = make_fan(rays, cones)
    expected = _meeting_issues(rays, cones)
    complete = not expected and _covers_the_space(fan)
    assert validate_fan(fan) == FanValidation(not expected, expected, complete)


def test_validate_fan_catches_non_simplicial():
    fan = make_fan([(1, 0), (1, 2), (1, 1)], [(0, 1, 2)])
    assert not validate_fan(fan).ok


def test_library_fans_are_valid(library_fan):
    assert validate_fan(library_fan).ok


def test_completeness(library_fan):
    assert validate_fan(library_fan).complete


def test_incomplete_fan():
    fan = make_fan([(1, 0), (0, 1)], [(0, 1)])
    assert validate_fan(fan) == FanValidation(True, (), False)


# rays winding twice around the origin, each cone (i, i + 1 mod 6) turning
# less than a half turn counterclockwise: every facet (a ray) lies in two
# cones on opposite sides of it, yet every generic point is covered twice
DOUBLE_WINDING = [(1, 0), (-5, 3), (1, -2), (0, 1), (-1, -2), (5, -3)]
WINDING_CONES = [(i, (i + 1) % 6) for i in range(6)]


def _matched_facets(rays, cones) -> bool:
    """Does every facet lie in exactly two cones on opposite sides (oracle determinants)?"""
    return all(sorted(s) == [-1, 1] for s in facet_sides(rays, cones).values())


def _covers_the_space(fan) -> bool:
    """Is a fan whose cones meet face to face complete: full simplicial cones, facets matched?"""
    cones = fan.max_cones
    return bool(cones) and all(len(c) == fan.ambient_dim for c in cones) \
        and _matched_facets(fan.rays, cones)


def test_double_winding_is_caught_by_the_point_alone():
    fan = make_fan(DOUBLE_WINDING, WINDING_CONES)
    assert _matched_facets(fan.rays, fan.max_cones)
    assert validate_fan(fan) == FanValidation(False, (
        "cones (0, 1) and (2, 3) do not meet along their common face ()",
        "cones (0, 1) and (3, 4) do not meet along their common face ()",
        "cones (0, 5) and (2, 3) do not meet along their common face ()",
        "cones (1, 2) and (3, 4) do not meet along their common face ()",
        "cones (1, 2) and (4, 5) do not meet along their common face ()",
        "cones (2, 3) and (4, 5) do not meet along their common face ()",
    ), False)
    assert validate_fan(fan).issues == _meeting_issues(fan.rays, fan.max_cones)


def test_winding_that_turns_back_fails_the_facet_match():
    # (5, 3) in place of (5, -3): cones (0, 1) and (0, 5) both lie above ray 0
    rays = DOUBLE_WINDING[:5] + [(5, 3)]
    fan = make_fan(rays, WINDING_CONES)
    assert facet_sides(fan.rays, fan.max_cones)[(0,)] == [1, 1]
    report = validate_fan(fan)
    assert len(report.issues) == 9 and report.issues == _meeting_issues(fan.rays, fan.max_cones)
    assert report.issues[0] == "cones (0, 1) and (0, 5) do not meet along their common face (0,)"


def test_winding_through_a_ray_is_caught_by_the_closed_point_test():
    # the first cone's ray sum (1, 1) is ray 4, on the boundary of cones (3, 4) and (4, 5)
    rays = [(1, 0), (0, 1), (-3, -1), (1, -2), (1, 1), (-5, 2), (1, -5)]
    fan = make_fan(rays, [(i, (i + 1) % 7) for i in range(7)])
    assert _matched_facets(fan.rays, fan.max_cones)
    report = validate_fan(fan)
    assert len(report.issues) == 7 and report.issues == _meeting_issues(fan.rays, fan.max_cones)


def test_folded_cycle_fails_the_facet_match():
    # turns 720 degrees with two folds; the first cone's ray sum is covered once
    rays = [(-3, -1), (1, -2), (5, 4), (-5, 4), (1, 2), (1, 0), (-1, 5)]
    fan = make_fan(rays, [(i, (i + 1) % 7) for i in range(7)])
    sides = facet_sides(fan.rays, fan.max_cones)
    assert sides[(3,)] == [-1, -1] and sides[(5,)] == [1, 1]
    report = validate_fan(fan)
    assert len(report.issues) == 9 and report.issues == _meeting_issues(fan.rays, fan.max_cones)


def test_suspended_double_winding_is_caught_by_the_point_alone():
    rays = [(x, y, 0) for x, y in DOUBLE_WINDING] + [(0, 0, 1), (0, 0, -1)]
    cones = [c + (pole,) for c in WINDING_CONES for pole in (6, 7)]
    fan = make_fan(rays, cones)
    assert _matched_facets(fan.rays, fan.max_cones)
    report = validate_fan(fan)
    assert len(report.issues) == 24 and report.issues == _meeting_issues(fan.rays, fan.max_cones)


def test_fans_of_dimension_one_and_zero():
    line = make_fan([(1,), (-1,)], [(0,), (1,)])
    assert validate_fan(line) == FanValidation(True, (), True) and toric._facet_certificate(line)
    half_line = make_fan([(1,)], [(0,)])
    assert validate_fan(half_line) == FanValidation(True, (), False)
    assert not toric._facet_certificate(half_line)
    # r = rho: the quotient of a point by the full torus, complete with Picard number 0
    data = quotient_fan_data(weight_system([(1, 0), (0, 1)]), (1, 1))
    assert data.fan == toric.Fan(0, (), ((),)) and data.picard_number == 0
    assert validate_fan(data.fan) == FanValidation(True, (), True)
    assert toric._facet_certificate(data.fan)


def test_complete_fan_with_an_unused_ray():
    fan = make_fan([(1, 0), (0, 1), (-1, -1), (1, 1)], [(0, 1), (0, 2), (1, 2)])
    assert validate_fan(fan) == FanValidation(False, ("ray 3 lies in no cone",), False)


def test_dependent_cones():
    # the four quadrants and the flat cone of e1 and -e1; and that flat cone alone
    fan = make_fan([(1, 0), (0, 1), (-1, 0), (0, -1)], [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    assert validate_fan(fan) == FanValidation(False, ("cone (0, 2) is not simplicial: rays are dependent",), False)
    fan = make_fan([(1, 0), (-1, 0)], [(0, 1)])
    assert validate_fan(fan) == FanValidation(False, ("cone (0, 1) is not simplicial: rays are dependent",), False)


def test_certificate_and_pairwise_path_agree_on_library_fans(library_fan):
    assert toric._facet_certificate(library_fan)
    assert toric._pairwise_issues(library_fan) == []


def test_certificate_and_pairwise_path_agree_on_prism4_quotients():
    from mdsgit.vgit import enumerate_chambers

    cx = enumerate_chambers(cox_weights(twisted_prism(((1, 0), (0, 1), (-1, 0), (0, -1)))))
    fans = [cx.quotient(i).fan for i in range(len(cx.chambers))]
    assert len(fans) == 148
    assert [i for i, fan in enumerate(fans) if not toric._facet_certificate(fan)] == []
    assert [i for i, fan in enumerate(fans) if toric._pairwise_issues(fan)] == []


def _mutant(rng, rays, cones, kind):
    """rays and cones with one ray moved, one cone dropped or one cone added.

    Kept only when every cone is simplicial and every ray is in a cone, so
    that the only issues validate_fan may find are pairs that do not meet;
    None when no such mutant turned up in a few tries.
    """
    dim = len(rays[0])
    for _ in range(20):
        new_rays, new_cones = list(rays), list(cones)
        if kind == "move":
            moved = tuple(rng.randint(-2, 2) for _ in range(dim))
            if not any(moved):
                continue
            new_rays[rng.randrange(len(rays))] = moved
        elif kind == "drop":
            new_cones.pop(rng.randrange(len(cones)))
        else:
            new_cones.append(tuple(sorted(rng.sample(range(len(rays)), dim))))
        if len(set(new_cones)) != len(new_cones) \
                or set().union(*new_cones) != set(range(len(rays))) \
                or any(fraction_rank([new_rays[i] for i in c]) < dim for c in new_cones):
            continue
        try:
            return make_fan(new_rays, new_cones)
        except InvalidFanError:  # the moved ray is parallel to another
            continue
    return None


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 3),
       st.sampled_from(["move", "drop", "add"]))
def test_random_complete_fans_and_mutants(rng, steps, kind):
    rays, cones = random_complete_fan(rng, steps)
    fan = make_fan(rays, cones)
    assert validate_fan(fan) == FanValidation(True, (), True)
    assert toric._facet_certificate(fan)
    mutant = _mutant(rng, fan.rays, fan.max_cones, kind)
    if mutant is not None:
        expected = _meeting_issues(mutant.rays, mutant.max_cones)
        complete = not expected and _covers_the_space(mutant)
        assert validate_fan(mutant) == FanValidation(not expected, expected, complete)


def test_canonicalize_is_idempotent(library_fan):
    once = canonicalize_fan(library_fan)
    assert canonicalize_fan(once) == once
    assert validate_fan(once).ok
    assert len(once.rays) == len(library_fan.rays)


def test_cox_weights_frozen():
    assert cox_weights(projective_plane()).columns == ((1,), (1,), (1,))
    assert cox_weights(weighted_plane()).columns == ((1,), (2,), (1,))
    assert cox_weights(blown_up_plane()).columns == (
        (1, -1), (1, -1), (1, 0), (0, 1),
    )
    assert cox_weights(twice_blown_up_plane()).columns == (
        (1, -1, 1), (1, -1, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
    )
    ws = cox_weights(hirzebruch(2))
    assert ws.columns == ((1, 0), (-2, 1), (1, 0), (0, 1))


def test_cox_weights_exactness(library_fan):
    # weight columns annihilate the ray matrix: sum_i v_i[k] * chi_i = 0
    ws = cox_weights(library_fan)
    d = library_fan.ambient_dim
    for k in range(d):
        total = (0,) * ws.rho
        for ray, chi in zip(library_fan.rays, ws.columns):
            total = tuple(t + ray[k] * c for t, c in zip(total, chi))
        assert total == (0,) * ws.rho
    assert ws.rho == len(library_fan.rays) - d
    assert ws.torsion == ()


def test_cox_weights_surjective(library_fan):
    # the free class group is exactly Z^rho: all elementary divisors are 1
    from mdsgit.linalg import smith_normal_form

    ws = cox_weights(library_fan)
    rows = [[c[i] for c in ws.columns] for i in range(ws.rho)]
    d, _, _ = smith_normal_form(rows)
    assert all(d[i][i] == 1 for i in range(ws.rho))


def test_torsion_class_group():
    fan = make_fan([(1, 2), (1, 0), (-1, 0)], [(0, 1), (0, 2)])
    ws = cox_weights(fan)
    assert ws.rho == 1 and ws.torsion == (2,)
    assert ws.columns == ((0,), (1,), (1,))


def test_rho_zero_rejected():
    fan = make_fan([(1, 0), (0, 1)], [(0, 1)])
    with pytest.raises(InvalidFanError):
        cox_weights(fan)


def test_gale_round_trip(library_fan):
    # the library fans sit in the canonical basis already, so the Gale dual
    # of the Cox weights returns the input rays verbatim
    ws = cox_weights(library_fan)
    assert gale_dual(ws) == canonicalize_fan(library_fan).rays


def test_wall_hyperplanes_frozen():
    assert wall_hyperplanes(cox_weights(projective_plane())) == ((1,),)
    assert wall_hyperplanes(cox_weights(blown_up_plane())) == (
        (0, 1), (1, 0), (1, 1),
    )
    assert wall_hyperplanes(cox_weights(twice_blown_up_plane())) == (
        (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, -1), (1, 0, 0), (1, 1, 0),
    )


def test_g_ample_cone():
    ws = cox_weights(blown_up_plane())
    cone = g_ample_cone(ws)
    assert cone.generators == ((0, 1), (1, -1))
    assert cone.dim == 2 and not cone.lineality


def test_quotient_round_trip(library_fan):
    from mdsgit.mori import nef_chamber
    from mdsgit.vgit import enumerate_chambers

    ws = cox_weights(library_fan)
    cx = enumerate_chambers(ws)
    rep = nef_chamber(cx, library_fan).representative
    rep = tuple(int(x) for x in rep)
    assert canonicalize_fan(quotient_fan_data(ws, rep).fan) == canonicalize_fan(library_fan)


def test_quotient_divisorial_side_is_plane():
    ws = cox_weights(blown_up_plane())
    qf = quotient_fan_data(ws, (1, 1)).fan
    assert canonicalize_fan(qf) == canonicalize_fan(projective_plane())


def test_quotient_rejects_degenerate_characters():
    ws = cox_weights(blown_up_plane())
    with pytest.raises(EmptySemistableLocusError):
        quotient_fan_data(ws, (-1, 0))
    with pytest.raises(DegenerateLinearizationError):
        quotient_fan_data(ws, (1, 0))  # on the interior wall
    with pytest.raises(DegenerateLinearizationError):
        quotient_fan_data(ws, (0, 1))  # on the boundary of the ample cone
    # (2, -1) is a chamber character; (2.5, -1) must not be read as it
    for call in (quotient_fan_data, unstable_locus):
        with pytest.raises(NonIntegerEntryError, match="character has the entry 2.5"):
            call(ws, (2.5, -1))
        with pytest.raises(NonIntegerEntryError, match="character has the entry True"):
            call(ws, (True, -1))


@st.composite
def weights_and_character(draw, min_rho=2, max_rho=4, chi_bound=3):
    rho = draw(st.integers(min_rho, max_rho))
    r = draw(st.integers(rho, 6))
    column = st.tuples(*[st.integers(-2, 2)] * rho)
    columns = draw(st.lists(column, min_size=r, max_size=r))
    chi = draw(st.tuples(*[st.integers(-chi_bound, chi_bound)] * rho))
    return columns, chi


@settings(max_examples=60, deadline=None)
@given(weights_and_character())
def test_walls_and_quotients_against_oracles(case):
    columns, chi = case
    coefficients = cramer_coefficients(columns, chi)
    assume(coefficients)  # full rank
    ws = weight_system(columns)
    hyperplanes = spanned_hyperplanes(columns, len(chi))
    assert list(wall_hyperplanes(ws)) == hyperplanes
    semistable = any(min(x) >= 0 for x in coefficients.values())
    if not semistable:
        with pytest.raises(EmptySemistableLocusError):
            quotient_fan_data(ws, chi)
    elif any(min(x) == 0 for x in coefficients.values()):
        # on the boundary of a closed table cone: a wall, E's boundary or a smaller face
        with pytest.raises(DegenerateLinearizationError):
            quotient_fan_data(ws, chi)
    else:
        data = quotient_fan_data(ws, chi)
        cones = {tuple(data.used_columns[i] for i in c) for c in data.fan.max_cones}
        assert cones == {
            tuple(j for j in range(ws.r) if j not in subset)
            for subset, x in coefficients.items()
            if min(x) > 0
        }


@st.composite
def degenerate_columns(draw):
    """1 to 8 columns of length 1 to 5, some zero, parallel or all in one hyperplane."""
    rho = draw(st.integers(1, 5))
    r = draw(st.integers(1, 8))
    column = st.tuples(*[st.integers(-3, 3)] * rho)
    columns = draw(st.lists(column, min_size=r, max_size=r))
    index = st.integers(0, r - 1)
    for i in draw(st.lists(index, max_size=2)):
        columns[i] = (0,) * rho
    for i, j, k in draw(st.lists(st.tuples(index, index, st.sampled_from([-2, -1, 2])),
                                 max_size=2)):
        columns[i] = tuple(k * x for x in columns[j])
    if rho > 1 and draw(st.booleans()):
        columns = [c[:-1] + (c[0],) for c in columns]  # rank below rho
    return columns


@settings(max_examples=150, deadline=None)
@given(degenerate_columns())
def test_simplicial_table_against_oracle(columns):
    assert weight_system(columns).simplicial_cones == simplicial_table(columns)


@st.composite
def weights_and_positive_character(draw):
    # chi is a positive combination of the columns, so few draws miss a chamber
    columns, _ = draw(weights_and_character())
    multipliers = draw(st.lists(st.integers(1, 20), min_size=len(columns),
                                max_size=len(columns)))
    chi = tuple(sum(m * c[i] for m, c in zip(multipliers, columns))
                for i in range(len(columns[0])))
    return columns, chi


@settings(max_examples=60, deadline=None)
@given(weights_and_positive_character())
def test_quotient_fans_against_oracle(case):
    columns, chi = case
    coefficients = cramer_coefficients(columns, chi)
    assume(any(min(x) > 0 for x in coefficients.values()))  # full rank, semistable
    assume(all(min(x) != 0 for x in coefficients.values()))  # inside a chamber
    data = quotient_fan_data(weight_system(columns), chi)
    fan = data.fan
    complete = _covers_the_space(fan)
    assert validate_fan(fan) == FanValidation(True, (), complete)
    assert data.picard_number == (len(fan.rays) - fan.ambient_dim if complete else None)
    assert _meeting_issues(fan.rays, fan.max_cones) == ()


def test_unstable_locus_frozen():
    ws = cox_weights(blown_up_plane())
    at_nef = unstable_locus(ws, (2, -1))
    assert at_nef.min_codim == 2 and at_nef.strata == ((0, 1), (2, 3))
    off_nef = unstable_locus(ws, (1, 1))
    assert off_nef.min_codim == 1 and off_nef.strata == ((0, 1, 2), (3,))


@settings(max_examples=80, deadline=None)
@given(weights_and_character(min_rho=1, max_rho=3, chi_bound=9))
def test_unstable_locus_against_oracle(case):
    columns, chi = case
    coefficients = cramer_coefficients(columns, chi)
    assume(coefficients)  # full rank
    assume(all(min(x) != 0 for x in coefficients.values()))  # inside a chamber or outside E
    report = unstable_locus(weight_system(columns), chi)
    expected = unstable_supports(columns, chi)
    assert list(report.strata) == expected
    assert report.min_codim == min(len(columns) - len(s) for s in expected)


def test_unstable_locus_contracts(monkeypatch):
    ws = cox_weights(blown_up_plane())
    outside = unstable_locus(ws, (-1, 0))
    assert outside.strata == ((0, 1, 2, 3),) and outside.min_codim == 0
    assert list(outside.strata) == unstable_supports(ws.columns, (-1, 0))
    for chi in ((1, 0), (0, 1), (0, 0)):  # interior wall, boundary, zero
        with pytest.raises(DegenerateLinearizationError):
            unstable_locus(ws, chi)
    with pytest.raises(RankDeficientWeightsError):
        unstable_locus(weight_system([(1, 0), (2, 0), (-1, 0)]), (1, 0))

    # the strata come from the simplicial-cone table, never from a cone
    def no_cones(*args, **kwargs):
        raise AssertionError("unstable_locus built a cone")

    cube = cox_weights(cube_fan())
    monkeypatch.setattr("mdsgit.toric.cone_from_generators", no_cones)
    monkeypatch.setattr("mdsgit.cones.Cone.contains", no_cones)
    assert unstable_locus(cube, (1, 1, 1)).min_codim == 2


def test_weight_system_validation():
    ws = weight_system([(1, 0), (0, 1), (-1, -1)])
    assert ws.rho == 2 and ws.r == 3
    with pytest.raises(DimensionMismatchError):
        weight_system([(1, 0), (0,)])  # ragged
    with pytest.raises(DimensionMismatchError):
        weight_system([])
    with pytest.raises(NonIntegerEntryError, match="weight column 0 has the entry 1.5"):
        weight_system([(1.5,), (1,), (-1,)])
    with pytest.raises(NonIntegerEntryError, match="weight column 1 has the entry False"):
        weight_system([(1,), (False,), (-1,)])
    with pytest.raises(NonIntegerEntryError, match="torsion has the entry 2.5"):
        weight_system([(1,), (1,), (-1,)], torsion=[2.5])


def test_simplicial_table_refuses_oversized_systems(monkeypatch):
    # 20 columns of rank 5 are just under the bound and 21 just over it
    assert comb(20, 5) * 5**4 <= MAX_TABLE_WORK < comb(21, 5) * 5**4

    class Walked(Exception):
        pass

    def walked(*args):
        raise Walked

    monkeypatch.setattr(toric, "combinations", walked)
    moment_curve = [tuple(j**k for k in range(5)) for j in range(21)]
    with pytest.raises(InputTooLargeError, match="at most 16000 are accepted at rank 5"):
        weight_system(moment_curve).simplicial_cones
    with pytest.raises(Walked):
        weight_system(moment_curve[:20]).simplicial_cones
