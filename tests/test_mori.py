"""Moving cone, nef chamber, wall crossings, boundary contractions, factoring."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings

from conftest import (
    blown_up_plane,
    cube_fan,
    flop_weights,
    full_rank_columns,
    hirzebruch,
    product_of_lines,
    projective_plane,
    projective_plane_minus_a_cone,
    twice_blown_up_plane,
    weighted_plane,
)
from mdsgit.cones import cone_from_generators, cone_from_inequalities, intersect, minkowski_sum
from mdsgit.errors import (
    DegenerateLinearizationError,
    InvariantViolationError,
    NonIntegerEntryError,
)
from mdsgit.mori import (
    classify_boundary_facet,
    classify_wall,
    enumerate_sqms,
    factor_contraction,
    mori_chamber_data,
    moving_cone,
    nef_chamber,
)
from mdsgit.linalg import identity_rows
from mdsgit.toric import cox_weights, g_ample_cone, quotient_fan_data, weight_system
from mdsgit.vgit import chamber_of, enumerate_chambers
from oracles import crossing_issues, quotient_cones, table_keys

COMPLETE_FANS = [
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


@pytest.fixture(params=COMPLETE_FANS, ids=lambda f: getattr(f, "__name__", "hirzebruch"))
def complete_fan(request):
    return request.param()


def test_effective_cone_is_column_hull():
    ws = cox_weights(blown_up_plane())
    assert g_ample_cone(ws).generators == ((0, 1), (1, -1))


def test_picard_number():
    # rays - dim at the nef chamber of a complete fan; None for the flop's incomplete quotients
    for fan, rho in ((projective_plane(), 1), (twice_blown_up_plane(), 3)):
        cx = enumerate_chambers(cox_weights(fan))
        assert cx.quotient(nef_chamber(cx, fan).id).picard_number == rho
    cx = enumerate_chambers(flop_weights())
    assert [cx.quotient(ch.id).picard_number for ch in cx.chambers] == [None, None]


def test_moving_cone_frozen():
    cx = enumerate_chambers(cox_weights(blown_up_plane()))
    mov = moving_cone(cx)
    assert mov.cone.generators == ((1, -1), (1, 0))
    assert mov.chamber_ids == (1,)
    cx = enumerate_chambers(cox_weights(twice_blown_up_plane()))
    mov = moving_cone(cx)
    assert mov.cone.generators == ((1, -1, 1), (1, 0, 0), (1, 0, 1))
    assert mov.chamber_ids == (4,)


def test_moving_cone_of_flop_is_everything():
    cx = enumerate_chambers(flop_weights())
    mov = moving_cone(cx)
    assert mov.cone.lineality == ((1,),)
    assert mov.chamber_ids == (0, 1)


def test_moving_cone_equals_drop_one_intersection(complete_fan):
    ws = cox_weights(complete_fan)
    cx = enumerate_chambers(ws)
    mov = moving_cone(cx)
    oracle = None
    for i in range(ws.r):
        others = [c for j, c in enumerate(ws.columns) if j != i]
        cone = cone_from_generators(others, ambient_dim=ws.rho)
        oracle = cone if oracle is None else intersect(oracle, cone)
    assert mov.cone == oracle


def test_nef_chamber(complete_fan):
    ws = cox_weights(complete_fan)
    cx = enumerate_chambers(ws)
    ch = nef_chamber(cx, complete_fan)
    data = mori_chamber_data(cx, ch.id)
    assert data.dropped_columns == ()
    assert data.picard_number == len(complete_fan.rays) - complete_fan.ambient_dim
    assert data.in_moving_cone


def test_nef_chamber_rejects_foreign_fan():
    ws = cox_weights(blown_up_plane())
    cx = enumerate_chambers(ws)
    with pytest.raises(DegenerateLinearizationError):
        nef_chamber(cx, projective_plane())  # wrong number of rays


def _meet_of_complement_cones(ws, fan):
    """The nef cone as a meet: pos(columns outside sigma), intersected over maximal sigma."""
    meet = None
    for sigma in fan.max_cones:
        piece = cone_from_generators(
            [c for j, c in enumerate(ws.columns) if j not in sigma], ambient_dim=ws.rho
        )
        meet = piece if meet is None else intersect(meet, piece)
    return meet


def test_nef_chamber_is_the_one_chamber_with_the_fan_key(complete_fan):
    # complete_fan runs the same ten fans as library_fan in test_toric.py
    fan = complete_fan
    ws = cox_weights(fan)
    cx = enumerate_chambers(ws)
    nef = nef_chamber(cx, fan).id
    complements = [tuple(i for i in range(ws.r) if i not in sigma) for sigma in fan.max_cones]
    keys = table_keys(ws.columns, [ch.representative for ch in cx.chambers])
    assert [i for i, key in enumerate(keys) if key == frozenset(complements)] == [nef]
    meet = _meet_of_complement_cones(ws, fan)
    assert [ch.id for ch in cx.chambers if ch.cone == meet] == [nef]


def test_nef_chamber_refuses_a_fan_no_chamber_gives():
    fan = projective_plane_minus_a_cone()
    ws = cox_weights(fan)
    cx = enumerate_chambers(ws)
    # the meet of the complement cones is P^2's chamber, whose key has one more subset
    assert [ch.cone for ch in cx.chambers] == [_meet_of_complement_cones(ws, fan)]
    with pytest.raises(DegenerateLinearizationError, match="no single chamber has this fan"):
        nef_chamber(cx, fan)


def test_sqms_flop():
    cx = enumerate_chambers(flop_weights())
    assert enumerate_sqms(cx, 0) == (0, 1)
    assert enumerate_sqms(cx, 1) == (0, 1)
    d0 = mori_chamber_data(cx, 0)
    d1 = mori_chamber_data(cx, 1)
    assert d0.used_columns == d1.used_columns == (0, 1, 2, 3)
    assert d0.quotient.max_cones != d1.quotient.max_cones
    assert d0.picard_number is None  # quotients are not complete


def test_sqms_surface_is_rigid():
    # surfaces admit no small modifications: the nef chamber is alone
    fan = twice_blown_up_plane()
    cx = enumerate_chambers(cox_weights(fan))
    nef = nef_chamber(cx, fan)
    assert enumerate_sqms(cx, nef.id) == (nef.id,)


def test_mori_chamber_data_frozen():
    cx = enumerate_chambers(cox_weights(twice_blown_up_plane()))
    rows = [
        (0, 1, False, (0, 1, 2), (3, 4)),
        (1, 2, False, (0, 1, 2, 3), (4,)),
        (2, 2, False, (0, 1, 2, 4), (3,)),
        (3, 2, False, (0, 2, 3, 4), (1,)),
        (4, 3, True, (0, 1, 2, 3, 4), ()),
    ]
    for cid, rho, in_mov, used, dropped in rows:
        d = mori_chamber_data(cx, cid)
        assert d.picard_number == rho
        assert d.in_moving_cone == in_mov
        assert d.used_columns == used
        assert d.dropped_columns == dropped


def test_minkowski_identity(complete_fan):
    ws = cox_weights(complete_fan)
    cx = enumerate_chambers(ws)
    for ch in cx.chambers:
        d = mori_chamber_data(cx, ch.id)
        dropped = cone_from_generators(
            [ws.columns[i] for i in d.dropped_columns], ambient_dim=ws.rho
        )
        assert minkowski_sum(d.pulled_back_nef, dropped) == ch.cone


def test_wall_classification_frozen():
    cx = enumerate_chambers(cox_weights(blown_up_plane()))
    c = classify_wall(cx, cx.walls[0])
    assert c.kind == "divisorial"
    assert c.picard_delta == -1
    assert c.contracted_columns == (3,)

    cx = enumerate_chambers(flop_weights())
    c = classify_wall(cx, cx.walls[0])
    assert c.kind == "small"
    assert c.picard_delta == 0
    assert c.contracted_columns == ()


def exchange_weights():
    # columns 0 and 2 have the same Gale ray: both sides give the fan {(1), (-1)}
    return weight_system([(1, 0), (1, 1), (0, 1)])


# one input per wall kind: its only wall, classified left to right, and a
# factorization from the left chamber's representative to the right one's
WALL_KINDS = {
    "small": (flop_weights, 0, ()),
    "divisorial": (lambda: cox_weights(blown_up_plane()), -1, (3,)),
    "exchange": (exchange_weights, 0, (0, 2)),
}


@pytest.fixture(params=sorted(WALL_KINDS))
def wall_kind(request):
    make, delta, contracted = WALL_KINDS[request.param]
    return request.param, enumerate_chambers(make()), delta, contracted


def test_each_wall_kind(wall_kind):
    kind, cx, delta, contracted = wall_kind
    (wall,) = cx.walls
    c = classify_wall(cx, wall)
    assert (c.kind, c.picard_delta, c.contracted_columns) == (kind, delta, contracted)
    assert c.rays_before == cx.quotient(wall.left).used_columns
    assert c.rays_after == cx.quotient(wall.right).used_columns
    f = factor_contraction(cx, cx.chambers[wall.left].representative,
                           cx.chambers[wall.right].representative)
    assert f.chambers == (wall.left, wall.right)
    assert f.crossings == (c,)
    back = factor_contraction(cx, cx.chambers[wall.right].representative,
                              cx.chambers[wall.left].representative)
    (r,) = back.crossings
    assert (r.kind, r.picard_delta, r.contracted_columns) == (kind, -delta, contracted)


def test_exchange_wall_keeps_the_quotient():
    ws = exchange_weights()
    cx = enumerate_chambers(ws)
    (wall,) = cx.walls
    left, right = (cx.chambers[i].representative for i in (wall.left, wall.right))
    assert quotient_cones(ws.columns, left) == quotient_cones(ws.columns, right)
    assert cx.quotient(wall.left).dropped_columns == (2,)
    assert cx.quotient(wall.right).dropped_columns == (0,)


def test_classify_wall_refuses_other_column_changes():
    # an exchange needs equal fans and one column dropped on each side
    cx = enumerate_chambers(exchange_weights())
    (wall,) = cx.walls
    assert (cx.used_columns(wall.left), cx.used_columns(wall.right)) == ((0, 1), (1, 2))
    # classify_wall reads the chambers' keys.  A right key of the one
    # subset {0} keeps columns 1 and 2, but as the single cone {(1), (-1)};
    # one of the one subset {0, 1, 2} drops both of the left's columns and
    # adds none
    for fake in ((0b001,), (0b111,)):
        chambers = list(cx.chambers)
        chambers[wall.right] = replace(chambers[wall.right], key=fake)
        with pytest.raises(InvariantViolationError, match="changes 2 columns"):
            classify_wall(replace(cx, chambers=tuple(chambers)), wall)


def test_wall_invariants(complete_fan):
    ws = cox_weights(complete_fan)
    cx = enumerate_chambers(ws)
    for w in cx.walls:
        c = classify_wall(cx, w)
        before, after = set(c.rays_before), set(c.rays_after)
        if c.kind == "small":
            assert before == after
            assert c.picard_delta == 0
            assert c.contracted_columns == ()
        else:
            # Cox weights have distinct Gale rays, so no wall is an exchange
            assert c.kind == "divisorial"
            assert len(before.symmetric_difference(after)) == 1
            assert abs(c.picard_delta) == 1
            assert len(c.contracted_columns) == 1


def test_boundary_contractions_frozen():
    fan = blown_up_plane()
    cx = enumerate_chambers(cox_weights(fan))
    got = [classify_boundary_facet(cx, i) for i in range(len(cx.boundary_facets))]
    data = [(b.chamber, b.character, b.quotient_dim, b.fiber_dim) for b in got]
    assert data == [
        (0, (0, 1), 0, 2),  # everything collapses to a point
        (1, (1, -1), 1, 1),  # ruling onto a line
    ]

    cx = enumerate_chambers(cox_weights(twice_blown_up_plane()))
    got = [classify_boundary_facet(cx, i) for i in range(len(cx.boundary_facets))]
    data = [(b.chamber, b.character, b.quotient_dim, b.fiber_dim) for b in got]
    assert data == [
        (0, (0, 1, 1), 0, 2),
        (1, (1, -1, 2), 1, 1),
        (2, (1, 1, 0), 1, 1),
        (3, (2, -1, 0), 1, 1),
        (3, (2, -2, 1), 1, 1),
    ]


def test_boundary_dimensions_add_up(complete_fan):
    fan = complete_fan
    cx = enumerate_chambers(cox_weights(fan))
    for i in range(len(cx.boundary_facets)):
        b = classify_boundary_facet(cx, i)
        assert 0 <= b.quotient_dim < fan.ambient_dim
        assert b.quotient_dim + b.fiber_dim == fan.ambient_dim


def test_factor_blowdown():
    cx = enumerate_chambers(cox_weights(blown_up_plane()))
    f = factor_contraction(cx, (2, -1), (1, 1))
    assert f.chambers == (1, 0)
    assert f.crossing_times == (Fraction(1, 2),)
    assert f.crossings[0].kind == "divisorial"
    assert f.crossings[0].contracted_columns == (3,)


def test_factor_flop():
    cx = enumerate_chambers(flop_weights())
    f = factor_contraction(cx, (-3,), (5,))
    assert f.chambers == (0, 1)
    assert f.crossing_times == (Fraction(3, 8),)
    assert f.crossings[0].kind == "small"


def test_factor_trivial_and_degenerate():
    cx = enumerate_chambers(cox_weights(blown_up_plane()))
    f = factor_contraction(cx, (2, -1), (3, -1))
    assert f.chambers == (1,) and not f.crossings
    with pytest.raises(DegenerateLinearizationError):
        factor_contraction(cx, (1, 0), (1, 1))  # source on a wall


def test_factor_rejects_non_integer_characters():
    # both endpoints would truncate into chamber 0 and give a one-chamber path
    cx = enumerate_chambers(cox_weights(blown_up_plane()))
    with pytest.raises(NonIntegerEntryError, match="character has the entry 2.9"):
        factor_contraction(cx, (2.9, 1.2), (1, 3))
    with pytest.raises(NonIntegerEntryError, match="character has the entry 3.5"):
        factor_contraction(cx, (1, 3), (2, 3.5))


def test_factor_all_pairs():
    cx = enumerate_chambers(cox_weights(twice_blown_up_plane()))
    reps = [tuple(int(x) for x in ch.representative) for ch in cx.chambers]
    for a, b in permutations(range(len(reps)), 2):
        f = factor_contraction(cx, reps[a], reps[b])
        assert f.chambers[0] == a and f.chambers[-1] == b
        assert len(f.chambers) == len(f.crossings) + 1
        assert crossing_issues(cx, reps[a], reps[b], f) == []
        for left, right, c in zip(f.chambers, f.chambers[1:], f.crossings):
            assert {c.wall.left, c.wall.right} == {left, right}
    # the segment from chamber 0 to chamber 4 passes through the ray (1, 0, 1)
    f = factor_contraction(cx, reps[0], reps[4])
    assert f.chambers == (0, 2, 4)
    assert f.crossing_times == (Fraction(1, 2), Fraction(1, 2))


def test_factor_resolves_tied_crossings():
    # the midpoint (4, 4, 4) of this segment lies on three hyperplanes at
    # once; the walk breaks the tie exactly and crosses three walls there
    ws = weight_system([(1, 0, 0), (0, 1, 0), (0, 0, 1),
                        (1, 1, 0), (1, 0, 1), (0, 1, 1)])
    cx = enumerate_chambers(ws)
    f = factor_contraction(cx, (7, 4, 2), (1, 4, 6))
    assert f.chambers[0] == chamber_of(cx, (7, 4, 2)).chamber
    assert f.chambers[-1] == chamber_of(cx, (1, 4, 6)).chamber
    assert len(f.crossings) == 5
    assert f.crossing_times == tuple(Fraction(t) for t in ("1/10", "1/2", "1/2", "1/2", "9/10"))
    assert crossing_issues(cx, (7, 4, 2), (1, 4, 6), f) == []
    assert [c.kind for c in f.crossings] == [
        "divisorial", "small", "small", "small", "divisorial",
    ]


def _fan_read_kind(ws, left, right):
    """The wall kind read off both sides' built quotient fans, or None for a refusal."""
    before = quotient_fan_data(ws, left).used_columns
    after = quotient_fan_data(ws, right).used_columns
    traded = set(before) ^ set(after)
    if len(traded) < 2:
        return ("small", "divisorial")[len(traded)]
    same = quotient_cones(ws.columns, left) == quotient_cones(ws.columns, right)
    return "exchange" if len(traded) == 2 and len(before) == len(after) and same else None


@settings(max_examples=80, deadline=None)
@example([(1, 0), (1, 1), (0, 1)])  # one exchange wall
@example([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1), (-2, 1, 1)])  # 9 chambers, 15 cells
@example([(1,), (1,), (-1,), (-1,)])  # the flop
@given(full_rank_columns())
def test_key_read_data_matches_built_fans(cols):
    ws = weight_system(cols)
    cx = enumerate_chambers(ws)
    reps = [ch.representative for ch in cx.chambers]
    for ch in cx.chambers:
        assert cx.used_columns(ch.id) == quotient_fan_data(ws, ch.representative).used_columns
    for w in cx.walls:
        expected = _fan_read_kind(ws, reps[w.left], reps[w.right])
        if expected is None:
            with pytest.raises(InvariantViolationError, match="changes 2 columns"):
                classify_wall(cx, w)
        else:
            assert classify_wall(cx, w).kind == expected
    # a chamber's oracle cones use every column when they hold r distinct rays
    using_every = tuple(
        i for i, rep in enumerate(reps) if len(set().union(*quotient_cones(cols, rep))) == ws.r
    )
    assert moving_cone(cx).chamber_ids == using_every
    assert not cx._quotients  # keys alone: the complex built no quotient fan


def _lifted_quotient_dim(columns, chi):
    """dim {(a, t) >= 0 : sum a_i column_i = t chi} - 1, by one cone conversion."""
    r = len(columns)
    equations = [tuple([c[j] for c in columns] + [-chi[j]]) for j in range(len(chi))]
    return cone_from_inequalities(identity_rows(r + 1), equations, ambient_dim=r + 1).dim - 1


@settings(max_examples=80, deadline=None)
@example([(1,), (2,), (1,)])  # rank 1, pointed: the zero facet
@example([(1,), (0,), (2,)])  # the zero facet with a zero column on it
@example([(1, 0), (-1, 0), (0, 1)])  # a half-plane: the facet is a line
@given(full_rank_columns(max_rho=4))
def test_boundary_count_matches_the_lifted_cone(cols):
    ws = weight_system(cols)
    cx = enumerate_chambers(ws)
    for i in range(len(cx.boundary_facets)):
        b = classify_boundary_facet(cx, i)
        assert b.quotient_dim == _lifted_quotient_dim(cols, b.character)
        assert b.quotient_dim + b.fiber_dim == ws.r - ws.rho
