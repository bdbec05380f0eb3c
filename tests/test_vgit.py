"""Chamber enumeration, walls, boundary facets, location, cover checks."""

from __future__ import annotations

from dataclasses import replace
from functools import cmp_to_key
from itertools import combinations
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    blown_up_plane,
    cube_fan,
    flop_weights,
    full_rank_columns,
    hirzebruch,
    product_of_lines,
    projective_plane,
    twice_blown_up_plane,
    weighted_plane,
)
from mdsgit.errors import (
    InvariantViolationError,
    NonIntegerEntryError,
    RankDeficientWeightsError,
)
from mdsgit.linalg import dot, rank_of, vneg
from mdsgit.mori import classify_wall, factor_contraction
from mdsgit.cones import cone_from_generators, cone_from_inequalities
from mdsgit.toric import (
    cox_weights,
    g_ample_cone,
    make_fan,
    quotient_fan_data,
    wall_hyperplanes,
    weight_system,
)
from mdsgit.vgit import (
    Wall,
    _facet_point,
    _key_at,
    _neighbour_reader,
    chamber_of,
    enumerate_chambers,
    verify_disjoint_cover,
)
from oracles import (
    count_chambers_bruteforce,
    crossing_issues,
    grouped_cells,
    quotient_cones,
    spanning_subsets,
    surface_walls,
    table_keys,
)

CHAMBER_COUNTS = [
    (projective_plane, 1),
    (product_of_lines, 1),
    (cube_fan, 1),
    (lambda: hirzebruch(0), 1),
    (lambda: hirzebruch(1), 2),
    (lambda: hirzebruch(2), 2),
    (lambda: hirzebruch(3), 2),
    (blown_up_plane, 2),
    (twice_blown_up_plane, 5),
    (weighted_plane, 1),
]


@pytest.mark.parametrize("fan_maker,expected", CHAMBER_COUNTS)
def test_chamber_counts_frozen(fan_maker, expected):
    cx = enumerate_chambers(cox_weights(fan_maker()))
    assert len(cx.chambers) == expected


@pytest.mark.parametrize("fan_maker,expected", CHAMBER_COUNTS)
def test_chamber_counts_against_bruteforce(fan_maker, expected):
    ws = cox_weights(fan_maker())
    count = count_chambers_bruteforce(
        wall_hyperplanes(ws), g_ample_cone(ws).inequalities, ws.rho
    )
    assert count == expected


def test_blowup_chamber_generators():
    cx = enumerate_chambers(cox_weights(blown_up_plane()))
    gen_sets = sorted(sorted(ch.cone.generators) for ch in cx.chambers)
    assert gen_sets == [[(0, 1), (1, 0)], [(1, -1), (1, 0)]]


def test_twice_blown_up_chambers_frozen():
    cx = enumerate_chambers(cox_weights(twice_blown_up_plane()))
    assert len(cx.chambers) == 5
    assert len(cx.walls) == 5
    assert len(cx.boundary_facets) == 5
    assert [ch.cone.generators for ch in cx.chambers] == [
        ((0, 0, 1), (0, 1, 0), (1, 0, 1)),
        ((0, 0, 1), (1, -1, 1), (1, 0, 1)),
        ((0, 1, 0), (1, 0, 0), (1, 0, 1)),
        ((1, -1, 0), (1, -1, 1), (1, 0, 0)),
        ((1, -1, 1), (1, 0, 0), (1, 0, 1)),
    ]


def test_flop_weights():
    cx = enumerate_chambers(flop_weights())
    assert len(cx.chambers) == 2
    assert len(cx.walls) == 1
    assert not cx.boundary_facets  # the ample cone is the whole line


def test_representatives_are_interior():
    cx = enumerate_chambers(cox_weights(twice_blown_up_plane()))
    for ch in cx.chambers:
        assert ch.cone.contains(ch.representative) == "interior"
        assert quotient_fan_data(cx.weights, ch.representative).interior == ch.key


def _tight(cone, *normals):
    """The cone's generators on which every given normal vanishes."""
    return [g for g in cone.generators if all(dot(n, g) == 0 for n in normals)]


def _face(cx, chamber, normal):
    """A chamber's facet with the given inward normal, converted from its tight generators."""
    return cone_from_generators(_tight(cx.chambers[chamber].cone, normal),
                                ambient_dim=cx.weights.rho)


def test_wall_orientation():
    for ws in (cox_weights(twice_blown_up_plane()), flop_weights()):
        cx = enumerate_chambers(ws)
        for w in cx.walls:
            left = cx.chambers[w.left].representative
            right = cx.chambers[w.right].representative
            assert dot(w.normal, right) > 0 > dot(w.normal, left)
            facet = _face(cx, w.right, w.normal)
            assert facet == _face(cx, w.left, vneg(w.normal))
            mid = facet.relative_interior_point()
            assert dot(w.normal, mid) == 0
            assert facet.dim == cx.chambers[w.left].cone.dim - 1


def test_boundary_facets_sit_on_ample_boundary():
    cx = enumerate_chambers(cox_weights(twice_blown_up_plane()))
    for b in cx.boundary_facets:
        rep = cx.chambers[b.chamber].representative
        assert dot(b.normal, rep) > 0
        mid = _face(cx, b.chamber, b.normal).relative_interior_point()
        assert cx.g_ample.contains(mid) == "boundary"


def test_chamber_of_locations():
    cx = enumerate_chambers(cox_weights(blown_up_plane()))
    assert chamber_of(cx, (2, -1)).kind == "interior"
    assert chamber_of(cx, (2, -1)).chamber == 1
    assert chamber_of(cx, (1, 1)).chamber == 0
    loc = chamber_of(cx, (1, 0))
    assert loc.kind == "wall" and loc.wall == 0
    loc = chamber_of(cx, (0, 2))
    assert loc.kind == "boundary" and loc.chamber == 0
    loc = chamber_of(cx, (3, -3))
    assert loc.kind == "boundary" and loc.chamber == 1
    assert chamber_of(cx, (0, 0)).kind == "face"
    assert chamber_of(cx, (-1, 5)).kind == "outside"


def test_chamber_of_rejects_non_integer_characters():
    # (2, 1) lies inside chamber 0; (2.9, 1.2) must not be read as it, and
    # is refused the same way quotient_fan_data refuses it
    cx = enumerate_chambers(cox_weights(blown_up_plane()))
    with pytest.raises(NonIntegerEntryError, match="character has the entry 2.9"):
        chamber_of(cx, (2.9, 1.2))
    with pytest.raises(NonIntegerEntryError, match="character has the entry 2.9"):
        quotient_fan_data(cx.weights, (2.9, 1.2))
    with pytest.raises(NonIntegerEntryError, match="character has the entry True"):
        chamber_of(cx, (2, True))


def test_rank_deficient_rejected():
    ws = weight_system([(1, 0), (2, 0), (-1, 0)])
    with pytest.raises(RankDeficientWeightsError):
        enumerate_chambers(ws)


def test_enumeration_is_deterministic():
    ws = cox_weights(twice_blown_up_plane())
    a = enumerate_chambers(ws)
    b = enumerate_chambers(ws)
    assert a.chambers == b.chambers
    assert a.walls == b.walls
    assert a.boundary_facets == b.boundary_facets


def test_chamber_keys_match_the_oracle():
    # each chamber carries the key the oracle reads at its representative
    cols = cox_weights(twice_blown_up_plane()).columns
    cx = enumerate_chambers(weight_system(cols))
    assert len(cx.chambers) == 5
    keys = table_keys(cols, [ch.representative for ch in cx.chambers])
    assert keys == [_subsets(ch.key) for ch in cx.chambers]
    assert len(set(keys)) == 5


@pytest.mark.parametrize(
    "maker",
    [m for m, _ in CHAMBER_COUNTS] + [flop_weights],
)
def test_cover_verification(maker):
    made = maker()
    ws = made if hasattr(made, "columns") else cox_weights(made)
    report = verify_disjoint_cover(enumerate_chambers(ws))
    assert report.ok, report.issues


def test_cover_verification_reports_overlap():
    # chamber 0 widened to the whole ample cone E: each chamber that shared
    # a wall with it keeps a facet nothing matches, those walls are no
    # longer given by the chambers, and two of E's facets become chamber
    # 0's in place of pieces listed for chambers 1-3
    cx = enumerate_chambers(cox_weights(twice_blown_up_plane()))
    widened = replace(cx.chambers[0], cone=cx.g_ample)
    broken = replace(cx, chambers=(widened,) + cx.chambers[1:])
    report = verify_disjoint_cover(broken)
    assert not report.ok
    expected = ["unlisted boundary facet (0, (0, 0, 1))", "unlisted boundary facet (0, (1, 1, 0))"]
    neighbours = []
    for i, w in enumerate(cx.walls):
        if 0 in (w.left, w.right):
            j, n = (w.right, w.normal) if w.left == 0 else (w.left, vneg(w.normal))
            neighbours.append(j)
            expected += [f"wall {i} is not a facet the chambers give",
                         f"facet of chambers [{j}], normals [{n}], is neither a wall nor "
                         "on the boundary"]
    assert sorted(neighbours) == [1, 2]
    assert sorted(report.issues) == sorted(expected)


def test_cover_verification_rejects_a_double_cover():
    # five cones winding twice around the plane E: every facet is shared by
    # two of them with opposite normals, so only the generic point sees
    # that E is covered twice
    cx = enumerate_chambers(weight_system([(1, 0), (0, 1), (-1, -1)]))
    assert not cx.g_ample.inequalities
    rays = [(1, 0), (-4, 3), (-1, -3), (1, 1), (-2, -1)]
    chambers = tuple(
        replace(cx.chambers[0], id=k, cone=cone_from_generators([a, b]),
                representative=(a[0] + b[0], a[1] + b[1]))
        for k, (a, b) in enumerate(zip(rays, rays[1:] + rays[:1])))
    walls = []
    for k, r in enumerate(rays):
        n = next(h for h in chambers[k].cone.inequalities if dot(h, r) == 0)
        left, right = (k - 1) % 5, k
        if next(x for x in n if x) < 0:
            left, right, n = right, left, vneg(n)
        walls.append(Wall(left, right, n))
    report = verify_disjoint_cover(
        replace(cx, chambers=chambers, walls=tuple(walls), boundary_facets=()))
    assert report.issues == ("the first representative is interior to 2 chambers and on the "
                             "boundary of 0",)


def _split(ch, h, new_id):
    """The chamber cut in two along h: the h >= 0 side keeps its id."""
    halves = [cone_from_inequalities(ch.cone.inequalities + (g,), ambient_dim=len(h))
              for g in (h, vneg(h))]
    return tuple(replace(ch, id=i, cone=c, representative=c.relative_interior_point())
                 for i, c in zip((ch.id, new_id), halves))


@settings(max_examples=40, deadline=None)
@example([(1,)], 0, 0)
@example([(1, 0), (0, 1), (-1, 0), (-1, -1)], 1, 0)
@given(full_rank_columns(), st.integers(min_value=0), st.integers(min_value=0))
def test_cover_verification_rejects_mutants(cols, pick, axis):
    # dropping, duplicating or splitting a chamber, or swapping a wall's
    # sides, each breaks the facet certificate
    cx = enumerate_chambers(weight_system(cols))
    assert verify_disjoint_cover(cx).ok
    chambers, n = cx.chambers, len(cx.chambers)
    ch = chambers[pick % n]
    mutants = [chambers[:ch.id] + chambers[ch.id + 1:], chambers + (replace(ch, id=n),)]
    p = ch.representative
    if len(p) > 1:
        # the hyperplane h = p_j e_i - p_i e_j through p, for p_i nonzero
        i = next(k for k, x in enumerate(p) if x)
        j = (i + 1 + axis % (len(p) - 1)) % len(p)
        h = tuple(p[j] * (k == i) - p[i] * (k == j) for k in range(len(p)))
        mutants.append(chambers[:ch.id] + _split(ch, h, n) + chambers[ch.id + 1:])
    reports = [verify_disjoint_cover(replace(cx, chambers=m)) for m in mutants]
    if cx.walls:
        walls = list(cx.walls)
        w = walls[pick % len(walls)]
        walls[pick % len(walls)] = replace(w, left=w.right, right=w.left)
        reports.append(verify_disjoint_cover(replace(cx, walls=tuple(walls))))
    assert not any(r.ok for r in reports), [r.issues for r in reports]


small = st.integers(min_value=-2, max_value=2)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(small, small), min_size=3, max_size=5).filter(
        lambda cols: rank_of(cols) == 2
    )
)
def test_random_weights_match_bruteforce(cols):
    # the arrangement's cells, counted by brute force, grouped by key are
    # the chambers; on exotic configurations several cells share a key
    ws = weight_system(cols)
    cx = enumerate_chambers(ws)
    oracle = grouped_cells(cols)
    assert oracle.cells == count_chambers_bruteforce(
        wall_hyperplanes(ws), g_ample_cone(ws).inequalities, 2
    )
    _assert_grouped(cx, oracle)
    assert verify_disjoint_cover(cx).ok
    # factor_contraction walks chamber facets: between any two chambers it
    # starts and ends in the right ones, at exact times on the walls it
    # crosses, across walls that join consecutive chambers, and
    # classifies each crossing; across an exchange the oracle's quotient
    # fans agree
    for a in cx.chambers:
        for b in cx.chambers:
            f = factor_contraction(cx, a.representative, b.representative)
            path, times = f.chambers, f.crossing_times
            assert path[0] == a.id and path[-1] == b.id
            assert crossing_issues(cx, a.representative, b.representative, f) == []
            assert len(f.crossings) == len(times) == len(path) - 1
            for cur, nxt, c in zip(path, path[1:], f.crossings):
                assert {c.wall.left, c.wall.right} == {cur, nxt}
                assert c.rays_before == cx.quotient(cur).used_columns
                assert c.rays_after == cx.quotient(nxt).used_columns
                traded = set(c.rays_before) ^ set(c.rays_after)
                assert c.contracted_columns == tuple(sorted(traded))
                assert len(traded) == {"small": 0, "divisorial": 1, "exchange": 2}[c.kind]
                if c.kind == "exchange":
                    assert c.picard_delta == 0
                    assert (quotient_cones(cols, cx.chambers[cur].representative)
                            == quotient_cones(cols, cx.chambers[nxt].representative))


RANK3_COLUMNS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1), (-2, 1, 1)]


def _subsets(key):
    """A chamber's key as the oracle writes it: a frozenset of column index tuples."""
    return frozenset(tuple(j for j in range(mask.bit_length()) if mask >> j & 1) for mask in key)


def _assert_grouped(cx, oracle):
    """The complex's chambers, walls and boundary facets are the oracle's grouped cells."""
    cones = [ch.cone for ch in cx.chambers]
    walls = [(cones[w.left], cones[w.right], w.normal, _face(cx, w.right, w.normal))
             for w in cx.walls]
    boundary = [(cones[b.chamber], b.normal, _face(cx, b.chamber, b.normal))
                for b in cx.boundary_facets]
    assert {ch.cone: _subsets(ch.key) for ch in cx.chambers} == oracle.chambers
    assert len(cones) == len(oracle.chambers)
    assert len(walls) == len(oracle.walls) and set(walls) == oracle.walls
    assert len(boundary) == len(oracle.boundary) and set(boundary) == oracle.boundary


def test_walk_is_coarser_than_the_arrangement():
    # span(e1, e2) meets the ample cone beyond pos(e1, e2) here, so one
    # hyperplane piece is not a wall: the arrangement, counted by brute
    # force, has 15 cells, and the walk joins them into 9 chambers
    ws = weight_system(RANK3_COLUMNS)
    cx = enumerate_chambers(ws)
    expected = count_chambers_bruteforce(
        wall_hyperplanes(ws), g_ample_cone(ws).inequalities, 3
    )
    assert expected == 15
    assert (len(cx.chambers), len(cx.walls), len(cx.boundary_facets)) == (9, 12, 4)
    assert verify_disjoint_cover(cx).ok


@settings(max_examples=60, deadline=None)
@example(RANK3_COLUMNS)
@example([(1,), (-1,), (2,)])
@example([(1, 0), (0, 1), (-1, 0), (-1, -1)])
@example([(1, 0), (-1, 0), (0, 1), (1, 1)])  # a half-plane: not pointed
@given(full_rank_columns())
def test_walk_matches_grouped_cells(cols):
    # chambers, walls and boundary facets are the split's cells grouped by
    # key, at rank 1-3 and with non-pointed effective cones; each wall's
    # kind is read off the oracle's keys and Gale cones
    cx = enumerate_chambers(weight_system(cols))
    _assert_grouped(cx, grouped_cells(cols))
    for w in cx.walls:
        left, right = (cx.chambers[i] for i in (w.left, w.right))
        used = [{j for j in range(len(cols)) if any(j not in s for s in _subsets(ch.key))}
                for ch in (left, right)]
        traded = used[0] ^ used[1]
        same = quotient_cones(cols, left.representative) == quotient_cones(
            cols, right.representative)
        if len(traded) < 2:
            assert classify_wall(cx, w).kind == ("small", "divisorial")[len(traded)]
        elif len(traded) == 2 and len(used[0]) == len(used[1]) and same:
            assert classify_wall(cx, w).kind == "exchange"
        else:
            with pytest.raises(InvariantViolationError, match="changes 2 columns"):
                classify_wall(cx, w)


def test_rank3_cells_and_keys():
    # 15 cells in 9 keys: the walk's 9 chambers carry exactly those keys
    cx = enumerate_chambers(weight_system(RANK3_COLUMNS))
    oracle = grouped_cells(RANK3_COLUMNS)
    assert (oracle.cells, len(oracle.chambers)) == (15, 9)
    keys = table_keys(RANK3_COLUMNS, [ch.representative for ch in cx.chambers])
    assert set(keys) == set(oracle.chambers.values())
    assert keys == [_subsets(ch.key) for ch in cx.chambers]


@settings(max_examples=60, deadline=None)
@example(RANK3_COLUMNS)
@example([(1, 0), (0, 1), (-1, 0), (-1, -1)])
@given(full_rank_columns())
def test_chamber_of_reads_keys_anywhere_inside(cols):
    # sums of subsets of a chamber's generators, on hyperplanes spanned by
    # columns or off them: chamber_of agrees with a scan of the chambers'
    # interiors, and the quotient at an interior sum is the chamber's
    ws = weight_system(cols)
    cx = enumerate_chambers(ws)
    for ch in cx.chambers:
        gens = ch.cone.generators
        for mask in range(1, 1 << len(gens)):
            x = tuple(map(sum, zip(*(g for k, g in enumerate(gens) if mask >> k & 1))))
            holding = [c.id for c in cx.chambers if c.cone.contains(x) == "interior"]
            loc = chamber_of(cx, x)
            if holding:
                assert holding == [ch.id] and (loc.kind, loc.chamber) == ("interior", ch.id)
                assert quotient_fan_data(ws, x) == cx.quotient(ch.id)
            else:
                assert loc.kind != "interior"


def _neighbour_mismatches(cx):
    """Chamber facets where the normal index reads another key than the whole table."""
    table = cx.weights.simplicial_cones
    across = _neighbour_reader(table)
    boundary = {(b.chamber, b.normal) for b in cx.boundary_facets}
    wrong = []
    for ch in cx.chambers:
        for n in ch.cone.inequalities:
            tight = [g for g in ch.cone.generators if dot(n, g) == 0]
            p = tuple(sum(g[i] for g in tight) for i in range(cx.weights.rho))
            key, full = across(ch.key, p, n), _key_at(table, [p, vneg(n)])
            if key != full or (not key) != ((ch.id, n) in boundary):
                wrong.append((ch.id, n, key, full))
    return wrong


@settings(max_examples=60, deadline=None)
@example(RANK3_COLUMNS)
@example([(1,), (-1,), (2,)])
@given(full_rank_columns())
def test_neighbour_keys_read_by_the_normal_index(cols):
    # the key re-read across a facet from the subsets with a parallel facet
    # is the whole table's, and empty exactly on the boundary facets
    assert _neighbour_mismatches(enumerate_chambers(weight_system(cols))) == []


def _location_mismatches(cx):
    """Points of chamber faces that chamber_of places elsewhere than a scan of facet interiors.

    Each wall's and boundary facet's point is the sum of its chamber's
    generators tight on its normal; each chamber also gives the sum over
    every pair of its normals.  The scan converts every wall and boundary
    facet from those tight generators and tests containment; "face" is
    where it finds no facet interior.
    """
    sides = [("wall", k, w.right, w.normal) for k, w in enumerate(cx.walls)]
    sides += [("boundary", k, b.chamber, b.normal) for k, b in enumerate(cx.boundary_facets)]
    faces = [(kind, k, _face(cx, i, n)) for kind, k, i, n in sides]
    points = [(_facet_point(cx.chambers[i].cone, n), [(kind, k)]) for kind, k, i, n in sides]
    for ch in cx.chambers:
        for pair in combinations(ch.cone.inequalities, 2):
            tight = _tight(ch.cone, *pair)
            points.append((tuple(sum(g[i] for g in tight) for i in range(cx.weights.rho)), None))
    wrong = []
    for x, expected in points:
        scan = [(kind, k) for kind, k, face in faces if face.contains(x) == "interior"]
        loc = chamber_of(cx, x)
        got = {"wall": [("wall", loc.wall)], "boundary": [("boundary", loc.boundary_facet)],
               "face": []}.get(loc.kind, loc.kind)
        if got != scan or expected not in (None, scan):
            wrong.append((x, expected, scan, loc))
    return wrong


@settings(max_examples=60, deadline=None)
@example(RANK3_COLUMNS)
@example([(1,), (-1,), (2,)])
@example([(-1,), (-2,)])
@example([(1, 0), (0, 1), (-1, 0), (-1, -1)])
@given(full_rank_columns())
def test_chamber_of_finds_walls_and_boundary_facets(cols):
    # each facet's tight-generator sum lies in that wall or boundary facet
    # and in no other; a sum over two normals is located where the scan
    # finds it, "face" when in no facet interior
    assert _location_mismatches(enumerate_chambers(weight_system(cols))) == []


def test_prism3_facets_and_neighbour_keys(prism3):
    cx = enumerate_chambers(cox_weights(prism3))
    assert (len(cx.chambers), len(cx.walls), len(cx.boundary_facets)) == (24, 36, 6)
    assert _location_mismatches(cx) == []
    assert _neighbour_mismatches(cx) == []


def test_facets_refuse_a_chamber_with_lineality():
    half_plane = cone_from_inequalities([(1, 0)], ambient_dim=2)
    with pytest.raises(InvariantViolationError, match="lineality"):
        _facet_point(half_plane, (1, 0))


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _by_angle(rays):
    """Rays in counterclockwise order from the positive x-axis, by integer cross products."""
    def half(v):
        return 0 if v[1] > 0 or (v[1] == 0 and v[0] > 0) else 1
    return sorted(rays, key=cmp_to_key(
        lambda a, b: (half(a) - half(b)) or _cross(b, a)))


@st.composite
def complete_surface_rays(draw):
    """Primitive rays of a complete surface fan, in angular order: 3 to 7 of them."""
    coord = st.integers(min_value=-3, max_value=3)
    raw = draw(st.lists(st.tuples(coord, coord).filter(any), min_size=3, max_size=7))
    rays = _by_angle({(x // gcd(x, y), y // gcd(x, y)) for x, y in raw})
    assume(len(rays) >= 3 and all(_cross(u, v) > 0 for u, v in zip(rays, rays[1:] + rays[:1])))
    return rays


def _check_surface(rays):
    """The chambers and walls of a complete surface fan against the spanning-subset oracle."""
    fan = make_fan(rays, [(i, (i + 1) % len(rays)) for i in range(len(rays))])
    cx = enumerate_chambers(cox_weights(fan))
    used = [cx.used_columns(ch.id) for ch in cx.chambers]
    assert sorted(used) == sorted(spanning_subsets(rays))
    pairs = [tuple(sorted((used[w.left], used[w.right]), key=len)) for w in cx.walls]
    assert sorted(pairs) == sorted(surface_walls(rays))
    assert all(classify_wall(cx, w).kind == "divisorial" for w in cx.walls)
    return len(cx.chambers), len(cx.walls)


SURFACE7_RAYS = [(1, 0), (2, 1), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]


@settings(max_examples=40, deadline=None)
@given(complete_surface_rays())
def test_surfaces_match_the_spanning_subset_oracle(rays):
    _check_surface(rays)


def test_surface7_chambers_and_walls():
    # 303 cells of the arrangement, but 50 chambers and 120 walls, none small
    assert _check_surface(SURFACE7_RAYS) == (50, 120)
