"""Birational bookkeeping on top of the chamber decomposition.

Each chamber is the pullback of an ample cone; the chambers whose quotient
keeps every column tile the moving cone, walls between chambers are small
or divisorial modifications or exchanges of two columns, and facets on the
boundary of the semistable cone are fibration directions.  Used columns
and wall kinds are read off chamber keys; a quotient fan is built only
where one is printed or compared.  Everything here is verified against
independent descriptions as it is computed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .cones import Cone, cone_from_generators, intersect, minkowski_sum
from .errors import DegenerateLinearizationError, InvariantViolationError
from .linalg import IntVec, dot, primitive
from .toric import Fan, _check_chi, canonicalize_fan, gale_dual
from .vgit import Chamber, ChamberComplex, Wall, chamber_of


@dataclass(frozen=True)
class MovingConeResult:
    """The moving cone and the chambers tiling it."""

    cone: Cone
    chamber_ids: tuple[int, ...]


def moving_cone(complex_: ChamberComplex) -> MovingConeResult:
    """Moving cone: intersection over i of pos(columns without column i).

    Cross-checked two ways: it must equal the hull of the chambers whose
    quotient keeps every column, and a chamber representative must be
    interior to it exactly when its chamber keeps every column.
    """
    if complex_._moving is not None:
        return complex_._moving
    ws = complex_.weights
    oracle = None
    for i in range(ws.r):
        piece = cone_from_generators(
            [c for j, c in enumerate(ws.columns) if j != i], ambient_dim=ws.rho
        )
        oracle = piece if oracle is None else intersect(oracle, piece)
    all_columns = tuple(range(ws.r))
    ids = tuple(
        ch.id for ch in complex_.chambers if complex_.used_columns(ch.id) == all_columns
    )
    if ids:
        gens: list[IntVec] = []
        for i in ids:
            gens.extend(complex_.chambers[i].cone.generators)
        hull = cone_from_generators(gens, ambient_dim=ws.rho)
        if hull != oracle:
            raise InvariantViolationError(
                "union of column-preserving chambers does not match the moving cone"
            )
    elif oracle.is_full_dim:
        raise InvariantViolationError(
            "full-dimensional moving cone contains no column-preserving chamber"
        )
    id_set = set(ids)
    for ch in complex_.chambers:
        loc = oracle.contains(ch.representative)
        if loc == "boundary":
            raise InvariantViolationError(
                f"representative of chamber {ch.id} lies on the moving cone boundary"
            )
        if (loc == "interior") != (ch.id in id_set):
            raise InvariantViolationError(
                f"chamber {ch.id}: moving-cone membership disagrees with column usage"
            )
    result = MovingConeResult(oracle, ids)
    complex_._moving = result
    return result


def nef_chamber(complex_: ChamberComplex, fan: Fan) -> Chamber:
    """The chamber whose quotient is the given fan.

    Found by its key (Berchtold–Hausen): the table subsets whose open cone
    holds the fan's chamber are exactly the complements of its maximal
    cones.  Cross-checked by comparing the chamber's quotient fan with the
    input fan in canonical coordinates, which tests the Cox/Gale round trip.
    """
    ws = complex_.weights
    if len(fan.rays) != ws.r:
        raise DegenerateLinearizationError(
            f"fan has {len(fan.rays)} rays but the grading has {ws.r} columns"
        )
    full = (1 << ws.r) - 1
    key = {full ^ sum(1 << i for i in cone) for cone in fan.max_cones}
    matches = [ch for ch in complex_.chambers if set(ch.key) == key]
    if len(matches) != 1:
        raise DegenerateLinearizationError(
            "no single chamber has this fan as its quotient: "
            f"{len(matches)} chambers have its key"
        )
    qd = complex_.quotient(matches[0].id)
    if canonicalize_fan(qd.fan) != canonicalize_fan(fan):
        raise InvariantViolationError(
            "nef chamber quotient does not reproduce the input fan"
        )
    return matches[0]


def enumerate_sqms(complex_: ChamberComplex, chamber_id: int) -> tuple[int, ...]:
    """Chambers whose quotient uses the same columns (small modifications of each other)."""
    used = complex_.used_columns(chamber_id)
    return tuple(ch.id for ch in complex_.chambers if complex_.used_columns(ch.id) == used)


@dataclass(frozen=True)
class MoriChamberData:
    """Per-chamber birational data, with the decomposition identity verified.

    The chamber cone always equals pulled_back_nef + pos(columns of the
    dropped divisors); this Minkowski identity is asserted on construction.
    """

    chamber: Chamber
    quotient: Fan
    used_columns: tuple[int, ...]
    dropped_columns: tuple[int, ...]
    picard_number: int | None
    pulled_back_nef: Cone
    in_moving_cone: bool


def mori_chamber_data(complex_: ChamberComplex, chamber_id: int) -> MoriChamberData:
    ws = complex_.weights
    ch = complex_.chambers[chamber_id]
    qd = complex_.quotient(chamber_id)
    mov = moving_cone(complex_)
    pulled = intersect(ch.cone, mov.cone)
    exceptional = cone_from_generators(
        [ws.columns[i] for i in qd.dropped_columns], ambient_dim=ws.rho
    )
    if minkowski_sum(pulled, exceptional) != ch.cone:
        raise InvariantViolationError(
            f"chamber {chamber_id} is not pulled-back nef plus its dropped columns"
        )
    return MoriChamberData(
        chamber=ch,
        quotient=qd.fan,
        used_columns=qd.used_columns,
        dropped_columns=qd.dropped_columns,
        picard_number=qd.picard_number,
        pulled_back_nef=pulled,
        in_moving_cone=chamber_id in mov.chamber_ids,
    )


@dataclass(frozen=True)
class WallCrossing:
    """A wall crossing oriented from rays_before to rays_after.

    kind is "small" when both sides keep the same columns, "divisorial"
    when exactly one column appears or disappears, and "exchange" when
    each side drops one column the other keeps while both quotient fans
    are the same set of cones of ray vectors: only the semistable locus
    changes, the quotient does not.  picard_delta is the change in the
    number of quotient rays along the crossing.
    """

    wall: Wall
    kind: str
    rays_before: tuple[int, ...]
    rays_after: tuple[int, ...]
    picard_delta: int
    contracted_columns: tuple[int, ...]


def _same_gale_cones(complex_: ChamberComplex, wall: Wall) -> bool:
    """Whether both sides' quotient fans are the same cones of ray vectors.

    Each key subset gives one cone: the primitive Gale rays of the columns outside it.
    """
    gale = [primitive(g) for g in gale_dual(complex_.weights)]
    left, right = (
        {frozenset(g for i, g in enumerate(gale) if not mask >> i & 1)
         for mask in complex_.chambers[side].key}
        for side in (wall.left, wall.right)
    )
    return left == right


def classify_wall(complex_: ChamberComplex, wall: Wall) -> WallCrossing:
    """Classify a wall, oriented left to right, from the keys of its two chambers.

    The exchange test compares both quotient fans as sets of cones of ray
    vectors; when they are equal, the two traded columns have the same
    primitive Gale ray.  Any other change of columns raises
    InvariantViolationError.
    """
    before = complex_.used_columns(wall.left)
    after = complex_.used_columns(wall.right)
    sym = sorted(set(before) ^ set(after))
    if not sym:
        kind = "small"
    elif len(sym) == 1:
        kind = "divisorial"
    elif len(sym) == 2 and len(before) == len(after) and _same_gale_cones(complex_, wall):
        kind = "exchange"
    else:
        raise InvariantViolationError(
            f"wall between {wall.left} and {wall.right} changes {len(sym)} columns"
        )
    return WallCrossing(wall, kind, before, after, len(after) - len(before), tuple(sym))


def _reverse_crossing(c: WallCrossing) -> WallCrossing:
    return replace(c, rays_before=c.rays_after, rays_after=c.rays_before,
                   picard_delta=-c.picard_delta)


@dataclass(frozen=True)
class BoundaryContraction:
    """A fibration direction on the boundary of the semistable cone.

    quotient_dim is the dimension of the quotient for a character in the
    relative interior of the facet; fiber_dim is how much smaller it is
    than the chamber quotients.
    """

    boundary_facet_index: int
    chamber: int
    character: IntVec
    quotient_dim: int
    fiber_dim: int


def classify_boundary_facet(complex_: ChamberComplex, index: int) -> BoundaryContraction:
    """Dimension bookkeeping for a boundary facet of the semistable cone.

    The quotient dimension at a character chi is dim L - 1 for the lifted
    cone L = {(a, t) >= 0 : sum a_i column_i = t chi}, which is |F| - (rho - 1)
    for the columns F on the facet's hyperplane.  Proof: chi lies in the
    relative interior of a facet of the semistable cone, whose inward normal
    u is >= 0 on every column, so applying u gives a_i = 0 off F.  The
    columns in F span u = 0 and have chi as a positive combination, so L is
    full-dimensional in the kernel of (a_F, t) -> sum a_i column_i - t chi,
    of dimension |F| + 1 - (rho - 1).  chi is the facet's point in the
    chamber's sides: the sum of the chamber's generators on the facet.
    """
    ws = complex_.weights
    bf = complex_.boundary_facets[index]
    chi = complex_.sides[bf.chamber, bf.normal][0]
    quotient_dim = sum(1 for c in ws.columns if dot(bf.normal, c) == 0) - (ws.rho - 1)
    fiber_dim = ws.r - ws.rho - quotient_dim
    return BoundaryContraction(index, bf.chamber, chi, quotient_dim, fiber_dim)


@dataclass(frozen=True)
class Factorization:
    """A straight-line factorization of a birational transformation.

    chambers lists the visited chamber ids from source to target; crossings
    has one oriented wall crossing per consecutive pair, at the segment
    parameter recorded in crossing_times.
    """

    chambers: tuple[int, ...]
    crossings: tuple[WallCrossing, ...]
    crossing_times: tuple[Fraction, ...]


def _interior_chamber(complex_: ChamberComplex, chi, label: str) -> int:
    loc = chamber_of(complex_, chi)
    if loc.kind != "interior":
        raise DegenerateLinearizationError(
            f"{label} character {tuple(chi)} is not in a chamber interior (location: {loc.kind})"
        )
    return loc.chamber


def _segment_walk(
    complex_: ChamberComplex, chi_from, chi_to
) -> tuple[tuple[int, ...], tuple[Wall, ...], tuple[Fraction, ...]]:
    """Chambers, walls and crossing times along the segment from p to q.

    With d = q - p, each chamber is left through the wall on the facet, of
    inward normal f with f.d < 0, whose exit time
    (f.p, f_1, ..., f_rho) / (-f.d) is lexicographically least.  That is
    the segment moved by e e_1 + e^2 e_2 + ..., e -> 0+ (as in _key_at),
    which crosses one wall at a time.  The crossing time is the first
    entry, the parameter on the given segment; it repeats where the
    segment passes through a face of codimension 2 or more.  The wall
    crossed is read from the chamber's sides.  An endpoint not interior
    to a chamber raises DegenerateLinearizationError.
    """
    ws = complex_.weights
    p = _check_chi(ws, chi_from)
    q = _check_chi(ws, chi_to)
    cur = _interior_chamber(complex_, p, "source")
    end = _interior_chamber(complex_, q, "target")
    d = tuple(b - a for a, b in zip(p, q))
    path, walls, times = [cur], [], []
    while cur != end:
        exits = []
        for f in complex_.chambers[cur].cone.inequalities:
            speed = -dot(f, d)
            if speed > 0:
                exits.append((tuple(Fraction(x, speed) for x in (dot(f, p), *f)), f))
        exit_time, f = min(exits, default=(None, None))
        _, kind, index = complex_.sides.get((cur, f), (None, None, None))
        if kind != "wall":
            raise InvariantViolationError(f"segment leaves chamber {cur} through no wall")
        wall = complex_.walls[index]
        cur = wall.left if wall.right == cur else wall.right
        path.append(cur)
        walls.append(wall)
        times.append(exit_time[0])
    return tuple(path), tuple(walls), tuple(times)


def factor_contraction(complex_: ChamberComplex, chi_from, chi_to) -> Factorization:
    """Factor the birational map between two chambers into wall crossings.

    Walks the straight segment between the two characters (see
    _segment_walk) and classifies each wall crossed, oriented in the
    direction of travel.
    """
    path, walls, times = _segment_walk(complex_, chi_from, chi_to)
    crossings = []
    for cur, wall in zip(path, walls):
        crossing = classify_wall(complex_, wall)
        crossings.append(crossing if wall.left == cur else _reverse_crossing(crossing))
    return Factorization(path, tuple(crossings), times)
