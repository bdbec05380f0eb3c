"""GIT chamber decomposition of the semistable cone of a weight system.

Characters inside the cone spanned by the weight columns fall into
finitely many full-dimensional GIT chambers, on each of which the quotient
does not change.  A chamber's key is the set of simplicial column subsets
(the table) whose open cone holds it, and the chamber is the intersection
of their closed cones (Berchtold-Hausen, 2006).  Walking from key to key
(Keicher, 2012) gives the chambers, the walls between them, and the facets
on the boundary of the semistable cone, all with exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

from .cones import Cone, cone_from_inequalities
from .errors import (DegenerateLinearizationError, EmptySemistableLocusError,
                     InvariantViolationError)
from .linalg import IntVec, dot, vneg
from .toric import (
    QuotientData,
    WeightSystem,
    _full_rank_table,
    _interior_masks,
    _used_columns,
    g_ample_cone,
    quotient_fan_data,
)


@dataclass(frozen=True)
class Chamber:
    """One full-dimensional GIT chamber, with an integer interior representative.

    key holds, in table order, the column bitmasks of the table subsets
    whose open cone holds the chamber; the cone is the intersection of
    their closed cones.  The same key is read at every interior point of
    the chamber, the representative (the sum of its generators) included.
    """

    id: int
    cone: Cone
    representative: IntVec
    key: tuple[int, ...]


@dataclass(frozen=True)
class Wall:
    """Shared facet of two chambers; the normal is positive on the right chamber.

    The normal's first nonzero entry is positive.  The facet is the right
    chamber's side on which the normal vanishes, and -normal is an inward
    facet normal of the left chamber.
    """

    left: int
    right: int
    normal: IntVec


@dataclass(frozen=True)
class BoundaryFacet:
    """Chamber facet on the boundary of the semistable cone; normal points inward.

    The facet is the chamber's side on which the normal vanishes.
    """

    chamber: int
    normal: IntVec


@dataclass(frozen=True)
class ChamberLocation:
    """Where a character sits: interior / wall / boundary / face / outside."""

    kind: str
    chamber: int | None = None
    wall: int | None = None
    boundary_facet: int | None = None


@dataclass
class ChamberComplex:
    """The full chamber decomposition of the semistable cone of a weight system."""

    weights: WeightSystem
    g_ample: Cone
    chambers: tuple[Chamber, ...]
    walls: tuple[Wall, ...]
    boundary_facets: tuple[BoundaryFacet, ...]
    _quotients: dict = field(default_factory=dict, repr=False, compare=False)
    _moving: object = field(default=None, repr=False, compare=False)

    def quotient(self, chamber_id: int) -> QuotientData:
        """Quotient fan data of a chamber, computed once and cached."""
        if chamber_id not in self._quotients:
            rep = self.chambers[chamber_id].representative
            self._quotients[chamber_id] = quotient_fan_data(self.weights, rep)
        return self._quotients[chamber_id]

    def used_columns(self, chamber_id: int) -> tuple[int, ...]:
        """Columns of the chamber's quotient rays, read off its key."""
        return _used_columns(self.weights.r, self.chambers[chamber_id].key)


def _key_at(table, rows) -> tuple[int, ...]:
    """The key at rows[0] + e rows[1] + ... + e^k e_1 + ... + e^(k+rho-1) e_rho, e -> 0+.

    A table normal h is positive there when the first nonzero of
    h.rows[0], ..., h.rows[k-1], h_1, ..., h_rho is, so no perturbed point
    is formed.  Column bitmasks of the subsets, in table order.
    """
    return tuple(sum(1 << j for j in subset) for subset, normals in table
                 if all(next(v for v in chain((dot(h, x) for x in rows), h) if v) > 0
                        for h in normals))


def _representative(ws: WeightSystem, cone: Cone, key) -> IntVec:
    """The sum of the chamber's generators, an integer point inside it.

    Raises InvariantViolationError unless the key read there is the
    chamber's.
    """
    p = cone.relative_interior_point()
    if _interior_masks(ws, p) != key:
        raise InvariantViolationError(f"representative {p} reads another key than its chamber")
    return p


def _up(n) -> IntVec:
    """n or -n, whichever has its first nonzero entry positive."""
    return n if next(x for x in n if x) > 0 else vneg(n)


def _facet_point(cone: Cone, n) -> IntVec:
    """The sum of the chamber's generators on which n vanishes.

    A chamber is pointed and full-dimensional, so these generators span
    its facet with inward normal n, and their sum lies in that facet's
    relative interior.  Raises InvariantViolationError if the chamber has
    lineality.
    """
    if cone.lineality:
        raise InvariantViolationError(f"chamber with generators {cone.generators} has lineality")
    tight = [g for g in cone.generators if dot(n, g) == 0]
    return tuple(sum(g[i] for g in tight) for i in range(cone.ambient_dim))


def _in_facet(cone: Cone, n, chi) -> bool:
    """Whether chi is in the relative interior of the chamber's facet with inward normal n.

    Exact because the chamber is pointed and full-dimensional: each ridge
    of the facet lies on another facet of the chamber, so chi is off every
    ridge exactly when every other inequality is positive there.
    """
    return dot(n, chi) == 0 and all(dot(h, chi) > 0 for h in cone.inequalities if h != n)


def _neighbour_reader(table):
    """A function (key, p, n) giving the key at p - e n, e -> 0+, for p on a chamber facet.

    key is the chamber's and n the facet's inward normal.  A subset whose
    closed cone holds the chamber and has p, a relative-interior point of
    the facet, on its boundary has the facet's hyperplane as a facet, and
    so a facet normal parallel to n; every other subset keeps its
    membership.  So the table is indexed by sign-normalized facet normal,
    and only the subsets under +-n are re-read.  Empty exactly when p - e n
    is outside the semistable cone.
    """
    position = {}
    parallel: dict[IntVec, tuple[list, set]] = {}  # normal -> its subsets and their masks
    for entry in table:
        mask = sum(1 << j for j in entry[0])
        position[mask] = len(position)
        for h in entry[1]:
            sub, masks = parallel.setdefault(_up(h), ([], set()))
            sub.append(entry)
            masks.add(mask)

    def across(key, p, n) -> tuple[int, ...]:
        sub, changing = parallel[_up(n)]
        kept = [m for m in key if m not in changing]
        return tuple(sorted(kept + list(_key_at(sub, [p, vneg(n)])), key=position.__getitem__))

    return across


def enumerate_chambers(ws: WeightSystem) -> ChamberComplex:
    """Enumerate all GIT chambers, walls, and boundary facets of a weight system.

    Walks from key to key, starting at the sum of all columns.  Each
    chamber is converted once, by cone_from_inequalities over its key's
    facet normals, and nothing else is converted.  Across each chamber
    normal n the key at p - e n, for p the sum of the generators tight on
    n (_facet_point), re-reads only the subsets with a facet normal
    parallel to n (_neighbour_reader).  It is empty on the boundary of the
    semistable cone and names the neighbour otherwise, which must reach
    back.  A wall is listed once, from the side its sign-normalized normal
    points into.
    """
    table = _full_rank_table(ws)
    normals_of = {sum(1 << j for j in subset): normals for subset, normals in table}
    across = _neighbour_reader(table)
    found: dict[tuple[int, ...], tuple] = {}
    todo = [_key_at(table, [tuple(map(sum, zip(*ws.columns)))])]
    while todo:
        key = todo.pop()
        if key in found:
            continue
        cone = cone_from_inequalities(
            sorted({h for m in key for h in normals_of[m]}), ambient_dim=ws.rho)
        sides = []
        for n in cone.inequalities:
            other = across(key, _facet_point(cone, n), n)
            sides.append((n, other))
            if other:
                todo.append(other)
        found[key] = (cone, sides)

    order = sorted(found, key=lambda k: found[k][0].generators)
    id_of = {key: i for i, key in enumerate(order)}
    chambers, walls, boundary = [], [], []
    crossed = {(key, other, n) for key in order for n, other in found[key][1]}
    for i, key in enumerate(order):
        cone, sides = found[key]
        chambers.append(Chamber(i, cone, _representative(ws, cone, key), key))
        for n, other in sides:
            if not other:
                boundary.append(BoundaryFacet(i, n))
            elif _up(n) == n:
                if (other, key, vneg(n)) not in crossed:
                    raise InvariantViolationError(f"chamber {i}'s wall {n} is one-sided")
                walls.append(Wall(id_of[other], i, n))
    walls.sort(key=lambda w: (w.left, w.right))
    boundary.sort(key=lambda b: (b.chamber, b.normal))
    return ChamberComplex(ws, g_ample_cone(ws), tuple(chambers), tuple(walls), tuple(boundary))


def chamber_of(complex_: ChamberComplex, chi) -> ChamberLocation:
    """Locate a character: by the key read at chi, else by scanning walls and boundary facets."""
    try:
        key = _interior_masks(complex_.weights, chi)
    except EmptySemistableLocusError:
        return ChamberLocation("outside")
    except DegenerateLinearizationError:
        pass
    else:
        for ch in complex_.chambers:
            if ch.key == key:
                return ChamberLocation("interior", chamber=ch.id)
        raise InvariantViolationError(f"character {tuple(chi)} reads the key of no chamber")
    chambers = complex_.chambers
    for idx, w in enumerate(complex_.walls):
        if _in_facet(chambers[w.right].cone, w.normal, chi):
            return ChamberLocation("wall", wall=idx)
    for idx, b in enumerate(complex_.boundary_facets):
        if _in_facet(chambers[b.chamber].cone, b.normal, chi):
            return ChamberLocation("boundary", chamber=b.chamber, boundary_facet=idx)
    return ChamberLocation("face")


@dataclass(frozen=True)
class CoverReport:
    """Result of the disjoint-cover verification of a chamber complex."""

    ok: bool
    n_chambers: int
    n_walls: int
    n_boundary_facets: int
    issues: tuple[str, ...]


def _unmatched(listed, found: set, name: str) -> list[str]:
    """Issues for listed items not in found, each removed as it matches, and the rest of found."""
    issues = []
    for idx, item in enumerate(listed):
        if item in found:
            found.remove(item)
        else:
            issues.append(f"{name} {idx} is not a facet the chambers give")
    return issues + [f"unlisted {name} {item}" for item in sorted(found)]


def verify_disjoint_cover(complex_: ChamberComplex) -> CoverReport:
    """Verify the chambers tile the semistable cone E face to face.

    The interior-facet certificate (De Loera-Rambau-Santos, *Triangulations*,
    2010, Ch. 4): each chamber is full-dimensional inside E; each facet,
    named by its tight generators and the chamber's lineality, is shared by
    two chambers with opposite inward normals or lies in one chamber with
    one of E's; and one generic point lies in one chamber, so every generic
    point does.  The shared facets, as (left, right, normal) with the
    normal's first nonzero entry positive and inward on the right, must be
    the walls; the others, as (chamber, normal), the boundary facets.
    Reads no key, table or hyperplane.
    """
    issues = []
    chambers, e = complex_.chambers, complex_.g_ample
    facets: dict[tuple, list[tuple[int, IntVec]]] = {}
    for ch in chambers:
        cone = ch.cone
        if not cone.is_full_dim:
            issues.append(f"chamber {ch.id} is not full-dimensional")
        for g in cone.generators + cone.lineality + tuple(map(vneg, cone.lineality)):
            if e.contains(g) == "outside":
                issues.append(f"chamber {ch.id} has generator {g} outside the semistable cone")
        loc = cone.contains(ch.representative)
        if loc != "interior":
            issues.append(f"representative of chamber {ch.id} is not interior to it: {loc}")
        for n in cone.inequalities:
            tight = tuple(g for g in cone.generators if dot(n, g) == 0)
            facets.setdefault((tight, cone.lineality), []).append((ch.id, n))
    walls, boundary = set(), set()
    for facet, shared in facets.items():
        if len(shared) == 1 and shared[0][1] in e.inequalities:
            boundary.add(shared[0])
        elif len(shared) == 2 and shared[0][1] == vneg(shared[1][1]):
            (left, _), (right, n) = sorted(shared, key=lambda s: next(x for x in s[1] if x))
            walls.add((left, right, n))
        else:
            issues.append(f"facet of chambers {[i for i, _ in shared]}, normals "
                          f"{[n for _, n in shared]}, is neither a wall nor on the boundary")
    issues += _unmatched([(w.left, w.right, w.normal) for w in complex_.walls], walls, "wall")
    issues += _unmatched([(b.chamber, b.normal) for b in complex_.boundary_facets],
                         boundary, "boundary facet")
    locs = [ch.cone.contains(chambers[0].representative) for ch in chambers]  # [] if none
    if locs.count("interior") != 1 or "boundary" in locs:
        issues.append(f"the first representative is interior to {locs.count('interior')} "
                      f"chambers and on the boundary of {locs.count('boundary')}")
    return CoverReport(
        not issues,
        len(chambers),
        len(complex_.walls),
        len(complex_.boundary_facets),
        tuple(issues),
    )
