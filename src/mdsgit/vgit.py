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
from operator import mul

from .cones import Cone, cut_by_inequalities
from .errors import InvariantViolationError
from .linalg import IntVec, dot, primitive, vneg
from .toric import (
    QuotientData,
    WeightSystem,
    _check_chi,
    _full_rank_table,
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
    """The full chamber decomposition of the semistable cone of a weight system.

    sides maps each chamber side, (chamber id, inward facet normal), to
    (p, kind, index): p is the sum of the chamber's generators on the
    side, in its relative interior, and the side is walls[index] when kind
    is "wall", boundary_facets[index] when it is "boundary".  The walk
    computes them (_walk); no reader rebuilds them.
    """

    weights: WeightSystem
    g_ample: Cone
    chambers: tuple[Chamber, ...]
    walls: tuple[Wall, ...]
    boundary_facets: tuple[BoundaryFacet, ...]
    sides: dict = field(default_factory=dict, repr=False, compare=False)
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

    table holds (column bitmask, facet normals) entries, and the key is
    the masks of those whose normals are all positive there, in table
    order.  This is the one sign rule of every key read, the walk's start
    and each neighbour: h is positive at the perturbed point when the
    first nonzero of h.rows[0], ..., h.rows[k-1], h_1, ..., h_rho is, so no
    perturbed point is formed.
    """
    key = []
    for mask, normals in table:
        for h in normals:
            for x in rows:
                v = sum(map(mul, h, x))
                if v:
                    break
            else:
                for v in h:
                    if v:
                        break
            if v < 0:
                break
        else:
            key.append(mask)
    return tuple(key)


def _neighbour_reader(table):
    """A function (key, p, n) giving the key at p - e n, e -> 0+, for p on a chamber facet.

    table holds (column bitmask, facet normals) entries, as _key_at
    reads them; key is the chamber's and n the facet's inward normal.  A
    subset whose closed cone holds the chamber and has p, a
    relative-interior point of the facet, on its boundary has the facet's
    hyperplane as a facet, and so a facet normal parallel to n; every
    other subset keeps its membership.  So the entries are indexed by
    inward facet normal, masks and all.  The subsets holding +n leave,
    since n.(p - e n) < 0, and only those holding -n, none of which can
    hold the chamber, are re-read by _key_at's sign rule.  Empty exactly
    when p - e n is outside the semistable cone.
    """
    position = {}
    holding: dict[IntVec, tuple[list, set]] = {}  # normal -> its entries and their masks
    for entry in table:
        mask, normals = entry
        position[mask] = len(position)
        for h in normals:
            sub, masks = holding.setdefault(h, ([], set()))
            sub.append(entry)
            masks.add(mask)

    def across(key, p, n) -> tuple[int, ...]:
        leaving = holding[n][1]
        kept = [m for m in key if m not in leaving]
        out = vneg(n)
        entering = _key_at(holding[out][0], [p, out]) if out in holding else ()
        return tuple(sorted(kept + list(entering), key=position.__getitem__))

    return across


def _walk(ws: WeightSystem) -> dict[tuple[int, ...], tuple[Cone, list]]:
    """Each chamber's key, with its cone and its sides (n, p, the key across n).

    Walks from key to key, starting at the sum of all columns.  Each
    chamber is converted once, in one double-description pass: the
    simplicial cone of its key's first subset, canonical as the table
    gives it, is cut by the other subsets' facet normals
    (cut_by_inequalities), and nothing else is converted.  The cut also
    gives each facet's tight rays, read off its masks, and p is their
    sum, a relative-interior point of the facet.  Across each chamber
    normal n the key at p - e n re-reads only the subsets with facet
    normal -n (_neighbour_reader), by the sign rule of the start read
    (_key_at); it is empty on the boundary of the semistable cone and
    names the neighbour otherwise.
    """
    table = _full_rank_table(ws)
    normals_of = dict(table)
    across = _neighbour_reader(table)
    origin = (0,) * ws.rho
    found: dict[tuple[int, ...], tuple[Cone, list]] = {}
    todo = [_key_at(table, [tuple(map(sum, zip(*ws.columns)))])]
    while todo:
        key = todo.pop()
        if key in found:
            continue
        normals = normals_of[key[0]]
        gens = tuple(sorted(primitive(c) for j, c in enumerate(ws.columns) if key[0] >> j & 1))
        seed = Cone(ws.rho, gens, tuple(sorted(normals)), (), ())
        rest = {h for m in key[1:] for h in normals_of[m]}.difference(normals)
        cone, tight = cut_by_inequalities(seed, sorted(rest))
        sides = []
        for n, rays in zip(cone.inequalities, tight):
            p = tuple(map(sum, zip(origin, *rays)))
            other = across(key, p, n)
            sides.append((n, p, other))
            if other:
                todo.append(other)
        found[key] = (cone, sides)
    return found


def enumerate_chambers(ws: WeightSystem) -> ChamberComplex:
    """Enumerate all GIT chambers, walls, and boundary facets of a weight system.

    Walks from key to key (_walk), starting at the sum of all columns:
    each chamber is one cut of its first key subset's simplicial cone
    (cut_by_inequalities), each facet point is the sum of the tight rays
    that cut returns, and the start key and every neighbour key are read
    by one sign rule (_key_at).  The chambers are numbered in the order of
    their sorted generators.  Each neighbour key must reach back across
    the opposite normal.  A wall is listed once, from the side its
    sign-normalized normal points into.  Once the walls and boundary
    facets are sorted, every side the walk computed is kept in sides.
    """
    found = _walk(ws)
    order = sorted(found, key=lambda k: found[k][0].generators)
    id_of = {key: i for i, key in enumerate(order)}
    chambers, walls, boundary = [], [], []
    crossed = {(key, other, n) for key in order for n, _, other in found[key][1]}
    for i, key in enumerate(order):
        cone, sides = found[key]
        chambers.append(Chamber(i, cone, cone.relative_interior_point(), key))
        for n, _, other in sides:
            if not other:
                boundary.append(BoundaryFacet(i, n))
            elif (other, key, vneg(n)) not in crossed:
                raise InvariantViolationError(f"chamber {i}'s wall {n} is one-sided")
            elif next(x for x in n if x) > 0:
                walls.append(Wall(id_of[other], i, n))
    walls.sort(key=lambda w: (w.left, w.right))
    boundary.sort(key=lambda b: (b.chamber, b.normal))
    side_of = {}
    for k, w in enumerate(walls):
        side_of[w.right, w.normal] = side_of[w.left, vneg(w.normal)] = ("wall", k)
    for k, b in enumerate(boundary):
        side_of[b.chamber, b.normal] = ("boundary", k)
    index = {(i, n): (p, *side_of[i, n]) for i, k in enumerate(order) for n, p, _ in found[k][1]}
    return ChamberComplex(ws, g_ample_cone(ws), tuple(chambers), tuple(walls), tuple(boundary),
                          index)


def chamber_of(complex_: ChamberComplex, chi) -> ChamberLocation:
    """Locate a character by the key read just inside the semistable cone E from it.

    The key at chi + e c, e -> 0+, with c the sum of all columns and so
    interior to E, is read by the walk's sign rule (_key_at).  It is empty
    exactly when chi is outside E, and otherwise names a chamber whose
    closure holds chi.  chi is interior to that chamber when none of its
    facet normals vanishes there, in the relative interior of that side's
    wall or boundary facet (read from sides) when exactly one does, and on
    a face of codimension 2 or more otherwise.
    """
    ws = complex_.weights
    chi = _check_chi(ws, chi)
    key = _key_at(ws.simplicial_cones, [chi, tuple(map(sum, zip(*ws.columns)))])
    if not key:
        return ChamberLocation("outside")
    ch = next((ch for ch in complex_.chambers if ch.key == key), None)
    if ch is None:
        raise InvariantViolationError(f"character {chi} reads the key of no chamber")
    on = [n for n in ch.cone.inequalities if dot(n, chi) == 0]
    if not on:
        return ChamberLocation("interior", chamber=ch.id)
    if len(on) > 1:
        return ChamberLocation("face")
    _, kind, index = complex_.sides[ch.id, on[0]]
    if kind == "wall":
        return ChamberLocation("wall", wall=index)
    return ChamberLocation("boundary", chamber=ch.id, boundary_facet=index)


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
