"""Chamber decomposition of the semistable cone of a weight system.

Characters in the interior of the cone spanned by the weight columns are
partitioned into finitely many full-dimensional chambers by the hyperplanes
spanned by column subsets.  Two characters in the same chamber give the same
quotient; crossing a wall changes it.  This module enumerates the chambers,
the walls between them, and the facets on the boundary of the semistable
cone, all with exact arithmetic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations

from .cones import (
    Cone,
    adjacent_pairs,
    cone_from_generators,
    intersect,
    split_by_hyperplanes,
)
from .errors import InvariantViolationError
from .linalg import IntVec, dot
from .toric import (
    QuotientData,
    WeightSystem,
    _check_chi,
    _full_rank_table,
    _interior_masks,
    _used_columns,
    g_ample_cone,
    quotient_fan_data,
    wall_hyperplanes,
)

# Up to these sizes enumerate_chambers runs _key_check by default.  The
# check is cheap; the gate stays because above it the split's cells can be
# finer than the GIT chambers (the rank-5 surface7 input has 303 cells in
# 50 keys), and the check would refuse those inputs.
_CROSS_CHECK_RHO = 3
_CROSS_CHECK_R = 8


@dataclass(frozen=True)
class Chamber:
    """One full-dimensional chamber, with an integer interior representative.

    Bit k of mask is set when the chamber lies on the positive side of
    the complex's hyperplane k.
    """

    id: int
    cone: Cone
    representative: IntVec
    mask: int


@dataclass(frozen=True)
class Wall:
    """Shared facet of two chambers; the normal is positive on the right chamber."""

    left: int
    right: int
    normal: IntVec
    facet: Cone


@dataclass(frozen=True)
class BoundaryFacet:
    """Chamber facet on the boundary of the semistable cone; normal points inward."""

    chamber: int
    normal: IntVec
    facet: Cone


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
    hyperplanes: tuple[IntVec, ...]
    chambers: tuple[Chamber, ...]
    walls: tuple[Wall, ...]
    boundary_facets: tuple[BoundaryFacet, ...]
    _quotients: dict = field(default_factory=dict, repr=False, compare=False)
    _keys: dict = field(default_factory=dict, repr=False, compare=False)
    _moving: object = field(default=None, repr=False, compare=False)

    def quotient(self, chamber_id: int) -> QuotientData:
        """Quotient fan data of a chamber, computed once and cached."""
        if chamber_id not in self._quotients:
            rep = self.chambers[chamber_id].representative
            self._quotients[chamber_id] = quotient_fan_data(self.weights, rep)
        return self._quotients[chamber_id]

    def key(self, chamber_id: int) -> tuple[int, ...]:
        """The chamber's key, toric._interior_masks at its representative, cached."""
        if chamber_id not in self._keys:
            rep = self.chambers[chamber_id].representative
            self._keys[chamber_id] = _interior_masks(self.weights, rep)
        return self._keys[chamber_id]

    def used_columns(self, chamber_id: int) -> tuple[int, ...]:
        """Columns of the chamber's quotient rays, read off its key."""
        return _used_columns(self.weights.r, self.key(chamber_id))


def _key_check(ws: WeightSystem, chambers) -> dict[int, tuple[int, ...]]:
    """Each chamber's key by id; raises when two chambers share a key.

    A chamber's key lists the table subsets whose open cone holds its
    representative.  A cell of the split equals the intersection of the
    closed table cones holding it exactly when no other cell has its key.
    """
    keys = {ch.id: _interior_masks(ws, ch.representative) for ch in chambers}
    count = Counter(keys.values())
    shared = next((i for i, key in keys.items() if count[key] > 1), None)
    if shared is not None:
        raise InvariantViolationError(
            f"chamber {shared} disagrees with the intersection of simplicial "
            "column cones: the candidate hyperplanes strictly refine the coarsest "
            "decomposition here; pass cross_check=False to accept the refinement"
        )
    return keys


def enumerate_chambers(ws: WeightSystem, cross_check: bool | None = None) -> ChamberComplex:
    """Enumerate all chambers, walls, and boundary facets of a weight system.

    Chambers are the distinct strict sign vectors realized inside the
    semistable cone; walls join chambers whose sign vectors differ in one
    hyperplane.  At small sizes no two chambers may share a key (see
    _key_check), so each is the intersection of the simplicial column
    cones containing its representative.
    """
    _full_rank_table(ws)
    g = g_ample_cone(ws)
    hyps = wall_hyperplanes(ws)
    cells = sorted(
        (
            (cone_from_generators(cell.rays, cell.lineality, ambient_dim=ws.rho), cell.mask)
            for cell in split_by_hyperplanes(g, hyps)
        ),
        key=lambda cell: (cell[0].generators, cell[0].lineality),
    )
    chambers = [
        Chamber(i, c, c.relative_interior_point(), mask) for i, (c, mask) in enumerate(cells)
    ]

    if cross_check is None:
        cross_check = ws.rho <= _CROSS_CHECK_RHO and ws.r <= _CROSS_CHECK_R
    keys = _key_check(ws, chambers) if cross_check else {}

    walls = []
    wall_facets: set[tuple[int, Cone]] = set()
    for i, j, k in adjacent_pairs([ch.mask for ch in chambers], len(hyps)):
        facet = intersect(chambers[i].cone, chambers[j].cone)
        if len(facet.equations) != 1:
            raise InvariantViolationError(
                f"wall between chambers {i} and {j} is not codimension one"
            )
        left, right = (i, j) if chambers[j].mask >> k & 1 else (j, i)
        walls.append(Wall(left, right, hyps[k], facet))
        wall_facets.update(((i, facet), (j, facet)))
    walls.sort(key=lambda w: (w.left, w.right))

    boundary = []
    for ch in chambers:
        for h in ch.cone.inequalities:
            tight = [g_ for g_ in ch.cone.generators if dot(h, g_) == 0]
            facet = cone_from_generators(tight, ch.cone.lineality, ambient_dim=ws.rho)
            if (ch.id, facet) not in wall_facets:
                boundary.append(BoundaryFacet(ch.id, h, facet))
    boundary.sort(key=lambda b: (b.chamber, b.normal))

    return ChamberComplex(ws, g, hyps, tuple(chambers), tuple(walls), tuple(boundary),
                          _keys=keys)


def chamber_of(complex_: ChamberComplex, chi) -> ChamberLocation:
    """Locate a character within the chamber complex."""
    chi = _check_chi(complex_.weights, chi)
    loc = complex_.g_ample.contains(chi)
    if loc == "outside":
        return ChamberLocation("outside")
    for ch in complex_.chambers:
        if ch.cone.contains(chi) == "interior":
            return ChamberLocation("interior", chamber=ch.id)
    for idx, w in enumerate(complex_.walls):
        if w.facet.contains(chi) == "interior":
            return ChamberLocation("wall", wall=idx)
    for idx, b in enumerate(complex_.boundary_facets):
        if b.facet.contains(chi) == "interior":
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


def _closed_sides(cone: Cone, hyperplanes) -> tuple[int, int]:
    """Bitmasks of the hyperplanes with the cone on their closed >= 0 and <= 0 sides."""
    ge = le = 0
    for k, h in enumerate(hyperplanes):
        if any(dot(h, l) for l in cone.lineality):
            continue
        vals = [dot(h, g) for g in cone.generators]
        if all(v >= 0 for v in vals):
            ge |= 1 << k
        if all(v <= 0 for v in vals):
            le |= 1 << k
    return ge, le


def verify_disjoint_cover(complex_: ChamberComplex) -> CoverReport:
    """Verify chambers have disjoint interiors and account for every facet.

    Checks: pairwise intersections of chambers are lower-dimensional, each
    representative is interior to exactly its own chamber, wall relative
    interiors touch exactly their two chambers, and boundary facet relative
    interiors touch exactly one chamber.  A pair of chambers on opposite
    closed sides of one of the complex's hyperplanes needs no intersection;
    any other pair is intersected.
    """
    issues = []
    chambers = complex_.chambers
    sides = [_closed_sides(ch.cone, complex_.hyperplanes) for ch in chambers]
    for (a, (a_ge, a_le)), (b, (b_ge, b_le)) in combinations(zip(chambers, sides), 2):
        if a_ge & b_le or a_le & b_ge:
            continue
        common = intersect(a.cone, b.cone)
        if common.is_full_dim:
            issues.append(f"chambers {a.id} and {b.id} overlap in full dimension")
    for ch in chambers:
        for other in chambers:
            loc = other.cone.contains(ch.representative)
            if (loc == "interior") != (other.id == ch.id):
                issues.append(
                    f"representative of chamber {ch.id} mislocated in chamber {other.id}: {loc}"
                )
    for idx, w in enumerate(complex_.walls):
        p = w.facet.relative_interior_point()
        touching = sorted(
            ch.id for ch in chambers if ch.cone.contains(p) != "outside"
        )
        if touching != sorted((w.left, w.right)):
            issues.append(f"wall {idx} touches chambers {touching}")
        if dot(w.normal, complex_.chambers[w.right].representative) <= 0:
            issues.append(f"wall {idx} normal not positive on its right chamber")
        if dot(w.normal, complex_.chambers[w.left].representative) >= 0:
            issues.append(f"wall {idx} normal not negative on its left chamber")
    for idx, b in enumerate(complex_.boundary_facets):
        p = b.facet.relative_interior_point()
        touching = sorted(
            ch.id for ch in chambers if ch.cone.contains(p) != "outside"
        )
        expected = [b.chamber]
        if b.facet.is_zero:
            # the origin lies in every chamber closure
            expected = sorted(ch.id for ch in chambers)
        if touching != expected:
            issues.append(f"boundary facet {idx} touches chambers {touching}")
    return CoverReport(
        not issues,
        len(chambers),
        len(complex_.walls),
        len(complex_.boundary_facets),
        tuple(issues),
    )
