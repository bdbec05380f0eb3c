"""Simplicial fans, divisor class weights, Gale duality, and GIT quotient fans.

The central construction: a simplicial fan determines a grading of a
polynomial ring by the divisor class group (one variable per ray), and a
character chi of the grading torus determines a quotient fan supported on
the Gale-dual vectors.  For chi inside the chamber a fan came from, the
round trip reproduces the fan up to a unimodular change of coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb

from .cones import Cone, cone_from_generators, intersection_rays
from .errors import (
    DegenerateLinearizationError,
    DimensionMismatchError,
    EmptySemistableLocusError,
    InputTooLargeError,
    InvalidFanError,
    InvariantViolationError,
    NonIntegerEntryError,
    RankDeficientWeightsError,
)
from .linalg import (
    IntVec,
    dot,
    hermite_normal_form,
    is_zero,
    kernel_basis,
    primitive,
    primitive_normal,
    rank_of,
    smith_normal_form,
    vneg,
)

# The simplicial-cone table takes 0.03-0.08 us times rho^4 per rho-subset
# of columns for rho = 3..12, and about 0.3 us times rho^4 at rho = 2, where
# the fixed cost of each subset dominates (measured on a 2-core machine with
# CPython 3.11).  So a system with C(r, rho) * rho^4 above this bound, under
# 1 s of table alone for rho >= 3 and about 3 s at rho = 2, is refused
# before any subset is walked.
MAX_TABLE_WORK = 10**7


@dataclass(frozen=True)
class Fan:
    """A fan given by primitive ray generators and maximal cones as index sets."""

    ambient_dim: int
    rays: tuple[IntVec, ...]
    max_cones: tuple[tuple[int, ...], ...]


def _integers(values, what: str) -> tuple[int, ...]:
    """values as a tuple, when every entry is an int and none is a bool."""
    values = tuple(values)
    for x in values:
        # bool is an int subclass, but True/False is not an integer entry
        if type(x) is not int:
            raise NonIntegerEntryError(f"{what} has the entry {x!r}, expected an integer")
    return values


def make_fan(rays, max_cones, ambient_dim: int | None = None) -> Fan:
    """Build a Fan after normalizing rays to primitive and sorting cone data.

    Ray order is preserved (indices are meaningful); each cone is sorted and
    the list of cones is sorted and deduplicated.  A ray entry or cone index
    that is not an int raises NonIntegerEntryError.
    """
    rays = [_integers(r, f"ray {i}") for i, r in enumerate(rays)]
    if ambient_dim is None:
        if not rays:
            raise InvalidFanError("ambient_dim required for a fan with no rays")
        ambient_dim = len(rays[0])
    for r in rays:
        if len(r) != ambient_dim:
            raise InvalidFanError(f"ray {r} does not have length {ambient_dim}")
        if is_zero(r):
            raise InvalidFanError("zero vector is not a ray")
    prims = [primitive(r) for r in rays]
    if len(set(prims)) != len(prims):
        raise InvalidFanError("duplicate rays after normalizing to primitive vectors")
    cones = set()
    for k, c in enumerate(max_cones):
        c = tuple(sorted(set(_integers(c, f"cone {k}"))))
        for i in c:
            if not 0 <= i < len(prims):
                raise InvalidFanError(f"cone index {i} out of range")
        cones.add(c)
    return Fan(ambient_dim, tuple(prims), tuple(sorted(cones)))


@dataclass(frozen=True)
class FanValidation:
    ok: bool
    issues: tuple[str, ...]


def validate_fan(fan: Fan) -> FanValidation:
    """Check ray usage, simpliciality, maximality, and pairwise face intersections.

    When every ray is in a cone, a facet certificate (De Loera-Rambau-Santos,
    *Triangulations*, 2010, Ch. 4) is tried first: every maximal cone has
    ambient_dim rays, each facet lies in exactly two cones whose left-out
    rays are strictly on opposite sides of it, and the sum of the first
    cone's rays lies in no other closed cone.  Then every cone is simplicial
    and full-dimensional, and no two are nested.  Along a generic path the
    number of cones holding the point changes only where the path crosses a
    facet, and there it leaves one of the facet's two cones as it enters the
    other, so the number is the same at every generic point.  Next to that
    sum it is 1.  So the cones cover the space once and meet face to face,
    the fan is valid and complete, and no cone is converted.

    When the certificate fails (an incomplete fan, an unused ray, a bad
    fan), the pairwise checks run as they would without it: ranks, nesting,
    and, when neither these nor the ray check found an issue, whether each
    pair of cones meets in the cone of their shared rays.  Simplicial cones
    a and b do exactly when a ∩ b has no lineality and its extreme rays are
    zero on the facets of a through every shared ray, which cut out that
    face of a (Fulton, *Introduction to Toric Varieties*, 1.2).
    """
    in_cones = set().union(*fan.max_cones)
    issues = [f"ray {i} lies in no cone" for i in range(len(fan.rays)) if i not in in_cones]
    if not issues and _facet_certificate(fan):
        return FanValidation(True, ())
    for c in fan.max_cones:
        rows = [fan.rays[i] for i in c]
        if rank_of(rows) != len(c):
            issues.append(f"cone {c} is not simplicial: rays are dependent")
    for a, b in combinations(fan.max_cones, 2):
        if set(a) <= set(b) or set(b) <= set(a):
            issues.append(f"cone {a} and cone {b} are nested; both listed as maximal")
    if not issues:
        issues = _pairwise_issues(fan)
    return FanValidation(not issues, tuple(issues))


def _facet_certificate(fan: Fan) -> bool:
    """Whether the maximal cones are full simplicial cones covering the space once.

    Two cones holding a facet lie on opposite sides of it when one of them
    has the facet's shared normal as its inward normal and the other its
    negative.
    """
    d, rays, cones = fan.ambient_dim, fan.rays, fan.max_cones
    if not cones or any(len(c) != d for c in cones):
        return False
    normal_of: dict[tuple[int, ...], IntVec] = {}
    sides: dict[tuple[int, ...], list[bool]] = {}
    inward = []
    for c in cones:
        normals = _inward_normals(rays, c, normal_of)
        if normals is None:
            return False
        for p, n in enumerate(normals):
            face = c[:p] + c[p + 1:]
            sides.setdefault(face, []).append(n == normal_of[face])
        inward.append(normals)
    if any(len(s) != 2 or s[0] == s[1] for s in sides.values()):
        return False
    point = [sum(x) for x in zip(*(rays[i] for i in cones[0]))]
    return not any(all(dot(n, point) >= 0 for n in normals) for normals in inward[1:])


def _pairwise_issues(fan: Fan) -> list[str]:
    """The pairs of simplicial cones that do not meet along their common face."""
    cones = {c: cone_from_generators([fan.rays[i] for i in c], ambient_dim=fan.ambient_dim)
             for c in fan.max_cones}
    issues = []
    for a, b in combinations(fan.max_cones, 2):
        shared = tuple(sorted(set(a) & set(b)))
        lineality, rays = intersection_rays(cones[a], cones[b])
        through = [h for h in cones[a].inequalities
                   if not any(dot(h, fan.rays[i]) for i in shared)]
        if lineality or any(dot(h, x) for h in through for x in rays):
            issues.append(f"cones {a} and {b} do not meet along their common face {shared}")
    return issues


def is_complete(fan: Fan) -> bool:
    """Whether the fan's support is the whole space.

    Valid for simplicial fans: complete iff every maximal cone is
    full-dimensional and every facet (drop one ray) is shared by exactly
    two maximal cones.
    """
    d = fan.ambient_dim
    if d == 0:
        return True
    if not fan.max_cones:
        return False
    facet_count: dict[tuple[int, ...], int] = {}
    for c in fan.max_cones:
        if len(c) != d or rank_of([fan.rays[i] for i in c]) != d:
            return False
        for drop in c:
            f = tuple(i for i in c if i != drop)
            facet_count[f] = facet_count.get(f, 0) + 1
    return all(v == 2 for v in facet_count.values())


def canonicalize_fan(fan: Fan) -> Fan:
    """Unimodular-coordinate canonical form of a fan.

    Applies the change of basis that brings the matrix of ray coordinates
    (rays as columns) to row Hermite form.  Two spanning fans related by an
    integer change of coordinates canonicalize to the same Fan, with ray
    order preserved.
    """
    if not fan.rays:
        return fan
    coord_rows = [tuple(r[k] for r in fan.rays) for k in range(fan.ambient_dim)]
    h = list(hermite_normal_form(coord_rows))
    n = len(fan.rays)
    while len(h) < fan.ambient_dim:
        h.append(tuple([0] * n))
    new_rays = [tuple(h[k][i] for k in range(fan.ambient_dim)) for i in range(n)]
    return make_fan(new_rays, fan.max_cones, fan.ambient_dim)


@dataclass(frozen=True)
class WeightSystem:
    """Torus weights of the coordinates: one integer column per variable.

    rho is the rank of the acting torus character lattice, r the number of
    coordinates.  Finite grading factors are recorded in torsion but do not
    enter the chamber geometry.
    """

    rho: int
    r: int
    columns: tuple[IntVec, ...]
    torsion: tuple[int, ...]

    @cached_property
    def simplicial_cones(self) -> tuple[tuple[tuple[int, ...], tuple[IntVec, ...]], ...]:
        """Each nonsingular rho-subset of columns with the facet normals of its cone.

        normals[p] is the primitive inward normal of the facet opposite
        column subset[p]: zero on the other columns, positive on that one.
        A character is in the closed cone when every normal is nonnegative
        on it, and in the interior when every normal is positive.  Empty
        exactly when the weight matrix has rank below rho.  Raises
        InputTooLargeError, before walking any subset, when
        C(r, rho) * rho^4 exceeds MAX_TABLE_WORK.

        Each (rho-1)-subset's primitive normal is computed once and shared
        by every subset holding it (_inward_normals).
        """
        rho = self.rho
        subsets = comb(self.r, rho)
        if subsets * rho**4 > MAX_TABLE_WORK:
            raise InputTooLargeError(
                f"{self.r} weight columns of rank {rho} have {subsets} column subsets "
                f"to tabulate; at most {MAX_TABLE_WORK // rho**4} are accepted at rank {rho}"
            )
        normal_of: dict[tuple[int, ...], IntVec] = {}
        table = []
        for subset in combinations(range(self.r), rho):
            normals = _inward_normals(self.columns, subset, normal_of)
            if normals is not None:
                table.append((subset, normals))
        return tuple(table)


def _inward_normals(vectors, subset, normal_of) -> tuple[IntVec, ...] | None:
    """Inward facet normals of the cone of vectors[subset], or None when they are dependent.

    normals[p] is zero on the other vectors of the subset and positive on
    vectors[subset[p]].  It depends only on the vectors spanning the facet,
    so normal_of memoizes one primitive normal N per facet index tuple
    (linalg.primitive_normal), shared by every subset holding it.  With
    v = N . vectors[subset[p]], the vectors are dependent when v = 0 (N is
    zero for dependent facet vectors), and otherwise the inward normal is
    N or -N as v is positive or negative.
    """
    normals = []
    for p in range(len(subset)):
        face = subset[:p] + subset[p + 1:]
        n = normal_of.get(face)
        if n is None:
            n = normal_of[face] = primitive_normal([vectors[j] for j in face])
        v = dot(n, vectors[subset[p]])
        if v == 0:
            return None
        normals.append(n if v > 0 else vneg(n))
    return tuple(normals)


def weight_system(columns, torsion=()) -> WeightSystem:
    """Weight system of int columns and torsion factors (else NonIntegerEntryError)."""
    columns = tuple(_integers(c, f"weight column {i}") for i, c in enumerate(columns))
    if not columns:
        raise DimensionMismatchError("a weight system needs at least one column")
    rho = len(columns[0])
    if rho < 1:
        raise DimensionMismatchError("weight columns must have positive length")
    for c in columns:
        if len(c) != rho:
            raise DimensionMismatchError("weight columns of unequal length")
    torsion = _integers(torsion, "torsion")
    if any(t < 2 for t in torsion):
        raise DimensionMismatchError("torsion factors must be at least 2")
    return WeightSystem(rho, len(columns), columns, torsion)


def cox_weights(fan: Fan) -> WeightSystem:
    """Weights of the coordinates of the total coordinate ring of a fan.

    The class group is the cokernel of the map sending a linear functional
    to its values on the rays; its free part gives the columns, its finite
    invariant factors the torsion.
    """
    n = len(fan.rays)
    d = fan.ambient_dim
    if n == 0:
        raise InvalidFanError("cannot grade a fan with no rays")
    rows = [tuple(r) for r in fan.rays]  # n x d, acting on functionals
    snf = smith_normal_form(rows)
    k = sum(1 for i in range(min(n, d)) if snf.d[i][i] != 0)
    rho = n - k
    if rho == 0:
        raise InvalidFanError(
            "the rays form a basis: the grading torus is trivial and there is no chamber geometry"
        )
    columns = tuple(tuple(snf.u[j][i] for j in range(k, n)) for i in range(n))
    torsion = tuple(snf.d[i][i] for i in range(k) if snf.d[i][i] > 1)
    return weight_system(columns, torsion)


def gale_dual(ws: WeightSystem) -> tuple[IntVec, ...]:
    """One Gale vector per weight column: columns of the kernel basis of the weight matrix."""
    w_rows = [tuple(c[j] for c in ws.columns) for j in range(ws.rho)]
    basis = kernel_basis(w_rows, ws.r)
    return tuple(tuple(b[i] for b in basis) for i in range(ws.r))


def wall_hyperplanes(ws: WeightSystem) -> tuple[IntVec, ...]:
    """Primitive normals of the hyperplanes spanned by columns.

    Every hyperplane spanned by weight columns holds rho-1 independent
    columns, and adding one column off it gives a simplicial cone with that
    hyperplane as a facet, so the facet normals of ``ws.simplicial_cones``
    are all of them.  Normals are sign-normalized (first nonzero entry
    positive) and deduplicated.  Each wall lies in one; no walk reads them.
    """
    normals = set()
    for _, facet_normals in ws.simplicial_cones:
        for h in facet_normals:
            normals.add(h if next(x for x in h if x != 0) > 0 else vneg(h))
    return tuple(sorted(normals))


def g_ample_cone(ws: WeightSystem) -> Cone:
    """Cone of characters admitting semistable points: pos of all weight columns."""
    return cone_from_generators(ws.columns, ambient_dim=ws.rho)


def _check_chi(ws: WeightSystem, chi) -> IntVec:
    chi = _integers(chi, "character")
    if len(chi) != ws.rho:
        raise DimensionMismatchError(
            f"character of length {len(chi)} for a rank-{ws.rho} grading"
        )
    return chi


@dataclass(frozen=True)
class QuotientData:
    """Quotient fan of a chamber together with the column bookkeeping.

    interior holds the column bitmasks of the table subsets whose open
    cone holds the character (see _interior_masks); the maximal cones are
    their complements.
    """

    fan: Fan
    used_columns: tuple[int, ...]
    dropped_columns: tuple[int, ...]
    interior: tuple[int, ...]


def _full_rank_table(ws: WeightSystem):
    """ws.simplicial_cones, or RankDeficientWeightsError when it is empty."""
    if not ws.simplicial_cones:
        raise RankDeficientWeightsError(
            f"weight matrix has rank below {ws.rho}; no chamber is full-dimensional"
        )
    return ws.simplicial_cones


def _interior_masks(ws: WeightSystem, chi) -> tuple[int, ...]:
    """Column bitmasks of the table subsets whose open cone holds chi, in table order.

    Raises RankDeficientWeightsError when the table is empty,
    EmptySemistableLocusError when no closed table cone holds chi (chi is
    outside the effective cone), and DegenerateLinearizationError when a
    closed table cone holds chi on its boundary, exactly when chi is in a
    column cone of dimension below rho and so in no chamber's interior.
    """
    chi = _check_chi(ws, chi)
    wall = None
    interior = []
    for subset, normals in _full_rank_table(ws):
        values = [dot(h, chi) for h in normals]
        if min(values) > 0:
            interior.append(sum(1 << j for j in subset))
        elif wall is None and min(values) == 0:
            wall = normals[values.index(0)]
    if wall is not None:
        raise DegenerateLinearizationError(
            f"character {chi} lies on a hyperplane spanned by weight columns: "
            f"the one with normal {wall}"
        )
    if not interior:
        raise EmptySemistableLocusError(
            f"character {chi} lies outside the semistable cone; no semistable points"
        )
    return tuple(interior)


def _used_columns(r: int, interior) -> tuple[int, ...]:
    """Columns outside at least one of the masks: those the quotient fan uses."""
    return tuple(i for i in range(r) if any(not mask >> i & 1 for mask in interior))


def quotient_fan_data(ws: WeightSystem, chi) -> QuotientData:
    """Quotient fan for a character in the interior of a chamber.

    Maximal cones are the complements, on Gale vectors, of the column
    subsets whose simplicial cone contains chi in its interior.  Columns
    appearing in no maximal cone correspond to divisors contracted by the
    linearization and are dropped (with their indices reported).  A chi in
    no closed simplicial column cone has an empty semistable locus; a chi
    on the boundary of one, in no chamber's interior, is degenerate.
    """
    interior = _interior_masks(ws, chi)
    gale = gale_dual(ws)
    complements = [
        tuple(i for i in range(ws.r) if not mask >> i & 1) for mask in interior
    ]
    used = _used_columns(ws.r, interior)
    position = {col: idx for idx, col in enumerate(used)}
    fan = make_fan(
        [gale[i] for i in used],
        [tuple(position[i] for i in c) for c in complements],
        ambient_dim=ws.r - ws.rho,
    )
    report = validate_fan(fan)
    if not report.ok:
        raise InvariantViolationError(
            "quotient fan failed validation: " + "; ".join(report.issues)
        )
    dropped = tuple(i for i in range(ws.r) if i not in position)
    return QuotientData(fan, used, dropped, interior)


@dataclass(frozen=True)
class UnstableReport:
    """Maximal unstable coordinate supports and the codimension of the unstable locus.

    Each stratum is the set of coordinates allowed to be nonzero; the
    corresponding unstable subspace has codimension r - len(stratum).
    """

    strata: tuple[tuple[int, ...], ...]
    min_codim: int


def _minimal_transversals(masks) -> list[int]:
    """Minimal bitmasks that meet every mask in masks (Berge's algorithm).

    Adds one mask at a time.  A transversal that meets it stays; one that
    misses it grows by each bit of it.  The family before each step is an
    antichain, so a grown set fails to be minimal only by containing a set
    that stayed.
    """
    family = [0]
    for mask in masks:
        bits = [1 << j for j in range(mask.bit_length()) if mask >> j & 1]
        kept = [t for t in family if t & mask]
        grown = {t | b for t in family if not t & mask for b in bits}
        family = kept + [g for g in grown if not any(k & g == k for k in kept)]
    return family


def unstable_locus(ws: WeightSystem, chi) -> UnstableReport:
    """Maximal unstable coordinate supports for a character, from the table.

    A point is unstable exactly when chi is outside the cone spanned by
    the weights of its nonzero coordinates.  For chi on the boundary of no
    closed table cone, chi lies in that cone exactly when the support
    contains a table subset whose open cone holds chi: by Caratheodory chi
    is a positive combination of some independent subset of the support,
    and fewer than rho such columns extend to a table subset whose closed
    cone holds chi on its boundary.  So the maximal unstable supports are
    the complements of the minimal transversals of those subsets, the
    irrelevant ideal of Cox (1995).  The work is one pass over the table
    plus Berge's algorithm, whose families are antichains of column
    subsets; no cone is built.

    A chi outside the closed effective cone gives the single stratum of
    all coordinates, with codimension 0 (the empty set is the transversal
    of the empty family).  A chi on the boundary of a closed table cone,
    chi = 0 included, raises DegenerateLinearizationError, and
    rank-deficient weights raise RankDeficientWeightsError, as in
    quotient_fan_data.
    """
    try:
        interior = _interior_masks(ws, chi)
    except EmptySemistableLocusError:
        interior = []
    return _unstable_report(ws.r, interior)


def _unstable_report(r: int, interior) -> UnstableReport:
    """The unstable_locus report of r columns from the interior masks of chi."""
    strata = tuple(sorted(
        tuple(i for i in range(r) if not t >> i & 1)
        for t in _minimal_transversals(interior)
    ))
    return UnstableReport(strata, min(r - len(s) for s in strata))
