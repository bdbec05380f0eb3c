"""Rational polyhedral cones with exact double-description conversion.

A cone is stored in a canonical two-sided form: extreme generators plus a
lineality basis on the V-side, facet inequalities plus an equation basis on
the H-side.  Canonicalization makes structural equality of the dataclass
coincide with geometric equality of the cones, and makes dualization a free
field swap.

Conversion and arrangement splitting share one double-description cut.
The state keeps lineality directly and tracks the zero sets of the cut
inequalities as bitmasks, so the ray adjacency test is purely
combinatorial and exact.  A constraint that is nonzero on the lineality
pivots on it; otherwise its values on the rays are computed once, and the
new rays on its hyperplane come from adjacent (positive, negative) ray
pairs, pruned by a cardinality bound on common zero bits before the
combinatorial test (Fukuda-Prodon, *Double description method revisited*,
1996).  A conversion keeps the + side of each inequality's cut; a split
keeps both sides of each crossed cell.

A pointed, full-dimensional cone is canonical once its rays and facet
normals are primitive and sorted.  So a conversion whose one pass ends
with no lineality, no equation and no cut row tight on every ray reads
the other side off the pass's masks (_facets_off_masks), and
cut_by_inequalities cuts such a cone further from its own state with no
pivot, and reads each facet's tight rays off the same masks.  Every
other conversion takes a second pass and projects off the lineality and
equations (_assemble).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .errors import DimensionMismatchError, InvariantViolationError
from .linalg import (
    IntVec,
    dot,
    identity_rows,
    is_zero,
    primitive,
    saturate_rows,
    solve_rational,
    to_int_vec,
    vneg,
    vscale,
    vsub,
)


@dataclass(frozen=True)
class Cone:
    """Canonical two-sided description of a rational polyhedral cone.

    The cone is pos(generators) + span(lineality), and equally the set of
    points satisfying every inequality (>= 0) and equation (= 0).  Both
    descriptions are irredundant and canonical, so == on this dataclass is
    geometric equality.
    """

    ambient_dim: int
    generators: tuple[IntVec, ...]
    inequalities: tuple[IntVec, ...]
    equations: tuple[IntVec, ...]
    lineality: tuple[IntVec, ...]

    @property
    def dim(self) -> int:
        return self.ambient_dim - len(self.equations)

    @property
    def is_full_dim(self) -> bool:
        return not self.equations

    @property
    def is_zero(self) -> bool:
        return not self.generators and not self.lineality

    def contains(self, point) -> str:
        """Locate a point: "interior" (relative), "boundary", or "outside"."""
        if len(point) != self.ambient_dim:
            raise DimensionMismatchError(
                f"point of length {len(point)} in cone of dimension {self.ambient_dim}"
            )
        if any(dot(e, point) != 0 for e in self.equations):
            return "outside"
        on_facet = False
        for h in self.inequalities:
            s = dot(h, point)
            if s < 0:
                return "outside"
            if s == 0:
                on_facet = True
        return "boundary" if on_facet else "interior"

    def relative_interior_point(self) -> IntVec:
        """An integer point in the relative interior (sum of generators)."""
        p = [0] * self.ambient_dim
        for g in self.generators:
            for i, x in enumerate(g):
                p[i] += x
        return tuple(p)


class _DDState:
    """Mutable double-description state: lineality, extreme rays, zero-masks.

    masks[i] has bit k set exactly when the k-th cut inequality vanishes on
    rays[i].  Every cut constraint vanishes identically on lin.  dim is the
    dimension of the kernel of the equations: of the equations a
    conversion starts with, and the ambient dimension in a split, which
    starts from a full-dimensional cone.
    """

    __slots__ = ("dim", "lin", "rays", "masks", "nbits")

    def __init__(self, dim: int, lin: list, rays: list, masks: list, nbits: int):
        self.dim, self.lin, self.rays, self.masks, self.nbits = dim, lin, rays, masks, nbits

    def _insert_pivot(self, c, lin_vals, equation=False):
        # c is nonzero on the lineality (lin_vals): consume the first
        # lineality generator it is nonzero on as the pivot and project
        # everything else onto c = 0 along it.  Cut inequalities vanish on
        # the pivot, so masks are unchanged by the projection.
        k = next(i for i, v in enumerate(lin_vals) if v)
        piv = self.lin.pop(k)
        s = lin_vals[k]
        if s < 0:
            piv = vneg(piv)
            s = -s
        self.lin = [
            primitive(vsub(vscale(s, l), vscale(dot(c, l), piv))) if dot(c, l) else l
            for l in self.lin
        ]
        new_rays = []
        for r in self.rays:
            v = dot(c, r)
            new_rays.append(primitive(vsub(vscale(s, r), vscale(v, piv))) if v else r)
        self.rays = new_rays
        if equation:
            return
        bit = 1 << self.nbits
        self.masks = [m | bit for m in self.masks]  # projected rays lie on c = 0
        self.rays.append(primitive(piv))
        self.masks.append(bit - 1)  # pivot: zero on every earlier inequality
        self.nbits += 1


def _dd_pass(dim, inequalities, equations) -> tuple[_DDState, list]:
    """The state of {x : equations = 0, inequalities >= 0}, and its cut rows.

    The state starts as the whole space.  Each equation pivots on the
    lineality, or vanishes on it and so depends on earlier ones and is
    skipped; what lineality is left spans the equations' kernel, which
    becomes the state's dim.  The inequalities are then cut (_cut_all).
    """
    st = _DDState(dim, list(identity_rows(dim)), [], [], 0)
    for e in equations:
        lin_vals = [sum(map(mul, e, l)) for l in st.lin]
        if any(lin_vals):
            st._insert_pivot(e, lin_vals, equation=True)
    st.dim = len(st.lin)
    return _cut_all(st, inequalities)


def _cut_all(st: _DDState, inequalities) -> tuple[_DDState, list]:
    """Cut the state's cone by each inequality; the rows cut, in mask-bit order.

    Each inequality h is cut like a split cell: nonzero on the lineality
    it pivots, as in _cut_lineality; >= 0 on every ray it is redundant and
    skipped, as a split leaves an uncut cell alone, and takes no mask bit;
    otherwise the + child of _cut_rays is kept, which is the face h = 0
    when h is positive on no ray.  Kept rays stay in order and the new
    rays follow them.  The k-th returned row owns mask bit st.nbits + k of
    the state passed in.
    """
    cut = []
    for h in inequalities:
        lin_vals = [sum(map(mul, h, l)) for l in st.lin]
        if any(lin_vals):
            st._insert_pivot(h, lin_vals)
            cut.append(h)
            continue
        vals = [sum(map(mul, h, r)) for r in st.rays]
        if min(vals, default=0) < 0:
            st = _cut_rays(st, vals)[0]
            cut.append(h)
    return st, cut


def _dd_vrep(dim, inequalities, equations) -> tuple[tuple[IntVec, ...], tuple[IntVec, ...]]:
    """Lineality basis and extreme rays of {x : equations = 0, inequalities >= 0}."""
    st = _dd_pass(dim, inequalities, equations)[0]
    return tuple(st.lin), tuple(st.rays)


def _facets_off_masks(st: _DDState, rows) -> dict[IntVec, int] | None:
    """Sorted primitive facet normals of a pointed, full-dimensional state, with tight rays.

    rows[k] owns mask bit k, and the state's dim is the ambient dimension
    (no equations).  None when the state has lineality or a row is tight
    on every ray: then the cone is not pointed or not full-dimensional.
    Otherwise the facets are the rows whose tight ray sets are maximal
    under inclusion.  Each facet normal is among the rows: a row skipped as
    redundant is a nonnegative combination of earlier rows, and a facet
    normal is an extreme ray of the dual cone, so one of those rows is a
    positive multiple of it.  Each other row's tight rays span a proper
    face, which lies in a facet with more rays.  Each normal maps to its
    facet's tight rays as a bitmask, bit i for st.rays[i].  The masks are
    exact: a cut row is nonnegative on every ray, so a new ray, a
    positive combination of two, is tight on it exactly when both are.
    """
    if st.lin:
        return None
    masks = st.masks
    by_tight: dict[int, IntVec] = {}
    for k, h in enumerate(rows):
        tight = sum(1 << i for i, m in enumerate(masks) if m >> k & 1)
        by_tight.setdefault(tight, h)
    if (1 << len(masks)) - 1 in by_tight:
        return None
    maximal: dict[IntVec, int] = {}
    for t in sorted(by_tight, key=int.bit_count, reverse=True):
        if not any(t & u == t for u in maximal.values()):
            maximal[primitive(by_tight[t])] = t
    return {n: maximal[n] for n in sorted(maximal)}


def _state_from_cone(cone: Cone) -> _DDState:
    gens, ineqs = list(cone.generators), cone.inequalities
    masks = [sum(1 << k for k, h in enumerate(ineqs) if dot(h, g) == 0) for g in gens]
    return _DDState(cone.ambient_dim, list(cone.lineality), gens, masks, len(ineqs))


def _project_off(v, basis) -> IntVec:
    """Primitive integer vector spanning the image of v orthogonally off span(basis)."""
    if not basis:
        return primitive(v)
    gram = [[dot(bi, bj) for bj in basis] for bi in basis]
    rhs = [dot(bi, v) for bi in basis]
    coeffs = solve_rational(gram, rhs)
    if coeffs is None:
        raise InvariantViolationError("independent basis produced singular Gram matrix")
    proj = list(v)
    for c, b in zip(coeffs, basis):
        for i, x in enumerate(b):
            proj[i] -= c * x
    if all(x == 0 for x in proj):
        raise InvariantViolationError("vector lies in the span it was projected off")
    return to_int_vec(proj)


def _assemble(dim, lin_rows, rays, eq_rows, facet_normals) -> Cone:
    lineality = saturate_rows(lin_rows, dim)
    equations = saturate_rows(eq_rows, dim)
    generators = tuple(sorted({_project_off(r, lineality) for r in rays}))
    inequalities = tuple(sorted({_project_off(h, equations) for h in facet_normals}))
    return Cone(dim, generators, inequalities, equations, lineality)


def _check_vectors(vectors, dim):
    for v in vectors:
        if len(v) != dim:
            raise DimensionMismatchError(
                f"vector of length {len(v)} in ambient dimension {dim}"
            )


def _infer_dim(groups, ambient_dim):
    if ambient_dim is not None:
        return ambient_dim
    for vectors in groups:
        for v in vectors:
            return len(v)
    raise DimensionMismatchError("ambient_dim required when no vectors are given")


def cone_from_generators(generators, lineality=(), ambient_dim=None) -> Cone:
    """Canonical cone pos(generators) + span(lineality).

    The dual of {x : generators >= 0, lineality = 0}: the canonical form
    is symmetric under swapping the two descriptions (dual).
    """
    return dual(cone_from_inequalities(generators, lineality, ambient_dim))


def cone_from_inequalities(inequalities, equations=(), ambient_dim=None) -> Cone:
    """Canonical cone {x : inequalities >= 0, equations = 0}.

    One double-description pass gives the extreme rays.  When the cone is
    pointed and full-dimensional, its facets are read off that pass's
    masks (_facets_off_masks); otherwise a second pass rebuilds them from
    the rays.
    """
    dim = _infer_dim((inequalities, equations), ambient_dim)
    _check_vectors(inequalities, dim)
    _check_vectors(equations, dim)
    ineqs = [tuple(h) for h in inequalities if not is_zero(h)]
    eqs = [tuple(e) for e in equations if not is_zero(e)]
    st, cut = _dd_pass(dim, ineqs, eqs)
    facets = None if eqs else _facets_off_masks(st, cut)
    if facets is not None:
        return Cone(dim, tuple(sorted(set(st.rays))), tuple(facets), (), ())
    lin_rows, rays = tuple(st.lin), tuple(st.rays)
    eq_rows, facet_normals = _dd_vrep(dim, rays, lin_rows)
    return _assemble(dim, lin_rows, rays, eq_rows, facet_normals)


def cut_by_inequalities(cone: Cone, inequalities) -> tuple[Cone, tuple[list[IntVec], ...]]:
    """{x in cone : inequalities >= 0} of a pointed, full-dimensional cone, with its facets' rays.

    Returns the canonical cut cone and, for each of its facets in
    order, the cut's rays tight on that facet.  The cut starts from the
    cone's own rays and facets, with no pivot, and reads the facets and
    their tight rays off its masks (_facets_off_masks), so no inequality
    is evaluated on a ray after the pass.  Raises InvariantViolationError
    when the cone has lineality or equations, or when the result is not
    full-dimensional.
    """
    if cone.lineality or cone.equations:
        raise InvariantViolationError("cutting requires a pointed, full-dimensional cone")
    _check_vectors(inequalities, cone.ambient_dim)
    st, cut = _cut_all(_state_from_cone(cone), [tuple(h) for h in inequalities])
    facets = _facets_off_masks(st, cone.inequalities + tuple(cut))
    if facets is None:
        raise InvariantViolationError("the cut cone is not full-dimensional")
    rays = st.rays
    tight = tuple([r for i, r in enumerate(rays) if t >> i & 1] for t in facets.values())
    return Cone(cone.ambient_dim, tuple(sorted(set(rays))), tuple(facets), (), ()), tight


def dual(cone: Cone) -> Cone:
    """Dual cone {y : <y, x> >= 0 for all x in the cone}.

    Canonicalization makes this a pure field swap, and exactly involutive.
    """
    return Cone(
        cone.ambient_dim,
        generators=cone.inequalities,
        inequalities=cone.generators,
        equations=cone.lineality,
        lineality=cone.equations,
    )


def intersect(a: Cone, b: Cone) -> Cone:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatchError(
            f"intersect in dimensions {a.ambient_dim} and {b.ambient_dim}"
        )
    return cone_from_inequalities(
        a.inequalities + b.inequalities,
        a.equations + b.equations,
        ambient_dim=a.ambient_dim,
    )


def intersection_rays(a: Cone, b: Cone) -> tuple[tuple[IntVec, ...], tuple[IntVec, ...]]:
    """Lineality basis and extreme rays of a ∩ b, left uncanonicalized.

    One double-description pass over the stacked inequalities and
    equations of a and b: no second pass, Smith form or projection, so the
    vectors are primitive but neither sorted nor reduced to a basis form.
    """
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatchError(
            f"intersection_rays in dimensions {a.ambient_dim} and {b.ambient_dim}"
        )
    return _dd_vrep(a.ambient_dim, a.inequalities + b.inequalities, a.equations + b.equations)


def minkowski_sum(a: Cone, b: Cone) -> Cone:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatchError(
            f"minkowski_sum in dimensions {a.ambient_dim} and {b.ambient_dim}"
        )
    return cone_from_generators(
        a.generators + b.generators,
        a.lineality + b.lineality,
        ambient_dim=a.ambient_dim,
    )


@dataclass(frozen=True)
class SplitCell:
    """One full-dimensional cell of a hyperplane arrangement restricted to a cone.

    The cell's name is its sign mask: bit k of mask is set when the cell's
    interior lies on the strict positive side of hyperplane k, and clear
    when it lies on the negative side.  rays and lineality generate the
    closed cell.
    """

    rays: tuple[IntVec, ...]
    lineality: tuple[IntVec, ...]
    mask: int


def _cut_lineality(state: _DDState, h, lin_vals) -> tuple[_DDState, _DDState]:
    """Both sides of h in a cell whose lineality h does not vanish on.

    The pivot projection runs once, on state itself; the two sides differ
    only in the appended ray, +pivot or -pivot.
    """
    state._insert_pivot(h, lin_vals)
    rays = state.rays[:-1] + [vneg(state.rays[-1])]
    return state, _DDState(state.dim, list(state.lin), rays, list(state.masks), state.nbits)


def _cut_rays(state: _DDState, vals) -> tuple[_DDState, _DDState]:
    """Both sides of a hyperplane h with values vals on the cell's rays.

    h vanishes on the lineality and is negative on some ray.  In a split
    it takes both signs; in a conversion it may be one-signed, and with no
    positive ray the + child is the face h = 0.  Rays with h = 0 go to
    both children, positive rays to the + child and negative rays to the
    - child.  The new rays on h come from adjacent (positive, negative)
    pairs and are computed once for both children.

    Pairs are pruned by a bound before the combinatorial test.  Let E be
    the equations, k = state.dim the dimension of ker E (the ambient
    dimension in a split) and l = len(state.lin).  The minimal face
    through two adjacent rays has dimension l + 2 = dim ker[E; A_I] >=
    k - |I|, where I is the rows tight on both rays, so |I| >= k - l - 2.
    That holds over any system defining the cone, including implicit
    equalities h, -h and with redundant rows skipped, so a pair with
    fewer common zero bits would fail the combinatorial test anyway.
    """
    rays, masks = state.rays, state.masks
    bit = 1 << state.nbits
    pos, neg = [], []
    pos_rays, pos_masks, neg_rays, neg_masks = [], [], [], []
    for i, v in enumerate(vals):
        if v > 0:
            pos.append(i)
            pos_rays.append(rays[i])
            pos_masks.append(masks[i])
        elif v < 0:
            neg.append(i)
            neg_rays.append(rays[i])
            neg_masks.append(masks[i])
        else:
            m = masks[i] | bit
            pos_rays.append(rays[i])
            pos_masks.append(m)
            neg_rays.append(rays[i])
            neg_masks.append(m)
    need = state.dim - len(state.lin) - 2
    for i in pos:
        mi = masks[i]
        ri = rays[i]
        vi = vals[i]
        for j in neg:
            common = mi & masks[j]
            if common.bit_count() < need:
                continue
            # adjacent unless a third ray is zero on every common constraint
            if sum(1 for m in masks if common & m == common) > 2:
                continue
            vj = vals[j]
            w = primitive(tuple(vi * y - vj * x for x, y in zip(ri, rays[j])))
            m = common | bit
            pos_rays.append(w)
            neg_rays.append(w)
            pos_masks.append(m)
            neg_masks.append(m)
    nbits = state.nbits + 1
    return (
        _DDState(state.dim, state.lin, pos_rays, pos_masks, nbits),
        _DDState(state.dim, list(state.lin), neg_rays, neg_masks, nbits),
    )


def split_by_hyperplanes(cone: Cone, hyperplanes) -> tuple[SplitCell, ...]:
    """Full-dimensional cells of the arrangement of hyperplanes inside a cone.

    The starting cone must be full-dimensional.  Each cell is named by its
    sign mask over the hyperplanes; every returned cell is full-dimensional,
    and the cells cover the cone with disjoint interiors.
    """
    if not cone.is_full_dim:
        raise InvariantViolationError("splitting requires a full-dimensional cone")
    _check_vectors(hyperplanes, cone.ambient_dim)
    cells: list[tuple[_DDState, int]] = [(_state_from_cone(cone), 0)]
    for k, h in enumerate(hyperplanes):
        h = tuple(h)
        if is_zero(h):
            raise InvariantViolationError("zero vector is not a hyperplane normal")
        bit = 1 << k
        nxt: list[tuple[_DDState, int]] = []
        for state, mask in cells:
            lin_vals = [sum(map(mul, h, l)) for l in state.lin]
            if any(lin_vals):
                pos, neg = _cut_lineality(state, h, lin_vals)
                nxt += ((pos, mask | bit), (neg, mask))
                continue
            vals = [sum(map(mul, h, r)) for r in state.rays]
            hi = max(vals, default=0)
            lo = min(vals, default=0)
            if hi > 0 and lo < 0:
                pos, neg = _cut_rays(state, vals)
                nxt += ((pos, mask | bit), (neg, mask))
            elif hi > 0:
                nxt.append((state, mask | bit))
            elif lo < 0:
                nxt.append((state, mask))
            else:
                raise InvariantViolationError("hyperplane vanishes on a full-dimensional cell")
        cells = nxt
    return tuple(SplitCell(tuple(state.rays), tuple(state.lin), mask) for state, mask in cells)


def adjacent_pairs(masks, nbits: int) -> tuple[tuple[int, int, int], ...]:
    """Sorted triples (i, j, k), i < j, whose masks differ only in bit k.

    Each one-bit flip of each mask is looked up in a dict, so the cost is
    O(len(masks) * nbits) rather than quadratic in the number of cells.
    """
    index: dict[int, int] = {}
    for i, m in enumerate(masks):
        j = index.setdefault(m, i)
        if j != i:
            raise InvariantViolationError(f"cells {j} and {i} have the same sign mask")
    pairs = []
    for i, m in enumerate(masks):
        for k in range(nbits):
            j = index.get(m ^ (1 << k))
            if j is not None and i < j:
                pairs.append((i, j, k))
    pairs.sort()
    return tuple(pairs)
