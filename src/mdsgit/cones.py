"""Rational polyhedral cones with exact double-description conversion.

A cone is stored in a canonical two-sided form: extreme generators plus a
lineality basis on the V-side, facet inequalities plus an equation basis on
the H-side.  Canonicalization makes structural equality of the dataclass
coincide with geometric equality of the cones, and makes dualization a free
field swap.

The conversion engine is an incremental double-description method that
supports lineality directly and tracks zero-sets of processed inequalities
as bitmasks, so the adjacency test used when splitting rays is purely
combinatorial and exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatchError, InvariantViolationError
from .linalg import (
    IntVec,
    dot,
    hermite_normal_form,
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
    def lineality_dim(self) -> int:
        return len(self.lineality)

    @property
    def is_pointed(self) -> bool:
        return not self.lineality

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

    masks[i] has bit k set exactly when processed inequality k vanishes on
    rays[i].  All processed constraints vanish identically on lin.
    """

    __slots__ = ("dim", "lin", "rays", "masks", "nbits")

    def __init__(self, dim: int):
        self.dim = dim
        self.lin: list[IntVec] = []
        self.rays: list[IntVec] = []
        self.masks: list[int] = []
        self.nbits = 0

    @classmethod
    def full_space(cls, dim: int) -> _DDState:
        st = cls(dim)
        st.lin = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
        return st

    def copy(self) -> _DDState:
        st = _DDState(self.dim)
        st.lin = list(self.lin)
        st.rays = list(self.rays)
        st.masks = list(self.masks)
        st.nbits = self.nbits
        return st

    def insert(self, c: IntVec, equation: bool) -> None:
        if is_zero(c):
            return
        lin_vals = [dot(c, l) for l in self.lin]
        k = next((i for i, v in enumerate(lin_vals) if v != 0), None)
        if k is not None:
            self._insert_pivot(c, equation, k, lin_vals[k])
        else:
            self._insert_split(c, equation)

    def _insert_pivot(self, c, equation, k, s):
        # Constraint is nonzero on the lineality: consume one lineality
        # generator as the pivot and project everything else onto c = 0
        # along it.  Processed inequalities vanish on the pivot, so masks
        # are unchanged by the projection.
        piv = self.lin.pop(k)
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

    def _insert_split(self, c, equation):
        vals = [dot(c, r) for r in self.rays]
        pos = [i for i, v in enumerate(vals) if v > 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        combos: list[tuple[IntVec, int]] = []
        if pos and neg:
            masks = self.masks
            for i in pos:
                mi = masks[i]
                for j in neg:
                    common = mi & masks[j]
                    if any(
                        t != i and t != j and (common & m) == common
                        for t, m in enumerate(masks)
                    ):
                        continue
                    w = primitive(
                        vsub(vscale(vals[i], self.rays[j]), vscale(vals[j], self.rays[i]))
                    )
                    combos.append((w, common))
        if equation:
            keep = zero
            bit = 0
        else:
            keep = zero + pos
            bit = 1 << self.nbits
            self.nbits += 1
        new_rays = []
        new_masks = []
        for i in sorted(keep):
            new_rays.append(self.rays[i])
            new_masks.append(self.masks[i] | (bit if vals[i] == 0 else 0))
        for w, common in combos:
            new_rays.append(w)
            new_masks.append(common | bit)
        self.rays = new_rays
        self.masks = new_masks


def _dd_vrep(dim, inequalities, equations) -> tuple[tuple[IntVec, ...], tuple[IntVec, ...]]:
    """Lineality basis and extreme rays of {x : equations = 0, inequalities >= 0}."""
    st = _DDState.full_space(dim)
    for e in equations:
        st.insert(tuple(e), equation=True)
    for h in inequalities:
        st.insert(tuple(h), equation=False)
    return tuple(st.lin), tuple(st.rays)


def _state_from_cone(cone: Cone) -> _DDState:
    st = _DDState(cone.ambient_dim)
    st.lin = list(cone.lineality)
    st.rays = list(cone.generators)
    st.nbits = len(cone.inequalities)
    st.masks = [
        sum(1 << k for k, h in enumerate(cone.inequalities) if dot(h, g) == 0)
        for g in cone.generators
    ]
    return st


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
    """Canonical cone pos(generators) + span(lineality)."""
    dim = _infer_dim((generators, lineality), ambient_dim)
    _check_vectors(generators, dim)
    _check_vectors(lineality, dim)
    gens = [tuple(g) for g in generators if not is_zero(g)]
    lins = [tuple(l) for l in lineality if not is_zero(l)]
    eq_rows, facet_normals = _dd_vrep(dim, gens, lins)
    lin_rows, rays = _dd_vrep(dim, facet_normals, eq_rows)
    return _assemble(dim, lin_rows, rays, eq_rows, facet_normals)


def cone_from_inequalities(inequalities, equations=(), ambient_dim=None) -> Cone:
    """Canonical cone {x : inequalities >= 0, equations = 0}."""
    dim = _infer_dim((inequalities, equations), ambient_dim)
    _check_vectors(inequalities, dim)
    _check_vectors(equations, dim)
    ineqs = [tuple(h) for h in inequalities if not is_zero(h)]
    eqs = [tuple(e) for e in equations if not is_zero(e)]
    lin_rows, rays = _dd_vrep(dim, ineqs, eqs)
    eq_rows, facet_normals = _dd_vrep(dim, rays, lin_rows)
    return _assemble(dim, lin_rows, rays, eq_rows, facet_normals)


def full_space(dim: int) -> Cone:
    return Cone(dim, (), (), (), hermite_normal_form([tuple(r) for r in _eye(dim)]))


def zero_cone(dim: int) -> Cone:
    return Cone(dim, (), (), hermite_normal_form([tuple(r) for r in _eye(dim)]), ())


def _eye(dim):
    return [[int(i == j) for j in range(dim)] for i in range(dim)]


def positive_orthant(dim: int) -> Cone:
    eye = tuple(sorted(tuple(r) for r in _eye(dim)))
    return Cone(dim, eye, eye, (), ())


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

    signs[k] is +1 or -1: the strict side of hyperplane k containing the
    cell's interior.  rays and lineality generate the closed cell.
    """

    rays: tuple[IntVec, ...]
    lineality: tuple[IntVec, ...]
    signs: tuple[int, ...]


def split_by_hyperplanes(cone: Cone, hyperplanes) -> tuple[SplitCell, ...]:
    """Full-dimensional cells of the arrangement of hyperplanes inside a cone.

    The starting cone must be full-dimensional.  Each cell is assigned one
    strict sign per hyperplane; every returned cell is full-dimensional, and
    the cells cover the cone with disjoint interiors.
    """
    if not cone.is_full_dim:
        raise InvariantViolationError("splitting requires a full-dimensional cone")
    _check_vectors(hyperplanes, cone.ambient_dim)
    cells: list[tuple[_DDState, list[int]]] = [(_state_from_cone(cone), [])]
    for h in hyperplanes:
        h = tuple(h)
        if is_zero(h):
            raise InvariantViolationError("zero vector is not a hyperplane normal")
        nxt: list[tuple[_DDState, list[int]]] = []
        for state, signs in cells:
            crosses_lin = any(dot(h, l) != 0 for l in state.lin)
            vals = [dot(h, r) for r in state.rays]
            has_pos = crosses_lin or any(v > 0 for v in vals)
            has_neg = crosses_lin or any(v < 0 for v in vals)
            if has_pos and has_neg:
                pos_state = state.copy()
                pos_state.insert(h, equation=False)
                state.insert(vneg(h), equation=False)
                nxt.append((pos_state, signs + [1]))
                nxt.append((state, signs + [-1]))
            elif has_pos:
                nxt.append((state, signs + [1]))
            elif has_neg:
                nxt.append((state, signs + [-1]))
            else:
                raise InvariantViolationError(
                    "hyperplane vanishes on a full-dimensional cell"
                )
        cells = nxt
    return tuple(
        SplitCell(tuple(state.rays), tuple(state.lin), tuple(signs))
        for state, signs in cells
    )


def sign_mask(hyperplanes, point) -> int:
    """Name the arrangement cell of a point: bit k is set when hyperplane k is positive on it.

    Raises InvariantViolationError when the point lies on a hyperplane.
    """
    mask = 0
    for k, h in enumerate(hyperplanes):
        s = dot(h, point)
        if s == 0:
            raise InvariantViolationError(f"point {tuple(point)} lies on hyperplane {k}")
        if s > 0:
            mask |= 1 << k
    return mask


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
