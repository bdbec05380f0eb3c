"""Independent oracles used to validate computed results.

Everything here is implemented from scratch on purpose, so agreement
between an oracle and the library is meaningful evidence rather than a
tautology.  The two exceptions are full_line_config and grouped_cells,
which split a cone with the package's arrangement split (itself checked
against count_chambers_bruteforce): full_line_config uses no symmetry, so
it is independent of the orbit reduction it is compared with, and
grouped_cells joins the split's cells by their keys, so it is independent
of the walk from key to key that it is compared with.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import factorial, gcd, prod


def _reduce(row):
    g = 0
    for c in row:
        g = gcd(g, abs(c))
    return row if g <= 1 else tuple(c // g for c in row)


def strictly_feasible(rows, dim: int) -> bool:
    """Does some x satisfy row . x > 0 for every row?  Exact Fourier-Motzkin."""
    current = {_reduce(tuple(int(c) for c in r)) for r in rows}
    for var in range(dim):
        if any(not any(r) for r in current):
            return False
        pos = [r for r in current if r[var] > 0]
        neg = [r for r in current if r[var] < 0]
        nxt = {r for r in current if r[var] == 0}
        for p in pos:
            for n in neg:
                comb = tuple(p[var] * n[k] - n[var] * p[k] for k in range(dim))
                nxt.add(_reduce(comb))
        current = nxt
    # every surviving row is identically zero by now, i.e. a violated 0 > 0
    return not current


def count_chambers_bruteforce(hyperplanes, base_rows, dim: int) -> int:
    """Count sign vectors over the hyperplanes realized strictly inside the base.

    base_rows are additional strict constraints (the open side of each facet
    of the ambient cone).  Exponential in the number of hyperplanes.
    """
    hyperplanes = [tuple(h) for h in hyperplanes]
    base = [tuple(r) for r in base_rows]
    count = 0
    for bits in range(1 << len(hyperplanes)):
        rows = list(base)
        for i, h in enumerate(hyperplanes):
            if bits >> i & 1:
                rows.append(h)
            else:
                rows.append(tuple(-c for c in h))
        if strictly_feasible(rows, dim):
            count += 1
    return count


def _det(rows) -> Fraction:
    """Determinant by Laplace expansion along the top row, each minor computed once.

    minors maps a column subset of size k to the determinant of the bottom
    k rows on those columns; the rows are added from the bottom up.
    """
    n = len(rows)
    minors = {(): 1}
    for size in range(1, n + 1):
        row = rows[n - size]
        minors = {
            cols: sum((-1) ** p * row[j] * minors[cols[:p] + cols[p + 1:]]
                      for p, j in enumerate(cols) if row[j])
            for cols in combinations(range(n), size)
        }
    return Fraction(minors[tuple(range(n))])


def minors_gcd_divisors(rows) -> list[int]:
    """Elementary divisors via gcds of k x k minors.  Small matrices only."""
    m, n = len(rows), len(rows[0]) if rows else 0
    previous = 1
    out = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for ri in combinations(range(m), k):
            for ci in combinations(range(n), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                d = _det(sub)
                assert d.denominator == 1
                g = gcd(g, abs(int(d)))
        if g == 0:
            break
        out.append(g // previous)
        previous = g
    return out


def _null_basis(rows, dim: int):
    """Primitive integer basis of {x : rows . x = 0}, one vector per free column."""
    mat = [[Fraction(c) for c in r] for r in rows]
    pivots = []
    rank = 0
    for col in range(dim):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        mat[rank] = [c / mat[rank][col] for c in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        pivots.append(col)
        rank += 1
    basis = []
    for free in (c for c in range(dim) if c not in pivots):
        x = [Fraction(0)] * dim
        x[free] = Fraction(1)
        for i, col in enumerate(pivots):
            x[col] = -mat[i][free]
        lcm = 1
        for c in x:
            lcm = lcm * c.denominator // gcd(lcm, c.denominator)
        basis.append(_reduce(tuple(int(c * lcm) for c in x)))
    return basis


def _solve_nullvector(rows, dim: int):
    """One nonzero rational solution of rows . x = 0, or None if only x = 0."""
    basis = _null_basis(rows, dim)
    return basis[0] if basis else None


def brute_force_facets(generators, dim: int):
    """Facet normals of a full-dimensional pointed cone, by subset enumeration.

    Tries every (dim-1)-subset of generators, keeps the normals that put all
    generators weakly on one side with at least dim-1 touching.
    """
    gens = [tuple(g) for g in generators]
    normals = set()
    for sub in combinations(gens, dim - 1):
        normal = _solve_nullvector(list(sub), dim)
        if normal is None:
            continue
        dots = [sum(a * b for a, b in zip(normal, g)) for g in gens]
        if all(d >= 0 for d in dots):
            pass
        elif all(d <= 0 for d in dots):
            normal = tuple(-c for c in normal)
            dots = [-d for d in dots]
        else:
            continue
        if sum(1 for d in dots if d == 0) >= dim - 1 and any(dots):
            normals.add(normal)
    return sorted(normals)


def brute_force_rays(rows, dim: int):
    """Extreme rays of a pointed cone {x : row . x >= 0 for every row}.

    Tries every (dim-1)-subset of rows of rank dim - 1, and keeps its null
    vector with the sign that satisfies every row, if either sign does.
    """
    rows = [tuple(r) for r in rows]
    rays = set()
    for sub in combinations(rows, dim - 1):
        if fraction_rank(sub) != dim - 1:
            continue
        ray = _solve_nullvector(list(sub), dim)
        dots = [sum(a * b for a, b in zip(r, ray)) for r in rows]
        if all(d <= 0 for d in dots):
            ray = tuple(-c for c in ray)
        elif not all(d >= 0 for d in dots):
            continue
        rays.add(ray)
    return sorted(rays)


def single_flip_pairs(sign_vectors):
    """All (i, j, k), i < j, whose +-1 sign vectors differ exactly at k.

    Compares every pair, so quadratic in the number of vectors.
    """
    bits = [sum(1 << k for k, s in enumerate(v) if s > 0) for v in sign_vectors]
    out = set()
    for i, j in combinations(range(len(bits)), 2):
        diff = bits[i] ^ bits[j]
        if diff and diff & (diff - 1) == 0:
            out.add((i, j, diff.bit_length() - 1))
    return out


def signs_of(mask: int, nbits: int) -> tuple[int, ...]:
    """The +-1 sign vector of a sign mask: +1 where bit k is set, -1 elsewhere."""
    return tuple(1 if mask >> k & 1 else -1 for k in range(nbits))


def exceptional_count_by_subsets(n: int, wall_subsets, signs) -> int:
    """Subsets T of {1..n} with 3 <= |T| <= n-2 negative on a chamber.

    wall_subsets[i] is the subset of wall i and signs[i] the chamber's sign
    on it; a T that is not a wall subset is the complement of one, with the
    opposite sign.  Enumerates every T.
    """
    index_of = {tuple(s): i for i, s in enumerate(wall_subsets)}
    count = 0
    for size in range(3, n - 1):
        for t in combinations(range(1, n + 1), size):
            idx = index_of.get(t)
            if idx is not None:
                sign = signs[idx]
            else:
                comp = tuple(i for i in range(1, n + 1) if i not in t)
                sign = -signs[index_of[comp]]
            if sign < 0:
                count += 1
    return count


def spanned_hyperplanes(columns, rho: int):
    """Sign-normalized primitive normals of the hyperplanes spanned by columns.

    Tries every (rho-1)-subset of columns, keeps those of rank rho-1 (some
    maximal minor is nonzero), and solves for the normal of each.
    """
    normals = set()
    for sub in combinations(columns, rho - 1):
        minors = (
            _det([[v[k] for k in keep] for v in sub])
            for keep in combinations(range(rho), rho - 1)
        )
        if not any(minors):
            continue
        normal = _solve_nullvector(list(sub), rho)
        if next(c for c in normal if c) < 0:
            normal = tuple(-c for c in normal)
        normals.add(normal)
    return sorted(normals)


def cramer_coefficients(columns, chi):
    """Coefficients of chi in each nonsingular len(chi)-subset of columns.

    Maps each subset (sorted column indices) to the exact solution of
    sum_p x_p * column_p = chi by Cramer's rule.  chi lies in the closed
    simplicial cone of a subset when every coefficient is >= 0, and in its
    interior when every coefficient is > 0.  Empty when the columns do not
    span.
    """
    rho = len(chi)
    out = {}
    for subset in combinations(range(len(columns)), rho):
        cols = [list(columns[j]) for j in subset]
        d = _det(cols)
        if d == 0:
            continue
        out[subset] = tuple(
            _det(cols[:p] + [list(chi)] + cols[p + 1:]) / d for p in range(rho)
        )
    return out


def table_keys(columns, points):
    """The key of each point: the set of column subsets whose open cone holds it.

    A subset's open simplicial cone holds a point when every Cramer
    coefficient of the point in that subset is positive.
    """
    return [
        frozenset(s for s, coeffs in cramer_coefficients(columns, p).items() if min(coeffs) > 0)
        for p in points
    ]


def crossing_issues(complex_, p, q, factorization) -> list[str]:
    """What is wrong with the crossing times of a factorization from p to q.

    The times lie in (0, 1) and never decrease.  At each time t the point
    p + t (q - p) is on the wall crossed there: on its hyperplane and in
    the closed cones of the chambers before and after.  A time repeats
    only where that point is on the relative boundary of both walls'
    facets, a face of codimension 2 or more: some facet inequality of the
    chamber before the crossing, other than the wall's, vanishes there.
    Reads the chambers' inequalities and the walls' normals only.
    """
    def value(h, x):
        return sum(a * b for a, b in zip(h, x))

    ineqs = [ch.cone.inequalities for ch in complex_.chambers]
    path, times = factorization.chambers, factorization.crossing_times
    issues = []
    if not all(0 < t < 1 for t in times) or list(times) != sorted(times):
        issues.append(f"times {times} are not nondecreasing in (0, 1)")
    on_face = []
    for k, (t, c) in enumerate(zip(times, factorization.crossings)):
        x = tuple(a + t * (b - a) for a, b in zip(p, q))
        closed = all(value(h, x) >= 0 for i in path[k:k + 2] for h in ineqs[i])
        if value(c.wall.normal, x) or not closed:
            issues.append(f"the point at time {t} is not on the wall it crosses")
        on_face.append(sum(1 for h in ineqs[path[k]] if not value(h, x)) > 1)
    for k in range(len(times) - 1):
        if times[k] == times[k + 1] and not (on_face[k] and on_face[k + 1]):
            issues.append(f"time {times[k]} repeats off a face of codimension 2")
    return issues


@dataclass(frozen=True)
class GroupedCells:
    """The arrangement's cells joined by key: chambers, walls and boundary facets.

    chambers maps each chamber cone to its key (a frozenset of column
    subsets, as table_keys gives it).  walls holds (left cone, right cone,
    normal, facet) with the sign-normalized normal positive on the right
    cone, and boundary holds (chamber cone, inward normal, facet).
    """

    cells: int
    chambers: dict
    walls: frozenset
    boundary: frozenset


def grouped_cells(columns) -> GroupedCells:
    """GIT chambers as the cells of all column-spanned hyperplanes, grouped by key.

    Splits the effective cone by wall_hyperplanes, reads the key of each
    cell at its relative-interior point (table_keys) and joins the cells of
    one key, the cell walls between two keys, and the cell facets on the
    boundary of one key, each by the hull of their generators.
    """
    from mdsgit.cones import (adjacent_pairs, cone_from_generators, intersect,
                              split_by_hyperplanes)
    from mdsgit.toric import g_ample_cone, wall_hyperplanes, weight_system

    ws = weight_system(columns)
    hyps = wall_hyperplanes(ws)

    def hull(cones):
        return cone_from_generators([g for c in cones for g in c.generators],
                                    [v for c in cones for v in c.lineality], ambient_dim=ws.rho)

    split = split_by_hyperplanes(g_ample_cone(ws), hyps)
    cells = [cone_from_generators(c.rays, c.lineality, ambient_dim=ws.rho) for c in split]
    keys = table_keys(columns, [c.relative_interior_point() for c in cells])
    faces: dict = {}
    shared = set()
    for i, j, k in adjacent_pairs([c.mask for c in split], len(hyps)):
        facet = intersect(cells[i], cells[j])
        shared.update(((i, facet), (j, facet)))
        if keys[i] != keys[j]:
            left, right = (i, j) if split[j].mask >> k & 1 else (j, i)
            faces.setdefault((keys[left], keys[right], hyps[k]), []).append(facet)
    for i, cell in enumerate(cells):
        for h in cell.inequalities:
            tight = [g for g in cell.generators if sum(a * b for a, b in zip(h, g)) == 0]
            facet = cone_from_generators(tight, cell.lineality, ambient_dim=ws.rho)
            if (i, facet) not in shared:
                faces.setdefault((keys[i], None, h), []).append(facet)
    cone_of = {key: hull([c for c, k in zip(cells, keys) if k == key]) for key in set(keys)}
    return GroupedCells(
        len(cells),
        {cone: key for key, cone in cone_of.items()},
        frozenset((cone_of[a], cone_of[b], n, hull(fs))
                  for (a, b, n), fs in faces.items() if b is not None),
        frozenset((cone_of[a], n, hull(fs)) for (a, b, n), fs in faces.items() if b is None),
    )


def _cross(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def spanning_subsets(rays):
    """The ray subsets that positively span R^2, as sorted index tuples.

    A set spans positively when it lies in no closed half-plane, that is,
    when each of its rays has another ray of the set strictly on either
    side.  For the rays of a complete surface fan these are the chambers
    of its Cox weights: each such subset carries exactly one complete fan,
    and every complete surface fan is projective.
    """
    return [
        s for size in range(3, len(rays) + 1) for s in combinations(range(len(rays)), size)
        if all(any(_cross(rays[i], rays[j]) > 0 for j in s)
               and any(_cross(rays[i], rays[j]) < 0 for j in s) for i in s)
    ]


def surface_walls(rays):
    """Pairs (S, S + {v}) of positively spanning subsets: the walls, each divisorial."""
    spanning = set(spanning_subsets(rays))
    return {(s, t) for t in spanning for s in spanning if len(s) + 1 == len(t) and set(s) < set(t)}


def simplicial_table(columns):
    """Every nonsingular rho-subset of columns with the inward normals of its facets.

    Walks the subsets in lexicographic order.  A subset is kept when its
    determinant is nonzero, and the normal opposite its p-th column is the
    null vector of the other columns, signed positive on the p-th.  The
    layout is that of WeightSystem.simplicial_cones.
    """
    columns = [tuple(c) for c in columns]
    rho = len(columns[0])
    table = []
    for subset in combinations(range(len(columns)), rho):
        cols = [columns[j] for j in subset]
        if _det(cols) == 0:
            continue
        normals = []
        for p in range(rho):
            normal = _solve_nullvector(cols[:p] + cols[p + 1:], rho)
            if sum(a * b for a, b in zip(normal, cols[p])) < 0:
                normal = tuple(-c for c in normal)
            normals.append(normal)
        table.append((subset, tuple(normals)))
    return tuple(table)


def quotient_cones(columns, chi):
    """Maximal cones of the quotient fan at chi, as sets of primitive Gale rays.

    A maximal cone is the complement of a column subset whose Cramer
    coefficients for chi are all positive.  The Gale ray of column j is row
    j of a rational kernel basis of the weight matrix, so the cones of two
    characters of one weight system are comparable.
    """
    r, rho = len(columns), len(chi)
    kernel = _null_basis([[c[i] for c in columns] for i in range(rho)], r)
    gale = [_reduce(tuple(v[j] for v in kernel)) for j in range(r)]
    return {
        frozenset(gale[j] for j in range(r) if j not in subset)
        for subset, coefficients in cramer_coefficients(columns, chi).items()
        if min(coefficients) > 0
    }


def unstable_supports(columns, chi):
    """Maximal coordinate supports S with chi outside the cone of the columns in S.

    By Caratheodory, chi is in that cone exactly when it is a nonnegative
    combination of some linearly independent subset of S.  Each
    independent subset of at most len(chi) columns is solved exactly for
    chi, so no cone description and no wall normal is used.  Returns the
    sorted maximal unstable supports as tuples of column indices.
    """
    r, rho = len(columns), len(chi)
    witnesses = []
    for k in range(rho + 1):
        for sub in combinations(range(r), k):
            rows = [[columns[j][i] for j in sub] for i in range(rho)]
            if _solve_nullvector(rows, k) is not None:
                continue  # dependent columns
            # independent columns: a null vector of [sub | -chi] ends in a positive entry
            y = _solve_nullvector([row + [-chi[i]] for i, row in enumerate(rows)], k + 1)
            if y is not None and min(y) >= 0:
                witnesses.append(sum(1 << j for j in sub))

    def semistable(mask: int) -> bool:
        return any(w & mask == w for w in witnesses)

    return sorted(
        tuple(j for j in range(r) if mask >> j & 1)
        for mask in range(1 << r)
        if not semistable(mask)
        and all(semistable(mask | 1 << j) for j in range(r) if not mask >> j & 1)
    )


def _relation(vectors, dim: int):
    """A nonzero integer relation among the vectors, or None if they are independent."""
    return _solve_nullvector([[v[k] for v in vectors] for k in range(dim)], len(vectors))


def cones_meet_in_common_face(rays, a, b) -> bool:
    """Do simplicial cones a and b (ray index sets) meet in the cone of their shared rays?

    They fail to exactly when some subset T of the rays in a △ b is
    minimally dependent modulo the span of the shared rays and its
    relation is positive on T ∩ a and negative on T ∩ b, or the reverse.
    Such a relation, with its shared-ray terms moved to whichever side
    keeps them nonnegative, names one point of a ∩ b twice, and that point
    has a positive coordinate on a ray of a outside the shared face.
    Conversely, a point of a ∩ b off that face gives a relation modulo
    the shared span with those signs, and it splits into sign-conformal
    circuits.  Everything is exact rational elimination on the rays.
    """
    dim = len(rays[0])
    shared = [rays[i] for i in sorted(set(a) & set(b))]
    others = sorted(set(a) ^ set(b))
    for size in range(1, dim - len(shared) + 2):
        for t in combinations(others, size):
            vectors = [rays[i] for i in t] + shared
            relation = _relation(vectors, dim)
            if relation is None or any(
                _relation(vectors[:p] + vectors[p + 1:], dim) is not None for p in range(size)
            ):
                continue
            if len({(i in a) == (c > 0) for i, c in zip(t, relation)}) == 1:
                return False
    return True


def simplicial_collection(vectors, index_sets):
    """Rays and maximal cones of a simplicial collection made from raw draws.

    Each index set picks vectors; those picking a zero vector, the same
    primitive ray twice, or dependent rays are dropped, and so is each set
    inside another.  The rays left are the sorted primitive vectors in
    some set, and each cone is a sorted tuple of their indices.  Returns
    None when fewer than two cones are left.
    """
    dim = len(vectors[0])
    kept = set()
    for idx in index_sets:
        picked = {_reduce(tuple(vectors[i])) for i in idx}
        if len(picked) == len(idx) and all(any(v) for v in picked) \
                and _relation(list(picked), dim) is None:
            kept.add(frozenset(picked))
    maximal = [c for c in kept if not any(c < d for d in kept)]
    if len(maximal) < 2:
        return None
    rays = sorted(set().union(*maximal))
    index = {v: i for i, v in enumerate(rays)}
    return rays, sorted(tuple(sorted(index[v] for v in c)) for c in maximal)


def facet_sides(rays, cones):
    """For each facet (a cone less one ray), the sign of det(facet rays, left-out ray) per cone.

    Two cones sharing a facet lie on opposite sides of it exactly when
    their signs differ; a 0 means the cone's rays are dependent.
    """
    sides: dict[tuple[int, ...], list[int]] = {}
    for c in cones:
        for u in c:
            face = tuple(i for i in c if i != u)
            det = _det([rays[i] for i in face] + [rays[u]])
            sides.setdefault(face, []).append((det > 0) - (det < 0))
    return sides


def projective_space_fan(d: int):
    """Rays and maximal cones of P^d: e_1..e_d and -(e_1 + ... + e_d), any d of them."""
    rays = [tuple(int(i == j) for j in range(d)) for i in range(d)] + [(-1,) * d]
    return rays, list(combinations(range(d + 1), d))


def lines_product_fan(k: int):
    """Rays and maximal cones of (P^1)^k: rays 2i and 2i + 1 are e_i and -e_i."""
    rays = [tuple(s * int(i == j) for j in range(k)) for i in range(k) for s in (1, -1)]
    cones = [tuple(2 * i + b for i, b in enumerate(bits)) for bits in product((0, 1), repeat=k)]
    return rays, cones


def star_subdivision(rays, cones, face, weights):
    """Star subdivision of a simplicial fan at a positive combination of a face's rays.

    The new ray v is the primitive vector of sum weights[p] * rays[face[p]]
    (weights positive), in the relative interior of the face.  Each cone
    holding the face is replaced by one cone per ray u of the face, with u
    swapped for v; the other cones stay.  Cones come back sorted.
    """
    dim = len(rays[0])
    v = _reduce(tuple(sum(w * rays[i][k] for w, i in zip(weights, face)) for k in range(dim)))
    new = len(rays)
    out = []
    for c in cones:
        if set(face) <= set(c):
            out += [tuple(sorted([j for j in c if j != u] + [new])) for u in face]
        else:
            out.append(tuple(c))
    return rays + [v], sorted(out)


def random_complete_fan(rng, steps: int):
    """A complete simplicial fan: random star subdivisions of P^d (d = 2..4) or (P^1)^k (k = 2..3).

    Each step picks a cone, a face of it with at least two rays and
    weights 1..2 on them.  A star subdivision of a projective fan is
    projective (Cox-Little-Schenck, *Toric Varieties*, 2011, Ch. 11), so
    every fan drawn is complete and projective.
    """
    if rng.random() < 0.5:
        rays, cones = projective_space_fan(rng.randint(2, 4))
    else:
        rays, cones = lines_product_fan(rng.randint(2, 3))
    for _ in range(steps):
        cone = rng.choice(cones)
        face = tuple(sorted(rng.sample(cone, rng.randint(2, len(cone)))))
        rays, cones = star_subdivision(rays, cones, face, [rng.randint(1, 2) for _ in face])
    return rays, cones


@dataclass(frozen=True)
class OracleWall:
    subset: tuple[int, ...]
    covector: tuple[int, ...]


@dataclass(frozen=True)
class OracleChamber:
    index: int
    mask: int
    representative: tuple[int, ...]
    stable: bool


@dataclass(frozen=True)
class FullLineConfig:
    """Every chamber of n points on a line, with rho (None when unstable)."""

    n: int
    walls: tuple[OracleWall, ...]
    chambers: tuple[OracleChamber, ...]
    adjacency: tuple[tuple[int, int, int], ...]
    seed_index: int
    rho: tuple[int | None, ...]


def _line_crossing_delta(n: int, size: int) -> int:
    return (size >= 3) - (2 <= size <= n - 3)


def full_line_config(n: int) -> FullLineConfig:
    """Split the whole open orthant by the subset-sum walls, with no symmetry.

    The walls are the smaller of S and its complement, ties by the side
    holding point 1, in order of size and then lexicographically.  rho is 1
    on the chamber where point 1 is heavy and changes by the crossing rule
    across every wall between stable chambers; a second value for a chamber
    raises.  Exponential in n: n = 7 takes about 30 s and 300 MB.
    """
    from mdsgit.cones import adjacent_pairs, positive_orthant, split_by_hyperplanes

    walls = tuple(
        OracleWall(s, tuple(1 if i in s else -1 for i in range(1, n + 1)))
        for size in range(1, n // 2 + 1)
        for s in combinations(range(1, n + 1), size)
        if 2 * size != n or 1 in s
    )
    cells = sorted(split_by_hyperplanes(positive_orthant(n), [w.covector for w in walls]),
                   key=lambda cell: cell.mask)
    singletons = (1 << n) - 1
    chambers = tuple(
        OracleChamber(i, cell.mask, tuple(map(sum, zip(*cell.rays))),
                      not cell.mask & singletons)
        for i, cell in enumerate(cells)
    )
    adjacency = adjacent_pairs([ch.mask for ch in chambers], len(walls))
    seed_mask = sum(
        1 << k for k, w in enumerate(walls) if 1 in w.subset and len(w.subset) > 1
    )
    seed = next(ch.index for ch in chambers if ch.mask == seed_mask)

    neighbors: dict[int, list[tuple[int, int]]] = {}
    for a, b, w in adjacency:
        if chambers[a].stable and chambers[b].stable:
            neighbors.setdefault(a, []).append((b, w))
            neighbors.setdefault(b, []).append((a, w))
    rho: list[int | None] = [None] * len(chambers)
    rho[seed] = 1
    stack = [seed]
    while stack:
        cur = stack.pop()
        for nxt, w in neighbors.get(cur, ()):
            delta = _line_crossing_delta(n, len(walls[w].subset))
            value = rho[cur] - delta if chambers[cur].mask >> w & 1 else rho[cur] + delta
            if rho[nxt] is None:
                rho[nxt] = value
                stack.append(nxt)
            elif rho[nxt] != value:
                raise AssertionError(f"rho is path dependent at chamber {nxt}")
    return FullLineConfig(n, walls, chambers, adjacency, seed, tuple(rho))


def line_piece_mismatches(config, rho, oracle: FullLineConfig) -> list[str]:
    """Where the sorted-cone pieces disagree with the full enumeration.

    config is a configuration of pieces with orbit weights and rho its
    Picard numbers.  Each oracle chamber's representative is sorted into
    the sorted cone and located by the signs of its wall values; the piece
    with that mask must carry the chamber's rho, and each piece must be
    reached by exactly orbit chambers.  Weighted counts and the weighted
    rho histogram follow and are compared too.
    """
    problems = []
    if [w.subset for w in config.walls] != [w.subset for w in oracle.walls]:
        return ["wall lists differ"]
    by_mask = {ch.mask: ch for ch in config.chambers}
    hits: Counter = Counter()
    for ch in oracle.chambers:
        point = sorted(ch.representative)
        mask = sum(1 << k for k, w in enumerate(oracle.walls)
                   if sum(c * x for c, x in zip(w.covector, point)) > 0)
        piece = by_mask.get(mask)
        if piece is None:
            problems.append(f"chamber {ch.index}: no piece has mask {mask}")
            continue
        hits[piece.index] += 1
        if rho[piece.index] != oracle.rho[ch.index]:
            problems.append(f"chamber {ch.index}: rho {oracle.rho[ch.index]}, "
                            f"piece {piece.index} has {rho[piece.index]}")
    for piece in config.chambers:
        if hits[piece.index] != piece.orbit:
            problems.append(f"piece {piece.index}: orbit {piece.orbit}, "
                            f"{hits[piece.index]} chambers sort into it")

    def weighted(stable):
        return sum(p.orbit for p in config.chambers if p.stable == stable)

    for stable in (True, False):
        expected = sum(1 for ch in oracle.chambers if ch.stable == stable)
        if weighted(stable) != expected:
            problems.append(f"stable={stable}: {weighted(stable)} weighted, {expected} chambers")
    histogram: Counter = Counter()
    for p in config.chambers:
        if p.stable:
            histogram[rho[p.index]] += p.orbit
    if histogram != Counter(v for v in oracle.rho if v is not None):
        problems.append(f"weighted rho histogram {sorted(histogram.items())} differs")
    return problems


def fraction_rank(rows) -> int:
    """Rank of an integer matrix by Gaussian elimination over Fraction."""
    mat = [[Fraction(c) for c in r] for r in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(rank + 1, len(mat)):
            f = mat[i][col] / mat[rank][col]
            if f:
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def braid_orbit(n: int, rays) -> int:
    """S_n orbit size n!/|W_J| of the chamber of a piece of the sorted cone.

    rays generate the piece.  J is the set of braid walls x_i = x_{i+1} on
    which the piece has a facet, that is, on which its tight rays have rank
    n - 1; the runs of J join coordinates into blocks, and |W_J| is the
    product of the blocks' factorials.
    """
    blocks = [1]
    for i in range(n - 1):
        tight = [r for r in rays if r[i] == r[i + 1]]
        if fraction_rank(tight) == n - 1:
            blocks[-1] += 1
        else:
            blocks.append(1)
    return factorial(n) // prod(map(factorial, blocks))
