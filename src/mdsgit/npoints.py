"""Stability chambers for n weighted points on a projective line.

Weight vectors x in the open positive orthant of R^n are cut into chambers
by the subset-sum hyperplanes sum(S) = sum(complement of S).  A chamber is
stable when no single point can carry at least half the total weight.  Each
stable chamber has a quotient whose Picard number rho satisfies

    rho + e = 2^(n-1) - n(n-1)/2 - 1

where e counts the subsets T with 3 <= |T| <= n-2 whose covector is
negative on the chamber.

The symmetric group S_n permutes the points, the walls, the orthant and the
stability condition, and leaves rho and e unchanged.  So only the sorted
cone 0 <= x_1 <= ... <= x_n is split.  Each piece of it is the trace of one
chamber and carries the size of that chamber's S_n orbit, and every count
is weighted by it (the orbit reduction of Bremner, Dutour Sikiric and
Schuermann, *Polyhedral representation conversion up to symmetries*,
2009).  rho is propagated from a distinguished seed piece across the walls
between pieces, and the identity above is checked on every piece.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import factorial, prod

from .cones import Cone, adjacent_pairs, split_by_hyperplanes
from .errors import InvariantViolationError
from .linalg import IntVec

# Largest n accepted.  n = 8 has 127 walls and 2,470 pieces, which stand for
# 33,207,256 chambers, in about 0.8 s, 0.45 s of it the split; at n = 9 the
# split of the sorted cone alone takes about 90 s (2-core machine, CPython
# 3.11).
MAX_N = 8


@dataclass(frozen=True)
class LineWall:
    """A subset-sum hyperplane, represented by the smaller of S and its complement.

    Ties (|S| = n/2) are represented by the side containing the point 1.
    The covector is +1 on S and -1 elsewhere.
    """

    subset: tuple[int, ...]
    covector: IntVec


@dataclass(frozen=True)
class LineChamber:
    """A piece: the trace of one chamber on the sorted cone.

    Bit k of mask is set when the chamber lies on the positive side of
    wall k, the side where its subset outweighs the complement.  orbit is
    the number of chambers in the chamber's S_n orbit, and representative
    an interior point of the piece.
    """

    index: int
    mask: int
    representative: IntVec
    stable: bool
    orbit: int


@dataclass(frozen=True)
class LineConfig:
    """The pieces of the sorted cone for n points, with their adjacency."""

    n: int
    walls: tuple[LineWall, ...]
    chambers: tuple[LineChamber, ...]
    adjacency: tuple[tuple[int, int, int], ...]
    seed_index: int


def _wall_subsets(n: int):
    for size in range(1, n // 2 + 1):
        for s in combinations(range(1, n + 1), size):
            if 2 * size == n and 1 not in s:
                continue
            yield s


def _covector(n: int, subset) -> IntVec:
    inside = set(subset)
    return tuple(1 if i in inside else -1 for i in range(1, n + 1))


def _sorted_cone(n: int) -> Cone:
    """The sorted cone 0 <= x_1 <= ... <= x_n, written down in canonical form.

    It is simplicial: its extreme rays are e_i + ... + e_n and its facets
    are x_1 >= 0 and x_{i+1} - x_i >= 0, all primitive, so no conversion is
    needed.
    """
    generators = sorted(tuple(int(j >= i) for j in range(n)) for i in range(n))
    inequalities = sorted(
        [tuple(int(j == 0) for j in range(n))]
        + [tuple(int(j == i + 1) - int(j == i) for j in range(n)) for i in range(n - 1)]
    )
    return Cone(n, tuple(generators), tuple(inequalities), (), ())


def _transposition_tests(n: int, walls) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """For each transposition s_i = (i i+1), the mask test that it fixes a chamber.

    s_i maps the chamber C onto the chamber positive on S exactly when C is
    positive on s_i(S).  A wall k that s_i moves is paired with the wall k'
    whose stored subset is s_i(S_k) or, with flip 1, its complement (a
    half-size wall stored by its side with point 1).  So s_i C = C exactly
    when bit k ^ bit k' == flip for every such pair.  The pairs with the
    same shift d = k' - k > 0 are tested at once: one entry (d, bits, flips)
    holds their bits k and their flips at bit k, and the test is
    (mask ^ mask >> d) & bits == flips.
    """
    index = {w.subset: k for k, w in enumerate(walls)}
    points = set(range(1, n + 1))
    tests = []
    for i in range(1, n):
        swap = {i: i + 1, i + 1: i}
        by_shift: dict[int, tuple[int, int]] = {}
        for k, w in enumerate(walls):
            if (i in w.subset) == (i + 1 in w.subset):
                continue
            image = tuple(sorted(swap.get(p, p) for p in w.subset))
            flip = image not in index
            if flip:
                image = tuple(sorted(points.difference(image)))
            d = index[image] - k
            if d > 0:
                bits, flips = by_shift.get(d, (0, 0))
                by_shift[d] = (bits | 1 << k, flips | flip << k)
        tests.append(tuple((d, bits, flips) for d, (bits, flips) in by_shift.items()))
    return tuple(tests)


def _orbit(n: int, mask: int, tests) -> int:
    """Number of chambers in the S_n orbit of the chamber C with this mask.

    J is the set of transpositions s_i that fix C, read off the mask with
    the tests of _transposition_tests.  The runs of J join consecutive
    coordinates into blocks, and the parabolic subgroup W_J is the product
    of the blocks' symmetric groups.

    The piece P of C has a facet on the braid wall x_i = x_{i+1} exactly
    when s_i C = C.  If P has such a facet, the facet lies inside C and on
    no subset-sum wall, so s_i maps C onto the chamber across it, which is
    C.  Conversely, if s_i C = C, take x in the interior of P: s_i x is in
    the interior of C, and so is the midpoint of x and s_i x.  It lies on
    x_i = x_{i+1} and strictly inside that facet of the sorted cone, and
    near it the sorted cone lies in C, hence in P, so P has a facet there.

    So C is W_J-invariant and meets the |W_J| Weyl chambers w(sorted
    cone), w in W_J.  It meets no other: a generic segment inside C from P
    into another Weyl chamber would leave the sorted cone through a braid
    facet of P outside J.  The stabilizer of C permutes the Weyl chambers
    that C meets and contains W_J, so it is W_J, and the orbit of C has
    n!/|W_J| chambers.
    """
    blocks = [1]
    for test in tests:
        if all((mask ^ mask >> d) & bits == flips for d, bits, flips in test):
            blocks[-1] += 1
        else:
            blocks.append(1)
    return factorial(n) // prod(map(factorial, blocks))


def build_config(n: int) -> LineConfig:
    """Split the sorted cone 0 <= x_1 <= ... <= x_n by the subset-sum walls.

    No subset-sum wall is a braid hyperplane and chambers are convex, so
    every piece is the trace of exactly one chamber and distinct pieces
    lie in distinct S_n orbits.  The arrangement grows exponentially with
    n, so n is refused above MAX_N before any work is done.
    """
    if not 4 <= n <= MAX_N:
        raise ValueError(f"n must be between 4 and {MAX_N}, got {n}")
    walls = tuple(LineWall(s, _covector(n, s)) for s in _wall_subsets(n))
    cells = sorted(split_by_hyperplanes(_sorted_cone(n), [w.covector for w in walls]),
                   key=lambda cell: cell.mask)
    tests = _transposition_tests(n, walls)
    # the n singleton walls come first: bits 0 to n-1
    singletons = (1 << n) - 1
    chambers = tuple(
        LineChamber(i, cell.mask, tuple(map(sum, zip(*cell.rays))),
                    not cell.mask & singletons, _orbit(n, cell.mask, tests))
        for i, cell in enumerate(cells)
    )
    if sum(ch.orbit for ch in chambers if not ch.stable) != n:
        raise InvariantViolationError(
            f"expected exactly {n} unstable chambers for n={n}"
        )
    adjacency = adjacent_pairs([ch.mask for ch in chambers], len(walls))

    # The seed chamber, where point 1 is heavy, is positive exactly on the
    # subsets of two or more points that contain 1 and on the complement of
    # {1}.  The transposition (1 n) moves it into the sorted cone, where it
    # is positive exactly on the subsets of two or more points that contain
    # n, since no stored subset is the complement of a point.  A half-size
    # wall stored by its side with 1, such as {1, 2} for n = 4, flips: its
    # complement holds n, so its own bit is clear.
    seed_mask = sum(
        1 << k for k, w in enumerate(walls) if n in w.subset and len(w.subset) > 1
    )
    seed = next((ch.index for ch in chambers if ch.mask == seed_mask), None)
    if seed is None:
        raise InvariantViolationError("seed sign vector is not realized by any piece")
    return LineConfig(n, walls, chambers, adjacency, seed)


def rho_constant(n: int) -> int:
    """The constant value of rho + e over stable chambers."""
    return 2 ** (n - 1) - n * (n - 1) // 2 - 1


def crossing_delta(n: int, subset_size: int) -> int:
    """Change of rho when crossing a wall from its negative to its positive side."""
    gain = 1 if subset_size >= 3 else 0
    loss = 1 if 2 <= subset_size <= n - 3 else 0
    return gain - loss


def exceptional_count(config: LineConfig, chamber) -> int:
    """Number of subsets T with 3 <= |T| <= n-2 negative on the chamber.

    Each wall S is negative on exactly one of S and its complement, and
    every such T is one of the two for exactly one wall.
    """
    if isinstance(chamber, int):
        chamber = config.chambers[chamber]
    n = config.n
    count = 0
    for k, w in enumerate(config.walls):
        size = n - len(w.subset) if chamber.mask >> k & 1 else len(w.subset)
        count += 3 <= size <= n - 2
    return count


def quotient_picard(config: LineConfig) -> tuple[int | None, ...]:
    """Picard number of every stable piece's quotient (None for unstable).

    Propagated across the walls between pieces from the seed piece, where
    rho = 1, and verified for consistency on every stable-stable wall
    between pieces.  The crossing rule depends only on the wall's size, so
    rho is S_n-invariant and a piece's value holds on its whole orbit.
    """
    n = config.n
    rho: list[int | None] = [None] * len(config.chambers)
    seed = config.seed_index
    rho[seed] = 1
    stable_edges = [
        (a, b, w)
        for a, b, w in config.adjacency
        if config.chambers[a].stable and config.chambers[b].stable
    ]
    neighbors: dict[int, list[tuple[int, int]]] = {}
    for a, b, w in stable_edges:
        neighbors.setdefault(a, []).append((b, w))
        neighbors.setdefault(b, []).append((a, w))
    queue = [seed]
    seen = {seed}
    while queue:
        cur = queue.pop()
        for nxt, w in neighbors.get(cur, ()):
            size = len(config.walls[w].subset)
            if config.chambers[cur].mask >> w & 1:
                value = rho[cur] - crossing_delta(n, size)
            else:
                value = rho[cur] + crossing_delta(n, size)
            if nxt in seen:
                if rho[nxt] != value:
                    raise InvariantViolationError(
                        f"rho propagation inconsistent between pieces {cur} and {nxt}"
                    )
            else:
                rho[nxt] = value
                seen.add(nxt)
                queue.append(nxt)
    stable_indices = {ch.index for ch in config.chambers if ch.stable}
    if seen != stable_indices:
        raise InvariantViolationError("stable pieces are not wall-connected")
    return tuple(rho)


@dataclass(frozen=True)
class RhoReport:
    """Verification of rho + e = constant over all stable chambers.

    The chamber counts are weighted by orbit; failures and rho are indexed
    by piece.
    """

    ok: bool
    n: int
    constant: int
    n_chambers: int
    n_stable: int
    n_unstable: int
    failures: tuple[int, ...]
    rho: tuple[int | None, ...]


def verify_rho_formula(config: LineConfig) -> RhoReport:
    """Check rho + exceptional count against the closed-form constant everywhere.

    rho and e are S_n-invariant, so checking each piece checks its orbit.
    The report carries the propagated Picard numbers, so callers need not
    run quotient_picard again.
    """
    rho = quotient_picard(config)
    constant = rho_constant(config.n)
    failures = []
    n_chambers = n_stable = 0
    for ch in config.chambers:
        n_chambers += ch.orbit
        if not ch.stable:
            continue
        n_stable += ch.orbit
        if rho[ch.index] + exceptional_count(config, ch) != constant:
            failures.append(ch.index)
    return RhoReport(
        not failures,
        config.n,
        constant,
        n_chambers,
        n_stable,
        n_chambers - n_stable,
        tuple(failures),
        rho,
    )
