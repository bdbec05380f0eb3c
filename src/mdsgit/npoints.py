"""Stability chambers for n weighted points on a projective line.

Weight vectors x in the open positive orthant of R^n are cut into chambers
by the subset-sum hyperplanes sum(S) = sum(complement of S).  A chamber is
stable when no single point can carry at least half the total weight.  Each
stable chamber has a quotient whose Picard number rho satisfies

    rho + e = 2^(n-1) - n(n-1)/2 - 1

where e counts the subsets T with 3 <= |T| <= n-2 whose covector is
negative on the chamber.  rho is propagated from a distinguished seed
chamber across walls by a local rule and the identity above is checked for
every chamber.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .cones import adjacent_pairs, positive_orthant, split_by_hyperplanes
from .errors import InvariantViolationError
from .linalg import IntVec

# Largest n accepted.  n = 7 has 63 walls and 122,921 chambers; n = 8 has
# not been seen to finish.
MAX_N = 7


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
    """A full-dimensional chamber of the subset-sum arrangement.

    Bit k of mask is set when the chamber lies on the positive side of
    wall k, the side where its subset outweighs the complement.
    """

    index: int
    mask: int
    representative: IntVec
    stable: bool


@dataclass(frozen=True)
class LineConfig:
    """The full chamber configuration for n points."""

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


def build_config(n: int) -> LineConfig:
    """Enumerate the chambers of the subset-sum arrangement for n points.

    The arrangement grows exponentially with n, so n is refused above
    MAX_N before any work is done.
    """
    if not 4 <= n <= MAX_N:
        raise ValueError(f"n must be between 4 and {MAX_N}, got {n}")
    walls = tuple(LineWall(s, _covector(n, s)) for s in _wall_subsets(n))
    cells = sorted(split_by_hyperplanes(positive_orthant(n), [w.covector for w in walls]),
                   key=lambda cell: cell.mask)
    # the n singleton walls come first: bits 0 to n-1
    singletons = (1 << n) - 1
    chambers = tuple(
        LineChamber(i, cell.mask, tuple(map(sum, zip(*cell.rays))),
                    not cell.mask & singletons)
        for i, cell in enumerate(cells)
    )
    if sum(1 for ch in chambers if not ch.stable) != n:
        raise InvariantViolationError(
            f"expected exactly {n} unstable chambers for n={n}"
        )
    adjacency = adjacent_pairs([ch.mask for ch in chambers], len(walls))

    seed_mask = sum(
        1 << k for k, w in enumerate(walls) if 1 in w.subset and len(w.subset) > 1
    )
    seed = next((ch.index for ch in chambers if ch.mask == seed_mask), None)
    if seed is None:
        raise InvariantViolationError("seed sign vector is not realized by any chamber")
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
    """Picard number of every stable chamber's quotient (None for unstable).

    Propagated across walls from the seed chamber, where rho = 1, and
    verified for consistency on every stable-stable wall of the
    configuration, so the value is path-independent.
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
                        f"rho propagation inconsistent between chambers {cur} and {nxt}"
                    )
            else:
                rho[nxt] = value
                seen.add(nxt)
                queue.append(nxt)
    stable_indices = {ch.index for ch in config.chambers if ch.stable}
    if seen != stable_indices:
        raise InvariantViolationError("stable chambers are not wall-connected")
    return tuple(rho)


@dataclass(frozen=True)
class RhoReport:
    """Verification of rho + e = constant over all stable chambers."""

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

    The report carries the propagated Picard numbers, so callers need not
    run quotient_picard again.
    """
    rho = quotient_picard(config)
    constant = rho_constant(config.n)
    failures = []
    n_stable = 0
    for ch in config.chambers:
        if not ch.stable:
            continue
        n_stable += 1
        if rho[ch.index] + exceptional_count(config, ch) != constant:
            failures.append(ch.index)
    return RhoReport(
        not failures,
        config.n,
        constant,
        len(config.chambers),
        n_stable,
        len(config.chambers) - n_stable,
        tuple(failures),
        rho,
    )
