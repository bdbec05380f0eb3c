"""Workload definitions: the frozen input corpus and the seeded op lists.

An op is one ``mdsgit.cli.main(argv)`` call.  The corpus lives in
``corpus/*.json`` next to this file, so edits to the test suite cannot move
the workloads.  The only seeded inputs are the characters handed to
``quotient`` and ``factor``; they are generated here from the weight
columns alone, without calling mdsgit:

* a character is a strictly positive integer combination of all weight
  columns, so it lies in the interior of the effective cone;
* it is rejected when it lies on a hyperplane spanned by rho-1 columns,
  whose normals come from integer minors computed below;
* a factor segment is rejected when two of those hyperplanes cross it at
  the same parameter, or when its crossing count is outside the
  workload's range.

Chamber ids are never used as endpoints, because they are an output of the
program that a correct change may renumber.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS_DIR = os.path.join(HERE, "corpus")

FAN_LIBRARY = ("P2", "P1xP1", "P1xP1xP1", "F0", "F1", "F2", "F3",
               "Bl1P2", "Bl2P2", "P112")
WEIGHT_INPUTS = ("flop", "rank3")
SURFACE = "surface7"

# The six commands that build the chamber complex.  On the rank-3 weight
# system the automatic cross-check rejects the refined complex, so
# these exit 1 there (ROADMAP item 1).
CHAMBER_COMMANDS = ("chambers", "mov", "walls", "boundary", "check-cover", "factor")
KNOWN_DEFECT_INPUTS = ("rank3",)

WORKLOADS = ("fan_library", "surface_rank5", "m0n")

# Seeded quotient ops on the surface: with 26 ops in its one pass, the
# percentile reported as op_tail_s (ten ops beyond it) lies above the median.
SURFACE_QUOTIENTS = 20
# Allowed hyperplane crossings of a factor segment.  On the surface the count
# is pinned so that every seed asks for the same number of per-chamber
# quotients.
SURFACE_CROSSINGS = (6, 6)
LIBRARY_CROSSINGS = (0, 64)
# rejection sampling gives up after this many candidates
MAX_TRIES = 100_000


@dataclass(frozen=True)
class Op:
    """One CLI call: the command, the corpus input it reads, and its argv."""

    command: str
    input: str | None
    argv: tuple[str, ...]
    # exit codes that count as expected; the first one is the correct one
    exits: tuple[int, ...] = (0,)
    # parameters the output check needs (characters, segment crossings)
    extra: tuple = ()


def corpus_path(name: str) -> str:
    return os.path.join(CORPUS_DIR, name + ".json")


def load_columns() -> dict[str, list[tuple[int, ...]]]:
    """Weight columns of every corpus input, in the basis the program uses.

    For a fan these are its Cox weights, frozen by ``freeze.py``, so the
    generated characters mean the same to the benchmark and to the program.
    """
    with open(os.path.join(CORPUS_DIR, "columns.json"), "rb") as fh:
        doc = json.load(fh)
    return {name: [tuple(c) for c in cols] for name, cols in doc.items()}


def det(rows) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def hyperplane_normals(columns) -> list[tuple[int, ...]]:
    """Primitive normals of the hyperplanes spanned by rho-1 columns.

    The normal of the span of rho-1 vectors in Z^rho is their generalized
    cross product: entry i is (-1)^i times the minor with row i removed.
    Dependent subsets give the zero vector and are skipped.  Normals are
    sign-normalized (first nonzero entry positive) and deduplicated.
    """
    rho = len(columns[0])
    normals = set()
    for subset in combinations(columns, rho - 1):
        n = []
        for i in range(rho):
            minor = [[c[t] for c in subset] for t in range(rho) if t != i]
            n.append((-1) ** i * det(minor))
        g = 0
        for x in n:
            g = gcd(g, x)
        if g == 0:
            continue
        n = [x // g for x in n]
        if next(x for x in n if x != 0) < 0:
            n = [-x for x in n]
        normals.add(tuple(n))
    return sorted(normals)


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def crossings(normals, start, end) -> list[Fraction]:
    """Parameters t in (0, 1) where the segment start -> end crosses a normal's hyperplane."""
    out = []
    for n in normals:
        sp, sq = _dot(n, start), _dot(n, end)
        if (sp > 0) != (sq > 0):
            out.append(Fraction(sp, sp - sq))
    return sorted(out)


def positive_character(rng: random.Random, columns, normals) -> tuple[int, ...]:
    """A strictly positive integer combination of all columns off every hyperplane."""
    rho = len(columns[0])
    for _ in range(MAX_TRIES):
        coeffs = [rng.randint(1, 9) for _ in columns]
        chi = tuple(sum(a * c[t] for a, c in zip(coeffs, columns)) for t in range(rho))
        if all(_dot(n, chi) != 0 for n in normals):
            return chi
    raise RuntimeError("no character off the hyperplanes found")


def factor_segment(rng, columns, normals, allowed):
    """Two characters whose segment crosses distinct hyperplanes at distinct times."""
    lo, hi = allowed
    for _ in range(MAX_TRIES):
        a = positive_character(rng, columns, normals)
        b = positive_character(rng, columns, normals)
        ts = crossings(normals, a, b)
        if lo <= len(ts) <= hi and len(set(ts)) == len(ts):
            return a, b, tuple(ts)
    raise RuntimeError(f"no segment with {lo} to {hi} distinct crossings found")


def _chi_arg(flag: str, chi) -> str:
    return f"{flag}=" + ",".join(str(x) for x in chi)


def quotient_op(name: str, chi, exits=(0,)) -> Op:
    return Op("quotient", name, ("quotient", corpus_path(name), _chi_arg("--chi", chi), "--json"),
              exits, (tuple(chi),))


def factor_op(name: str, a, b, ts, exits=(0,)) -> Op:
    argv = ("factor", corpus_path(name), _chi_arg("--from", a), _chi_arg("--to", b), "--json")
    return Op("factor", name, argv, exits, (tuple(a), tuple(b), tuple(str(t) for t in ts)))


def plain_op(command: str, name: str, exits=(0,)) -> Op:
    return Op(command, name, (command, corpus_path(name), "--json"), exits)


def _rng(seed: int, name: str, kind: str) -> random.Random:
    return random.Random(f"{seed}:{name}:{kind}")


def fan_library_ops(seed: int, columns) -> list[Op]:
    """Every applicable command on each library input, one seeded quotient and factor each."""
    ops = []
    for name in FAN_LIBRARY + WEIGHT_INPUTS:
        is_fan = name in FAN_LIBRARY
        cols = columns[name]
        normals = hyperplane_normals(cols)
        commands = ["chambers", "eff", "mov", "walls", "boundary", "check-cover"]
        if is_fan:
            commands += ["nef", "sqms"]
        for command in commands:
            exits = (0, 1) if name in KNOWN_DEFECT_INPUTS and command in CHAMBER_COMMANDS else (0,)
            ops.append(plain_op(command, name, exits))
        ops.append(quotient_op(name, positive_character(_rng(seed, name, "quotient"),
                                                        cols, normals)))
        a, b, ts = factor_segment(_rng(seed, name, "factor"), cols, normals, LIBRARY_CROSSINGS)
        exits = (0, 1) if name in KNOWN_DEFECT_INPUTS else (0,)
        ops.append(factor_op(name, a, b, ts, exits))
    return ops


def surface_ops(seed: int, columns) -> list[Op]:
    """The heavy commands on the surface, with the seeded quotients spread between them.

    The machine's speed drifts over seconds; spreading the short quotient
    ops over the pass keeps op_p50_s from sampling one short window.
    """
    cols = columns[SURFACE]
    normals = hyperplane_normals(cols)
    rng = _rng(seed, SURFACE, "quotient")
    quotients = [quotient_op(SURFACE, positive_character(rng, cols, normals))
                 for _ in range(SURFACE_QUOTIENTS)]
    a, b, ts = factor_segment(_rng(seed, SURFACE, "factor"), cols, normals, SURFACE_CROSSINGS)
    heavy = [plain_op(command, SURFACE) for command in ("chambers", "walls", "mov", "boundary")]
    heavy.append(factor_op(SURFACE, a, b, ts))
    ops = [plain_op("eff", SURFACE)]
    group = SURFACE_QUOTIENTS // len(heavy)
    for k, op in enumerate(heavy):
        ops += quotients[k * group:(k + 1) * group]
        ops.append(op)
    return ops


def m0n_ops() -> list[Op]:
    return [Op("m0n", None, ("m0n", "-n", str(n), "--json")) for n in (4, 5, 6)]


def build_ops(workload: str, seed: int) -> list[Op]:
    """The op list of one pass of a workload."""
    if workload == "fan_library":
        return fan_library_ops(seed, load_columns())
    if workload == "surface_rank5":
        return surface_ops(seed, load_columns())
    if workload == "m0n":
        return m0n_ops()
    raise ValueError(f"unknown workload {workload!r}")
