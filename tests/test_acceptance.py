"""Acceptance gate: the eight shipping criteria.

Each test prints exactly one line, `ACCEPTANCE <k> PASS - <summary>` or the
same with FAIL, straight to the terminal, then asserts.  The checks recompute
everything from primitive operations so they do not lean on the invariants
the library already enforces internally.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import deque

import pytest

from conftest import (
    blown_up_plane,
    cube_fan,
    flop_weights,
    hirzebruch,
    product_of_lines,
    projective_plane,
    twice_blown_up_plane,
    weighted_plane,
)
from mdsgit.cones import cone_from_generators, intersect, minkowski_sum
from mdsgit.mori import classify_wall, mori_chamber_data, moving_cone, nef_chamber, picard_number
from mdsgit.npoints import (
    build_config,
    crossing_delta,
    exceptional_count,
    quotient_picard,
    rho_constant,
    verify_rho_formula,
)
from mdsgit.toric import canonicalize_fan, cox_weights, g_ample_cone, quotient_fan_data, unstable_locus, wall_hyperplanes
from mdsgit.vgit import enumerate_chambers
from oracles import count_chambers_bruteforce, full_line_config, line_piece_mismatches

LIBRARY = [
    ("P2", projective_plane),
    ("P1xP1", product_of_lines),
    ("P1xP1xP1", cube_fan),
    ("F0", lambda: hirzebruch(0)),
    ("F1", lambda: hirzebruch(1)),
    ("F2", lambda: hirzebruch(2)),
    ("F3", lambda: hirzebruch(3)),
    ("Bl1P2", blown_up_plane),
    ("Bl2P2", twice_blown_up_plane),
    ("P112", weighted_plane),
]


@pytest.fixture(scope="module")
def fan_complexes():
    out = []
    for name, maker in LIBRARY:
        fan = maker()
        out.append((name, fan, enumerate_chambers(cox_weights(fan))))
    return out


@pytest.fixture(scope="module")
def all_complexes(fan_complexes):
    rows = [(name, cx) for name, _, cx in fan_complexes]
    rows.append(("flop", enumerate_chambers(flop_weights())))
    return rows


def _report(capsys, num: int, desc: str, failures: list[str]) -> None:
    verdict = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {num} {verdict} - {desc}")
    assert not failures, f"criterion {num}: " + "; ".join(failures[:10])


def _interior_samples(cone, count: int):
    """Deterministic points in the relative interior, all integral."""
    dim = cone.ambient_dim
    for k in range(1, count + 1):
        pt = [0] * dim
        for j, g in enumerate(cone.generators):
            c = 1 + (k * (j + 2) + (k + j) * (k + j)) % 101
            for a in range(dim):
                pt[a] += c * g[a]
        for j, v in enumerate(cone.lineality):
            c = (-1) ** (k + j) * (1 + k % 7)
            for a in range(dim):
                pt[a] += c * v[a]
        yield tuple(pt)


def test_acceptance_1_round_trip(fan_complexes, capsys):
    failures = []
    for name, fan, cx in fan_complexes:
        ws = cx.weights
        chi = nef_chamber(cx, fan).representative
        rebuilt = quotient_fan_data(ws, chi).fan
        if canonicalize_fan(rebuilt) != canonicalize_fan(fan):
            failures.append(f"{name}: quotient fan differs from the input fan")
    _report(capsys, 1, "round-trip reconstruction over the ten-fan library", failures)


def test_acceptance_2_chamber_identification(capsys):
    failures = []
    cx = enumerate_chambers(cox_weights(blown_up_plane()))
    gen_sets = sorted(sorted(ch.cone.generators) for ch in cx.chambers)
    if len(cx.chambers) != 2:
        failures.append(f"Bl1P2: {len(cx.chambers)} chambers, expected 2")
    if gen_sets != [[(0, 1), (1, 0)], [(1, -1), (1, 0)]]:
        failures.append(f"Bl1P2: generator sets {gen_sets}")

    ws = cox_weights(twice_blown_up_plane())
    expected = count_chambers_bruteforce(
        wall_hyperplanes(ws), g_ample_cone(ws).inequalities, ws.rho
    )
    got = len(enumerate_chambers(ws).chambers)
    if got != expected:
        failures.append(f"Bl2P2: {got} chambers, sign-vector oracle says {expected}")
    _report(capsys, 2, "Bl1P2 generators and Bl2P2 count vs independent oracle", failures)


def test_acceptance_3_wall_crossing_invariants(all_complexes, capsys):
    failures = []
    for name, cx in all_complexes:
        for w in cx.walls:
            left = cx.quotient(w.left).fan
            right = cx.quotient(w.right).fan
            rays_l, rays_r = set(left.rays), set(right.rays)
            rho_l, rho_r = picard_number(left), picard_number(right)
            kind = classify_wall(cx, w).kind
            tag = f"{name} wall {w.left}|{w.right}"
            if kind == "small":
                if rays_l != rays_r:
                    failures.append(f"{tag}: small wall changes quotient rays")
                if rho_l != rho_r:
                    failures.append(f"{tag}: small wall changes picard number")
            elif kind == "divisorial":
                if len(rays_l ^ rays_r) != 1:
                    failures.append(f"{tag}: divisorial wall ray sets differ by {len(rays_l ^ rays_r)}")
                if rho_l is None or rho_r is None or abs(rho_l - rho_r) != 1:
                    failures.append(f"{tag}: divisorial picard change {rho_l} -> {rho_r}")
            else:
                failures.append(f"{tag}: unknown kind {kind}")

    flop = enumerate_chambers(flop_weights())
    if len(flop.chambers) != 2 or len(flop.walls) != 1:
        failures.append(
            f"flop: {len(flop.chambers)} chambers, {len(flop.walls)} walls"
        )
    elif classify_wall(flop, flop.walls[0]).kind != "small":
        failures.append("flop: the single wall is not small")
    _report(capsys, 3, "wall invariants everywhere; flop is two chambers, one small wall", failures)


def test_acceptance_4_moving_cone_oracle(fan_complexes, capsys):
    failures = []
    for name, _, cx in fan_complexes:
        ws = cx.weights
        rhs = None
        for i in range(ws.r):
            piece = cone_from_generators(
                [c for j, c in enumerate(ws.columns) if j != i], ambient_dim=ws.rho
            )
            rhs = piece if rhs is None else intersect(rhs, piece)
        every = tuple(range(ws.r))
        sqm_ids = [
            ch.id for ch in cx.chambers
            if cx.quotient(ch.id).used_columns == every
        ]
        if not sqm_ids:
            failures.append(f"{name}: no column-preserving chamber")
            continue
        union_cones = [cx.chambers[i].cone for i in sqm_ids]
        for cone in union_cones:
            for g in cone.generators + cone.lineality:
                if rhs.contains(g) == "outside":
                    failures.append(f"{name}: chamber ray {g} escapes the intersection")
            for pt in _interior_samples(cone, 50):
                if rhs.contains(pt) == "outside":
                    failures.append(f"{name}: chamber sample {pt} escapes the intersection")
        for g in rhs.generators + rhs.lineality:
            if all(c.contains(g) == "outside" for c in union_cones):
                failures.append(f"{name}: intersection ray {g} misses every SQM chamber")
        for pt in _interior_samples(rhs, 50):
            if all(c.contains(pt) == "outside" for c in union_cones):
                failures.append(f"{name}: intersection sample {pt} misses every SQM chamber")
    _report(capsys, 4, "union of SQM chambers equals the drop-one-column intersection", failures)


def test_acceptance_5_decomposition_identity(all_complexes, capsys):
    failures = []
    for name, cx in all_complexes:
        ws = cx.weights
        for ch in cx.chambers:
            md = mori_chamber_data(cx, ch.id)
            exceptional = cone_from_generators(
                [ws.columns[i] for i in md.dropped_columns], ambient_dim=ws.rho
            )
            if minkowski_sum(md.pulled_back_nef, exceptional) != ch.cone:
                failures.append(f"{name} chamber {ch.id}: Minkowski identity fails")
    _report(capsys, 5, "chamber = pulled-back nef + span of dropped columns, everywhere", failures)


def _two_path_witness(cfg, failures: list[str]) -> None:
    """Propagate rho along two distinct simple paths to every stable chamber.

    cfg is the full enumeration, whose chamber graph has the cycles that
    the few pieces of the sorted cone lack; its rho is the reference.
    """
    stable = {c.index for c in cfg.chambers if c.stable}
    adj: dict[int, list[tuple[int, int]]] = {i: [] for i in stable}
    for a, b, w in cfg.adjacency:
        if a in stable and b in stable:
            adj[a].append((b, w))
            adj[b].append((a, w))

    def bfs_path(target, banned_edge):
        prev = {cfg.seed_index: None}
        queue = deque([cfg.seed_index])
        while queue:
            cur = queue.popleft()
            if cur == target:
                path = []
                while cur is not None:
                    path.append(cur)
                    cur = prev[cur]
                return path[::-1]
            for nxt, _ in adj[cur]:
                if {cur, nxt} == banned_edge or nxt in prev:
                    continue
                prev[nxt] = cur
                queue.append(nxt)
        return None

    wall_of = {}
    for a, b, w in cfg.adjacency:
        wall_of[a, b] = wall_of[b, a] = w

    def propagate(path):
        rho = 1
        for a, b in zip(path, path[1:]):
            w = wall_of[a, b]
            delta = crossing_delta(cfg.n, len(cfg.walls[w].subset))
            rho += -delta if cfg.chambers[a].mask >> w & 1 else delta
        return rho

    reference = cfg.rho
    for target in sorted(stable):
        if target == cfg.seed_index:
            # trivial path plus a closed loop that must come back to rho = 1
            first = [cfg.seed_index]
            out, _ = adj[cfg.seed_index][0]
            around = bfs_path(out, frozenset((cfg.seed_index, out)))
            second = None if around is None else [*around, cfg.seed_index]
        else:
            first = bfs_path(target, frozenset())
            second = None
            if first is not None and len(first) >= 2:
                second = bfs_path(target, frozenset(first[-2:]))
        if first is None or second is None or first == second:
            failures.append(f"n={cfg.n} chamber {target}: fewer than two paths found")
            continue
        values = {propagate(first), propagate(second)}
        if values != {reference[target]}:
            failures.append(
                f"n={cfg.n} chamber {target}: propagated {sorted(values)}, "
                f"stored {reference[target]}"
            )


def test_acceptance_6_point_configurations(capsys):
    failures = []
    for n, expected_constant in ((4, 1), (5, 5), (6, 16)):
        cfg = build_config(n)
        if rho_constant(n) != expected_constant:
            failures.append(f"n={n}: constant {rho_constant(n)} != {expected_constant}")
        report = verify_rho_formula(cfg)
        if not report.ok:
            failures.append(f"n={n}: formula report failed: {report.failures[:3]}")
        rho = quotient_picard(cfg)
        if rho[cfg.seed_index] != 1:
            failures.append(f"n={n}: seed chamber rho {rho[cfg.seed_index]}")
        for ch in cfg.chambers:
            if not ch.stable:
                continue
            total = rho[ch.index] + exceptional_count(cfg, ch)
            if total != expected_constant:
                failures.append(f"n={n} piece {ch.index}: rho + e = {total}")
        failures += [f"n={n} {p}" for p in line_piece_mismatches(cfg, rho, full_line_config(n))]
    _two_path_witness(full_line_config(5), failures)
    _report(capsys, 6, "rho + e constant for n = 4, 5, 6, pieces match the full enumeration; "
            "two-path independence at n = 5", failures)


def test_acceptance_7_codimension_condition(fan_complexes, capsys):
    failures = []
    for name, _, cx in fan_complexes:
        ws = cx.weights
        for cid in moving_cone(cx).chamber_ids:
            rep = cx.chambers[cid].representative
            codim = unstable_locus(ws, rep).min_codim
            if codim is None or codim < 2:
                failures.append(f"{name} chamber {cid}: unstable codimension {codim}")

    cx = enumerate_chambers(cox_weights(blown_up_plane()))
    control = [
        ch for ch in cx.chambers
        if sorted(ch.cone.generators) == [(0, 1), (1, 0)]
    ]
    if len(control) != 1:
        failures.append("Bl1P2: control chamber pos{(1,0),(0,1)} not found")
    else:
        codim = unstable_locus(cx.weights, control[0].representative).min_codim
        if codim != 1:
            failures.append(f"Bl1P2 control chamber: codimension {codim}, expected 1")
    _report(capsys, 7, "moving-cone chambers have unstable codim >= 2; control shows 1", failures)


def test_acceptance_8_determinism(tmp_path, capsys):
    failures = []
    doc = {
        "fan": {
            "rays": [[1, 0], [0, 1], [-1, -1], [1, 1]],
            "max_cones": [[0, 3], [1, 3], [1, 2], [0, 2]],
        }
    }
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    script = shutil.which("mdsgit")
    base = [script] if script else [sys.executable, "-m", "mdsgit.cli"]
    runs = [
        subprocess.run([*base, "chambers", str(path)], capture_output=True)
        for _ in range(2)
    ]
    if any(r.returncode != 0 for r in runs):
        failures.append(f"nonzero exit: {[r.returncode for r in runs]}")
    if runs[0].stdout != runs[1].stdout or runs[0].stderr != runs[1].stderr:
        failures.append("consecutive runs differ")
    if not runs[0].stdout:
        failures.append("empty report")
    _report(capsys, 8, "consecutive CLI runs produce byte-identical reports", failures)
