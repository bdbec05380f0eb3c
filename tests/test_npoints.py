"""Subset-sum chamber bookkeeping for n points on a line."""

from __future__ import annotations

from collections import Counter

import pytest

from mdsgit import npoints
from mdsgit.cones import cone_from_generators, split_by_hyperplanes
from mdsgit.errors import InvariantViolationError
from mdsgit.linalg import dot
from mdsgit.npoints import (
    MAX_N,
    build_config,
    crossing_delta,
    exceptional_count,
    quotient_picard,
    rho_constant,
    verify_rho_formula,
)
from oracles import (
    braid_orbit,
    count_chambers_bruteforce,
    exceptional_count_by_subsets,
    full_line_config,
    line_piece_mismatches,
    signs_of,
    single_flip_pairs,
)

FROZEN = {
    # n: (walls, pieces, orbit-weighted chambers, weighted stable)
    4: (7, 3, 12, 8),
    5: (15, 7, 81, 76),
    6: (31, 21, 1684, 1678),
}


@pytest.fixture(scope="module")
def configs():
    return {n: build_config(n) for n in (4, 5, 6)}


@pytest.fixture(scope="module")
def full_configs():
    return {n: full_line_config(n) for n in (4, 5, 6)}


def _weighted(cfg, stable):
    return sum(ch.orbit for ch in cfg.chambers if ch.stable == stable)


def test_bounds_are_enforced(monkeypatch):
    assert MAX_N == 8
    with pytest.raises(ValueError):
        build_config(3)

    def no_split(*args):
        raise AssertionError("n = 9 reached the split")

    monkeypatch.setattr(npoints, "split_by_hyperplanes", no_split)
    with pytest.raises(ValueError):
        build_config(9)


def test_n8_counts():
    report = verify_rho_formula(build_config(8))
    assert report.ok
    assert (report.n_chambers, report.n_stable, report.n_unstable) == (
        33_207_256, 33_207_248, 8,
    )
    assert len(report.rho) == 2470
    assert report.constant == 99


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_sorted_cone_is_canonical(n):
    generators = [tuple(int(j >= i) for j in range(n)) for i in range(n)]
    assert npoints._sorted_cone(n) == cone_from_generators(generators)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_orbits_match_rank_oracle(n):
    cfg = build_config(n)
    cells = split_by_hyperplanes(npoints._sorted_cone(n), [w.covector for w in cfg.walls])
    rays = {cell.mask: cell.rays for cell in cells}
    assert len(rays) == len(cfg.chambers)
    assert [ch.orbit for ch in cfg.chambers] == [
        braid_orbit(n, rays[ch.mask]) for ch in cfg.chambers
    ]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_frozen_counts(configs, n):
    cfg = configs[n]
    walls, pieces, chambers, stable = FROZEN[n]
    assert len(cfg.walls) == walls
    assert len(cfg.chambers) == pieces
    assert _weighted(cfg, True) + _weighted(cfg, False) == chambers
    assert _weighted(cfg, True) == stable
    assert _weighted(cfg, False) == n


@pytest.mark.parametrize("n", [4, 5, 6])
def test_pieces_match_full_enumeration(configs, full_configs, n):
    cfg = configs[n]
    assert line_piece_mismatches(cfg, quotient_picard(cfg), full_configs[n]) == []


def test_wall_representatives_n4(configs):
    assert [w.subset for w in configs[4].walls] == [
        (1,), (2,), (3,), (4,), (1, 2), (1, 3), (1, 4),
    ]
    assert configs[4].walls[4].covector == (1, 1, -1, -1)


def test_half_size_walls_contain_point_one(configs):
    for n in (4, 6):
        for w in configs[n].walls:
            if 2 * len(w.subset) == n:
                assert 1 in w.subset


def test_rho_constant():
    assert [rho_constant(n) for n in (4, 5, 6)] == [1, 5, 16]


def test_crossing_delta_table():
    # the n=4 half-splits leave rho alone; proper middle sizes trade 1:1
    assert crossing_delta(4, 1) == 0
    assert crossing_delta(4, 2) == 0
    assert crossing_delta(5, 2) == -1
    assert crossing_delta(5, 3) == 1
    assert crossing_delta(6, 2) == -1
    assert crossing_delta(6, 3) == 0
    assert crossing_delta(6, 4) == 1


@pytest.mark.parametrize("n", [4, 5])
def test_chamber_count_against_bruteforce(configs, n):
    cfg = configs[n]
    eye = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    expected = count_chambers_bruteforce([w.covector for w in cfg.walls], eye, n)
    assert sum(ch.orbit for ch in cfg.chambers) == expected


@pytest.mark.parametrize("n", [4, 5, 6])
def test_representatives_realize_signs(configs, n):
    cfg = configs[n]
    for ch in cfg.chambers:
        assert all(x > 0 for x in ch.representative)
        assert list(ch.representative) == sorted(ch.representative)
        for k, w in enumerate(cfg.walls):
            d = dot(w.covector, ch.representative)
            assert d != 0 and (d > 0) == bool(ch.mask >> k & 1)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_stability_matches_singleton_signs(configs, n):
    cfg = configs[n]
    for ch in cfg.chambers:
        singleton_ok = all(not ch.mask >> i & 1 for i in range(n))
        assert ch.stable == singleton_ok


def test_seed_chamber(configs, full_configs):
    for n in (4, 5, 6):
        cfg = configs[n]
        seed = cfg.chambers[cfg.seed_index]
        assert seed.stable
        rho = quotient_picard(cfg)
        assert rho[cfg.seed_index] == 1
        assert exceptional_count(cfg, seed) == rho_constant(n) - 1
        # the full seed chamber (point 1 heavy) under the transposition (1 n)
        full = full_configs[n]
        point = list(full.chambers[full.seed_index].representative)
        point[0], point[-1] = point[-1], point[0]
        signs = tuple(1 if dot(w.covector, point) > 0 else -1 for w in cfg.walls)
        assert signs == signs_of(seed.mask, len(cfg.walls))
    # point 4 heavy: only {1, 4} outweighs its complement
    assert signs_of(configs[4].chambers[configs[4].seed_index].mask, 7) == (
        -1, -1, -1, -1, -1, -1, 1,
    )


@pytest.mark.parametrize("n", [4, 5, 6])
def test_rho_formula(configs, n):
    report = verify_rho_formula(configs[n])
    assert report.ok
    assert report.constant == rho_constant(n)
    assert report.failures == ()
    assert report.n_chambers == FROZEN[n][2]
    assert report.n_stable == FROZEN[n][3]
    assert report.n_unstable == n


def _weighted_histogram(cfg):
    rho = quotient_picard(cfg)
    histogram = Counter()
    for ch in cfg.chambers:
        if rho[ch.index] is not None:
            histogram[rho[ch.index]] += ch.orbit
    return histogram


def test_rho_histograms(configs):
    assert _weighted_histogram(configs[4]) == {1: 8}
    assert _weighted_histogram(configs[5]) == {
        1: 5, 2: 30, 3: 30, 4: 10, 5: 1,
    }
    assert _weighted_histogram(configs[6]) == {
        1: 6, 2: 30, 3: 140, 4: 480, 5: 690, 6: 332,
    }


def test_unstable_chambers_get_no_rho(configs):
    for n in (4, 5, 6):
        rho = quotient_picard(configs[n])
        for ch in configs[n].chambers:
            assert (rho[ch.index] is None) == (not ch.stable)


def test_symmetric_chamber_is_unique_maximum(configs):
    # only the democratic weights of five points see every exceptional
    # subset positively; for six points the democratic weights sit on walls
    cfg = configs[5]
    zero_e = [ch for ch in cfg.chambers if ch.stable and exceptional_count(cfg, ch) == 0]
    assert len(zero_e) == 1
    assert all(x == 1 for x in _normalized(zero_e[0].representative))
    cfg6 = configs[6]
    assert not [
        ch for ch in cfg6.chambers if ch.stable and exceptional_count(cfg6, ch) == 0
    ]


def _normalized(rep):
    g = min(rep)
    return tuple(x // g for x in rep) if g else rep


@pytest.mark.parametrize("n", [4, 5, 6])
def test_adjacency_is_single_sign_flip(configs, n):
    cfg = configs[n]
    for a, b, w in cfg.adjacency:
        sa = signs_of(cfg.chambers[a].mask, len(cfg.walls))
        sb = signs_of(cfg.chambers[b].mask, len(cfg.walls))
        diffs = [k for k in range(len(sa)) if sa[k] != sb[k]]
        assert diffs == [w]
    assert set(cfg.adjacency) == single_flip_pairs(
        [signs_of(ch.mask, len(cfg.walls)) for ch in cfg.chambers]
    )
    assert list(cfg.adjacency) == sorted(cfg.adjacency)


def test_exceptional_count_accepts_index_or_chamber(configs):
    cfg = configs[5]
    ch = cfg.chambers[cfg.seed_index]
    assert exceptional_count(cfg, ch) == exceptional_count(cfg, cfg.seed_index)
    for n in (4, 5, 6):
        cfg = configs[n]
        subsets = [w.subset for w in cfg.walls]
        for ch in cfg.chambers:
            expected = exceptional_count_by_subsets(n, subsets, signs_of(ch.mask, len(subsets)))
            assert exceptional_count(cfg, ch.index) == expected
