"""Tests of the benchmark itself: tracing coverage, self-time accounting,
the character generator, the output checks and the reference scaling.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import cProfile
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from fractions import Fraction

import pytest

import reference
import run
import workloads
from checks import Checker, load_expected
from tracer import LAYERS, Tracer


@pytest.fixture(scope="module")
def cli():
    return run.import_program(run.ROOT)


def _ops():
    """A few small ops that reach every layer."""
    ops = [workloads.plain_op(cmd, "Bl2P2") for cmd in ("walls", "nef", "check-cover", "sqms")]
    ops.append(workloads.plain_op("boundary", "F1"))
    ops.append(workloads.plain_op("mov", "flop"))
    ops.append(workloads.plain_op("chambers", "rank3", exits=(0, 1)))
    ops.append(workloads.quotient_op("Bl2P2", (3, 5, 7)))
    ops += workloads.m0n_ops()[:2]
    return ops


def _original(qualname):
    module, _, name = qualname.partition(".")
    owner_name, _, attr = name.rpartition(".")
    mod = sys.modules[f"mdsgit.{module}"]
    owner = getattr(mod, owner_name) if owner_name else mod
    return owner.__dict__[attr]


def test_wrapper_reaches_every_binding(cli):
    """Traced call counts equal cProfile's counts of the unwrapped functions."""
    ops = _ops()
    tracer = Tracer()
    tracer.install()
    try:
        traced_rc = [run.run_op(cli, op)[0] for op in ops]
    finally:
        tracer.uninstall()
    totals = tracer.totals()

    prof = cProfile.Profile()
    prof.enable()
    try:
        plain_rc = [run.run_op(cli, op)[0] for op in ops]
    finally:
        prof.disable()
    prof.create_stats()
    assert traced_rc == plain_rc

    for module, names in LAYERS.items():
        for name in names:
            qualname = f"{module}.{name}"
            code = _original(qualname).__code__
            key = (code.co_filename, code.co_firstlineno, code.co_name)
            expected = prof.stats[key][1] if key in prof.stats else 0
            metric = "cli.main.calls" if qualname == "cli.main" else f"{qualname}.calls"
            assert totals[metric] == expected, qualname
    assert totals["cones.cone_from_generators.calls"] > 0


def test_uninstall_restores_every_binding(cli):
    before = {name: dict(vars(mod)) for name, mod in sys.modules.items()
              if name.startswith("mdsgit")}
    from mdsgit.cones import Cone

    contains = Cone.__dict__["contains"]
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    tracer.install()
    assert Cone.__dict__["contains"] is not contains
    tracer.uninstall()
    assert Cone.__dict__["contains"] is contains
    for name, attrs in before.items():
        now = vars(sys.modules[name])
        assert all(now[k] is v for k, v in attrs.items()), name


def test_self_times_sum_to_traced_wall(capsys):
    """Self times partition the time spent in cli.main."""
    assert run.main(["--workload", "m0n", "--seed", "1", "--seconds", "0.5", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    self_sum = sum(v for k, v in metrics.items()
                   if k.endswith("self_s") and not k.startswith("trace."))
    wall = metrics["trace.wall_s"]
    assert self_sum <= wall
    assert wall - self_sum < 0.02 * wall + 0.005


@pytest.mark.parametrize("seed", range(12))
def test_generator_avoids_candidate_walls(seed):
    """Seeded characters lie off every wall the program itself would list."""
    from mdsgit.toric import wall_hyperplanes, weight_system

    columns = workloads.load_columns()
    walls = {name: wall_hyperplanes(weight_system(cols)) for name, cols in columns.items()}
    ops = workloads.build_ops("fan_library", seed) + workloads.build_ops("surface_rank5", seed)
    seen = 0
    for op in ops:
        if op.command not in ("quotient", "factor"):
            continue
        chars = op.extra[:1] if op.command == "quotient" else op.extra[:2]
        for chi in chars:
            seen += 1
            assert all(sum(a * b for a, b in zip(h, chi)) != 0 for h in walls[op.input]), \
                (op.input, chi)
        if op.command == "factor":
            start, end, times = op.extra
            assert len(set(times)) == len(times)
            assert all(0 < Fraction(t) < 1 for t in times)
    assert seen == 12 * 3 + workloads.SURFACE_QUOTIENTS + 2


def test_frozen_columns_match_the_program(cli):
    """The generator's normals are the program's wall normals, in the program's basis."""
    from mdsgit.toric import wall_hyperplanes

    for name, cols in workloads.load_columns().items():
        ws = cli._load_input(workloads.corpus_path(name)).weights
        assert [tuple(c) for c in ws.columns] == cols, name
        assert workloads.hyperplane_normals(cols) == list(wall_hyperplanes(ws)), name


def test_ops_are_seeded():
    a = workloads.build_ops("surface_rank5", 3)
    assert a == workloads.build_ops("surface_rank5", 3)
    assert a != workloads.build_ops("surface_rank5", 4)
    assert workloads.build_ops("m0n", 3) == workloads.build_ops("m0n", 4)


def test_checks_reject_wrong_outputs(cli):
    checker = Checker(load_expected())
    m0n = workloads.m0n_ops()[2]
    rc, _, out = run.run_op(cli, m0n)
    assert checker.check(m0n, rc, out) is None
    doc = json.loads(out)
    assert checker.check(m0n, rc, json.dumps({**doc, "chambers": 1683})) is not None
    assert checker.check(m0n, 1, out) is not None

    quotient = workloads.quotient_op("Bl2P2", (3, 5, 7))
    rc, _, out = run.run_op(cli, quotient)
    assert checker.check(quotient, rc, out) is None
    doc = json.loads(out)
    assert checker.check(quotient, rc, json.dumps({**doc, "picard_number": 9})) is not None


def test_tail_has_ten_ops_beyond():
    times = [float(i) for i in range(40)]
    value, pct = run.tail(times)
    assert sum(t > value for t in times) == run.TAIL_BEYOND
    assert pct == 75.0


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, a run fails without a result."""
    shutil.copytree(os.path.dirname(workloads.__file__), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "m0n", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_sampler_samples_during_an_op_and_stops(cli):
    """Kernel samples are taken while an op runs; their time is not the op's."""
    op = workloads.m0n_ops()[2]
    sampler = reference.Sampler()
    rc, dt, _ = run.run_op(cli, op, sampler)
    assert rc == 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 2
    assert 0 < sampler.spent < dt
    assert reference.speed([reference.REFERENCE_S] * 3) == 1.0
    assert reference.speed([2 * reference.REFERENCE_S, reference.REFERENCE_S / 2]) == 1.25


def test_scaled_run_reports_reference_seconds(capsys):
    """A --trace 0 run scales every op and set-up by the kernel's speed."""
    assert run.main(["--workload", "m0n", "--seed", "1", "--seconds", "0.5", "--trace", "0"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"setup_s", "wall_s", "op_p50_s", "op_tail_s",
                                      "peak_rss_mb"}
    with open(os.path.join(run.OUT_DIR, "m0n-seed1-trace0.json")) as fh:
        record = json.load(fh)
    assert len(record["setup"]) == run.SETUP_SAMPLES
    assert all(raw > 0 and scaled > 0 for raw, scaled in record["setup"])
    raw, scaled = record["raw_passes"], record["passes"]
    assert len(raw) == len(scaled) >= 1
    assert all(len(r) == len(s) == 3 for r, s in zip(raw, scaled))
    assert result["metrics"]["wall_s"]["value"] == statistics.median(sum(p) for p in scaled)
