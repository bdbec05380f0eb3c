"""mdsgit benchmark: closed-loop CLI workloads with output checks.

    python3 perfbench/run.py --workload fan_library --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.  One
run is one interpreter with one client and no threads.  It first times
SETUP_SAMPLES fresh interpreters that only ``import mdsgit.cli``, then
runs whole passes over the workload's op list, one ``mdsgit.cli.main(argv)``
call at a time, while another pass is expected to fit in ``--seconds``
(at least one pass).  Every op's output is checked.

``--trace 0`` prints the end-to-end metrics.  Their times are in reference
seconds: each set-up and each op is scaled by the machine's speed measured
around and during it with a fixed kernel (see ``reference.py``).
``--trace 1`` is the separate traced run: it alternates untraced passes
with passes in which every layer function is wrapped (see ``tracer.py``),
and prints the per-layer metrics, per pass, with the tracing overhead, in
plain seconds.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Details of the run go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import reference  # noqa: E402
import workloads  # noqa: E402
from checks import Checker, load_expected  # noqa: E402

SETUP_SAMPLES = 31
# kernel samples each set-up child takes after its import, after one untimed
# run that lets the interpreter specialize the kernel's bytecode
SETUP_KERNELS = 5
# the highest percentile reported is the one with this many ops beyond it
TAIL_BEYOND = 10
COMMAND_METRICS = ("chambers", "walls", "mov", "factor", "quotient", "m0n")


def import_program(root: str):
    """Import ``mdsgit.cli`` from ``<root>/src``, or exit if it is not there."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "mdsgit", "cli.py")):
        raise SystemExit(f"error: {src}/mdsgit/cli.py not found; run from the repository root")
    sys.path.insert(0, src)
    import mdsgit.cli

    return mdsgit.cli


# The child prints the time its import finished and then its kernel
# samples.  perf_counter is CLOCK_MONOTONIC, one clock for all processes.
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import mdsgit.cli; "
    "done = time.perf_counter(); sys.path.insert(0, sys.argv[2]); import reference; "
    "reference.kernel_seconds(); "
    "print(done, *(reference.kernel_seconds() for _ in range(int(sys.argv[3]))))")


def measure_setup(root: str) -> list[tuple[float, float]]:
    """Start a fresh interpreter that imports mdsgit.cli, several times.

    Each start gives its seconds from spawn to the end of the import, and
    those seconds scaled by the kernel samples the child takes right after
    its import, on its own core.  One untimed start comes first, so
    byte-compiling the sources after a fresh checkout is not counted.
    """
    cmd = [sys.executable, "-c", SETUP_CODE, os.path.join(root, "src"), HERE,
           str(SETUP_KERNELS)]
    subprocess.run(cmd, check=True, capture_output=True)
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        proc = subprocess.run(cmd, check=True, capture_output=True, text=True)
        done, *kernel = (float(x) for x in proc.stdout.split())
        times.append((done - t0, (done - t0) * reference.speed(kernel)))
    return times


def run_op(cli, op, sampler=None) -> tuple[int, float, str]:
    """One op: exit code, seconds, and captured stdout.

    With a ``reference.Sampler`` the kernel is sampled during the op, and
    the sampler's own time is taken out of the op's seconds.
    """
    out, err = io.StringIO(), io.StringIO()
    crash = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            (sampler or contextlib.nullcontext()):
        t0 = perf_counter()
        try:
            rc = cli.main(list(op.argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            rc = -1
            crash = traceback.format_exc()
        dt = perf_counter() - t0
    if sampler is not None:
        dt -= sampler.spent
    if crash is not None:
        print(f"op {' '.join(op.argv)} raised:\n{crash}", file=sys.stderr)
    return rc, dt, out.getvalue()


def op_key(op) -> str:
    """A location-independent name for an op, used to compare outputs across runs."""
    path = workloads.corpus_path(op.input) if op.input else None
    return " ".join(op.input if a == path else a for a in op.argv)


class Session:
    """Runs passes over one op list, checking every output.

    With ``scaled`` each op's time is also scaled to reference seconds by
    kernel samples taken before, during and after it.  Without it the
    scaled times are the plain ones.
    """

    def __init__(self, cli, ops, checker: Checker, digests: dict[int, str] | None = None,
                 on_op=None, scaled: bool = False):
        self.cli = cli
        self.ops = ops
        self.checker = checker
        self.sampler = reference.Sampler() if scaled else None
        # op index -> digest of its exit code and stdout; shared by the
        # untraced and traced sessions of one run
        self.digests = {} if digests is None else digests
        # called with the op's serial number in the session before each op
        self.on_op = on_op
        # one entry per failed op
        self.errors: list[str] = []
        self.attempted = 0
        # ops whose exit code is not the correct one (rank-3 defect included)
        self.nonzero = 0
        # op seconds per pass, plain and scaled
        self.raw_passes: list[list[float]] = []
        self.passes: list[list[float]] = []

    def run_pass(self) -> None:
        raw, times = [], []
        for i, op in enumerate(self.ops):
            if self.on_op is not None:
                self.on_op(self.attempted)
            gc.collect()
            if self.sampler is None:
                rc, dt, stdout = run_op(self.cli, op)
                scaled = dt
            else:
                before = reference.kernel_seconds()
                rc, dt, stdout = run_op(self.cli, op, self.sampler)
                after = reference.kernel_seconds()
                scaled = dt * reference.speed([before, *self.sampler.samples, after])
            raw.append(dt)
            times.append(scaled)
            self.attempted += 1
            error = self._check(i, op, rc, stdout)
            if error is not None:
                self.errors.append(f"{op_key(op)}: {error}")
            if error is not None or rc != op.exits[0]:
                self.nonzero += 1
        self.raw_passes.append(raw)
        self.passes.append(times)

    def _check(self, i, op, rc, stdout) -> str | None:
        """Check an op's first output; later ones must repeat its bytes."""
        digest = hashlib.sha256(f"{rc}\n{stdout}".encode()).hexdigest()
        if i not in self.digests:
            self.digests[i] = digest
            return self.checker.check(op, rc, stdout)
        if self.digests[i] != digest:
            return "output bytes differ between passes"
        return None

    def run_for(self, seconds: float) -> None:
        """Whole passes while the next one is expected to fit in the budget."""
        t0 = perf_counter()
        while True:
            self.run_pass()
            elapsed = perf_counter() - t0
            if elapsed + elapsed / len(self.passes) > seconds:
                return

    def pass_times(self, raw: bool = False) -> list[float]:
        return [sum(p) for p in (self.raw_passes if raw else self.passes)]

    def command_seconds(self, command: str) -> float:
        """Median over passes of the summed time of one command's ops."""
        idx = [i for i, op in enumerate(self.ops) if op.command == command]
        return statistics.median(sum(p[i] for i in idx) for p in self.passes)


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND ops beyond it, and that percentile."""
    ordered = sorted(times)
    k = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def compare_across_runs(session: Session, root: str) -> list[str]:
    """Record op digests; a later run of the same sources must reproduce them."""
    src = os.path.join(root, "src", "mdsgit")
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    path = os.path.join(OUT_DIR, "digests.json")
    try:
        with open(path, "rb") as fh:
            store = json.load(fh)
    except FileNotFoundError:
        store = {}
    seen = store.setdefault(h.hexdigest(), {})
    errors = []
    for i, op in enumerate(session.ops):
        key = op_key(op)
        if seen.setdefault(key, session.digests[i]) != session.digests[i]:
            errors.append(f"{key}: output bytes differ from an earlier run")
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(store, fh, indent=0, sort_keys=True)
    os.replace(tmp, path)
    return errors


def end_to_end(session: Session, setup: list[tuple[float, float]]) -> dict:
    """The end-to-end metrics, in reference seconds; plain seconds are printed too."""
    times = [t for p in session.passes for t in p]
    tail_s, tail_pct = tail(times)
    passes = session.pass_times()
    raw_times = [t for p in session.raw_passes for t in p]
    raw_passes = session.pass_times(raw=True)
    print(f"{len(session.passes)} passes of {len(session.ops)} ops, {len(times)} ops; "
          f"op_tail_s is the p{tail_pct:.1f} of {len(times)} ops; "
          f"throughput {len(session.ops) / statistics.median(passes):.3f} ops per reference s")
    print(f"plain seconds: setup {statistics.median(s for s, _ in setup):.6g}, "
          f"wall {statistics.median(raw_passes):.6g}, op p50 {statistics.median(raw_times):.6g}, "
          f"op tail {tail(raw_times)[0]:.6g}")
    return {
        "setup_s": (statistics.median(s for _, s in setup), "s"),
        "wall_s": (statistics.median(passes), "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(cli, untraced: Session, seconds: float, trace_path: str) -> tuple[dict, Session]:
    """Untraced and traced passes in turn; per-layer totals per traced pass.

    Alternating the two kinds of pass puts the same machine conditions
    under both, so their difference estimates the tracing overhead.
    """
    from tracer import Tracer

    tracer = Tracer()
    traced = Session(cli, untraced.ops, untraced.checker, untraced.digests,
                     on_op=lambda serial: setattr(tracer, "op", serial))
    t0 = perf_counter()
    while True:
        untraced.run_pass()
        tracer.install()
        try:
            traced.run_pass()
        finally:
            tracer.uninstall()
        elapsed = perf_counter() - t0
        if elapsed + elapsed / len(traced.passes) > seconds:
            break
    tracer.write(trace_path)
    n = len(traced.passes)
    totals = tracer.totals()
    metrics = {}
    for name, value in sorted(totals.items()):
        unit = "s" if name.endswith("_s") else "count"
        metrics[name] = (value / n, unit)
    calls = {name: totals.get(f"{name}.calls", 0) for name in (
        "toric.wall_hyperplanes", "toric.quotient_fan_data", "vgit.ChamberComplex.quotient")}
    quotients = calls["toric.quotient_fan_data"]
    requests = calls["vgit.ChamberComplex.quotient"]
    metrics["toric.wall_hyperplanes_per_quotient"] = (
        calls["toric.wall_hyperplanes"] / quotients if quotients else 0.0, "ratio")
    metrics["mori.quotient_requests"] = (requests / n, "count")
    metrics["mori.quotient_hit_ratio"] = (1 - quotients / requests if requests else 0.0, "ratio")
    traced_wall = statistics.median(traced.pass_times())
    untraced_wall = statistics.median(untraced.pass_times())
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    for command in COMMAND_METRICS:
        present = any(op.command == command for op in untraced.ops)
        metrics[f"{command}_s"] = (untraced.command_seconds(command) if present else 0.0, "s")
    attempted = untraced.attempted + traced.attempted
    metrics["fail_ratio"] = ((untraced.nonzero + traced.nonzero) / attempted, "ratio")
    return metrics, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_program(ROOT)
    checker = Checker(load_expected())
    ops = workloads.build_ops(args.workload, args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")

    # objects alive now live for the whole run; freezing them keeps the
    # collection before each op short
    gc.collect()
    gc.freeze()
    session = Session(cli, ops, checker, scaled=not args.trace)
    sessions = [session]
    setup = []
    if args.trace:
        metrics, traced = per_layer(cli, session, args.seconds, stem + "-spans.json.gz")
        sessions.append(traced)
    else:
        setup = measure_setup(ROOT)
        session.run_for(args.seconds)
        metrics = end_to_end(session, setup)
    errors = [e for s in sessions for e in s.errors] + compare_across_runs(session, ROOT)
    failed = len(errors)

    for error in errors[:20]:
        print(f"FAILED {error}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:.6g} {unit}")
    for key, value in sorted(checker.recorded.items()):
        print(f"recorded {key} = {json.dumps(value)}")
    result = {
        "correct": failed == 0,
        "attempted": sum(s.attempted for s in sessions),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(stem + ".json", "w") as fh:
        json.dump({**result, "machine": {"nproc": os.cpu_count(),
                                         "python": platform.python_version()},
                   "recorded": checker.recorded, "errors": errors,
                   "ops": [op_key(op) for op in ops], "setup": setup,
                   "passes": session.passes, "raw_passes": session.raw_passes}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
