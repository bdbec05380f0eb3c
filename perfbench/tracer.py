"""Outside-in layer tracing for the traced benchmark run.

The program's modules import each other's functions with ``from .x import
f``, so every module holds its own binding of a name.  ``Tracer.install``
therefore wraps each traced function once and rebinds every ``mdsgit.*``
module attribute that refers to it, plus the two traced methods on their
classes.  ``uninstall`` restores the originals, so traced and untraced
passes can alternate in one process.

Each wrapped call is a span (name, start, end, parent, op id).  Spans are
kept in flat ``array`` columns, which the garbage collector does not scan,
and written out by ``write``.  A span's self time is its duration minus the
durations of its direct children; spans nest strictly because the run has
one thread.  The small vector helpers (``linalg.dot`` and friends) are not
wrapped: they run hundreds of thousands of times per op, so their cost
stays in their callers' self time.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from time import perf_counter

# module -> traced functions; "Class.method" names a method
LAYERS = {
    "linalg": ("smith_normal_form", "hermite_normal_form", "kernel_basis", "saturate_rows",
               "solve_rational", "det", "rank_of"),
    "cones": ("cone_from_generators", "cone_from_inequalities", "intersect", "minkowski_sum",
              "Cone.contains", "split_by_hyperplanes"),
    "toric": ("cox_weights", "validate_fan", "wall_hyperplanes", "g_ample_cone", "gale_dual",
              "quotient_fan_data", "unstable_locus"),
    "vgit": ("enumerate_chambers", "verify_disjoint_cover", "chamber_of",
             "ChamberComplex.quotient"),
    "mori": ("classify_wall", "classify_boundary_facet", "moving_cone", "nef_chamber",
             "mori_chamber_data", "factor_contraction", "enumerate_sqms"),
    "npoints": ("build_config", "quotient_picard", "verify_rho_formula", "exceptional_count"),
    "cli": ("main",),
}


def _sized(x) -> int:
    return len(x) if hasattr(x, "__len__") else 0


# work counters taken from a traced call's arguments and result:
# traced function -> (counter names, function giving one count per name)
COUNTERS = {
    "cones.split_by_hyperplanes": (
        ("cones.split_by_hyperplanes.cells_out", "cones.split_by_hyperplanes.hyperplanes_in"),
        lambda args, kw, out: (len(out), _sized(args[1] if len(args) > 1
                                                else kw.get("hyperplanes", ())))),
    "vgit.enumerate_chambers": (
        ("vgit.chambers_out", "vgit.walls_out", "vgit.boundary_out"),
        lambda args, kw, out: (len(out.chambers), len(out.walls), len(out.boundary_facets))),
    "npoints.build_config": (
        ("npoints.cells_out", "npoints.adjacency_out"),
        lambda args, kw, out: (len(out.chambers), len(out.adjacency))),
}


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.raised: dict[str, int] = {module: 0 for module in LAYERS}
        self.counters: dict[str, int] = {
            name: 0 for names, _ in COUNTERS.values() for name in names}
        self.op = -1
        # open spans: [span index, time covered by finished children]
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []
        # (owner, attribute, original, wrapper) for methods; id -> wrapper for functions
        self._methods = []
        self._functions = {}
        for module, functions in LAYERS.items():
            mod = sys.modules[f"mdsgit.{module}"]
            for name in functions:
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(mod, owner_name) if owner_name else mod
                fn = owner.__dict__[attr]
                wrapped = self._wrap(f"{module}.{name}", fn)
                if owner_name:
                    self._methods.append((owner, attr, fn, wrapped))
                else:
                    # the original stays referenced here, so its id is not reused
                    self._functions[id(fn)] = wrapped

    def _wrap(self, qualname: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        self.calls.append(0)
        self.self_s.append(0.0)
        module = qualname.split(".", 1)[0]
        counter_names, count = COUNTERS.get(qualname, ((), None))
        stack = self._stack
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ops = self.span_parent, self.span_op

        @functools.wraps(fn)
        def traced(*args, **kw):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            ops.append(self.op)
            frame = [idx, 0.0]
            stack.append(frame)
            ok = False
            ends.append(0.0)
            t0 = perf_counter()
            starts.append(t0)
            try:
                out = fn(*args, **kw)
                ok = True
            finally:
                t1 = perf_counter()
                ends[idx] = t1
                stack.pop()
                dur = t1 - t0
                self.calls[nid] += 1
                self.self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if not ok:
                    self.raised[module] += 1
            if count is not None:
                for key, n in zip(counter_names, count(args, kw, out)):
                    self.counters[key] += n
            return out

        return traced

    def install(self) -> None:
        """Rebind every traced function in every mdsgit module to its wrapper."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for owner, attr, fn, wrapped in self._methods:
            self._restore.append((owner, attr, fn))
            setattr(owner, attr, wrapped)
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == "mdsgit" or mod_name.startswith("mdsgit.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapped = self._functions.get(id(value))
                if wrapped is not None:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        """Restore the original bindings; totals and spans are kept."""
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def totals(self) -> dict[str, float]:
        """Calls, self time, raised counts and work counters, by metric name."""
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            if name == "cli.main":
                out["cli.main.calls"] = self.calls[nid]
                out["cli.self_s"] = self.self_s[nid]
            else:
                out[f"{name}.calls"] = self.calls[nid]
                out[f"{name}.self_s"] = self.self_s[nid]
        for module, n in self.raised.items():
            out[f"{module}.raised"] = n
        out.update(self.counters)
        return out

    def write(self, path: str) -> None:
        """Write the spans as gzipped JSON columns; times are seconds from the first span."""
        t0 = self.span_start[0] if self.span_start else 0.0
        doc = {
            "names": self.names,
            "name": list(self.span_name),
            "start": [round(t - t0, 7) for t in self.span_start],
            "end": [round(t - t0, 7) for t in self.span_end],
            "parent": list(self.span_parent),
            "op": list(self.span_op),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
