"""Output checks for the benchmark's ops.

What is asserted is what is correct today and stays correct once
chambers become GIT chambers at every rank (ROADMAP item 1): the outputs of
the fan library, the m0n counts, and on the rank-5 surface the effective
cone, the quotient fans, the moving cone and the rank.  What that item
exists to change (chamber and wall counts of the surface, chamber ids,
factor paths) is recorded, never asserted.

Outputs are compared in a canonical form that drops chamber ids and
orderings that depend on them, so a correct renumbering still passes.
"""

from __future__ import annotations

import json
import os

from workloads import KNOWN_DEFECT_INPUTS, SURFACE, Op

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

WALL_KINDS = {"small", "divisorial"}


def canonical(command: str, doc: dict):
    """The id-free part of a ``--json`` report that the checks compare."""
    if command == "chambers":
        cones = sorted([c["generators"], c["lineality"]] for c in doc["chambers"])
        return {"rho": doc["rho"], "r": doc["r"], "count": doc["count"],
                "walls": doc["walls"], "boundary_facets": doc["boundary_facets"],
                "cones": cones}
    if command in ("eff", "mov"):
        return {k: doc[k] for k in ("generators", "lineality", "dim")}
    if command == "nef":
        return {k: doc[k] for k in ("generators", "picard_number")}
    if command == "walls":
        return sorted([w["kind"], w["picard_delta"], w["contracted_columns"]]
                      for w in doc["walls"])
    if command == "sqms":
        return {"count": len(doc["chamber_ids"])}
    if command == "boundary":
        return sorted([b["character"], b["quotient_dim"], b["fiber_dim"]]
                      for b in doc["boundary_facets"])
    if command == "check-cover":
        return {k: doc[k] for k in ("ok", "chambers", "walls", "boundary_facets", "issues")}
    if command == "quotient":
        return {k: doc[k] for k in ("rays", "max_cones", "used_columns", "dropped_columns",
                                    "picard_number", "unstable_min_codim")}
    if command == "m0n":
        return {k: doc[k] for k in ("n", "walls", "chambers", "ok")}
    raise ValueError(f"no canonical form for {command!r}")


def load_expected() -> dict:
    with open(EXPECTED_PATH, "rb") as fh:
        return json.load(fh)


def _check_factor(op: Op, doc: dict) -> str | None:
    start, end, times = op.extra
    if doc["from"] != list(start) or doc["to"] != list(end):
        return "factor endpoints not echoed"
    got = doc["crossing_times"]
    # every reported crossing is one of the hyperplane crossings the
    # benchmark computed; today they are all of them
    if not set(got) <= set(times):
        return f"crossing times {got} not among the segment's hyperplane crossings {list(times)}"
    order = {t: i for i, t in enumerate(times)}
    if [order[t] for t in got] != sorted(order[t] for t in got):
        return "crossing times not increasing"
    if len(doc["crossings"]) != len(got) or len(doc["chamber_path"]) != len(got) + 1:
        return "path, crossings and times disagree in length"
    if any(c["kind"] not in WALL_KINDS for c in doc["crossings"]):
        return "unknown wall kind"
    return None


class Checker:
    """Checks one op's stdout against the pinned expectations.

    check() returns an error message or None, and fills ``recorded`` with
    the values that are logged but not asserted.
    """

    def __init__(self, expected: dict):
        self.outputs = expected["outputs"]
        self.quotients = {name: [json.dumps(q, sort_keys=True) for q in qs]
                          for name, qs in expected["quotients"].items()}
        self.recorded: dict[str, object] = {}

    def check(self, op: Op, rc: int, stdout: str) -> str | None:
        if rc not in op.exits:
            return f"exit code {rc}, expected {op.exits[0]}"
        if rc != 0:
            return None  # a known defect exit, counted by the caller
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError:
            return "stdout is not JSON"
        if op.input in KNOWN_DEFECT_INPUTS:
            return None
        key = f"{op.input}/{op.command}" if op.input else f"m0n/{doc.get('n')}"
        if op.command == "factor":
            if op.input == SURFACE:
                self.recorded[f"{key}.chamber_path"] = doc["chamber_path"]
                self.recorded[f"{key}.crossing_times"] = doc["crossing_times"]
            return _check_factor(op, doc)
        canon = canonical(op.command, doc)
        if op.command == "quotient":
            if json.dumps(canon, sort_keys=True) not in self.quotients[op.input]:
                return f"quotient fan at {doc['chi']} is not one of the pinned quotient fans"
            return None
        if op.input == SURFACE:
            return self._check_surface(op, doc, canon)
        want = self.outputs.get(key)
        if want is None:
            return f"no pinned output for {key}"
        if canon != want:
            return f"{key} differs from the pinned output"
        return None

    def _check_surface(self, op: Op, doc: dict, canon) -> str | None:
        key = f"{SURFACE}/{op.command}"
        if op.command == "chambers":
            self.recorded.update({f"{key}.count": doc["count"], f"{key}.walls": doc["walls"],
                                  f"{key}.boundary_facets": doc["boundary_facets"]})
            if (doc["rho"], doc["r"]) != (5, 7):
                return f"rank {doc['rho']} and {doc['r']} columns, expected 5 and 7"
            return None
        if op.command == "walls":
            self.recorded[f"{key}.count"] = len(doc["walls"])
            return None
        if op.command == "boundary":
            self.recorded[f"{key}.count"] = len(doc["boundary_facets"])
            return None
        if op.command == "mov":
            self.recorded[f"{key}.chamber_ids"] = doc["chamber_ids"]
        if canon != self.outputs[key]:
            return f"{key} differs from the pinned output"
        return None
