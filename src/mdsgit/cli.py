"""Command line interface.

Input is a JSON document holding either a fan or a weight matrix:

    {"fan": {"rays": [[1, 0], [0, 1], [-1, -1]],
             "cones": [[0, 1], [0, 2], [1, 2]]}}

    {"weights": {"columns": [[1], [1], [-1], [-1]], "torsion": []}}

The key "max_cones" is accepted as an alias for "cones".  Exit codes:
0 success, 1 failed verification or internal error, 2 usage or parse
error, 3 validation error (invalid fan, rank-deficient weights, or a
character with empty semistable locus), 4 degenerate linearization
(the character sits on a wall instead of inside a chamber, or the fan is
no single chamber's quotient), 141 standard output closed before the
report was written (as for a SIGPIPE death).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .errors import (
    DegenerateLinearizationError,
    DimensionMismatchError,
    EmptySemistableLocusError,
    InputTooLargeError,
    InvalidFanError,
    MdsgitError,
    RankDeficientWeightsError,
)
from .linalg import primitive
from .mori import (
    classify_boundary_facet,
    classify_wall,
    enumerate_sqms,
    factor_contraction,
    moving_cone,
    nef_chamber,
)
from .npoints import MAX_N, build_config, verify_rho_formula
from .toric import (
    Fan,
    WeightSystem,
    _unstable_report,
    cox_weights,
    g_ample_cone,
    make_fan,
    quotient_fan_data,
    validate_fan,
    weight_system,
)
from .vgit import enumerate_chambers, verify_disjoint_cover


def _fail(message: str) -> None:
    raise ValueError(message)


def _integer_list(values, what: str):
    """values itself when it is a list of JSON integers, else a parse error."""
    if not isinstance(values, list):
        _fail(f"{what} must be a list of integers")
    for x in values:
        # bool is an int subclass, but true/false is not an integer entry
        if type(x) is not int:
            _fail(f"{what} has the entry {json.dumps(x)}, expected an integer")
    return values


def _integer_rows(rows, what: str):
    """rows itself when it is a list of lists of JSON integers, else a parse error."""
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        _fail(f"{what}s must be a list of lists of integers")
    for i, row in enumerate(rows):
        _integer_list(row, f"{what} {i}")
    return rows


@dataclass(frozen=True)
class LoadedInput:
    weights: WeightSystem
    fan: Fan | None
    digest: str
    name: str | None
    warnings: tuple[str, ...]


def _load_input(path: str) -> LoadedInput:
    """Read a JSON fan or weight matrix document."""
    try:
        if path == "-":
            raw = sys.stdin.read().encode("utf-8")
        else:
            with open(path, "rb") as fh:
                raw = fh.read()
        data = json.loads(raw)
    except OSError as exc:
        _fail(f"cannot read {path}: {exc}")
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: nesting deeper than the decoder can follow
        _fail(f"invalid JSON in {path}: {exc}")
    if not isinstance(data, dict):
        _fail("input must be a JSON object")
    digest = hashlib.sha256(raw).hexdigest()
    name = data.get("name") if isinstance(data.get("name"), str) else None
    if "fan" in data:
        section = data["fan"]
        cones = section.get("cones", section.get("max_cones")) \
            if isinstance(section, dict) else None
        if not isinstance(section, dict) or "rays" not in section or cones is None:
            _fail("fan input needs 'rays' and 'cones'")
        rays = _integer_rows(section["rays"], "ray")
        cones = _integer_rows(cones, "cone")
        # make_fan rescales to primitive; input rays must already be primitive
        for i, ray in enumerate(rays):
            if primitive(ray) != tuple(ray):
                raise InvalidFanError(f"ray {i} {_vec(ray)} is not primitive")
        fan = make_fan(rays, cones)
        report = validate_fan(fan)
        if not report.ok:
            raise InvalidFanError("; ".join(report.issues))
        ws = cox_weights(fan)
    elif "weights" in data:
        section = data["weights"]
        if not isinstance(section, dict) or "columns" not in section:
            _fail("weights input needs 'columns'")
        columns = _integer_rows(section["columns"], "weight column")
        ws = weight_system(columns, _integer_list(section.get("torsion", []), "torsion"))
        fan = None
    else:
        _fail("input must contain a 'fan' or a 'weights' key")
    warnings = []
    if ws.torsion:
        warnings.append(f"grading group has torsion factors {list(ws.torsion)}")
    return LoadedInput(ws, fan, digest, name, tuple(warnings))


def _parse_character(text: str, rho: int) -> tuple[int, ...]:
    parts = text.split(",")
    if not all(re.fullmatch(r"[+-]?[0-9]+", part) for part in parts):
        _fail(f"character must be comma separated integers, got {text!r}")
    chi = tuple(int(part) for part in parts)
    if len(chi) != rho:
        _fail(f"character has {len(chi)} entries, expected {rho}")
    return chi


def _vec(v) -> str:
    return "(" + ", ".join(str(x) for x in v) + ")"


def _frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def _emit(args, payload: dict, lines: list[str],
          doc: LoadedInput | None = None, warnings=()) -> None:
    warnings = [*(doc.warnings if doc else ()), *warnings]
    if args.format == "json":
        body = {"command": args.command, "warnings": warnings, **payload}
        if doc is not None:
            body["input_digest"] = doc.digest
            if doc.name is not None:
                body["input_name"] = doc.name
        print(json.dumps(body, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)
        for w in warnings:
            print(f"warning: {w}")


def _require_fan(fan: Fan | None) -> Fan:
    if fan is None:
        _fail("this command needs fan input, not a bare weight matrix")
    return fan


def cmd_chambers(args) -> int:
    doc = _load_input(args.input)
    ws = doc.weights
    cx = enumerate_chambers(ws)
    payload = {
        "rho": ws.rho,
        "r": ws.r,
        "count": len(cx.chambers),
        "chambers": [
            {
                "id": ch.id,
                "generators": [list(g) for g in ch.cone.generators],
                "lineality": [list(g) for g in ch.cone.lineality],
                "representative": list(ch.representative),
            }
            for ch in cx.chambers
        ],
        "walls": len(cx.walls),
        "boundary_facets": len(cx.boundary_facets),
    }
    lines = [f"{len(cx.chambers)} chambers, {len(cx.walls)} walls, "
             f"{len(cx.boundary_facets)} boundary facets"]
    for ch in cx.chambers:
        gens = " ".join(_vec(g) for g in ch.cone.generators)
        lines.append(f"chamber {ch.id}: generators {gens}")
    _emit(args, payload, lines, doc)
    return 0


def cmd_eff(args) -> int:
    doc = _load_input(args.input)
    cone = g_ample_cone(doc.weights)
    payload = {
        "generators": [list(g) for g in cone.generators],
        "lineality": [list(g) for g in cone.lineality],
        "dim": cone.dim,
    }
    lines = [f"effective cone, dim {cone.dim}"]
    lines += [f"  generator {_vec(g)}" for g in cone.generators]
    lines += [f"  lineality {_vec(g)}" for g in cone.lineality]
    _emit(args, payload, lines, doc)
    return 0


def cmd_mov(args) -> int:
    doc = _load_input(args.input)
    cx = enumerate_chambers(doc.weights)
    result = moving_cone(cx)
    payload = {
        "generators": [list(g) for g in result.cone.generators],
        "lineality": [list(g) for g in result.cone.lineality],
        "dim": result.cone.dim,
        "chamber_ids": list(result.chamber_ids),
    }
    lines = [f"moving cone, dim {result.cone.dim}, "
             f"chambers inside: {list(result.chamber_ids)}"]
    lines += [f"  generator {_vec(g)}" for g in result.cone.generators]
    lines += [f"  lineality {_vec(g)}" for g in result.cone.lineality]
    _emit(args, payload, lines, doc)
    return 0


def cmd_nef(args) -> int:
    doc = _load_input(args.input)
    fan = _require_fan(doc.fan)
    cx = enumerate_chambers(doc.weights)
    ch = nef_chamber(cx, fan)
    rho_q = cx.quotient(ch.id).picard_number
    payload = {
        "chamber_id": ch.id,
        "generators": [list(g) for g in ch.cone.generators],
        "picard_number": rho_q,
    }
    lines = [f"nef chamber {ch.id}, picard number {rho_q}"]
    lines += [f"  generator {_vec(g)}" for g in ch.cone.generators]
    _emit(args, payload, lines, doc)
    return 0


def cmd_walls(args) -> int:
    doc = _load_input(args.input)
    cx = enumerate_chambers(doc.weights)
    crossings = [classify_wall(cx, w) for w in cx.walls]
    payload = {
        "walls": [
            {
                "index": i,
                "left": cx.walls[i].left,
                "right": cx.walls[i].right,
                "kind": c.kind,
                "picard_delta": c.picard_delta,
                "contracted_columns": list(c.contracted_columns),
            }
            for i, c in enumerate(crossings)
        ]
    }
    lines = [f"{len(cx.walls)} walls"]
    for i, c in enumerate(crossings):
        w = cx.walls[i]
        lines.append(
            f"wall {i}: chambers {w.left} | {w.right}, {c.kind}, "
            f"delta {c.picard_delta}, contracted {list(c.contracted_columns)}"
        )
    _emit(args, payload, lines, doc)
    return 0


def cmd_sqms(args) -> int:
    doc = _load_input(args.input)
    fan = _require_fan(doc.fan)
    cx = enumerate_chambers(doc.weights)
    nef = nef_chamber(cx, fan)
    ids = enumerate_sqms(cx, nef.id)
    payload = {"nef_chamber": nef.id, "chamber_ids": list(ids)}
    lines = [f"nef chamber {nef.id}; chambers with the same quotient rays: {list(ids)}"]
    _emit(args, payload, lines, doc)
    return 0


def cmd_quotient(args) -> int:
    doc = _load_input(args.input)
    ws = doc.weights
    chi = _parse_character(args.chi, ws.rho)
    data = quotient_fan_data(ws, chi)
    rho_q = data.picard_number
    report = _unstable_report(ws.r, data.interior)
    payload = {
        "chi": list(chi),
        "rays": [list(r) for r in data.fan.rays],
        "max_cones": [list(c) for c in data.fan.max_cones],
        "used_columns": list(data.used_columns),
        "dropped_columns": list(data.dropped_columns),
        "picard_number": rho_q,
        "unstable_min_codim": report.min_codim,
    }
    lines = [
        f"quotient fan: {len(data.fan.rays)} rays, {len(data.fan.max_cones)} "
        f"maximal cones, picard number {rho_q}",
        f"used columns {list(data.used_columns)}, "
        f"dropped columns {list(data.dropped_columns)}",
        f"unstable locus minimal codimension {report.min_codim}",
    ]
    lines += [f"  ray {_vec(r)}" for r in data.fan.rays]
    lines += [f"  cone {list(c)}" for c in data.fan.max_cones]
    extra = [] if rho_q is not None else ["quotient fan is not complete"]
    _emit(args, payload, lines, doc, extra)
    return 0


def _factor_endpoint(cx, text: str, label: str):
    """A character, or for rank above one a bare chamber id."""
    ws = cx.weights
    if "," not in text and ws.rho > 1:
        if not re.fullmatch(r"[+-]?[0-9]+", text):
            _fail(f"{label} must be a character or a chamber id, got {text!r}")
        cid = int(text)
        if not 0 <= cid < len(cx.chambers):
            _fail(f"{label} chamber id {cid} out of range, "
                  f"have {len(cx.chambers)} chambers")
        return cx.chambers[cid].representative
    return _parse_character(text, ws.rho)


def cmd_factor(args) -> int:
    doc = _load_input(args.input)
    cx = enumerate_chambers(doc.weights)
    start = _factor_endpoint(cx, args.chi_from, "--from")
    end = _factor_endpoint(cx, args.chi_to, "--to")
    fact = factor_contraction(cx, start, end)
    payload = {
        "from": list(start),
        "to": list(end),
        "chamber_path": list(fact.chambers),
        "crossing_times": [str(t) for t in fact.crossing_times],
        "crossings": [
            {
                "kind": c.kind,
                "picard_delta": c.picard_delta,
                "contracted_columns": list(c.contracted_columns),
            }
            for c in fact.crossings
        ],
    }
    lines = [f"path through chambers {list(fact.chambers)}"]
    for t, c in zip(fact.crossing_times, fact.crossings):
        lines.append(
            f"  t = {_frac(t)}: {c.kind} wall, delta {c.picard_delta}, "
            f"contracted {list(c.contracted_columns)}"
        )
    _emit(args, payload, lines, doc)
    return 0


def cmd_check_cover(args) -> int:
    doc = _load_input(args.input)
    cx = enumerate_chambers(doc.weights)
    report = verify_disjoint_cover(cx)
    payload = {
        "ok": report.ok,
        "chambers": report.n_chambers,
        "walls": report.n_walls,
        "boundary_facets": report.n_boundary_facets,
        "issues": list(report.issues),
    }
    lines = [
        f"cover check: {'ok' if report.ok else 'FAILED'} "
        f"({report.n_chambers} chambers, {report.n_walls} walls, "
        f"{report.n_boundary_facets} boundary facets)"
    ]
    lines += [f"  issue: {p}" for p in report.issues]
    _emit(args, payload, lines, doc)
    return 0 if report.ok else 1


def cmd_boundary(args) -> int:
    doc = _load_input(args.input)
    cx = enumerate_chambers(doc.weights)
    items = [classify_boundary_facet(cx, i) for i in range(len(cx.boundary_facets))]
    payload = {
        "boundary_facets": [
            {
                "index": b.boundary_facet_index,
                "chamber": b.chamber,
                "character": list(b.character),
                "quotient_dim": b.quotient_dim,
                "fiber_dim": b.fiber_dim,
            }
            for b in items
        ]
    }
    lines = [f"{len(items)} boundary facets"]
    for b in items:
        lines.append(
            f"facet {b.boundary_facet_index}: chamber {b.chamber}, "
            f"character {_vec(b.character)}, quotient dim {b.quotient_dim}, "
            f"fiber dim {b.fiber_dim}"
        )
    _emit(args, payload, lines, doc)
    return 0


def cmd_m0n(args) -> int:
    config = build_config(args.n)
    report = verify_rho_formula(config)
    values = sorted({v for v in report.rho if v is not None})
    payload = {
        "n": config.n,
        "walls": len(config.walls),
        "chambers": report.n_chambers,
        "stable": report.n_stable,
        "unstable": report.n_unstable,
        "constant": report.constant,
        "rho_values": values,
        "ok": report.ok,
        "failures": list(report.failures),
    }
    lines = [
        f"n = {config.n}: {len(config.walls)} walls, {report.n_chambers} chambers "
        f"({report.n_stable} stable, {report.n_unstable} unstable)",
        f"rho + e = {report.constant} holds on all stable chambers: {report.ok}",
        f"rho values seen: {values}",
    ]
    _emit(args, payload, lines)
    return 0 if report.ok else 1


@functools.cache  # once per process: parse_args leaves the parser unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdsgit",
        description="Exact GIT chamber decompositions for torus actions on affine space.",
    )
    parser.add_argument("--version", action="version", version=f"mdsgit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_: str, needs_input: bool = True):
        p = sub.add_parser(name, help=help_)
        if needs_input:
            p.add_argument("input", help="JSON file with a fan or weight matrix, - for stdin")
        p.add_argument("--format", choices=("text", "json"), default="text",
                       help="report format, default text")
        p.add_argument("--json", dest="format", action="store_const", const="json",
                       help="machine readable output (same as --format json)")
        p.set_defaults(func=func)
        return p

    add("chambers", cmd_chambers, "enumerate all GIT chambers")
    add("eff", cmd_eff, "cone spanned by all weight columns")
    add("mov", cmd_mov, "intersection of the drop-one-column cones")
    add("nef", cmd_nef, "chamber whose quotient returns the input fan")
    add("walls", cmd_walls, "classify every wall between adjacent chambers")
    add("sqms", cmd_sqms, "chambers sharing the nef chamber's quotient rays")
    add("boundary", cmd_boundary, "classify the outer boundary facets")
    add("check-cover", cmd_check_cover, "verify chambers cover the ample cone disjointly")

    p = add("quotient", cmd_quotient, "quotient fan for one linearization")
    p.add_argument("--chi", required=True,
                   help="character, comma separated integers (--chi=-1,0 for negatives)")

    p = add("factor", cmd_factor, "walls crossed on the segment between two characters")
    p.add_argument("--from", dest="chi_from", required=True,
                   help="start: character as comma separated integers "
                        "(--from=-1,0 for negatives) or a chamber id")
    p.add_argument("--to", dest="chi_to", required=True,
                   help="end: character as comma separated integers "
                        "(--to=-1,0 for negatives) or a chamber id")

    p = add("m0n", cmd_m0n, "chamber bookkeeping for n points on a line",
            needs_input=False)
    p.add_argument("-n", "--n", dest="n", type=int, required=True,
                   help=f"number of points (4 to {MAX_N}); chambers are counted "
                        "through their S_n orbits")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # surface a closed pipe here rather than in the shutdown flush
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left; send the unwritten rest to devnull so the
        # interpreter's own flush at exit stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvalidFanError, RankDeficientWeightsError, DimensionMismatchError,
            EmptySemistableLocusError, InputTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DegenerateLinearizationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MdsgitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
