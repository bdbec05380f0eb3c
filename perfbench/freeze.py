"""Regenerate the frozen weight columns and pinned outputs of the benchmark.

    python3 perfbench/freeze.py

Run it at the commit whose outputs are to be pinned.
It writes ``corpus/columns.json`` (the Cox weights of each corpus fan, in
the program's basis) and ``expected.json`` (canonical outputs of every
unseeded op, and for each input the set of quotient fans over all its
chamber representatives).  It takes about a minute, most of it the 303
quotients of the rank-5 surface.  The corpus fans themselves are checked
in and never regenerated.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from checks import EXPECTED_PATH, canonical  # noqa: E402
from run import ROOT, import_program  # noqa: E402


def _run(cli, argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(list(argv))
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited {rc}")
    return json.loads(out.getvalue())


def main() -> int:
    cli = import_program(ROOT)
    from mdsgit.vgit import enumerate_chambers

    names = workloads.FAN_LIBRARY + workloads.WEIGHT_INPUTS + (workloads.SURFACE,)
    columns, weights = {}, {}
    for name in names:
        weights[name] = cli._load_input(workloads.corpus_path(name)).weights
        columns[name] = [list(c) for c in weights[name].columns]
    with open(os.path.join(workloads.CORPUS_DIR, "columns.json"), "w") as fh:
        json.dump(columns, fh, indent=1)
        fh.write("\n")

    outputs, quotients = {}, {}
    checked = [n for n in names if n not in workloads.KNOWN_DEFECT_INPUTS]
    for op in workloads.fan_library_ops(0, workloads.load_columns()) + \
            workloads.surface_ops(0, workloads.load_columns()):
        if op.command in ("quotient", "factor") or op.input not in checked:
            continue
        if op.input == workloads.SURFACE and op.command not in ("eff", "mov"):
            continue  # only these surface outputs are pinned
        outputs[f"{op.input}/{op.command}"] = canonical(op.command, _run(cli, op.argv))
    for op in workloads.m0n_ops():
        doc = _run(cli, op.argv)
        outputs[f"m0n/{doc['n']}"] = canonical("m0n", doc)
    for name in checked:
        seen = {}
        cx = enumerate_chambers(weights[name], cross_check=False)
        for ch in cx.chambers:
            chi = ",".join(str(x) for x in ch.representative)
            canon = canonical("quotient", _run(
                cli, ("quotient", workloads.corpus_path(name), f"--chi={chi}", "--json")))
            seen[json.dumps(canon, sort_keys=True)] = canon
        quotients[name] = [seen[k] for k in sorted(seen)]
        print(f"{name}: {len(cx.chambers)} chambers, {len(seen)} quotient fans", file=sys.stderr)
    with open(EXPECTED_PATH, "w") as fh:
        json.dump({"outputs": outputs, "quotients": quotients}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
