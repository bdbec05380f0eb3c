"""Command line behavior: output, exit codes, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from mdsgit import toric
from mdsgit.cli import main

BLP2 = {
    "fan": {
        "rays": [[1, 0], [0, 1], [-1, -1], [1, 1]],
        "max_cones": [[0, 3], [1, 3], [1, 2], [0, 2]],
    }
}
FLOP = {"weights": {"columns": [[1], [1], [-1], [-1]]}}
# the 7-ray surface of perfbench/corpus/surface7.json
SURFACE7 = {
    "fan": {
        "rays": [[1, 0], [2, 1], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]],
        "cones": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 0]],
    }
}


@pytest.fixture
def blp2_file(tmp_path):
    path = tmp_path / "blp2.json"
    path.write_text(json.dumps(BLP2))
    return str(path)


@pytest.fixture
def flop_file(tmp_path):
    path = tmp_path / "flop.json"
    path.write_text(json.dumps(FLOP))
    return str(path)


def test_chambers_output(blp2_file, capsys):
    assert main(["chambers", blp2_file]) == 0
    out = capsys.readouterr().out
    assert out == (
        "2 chambers, 1 walls, 2 boundary facets\n"
        "chamber 0: generators (0, 1) (1, 0)\n"
        "chamber 1: generators (1, -1) (1, 0)\n"
    )


def test_chambers_json(blp2_file, capsys):
    assert main(["chambers", blp2_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 2
    assert data["chambers"][1]["generators"] == [[1, -1], [1, 0]]


def test_eff_and_mov(blp2_file, capsys):
    assert main(["eff", blp2_file]) == 0
    out = capsys.readouterr().out
    assert "generator (0, 1)" in out and "generator (1, -1)" in out
    assert main(["mov", blp2_file]) == 0
    out = capsys.readouterr().out
    assert "chambers inside: [1]" in out


def test_nef(blp2_file, capsys):
    assert main(["nef", blp2_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("nef chamber 1, picard number 2\n")


def test_nef_and_sqms_refuse_a_fan_no_chamber_gives(tmp_path, capsys):
    path = tmp_path / "p2_minus_a_cone.json"
    path.write_text(json.dumps({"fan": {"rays": [[1, 0], [0, 1], [-1, -1]],
                                        "cones": [[0, 1], [0, 2]]}}))
    for command in ("nef", "sqms"):
        assert main([command, str(path)]) == 4
        assert "no single chamber has this fan as its quotient" in capsys.readouterr().err


def test_twisted_prism_is_covered_but_not_projective(prism3, tmp_path, capsys):
    # a complete fan that no chamber gives as its quotient
    path = tmp_path / "prism3.json"
    path.write_text(json.dumps({"fan": {"rays": prism3.rays, "cones": prism3.max_cones}}))
    assert main(["check-cover", str(path)]) == 0
    assert capsys.readouterr().out == (
        "cover check: ok (24 chambers, 36 walls, 6 boundary facets)\n"
    )
    for command in ("nef", "sqms"):
        assert main([command, str(path)]) == 4
        assert "no single chamber has this fan as its quotient" in capsys.readouterr().err


def test_nef_needs_fan(flop_file, capsys):
    assert main(["nef", flop_file]) == 2
    assert "needs fan input" in capsys.readouterr().err


def test_walls(blp2_file, capsys):
    assert main(["walls", blp2_file]) == 0
    out = capsys.readouterr().out
    assert "divisorial" in out and "contracted [3]" in out


def test_sqms(blp2_file, capsys):
    assert main(["sqms", blp2_file]) == 0
    assert "chambers with the same quotient rays: [1]" in capsys.readouterr().out


def test_boundary(blp2_file, capsys):
    assert main(["boundary", blp2_file]) == 0
    out = capsys.readouterr().out
    assert "quotient dim 0, fiber dim 2" in out
    assert "quotient dim 1, fiber dim 1" in out


def test_quotient(blp2_file, capsys):
    assert main(["quotient", blp2_file, "--chi", "2,-1"]) == 0
    out = capsys.readouterr().out
    assert "4 rays" in out and "picard number 2" in out
    assert main(["quotient", blp2_file, "--chi", "1,1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["picard_number"] == 1
    assert data["dropped_columns"] == [3]
    assert data["unstable_min_codim"] == 1


def test_quotient_exit_codes(blp2_file, tmp_path, capsys):
    assert main(["quotient", blp2_file, "--chi=-1,0"]) == 3  # outside
    assert main(["quotient", blp2_file, "--chi", "1,0"]) == 4  # on the wall
    assert main(["quotient", blp2_file, "--chi", "0,1"]) == 4  # on the boundary
    assert main(["quotient", blp2_file, "--chi", "1,2,3"]) == 2  # wrong length
    assert main(["quotient", blp2_file, "--chi", "a,b"]) == 2
    # int() would read each of these as the interior character (20, -10) or (2, -1)
    for chi in ("2_0,-1_0", " 2,-1", "2,-1 ", "2, -1", "\u0662,-1"):
        assert main(["quotient", blp2_file, "--chi", chi]) == 2
    capsys.readouterr()
    rank_deficient = tmp_path / "rank_deficient.json"
    rank_deficient.write_text(json.dumps({"weights": {"columns": [[1, 0], [2, 0], [-1, 0]]}}))
    assert main(["quotient", str(rank_deficient), "--chi=1,0"]) == 3
    assert "rank below 2" in capsys.readouterr().err


def test_character_on_a_hyperplane_inside_a_chamber(tmp_path, capsys):
    # (-1, 0, 2, 3, 4) is the sum of the generators of surface7's chamber 0
    # and lies on the hyperplane with normal (0, 1, 0, 0, 0), which crosses
    # it; (-3, 1, 9, 13, 17) lies in the same chamber off every hyperplane
    path = tmp_path / "surface7.json"
    path.write_text(json.dumps(SURFACE7))
    quotients = []
    for chi in ("-1,0,2,3,4", "-3,1,9,13,17"):
        assert main(["quotient", str(path), f"--chi={chi}", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        quotients.append({k: v for k, v in doc.items() if k != "chi"})
    assert quotients[0] == quotients[1]
    for ends, path_ in ((["--from=-1,0,2,3,4", "--to=20"], [0, 18, 20]),
                        (["--from=20", "--to=-1,0,2,3,4"], [20, 18, 0])):
        assert main(["factor", str(path), *ends, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["chamber_path"] == path_ and doc["crossing_times"] == ["1/2", "1/2"]
    # a point inside the wall between chambers 0 and 1, and one inside a
    # facet of the effective cone, are still refused
    for chi, where in (("-1,-1,1,3,4", "wall"), ("0,-1,0,2,3", "boundary")):
        assert main(["quotient", str(path), f"--chi={chi}"]) == 4
        assert "lies on a hyperplane spanned by weight columns" in capsys.readouterr().err
        assert main(["factor", str(path), f"--from={chi}", "--to=20"]) == 4
        assert f"not in a chamber interior (location: {where})" in capsys.readouterr().err


def test_oversized_weight_system_exits_3(tmp_path, capsys, monkeypatch):
    def walked(*args):
        raise AssertionError("the table walked its column subsets")

    monkeypatch.setattr(toric, "combinations", walked)
    big = tmp_path / "big.json"
    columns = [[j**k for k in range(5)] for j in range(21)]
    big.write_text(json.dumps({"weights": {"columns": columns}}))
    assert main(["chambers", str(big)]) == 3
    assert "21 weight columns of rank 5 have 20349 column subsets" in capsys.readouterr().err


def test_factor(blp2_file, capsys):
    assert main(["factor", blp2_file, "--from", "2,-1", "--to", "1,1"]) == 0
    out = capsys.readouterr().out
    assert "t = 1/2: divisorial wall" in out


def test_factor_flop_json(flop_file, capsys):
    assert main(["factor", flop_file, "--from=-3", "--to", "5", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["chamber_path"] == [0, 1]
    assert data["crossing_times"] == ["3/8"]
    assert data["crossings"][0]["kind"] == "small"


def test_check_cover(blp2_file, capsys):
    assert main(["check-cover", blp2_file]) == 0
    assert "cover check: ok" in capsys.readouterr().out


def test_m0n(capsys):
    assert main(["m0n", "-n", "4"]) == 0
    out = capsys.readouterr().out
    assert "7 walls, 12 chambers (8 stable, 4 unstable)" in out
    assert "rho + e = 1 holds on all stable chambers: True" in out


def test_m0n_json(capsys):
    assert main(["m0n", "-n", "5", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["constant"] == 5 and data["ok"] is True
    assert data["chambers"] == 81 and data["stable"] == 76


def test_format_flag_aliases(blp2_file, capsys):
    assert main(["chambers", blp2_file, "--format", "json"]) == 0
    as_format = capsys.readouterr().out
    assert main(["chambers", blp2_file, "--json"]) == 0
    assert capsys.readouterr().out == as_format
    assert main(["m0n", "--n", "4", "--format", "text"]) == 0
    assert "12 chambers" in capsys.readouterr().out


def test_bad_input_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["chambers", str(bad)]) == 2
    assert main(["chambers", str(tmp_path / "missing.json")]) == 2
    empty = tmp_path / "empty.json"
    empty.write_text('{"nope": 1}')
    assert main(["chambers", str(empty)]) == 2
    capsys.readouterr()


def test_invalid_fan_input(tmp_path, capsys):
    bad_fan = tmp_path / "fan.json"
    bad_fan.write_text(json.dumps({
        "fan": {"rays": [[1, 0], [0, 1], [1, 1], [-1, 2]],
                "max_cones": [[0, 1], [2, 3]]}
    }))
    assert main(["chambers", str(bad_fan)]) == 3  # parses fine, fails validation
    assert "error" in capsys.readouterr().err
    partial_facet = tmp_path / "partial.json"  # meet in more than their shared ray
    partial_facet.write_text(json.dumps({
        "fan": {"rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [0, 0, -1]],
                "cones": [[0, 1, 2], [1, 3, 4]]}
    }))
    assert main(["chambers", str(partial_facet)]) == 3
    assert capsys.readouterr().err == (
        "error: cones (0, 1, 2) and (1, 3, 4) do not meet along their common face (1,)\n")
    unused_ray = tmp_path / "unused.json"
    unused_ray.write_text(json.dumps({
        "fan": {"rays": [[1, 0], [0, 1], [-1, -1], [1, 1]],
                "cones": [[0, 1], [1, 2], [0, 2]]}
    }))
    for command in ("chambers", "nef"):
        assert main([command, str(unused_ray)]) == 3
        assert "ray 3 lies in no cone" in capsys.readouterr().err
    scaled_ray = tmp_path / "scaled.json"
    scaled_ray.write_text(json.dumps({
        "fan": {"rays": [[2, 0], [0, 1], [-1, -1]],
                "cones": [[0, 1], [1, 2], [0, 2]]}
    }))
    assert main(["chambers", str(scaled_ray)]) == 3
    assert "ray 0 (2, 0) is not primitive" in capsys.readouterr().err


def test_non_integer_entries_are_parse_errors(tmp_path, capsys):
    cases = [
        ({"fan": {"rays": [[1.5, 0], [0, 1], [-1, -1]],
                  "cones": [[0, 1], [1, 2], [0, 2]]}}, "ray 0 has the entry 1.5"),
        ({"fan": {"rays": [[1, 0], [0, "1"], [-1, -1]],
                  "cones": [[0, 1], [1, 2], [0, 2]]}}, 'ray 1 has the entry "1"'),
        ({"weights": {"columns": [[1], [True], [-1]]}}, "weight column 1 has the entry true"),
        ({"weights": {"columns": [[1], ["2"], [-1]]}}, 'weight column 1 has the entry "2"'),
        ({"weights": {"columns": [[1.0], [1], [-1]]}}, "weight column 0 has the entry 1.0"),
        ({"weights": {"columns": 3}}, "weight columns must be a list of lists"),
        ({"fan": {"rays": [[1, 0], [0, 1], [-1, -1]],
                  "cones": [[0, 1.0], [1, 2], [0, 2]]}}, "cone 0 has the entry 1.0"),
        ({"fan": {"rays": [[1, 0], [0, 1], [-1, -1]],
                  "cones": [[0, 1], "12", [0, 2]]}}, "cones must be a list of lists"),
        ({"weights": {"columns": [[1], [1], [-1]], "torsion": [2.5]}},
         "torsion has the entry 2.5"),
        ({"weights": {"columns": [[1], [1], [-1]], "torsion": 2}},
         "torsion must be a list of integers"),
        # raw text: nested deeper than the decoder can follow
        ('{"weights": ' + "[" * 100000 + "]" * 100000 + "}", "invalid JSON in"),
    ]
    for doc, message in cases:
        path = tmp_path / "doc.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        assert main(["chambers", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.out == ""


def test_repeated_main_calls_share_no_state(blp2_file, capsys):
    # the parser is built once per process; a --json in between must not stick
    runs = []
    for argv in (["quotient", blp2_file, "--chi", "2,-1"],
                 ["m0n", "-n", "4", "--json"],
                 ["quotient", blp2_file, "--chi", "2,-1"]):
        code = main(argv)
        runs.append((code, capsys.readouterr().out))
    assert runs[0] == runs[2]
    assert runs[0][0] == 0 and runs[0][1].startswith("quotient fan: 4 rays")
    assert runs[1][0] == 0 and json.loads(runs[1][1])["chambers"] == 12


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_quietly(unbuffered):
    # buffered, the report first meets the closed pipe when it is flushed
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "mdsgit.cli", "m0n", "-n", "4"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_cones_key_and_name(tmp_path, capsys):
    doc = {"name": "blowup", "fan": {
        "rays": BLP2["fan"]["rays"], "cones": BLP2["fan"]["max_cones"]}}
    path = tmp_path / "named.json"
    path.write_text(json.dumps(doc))
    assert main(["chambers", str(path), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 2
    assert data["command"] == "chambers"
    assert data["input_name"] == "blowup"
    assert len(data["input_digest"]) == 64
    assert data["warnings"] == []


def test_factor_accepts_chamber_ids(blp2_file, capsys):
    assert main(["factor", blp2_file, "--from", "1", "--to", "0", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["chamber_path"] == [1, 0]
    assert data["crossings"][0]["kind"] == "divisorial"
    assert main(["factor", blp2_file, "--from", "9", "--to", "0"]) == 2
    assert "out of range" in capsys.readouterr().err
    # int() would read each of these as chamber 1 or the character (2, -1)
    for endpoint in ("0_1", " 1", "1\n", "\u0661", "2, -1", "2_0,-1_0"):
        assert main(["factor", blp2_file, "--from", endpoint, "--to", "0"]) == 2
    assert "--from must be a character or a chamber id" in capsys.readouterr().err


def test_torsion_warning(tmp_path, capsys):
    doc = {"fan": {"rays": [[1, 2], [1, 0], [-1, 0]],
                   "cones": [[0, 1], [0, 2]]}}
    path = tmp_path / "torsion.json"
    path.write_text(json.dumps(doc))
    assert main(["chambers", str(path)]) == 0
    assert "warning: grading group has torsion factors [2]" in capsys.readouterr().out
    assert main(["chambers", str(path), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["warnings"] == ["grading group has torsion factors [2]"]


def test_stdin_input(monkeypatch, capsys):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(FLOP)))
    assert main(["chambers", "-"]) == 0
    assert "2 chambers" in capsys.readouterr().out


def test_consecutive_runs_are_byte_identical(blp2_file):
    cmd = [sys.executable, "-m", "mdsgit.cli", "chambers", blp2_file, "--json"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout  # not vacuous
