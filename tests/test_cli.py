"""Command-line behavior: exit codes, reports, artifacts, determinism."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fancob
from fancob.cli import main, parse_centers
from fancob.errors import ParseError
from conftest import FIXTURES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_valid_fan(self, capsys):
        code, out, _ = run(capsys, "validate", str(FIXTURES / "p2.fan"))
        assert code == 0
        assert "result: valid" in out

    def test_overlap_fan(self, capsys):
        code, out, _ = run(capsys, "validate", str(FIXTURES / "overlap.fan"))
        assert code == 1
        assert "overlap" in out and "INVALID" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "missing.fan")
        assert code == 2
        assert "no such file" in err

    def test_cobordism_with_expectations(self, capsys):
        code, out, _ = run(
            capsys,
            "validate",
            str(FIXTURES / "cycle.cob"),
            "--bottom",
            str(FIXTURES / "p2.fan"),
            "--top",
            str(FIXTURES / "p2.fan"),
        )
        assert code == 0 and "result: valid" in out

    def test_cobordism_stored_boundaries_used(self, capsys):
        code, out, _ = run(capsys, "validate", str(FIXTURES / "karu.cob"))
        assert code == 0 and "result: valid" in out

    def test_unknown_extension_needs_kind(self, capsys):
        code, _, err = run(capsys, "validate", str(FIXTURES / "p2.fan") + "x")
        assert code == 2

    def test_vertical_ray_document_is_geometric_failure(self, capsys, tmp_path):
        doc = {"base_dim": 1, "rays": [[1, 0], [0, 1]], "max_cones": [[0, 1]]}
        path = tmp_path / "vertical.cob"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "validate", str(path))
        assert code == 1
        assert "vertical" in err

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "--json", "validate", str(FIXTURES / "p2.fan"))
        assert code == 0
        assert json.loads(out) == {"kind": "fan", "valid": True, "problems": []}

    def test_invalid_upstairs_reports_upstairs_only(self, capsys, tmp_path):
        # e1, e2, e3 at height 0 joined with (1,1,1,1) and with (1,1,1,2):
        # the faces read off overlapping cones carry no guarantee, so no
        # downstairs problem is reported next to the overlap
        rays = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 1, 1, 1], [1, 1, 1, 2]]
        path = tmp_path / "overlap.cob"
        path.write_text(json.dumps({"base_dim": 3, "rays": rays, "max_cones": [[0, 1, 2, 3], [0, 1, 2, 4]]}))
        problem = (
            "upstairs: cones cone[(0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0), (1, 1, 1, 1)] and "
            "cone[(0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0), (1, 1, 1, 2)] overlap beyond "
            "their common face (witness direction (1, 1, 1, 1))"
        )
        code, out, err = run(capsys, "validate", str(path))
        assert (code, err) == (1, "")
        assert out.splitlines() == [
            "cobordism: base dim 3, 2 maximal cones, bottom 0 cones, top 3 cones",
            f"problem: {problem}",
            "result: INVALID",
        ]
        code, out, _ = run(capsys, "--json", "validate", str(path))
        assert code == 1
        assert json.loads(out) == {"kind": "cobordism", "valid": False, "problems": [problem]}


class TestCircuits:
    def test_karu_rows(self, capsys):
        code, out, _ = run(capsys, "--json", "circuits", str(FIXTURES / "karu.cob"))
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 4
        assert all(r["class"] == "Up" for r in rows)

    def test_cycle_rows(self, capsys):
        code, out, _ = run(capsys, "--json", "circuits", str(FIXTURES / "cycle.cob"))
        rows = json.loads(out)["rows"]
        assert code == 0 and len(rows) == 6
        assert all(r["class"] == "UpDown" for r in rows)

    def test_empty_rows(self, capsys):
        code, out, _ = run(capsys, "--json", "circuits", str(FIXTURES / "empty.cob"))
        assert code == 0 and json.loads(out)["rows"] == []

    def test_mixed_row(self, capsys):
        code, out, _ = run(capsys, "--json", "circuits", str(FIXTURES / "mixed.cob"))
        rows = json.loads(out)["rows"]
        assert code == 0 and [r["class"] for r in rows] == ["Mixed"]


class TestCollapse:
    def test_cycle_exits_one(self, capsys):
        code, out, _ = run(capsys, "collapse", str(FIXTURES / "cycle.cob"))
        assert code == 1
        assert "collapsible: NO" in out and "cycle:" in out

    def test_karu_order(self, capsys):
        code, out, _ = run(capsys, "collapse", str(FIXTURES / "karu.cob"))
        assert code == 0
        assert "collapsible: yes" in out

    def test_dot_artifact(self, capsys, tmp_path):
        dot = tmp_path / "g.dot"
        code, out, _ = run(capsys, "--json", "collapse", str(FIXTURES / "karu.cob"), "--dot", str(dot))
        assert code == 0
        report = json.loads(out)
        assert report["nodes"] == 3 and report["edges"] == 3
        text = dot.read_text()
        assert text.startswith("digraph circuits {") and text.count("->") == 3


class TestFactorize:
    def test_karu_blowups(self, capsys):
        code, out, _ = run(capsys, "--json", "factorize", str(FIXTURES / "karu.cob"))
        assert code == 0
        steps = json.loads(out)["steps"]
        assert [s["kind"] for s in steps] == ["blowup"] * 3
        assert [s["center"] for s in steps] == [[1, 1, 0], [0, 1, 1], [1, 1, 1]]

    def test_cycle_fails(self, capsys):
        code, out, _ = run(capsys, "factorize", str(FIXTURES / "cycle.cob"))
        assert code == 1
        assert "NotCollapsible" in out

    def test_empty_transcript(self, capsys):
        code, out, _ = run(capsys, "--json", "factorize", str(FIXTURES / "empty.cob"))
        assert code == 0 and json.loads(out)["steps"] == []

    def test_identity_elision(self, capsys):
        code, out, _ = run(capsys, "--json", "factorize", str(FIXTURES / "updown.cob"))
        assert [s["kind"] for s in json.loads(out)["steps"]] == ["identity"]
        code, out, _ = run(
            capsys, "--json", "factorize", str(FIXTURES / "updown.cob"), "--elide-identity"
        )
        assert json.loads(out)["steps"] == []

    def test_blowdown(self, capsys):
        code, out, _ = run(capsys, "--json", "factorize", str(FIXTURES / "down.cob"))
        steps = json.loads(out)["steps"]
        assert code == 0
        assert [(s["kind"], s["center"]) for s in steps] == [("blowdown", [1, 1])]

    def test_flip(self, capsys):
        code, out, _ = run(capsys, "--json", "factorize", str(FIXTURES / "mixed.cob"))
        steps = json.loads(out)["steps"]
        assert code == 0
        assert [(s["kind"], s["center"]) for s in steps] == [("flip", None)]

    def test_transcript_artifact(self, capsys, tmp_path):
        out_path = tmp_path / "steps.json"
        code, _, _ = run(
            capsys, "factorize", str(FIXTURES / "karu.cob"), "--out", str(out_path)
        )
        assert code == 0
        assert len(json.loads(out_path.read_text())["steps"]) == 3


class TestBuild:
    def test_build_karu(self, capsys, tmp_path):
        out_path = tmp_path / "karu.cob"
        code, out, _ = run(
            capsys,
            "build",
            str(FIXTURES / "cone3.fan"),
            "--centers",
            "(1,1,0);(0,1,1);(1,1,1)",
            "--out",
            str(out_path),
        )
        assert code == 0
        assert "4 maximal cones" in out
        written = json.loads(out_path.read_text())
        shipped = json.loads((FIXTURES / "karu.cob").read_text())
        assert written == shipped

    def test_build_empty_centers(self, capsys, tmp_path):
        out_path = tmp_path / "flat.cob"
        code, out, _ = run(
            capsys, "build", str(FIXTURES / "cone3.fan"), "--centers", "", "--out", str(out_path)
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert all(len(c) == 3 for c in doc["max_cones"])

    def test_dimension_mismatch_is_input_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "build",
            str(FIXTURES / "cone3.fan"),
            "--centers",
            "(5,5,5,5)",
            "--out",
            str(tmp_path / "x.cob"),
        )
        assert code == 2
        assert "dimension" in err

    def test_zero_center_is_input_error(self, capsys, tmp_path):
        out_path = tmp_path / "x.cob"
        code, out, err = run(
            capsys,
            "build",
            str(FIXTURES / "cone3.fan"),
            "--centers",
            "(1,1,0);(0,0,0)",
            "--out",
            str(out_path),
        )
        assert code == 2
        assert "zero vector" in err and not out
        assert not out_path.exists()

    def test_center_outside_support(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "build",
            str(FIXTURES / "cone3.fan"),
            "--centers",
            "(-1,1,1)",
            "--out",
            str(tmp_path / "x.cob"),
        )
        assert code == 1
        assert "CenterNotInSupport" in err


class TestUnreadableAndUnwritable:
    """A document that cannot be decoded and an output path that cannot be
    written end in one error line and exit 2, not in a traceback."""

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100000], ids=["not-utf8", "deep"])
    def test_undecodable_document(self, capsys, tmp_path, content):
        path = tmp_path / "doc.fan"
        path.write_bytes(content)
        for argv in (["validate", str(path)], ["build", str(path), "--centers", ""]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("argv", [
        ["factorize", str(FIXTURES / "karu.cob"), "--out"],
        ["build", str(FIXTURES / "cone3.fan"), "--centers", "(1,1,0)", "--out"],
        ["collapse", str(FIXTURES / "karu.cob"), "--dot"],
    ], ids=["factorize-out", "build-out", "collapse-dot"])
    def test_unwritable_output_path(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "artifact"
        code, out, err = run(capsys, *argv, str(target))
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {target}: No such file or directory\n"


class TestDemo:
    def test_karu(self, capsys):
        code, out, _ = run(capsys, "demo", "karu")
        assert code == 0
        assert "mixed cone: (1,1,0,1) (1,1,1,1) (1,2,1,3) (1,2,2,5)" in out

    def test_noncollapsible(self, capsys):
        code, out, _ = run(capsys, "demo", "noncollapsible")
        assert code == 0
        assert "pi-nonsingular: yes" in out and "collapsible: no" in out

    def test_unknown_demo(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["demo", "unknown"])
        assert exc.value.code == 2


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        outputs = []
        for _ in range(2):
            code, out, _ = run(capsys, "--json", "circuits", str(FIXTURES / "karu.cob"))
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_written_documents_reload_equal(self, capsys, tmp_path):
        from fancob.cli import load_cobordism

        out_path = tmp_path / "again.cob"
        run(
            capsys,
            "build",
            str(FIXTURES / "cone3.fan"),
            "--centers",
            "(1,1,0);(0,1,1);(1,1,1)",
            "--out",
            str(out_path),
        )
        a, _, _ = load_cobordism(str(out_path))
        b, _, _ = load_cobordism(str(FIXTURES / "karu.cob"))
        assert a.fan == b.fan


class TestBrokenPipe:
    def test_closed_stdout_ends_quietly(self):
        # the read end is closed before the child starts, so its first flush
        # meets EPIPE (Python ignores SIGPIPE and raises BrokenPipeError)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "fancob", "factorize", str(FIXTURES / "karu.cob")],
                stdout=write_end, stderr=subprocess.PIPE, timeout=60,
                env={**os.environ, "PYTHONPATH": str(Path(fancob.__file__).parents[1])},
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == b""


class TestParseCenters:
    def test_basic(self):
        assert parse_centers("(1,1,0);(0,1,1)", 3) == [(1, 1, 0), (0, 1, 1)]

    def test_whitespace_and_negatives(self):
        assert parse_centers(" ( -1 , 2 , 0 ) ", 3) == [(-1, 2, 0)]

    def test_empty(self):
        assert parse_centers("", 3) == []

    @pytest.mark.parametrize("bad", ["(1,2)", "1,2,3", "(1,2,x)", "(1,2,3);;"])
    def test_bad_syntax(self, bad):
        with pytest.raises(ParseError):
            parse_centers(bad, 3)


# --- fuzz: malformed and oversized documents -------------------------------------

HUGE = 10**40


def _vector(rng: random.Random, dim: int) -> list:
    while True:
        v = [rng.randint(-2, 2) for _ in range(dim)]
        if any(v):
            return v


def _fan_doc(rng: random.Random, dim: int) -> dict:
    rays = [_vector(rng, dim) for _ in range(rng.randint(1, 5))]
    cones = [rng.sample(range(len(rays)), rng.randint(1, min(dim, len(rays))))
             for _ in range(rng.randint(0, 4))]
    return {"dim": dim, "rays": rays, "max_cones": cones}


def _cob_doc(rng: random.Random, base_dim: int) -> dict:
    fan = _fan_doc(rng, base_dim + 1)
    doc = {"base_dim": base_dim, "rays": fan["rays"], "max_cones": fan["max_cones"]}
    for side in ("bottom", "top"):
        if rng.random() < 0.4:
            doc[side] = _fan_doc(rng, base_dim)
    return doc


def _bad_value(rng: random.Random):
    return rng.choice([None, True, False, 1.5, "3", [], {}, -1, 0, HUGE, [None], ["a"]])


def _mutate(rng: random.Random, doc: dict, dim_key: str):
    """One malformed or extreme edit of a fan or cobordism document; a
    document already too broken to edit stays as it is."""
    if not isinstance(doc, dict):
        return doc
    rays, cones = doc.get("rays"), doc.get("max_cones")
    if not (isinstance(rays, list) and rays and isinstance(rays[0], list) and rays[0]
            and isinstance(cones, list)):
        return doc
    dim = len(rays[0])
    edit = rng.randrange(13)
    if edit == 0:
        return rng.choice([None, [], "fan", 7, [doc]])
    if edit == 1:
        doc[dim_key] = _bad_value(rng)
    elif edit == 2:
        doc.pop(rng.choice([dim_key, "rays", "max_cones"]), None)
    elif edit == 3:
        doc[rng.choice(["rays", "max_cones"])] = _bad_value(rng)
    elif edit == 4:
        rays[rng.randrange(len(rays))] = rng.choice(
            [[], [1.0] * dim, [True] + [0] * (dim - 1), [None] * dim, [[1]] * dim, "1"])
    elif edit == 5:
        rays[rng.randrange(len(rays))] = _vector(rng, rng.choice([d for d in range(1, 8) if d != dim]))
    elif edit == 6:
        rays[rng.randrange(len(rays))] = [0] * dim
    elif edit == 7:
        i = rng.randrange(len(rays))
        if isinstance(rays[i], list) and all(type(x) is int for x in rays[i]):
            rays[i] = [x * HUGE + rng.randint(-1, 1) for x in rays[i]]
    elif edit == 8:
        cones.append(rng.choice([[], [True], [None], [-1], [len(rays)], [0, 0], [0.0], "0", 0]))
    elif edit == 9:
        doc["max_cones"] = []
    elif edit == 10 and dim_key == "base_dim":
        # a vertical ray: zero projection to the base
        rays.append([0] * (dim - 1) + [rng.choice((1, -1))])
        cones.append([len(rays) - 1] + rng.sample(range(len(rays) - 1), rng.randint(0, 1)))
    elif edit == 11 and dim_key == "base_dim":
        doc[rng.choice(["bottom", "top"])] = rng.choice(
            [_fan_doc(rng, rng.randint(1, 6)), _bad_value(rng), {"dim": dim - 1}])
    elif edit == 12:
        rays.append([2 * x for x in _vector(rng, dim)])  # normalized with a warning
    return doc


def _centers(rng: random.Random, dim: int) -> str:
    def vec():
        d = dim if rng.random() < 0.8 else rng.randint(1, 7)
        v = _vector(rng, d) if rng.random() < 0.9 else [0] * d
        if rng.random() < 0.1:
            v = [x * HUGE for x in v]
        return "(" + ",".join(map(str, v)) + ")"

    text = ";".join(vec() for _ in range(rng.randint(0, 3)))
    return text if rng.random() < 0.95 else text + ";(1,x)"


class TestFuzz:
    """Every document ends in exit code 0, 1 or 2 from cli.main, with no
    exception escaping and in bounded time.  The seeded random documents
    stay in base dims up to 5.  Wide cones, where any enumeration of the
    faces of a cone would be exponential, come from two fixed families kept
    out of the exit-code tally: valid one-cone documents up to base dim 12
    and invalid documents of two overlapping cones up to base dim 16."""

    @pytest.mark.filterwarnings("ignore::fancob.fan.RayNormalized")
    def test_malformed_documents(self, capsys, tmp_path):
        rng = random.Random(5)
        codes = {0: 0, 1: 0, 2: 0}
        slowest = 0.0
        for i in range(160):
            dim = rng.randint(1, 6)
            fan_doc = _fan_doc(rng, dim)
            cob_doc = _cob_doc(rng, min(dim, 5))
            for _ in range(rng.randint(0, 2)):
                fan_doc = _mutate(rng, fan_doc, "dim")
                cob_doc = _mutate(rng, cob_doc, "base_dim")
            fan_path, cob_path = tmp_path / f"{i}.fan", tmp_path / f"{i}.cob"
            fan_path.write_text(json.dumps(fan_doc))
            cob_path.write_text(json.dumps(cob_doc))
            calls = [
                ["validate", str(fan_path)],
                ["validate", str(cob_path)],
                ["circuits", str(cob_path)],
                ["collapse", str(cob_path)],
                ["factorize", str(cob_path)],
                ["build", str(fan_path), "--centers", _centers(rng, dim), "--out", str(tmp_path / "b.cob")],
            ]
            for argv in calls:
                if rng.random() < 0.3:
                    argv = ["--json"] + argv
                start = time.perf_counter()
                code = main(argv)
                slowest = max(slowest, time.perf_counter() - start)
                err = capsys.readouterr().err
                assert code in codes and "Traceback" not in err, (argv, fan_doc, cob_doc, err)
                codes[code] += 1
        for b in range(1, 13):
            # one wide cone: e_1 ... e_b at height 0 and (1, ..., 1, 1)
            rays = [[int(i == j) for j in range(b)] + [0] for i in range(b)] + [[1] * (b + 1)]
            path = tmp_path / f"wide{b}.cob"
            path.write_text(json.dumps({"base_dim": b, "rays": rays, "max_cones": [list(range(b + 1))]}))
            for command in ("validate", "circuits", "collapse", "factorize"):
                start = time.perf_counter()
                code = main([command, str(path)])
                slowest = max(slowest, time.perf_counter() - start)
                err = capsys.readouterr().err
                assert code == 0 and not err, (command, b, err)
        for b in range(1, 17):
            # two overlapping cones: e_1 ... e_b at height 0 joined with
            # (1, ..., 1, 1) in one and with (1, ..., 1, 2) in the other
            rays = [[int(i == j) for j in range(b)] + [0] for i in range(b)]
            rays += [[1] * (b + 1), [1] * b + [2]]
            cones = [list(range(b + 1)), list(range(b)) + [b + 1]]
            path = tmp_path / f"overlap{b}.cob"
            path.write_text(json.dumps({"base_dim": b, "rays": rays, "max_cones": cones}))
            for command in ("validate", "circuits", "collapse", "factorize"):
                start = time.perf_counter()
                code = main([command, str(path)])
                slowest = max(slowest, time.perf_counter() - start)
                err = capsys.readouterr().err
                expected = (1,) if command == "validate" else codes
                assert code in expected and not err, (command, b, code, err)
        assert slowest < 10, slowest
        assert min(codes.values()) >= 50, codes
