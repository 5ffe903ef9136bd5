"""Golden CLI transcripts: every fixture command's exact output.

Each case runs fancob.cli.main in-process and compares stdout, stderr, the
exit code and every file the command wrote with tests/golden/<case>.json,
after replacing the fixtures and temporary directories by {fixtures} and
{tmp}.  The files pin the bit-identical-output contract: a change that
moves one byte of any CLI output fails here.  Run the suite under several
PYTHONHASHSEED values to check that no output depends on hash order.

Re-record after an intended output change with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of tests/golden/ like any other change.
"""

from __future__ import annotations

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from fancob.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"

FIXTURE_NAMES = sorted(p.name for p in FIXTURES.iterdir() if p.suffix in (".fan", ".cob"))
BUILD_CENTERS = {"cone3.fan": "(1,1,0);(0,1,1);(1,1,1)", "p2.fan": "(1,1)"}


def _cases() -> dict[str, list[str]]:
    """Case name -> argv, with {fixtures} and {tmp} placeholders."""
    commands = {}
    for name in FIXTURE_NAMES:
        path = "{fixtures}/" + name
        commands[f"validate-{name}"] = ["validate", path]
        if name.endswith(".cob"):
            commands[f"circuits-{name}"] = ["circuits", path]
            commands[f"collapse-{name}"] = ["collapse", path, "--dot", "{tmp}/graph.dot"]
            commands[f"factorize-{name}"] = ["factorize", path, "--out", "{tmp}/steps.json"]
    for name, centers in BUILD_CENTERS.items():
        commands[f"build-{name}"] = [
            "build", "{fixtures}/" + name, "--centers", centers, "--out", "{tmp}/built.cob",
        ]
    for name in ("karu", "noncollapsible"):
        commands[f"demo-{name}"] = ["demo", name]
    cases = {}
    for name, argv in commands.items():
        cases[name] = argv
        cases[f"json-{name}"] = ["--json"] + argv
    return cases


CASES = _cases()


def _transcript(argv: list[str], tmp: Path, run) -> dict:
    """Run one command through run(argv) -> (exit code, stdout, stderr) and
    return its normalized transcript."""
    tmp.mkdir(parents=True, exist_ok=True)

    def fill(s: str) -> str:
        return s.replace("{fixtures}", str(FIXTURES)).replace("{tmp}", str(tmp))

    def norm(s: str) -> list[str]:
        return s.replace(str(tmp), "{tmp}").replace(str(FIXTURES), "{fixtures}").split("\n")

    code, out, err = run([fill(a) for a in argv])
    return {
        "argv": argv,
        "exit_code": code,
        "stdout": norm(out),
        "stderr": norm(err),
        "files": {p.name: norm(p.read_text()) for p in sorted(tmp.iterdir())},
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_transcript(case, tmp_path, capsys):
    def run(argv):
        capsys.readouterr()
        code = main(argv)
        return (code, *capsys.readouterr())

    expected = json.loads((GOLDEN / f"{case}.json").read_text())
    assert _transcript(CASES[case], tmp_path / "run", run) == expected


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


def _run_redirected(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def record() -> None:
    """Rewrite tests/golden/ from the current code."""
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.glob("*.json"):
        old.unlink()
    for case, argv in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            doc = _transcript(argv, Path(tmp) / "run", _run_redirected)
        (GOLDEN / f"{case}.json").write_text(json.dumps(doc, indent=1) + "\n")
    print(f"recorded {len(CASES)} transcripts in {GOLDEN}")


if __name__ == "__main__":
    record()
