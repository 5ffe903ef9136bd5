"""Command-line surface: file I/O, reports, and exit codes.

Exit codes: 0 when every check passed, 1 when a geometric check failed
(invalid fan, not collapsible where required, a demo census deviation) or
stdout was closed before the report was written, 2 for input or parse errors
(a document that is missing, undecodable or malformed, or an --out or --dot
path that cannot be written).  All geometry lives in the library modules;
this module only loads documents, calls them, and prints.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path

from .errors import (
    BrokenFan,
    DimensionMismatch,
    FancobError,
    FrontMismatch,
    InvalidFan,
    NotCollapsible,
    ParseError,
)
from . import collapse as collapsemod
from . import demos
from .cobordism import (
    Cobordism,
    build_cobordism,
    circuit_class,
    cobordism_from_doc,
    cobordism_to_doc,
    validate_cobordism,
)
from .fan import Fan, fan_from_doc, validate_fan
from .value import Value


class CommandResult(Value):
    """A command's exit code, its --json report and its text lines."""

    __slots__ = ("exit_code", "report", "lines")

    def __init__(self, exit_code: int, report: dict, lines: list[str] | None = None):
        object.__setattr__(self, "exit_code", exit_code)
        object.__setattr__(self, "report", report)
        object.__setattr__(self, "lines", [] if lines is None else lines)

    def _key(self) -> tuple:
        return self.exit_code, self.report, self.lines


def _load_json(path: str):
    p = Path(path)
    if not p.is_file():
        raise ParseError(f"no such file: {path}")
    try:
        return json.loads(p.read_text())
    except OSError as exc:  # an unreadable input is a usage error, like an unwritable output
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or too deep
        raise ParseError(f"{path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:  # an unwritable --out or --dot is a usage error
        raise ParseError(f"cannot write {path}: {exc.strerror}") from exc


def load_fan(path: str) -> Fan:
    return fan_from_doc(_load_json(path))


def load_cobordism(path: str) -> tuple[Cobordism, Fan | None, Fan | None]:
    return cobordism_from_doc(_load_json(path))


def _vecs_str(vs) -> str:
    return " ".join(collapsemod._fmt_vec(v) for v in vs) if vs else "-"


def parse_centers(text: str, dim: int):
    """Semicolon-separated parenthesized integer tuples, e.g. "(1,1,0);(0,1,1)"."""
    text = text.strip()
    if not text:
        return []
    centers = []
    for part in text.split(";"):
        part = part.strip()
        m = re.fullmatch(r"\(\s*(-?\d+(?:\s*,\s*-?\d+)*)\s*\)", part)
        if not m:
            raise ParseError(f"bad center syntax: {part!r}")
        vec = tuple(int(x) for x in m.group(1).split(","))
        if len(vec) != dim:
            raise ParseError(f"center {vec} has dimension {len(vec)}, fan has {dim}")
        if not any(vec):
            raise ParseError(f"center {vec} is the zero vector")
        centers.append(vec)
    return centers


def _guess_kind(path: str, kind: str | None) -> str:
    if kind:
        return kind
    if path.endswith(".fan"):
        return "fan"
    if path.endswith(".cob"):
        return "cobordism"
    raise ParseError(f"cannot infer document kind of {path}; pass --kind")


def cmd_validate(path: str, kind: str | None = None, bottom: str | None = None,
                 top: str | None = None) -> CommandResult:
    kind = _guess_kind(path, kind)
    if kind == "fan":
        fan = load_fan(path)
        report = validate_fan(fan)
        head = f"fan: dim {fan.ambient_dim}, {len(fan.max_cones)} maximal cones"
    else:
        cob, stored_bottom, stored_top = load_cobordism(path)
        expected_bottom = load_fan(bottom) if bottom else stored_bottom
        expected_top = load_fan(top) if top else stored_top
        report = validate_cobordism(cob, expected_bottom, expected_top)
        head = (
            f"cobordism: base dim {cob.base_dim}, "
            f"{len(cob.fan.max_cones)} maximal cones, "
            f"bottom {len(cob.bottom.max_cones)} cones, top {len(cob.top.max_cones)} cones"
        )
    lines = [head]
    lines += [f"problem: {p}" for p in report.problems]
    lines.append("result: valid" if report.ok else "result: INVALID")
    return CommandResult(
        exit_code=0 if report.ok else 1,
        report={"kind": kind, "valid": report.ok, "problems": list(report.problems)},
        lines=lines,
    )


def cmd_circuits(path: str) -> CommandResult:
    cob, _, _ = load_cobordism(path)
    rows = []
    for cone, circ in zip(cob.fan.max_cones, cob.circuits):
        rows.append(
            {
                "cone": [list(r) for r in cone.rays],
                "circuit": [list(r) for r in circ.rays] if circ else [],
                "relation": list(circ.relation) if circ else [],
                "pos": [list(r) for r in circ.pos] if circ else [],
                "neg": [list(r) for r in circ.neg] if circ else [],
                "link": [list(r) for r in circ.link] if circ else [],
                "class": circuit_class(circ).value,
            }
        )
    lines = [f"{len(rows)} maximal cones"]
    for i, (cone, circ, row) in enumerate(zip(cob.fan.max_cones, cob.circuits, rows)):
        lines.append(
            f"[{i}] {_vecs_str(cone.rays)}  class={row['class']}"
        )
        if circ:
            lines.append(
                f"    relation {_vecs_str([circ.relation])}  "
                f"pos {_vecs_str(circ.pos)}  neg {_vecs_str(circ.neg)}  "
                f"link {_vecs_str(circ.link)}"
            )
    return CommandResult(exit_code=0, report={"rows": rows}, lines=lines)


def cmd_collapse(path: str, dot: str | None = None) -> CommandResult:
    cob, _, _ = load_cobordism(path)
    graph = collapsemod.circuit_graph(cob)
    ok, witness = collapsemod._collapse_order(graph)
    if dot:
        _write(dot, collapsemod.to_dot(graph))
    lines = [f"circuit graph: {len(graph.nodes)} nodes, {len(graph.edges)} edges"]
    if ok:
        lines.append("collapsible: yes")
        lines.append("order: " + " -> ".join(_vecs_str(k) for k in witness))
    else:
        lines.append("collapsible: NO")
        lines.append("cycle: " + " -> ".join(_vecs_str(k) for k in witness))
    report = {
        "collapsible": ok,
        "witness": [[list(r) for r in key] for key in witness],
        "nodes": len(graph.nodes),
        "edges": len(graph.edges),
    }
    return CommandResult(exit_code=0 if ok else 1, report=report, lines=lines)


def cmd_factorize(path: str, elide_identity: bool = False, out: str | None = None) -> CommandResult:
    cob, _, _ = load_cobordism(path)
    try:
        steps = collapsemod.extract_factorization(cob, elide_identity=elide_identity)
    except (NotCollapsible, FrontMismatch, BrokenFan, InvalidFan) as exc:
        return CommandResult(
            exit_code=1,
            report={"error": type(exc).__name__, "message": str(exc)},
            lines=[f"error: {type(exc).__name__}: {exc}"],
        )
    doc = collapsemod.transcript(steps)
    if out:
        _write(out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    lines = [f"{len(steps)} steps"]
    for i, step in enumerate(steps):
        center = collapsemod._fmt_vec(step.center) if step.center is not None else "-"
        lines.append(
            f"[{i}] {step.kind.value} center={center} "
            f"front={len(step.result.max_cones)} cones"
        )
    return CommandResult(exit_code=0, report=doc, lines=lines)


def cmd_build(path: str, centers: str, out: str | None = None) -> CommandResult:
    fan = load_fan(path)
    center_vecs = parse_centers(centers, fan.ambient_dim)
    cob = build_cobordism(fan, center_vecs)
    out = out or str(Path(path).with_suffix(".cob"))
    _write(out, json.dumps(cobordism_to_doc(cob), indent=2, sort_keys=True) + "\n")
    census: dict[str, int] = {}
    for circ in cob.circuits:
        cls = circuit_class(circ).value
        census[cls] = census.get(cls, 0) + 1
    lines = [
        f"built cobordism with {len(cob.fan.max_cones)} maximal cones -> {out}",
        "census: " + ", ".join(f"{k}={v}" for k, v in sorted(census.items())),
    ]
    return CommandResult(
        exit_code=0,
        report={"maximal_cones": len(cob.fan.max_cones), "census": census, "out": out},
        lines=lines,
    )


def cmd_demo(name: str) -> CommandResult:
    if name == "karu":
        report = demos.karu_counterexample()
        summary = report.summary()
        lines = [
            f"maximal cones: {summary['maximal_cones']} (all Up)",
            "schedule: " + " ".join(collapsemod._fmt_vec(c) for c in summary["schedule"]),
            "three-negative cone: " + _vecs_str(report.three_negative_cone.rays),
            "mixed cone: " + _vecs_str(report.mixed_cone.rays),
            "  pos: " + _vecs_str(report.mixed_pos),
            "  neg: " + _vecs_str(report.mixed_neg),
            "verdict: schedule does not preserve pointing-up",
        ]
        return CommandResult(exit_code=0, report=summary, lines=lines)
    summary = demos.noncollapsible_report()
    lines = [
        "valid cobordism between the plane fan and itself",
        "pi-nonsingular: yes",
        "collapsible: no",
        "cycle: " + " -> ".join(_vecs_str([tuple(r) for r in key]) for key in summary["cycle"]),
    ]
    return CommandResult(exit_code=0, report=summary, lines=lines)


def _emit(result: CommandResult, as_json: bool) -> int:
    if as_json:
        print(json.dumps(result.report, indent=2, sort_keys=True))
    else:
        for line in result.lines:
            print(line)
    return result.exit_code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fancob",
        description="Exact workbench for simplicial fans and fan cobordisms.",
    )
    parser.add_argument("--json", action="store_true", help="emit the structured report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a fan or cobordism document")
    p.add_argument("path")
    p.add_argument("--kind", choices=["fan", "cobordism"])
    p.add_argument("--bottom", help="expected bottom fan document")
    p.add_argument("--top", help="expected top fan document")

    p = sub.add_parser("circuits", help="per-cone circuit table of a cobordism")
    p.add_argument("path")

    p = sub.add_parser("collapse", help="collapsibility verdict and witness")
    p.add_argument("path")
    p.add_argument("--dot", help="write the circuit graph as graphviz")

    p = sub.add_parser("factorize", help="extract the blowup/blowdown sequence")
    p.add_argument("path")
    p.add_argument("--elide-identity", action="store_true")
    p.add_argument("--out", help="write the transcript document")

    p = sub.add_parser("build", help="record star subdivisions as a cobordism")
    p.add_argument("path", help="fan document")
    p.add_argument("--centers", required=True, help='e.g. "(1,1,0);(0,1,1)"')
    p.add_argument("--out", help="output cobordism document")

    p = sub.add_parser("demo", help="run a built-in verification bundle")
    p.add_argument("name", choices=["karu", "noncollapsible"])

    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            result = cmd_validate(args.path, args.kind, args.bottom, args.top)
        elif args.command == "circuits":
            result = cmd_circuits(args.path)
        elif args.command == "collapse":
            result = cmd_collapse(args.path, args.dot)
        elif args.command == "factorize":
            result = cmd_factorize(args.path, args.elide_identity, args.out)
        elif args.command == "build":
            result = cmd_build(args.path, args.centers, args.out)
        else:
            result = cmd_demo(args.name)
    except (ParseError, DimensionMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FancobError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    try:
        code = _emit(result, args.json)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (e.g. `| head`); point stdout at devnull so
        # the interpreter's final flush cannot fail again, as the signal
        # module documentation recommends for SIGPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


def entry() -> None:
    sys.exit(main())
