"""fancob benchmark: seeded workloads, timed user call chains, checked outputs.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; fancob is imported from its src/.
Workloads: octa-deep, ring-wide, cli-corpus (see README.md here).

One process, one thread, closed loop: ops run one after another in whole
passes over the workload's op list until the timed op time reaches --seconds.
Every op starts with fancob's geometry caches cleared, runs under a per-op
deadline, and has its output checked (structure, determinism, and reference
digests where recorded).  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the lines before it are the
full report, including the machine, the seed and metrics not in the JSON.
Op times are given at a reference machine speed (calibrate.py); the report
also has them in plain wall time.

--trace 1 repeats the same passes with every layer function wrapped
(tracer.py) and reports the per-layer metrics instead; the traced outputs
must match the untraced ones.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from calibrate import REFERENCE_S, Calibration  # noqa: E402
from tracer import CLI_ONLY, Tracer  # noqa: E402

# Per-op deadline.  The slowest op that passes, octa-deep large, takes 6-10 s
# on a 2-core Xeon VM; the deadline sits three times above it.
DEADLINE_S = 30.0
SETUP_REPEATS = 11
DEFAULT_SEED = 1
REFERENCE = BENCH / "reference_digests.json"


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM inside an op; BaseException so no library handler eats it."""


def _alarm(signum, frame):
    raise DeadlineExceeded()


@dataclass
class Result:
    op: workloads.Op
    status: str  # ok | error | mismatch | deadline
    seconds: float  # wall time
    digest: str | None = None
    detail: str = ""
    pass_no: int = 0
    start: float = 0.0
    norm: float = 0.0  # wall time at the reference machine speed (calibrate.py)


class Fancob:
    """The fancob modules, imported from the checkout's src/."""

    def __init__(self):
        src = ROOT / "src"
        if not (src / "fancob" / "__init__.py").is_file():
            raise SystemExit(f"error: no fancob package under {src}")
        sys.path.insert(0, str(src))
        import fancob.cli
        import fancob.cobordism
        import fancob.collapse
        import fancob.fan

        self.fan = fancob.fan
        self.cobordism = fancob.cobordism
        self.collapse = fancob.collapse
        self.cli = fancob.cli
        self.caches = (fancob.fan._span_equalities, fancob.fan._cone_solver, fancob.fan._facet_normals)


def _sha(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def _canon_fan(fan) -> tuple:
    return workloads.canonical(frozenset(frozenset(c.rays) for c in fan.max_cones))


class Bench:
    def __init__(self, lib: Fancob, wl: workloads.Workload, work: Path):
        self.lib = lib
        self.wl = wl
        self.work = work
        self.fans = {
            op.fan: lib.fan.fan_from_doc(json.loads(wl.files[op.fan]))
            for op in wl.ops if op.kind == "lib"
        }
        self.reference = {}
        if REFERENCE.is_file():
            self.reference = json.loads(REFERENCE.read_text()).get(wl.name, {})
        self.first_digest: dict[str, str] = {}
        self.dead_docs: set[str] = set()
        self.cal = Calibration()
        self.cache_hits = 0
        self.cache_misses = 0

    # -- inputs and outputs ------------------------------------------------------

    def input_key(self, op: workloads.Op) -> str:
        """Digest of everything the op reads, so references survive reseeding."""
        names = {op.fan or "", f"docs/{op.doc}.fan", f"fixtures/{op.doc}"}
        names |= {a.replace("{work}/", "") for a in op.argv}
        files = {n: hashlib.sha256(self.wl.files[n]).hexdigest() for n in sorted(names & self.wl.files.keys())}
        return _sha([op.kind, list(op.argv), [list(c) for c in op.centers], files])

    def _unpath(self, text: str) -> str:
        return text.replace(str(self.work), "{work}")

    # -- the timed part ----------------------------------------------------------

    def _run_lib(self, op):
        delta = self.fans[op.fan]
        cob = self.lib.cobordism.build_cobordism(delta, op.centers)
        return cob, self.lib.collapse.extract_factorization(cob)

    def _run_cli(self, op):
        argv = [a.replace("{work}", str(self.work)) for a in op.argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.lib.cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad arguments this way
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def run_op(self, op) -> Result:
        if op.doc in self.dead_docs:
            return Result(op, "deadline", 0.0, detail="skipped: an earlier op on this document overran")
        self.cal.maybe_sample()
        for cache in self.lib.caches:
            cache.cache_clear()
        run = self._run_lib if op.kind == "lib" else self._run_cli
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
            try:
                out = run(op)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except DeadlineExceeded:
            self.dead_docs.add(op.doc)
            return Result(op, "deadline", time.perf_counter() - t0, detail=f"overran {DEADLINE_S} s", start=t0)
        except Exception as exc:  # an unexpected raise is a failed op, not a crash
            return Result(op, "error", time.perf_counter() - t0, detail=f"{type(exc).__name__}: {exc}", start=t0)
        dt = time.perf_counter() - t0
        for cache in self.lib.caches:
            info = cache.cache_info()
            self.cache_hits += info.hits
            self.cache_misses += info.misses
        result = self.check(op, out, dt)
        result.start = t0
        return result

    # -- checks (untimed) --------------------------------------------------------

    def check(self, op, out, dt) -> Result:
        try:
            digest, problem = (self._check_lib if op.kind == "lib" else self._check_cli)(op, out)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            digest, problem = None, f"unreadable output: {type(exc).__name__}: {exc}"
        if problem is None:
            first = self.first_digest.setdefault(op.key, digest)
            ref = self.reference.get(self.input_key(op))
            if digest != first:
                problem = "output differs from this op's first run"
            elif ref is not None and digest != ref:
                problem = "output differs from the reference digest"
        if problem:
            return Result(op, "mismatch", dt, digest, problem)
        return Result(op, "ok", dt, digest)

    def _check_lib(self, op, out):
        cob, steps = out
        kinds = {s.kind.value for s in steps}
        centers = tuple(s.center for s in steps)
        digest = _sha({
            "cobordism": self.lib.cobordism.cobordism_to_doc(cob),
            "steps": self.lib.collapse.transcript(steps),
        })
        if kinds != {"blowup"}:
            return digest, f"step kinds {sorted(kinds)}, expected only blowups"
        if centers != op.centers:
            return digest, f"extracted centers {centers} != input centers {op.centers}"
        if _canon_fan(cob.bottom) != self.wl.expected_bottom[op.key]:
            return digest, "bottom fan differs from the input fan"
        if _canon_fan(steps[-1].result) != self.wl.expected_top[op.key]:
            return digest, "final front differs from the directly subdivided fan"
        return digest, None

    def _check_cli(self, op, out):
        code, stdout, stderr = out
        artifacts = {}
        for flag, path in zip(op.argv, op.argv[1:]):
            if flag in ("--out", "--dot"):
                p = Path(path.replace("{work}", str(self.work)))
                artifacts[path] = self._unpath(p.read_text()) if p.is_file() else None
        digest = _sha([code, self._unpath(stdout), self._unpath(stderr), artifacts])
        if code != op.exit_code:
            return digest, f"exit code {code}, expected {op.exit_code}: {stderr.strip()[:200]}"
        if op.check == "build":
            doc = json.loads(next(iter(artifacts.values())))
            if workloads.cones_of_doc(doc["bottom"]) != self.wl.expected_bottom[op.doc]:
                return digest, "built bottom differs from the input fan"
            if workloads.cones_of_doc(doc["top"]) != self.wl.expected_top[op.doc]:
                return digest, "built top differs from the directly subdivided fan"
        elif op.check == "factorize":
            steps = json.loads(stdout)["steps"]
            if {s["kind"] for s in steps} != {"blowup"}:
                return digest, "factorization has steps other than blowups"
            if [tuple(s["center"]) for s in steps] != list(op.centers):
                return digest, "extracted centers differ from the input centers"
            if workloads.cones_of_doc(steps[-1]["result"]) != self.wl.expected_top[op.doc]:
                return digest, "final front differs from the directly subdivided fan"
        return digest, None

    # -- the loop ----------------------------------------------------------------

    def passes(self, seconds: float | None = None, count: int | None = None):
        """Whole passes over the op list, until `seconds` of op time or `count` passes."""
        results: list[Result] = []
        done, spent = 0, 0.0
        while (count is not None and done < count) or (count is None and (done == 0 or spent < seconds)):
            for op in self.wl.ops:
                r = self.run_op(op)
                r.pass_no = done
                spent += r.seconds
                results.append(r)
            done += 1
        self.cal.sample()
        for r in results:
            r.norm = r.seconds * self.cal.factor(r.start, r.start + r.seconds)
        return results, done


# --- metrics ----------------------------------------------------------------------


def timings(results: list[Result], attr: str) -> dict:
    """The timed end-to-end metrics from each result's `attr` time.

    A failed op counts as missing any latency limit: it reads as the deadline.
    """
    def latency(r):
        return getattr(r, attr) if r.status == "ok" else DEADLINE_S

    ok = sum(r.status == "ok" for r in results)
    lat = sorted(latency(r) for r in results)
    metrics = {
        "ops_per_s": ok / sum(getattr(r, attr) for r in results),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": statistics.quantiles(lat, n=10)[-1] * 1e3 if len(lat) >= 100 else None,
    }
    # size latency: all ops on one document in one pass (one op on lib workloads)
    per_doc: dict[tuple, float] = {}
    for r in results:
        if r.op.size:
            key = (r.op.size, r.op.doc, r.pass_no)
            per_doc[key] = per_doc.get(key, 0.0) + latency(r)
    for size in ("small", "mid", "large"):
        metrics[f"{size}_s"] = statistics.median(v for k, v in per_doc.items() if k[0] == size)
    return metrics


def end_to_end(results: list[Result], setup_s: list[float]) -> tuple[dict, dict]:
    """Op metrics at the reference machine speed, plus a report with the wall-time ones."""
    norm = timings(results, "norm")
    units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "small_s": "s", "mid_s": "s", "large_s": "s"}
    metrics = {"setup_s": (statistics.median(setup_s), "s")}
    metrics.update((k, (norm[k], u)) for k, u in units.items())
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    failed = sum(r.status != "ok" for r in results)
    extra = {
        "ops": len(results),
        "failed_frac": failed / len(results),
        "op_p90_ms": norm["op_p90_ms"],
        "wall_time_metrics": timings(results, "seconds"),
        "timed_wall_s": sum(r.seconds for r in results),
        "setup_samples_s": setup_s,
        "size_samples": {s: len({(r.op.doc, r.pass_no) for r in results if r.op.size == s})
                         for s in ("small", "mid", "large")},
    }
    return metrics, extra


def measure_setup(work: Path, cli: bool) -> list[float]:
    """Wall-clock set-up times from fresh processes; the first process only
    compiles bytecode and is not counted.  They are not scaled: the kernel
    does not track process start-up, and scaling widened their spread."""
    cmd = [sys.executable, str(BENCH / "probe_setup.py"), str(ROOT), str(work)] + (["cli"] if cli else [])
    proc = [subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
            for _ in range(SETUP_REPEATS + 1)]
    return [float(p.stdout.strip().splitlines()[-1]) for p in proc[1:]]


def environment(args) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
    src = hashlib.sha256()
    for p in sorted((ROOT / "src" / "fancob").glob("*.py")):
        src.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": platform.platform(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "git_sha": sha, "src_sha256": src.hexdigest(),
        "deadline_s": DEADLINE_S,
    }


def per_layer(bench: Bench, untraced: list[Result], npasses: int):
    """Re-run the untraced passes with every layer function wrapped."""
    bench.cache_hits = bench.cache_misses = 0
    with Tracer() as tracer:
        traced, _ = bench.passes(count=npasses)
    looked_up = bench.cache_hits + bench.cache_misses
    metrics = tracer.metrics()
    metrics.update({
        "fan.geometry_cache.hits": (bench.cache_hits, "count"),
        "fan.geometry_cache.misses": (bench.cache_misses, "count"),
        "fan.geometry_cache.hit_ratio": (bench.cache_hits / looked_up if looked_up else 0.0, "ratio"),
        "trace.overhead_frac": (
            sum(r.norm for r in traced) / sum(r.norm for r in untraced) - 1, "ratio"),
    })
    return traced, metrics


def exported(name: str) -> bool:
    """Times of functions the library workloads never reach read 0.0 there on
    every run, so only their call counts go into the result line; the report
    above it has them all."""
    base, _, stat = name.rpartition(".")
    return not (stat in ("incl_s", "self_s") and base in CLI_ONLY)


def failures(results: list[Result]) -> dict:
    out = {"error": 0, "mismatch": 0, "deadline": 0}
    for r in results:
        if r.status != "ok":
            out[r.status] += 1
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="run one pass and store its output digests as the reference")
    args = ap.parse_args(argv)

    lib = Fancob()
    wl = workloads.generate(args.workload, args.seed, ROOT / "fixtures")
    runs = BENCH / "_work"
    work = runs / f"{args.workload}-{args.seed}-{os.getpid()}"
    signal.signal(signal.SIGALRM, _alarm)
    try:
        workloads.write_inputs(wl, work)
        bench = Bench(lib, wl, work)
        if args.record_reference:
            return record_reference(bench)
        setup = measure_setup(work, args.workload == "cli-corpus")
        results, npasses = bench.passes(seconds=args.seconds)
        metrics, extra = end_to_end(results, setup)
        report = {"environment": environment(args), "passes": npasses, **extra,
                  "failures": failures(results),
                  "failed_ops": sorted({f"{r.op.key}: {r.detail}" for r in results if r.status != "ok"}),
                  "end_to_end": {k: v for k, (v, _) in metrics.items()}}
        if args.trace:
            traced, metrics = per_layer(bench, results, npasses)
            report["traced_digest_mismatches"] = [
                r.op.key for r, t in zip(results, traced) if r.digest != t.digest]
            results = results + traced
            for kind, n in failures(results).items():
                metrics[f"ops.{kind}"] = (n, "count")
            report["per_layer"] = {k: v for k, (v, _) in metrics.items()}
        report["calibration_kernel_s"] = {
            "reference": REFERENCE_S, "median": statistics.median(bench.cal.kernel_s),
            "min": min(bench.cal.kernel_s), "max": max(bench.cal.kernel_s), "samples": len(bench.cal.kernel_s)}
        print(json.dumps(report, indent=1, default=str))
        bad = failures(results)
        print(json.dumps({
            "correct": bad["error"] == 0 and bad["mismatch"] == 0,
            "attempted": len(results),
            "failed": sum(bad.values()),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items() if exported(k)},
        }))
        return 0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            runs.rmdir()


def record_reference(bench: Bench) -> int:
    results, _ = bench.passes(count=1)
    bad = [f"{r.op.key}: {r.detail}" for r in results if r.status != "ok"]
    if bad:
        print("not recording; failed ops:\n" + "\n".join(bad), file=sys.stderr)
        return 1
    data = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    data[bench.wl.name] = {bench.input_key(r.op): r.digest for r in results}
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(results)} digests for {bench.wl.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
