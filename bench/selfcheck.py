"""Self-checks for the benchmark itself.

usage: python3 bench/selfcheck.py

- the same seed produces byte-identical input documents and the same ops,
  and another seed changes the seeded workloads;
- a traced pass gives the same output digests as an untraced pass, on every
  workload (octa-deep without its large op, to keep this under a minute);
- the tracer puts every original binding back.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import shutil
import signal
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

RUNS = run.BENCH / "_work"


def check_inputs_repeat() -> None:
    for name in workloads.WORKLOADS:
        a = workloads.generate(name, 7, run.ROOT / "fixtures")
        b = workloads.generate(name, 7, run.ROOT / "fixtures")
        assert a.files == b.files, f"{name}: same seed, different input bytes"
        assert a.ops == b.ops, f"{name}: same seed, different ops"
        c = workloads.generate(name, 8, run.ROOT / "fixtures")
        if name != "octa-deep":  # the octahedral fan is fixed by design
            assert a.files != c.files, f"{name}: the seed does not change the inputs"
        with tempfile.TemporaryDirectory(dir=RUNS) as d1, tempfile.TemporaryDirectory(dir=RUNS) as d2:
            workloads.write_inputs(a, Path(d1))
            workloads.write_inputs(b, Path(d2))
            for rel in a.files:
                assert (Path(d1) / rel).read_bytes() == (Path(d2) / rel).read_bytes(), rel
        print(f"ok  {name}: seed 7 inputs are byte-identical on regeneration")


def check_traced_digests(lib: run.Fancob) -> None:
    for name in workloads.WORKLOADS:
        wl = workloads.generate(name, run.DEFAULT_SEED, run.ROOT / "fixtures")
        if name == "octa-deep":
            wl.ops = [op for op in wl.ops if op.size != "large"]
        work = Path(tempfile.mkdtemp(dir=RUNS))
        try:
            workloads.write_inputs(wl, work)
            bench = run.Bench(lib, wl, work)
            plain, _ = bench.passes(count=1)
            with Tracer():
                traced, _ = bench.passes(count=1)
        finally:
            shutil.rmtree(work)
        bad = [r for r in plain + traced if r.status != "ok"]
        assert not bad, f"{name}: failed ops {[(r.op.key, r.detail) for r in bad]}"
        assert [r.digest for r in plain] == [r.digest for r in traced], f"{name}: traced digests differ"
        print(f"ok  {name}: {len(plain)} traced outputs match the untraced ones")


def check_restore(lib: run.Fancob) -> None:
    modules = [m for n, m in sys.modules.items() if n == "fancob" or n.startswith("fancob.")]
    before = {(id(m), k): v for m in modules for k, v in vars(m).items()}
    from_fan = lib.cobordism.Cobordism.__dict__["from_fan"]
    with Tracer():
        assert lib.cobordism.Cobordism.__dict__["from_fan"] is not from_fan
        assert lib.fan.nonneg_combination is not before[(id(lib.fan), "nonneg_combination")]
    after = {(id(m), k): v for m in modules for k, v in vars(m).items()}
    assert all(after[k] is v for k, v in before.items()), "a binding was not restored"
    assert lib.cobordism.Cobordism.__dict__["from_fan"] is from_fan
    print("ok  tracer restores every binding")


def main() -> int:
    signal.signal(signal.SIGALRM, run._alarm)
    lib = run.Fancob()
    RUNS.mkdir(exist_ok=True)
    try:
        check_inputs_repeat()
        check_restore(lib)
        check_traced_digests(lib)
    finally:
        if not any(RUNS.iterdir()):
            RUNS.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
