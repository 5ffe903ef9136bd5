"""Per-function spans around fancob's layer functions, from outside the package.

Tracer.install() wraps each listed function at every binding in fancob's
module namespaces (many are imported by name, e.g. nonneg_combination in fan
and demos, solve_in_span in cobordism), and restore() puts the original
objects back.  Each call is a span on an in-memory stack; when it closes, its
duration is folded into the function's totals, so memory stays flat however
many calls a run makes:

- calls:  completed calls;
- incl_s: wall time inside the function, counted once for recursive calls;
- self_s: incl minus the time spent in traced callees.
"""

from __future__ import annotations

import functools
import sys
import time

TARGETS = {
    "exact": ("det", "rank", "solve_in_span", "nonneg_combination", "kernel_relation",
              "maximal_minor_gcd"),
    "fan": ("validate_fan", "supports_equal", "covered_by_fan", "star_subdivide",
            "minimal_containing_cone", "fan_from_doc"),
    "cobordism": ("build_cobordism", "Cobordism.from_fan", "boundary", "validate_cobordism",
                  "circuit_of", "classify", "cobordism_from_doc"),
    "collapse": ("circuit_graph", "is_collapsible", "is_pi_nonsingular",
                 "extract_factorization", "to_dot"),
    "demos": ("karu_counterexample", "noncollapsible_report", "run_schedule"),
    "cli": ("main",),
}

# Reached only through the CLI and the demos, never by the library workloads.
CLI_ONLY = (
    "exact.maximal_minor_gcd", "fan.fan_from_doc", "cobordism.cobordism_from_doc",
    "collapse.is_pi_nonsingular", "collapse.to_dot", "demos.karu_counterexample",
    "demos.noncollapsible_report", "demos.run_schedule", "cli.main",
)

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TARGETS.items() for fn in fns)


class Tracer:
    def __init__(self):
        # name -> [calls, incl_s, self_s, open activations]
        self.stats = {name: [0, 0.0, 0.0, 0] for name in SPAN_NAMES}
        self._stack: list[float] = []  # child time of each open span
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        st = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            st[3] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                st[3] -= 1
                st[0] += 1
                st[2] += dt - child
                if not st[3]:
                    st[1] += dt
                if stack:
                    stack[-1] += dt

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "fancob" or n.startswith("fancob.")]
        for layer, fns in TARGETS.items():
            mod = sys.modules[f"fancob.{layer}"]
            for fn in fns:
                name = f"{layer}.{fn}"
                if "." in fn:
                    cls_name, meth = fn.split(".")
                    owner = getattr(mod, cls_name)
                    raw = owner.__dict__[meth]
                    setattr(owner, meth, classmethod(self._wrap(name, raw.__func__)))
                    self._restore.append((owner, meth, raw))
                    continue
                orig = getattr(mod, fn)
                wrapped = self._wrap(name, orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapped)
                            self._restore.append((m, attr, orig))

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def metrics(self) -> dict[str, tuple[float, str]]:
        out = {}
        for name, (calls, incl, self_s, _) in self.stats.items():
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.incl_s"] = (incl, "s")
            out[f"{name}.self_s"] = (self_s, "s")
        return out
