"""Per-layer tracing from outside the package.

The tracer replaces every binding of a traced public function in every loaded
``qdresponse`` module namespace (``sweep.transmission_point`` and
``response.transmission_point`` are the same function object reached through
two names), so no call escapes its span.  Each span adds its duration to its
parent's child time; a function's self time is its span minus the child spans
it covers.  Spans are aggregated in memory as they close, and the bindings are
restored on ``uninstall`` so untraced passes pay nothing.
"""
from __future__ import annotations

import sys
import time
from collections import Counter

#: Traced public functions, as ``module.function`` of the package modules.
TRACED = (
    "model.apply_axis",
    "presets.get_preset",
    "cli.main",
    "steady.build_inversion_polynomial",
    "steady.inversion_roots",
    "steady.classify_stability",
    "steady.solve_steady_branches",
    "steady.hysteresis_sweep",
    "response.transmission_point",
    "sweep.run_sweep",
    "sweep.records_to_csv",
    "oracle.integrate_mean_field",
    "oracle.demodulate_sidebands",
)

PACKAGE = "qdresponse"


class Tracer:
    """Wraps the traced functions and accumulates calls and self time."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        #: Extra counts taken at the same boundaries (records, steps, branches).
        self.counts = Counter()
        #: Typed errors by ``<module>.errors.<Type>``, counted where they first
        #: leave a traced function.
        self.errors = Counter()
        self._stack = []
        self._patched = []

    def reset(self):
        for c in (self.calls, self.self_s, self.counts, self.errors):
            c.clear()

    def _wrap(self, name, fn, error_base):
        module = name.split(".", 1)[0]
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        counts, errors = self.counts, self.errors
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except error_base as exc:
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    errors[f"{module}.errors.{type(exc).__name__}"] += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                calls[name] += 1
                self_s[name] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if name == "sweep.records_to_csv":
                counts["sweep.records"] += len(args[0])
            elif name == "steady.solve_steady_branches":
                counts["steady.branches"] += len(result)
            elif name == "oracle.integrate_mean_field":
                counts["oracle.steps"] += result.t.size - 1
            return result

        return traced

    def install(self):
        """Patch every package namespace that binds a traced function."""
        from qdresponse.errors import QdResponseError

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for name in TRACED:
            mod_name, func_name = name.split(".")
            original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], func_name)
            wrapper = self._wrap(name, original, QdResponseError)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
