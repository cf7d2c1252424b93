"""Spans around the calls between chowchi's modules, recorded from outside.

``Tracer.install`` rebinds, in each chowchi module, every public function
that module imported from another chowchi module, so a call across a layer
boundary opens a span whose parent is the innermost open span.  The source
is never edited and ``uninstall`` puts the original bindings back.

A span's self time is its duration minus the durations of its children.
Each span is folded into per-name totals (calls, self time) as it closes,
so memory stays flat on ops that make millions of calls.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

LAYERS = ("binomials", "series", "chow", "invariants", "verify", "cli")


def _bits(value) -> int:
    value = getattr(value, "chi", value)              # EulerValue
    coeffs = getattr(value, "coeffs", None)           # TruncatedSeries
    if coeffs is not None:
        return sum(c.bit_length() for c in coeffs)
    return value.bit_length() if isinstance(value, int) else 0


class Tracer:
    """Records spans for wrapped functions and folds them into totals."""

    def __init__(self, binomials_module):
        self._binomials = binomials_module
        self._open = [0.0]          # child time accumulated by each open span
        self._wrappers: dict = {}
        self._rebound: list[tuple[object, str, object]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)

    def wrap(self, fn):
        """The span-recording wrapper of ``fn`` (one per function)."""
        wrapper = self._wrappers.get(fn)
        if wrapper is not None:
            return wrapper
        name = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"
        observe = self._observer(name)
        open_spans, self_s, calls = self._open, self.self_s, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                self_s[name] += dur - open_spans.pop()
                open_spans[-1] += dur
                calls[name] += 1
            if observe is not None:
                observe(args, result)
            return result

        self._wrappers[fn] = wrapper
        self._wrappers[wrapper] = wrapper
        return wrapper

    def _observer(self, name):
        counts = self.counts
        if name == "binomials.binomial":
            def observe(args, result):
                n, k = args
                if 0 <= k <= n:
                    table = getattr(self._binomials, "_TABLE", None)
                    if table is not None and n <= table.n_max:
                        counts["binomials.table_hits"] += 1
                    else:
                        counts["binomials.fallthroughs"] += 1
            return observe
        if name == "series.series_mul":
            def observe(args, result):
                n = args[0].order
                counts["series.mul_products"] += (n + 1) * (n + 2) // 2
            return observe
        if name in ("chow.chow_euler_closed", "chow.chow_euler_recursive",
                    "chow.chow_euler_series", "chow.chow_series",
                    "chow.points_euler_recursive"):
            def observe(args, result):
                counts["chow.result_bits"] += _bits(result)
            return observe
        if name == "verify.run_suite":
            def observe(args, result):
                counts["verify.cases"] += result.cases_run
                counts["verify.failures"] += len(result.failures)
            return observe
        return None

    def install(self) -> None:
        """Rebind every cross-module import of a chowchi function to its wrapper."""
        for layer in LAYERS:
            module = importlib.import_module(f"chowchi.{layer}")
            for attr, value in list(vars(module).items()):
                if (callable(value) and not isinstance(value, type)
                        and not attr.startswith("_")
                        and getattr(value, "__module__", "").startswith("chowchi.")
                        and value.__module__ != module.__name__):
                    self._rebound.append((module, attr, value))
                    setattr(module, attr, self.wrap(value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._rebound):
            setattr(module, attr, value)
        self._rebound.clear()

    def span_names(self) -> set[str]:
        """Names of every function that recorded at least one span."""
        return {name for name, n in self.calls.items() if n}
