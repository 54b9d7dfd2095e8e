"""Span tracer for the traced benchmark run.

``Tracer.install`` wraps the public functions of each etaq module and the
methods of ``LaurentSeries`` from outside the program: every wrapper is
patched into each ``etaq`` namespace that holds the original, because
modules import names directly (``identities``, ``congruences`` and ``cli``
each hold their own ``expand_quotient``).  A span is (name, start, end,
parent); spans stay in memory and are written out once at the end.  Self
time is a span's duration minus the time its child spans cover.

Per-coefficient helpers are not wrapped: ``__getitem__`` and ``prec`` are
called about 676k times each in one ``verify all`` at order 2000, and
``two_adic_valuation`` once per scanned coefficient.  Their cost belongs
to the caller's self time (for ``verify_congruence``, its valuation scan).
Counters are computed right after the span they describe closes; their
time is measured, counts as tracer overhead and as nobody's self time.

Every wrapped function, every module and every counter is reported from
install on, so a function that was wrapped but never called reads 0
calls, while one that no longer exists is absent from ``metrics()``.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict

MODULES = ("series", "eta", "identities", "congruences", "sequences", "oracle", "cli")
_UNWRAPPED = {"two_adic_valuation"}
_SERIES_METHODS = {
    "__add__": "add",  # subtraction is self + (-other), so it lands here too
    "__neg__": "neg",
    "shift": "shift",
    "invert": "invert",
    "extract": "extract",
    "alternate_signs": "alternate_signs",
    "dump": "dump",
    "is_zero": "is_zero",
}
_SERIES_CLASSMETHODS = ("from_terms", "one")


# The layers above eta: each turns expansions into verdicts or output.
VERDICT_MODULES = ("identities", "congruences", "sequences", "oracle", "cli")


def _count_mul(tracer, opened, args, result):
    if result is NotImplemented or isinstance(args[1], int):
        return
    a, b = args[0].coeffs, args[1].coeffs
    n = len(result.coeffs)
    c = tracer.counters
    c["series.mul.coeffs"] += n
    c["series.mul.pairs"] += (n - max(a[:n].count(0), b[:n].count(0))) * n


def _count_len(name):
    def count(tracer, opened, args, result):
        if result is not NotImplemented:
            tracer.counters[name] += len(result.coeffs)
    return count


def _count_compare(tracer, opened, args, result):
    tracer.counters["series.compare.points"] += result.overlap


def _count_hit(tracer, opened, args, result):
    if tracer.series_spans == opened:
        tracer.counters["eta.expand_quotient.hits"] += 1


def _count_factor_passes(tracer, opened, args, result):
    factors, order = args
    tracer.counters["oracle.direct_eta_product.factor_passes"] += sum(
        abs(e) * ((order - 1) // m) for m, e in factors.items())


_COUNTERS = {  # span name -> (counter names, counting function)
    "series.mul": (("series.mul.coeffs", "series.mul.pairs"), _count_mul),
    "series.add": (("series.add.coeffs",), _count_len("series.add.coeffs")),
    "series.invert": (("series.invert.coeffs",), _count_len("series.invert.coeffs")),
    "series.compare": (("series.compare.points",), _count_compare),
    "eta.expand_quotient": (("eta.expand_quotient.hits",), _count_hit),
    "oracle.direct_eta_product": (("oracle.direct_eta_product.factor_passes",),
                                  _count_factor_passes),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counters: dict[str, int] = defaultdict(int)
        self.series_spans = 0
        self.counting_s = 0.0  # time spent in the counters
        # name -> [calls, total_s, self_s]; total_s counts outermost spans only
        self._stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self._depth: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []

    def _open(self, name: str) -> list:
        if name.startswith("series."):
            self.series_spans += 1
        index = len(self.spans)
        self.spans.append(self._stack[-1][0] if self._stack else -1)
        self._depth[name] += 1
        self._depth[name.partition(".")[0]] += 1
        frame = [index, name, 0.0, 0.0, self.series_spans]
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        index, name, start, child, _ = frame
        self._stack.pop()
        duration = end - start
        module = name.partition(".")[0]
        for key, self_s in ((name, duration - child), (module, duration - child)):
            stat = self._stats[key]
            stat[0] += 1
            stat[2] += self_s
            self._depth[key] -= 1
            if not self._depth[key]:
                stat[1] += duration
        if self._stack:
            self._stack[-1][3] += duration
        self.spans[index] = (name, start, end, self.spans[index])

    def wrap(self, name, fn):
        """``fn`` inside a span; ``name`` may be a function of the call's args."""
        tracer = self

        def traced(*args, **kwargs):
            span = name(args) if callable(name) else name
            frame = tracer._open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            counter = _COUNTERS.get(span)
            if counter is not None:
                start = time.perf_counter()
                counter[1](tracer, frame[4], args, result)
                spent = time.perf_counter() - start
                # The tracer's own time: nobody's self time, part of the overhead.
                tracer.counting_s += spent
                if tracer._stack:
                    tracer._stack[-1][3] += spent
            return result

        traced.__wrapped__ = fn
        if isinstance(name, str):
            self.register(name)
        return traced

    def register(self, span: str) -> None:
        """Report ``span``, its module and its counters even if never opened."""
        self._stats[span]
        self._stats[span.partition(".")[0]]
        for counter in _COUNTERS.get(span, ((),))[0]:
            self.counters[counter] += 0

    def install(self) -> None:
        """Patch every public etaq function and LaurentSeries method."""
        import importlib

        series = importlib.import_module("etaq.series")
        namespaces = [m for n, m in sys.modules.items() if n == "etaq" or n.startswith("etaq.")]
        for short in MODULES:
            module = importlib.import_module(f"etaq.{short}")
            names = getattr(module, "__all__", None) or [n for n in vars(module)
                                                         if not n.startswith("_")]
            for attr in names:
                fn = getattr(module, attr)
                # Plain functions and lru_cache wrappers defined in this module.
                if (not callable(fn) or isinstance(fn, type) or attr in _UNWRAPPED
                        or getattr(fn, "__module__", None) != module.__name__):
                    continue
                traced = self.wrap(f"{short}.{attr}", fn)
                for ns in namespaces:
                    if getattr(ns, attr, None) is fn:
                        setattr(ns, attr, traced)

        cls = series.LaurentSeries
        for attr, short in _SERIES_METHODS.items():
            setattr(cls, attr, self.wrap(f"series.{short}", vars(cls)[attr]))
        for attr in _SERIES_CLASSMETHODS:
            setattr(cls, attr, classmethod(self.wrap(f"series.{attr}", vars(cls)[attr].__func__)))
        cls.__mul__ = self.wrap(
            lambda args: "series.mul" if isinstance(args[1], cls) else "series.scale",
            vars(cls)["__mul__"])
        self.register("series.mul")
        self.register("series.scale")

    def metrics(self) -> dict[str, float]:
        """calls, total_s and self_s per function and per module, plus counters.

        ``verdict.self_s`` is the self time of the VERDICT_MODULES together.
        ``trace.overhead_s`` is the tracer's own cost: the spans opened times
        the per-span cost calibrated in this process, plus the time measured
        in the counters.  Call it after the workload, since it calibrates.
        """
        out: dict[str, float] = {}
        for key, (calls, total, self_s) in sorted(self._stats.items()):
            if "." in key:
                out[f"{key}.calls"] = calls
            out[f"{key}.total_s"] = total
            out[f"{key}.self_s"] = self_s
        out.update(self.counters)
        out["verdict.self_s"] = sum(self._stats[m][2] for m in VERDICT_MODULES
                                    if m in self._stats)
        out["trace.spans"] = len(self.spans)
        out["trace.overhead_s"] = len(self.spans) * span_cost_s() + self.counting_s
        return out

    def write_spans(self, path) -> None:
        """One span per line: index, parent index, name, start, end."""
        with open(path, "w") as f:
            for index, (name, start, end, parent) in enumerate(self.spans):
                f.write(f"{index}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")


def span_cost_s(calls: int = 20000, rounds: int = 5) -> float:
    """Median extra time one traced call of a no-op costs over a plain one."""
    def noop():
        return None

    costs = []
    for _ in range(rounds):
        traced = Tracer().wrap("trace.calibrate", noop)
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        plain = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        costs.append((time.perf_counter() - start - plain) / calls)
    return max(statistics.median(costs), 0.0)
