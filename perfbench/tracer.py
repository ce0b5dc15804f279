"""Runtime span tracing of the program's public functions.

The program carries no instrumentation of its own, so ``Tracer.install``
wraps, from outside, every public function and method of each
``harmonic_ratios`` module, and rebinds each name in every module that took
it with ``from .x import name`` (``cli`` and ``verify`` hold their own
``series_ratio``, for example).  A span stack gives self time: a span's
duration minus the time covered by the spans it opened.

Spans are named ``<module>.<function>`` (``<module>.<Class>.<method>`` when
two classes of one module share a method name).  The tiny index helpers of
``multiindex`` are counted but not timed, because a timer around each of
their calls would cost more than the call.  Work counts ride on the same
wrappers; see ``WORK``.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
import time
from typing import Callable, Dict, List

import numpy as np

COUNT_ONLY_MODULES = ("multiindex",)
DUNDERS = ("__call__", "__mul__", "__rmul__")


def _points(coords) -> int:
    return int(np.broadcast(*[np.asarray(c) for c in coords]).size)


def _rows(points) -> int:
    return int(np.atleast_2d(np.asarray(points)).shape[0])


def _seeds(report) -> int:
    m = re.search(r"(\d+) seeds", getattr(report, "notes", ""))
    return int(m.group(1)) if m else 0


# span name -> function(args, result, open span depths) -> {counter: amount}
WORK: Dict[str, Callable] = {
    "polynomial.evaluate_array": lambda a, r, o: {"points": _points(a[1])},
    "regions.contains": lambda a, r, o: {"points": _rows(a[1])},
    "verify.ratio_eval": lambda a, r, o: {
        "points": _rows(a[1]),
        "invalid_points": int(np.count_nonzero(~r[1])),
    },
    # the evaluator's series fallback evaluates the ratio series once per point
    "series.evaluate_float": lambda a, r, o: {
        "in_ratio_eval": int(o.get("verify.ratio_eval", 0) > 0)
    },
    "certificates.verify_certificate": lambda a, r, o: {
        "indices": int(r.samples.get("indices_checked", 0))
    },
    "nodal.critical_set_sample": lambda a, r, o: {"seeds": _seeds(r)},
    "nodal._gauss_newton_critical": lambda a, r, o: {"converged": int(r is not None)},
    "io_formats.parse_series": lambda a, r, o: {"bytes": len(a[0])},
    "io_formats.parse_polynomial": lambda a, r, o: {"bytes": len(a[0])},
    "io_formats.format_series": lambda a, r, o: {"bytes": len(r)},
    "io_formats.format_polynomial": lambda a, r, o: {"bytes": len(r)},
}

# spans whose metric name differs from the wrapped function's
RENAME = {
    "polynomial.__mul__": "polynomial.mul",
    "polynomial.__rmul__": "polynomial.mul",
    "verify.__call__": "verify.ratio_eval",
}

# counters moved onto the span that a user of the metric asks about
COUNTER_ALIASES = {
    "nodal._gauss_newton_critical.converged": "nodal.critical_set_sample.converged",
    "series.evaluate_float.in_ratio_eval": "verify.ratio_eval.fallback_points",
}


class Tracer:
    """Aggregated spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.total: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self.counters: Dict[str, int] = {}
        self.depth: Dict[str, int] = {}
        self._stack: List[List[float]] = []

    # -- wrappers ------------------------------------------------------------

    def _timed(self, name: str, fn: Callable) -> Callable:
        work = WORK.get(name)
        stack, calls, total, self_time, opened = (
            self._stack, self.calls, self.total, self.self_time, self.depth
        )
        calls.setdefault(name, 0)
        total.setdefault(name, 0.0)
        self_time.setdefault(name, 0.0)
        opened.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            opened[name] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                opened[name] -= 1
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                calls[name] += 1
                total[name] += dt
                self_time[name] += dt - child[0]
            if work is not None:
                for key, amount in work(args, result, opened).items():
                    self.count(f"{name}.{key}", amount)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        calls = self.calls
        calls.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _generator(self, name: str, fn: Callable) -> Callable:
        """Generators are counted per item yielded; their time lands on the
        consumer."""
        self.calls.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            for item in fn(*args, **kwargs):
                self.count(f"{name}.yielded", 1)
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, key: str, amount: int) -> None:
        key = COUNTER_ALIASES.get(key, key)
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, name: str, fn: Callable, count_only: bool) -> Callable:
        name = RENAME.get(name, name)
        if inspect.isgeneratorfunction(fn):
            return self._generator(name, fn)
        if count_only:
            return self._counted(name, fn)
        return self._timed(name, fn)

    # -- installation --------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions of every module of ``package``."""
        modules = {
            info.name.rsplit(".", 1)[-1]: importlib.import_module(info.name)
            for info in pkgutil.iter_modules(package.__path__, package.__name__ + ".")
        }
        replaced: Dict[int, Callable] = {}
        for short, mod in sorted(modules.items()):
            count_only = short in COUNT_ONLY_MODULES
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    public = not attr.startswith("_") or f"{short}.{attr}" in WORK
                    if public:
                        replaced[id(obj)] = self._wrap(f"{short}.{attr}", obj, count_only)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(short, mod, obj)
        # rebind every module-level reference, including `from .x import name`
        for mod in list(modules.values()) + [package]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    setattr(mod, attr, replaced[id(obj)])
        self._wrap_label(modules.get("nodal"))

    def _wrap_class(self, short: str, mod, cls) -> None:
        shared = _method_names_shared(mod, cls)
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            label = f"{short}.{cls.__name__}.{attr}" if attr in shared else f"{short}.{attr}"
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(label, raw.__func__, False)))
            elif isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._wrap(label, raw.__func__, False)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self._wrap(label, raw, False))

    def _wrap_label(self, nodal) -> None:
        """``scipy.ndimage.label`` as the nodal counter calls it."""
        if nodal is None or not hasattr(nodal, "ndimage"):
            return
        nodal.ndimage.label = self._timed("nodal.label", nodal.ndimage.label)

    # -- results -------------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        spans = {
            name: {
                "calls": self.calls[name],
                "total_s": self.total.get(name, 0.0),
                "self_s": self.self_time.get(name, 0.0),
            }
            for name in sorted(self.calls)
        }
        return {"spans": spans, "counters": dict(sorted(self.counters.items()))}


def _method_names_shared(mod, cls) -> set:
    """Public method names that another class of the same module defines."""
    mine = set(vars(cls))
    shared = set()
    for other in vars(mod).values():
        if inspect.isclass(other) and other is not cls and other.__module__ == mod.__name__:
            shared |= mine & set(vars(other))
    return {name for name in shared if not name.startswith("_") or name in DUNDERS}


def metric_value(summary: Dict, metric: str) -> float:
    """Value of ``<span>.<stat>`` from a summary; 0 for a span never entered."""
    span, _, stat = metric.rpartition(".")
    spans, counters = summary["spans"], summary["counters"]
    if stat == "calls":
        return spans.get(span, {}).get("calls", 0)
    if stat == "self_s":
        return spans.get(span, {}).get("self_s", 0.0)
    return counters.get(metric, 0)
