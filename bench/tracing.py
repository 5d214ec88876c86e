"""Outside-in tracing: wrap the program's public functions from the outside.

The program is never edited.  `Tracer.install` replaces each public
function of the traced modules by a wrapper in every `signalshift` module
that holds it (a `from … import` binds the name in the importer too), and
patches the listed methods on their classes.  A traced call records a span
(name, start, end, parent) in memory; the spans are written out when the
run ends.  `uninstall` puts every original back.

In counting mode only the calls of `COUNTED` are counted, without spans or
clock reads; the end-to-end metrics are measured in that mode.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import statistics
import sys
import time
from collections import Counter

MODULES = ("intersection", "network", "dqn", "meta", "scenarios", "metrics",
           "harness", "config")
# Methods patched on the class; a span is named `<module>.<Class>.<method>`,
# or `<module>.<Class>` for `__call__`.
METHODS = {"dqn": {"ReplayMemory": ("sample", "push"), "GreedyPolicy": ("__call__",)}}
# Work counters of the end-to-end metrics: a decision is one `step`, a TD
# update one `bellman_grads`.
COUNTED = {"intersection.step": "decisions", "network.bellman_grads": "td_updates"}


def _observe_clip(counters, args, kwargs, result):
    # clip_gradients returns its input untouched unless it rescaled it.
    grads = args[0] if args else kwargs.get("grads")
    if result is not grads:
        counters["network.clip_gradients.clipped"] += 1


def _observe_flow(counters, args, kwargs, result):
    flow = args[1] if len(args) > 1 else kwargs.get("flow")
    counters["intersection.vehicles"] += len(flow.arrivals)


def _observe_episodes(counters, args, kwargs, result):
    hyper = args[2] if len(args) > 2 else kwargs.get("hyper")
    counters["dqn.train_dqn.episodes"] += hyper.episodes


def _observe_iterations(counters, args, kwargs, result):
    hyper = args[2] if len(args) > 2 else kwargs.get("hyper")
    counters["meta.train_metalight.iterations"] += hyper.meta_iterations


# Extra per-call counters, read from the call's arguments and result.
OBSERVERS = {"network.clip_gradients": _observe_clip,
             "intersection.initial_state": _observe_flow,
             "dqn.train_dqn": _observe_episodes,
             "meta.train_metalight": _observe_iterations}


def _public_functions(module):
    for attr, obj in vars(module).items():
        if (not attr.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield attr, obj


class Tracer:
    """Spans and counters of one run; `trace=False` only counts `COUNTED`."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.spans: list = []        # (name, start_ns, end_ns, parent index or -1)
        self.counters: Counter = Counter()
        self.wrapped: set[str] = set()
        self._stack: list[int] = []
        self._undo: list = []

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        observer = OBSERVERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if observer is not None:
                observer(counters, args, kwargs, result)
            return result
        return traced

    def _count_wrapper(self, name, fn):
        counters, key = self.counters, COUNTED[name]

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)
        return counted

    # -- patching -----------------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "signalshift" and not mod_name.startswith("signalshift."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def install(self) -> None:
        for mod_short in MODULES:
            module = importlib.import_module(f"signalshift.{mod_short}")
            for attr, fn in _public_functions(module):
                name = f"{mod_short}.{attr}"
                if self.trace:
                    self._replace_everywhere(fn, self._span_wrapper(name, fn))
                elif name in COUNTED:
                    self._replace_everywhere(fn, self._count_wrapper(name, fn))
                else:
                    continue
                self.wrapped.add(name)
            if not self.trace:
                continue
            for cls_name, methods in METHODS.get(mod_short, {}).items():
                cls = getattr(module, cls_name, None)
                for method in methods:
                    fn = getattr(cls, "__dict__", {}).get(method)
                    if not inspect.isfunction(fn):
                        continue
                    name = f"{mod_short}.{cls_name}"
                    if method != "__call__":
                        name += f".{method}"
                    setattr(cls, method, self._span_wrapper(name, fn))
                    self._undo.append((cls, method, fn))
                    self.wrapped.add(name)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        """All spans as gzip CSV: id,parent,name,start_ns,end_ns."""
        with gzip.open(path, "wt") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start},{end}\n")


def span_stats(spans, first: int, last: int) -> dict[str, dict]:
    """Per span name over spans[first:last]: durations and self times in ns.

    A span's self time is its duration minus the durations of its direct
    children; spans in the range have their parents in the range or none.
    """
    child_ns = Counter()
    for name, start, end, parent in spans[first:last]:
        if parent >= first:
            child_ns[parent] += end - start
    stats: dict[str, dict] = {}
    for i in range(first, last):
        name, start, end, _ = spans[i]
        entry = stats.setdefault(name, {"dur": [], "self": []})
        entry["dur"].append(end - start)
        entry["self"].append(end - start - child_ns[i])
    return stats


def percentile(values, q: float) -> float:
    """Quantile q in (0, 1) by linear interpolation; 0.0 for no samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return float(cuts[round(q * 100) - 1])
