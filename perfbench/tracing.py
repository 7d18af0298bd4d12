"""Per-layer spans for pomest, recorded from outside the package.

``Tracer.install`` replaces each public function of a traced module, and each
public method (plus ``__init__`` / ``__post_init__``) of its public classes,
with a wrapper that records one span per call.  A function is replaced at
every module attribute of the package that refers to it, so a call through a
name imported elsewhere (``relations`` calls ``probabilities`` by its own
binding) is traced as well.  ``uninstall`` puts every original back.

A span is ``(name, start, end, parent, op_id, error)``; ``parent`` is the
index of the enclosing span in ``Tracer.spans`` or -1.  Spans stay in memory
until the caller writes them out.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
import types
from collections import defaultdict

PACKAGE = "pomest"
LAYERS = ("operators", "fock", "pom", "estimation", "relations", "scenarios", "sampling", "cli")

# Function-level per-layer metrics, on top of <layer>.calls/.self_s/.errors.
FUNCTION_METRICS = (
    "fock.displacement.calls",
    "fock.displacement.self_s",
    "fock.coherent_amplitudes.self_s",
    "pom.imageband_pom.self_s",
    "pom.coherent_pom.self_s",
    "estimation.probabilities.calls",
    "estimation.probabilities.self_s",
    "estimation.optimal_estimate.calls",
    "estimation.optimal_estimate.self_s",
    "estimation.statistical_deviation.calls",
    "estimation.statistical_deviation.self_s",
    "estimation.estimate_stats.self_s",
    "estimation.optimal_estimate_no_info.self_s",
    "relations.heterodyne_analysis.calls",
    "relations.heterodyne_analysis.self_s",
    "relations.check_uncanon.self_s",
    "relations.check_geom.self_s",
    "relations.check_accbound.self_s",
    "relations.check_ungen.self_s",
    "scenarios.epr_numeric.self_s",
)

_KEPT_DUNDERS = ("__init__", "__post_init__")


def _traceable(name: str, fn) -> bool:
    # A generator's work runs after the call returns, outside any span, so it
    # is left to its caller's self time.
    return (isinstance(fn, types.FunctionType) and not inspect.isgeneratorfunction(fn)
            and (not name.startswith("_") or name in _KEPT_DUNDERS))


def _targets():
    """Yield (span name, owning class or None, attribute, original) to wrap."""
    for layer in LAYERS:
        module = sys.modules[f"{PACKAGE}.{layer}"]
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if _traceable(name, obj):
                yield f"{layer}.{name}", None, name, obj
            elif isinstance(obj, type) and not issubclass(obj, BaseException):
                for attr, member in list(vars(obj).items()):
                    if _traceable(attr, getattr(member, "__func__", member)):
                        yield f"{layer}.{name}.{attr}", obj, attr, member


class Tracer:
    """Records spans around pomest's public calls while installed."""

    def __init__(self):
        self.spans: list = []
        self.op_id = -1
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            error = False
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                error = True
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id, error)

        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for name, owner, attr, original in list(_targets()):
            if isinstance(original, (classmethod, staticmethod)):
                replacement = type(original)(self._wrap(name, original.__func__))
            else:
                replacement = self._wrap(name, original)
            if owner is not None:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, replacement)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: str):
        """Write the spans as gzipped tab-separated lines, one span per line."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top_id\terror\n")
            for name, start, end, parent, op_id, error in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{op_id}\t{int(error)}\n")


def self_times(spans) -> list:
    """Each span's duration minus the durations of its child spans.

    Calls are traced on one thread through a stack, so a span's children
    never overlap one another.
    """
    result = [end - start for _, start, end, *_rest in spans]
    for _, start, end, parent, *_rest in spans:
        if parent >= 0:
            result[parent] -= end - start
    return result


def layer_metrics(spans, n_ops: int) -> dict:
    """Per-op calls, self time and errors, per layer and for FUNCTION_METRICS."""
    totals = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        name, error = span[0], span[5]
        layer = name.split(".", 1)[0]
        for key in (layer, name):
            totals[f"{key}.calls"] += 1
            totals[f"{key}.self_s"] += own
            totals[f"{key}.errors"] += int(error)
    names = [f"{layer}.{kind}" for layer in LAYERS for kind in ("calls", "self_s", "errors")]
    names += FUNCTION_METRICS
    return {name: totals.get(name, 0.0) / n_ops for name in names}


def metric_unit(name: str) -> str:
    return "s" if name.endswith(".self_s") else "count"
