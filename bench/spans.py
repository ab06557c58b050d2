"""Tracing of censet's layers, installed from outside the package.

``Instrumentation`` wraps every public function of the traced modules (plus
the two private CLI helpers that read input and emit reports) and rebinds
each wrapper at *every* module binding of the original function: the
defining module, modules that imported the name (``cli.summarize``,
``simulate.worst_case_risk``, ...), the package namespace, and dict values
such as the CLI's handler table.  ``SetGeometry.censored_ids`` is a cached
property; its compute function is wrapped, so each cache miss is one call.

Each wrapped call is a span.  The tracer keeps aggregates in memory rather
than one record per span (the simulate workload makes ~10^6 calls): per
(command, layer) the call count and self time, which is the span's duration
minus the durations of the wrapped calls made inside it, and per
(command, parent layer, layer) the number of calls.

``profile_call_counts`` counts calls by code object with ``sys.setprofile``,
which sees every call whatever binding it went through; comparing it with
the wrapper counts on a small run shows that no binding was missed.
"""

from __future__ import annotations

import functools
import importlib
import sys
import types
from collections import Counter
from time import perf_counter

TRACED_MODULES = (
    "observation",
    "identified_set",
    "minimax",
    "normalized",
    "reference",
    "simulate",
    "cli",
)
# private functions traced under a layer name of their own
PRIVATE_LAYERS = {
    ("cli", "_read_text"): "cli.read_input",
    ("cli", "_emit"): "cli.emit",
}
CENSORED_IDS = "identified_set.censored_ids"


class Tracer:
    def __init__(self):
        self.command = None
        self._stack: list[list] = []
        self.stats: dict[tuple[str, str], list] = {}
        self.edges: Counter = Counter()

    def reset(self) -> None:
        self.stats.clear()
        self.edges.clear()

    def wrap(self, label: str, func):
        stack = self._stack
        stats = self.stats
        edges = self.edges

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [label, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                key = (self.command, label)
                entry = stats.get(key)
                if entry is None:
                    entry = stats[key] = [0, 0.0]
                entry[0] += 1
                entry[1] += duration - frame[1]
                edges[(self.command, parent, label)] += 1

        return traced

    def totals(self, command: str | None = None) -> dict[str, list]:
        """Per-layer [calls, self seconds], for one command or all of them."""
        out: dict[str, list] = {}
        for (cmd, label), (calls, self_s) in self.stats.items():
            if command is None or cmd == command:
                entry = out.setdefault(label, [0, 0.0])
                entry[0] += calls
                entry[1] += self_s
        return out

    def edge_calls(self, parent: str, label: str) -> int:
        return sum(n for (_, p, l), n in self.edges.items() if p == parent and l == label)


def _targets(modules) -> dict:
    """Original function -> layer label for every traced function."""
    targets = {}
    for short, module in modules.items():
        for name, obj in vars(module).items():
            if not isinstance(obj, types.FunctionType) or obj.__module__ != module.__name__:
                continue
            if name.startswith("_"):
                label = PRIVATE_LAYERS.get((short, name))
                if label is None:
                    continue
            else:
                label = f"{short}.{name}"
            targets[obj] = label
    return targets


class Instrumentation:
    """Context manager that installs the tracer's wrappers and removes them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.modules = {
            short: importlib.import_module(f"censet.{short}") for short in TRACED_MODULES
        }
        self.targets = _targets(self.modules)
        self._geometry_cls = self.modules["identified_set"].SetGeometry
        self._censored_ids = self._geometry_cls.__dict__["censored_ids"]
        self._undo: list = []

    def code_labels(self) -> dict:
        """Code object -> label, for the profile cross-check."""
        labels = {f.__code__: label for f, label in self.targets.items()}
        labels[self._censored_ids.func.__code__] = CENSORED_IDS
        return labels

    def __enter__(self):
        wrappers = {f: self.tracer.wrap(label, f) for f, label in self.targets.items()}
        namespaces = [importlib.import_module("censet"), *self.modules.values()]
        for module in namespaces:
            for name, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._undo.append((setattr, module, name, obj))
                    setattr(module, name, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if isinstance(value, types.FunctionType) and value in wrappers:
                            self._undo.append((dict.__setitem__, obj, key, value))
                            obj[key] = wrappers[value]
        cls, original = self._geometry_cls, self._censored_ids
        prop = functools.cached_property(self.tracer.wrap(CENSORED_IDS, original.func))
        prop.__set_name__(cls, "censored_ids")
        self._undo.append((setattr, cls, "censored_ids", original))
        setattr(cls, "censored_ids", prop)
        return self.tracer

    def __exit__(self, *exc):
        while self._undo:
            restore, owner, key, value = self._undo.pop()
            restore(owner, key, value)
        return False


def profile_call_counts(code_labels: dict, run) -> Counter:
    """Calls per label seen by a profile hook while ``run()`` executes."""
    counts: Counter = Counter()

    def hook(frame, event, arg):
        if event == "call":
            label = code_labels.get(frame.f_code)
            if label is not None:
                counts[label] += 1

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counts
