"""Per-layer tracing of a package from outside its source.

A :class:`Tracer` wraps every public function defined in each layer module
of a package (a name without a leading underscore whose ``__module__`` is
that module) and rebinds the wrapper under every name that refers to the
original in any module of the package.  Aliases matter: ``harness`` calls
``mle_estimate`` through its own ``from .estimators import`` binding, so
patching ``estimators.mle_estimate`` alone would leave those calls untimed.

Each call is a span.  A span's self time is its duration minus the time
covered by the spans it called; inclusive time is counted only for the
outermost active call of a function, so recursion is not counted twice.
``uninstall`` restores every binding it changed.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict


class Tracer:
    """Self time, inclusive time and call counts per ``layer.function``.

    ``meters`` maps a ``layer.function`` key to ``(counter, fn)``; after each
    call ``fn(result)`` is added to ``counters[counter]``.
    """

    def __init__(self, package: str, layers, clock=time.perf_counter, meters=None):
        self.package = package
        self.layers = tuple(layers)
        self.clock = clock
        self.meters = dict(meters or {})
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(int)
        self.wrapped: list[str] = []
        self.missing_layers: list[str] = []
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for layer in self.layers:
            try:
                module = importlib.import_module(f"{self.package}.{layer}")
            except ImportError:
                self.missing_layers.append(layer)
                continue
            for name, obj in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
                    self.wrapped.append(f"{layer}.{name}")
        prefix = self.package + "."
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == self.package or mod_name.startswith(prefix)):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
        return self

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def report(self) -> dict:
        """Per-function and per-layer totals, counters and what was wrapped."""
        layers = {layer: {"self_s": 0.0, "calls": 0} for layer in self.layers}
        for key, calls in self.calls.items():
            layer = layers[key.split(".", 1)[0]]
            layer["self_s"] += self.self_s[key]
            layer["calls"] += calls
        functions = {key: {"self_s": self.self_s[key], "incl_s": self.incl_s[key],
                           "calls": calls} for key, calls in self.calls.items()}
        return {"layers": layers, "functions": functions,
                "counters": dict(self.counters), "wrapped": list(self.wrapped),
                "missing_layers": list(self.missing_layers)}

    def _wrap(self, key: str, func):
        clock, stack = self.clock, self._stack
        self_s, incl_s, calls = self.self_s, self.incl_s, self.calls
        meter = self.meters.get(key)
        active = [0]

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            active[0] += 1
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                active[0] -= 1
                if stack:
                    stack[-1][0] += elapsed
                if not active[0]:
                    incl_s[key] += elapsed
                self_s[key] += elapsed - frame[0]
                calls[key] += 1
            if meter is not None:
                self.counters[meter[0]] += meter[1](result)
            return result

        return wrapper
