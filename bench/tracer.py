"""Span tracing of hexband's public functions, from outside the package.

While installed, every function named in a module's ``__all__`` is replaced,
in every hexband module that holds a reference to it, by a wrapper that
records a span: name, start, end, parent span and operation id.  Call counts
and self time (a span's duration minus the time its child spans cover) are
accumulated as spans close; span records are kept in memory, up to a cap,
and written out when the run ends.  ``remove`` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter

LAYERS = ("core", "bands", "gaps", "numtheory", "oracle", "report", "cli")

# cli has no __all__; its public function is the length grammar.
_EXTRA_PUBLIC = {"cli": ("parse_length",)}

SPAN_CAP = 200_000


class Tracer:
    def __init__(self, span_cap: int = SPAN_CAP):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.pairs: Counter = Counter()  # (parent name id, name id) -> calls
        self.counters: Counter = Counter()
        self.spans: list[tuple] = []
        self.span_cap = span_cap
        self.dropped = 0
        self.op_id = -1
        self._stack: list[list] = []
        self._next_span = 0
        self._patches: list[tuple] = []
        self._command = self._name_id("cli.command")

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return nid

    def name_id(self, name: str) -> int | None:
        return self._ids.get(name)

    # -- spans -------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id

    def _call(self, nid: int, fn, args, kwargs, hook=None):
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = [self._next_span, nid, 0, 0]  # span id, name id, start, child ns
        self._next_span += 1
        token = hook[0](args, kwargs) if hook is not None else None
        stack.append(frame)
        frame[2] = start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            duration = end - start
            self.self_ns[nid] += duration - frame[3]
            self.calls[nid] += 1
            if parent is not None:
                parent[3] += duration
                self.pairs[(parent[1], nid)] += 1
            if len(self.spans) < self.span_cap:
                self.spans.append((frame[0], nid, start, end,
                                   parent[0] if parent is not None else -1, self.op_id))
            else:
                self.dropped += 1
        if hook is not None:
            hook[1](self, token, args, kwargs, result, parent[1] if parent is not None else None)
        return result

    def command(self, fn):
        """Run one CLI invocation inside a ``cli.command`` span."""
        return self._call(self._command, fn, (), {})

    # -- installing --------------------------------------------------------

    def install(self, hooks: dict | None = None) -> None:
        """Wrap the public functions of every layer wherever they are bound."""
        hooks = hooks or {}
        package = importlib.import_module("hexband")
        modules = [package] + [importlib.import_module(f"hexband.{layer}") for layer in LAYERS]
        originals = {}
        for layer, module in zip(LAYERS, modules[1:]):
            names = list(getattr(module, "__all__", ())) + list(_EXTRA_PUBLIC.get(layer, ()))
            for name in names:
                fn = getattr(module, name, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    originals[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn, hooks))
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patches.append((module, attr, value))

    def _wrap(self, name: str, fn, hooks):
        nid = self._name_id(name)
        hook = hooks.get(name)
        call = self._call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(nid, fn, args, kwargs, hook)

        return wrapper

    def remove(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def calls_of(self, name: str) -> int:
        nid = self.name_id(name)
        return self.calls[nid] if nid is not None else 0

    def self_s(self, name: str) -> float:
        nid = self.name_id(name)
        return self.self_ns[nid] * 1e-9 if nid is not None else 0.0

    def pair_calls(self, parent: str, child: str) -> int:
        p, c = self.name_id(parent), self.name_id(child)
        if p is None or c is None:
            return 0
        return self.pairs[(p, c)]

    def write(self, path) -> None:
        """Write the recorded spans as JSON lines, a header line first."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "spans": len(self.spans),
                                 "dropped": self.dropped,
                                 "fields": ["span", "name", "start_ns", "end_ns", "parent", "op"]})
                     + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
