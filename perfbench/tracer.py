"""Spans recorded from outside the program, around calls into hprop's layers.

The tracer replaces public functions and methods of the ``hprop`` modules
with thin wrappers that record one span per call: name, start, end and the
span that was open when the call began.  A function imported by name into
another module is patched in every module namespace that holds it, so the
binding each caller actually looks up is the one that records.  Spans stay
in memory until the run ends and are then written out as JSON lines.

Hooks whose target does not exist (a later version of the program renamed
or removed it) are skipped and listed in ``Tracer.missing``; the layer then
reports zero work instead of the run failing.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Callable

# Span names are "<layer>.<what>"; the layer is the hprop module name.
LAYERS = ("index_set", "hermite_basis", "potential_approx", "fast_apply",
          "galerkin_oracle", "error_lab", "krylov_propagator", "cli")

# Spans the benchmark itself opens around its own units of work.
BENCH_SETUP = "bench.setup"
BENCH_UNIT = "bench.unit"
OBSERVE = "trace.observe"

Observer = Callable[["Tracer", tuple, dict, object], object]


class Tracer:
    """In-memory span recorder with patch/unpatch of hprop callables."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.t0 = perf_counter()
        # one record per span: [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        # per-hook observations collected by observers (counts, sizes, ...)
        self.notes: dict[str, list] = {}

    # -- recording ------------------------------------------------------------

    def begin(self, name: str) -> list:
        rec = [name, perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    def note(self, key: str, value) -> None:
        self.notes.setdefault(key, []).append(value)

    def wrap(self, fn: Callable, name: str,
             observe: Observer | None = None) -> Callable:
        """A callable that records a span around each call of ``fn``.

        ``observe`` runs after the span has closed, inside a span of its own
        so that its cost is not charged to the caller's self time; its return
        value replaces the result (this is how returned closures get wrapped).
        """
        tracer = self

        def traced(*args, **kwargs):
            rec = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(rec)
            if observe is None:
                return result
            obs = tracer.begin(OBSERVE)
            try:
                return observe(tracer, args, kwargs, result)
            finally:
                tracer.end(obs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- patching -------------------------------------------------------------

    def install(self, hooks) -> None:
        """Patch every hook ``(module, attribute path, span name, observer)``.

        Module-level functions are replaced in every ``hprop`` module that
        binds the same object; methods are replaced on their class.
        """
        for module_name, path, name, observe in hooks:
            module = sys.modules.get(module_name)
            owner, attr = module, path
            if module is not None and "." in path:
                cls_name, attr = path.split(".", 1)
                owner = getattr(module, cls_name, None)
            original = None if owner is None else \
                vars(owner).get(attr) if isinstance(owner, type) \
                else getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapper = self.wrap(original, name, observe)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", "")
                if mod_name != "hprop" and not mod_name.startswith("hprop."):
                    continue
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    @contextmanager
    def recording(self, hooks, name: str):
        """Hooks installed and one enclosing span open for the block."""
        self.install(hooks)
        rec = self.begin(name)
        try:
            yield
        finally:
            self.end(rec)
            self.uninstall()

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "run": self.run_id, "id": i, "parent": parent,
                    "name": name, "start": start - self.t0,
                    "end": end - self.t0}) + "\n")


class SpanTable:
    """Derived per-span quantities: duration, self time, enclosing spans."""

    def __init__(self, spans: list[list]):
        n = len(spans)
        self.spans = spans
        self.duration = [end - start for _, start, end, _ in spans]
        child = [0.0] * n
        for i, (_, _, _, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += self.duration[i]
        # single-threaded calls nest strictly, so the direct children of a
        # span never overlap and their durations add up to the time they cover
        self.self_time = [d - c for d, c in zip(self.duration, child)]

    def layer(self, i: int) -> str:
        return self.spans[i][0].split(".", 1)[0]

    def inside(self, names) -> list[bool]:
        """Per span: whether it or an enclosing span has one of ``names``."""
        names = set(names)
        flags: list[bool] = []
        for name, _, _, parent in self.spans:
            # parents are recorded before their children
            flags.append(name in names or (parent >= 0 and flags[parent]))
        return flags

    def total(self, name: str, where=None) -> float:
        return sum(d for i, d in enumerate(self.duration)
                   if self.spans[i][0] == name and (where is None or where[i]))

    def count(self, name: str, where=None) -> int:
        return sum(1 for i, rec in enumerate(self.spans)
                   if rec[0] == name and (where is None or where[i]))

    def durations(self, name: str) -> list[float]:
        return [d for i, d in enumerate(self.duration)
                if self.spans[i][0] == name]

    def layer_self(self, layer: str, where=None) -> float:
        return sum(s for i, s in enumerate(self.self_time)
                   if self.layer(i) == layer and (where is None or where[i]))
