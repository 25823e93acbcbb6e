"""In-memory span tracing of signforge's layers, installed from outside.

Every public module-level function of each layer module is replaced by a
wrapper that records one span per call: its function, start, end, parent
span and the item it ran for.  Copies of those functions that other
modules imported by name (``criticality.frustration_index``,
``enumeration.canonical_form``, the package re-exports, ...) are replaced
too, so nested calls get spans.  No file of the library changes; the
wrappers are removed again by ``uninstall``.

Spans are kept in flat arrays (a few tens of bytes each) and written out
only when the run ends.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import time
from array import array

LAYERS = ("core", "frustration", "criticality", "cycles", "structure",
          "planar", "enumeration", "constructions", "catalog")

# Modules whose by-name imports of layer functions are patched as well;
# they are not layers themselves.
_OTHER_MODULES = ("acceptance", "cli")

PACKAGE = "signforge"
ITEM = "bench.item"  # the span the benchmark opens around each item
SETUP = "bench.setup"


class Tracer:
    """Owns the span arrays and the wrappers installed into signforge."""

    def __init__(self):
        self.names: list = []          # function id -> qualified name
        self._ids: dict = {}
        self.fn = array("i")           # per span: function id
        self.parent = array("i")       # per span: parent span index or -1
        self.item = array("i")         # per span: item index or -1
        self.start = array("d")
        self.end = array("d")
        self.notes: dict = {}          # span index -> integer note
        self.refused: set = set()      # spans whose own call a guard refused
        self._stack: list = []
        self._current_item = -1
        self._patches: list = []       # (namespace, attribute, original)
        self._guard_exc = importlib.import_module(
            f"{PACKAGE}.errors").GuardExceeded

    # -- recording -------------------------------------------------------

    def function_id(self, name: str) -> int:
        fid = self._ids.get(name)
        if fid is None:
            fid = self._ids[name] = len(self.names)
            self.names.append(name)
        return fid

    def open(self, fid: int) -> int:
        idx = len(self.fn)
        self.fn.append(fid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(self._current_item)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, item: int = -1):
        """A benchmark-side span (an item, the set-up)."""
        self._current_item = item
        idx = self.open(self.function_id(name))
        try:
            yield
        finally:
            self.close(idx)
            self._current_item = -1

    def _wrap(self, qualname: str, func, note):
        fid = self.function_id(qualname)
        guard_exc = self._guard_exc
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = tracer.open(fid)
            try:
                result = func(*args, **kwargs)
            except guard_exc as exc:
                # count the refusal once, at the innermost wrapped function
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    tracer.refused.add(idx)
                raise
            finally:
                tracer.close(idx)
            if note is not None:
                tracer.notes[idx] = note(args, kwargs, result)
            return result

        return wrapper

    # -- installing ------------------------------------------------------

    def install(self, notes: dict = None) -> None:
        """Wrap every public function of every layer module.

        notes maps a qualified name (``frustration.frustration_index``) to
        ``f(args, kwargs, result) -> int``, evaluated after the call
        returns and stored with its span.
        """
        notes = notes or {}
        originals = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                qual = f"{layer}.{name}"
                originals[id(obj)] = self._wrap(qual, obj, notes.get(qual))
        namespaces = [importlib.import_module(PACKAGE)]
        namespaces += [importlib.import_module(f"{PACKAGE}.{m}")
                       for m in LAYERS + _OTHER_MODULES]
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None:
                    self._patches.append((ns, name, obj))
                    setattr(ns, name, wrapper)

    def uninstall(self) -> None:
        for ns, name, obj in reversed(self._patches):
            setattr(ns, name, obj)
        self._patches.clear()

    # -- analysis --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.fn)

    def self_times(self, spans: range) -> dict:
        """Span index -> duration minus its direct children's durations."""
        child = {}
        for i in spans:
            p = self.parent[i]
            if p >= 0:
                child[p] = child.get(p, 0.0) + (self.end[i] - self.start[i])
        return {i: (self.end[i] - self.start[i]) - child.get(i, 0.0)
                for i in spans}

    def has_ancestor(self, i: int, fids: set) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.fn[p] in fids:
                return True
            p = self.parent[p]
        return False

    def write(self, path, spans: range, item_labels: list) -> None:
        """Write spans as gzip'd tab-separated lines."""
        t0 = self.start[spans.start] if len(spans) else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("span\tparent\titem\tname\tstart_s\tend_s\n")
            for i in spans:
                it = self.item[i]
                label = item_labels[it] if 0 <= it < len(item_labels) else "setup"
                out.write(f"{i}\t{self.parent[i]}\t{label}\t"
                          f"{self.names[self.fn[i]]}\t"
                          f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n")


def layer_of(qualname: str) -> str:
    return qualname.split(".", 1)[0]

