"""Outside-in per-layer tracing: host self time and object constructions.

Nothing in ``src/`` knows about this module. :class:`LayerTracer` patches,
from the outside, every public function and public method defined in each
layer's modules with a wrapper that charges the time spent inside it to
that layer. Time always goes to the innermost active layer, so each
layer's figure is its *self* time: a layer calling into another stops
being charged until the callee returns. Time outside every layer (this
benchmark, the experiment harness) is charged to ``other``; cyclic
collector pauses are charged to ``gc`` through ``gc.callbacks``, so no
layer absorbs a collection that merely happened to start inside it.

Generator functions -- the lock, barrier and fault paths the engine drives
-- are timed on every resume, not at creation: the wrapper is itself a
generator that forwards ``send``/``throw``/``close`` and charges each step.

The ``__init__`` of the per-page classes named in :data:`OBJECTS` is
wrapped to count constructions.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import pkgutil
import sys
from time import perf_counter

#: Layer name -> module prefixes. A module belongs to the layer with the
#: longest matching prefix.
LAYERS = {
    "sim": ("repro.sim",),
    "cache": ("repro.memory.cache", "repro.memory.layout"),
    "backing": ("repro.memory.backing",),
    "directory": ("repro.memory.directory",),
    "diff": ("repro.memory.diff", "repro.memory.storelog"),
    "compute_server": ("repro.core.compute_server", "repro.core.prefetcher"),
    "rtbatch": ("repro.core.rtbatch",),
    "memory_server": ("repro.core.memory_server",),
    "manager": ("repro.core.manager", "repro.core.control_plane",
                "repro.core.allocator", "repro.core.membership",
                "repro.core.placement"),
    "consistency": ("repro.core.consistency", "repro.core.regions"),
    "system": ("repro.core.system", "repro.core.protocol",
               "repro.core.params", "repro.core.invariants",
               "repro.checkpoint"),
    "interconnect": ("repro.interconnect",),
    "hardware": ("repro.hardware",),
    "faults": ("repro.faults",),
    "runtime": ("repro.runtime",),
    "kernels": ("repro.kernels",),
}

#: Every bucket self time is charged to.
BUCKETS = tuple(LAYERS) + ("gc", "other")

#: Per-page object classes whose constructions are counted.
OBJECTS = {
    "cache_entry": ("repro.memory.cache", "CacheEntry"),
    "byte_ranges": ("repro.memory.diff", "ByteRanges"),
    "page_frame": ("repro.memory.backing", "PageFrame"),
    "span_twin": ("repro.memory.diff", "SpanTwin"),
}


def layer_of(module_name: str) -> str | None:
    best, best_len = None, -1
    for layer, prefixes in LAYERS.items():
        for prefix in prefixes:
            if ((module_name == prefix or module_name.startswith(prefix + "."))
                    and len(prefix) > best_len):
                best, best_len = layer, len(prefix)
    return best


def _layer_modules() -> list:
    """Import every module of every layer (so lazily imported code is
    patched too) and return them."""
    names = set()
    for prefixes in LAYERS.values():
        for prefix in prefixes:
            module = importlib.import_module(prefix)
            names.add(prefix)
            if hasattr(module, "__path__"):
                for info in pkgutil.walk_packages(module.__path__, prefix + "."):
                    names.add(info.name)
    return [importlib.import_module(name) for name in sorted(names)]


class LayerTracer:
    """Self-time and construction counters for one traced process."""

    def __init__(self):
        self.self_s = dict.fromkeys(BUCKETS, 0.0)
        self.objects = dict.fromkeys(OBJECTS, 0)
        self._stack: list[str] = []
        self._current = "other"
        self._since = perf_counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- time accounting --------------------------------------------------
    def enter(self, layer: str) -> None:
        now = perf_counter()
        self.self_s[self._current] += now - self._since
        self._since = now
        self._stack.append(self._current)
        self._current = layer

    def exit(self) -> None:
        now = perf_counter()
        self.self_s[self._current] += now - self._since
        self._since = now
        self._current = self._stack.pop()

    def _on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self.enter("gc")
        else:
            self.exit()

    def snapshot(self) -> dict:
        """Self seconds per bucket so far (the current bucket included)."""
        now = perf_counter()
        self.self_s[self._current] += now - self._since
        self._since = now
        return dict(self.self_s)

    # -- wrappers ---------------------------------------------------------
    def _timed(self, fn, layer: str):
        enter, exit_ = self.enter, self.exit
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def resumes(*args, **kwargs):
                gen = fn(*args, **kwargs)
                value, error = None, None
                while True:
                    enter(layer)
                    try:
                        item = (gen.send(value) if error is None
                                else gen.throw(error))
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        exit_()
                    error = None
                    try:
                        value = yield item
                    except GeneratorExit:
                        gen.close()
                        raise
                    except BaseException as exc:  # forwarded into gen
                        error = exc
            return resumes

        @functools.wraps(fn)
        def call(*args, **kwargs):
            enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()
        return call

    def _counted(self, init, key: str):
        objects = self.objects

        @functools.wraps(init)
        def counted_init(obj, *args, **kwargs):
            objects[key] += 1
            init(obj, *args, **kwargs)
        return counted_init

    def _patch(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    # -- install / remove -------------------------------------------------
    def install(self) -> None:
        """Patch every layer's public functions and methods, rebind module
        globals that imported them by name, and hook the collector."""
        modules = _layer_modules()
        wrapped: dict[int, object] = {}
        for module in modules:
            layer = layer_of(module.__name__)
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and not name.startswith("_"):
                    wrapped[id(obj)] = self._timed(obj, layer)
                    self._patch(module, name, wrapped[id(obj)])
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(obj, layer, wrapped)
        # ``from x import f`` made other modules hold the original: rebind.
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for name, obj in list(vars(module).items()):
                replacement = wrapped.get(id(obj))
                if replacement is not None and module.__dict__[name] is not replacement:
                    self._patch(module, name, replacement)
        for key, (module_name, class_name) in OBJECTS.items():
            cls = getattr(sys.modules[module_name], class_name)
            self._patch(cls, "__init__", self._counted(cls.__init__, key))
        gc.callbacks.append(self._on_gc)

    def _wrap_class(self, cls, layer: str, wrapped: dict) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if isinstance(attr, (staticmethod, classmethod)):
                inner = attr.__func__
                wrapped[id(inner)] = self._timed(inner, layer)
                self._patch(cls, name, type(attr)(wrapped[id(inner)]))
            elif inspect.isfunction(attr):
                wrapped[id(attr)] = self._timed(attr, layer)
                self._patch(cls, name, wrapped[id(attr)])

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
