"""Outside-in span recorder for the gaplab modules.

``Tracer.install()`` wraps every function and method defined in the nine
gaplab modules, in every gaplab namespace that binds it (``runner`` binds
``gap_phase_matrix`` and friends by ``from .dynamics import ...``, so
patching only the defining module would miss the hot calls), plus scipy's
``quad`` as bound in ``gaplab.moments``.  Each call becomes a span
(name, thread, start, end, parent) on a per-thread stack; spans stay in
memory until ``write``.

Thread pools: every callable handed to a ``ThreadPoolExecutor`` runs in a
``<layer>.pool_task`` span on its worker thread, charged to the layer that
submitted it, and time a thread spends blocked in ``Future.result`` is a
``<layer>.pool_wait`` span.  Wait spans count as children of the waiting
span but belong to no layer, so a layer's busy time excludes its waits.
"""

from __future__ import annotations

import concurrent.futures
import functools
import inspect
import json
import threading
import time

LAYERS = ("linalg", "spectra", "sampling", "moments", "dynamics", "scenarios", "runner", "jsonio", "cli")

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers = []  # one span list per thread
        self._names = []  # span name by id
        self._layer_of = []  # layer by span name id (None for waits)
        self._ids = {}

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str, layer) -> int:
        with self._lock:
            if name not in self._ids:
                self._ids[name] = len(self._names)
                self._names.append(name)
                self._layer_of.append(layer)
            return self._ids[name]

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.spans = []
            local.thread = threading.get_ident()
            with self._lock:
                self._buffers.append(local.spans)
        return local

    def current_layer(self) -> str | None:
        state = self._thread_state()
        if not state.stack:
            return None
        return self._layer_of[state.spans[state.stack[-1]][0]]

    def span(self, fn, name: str, layer):
        """Wrap ``fn`` so that each call records one span called ``name``."""
        nid = self._name_id(name, layer)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._thread_state()
            spans, stack = state.spans, state.stack
            record = [nid, state.thread, _clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = _clock()
                stack.pop()

        return traced

    # -- installation --------------------------------------------------------

    def install(self, package) -> None:
        """Patch the gaplab modules of ``package`` and the thread-pool hooks."""
        modules = {layer: getattr(package, layer) for layer in LAYERS if hasattr(package, layer)}
        wrapped = {}  # id(original function) -> wrapper
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped[id(obj)] = self.span(obj, f"{layer}.{obj.__name__}", layer)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer)
            quad = getattr(mod, "quad", None)
            if quad is not None and not inspect.isclass(quad) and getattr(quad, "__module__", "").startswith("scipy"):
                setattr(mod, "quad", self.span(quad, f"{layer}.quad", layer))
        for mod in [package, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    setattr(mod, attr, wrapped[id(obj)])
        self._install_pool_hooks()

    def _wrap_class(self, cls, layer) -> None:
        for attr, obj in list(cls.__dict__.items()):
            if attr.startswith("__") and attr != "__post_init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(obj):
                setattr(cls, attr, self.span(obj, name, layer))
            elif isinstance(obj, (staticmethod, classmethod)):
                setattr(cls, attr, type(obj)(self.span(obj.__func__, name, layer)))
            elif isinstance(obj, property) and obj.fget is not None:
                setattr(cls, attr, property(self.span(obj.fget, name, layer), obj.fset, obj.fdel, obj.__doc__))
            elif isinstance(obj, functools.cached_property):
                replacement = functools.cached_property(self.span(obj.func, name, layer))
                replacement.__set_name__(cls, attr)
                setattr(cls, attr, replacement)

    def _install_pool_hooks(self) -> None:
        tracer = self
        submit = concurrent.futures.ThreadPoolExecutor.submit
        result = concurrent.futures.Future.result

        def traced_submit(pool, fn, /, *args, **kwargs):
            layer = tracer.current_layer() or "unattributed"
            return submit(pool, tracer.span(fn, f"{layer}.pool_task", layer), *args, **kwargs)

        def traced_result(future, timeout=None):
            layer = tracer.current_layer() or "unattributed"
            return tracer.span(result, f"{layer}.pool_wait", None)(future, timeout)

        concurrent.futures.ThreadPoolExecutor.submit = traced_submit
        concurrent.futures.Future.result = traced_result

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: layer, calls, inclusive seconds and self seconds.

        Inclusive time counts only the outermost call of a name on a thread,
        so recursion is not double counted.  Self time is a span's duration
        minus the durations of its direct children.
        """
        out = {}
        with self._lock:
            buffers = [list(b) for b in self._buffers]
        for spans in buffers:
            child = [0.0] * len(spans)
            for rec in spans:
                if rec[4] >= 0:
                    child[rec[4]] += rec[3] - rec[2]
            for i, (nid, _, start, end, parent) in enumerate(spans):
                entry = out.setdefault(
                    self._names[nid], {"layer": self._layer_of[nid], "calls": 0, "s": 0.0, "self_s": 0.0}
                )
                entry["calls"] += 1
                entry["self_s"] += (end - start) - child[i]
                outer = True
                p = parent
                while p >= 0:
                    if spans[p][0] == nid:
                        outer = False
                        break
                    p = spans[p][4]
                if outer:
                    entry["s"] += end - start
        return out

    def write(self, path: str) -> None:
        """All spans as JSON: per thread, rows [name_id, thread, start, end, parent_row]."""
        with self._lock:
            threads = [list(spans) for spans in self._buffers]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self._names, "layers": self._layer_of, "threads": threads}, fh)
