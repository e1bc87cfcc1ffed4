"""Span tracer for the flatcover layers, installed from the benchmark's files.

`Tracer.install` replaces every function and method defined in the layer
modules by a wrapper that records one span per call: the function, its start
and end (perf_counter_ns), the enclosing span and the task id.  Copies made
by `from .x import name` in any flatcover module are re-bound as well, so a
call reaches the wrapper whichever name it goes through.  The library source
is not changed; `uninstall` restores every replaced attribute.

Spans are kept in flat arrays in memory and summarised (calls, self time,
work counts) when a pass ends.  Self time is a span's duration minus the
durations of its direct child spans.
"""
from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from array import array
from types import FunctionType

LAYER_MODULES = ("perms", "origami", "covers", "lshape", "cyclotomic",
                 "monodromy", "classify")

# Dunder methods that do real work in the layers (construction with
# validation, field and cycle arithmetic).  Other dunders are trivial
# (__call__, __eq__, __hash__, ...) and stay unwrapped so that the tracer
# does not swamp them; their time counts as their caller's self time.
WRAPPED_DUNDERS = frozenset({
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
    "__rmul__", "__neg__", "__truediv__", "__rtruediv__"})

# Work counted at a layer boundary: span name -> (stat, count(args, result)).
WORK_COUNTS = {
    "origami.sl2z_orbit_forms": ("members", lambda args, result: len(result)),
    "origami.symplectic_reduce": ("gram_dim", lambda args, result: len(args[0])),
    "monodromy.orbit_partition": ("vectors",
                                  lambda args, result: sum(map(len, result))),
    "monodromy.group_closure": ("elements", lambda args, result: len(result)),
}

SPAN_FIELDS = (("fid", "i"), ("parent", "i"), ("task", "i"),
               ("start_ns", "q"), ("end_ns", "q"))


class Tracer:
    """Records spans while `on` is true; `task` tags the spans of one task."""

    def __init__(self):
        self.on = False
        self.task = -1
        self.names: list[str] = []
        self.spans = {field: array(code) for field, code in SPAN_FIELDS}
        self.counts: dict[str, int] = {}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the layer modules of `package` and re-bind imported copies."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        replaced: dict[FunctionType, FunctionType] = {}
        for short in LAYER_MODULES:
            module = sys.modules[f"{package.__name__}.{short}"]
            own = [(attr, obj) for attr, obj in vars(module).items()
                   if getattr(obj, "__module__", None) == module.__name__]
            # module functions first, so that they keep the short names and a
            # method of the same name is qualified with its class
            for attr, obj in own:
                if inspect.isfunction(obj):
                    wrapper = self._wrap(obj, self._name(short, attr))
                    replaced[obj] = wrapper
                    self._patch(module, attr, wrapper)
            for attr, obj in own:
                if inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(short, obj)
        prefix = package.__name__
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == prefix or modname.startswith(prefix + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, FunctionType) and obj in replaced:
                    self._patch(module, attr, replaced[obj])

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def _wrap_class(self, short: str, cls) -> None:
        generated_init = dataclasses.is_dataclass(cls)
        for attr, member in list(vars(cls).items()):
            dunder = attr.startswith("__") and attr.endswith("__")
            if dunder and (attr not in WRAPPED_DUNDERS
                           or (attr == "__init__" and generated_init)):
                continue
            base = attr.strip("_") if dunder else attr
            if isinstance(member, (staticmethod, classmethod)):
                wrapper = self._wrap(member.__func__, self._name(short, base, cls))
                self._patch(cls, attr, type(member)(wrapper))
            elif inspect.isfunction(member):
                self._patch(cls, attr, self._wrap(member, self._name(short, base, cls)))

    def _name(self, short: str, attr: str, cls=None) -> str:
        name = f"{short}.{attr}"
        if name in self.names and cls is not None:
            name = f"{short}.{cls.__name__}.{attr}"
        if name in self.names:
            raise RuntimeError(f"duplicate span name {name}")
        return name

    def _patch(self, target, attr: str, value) -> None:
        self._patches.append((target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    def _wrap(self, fn, name: str):
        fid = len(self.names)
        self.names.append(name)
        counter = WORK_COUNTS.get(name)
        stat_key = f"{name}.{counter[0]}" if counter else None
        tracer = self
        stack = self._stack
        fids, parents, tasks = (self.spans["fid"], self.spans["parent"],
                                self.spans["task"])
        starts, ends = self.spans["start_ns"], self.spans["end_ns"]
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            sid = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            tasks.append(tracer.task)
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if counter is not None:
                tracer.counts[stat_key] = (tracer.counts.get(stat_key, 0)
                                           + counter[1](args, result))
            return result

        return traced

    # -- results -----------------------------------------------------------

    def clear(self) -> None:
        for arr in self.spans.values():
            del arr[:]
        self.counts = {}

    def work_stats(self) -> list[str]:
        """Names of the work counts `summary` can report."""
        return [f"{span}.{stat}" for span, (stat, _) in WORK_COUNTS.items()]

    def span_count(self) -> int:
        return len(self.spans["fid"])

    def summary(self) -> dict:
        """Per span name: calls and self time in seconds, plus work counts,
        the time covered by top-level spans, and the canonical forms computed
        under `sl2z_orbit_forms`."""
        fids, parents = self.spans["fid"], self.spans["parent"]
        starts, ends = self.spans["start_ns"], self.spans["end_ns"]
        n = len(fids)
        dur = [e - s for s, e in zip(starts, ends)]
        child = [0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        orbit_fid = self.names.index("origami.sl2z_orbit_forms")
        canon_fid = self.names.index("origami.canonical_form")
        under_orbit = bytearray(n)
        canon_in_orbit = 0
        top_ns = 0
        for i in range(n):
            f = fids[i]
            p = parents[i]
            calls[f] += 1
            self_ns[f] += dur[i] - child[i]
            if p < 0:
                top_ns += dur[i]
            elif under_orbit[p] or fids[p] == orbit_fid:
                under_orbit[i] = 1
                if f == canon_fid:
                    canon_in_orbit += 1
        return {
            "functions": {name: {"calls": calls[f], "self_s": self_ns[f] / 1e9}
                          for f, name in enumerate(self.names) if calls[f]},
            "counts": dict(self.counts),
            "top_level_s": top_ns / 1e9,
            "canonical_forms_in_orbits": canon_in_orbit,
            "spans": n,
        }

    def write_spans(self, path) -> dict:
        """Write the span arrays back to back to `path`; returns the layout."""
        with open(path, "wb") as fh:
            for field, _ in SPAN_FIELDS:
                self.spans[field].tofile(fh)
        return {"file": str(path.name), "count": self.span_count(),
                "fields": [[field, code, self.spans[field].itemsize]
                           for field, code in SPAN_FIELDS],
                "names": list(self.names)}
