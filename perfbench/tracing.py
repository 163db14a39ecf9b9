"""Spans around the public calls between convexcodes layers.

The program itself has no tracing hooks, so the traced run wraps, from
outside, every function one layer calls in another, in the namespace of
the calling module.  A span records name, start, end, parent span and
request id; spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter

# (module whose namespace is patched, names to wrap).  Each name is looked
# up in that module, so only calls that cross into another layer (or, for
# the package itself, calls made by the benchmark) are traced.
PATCH_POINTS = (
    ("convexcodes", ("decide", "analyze", "atlas_rows", "write_atlas_csv")),
    ("convexcodes.cli", (
        "main", "analyze", "decide", "build_realization", "verify_realization",
        "classify_small_complex", "nerve", "atlas_rows", "write_atlas_csv",
    )),
    # decide is wrapped here too, for analyze() and the component recursion
    ("convexcodes.decider", (
        "decide", "has_local_obstruction", "mandatory_faces", "minimal_code", "nerve",
        "classify_small_complex", "find_sprocket", "canonical_l24_sprocket",
    )),
    # analyze() imports the builders from here at call time
    ("convexcodes.realize", ("build_realization", "verify_realization")),
    ("convexcodes.realize.builders", ("decide", "minimal_code", "nerve", "classify_small_complex")),
    ("convexcodes.wheels", ("nerve", "classify_small_complex")),
    ("convexcodes.atlas", (
        "canonicalize", "decide", "minimal_code", "nerve", "classify_small_complex",
        "enumerate_facet_antichains",
    )),
)

LAYERS = ("codes", "topology", "wheels", "decider", "realize", "atlas", "cli")


def _layer_of(fn) -> str:
    parts = fn.__module__.split(".")
    return parts[1] if len(parts) > 1 else parts[0]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, request id]
        self.stack = []
        self.request = None
        self.outcomes = Counter()
        self._wrapped = {}

    def install(self) -> None:
        for module_name, names in PATCH_POINTS:
            module = importlib.import_module(module_name)
            for name in names:
                setattr(module, name, self._wrapper(getattr(module, name)))

    def _wrapper(self, fn):
        fn = getattr(fn, "__wrapped__", fn)
        if fn in self._wrapped:
            return self._wrapped[fn]
        name = f"{_layer_of(fn)}.{fn.__name__}"
        note = _OUTCOMES.get(fn.__name__)
        wrapper = self._generator_wrapper(fn, name) if name == "atlas.enumerate_facet_antichains" \
            else self._call_wrapper(fn, name, note)
        self._wrapped[fn] = wrapper
        return wrapper

    def _open(self, name) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.request])
        self.stack.append(index)
        return index

    def _close(self, index) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def _call_wrapper(self, fn, name, note):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if note is not None:
                self.outcomes[f"{name}.{note(result)}"] += 1
            return result

        return traced

    def _generator_wrapper(self, fn, name):
        # one span per item, so the consumer's work between items is not counted
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                index = self._open(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self._close(index)
                self.outcomes[f"{name}.items"] += 1
                yield item

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request,
                }) + "\n")

    def summary(self) -> dict:
        """Calls, time and self time per span name, self time per layer, in seconds.

        A span inside another of the same name (decide recursing into the
        components of a code) counts as a call but not again as time.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _req in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total = Counter()
        calls = Counter()
        self_by_name = Counter()
        for i, (name, start, end, parent, _req) in enumerate(self.spans):
            calls[name] += 1
            self_by_name[name] += end - start - child_time[i]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                total[name] += end - start
        self_time = Counter()
        for name, seconds in self_by_name.items():
            self_time[name.split(".")[0]] += seconds
        return {"total": total, "calls": calls, "self": self_time,
                "self_by_name": self_by_name, "outcomes": self.outcomes}


def _decide_branch(result) -> str:
    _verdict, certs = result
    return certs[0].kind if certs else "none"


_OUTCOMES = {
    "decide": _decide_branch,
    "find_sprocket": lambda cand: "found" if cand is not None else "none",
    "build_realization": lambda built: "covered" if built is not None else "none",
}
