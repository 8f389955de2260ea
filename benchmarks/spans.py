"""In-memory spans around every call into the program's layers.

`instrument` wraps the public functions and methods of each loaded polquat
module by patching module and class attributes in the current process only;
no program file changes.  A span is (name, parent, start, end) and is kept
only while a benchmark operation span is open, so set-up and verification
calls never count.  `Tracer.aggregate` turns the spans into per-name counts,
self time (duration minus the time its child spans cover) and total time;
`Tracer.write` writes the raw spans out at the end of a run.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from array import array
from enum import Enum

import numpy as np

# polquat module -> layer name
LAYERS = {
    "polquat.quaternion": "quaternion",
    "polquat.signal": "signal",
    "polquat.components": "components",
    "polquat.shifter": "shifter",
    "polquat.cli": "cli",
    "polquat.checks": "checks",
    "polquat.jones": "jones",
}
OP_SPAN = "bench.op"
# dataclass-generated repr, comparison, hashing and frozen-attribute guards:
# boilerplate rather than layer work (`__init__` stays wrapped; it counts
# constructions)
_SKIPPED_METHODS = {"__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__",
                    "__getstate__", "__setstate__"}
MARK_SUFFIX = "!marked"


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.marks: dict = {}
        self._stack: list = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, mark=None):
        """fn recording one span per call made inside an operation.

        `mark(result)`, when given, counts the calls whose result it accepts
        under `name + MARK_SUFFIX`.
        """
        nid = self._intern(name)
        stack, ids, parents = self._stack, self.name_id, self.parent
        starts, ends, clock = self.start, self.end, time.perf_counter
        marks = self.marks

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if mark is not None and mark(result):
                marks[name] = marks.get(name, 0) + 1
            return result

        return traced

    @contextlib.contextmanager
    def op(self):
        """One benchmark operation: the root span its program calls nest in."""
        idx = len(self.start)
        self.name_id.append(self._intern(OP_SPAN))
        self.parent.append(-1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def aggregate(self) -> dict:
        """name -> [calls, self seconds, total seconds]; marks as name!marked."""
        return aggregate(self.names, self.name_id, self.parent, self.start, self.end,
                         self.marks)

    def write(self, path) -> None:
        """Raw spans: one JSON header line, then the parent, name_id, start and
        end arrays back to back in native byte order (readable with
        `array.fromfile`); start and end are perf_counter seconds."""
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": [["parent", self.parent.typecode], ["name_id", self.name_id.typecode],
                             ["start", self.start.typecode], ["end", self.end.typecode]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.parent, self.name_id, self.start, self.end):
                arr.tofile(fh)


def aggregate(names, name_id, parent, start, end, marks=None) -> dict:
    """Per span name: [calls, self seconds, total seconds].

    A span's self time is its duration minus the durations of its direct
    children; spans of one process nest strictly, so the children never
    overlap and their sum is the time they cover.
    """
    name_id = np.asarray(name_id, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    width = len(names)
    calls = np.bincount(name_id, minlength=width)
    self_s = np.bincount(name_id, weights=dur - covered, minlength=width)
    total_s = np.bincount(name_id, weights=dur, minlength=width)
    out = {name: [int(calls[i]), float(self_s[i]), float(total_s[i])]
           for i, name in enumerate(names) if calls[i]}
    for name, count in (marks or {}).items():
        out[name + MARK_SUFFIX] = [count, 0.0, 0.0]
    return out


def merge(into: dict, other: dict) -> dict:
    for name, (calls, self_s, total_s) in other.items():
        entry = into.setdefault(name, [0, 0.0, 0.0])
        entry[0] += calls
        entry[1] += self_s
        entry[2] += total_s
    return into


def _is_singular(solution) -> bool:
    return solution.classification.value != "regular"


# results worth counting: a solve that falls back to a singular family
MARKS = {"shifter.solve_angles": _is_singular}


def instrument(tracer: Tracer) -> None:
    """Wrap every function and method defined in each loaded polquat layer."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "polquat" or name.startswith("polquat.")]
    wrapped = {}
    for module in modules:
        layer = LAYERS.get(module.__name__)
        if layer is None:
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                name = f"{layer}.{attr}"
                wrapped[obj] = tracer.wrap(obj, name, MARKS.get(name))
            elif (inspect.isclass(obj) and obj.__module__ == module.__name__
                  and not issubclass(obj, Enum)):
                _instrument_class(tracer, obj, layer)
    # functions are shared by reference: `from .quaternion import _require_unit`
    # binds the same object in several modules, so rebind it everywhere
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, attr, wrapped[obj])
    checks = sys.modules.get("polquat.checks")
    if checks is not None:
        checks.CHECK_GROUPS = [(group, tracer.wrap(wrapped.get(fn, fn), f"checks.group.{group}"))
                               for group, fn in checks.CHECK_GROUPS]


def _instrument_class(tracer: Tracer, cls, layer: str) -> None:
    for attr, obj in list(vars(cls).items()):
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(obj, (classmethod, staticmethod)):
            setattr(cls, attr, type(obj)(tracer.wrap(obj.__func__, name)))
        elif inspect.isfunction(obj) and attr not in _SKIPPED_METHODS:
            setattr(cls, attr, tracer.wrap(obj, name))
