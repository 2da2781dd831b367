"""Span tracing for the benchmark's traced run.

The tracer wraps public functions of the wtalkit modules from outside the
package: every module namespace that binds a function (``forward`` is bound
in ``model``, ``ten``, ``losses``, ``trainer`` and ``localize``) gets the same
wrapper, so calls made through ``from .model import forward`` are seen.
Spans live in flat in-memory arrays while the run goes and are written out
once at the end. The timed runs never install the wrappers.
"""

from __future__ import annotations

import math
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

NO_PARENT = -1
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10
# what a meter may raise on arguments it does not recognise
METER_ERRORS = (AttributeError, IndexError, KeyError, OSError, TypeError, ValueError)


class Tracer:
    """Records (name, start, end, parent) spans of one run.

    Spans nest through a stack, which holds in a single-threaded program:
    the parent of a span is the innermost span open when it started. Meters
    add work counts (bytes, flops, proposals) to `work` from a call's
    arguments and result.
    """

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.names: list = []
        self._name_ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [NO_PARENT]
        self.counts: dict = {}
        self.work = defaultdict(float)

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(self.name_id(name))
        try:
            yield idx
        finally:
            self.close(idx)

    def wrap(self, name: str, fn, meter=None):
        """A function that records one span per call of `fn`."""
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if meter is not None:
                try:
                    meter(self.work, args, kwargs, result)
                except METER_ERRORS:
                    self.work["meter_errors"] += 1
            return result

        return _like(traced, fn)

    def count(self, name: str, fn):
        """A function that only counts calls of `fn`, for very hot helpers."""
        self.counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return _like(counted, fn)

    def columns(self) -> dict:
        # copies, so that the arrays stay free to grow
        return {"name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy()}

    def write(self, path) -> None:
        """Spans as one compressed npz: run id, name table and span columns."""
        np.savez_compressed(path, run_id=np.array(self.run_id),
                            names=np.array(self.names, dtype=str),
                            **self.columns())


def _like(wrapper, fn):
    wrapper.__wrapped__ = fn
    for attr in ("__name__", "__qualname__", "__doc__"):
        if hasattr(fn, attr):
            setattr(wrapper, attr, getattr(fn, attr))
    return wrapper


def install(tracer: Tracer, package: str, spans: dict, counts=()) -> tuple:
    """Wrap each named function wherever the package binds it.

    Names are ``module.function`` or ``module.Class.method`` relative to
    `package`; `spans` maps each to its meter or None. Returns (patches,
    missing): `uninstall(patches)` restores every attribute, and a name that
    no longer exists is listed in missing and otherwise ignored.
    """
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    wanted = [(n, lambda n, fn, m=m: tracer.wrap(n, fn, m)) for n, m in spans.items()]
    wanted += [(n, tracer.count) for n in counts]
    patches = []
    missing = []
    for name, make in wanted:
        mod_name, *path = name.split(".")
        owner = sys.modules.get(f"{package}.{mod_name}")
        for part in path[:-1]:
            owner = vars(owner).get(part) if owner is not None else None
        original = vars(owner).get(path[-1]) if owner is not None else None
        if not callable(original):
            missing.append(name)
            continue
        wrapper = make(name, original)
        if len(path) > 1:  # a method: its class is the only binding
            patches.append((owner, path[-1], original))
            setattr(owner, path[-1], wrapper)
            continue
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    patches.append((module, attr, original))
                    setattr(module, attr, wrapper)
    return patches, missing


def uninstall(patches: list) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of it that its child spans cover.

    Children are clipped to their parent's interval; siblings never overlap
    because the spans of one thread nest.
    """
    dur = end - start
    child = np.flatnonzero(parent >= 0)
    par = parent[child]
    covered = np.clip(np.minimum(end[child], end[par])
                      - np.maximum(start[child], start[par]), 0.0, None)
    return dur - np.bincount(par, weights=covered, minlength=dur.size)


def tail_percentile(n: int) -> float | None:
    """Highest standard percentile with at least ten samples beyond it."""
    eligible = [p for p in PERCENTILES if n * (100.0 - p) >= 100.0 * MIN_BEYOND - 1e-6]
    return max(eligible) if eligible else None


class Summary:
    """Per-name aggregates of a finished trace."""

    def __init__(self, tracer: Tracer):
        cols = tracer.columns()
        self.tracer = tracer
        self.name = cols["name"]
        self.parent = cols["parent"]
        self.duration = cols["end"] - cols["start"]
        own = self_times(cols["parent"], cols["start"], cols["end"])
        n = len(tracer.names)
        self._calls = np.bincount(self.name, minlength=n)
        self._self_s = np.bincount(self.name, weights=own, minlength=n)

    def _nid(self, name: str):
        return self.tracer._name_ids.get(name)

    def calls(self, name: str) -> int:
        nid = self._nid(name)
        return 0 if nid is None else int(self._calls[nid])

    def self_ms(self, name: str) -> float:
        nid = self._nid(name)
        return 0.0 if nid is None else float(self._self_s[nid]) * 1e3

    def durations(self, name: str) -> np.ndarray:
        nid = self._nid(name)
        return self.duration[self.name == nid] if nid is not None else np.zeros(0)

    def calls_under(self, name: str, roots) -> int:
        """Calls of `name` made, at any depth, inside a span named in `roots`."""
        nid = self._nid(name)
        root_ids = {self._nid(r) for r in roots} - {None}
        if nid is None or not root_ids:
            return 0
        total = 0
        for idx in np.flatnonzero(self.name == nid):
            p = self.parent[idx]
            while p >= 0 and self.name[p] not in root_ids:
                p = self.parent[p]
            total += int(p >= 0)
        return total
