"""Spans around the calls into lctkit's layers, recorded from outside it.

A :class:`Tracer` replaces chosen public functions of lctkit's modules by
wrappers while it is installed.  Each call records one span
(name, start, end, parent span, op id) in flat arrays, so a long traced
phase adds no garbage-collector load; counts taken from return values are
kept beside the span.  Calls made from inside the program (``cli.run``
calling ``fano.scan``, ``fano.scan`` calling ``certify``) go through the
same module attributes and nest under their caller.  A recursive call of
a traced function is not recorded again, so a span covers the outermost
call only.
"""

from __future__ import annotations

import gzip
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.info: dict[int, dict] = {}
        self.current_op = -1
        self._stack: list[int] = []
        self._active: set[str] = set()
        self._patched: list[tuple[object, str, object, object]] = []

    def _open(self, name: str) -> int:
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args):
        """Run fn(*args) inside a span named ``name``."""
        idx = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def patch(self, module, attr: str, counts=None) -> None:
        """Trace calls to ``module.attr`` while installed; ``counts(result)``
        may return a dict kept with the span."""
        fn = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        tracer = self

        def wrapper(*args, **kwargs):
            if name in tracer._active:
                return fn(*args, **kwargs)
            tracer._active.add(name)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                tracer._active.discard(name)
            if counts is not None:
                tracer.info[idx] = counts(result)
            return result

        self._patched.append((module, attr, fn, wrapper))

    def install(self) -> None:
        for module, attr, _, wrapper in self._patched:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn, _ in reversed(self._patched):
            setattr(module, attr, fn)

    # -- queries ------------------------------------------------------

    def spans(self, name: str, ops=None) -> list[int]:
        nid = self._name_ids.get(name)
        if nid is None:
            return []
        return [
            i for i in range(len(self.start))
            if self.name[i] == nid and (ops is None or self.op[i] in ops)
        ]

    def duration(self, idx: int) -> float:
        return self.end[idx] - self.start[idx]

    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = defaultdict(list)
        for i, p in enumerate(self.parent):
            if p >= 0:
                kids[p].append(i)
        return kids

    def self_time(self, idx: int, kids: dict[int, list[int]]) -> float:
        return self.duration(idx) - sum(self.duration(k) for k in kids.get(idx, ()))

    def write(self, path: Path) -> None:
        """Spans as gzipped CSV: name,start_s,end_s,parent,op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            out.write("name,start_s,end_s,parent,op\n")
            for i in range(len(self.start)):
                out.write(
                    f"{self.names[self.name[i]]},{self.start[i]:.9f},{self.end[i]:.9f},"
                    f"{self.parent[i]},{self.op[i]}\n"
                )
