"""Span recorder for the traced benchmark run.

A span is (name, start, end, parent, case, work): ``parent`` indexes the
enclosing span (-1 for a root), ``case`` is the case id shared by every span
of one case, and ``work`` is the amount of work the span did in its own unit
(bytes computed for an FFT, arguments evaluated for a profile call, bytes on
disk for a file).  Spans stay in memory and are written once, when the run
ends.  A span's self time is its duration minus the durations of its direct
children.

Spans are recorded from the benchmark's own files only: by patching public
entry points (``numpy.fft``, ``MultiplierProfile.__call__``, the HXF1 and CSV
readers and writers) while tracing is on, by wrapping an operator handle's
``apply``/``adjoint``, and by ``span`` blocks around the calls each workload
makes into a layer.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import os
import time
from collections import defaultdict

import numpy as np

from hypercross import grid as gr
from hypercross import multiplier as mu


def _fft_bytes(args, result) -> int:
    return int(np.asarray(args[0]).nbytes + np.asarray(result).nbytes)


def _profile_args(args, result) -> int:
    return int(np.size(args[1]))


def _file_bytes(args, result) -> int:
    return os.path.getsize(args[0])


# (owner, attribute, span name, work function) for every patched entry point.
_PATCH_TARGETS = (
    [(np.fft, name, "grid.fft", _fft_bytes) for name in ("fft", "ifft", "fft2", "ifft2")]
    + [(mu.MultiplierProfile, "__call__", "multiplier.profile", _profile_args)]
    + [(gr, name, "grid.io", _file_bytes) for name in ("write_hxf1", "read_hxf1", "write_field_csv", "read_field_csv")]
)


class Tracer:
    """In-memory span store.  Inactive (the default) it records nothing and
    patches nothing, so an untraced run calls the program directly."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.case = None
        self.active = False
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.case, 0])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def unwind(self) -> None:
        """Forget the open spans after a case raised."""
        self._stack.clear()

    def wrap(self, name: str, fn, work=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if work is not None:
                self.spans[idx][5] = work(args, result)
            return result

        return traced

    def handle(self, op):
        """Operator handle whose apply and adjoint calls are recorded."""
        if not self.active:
            return op
        return dataclasses.replace(
            op, apply=self.wrap("normest.apply", op.apply), adjoint=self.wrap("normest.adjoint", op.adjoint)
        )

    def start(self) -> None:
        """Patch the entry points and start recording."""
        if self.active:
            return
        for owner, attr, name, work in _PATCH_TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, work))
        self.active = True

    def stop(self) -> None:
        """Restore the original entry points and stop recording."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self.active = False

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "case", "work"], "spans": self.spans}, fh)
            fh.write("\n")


def summarize(spans: list[list]) -> dict:
    """Per-name totals over all spans: count, inclusive seconds, self seconds
    and work, split by whether the span lies under a ``case`` root.  Also the
    number of ``grid.fft`` spans under each ``linearized.apply`` span."""
    child_time = [0.0] * len(spans)
    root = [0] * len(spans)
    apply_ancestor = [-1] * len(spans)
    for i, (name, start, end, parent, _case, _work) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            root[i] = root[parent]
            apply_ancestor[i] = parent if spans[parent][0] == "linearized.apply" else apply_ancestor[parent]
        else:
            root[i] = i
    totals: dict = defaultdict(lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0, "work": 0})
    fft_under_apply = 0
    for i, (name, start, end, _parent, _case, work) in enumerate(spans):
        where = "case" if spans[root[i]][0] == "case" else "outside"
        t = totals[(where, name)]
        t["count"] += 1
        t["total_s"] += end - start
        t["self_s"] += end - start - child_time[i]
        t["work"] += work
        if name == "grid.fft" and apply_ancestor[i] >= 0:
            fft_under_apply += 1
    return {"totals": dict(totals), "fft_under_apply": fft_under_apply}
