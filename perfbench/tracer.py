"""In-memory span recorder that times a package's functions from outside it.

A span is (name, start, end, parent span, trial id) plus two integer counts
whose meaning a per-function probe defines (rounds, messages, steps...).
Spans live in typed arrays, so a long traced run stays small, and are
written out once at the end of the run.
"""
from __future__ import annotations

import functools
import time
from array import array

import numpy as np

SETUP_TRIAL = -1  # trial id of spans recorded while the workload is set up


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.trial = array("i")
        self.start = array("d")
        self.end = array("d")
        self.a = array("q")
        self.b = array("q")
        self.raised = array("b")
        self.stack = [-1]
        self.current_trial = SETUP_TRIAL

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, probe=None):
        """Return `fn` wrapped so that each call records one span.

        `probe`, if given, is a pair (before, after): before(args, kwargs)
        runs ahead of the call, after(args, kwargs, result, state) returns
        the span's two counts.
        """
        nid = self.intern(name)
        clock = time.perf_counter
        stack = self.stack
        name_id, parent, trial = self.name_id, self.parent, self.trial
        start, end, ca, cb, raised = self.start, self.end, self.a, self.b, self.raised
        before, after = probe if probe is not None else (None, None)
        tracer = self

        # The bookkeeping of open()/close() is inlined: this runs on every wrapped call.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            trial.append(tracer.current_trial)
            end.append(0.0)
            ca.append(0)
            cb.append(0)
            raised.append(0)
            state = before(args, kwargs) if before is not None else None
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[sid] = clock()
                stack.pop()
                raised[sid] = 1
                raise
            end[sid] = clock()
            stack.pop()
            if after is not None:
                ca[sid], cb[sid] = after(args, kwargs, result, state)
            return result

        return traced

    def open(self, name: str) -> int:
        """Open a span owned by the caller (the benchmark's trial span)."""
        sid = len(self.name_id)
        self.name_id.append(self.intern(name))
        self.parent.append(self.stack[-1])
        self.trial.append(self.current_trial)
        self.end.append(0.0)
        self.a.append(0)
        self.b.append(0)
        self.raised.append(0)
        self.stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int, failed: bool = False) -> None:
        self.end[sid] = time.perf_counter()
        popped = self.stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed while span {popped} was open")
        self.raised[sid] = int(failed)

    def __len__(self) -> int:
        return len(self.name_id)

    def frame(self) -> "SpanFrame":
        return SpanFrame(self)

    def save(self, path) -> None:
        f = self.frame()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=f.name_id,
            parent=f.parent,
            trial=f.trial,
            start=f.start,
            end=f.end,
            a=f.a,
            b=f.b,
            raised=f.raised,
        )


class SpanFrame:
    """Column view of a tracer's spans, with self times computed.

    The columns share memory with the tracer's arrays, which cannot grow
    while a frame is alive."""

    def __init__(self, tracer: Tracer):
        self.names = list(tracer.names)
        self.name_id = np.frombuffer(tracer.name_id, dtype=np.int32)
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32)
        self.trial = np.frombuffer(tracer.trial, dtype=np.int32)
        self.start = np.frombuffer(tracer.start, dtype=np.float64)
        self.end = np.frombuffer(tracer.end, dtype=np.float64)
        self.a = np.frombuffer(tracer.a, dtype=np.int64)
        self.b = np.frombuffer(tracer.b, dtype=np.int64)
        self.raised = np.frombuffer(tracer.raised, dtype=np.int8)
        self.dur = self.end - self.start
        has_parent = self.parent >= 0
        child = np.bincount(
            self.parent[has_parent], weights=self.dur[has_parent], minlength=len(self.dur)
        )
        self.self_time = self.dur - child

    def ids(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -1

    def nesting_violations(self) -> int:
        """Spans that start before or end after their parent span."""
        has_parent = self.parent >= 0
        p = self.parent[has_parent]
        early = self.start[has_parent] < self.start[p]
        late = self.end[has_parent] > self.end[p]
        return int((early | late).sum())
