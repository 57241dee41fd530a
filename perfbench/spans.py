"""In-memory span recorder for the traced benchmark run.

The recorder replaces public functions of the ``rara`` modules with timing
wrappers (``setattr`` on the module, so calls that go through module globals
or module attributes are seen) and restores the originals afterwards.  Each
call becomes one span: name, start, end and the index of the enclosing span.
Optional per-function annotators turn return values into counts at the same
boundary.  Spans stay in memory until :meth:`SpanRecorder.save`.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter

import numpy as np


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.counts: Counter = Counter()
        self.calls: list[tuple[int, str, dict]] = []  # (span, name, detail)
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _wrapper(self, name: str, fn, annotate):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, counts = self._stack, self.counts
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if annotate is not None:
                detail = annotate(counts, args, kwargs, result)
                if detail is not None:
                    self.calls.append((idx, name, detail))
            return result

        return traced

    def install(self, targets):
        """``targets``: iterable of (module, function name, annotator|None)."""
        for module, attr, annotate in targets:
            fn = getattr(module, attr)
            layer = module.__name__.rsplit(".", 1)[-1]
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrapper(f"{layer}.{attr}", fn, annotate))

    def restore(self):
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def mark(self) -> tuple:
        """Current span count, call-detail count and counts, to delimit an
        iteration."""
        return len(self.start), len(self.calls), Counter(self.counts)

    def summarize(self, since: tuple) -> dict:
        """Per-name call count, total and self seconds of the spans recorded
        after ``since``, plus the call details and counts of the same
        interval.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap.
        """
        lo, lo_calls, counts_before = since
        nid = np.frombuffer(self.name_id, dtype=np.int32)[lo:]
        dur = (np.frombuffer(self.end, dtype=np.int64)[lo:]
               - np.frombuffer(self.start, dtype=np.int64)[lo:]).astype(float) * 1e-9
        par = np.frombuffer(self.parent, dtype=np.int32)[lo:] - lo
        inside = par >= 0
        child = np.bincount(par[inside], weights=dur[inside], minlength=len(dur))
        own = dur - child
        n = len(self.names)
        calls = np.bincount(nid, minlength=n)
        total = np.bincount(nid, weights=dur, minlength=n)
        self_s = np.bincount(nid, weights=own, minlength=n)
        per_name = {self.names[i]: {"calls": int(calls[i]), "total_s": float(total[i]),
                                    "self_s": float(self_s[i])}
                    for i in range(n) if calls[i]}
        details = [(name, float(dur[idx - lo]), d)
                   for idx, name, d in self.calls[lo_calls:]]
        return {"functions": per_name, "calls": details,
                "counts": dict(self.counts - counts_before)}

    def save(self, path):
        """Write every span (name table plus four parallel arrays) to ``path``."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int32))
