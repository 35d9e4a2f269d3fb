"""In-memory span tracer that wraps nlbox functions from outside the package.

Each wrapped call records a span (name, start, end, parent, job id) in
flat arrays that live until the run ends.  A function is wrapped at
every name its callers look it up by: a module attribute for callers
that write ``module.func``, and the caller's own global for callers
that imported the name with ``from .module import func``.

Hooks read work counts off the arguments and results at the same
boundaries, so ratios are measured where the work happens.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict

SETUP_JOB = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job = array("q")
        self.counters: dict[str, float] = defaultdict(float)
        self.active = False
        self.job_id = SETUP_JOB
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, owner, attr: str, span: str, hook=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording spans named ``span``.

        ``hook(counters, args, kwargs, result)`` runs after each successful
        call while tracing is active.  A call that raises adds one to
        ``<layer>.errors``, the layer being the span name's first part.
        """
        orig = getattr(owner, attr)
        nid = self._name(span)
        errors = span.split(".")[0] + ".errors"
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                result = orig(*args, **kwargs)
            except Exception:
                tracer.counters[errors] += 1
                raise
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, orig))

    def unwrap_all(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.start)


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to the parent's interval and overlapping
    children are counted once.
    """
    n = len(start)
    order = range(n)
    if any(start[i] > start[i + 1] for i in range(n - 1)):
        order = sorted(range(n), key=start.__getitem__)
    covered = [0.0] * n
    reach = list(start)  # right end of the union of children seen so far
    for i in order:
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


def summarize(tr: Tracer, setup: bool = False) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds, over the
    job spans or, with ``setup``, over the set-up spans.

    Inclusive time counts only the outermost span of recursive calls to
    the same name, so nested re-entry is not counted twice.
    """
    selfs = self_times(tr.start, tr.end, tr.parent)
    out: dict[str, dict[str, float]] = {}
    for i in range(len(tr)):
        if (tr.job[i] == SETUP_JOB) != setup:
            continue
        nid = tr.name_id[i]
        row = out.setdefault(tr.names[nid], {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[i]
        p = tr.parent[i]
        while p >= 0 and tr.name_id[p] != nid:
            p = tr.parent[p]
        if p < 0:
            row["incl_s"] += tr.end[i] - tr.start[i]
    return out
