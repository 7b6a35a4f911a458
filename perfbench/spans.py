"""In-memory span recorder for the benchmark's traced runs.

A span is one call of a wrapped function: its name, start, end, the span
that was open when it started (its parent) and the optimizer step index at
the time. Functions are wrapped at the module attribute their callers look
up (``predgrad.trainer.forward``, not ``predgrad.network.forward``), and the
original attributes are put back when the ``patched`` block ends, so the
program's own files are never changed.

A span's self time is its duration minus the time its child spans cover.
Spans nest strictly (a child starts after and ends before its parent), so
the self times of all spans add up to the duration of the root spans.
"""

import time
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Records spans into flat arrays (about 30 bytes a span)."""

    def __init__(self, clock=time.perf_counter, step_span: str | None = None):
        self.clock = clock
        self.step_span = step_span   # each end of a span of this name is one step
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.step = array("i")
        self.failed = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._steps = 0

    def __len__(self) -> int:
        return len(self.start)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, observe=None):
        """Return fn wrapped so that each call records one span.

        ``observe(args, kwargs, result)`` runs after a successful call, outside
        the span. A call that raises is recorded with its failed flag set.
        """
        nid = self._name_id(name)
        counts_step = name == self.step_span

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.step.append(self._steps)
            self.failed.append(0)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(self.clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[idx] = 1
                raise
            finally:
                self.end[idx] = self.clock()
                self._stack.pop()
                if counts_step:
                    self._steps += 1
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self, targets):
        """Wrap ``(module, attribute, span name, observe)`` targets for the
        duration of the block. Attributes the module lacks are skipped, so a
        layer that a later version removes reports zero calls."""
        saved = []
        try:
            for module, attr, name, observe in targets:
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn, observe))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def table(self, lo: int = 0, hi: int | None = None) -> "SpanTable":
        """Spans with indices in [lo, hi) as arrays; parents are re-based."""
        hi = len(self) if hi is None else hi
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi].astype(np.int64)
        if np.any((parent >= 0) & (parent < lo)):
            raise ValueError("span range cuts through an open parent span")
        return SpanTable(
            names=list(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32)[lo:hi].copy(),
            parent=np.where(parent >= 0, parent - lo, -1),
            step=np.frombuffer(self.step, dtype=np.int32)[lo:hi].copy(),
            failed=np.frombuffer(self.failed, dtype=np.int8)[lo:hi].astype(bool),
            start=np.frombuffer(self.start, dtype=np.float64)[lo:hi].copy(),
            end=np.frombuffer(self.end, dtype=np.float64)[lo:hi].copy())

    def save(self, path) -> None:
        t = self.table()
        np.savez(path, names=np.asarray(t.names, dtype=str), name_id=t.name_id,
                 parent=t.parent, step=t.step, failed=t.failed, start=t.start,
                 end=t.end)


class SpanTable:
    """Finished spans of one traced command, with per-name aggregates."""

    def __init__(self, names, name_id, parent, step, failed, start, end):
        self.names, self.name_id, self.parent = names, name_id, parent
        self.step, self.failed, self.start, self.end = step, failed, start, end
        self.duration = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=self.duration[child],
                              minlength=len(start))
        self.self_time = self.duration - covered

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.start), dtype=bool)
        return self.name_id == self.names.index(name)

    def calls(self, name: str) -> int:
        return int(self.mask(name).sum())

    def failures(self, name: str) -> int:
        return int(self.failed[self.mask(name)].sum())

    def total(self, name: str) -> float:
        return float(self.duration[self.mask(name)].sum())

    def self_total(self, name: str) -> float:
        return float(self.self_time[self.mask(name)].sum())

    def nesting_ok(self) -> bool:
        """Every child lies inside its parent and no self time is negative."""
        child = self.parent >= 0
        p = self.parent[child]
        inside = (np.all(self.start[child] >= self.start[p])
                  and np.all(self.end[child] <= self.end[p]))
        tol = 1e-9 * max(1.0, float(self.duration.sum()))
        return bool(inside and np.all(self.self_time >= -tol))

    def untraced_remainder(self, wall: float) -> float:
        """Part of a command's wall time that no root span covers."""
        return wall - float(self.duration[self.parent < 0].sum())
