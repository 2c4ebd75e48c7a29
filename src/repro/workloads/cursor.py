"""Replayable trace cursors: the snapshot layer's view of a workload.

Traces are infinite *generators* (``repro.workloads.generator`` and the
scenario frontends), which CPython can neither deep-copy nor pickle — so a
simulator holding raw generators can never be snapshotted.  The system
therefore consumes every trace through a :class:`TraceCursor`: a thin
iterator wrapper that remembers **how the stream was built** (the trace
source and its ``make_trace`` arguments) and **how far it has been
consumed**.  Because every trace source is deterministic by contract
(same source + same arguments ⇒ the identical stream — property-tested in
``tests/test_workloads.py``), a cursor can be reconstructed anywhere by
rebuilding the stream and fast-forwarding ``count`` operations:

* ``copy.deepcopy`` of a cursor yields an independent cursor at the same
  position whose future output is bit-identical (the snapshot/restore
  invariant);
* pickling a cursor ships only ``(source, kwargs, count)`` — a few bytes —
  and replays on load, so full-simulator snapshots stay process-portable.

Fast-forward cost is linear in ``count`` and is most of what a warm-state
restore costs.  Restoring a quick-scale 4-core warm state fast-forwards
24,000 ops.  On a 2-vCPU Xeon VM the whole restore takes ~45 ms, of
which ~24 ms (~1 µs/op) is fast-forward, far below simulating the same
ops.

Trace sources are required to be immutable (all shipped sources are frozen
dataclasses); cursors share them instead of copying, which also keeps a
:class:`~repro.workloads.scenarios.TraceFileWorkload`'s parsed ops tuple
shared across all cursors over one file.
"""

from __future__ import annotations

from typing import Any, Iterator


class TraceCursor:
    """A positioned, reconstructible iterator over one trace stream."""

    __slots__ = ("source", "kwargs", "count", "_it")

    def __init__(self, source: Any, **kwargs: Any):
        self.source = source
        self.kwargs = kwargs
        self.count = 0
        self._it: Iterator[tuple] = source.make_trace(**kwargs)

    def __iter__(self) -> "TraceCursor":
        return self

    def __next__(self) -> tuple:
        op = next(self._it)
        self.count += 1
        return op

    def skip(self, n: int) -> None:
        """Advance ``n`` operations without returning them (fast-forward)."""
        if n < 0:
            raise ValueError(f"cannot rewind a trace cursor by {n}")
        it = self._it
        for _ in range(n):
            next(it)
        self.count += n

    @classmethod
    def _rebuild(cls, source: Any, kwargs: dict, count: int) -> "TraceCursor":
        cur = cls(source, **kwargs)
        cur.skip(count)
        return cur

    def __deepcopy__(self, memo: dict) -> "TraceCursor":
        # The source is immutable by contract: share it.  Rebuild + replay
        # instead of copying the (uncopyable) live generator.
        cur = type(self)._rebuild(self.source, self.kwargs, self.count)
        memo[id(self)] = cur
        return cur

    def __reduce__(self):
        return (type(self)._rebuild, (self.source, self.kwargs, self.count))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = getattr(self.source, "name", type(self.source).__name__)
        return f"TraceCursor({name!r}, count={self.count})"
