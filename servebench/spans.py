"""An in-memory span log and the function wrappers that feed it.

A span is ``(name, start, end, parent, trace_id, attrs)``.  Spans opened
through :meth:`SpanLog.open` nest on one stack (the benchmark is
single-threaded); request spans are added afterwards with :meth:`SpanLog.add`
and share their request's ``trace_id``.  :func:`install` replaces functions
of other modules with wrappers that record a span around each call and
returns a :class:`Patch` whose :meth:`~Patch.restore` puts every original
back, so timed runs execute unmodified code.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence


class Span:
    __slots__ = ("name", "start", "end", "parent", "trace_id", "attrs")

    def __init__(self, name: str, start: float, end: float, parent: int,
                 trace_id: Optional[str], attrs: Optional[dict]) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent          # index of the parent span, -1 for a root
        self.trace_id = trace_id
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanLog:
    """Spans kept in memory until :meth:`write_jsonl`."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._open: Dict[str, int] = {}

    def open(self, name: str, trace_id: Optional[str] = None, attrs: Optional[dict] = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(Span(name, self.clock(), float("nan"), parent, trace_id, attrs))
        self._stack.append(index)
        self._open[name] = self._open.get(name, 0) + 1
        return index

    def close(self, index: int) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")
        self._stack.pop()
        span = self.spans[index]
        span.end = self.clock()
        self._open[span.name] -= 1

    def is_open(self, name: str) -> bool:
        return self._open.get(name, 0) > 0

    def add(self, name: str, start: float, end: float, parent: int,
            trace_id: Optional[str] = None, attrs: Optional[dict] = None) -> int:
        """Record a span whose interval is already known."""
        self.spans.append(Span(name, start, end, parent, trace_id, attrs))
        return len(self.spans) - 1

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                row = {"id": index, "name": span.name, "start": span.start,
                       "end": span.end, "parent": span.parent}
                if span.trace_id is not None:
                    row["trace_id"] = span.trace_id
                if span.attrs:
                    row["attrs"] = span.attrs
                fh.write(json.dumps(row) + "\n")


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(index)
    result = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children.get(index, ()), key=lambda c: spans[c].start):
            lo = max(spans[child].start, reach)
            hi = min(spans[child].end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(span.duration - covered)
    return result


def roots(spans: Sequence[Span]) -> List[int]:
    """Index of each span's root ancestor (spans are added parent-first)."""
    root: List[int] = []
    for index, span in enumerate(spans):
        root.append(index if span.parent < 0 else root[span.parent])
    return root


# --------------------------------------------------------------------------- #
# Function wrappers
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Probe:
    """Record a span around every call of ``owner.attr``.

    ``name`` is a span name, or a callable ``(log, args, kwargs) -> name``
    that may return ``None`` to let a call pass unrecorded.  ``count``
    optionally maps ``(args, kwargs, result, before)`` to span attributes,
    where ``before`` is what ``before(args, kwargs)`` returned ahead of the
    call.  A call made while a span of the same name is open passes through,
    so recursion and re-entry never double-count.
    """

    owner: Any
    attr: str
    name: Any
    count: Optional[Callable] = None
    before: Optional[Callable] = None


def _wrap(log: SpanLog, probe: Probe, func: Callable) -> Callable:
    fixed = probe.name if isinstance(probe.name, str) else None
    count, before = probe.count, probe.before

    def wrapper(*args, **kwargs):
        name = fixed if fixed is not None else probe.name(log, args, kwargs)
        if name is None or log.is_open(name):
            return func(*args, **kwargs)
        state = before(args, kwargs) if before is not None else None
        index = log.open(name)
        try:
            result = func(*args, **kwargs)
        finally:
            log.close(index)
        if count is not None:
            log.spans[index].attrs = count(args, kwargs, result, state)
        return result

    wrapper.__wrapped__ = func
    wrapper.__name__ = getattr(func, "__name__", probe.attr)
    return wrapper


class Patch:
    """The originals :func:`install` replaced; :meth:`restore` puts them back."""

    def __init__(self) -> None:
        self.saved: List[tuple] = []

    def restore(self) -> None:
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patch":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def install(log: SpanLog, probes: Sequence[Probe]) -> Patch:
    """Wrap every probed function; undo with the returned patch."""
    patch = Patch()
    try:
        for probe in probes:
            original = vars(probe.owner)[probe.attr]
            if isinstance(original, (classmethod, staticmethod)):
                replacement = type(original)(_wrap(log, probe, original.__func__))
            else:
                replacement = _wrap(log, probe, original)
            patch.saved.append((probe.owner, probe.attr, original))
            setattr(probe.owner, probe.attr, replacement)
    except BaseException:
        patch.restore()
        raise
    return patch
