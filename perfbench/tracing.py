"""In-memory span tracing from outside the program.

The traced run wraps public functions of the program's layers (class
attributes and module globals) with :meth:`Tracer.wrap`.  Each call
records one :class:`Span` -- name, start, end, parent, trace id, thread
and attributes -- in a plain list; nothing is written until the run
ends.  Parents follow a :mod:`contextvars` variable, so nesting is
right on every thread and inside asyncio tasks alike.  ``uninstall``
puts every original back.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import contextvars
import functools
import gzip
import inspect
import json
import threading
from dataclasses import dataclass, field
from time import perf_counter


@dataclass(eq=False, slots=True)
class Span:
    """One timed call."""

    name: str
    start: float
    end: float = 0.0
    parent: "Span | None" = None
    trace: object = None
    thread: int = 0
    #: async spans overlap their siblings on one thread, so they are
    #: reported as latencies and left out of self-time accounting
    is_async: bool = False
    attrs: dict = field(default_factory=dict)
    links: list = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Seconds from start to end."""
        return self.end - self.start


class Tracer:
    """Collects spans from wrapped functions; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        #: trace id given to root spans opened in this context
        self.trace_id: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_trace", default=None
        )
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _open(self, name: str, *, is_async: bool = False) -> Span:
        parent = self._current.get()
        span = Span(
            name=name,
            start=perf_counter(),
            parent=parent,
            trace=parent.trace if parent is not None else self.trace_id.get(),
            thread=threading.get_ident(),
            is_async=is_async,
        )
        self.spans.append(span)
        return span

    def span(self, name: str, **attrs) -> "_SpanContext":
        """Context manager that records a span around its body."""
        return _SpanContext(self, name, attrs)

    # -- wrapping ---------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, *, on_enter=None,
             on_call=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``on_enter(span, args, kwargs)`` runs once the span is open and
        before the call; ``on_call(span, args, kwargs, result)`` runs
        after it.  Either may add attributes or links to the span.
        """
        raw = inspect.getattr_static(owner, attr)
        self._patches.append((owner, attr, raw))
        is_classmethod = isinstance(raw, classmethod)
        original = raw.__func__ if is_classmethod else raw
        tracer = self

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                span = tracer._open(name, is_async=True)
                if on_enter is not None:
                    on_enter(span, args, kwargs)
                token = tracer._current.set(span)
                try:
                    result = await original(*args, **kwargs)
                finally:
                    span.end = perf_counter()
                    tracer._current.reset(token)
                if on_call is not None:
                    on_call(span, args, kwargs, result)
                return result
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                span = tracer._open(name)
                if on_enter is not None:
                    on_enter(span, args, kwargs)
                token = tracer._current.set(span)
                try:
                    result = original(*args, **kwargs)
                finally:
                    span.end = perf_counter()
                    tracer._current.reset(token)
                if on_call is not None:
                    on_call(span, args, kwargs, result)
                return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- output -----------------------------------------------------------

    def dump(self, path) -> None:
        """Write the spans as gzipped JSON lines (ids are list indices)."""
        ids = {id(span): i for i, span in enumerate(self.spans)}
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for i, span in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": (
                        ids.get(id(span.parent))
                        if span.parent is not None else None
                    ),
                    "trace": span.trace,
                    "thread": span.thread,
                    "attrs": span.attrs,
                    "links": [ids.get(id(link)) for link in span.links],
                }) + "\n")


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str, attrs: dict) -> None:
        self._tracer, self._name, self._attrs = tracer, name, attrs

    def __enter__(self) -> Span:
        self.span = self._tracer._open(self._name)
        self.span.attrs.update(self._attrs)
        self._token = self._tracer._current.set(self.span)
        return self.span

    def __exit__(self, *exc) -> None:
        self.span.end = perf_counter()
        self._tracer._current.reset(self._token)


def self_times(spans) -> dict[Span, float]:
    """Self time of every synchronous span.

    A span's children on its own thread run inside it and one after
    another, so the part of the span they cover is the union of their
    intervals, clipped to the span.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None and not span.is_async:
            children.setdefault(id(span.parent), []).append(span)
    out: dict[Span, float] = {}
    for span in spans:
        if span.is_async:
            continue
        covered = _union(
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(id(span), ())
            if c.thread == span.thread
        )
        out[span] = span.duration - covered
    return out


def _union(intervals) -> float:
    total = 0.0
    cursor = float("-inf")
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        start = max(start, cursor)
        if end > start:
            total += end - start
        cursor = end
    return total


def account(spans, wall: float, thread: int) -> dict:
    """Split ``wall`` seconds of one thread into per-name self time and
    an unattributed remainder.

    Returns ``{"self": {name: seconds}, "unattributed": s, "wall": s,
    "error": s}``, where ``error`` is how far self times plus remainder
    miss the wall time (zero up to rounding when spans nest properly).
    """
    mine = [s for s in spans if s.thread == thread and not s.is_async]
    selfs = self_times(mine)
    per_name: dict[str, float] = {}
    for span, seconds in selfs.items():
        per_name[span.name] = per_name.get(span.name, 0.0) + seconds
    in_thread = {id(s) for s in mine}
    roots = [
        s for s in mine
        if s.parent is None or id(s.parent) not in in_thread
    ]
    covered = _union((s.start, s.end) for s in roots)
    unattributed = wall - covered
    return {
        "self": per_name,
        "unattributed": unattributed,
        "wall": wall,
        "error": wall - (sum(per_name.values()) + unattributed),
    }
