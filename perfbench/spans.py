"""In-memory spans for the traced run, and their self-time arithmetic.

A span is one timed call into a layer: name, start, end (``perf_counter_ns``),
the span that caused it, and the id of the end-to-end operation (request,
campaign or replay) it belongs to.  Spans are kept in memory while the
workload runs and written out when the run ends.

A span's name is the layer it is charged to.  A name with a ``/`` suffix
(``service.http/handler``) charges its time to the layer before the ``/``
without counting as a call of that layer, for layers whose time is split
over more than one call site.

Self time is a span's duration minus the part of that interval its children
cover.  Every span is first clipped to its parent's (clipped) interval, so
the self times of one tree add up exactly to its root's duration even when a
child outlives its parent, as a server handler does after the client has read
the reply.
"""

from __future__ import annotations

import itertools
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple


class Span:
    __slots__ = ("sid", "parent", "group", "name", "start", "end")

    def __init__(self, sid: int, parent: Optional[int], group: int,
                 name: str, start: int = 0, end: int = 0):
        self.sid = sid
        self.parent = parent
        self.group = group
        self.name = name
        self.start = start
        self.end = end

    def as_row(self) -> list:
        return [self.sid, self.parent, self.group, self.name,
                self.start, self.end]


def layer_of(name: str) -> str:
    """The layer a span name is charged to."""
    return name.split("/", 1)[0]


class Recorder:
    """Collects spans from any number of threads.

    Each thread keeps its own stack of open spans, so a span's parent is the
    innermost span open on the same thread.  A span opened on another thread
    (a server handler answering a client request) names its parent
    explicitly.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, parent: Optional[int],
              group: Optional[int]) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent, group = stack[-1].sid, stack[-1].group
        sid = next(self._ids)
        span = Span(sid, parent, group if group is not None else sid, name)
        stack.append(span)
        span.start = perf_counter_ns()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter_ns()
        self._stack().pop()
        self.spans.append(span)

    def current_name(self) -> Optional[str]:
        stack = self._stack()
        return stack[-1].name if stack else None

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None,
             group: Optional[int] = None) -> Iterator[Span]:
        span = self._open(name, parent, group)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn: Callable, name: str,
             under: Optional[Dict[str, str]] = None) -> Callable:
        """``fn`` with a span around every call.

        ``under`` renames the span by the name of the span it opens in, for a
        function that belongs to different layers depending on its caller.
        """
        recorder = self

        def traced(*args, **kwargs):
            label = name
            if under:
                label = under.get(recorder.current_name(), name)
            span = recorder._open(label, None, None)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder._close(span)

        traced.__wrapped__ = fn
        return traced


_MISSING = object()


@contextmanager
def patched(recorder: Recorder,
            targets: Iterable[Tuple[object, str, str]],
            under: Optional[Dict[Tuple[object, str], Dict[str, str]]] = None
            ) -> Iterator[None]:
    """Replace each ``owner.attr`` by a span-recording wrapper, and put the
    originals back on exit.

    ``targets`` holds ``(owner, attribute, span name)``; an owner is a module
    (the name the calling module looks up) or a class (a method).
    """
    saved = []
    try:
        for owner, attr, name in targets:
            own = vars(owner).get(attr, _MISSING)
            original = getattr(owner, attr)
            saved.append((owner, attr, own))
            rename = (under or {}).get((owner, attr))
            setattr(owner, attr, recorder.wrap(original, name, rename))
        yield
    finally:
        for owner, attr, own in reversed(saved):
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)


def _covered(intervals: List[Tuple[int, int]]) -> int:
    """Length of the union of ``intervals``."""
    total = 0
    reach = None
    for lo, hi in sorted(intervals):
        if reach is None or lo > reach:
            total += hi - lo
            reach = hi
        elif hi > reach:
            total += hi - reach
            reach = hi
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, int]:
    """``sid -> self time (ns)`` for every span.

    A span whose parent was not recorded counts as a root.
    """
    spans = list(spans)
    known = {span.sid for span in spans}
    children: Dict[int, List[Span]] = defaultdict(list)
    pending = []
    for span in spans:
        if span.parent is None or span.parent not in known:
            pending.append((span, span.start, span.end))
        else:
            children[span.parent].append(span)
    result: Dict[int, int] = {}
    while pending:
        span, lo, hi = pending.pop()
        clipped = []
        for child in children.get(span.sid, ()):
            child_lo = min(max(child.start, lo), hi)
            child_hi = max(min(child.end, hi), child_lo)
            clipped.append((child_lo, child_hi))
            pending.append((child, child_lo, child_hi))
        result[span.sid] = (hi - lo) - _covered(clipped)
    return result


def roots(spans: Iterable[Span]) -> List[Span]:
    """The spans no recorded span caused: one per end-to-end operation."""
    spans = list(spans)
    known = {span.sid for span in spans}
    return [span for span in spans
            if span.parent is None or span.parent not in known]


def layer_totals(spans: Iterable[Span]) -> Dict[str, Tuple[int, int]]:
    """``layer -> (calls, self ns)``; calls skip ``/``-suffixed names."""
    spans = list(spans)
    selfs = self_times(spans)
    totals: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
    for span in spans:
        entry = totals[layer_of(span.name)]
        if "/" not in span.name:
            entry[0] += 1
        entry[1] += selfs[span.sid]
    return {layer: (calls, ns) for layer, (calls, ns) in totals.items()}
