"""Span recording around the system's layer entry points.

The benchmark traces the system from the outside: :func:`install`
replaces a layer's public function (or method) with a wrapper that opens
a span on entry and closes it on exit.  Nothing under ``src/`` knows it
is traced.  A span is ``(name, start, end, parent, busy)``:

* ordinary spans cover one call, ``busy`` is ``None``;
* *sliced* spans cover a generator that is consumed piecemeal (a store
  scan feeding a lazy view): only the time spent inside ``next()`` is
  counted, so ``busy`` holds that sum and ``start``/``end`` bound the
  first and last slice.

A layer's self time is its span's own time (``busy``, or ``end -
start``) minus the part covered by its direct children — the union of
ordinary children's intervals plus the busy time of sliced children,
which never overlap a sibling because their slices run inside the
consumer's frame.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

_NAME, _START, _END, _PARENT, _BUSY = range(5)


class Recorder:
    """In-memory span store with an on/off switch.

    Wrappers stay installed when the recorder is off; they then cost one
    attribute check per call.
    """

    def __init__(self) -> None:
        self.on = False
        self.spans: list[list] = []
        self._stack: list[int] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def open(self, name: str) -> int:
        """Open a span under the innermost open one; returns its index."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        """Close span ``index`` (and anything left open inside it)."""
        self.spans[index][_END] = time.perf_counter()
        while self._stack and self._stack.pop() != index:
            pass

    def sliced(self, name: str, iterator):
        """Re-yield ``iterator``, timing only the work inside ``next()``."""
        index = -1
        iterator = iter(iterator)
        while True:
            started = time.perf_counter()
            if index < 0:
                parent = self._stack[-1] if self._stack else -1
                index = len(self.spans)
                self.spans.append([name, started, started, parent, 0.0])
            span = self.spans[index]
            self._stack.append(index)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                ended = time.perf_counter()
                span[_END] = ended
                span[_BUSY] += ended - started
                self._stack.pop()
            yield item


class Installation:
    """The wrappers one :func:`install` call put in place."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def remove(self) -> None:
        """Restore every wrapped attribute (newest first)."""
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)


def _original(owner, attribute: str):
    """The attribute as stored on ``owner`` — for a class, the plain
    function from the class (or base) that defines it, so the wrapper set
    back on ``owner`` binds like the original method."""
    if inspect.isclass(owner):
        for klass in owner.__mro__:
            if attribute in vars(klass):
                return vars(klass)[attribute]
    return getattr(owner, attribute)


def install(recorder: Recorder, plan) -> Installation:
    """Wrap every ``(owner, attribute, span name, kind)`` in ``plan``.

    ``kind`` is ``"call"`` (a span per call) or ``"iter"`` (a sliced span
    over the returned iterator).
    """
    installation = Installation()
    for owner, attribute, name, kind in plan:
        original = _original(owner, attribute)
        if kind == "call":
            wrapper = _call_wrapper(recorder, original, name)
        elif kind == "iter":
            wrapper = _iter_wrapper(recorder, original, name)
        else:
            raise ValueError(f"unknown wrapper kind {kind!r}")
        setattr(owner, attribute, wrapper)
        installation._undo.append((owner, attribute, original))
    return installation


def _call_wrapper(recorder: Recorder, function, name: str):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if not recorder.on:
            return function(*args, **kwargs)
        index = recorder.open(name)
        try:
            return function(*args, **kwargs)
        finally:
            recorder.close(index)

    return wrapper


def _iter_wrapper(recorder: Recorder, function, name: str):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        iterator = function(*args, **kwargs)
        if not recorder.on:
            return iterator
        return recorder.sliced(name, iterator)

    return wrapper


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------


def _union_length(intervals) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans) -> list[float]:
    """Each span's self time: own time minus what its children cover."""
    intervals: dict[int, list] = defaultdict(list)
    sliced_busy: dict[int, float] = defaultdict(float)
    for span in spans:
        parent = span[_PARENT]
        if parent < 0:
            continue
        if span[_BUSY] is None:
            intervals[parent].append((span[_START], span[_END]))
        else:
            sliced_busy[parent] += span[_BUSY]
    out = []
    for index, span in enumerate(spans):
        own = span[_BUSY] if span[_BUSY] is not None else span[_END] - span[_START]
        covered = _union_length(intervals.get(index, ())) + sliced_busy.get(index, 0.0)
        out.append(max(0.0, own - covered))
    return out


def roots_of(spans) -> list[int]:
    """Index of the root span above each span."""
    roots: list[int] = []
    for index, span in enumerate(spans):
        parent = span[_PARENT]
        roots.append(index if parent < 0 else roots[parent])
    return roots


def layer_totals(spans, root_name: str | None = None) -> tuple[dict, dict, int, float]:
    """Sum self time and calls per span name under roots named ``root_name``.

    Returns ``(self seconds by name, calls by name, roots, root
    seconds)``; ``root_name=None`` takes every root.  The root's own self
    time is reported under its name, so the per-name totals add up to the
    roots' total duration exactly.
    """
    selfs = self_times(spans)
    roots = roots_of(spans)
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    root_count = 0
    root_seconds = 0.0
    for index, span in enumerate(spans):
        root = spans[roots[index]]
        if root_name is not None and root[_NAME] != root_name:
            continue
        seconds[span[_NAME]] += selfs[index]
        calls[span[_NAME]] += 1
        if span[_PARENT] < 0:
            root_count += 1
            root_seconds += span[_END] - span[_START]
    return dict(seconds), dict(calls), root_count, root_seconds
