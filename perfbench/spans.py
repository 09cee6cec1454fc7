"""In-memory span recording around the program's layer entry points.

The benchmark never edits the program: :func:`install` replaces a
public function or method with a wrapper that records one span per
call (layer name, start, end, parent span) and hands control to the
original.  Each thread keeps its own stack of open spans, so a call
made inside another wrapped call becomes its child.  Spans stay in
memory until the benchmark aggregates them.

Self time is what a layer spent outside its children: a span's
duration minus the part of its interval that child spans cover.  For
one request, the self times of every span in its tree sum to the
root span's duration; the root's own self time is the residual no
wrapped layer accounts for.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

#: Relative tolerance of the per-request conservation check.
CONSERVATION_TOLERANCE = 1e-9


@dataclass
class Span:
    layer: str
    start: float
    end: float = 0.0
    parent: int | None = None
    thread: int = 0
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans from any thread; ``enabled`` gates recording."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.enabled = True
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str, start: float | None = None) -> int:
        stack = self._stack()
        span = Span(layer, self.clock() if start is None else start,
                    parent=stack[-1] if stack else None,
                    thread=threading.get_ident())
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int, end: float | None = None,
              **counts: float) -> Span:
        stack = self._stack()
        if not stack or stack[-1] != index:
            raise RuntimeError("spans closed out of order")
        stack.pop()
        span = self.spans[index]
        span.end = self.clock() if end is None else end
        span.counts.update(counts)
        return span

    def take(self) -> list[Span]:
        """Remove and return every recorded span.  Call it only while
        no span is open: parent links are indices into this list."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


def self_times(spans: Sequence[Span]) -> list[float]:
    """Per span: duration minus the union of its children's
    intervals, clipped to the span itself."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(index, ()),
                            key=lambda c: c.start):
            low = max(child.start, cursor)
            high = min(child.end, span.end)
            if high > low:
                covered += high - low
                cursor = high
        result.append(span.duration - covered)
    return result


def check_conservation(spans: Sequence[Span], latency: float) -> float:
    """Check one request's span tree; return its residual.

    ``spans[0]`` is the request's root span.  Every other span must
    lie inside its parent, no self time may be negative, and the self
    times must sum to ``latency``.  Raises ``ValueError`` otherwise.
    """
    if not spans or spans[0].parent is not None:
        raise ValueError("the first span must be the request root")
    slack = CONSERVATION_TOLERANCE * max(latency, 1e-9) + 1e-12
    for span in spans[1:]:
        parent = spans[span.parent]
        if span.start < parent.start - slack or \
                span.end > parent.end + slack:
            raise ValueError(f"span {span.layer} escapes its parent "
                             f"{parent.layer}")
    owns = self_times(spans)
    if min(owns) < -slack:
        raise ValueError("negative self time: overlapping child spans")
    if abs(sum(owns) - latency) > slack:
        raise ValueError(f"self times sum to {sum(owns)!r}, request "
                         f"took {latency!r}")
    return owns[0]


# ----------------------------------------------------------------------
# Wrapping the program's entry points.
# ----------------------------------------------------------------------
Note = Callable[[tuple, dict, Any], dict[str, float]]


def wrap(recorder: SpanRecorder, owner: Any, attr: str, layer: str,
         note: Note | None = None) -> Callable[[], None]:
    """Replace ``owner.attr`` with a span-recording wrapper; returns
    a function that restores the original."""
    original = owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return original(*args, **kwargs)
        index = recorder.open(layer)
        try:
            value = original(*args, **kwargs)
        except BaseException:
            recorder.close(index)
            raise
        end = recorder.clock()
        counts = note(args, kwargs, value) if note is not None else {}
        recorder.close(index, end=end, **counts)
        return value

    setattr(owner, attr, wrapper)
    return lambda: setattr(owner, attr, original)


def install(recorder: SpanRecorder,
            entry_points: Iterable[tuple[str, str | None, str, str,
                                         Note | None]]
            ) -> Callable[[], None]:
    """Wrap every ``(module, class or None, attribute, layer, note)``
    entry point; returns an undo function."""
    undo = []
    for module_name, class_name, attr, layer, note in entry_points:
        owner: Any = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        undo.append(wrap(recorder, owner, attr, layer, note))

    def restore() -> None:
        for step in reversed(undo):
            step()
    return restore
