"""One pause of CPython's cyclic garbage collector.

The regions that build a result or a report in bulk -- a vector
simulation, unpickling a cached result, folding a profile or a
critical-path report -- allocate tens of thousands of containers that
all survive into the answer.  With the collector on, every 700 of
them start a young-generation scan that finds nothing to free (a
cache hit leaves no cyclic garbage) and older-generation scans over
the growing live heap follow.  Those regions run under
:data:`collector_paused` instead, as a ``with`` block or a function
decorator.

The collector is process-wide, so there is one pause: nested and
concurrent pauses (a serve worker thread may simulate while another
unpickles) share one depth count under a lock.  The first to enter
records :func:`gc.isenabled` and disables the collector; the last to
leave restores what the first found, so a caller that disabled
``gc`` itself still finds it disabled.  This module imports only the
standard library, so every layer can use it without an import cycle.
"""

from __future__ import annotations

import contextlib
import gc
import threading


class CollectorPause(contextlib.ContextDecorator):
    """A re-entrant, thread-safe context manager that keeps the cyclic
    collector off while any entrant is inside it."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._restore = False

    def __enter__(self) -> None:
        with self._lock:
            if not self._depth:
                self._restore = gc.isenabled()
                gc.disable()
            self._depth += 1

    def __exit__(self, *exc_info: object) -> None:
        with self._lock:
            self._depth -= 1
            if not self._depth and self._restore:
                gc.enable()


#: The process's one collector pause.
collector_paused = CollectorPause()
