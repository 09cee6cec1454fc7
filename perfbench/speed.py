"""Host speed, measured in line with the workload.

On a shared virtual machine the same pure-Python loop can take up to
twice as long from one minute to the next, because other tenants load
the host.  That drift swamps the changes the benchmark exists to see,
so the benchmark times a fixed work unit on the thread's CPU clock
next to the work it measures -- before every in-process request, every
half second in the serve-open client, around every set-up -- and also
reports each time *at reference speed*: the wall time times
``REFERENCE_MS`` over the unit time measured beside it.  The unit is
plain interpreter work that calls none of the program, so a change to
the program cannot move it.  It allocates and sorts a few thousand
strings, so it slows with contention for caches and memory as the
program does; a pure arithmetic loop slows only about half as much.
Measured on the same thread just before each request, it tracks the
drift closely; a probe on another CPU does not.
"""

from __future__ import annotations

import bisect
import time
from typing import Sequence

#: Strings the work unit builds and sorts, and what one unit takes at
#: reference speed (about a 2 GHz Xeon vCPU unloaded, so scaled values
#: read near the raw ones).
UNIT_STRINGS = 6_000
REFERENCE_MS = 1.0
#: Units per measurement (about 2 ms in all).
UNITS = 2


def work_unit() -> int:
    table = {i: str(i) for i in range(UNIT_STRINGS)}
    return len(sorted(table.values()))


def unit_ms() -> float:
    """CPU time (ms) the work unit takes on this thread, now."""
    began = time.thread_time()
    for _ in range(UNITS):
        work_unit()
    return (time.thread_time() - began) * 1e3 / UNITS


def scale(*unit_times: float) -> float:
    """Factor taking wall time to reference speed, given the unit
    times measured beside it."""
    return REFERENCE_MS * len(unit_times) / sum(unit_times)


def scale_at(samples: Sequence[tuple[float, float]], start: float,
             end: float) -> float:
    """:func:`scale` for wall time spent in [start, end], from
    (clock, unit ms) samples sorted by clock: those taken in the
    interval, or the nearest one if none was."""
    if not samples:
        raise ValueError("no speed samples")
    stamps = [stamp for stamp, _ in samples]
    low = bisect.bisect_left(stamps, start)
    high = bisect.bisect_right(stamps, end)
    inside = [unit for _, unit in samples[low:high]]
    if not inside:
        nearest = min((i for i in (low - 1, low) if 0 <= i < len(samples)),
                      key=lambda i: abs(stamps[i] - (start + end) / 2))
        inside = [samples[nearest][1]]
    return scale(*inside)
