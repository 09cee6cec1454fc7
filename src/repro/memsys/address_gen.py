"""Address generators.

Each of Imagine's two AGs walks a stream descriptor (strided) or an
index stream (gather/scatter) and emits word addresses to the memory
controller at up to ``ag_peak_words_per_cycle``.  ``expand_pattern``
materialises the exact address sequence an AG produces for a pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.memsys.patterns import AccessPattern
from repro.obs.tracer import NULL_TRACER, Tracer, ag_track


def expand_pattern(pattern: AccessPattern,
                   max_words: int | None = None) -> np.ndarray:
    """Word addresses, in issue order, for ``pattern``.

    ``max_words`` truncates the expansion (used to sample very long
    streams whose steady-state rate is extrapolated).
    """
    words = pattern.words if max_words is None else min(
        pattern.words, max_words)
    record = pattern.record_words
    records = (words + record - 1) // record
    offsets = np.arange(record, dtype=np.int64)
    if pattern.kind == "strided":
        starts = (pattern.start
                  + np.arange(records, dtype=np.int64) * pattern.stride)
    elif pattern.indices is not None:
        starts = pattern.start + np.asarray(pattern.indices[:records],
                                            dtype=np.int64)
    else:
        rng = np.random.default_rng(pattern.seed)
        span = max(1, pattern.index_range_words - record + 1)
        starts = pattern.start + rng.integers(0, span, size=records,
                                              dtype=np.int64)
    addresses = (starts[:, None] + offsets[None, :]).reshape(-1)
    return addresses[:words]


@dataclass
class AddressGenerator:
    """One AG: a rate-limited address source for a single stream."""

    ident: int
    peak_words_per_cycle: float = 2.0
    tracer: Tracer = field(default=NULL_TRACER, repr=False)

    @property
    def track(self) -> str:
        return ag_track(self.ident)

    def trace_stream(self, name: str, start: float, end: float,
                     **args) -> None:
        """Record one stream this AG walked, as a span on its track."""
        if self.tracer.enabled:
            self.tracer.span(self.track, name, start, end, **args)
