"""Memory access patterns used by the paper's experiments.

Section 3.3 measures six patterns: unit stride with record size one,
stride 2 with record size one, stride 12 with record size 4, and
indexed random addresses over ranges of 16 words, 2K words and
4M words.  :func:`unit_stride`, :func:`strided` and :func:`indexed`
build them; applications use the same constructors for their loads
and stores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AccessPattern:
    """A stream load/store's address sequence, described compactly.

    ``kind`` is ``"strided"`` or ``"indexed"``.  For strided patterns
    consecutive records start ``stride`` words apart and each record is
    ``record_words`` consecutive words.  For indexed patterns each
    record starts at a pseudo-random word offset in
    ``[0, index_range_words)``.
    """

    kind: str
    words: int
    start: int = 0
    stride: int = 1
    record_words: int = 1
    index_range_words: int = 0
    seed: int = 1234
    #: Explicit record start offsets for gather/scatter with known
    #: indices (e.g. framebuffer writes); random offsets over
    #: ``index_range_words`` are generated when absent.
    indices: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("strided", "indexed"):
            raise ValueError(f"unknown pattern kind {self.kind!r}")
        if self.words <= 0:
            raise ValueError("pattern must transfer at least one word")
        if self.record_words < 1:
            raise ValueError("record_words must be >= 1")
        if self.kind == "indexed" and self.index_range_words < 1:
            raise ValueError("indexed pattern needs a positive range")
        if self.indices is not None and self.kind != "indexed":
            raise ValueError("explicit indices need an indexed pattern")

    @property
    def records(self) -> int:
        return (self.words + self.record_words - 1) // self.record_words

    def cache_resident(self, cache_words: int) -> bool:
        """Whether the controller's on-chip cache captures the pattern."""
        return (self.kind == "indexed"
                and self.index_range_words <= cache_words)

    def signature(self) -> tuple:
        """Steady-state behaviour key (length-independent), for caching."""
        if self.kind == "strided":
            return ("strided", self.stride, self.record_words)
        return ("indexed", self.index_range_words, self.record_words)


def unit_stride(words: int, start: int = 0) -> AccessPattern:
    """Sequential words: the paper's "record 1, stride 1"."""
    return AccessPattern(kind="strided", words=words, start=start)


def strided(words: int, stride: int, record_words: int = 1,
            start: int = 0) -> AccessPattern:
    """Records of ``record_words`` words, ``stride`` words apart."""
    return AccessPattern(kind="strided", words=words, start=start,
                         stride=stride, record_words=record_words)


def indexed(words: int, index_range_words: int, record_words: int = 1,
            seed: int = 1234, start: int = 0,
            indices=None) -> AccessPattern:
    """Gather/scatter over offsets within a range.

    Offsets are pseudo-random unless ``indices`` (explicit record
    start offsets, relative to ``start``) is given.
    """
    if indices is not None:
        indices = tuple(np.asarray(indices, dtype=np.int64).tolist())
    return AccessPattern(kind="indexed", words=words, start=start,
                         record_words=record_words,
                         index_range_words=index_range_words, seed=seed,
                         indices=indices)
