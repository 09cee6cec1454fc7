"""Generative equivalence test for the SRF allocator.

``StreamRegisterFile`` keeps a per-size pool count and a sorted
occupancy list so that an allocation does not rescan every region.
``SortingSrf`` below is the allocator as first written -- it counts
pooled regions and sorts every live and pooled region on each call --
kept as the reference the indexed one must match placement for
placement, error for error.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import MachineConfig
from repro.core.srf import SrfAllocationError, StreamRegisterFile


class SortingSrf:
    """Reference allocator: scan-and-sort on every call."""

    def __init__(self, capacity_words: int, rotation_depth: int) -> None:
        self.capacity_words = capacity_words
        self.rotation_depth = rotation_depth
        self._regions: dict[str, tuple[int, int]] = {}
        self._pooled: list[tuple[int, int]] = []

    def allocate(self, name: str, words: int) -> int:
        if name in self._regions:
            raise SrfAllocationError(f"stream {name!r} already allocated")
        same_size = sum(1 for _, w in self._pooled if w == words)
        start = None
        if same_size >= self.rotation_depth:
            start = self._pop_pool(words)
        if start is None:
            start = self._first_fit(words)
        if start is None:
            start = self._pop_pool(words)
        while start is None and self._pooled:
            self._pooled.pop(0)
            start = self._first_fit(words)
        if start is None:
            raise SrfAllocationError(f"SRF full: {words} for {name!r}")
        self._regions[name] = (start, words)
        return start

    def free(self, name: str) -> None:
        self._pooled.append(self._regions.pop(name))

    def _pop_pool(self, words: int) -> int | None:
        for i, (_, w) in enumerate(self._pooled):
            if w == words:
                return self._pooled.pop(i)[0]
        return None

    def occupied(self) -> list[tuple[int, int]]:
        return sorted(list(self._regions.values()) + self._pooled)

    def _first_fit(self, words: int) -> int | None:
        occupied = self.occupied()
        cursor = 0
        for start, w in occupied:
            if start - cursor >= words:
                return cursor
            cursor = max(cursor, start + w)
        if self.capacity_words - cursor >= words:
            return cursor
        return None


_step = st.one_of(
    st.tuples(st.just("alloc"), st.sampled_from([8, 16, 40]),
              st.integers(0, 200)),
    st.tuples(st.just("free"), st.integers(0, 1 << 16), st.just(0)),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8), st.sampled_from([1, 2, 16]),
       st.lists(_step, min_size=1, max_size=120))
def test_indexed_allocator_matches_sorting_reference(rotation_depth,
                                                     srf_kbytes, steps):
    srf = StreamRegisterFile(MachineConfig(srf_kbytes=srf_kbytes),
                             rotation_depth=rotation_depth)
    reference = SortingSrf(srf.capacity_words, rotation_depth)
    live: list[str] = []
    for i, (kind, size, extra) in enumerate(steps):
        if kind == "free" and live:
            name = live.pop(size % len(live))
            srf.free(name)
            reference.free(name)
        elif kind == "alloc":
            # Mixed sizes: a few common ones (so pools fill and
            # rotate) plus an arbitrary one now and then.
            words = size if extra % 5 else 1 + extra
            name = f"s{i}"
            try:
                want = reference.allocate(name, words)
            except SrfAllocationError:
                with pytest.raises(SrfAllocationError):
                    srf.allocate(name, words)
            else:
                assert srf.allocate(name, words).start == want
                live.append(name)
        srf.check_no_overlap()
        # The indexes equal what the reference recomputes by scanning.
        assert +srf._pooled_sizes == Counter(
            words for _, words in reference._pooled)
        assert srf._occupied == [(start, start + words) for start, words
                                 in reference.occupied()]
    assert [(r.name, r.start, r.words) for r in srf.regions()] == sorted(
        ((name, start, words)
         for name, (start, words) in reference._regions.items()),
        key=lambda row: row[1])


def test_cannibalises_pool_and_then_fails():
    srf = StreamRegisterFile(MachineConfig(srf_kbytes=1),
                             rotation_depth=8)
    assert srf.capacity_words == 256
    for i in range(4):
        srf.allocate(f"a{i}", 64)
    for i in range(4):
        srf.free(f"a{i}")
    # A new size finds no gap: the oldest pooled regions are dropped
    # until one fits (a0 and a1 for 100 words, then a2 for 56).
    assert srf.allocate("big", 100).start == 0
    assert srf.allocate("small", 56).start == 100
    # Dropping the last pooled region (a3) frees only 100 words.
    with pytest.raises(SrfAllocationError):
        srf.allocate("none", 120)
    srf.check_no_overlap()
