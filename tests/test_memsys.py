"""Tests for the memory-system substrate: DRAM, AGs, controller."""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import DramConfig, MachineConfig
from repro.memsys import (
    MemorySystem,
    expand_pattern,
    indexed,
    strided,
    unit_stride,
)
from repro.memsys.controller import SharedMemoryServer
from repro.memsys.dram import ChannelFault, DramModel, PrechargeFault


class TestPatterns:
    def test_unit_stride_expansion(self):
        addresses = expand_pattern(unit_stride(8, start=100))
        assert list(addresses) == list(range(100, 108))

    def test_strided_records(self):
        addresses = expand_pattern(strided(8, stride=12, record_words=4))
        assert list(addresses) == [0, 1, 2, 3, 12, 13, 14, 15]

    def test_indexed_within_range(self):
        pattern = indexed(1000, 64)
        addresses = expand_pattern(pattern)
        assert addresses.min() >= 0
        assert addresses.max() < 64

    def test_indexed_deterministic_by_seed(self):
        a = expand_pattern(indexed(100, 2048, seed=3))
        b = expand_pattern(indexed(100, 2048, seed=3))
        c = expand_pattern(indexed(100, 2048, seed=4))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_explicit_indices(self):
        pattern = indexed(4, 100, start=1000, indices=[5, 1, 7, 3])
        assert list(expand_pattern(pattern)) == [1005, 1001, 1007, 1003]

    def test_records_property(self):
        assert strided(10, 12, 4).records == 3

    def test_invalid_patterns_rejected(self):
        with pytest.raises(ValueError):
            unit_stride(0)
        with pytest.raises(ValueError):
            indexed(8, 0)
        with pytest.raises(ValueError):
            strided(8, 2, record_words=0)

    def test_cache_residency(self):
        assert indexed(100, 16).cache_resident(256)
        assert not indexed(100, 4096).cache_resident(256)
        assert not unit_stride(100).cache_resident(256)


class TestDramModel:
    def setup_method(self):
        self.config = DramConfig()
        self.model = DramModel(self.config)

    def test_channel_interleave(self):
        addresses = np.arange(8)
        channel, _, _ = self.model.map_addresses(addresses)
        assert list(channel) == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_row_hits_beat_row_misses(self):
        sequential = self.model.service(np.arange(1024))
        scattered = self.model.service(
            np.arange(1024) * self.config.row_words
            * self.config.channels)
        assert sequential.mem_cycles < scattered.mem_cycles

    def test_bus_bound(self):
        # A channel transfers at most one word per memory cycle.
        stats = self.model.service(np.arange(4096))
        per_channel = 4096 // self.config.channels
        assert stats.mem_cycles >= per_channel

    def test_stride_two_uses_half_the_channels(self):
        full = self.model.service(np.arange(2048))
        half = self.model.service(np.arange(2048) * 2)
        assert half.mem_cycles > 1.8 * full.mem_cycles

    def test_precharge_bug_slows_unit_stride(self):
        clean = DramModel(self.config, precharge_bug=False)
        buggy = DramModel(self.config, precharge_bug=True)
        addresses = np.arange(8192)
        ratio = (buggy.service(addresses).mem_cycles
                 / clean.service(addresses).mem_cycles)
        # Section 3.3: ~20% bandwidth loss.
        assert 1.1 < ratio < 1.5
        assert buggy.service(addresses).forced_precharges > 0

    def test_empty_sequence(self):
        stats = self.model.service(np.array([], dtype=np.int64))
        assert stats.mem_cycles == 0

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 1 << 22), min_size=1, max_size=300))
    def test_cycles_at_least_busiest_channel(self, addresses):
        stats = self.model.service(np.asarray(addresses))
        channel, _, _ = self.model.map_addresses(np.asarray(addresses))
        busiest = max(np.bincount(channel,
                                  minlength=self.config.channels))
        assert stats.mem_cycles >= busiest
        assert stats.row_hits + stats.row_misses == len(addresses)


@st.composite
def dram_models(draw):
    """A DRAM model over the space the array walk must cover: 1-4
    channels and banks, short to long rows, any timing, either page
    policy, reorder windows 1/2/16, no fault or the certain precharge
    bug, and an optional slow channel."""
    config = DramConfig(
        channels=draw(st.integers(1, 4)),
        banks_per_channel=draw(st.integers(1, 4)),
        row_words=draw(st.sampled_from((1, 2, 8, 64))),
        t_rp=draw(st.integers(0, 8)),
        t_rcd=draw(st.integers(0, 8)),
        t_cl=draw(st.integers(0, 8)),
        page_policy=draw(st.sampled_from(("open", "closed"))),
        reorder_window=draw(st.sampled_from((1, 2, 16))),
        precharge_bug_interval=draw(st.integers(1, 32)))
    precharge = (PrechargeFault.from_config(config)
                 if draw(st.booleans()) else None)
    rates = draw(st.dictionaries(st.integers(0, config.channels - 1),
                                 st.floats(0.05, 1.0), max_size=2))
    return DramModel(config, precharge=precharge,
                     channel_fault=ChannelFault(rates) if rates else None)


@st.composite
def address_sequences(draw):
    """Strided, random-indexed or repeated-address word sequences;
    strided starts and repeated addresses may be negative, so rows
    with negative ids are walked too."""
    words = draw(st.integers(1, 600))
    kind = draw(st.sampled_from(("strided", "indexed", "repeated")))
    if kind == "strided":
        return expand_pattern(strided(
            words, stride=draw(st.integers(1, 24)),
            record_words=draw(st.integers(1, 4)),
            start=draw(st.integers(-4096, 4096))))
    if kind == "indexed":
        return expand_pattern(indexed(
            words, draw(st.sampled_from((16, 512, 1 << 22))),
            seed=draw(st.integers(0, 1 << 16))))
    pool = draw(st.lists(st.integers(-(1 << 12), 1 << 12), min_size=1,
                         max_size=6))
    return np.asarray(draw(st.lists(st.sampled_from(pool),
                                    min_size=1, max_size=words)))


class TestArrayWalk:
    """The array walk against the per-access reference walk.

    Both simulation backends share :class:`DramModel`, so the backend
    differential gate cannot see a wrong walk; these can.
    """

    @settings(deadline=None)
    @given(dram_models(), address_sequences())
    def test_array_walk_equals_per_access_walk(self, model, addresses):
        reference = DramModel(model.config, precharge=model.precharge,
                              channel_fault=model.channel_fault)
        reference._walk_arrays = reference._walk_per_access
        assert model.service(addresses) == reference.service(addresses)

    @pytest.mark.parametrize("walk", ["_walk_arrays", "_walk_per_access"])
    def test_first_access_to_row_minus_one_opens_it(self, walk):
        # One bank of one-word rows: word -1 is row -1, word 0 row 0.
        config = DramConfig(channels=1, banks_per_channel=1, row_words=1,
                            t_rp=2, t_rcd=3, t_cl=5, reorder_window=1)
        model = DramModel(config)
        model._walk_arrays = getattr(model, walk)
        first = model.service(np.array([-1]))
        assert (first.row_hits, first.row_misses) == (0, 1)
        assert first.mem_cycles == config.t_rcd + config.t_cl + 1
        both = model.service(np.array([-1, 0]))
        assert (both.row_hits, both.row_misses) == (0, 2)
        assert both.mem_cycles == (first.mem_cycles + config.t_rp
                                   + config.t_rcd + config.t_cl + 1)

    def test_per_access_walk_only_for_uncertain_precharge(self):
        addresses = np.arange(512)
        for precharge in (None, PrechargeFault(interval=8)):
            model = DramModel(DramConfig(), precharge=precharge)
            model._walk_per_access = None
            assert model.service(addresses).row_misses > 0
        model = DramModel(DramConfig(), precharge=PrechargeFault(
            interval=8, probability=0.5))
        model._walk_arrays = None
        assert model.service(addresses).forced_precharges > 0


def lru_filter(addresses, capacity):
    """The controller cache as an explicit LRU: the reference."""
    cache = OrderedDict()
    misses = []
    for addr in addresses.tolist():
        if addr in cache:
            cache.move_to_end(addr)
            continue
        misses.append(addr)
        cache[addr] = None
        if len(cache) > capacity:
            cache.popitem(last=False)
    return np.asarray(misses, dtype=np.int64)


class TestCacheFilter:
    @settings(deadline=None)
    @given(st.integers(1, 256), st.integers(-2, 2),
           st.sampled_from(("random", "cyclic")),
           st.integers(1, 1500), st.integers(0, 1 << 16))
    def test_filter_equals_lru(self, capacity, offset, kind, words,
                               seed):
        # Reuse gaps around the capacity: draw from (or cycle over)
        # capacity + offset distinct addresses.
        span = max(1, capacity + offset)
        if kind == "cyclic":
            addresses = np.arange(words, dtype=np.int64) % span
        else:
            addresses = np.random.default_rng(seed).integers(
                0, span, size=words, dtype=np.int64)
        system = MemorySystem(MachineConfig(
            dram=DramConfig(controller_cache_words=capacity)))
        filtered = system._filter_cache(indexed(words, span), addresses)
        expected = lru_filter(addresses, capacity)
        assert filtered.dtype == expected.dtype
        assert np.array_equal(filtered, expected)


class TestMemorySystem:
    def setup_method(self):
        self.machine = MachineConfig()

    def rate(self, pattern, bug=False):
        system = MemorySystem(self.machine, precharge_bug=bug)
        return system.measure(pattern).rate_words_per_cycle

    def test_figure9_pattern_ordering(self):
        n = 8192
        unit = self.rate(unit_stride(n))
        stride2 = self.rate(strided(n, 2))
        idx16 = self.rate(indexed(n, 16))
        idx2k = self.rate(indexed(n, 2048))
        idx4m = self.rate(indexed(n, 4 * 1024 * 1024))
        assert idx16 >= unit > stride2 > idx4m
        assert idx2k > idx4m
        assert unit > idx2k

    def test_small_indexed_range_is_cache_resident(self):
        system = MemorySystem(self.machine)
        measurement = system.measure(indexed(8192, 16))
        assert measurement.dram_fraction < 0.05

    def test_huge_indexed_range_misses(self):
        system = MemorySystem(self.machine)
        measurement = system.measure(indexed(8192, 4 * 1024 * 1024))
        assert measurement.dram_fraction > 0.95

    def test_hardware_bug_only_in_hardware_mode(self):
        clean = self.rate(unit_stride(8192), bug=False)
        buggy = self.rate(unit_stride(8192), bug=True)
        assert buggy < 0.9 * clean

    def test_rate_cached_by_signature(self):
        system = MemorySystem(self.machine)
        first = system.measure(unit_stride(4096, start=0))
        second = system.measure(unit_stride(4096, start=999))
        assert (first.rate_words_per_cycle
                == second.rate_words_per_cycle)


class TestSharedMemoryServer:
    def make_server(self):
        return SharedMemoryServer(MemorySystem(MachineConfig()))

    def test_single_stream_completes(self):
        server = self.make_server()
        system = server.memory
        measurement = system.measure(unit_stride(1024))
        server.start(1, measurement)
        done = []
        for _ in range(100):
            delta = server.next_completion_delta()
            if delta is None:
                break
            done += server.advance(delta)
        assert done == [1]

    def test_two_dram_streams_share_bandwidth(self):
        server = self.make_server()
        system = server.memory
        m = system.measure(unit_stride(8192))
        server.start(1, m)
        solo_rate = server.current_rates()[1]
        server.start(2, system.measure(unit_stride(8192, start=100000)))
        shared = server.current_rates()
        assert shared[1] < solo_rate
        assert shared[1] + shared[2] <= (
            system.controller_peak + 1e-9)

    def test_cache_resident_streams_not_dram_limited(self):
        server = self.make_server()
        system = server.memory
        server.start(1, system.measure(indexed(8192, 16, seed=1)))
        server.start(2, system.measure(indexed(8192, 16, seed=2)))
        rates = server.current_rates()
        # Two cache-hit streams share only the controller port.
        assert rates[1] + rates[2] >= 0.9 * system.controller_peak

    def test_duplicate_start_rejected(self):
        server = self.make_server()
        measurement = server.memory.measure(unit_stride(64))
        server.start(1, measurement)
        with pytest.raises(ValueError):
            server.start(1, measurement)

    def test_advance_conserves_words(self):
        server = self.make_server()
        measurement = server.memory.measure(unit_stride(1000))
        server.start(1, measurement)
        total = measurement.startup_cycles + 1000 / (
            measurement.rate_words_per_cycle)
        assert server.advance(total + 1) == [1]
