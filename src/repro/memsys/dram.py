"""SDRAM channel timing model.

Models Imagine's four 100 MHz SDRAM channels with per-bank open-row
state: a row hit transfers one word per memory-bus cycle; a row miss
pays precharge + activate + CAS latency, overlappable with transfers
on other banks.  Words interleave across channels (``addr % channels``)
so unit-stride streams engage all four channels while a stride-2 word
stream only engages two -- the effect Figure 9 measures.

The "performance bug in the on-chip memory controller which causes
unnecessary DRAM precharges between some accesses to the same DRAM
row" (Section 3.3) is modeled by :class:`PrechargeFault`: a forced
precharge after every ``interval`` consecutive same-row accesses to a
bank, fired with ``probability`` (the hardware board behaves like
``probability=1.0`` at the calibrated interval; fault plans explore
the wider family).  :class:`ChannelFault` degrades or disables
individual channels, the knob behind bandwidth-degradation sweeps.

The walk is array operations with a Python loop over row misses only.
In the per-access recurrence a bank is never ready after the bus
(``bank_ready[b] <= bus``: both become the same cycle at each access
and the bus only moves on), so a row hit always advances the bus by
exactly one cycle, and only a miss can add slack,
``max(bank_ready + latency, bus)``.  :meth:`DramModel._walk_arrays`
therefore reorders every channel with one lexsort, classifies hits,
misses and forced precharges (the certain bug fires at every
``interval``-th access of a bank's same-row streak; a closed page
misses always) with array operations, and runs the slack recurrence
over the misses alone.  Where a precharge fault fires with
``probability < 1`` its random draws make the walk sequential, so
:meth:`DramModel._walk_per_access` -- one Python step per access, and
the reference the tests hold the array walk to -- services it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.core.config import DramConfig


@dataclass(frozen=True)
class PrechargeFault:
    """Parameterized memory-controller precharge bug.

    Every ``interval`` consecutive same-row accesses to a bank, an
    unnecessary precharge is forced with ``probability``.  ``seed``
    makes sub-1.0 probabilities reproducible; the random stream is
    derived per (channel, address-sequence) so results do not depend
    on service order.
    """

    interval: int
    probability: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ValueError(f"precharge interval must be >= 1, "
                             f"got {self.interval}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"precharge probability must be in [0, 1], "
                             f"got {self.probability}")

    @classmethod
    def from_config(cls, config: DramConfig) -> "PrechargeFault":
        """The board's calibrated Section-3.3 bug (always fires)."""
        return cls(interval=config.precharge_bug_interval,
                   probability=1.0)

    def rng(self, channel: int, accesses: int) -> random.Random | None:
        """Deterministic per-channel random stream (None when certain)."""
        if self.probability >= 1.0:
            return None
        return random.Random(f"precharge:{self.seed}:{channel}:{accesses}")


@dataclass(frozen=True)
class ChannelFault:
    """Per-channel service degradation (``rate`` < 1) for fault plans.

    ``rates[i]`` scales channel ``i``'s service rate; a missing entry
    means the channel is healthy.  Whole-channel *loss* is modelled
    structurally (fewer channels in :class:`DramConfig`) so address
    interleaving stays physical; this class covers the softer
    "channel runs slow" family.
    """

    rates: dict[int, float]

    def __post_init__(self) -> None:
        for channel, rate in self.rates.items():
            if not 0.0 < rate <= 1.0:
                raise ValueError(
                    f"channel {channel} rate must be in (0, 1], "
                    f"got {rate}")

    def factor(self, channel: int) -> float:
        return self.rates.get(channel, 1.0)


@dataclass(frozen=True)
class DramStats:
    """Outcome of servicing one address sequence."""

    words: int
    mem_cycles: int
    row_hits: int
    row_misses: int
    forced_precharges: int
    #: Busy memory-bus cycles per channel (index = channel id); the
    #: service time is their max since channels run in parallel.
    per_channel_cycles: tuple[int, ...] = ()


class DramModel:
    """Services in-order word-address sequences, channel by channel."""

    def __init__(self, config: DramConfig,
                 precharge_bug: bool = False,
                 precharge: PrechargeFault | None = None,
                 channel_fault: ChannelFault | None = None) -> None:
        self.config = config
        if precharge is None and precharge_bug:
            precharge = PrechargeFault.from_config(config)
        self.precharge = precharge
        self.channel_fault = channel_fault

    @property
    def precharge_bug(self) -> bool:
        """Whether any precharge fault is active (legacy flag view)."""
        return self.precharge is not None

    # ------------------------------------------------------------------
    # Address mapping.
    # ------------------------------------------------------------------
    def map_addresses(self, addresses: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Split word addresses into (channel, bank, row) coordinates."""
        config = self.config
        channel = addresses % config.channels
        within = addresses // config.channels
        row_id = within // config.row_words
        bank = row_id % config.banks_per_channel
        return channel, bank, row_id

    # ------------------------------------------------------------------
    # Timing.
    # ------------------------------------------------------------------
    def service(self, addresses: np.ndarray,
                reorder_window: int | None = None) -> DramStats:
        """Memory cycles to service ``addresses`` in (reordered) order.

        The controller's reorder window groups accesses to the same
        (bank, row) within a sliding window, as real stream memory
        controllers do to raise row-hit rates.
        """
        if len(addresses) == 0:
            return DramStats(0, 0, 0, 0, 0)
        window = (self.config.reorder_window if reorder_window is None
                  else reorder_window)
        addresses = np.asarray(addresses)
        fault = self.precharge
        if fault is not None and fault.probability < 1.0:
            walk = self._walk_per_access(addresses, window)
        else:
            walk = self._walk_arrays(addresses, window)
        per_channel, hits, misses, forced = walk
        if self.channel_fault is not None:
            per_channel = [int(round(cycles / self.channel_fault.factor(ch)))
                           for ch, cycles in enumerate(per_channel)]
        return DramStats(len(addresses), max(per_channel), hits, misses,
                         forced, tuple(per_channel))

    def _walk_arrays(self, addresses: np.ndarray, window: int
                     ) -> tuple[list[int], int, int, int]:
        """Every channel's walk in one pass of array operations.

        Returns (busy cycles per channel, hits, misses, forced
        precharges) before any :class:`ChannelFault` scaling.  Exact
        for a certain precharge fault or none; see the module
        docstring for the miss-only recurrence.
        """
        config = self.config
        nbanks = config.banks_per_channel
        channel, bank, row = self.map_addresses(addresses)
        n = len(channel)
        counts = np.bincount(channel, minlength=config.channels)
        starts = np.cumsum(counts) - counts
        # Reorder: channel-major, then _reorder's key per channel.
        order = np.argsort(channel, kind="stable")
        if window > 1:
            arrival = np.empty(n, dtype=np.int64)
            arrival[order] = np.arange(n) - np.repeat(starts, counts)
            order = np.lexsort((arrival, row, bank, arrival // window,
                                channel))
        channel, bank, row = channel[order], bank[order], row[order]
        # Each access's predecessor on its bank (-1: the bank's first).
        keys = channel * nbanks + bank
        by_bank = np.argsort(keys, kind="stable")
        follows = np.zeros(n, dtype=bool)
        follows[1:] = keys[by_bank[1:]] == keys[by_bank[:-1]]
        prev = np.full(n, -1, dtype=np.int64)
        prev[by_bank[1:][follows[1:]]] = by_bank[:-1][follows[1:]]
        # A bank is open from its first access on, holding the row of
        # its predecessor (any row id, negative ones too).
        is_open = prev >= 0
        forced_count = 0
        if config.page_policy == "closed":
            miss = np.ones(n, dtype=bool)
            latency = np.full(n, config.t_rcd + config.t_cl)
        else:
            miss = ~is_open | (row[prev] != row)
            latency = np.where(
                is_open, config.t_rp + config.t_rcd + config.t_cl,
                config.t_rcd + config.t_cl)
            if self.precharge is not None:
                # Position of each access in its bank's same-row streak;
                # the bug fires at every interval-th one.
                hit = ~miss[by_bank] & follows
                step = np.arange(n)
                streak = step - np.maximum.accumulate(
                    np.where(hit, 0, step))
                forced = np.zeros(n, dtype=bool)
                forced[by_bank] = (streak > 0) & (
                    streak % self.precharge.interval == 0)
                forced_count = int(np.count_nonzero(forced))
                miss |= forced
        # Slack recurrence over the misses; ``slack`` is global, so
        # each channel's walk is offset by the slack before it.
        miss_at = np.flatnonzero(miss)
        anchor = np.where(is_open, prev, starts[channel] - 1)[miss_at]
        gap = (anchor + 1 + latency[miss_at] - miss_at).tolist()
        since = np.searchsorted(miss_at, anchor, side="right").tolist()
        slack = 0
        cumulative = [0]
        for lead, before in zip(gap, since):
            ready = lead + cumulative[before]
            if ready > slack:
                slack = ready
            cumulative.append(slack)
        cumulative = np.asarray(cumulative)
        first = np.searchsorted(miss_at, starts - 1, side="right")
        last = np.searchsorted(miss_at, starts + counts - 1, side="right")
        per_channel = counts + cumulative[last] - cumulative[first]
        misses = len(miss_at)
        return per_channel.tolist(), n - misses, misses, forced_count

    def _walk_per_access(self, addresses: np.ndarray, window: int
                         ) -> tuple[list[int], int, int, int]:
        """The reference walk: one Python step per access, channel by
        channel.  Needed where a precharge fault draws random numbers
        per access; tests compare :meth:`_walk_arrays` against it."""
        channel, bank, row_id = self.map_addresses(addresses)
        per_channel = [0] * self.config.channels
        hits = misses = forced = 0
        for ch in range(self.config.channels):
            mask = channel == ch
            if not mask.any():
                continue
            banks = bank[mask]
            rows = row_id[mask]
            if window > 1:
                banks, rows = _reorder(banks, rows, window)
            per_channel[ch], ch_hits, ch_misses, ch_forced = (
                self._channel_cycles(banks, rows, channel=ch))
            hits += ch_hits
            misses += ch_misses
            forced += ch_forced
        return per_channel, hits, misses, forced

    def _channel_cycles(self, banks: np.ndarray, rows: np.ndarray,
                        channel: int = 0) -> tuple[int, int, int, int]:
        config = self.config
        nbanks = config.banks_per_channel
        miss_latency = config.t_rp + config.t_rcd + config.t_cl
        first_latency = config.t_rcd + config.t_cl
        bus = 0
        bank_ready = [0] * nbanks
        # The row each bank holds open; None while it is closed.
        open_row: list[int | None] = [None] * nbanks
        run_length = [0] * nbanks
        hits = misses = forced = 0
        fault = self.precharge
        closed_page = config.page_policy == "closed"
        interval = fault.interval if fault is not None else 0
        rng = fault.rng(channel, len(banks)) if fault is not None else None
        for b, r in zip(banks.tolist(), rows.tolist()):
            hit = open_row[b] == r and not closed_page
            if (hit and fault is not None and run_length[b] >= interval
                    and (rng is None or rng.random() < fault.probability)):
                hit = False
                forced += 1
                run_length[b] = 0
            if hit:
                start = max(bus, bank_ready[b])
                bus = start + 1
                bank_ready[b] = bus
                run_length[b] += 1
                hits += 1
            else:
                latency = (first_latency if open_row[b] is None
                           else miss_latency)
                ready = bank_ready[b] + latency
                start = max(ready, bus)
                bus = start + 1
                bank_ready[b] = bus
                # Closed-page: the bank auto-precharges after the
                # access, so the next one pays activate+CAS again.
                open_row[b] = None if closed_page else r
                run_length[b] = 1
                misses += 1
        return bus, hits, misses, forced


def _reorder(banks: np.ndarray, rows: np.ndarray,
             window: int) -> tuple[np.ndarray, np.ndarray]:
    """Stable same-row grouping within a sliding window.

    One lexsort over (window chunk, bank, row, arrival index) equals
    a per-chunk stable sort by (bank, row): the chunk id pins each
    access to its window and the arrival index breaks ties, so the
    permutation is total and order-deterministic.
    """
    n = len(banks)
    arrival = np.arange(n)
    index = np.lexsort((arrival, rows, banks, arrival // window))
    return banks[index], rows[index]
