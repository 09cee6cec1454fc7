"""Fault injector: applies a :class:`~repro.faults.models.FaultPlan`.

The injector sits between a fault plan and the machine model.
Structural faults (cluster mask, AG failure, DRAM channel loss /
degradation, the generalized precharge bug) reshape the
:class:`~repro.core.config.MachineConfig` / DRAM model before the run;
dynamic faults (host jitter, stall bursts, dropped transfers,
scoreboard slot loss, microcode corruption) fire during the event loop
through the hook methods below.

Every fault firing is recorded as a
:class:`~repro.faults.models.FaultEvent` and emitted as an instant on
the ``faults`` tracer track, so a Chrome/Perfetto trace of a faulted
run shows exactly when and where each fault hit.  Each fault spec owns
an independent :class:`random.Random` stream derived from
``(plan seed, spec position, kind)``, so adding one fault to a plan
never perturbs another fault's sequence.
"""

from __future__ import annotations

import random
from dataclasses import replace

from repro.core.config import MachineConfig
from repro.faults.models import (
    FaultEvent,
    FaultKind,
    FaultPlan,
    FaultSpec,
)
from repro.memsys.dram import ChannelFault, PrechargeFault
from repro.obs.tracer import NULL_TRACER, TRACK_FAULTS, Tracer


class FaultInjector:
    """Runtime state for one plan applied to one simulation run."""

    def __init__(self, plan: FaultPlan,
                 tracer: Tracer = NULL_TRACER) -> None:
        self.plan = plan
        self.tracer = tracer
        self.events: list[FaultEvent] = []
        self._rngs: dict[int, random.Random] = {
            i: random.Random(f"{plan.seed}:{i}:{spec.kind.value}")
            for i, spec in enumerate(plan.faults)
        }
        self._specs: dict[FaultKind, tuple[int, FaultSpec]] = {}
        for i, spec in enumerate(plan.faults):
            # Last spec of a kind wins; plans list each kind once.
            self._specs[spec.kind] = (i, spec)
        self._slot_window_recorded = -1

    # ------------------------------------------------------------------
    # Bookkeeping.
    # ------------------------------------------------------------------
    def _spec(self, kind: FaultKind) -> FaultSpec | None:
        entry = self._specs.get(kind)
        return entry[1] if entry is not None else None

    def _rng(self, kind: FaultKind) -> random.Random:
        return self._rngs[self._specs[kind][0]]

    def record(self, kind: FaultKind, at: float, **detail) -> None:
        self.events.append(FaultEvent(kind, at, detail))
        if self.tracer.enabled:
            self.tracer.instant(TRACK_FAULTS, kind.value, ts=at, **detail)

    # ------------------------------------------------------------------
    # Structural faults (applied before the run; recorded at t=0).
    # ------------------------------------------------------------------
    def degrade_machine(self, machine: MachineConfig) -> MachineConfig:
        """The machine with dead clusters / AGs / DRAM channels removed."""
        spec = self._spec(FaultKind.CLUSTER_MASK)
        if spec is not None:
            clusters = min(machine.num_clusters, spec["clusters"])
            if clusters != machine.num_clusters:
                self.record(FaultKind.CLUSTER_MASK, 0.0,
                            clusters=clusters,
                            masked=machine.num_clusters - clusters)
            machine = replace(machine, num_clusters=clusters)
        spec = self._spec(FaultKind.AG_FAILURE)
        if spec is not None:
            ags = max(1, machine.num_ags - spec["count"])
            if ags != machine.num_ags:
                self.record(FaultKind.AG_FAILURE, 0.0,
                            failed=machine.num_ags - ags, alive=ags)
            machine = replace(machine, num_ags=ags)
        spec = self._spec(FaultKind.DRAM_CHANNEL_LOSS)
        if spec is not None:
            channels = max(1, machine.dram.channels - spec["channels"])
            if channels != machine.dram.channels:
                self.record(FaultKind.DRAM_CHANNEL_LOSS, 0.0,
                            lost=machine.dram.channels - channels,
                            alive=channels)
            machine = replace(machine,
                              dram=replace(machine.dram,
                                           channels=channels))
        return machine

    def precharge_fault(self,
                        default: PrechargeFault | None
                        ) -> PrechargeFault | None:
        """The precharge model for this run (plan overrides board)."""
        spec = self._spec(FaultKind.PRECHARGE_BUG)
        if spec is None:
            return default
        self.record(FaultKind.PRECHARGE_BUG, 0.0,
                    interval=spec["interval"],
                    probability=spec["probability"])
        return PrechargeFault(interval=spec["interval"],
                              probability=spec["probability"],
                              seed=self.plan.seed)

    def channel_fault(self, channels: int) -> ChannelFault | None:
        """Per-channel degradation against the post-loss channel count."""
        spec = self._spec(FaultKind.DRAM_CHANNEL_DEGRADE)
        if spec is None:
            return None
        degraded = min(spec["channels"], channels)
        rates = {ch: float(spec["factor"]) for ch in range(degraded)}
        self.record(FaultKind.DRAM_CHANNEL_DEGRADE, 0.0,
                    channels=degraded, factor=float(spec["factor"]))
        return ChannelFault(rates)

    # ------------------------------------------------------------------
    # Host-interface faults.
    # ------------------------------------------------------------------
    def host_issue_extra_cycles(self, index: int, now: float,
                                issue_cycles: float) -> float:
        """Extra delivery latency for instruction ``index`` (jitter +
        periodic stall bursts)."""
        extra = 0.0
        spec = self._spec(FaultKind.HOST_JITTER)
        if spec is not None:
            rng = self._rng(FaultKind.HOST_JITTER)
            if rng.random() < spec["probability"]:
                jitter = rng.random() * spec["magnitude"] * issue_cycles
                if jitter > 0:
                    self.record(FaultKind.HOST_JITTER, now,
                                index=index, cycles=jitter)
                extra += jitter
        spec = self._spec(FaultKind.HOST_STALL_BURST)
        if spec is not None and (index + 1) % spec["interval"] == 0:
            self.record(FaultKind.HOST_STALL_BURST, now,
                        index=index, cycles=spec["cycles"])
            extra += spec["cycles"]
        return extra

    def host_drop(self, index: int, now: float) -> bool:
        """True when this transfer attempt is lost (host must retry)."""
        spec = self._spec(FaultKind.HOST_DROP)
        if spec is None:
            return False
        if self._rng(FaultKind.HOST_DROP).random() < spec["probability"]:
            self.record(FaultKind.HOST_DROP, now, index=index)
            return True
        return False

    @property
    def host_max_retries(self) -> int | None:
        spec = self._spec(FaultKind.HOST_DROP)
        return spec["max_retries"] if spec is not None else None

    # ------------------------------------------------------------------
    # Scoreboard slot loss (periodic windows).
    # ------------------------------------------------------------------
    def slots_lost(self, now: float) -> int:
        spec = self._spec(FaultKind.SCOREBOARD_SLOT_LOSS)
        if spec is None:
            return 0
        window = int(now // spec["period"])
        active = (now - window * spec["period"]) < spec["duration"]
        if active and window > self._slot_window_recorded:
            self._slot_window_recorded = window
            self.record(FaultKind.SCOREBOARD_SLOT_LOSS,
                        window * spec["period"],
                        slots=spec["slots"],
                        until=window * spec["period"] + spec["duration"])
        return spec["slots"] if active else 0

    def next_slot_change(self, now: float) -> float | None:
        """When the current slot-loss state next flips, if ever."""
        spec = self._spec(FaultKind.SCOREBOARD_SLOT_LOSS)
        if spec is None:
            return None
        window = int(now // spec["period"])
        window_start = window * spec["period"]
        if (now - window_start) < spec["duration"]:
            return window_start + spec["duration"]
        return window_start + spec["period"]

    # ------------------------------------------------------------------
    # Microcode-store corruption.
    # ------------------------------------------------------------------
    def microcode_corrupted(self, kernel: str, now: float) -> bool:
        spec = self._spec(FaultKind.MICROCODE_CORRUPTION)
        if spec is None:
            return False
        rng = self._rng(FaultKind.MICROCODE_CORRUPTION)
        if rng.random() < spec["probability"]:
            self.record(FaultKind.MICROCODE_CORRUPTION, now,
                        kernel=kernel)
            return True
        return False
