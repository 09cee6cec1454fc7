"""Host-processor dispatch model.

The host walks the compiled stream-instruction sequence (either the
general dispatcher or the playback dispatcher -- the distinction only
changes per-instruction cost) and writes each instruction into the
scoreboard when a slot is free and the interface is ready.  A
``host_dependency`` instruction blocks the host until the instruction
completes plus a round-trip delay, modelling StreamC code whose
control flow reads kernel results (the RTSL pattern).

Under fault injection (:mod:`repro.faults`) the host also models the
response side of a flaky bridge: a dropped transfer is discovered
after a timeout (one round trip), retried with exponential backoff,
and abandoned with a typed :class:`HostError` after ``max_retries``
consecutive losses of the same instruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.host.interface import HostInterface
from repro.isa.stream_ops import StreamInstruction

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultInjector

#: Retry ceiling when no fault plan overrides it.
DEFAULT_MAX_RETRIES = 8


class HostError(RuntimeError):
    """Host dispatch failure, with the state needed to debug it."""

    def __init__(self, message: str, *, index: int | None = None,
                 ready_at: float | None = None,
                 blocked_on: int | None = None,
                 retries: int = 0) -> None:
        detail = []
        if index is not None:
            detail.append(f"instruction #{index}")
        if ready_at is not None:
            detail.append(f"ready_at={ready_at:.0f}")
        if blocked_on is not None:
            detail.append(f"blocked_on=#{blocked_on}")
        if retries:
            detail.append(f"retries={retries}")
        super().__init__(
            message + (f" ({', '.join(detail)})" if detail else ""))
        self.index = index
        self.ready_at = ready_at
        self.blocked_on = blocked_on
        self.retries = retries


@dataclass
class HostModel:
    """Program-order instruction source with interface rate limiting."""

    interface: HostInterface
    program: list[StreamInstruction]
    injector: "FaultInjector | None" = None
    next_index: int = 0
    ready_at: float = 0.0
    #: Instruction index whose completion the host is blocked on.
    blocked_on: int | None = None
    issued_instructions: int = field(default=0)
    #: Total retried transfers across the whole run.
    retries: int = field(default=0)
    #: Consecutive failed attempts for the *current* instruction.
    attempts: int = field(default=0)

    @property
    def done(self) -> bool:
        return self.next_index >= len(self.program)

    @property
    def max_retries(self) -> int:
        if self.injector is not None:
            limit = self.injector.host_max_retries
            if limit is not None:
                return limit
        return DEFAULT_MAX_RETRIES

    def can_issue(self, now: float) -> bool:
        return (not self.done and self.blocked_on is None
                and now + 1e-9 >= self.ready_at)

    def issue(self, now: float) -> tuple[int, StreamInstruction] | None:
        """Hand the next instruction to the scoreboard.

        Returns ``None`` when the transfer was dropped by an injected
        fault: the host discovers the loss after a timeout and backs
        off exponentially before retrying (the caller simply sees the
        host go quiet until :attr:`ready_at`).
        """
        if not self.can_issue(now):
            raise HostError("host cannot issue now",
                            index=self.next_index if not self.done
                            else None,
                            ready_at=self.ready_at,
                            blocked_on=self.blocked_on,
                            retries=self.retries)
        index = self.next_index
        instruction = self.program[index]
        if (self.injector is not None
                and self.injector.host_drop(index, now)):
            self.attempts += 1
            self.retries += 1
            if self.attempts > self.max_retries:
                raise HostError(
                    f"host transfer failed {self.attempts} times; "
                    f"giving up",
                    index=index, ready_at=self.ready_at,
                    blocked_on=self.blocked_on, retries=self.retries)
            self.ready_at = (now + self.interface.timeout_cycles
                             + self.interface.backoff_cycles(self.attempts))
            return None
        extra = 0.0
        if self.injector is not None:
            extra = self.injector.host_issue_extra_cycles(
                index, now, self.interface.issue_cycles)
        self.attempts = 0
        self.next_index += 1
        self.ready_at = now + self.interface.issue_cycles + extra
        self.issued_instructions += 1
        if instruction.host_dependency:
            self.blocked_on = index
        return index, instruction

    def notify_completion(self, index: int, now: float) -> None:
        """Unblock the host after a dependent instruction finishes."""
        if self.blocked_on == index:
            self.blocked_on = None
            self.ready_at = max(self.ready_at,
                                now + self.interface.round_trip_cycles)

    def next_event_time(self) -> float | None:
        """When the host can act next, if it is merely rate-limited."""
        if self.done or self.blocked_on is not None:
            return None
        return self.ready_at

    def dump(self) -> dict:
        """Diagnostic snapshot for watchdog reports."""
        return {
            "next_index": self.next_index,
            "program_length": len(self.program),
            "ready_at": self.ready_at,
            "blocked_on": self.blocked_on,
            "issued": self.issued_instructions,
            "retries": self.retries,
            "attempts": self.attempts,
            "done": self.done,
        }
