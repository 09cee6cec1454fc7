"""Service-level retry policy: deterministic exponential backoff.

The engine already retries *host* transfers inside the simulation
(:meth:`repro.host.interface.HostInterface.backoff_cycles`) and
re-dispatches runs lost to worker crashes.  The service adds one more
ring: a job whose execution fails for an *infrastructure* reason (a
killed worker, a broken pool, an engine timeout) is retried with
exponential backoff before the job is failed; *simulation* results --
including typed simulation failures -- are never retried, they are
the answer.

Both the delay curve and the jitter are deterministic: jitter is
derived by hashing ``(seed, key, attempt)``, so a fixed seed yields a
byte-identical schedule (property-tested in
``tests/test_serve.py``), and jitter can never exceed
``jitter_cap_s``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

#: Typed failures that are simulation *results* -- cacheable answers,
#: never retried (mirrors ``repro.engine.session._CACHEABLE_ERRORS``
#: plus the static-verifier verdict).
SIMULATION_ERRORS = frozenset({
    "SimulationError",
    "InvariantViolation",
    "HostError",
    "AnalysisError",
})

#: Service-level failures that are terminal by definition: retrying
#: cannot help once the request's deadline has passed.
TERMINAL_SERVICE_ERRORS = frozenset({
    "DeadlineExceeded",
    "BadRequest",
    "UnrecoverableJob",
})


def is_retryable(error_type: str | None) -> bool:
    """True for infrastructure failures worth another attempt."""
    if error_type is None:
        return False
    return (error_type not in SIMULATION_ERRORS
            and error_type not in TERMINAL_SERVICE_ERRORS)


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic exponential backoff with capped, seeded jitter.

    ``delay(key, attempt)`` is a pure function of the policy fields:
    ``base_s * factor**(attempt-1)`` capped at ``cap_s``, plus a
    jitter in ``[0, jitter_cap_s]`` hashed from ``(seed, key,
    attempt)``.  Two services configured with the same seed therefore
    retry the same job on the same schedule -- which is what makes
    the chaos soak report byte-identical across reruns.
    """

    max_attempts: int = 3
    base_s: float = 0.05
    factor: float = 2.0
    cap_s: float = 2.0
    jitter_cap_s: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_s < 0 or self.cap_s < 0 or self.jitter_cap_s < 0:
            raise ValueError("delays must be non-negative")
        if self.factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {self.factor}")

    def jitter(self, key: str, attempt: int) -> float:
        """Deterministic jitter in ``[0, jitter_cap_s]``."""
        material = f"{self.seed}:{key}:{attempt}".encode()
        word = int.from_bytes(
            hashlib.sha256(material).digest()[:8], "big")
        return (word / float(2 ** 64)) * self.jitter_cap_s

    def delay(self, key: str, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based) of job ``key``."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        raw = min(self.base_s * self.factor ** (attempt - 1),
                  self.cap_s)
        return raw + self.jitter(key, attempt)

    def schedule(self, key: str) -> list[float]:
        """Every backoff delay this policy would sleep for ``key``
        (one entry per retry; ``max_attempts - 1`` entries)."""
        return [self.delay(key, attempt)
                for attempt in range(1, self.max_attempts)]


__all__ = [
    "RetryPolicy",
    "SIMULATION_ERRORS",
    "TERMINAL_SERVICE_ERRORS",
    "is_retryable",
]
