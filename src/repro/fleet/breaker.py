"""Per-transfer circuit breaker with a legal-transition state machine.

A fleet transfer that keeps stalling should stop consuming slots and
bandwidth until its path has had time to heal — that is the circuit-breaker
cloud pattern applied to transfers.  States::

    CLOSED --(failure_threshold consecutive incidents)--> OPEN
    OPEN --(cooldown elapsed)--> HALF_OPEN
    HALF_OPEN --(probe slice makes progress)--> CLOSED
    HALF_OPEN --(probe slice fails)--> OPEN

Every transition is appended to :attr:`CircuitBreaker.transitions` with its
virtual timestamp and reason; :func:`transitions_legal` re-validates a log
independently (each hop in the legal set, the chain contiguous, starting
from CLOSED), which is the soak harness's breaker invariant.  Attempting an
illegal hop raises :class:`~repro.utils.errors.BreakerTransitionError`
immediately — a scheduler bug fails loudly instead of corrupting the fleet.
Validation, the log and its re-check come from
:class:`~repro.utils.audited.AuditedMachine`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.audited import AuditedMachine
from repro.utils.config import require_positive
from repro.utils.errors import BreakerTransitionError

__all__ = [
    "BreakerConfig",
    "CircuitBreaker",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "LEGAL_TRANSITIONS",
    "transitions_legal",
]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: The complete set of legal state hops.
LEGAL_TRANSITIONS: frozenset[tuple[str, str]] = frozenset(
    {(CLOSED, OPEN), (OPEN, HALF_OPEN), (HALF_OPEN, CLOSED), (HALF_OPEN, OPEN)}
)


@dataclass(frozen=True)
class BreakerConfig:
    """Trip/heal knobs shared by every breaker in a fleet."""

    failure_threshold: int = 3  # consecutive incidents that trip CLOSED -> OPEN
    cooldown: float = 30.0  # virtual seconds OPEN before the HALF_OPEN probe
    half_open_successes: int = 1  # progressing probe slices needed to re-close

    def __post_init__(self) -> None:
        require_positive(self.failure_threshold, "failure_threshold")
        require_positive(self.cooldown, "cooldown")
        require_positive(self.half_open_successes, "half_open_successes")


class CircuitBreaker(AuditedMachine):
    """Failure-counting breaker for one supervised transfer."""

    STATES = (CLOSED, HALF_OPEN, OPEN)  # gauge codes 0 / 1 / 2
    LEGAL = LEGAL_TRANSITIONS
    ERROR = BreakerTransitionError

    def __init__(self, config: BreakerConfig | None = None, *, name: str = "") -> None:
        super().__init__(name)
        self.config = config or BreakerConfig()
        self.consecutive_failures = 0
        self.opened_at: float | None = None
        self.times_opened = 0
        self._probe_successes = 0

    # ------------------------------------------------------------ the driver
    def poll(self, t: float) -> str:
        """Advance time-driven transitions (OPEN → HALF_OPEN); returns state."""
        if self.state == OPEN and t >= (self.opened_at or 0.0) + self.config.cooldown:
            self._probe_successes = 0
            self._transition(HALF_OPEN, t, "cooldown_elapsed")
        return self.state

    def allows(self, t: float) -> bool:
        """Whether the transfer may be scheduled at ``t`` (polls first)."""
        return self.poll(t) != OPEN

    def record_failure(self, t: float, kind: str = "incident") -> str:
        """Count one incident; may trip or re-open.  Returns the new state."""
        self.consecutive_failures += 1
        if self.state == CLOSED:
            if self.consecutive_failures >= self.config.failure_threshold:
                self.opened_at = t
                self.times_opened += 1
                self._transition(OPEN, t, kind)
        elif self.state == HALF_OPEN:
            # The probe failed: back to OPEN for another cooldown.
            self.opened_at = t
            self.times_opened += 1
            self._transition(OPEN, t, f"probe_failed:{kind}")
        # In OPEN the scheduler never runs the transfer; a failure recorded
        # here (e.g. from a stale slice) only deepens the failure count.
        return self.state

    def record_success(self, t: float) -> str:
        """Count forward progress; may close a probing breaker."""
        self.consecutive_failures = 0
        if self.state == HALF_OPEN:
            self._probe_successes += 1
            if self._probe_successes >= self.config.half_open_successes:
                self._transition(CLOSED, t, "probe_succeeded")
        return self.state


#: Re-validate a breaker transition log (records or ``(src, dst)`` pairs).
transitions_legal = CircuitBreaker.transitions_legal
