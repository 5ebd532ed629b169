"""Audited rollback state machine for online adaptation.

The adaptation loop must never be able to hurt a transfer silently: every
state hop is validated against a legal-transition set (the fleet
:class:`~repro.fleet.breaker.CircuitBreaker` pattern) and appended to an
audit log the soak harness re-validates independently.  States::

    NOMINAL --(drift detector fires)--> DRIFT_SUSPECTED
    DRIFT_SUSPECTED --(shadow eval promotes the corrector)--> CORRECTING
    DRIFT_SUSPECTED --(suspicion expires / shadow rejects)--> NOMINAL
    CORRECTING --(correction holds, regime re-baselined)--> NOMINAL
    CORRECTING --(regression vs pre-correction baseline)--> ROLLED_BACK
    ROLLED_BACK --(guarded control recovers clean progress)--> NOMINAL

Attempting an illegal hop raises
:class:`~repro.utils.errors.GuardTransitionError` immediately — an
adaptation bug fails loudly instead of corrupting a production transfer.
Validation, the log and its re-check come from
:class:`~repro.utils.audited.AuditedMachine`.
"""

from __future__ import annotations

from repro.utils.audited import AuditedMachine
from repro.utils.errors import GuardTransitionError

__all__ = [
    "RollbackGuard",
    "NOMINAL",
    "DRIFT_SUSPECTED",
    "CORRECTING",
    "ROLLED_BACK",
    "LEGAL_TRANSITIONS",
    "transitions_legal",
]

NOMINAL = "nominal"
DRIFT_SUSPECTED = "drift_suspected"
CORRECTING = "correcting"
ROLLED_BACK = "rolled_back"

#: The complete set of legal state hops.
LEGAL_TRANSITIONS: frozenset[tuple[str, str]] = frozenset(
    {
        (NOMINAL, DRIFT_SUSPECTED),
        (DRIFT_SUSPECTED, CORRECTING),
        (DRIFT_SUSPECTED, NOMINAL),
        (CORRECTING, NOMINAL),
        (CORRECTING, ROLLED_BACK),
        (ROLLED_BACK, NOMINAL),
    }
)


class RollbackGuard(AuditedMachine):
    """Legal-transition state machine driving one adaptive controller."""

    STATES = (NOMINAL, DRIFT_SUSPECTED, CORRECTING, ROLLED_BACK)  # gauge codes 0…3
    LEGAL = LEGAL_TRANSITIONS
    ERROR = GuardTransitionError

    def __init__(self, *, name: str = "") -> None:
        super().__init__(name)
        self.rollbacks = 0
        self.promotions = 0

    # ------------------------------------------------------------ the driver
    def suspect(self, t: float, reason: str) -> None:
        """Drift detector fired: NOMINAL → DRIFT_SUSPECTED."""
        self._transition(DRIFT_SUSPECTED, t, reason)

    def promote(self, t: float, reason: str) -> None:
        """Shadow evaluation promoted the corrector: → CORRECTING."""
        self._transition(CORRECTING, t, reason)
        self.promotions += 1

    def clear(self, t: float, reason: str) -> None:
        """Suspicion expired or correction held: → NOMINAL."""
        self._transition(NOMINAL, t, reason)

    def rollback(self, t: float, reason: str) -> None:
        """Correction regressed: CORRECTING → ROLLED_BACK."""
        self._transition(ROLLED_BACK, t, reason)
        self.rollbacks += 1

    def recover(self, t: float, reason: str) -> None:
        """Guarded control recovered: ROLLED_BACK → NOMINAL."""
        self._transition(NOMINAL, t, reason)


#: Re-validate a guard transition log (records or ``(src, dst)`` pairs).
transitions_legal = RollbackGuard.transitions_legal
