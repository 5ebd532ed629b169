"""Audited state machine: legal hops only, each one logged and re-checkable.

The fleet's :class:`~repro.fleet.breaker.CircuitBreaker` and the adaptation
loop's :class:`~repro.adapt.guard.RollbackGuard` are both this machine.  A
subclass declares its states (birth state first; a state's index is its
gauge code), its complete set of legal hops and the error an illegal hop
raises.  Every hop is validated before it happens, raising immediately on a
bug instead of corrupting the run, and is appended to an audit log that
:meth:`AuditedMachine.transitions_legal` re-validates independently — the
soak harnesses' transition invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.utils.errors import ReproError

__all__ = ["AuditedMachine", "Transition"]


@dataclass(frozen=True)
class Transition:
    """One audited state hop."""

    t: float
    src: str
    dst: str
    reason: str

    def to_dict(self) -> dict:
        """JSON-friendly form for soak and fleet reports."""
        return {"t": round(self.t, 3), "src": self.src, "dst": self.dst, "reason": self.reason}


class AuditedMachine:
    """A legal-transition state machine with an audit log.

    Subclasses set ``STATES`` (birth state first), ``LEGAL`` (every legal
    ``(src, dst)`` hop) and ``ERROR`` (raised on an illegal hop).
    """

    STATES: ClassVar[tuple[str, ...]]
    LEGAL: ClassVar[frozenset[tuple[str, str]]]
    ERROR: ClassVar[type[ReproError]]

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.state = self.STATES[0]
        self.transitions: list[Transition] = []

    def _transition(self, dst: str, t: float, reason: str) -> None:
        if (self.state, dst) not in self.LEGAL:
            raise self.ERROR(
                f"{type(self).__name__} {self.name!r}: illegal transition {self.state} -> {dst} "
                f"at t={t:.1f} ({reason})"
            )
        self.transitions.append(Transition(t, self.state, dst, reason))
        self.state = dst

    @classmethod
    def transitions_legal(cls, transitions) -> bool:
        """Independently validate a transition log (the soak invariant).

        ``transitions`` holds :class:`Transition` records or ``(src, dst)``
        pairs.  Every hop must be in ``LEGAL``, the chain must be contiguous
        (each hop starts where the previous one ended) and must start from
        the birth state.
        """
        previous = cls.STATES[0]
        for tr in transitions:
            src, dst = (tr.src, tr.dst) if isinstance(tr, Transition) else (tr[0], tr[1])
            if src != previous or (src, dst) not in cls.LEGAL:
                return False
            previous = dst
        return True

    @property
    def state_code(self) -> int:
        """Numeric gauge encoding: the state's index in ``STATES``."""
        return self.STATES.index(self.state)
