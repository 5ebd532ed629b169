"""Degraded-mode control: keep a trained policy safe on pathological inputs.

:class:`GuardedController` decorates any controller (typically
:class:`repro.core.production.AutoMDTController`) with three defenses the
policy never needed in training:

* **observation sanitation** — NaN/infinite throughputs (probe dropouts),
  zero or negative buffer capacities and NaN buffer reports are replaced
  with safe values *before* the policy sees them, so nothing non-finite
  enters the policy network;
* **pathological-output detection** — repeated out-of-range proposals or
  thread thrashing (consecutive proposals jumping by more than
  ``thrash_threshold`` total threads, ``thrash_window`` times in a row)
  mark the policy as misbehaving;
* **heuristic fallback** — while degraded, proposals come from a
  conservative fallback controller (default:
  :class:`repro.baselines.heuristic.ProbeHeuristicController`); the primary
  re-engages after ``recovery_intervals`` consecutive clean observations.

Every guard action is logged in :attr:`events` as ``(elapsed, reason)`` so
tests and incident reports can reconstruct what the guard did and when.
"""

from __future__ import annotations

import math
from dataclasses import replace

from repro import obs as telemetry
from repro.emulator.testbed import threads_in_range
from repro.transfer.engine import Controller, Observation
from repro.utils.config import require_positive

_INF = math.inf


def _finite(value: float, fallback: float = 0.0) -> float:
    return float(value) if math.isfinite(value) else fallback


class GuardedController:
    """Wraps a primary controller with sanitation and heuristic fallback."""

    def __init__(
        self,
        primary: Controller,
        fallback: Controller | None = None,
        *,
        max_threads: int = 30,
        thrash_threshold: int = 12,
        thrash_window: int = 3,
        out_of_range_limit: int = 3,
        recovery_intervals: int = 3,
    ) -> None:
        require_positive(max_threads, "max_threads")
        require_positive(thrash_threshold, "thrash_threshold")
        require_positive(thrash_window, "thrash_window")
        require_positive(out_of_range_limit, "out_of_range_limit")
        require_positive(recovery_intervals, "recovery_intervals")
        if fallback is None:
            from repro.baselines.heuristic import ProbeHeuristicController

            fallback = ProbeHeuristicController(max_threads=max_threads)
        self.primary = primary
        self.fallback = fallback
        self.max_threads = int(max_threads)
        self.thrash_threshold = int(thrash_threshold)
        self.thrash_window = int(thrash_window)
        self.out_of_range_limit = int(out_of_range_limit)
        self.recovery_intervals = int(recovery_intervals)
        self.events: list[tuple[float, str]] = []
        self.degraded_intervals = 0
        self._reset_state()

    def _reset_state(self) -> None:
        self._degraded = False
        self._clean_streak = 0
        self._thrash_streak = 0
        self._range_streak = 0
        self._last_proposal: tuple[int, int, int] | None = None

    @property
    def degraded(self) -> bool:
        """Whether proposals currently come from the fallback controller."""
        return self._degraded

    # ------------------------------------------------------------- sanitation
    def _sanitize(self, obs: Observation) -> tuple[Observation, bool]:
        """Return a finite, consistent observation and whether it was dirty.

        A clean observation (three finite non-negative throughputs, finite
        positive capacities, each free figure in ``[0, capacity]``) passes
        the straight-line check and is returned as it is.  Anything else,
        including fields the check cannot compare, takes the field-by-field
        repair, which may still find it clean (another throughput count,
        say) or raise for it as it always did.
        """
        try:
            throughputs = obs.throughputs
            sender_capacity = obs.sender_capacity
            receiver_capacity = obs.receiver_capacity
            clean = (
                len(throughputs) == 3
                and 0.0 <= throughputs[0] < _INF
                and 0.0 <= throughputs[1] < _INF
                and 0.0 <= throughputs[2] < _INF
                and 0.0 < sender_capacity < _INF
                and 0.0 < receiver_capacity < _INF
                and 0.0 <= obs.sender_free <= sender_capacity
                and 0.0 <= obs.receiver_free <= receiver_capacity
            )
        except (TypeError, ValueError):
            clean = False
        if clean:
            return obs, False
        throughputs = tuple(max(0.0, _finite(v)) for v in obs.throughputs)
        sender_capacity = obs.sender_capacity
        receiver_capacity = obs.receiver_capacity
        dirty = throughputs != tuple(float(v) for v in obs.throughputs)
        if not math.isfinite(sender_capacity) or sender_capacity <= 0.0:
            sender_capacity, dirty = 1.0, True
        if not math.isfinite(receiver_capacity) or receiver_capacity <= 0.0:
            receiver_capacity, dirty = 1.0, True
        sender_free = _finite(obs.sender_free, sender_capacity)
        receiver_free = _finite(obs.receiver_free, receiver_capacity)
        sender_free = min(max(sender_free, 0.0), sender_capacity)
        receiver_free = min(max(receiver_free, 0.0), receiver_capacity)
        if (sender_free, receiver_free) != (obs.sender_free, obs.receiver_free):
            dirty = True
        if not dirty:
            return obs, False
        return (
            replace(
                obs,
                throughputs=throughputs,  # type: ignore[arg-type]
                sender_capacity=sender_capacity,
                receiver_capacity=receiver_capacity,
                sender_free=sender_free,
                receiver_free=receiver_free,
            ),
            True,
        )

    # ----------------------------------------------------------- output checks
    def _proposal_pathology(self, proposal) -> str | None:
        """Why ``proposal`` marks the primary as misbehaving, or None.

        An in-range int triple (:func:`threads_in_range`) is in range by
        construction and needs no conversion; only the thrash check reads it.
        """
        if threads_in_range(proposal, self.max_threads):
            triple = proposal
            self._range_streak = 0
        else:
            try:
                triple = tuple(float(n) for n in proposal)
            except (TypeError, ValueError):
                return "malformed"
            if len(triple) != 3 or any(not math.isfinite(n) for n in triple):
                return "malformed"
            if any(n < 1 or n > self.max_threads for n in triple):
                self._range_streak += 1
                if self._range_streak >= self.out_of_range_limit:
                    return "out_of_range"
            else:
                self._range_streak = 0
        last = self._last_proposal
        if last is not None:
            jump = abs(triple[0] - last[0]) + abs(triple[1] - last[1]) + abs(triple[2] - last[2])
            if jump >= self.thrash_threshold:
                self._thrash_streak += 1
                if self._thrash_streak >= self.thrash_window:
                    return "thrashing"
            else:
                self._thrash_streak = 0
        return None

    def _clamp(self, proposal) -> tuple[int, int, int]:
        if threads_in_range(proposal, self.max_threads):
            return proposal  # what rounding and clamping make of it
        triple = []
        for n in proposal:
            value = float(n)
            if not math.isfinite(value):
                value = 1.0
            triple.append(int(min(self.max_threads, max(1, round(value)))))
        return (triple[0], triple[1], triple[2])

    # ---------------------------------------------------------------- protocol
    def propose(self, observation: Observation) -> tuple[int, int, int]:
        """Controller protocol: sanitize, guard, and answer with a safe triple."""
        obs, dirty = self._sanitize(observation)
        if dirty:
            self._clean_streak = 0
        else:
            self._clean_streak += 1

        if self._degraded:
            self.degraded_intervals += 1
            proposal = self._clamp(self.fallback.propose(obs))
            if self._clean_streak >= self.recovery_intervals:
                self._degraded = False
                self._thrash_streak = 0
                self._range_streak = 0
                self.events.append((obs.elapsed, "recovered"))
            self._last_proposal = proposal
            return proposal

        raw = self.primary.propose(obs)
        reason = self._proposal_pathology(raw)
        if reason == "malformed":
            self._degrade(obs, "malformed_proposal")
            proposal = self._clamp(self.fallback.propose(obs))
        elif reason is not None:
            self._degrade(obs, reason)
            proposal = self._clamp(self.fallback.propose(obs))
        else:
            proposal = self._clamp(raw)
        self._last_proposal = proposal
        return proposal

    def _degrade(self, obs: Observation, reason: str) -> None:
        self._degraded = True
        self._clean_streak = 0
        self.events.append((obs.elapsed, f"degraded:{reason}"))
        # Labelled incident metric: ingested by the results store on session
        # close so `automdt report` can count degradations per run by cause.
        session = telemetry.active()
        if session is not None:
            session.registry.counter(
                "guard/degraded_total", label_names=("reason",)
            ).labels(reason=reason).inc()
        telemetry.event("guard/degraded", t=obs.elapsed, reason=reason)
        # The fallback starts from a known state, not mid-climb.
        self.fallback.reset()

    def reset(self) -> None:
        """Forget per-transfer state (both wrapped controllers included)."""
        self.primary.reset()
        self.fallback.reset()
        self.events = []
        self.degraded_intervals = 0
        self._reset_state()
