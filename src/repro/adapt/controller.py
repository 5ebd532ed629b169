"""The adaptive controller: detect → shadow-evaluate → correct → roll back.

:class:`AdaptiveController` wraps a :class:`~repro.transfer.guarded.GuardedController`
(the proven production stack) and layers the safe-adaptation loop on top:

1. every supervisor interval feeds the :class:`~repro.adapt.detectors.DriftMonitor`
   (probed goodput, stall incidence, retry occurrence) and the shadow
   evaluator's probe window;
2. a drift alarm moves the :class:`~repro.adapt.guard.RollbackGuard` to
   DRIFT_SUSPECTED, where every ``shadow_every`` intervals the
   :class:`~repro.adapt.corrector.ResidualCorrector` searches for a bounded
   residual and the :class:`~repro.adapt.shadow.ShadowEvaluator` compares it
   against the frozen proposal — promotion to CORRECTING only on a clear win;
3. while CORRECTING the residual is applied under the
   :class:`~repro.adapt.envelope.SafetyEnvelope` (delta cap + hard rails) and
   regression is watched: consecutive stalls or a goodput EMA collapse below
   the pre-correction baseline trigger rollback;
4. ROLLED_BACK zeroes the residual — proposals come verbatim from the
   guarded controller — and recovery to NOMINAL requires
   ``recovery_intervals`` of clean progress, after which the detectors are
   re-baselined against the healed regime.

With ``enabled=False`` the controller is a byte-for-byte passthrough to the
guarded controller: no telemetry, no clamping, no state — the acceptance
criterion that existing fingerprints stay identical when adaptation is off.

``reset()`` (called by the engine at the start of every attempt, including
supervised retries) resets the *wrapped* controller but deliberately
preserves the adaptation state: detectors, guard state and armed residual
survive retries, and the reset count minus one is the retry-occurrence
drift signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro import obs as telemetry
from repro.adapt.corrector import ResidualCorrector
from repro.adapt.detectors import DriftMonitor, DriftMonitorConfig
from repro.adapt.envelope import SafetyEnvelope
from repro.adapt.guard import CORRECTING, DRIFT_SUSPECTED, NOMINAL, ROLLED_BACK, RollbackGuard
from repro.adapt.shadow import ShadowEvaluator
from repro.transfer.engine import Controller, Observation
from repro.transfer.guarded import GuardedController
from repro.utils.config import require_positive

__all__ = ["AdaptConfig", "AdaptiveController"]

_EPS = 1e-6


@dataclass(frozen=True)
class AdaptConfig:
    """Knobs for the whole adaptation loop (one frozen bag, fleet-shareable)."""

    enabled: bool = True
    monitor: DriftMonitorConfig = field(default_factory=DriftMonitorConfig)
    envelope: SafetyEnvelope = field(default_factory=SafetyEnvelope)
    max_residual: int = 8
    shadow_every: int = 4  # intervals between shadow evaluations while suspected
    shadow_window: int = 16
    shadow_min_probes: int = 6
    shadow_margin: float = 0.05
    suspect_patience: int = 16  # suspected intervals before clearing back to NOMINAL
    correction_hold_intervals: int = 12  # clean CORRECTING intervals before re-baselining
    rollback_stall_intervals: int = 3  # consecutive stalls that trigger rollback
    regression_tolerance: float = 0.3  # EMA fraction below baseline that counts as regression
    regression_intervals: int = 4  # consecutive regressed intervals before rollback
    recovery_intervals: int = 6  # clean ROLLED_BACK intervals before recovery
    ema_alpha: float = 0.3

    def __post_init__(self) -> None:
        require_positive(self.shadow_every, "shadow_every")
        require_positive(self.suspect_patience, "suspect_patience")
        require_positive(self.correction_hold_intervals, "correction_hold_intervals")
        require_positive(self.rollback_stall_intervals, "rollback_stall_intervals")
        require_positive(self.regression_intervals, "regression_intervals")
        require_positive(self.recovery_intervals, "recovery_intervals")
        require_positive(self.max_residual, "max_residual")
        if not 0.0 < self.regression_tolerance < 1.0:
            raise ValueError(
                f"regression_tolerance must be in (0, 1), got {self.regression_tolerance}"
            )
        if not 0.0 < self.ema_alpha <= 1.0:
            raise ValueError(f"ema_alpha must be in (0, 1], got {self.ema_alpha}")


class AdaptiveController:
    """Safe online adaptation wrapped around a guarded controller."""

    def __init__(
        self,
        guarded: Controller,
        config: AdaptConfig | None = None,
        *,
        name: str = "",
    ) -> None:
        self.config = config or AdaptConfig()
        if not isinstance(guarded, GuardedController):
            # The rollback target must be the proven guarded stack; wrap
            # bare controllers so demotion always lands somewhere safe.
            guarded = GuardedController(guarded)
        self.guarded = guarded
        self.name = name
        self.monitor = DriftMonitor(self.config.monitor)
        self.guard = RollbackGuard(name=name)
        self.corrector = ResidualCorrector(max_residual=self.config.max_residual)
        self.shadow = ShadowEvaluator(
            window=self.config.shadow_window,
            min_probes=self.config.shadow_min_probes,
            margin=self.config.shadow_margin,
        )
        self.events: list[tuple[float, str]] = []
        self.clamp_counts: dict[str, int] = {}
        self.resets = 0
        self._last_bytes: float | None = None
        self._last_proposal: tuple[int, int, int] | None = None
        self._pending_retry = False
        self._ema: float | None = None
        self._entry_ema = 0.0
        self._suspect_intervals = 0
        self._correct_intervals = 0
        self._stall_streak = 0
        self._regress_streak = 0
        self._clean_streak = 0

    # ------------------------------------------------------------- telemetry
    def _observe_interval(self, obs: Observation) -> tuple[float, bool, bool]:
        """Derive (goodput, stalled, retried) drift signals from one interval.

        A non-finite goodput (a probe dropout reads NaN) is no sample: the
        EMA skips it, as the drift detectors do, instead of staying NaN for
        the rest of the run.
        """
        goodput = float(obs.throughputs[2])
        stalled = (
            self._last_bytes is not None
            and obs.bytes_written_total <= self._last_bytes + _EPS
        )
        self._last_bytes = obs.bytes_written_total
        retried = self._pending_retry
        self._pending_retry = False
        if math.isfinite(goodput):
            if self._ema is None:
                self._ema = goodput
            else:
                a = self.config.ema_alpha
                self._ema = a * goodput + (1.0 - a) * self._ema
        return goodput, stalled, retried

    def _event(self, t: float, what: str) -> None:
        self.events.append((t, what))
        telemetry.event(f"adapt/{what.split(':', 1)[0]}", t=t, detail=what)

    # ---------------------------------------------------------------- protocol
    def propose(self, observation: Observation) -> tuple[int, int, int]:
        """Controller protocol: guarded proposal plus the vetted residual."""
        base = self.guarded.propose(observation)
        if not self.config.enabled:
            return base

        goodput, stalled, retried = self._observe_interval(observation)
        self.shadow.record(observation.threads, observation.throughputs)
        signal = self.monitor.update(throughput=goodput, stalled=stalled, retried=retried)
        t = observation.elapsed
        state = self.guard.state

        if state == NOMINAL:
            if signal.drifted:
                reason = "drift:" + "+".join(signal.channels)
                self.guard.suspect(t, reason)
                self._event(t, f"suspected:{reason}")
                self._suspect_intervals = 0
        elif state == DRIFT_SUSPECTED:
            self._suspect_intervals += 1
            if self._suspect_intervals % self.config.shadow_every == 0:
                self._try_promotion(t, base)
            if (
                self.guard.state == DRIFT_SUSPECTED
                and self._suspect_intervals >= self.config.suspect_patience
            ):
                self.guard.clear(t, "suspicion_expired")
                self.monitor.rebaseline()
                self._event(t, "cleared:suspicion_expired")
        elif state == CORRECTING:
            self._watch_correction(t, stalled)
        elif state == ROLLED_BACK:
            if stalled:
                self._clean_streak = 0
            else:
                self._clean_streak += 1
                if self._clean_streak >= self.config.recovery_intervals:
                    self.guard.recover(t, "guarded_recovered")
                    self.monitor.rebaseline()
                    self.shadow.reset()
                    self._event(t, "recovered")

        if self.corrector.armed:
            proposal = self.envelope_clamp(self.corrector.apply(base))
        else:
            proposal = base
        self._last_proposal = proposal
        return proposal

    def envelope_clamp(self, proposal: tuple[int, int, int]) -> tuple[int, int, int]:
        """Apply the safety envelope against the last returned proposal."""
        return self.config.envelope.clamp(proposal, self._last_proposal, self.clamp_counts)

    # -------------------------------------------------------------- promotion
    def _try_promotion(self, t: float, base: tuple[int, int, int]) -> None:
        model = self.shadow.fit()
        if model is None:
            return
        residual, base_score, best_score = self.corrector.search(
            self.shadow, model, base, self.config.envelope
        )
        if residual == (0, 0, 0):
            return
        candidate = (base[0] + residual[0], base[1] + residual[1], base[2] + residual[2])
        verdict = self.shadow.evaluate(base, candidate)
        if not verdict.promoted:
            self._event(t, f"shadow_rejected:{verdict.reason}")
            return
        self.corrector.arm(residual)
        self._entry_ema = self._ema or 0.0
        self._correct_intervals = 0
        self._stall_streak = 0
        self._regress_streak = 0
        self.guard.promote(
            t, f"shadow_promoted:{base_score:.1f}->{best_score:.1f}"
        )
        self._event(t, f"promoted:residual={residual}")

    # -------------------------------------------------------------- regression
    def _watch_correction(self, t: float, stalled: bool) -> None:
        self._correct_intervals += 1
        self._stall_streak = self._stall_streak + 1 if stalled else 0
        ema = self._ema or 0.0
        regressed = (
            self._entry_ema > _EPS
            and ema < self._entry_ema * (1.0 - self.config.regression_tolerance)
        )
        self._regress_streak = self._regress_streak + 1 if regressed else 0
        if self._stall_streak >= self.config.rollback_stall_intervals:
            self._rollback(t, f"stalled_{self._stall_streak}_intervals")
        elif self._regress_streak >= self.config.regression_intervals:
            self._rollback(t, f"ema_regression:{ema:.1f}<{self._entry_ema:.1f}")
        elif self._correct_intervals >= self.config.correction_hold_intervals:
            # The correction held: keep the residual armed, return to
            # NOMINAL and hunt for the *next* drift from the new regime.
            self.guard.clear(t, "correction_held")
            self.monitor.rebaseline()
            self._event(t, "correction_held")

    def _rollback(self, t: float, reason: str) -> None:
        self.guard.rollback(t, reason)
        self.corrector.disarm()
        self.shadow.reset()
        self._clean_streak = 0
        self._event(t, f"rolled_back:{reason}")
        session = telemetry.active()
        if session is not None:
            session.registry.counter(
                "adapt/rollback_total", label_names=("reason",)
            ).labels(reason=reason.split(":", 1)[0]).inc()

    # ---------------------------------------------------------------- protocol
    def reset(self) -> None:
        """Per-attempt reset: wrapped controllers forget, adaptation persists.

        The engine calls this at the start of every attempt; a reset beyond
        the first means the supervisor retried — that occurrence is the
        retry drift channel's next sample.
        """
        self.guarded.reset()
        if not self.config.enabled:
            return
        self.resets += 1
        if self.resets > 1:
            self._pending_retry = True
        self._last_bytes = None  # bytes accounting restarts with the attempt
        self._last_proposal = None

    # ------------------------------------------------------------------ report
    def report(self) -> dict:
        """JSON-friendly incident report for soak harnesses and fleet rollups."""
        return {
            "state": self.guard.state,
            "transitions": [tr.to_dict() for tr in self.guard.transitions],
            "detections": self.monitor.detections,
            "rebaselines": self.monitor.rebaselines,
            "promotions": self.guard.promotions,
            "rollbacks": self.guard.rollbacks,
            "shadow_evaluations": self.shadow.evaluations,
            "clamps": dict(sorted(self.clamp_counts.items())),
            "resets": self.resets,
            "residual": list(self.corrector.residual),
            "events": [[round(t, 3), what] for t, what in self.events],
        }
