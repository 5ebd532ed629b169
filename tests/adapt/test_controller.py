"""AdaptiveController: passthrough identity, promotion, rollback, resets."""

import math

from repro.adapt import (
    CORRECTING,
    NOMINAL,
    ROLLED_BACK,
    AdaptConfig,
    AdaptiveController,
    SafetyEnvelope,
    transitions_legal,
)
from repro.baselines import StaticController
from repro.transfer.engine import Observation
from repro.transfer.guarded import GuardedController

BASE = (5, 5, 5)


def make_obs(goodput: float, elapsed: float, bytes_total: float) -> Observation:
    return Observation(
        threads=BASE,
        throughputs=(goodput, goodput, goodput),
        sender_free=4e9,
        receiver_free=4e9,
        sender_capacity=8e9,
        receiver_capacity=8e9,
        elapsed=elapsed,
        bytes_written_total=bytes_total,
    )


def stream(controller, goodputs, *, stall_from=None):
    """Feed a goodput sequence; bytes advance unless the index stalls."""
    proposals = []
    bytes_total = 0.0
    for i, goodput in enumerate(goodputs):
        if stall_from is None or i < stall_from:
            bytes_total += max(goodput, 0.0) * 1e6
        proposals.append(controller.propose(make_obs(goodput, float(i), bytes_total)))
    return proposals


def drifting(n_before: int = 12, n_after: int = 40):
    return [1000.0] * n_before + [400.0] * n_after


def feed(controller, goodputs, *, start=0, bytes_total=0.0):
    """Feed probed goodputs while the destination keeps writing, as it does
    through a probe dropout; returns the byte count reached."""
    for i, goodput in enumerate(goodputs):
        bytes_total += 1e8
        controller.propose(make_obs(goodput, float(start + i), bytes_total))
    return bytes_total


class TestPassthrough:
    def test_disabled_is_byte_identical_to_bare_guarded(self):
        adaptive = AdaptiveController(
            StaticController(BASE), AdaptConfig(enabled=False)
        )
        bare = GuardedController(StaticController(BASE))
        goodputs = drifting()
        assert stream(adaptive, goodputs) == stream(bare, goodputs)
        # No adaptation state accrued: nothing to perturb a fingerprint.
        report = adaptive.report()
        assert report["state"] == NOMINAL
        assert report["detections"] == 0 and not report["events"]

    def test_disabled_reset_only_resets_wrapped(self):
        adaptive = AdaptiveController(
            StaticController(BASE), AdaptConfig(enabled=False)
        )
        adaptive.reset()
        adaptive.reset()
        assert adaptive.resets == 0

    def test_bare_controller_is_wrapped_in_guarded(self):
        adaptive = AdaptiveController(StaticController(BASE))
        assert isinstance(adaptive.guarded, GuardedController)
        already = GuardedController(StaticController(BASE))
        assert AdaptiveController(already).guarded is already


class TestAdaptationLoop:
    def config(self):
        return AdaptConfig(envelope=SafetyEnvelope(max_delta_per_interval=2))

    def test_drift_detected_then_shadow_promoted(self):
        adaptive = AdaptiveController(StaticController(BASE), self.config())
        proposals = stream(adaptive, drifting())
        report = adaptive.report()
        assert report["detections"] >= 1
        assert report["promotions"] >= 1
        assert report["state"] in (CORRECTING, NOMINAL)
        assert transitions_legal(
            [(tr["src"], tr["dst"]) for tr in report["transitions"]]
        )
        # The armed residual moved proposals off the frozen base, inside
        # the envelope's rails and per-interval step cap.
        assert proposals[-1] != BASE
        for prev, cur in zip(proposals, proposals[1:]):
            assert all(abs(c - p) <= 2 for p, c in zip(prev, cur))
            assert all(1 <= c <= 30 for c in cur)

    def test_stall_during_correction_rolls_back_to_guarded(self):
        adaptive = AdaptiveController(StaticController(BASE), self.config())
        goodputs = drifting(12, 12)
        stream(adaptive, goodputs)
        assert adaptive.guard.state == CORRECTING
        # Flat bytes for >= rollback_stall_intervals: the watchdog fires.
        proposals = stream(adaptive, [400.0] * 4, stall_from=0)
        report = adaptive.report()
        assert report["rollbacks"] == 1
        assert report["state"] == ROLLED_BACK
        assert report["residual"] == [0, 0, 0]
        # Rolled back: proposals come verbatim from the guarded stack.
        assert proposals[-1] == BASE

    def test_recovery_after_rollback_returns_to_nominal(self):
        adaptive = AdaptiveController(StaticController(BASE), self.config())
        stream(adaptive, drifting(12, 12))
        stream(adaptive, [400.0] * 4, stall_from=0)
        assert adaptive.guard.state == ROLLED_BACK
        stream(adaptive, [400.0] * 8)
        assert adaptive.guard.state == NOMINAL
        assert adaptive.monitor.rebaselines >= 1

    def test_suspicion_expires_without_a_winning_candidate(self):
        # Keep the candidate from winning: every stage already at its rail.
        config = AdaptConfig(
            envelope=SafetyEnvelope(max_threads=BASE), suspect_patience=6
        )
        adaptive = AdaptiveController(StaticController(BASE), config)
        stream(adaptive, drifting(12, 20))
        report = adaptive.report()
        assert report["promotions"] == 0
        assert report["state"] == NOMINAL
        assert any(
            tr["reason"] == "suspicion_expired" for tr in report["transitions"]
        )

    def test_reset_preserves_adaptation_state_and_counts_retries(self):
        adaptive = AdaptiveController(StaticController(BASE), self.config())
        stream(adaptive, drifting(12, 12))
        state_before = adaptive.guard.state
        detections_before = adaptive.monitor.detections
        adaptive.reset()
        adaptive.reset()
        assert adaptive.guard.state == state_before
        assert adaptive.monitor.detections == detections_before
        assert adaptive.resets == 2
        assert adaptive._pending_retry  # the retry drift channel's next sample

    def test_two_identical_streams_produce_identical_reports(self):
        goodputs = drifting()
        reports = []
        for _ in range(2):
            adaptive = AdaptiveController(StaticController(BASE), self.config())
            stream(adaptive, goodputs)
            reports.append(adaptive.report())
        assert reports[0] == reports[1]


class TestNonFiniteProbes:
    """A probe dropout reads NaN: adapt skips it, as its detectors do."""

    def test_a_dropout_leaves_the_ema_of_the_clean_samples(self):
        goodputs = [800.0] * 4 + [float("nan")] + [800.0] * 6
        adaptive = AdaptiveController(StaticController(BASE))
        feed(adaptive, goodputs)
        clean = AdaptiveController(StaticController(BASE))
        feed(clean, [g for g in goodputs if not math.isnan(g)])
        assert adaptive._ema == clean._ema == 800.0

    def test_a_leading_dropout_is_no_first_sample(self):
        adaptive = AdaptiveController(StaticController(BASE))
        feed(adaptive, [float("nan")])
        assert adaptive._ema is None
        feed(adaptive, [500.0], start=1)
        assert adaptive._ema == 500.0

    def test_ema_regression_still_rolls_back_after_a_dropout(self):
        adaptive = AdaptiveController(
            StaticController(BASE), AdaptConfig(envelope=SafetyEnvelope(max_delta_per_interval=2))
        )
        goodputs = [1000.0] * 3 + [float("nan")] + [1000.0] * 8 + [400.0] * 12
        bytes_total = feed(adaptive, goodputs)
        assert adaptive.guard.state == CORRECTING
        assert math.isfinite(adaptive._entry_ema) and adaptive._entry_ema > 0.0
        # Goodput collapses while bytes still move: only the EMA can tell.
        feed(adaptive, [50.0] * 8, start=len(goodputs), bytes_total=bytes_total)
        report = adaptive.report()
        assert report["rollbacks"] == 1
        assert report["transitions"][-1]["reason"].startswith("ema_regression:")
