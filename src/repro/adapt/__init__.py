"""``repro.adapt`` — safe online adaptation for production transfers.

The paper deploys a frozen offline-trained policy (§V-C found online
fine-tuning not worth its cost); this package covers the gap that leaves
open in production: WAN conditions drift and a frozen policy silently
degrades.  The loop is detect → shadow-evaluate → correct → roll back:

* :mod:`~repro.adapt.detectors` — seeded Page–Hinkley + windowed CUSUM
  drift detectors over probed goodput, stall incidence and retry rate;
* :mod:`~repro.adapt.envelope` — hard safety rails on every adaptive move;
* :mod:`~repro.adapt.corrector` — bounded residual thread deltas on top of
  the frozen policy (deterministic hill-climb, no RNG);
* :mod:`~repro.adapt.shadow` — candidate-vs-incumbent scoring on recent
  probes before any promotion (§V-C's gate, online);
* :mod:`~repro.adapt.guard` — the audited NOMINAL → DRIFT_SUSPECTED →
  CORRECTING → ROLLED_BACK state machine;
* :mod:`~repro.adapt.controller` — :class:`AdaptiveController`, wiring it
  all around the proven :class:`~repro.transfer.guarded.GuardedController`.

See DESIGN.md §16 for the state machine, safety envelope and rollback
invariants, and ``automdt soak --drift`` for the deterministic soak that
enforces them.
"""

from repro.adapt.controller import AdaptConfig, AdaptiveController
from repro.adapt.corrector import ResidualCorrector
from repro.adapt.detectors import DriftMonitor, DriftMonitorConfig, PageHinkley, WindowedCusum
from repro.adapt.envelope import SafetyEnvelope
from repro.adapt.guard import (
    CORRECTING,
    DRIFT_SUSPECTED,
    LEGAL_TRANSITIONS,
    NOMINAL,
    ROLLED_BACK,
    RollbackGuard,
    transitions_legal,
)
from repro.adapt.shadow import ShadowEvaluator, ShadowVerdict, ThroughputModel

__all__ = [
    "AdaptConfig",
    "AdaptiveController",
    "ResidualCorrector",
    "DriftMonitor",
    "DriftMonitorConfig",
    "PageHinkley",
    "WindowedCusum",
    "SafetyEnvelope",
    "RollbackGuard",
    "NOMINAL",
    "DRIFT_SUSPECTED",
    "CORRECTING",
    "ROLLED_BACK",
    "LEGAL_TRANSITIONS",
    "transitions_legal",
    "ShadowEvaluator",
    "ShadowVerdict",
    "ThroughputModel",
]
