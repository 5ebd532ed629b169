"""``repro.fleet`` — the multi-tenant transfer control plane.

Many concurrent :class:`~repro.transfer.integrity.VerifiedTransfer`s
competing for one emulated link, scheduled deterministically:

* :mod:`repro.fleet.admission` — bounded queue, typed rejection, priority
  classes (queue-based load leveling);
* :mod:`repro.fleet.fairshare` — weighted max-min water-filling and
  token-bucket throttling (pure, clock-free arithmetic);
* :mod:`repro.fleet.breaker` — per-transfer circuit breakers with an
  audited legal-transition state machine;
* :mod:`repro.fleet.bulkhead` — per-tenant concurrency compartments;
* :mod:`repro.fleet.job` — one transfer's full verified stack, advanced in
  quantum slices over the fleet's shared virtual clock;
* :mod:`repro.fleet.scheduler` — the round loop tying it all together, and
  the fingerprinted fleet report.

``automdt fleet`` is the CLI entry point;
:func:`repro.harness.soak.run_fleet_soak` is the chaos harness.
"""

from repro.fleet.admission import (
    AdmissionDecision,
    AdmissionQueue,
    Priority,
    RejectReason,
    TransferRequest,
)
from repro.fleet.breaker import (
    CLOSED,
    HALF_OPEN,
    LEGAL_TRANSITIONS,
    OPEN,
    BreakerConfig,
    CircuitBreaker,
    transitions_legal,
)
from repro.fleet.bulkhead import Bulkhead
from repro.fleet.fairshare import TokenBucket, weighted_max_min
from repro.fleet.job import FleetJob, JobFaultProfile, SliceOutcome
from repro.fleet.scheduler import (
    FleetConfig,
    FleetScheduler,
    TenantSpec,
    fleet_report_fingerprint,
    render_fleet_report,
)

__all__ = [
    "AdmissionDecision",
    "AdmissionQueue",
    "BreakerConfig",
    "Bulkhead",
    "CircuitBreaker",
    "CLOSED",
    "FleetConfig",
    "FleetJob",
    "FleetScheduler",
    "HALF_OPEN",
    "JobFaultProfile",
    "LEGAL_TRANSITIONS",
    "OPEN",
    "Priority",
    "RejectReason",
    "SliceOutcome",
    "TenantSpec",
    "TokenBucket",
    "TransferRequest",
    "fleet_report_fingerprint",
    "render_fleet_report",
    "transitions_legal",
    "weighted_max_min",
]
