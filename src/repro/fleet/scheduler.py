"""The fleet control plane: admission → fair share → supervised slices.

:class:`FleetScheduler` multiplexes many :class:`~repro.fleet.job.FleetJob`
transfers onto one emulated link by advancing a single global virtual clock
in rounds of ``quantum`` seconds:

1. **admit** — arrivals whose ``submit_at`` has passed go through the
   bounded :class:`~repro.fleet.admission.AdmissionQueue` (typed rejection,
   never an exception);
2. **select** — runnable jobs (breaker allows, backoff elapsed) compete for
   dispatch slots by priority class, tenant round-robin within a class
   (rotated every round so no tenant owns the front of the line), gated by
   each tenant's :class:`~repro.fleet.bulkhead.Bulkhead`;
3. **allocate** — link capacity is split across tenants by
   :func:`~repro.fleet.fairshare.weighted_max_min`, with each tenant's
   demand first capped by its :class:`~repro.fleet.fairshare.TokenBucket`,
   then split equally across the tenant's selected jobs — the sum of
   allocations can never exceed capacity, by construction;
4. **dispatch** — each selected job runs one slice under its allocation as
   a testbed ``rate_cap``; incidents feed its
   :class:`~repro.fleet.breaker.CircuitBreaker`, seeded
   :func:`~repro.utils.backoff.backoff_delay` and per-job
   :class:`~repro.utils.backoff.RetryBudget`.

Everything is a pure function of ``(config, requests, seed)``: jobs run
serially in a fixed order inside each round, all randomness flows through
:func:`~repro.parallel.seeds.spawn_key`, and the report carries a sha256
fingerprint over its stable fields so two same-seed runs can be compared
bit-for-bit (the soak harness's determinism invariant).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from repro import obs
from repro.emulator.presets import fig5_read_bottleneck
from repro.emulator.testbed import TestbedConfig
from repro.obs.registry import MetricsRegistry
from repro.parallel.seeds import derive_seed
from repro.utils.backoff import RetryBudget, backoff_delay
from repro.utils.config import require_non_negative, require_positive
from repro.utils.units import mbps_to_bytes_per_sec

from repro.fleet.admission import AdmissionQueue, Priority, TransferRequest
from repro.fleet.breaker import BreakerConfig, CircuitBreaker, transitions_legal
from repro.fleet.bulkhead import Bulkhead
from repro.fleet.fairshare import TokenBucket, weighted_max_min
from repro.fleet.job import FleetJob, JobFaultProfile

__all__ = [
    "FleetConfig",
    "FleetScheduler",
    "TenantSpec",
    "fleet_report_fingerprint",
    "render_fleet_report",
]

#: Terminal job states.
COMPLETED = "completed"
FAILED = "failed"
ACTIVE = "active"


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's contract with the fleet.

    ``weight`` scales its fair share, ``max_concurrency`` sizes its
    bulkhead compartment, ``rate_mbps`` / ``burst_bytes`` parameterise its
    token bucket (``inf`` = unthrottled).
    """

    name: str
    weight: float = 1.0
    max_concurrency: int = 4
    rate_mbps: float = math.inf
    burst_bytes: float = math.inf

    def __post_init__(self) -> None:
        require_positive(self.weight, "weight")
        require_positive(self.max_concurrency, "max_concurrency")
        require_positive(self.rate_mbps, "rate_mbps")
        require_positive(self.burst_bytes, "burst_bytes")


@dataclass(frozen=True)
class FleetConfig:
    """Fleet control-plane knobs (data-plane knobs live per request)."""

    tenants: tuple[TenantSpec, ...] = (TenantSpec("default"),)
    seed: int = 0
    quantum: float = 5.0  # virtual seconds per scheduling round
    capacity_mbps: float | None = None  # None = the testbed's bottleneck
    admission_limit: int = 64
    per_tenant_queue: int = 32
    max_parallel: int = 8  # global dispatch slots per round
    horizon: float = 3600.0  # virtual-time budget for the whole fleet
    chunk_size: float = 8e6
    stall_intervals: int = 5
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    retry_budget: float = math.inf  # per-job virtual seconds of retrying
    backoff_base: float = 4.0
    backoff_max: float = 60.0
    min_rate: float = 1e5  # bytes/s below which a slice is not worth running
    faults: JobFaultProfile = field(default_factory=JobFaultProfile)
    #: Opt-in online adaptation: wrap every job's frozen policy in an
    #: :class:`~repro.adapt.controller.AdaptiveController` (drift detection,
    #: shadow-evaluated correction, automatic rollback) and attach each
    #: job's adaptation report under ``report["jobs"][i]["adapt"]``.  When
    #: off, the controller stack and the report fingerprint are unchanged.
    adapt: bool = False

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ValueError("FleetConfig needs at least one tenant")
        names = [spec.name for spec in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")
        require_positive(self.quantum, "quantum")
        if self.capacity_mbps is not None:
            require_positive(self.capacity_mbps, "capacity_mbps")
        require_positive(self.admission_limit, "admission_limit")
        require_positive(self.per_tenant_queue, "per_tenant_queue")
        require_positive(self.max_parallel, "max_parallel")
        require_positive(self.horizon, "horizon")
        require_positive(self.chunk_size, "chunk_size")
        require_positive(self.stall_intervals, "stall_intervals")
        require_positive(self.retry_budget, "retry_budget")
        require_positive(self.backoff_base, "backoff_base")
        require_positive(self.backoff_max, "backoff_max")
        require_non_negative(self.min_rate, "min_rate")

    def spec(self, tenant: str) -> TenantSpec | None:
        """The spec for ``tenant`` (None when unknown)."""
        for candidate in self.tenants:
            if candidate.name == tenant:
                return candidate
        return None


class _Entry:
    """Scheduler-side bookkeeping for one admitted job."""

    __slots__ = (
        "job", "breaker", "budget", "not_before", "retries", "state",
        "failure", "admitted_at", "completed_at", "bytes_verified",
        "incidents", "unrecovered", "preempted",
    )

    def __init__(self, job: FleetJob, breaker: CircuitBreaker, budget: RetryBudget,
                 admitted_at: float) -> None:
        self.job = job
        self.breaker = breaker
        self.budget = budget
        self.not_before = 0.0
        self.retries = 0
        self.state = ACTIVE
        self.failure: str | None = None
        self.admitted_at = admitted_at
        self.completed_at: float | None = None
        self.bytes_verified = 0.0
        self.incidents: list[dict] = []
        self.unrecovered: list[int] = []
        self.preempted = 0

    @property
    def tenant(self) -> str:
        return self.job.request.tenant

    @property
    def priority(self) -> Priority:
        return self.job.request.priority


class FleetScheduler:
    """Runs a request list to quiescence on one shared virtual timeline."""

    def __init__(
        self,
        config: FleetConfig,
        requests: list[TransferRequest],
        run_dir: str | Path,
        *,
        testbed_config: TestbedConfig | None = None,
    ) -> None:
        self.config = config
        self.requests = list(requests)
        self.run_dir = Path(run_dir)
        self.testbed_config = testbed_config or fig5_read_bottleneck()
        self.capacity = mbps_to_bytes_per_sec(
            config.capacity_mbps
            if config.capacity_mbps is not None
            else self.testbed_config.bottleneck_bandwidth
        )
        #: Per-job demand ceiling: one transfer can use at most the
        #: testbed's own bottleneck, regardless of its fair share.
        self.job_demand = mbps_to_bytes_per_sec(self.testbed_config.bottleneck_bandwidth)
        self.admission = AdmissionQueue(config.admission_limit, config.per_tenant_queue)
        self.bulkheads = {
            spec.name: Bulkhead(spec.max_concurrency, name=spec.name)
            for spec in config.tenants
        }
        self.buckets = {
            spec.name: TokenBucket(
                mbps_to_bytes_per_sec(spec.rate_mbps)
                if not math.isinf(spec.rate_mbps) else math.inf,
                spec.burst_bytes,
            )
            for spec in config.tenants
        }
        self.weights = {spec.name: spec.weight for spec in config.tenants}
        self.entries: list[_Entry] = []
        self.decisions: list[dict] = []
        self.starved_rounds: dict[str, int] = {spec.name: 0 for spec in config.tenants}
        self.preemptions: dict[str, int] = {spec.name: 0 for spec in config.tenants}
        self.throttled_slices: dict[str, int] = {spec.name: 0 for spec in config.tenants}
        self.max_round_allocation = 0.0
        self.rounds = 0
        self.clock = 0.0
        #: Fleet-local metrics, merged into the active obs session at the
        #: end of :meth:`run` via ``MetricsRegistry.merge_from`` — the same
        #: collision-free path fleet soak workers use.
        self.registry = MetricsRegistry()
        self._prev_selected: set[int] = set()

    # --------------------------------------------------------------- plumbing
    def _admit(self, t: float) -> None:
        """Admit every not-yet-decided request whose ``submit_at`` passed."""
        while self.requests and self.requests[0].submit_at <= t:
            request = self.requests.pop(0)
            known = self.config.spec(request.tenant) is not None
            decision = self.admission.offer(request.tenant, t, known=known)
            self.decisions.append(decision.to_dict())
            if not decision.admitted:
                self.registry.counter(
                    "fleet/rejections", label_names=("tenant", "reason")
                ).labels(tenant=request.tenant, reason=str(decision.reason.value)).inc()
                continue
            job_id = len(self.entries)
            self.decisions[-1]["job_id"] = job_id
            job = FleetJob(
                job_id,
                request,
                derive_seed(self.config.seed, job_id),
                testbed_config=self.testbed_config,
                horizon=self.config.horizon,
                chunk_size=self.config.chunk_size,
                stall_intervals=self.config.stall_intervals,
                run_dir=self.run_dir / f"job{job_id:04d}",
                faults=self.config.faults,
                adapt=self.config.adapt,
            )
            entry = _Entry(
                job,
                CircuitBreaker(self.config.breaker, name=f"job{job_id:04d}"),
                RetryBudget(self.config.retry_budget),
                admitted_at=t,
            )
            self.entries.append(entry)
            self._set_breaker_gauge(entry)

    def _set_breaker_gauge(self, entry: _Entry) -> None:
        self.registry.gauge(
            "fleet/breaker_state", label_names=("job",)
        ).labels(job=f"job{entry.job.job_id:04d}").set(entry.breaker.state_code)

    def _runnable(self, t: float) -> list[_Entry]:
        return [
            e for e in self.entries
            if e.state == ACTIVE and e.not_before <= t and e.breaker.allows(t)
        ]

    def _select(self, runnable: list[_Entry]) -> list[_Entry]:
        """Priority classes, tenant round-robin within a class, bulkheads."""
        selected: list[_Entry] = []
        slots = self.config.max_parallel
        for priority in sorted({e.priority for e in runnable}, reverse=True):
            if slots <= 0:
                break
            queues: dict[str, list[_Entry]] = {}
            for entry in sorted(
                (e for e in runnable if e.priority == priority),
                key=lambda e: e.job.job_id,
            ):
                queues.setdefault(entry.tenant, []).append(entry)
            order = sorted(queues)
            rotation = self.rounds % len(order)
            order = order[rotation:] + order[:rotation]
            while slots > 0 and any(queues.values()):
                progressed = False
                for tenant in order:
                    if slots <= 0:
                        break
                    if not queues[tenant]:
                        continue
                    if not self.bulkheads[tenant].try_acquire():
                        # Compartment full: the rest of this tenant's
                        # backlog is boxed out for the round.
                        queues[tenant] = []
                        continue
                    selected.append(queues[tenant].pop(0))
                    slots -= 1
                    progressed = True
                if not progressed:
                    break
        return selected

    def _allocate(self, selected: list[_Entry], t: float) -> dict[int, float]:
        """Token-capped weighted max-min across tenants, equal within."""
        by_tenant: dict[str, list[_Entry]] = {}
        for entry in selected:
            by_tenant.setdefault(entry.tenant, []).append(entry)
        demands = {}
        for tenant, group in by_tenant.items():
            demand = self.job_demand * len(group)
            tokens = self.buckets[tenant].available(t)
            if not math.isinf(tokens):
                demand = min(demand, tokens / self.config.quantum)
            demands[tenant] = demand
        tenant_alloc = weighted_max_min(self.capacity, demands, self.weights)
        allocation: dict[int, float] = {}
        for tenant, group in by_tenant.items():
            per_job = weighted_max_min(
                tenant_alloc[tenant],
                {f"{e.job.job_id:06d}": self.job_demand for e in group},
            )
            for entry in group:
                allocation[entry.job.job_id] = per_job[f"{entry.job.job_id:06d}"]
        self.max_round_allocation = max(self.max_round_allocation, sum(allocation.values()))
        return allocation

    # ----------------------------------------------------------- outcome path
    def _finish(self, entry: _Entry, t: float, state: str, failure: str | None = None) -> None:
        entry.state = state
        entry.failure = failure
        entry.completed_at = t
        self.admission.settle(entry.tenant)
        entry.job.close()

    def _handle_outcome(self, entry: _Entry, outcome, t: float) -> None:
        tenant = entry.tenant
        cfg = self.config
        if outcome.progress_bytes > 0:
            self.buckets[tenant].take(outcome.progress_bytes, t)
        if outcome.kind == "completed":
            entry.breaker.record_success(outcome.t_end)
            entry.bytes_verified = outcome.result.supervised.total_bytes
            self.registry.counter(
                "fleet/bytes_verified", label_names=("tenant",)
            ).labels(tenant=tenant).inc(entry.bytes_verified)
            self._finish(entry, outcome.t_end, COMPLETED)
        elif outcome.kind == "paused":
            if outcome.progress_bytes > 0:
                entry.breaker.record_success(outcome.t_end)
        elif outcome.kind == "timed_out":
            entry.unrecovered = list(
                outcome.result.unrecovered_chunk_ids if outcome.result else []
            )
            self._finish(entry, outcome.t_end, FAILED, "timed_out")
        else:  # incident
            kind = outcome.incident_kind or "incident"
            entry.incidents.append({"t": round(outcome.t_end, 3), "kind": kind})
            self.registry.counter(
                "fleet/incidents", label_names=("tenant", "kind")
            ).labels(tenant=tenant, kind=kind).inc()
            entry.breaker.record_failure(outcome.t_end, kind)
            entry.retries += 1
            entry.budget.start(entry.job.dispatched_at or t)
            delay = backoff_delay(
                entry.retries, base=cfg.backoff_base, max_delay=cfg.backoff_max,
                jitter=0.25, rng=entry.job.rng,
            )
            entry.not_before = outcome.t_end + delay
            if not entry.budget.allows(entry.not_before):
                if outcome.result is not None:
                    entry.unrecovered = list(outcome.result.unrecovered_chunk_ids)
                self._finish(entry, outcome.t_end, FAILED, "retry_budget_exhausted")
                obs.count("fleet/retry_budget_exhausted")
        self._set_breaker_gauge(entry)

    def _account_idle(self, runnable: list[_Entry], selected: list[_Entry]) -> None:
        """Starvation and preemption accounting for one round."""
        chosen = {e.job.job_id for e in selected}
        if selected:
            max_priority = max(e.priority for e in selected)
            for tenant in {e.tenant for e in runnable}:
                if not any(e.tenant == tenant for e in selected):
                    self.starved_rounds[tenant] += 1
                    self.registry.counter(
                        "fleet/starved_rounds", label_names=("tenant",)
                    ).labels(tenant=tenant).inc()
            for entry in runnable:
                if (
                    entry.priority == Priority.BEST_EFFORT
                    and entry.job.job_id in self._prev_selected
                    and entry.job.job_id not in chosen
                    and max_priority > Priority.BEST_EFFORT
                ):
                    entry.preempted += 1
                    self.preemptions[entry.tenant] += 1
                    self.registry.counter(
                        "fleet/preemptions", label_names=("tenant",)
                    ).labels(tenant=entry.tenant).inc()
        self._prev_selected = chosen

    # -------------------------------------------------------------- main loop
    def run(self) -> dict:
        """Drive every request to a terminal state; returns the fleet report."""
        cfg = self.config
        self.requests.sort(key=lambda r: r.submit_at)
        with obs.span("fleet/run", tenants=len(cfg.tenants), requests=len(self.requests)):
            while self.requests or any(e.state == ACTIVE for e in self.entries):
                t = self.clock
                if t >= cfg.horizon:
                    for entry in self.entries:
                        if entry.state == ACTIVE:
                            self._finish(entry, t, FAILED, "fleet_horizon")
                    break
                self._admit(t)
                runnable = self._runnable(t)
                selected = self._select(runnable)
                self._account_idle(runnable, selected)
                allocation = self._allocate(selected, t)
                for entry in sorted(selected, key=lambda e: e.job.job_id):
                    rate = allocation[entry.job.job_id]
                    if rate < cfg.min_rate:
                        # Token-starved: running under a near-zero cap would
                        # just manufacture a stall incident.  Hold the slot.
                        self.throttled_slices[entry.tenant] += 1
                        continue
                    outcome = entry.job.run_slice(t, cfg.quantum, rate)
                    self.registry.counter(
                        "fleet/slices", label_names=("tenant",)
                    ).labels(tenant=entry.tenant).inc()
                    self._handle_outcome(entry, outcome, t + cfg.quantum)
                for bulkhead in self.bulkheads.values():
                    bulkhead.release_all()
                self.rounds += 1
                self.clock += cfg.quantum
            report = self._report()
            session = obs.active()
            if session is not None:
                session.registry.merge_from(self.registry)
        return report

    # ----------------------------------------------------------------- report
    def _report(self) -> dict:
        jobs = []
        for entry in self.entries:
            jobs.append({
                "job_id": entry.job.job_id,
                "tenant": entry.tenant,
                "priority": int(entry.priority),
                "gigabytes": entry.job.request.gigabytes,
                "state": entry.state,
                "failure": entry.failure,
                "admitted_at": round(entry.admitted_at, 3),
                "dispatched_at": (
                    None if entry.job.dispatched_at is None
                    else round(entry.job.dispatched_at, 3)
                ),
                "completed_at": (
                    None if entry.completed_at is None else round(entry.completed_at, 3)
                ),
                "bytes_verified": entry.bytes_verified,
                "slices": entry.job.slices,
                "crashes": entry.job.crashes,
                "retries": entry.retries,
                "preempted": entry.preempted,
                "incidents": entry.incidents,
                "unrecovered_chunks": entry.unrecovered,
                "breaker": {
                    "state": entry.breaker.state,
                    "times_opened": entry.breaker.times_opened,
                    "transitions": [tr.to_dict() for tr in entry.breaker.transitions],
                },
            })
            # Only attached when adaptation is on: the report fingerprint
            # with ``adapt=False`` must stay byte-identical to older runs.
            if self.config.adapt and entry.job.controller is not None:
                jobs[-1]["adapt"] = entry.job.controller.report()
        duration = max(self.clock, 1e-9)
        tenants = {}
        for spec in self.config.tenants:
            mine = [j for j in jobs if j["tenant"] == spec.name]
            bytes_verified = sum(j["bytes_verified"] for j in mine)
            # Goodput over the tenant's *active window* (first dispatch to
            # last completion), not the whole fleet run — a rate-throttled
            # tenant that moves the same bytes over a longer window must
            # show a lower rate, or throttling and fairness would be
            # invisible in the report.
            done = [j for j in mine if j["state"] == COMPLETED]
            if done:
                window = max(j["completed_at"] for j in done) - min(
                    j["dispatched_at"] or 0.0 for j in done
                )
                window = max(window, self.config.quantum)
            else:
                window = duration
            tenants[spec.name] = {
                "weight": spec.weight,
                "jobs": len(mine),
                "completed": sum(1 for j in mine if j["state"] == COMPLETED),
                "failed": sum(1 for j in mine if j["state"] == FAILED),
                "bytes_verified": bytes_verified,
                "goodput_bytes_per_s": round(bytes_verified / window, 1),
                "starved_rounds": self.starved_rounds[spec.name],
                "preemptions": self.preemptions[spec.name],
                "throttled_slices": self.throttled_slices[spec.name],
                "bulkhead_saturations": self.bulkheads[spec.name].saturations,
            }
        unrecovered_jobs = sorted(
            j["job_id"] for j in jobs
            if j["state"] != COMPLETED or j["unrecovered_chunks"]
        )
        invariants = {
            "no_data_loss": not any(j["unrecovered_chunks"] for j in jobs),
            "all_recovered": not unrecovered_jobs,
            "no_starvation": all(j["slices"] > 0 for j in jobs),
            "capacity_respected": self.max_round_allocation <= self.capacity * (1 + 1e-9),
            "breaker_transitions_legal": all(
                transitions_legal(e.breaker.transitions) for e in self.entries
            ),
        }
        report = {
            "config": {
                "seed": self.config.seed,
                "quantum": self.config.quantum,
                "capacity_bytes_per_s": self.capacity,
                "max_parallel": self.config.max_parallel,
                "tenants": [
                    {
                        "name": spec.name,
                        "weight": spec.weight,
                        "max_concurrency": spec.max_concurrency,
                        "rate_mbps": (
                            None if math.isinf(spec.rate_mbps) else spec.rate_mbps
                        ),
                    }
                    for spec in self.config.tenants
                ],
            },
            "rounds": self.rounds,
            "duration_s": round(self.clock, 3),
            "admission": {
                "admitted": len(self.entries),
                "rejected": len(self.admission.rejections),
                "decisions": self.decisions,
            },
            "jobs": jobs,
            "tenants": tenants,
            "max_round_allocation": round(self.max_round_allocation, 1),
            "unrecovered_jobs": unrecovered_jobs,
            "invariants": invariants,
            "all_passed": all(invariants.values()),
        }
        report["fingerprint"] = fleet_report_fingerprint(report)
        return report


def fleet_report_fingerprint(report: dict) -> str:
    """sha256 over the report's stable fields (no paths, no wall clock).

    Everything in the report is virtual-time or count data, so the whole
    dict minus the fingerprint itself is hashable canonically; two runs of
    the same seed and request list must produce identical fingerprints.
    """
    stable = {k: v for k, v in report.items() if k not in ("fingerprint", "report_path")}
    payload = json.dumps(stable, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def render_fleet_report(report: dict) -> str:
    """Human-readable fleet summary for the CLI."""
    from repro.utils.tables import render_table

    rows = [
        [
            name,
            stats["jobs"],
            stats["completed"],
            stats["failed"],
            f"{stats['bytes_verified'] / 1e9:.2f}",
            f"{stats['goodput_bytes_per_s'] * 8 / 1e6:.0f}",
            stats["starved_rounds"],
            stats["preemptions"],
        ]
        for name, stats in sorted(report["tenants"].items())
    ]
    table = render_table(
        ["tenant", "jobs", "done", "failed", "GB ok", "goodput Mbps", "starved", "preempt"],
        rows,
        title=(
            f"fleet — {report['admission']['admitted']} admitted / "
            f"{report['admission']['rejected']} rejected, "
            f"{report['rounds']} rounds, {report['duration_s']:.0f}s virtual"
        ),
    )
    inv = report["invariants"]
    flags = " ".join(f"{name}={'ok' if passed else 'VIOLATED'}" for name, passed in inv.items())
    verdict = (
        "ALL INVARIANTS HELD" if report["all_passed"]
        else f"INVARIANT FAILURES (unrecovered jobs: {report['unrecovered_jobs']})"
    )
    return (
        f"{table}\n{flags}\n"
        f"fingerprint {report['fingerprint'][:16]}…\n{verdict}\n"
    )
