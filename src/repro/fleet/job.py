"""One fleet-scheduled transfer: the full verified stack, run in slices.

A :class:`FleetJob` owns a complete per-transfer pipeline — emulated
testbed, :class:`~repro.transfer.engine.ModularTransferEngine`,
:class:`~repro.transfer.supervisor.TransferSupervisor` and
:class:`~repro.transfer.integrity.VerifiedTransfer` — and exposes exactly
one operation to the scheduler: *run a bounded slice of virtual time under
a bandwidth cap*.  Slicing rides the supervisor's observer channel (the
same mechanism the chaos-soak harness uses for crash injection): when the
slice deadline passes, the observer raises a pause, the journal is flushed,
and the next slice resumes through the integrity layer's verified-resume
path.  Pausing is therefore *identical* to a clean supervised restart — no
fleet-specific resume semantics exist to get wrong.

The supervisor runs with ``max_retries=0``: it detects and attributes
stalls (and checkpoints around them) but does not retry.  Retry *policy* —
backoff, circuit breaking, budget — belongs to the fleet scheduler, which
sees every incident as a typed :class:`SliceOutcome`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.baselines import StaticController
from repro.emulator.faults import DataCorruption, FaultSchedule, LinkFlap, StorageStall
from repro.emulator.testbed import Testbed, TestbedConfig
from repro.parallel.seeds import spawn_key
from repro.transfer.engine import EngineConfig, ModularTransferEngine
from repro.transfer.files import uniform_dataset
from repro.transfer.integrity import IntegrityConfig, VerifiedTransfer, VerifiedTransferResult
from repro.transfer.supervisor import SupervisorConfig, TransferSupervisor

from repro.fleet.admission import TransferRequest

__all__ = ["FleetJob", "JobFaultProfile", "SliceOutcome", "SLICE_KINDS"]

#: Slice outcome kinds, in the order the scheduler reasons about them.
SLICE_KINDS = ("completed", "paused", "incident", "timed_out")


class _SlicePause(Exception):
    """Raised by the slice observer at the quantum boundary."""

    def __init__(self, t: float) -> None:
        super().__init__(f"slice paused at t={t:.1f}s")
        self.t = t


class _SimulatedCrash(Exception):
    """Raised by a slice or chaos-soak observer at a scheduled crash instant."""

    def __init__(self, t: float) -> None:
        super().__init__(f"simulated crash at t={t:.1f}s")
        self.t = t


@dataclass(frozen=True)
class JobFaultProfile:
    """Which seeded fault families a fleet injects into its jobs."""

    stalls: bool = True
    corruption: bool = True
    crashes: bool = True
    max_crashes: int = 1
    stall_probability: float = 0.5
    corruption_probability: float = 0.5


@dataclass(frozen=True)
class SliceOutcome:
    """What one scheduling quantum did to a job.

    ``kind`` is one of :data:`SLICE_KINDS`; incidents carry their
    attributed ``incident_kind`` (fault name, ``crash``, or
    ``verify_failed``).  ``progress_bytes`` is the durable forward progress
    observed during the slice (used for breaker success detection and
    token-bucket spend; terminal byte accounting uses the manifest).
    """

    kind: str
    t_end: float
    progress_bytes: float = 0.0
    incident_kind: str | None = None
    result: VerifiedTransferResult | None = None


class FleetJob:
    """One admitted transfer and its lazily-built verified pipeline."""

    def __init__(
        self,
        job_id: int,
        request: TransferRequest,
        seed: int,
        *,
        testbed_config: TestbedConfig,
        horizon: float,
        chunk_size: float,
        stall_intervals: int,
        run_dir: str | Path,
        faults: JobFaultProfile | None = None,
        adapt: bool = False,
    ) -> None:
        self.job_id = job_id
        self.request = request
        self.seed = int(seed)
        self.testbed_config = testbed_config
        self.horizon = float(horizon)
        self.chunk_size = float(chunk_size)
        self.stall_intervals = int(stall_intervals)
        self.run_dir = Path(run_dir)
        self.fault_profile = faults or JobFaultProfile()
        self.adapt = bool(adapt)
        #: The job's :class:`~repro.adapt.controller.AdaptiveController`
        #: when ``adapt`` is on (None otherwise, and until first dispatch).
        self.controller = None

        self.verified: VerifiedTransfer | None = None
        self.testbed: Testbed | None = None
        #: Seeded generator for the fleet-side backoff jitter of this job.
        self.rng = np.random.default_rng(spawn_key(self.seed, (0,)))
        self.dispatched_at: float | None = None
        self.slices = 0
        self.crashes = 0
        self._started = False
        self._crash_plan: list[float] = []
        self._crash_torn: list[bool] = []
        self._prev_bytes: float | None = None
        self._slice_bytes = 0.0

    # ------------------------------------------------------------- lazy build
    def _draw_faults(self, t0: float) -> FaultSchedule | None:
        """The job's seeded fault schedule, offset from first dispatch."""
        profile = self.fault_profile
        rng = np.random.default_rng(spawn_key(self.seed, (1,)))
        events: list = []
        if profile.stalls and rng.random() < profile.stall_probability:
            # Windows long enough to out-last the supervisor's watchdog
            # patience — short blips would just read as slow slices.
            start = t0 + float(rng.uniform(2.0, 8.0))
            duration = float(rng.uniform(5.0, 12.0))
            if rng.random() < 0.5:
                events.append(LinkFlap(start=start, duration=duration, severity=1.0))
            else:
                events.append(
                    StorageStall(start=start, duration=duration, stage="read", factor=0.0)
                )
        if profile.corruption and rng.random() < profile.corruption_probability:
            events.append(
                DataCorruption(
                    start=t0 + float(rng.uniform(1.0, 6.0)),
                    duration=float(rng.uniform(2.0, 5.0)),
                    rate=float(rng.uniform(0.05, 0.25)),
                    site="network" if rng.random() < 0.7 else "storage",
                )
            )
        if profile.crashes:
            count = int(rng.integers(profile.max_crashes + 1))
            self._crash_plan = sorted(
                t0 + float(rng.uniform(3.0, 15.0)) for _ in range(count)
            )
            self._crash_torn = [bool(rng.random() < 0.5) for _ in range(count)]
        return FaultSchedule(events) if events or self._crash_plan else None

    def ensure_built(self, t0: float) -> None:
        """Construct the verified pipeline at first dispatch time ``t0``.

        Fault windows and crash instants are drawn *relative to dispatch*
        (a job admitted late should still meet its chaos), but from the
        job's own seed — so the whole fleet run stays a pure function of
        the root seed and the request list.
        """
        if self.verified is not None:
            return
        self.dispatched_at = t0
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.testbed = Testbed(
            self.testbed_config,
            rng=spawn_key(self.seed, (2,)),
            faults=self._draw_faults(t0),
        )
        gigabytes = self.request.gigabytes
        files = max(1, round(gigabytes * 4))
        dataset = uniform_dataset(
            files, gigabytes * 1e9 / files, name=self.request.name or f"job{self.job_id:04d}"
        )
        controller = StaticController(self.testbed_config.optimal_threads())
        if self.adapt:
            from repro.adapt import AdaptConfig, AdaptiveController, SafetyEnvelope

            self.controller = AdaptiveController(
                controller,
                AdaptConfig(
                    envelope=SafetyEnvelope.from_testbed_config(self.testbed_config)
                ),
                name=f"job{self.job_id:04d}",
            )
            controller = self.controller
        engine = ModularTransferEngine(
            self.testbed,
            dataset,
            controller,
            EngineConfig(max_seconds=self.horizon, seed=spawn_key(self.seed, (3,))),
        )
        supervisor = TransferSupervisor(
            engine,
            SupervisorConfig(
                stall_intervals=self.stall_intervals,
                max_retries=0,  # retry policy lives in the fleet scheduler
                seed=spawn_key(self.seed, (4,)),
            ),
        )
        self.verified = VerifiedTransfer.for_supervisor(
            supervisor,
            self.run_dir,
            IntegrityConfig(
                chunk_size=self.chunk_size,
                seed=spawn_key(self.seed, (5,)),
                content_seed=self.seed,
                journal_flush_every=8,
            ),
        )

    # ------------------------------------------------------------- accounting
    @property
    def total_bytes(self) -> float:
        """Dataset size in bytes (manifest total once built)."""
        if self.verified is not None:
            return self.verified.manifest.total_bytes
        return self.request.gigabytes * 1e9

    def _observe(self, observation, deadline: float) -> None:
        b = observation.bytes_written_total
        if self._prev_bytes is not None and b > self._prev_bytes:
            self._slice_bytes += b - self._prev_bytes
        self._prev_bytes = b
        if self._crash_plan and observation.elapsed >= self._crash_plan[0]:
            self._crash_plan.pop(0)
            raise _SimulatedCrash(observation.elapsed)
        if observation.elapsed >= deadline:
            raise _SlicePause(observation.elapsed)

    def _incident_kind(self, result: VerifiedTransferResult) -> str:
        events = result.supervised.metrics.fault_events
        return events[-1].kind if events else "stall"

    # ------------------------------------------------------------------ slice
    def run_slice(self, t_start: float, quantum: float, rate_cap: float) -> SliceOutcome:
        """Advance the transfer by up to ``quantum`` virtual seconds.

        ``rate_cap`` (bytes/s) is the fleet's fair-share allocation for
        this slice, enforced by the testbed's network stage.  Returns a
        typed outcome; the pipeline is always left in a resumable state
        (journal flushed on pause, crash semantics on simulated crashes).
        """
        self.ensure_built(t_start)
        assert self.verified is not None and self.testbed is not None
        self.testbed.set_rate_cap(rate_cap)
        deadline = t_start + quantum
        self.slices += 1
        self._prev_bytes = None
        self._slice_bytes = 0.0
        resume = self._started
        self._started = True
        try:
            result = self.verified.run(
                resume=resume,
                resume_elapsed=t_start,
                observer=lambda observation: self._observe(observation, deadline),
            )
        except _SlicePause as pause:
            # Clean pause: map every byte observed this slice onto the
            # ledger before flushing — fault-free ledgers batch their syncs
            # (and the completion-time sync never runs on a pause), so
            # without this the journal would hold no claims and the next
            # slice's verified resume would start from zero.
            if self._prev_bytes is not None:
                self.verified._sync(self._prev_bytes, pause.t)
            self.verified.journal.flush()
            return SliceOutcome("paused", pause.t, progress_bytes=self._slice_bytes)
        except _SimulatedCrash as crash:
            torn = self._crash_torn[self.crashes] if self.crashes < len(self._crash_torn) else False
            self.verified.journal.crash(torn_tail=torn)
            self.crashes += 1
            return SliceOutcome(
                "incident", crash.t, progress_bytes=self._slice_bytes, incident_kind="crash"
            )
        t_end = result.supervised.completion_time
        if result.clean:
            self.verified.journal.flush()
            return SliceOutcome(
                "completed", t_end, progress_bytes=self._slice_bytes, result=result
            )
        if result.supervised.timed_out:
            return SliceOutcome(
                "timed_out", t_end, progress_bytes=self._slice_bytes, result=result
            )
        kind = "verify_failed" if result.completed else self._incident_kind(result)
        return SliceOutcome(
            "incident", t_end, progress_bytes=self._slice_bytes,
            incident_kind=kind, result=result,
        )

    def close(self) -> None:
        """Release the journal file handle (terminal state reached)."""
        if self.verified is not None:
            self.verified.journal.close()
