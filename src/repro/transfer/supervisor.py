"""Resilient transfer supervision: detect → backoff → retry → resume.

:class:`TransferSupervisor` wraps a :class:`~repro.transfer.engine.ModularTransferEngine`
with the failure handling the paper's production loop (§IV-F) assumes away:

* **stall detection** — a watchdog aborts the attempt when the destination
  makes no forward progress for ``stall_intervals`` consecutive probe
  intervals;
* **bounded retry with exponential backoff + jitter** — each retry restarts
  the data plane (buffers, connections) after a deterministic, seeded
  backoff delay on the virtual clock;
* **checkpoint / resume** — a :class:`TransferCheckpoint` records the bytes
  durably written and the controller's last thread triple, so a retry never
  re-transfers completed bytes (only bytes lost in staging buffers are
  re-sent);
* **incident accounting** — each incident produces a
  :class:`~repro.transfer.metrics.FaultEvent` and, once progress resumes, a
  :class:`~repro.transfer.metrics.RecoveryRecord` (time-to-detect,
  time-to-recover, goodput lost) in the stitched transfer metrics (each
  attempt's interval table appended to the transfer's).

The supervisor state machine::

    RUNNING --(no progress for N intervals)--> DETECTED
    DETECTED --(retries left)--> BACKOFF --> RESUME(checkpoint) --> RUNNING
    DETECTED --(retries exhausted)--> FAILED
    DETECTED --(resume at or past max_seconds)--> TIMED_OUT
    RUNNING --(all bytes written)--> COMPLETED
    RUNNING --(max_seconds)--> TIMED_OUT
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import obs
from repro.transfer.engine import ModularTransferEngine, Observation, TransferResult
from repro.transfer.metrics import FaultEvent, RecoveryRecord, TransferMetrics
from repro.utils.backoff import RetryBudget, backoff_delay
from repro.utils.config import (
    dump_json,
    load_json,
    require_in_range,
    require_non_negative,
    require_positive,
)
from repro.utils.errors import CheckpointVersionError
from repro.utils.units import bytes_per_sec_to_mbps

#: Serialization version written by :meth:`TransferCheckpoint.to_dict`.
#: Bump when the on-disk schema changes incompatibly; loaders reject
#: unknown versions with :class:`~repro.utils.errors.CheckpointVersionError`
#: so a supervisor can fall back to a fresh transfer instead of resuming
#: from fields it would misinterpret.
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class SupervisorConfig:
    """Supervision knobs.

    ``stall_intervals`` is the watchdog patience in probe intervals;
    backoff for the *k*-th consecutive fruitless retry is
    ``min(backoff_max, backoff_base * backoff_factor**(k-1))`` scaled by a
    seeded jitter factor uniform in ``[1 - jitter, 1 + jitter]``.

    ``max_elapsed`` is the retry *budget*: the supervised transfer never
    schedules a resume more than ``max_elapsed`` virtual seconds after its
    clock origin, so a retry loop cannot creep past a deadline one capped
    backoff at a time.  An exhausted budget is a typed outcome
    (:attr:`SupervisedTransferResult.budget_exhausted`), not an exception.
    """

    stall_intervals: int = 5
    min_progress_bytes: float = 1.0
    max_retries: int = 4
    backoff_base: float = 2.0
    backoff_factor: float = 2.0
    backoff_max: float = 60.0
    jitter: float = 0.25
    max_elapsed: float = math.inf
    seed: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        require_positive(self.stall_intervals, "stall_intervals")
        require_positive(self.min_progress_bytes, "min_progress_bytes")
        require_non_negative(self.max_retries, "max_retries")
        require_positive(self.backoff_base, "backoff_base")
        require_positive(self.backoff_factor, "backoff_factor")
        require_positive(self.backoff_max, "backoff_max")
        require_in_range(self.jitter, 0.0, 1.0, "jitter")
        require_positive(self.max_elapsed, "max_elapsed")


@dataclass(frozen=True)
class TransferCheckpoint:
    """Everything needed to resume an interrupted transfer.

    ``bytes_completed`` counts only bytes durably written at the
    destination — bytes lost in staging buffers are deliberately excluded
    and will be re-read on resume.  ``elapsed`` is the global virtual time
    to restart at (the abort instant plus the backoff delay), and
    ``threads`` warm-starts the controller's view of concurrency.
    """

    bytes_completed: float
    elapsed: float
    threads: tuple[int, int, int] = (1, 1, 1)
    attempt: int = 0

    def to_dict(self) -> dict:
        """JSON-friendly form (inverse of :meth:`from_dict`)."""
        return {
            "version": CHECKPOINT_VERSION,
            "bytes_completed": self.bytes_completed,
            "elapsed": self.elapsed,
            "threads": list(self.threads),
            "attempt": self.attempt,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TransferCheckpoint":
        """Rebuild from :meth:`to_dict` output.

        Checkpoints written before versioning carry no ``version`` field and
        are read as version 1; any other version raises
        :class:`~repro.utils.errors.CheckpointVersionError` *before* any
        field access, so schema drift surfaces as a typed error rather than
        a ``KeyError`` mid-parse.
        """
        version = int(data.get("version", 1))
        if version != CHECKPOINT_VERSION:
            raise CheckpointVersionError(
                f"unsupported checkpoint version {version} (this build reads "
                f"version {CHECKPOINT_VERSION})"
            )
        return cls(
            bytes_completed=float(data["bytes_completed"]),
            elapsed=float(data["elapsed"]),
            threads=tuple(int(n) for n in data.get("threads", (1, 1, 1))),  # type: ignore[arg-type]
            attempt=int(data.get("attempt", 0)),
        )

    def save(self, path: str | Path) -> None:
        """Persist to JSON so a new process can resume the transfer."""
        dump_json(self.to_dict(), path)

    @classmethod
    def load(cls, path: str | Path) -> "TransferCheckpoint":
        """Inverse of :meth:`save`."""
        return cls.from_dict(load_json(path))


@dataclass(frozen=True)
class AttemptRecord:
    """One engine run under supervision."""

    index: int
    start_time: float
    end_time: float
    start_bytes: float
    end_bytes: float
    outcome: str  # "completed" | "stalled" | "timed_out"

    @property
    def bytes_transferred(self) -> float:
        """Durable bytes this attempt added at the destination."""
        return self.end_bytes - self.start_bytes


@dataclass(frozen=True)
class SupervisedTransferResult:
    """Outcome of a supervised transfer across all attempts.

    ``budget_exhausted`` marks a transfer abandoned because the next resume
    would have landed past :attr:`SupervisorConfig.max_elapsed` — the typed
    :class:`~repro.utils.backoff.RetryBudget` outcome, distinct from both
    ``timed_out`` (engine budget) and plain retry exhaustion.
    """

    completed: bool
    timed_out: bool
    completion_time: float
    total_bytes: float
    metrics: TransferMetrics
    attempts: tuple[AttemptRecord, ...]
    retries_used: int
    last_checkpoint: TransferCheckpoint | None
    controller_name: str = ""
    budget_exhausted: bool = False

    @property
    def effective_throughput(self) -> float:
        """End-to-end Mbps over the whole supervised transfer."""
        if self.completion_time <= 0:
            return 0.0
        return bytes_per_sec_to_mbps(self.total_bytes / self.completion_time)


class _StallDetector:
    """Watchdog: abort when the destination stops making forward progress."""

    def __init__(self, stall_intervals: int, min_progress_bytes: float) -> None:
        self.stall_intervals = stall_intervals
        self.min_progress_bytes = min_progress_bytes
        self._last_bytes: float | None = None
        self._stagnant = 0
        self.progress_stopped_at: float | None = None
        self.detected_at: float | None = None
        self.last_good_rate = 0.0  # bytes/s just before the stall
        self._prev_time: float | None = None

    def __call__(self, observation: Observation) -> bool:
        written = observation.bytes_written_total
        t = observation.elapsed
        if self._last_bytes is None:
            self._last_bytes = written
            self._prev_time = t
            return True
        progressed = written - self._last_bytes >= self.min_progress_bytes
        if progressed:
            dt = max(t - (self._prev_time or 0.0), 1e-9)
            self.last_good_rate = (written - self._last_bytes) / dt
            self._stagnant = 0
            self.progress_stopped_at = None
        else:
            self._stagnant += 1
            if self.progress_stopped_at is None:
                self.progress_stopped_at = self._prev_time
            if self._stagnant >= self.stall_intervals:
                self.detected_at = t
                return False
        self._last_bytes = written
        self._prev_time = t
        return True


class TransferSupervisor:
    """Runs a transfer to completion across faults, retries and resumes."""

    def __init__(
        self, engine: ModularTransferEngine, config: SupervisorConfig | None = None
    ) -> None:
        self.engine = engine
        self.config = config or SupervisorConfig()

    def _attribute(self, t: float) -> str:
        """Name the injected fault(s) active at ``t``, if a schedule exists."""
        faults = self.engine.testbed.faults
        if faults is None:
            return "stall"
        kinds = faults.active_kinds(t)
        return ",".join(kinds) if kinds else "stall"

    def run(
        self,
        *,
        resume_from: TransferCheckpoint | None = None,
        observer: Callable[[Observation], None] | None = None,
    ) -> SupervisedTransferResult:
        """Supervised transfer: returns once completed, failed, or out of budget.

        ``observer`` is called with every interval observation (before the
        stall check) across all attempts; its return value is ignored.  The
        integrity layer uses it to map durable byte progress onto
        checksummed chunks without duplicating the engine loop.  Exceptions
        it raises propagate — a simulated crash in the chaos-soak harness
        is exactly such an exception.

        Under an active observability session the whole supervised transfer
        runs inside a ``transfer/supervised`` span; each incident emits an
        ``incident/detected`` event when the watchdog fires and an
        ``incident/recovered`` event once progress resumes, carrying the
        onset/detect/recover timestamps the post-mortem needs.
        """
        # Pin virtual_start to this supervised transfer's clock origin (a
        # stale clock from an earlier run would yield a negative duration).
        obs.set_virtual_time(resume_from.elapsed if resume_from is not None else 0.0)
        with obs.span(
            "transfer/supervised",
            controller=type(self.engine.controller).__name__,
            resumed=resume_from is not None,
        ):
            return self._run(resume_from, observer)

    def resume_from_path(self, path: str | Path) -> SupervisedTransferResult:
        """Resume from a checkpoint file, falling back to a fresh transfer.

        An unreadable-version checkpoint
        (:class:`~repro.utils.errors.CheckpointVersionError`) is an
        *incident*, not a crash: it is counted on
        ``supervisor/checkpoint_incompatible``, logged as an event, and the
        transfer restarts from byte zero — slower, never wrong.
        """
        try:
            checkpoint = TransferCheckpoint.load(path)
        except CheckpointVersionError as exc:
            obs.count("supervisor/checkpoint_incompatible")
            obs.event("supervisor/checkpoint_incompatible", path=str(path), error=str(exc))
            checkpoint = None
        return self.run(resume_from=checkpoint)

    def _run(
        self,
        resume_from: TransferCheckpoint | None,
        observer: Callable[[Observation], None] | None = None,
    ) -> SupervisedTransferResult:
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        metrics = TransferMetrics()
        attempts: list[AttemptRecord] = []
        checkpoint = resume_from
        pending: FaultEvent | None = None  # detected incident awaiting recovery
        pending_retries = 0  # retries spent on the pending incident
        retries_used = checkpoint.attempt if checkpoint is not None else 0
        consecutive_fruitless = 0
        result: TransferResult | None = None
        budget = RetryBudget(cfg.max_elapsed)
        budget.start(checkpoint.elapsed if checkpoint is not None else 0.0)
        budget_exhausted = False
        horizon_reached = False

        while True:
            start_bytes = checkpoint.bytes_completed if checkpoint else 0.0
            start_time = checkpoint.elapsed if checkpoint else 0.0
            threads = checkpoint.threads if checkpoint else (1, 1, 1)
            detector = _StallDetector(cfg.stall_intervals, cfg.min_progress_bytes)
            if observer is None:
                hook = detector
            else:
                def hook(observation: Observation, _detector=detector) -> bool:
                    observer(observation)
                    return _detector(observation)
            result = self.engine.run(
                start_bytes=start_bytes,
                start_time=start_time,
                initial_threads=threads,
                interval_hook=hook,
            )
            outcome = (
                "completed"
                if result.completed
                else ("stalled" if result.aborted else "timed_out")
            )
            attempts.append(
                AttemptRecord(
                    index=len(attempts),
                    start_time=start_time,
                    end_time=result.completion_time,
                    start_bytes=start_bytes,
                    end_bytes=result.bytes_transferred,
                    outcome=outcome,
                )
            )
            metrics.merge_from(result.metrics)

            made_progress = (
                result.bytes_transferred - start_bytes >= cfg.min_progress_bytes
            )
            if pending is not None and made_progress:
                # The resumed attempt moved bytes again: the incident is over.
                lost = max(0.0, (start_time - pending.t_onset) * detector.last_good_rate)
                recovery = RecoveryRecord(
                    kind=pending.kind,
                    t_onset=pending.t_onset,
                    t_detected=pending.t_detected,
                    t_recovered=start_time,
                    retries=pending_retries,
                    goodput_lost_bytes=lost,
                )
                metrics.record_recovery(recovery)
                obs.event("incident/recovered", t=start_time, **recovery.to_dict())
                pending = None
                pending_retries = 0

            if outcome != "stalled":
                break

            onset = (
                detector.progress_stopped_at
                if detector.progress_stopped_at is not None
                else start_time
            )
            detected = (
                detector.detected_at
                if detector.detected_at is not None
                else result.completion_time
            )
            if pending is None:
                pending = FaultEvent(
                    kind=self._attribute(detected), t_onset=onset, t_detected=detected
                )
                metrics.record_fault(pending)
                obs.event("incident/detected", t=detected, **pending.to_dict())
                obs.count("supervisor/incidents")

            if retries_used >= cfg.max_retries:
                obs.event(
                    "supervisor/gave_up", t=result.completion_time,
                    retries_used=retries_used, kind=pending.kind,
                )
                break

            consecutive_fruitless = consecutive_fruitless + 1 if not made_progress else 1
            delay = backoff_delay(
                consecutive_fruitless,
                base=cfg.backoff_base, factor=cfg.backoff_factor,
                max_delay=cfg.backoff_max, jitter=cfg.jitter, rng=rng,
            )
            resume_at = result.completion_time + delay
            if not budget.allows(resume_at):
                budget_exhausted = True
                obs.event(
                    "supervisor/retry_budget_exhausted", t=result.completion_time,
                    resume_at=resume_at, max_elapsed=cfg.max_elapsed,
                    retries_used=retries_used,
                )
                obs.count("supervisor/retry_budget_exhausted")
                break
            if resume_at >= self.engine.config.max_seconds:
                # The resume would land past the engine's horizon: the retry
                # never runs, so it is not counted and the transfer timed out.
                horizon_reached = True
                break
            retries_used += 1
            pending_retries += 1
            obs.event(
                "supervisor/backoff", t=result.completion_time,
                delay=delay, resume_at=resume_at, retry=retries_used,
            )
            obs.count("supervisor/retries")
            checkpoint = TransferCheckpoint(
                bytes_completed=result.bytes_transferred,
                elapsed=resume_at,
                threads=result.final_threads,
                attempt=retries_used,
            )

        last_checkpoint = (
            None
            if result.completed
            else TransferCheckpoint(
                bytes_completed=result.bytes_transferred,
                elapsed=result.completion_time,
                threads=result.final_threads,
                attempt=retries_used,
            )
        )
        return SupervisedTransferResult(
            completed=result.completed,
            timed_out=result.timed_out or horizon_reached,
            completion_time=result.completion_time,
            total_bytes=result.total_bytes,
            metrics=metrics,
            attempts=tuple(attempts),
            retries_used=retries_used,
            last_checkpoint=last_checkpoint,
            controller_name=result.controller_name,
            budget_exhausted=budget_exhausted,
        )


__all__ = [
    "AttemptRecord",
    "SupervisedTransferResult",
    "SupervisorConfig",
    "TransferCheckpoint",
    "TransferSupervisor",
    "_StallDetector",
]
