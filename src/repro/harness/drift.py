"""Deterministic drift-soak harness: seeded drift × adaptation invariants.

Each drift-soak **case** derives its whole scenario — drift kind, onset,
severity — from ``derive_seed(root_seed, case_index)``, runs one verified,
supervised transfer under an :class:`~repro.adapt.AdaptiveController`, and
asserts the safe-adaptation invariants:

* **detected** — the drift monitor moves the guard to DRIFT_SUSPECTED
  within ``latency_bound_s`` of the injected drift's onset;
* **acted** — the expected adaptation happened: a shadow-promoted
  correction for correctable (per-stream) drift, a rollback for the
  scenario that hard-stalls the pipeline mid-correction;
* **transitions_legal** — the :class:`~repro.adapt.guard.RollbackGuard`
  audit log re-validates against the legal-transition set;
* **no_data_loss** — the transfer completes verified with zero
  unrecovered chunks (rollback restores guarded-controller service);
* **restored** — the guard ends the case in NOMINAL or CORRECTING, never
  stuck in DRIFT_SUSPECTED or ROLLED_BACK;
* **deterministic** — the case runs twice and both runs produce an
  identical report fingerprint (same-seed reproducibility).

Scenario kinds cycle with the case index:

0. ``network_ramp`` — per-stream bandwidth ramp on the network path; more
   streams can compensate, so the corrector is expected to promote.
1. ``read_step`` — per-stream step change on the read stage; more read
   threads compensate.
2. ``rollback`` — the network ramp *plus* a total read+write stall landing
   inside the correction window; no thread count helps, so the adaptive
   stall watchdog must roll back to guarded control (three intervals,
   before the supervisor's five-interval stall detector).

Cases fan out over :class:`~repro.parallel.pool.ParallelMap`; seeds are a
pure function of ``(root_seed, case_index)``, so parallel results are
bit-identical to serial ones.  ``automdt soak --drift`` is the CLI entry
point and exits non-zero when any invariant fails.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.adapt import CORRECTING, DRIFT_SUSPECTED, NOMINAL, transitions_legal
from repro.emulator.faults import BandwidthRamp, FaultSchedule, StepChange, StorageStall
from repro.harness.soak import make_case_dir, render_cases, run_cases, run_twice, verified_case
from repro.parallel.seeds import derive_seed, spawn_key
from repro.utils.config import dump_json, require_positive

__all__ = [
    "DriftSoakConfig",
    "render_drift_soak_report",
    "run_drift_soak",
]

_SCENARIOS = ("network_ramp", "read_step", "rollback")


@dataclass(frozen=True)
class DriftSoakConfig:
    """Drift-soak knobs; every case is a pure function of its derived seed."""

    cases: int = 6
    root_seed: int = 0
    gigabytes: float = 4.0  # dataset size per case — must outlast onset + correction
    chunk_size: float = 32e6
    max_seconds: float = 900.0
    latency_bound_s: float = 30.0  # max detection delay after drift onset
    determinism_check: bool = True
    workers: int = 1  # ParallelMap fan-out (1 = serial)

    def __post_init__(self) -> None:
        require_positive(self.cases, "cases")
        require_positive(self.gigabytes, "gigabytes")
        require_positive(self.chunk_size, "chunk_size")
        require_positive(self.max_seconds, "max_seconds")
        require_positive(self.latency_bound_s, "latency_bound_s")

    @classmethod
    def quick(cls, root_seed: int = 0) -> "DriftSoakConfig":
        """The CI smoke preset: one case of each scenario kind."""
        return cls(cases=3, root_seed=root_seed)


def _case_scenario(index: int, seed: int) -> dict:
    """The case's seeded drift scenario (pure function of the seed)."""
    rng = np.random.default_rng(spawn_key(seed, (1,)))
    kind = _SCENARIOS[index % len(_SCENARIOS)]
    # The rollback scenario needs headroom after its stall window, so its
    # drift starts early; correctable drift can start anywhere that leaves
    # the detectors their warmup.
    onset = (
        float(rng.uniform(14.0, 16.0))
        if kind == "rollback"
        else float(rng.uniform(14.0, 22.0))
    )
    severity = float(rng.uniform(0.35, 0.5))  # surviving fraction of tpt
    events: list = []
    if kind == "network_ramp":
        events.append(
            BandwidthRamp(
                start=onset,
                duration=float(rng.uniform(6.0, 10.0)),
                to_scale=severity,
                stage="network",
                per_stream=True,
            )
        )
    elif kind == "read_step":
        events.append(
            StepChange(
                start=onset, duration=1.0, to_scale=severity, stage="read", per_stream=True
            )
        )
    else:  # rollback: correctable ramp, then a hard stall mid-correction.
        events.append(
            BandwidthRamp(
                start=onset,
                duration=8.0,
                to_scale=severity,
                stage="network",
                per_stream=True,
            )
        )
        # The shadow evaluation cadence puts promotion ~12-15s after onset
        # (warmup + suspicion + shadow_every); the stall opens inside the
        # correction-hold window and outlasts the rollback watchdog's
        # three intervals.
        stall_start = onset + 18.0
        for stage in ("read", "write"):
            events.append(
                StorageStall(start=stall_start, duration=14.0, factor=0.0, stage=stage)
            )
    return {"kind": kind, "onset": onset, "severity": round(severity, 4), "events": events}


def _fingerprint(record: dict) -> str:
    """sha256 over the stable, physics-determined fields of a case record."""
    stable = {
        key: record[key]
        for key in (
            "scenario",
            "onset",
            "completed",
            "verified",
            "transitions",
            "detections",
            "promotions",
            "rollbacks",
            "residual",
            "supervisor_retries",
            "completion_time_s",
            "total_bytes",
        )
    }
    payload = json.dumps(stable, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def _run_once(index: int, config: DriftSoakConfig, case_dir: Path) -> dict:
    """One seeded drift case (no invariants yet); returns a JSON-able record."""
    seed = derive_seed(config.root_seed, index)
    scenario = _case_scenario(index, seed)
    case_dir.mkdir(parents=True, exist_ok=True)
    verified = verified_case(
        config, seed, case_dir, f"drift-{index:03d}", FaultSchedule(scenario["events"]),
        adaptive=True,
    )
    result = verified.run()
    verified.journal.close()

    adapt_report = verified.supervisor.engine.controller.report()
    suspects = [
        tr["t"]
        for tr in adapt_report["transitions"]
        if tr["dst"] == DRIFT_SUSPECTED and tr["t"] >= scenario["onset"]
    ]
    detection_latency = suspects[0] - scenario["onset"] if suspects else None
    record = {
        "case": index,
        "seed": seed,
        "dir": str(case_dir),
        "scenario": scenario["kind"],
        "onset": round(scenario["onset"], 3),
        "severity": scenario["severity"],
        "completed": result.completed,
        "verified": result.verified,
        "unrecovered_chunks": list(result.unrecovered_chunk_ids),
        "detection_latency_s": (
            round(detection_latency, 3) if detection_latency is not None else None
        ),
        "detections": adapt_report["detections"],
        "promotions": adapt_report["promotions"],
        "rollbacks": adapt_report["rollbacks"],
        "transitions": adapt_report["transitions"],
        "final_state": adapt_report["state"],
        "residual": adapt_report["residual"],
        "clamps": adapt_report["clamps"],
        "events": adapt_report["events"],
        "supervisor_retries": result.supervised.retries_used,
        "completion_time_s": round(result.supervised.completion_time, 1),
        "effective_mbps": round(result.supervised.effective_throughput, 1),
        "total_bytes": result.supervised.total_bytes,
    }
    record["fingerprint"] = _fingerprint(record)
    return record


def _run_case(index: int, config: DriftSoakConfig, out_dir: str) -> dict:
    """One drift case with invariants (and the optional determinism replay)."""
    case_dir = make_case_dir(out_dir, f"drift{index:03d}")
    record, deterministic = run_twice(
        lambda run_dir: _run_once(index, config, run_dir),
        case_dir,
        config.determinism_check,
    )

    expect_rollback = record["scenario"] == "rollback"
    invariants = {
        "detected": (
            record["detection_latency_s"] is not None
            and record["detection_latency_s"] <= config.latency_bound_s
        ),
        "acted": (
            record["rollbacks"] >= 1 if expect_rollback else record["promotions"] >= 1
        ),
        "transitions_legal": transitions_legal(
            [(tr["src"], tr["dst"]) for tr in record["transitions"]]
        ),
        "no_data_loss": bool(
            record["completed"]
            and record["verified"]
            and not record["unrecovered_chunks"]
        ),
        "restored": record["final_state"] in (NOMINAL, CORRECTING),
        "deterministic": deterministic,
    }
    record["invariants"] = invariants
    record["passed"] = all(invariants.values())
    dump_json(record, case_dir / "case.json")
    return record


def _drift_totals(cases: list[dict]) -> dict:
    """The drift report's totals over its case records."""
    latencies = [
        c["detection_latency_s"] for c in cases if c["detection_latency_s"] is not None
    ]
    return {
        "total_detections": sum(c["detections"] for c in cases),
        "total_promotions": sum(c["promotions"] for c in cases),
        "total_rollbacks": sum(c["rollbacks"] for c in cases),
        "max_detection_latency_s": max(latencies) if latencies else None,
    }


def run_drift_soak(
    config: DriftSoakConfig | None = None, *, out_dir: str | Path | None = None
) -> dict:
    """Run the whole drift soak; returns (and optionally writes) the report."""
    return run_cases(
        "drift_soak", _run_case, config or DriftSoakConfig(), out_dir, _drift_totals
    )


def render_drift_soak_report(report: dict) -> str:
    """Human-readable drift-soak summary for the CLI."""
    return render_cases(
        report,
        "drift soak",
        ["scenario", "latency", "promos", "rollbacks", "state"],
        lambda c: [
            c["scenario"],
            "-" if c["detection_latency_s"] is None else f"{c['detection_latency_s']:.1f}s",
            c["promotions"],
            c["rollbacks"],
            c["final_state"],
        ],
        {
            "d": "detected",
            "a": "acted",
            "l": "transitions_legal",
            "s": "no_data_loss",
            "r": "restored",
            "f": "deterministic",
        },
    )
