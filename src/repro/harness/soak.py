"""Deterministic chaos-soak harness: seeded faults × crashes × invariants.

Each soak **case** derives everything — fault schedule, crash instants,
corruption draws — from ``derive_seed(root_seed, case_index)``, runs one
:class:`~repro.transfer.integrity.VerifiedTransfer` under a
:class:`~repro.transfer.supervisor.TransferSupervisor`, kills it at the
scheduled crash points (losing the journal's unflushed buffer, optionally
leaving a torn tail), resumes with journal replay + verification, and then
asserts the integrity invariants:

* **all_verified** — every manifest chunk digest matches at the
  destination when the case ends;
* **no_double_count** — journal claims cover exactly the manifest's chunk
  ids, every chunk was sent at least once, and verified bytes equal the
  dataset size exactly once (the ledger additionally raises
  :class:`~repro.utils.errors.IntegrityError` mid-run if a pass ever
  writes beyond its pending chunk set);
* **replay_idempotent** — a cold replay of the journal file yields the
  claims the run's own (incrementally replayed) journal holds;
* **conservation** — across all passes the destination durably applied at
  least the dataset size (you cannot verify bytes that never arrived) and
  the final supervised pass landed on the full byte count.

Cases fan out over :class:`repro.parallel.pool.ParallelMap`; seeds are a
pure function of ``(root_seed, case_index)``, so parallel soak results are
bit-identical to serial ones.  ``automdt soak`` is the CLI entry point and
exits non-zero when any invariant fails.

The soak kit below is shared by this soak, the fleet soak and the drift
soak (:mod:`repro.harness.drift`); each soak declares its cases, totals
and CLI table on it.
"""

from __future__ import annotations

import dataclasses
import tempfile
from collections.abc import Callable
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.adapt import AdaptConfig, AdaptiveController, SafetyEnvelope
from repro.baselines import StaticController
from repro.emulator.faults import (
    DataCorruption,
    FaultSchedule,
    SilentTruncation,
    TornWrite,
)
from repro.emulator.presets import fig5_read_bottleneck
from repro.emulator.testbed import Testbed
from repro.fleet import (
    FleetConfig,
    FleetScheduler,
    JobFaultProfile,
    Priority,
    TenantSpec,
    TransferRequest,
)
from repro.fleet.job import _SimulatedCrash
from repro.parallel.pool import ParallelMap
from repro.parallel.seeds import derive_seed, spawn_key
from repro.transfer.engine import EngineConfig, ModularTransferEngine
from repro.transfer.files import uniform_dataset
from repro.transfer.integrity import ChunkJournal, IntegrityConfig, VerifiedTransfer
from repro.transfer.supervisor import SupervisorConfig, TransferSupervisor
from repro.utils.config import dump_json, require_non_negative, require_positive

__all__ = [
    "FleetSoakConfig",
    "SoakConfig",
    "render_fleet_soak_report",
    "render_soak_report",
    "run_fleet_soak",
    "run_soak",
]


# ----------------------------------------------------------------------- kit


def make_case_dir(out_dir: str, name: str) -> Path:
    """A case's directory, ``out_dir/name``, created if missing."""
    case_dir = Path(out_dir) / name
    case_dir.mkdir(parents=True, exist_ok=True)
    return case_dir


def run_twice(run: Callable[[Path], dict], case_dir: Path, check: bool) -> tuple[dict, bool]:
    """``run(case_dir / "run0")`` and, with ``check``, a replay into ``run1``.

    Returns the first run's result and whether the replay reproduced its
    ``fingerprint`` (True when unchecked): the soaks' same-seed
    determinism invariant.
    """
    first = run(case_dir / "run0")
    if not check:
        return first, True
    return first, run(case_dir / "run1")["fingerprint"] == first["fingerprint"]


def verified_case(
    config, seed: int, run_dir: Path, name: str, faults: FaultSchedule, *, adaptive: bool = False
) -> VerifiedTransfer:
    """The seeded verified, supervised transfer one chaos or drift case runs.

    A ``config.gigabytes`` dataset of 0.25 GB files crosses the Fig. 5
    read-bottleneck testbed under ``faults`` at the preset's optimal static
    threads, behind an :class:`~repro.adapt.AdaptiveController` when
    ``adaptive``.  ``spawn_key`` lanes 3–6 of ``seed`` seed the testbed,
    engine, supervisor and integrity layer; lower lanes are left to the
    case's own draws.  The journal lives in ``run_dir``.
    """
    testbed_config = fig5_read_bottleneck()
    controller = StaticController(testbed_config.optimal_threads())
    if adaptive:
        controller = AdaptiveController(
            controller,
            AdaptConfig(envelope=SafetyEnvelope.from_testbed_config(testbed_config)),
            name=name,
        )
    engine = ModularTransferEngine(
        Testbed(testbed_config, rng=spawn_key(seed, (3,)), faults=faults),
        uniform_dataset(max(1, round(config.gigabytes * 4)), 0.25e9, name=name),
        controller,
        EngineConfig(max_seconds=config.max_seconds, seed=spawn_key(seed, (4,))),
    )
    supervisor = TransferSupervisor(engine, SupervisorConfig(seed=spawn_key(seed, (5,))))
    return VerifiedTransfer.for_supervisor(
        supervisor,
        run_dir,
        IntegrityConfig(
            chunk_size=config.chunk_size,
            seed=spawn_key(seed, (6,)),
            content_seed=seed,
            journal_flush_every=8,
        ),
    )


def run_cases(kind: str, run_case: Callable, config, out_dir, totals: Callable) -> dict:
    """Run a soak's cases, aggregate them into its report, and record it.

    Case ``i`` is ``run_case(i, config, out_dir)``, a pure function of
    ``derive_seed(config.root_seed, i)``; cases fan out over
    :class:`~repro.parallel.pool.ParallelMap` with ``config.workers``
    workers, so parallel reports are bit-identical to serial ones.  The
    report holds the whole config, the case records, the failed case
    indices and ``totals(cases)``.  With ``out_dir`` it is also written to
    ``out_dir/<kind>_report.json``; without one the cases run in a temp
    dir that is removed once they are aggregated, and each case's ``dir``
    is None.  The active results store, if any, ingests the report as one
    run: scalar report fields become plain metrics, each case's pass/fail
    a labelled ``case.passed`` metric, and the report file an artifact.
    """
    from repro.obs.store import flatten_numeric, record_report

    with (
        nullcontext(str(out_dir))
        if out_dir is not None
        else tempfile.TemporaryDirectory(prefix=f"{kind}-")
    ) as out:
        pool = ParallelMap(
            lambda index: run_case(index, config, out), workers=max(1, config.workers)
        )
        cases = pool.map_values(list(range(config.cases)))
    if out_dir is None:
        for case in cases:
            case["dir"] = None

    failures = [c["case"] for c in cases if not c["passed"]]
    report = {
        "config": dataclasses.asdict(config),
        "cases": cases,
        "all_passed": not failures,
        "failed_cases": failures,
        **totals(cases),
    }
    if out_dir is not None:
        path = Path(out_dir) / f"{kind}_report.json"
        dump_json(report, path)
        report["report_path"] = str(path)
    record_report(
        kind,
        kind,
        seed=config.root_seed,
        config=report["config"],
        metrics=flatten_numeric(
            {k: v for k, v in report.items() if k not in ("cases", "config")}
        ),
        labelled_metrics=[
            ("case.passed", float(c["passed"]), {"case": str(c["case"])}) for c in cases
        ],
        artifacts=[report["report_path"]] if "report_path" in report else [],
    )
    return report


def render_cases(
    report: dict, title: str, columns: list, row: Callable, flags: dict, detail: str = ""
) -> str:
    """A soak report as the CLI's case table, flag legend and verdict.

    Each case row is its index, PASS/FAIL, ``row(case)`` under ``columns``,
    and one letter per invariant of ``flags`` (letter → invariant name),
    uppercased when the invariant is violated.
    """
    from repro.utils.tables import render_table

    rows = [
        [
            c["case"],
            "PASS" if c["passed"] else "FAIL",
            *row(c),
            "".join(
                letter if c["invariants"][name] else letter.upper()
                for letter, name in flags.items()
            ),
        ]
        for c in report["cases"]
    ]
    table = render_table(
        ["case", "result", *columns, "inv"],
        rows,
        title=(
            f"{title} — {len(report['cases'])} case(s){detail}, "
            f"root seed {report['config']['root_seed']}"
        ),
    )
    legend = " ".join(f"{letter}={name}" for letter, name in flags.items())
    verdict = (
        "ALL INVARIANTS HELD"
        if report["all_passed"]
        else f"FAILED cases: {report['failed_cases']}"
    )
    return f"{table}\ninv flags: {legend} (uppercase = violated)\n{verdict}\n"


# --------------------------------------------------------------------- chaos


@dataclass(frozen=True)
class SoakConfig:
    """Chaos-soak knobs; every case is a pure function of its derived seed."""

    cases: int = 8
    root_seed: int = 0
    gigabytes: float = 2.0  # dataset size per case
    chunk_size: float = 32e6
    max_seconds: float = 900.0
    corruption: bool = True  # in-flight + at-rest DataCorruption
    torn_writes: bool = True
    truncation: bool = True
    crashes: bool = True  # mid-transfer process kills
    max_crashes: int = 2  # per case
    workers: int = 1  # ParallelMap fan-out (1 = serial)

    def __post_init__(self) -> None:
        require_positive(self.cases, "cases")
        require_positive(self.gigabytes, "gigabytes")
        require_positive(self.chunk_size, "chunk_size")
        require_positive(self.max_seconds, "max_seconds")
        require_non_negative(self.max_crashes, "max_crashes")

    @classmethod
    def quick(cls, root_seed: int = 0) -> "SoakConfig":
        """The CI smoke preset: 3 small seeded cases, corruption + crashes."""
        return cls(cases=3, root_seed=root_seed, gigabytes=1.0, max_crashes=1)


def _case_faults(config: SoakConfig, seed: int) -> FaultSchedule:
    """The case's seeded data-plane fault schedule."""
    rng = np.random.default_rng(spawn_key(seed, (1,)))
    events = []
    if config.corruption:
        events.append(
            DataCorruption(
                start=float(rng.uniform(2.0, 8.0)),
                duration=float(rng.uniform(5.0, 15.0)),
                rate=float(rng.uniform(0.1, 0.3)),
                site="network",
            )
        )
        events.append(
            DataCorruption(
                start=float(rng.uniform(10.0, 20.0)),
                duration=1.0,
                rate=float(rng.uniform(0.05, 0.2)),
                site="storage",
            )
        )
    if config.torn_writes:
        events.append(TornWrite(at=float(rng.uniform(3.0, 15.0))))
    if config.truncation:
        events.append(
            SilentTruncation(
                at=float(rng.uniform(5.0, 18.0)), chunks=1 + int(rng.integers(3))
            )
        )
    return FaultSchedule(events)


def _crash_plan(config: SoakConfig, seed: int) -> tuple[list[float], list[bool]]:
    """Virtual crash instants and whether each leaves a torn journal tail."""
    if not config.crashes or config.max_crashes == 0:
        return [], []
    rng = np.random.default_rng(spawn_key(seed, (2,)))
    count = 1 + int(rng.integers(config.max_crashes))
    times = sorted(float(rng.uniform(4.0, 20.0)) for _ in range(count))
    torn = [bool(rng.random() < 0.5) for _ in range(count)]
    return times, torn


def _run_case(index: int, config: SoakConfig, out_dir: str) -> dict:
    """One seeded soak case; returns a JSON-able case record."""
    seed = derive_seed(config.root_seed, index)
    case_dir = make_case_dir(out_dir, f"case{index:03d}")
    verified = verified_case(
        config, seed, case_dir, f"soak-{index:03d}", _case_faults(config, seed)
    )

    crash_times, crash_torn = _crash_plan(config, seed)
    pending = list(crash_times)

    def crasher(observation) -> None:
        if pending and observation.elapsed >= pending[0]:
            pending.pop(0)
            raise _SimulatedCrash(observation.elapsed)

    crashes_done = 0
    resumed = False
    resume_t = 0.0
    while True:
        try:
            result = verified.run(
                resume=resumed, resume_elapsed=resume_t, observer=crasher
            )
            break
        except _SimulatedCrash as crash:
            # Process death: the journal's unflushed buffer is lost, the
            # destination (ledger) and the virtual clock survive.
            verified.journal.crash(torn_tail=crash_torn[crashes_done])
            crashes_done += 1
            resumed = True
            resume_t = crash.t
    verified.journal.flush()

    # ------------------------------------------------------------ invariants
    manifest, ledger, journal = verified.manifest, verified.ledger, verified.journal
    claims = journal.replay()
    total = manifest.total_bytes
    all_verified = bool(result.verified and not ledger.verify())
    no_double_count = bool(
        (claims >= 0).all()
        and all(count >= 1 for count in ledger.send_counts.values())
        and abs(ledger.verified_bytes - total) < 1.0
    )
    # The warm journal's column against a cold fold of the same file: the
    # warm journal itself would read nothing on a second replay.
    with ChunkJournal(journal.path, manifest.digests_np) as cold:
        replay_idempotent = bool(np.array_equal(cold.replay(), claims))
    last_pass_bytes = (
        result.supervised.attempts[-1].end_bytes if result.supervised.attempts else 0.0
    )
    # The testbed's read counter resets per engine pass, so conservation is
    # checked on the ledger's cross-pass applied-byte total: every dataset
    # byte became durable at least once, and the final pass landed exactly
    # on the full byte count.
    conservation = bool(
        ledger.bytes_applied_total >= total - 1.0 and abs(last_pass_bytes - total) < 1.0
    )
    invariants = {
        "all_verified": all_verified,
        "no_double_count": no_double_count,
        "replay_idempotent": replay_idempotent,
        "conservation": conservation,
    }

    journal.close()
    manifest.save(case_dir / "manifest.json")
    ledger.save(case_dir / "destination.json")
    record = {
        "case": index,
        "seed": seed,
        "dir": str(case_dir),
        "completed": result.completed,
        "verified": result.verified,
        "passed": all(invariants.values()),
        "invariants": invariants,
        "chunks_total": result.chunks_total,
        "crashes": crashes_done,
        "crash_times": crash_times[:crashes_done],
        "resume_verified_chunks": result.resumed_verified_chunks,
        "resent_chunks": sorted(set(result.resent_chunk_ids)),
        "repair_rounds": result.repair_rounds,
        "unrecovered_chunks": list(result.unrecovered_chunk_ids),
        "destination": ledger.status_counts(),
        "total_bytes": total,
        "source_read_bytes": verified.supervisor.engine.testbed.total_read,
        "supervisor_retries": result.supervised.retries_used,
        "completion_time_s": round(result.supervised.completion_time, 1),
    }
    dump_json(record, case_dir / "case.json")
    return record


def run_soak(config: SoakConfig | None = None, *, out_dir: str | Path | None = None) -> dict:
    """Run the whole soak; returns (and optionally writes) the report.

    With ``out_dir`` each case leaves its artifacts (``manifest.json``,
    ``journal.jsonl``, ``destination.json``, ``case.json``) under
    ``out_dir/caseNNN/`` — each directory is `automdt verify`-able — and
    the aggregate lands in ``out_dir/soak_report.json``.
    """
    return run_cases(
        "soak",
        _run_case,
        config or SoakConfig(),
        out_dir,
        lambda cases: {
            "total_crashes": sum(c["crashes"] for c in cases),
            "total_resent_chunks": sum(len(c["resent_chunks"]) for c in cases),
            "total_repair_rounds": sum(c["repair_rounds"] for c in cases),
        },
    )


def render_soak_report(report: dict) -> str:
    """Human-readable soak summary for the CLI."""
    return render_cases(
        report,
        "chaos soak",
        ["crashes", "resumed-ok", "resent", "repairs"],
        lambda c: [
            c["crashes"],
            c["resume_verified_chunks"],
            len(c["resent_chunks"]),
            c["repair_rounds"],
        ],
        {
            "v": "all_verified",
            "d": "no_double_count",
            "r": "replay_idempotent",
            "c": "conservation",
        },
    )


# --------------------------------------------------------------------- fleet


@dataclass(frozen=True)
class FleetSoakConfig:
    """Fleet-level chaos soak: many tenants × many transfers per case.

    Each case builds a :class:`~repro.fleet.scheduler.FleetScheduler` over
    ``transfers`` concurrent requests spread across ``tenants`` equal-weight
    tenants, injects the usual seeded chaos (stalls, corruption, crashes)
    into every job, and checks the fleet invariants on the report:

    * **no_data_loss / all_recovered** — every admitted transfer finishes
      verified with zero unrecovered chunks;
    * **no_starvation** — every admitted job got at least one slice;
    * **capacity_respected** — no round's total allocation exceeded the
      link capacity;
    * **breaker_transitions_legal** — every circuit-breaker log re-validates
      against the legal-transition set;
    * **fair_goodput** — equal-weight tenants with identical workloads land
      within ``fairness_bound`` of each other (max/min verified-goodput);
    * **deterministic** — with ``determinism_check`` the whole case runs
      twice and the two report fingerprints must be identical.
    """

    cases: int = 4
    root_seed: int = 0
    tenants: int = 4
    transfers: int = 32
    gigabytes: float = 0.25
    quantum: float = 10.0
    max_parallel: int = 8
    horizon: float = 2400.0
    stalls: bool = True
    corruption: bool = True
    crashes: bool = True
    fairness_bound: float = 2.5
    determinism_check: bool = True
    workers: int = 1

    def __post_init__(self) -> None:
        require_positive(self.cases, "cases")
        require_positive(self.tenants, "tenants")
        require_positive(self.transfers, "transfers")
        require_positive(self.gigabytes, "gigabytes")
        require_positive(self.quantum, "quantum")
        require_positive(self.max_parallel, "max_parallel")
        require_positive(self.horizon, "horizon")
        require_positive(self.fairness_bound, "fairness_bound")

    @classmethod
    def quick(cls, root_seed: int = 0) -> "FleetSoakConfig":
        """The CI smoke preset: one 32-transfer case across 4 tenants."""
        return cls(cases=1, root_seed=root_seed, transfers=32, tenants=4)


def _fleet_case_config(config: FleetSoakConfig, seed: int):
    """The per-case fleet configuration (pure function of the seed)."""
    per_tenant = max(2, config.max_parallel // config.tenants + 1)
    tenants = tuple(
        TenantSpec(f"tenant{i}", max_concurrency=per_tenant)
        for i in range(config.tenants)
    )
    return FleetConfig(
        tenants=tenants,
        seed=seed,
        quantum=config.quantum,
        max_parallel=config.max_parallel,
        horizon=config.horizon,
        stall_intervals=4,
        admission_limit=max(64, config.transfers),
        per_tenant_queue=max(32, config.transfers),
        faults=JobFaultProfile(
            stalls=config.stalls,
            corruption=config.corruption,
            crashes=config.crashes,
            stall_probability=0.6,
            corruption_probability=0.5,
            max_crashes=1,
        ),
    )


def _fleet_requests(config: FleetSoakConfig, case: int) -> list:
    """The case's request list: equal workloads, round-robin tenants."""
    return [
        TransferRequest(
            tenant=f"tenant{i % config.tenants}",
            gigabytes=config.gigabytes,
            priority=Priority.BATCH,
            name=f"case{case:03d}-r{i:03d}",
        )
        for i in range(config.transfers)
    ]


def _fair_goodput_ratio(report: dict) -> float:
    """max/min verified-goodput over tenants that completed work."""
    rates = [
        stats["goodput_bytes_per_s"]
        for stats in report["tenants"].values()
        if stats["completed"] > 0
    ]
    if len(rates) < 2 or min(rates) <= 0:
        return float("inf") if rates else 0.0
    return max(rates) / min(rates)


def _run_fleet_case(index: int, config: FleetSoakConfig, out_dir: str) -> dict:
    """One seeded fleet case; returns a JSON-able case record."""
    seed = derive_seed(config.root_seed, index)
    case_dir = make_case_dir(out_dir, f"fleet{index:03d}")
    report, deterministic = run_twice(
        lambda run_dir: FleetScheduler(
            _fleet_case_config(config, seed), _fleet_requests(config, index), run_dir
        ).run(),
        case_dir,
        config.determinism_check,
    )

    ratio = _fair_goodput_ratio(report)
    invariants = dict(report["invariants"])
    invariants["fair_goodput"] = bool(ratio <= config.fairness_bound)
    invariants["deterministic"] = deterministic
    record = {
        "case": index,
        "seed": seed,
        "dir": str(case_dir),
        "passed": all(invariants.values()),
        "invariants": invariants,
        "admitted": report["admission"]["admitted"],
        "rejected": report["admission"]["rejected"],
        "completed": sum(1 for j in report["jobs"] if j["state"] == "completed"),
        "failed": sum(1 for j in report["jobs"] if j["state"] == "failed"),
        "incidents": sum(len(j["incidents"]) for j in report["jobs"]),
        "crashes": sum(j["crashes"] for j in report["jobs"]),
        "breakers_opened": sum(j["breaker"]["times_opened"] for j in report["jobs"]),
        "unrecovered_jobs": report["unrecovered_jobs"],
        "fair_goodput_ratio": round(ratio, 3),
        "duration_s": report["duration_s"],
        "rounds": report["rounds"],
        "fingerprint": report["fingerprint"],
    }
    dump_json(report, case_dir / "fleet_report.json")
    dump_json(record, case_dir / "case.json")
    return record


def run_fleet_soak(
    config: FleetSoakConfig | None = None, *, out_dir: str | Path | None = None
) -> dict:
    """Run the fleet soak; returns (and optionally writes) the report.

    Case seeds are ``derive_seed(root_seed, case_index)``, each case is
    internally serial, and cases fan out over
    :class:`~repro.parallel.pool.ParallelMap` — so parallel results are
    bit-identical to serial ones, exactly like :func:`run_soak`.
    """
    return run_cases(
        "fleet_soak",
        _run_fleet_case,
        config or FleetSoakConfig(),
        out_dir,
        lambda cases: {
            "total_incidents": sum(c["incidents"] for c in cases),
            "total_crashes": sum(c["crashes"] for c in cases),
            "total_breakers_opened": sum(c["breakers_opened"] for c in cases),
        },
    )


def render_fleet_soak_report(report: dict) -> str:
    """Human-readable fleet-soak summary for the CLI."""
    config = report["config"]
    return render_cases(
        report,
        "fleet soak",
        ["done", "incidents", "crashes", "opened", "fair"],
        lambda c: [
            f"{c['completed']}/{c['admitted']}",
            c["incidents"],
            c["crashes"],
            c["breakers_opened"],
            f"{c['fair_goodput_ratio']:.2f}",
        ],
        {
            "l": "no_data_loss",
            "r": "all_recovered",
            "s": "no_starvation",
            "c": "capacity_respected",
            "b": "breaker_transitions_legal",
            "f": "fair_goodput",
            "d": "deterministic",
        },
        detail=f" × {config['transfers']} transfers / {config['tenants']} tenants",
    )
