"""Command-line interface: ``python -m repro.harness`` / ``automdt``.

Commands::

    automdt list                                   # experiments + presets
    automdt run figure3 [--full] [--seed N] [--seeds 0,1,2] [--out DIR]
    automdt run all [--full]                       # everything, in order
    automdt sweep all --seeds 0-9 --workers 4      # grid over a process pool
    automdt sweep figure1,faults_random --seeds 0-4 --workers 0   # 0 = all cores
    automdt explore --preset fig5-read [--duration 120] [--out profile.json]
    automdt train --preset fig5-read [--episodes 4000] --out ckpt
    automdt transfer --preset fig5-read --checkpoint ckpt [--gb 25] [--mixed]
    automdt soak [--quick] [--cases 8] [--seed 0] [--out DIR]   # chaos soak
    automdt soak --drift [--quick] [--latency-bound 30]         # drift/adaptation soak
    automdt run adapt_drift --adapt                # drift experiment, adaptation on
    automdt fleet [--tenants 4] [--transfers 32] [--seed 0] [--out DIR]
    automdt fleet --soak [--quick] [--cases 4]     # multi-tenant fleet chaos soak
    automdt verify RUN_DIR                         # offline integrity check
    automdt obs summary RUN_DIR                    # inspect an instrumented run
    automdt obs tail RUN_DIR [-n 20]
    automdt obs diff RUN_A RUN_B
    automdt store ingest BENCH_*.json              # backfill the results store
    automdt report --store automdt.db [--out report.md]
    automdt regress BENCH_*.json --store automdt.db

``run`` and ``transfer`` accept ``--obs RUN_DIR`` to record a telemetry
event log (spans, PPO losses, per-interval transfer samples, supervisor
incidents) that the ``obs`` subcommands reconstruct.  ``run``, ``sweep``,
``soak`` and ``fleet`` accept ``--store DB`` (or ``AUTOMDT_STORE``) to
append every run's metrics to the results store (see
:mod:`repro.obs.store`).  ``run --seeds`` and ``sweep`` both run the
grid of (experiment, seed) cells through
:func:`repro.harness.grid.run_grid` and share one exit-code rule; with a
store, ``sweep`` also *resumes* — cells already completed at the current
revision are skipped — while ``run`` recomputes every cell.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import nullcontext

from repro import obs
from repro.harness.experiments import EXPERIMENTS
from repro.obs.cli import add_obs_parser, run_obs
from repro.obs.store.cli import (
    add_store_parsers,
    run_regress_command,
    run_report_command,
    run_store_command,
)


def build_parser() -> argparse.ArgumentParser:
    """The argparse CLI definition."""
    parser = argparse.ArgumentParser(
        prog="automdt",
        description="AutoMDT reproduction: experiments and pipeline tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments and presets")

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", help="experiment name from 'list', or 'all'")
    run.add_argument("--full", action="store_true", help="paper-scale budgets (slow)")
    run.add_argument("--seed", type=int, default=0, help="root RNG seed")
    run.add_argument(
        "--seeds", default=None,
        help="seed list/range ('0,1,2' or '0-9'); aggregates mean/std over runs",
    )
    run.add_argument(
        "--workers", type=int, default=1,
        help="process-pool size for --seeds sweeps (0 = all cores)",
    )
    run.add_argument("--out", default=None, help="directory for JSON result dumps")
    run.add_argument(
        "--adapt", action="store_true",
        help="enable safe online adaptation (drift detection + shadow-evaluated "
             "correction + rollback) in experiments that support it",
    )
    run.add_argument(
        "--obs", default=None, metavar="DIR",
        help="record a telemetry event log into DIR (see 'automdt obs')",
    )
    _add_store_flag(run)

    sweep = sub.add_parser(
        "sweep", help="run an experiments × seeds grid over a process pool"
    )
    sweep.add_argument(
        "experiments",
        help="comma-separated experiment names from 'list', or 'all'",
    )
    sweep.add_argument(
        "--seeds", default="0",
        help="seed list/range, e.g. '0-9' or '0,1,5' (default: 0)",
    )
    sweep.add_argument(
        "--workers", type=int, default=1,
        help="process-pool size; 0 = all cores, 1 = serial (default)",
    )
    sweep.add_argument("--full", action="store_true", help="paper-scale budgets (slow)")
    sweep.add_argument(
        "--timeout", type=float, default=None,
        help="per-cell wall-clock budget in seconds",
    )
    sweep.add_argument(
        "--retries", type=int, default=0,
        help="extra attempts per failed cell (crash/timeout/exception)",
    )
    sweep.add_argument("--out", default=None, help="directory for per-cell JSON dumps")
    sweep.add_argument(
        "--obs", default=None, metavar="DIR",
        help="record telemetry (per-worker logs merged after the sweep)",
    )
    _add_store_flag(sweep)
    sweep.add_argument(
        "--no-resume", action="store_true",
        help="with --store: re-run cells even when the store holds them",
    )

    explore = sub.add_parser("explore", help="run the §IV-A logging phase on a preset")
    explore.add_argument("--preset", required=True)
    explore.add_argument("--duration", type=float, default=120.0)
    explore.add_argument("--seed", type=int, default=0)
    explore.add_argument("--out", default=None, help="write the profile JSON here")

    trainp = sub.add_parser("train", help="explore + offline-train for a preset")
    trainp.add_argument("--preset", required=True)
    trainp.add_argument("--episodes", type=int, default=4000)
    trainp.add_argument("--exploration", type=float, default=120.0)
    trainp.add_argument("--seed", type=int, default=0)
    trainp.add_argument("--out", required=True, help="checkpoint path (no extension)")

    transfer = sub.add_parser("transfer", help="run a transfer with a trained checkpoint")
    transfer.add_argument("--preset", required=True)
    transfer.add_argument("--checkpoint", required=True)
    transfer.add_argument("--gb", type=float, default=25.0, help="dataset size in GB")
    transfer.add_argument("--mixed", action="store_true", help="mixed file sizes")
    transfer.add_argument("--seed", type=int, default=1)
    transfer.add_argument("--deterministic", action="store_true")
    transfer.add_argument(
        "--obs", default=None, metavar="DIR",
        help="record a telemetry event log into DIR (see 'automdt obs')",
    )

    soak = sub.add_parser(
        "soak", help="deterministic chaos soak: seeded faults × crashes × invariants"
    )
    soak.add_argument("--cases", type=int, default=8, help="number of seeded cases")
    soak.add_argument("--seed", type=int, default=0, help="root seed (cases derive from it)")
    soak.add_argument("--gb", type=float, default=2.0, help="dataset size per case (GB)")
    soak.add_argument("--workers", type=int, default=1, help="process fan-out (1 = serial)")
    soak.add_argument(
        "--quick", action="store_true",
        help="CI smoke preset: 3 small cases, corruption + crash faults",
    )
    soak.add_argument(
        "--drift", action="store_true",
        help="run the drift soak instead: seeded bandwidth drift × adaptation "
             "invariants (detection latency, legal rollback, zero data loss)",
    )
    soak.add_argument(
        "--latency-bound", type=float, default=30.0,
        help="--drift: max allowed detection delay after drift onset (s)",
    )
    soak.add_argument("--no-crashes", action="store_true", help="disable simulated crashes")
    soak.add_argument(
        "--no-corruption", action="store_true", help="disable DataCorruption faults"
    )
    soak.add_argument(
        "--out", default=None,
        help="directory for per-case artifacts and soak_report.json",
    )
    _add_store_flag(soak)

    fleet = sub.add_parser(
        "fleet",
        help="multi-tenant fleet control plane: admission, fair share, breakers",
    )
    fleet.add_argument("--tenants", type=int, default=4, help="equal-weight tenant count")
    fleet.add_argument("--transfers", type=int, default=32, help="total transfer requests")
    fleet.add_argument("--gb", type=float, default=0.25, help="dataset size per transfer (GB)")
    fleet.add_argument("--seed", type=int, default=0, help="root seed")
    fleet.add_argument(
        "--capacity-mbps", type=float, default=None,
        help="shared link capacity (default: the testbed bottleneck)",
    )
    fleet.add_argument("--quantum", type=float, default=10.0, help="scheduling round (s)")
    fleet.add_argument(
        "--max-parallel", type=int, default=8, help="global dispatch slots per round"
    )
    fleet.add_argument(
        "--horizon", type=float, default=None,
        help="virtual-time budget for the whole fleet (s; default: the fleet "
        "or soak preset's)",
    )
    fleet.add_argument("--no-stalls", action="store_true", help="disable stall faults")
    fleet.add_argument(
        "--no-corruption", action="store_true", help="disable DataCorruption faults"
    )
    fleet.add_argument("--no-crashes", action="store_true", help="disable simulated crashes")
    fleet.add_argument(
        "--soak", action="store_true",
        help="run the fleet chaos soak (per-case invariants + determinism check)",
    )
    fleet.add_argument("--cases", type=int, default=4, help="fleet-soak cases (--soak)")
    fleet.add_argument(
        "--quick", action="store_true",
        help="CI smoke preset for --soak: one 32-transfer case across 4 tenants",
    )
    fleet.add_argument("--workers", type=int, default=1, help="--soak case fan-out")
    fleet.add_argument(
        "--out", default=None, help="directory for per-job artifacts and the report JSON"
    )
    _add_store_flag(fleet)

    verify = sub.add_parser(
        "verify", help="offline-verify a run directory's integrity artifacts"
    )
    verify.add_argument(
        "run_dir", help="directory holding manifest.json (+ journal.jsonl, destination.json)"
    )

    add_obs_parser(sub)
    add_store_parsers(sub)
    return parser


def _add_store_flag(parser) -> None:
    parser.add_argument(
        "--store", default=None, metavar="DB",
        help="append results to this store (also: $AUTOMDT_STORE)",
    )


def _resolve_preset(name: str):
    from repro.emulator.presets import PRESETS

    if name not in PRESETS:
        print(f"unknown preset {name!r}; available: {sorted(PRESETS)}", file=sys.stderr)
        return None
    return PRESETS[name]()


def _cmd_list() -> int:
    from repro.emulator.presets import PRESETS

    print("experiments:")
    for name in EXPERIMENTS:
        print(f"  {name}")
    print("presets:")
    for name in PRESETS:
        print(f"  {name}")
    return 0


#: Exit code for a supervised transfer abandoned on its wall-clock retry
#: budget (distinct from 1 = stall/retry failure, 2 = usage error).
EXIT_BUDGET_EXHAUSTED = 3


def _failure_mode(summary: dict) -> str | None:
    """Classify an experiment summary's transfer outcome.

    Returns ``None`` (healthy), ``"budget_exhausted"`` (the supervisor
    abandoned the transfer because the next resume would land past its
    wall-clock ``max_elapsed`` budget — a capacity-planning signal, not a
    stall) or ``"failed"`` (stall timeout / retry exhaustion / failed
    verification).  A bare-engine ``unsupervised_completed=False`` is an
    expected demonstration (that is the point of the fault experiments);
    only the *supervised* transfer's outcome counts.  Flags are read by
    value: a fresh summary holds bools, a cell loaded from the results
    store holds ``0.0``/``1.0``.
    """
    completed = summary.get("supervised_completed")
    if completed is not None and not completed:
        if summary.get("supervised_budget_exhausted"):
            return "budget_exhausted"
        return "failed"
    verified = summary.get("verified")
    if verified is not None and not verified:
        return "failed"
    return None


def _report_failure(name: str, mode: str) -> None:
    if mode == "budget_exhausted":
        print(
            f"BUDGET EXHAUSTED {name}: the supervisor abandoned the transfer at its "
            "wall-clock retry budget (max_elapsed) — raise the budget or provision "
            "more capacity; this is not a stall timeout",
            file=sys.stderr,
        )
    else:
        print(f"FAILED {name}: the supervised transfer did not complete", file=sys.stderr)


def _experiment_kwargs(name: str, args) -> dict:
    """The experiment's ``--adapt`` keyword, where it supports one.

    ``adapt`` joins the cell identity only when on, so runs without
    --adapt keep their pre-adaptation fingerprints.
    """
    if not getattr(args, "adapt", False):
        return {}
    import inspect

    if "adapt" in inspect.signature(EXPERIMENTS[name]).parameters:
        return {"adapt": True}
    print(f"note: {name} does not support --adapt; running as-is", file=sys.stderr)
    return {}


def _merge_exit(current: int, mode: str) -> int:
    """Fold one failure mode into the run exit code (generic 1 wins over 3)."""
    if mode == "budget_exhausted":
        return current if current == 1 else EXIT_BUDGET_EXHAUSTED
    return 1


def _innermost_frame(tb: str | None) -> str:
    """The last frame of a formatted traceback: its ``File "…", line N,
    in f`` line and the source line under it (empty without a frame)."""
    lines = (tb or "").splitlines()
    frames = [i for i, line in enumerate(lines) if line.startswith('  File "')]
    if not frames:
        return ""
    frame = lines[frames[-1] : frames[-1] + 2]
    if len(frame) == 2 and not frame[1].startswith("    "):
        frame.pop()  # a frame whose source is not available
    return "\n".join(frame)


def _grid_exit(result, exit_code: int = 0) -> int:
    """Report a grid's failed cells and fold each into ``exit_code``.

    A cell that raised, crashed or timed out prints ``FAILED <exp> seed
    <k>`` and fails the command; one that raised also prints the frame
    that raised it.  Every other cell, fresh or loaded from the store, is
    classified by :func:`_failure_mode`.
    """
    for name, seed, outcome in result.failures:
        frame = _innermost_frame(outcome.traceback)
        print(
            f"FAILED {name} seed {seed}: {outcome.error} "
            f"({outcome.attempts} attempt(s))" + (f"\n{frame}" if frame else ""),
            file=sys.stderr,
        )
        exit_code = _merge_exit(exit_code, "failed")
    for name, agg in result.aggregates.items():
        for seed, run in zip(agg.seeds, agg.runs):
            mode = _failure_mode(run.summary)
            if mode:
                _report_failure(f"{name} seed {seed}", mode)
                exit_code = _merge_exit(exit_code, mode)
    return exit_code


def _cmd_run(args) -> int:
    from repro.harness.grid import parse_seeds, run_grid

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}; try 'automdt list'", file=sys.stderr)
        return 2
    seeds = None
    if args.seeds:
        try:
            seeds = parse_seeds(args.seeds)
        except ValueError as exc:
            print(f"bad --seeds: {exc}", file=sys.stderr)
            return 2

    exit_code = 0
    for name in names:
        started = time.perf_counter()
        kwargs = _experiment_kwargs(name, args)
        if seeds is not None:
            grid = run_grid(
                [name], seeds, fast=not args.full, workers=args.workers,
                out=args.out, resume=False, **kwargs,
            )
            if name in grid.aggregates:
                print(grid.aggregates[name].table())
            exit_code = _grid_exit(grid, exit_code)
            for path in grid.saved:
                print(f"saved {path}")
        else:
            from repro.obs.store import record_experiment

            wall_start = time.time()
            # In-process, not through the pool, so an exception keeps its
            # traceback.
            result = EXPERIMENTS[name](fast=not args.full, seed=args.seed, **kwargs)
            print(result.render())
            mode = _failure_mode(result.summary)
            if mode:
                _report_failure(name, mode)
                exit_code = _merge_exit(exit_code, mode)
            if args.out:
                print(f"saved {result.save(args.out)}")
            record_experiment(
                name, args.seed, result.summary,
                started=wall_start, fast=not args.full, **kwargs,
            )
        print(f"[{name} finished in {time.perf_counter() - started:.1f}s]\n")
    return exit_code


def _cmd_sweep(args) -> int:
    from repro.harness.grid import parse_seeds, run_grid

    names = (
        list(EXPERIMENTS)
        if args.experiments == "all"
        else [n.strip() for n in args.experiments.split(",") if n.strip()]
    )
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}; try 'automdt list'", file=sys.stderr)
        return 2
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as exc:
        print(f"bad --seeds: {exc}", file=sys.stderr)
        return 2

    result = run_grid(
        names,
        seeds,
        fast=not args.full,
        workers=args.workers,
        timeout=args.timeout,
        retries=args.retries,
        out=args.out,
        resume=not args.no_resume,
    )
    for name in names:
        agg = result.aggregates.get(name)
        if agg is not None:
            print(agg.table())
    print(result.table())
    if args.out:
        print(f"per-cell results saved under {args.out}")
    return _grid_exit(result)


def _cmd_explore(args) -> int:
    from repro.core.exploration import run_exploration
    from repro.emulator.testbed import Testbed
    from repro.utils.tables import render_kv

    config = _resolve_preset(args.preset)
    if config is None:
        return 2
    profile = run_exploration(
        Testbed(config, rng=args.seed), duration=args.duration, rng=args.seed
    )
    print(
        render_kv(
            {
                "bandwidth (r,n,w) Mbps": tuple(round(b, 1) for b in profile.bandwidth),
                "TPT (r,n,w) Mbps": tuple(round(t, 1) for t in profile.tpt),
                "bottleneck": round(profile.bottleneck, 1),
                "optimal threads": profile.optimal_threads(),
            },
            title=f"exploration profile for {args.preset}",
        )
    )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(profile.to_dict(), fh, indent=2)
        print(f"saved {args.out}")
    return 0


def _cmd_train(args) -> int:
    from repro.core.agent import AutoMDT
    from repro.core.training import TrainingConfig
    from repro.emulator.testbed import Testbed

    config = _resolve_preset(args.preset)
    if config is None:
        return 2
    pipeline = AutoMDT(
        seed=args.seed,
        training_config=TrainingConfig(
            max_episodes=args.episodes,
            stagnation_episodes=max(100, args.episodes // 5),
        ),
    )
    pipeline.explore(Testbed(config, rng=args.seed), duration=args.exploration)
    print(f"profile: optimal threads {pipeline.profile.optimal_threads()}; training...")
    result = pipeline.train_offline()
    print(
        f"episodes={result.episodes_run} best={result.best_reward:.2f}/"
        f"{result.max_episode_reward} converged={result.converged} "
        f"wall={result.wall_seconds:.0f}s"
    )
    pipeline.save(args.out)
    print(f"checkpoint saved to {args.out}.npz")
    return 0


def _cmd_transfer(args) -> int:
    from repro.core.agent import AutoMDT
    from repro.emulator.testbed import Testbed
    from repro.transfer.engine import EngineConfig, ModularTransferEngine
    from repro.utils.units import format_rate
    from repro.workloads import large_dataset, mixed_dataset

    config = _resolve_preset(args.preset)
    if config is None:
        return 2
    pipeline = AutoMDT(seed=args.seed)
    pipeline.load(args.checkpoint)
    total_bytes = args.gb * 1e9
    dataset = (
        mixed_dataset(total_bytes=total_bytes, rng=args.seed)
        if args.mixed
        else large_dataset(total_bytes=total_bytes)
    )
    engine = ModularTransferEngine(
        Testbed(config, rng=args.seed),
        dataset,
        pipeline.controller(deterministic=args.deterministic),
        EngineConfig(max_seconds=86400.0, probe_noise=0.02, seed=args.seed),
        utility_fn=pipeline.utility,
    )
    result = engine.run()
    print(
        f"completed={result.completed} time={result.completion_time:.1f}s "
        f"throughput={format_rate(result.effective_throughput)} "
        f"mean threads={result.metrics.concurrency_cost():.1f}"
    )
    return 0 if result.completed else 1


def _finish_soak(report: dict, render) -> int:
    """Print a soak report and where it was saved; exit 1 on any violation."""
    print(render(report), end="")
    if "report_path" in report:
        print(f"report saved to {report['report_path']}")
    return 0 if report["all_passed"] else 1


def _cmd_soak(args) -> int:
    import dataclasses

    if args.drift:
        from repro.harness.drift import (
            DriftSoakConfig,
            render_drift_soak_report,
            run_drift_soak,
        )

        if args.quick:
            config = DriftSoakConfig.quick(root_seed=args.seed)
        else:
            config = DriftSoakConfig(cases=args.cases, root_seed=args.seed)
        config = dataclasses.replace(
            config, latency_bound_s=args.latency_bound, workers=args.workers
        )
        return _finish_soak(run_drift_soak(config, out_dir=args.out), render_drift_soak_report)

    from repro.harness.soak import SoakConfig, render_soak_report, run_soak

    if args.quick:
        config = SoakConfig.quick(root_seed=args.seed)
    else:
        config = SoakConfig(cases=args.cases, root_seed=args.seed, gigabytes=args.gb)
    config = dataclasses.replace(
        config,
        corruption=not args.no_corruption,
        crashes=not args.no_crashes,
        workers=args.workers,
    )
    return _finish_soak(run_soak(config, out_dir=args.out), render_soak_report)


def _cmd_fleet(args) -> int:
    import dataclasses
    import tempfile
    from pathlib import Path

    from repro.fleet import (
        FleetConfig,
        FleetScheduler,
        JobFaultProfile,
        TenantSpec,
        TransferRequest,
        render_fleet_report,
    )
    from repro.harness.soak import (
        FleetSoakConfig,
        render_fleet_soak_report,
        run_fleet_soak,
    )
    from repro.utils.config import dump_json

    if args.soak:
        if args.capacity_mbps is not None:
            print("fleet --soak has no --capacity-mbps: each case uses the "
                  "testbed bottleneck", file=sys.stderr)
            return 2
        if args.quick:
            config = FleetSoakConfig.quick(root_seed=args.seed)
        else:
            config = FleetSoakConfig(
                cases=args.cases,
                root_seed=args.seed,
                tenants=args.tenants,
                transfers=args.transfers,
                gigabytes=args.gb,
                quantum=args.quantum,
                max_parallel=args.max_parallel,
            )
        config = dataclasses.replace(
            config,
            stalls=not args.no_stalls,
            corruption=not args.no_corruption,
            crashes=not args.no_crashes,
            workers=args.workers,
        )
        if args.horizon is not None:
            config = dataclasses.replace(config, horizon=args.horizon)
        return _finish_soak(run_fleet_soak(config, out_dir=args.out), render_fleet_soak_report)

    out_dir = Path(args.out) if args.out else Path(tempfile.mkdtemp(prefix="fleet-"))
    tenants = tuple(
        TenantSpec(f"tenant{i}", max_concurrency=max(2, args.max_parallel))
        for i in range(args.tenants)
    )
    requests = [
        TransferRequest(
            tenant=f"tenant{i % args.tenants}", gigabytes=args.gb, name=f"r{i:03d}"
        )
        for i in range(args.transfers)
    ]
    config = FleetConfig(
        tenants=tenants,
        seed=args.seed,
        quantum=args.quantum,
        capacity_mbps=args.capacity_mbps,
        max_parallel=args.max_parallel,
        stall_intervals=4,
        admission_limit=max(64, args.transfers),
        per_tenant_queue=max(32, args.transfers),
        faults=JobFaultProfile(
            stalls=not args.no_stalls,
            corruption=not args.no_corruption,
            crashes=not args.no_crashes,
        ),
    )
    if args.horizon is not None:
        config = dataclasses.replace(config, horizon=args.horizon)
    report = FleetScheduler(config, requests, out_dir / "jobs").run()
    print(render_fleet_report(report), end="")
    path = out_dir / "fleet_report.json"
    dump_json(report, path)
    print(f"report saved to {path}")

    from repro.obs.store import flatten_numeric, record_report

    record_report(
        "fleet",
        "fleet",
        seed=args.seed,
        config={
            "v": 1,
            "tenants": args.tenants,
            "transfers": args.transfers,
            "gigabytes": args.gb,
            "quantum": args.quantum,
            "max_parallel": args.max_parallel,
        },
        metrics=flatten_numeric(
            {k: v for k, v in report.items() if k not in ("jobs", "tenants")}
        ),
        labelled_metrics=[
            ("tenant.goodput_bytes_per_s", float(stats["goodput_bytes_per_s"]),
             {"tenant": tenant})
            for tenant, stats in report["tenants"].items()
        ],
        artifacts=[path],
    )
    # A fleet run fails loudly: any admitted transfer that did not end
    # verified-and-recovered, or any violated invariant, is exit code 1.
    return 0 if report["all_passed"] else 1


def _cmd_verify(args) -> int:
    from repro.transfer.integrity import verify_artifacts
    from repro.utils.errors import IntegrityError
    from repro.utils.tables import render_kv

    try:
        report = verify_artifacts(args.run_dir)
    except (FileNotFoundError, ValueError, IntegrityError) as exc:
        print(f"cannot verify {args.run_dir}: {exc}", file=sys.stderr)
        return 2
    print(render_kv(report, title=f"integrity verification — {args.run_dir}"))
    ok = bool(report["all_verified"] and report["replay_idempotent"])
    print("VERIFIED" if ok else "VERIFICATION FAILED")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if getattr(args, "store", None) and args.command not in ("store", "report", "regress"):
        from repro.obs.store import set_default_store

        set_default_store(args.store)
    obs_dir = getattr(args, "obs", None)
    target = (
        getattr(args, "experiment", None)
        or getattr(args, "experiments", None)
        or getattr(args, "preset", None)
        or ""
    )
    telemetry = (
        obs.session(obs_dir, label=f"{args.command}:{target}") if obs_dir else nullcontext()
    )
    with telemetry:
        if args.command == "list":
            return _cmd_list()
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "explore":
            return _cmd_explore(args)
        if args.command == "train":
            return _cmd_train(args)
        if args.command == "transfer":
            return _cmd_transfer(args)
        if args.command == "soak":
            return _cmd_soak(args)
        if args.command == "fleet":
            return _cmd_fleet(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "obs":
            return run_obs(args)
        if args.command == "store":
            return run_store_command(args)
        if args.command == "report":
            return run_report_command(args)
        if args.command == "regress":
            return run_regress_command(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
