"""``automdt store | report | regress`` — the results-store subcommands.

Wired into the main ``automdt`` parser by :mod:`repro.harness.cli`::

    automdt store ingest BENCH_*.json        # backfill bench artifacts
    automdt store info                       # table counts + recent runs
    automdt report [--format json] [--out report.md] [--scenario NAME]
    automdt regress [BENCH...] [--threshold 0.2] [--no-ingest]

Every subcommand takes ``--store DB`` (default: ``$AUTOMDT_STORE`` or
``automdt.db``).
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from repro.utils.errors import StoreError

__all__ = ["add_store_parsers", "run_regress_command", "run_report_command", "run_store_command"]

_DEFAULT_DB = "automdt.db"


def _store_default() -> str:
    return os.environ.get("AUTOMDT_STORE", _DEFAULT_DB)


def _add_store_arg(parser) -> None:
    parser.add_argument(
        "--store", default=None, metavar="DB",
        help=f"results database path (default: $AUTOMDT_STORE or {_DEFAULT_DB})",
    )


def add_store_parsers(sub) -> None:
    """Register ``store``/``report``/``regress`` on the argparse subparsers."""
    store = sub.add_parser("store", help="experiment results store maintenance")
    store_sub = store.add_subparsers(dest="store_command", required=True)

    ingest = store_sub.add_parser(
        "ingest", help="backfill BENCH_*.json artifacts into the store"
    )
    ingest.add_argument("paths", nargs="+", help="bench report JSON files")
    _add_store_arg(ingest)

    info = store_sub.add_parser("info", help="table counts and recent runs")
    info.add_argument("-n", type=int, default=10, help="recent runs to list")
    _add_store_arg(info)

    report = sub.add_parser(
        "report", help="query-driven comparison report from the results store"
    )
    report.add_argument(
        "--format", choices=("markdown", "json"), default="markdown",
        help="output format (default: markdown)",
    )
    report.add_argument("--out", default=None, help="write the report here")
    report.add_argument(
        "--scenario", action="append", default=None,
        help="restrict to a scenario (repeatable)",
    )
    report.add_argument(
        "--kind", default="experiment",
        help="run kind to report on (default: experiment)",
    )
    _add_store_arg(report)

    regress = sub.add_parser(
        "regress", help="compare BENCH_*.json against the stored baseline"
    )
    regress.add_argument(
        "paths", nargs="*",
        help="bench reports (default: BENCH_*.json in the current directory)",
    )
    regress.add_argument(
        "--threshold", type=float, default=0.2,
        help="relative regression threshold on gated keys (default: 0.2)",
    )
    regress.add_argument(
        "--suite", action="append", default=None,
        help="restrict to a suite (repeatable); without it, every stored "
        "suite needs a current report or a declared removal",
    )
    regress.add_argument(
        "--no-ingest", action="store_true",
        help="compare only; do not append the current reports to the trajectory",
    )
    regress.add_argument(
        "--gate-absolute", action="store_true",
        help="also gate informational (hardware-dependent) keys",
    )
    regress.add_argument("--json", action="store_true", help="machine-readable output")
    _add_store_arg(regress)


def _open_store(args):
    from repro.obs.store.db import ResultsStore

    return ResultsStore(args.store or _store_default())


def run_store_command(args) -> int:
    """``automdt store ...`` dispatch; returns the process exit code."""
    store = _open_store(args)
    if args.store_command == "ingest":
        codes = []
        for path in args.paths:
            try:
                suite, report, _flat = _load(path)
                run_id = store.ingest_bench(suite, report, path=path)
            except (FileNotFoundError, json.JSONDecodeError, StoreError) as exc:
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                codes.append(2)
                continue
            print(f"ingested {path} → {suite} run {run_id}")
            codes.append(0)
        return max(codes, default=0)
    if args.store_command == "info":
        counts = store.counts()
        print(f"store {store.path} (schema v{_user_version(store)})")
        for table, count in counts.items():
            print(f"  {table:<10} {count} row(s)")
        recent = store.runs()[: args.n]
        if recent:
            print("recent runs:")
            for row in recent:
                seed = "" if row["seed"] is None else f" seed {row['seed']}"
                print(
                    f"  {row['run_id']}  {row['kind']}/{row['scenario']}"
                    f"{seed}  rev {row['git_rev']}"
                )
        return 0
    raise AssertionError(
        f"unhandled store command {args.store_command!r}"
    )  # pragma: no cover


def _user_version(store) -> int:
    return store.connection.execute("PRAGMA user_version").fetchone()[0]


def _load(path):
    from repro.obs.store.regress import load_bench_file

    return load_bench_file(path)


def run_report_command(args) -> int:
    """``automdt report``; returns the process exit code."""
    from repro.obs.store.report import build_report, render_markdown

    store = _open_store(args)
    if not store.path.exists():
        print(f"no results store at {store.path}", file=sys.stderr)
        return 2
    report = build_report(store, kind=args.kind, scenarios=args.scenario)
    text = (
        json.dumps(report, indent=2, sort_keys=True)
        if args.format == "json"
        else render_markdown(report)
    )
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def run_regress_command(args) -> int:
    """``automdt regress``; non-zero exit on any gated regression."""
    from repro.obs.store.regress import render_regress, run_regress

    paths = args.paths or sorted(str(p) for p in Path.cwd().glob("BENCH_*.json"))
    if not paths:
        print("no BENCH_*.json reports found to compare", file=sys.stderr)
        return 2
    store = _open_store(args)
    try:
        result = run_regress(
            store,
            paths,
            threshold=args.threshold,
            ingest=not args.no_ingest,
            suites=args.suite,
            gate_informational=args.gate_absolute,
        )
    except (FileNotFoundError, json.JSONDecodeError, StoreError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        print(render_regress(result), end="")
    return 0 if result["ok"] else 1
