"""Fleet control-plane benchmark: throughput, fairness, and determinism.

Three sections, one machine-readable report (``BENCH_fleet.json`` at the
repo root, like the other ``BENCH_*.json`` artifacts):

* ``throughput`` — a quiet (fault-free) fleet of concurrent transfers
  across equal-weight tenants: aggregate verified goodput, scheduling
  rounds, and wall-clock cost per virtual round.  Gate: every admitted
  transfer completes and the capacity invariant holds.
* ``fairness`` — the same fleet under the chaos fault profile: per-tenant
  goodput spread (max/min ratio) for equal weights.  Gate: the ratio stays
  under the soak harness's fairness bound and nothing is left unrecovered.
* ``determinism`` — two same-seed chaos runs: report fingerprints must be
  bit-identical.  Speed numbers are reported, not gated — they are
  hardware statements, not correctness ones.

Run standalone (what the fleet leg of the CI ``soak-smoke`` job complements)::

    PYTHONPATH=src python benchmarks/bench_fleet.py --quick

Exits 1 if any transfer is unrecovered, fairness breaks the bound, or two
same-seed runs diverge.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def _fleet_config(*, tenants: int, seed: int, faults, transfers: int):
    from repro.fleet import FleetConfig, TenantSpec

    return FleetConfig(
        tenants=tuple(
            TenantSpec(f"t{i}", max_concurrency=4) for i in range(tenants)
        ),
        seed=seed,
        quantum=10.0,
        stall_intervals=4,
        admission_limit=max(64, transfers),
        per_tenant_queue=max(32, transfers),
        faults=faults,
    )


def _requests(transfers: int, tenants: int, gigabytes: float):
    from repro.fleet import TransferRequest

    return [
        TransferRequest(tenant=f"t{i % tenants}", gigabytes=gigabytes, name=f"r{i}")
        for i in range(transfers)
    ]


def _run(out_dir: Path, *, transfers: int, tenants: int, gigabytes: float,
         seed: int, faults) -> tuple[dict, float]:
    from repro.fleet import FleetScheduler

    config = _fleet_config(
        tenants=tenants, seed=seed, faults=faults, transfers=transfers
    )
    start = time.perf_counter()
    report = FleetScheduler(
        config, _requests(transfers, tenants, gigabytes), out_dir
    ).run()
    return report, time.perf_counter() - start


# ------------------------------------------------------------------ sections
def bench_throughput(out_dir: Path, *, transfers: int, tenants: int,
                     gigabytes: float) -> dict:
    """Quiet fleet: aggregate goodput and scheduler overhead per round."""
    from repro.fleet import JobFaultProfile

    quiet = JobFaultProfile(stalls=False, corruption=False, crashes=False)
    report, wall = _run(
        out_dir / "quiet", transfers=transfers, tenants=tenants,
        gigabytes=gigabytes, seed=0, faults=quiet,
    )
    completed = sum(1 for j in report["jobs"] if j["state"] == "completed")
    total_bytes = sum(j["bytes_verified"] for j in report["jobs"])
    return {
        "transfers": transfers,
        "tenants": tenants,
        "completed": completed,
        "rounds": report["rounds"],
        "virtual_seconds": report["duration_s"],
        "aggregate_goodput_mbps": round(
            total_bytes * 8 / 1e6 / max(report["duration_s"], 1e-9), 1
        ),
        "wall_seconds": round(wall, 3),
        "wall_ms_per_round": round(wall * 1e3 / max(report["rounds"], 1), 2),
        "all_completed": completed == transfers,
        "capacity_respected": report["invariants"]["capacity_respected"],
    }


def bench_fairness(out_dir: Path, *, transfers: int, tenants: int,
                   gigabytes: float) -> dict:
    """Chaos fleet: equal-weight tenants must end with comparable goodput."""
    from repro.fleet import JobFaultProfile
    from repro.harness.soak import FleetSoakConfig, _fair_goodput_ratio

    chaos = JobFaultProfile(stall_probability=0.6, corruption_probability=0.5)
    report, wall = _run(
        out_dir / "chaos", transfers=transfers, tenants=tenants,
        gigabytes=gigabytes, seed=1, faults=chaos,
    )
    ratio = _fair_goodput_ratio(report)
    incidents = sum(len(j["incidents"]) for j in report["jobs"])
    return {
        "transfers": transfers,
        "tenants": tenants,
        "incidents": incidents,
        "breakers_opened": sum(
            j["breaker"]["times_opened"] for j in report["jobs"]
        ),
        "unrecovered_jobs": report["unrecovered_jobs"],
        "goodput_ratio": round(ratio, 3),
        "wall_seconds": round(wall, 3),
        "within_bound": ratio <= FleetSoakConfig().fairness_bound,
        "all_recovered": not report["unrecovered_jobs"],
    }


def bench_determinism(out_dir: Path, *, transfers: int, tenants: int,
                      gigabytes: float) -> dict:
    """Two same-seed chaos runs must fingerprint identically."""
    from repro.fleet import JobFaultProfile

    chaos = JobFaultProfile(stall_probability=0.6, corruption_probability=0.5)
    fingerprints = []
    wall = 0.0
    for leg in ("one", "two"):
        report, seconds = _run(
            out_dir / leg, transfers=transfers, tenants=tenants,
            gigabytes=gigabytes, seed=2, faults=chaos,
        )
        fingerprints.append(report["fingerprint"])
        wall += seconds
    return {
        "fingerprints": fingerprints,
        "wall_seconds": round(wall, 3),
        "identical": fingerprints[0] == fingerprints[1],
    }


# ------------------------------------------------------------------- report
def run_bench(*, quick: bool = False, out: str | Path | None = None,
              work_dir: str | Path | None = None) -> dict:
    import tempfile

    transfers = 8 if quick else 32
    tenants = 2 if quick else 4
    gigabytes = 0.1 if quick else 0.25
    base = Path(work_dir) if work_dir is not None else Path(tempfile.mkdtemp())
    report = {
        "bench": "fleet",
        "schema": 1,
        "quick": quick,
        "throughput": bench_throughput(
            base, transfers=transfers, tenants=tenants, gigabytes=gigabytes
        ),
        "fairness": bench_fairness(
            base, transfers=transfers, tenants=tenants, gigabytes=gigabytes
        ),
        "determinism": bench_determinism(
            base, transfers=transfers, tenants=tenants, gigabytes=gigabytes
        ),
    }
    report["ok"] = bool(
        report["throughput"]["all_completed"]
        and report["throughput"]["capacity_respected"]
        and report["fairness"]["within_bound"]
        and report["fairness"]["all_recovered"]
        and report["determinism"]["identical"]
    )
    out = Path(out) if out is not None else REPO_ROOT / "BENCH_fleet.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    report["out"] = str(out)

    from repro.obs.store import record_bench_report

    record_bench_report(report, path=out)
    return report


def test_fleet_bench_quick(tmp_path):
    """Pytest entry: quick-mode correctness gates must hold."""
    report = run_bench(
        quick=True, out=tmp_path / "BENCH_fleet.json", work_dir=tmp_path / "work"
    )
    assert report["ok"], report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="smaller budgets (CI smoke)")
    parser.add_argument("--out", default=None, help="report path (default: repo root)")
    parser.add_argument("--store", default=None,
                        help="append the report to this results store (also $AUTOMDT_STORE)")
    args = parser.parse_args(argv)
    if args.store:
        from repro.obs.store import set_default_store

        set_default_store(args.store)
    report = run_bench(quick=args.quick, out=args.out)
    print(json.dumps(report, indent=2))
    if not report["ok"]:
        print("FAIL: fleet invariants, fairness, or determinism broke", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
