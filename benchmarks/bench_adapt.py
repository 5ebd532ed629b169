"""Online-adaptation benchmark: detection latency, overhead, rollback, determinism.

Four sections, one machine-readable report (``BENCH_adapt.json`` at the
repo root, like the other ``BENCH_*.json`` artifacts):

* ``detection`` — the seeded drift-soak scenarios (network ramp, read
  step, hard-stall rollback): per-case detection latency after drift
  onset.  Gate: every case detects within the soak's latency bound and
  all soak invariants hold.
* ``overhead`` — per-``propose()`` cost of the adaptive stack versus the
  bare guarded controller on the same observation stream.  The
  ``overhead_ratio`` is reported for ``automdt regress`` (lower is
  better); absolute costs are hardware statements, not gates.
* ``rollback`` — the forced-rollback scenario: the stall watchdog must
  demote to guarded control and the transfer must still complete
  verified with zero unrecovered chunks.
* ``determinism`` — one drift case run twice: case fingerprints must be
  bit-identical.

Run standalone (what the drift leg of the CI ``soak-smoke`` job complements)::

    PYTHONPATH=src python benchmarks/bench_adapt.py --quick

Exits 1 if detection misses its bound, rollback fails to restore
service, or two same-seed runs diverge.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

OVERHEAD_PROPOSALS = 2000


# ------------------------------------------------------------------ sections
def bench_detection(work_dir: Path, *, cases: int) -> dict:
    """Drift-soak scenarios: detection latency within the soak bound."""
    from repro.harness.drift import DriftSoakConfig, run_drift_soak

    config = DriftSoakConfig(cases=cases, determinism_check=False)
    start = time.perf_counter()
    report = run_drift_soak(config, out_dir=work_dir / "soak")
    wall = time.perf_counter() - start
    latencies = [c["detection_latency_s"] for c in report["cases"]]
    return {
        "cases": cases,
        "scenarios": [c["scenario"] for c in report["cases"]],
        "latencies_s": latencies,
        "max_latency_s": report["max_detection_latency_s"],
        "latency_bound_s": config.latency_bound_s,
        "promotions": report["total_promotions"],
        "rollbacks": report["total_rollbacks"],
        "wall_seconds": round(wall, 3),
        "within_bound": bool(
            all(lat is not None and lat <= config.latency_bound_s for lat in latencies)
        ),
        "all_passed": report["all_passed"],
    }


def _observation_stream(count: int):
    """A seeded, drifting observation stream shared by both overhead legs."""
    import numpy as np

    from repro.transfer.engine import Observation

    rng = np.random.default_rng(7)
    stream = []
    bytes_total = 0.0
    for i in range(count):
        scale = 1.0 if i < count // 2 else 0.5  # mid-stream drift keeps the
        goodput = float(1000.0 * scale + rng.normal(0.0, 20.0))  # detectors busy
        bytes_total += max(goodput, 0.0) * 1e6 / 8
        stream.append(
            Observation(
                threads=(13, 7, 5),
                throughputs=(goodput, goodput, goodput),
                sender_free=4e9,
                receiver_free=4e9,
                sender_capacity=8e9,
                receiver_capacity=8e9,
                elapsed=float(i),
                bytes_written_total=bytes_total,
            )
        )
    return stream


def bench_overhead(*, proposals: int) -> dict:
    """Adaptive vs bare-guarded ``propose()`` cost on one observation stream."""
    from repro.adapt import AdaptConfig, AdaptiveController
    from repro.baselines import StaticController
    from repro.transfer.guarded import GuardedController

    stream = _observation_stream(proposals)

    def timed(controller) -> float:
        controller.reset()
        start = time.perf_counter()
        for obs in stream:
            controller.propose(obs)
        return time.perf_counter() - start

    guarded_s = timed(GuardedController(StaticController((13, 7, 5))))
    adaptive_s = timed(
        AdaptiveController(StaticController((13, 7, 5)), AdaptConfig())
    )
    return {
        "proposals": proposals,
        "guarded_us_per_propose": round(guarded_s / proposals * 1e6, 2),
        "adaptive_us_per_propose": round(adaptive_s / proposals * 1e6, 2),
        "overhead_ratio": round(adaptive_s / max(guarded_s, 1e-12), 2),
    }


def bench_rollback(work_dir: Path) -> dict:
    """The forced-rollback scenario: demote to guarded, still complete."""
    from repro.harness.drift import DriftSoakConfig, _run_case

    # Case index 2 is the rollback scenario (ramp + hard read/write stall
    # inside the correction window) under the default root seed.
    start = time.perf_counter()
    record = _run_case(2, DriftSoakConfig(determinism_check=False), str(work_dir))
    return {
        "scenario": record["scenario"],
        "rollbacks": record["rollbacks"],
        "final_state": record["final_state"],
        "supervisor_retries": record["supervisor_retries"],
        "completion_time_s": record["completion_time_s"],
        "wall_seconds": round(time.perf_counter() - start, 3),
        "rolled_back": record["rollbacks"] >= 1,
        "service_restored": bool(
            record["invariants"]["no_data_loss"] and record["invariants"]["restored"]
        ),
    }


def bench_determinism(work_dir: Path) -> dict:
    """Two same-seed runs of one drift case must fingerprint identically."""
    from repro.harness.drift import DriftSoakConfig, _run_once

    config = DriftSoakConfig()
    fingerprints = []
    wall = 0.0
    for leg in ("one", "two"):
        start = time.perf_counter()
        record = _run_once(0, config, work_dir / leg)
        wall += time.perf_counter() - start
        fingerprints.append(record["fingerprint"])
    return {
        "fingerprints": fingerprints,
        "wall_seconds": round(wall, 3),
        "identical": fingerprints[0] == fingerprints[1],
    }


# ------------------------------------------------------------------- report
def run_bench(*, quick: bool = False, out: str | Path | None = None,
              work_dir: str | Path | None = None) -> dict:
    import tempfile

    cases = 3 if quick else 6
    proposals = 500 if quick else OVERHEAD_PROPOSALS
    base = Path(work_dir) if work_dir is not None else Path(tempfile.mkdtemp())
    report = {
        "bench": "adapt",
        "schema": 1,
        "quick": quick,
        "detection": bench_detection(base / "detection", cases=cases),
        "overhead": bench_overhead(proposals=proposals),
        "rollback": bench_rollback(base / "rollback"),
        "determinism": bench_determinism(base / "determinism"),
    }
    report["ok"] = bool(
        report["detection"]["within_bound"]
        and report["detection"]["all_passed"]
        and report["rollback"]["rolled_back"]
        and report["rollback"]["service_restored"]
        and report["determinism"]["identical"]
    )
    out = Path(out) if out is not None else REPO_ROOT / "BENCH_adapt.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    report["out"] = str(out)

    from repro.obs.store import record_bench_report

    record_bench_report(report, path=out)
    return report


def test_adapt_bench_quick(tmp_path):
    """Pytest entry: quick-mode correctness gates must hold."""
    report = run_bench(
        quick=True, out=tmp_path / "BENCH_adapt.json", work_dir=tmp_path / "work"
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
        print("FAIL: detection, rollback, or determinism gates broke", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
