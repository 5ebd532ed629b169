"""FleetScheduler integration: fairness, chaos recovery, determinism, typed failure."""

import pytest

from repro import obs
from repro.fleet import (
    FleetConfig,
    FleetScheduler,
    JobFaultProfile,
    Priority,
    SliceOutcome,
    TenantSpec,
    TransferRequest,
)

QUIET = JobFaultProfile(stalls=False, corruption=False, crashes=False)
CHAOS = JobFaultProfile(stall_probability=0.8, corruption_probability=0.6, max_crashes=1)


def run_fleet(tmp_path, *, tenants, requests, **kwargs):
    kwargs.setdefault("quantum", 10.0)
    kwargs.setdefault("stall_intervals", 4)
    kwargs.setdefault("horizon", 2400.0)
    config = FleetConfig(tenants=tenants, **kwargs)
    return FleetScheduler(config, requests, tmp_path / "jobs").run()


def equal_requests(n, tenants, gb=0.25, priority=Priority.BATCH):
    return [
        TransferRequest(tenant=tenants[i % len(tenants)], gigabytes=gb,
                        priority=priority, name=f"r{i}")
        for i in range(n)
    ]


class TestQuietFleet:
    def test_all_complete_and_invariants_hold(self, tmp_path):
        report = run_fleet(
            tmp_path,
            tenants=(TenantSpec("a"), TenantSpec("b")),
            requests=equal_requests(6, ["a", "b"]),
            seed=1,
            faults=QUIET,
        )
        assert report["all_passed"]
        assert report["unrecovered_jobs"] == []
        assert all(j["state"] == "completed" for j in report["jobs"])
        assert all(j["incidents"] == [] for j in report["jobs"])

    def test_equal_weights_equal_goodput(self, tmp_path):
        report = run_fleet(
            tmp_path,
            tenants=(TenantSpec("a"), TenantSpec("b"), TenantSpec("c")),
            requests=equal_requests(9, ["a", "b", "c"]),
            seed=2,
            faults=QUIET,
        )
        rates = [stats["goodput_bytes_per_s"] for stats in report["tenants"].values()]
        assert min(rates) > 0
        assert max(rates) / min(rates) < 1.5

    def test_allocation_never_exceeds_capacity(self, tmp_path):
        report = run_fleet(
            tmp_path,
            tenants=(TenantSpec("a"), TenantSpec("b")),
            requests=equal_requests(8, ["a", "b"]),
            seed=3,
            faults=QUIET,
            max_parallel=8,
        )
        assert report["invariants"]["capacity_respected"]
        assert report["max_round_allocation"] <= report["config"]["capacity_bytes_per_s"] * (
            1 + 1e-9
        )


class TestChaosFleet:
    def test_recovers_everything_under_faults(self, tmp_path):
        report = run_fleet(
            tmp_path,
            tenants=(TenantSpec("a"), TenantSpec("b")),
            requests=equal_requests(8, ["a", "b"]),
            seed=5,
            faults=CHAOS,
        )
        assert report["all_passed"], report["invariants"]
        assert sum(len(j["incidents"]) for j in report["jobs"]) > 0
        assert all(
            j["breaker"]["transitions"] == [] or j["breaker"]["times_opened"] >= 0
            for j in report["jobs"]
        )

    def test_same_seed_identical_fingerprint(self, tmp_path):
        def once(sub):
            return run_fleet(
                tmp_path / sub,
                tenants=(TenantSpec("a"), TenantSpec("b")),
                requests=equal_requests(6, ["a", "b"]),
                seed=9,
                faults=CHAOS,
            )

        first, second = once("one"), once("two")
        assert first["fingerprint"] == second["fingerprint"]
        assert first["jobs"] == second["jobs"]

    def test_chaos_fingerprint_is_pinned(self, tmp_path):
        """Stalls, corruption and crashes with torn journal tails, adapt on.

        Run-twice determinism cannot tell an inexact emulator kernel or
        journal replay from an exact one; this sha256 was taken with the
        emulator's per-substep loop and the journal's from-scratch replay.
        """
        requests = [
            TransferRequest(
                tenant=("a", "b")[i % 2],
                gigabytes=(1.0, 1.6, 0.6)[i % 3],
                priority=Priority.BATCH,
                name=f"r{i}",
                submit_at=3.0 * i,
            )
            for i in range(8)
        ]
        report = run_fleet(
            tmp_path,
            tenants=(TenantSpec("a", weight=2.0), TenantSpec("b")),
            requests=requests,
            seed=7,
            faults=JobFaultProfile(
                stall_probability=0.8, corruption_probability=0.6, max_crashes=2
            ),
            adapt=True,
        )
        assert report["all_passed"], report["invariants"]
        kinds = {
            kind
            for job in report["jobs"]
            for incident in job["incidents"]
            for kind in incident["kind"].split(",")
        }
        assert {"crash", "link_flap", "storage_stall"} <= kinds
        assert (
            report["fingerprint"]
            == "d6cc0d6dee2da4c4151c605ca991497cc43bf5adbba83ef6ae4d7370b6dea3e4"
        )

    def test_different_seed_different_fingerprint(self, tmp_path):
        reports = [
            run_fleet(
                tmp_path / str(seed),
                tenants=(TenantSpec("a"),),
                requests=equal_requests(4, ["a"]),
                seed=seed,
                faults=CHAOS,
            )
            for seed in (1, 2)
        ]
        assert reports[0]["fingerprint"] != reports[1]["fingerprint"]


class TestTokenBucketThrottling:
    def test_rate_limited_tenant_gets_less(self, tmp_path):
        report = run_fleet(
            tmp_path,
            tenants=(
                TenantSpec("slow", rate_mbps=150.0, burst_bytes=2e8),
                TenantSpec("fast"),
            ),
            requests=equal_requests(8, ["slow", "fast"]),
            seed=4,
            faults=QUIET,
        )
        slow = report["tenants"]["slow"]["goodput_bytes_per_s"]
        fast = report["tenants"]["fast"]["goodput_bytes_per_s"]
        assert slow < fast
        # The throttle holds on average (generous slack for burst credit).
        assert slow * 8 / 1e6 < 150.0 * 1.5


class TestPriorityAndPreemption:
    def test_interactive_preempts_best_effort(self, tmp_path):
        # 3 GB at the ~125 MB/s link ≈ 24 s, so the best-effort job is still
        # mid-flight when the interactive one arrives at the t=10 round.
        requests = [
            TransferRequest(tenant="a", gigabytes=3.0,
                            priority=Priority.BEST_EFFORT, name="be"),
            TransferRequest(tenant="a", gigabytes=3.0,
                            priority=Priority.INTERACTIVE, submit_at=10.0, name="it"),
        ]
        report = run_fleet(
            tmp_path,
            tenants=(TenantSpec("a", max_concurrency=1),),
            requests=requests,
            seed=6,
            faults=QUIET,
            max_parallel=1,
        )
        best_effort, interactive = report["jobs"][0], report["jobs"][1]
        assert best_effort["priority"] == int(Priority.BEST_EFFORT)
        assert best_effort["preempted"] > 0
        assert report["tenants"]["a"]["preemptions"] > 0
        # The interactive job finished first despite arriving later.
        assert interactive["completed_at"] < best_effort["completed_at"]
        assert report["all_passed"]


class TestAdmission:
    def test_overflow_is_rejected_typed(self, tmp_path):
        report = run_fleet(
            tmp_path,
            tenants=(TenantSpec("a"),),
            requests=equal_requests(6, ["a"], gb=0.1),
            seed=7,
            faults=QUIET,
            admission_limit=4,
        )
        assert report["admission"]["admitted"] == 4
        assert report["admission"]["rejected"] == 2
        reasons = [d["reason"] for d in report["admission"]["decisions"] if not d["admitted"]]
        assert reasons == ["queue_full", "queue_full"]

    def test_unknown_tenant_rejected(self, tmp_path):
        requests = [
            TransferRequest(tenant="a", gigabytes=0.1),
            TransferRequest(tenant="ghost", gigabytes=0.1),
        ]
        report = run_fleet(
            tmp_path, tenants=(TenantSpec("a"),), requests=requests, seed=8, faults=QUIET
        )
        rejected = [d for d in report["admission"]["decisions"] if not d["admitted"]]
        assert len(rejected) == 1
        assert rejected[0]["reason"] == "unknown_tenant"


class TestTypedFailure:
    def test_retry_budget_exhaustion_is_typed(self, tmp_path):
        config = FleetConfig(
            tenants=(TenantSpec("a"),), seed=0, retry_budget=1.0, faults=QUIET
        )
        scheduler = FleetScheduler(
            config, [TransferRequest(tenant="a", gigabytes=0.1)], tmp_path / "jobs"
        )
        scheduler._admit(0.0)
        entry = scheduler.entries[0]
        # Synthetic incident: backoff (>= 3 s undithered base 4.0) always
        # lands past the 1 s budget, so the job fails with the typed reason.
        scheduler._handle_outcome(
            entry, SliceOutcome("incident", 10.0, incident_kind="stall"), 10.0
        )
        assert entry.state == "failed"
        assert entry.failure == "retry_budget_exhausted"
        report = scheduler._report()
        assert report["unrecovered_jobs"] == [0]
        assert not report["all_passed"]

    def test_fleet_horizon_fails_unfinished_jobs(self, tmp_path):
        report = run_fleet(
            tmp_path,
            tenants=(TenantSpec("a"),),
            requests=equal_requests(4, ["a"], gb=1.0),
            seed=1,
            faults=QUIET,
            horizon=20.0,
        )
        failed = [j for j in report["jobs"] if j["state"] == "failed"]
        assert failed
        assert all(j["failure"] in ("fleet_horizon", "timed_out") for j in failed)
        assert not report["all_passed"]
        assert report["unrecovered_jobs"]


class TestObsIntegration:
    def test_fleet_metrics_merge_into_the_session(self, tmp_path):
        with obs.session(tmp_path / "obs", label="fleet-test"):
            run_fleet(
                tmp_path,
                tenants=(TenantSpec("a"), TenantSpec("b")),
                requests=equal_requests(4, ["a", "b"], gb=0.1),
                seed=2,
                faults=QUIET,
            )
            registry = obs.active().registry
            assert "fleet/bytes_verified" in registry
            assert "fleet/slices" in registry
            family = registry.counter("fleet/bytes_verified", label_names=("tenant",))
            per_tenant = {
                child.labels["tenant"]: child.value for child in family.children()
            }
            assert per_tenant["a"] == pytest.approx(0.2e9, rel=0.01)
            assert per_tenant["b"] == pytest.approx(0.2e9, rel=0.01)
