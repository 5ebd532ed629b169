"""Supervisor: stall detection, backoff, checkpoint-resume, incident records."""

import math

import pytest

from repro.baselines import StaticController
from repro.emulator import (
    FaultSchedule,
    LinkFlap,
    NetworkConfig,
    StorageConfig,
    Testbed,
    TestbedConfig,
)
from repro.emulator.presets import fig5_read_bottleneck
from repro.obs import EVENTS_FILENAME, PROMETHEUS_FILENAME, read_events, session
from repro.transfer import (
    EngineConfig,
    ModularTransferEngine,
    Observation,
    SupervisorConfig,
    TransferCheckpoint,
    TransferSupervisor,
)
from repro.transfer.files import uniform_dataset
from repro.transfer.supervisor import _StallDetector
from repro.utils.errors import ConfigError
from repro.utils.units import GiB


def make_engine(faults=None, *, max_seconds=240.0, gigabytes=5):
    testbed = Testbed(
        TestbedConfig(
            source=StorageConfig(tpt=80, bandwidth=1000),
            destination=StorageConfig(tpt=200, bandwidth=1000),
            network=NetworkConfig(tpt=160, capacity=1000, ramp_time=0.0),
            sender_buffer_capacity=1.0 * GiB,
            receiver_buffer_capacity=1.0 * GiB,
            max_threads=30,
        ),
        rng=0,
        faults=faults,
    )
    return ModularTransferEngine(
        testbed,
        uniform_dataset(gigabytes, 1e9),
        StaticController((13, 7, 5)),
        EngineConfig(max_seconds=max_seconds, seed=0),
    )


class TestSupervisorConfig:
    def test_defaults_valid(self):
        SupervisorConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"stall_intervals": 0},
            {"min_progress_bytes": 0.0},
            {"max_retries": -1},
            {"backoff_base": 0.0},
            {"backoff_factor": 0.0},
            {"backoff_max": 0.0},
            {"jitter": 1.5},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            SupervisorConfig(**kwargs)


def obs(elapsed, written):
    return Observation(
        threads=(1, 1, 1),
        throughputs=(0.0, 0.0, 0.0),
        sender_free=1.0,
        receiver_free=1.0,
        sender_capacity=1.0,
        receiver_capacity=1.0,
        elapsed=elapsed,
        bytes_written_total=written,
    )


class TestStallDetector:
    def test_progress_keeps_running(self):
        det = _StallDetector(stall_intervals=3, min_progress_bytes=1.0)
        for t in range(10):
            assert det(obs(float(t), t * 100.0))
        assert det.detected_at is None

    def test_detects_after_n_stagnant_intervals(self):
        det = _StallDetector(stall_intervals=3, min_progress_bytes=1.0)
        assert det(obs(0.0, 0.0))
        assert det(obs(1.0, 500.0))
        assert det(obs(2.0, 500.0))  # stagnant 1
        assert det(obs(3.0, 500.0))  # stagnant 2
        assert not det(obs(4.0, 500.0))  # stagnant 3 → abort
        assert det.detected_at == 4.0
        assert det.progress_stopped_at == 1.0
        assert det.last_good_rate == pytest.approx(500.0)

    def test_progress_resets_the_counter(self):
        det = _StallDetector(stall_intervals=3, min_progress_bytes=1.0)
        det(obs(0.0, 0.0))
        det(obs(1.0, 0.0))
        det(obs(2.0, 0.0))
        assert det(obs(3.0, 100.0))  # progress: counter back to zero
        assert det(obs(4.0, 100.0))
        assert det(obs(5.0, 100.0))
        assert not det(obs(6.0, 100.0))


class TestCheckpoint:
    def test_dict_roundtrip(self):
        cp = TransferCheckpoint(
            bytes_completed=1.5e9, elapsed=42.0, threads=(3, 4, 5), attempt=2
        )
        assert TransferCheckpoint.from_dict(cp.to_dict()) == cp

    def test_file_roundtrip(self, tmp_path):
        cp = TransferCheckpoint(bytes_completed=2e9, elapsed=10.0)
        path = tmp_path / "transfer.ckpt.json"
        cp.save(path)
        assert TransferCheckpoint.load(path) == cp


class TestHealthyTransfer:
    def test_single_attempt_no_incidents(self):
        result = TransferSupervisor(make_engine(), SupervisorConfig(seed=0)).run()
        assert result.completed
        assert not result.timed_out
        assert result.retries_used == 0
        assert len(result.attempts) == 1
        assert result.attempts[0].outcome == "completed"
        assert result.metrics.fault_events == []
        assert result.metrics.recoveries == []
        assert result.last_checkpoint is None
        assert result.effective_throughput > 0

    def test_budget_exhaustion_is_timed_out_not_stalled(self):
        result = TransferSupervisor(
            make_engine(max_seconds=3.0), SupervisorConfig(seed=0)
        ).run()
        assert not result.completed
        assert result.timed_out
        assert result.retries_used == 0
        assert result.attempts[0].outcome == "timed_out"
        assert result.last_checkpoint is not None


class TestRecoveryFromLinkFlap:
    def run_supervised(self, seed=0):
        engine = make_engine(FaultSchedule([LinkFlap(start=10.0, duration=8.0)]))
        return TransferSupervisor(engine, SupervisorConfig(seed=seed)).run()

    def test_completes_with_retry(self):
        result = self.run_supervised()
        assert result.completed
        assert result.retries_used >= 1
        assert result.attempts[0].outcome == "stalled"
        assert result.attempts[-1].outcome == "completed"

    def test_resume_does_not_rewind_progress(self):
        result = self.run_supervised()
        for earlier, later in zip(result.attempts, result.attempts[1:]):
            assert later.start_bytes == pytest.approx(earlier.end_bytes)
            assert later.start_time > earlier.end_time  # backoff advanced the clock

    def test_incident_is_detected_and_recovered(self):
        result = self.run_supervised()
        assert len(result.metrics.fault_events) == 1
        event = result.metrics.fault_events[0]
        assert event.kind == "link_flap"
        assert event.time_to_detect > 0
        assert len(result.metrics.recoveries) == 1
        recovery = result.metrics.recoveries[0]
        assert recovery.time_to_recover >= event.time_to_detect
        assert recovery.goodput_lost_bytes > 0
        assert recovery.retries >= 1

    def test_metrics_are_stitched_across_attempts(self):
        result = self.run_supervised()
        times = list(result.metrics.bytes_written.times)
        assert times == sorted(times)
        assert math.isclose(
            result.metrics.bytes_written.last, result.total_bytes, rel_tol=1e-6
        )

    def test_deterministic_given_seed(self):
        a, b = self.run_supervised(seed=3), self.run_supervised(seed=3)
        assert a.completion_time == b.completion_time
        assert a.attempts == b.attempts


class TestPermanentOutage:
    def run_supervised(self, max_retries=3):
        # requires_restart=False keeps this a pure availability outage: the
        # path is down for the whole budget no matter how often we restart.
        engine = make_engine(
            FaultSchedule([LinkFlap(start=5.0, duration=1e4, requires_restart=False)])
        )
        return TransferSupervisor(
            engine, SupervisorConfig(seed=0, max_retries=max_retries)
        ).run()

    def test_retries_are_bounded(self):
        result = self.run_supervised(max_retries=3)
        assert not result.completed
        assert result.retries_used == 3
        assert len(result.attempts) == 4  # initial + 3 retries
        assert all(a.outcome == "stalled" for a in result.attempts)
        assert result.last_checkpoint is not None

    def test_backoff_delays_grow(self):
        result = self.run_supervised(max_retries=3)
        gaps = [
            later.start_time - earlier.end_time
            for earlier, later in zip(result.attempts, result.attempts[1:])
        ]
        # delays follow min(60, 2 * 2**(k-1)) with ±25 % jitter: strictly
        # increasing because each band's floor exceeds the previous ceiling.
        assert all(b > a for a, b in zip(gaps, gaps[1:]))
        assert 1.5 <= gaps[0] <= 2.5
        assert 3.0 <= gaps[1] <= 5.0


class TestResumePastHorizon:
    """A stall whose backoff would resume at or after ``max_seconds``."""

    def run_supervised(self, tmp_path=None):
        testbed = Testbed(
            fig5_read_bottleneck(), rng=0,
            faults=FaultSchedule([LinkFlap(start=5, duration=100, severity=1)]),
        )
        engine = ModularTransferEngine(
            testbed, uniform_dataset(4, 1e9), StaticController((13, 7, 5)),
            EngineConfig(max_seconds=14, seed=0),
        )
        supervisor = TransferSupervisor(engine, SupervisorConfig(seed=0, backoff_base=4))
        if tmp_path is None:
            return supervisor.run()
        with session(tmp_path):
            return supervisor.run()

    def test_retry_that_never_runs_is_not_counted(self):
        result = self.run_supervised()
        assert [a.outcome for a in result.attempts] == ["stalled"]
        assert result.attempts[0].end_time + 4 * 0.75 >= 14
        assert result.retries_used == 0
        assert result.last_checkpoint.attempt == 0
        assert len(result.metrics.fault_events) == 1

    def test_reported_as_timed_out(self):
        result = self.run_supervised()
        assert result.timed_out
        assert not result.completed and not result.budget_exhausted

    def test_no_backoff_logged(self, tmp_path):
        self.run_supervised(tmp_path)
        names = [r.get("name") for r in read_events(tmp_path / EVENTS_FILENAME)]
        assert "incident/detected" in names
        assert "supervisor/backoff" not in names
        assert "supervisor_retries" not in (tmp_path / PROMETHEUS_FILENAME).read_text()


class TestExplicitResume:
    def test_resume_skips_completed_bytes(self):
        engine = make_engine()
        checkpoint = TransferCheckpoint(bytes_completed=3e9, elapsed=0.0)
        result = TransferSupervisor(engine, SupervisorConfig(seed=0)).run(
            resume_from=checkpoint
        )
        assert result.completed
        assert result.total_bytes == 5e9
        # Only the remaining 2 GB were read from the source.
        assert engine.testbed.total_read == pytest.approx(2e9, rel=1e-6)

    def test_resume_is_faster_than_full_run(self):
        full = TransferSupervisor(make_engine(), SupervisorConfig(seed=0)).run()
        resumed = TransferSupervisor(make_engine(), SupervisorConfig(seed=0)).run(
            resume_from=TransferCheckpoint(bytes_completed=4e9, elapsed=0.0)
        )
        assert resumed.completion_time < full.completion_time
