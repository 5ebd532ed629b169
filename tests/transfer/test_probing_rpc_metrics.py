"""Probing, RPC channel and metrics helpers."""

import math

import numpy as np
import pytest

from repro.transfer import (
    BufferReportChannel,
    FaultEvent,
    RecoveryRecord,
    ThroughputProbe,
    TransferMetrics,
)
from repro.transfer.metrics import FIELDS

NAN = float("nan")


class TestThroughputProbe:
    def test_noiseless_passthrough(self):
        probe = ThroughputProbe()
        assert probe.observe((100.0, 200.0, 300.0)) == (100.0, 200.0, 300.0)

    def test_noise_changes_values_but_stays_close(self):
        probe = ThroughputProbe(noise_sigma=0.05, rng=0)
        measured = probe.observe((100.0, 100.0, 100.0))
        assert measured != (100.0, 100.0, 100.0)
        for v in measured:
            assert 50.0 <= v <= 150.0

    def test_noise_factors_bounded(self):
        probe = ThroughputProbe(noise_sigma=1.0, rng=0)  # huge sigma, clipped
        for _ in range(100):
            for v in probe.observe((100.0, 100.0, 100.0)):
                assert 50.0 <= v <= 150.0

    def test_smoothing_converges_to_constant_input(self):
        probe = ThroughputProbe(smoothing=0.5)
        out = None
        for _ in range(30):
            out = probe.observe((80.0, 80.0, 80.0))
        assert out[0] == pytest.approx(80.0, rel=1e-3)

    def test_smoothing_lags_step_change(self):
        probe = ThroughputProbe(smoothing=0.9)
        probe.observe((0.0, 0.0, 0.0))
        out = probe.observe((100.0, 100.0, 100.0))
        assert out[0] < 50.0

    def test_reset_clears_ewma(self):
        probe = ThroughputProbe(smoothing=0.9)
        probe.observe((100.0, 100.0, 100.0))
        probe.reset()
        assert probe.observe((0.0, 0.0, 0.0))[0] == 0.0

    def test_deterministic_by_seed(self):
        a = ThroughputProbe(noise_sigma=0.1, rng=5)
        b = ThroughputProbe(noise_sigma=0.1, rng=5)
        assert a.observe((10, 10, 10)) == b.observe((10, 10, 10))

    def test_nan_inputs_pass_through_without_raising(self):
        probe = ThroughputProbe(noise_sigma=0.05, rng=0)
        measured = probe.observe((NAN, 100.0, NAN))
        assert math.isnan(measured[0])
        assert math.isfinite(measured[1])
        assert math.isnan(measured[2])

    def test_nan_poisons_ewma_until_reset(self):
        # A dropout sample contaminates the smoothed estimate — by design the
        # probe reports honestly and controllers must sanitize (GuardedController
        # does); reset() is the engine's way to clear the contamination.
        probe = ThroughputProbe(smoothing=0.5)
        probe.observe((NAN, NAN, NAN))
        assert math.isnan(probe.observe((100.0, 100.0, 100.0))[0])
        probe.reset()
        assert probe.observe((100.0, 100.0, 100.0)) == (100.0, 100.0, 100.0)


class TestBufferReportChannel:
    def test_zero_delay_passthrough(self):
        chan = BufferReportChannel(delay=0)
        assert chan.exchange(42.0) == 42.0

    def test_one_interval_delay(self):
        chan = BufferReportChannel(delay=1, initial_value=0.0)
        assert chan.exchange(10.0) == 0.0
        assert chan.exchange(20.0) == 10.0

    def test_two_interval_delay(self):
        chan = BufferReportChannel(delay=2, initial_value=-1.0)
        assert chan.exchange(1.0) == -1.0
        assert chan.exchange(2.0) == -1.0
        assert chan.exchange(3.0) == 1.0

    def test_reset(self):
        chan = BufferReportChannel(delay=1)
        chan.exchange(5.0)
        chan.reset(initial_value=9.0)
        assert chan.exchange(1.0) == 9.0

    def test_reset_after_partial_drain(self):
        chan = BufferReportChannel(delay=3, initial_value=0.0)
        chan.exchange(1.0)
        chan.exchange(2.0)  # queue partially drained: two initials gone
        chan.reset(initial_value=7.0)
        assert chan.last_delivered == 7.0
        # The full delay applies again after the reset.
        assert chan.exchange(10.0) == 7.0
        assert chan.exchange(11.0) == 7.0
        assert chan.exchange(12.0) == 7.0
        assert chan.exchange(13.0) == 10.0

    def test_lost_report_repeats_stale_value(self):
        chan = BufferReportChannel(delay=1, initial_value=0.0)
        assert chan.exchange(10.0) == 0.0
        # The fresh report (20) is dropped in flight: nothing enters the
        # queue and the sender re-reads what it already had.
        assert chan.exchange(20.0, lost=True) == 0.0
        assert chan.exchange(30.0) == 10.0  # 20 never arrives

    def test_lost_with_zero_delay(self):
        chan = BufferReportChannel(delay=0, initial_value=5.0)
        assert chan.exchange(1.0) == 1.0
        assert chan.exchange(2.0, lost=True) == 1.0
        assert chan.exchange(3.0) == 3.0

    def test_last_delivered_tracks(self):
        chan = BufferReportChannel(delay=1, initial_value=0.0)
        assert chan.last_delivered == 0.0
        chan.exchange(4.0)
        assert chan.last_delivered == 0.0
        chan.exchange(5.0)
        assert chan.last_delivered == 4.0


class TestTransferMetrics:
    def make_metrics(self):
        m = TransferMetrics()
        for t in range(10):
            m.record(
                float(t + 1),
                throughputs=(100.0, 200.0, 150.0 + t),
                threads=(3, 4 + (t >= 5), 5),
                sender_usage=10.0,
                receiver_usage=20.0,
                utility=50.0,
                bytes_written_total=float(t) * 1e6,
            )
        return m

    def test_duration(self):
        assert self.make_metrics().duration == 10.0

    def test_average_throughput_warmup(self):
        m = self.make_metrics()
        assert m.average_throughput() == pytest.approx(np.mean([150 + t for t in range(10)]))
        assert m.average_throughput(warmup=6.0) > m.average_throughput()

    def test_effective_throughput(self):
        m = TransferMetrics()
        assert m.effective_throughput(1e9, 10.0) == pytest.approx(800.0)  # Mbps
        assert m.effective_throughput(1e9, 0.0) == 0.0

    def test_time_to_network_concurrency(self):
        m = self.make_metrics()
        assert m.time_to_network_concurrency(5, sustain=3) == 6.0

    def test_stability_lower_for_flat_series(self):
        m = self.make_metrics()
        assert m.stability("threads_write") == 0.0
        assert m.stability("threads_network") > 0.0

    def test_empty_metrics(self):
        m = TransferMetrics()
        assert m.duration == 0.0
        assert m.concurrency_cost() == 0.0

    def test_one_time_column_and_aligned_value_columns(self):
        m = self.make_metrics()
        assert len(m) == 10
        assert m.times == [float(t + 1) for t in range(10)]
        assert set(m.columns) == set(FIELDS)
        assert all(len(column) == 10 for column in m.columns.values())
        view = m.threads_network
        assert view.name == "threads_network"
        assert list(view.times) == m.times
        assert list(view.values) == [4.0] * 5 + [5.0] * 5
        assert m.concurrency_cost() == pytest.approx(12.5)

    def test_views_are_copies(self):
        m = self.make_metrics()
        m.throughput_write.append(11.0, 0.0)
        assert len(m.throughput_write) == len(m) == 10

    def test_record_rejects_time_regression(self):
        m = self.make_metrics()
        with pytest.raises(ValueError):
            m.record(9.5, throughputs=(1, 1, 1), threads=(1, 1, 1),
                     sender_usage=0, receiver_usage=0, bytes_written_total=0)
        assert len(m) == 10

    def test_utility_view_skips_rows_recorded_without_one(self):
        m = TransferMetrics()
        for t, utility in ((1.0, None), (2.0, 0.5), (3.0, None)):
            m.record(t, throughputs=(1, 1, 1), threads=(1, 1, 1), sender_usage=0,
                     receiver_usage=0, bytes_written_total=t, utility=utility)
        assert list(m.utility.times) == [2.0]
        assert list(m.utility.values) == [0.5]
        assert len(m.bytes_written) == 3


class TestIncidentRecords:
    def test_fault_event_time_to_detect(self):
        event = FaultEvent(kind="link_flap", t_onset=10.0, t_detected=15.0)
        assert event.time_to_detect == pytest.approx(5.0)

    def test_recovery_time_to_recover(self):
        record = RecoveryRecord(
            kind="link_flap",
            t_onset=10.0,
            t_detected=15.0,
            t_recovered=21.0,
            retries=1,
            goodput_lost_bytes=5e8,
        )
        assert record.time_to_recover == pytest.approx(11.0)

    def test_fault_event_to_dict(self):
        event = FaultEvent("link_flap", 10.0, 15.5)
        assert event.to_dict() == {"kind": "link_flap", "t_onset": 10.0, "t_detected": 15.5}

    def test_recovery_record_to_dict(self):
        record = RecoveryRecord("stall", 10.0, 15.5, 21.25, 2, 5e8)
        assert record.to_dict() == {
            "kind": "stall", "t_onset": 10.0, "t_detected": 15.5,
            "t_recovered": 21.25, "retries": 2, "goodput_lost_bytes": 5e8,
        }

    def test_merge_from_stitches_series_and_incidents(self):
        first, second = TransferMetrics(), TransferMetrics()
        for t in (1.0, 2.0):
            first.record(
                t, throughputs=(1, 1, 1), threads=(1, 1, 1),
                sender_usage=0, receiver_usage=0, bytes_written_total=t,
            )
        for t in (3.0, 4.0):
            second.record(
                t, throughputs=(2, 2, 2), threads=(2, 2, 2),
                sender_usage=0, receiver_usage=0, bytes_written_total=t,
            )
        second.record_fault(FaultEvent("stall", 2.5, 3.0))
        first.merge_from(second)
        assert list(first.bytes_written.times) == [1.0, 2.0, 3.0, 4.0]
        assert list(first.threads_read.values) == [1.0, 1.0, 2.0, 2.0]
        assert len(first.fault_events) == 1

    def test_merge_from_rejects_an_attempt_that_starts_earlier(self):
        first, second = TransferMetrics(), TransferMetrics()
        for table, t in ((first, 5.0), (second, 4.0)):
            table.record(t, throughputs=(1, 1, 1), threads=(1, 1, 1),
                         sender_usage=0, receiver_usage=0, bytes_written_total=t)
        with pytest.raises(ValueError):
            first.merge_from(second)
        assert first.times == [5.0]

