"""BatchedSimulator unit behaviour: API, reset masks, telemetry discipline."""

import numpy as np
import pytest

from repro import obs
from repro.simulator import BatchedSimulator, SimulatorConfig, StageMetrics
from repro.utils.errors import SimulationError


def _config(**kw):
    kw.setdefault("tpt_read", 80.0)
    kw.setdefault("tpt_network", 160.0)
    kw.setdefault("tpt_write", 200.0)
    kw.setdefault("max_threads", 10)
    return SimulatorConfig(**kw)


class TestConstruction:
    def test_single_config_replicated(self):
        sim = BatchedSimulator(_config(), 5)
        assert sim.batch == 5
        assert len(sim.configs) == 5

    def test_empty_config_list_rejected(self):
        with pytest.raises(SimulationError):
            BatchedSimulator([])

    def test_batch_mismatch_rejected(self):
        with pytest.raises(SimulationError):
            BatchedSimulator([_config(), _config()], 3)

    def test_bad_threads_shape_rejected(self):
        sim = BatchedSimulator(_config(), 2)
        with pytest.raises(SimulationError):
            sim.step_second(np.ones((3, 3)))

    def test_out_of_range_usage_rejected(self):
        config = _config()
        with pytest.raises(SimulationError):
            BatchedSimulator(config, 2, sender_usage=[0.0, -1.0])
        sim = BatchedSimulator(config, 2)
        with pytest.raises(SimulationError):
            sim.reset(receiver_usage=config.receiver_buffer_capacity * 2.0)


class TestStepping:
    def test_metrics_shapes_and_elapsed(self):
        sim = BatchedSimulator(_config(), 4)
        metrics = sim.step_second(np.full((4, 3), 5))
        assert len(metrics) == 4
        assert all(type(m) is StageMetrics for m in metrics)
        assert np.shape([m.throughputs for m in metrics]) == (4, 3)
        assert [m.threads for m in metrics] == [(5, 5, 5)] * 4
        assert np.all(sim.elapsed == 1.0)
        assert sim.last_blocked_retries.shape == (4,)
        assert np.all(sim.last_queue_peak == 15)

    def test_identical_columns_march_identically(self):
        sim = BatchedSimulator(_config(), 3)
        metrics = sim.step_second(np.full((3, 3), 4))
        for field in ("throughput_read", "throughput_network", "throughput_write",
                      "sender_usage", "receiver_usage"):
            column = [getattr(m, field) for m in metrics]
            assert column[0] == column[1] == column[2]

    def test_masked_reset_touches_only_selected_columns(self):
        sim = BatchedSimulator(_config(), 3)
        sim.step_second(np.full((3, 3), 6))
        before_snd = sim.sender_usage.copy()
        before_rcv = sim.receiver_usage.copy()
        mask = np.array([True, False, False])
        sim.reset(sender_usage=1234.0, receiver_usage=567.0, mask=mask)
        assert sim.sender_usage[0] == 1234.0 and sim.receiver_usage[0] == 567.0
        assert sim.elapsed[0] == 0.0
        assert np.all(sim.sender_usage[1:] == before_snd[1:])
        assert np.all(sim.receiver_usage[1:] == before_rcv[1:])
        assert np.all(sim.elapsed[1:] == 1.0)


class TestTelemetry:
    def test_hot_loop_makes_no_session_lookups(self, monkeypatch):
        """Obs-off stepping must never consult the obs session registry."""
        import repro.simulator.batch as batch_module

        calls = []

        def spy_active():
            calls.append(1)
            return None

        monkeypatch.setattr(batch_module.obs, "active", spy_active)
        heterogeneous = [_config(), _config(tpt_read=40.0, max_threads=6),
                         _config(bandwidth_network=300.0)]
        sims = [
            BatchedSimulator(_config(), 4),
            BatchedSimulator(_config(), 5),
            BatchedSimulator(heterogeneous),
        ]
        for sim in sims:
            for k in (3, 5, 9):
                sim.step_second(np.full((sim.batch, 3), k))
        assert calls == []  # zero lookups across construction + stepping
        for sim in sims:
            assert sim.export_telemetry() is False
        assert calls == [1, 1, 1]  # the explicit end-of-run export calls

    def test_batched_env_calls_no_scalar_entry_point(self, monkeypatch):
        """The batch steps its columns through ``IONetworkSimulator.advance``
        and starts episodes through ``SimulatorEnv.start_episode``: the
        scalar simulator's and environment's instrumented entry points stay
        unused, so per-layer call counts keep the two paths apart."""
        from repro.core.batched_env import BatchedEnv
        from repro.core.env import SimulatorEnv
        from repro.simulator.core import IONetworkSimulator

        calls = []
        for owner, name in ((IONetworkSimulator, "step_second"),
                            (SimulatorEnv, "step"), (SimulatorEnv, "reset")):
            monkeypatch.setattr(
                owner, name,
                lambda *args, _name=f"{owner.__name__}.{name}", **kw: calls.append(_name),
            )
        env = BatchedEnv([_config(), _config(tpt_read=40.0, max_threads=6)], rngs=[1, 2])
        rng = np.random.default_rng(0)
        for mask in (None, np.array([True, False])):
            env.reset_all(mask=mask)
            for _ in range(3):
                env.step_all(rng.uniform(0.0, 1.0, (2, 3)))
        assert calls == []

    def test_export_telemetry_flushes_counters(self, tmp_path):
        with obs.session(tmp_path) as sess:
            sim = BatchedSimulator(_config(), 8)
            sim.step_second(np.full((8, 3), 5))
            sim.step_second(np.full((8, 3), 7))
            registry = sess.registry
            assert sim.export_telemetry() is True
            events = registry.counter("sim/batch_events").value
            assert events > 0.0
            sim.step_second([[5, 1 + i, 5] for i in range(8)])
            assert sim.export_telemetry() is True
            assert registry.counter("sim/batch_steps").value == 3.0
            assert registry.counter("sim/batch_size").value == 24.0
            assert registry.counter("sim/batch_events").value > events
        # Export drained the accumulators: a second export is a no-op.
        with obs.session(tmp_path / "second") as sess:
            assert sim.export_telemetry() is False

    def test_export_without_session_is_noop(self):
        sim = BatchedSimulator(_config(), 2)
        sim.step_second(np.full((2, 3), 3))
        assert sim.export_telemetry() is False
