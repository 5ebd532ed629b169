"""The testbed's substep kernel equals the per-substep oracle, bit for bit.

:func:`tests.emulator.testbed_oracle.advance` is the loop
:meth:`repro.emulator.Testbed.advance` replaced.  Each case drives a kernel
testbed and an oracle testbed, built alike, through the same operations,
and compares every returned :class:`~repro.emulator.testbed.StageFlows`
and the state left behind by bit pattern, so NaN and signed zeros count.
"""

import dataclasses
import math
import struct

import numpy as np
import pytest

from repro.emulator import NetworkConfig, StorageConfig, Testbed, TestbedConfig
from repro.emulator.faults import (
    BandwidthRamp,
    DataCorruption,
    FaultSchedule,
    LinkFlap,
    ReceiverRestart,
    StepChange,
    StorageStall,
)
from repro.utils.errors import SimulationError
from repro.utils.units import GiB
from tests.emulator import testbed_oracle as oracle


def _bits(value):
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    return value


def _state(tb: Testbed) -> tuple:
    """Everything an ``advance`` can change, by bit pattern."""
    background = tb.network.background
    faults = tb.faults
    return _bits((
        tb.sender_buffer.usage,
        tb.receiver_buffer.usage,
        tb.network.effective_streams,
        tb.now,
        tb.total_read,
        tb.total_networked,
        tb.total_written,
        background._level,
        background._until,
        [noise.value for noise in tb._noise],
    )) + (None if faults is None else sorted(faults._fired),)


def _config(**overrides) -> TestbedConfig:
    defaults = dict(
        source=StorageConfig(tpt=80, bandwidth=1000),
        destination=StorageConfig(tpt=120, bandwidth=900),
        network=NetworkConfig(tpt=160, capacity=1000, ramp_time=2.0),
        sender_buffer_capacity=0.25 * GiB,
        receiver_buffer_capacity=0.2 * GiB,
    )
    defaults.update(overrides)
    return TestbedConfig(**defaults)


def _drive(config, schedule, ops, *, seed=0) -> None:
    """Run ``ops`` on a kernel and an oracle testbed; equal after each op.

    ``schedule`` builds a fresh fault schedule per testbed (schedules are
    stateful: they remember fired restarts).  An op is ``("advance",
    threads, duration, read_available[, file_efficiency])``,
    ``("reset", start_time)``,
    ``("tpt", stage, tpt)`` or ``("cap", bytes_per_sec)``.
    """
    kernel = Testbed(config, rng=seed, faults=schedule())
    reference = Testbed(config, rng=seed, faults=schedule())
    for step, (kind, *args) in enumerate(ops):
        if kind == "advance":
            threads, duration, available, *efficiency = args
            kw = {"read_available": available}
            if efficiency:
                kw["file_efficiency"] = efficiency[0]
            got = kernel.advance(threads, duration, **kw)
            want = oracle.advance(reference, threads, duration, **kw)
            assert _bits(dataclasses.astuple(got)) == _bits(dataclasses.astuple(want)), step
        elif kind == "reset":
            kernel.reset(args[0])
            reference.reset(args[0])
        elif kind == "tpt":
            kernel.set_stage_tpt(*args)
            reference.set_stage_tpt(*args)
        elif kind == "cap":
            kernel.set_rate_cap(args[0])
            reference.set_rate_cap(args[0])
        assert _state(kernel) == _state(reference), step


def _ops(seed: int, count: int = 24, *, available: float = float("inf")) -> list:
    """Seeded advances: threads, durations (mostly the 1 s probe interval)."""
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(count):
        threads = tuple(int(x) for x in rng.integers(1, 31, 3))
        duration = float(rng.choice([1.0, 1.0, 1.0, 0.37, 2.5, 0.02]))
        ops.append(("advance", threads, duration, available))
    return ops


def _clock(steps: int, dt: float = 0.05) -> list[float]:
    """The substep clock as the testbed accumulates it, from 0."""
    t, ticks = 0.0, [0.0]
    for _ in range(steps):
        t += dt
        ticks.append(t)
    return ticks


_TICKS = _clock(400)

#: Named fault schedules, each a factory (a testbed owns its schedule).
SCHEDULES = {
    "none": lambda: None,
    "flap_until_restart": lambda: FaultSchedule(LinkFlap(2.3, 3.1)),
    "flap_self_healing": lambda: FaultSchedule(
        LinkFlap(2.3, 3.1, severity=0.6, requires_restart=False)
    ),
    "stall_read": lambda: FaultSchedule(StorageStall(1.7, 2.2, stage="read", factor=0.1)),
    "stall_write": lambda: FaultSchedule(StorageStall(3.05, 1.5, stage="write", factor=0.0)),
    "one_restart": lambda: FaultSchedule(ReceiverRestart(at=2.5)),
    "two_restarts_one_interval": lambda: FaultSchedule(
        [ReceiverRestart(at=2.2), ReceiverRestart(at=2.7)]
    ),
    "ramp_per_stream": lambda: FaultSchedule(
        BandwidthRamp(1.5, 4.0, to_scale=0.4, stage="network")
    ),
    "ramp_aggregate": lambda: FaultSchedule([
        BandwidthRamp(1.5, 4.0, to_scale=0.4, stage="read", per_stream=False),
        BandwidthRamp(2.5, 3.0, to_scale=1.6, stage="network", per_stream=False, hold=False),
    ]),
    "step_per_stream": lambda: FaultSchedule(
        StepChange(2.5, 1.0, to_scale=0.5, stage="write")
    ),
    "step_aggregate": lambda: FaultSchedule([
        StepChange(2.5, 1.0, to_scale=0.5, stage="network", per_stream=False),
        StepChange(4.0, 1.0, to_scale=0.7, stage="write", per_stream=False),
    ]),
    # _TICKS[20 * k] is where the k-th 1 s interval starts on the clock.
    "edges_on_interval_boundaries": lambda: FaultSchedule([
        LinkFlap(_TICKS[40], _TICKS[80] - _TICKS[40], severity=0.5, requires_restart=False),
        StorageStall(_TICKS[60], _TICKS[80] - _TICKS[60], stage="write", factor=0.2),
        ReceiverRestart(at=_TICKS[80]),
        ReceiverRestart(at=_TICKS[100]),
        StepChange(_TICKS[120], 1.0, to_scale=0.8, stage="read", per_stream=False),
    ]),
    # Whole seconds sit within ulps of the interval starts, on either side:
    # the accumulated clock reaches 10.000000000000007 where the interval
    # that began at 8.999999999999993 nominally ends at 9.999999999999993,
    # so that interval's last substep fires the restart at 10.0.
    "edges_on_nominal_seconds": lambda: FaultSchedule([
        LinkFlap(2.0, 2.0, severity=0.5, requires_restart=False),
        StorageStall(3.0, 1.0, stage="write", factor=0.2),
        ReceiverRestart(at=4.0),
        ReceiverRestart(at=10.0),
        ReceiverRestart(at=math.nextafter(_TICKS[40], -math.inf)),
        StepChange(6.0, 1.0, to_scale=0.8, stage="read", per_stream=False),
    ]),
    "edges_on_substep_boundaries": lambda: FaultSchedule([
        LinkFlap(_TICKS[47], _TICKS[53] - _TICKS[47], severity=0.7, requires_restart=False),
        StorageStall(_TICKS[61], _TICKS[80] - _TICKS[61], stage="read", factor=0.3),
        ReceiverRestart(at=_TICKS[66]),
        ReceiverRestart(at=_TICKS[100]),
        ReceiverRestart(at=math.nextafter(_TICKS[120], math.inf)),
        StepChange(_TICKS[140], 1.0, to_scale=0.6, stage="network", per_stream=False),
    ]),
    "data_plane_only": lambda: FaultSchedule(DataCorruption(1.0, 5.0, rate=0.2)),
}


class TestKernelEqualsOracle:
    @pytest.mark.parametrize("name", sorted(SCHEDULES))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_schedules(self, name, seed):
        _drive(_config(), SCHEDULES[name], _ops(seed), seed=seed)

    @pytest.mark.parametrize("name", sorted(SCHEDULES))
    def test_on_the_probe_interval_clock(self, name):
        """1 s advances only, so the clock runs through ``_TICKS`` exactly."""
        ops = [("advance", (12, 9 + k % 5, 7), 1.0, float("inf")) for k in range(24)]
        _drive(_config(), SCHEDULES[name], ops, seed=1)

    @pytest.mark.parametrize("name", sorted(SCHEDULES))
    def test_restart_after_the_window(self, name):
        """A supervised restart mid-run (repairs dead flaps, re-arms restarts)."""
        ops = _ops(7, 10) + [("reset", 9.0)] + _ops(8, 8) + [("reset", 3.0)] + _ops(9, 6)
        _drive(_config(), SCHEDULES[name], ops, seed=3)

    @pytest.mark.parametrize("name", ["none", "flap_until_restart", "ramp_per_stream"])
    def test_noise_background_and_rate_cap(self, name):
        config = _config(noise_sigma=0.08, background_peak=400.0, background_holding=1.5)
        ops = _ops(11, 8) + [("cap", 40e6)] + _ops(12, 8) + [("cap", None)] + _ops(13, 6)
        _drive(config, SCHEDULES[name], ops, seed=5)

    @pytest.mark.parametrize("name", ["none", "stall_write", "edges_on_substep_boundaries"])
    def test_instant_ramp_and_set_stage_tpt(self, name):
        config = _config(network=NetworkConfig(tpt=160, capacity=1000, ramp_time=0.0))
        ops = (
            _ops(21, 6)
            + [("tpt", "network", 40.0)]
            + _ops(22, 4)
            + [("tpt", "read", 30.0), ("tpt", "write", 500.0)]
            + _ops(23, 6)
        )
        _drive(config, SCHEDULES[name], ops, seed=2)

    @pytest.mark.parametrize("name", ["none", "one_restart", "stall_read"])
    def test_read_available_runs_out_mid_interval(self, name):
        ops = [
            ("advance", (20, 8, 6), 1.0, available)
            for available in (5e6, 3.3e6, 1e6, 0.0, 0.0, 2e5, 0.0)
        ]
        _drive(_config(), SCHEDULES[name], ops + _ops(31, 4, available=0.0), seed=4)

    @pytest.mark.parametrize("stage", range(3))
    def test_nan_rates_flow_as_before(self, stage):
        """NaN takes the exact min/max expansions' branches, as it took the
        builtins' (a swapped ``max(0.0, x)`` would turn it into 0.0)."""
        efficiency = tuple(float("nan") if i == stage else 0.9 for i in range(3))
        ops = [("advance", (10, 8, 6), 1.0, 5e8, efficiency) for _ in range(3)]
        _drive(_config(), SCHEDULES["stall_read"], ops + _ops(41, 3))

    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_sweep(self, seed):
        """Random configs under random schedules of every testbed-facing kind."""
        rng = np.random.default_rng(1000 + seed)
        config = _config(
            source=StorageConfig(tpt=float(rng.uniform(20, 300)), bandwidth=float(rng.uniform(300, 3000))),
            destination=StorageConfig(tpt=float(rng.uniform(20, 300)), bandwidth=float(rng.uniform(300, 3000))),
            network=NetworkConfig(
                tpt=float(rng.uniform(20, 300)),
                capacity=float(rng.uniform(300, 3000)),
                ramp_time=float(rng.choice([0.0, 0.5, 2.0, 5.0])),
            ),
            sender_buffer_capacity=float(rng.uniform(0.02, 1.0)) * GiB,
            receiver_buffer_capacity=float(rng.uniform(0.02, 1.0)) * GiB,
            noise_sigma=float(rng.choice([0.0, 0.05])),
            background_peak=float(rng.choice([0.0, 300.0])),
            background_holding=2.0,
        )
        kinds = ("link_flap", "storage_stall", "receiver_restart", "bandwidth_ramp", "step_change")
        chosen = tuple(k for k in kinds if rng.random() < 0.6)

        def schedule():
            if not chosen:
                return None
            return FaultSchedule.random(
                seed, horizon=25.0, kinds=chosen, events_per_kind=2, mean_duration=3.0
            )

        ops = _ops(seed, 16, available=float(rng.uniform(5e7, 5e8)))
        ops += [("reset", 12.0)] + _ops(seed + 1, 12)
        _drive(config, schedule, ops, seed=seed)


class TestNegativeFlow:
    def test_raises_and_leaves_the_oracles_state(self):
        """A negative flow raises at the same point, with the same state."""
        kernel = Testbed(_config(), rng=0, faults=SCHEDULES["one_restart"]())
        reference = Testbed(_config(), rng=0, faults=SCHEDULES["one_restart"]())
        for _ in range(3):
            kernel.advance((10, 8, 6))
            oracle.advance(reference, (10, 8, 6))
        bad = {"file_efficiency": (-1.0, 1.0, 1.0)}
        with pytest.raises(SimulationError, match="cannot deposit negative bytes") as got:
            kernel.advance((10, 8, 6), **bad)
        with pytest.raises(SimulationError) as want:
            oracle.advance(reference, (10, 8, 6), **bad)
        assert str(got.value) == str(want.value)
        assert _state(kernel) == _state(reference)


class TestScalesConstant:
    def test_window_edges(self):
        faults = FaultSchedule([LinkFlap(2.0, 1.0), StorageStall(5.0, 1.0, stage="write")])
        assert faults.scales_constant(0.0, 1.99)
        assert faults.scales_constant(2.0, 2.9)  # an edge at t0 is already seen
        assert not faults.scales_constant(1.5, 2.0)
        assert not faults.scales_constant(2.5, 3.5)
        assert faults.scales_constant(3.0, 4.9)  # a dead link stays dead: constant
        assert not faults.scales_constant(4.0, 5.0)

    def test_aggregate_ramp_spans_its_window(self):
        faults = FaultSchedule(
            BandwidthRamp(2.0, 4.0, to_scale=0.5, stage="read", per_stream=False)
        )
        assert faults.scales_constant(0.0, 1.5)
        assert not faults.scales_constant(3.0, 3.5)  # mid-ramp
        assert not faults.scales_constant(5.5, 6.5)
        assert faults.scales_constant(6.0, 9.0)  # held after the ramp

    def test_per_stream_drift_leaves_the_stage_scales(self):
        faults = FaultSchedule(BandwidthRamp(2.0, 4.0, to_scale=0.5, stage="network"))
        assert faults.scales_constant(3.0, 3.5)

    def test_unfired_restarts_only(self):
        faults = FaultSchedule([ReceiverRestart(at=2.0), ReceiverRestart(at=5.0)])
        assert not faults.scales_constant(2.0, 3.0)
        assert not faults.scales_constant(1.0, 2.0)
        assert faults.take_receiver_restarts(2.0, 2.5) == 1
        assert faults.scales_constant(1.0, 3.0)
        assert not faults.scales_constant(1.0, 5.0)

    def test_kernel_reads_scales_once_per_quiet_interval(self):
        calls = []

        class Counting(FaultSchedule):
            def storage_scale(self, stage, t):
                calls.append(t)
                return super().storage_scale(stage, t)

        tb = Testbed(_config(), rng=0, faults=Counting(LinkFlap(3.5, 2.0)))
        tb.advance((10, 8, 6))
        assert len(calls) == 2  # read and write, once each
        calls.clear()
        tb.advance((10, 8, 6), duration=3.0)  # the flap opens mid-interval
        assert len(calls) == 2 * 60
