"""Per-kind fault lookups, the thread clamp and ``StageFlows`` against their oracles.

:class:`~tests.emulator.faults_oracle.OracleFaultSchedule` filters the
whole window list by type on every query; the production schedule splits
it by kind once.  Both must answer every query alike at every instant, on
seeded random schedules, including a dead link's aftermath before and
after a restart.  The thread clamp must return and raise what the
original rounding clamp did.
"""

import copy
import dataclasses
import inspect
import pickle

import numpy as np
import pytest

from repro.emulator import Testbed, TestbedConfig
from repro.emulator.faults import (
    BandwidthRamp,
    DataCorruption,
    FaultSchedule,
    LinkFlap,
    ProbeDropout,
    ReceiverRestart,
    ReportLoss,
    SilentTruncation,
    StepChange,
    StorageStall,
    TornWrite,
)
from repro.emulator.testbed import StageFlows
from tests.emulator.faults_oracle import OracleFaultSchedule, clamp_threads

NAN, INF = float("nan"), float("inf")


def random_events(rng):
    """A seeded schedule drawing every event kind, zero or more times each."""
    events = []
    for _ in range(int(rng.integers(0, 12))):
        start = float(rng.uniform(0.0, 60.0))
        duration = float(rng.uniform(0.5, 15.0))
        kind = int(rng.integers(10))
        if kind == 0:
            events.append(LinkFlap(start, duration, severity=float(rng.uniform()),
                                   requires_restart=bool(rng.integers(2))))
        elif kind == 1:
            events.append(StorageStall(start, duration, stage=("read", "write")[rng.integers(2)],
                                       factor=float(rng.uniform())))
        elif kind == 2:
            events.append(ProbeDropout(start, duration))
        elif kind == 3:
            events.append(ReportLoss(start, duration))
        elif kind == 4:
            events.append(DataCorruption(start, duration, rate=float(rng.uniform()),
                                         site=("network", "storage")[rng.integers(2)]))
        elif kind == 5:
            events.append(BandwidthRamp(start, duration,
                                        stage=("read", "network", "write")[rng.integers(3)],
                                        to_scale=float(rng.uniform(0.2, 1.5)),
                                        per_stream=bool(rng.integers(2))))
        elif kind == 6:
            events.append(StepChange(start, duration,
                                     stage=("read", "network", "write")[rng.integers(3)],
                                     to_scale=float(rng.uniform(0.2, 1.5)),
                                     per_stream=bool(rng.integers(2))))
        elif kind == 7:
            events.append(ReceiverRestart(at=start))
        elif kind == 8:
            events.append(TornWrite(at=start))
        else:
            events.append(SilentTruncation(at=start, chunks=int(rng.integers(1, 4))))
    return events


def answers(schedule, t):
    return (
        schedule.network_scale(t),
        schedule.storage_scale("read", t),
        schedule.storage_scale("write", t),
        schedule.probe_dropout(t),
        schedule.report_lost(t),
        schedule.corruption_rate(t),
    )


class TestPerKindLookups:
    @pytest.mark.parametrize("seed", range(12))
    def test_every_query_at_every_instant(self, seed):
        rng = np.random.default_rng(seed)
        events = random_events(rng)
        schedule, oracle = FaultSchedule(list(events)), OracleFaultSchedule(list(events))
        instants = sorted(
            [float(t) for t in rng.uniform(0.0, 90.0, size=150)]
            + [e.start for e in events if hasattr(e, "start")]
            + [e.end for e in events if hasattr(e, "end")]
            + [0.0, -0.0, 1e9, NAN, INF, -1.0]
        )
        restart_at = float(rng.uniform(0.0, 80.0))
        for t in instants:
            if t >= restart_at:  # a restart re-arms dead links
                schedule.notify_restart(restart_at)
                oracle.notify_restart(restart_at)
                restart_at = INF
            assert repr(answers(schedule, t)) == repr(answers(oracle, t)), (events, t)

    def test_one_event_is_listed_by_its_kind(self):
        flap = LinkFlap(1.0, 2.0)
        schedule, oracle = FaultSchedule(flap), OracleFaultSchedule(flap)
        for t in (0.5, 1.0, 2.9, 3.0, 50.0):
            assert answers(schedule, t) == answers(oracle, t)

    def test_empty_schedule(self):
        schedule, oracle = FaultSchedule(), OracleFaultSchedule()
        for t in (0.0, 10.0, NAN):
            assert repr(answers(schedule, t)) == repr(answers(oracle, t))


THREADS = (
    (4, 4, 4), (1, 1, 1), (30, 30, 30), (0, 4, 4), (31, 4, 4), (-5, 4, 4), (4, 4, 10**6),
    (4.0, 4.0, 4.0), (4.5, 3.5, 2.49), (-0.0, 1e300, 0.5), (NAN, 4, 4), (4, INF, 4),
    (np.int64(4), 4, 4), (np.float32(2.5), np.int8(3), 4), (True, False, 4), [4, 4, 4],
    np.array([4, 4, 4]), (4, 4), (4, 4, 4, 4), (), None, ("4", 4, 4), (4, None, 4),
)


def outcome(fn, *args):
    try:
        return ("returned", repr(fn(*args)))
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return ("raised", type(exc), str(exc))


class TestThreadClamp:
    @pytest.mark.parametrize("max_threads", [1, 2, 30, 64])
    def test_clamp_matches_the_rounding_clamp(self, max_threads):
        testbed = Testbed(TestbedConfig(max_threads=max_threads), rng=0)
        for threads in THREADS:
            got = outcome(testbed._clamp_threads, threads)
            assert got == outcome(clamp_threads, threads, max_threads), threads

    def test_seeded_triples(self):
        rng = np.random.default_rng(5)
        testbed = Testbed(TestbedConfig(max_threads=30), rng=0)
        for _ in range(2000):
            threads = tuple(int(n) for n in rng.integers(-3, 35, size=3))
            if rng.random() < 0.3:
                threads = tuple(float(n) + float(rng.uniform(-0.6, 0.6)) for n in threads)
            got = outcome(testbed._clamp_threads, threads)
            assert got == outcome(clamp_threads, threads, 30), threads


class TestStageFlowsType:
    """The one-update constructor keeps every dataclass behaviour."""

    def test_constructor_matches_the_fields(self):
        params = list(inspect.signature(StageFlows).parameters)
        assert params == [f.name for f in dataclasses.fields(StageFlows)]

    def test_frozen_equal_hashable_replaceable_picklable(self):
        args = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, (4, 4, 4), 4.0)
        flows = StageFlows(*args)
        assert flows == StageFlows(*args) and hash(flows) == hash(StageFlows(*args))
        with pytest.raises(dataclasses.FrozenInstanceError):
            flows.duration = 2.0
        assert dataclasses.replace(flows, bytes_read=0.5).bytes_read == 0.5
        assert dataclasses.replace(flows, bytes_read=0.5).bytes_written == 4.0
        assert pickle.loads(pickle.dumps(flows)) == flows
        assert copy.deepcopy(flows) == flows
        assert flows.throughputs == (5.0, 6.0, 7.0)
        assert repr(flows).startswith("StageFlows(duration=1.0, bytes_read=2.0,")
