"""The envelope clamp and the drift monitor against their oracles.

:mod:`tests.adapt.adapt_oracle` keeps the originals.  On seeded random and
pathological proposals (NaN, ±inf, −0.0, floats, numpy scalars,
out-of-range values, wrong lengths) the clamp must return and raise what
the original did and count the same clamps, also when it raises part-way;
on seeded signal streams (drifts, stalls, retries, NaN and ±inf
throughputs) the monitor must give the same verdicts and detections.
"""

import numpy as np
import pytest

from repro.adapt.detectors import DriftMonitor, DriftMonitorConfig
from repro.adapt.envelope import SafetyEnvelope
from tests.adapt.adapt_oracle import OracleEnvelope, OracleMonitor

NAN, INF = float("nan"), float("inf")

PROPOSALS = (
    (4, 4, 4), (1, 30, 15), (0, -3, 40), (4.0, 4.5, 29.9), (-0.0, 4, 4), (NAN, 4, 4),
    (4, INF, 4), (4, 4, -INF), (np.int64(7), np.float64(8.7), 9), (True, 2, 3), [5, 5, 5],
    (4, 4), (4, 4, 4, 4), (), None, ("4", 4, 4),
)
PREVIOUS = (
    None, (4, 4, 4), (1, 1, 1), (30, 30, 30), (10, 2, 28), (4.5, 4, 4), (NAN, 4, 4),
    (4, INF, 4), (np.int64(3), 4, 4), (4, 4),
)


def outcome(fn, *args):
    try:
        return ("returned", repr(fn(*args)))
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return ("raised", type(exc), str(exc))


ENVELOPES = (
    dict(),
    dict(max_delta_per_interval=1),
    dict(max_threads=(8, 30, 12), min_threads=(2, 1, 3), max_delta_per_interval=3),
    dict(max_threads=(1, 1, 1)),
)


class TestEnvelopeClamp:
    @pytest.mark.parametrize("kwargs", ENVELOPES)
    def test_pathological_proposals_and_counts(self, kwargs):
        envelope, oracle = SafetyEnvelope(**kwargs), OracleEnvelope(**kwargs)
        counts, oracle_counts = {}, {}
        for proposal in PROPOSALS:
            for previous in PREVIOUS:
                got = outcome(envelope.clamp, proposal, previous, counts)
                assert got == outcome(oracle.clamp, proposal, previous, oracle_counts)
                assert counts == oracle_counts, (proposal, previous)
                got = outcome(envelope.clamp, proposal, previous)
                assert got == outcome(oracle.clamp, proposal, previous)

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_proposals(self, seed):
        rng = np.random.default_rng(seed)
        kwargs = ENVELOPES[seed % len(ENVELOPES)]
        envelope, oracle = SafetyEnvelope(**kwargs), OracleEnvelope(**kwargs)
        counts, oracle_counts = {}, {}
        previous = None
        for _ in range(3000):
            proposal = tuple(int(n) for n in rng.integers(-4, 40, size=3))
            if rng.random() < 0.2:
                proposal = tuple(float(n) + float(rng.uniform(-1, 1)) for n in proposal)
            got = envelope.clamp(proposal, previous, counts)
            assert repr(got) == repr(oracle.clamp(proposal, previous, oracle_counts))
            assert counts == oracle_counts
            previous = got if rng.random() < 0.9 else None


def signals(rng, n):
    """A stream with a level drop, stall and retry bursts, and junk probes."""
    level = 1000.0
    for i in range(n):
        if i == n // 3:
            level = 400.0
        throughput = level * float(rng.uniform(0.9, 1.1))
        if rng.random() < 0.05:
            throughput = (NAN, INF, -INF, -0.0, 0.0)[rng.integers(5)]
        stalled = bool(rng.random() < (0.6 if n // 2 < i < n // 2 + 15 else 0.05))
        retried = bool(rng.random() < (0.7 if 2 * n // 3 < i < 2 * n // 3 + 10 else 0.02))
        yield throughput, stalled, retried


class TestDriftMonitor:
    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_streams(self, seed):
        rng = np.random.default_rng(seed)
        config = DriftMonitorConfig(warmup=int(rng.integers(2, 10)))
        monitor, oracle = DriftMonitor(config), OracleMonitor(config)
        for i, (throughput, stalled, retried) in enumerate(signals(rng, 400)):
            got = monitor.update(throughput=throughput, stalled=stalled, retried=retried)
            want = oracle.update(throughput=throughput, stalled=stalled, retried=retried)
            assert (got.drifted, got.channels) == (want.drifted, want.channels), i
            assert (monitor.detections, monitor._was_drifted) == (
                oracle.detections, oracle._was_drifted
            )
            if i % 97 == 96:
                monitor.rebaseline()
                oracle.rebaseline()
        assert monitor.detections > 0
