"""The per-interval guard, probe, observation and journal code against its oracles.

Each production function must answer as the original it replaced
(:mod:`tests.transfer.interval_oracle`, :mod:`tests.transfer.journal_oracle`)
on seeded random inputs and on pathological ones: NaN, ±inf, −0.0,
negative values, zero or negative capacities, numpy scalars, float and
out-of-range proposals and wrong lengths.  Values are compared by
``repr``, so a type, a signed zero or a NaN that differs counts, and
exceptions by type and message.
"""

import copy
import dataclasses
import inspect
import pickle

import numpy as np
import pytest

from repro.baselines import StaticController
from repro.baselines.heuristic import ProbeHeuristicController
from repro.emulator.faults import DataCorruption, FaultSchedule, TornWrite
from repro.transfer import GuardedController, Observation
from repro.transfer.integrity import ChunkJournal, IntegrityConfig, VerifiedTransfer
from repro.transfer.probing import ThroughputProbe
from tests.transfer import journal_oracle
from tests.transfer.interval_oracle import OracleGuard, OracleProbe
from tests.transfer.test_integrity import make_supervisor

NAN, INF = float("nan"), float("inf")

#: Throughput and buffer figures: clean ones and every kind of dirt.
FIGURES = (
    0.0, -0.0, 1.0, 512.5, 4e9, 5e-324, -1.0, -3e9, NAN, INF, -INF,
    np.float64(800.0), np.float64(NAN), np.float32(7.5), 3, 0, -2, np.int64(9),
)
#: Proposals: in-range int triples and everything the general path handles.
PROPOSALS = (
    (4, 4, 4), (1, 1, 1), (30, 30, 30), (1, 30, 15), (12, 2, 29),
    (0, 4, 4), (4, 31, 4), (-3, 4, 4), (4, 4, 100),
    (4.0, 4.0, 4.0), (4.4, 3.6, 29.5), (0.4, 30.6, 2.5), (-0.0, 4, 4),
    (NAN, 4, 4), (4, INF, 4), (4, 4, -INF),
    (np.int64(4), 4, 4), (np.float64(5.0), np.int32(6), 7), (True, 2, 3),
    [4, 4, 4], (4, 4), (4, 4, 4, 4), (), None, "444", (4, "4", 4), (4, None, 4),
)


def outcome(fn, *args, **kwargs):
    """``repr`` of what ``fn`` returns, or the type and message it raises."""
    try:
        return ("returned", repr(fn(*args, **kwargs)))
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return ("raised", type(exc), str(exc))


def random_observation(rng, *, dirt=0.3):
    """An observation; each field is dirty with probability ``dirt``."""

    def figure(clean):
        return FIGURES[rng.integers(len(FIGURES))] if rng.random() < dirt else clean

    count = 3 if rng.random() > 0.1 else int(rng.choice([2, 4]))
    capacity = float(rng.uniform(1e6, 4e9))
    return Observation(
        threads=(4, 4, 4),
        throughputs=tuple(figure(float(rng.uniform(0.0, 2000.0))) for _ in range(count)),
        sender_free=figure(float(rng.uniform(0.0, capacity))),
        receiver_free=figure(float(rng.uniform(0.0, capacity))),
        sender_capacity=figure(capacity),
        receiver_capacity=figure(capacity),
        elapsed=float(rng.uniform(0.0, 100.0)),
        bytes_written_total=float(rng.uniform(0.0, 1e10)),
    )


def guard_state(guard):
    return (
        guard._degraded, guard._clean_streak, guard._thrash_streak, guard._range_streak,
        repr(guard._last_proposal), guard.degraded_intervals, list(guard.events),
    )


class TestGuardAgainstOracle:
    @pytest.mark.parametrize("seed", range(4))
    def test_sanitize(self, seed):
        rng = np.random.default_rng(seed)
        guard, oracle = GuardedController(StaticController((4, 4, 4))), OracleGuard(
            StaticController((4, 4, 4))
        )
        for _ in range(600):
            obs = random_observation(rng, dirt=float(rng.choice([0.0, 0.1, 0.5])))
            got, want = outcome(guard._sanitize, obs), outcome(oracle._sanitize, obs)
            assert got == want, obs
            if want[0] == "returned" and not oracle._sanitize(obs)[1]:
                assert guard._sanitize(obs)[0] is obs  # clean: the same object

    def test_sanitize_pathological_fields(self):
        guard, oracle = GuardedController(StaticController((4, 4, 4))), OracleGuard(
            StaticController((4, 4, 4))
        )
        base = dict(
            threads=(4, 4, 4), throughputs=(1.0, 2.0, 3.0), sender_free=0.5,
            receiver_free=0.5, sender_capacity=1.0, receiver_capacity=1.0,
            elapsed=0.0, bytes_written_total=0.0,
        )
        cases = []
        for field in ("sender_free", "receiver_free", "sender_capacity", "receiver_capacity"):
            cases += [{field: value} for value in FIGURES + (1.0, 2.0, 0.999)]
        for i in range(3):
            for value in FIGURES:
                triple = [1.0, 2.0, 3.0]
                triple[i] = value
                cases.append({"throughputs": tuple(triple)})
        cases += [
            {"throughputs": (1.0, 2.0)},
            {"throughputs": (1.0, 2.0, 3.0, 4.0)},
            {"throughputs": [1.0, 2.0, 3.0]},
            {"throughputs": np.array([1.0, 2.0, 3.0])},
            {"sender_free": 1.0, "sender_capacity": 1.0},
            {"sender_free": -0.0, "receiver_free": 0.0},
        ]
        for change in cases:
            obs = Observation(**{**base, **change})
            assert outcome(guard._sanitize, obs) == outcome(oracle._sanitize, obs), change

    @pytest.mark.parametrize("seed", range(4))
    def test_pathology_and_clamp_with_their_streaks(self, seed):
        rng = np.random.default_rng(seed)
        kwargs = dict(max_threads=30, thrash_threshold=12, thrash_window=3, out_of_range_limit=3)
        guard = GuardedController(StaticController((4, 4, 4)), **kwargs)
        oracle = OracleGuard(StaticController((4, 4, 4)), **kwargs)
        for _ in range(800):
            proposal = PROPOSALS[rng.integers(len(PROPOSALS))]
            if rng.random() < 0.2:
                last = PROPOSALS[rng.integers(5)]
                guard._last_proposal = oracle._last_proposal = last
            got = outcome(guard._proposal_pathology, proposal)
            want = outcome(oracle._proposal_pathology, proposal)
            assert got == want, proposal
            assert outcome(guard._clamp, proposal) == outcome(oracle._clamp, proposal), proposal
            assert guard_state(guard) == guard_state(oracle), proposal

    @pytest.mark.parametrize("max_threads", [1, 2, 30])
    def test_clamp_at_small_ceilings(self, max_threads):
        guard = GuardedController(StaticController((1, 1, 1)), max_threads=max_threads)
        oracle = OracleGuard(StaticController((1, 1, 1)), max_threads=max_threads)
        for proposal in PROPOSALS:
            assert outcome(guard._clamp, proposal) == outcome(oracle._clamp, proposal)
            got = outcome(guard._proposal_pathology, proposal)
            assert got == outcome(oracle._proposal_pathology, proposal), proposal

    @pytest.mark.parametrize("seed", range(6))
    def test_propose_sequences(self, seed):
        """Whole intervals: proposals, events and counters match the oracle's."""
        rng = np.random.default_rng(seed)
        script = [PROPOSALS[i] for i in rng.integers(0, 20, size=300)]  # triples only
        observations = [
            random_observation(rng, dirt=float(rng.choice([0.0, 0.0, 0.2]))) for _ in script
        ]

        class Scripted:
            def __init__(self):
                self.i = 0

            def propose(self, observation):
                self.i += 1
                return script[self.i - 1]

            def reset(self):
                pass

        fallback = (StaticController((2, 2, 2)), ProbeHeuristicController(max_threads=30))[
            seed % 2
        ]
        guard = GuardedController(Scripted(), copy.deepcopy(fallback))
        oracle = OracleGuard(Scripted(), copy.deepcopy(fallback))
        for obs in observations:
            assert outcome(guard.propose, obs) == outcome(oracle.propose, obs)
            assert guard_state(guard) == guard_state(oracle)


class TestProbeAgainstOracle:
    READINGS = (
        (800.0, 790.0, 780.0), (0.0, -0.0, 5e-324), (NAN, NAN, NAN), (INF, -INF, 1.0),
        (-5.0, 3, np.float64(2.5)), (np.float32(1.5), np.int64(7), True),
        [1.0, 2.0, 3.0], np.array([4.0, 5.0, 6.0]), (1.0, 2.0, 3.0, 4.0), (1.0, 2.0), (),
        ("1.5", 2.0, 3.0),
    )

    def test_silent_probe_reads_what_numpy_would(self):
        probe, oracle = ThroughputProbe(), OracleProbe()
        for reading in self.READINGS:
            assert outcome(probe.observe, reading) == outcome(oracle.observe, reading), reading

    @pytest.mark.parametrize("noise, smoothing", [(0.05, 0.0), (0.0, 0.5), (0.05, 0.5)])
    def test_noisy_or_smoothed_probe_draws_the_same_stream(self, noise, smoothing):
        rng = np.random.default_rng(3)
        probe, oracle = ThroughputProbe(noise, smoothing, rng=11), OracleProbe(
            noise, smoothing, rng=11
        )
        for i in range(200):
            reading = tuple(float(v) for v in rng.uniform(0.0, 1000.0, size=3))
            if i % 37 == 5:
                reading = self.READINGS[i % len(self.READINGS)]
            assert outcome(probe.observe, reading) == outcome(oracle.observe, reading)
            if i % 50 == 49:
                probe.reset()
                oracle.reset()

    def test_only_a_noisy_probe_builds_a_generator(self):
        assert ThroughputProbe(0.0, 0.5, rng=1)._rng is None
        assert isinstance(ThroughputProbe(0.1, rng=1)._rng, np.random.Generator)


class TestObservationType:
    """The one-update constructor keeps every dataclass behaviour."""

    def test_constructor_matches_the_fields(self):
        params = list(inspect.signature(Observation).parameters.values())
        fields = dataclasses.fields(Observation)
        assert [p.name for p in params] == [f.name for f in fields]
        for param, field in zip(params, fields):
            assert param.default == (
                inspect.Parameter.empty if field.default is dataclasses.MISSING else field.default
            )

    def test_frozen_equal_hashable_replaceable_picklable(self):
        args = ((4, 4, 4), (1.0, 2.0, 3.0), 1.0, 2.0, 4.0, 4.0, 10.0, 1e9)
        obs = Observation(*args)
        assert obs == Observation(*args) and hash(obs) == hash(Observation(*args))
        assert obs.done is False
        with pytest.raises(dataclasses.FrozenInstanceError):
            obs.elapsed = 1.0
        moved = dataclasses.replace(obs, done=True)
        assert moved.done is True and dataclasses.replace(moved, done=False) == obs
        assert pickle.loads(pickle.dumps(obs)) == obs
        assert copy.deepcopy(obs) == obs
        assert obs.sender_usage == 3.0 and obs.receiver_usage == 2.0
        assert repr(obs).startswith("Observation(threads=(4, 4, 4), throughputs=")


#: Lines no writer produces: each must be dropped, or raise, as before.
ODD_LINES = (
    '{"type":"chunkbatch","t":1.0,"ids":[0],"digests":[5]} {"type":"x"}',
    '{"type":"chunkbatch","t":1.0,"ids":[1],"digests":[6]}, {"a":1}',
    '\ufeff{"type":"chunkbatch","t":1.0,"ids":[2],"digests":[7]}',
    '\x0c{"type":"chunkbatch","t":1.0,"ids":[3],"digests":[8]}\x0b',
    '  {"type":"chunkrun","t":2.0,"lo":0,"hi":2}\t',
    "[1, 2]", "5", '"chunkbatch"', "null", "{}", '{"type":"chunkrun"', "}", "",
    "   ", '{"type":"chunkbatch","t":1.0,"ids":[0, 1],"digests":[1]}',
    '{"type":"chunkrun","t":1.0,"lo":0,"hi":99}', '{"type":"chunkbatch","t":1e999}',
    '{"type":"chunkbatch","t":NaN,"ids":[4],"digests":[9]}',
    '{"type":"chunkbatch","t":1.0,"ids":[4],"digests":[9]}',
)


class TestReplayAgainstOracle:
    """Pairs of journals, production and oracle, on twin files: every replay
    returns, raises, heals the file and keeps its cursor alike."""

    N = 8

    def twins(self, tmp_path):
        expected = np.arange(100, 100 + self.N, dtype=np.uint32)
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        return (
            ChunkJournal(tmp_path / "a" / "j.jsonl", expected),
            journal_oracle.OracleJournal(tmp_path / "b" / "j.jsonl", expected),
        )

    @staticmethod
    def step(journal, oracle, text):
        for j in (journal, oracle):
            with open(j.path, "a", encoding="utf-8") as fh:
                fh.write(text)

        def result(j):
            got = outcome(j.replay)
            if got[0] == "raised":
                got = (got[0], got[1], got[2].replace(str(j.path), "<journal>"))
            cursor = (j._offset, j._lines, None if j._claims is None else j._claims.tolist())
            return got, cursor, j.path.read_bytes()

        assert result(journal) == result(oracle), repr(text)

    @pytest.mark.parametrize("line", ODD_LINES)
    @pytest.mark.parametrize("place", ["last", "followed", "torn"])
    def test_odd_line(self, tmp_path, line, place):
        journal, oracle = self.twins(tmp_path)
        good = '{"type":"chunkbatch","t":0.5,"ids":[0, 1],"digests":[11, 12]}\n'
        self.step(journal, oracle, good)
        self.step(journal, oracle, line + "\n")
        if place == "followed":
            self.step(journal, oracle, good)
        elif place == "torn":
            self.step(journal, oracle, good[:20])
        self.step(journal, oracle, "")

    @pytest.mark.parametrize("seed", range(3))
    def test_random_growth(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        journal, oracle = self.twins(tmp_path)
        for _ in range(60):
            ids = sorted(rng.choice(self.N, size=int(rng.integers(1, 4)), replace=False))
            lines = [
                '{"type":"chunkbatch","t":%.3f,"ids":%s,"digests":%s}\n'
                % (rng.random(), list(map(int, ids)), [int(rng.integers(0, 2**40))] * len(ids)),
                '{"type":"chunkrun","t":1.0,"lo":%d,"hi":%d}\n'
                % (int(ids[0]), int(ids[-1]) + 1),
                ODD_LINES[rng.integers(len(ODD_LINES))] + "\n",
            ]
            text = "".join(lines[i] for i in rng.permutation(3)[: rng.integers(1, 4)])
            if rng.random() < 0.3:
                text = text[: rng.integers(len(text))]
            self.step(journal, oracle, text)
            if rng.random() < 0.1:
                for j in (journal, oracle):
                    j.path.write_text("")


class TestVerifiedResumeAgainstOracle:
    @pytest.mark.parametrize("forged", [False, True])
    @pytest.mark.parametrize("crash_at", [3.0, 6.5, 9.0])
    def test_resume_state(self, tmp_path, crash_at, forged):
        """After a crash with a torn tail, both resumes report and queue
        alike; ``forged`` adds a claim of digest 0 (a valid claim, and a
        wrong one) for chunk 1."""

        class Crash(Exception):
            pass

        def crasher(observation):
            if observation.elapsed >= crash_at:
                raise Crash

        twins = []
        for name in ("a", "b"):
            faults = FaultSchedule(
                [DataCorruption(start=2.0, duration=6.0, rate=0.4), TornWrite(at=5.0)]
            )
            vt = VerifiedTransfer.for_supervisor(
                make_supervisor(faults),
                tmp_path / name,
                IntegrityConfig(chunk_size=0.25e9, seed=2, journal_flush_every=3),
            )
            with pytest.raises(Crash):
                vt.run(observer=crasher)
            vt.journal.crash(torn_tail=True)
            if forged:
                vt.journal.replay()  # heal the torn tail first
                with open(vt.journal.path, "a") as fh:
                    fh.write('{"type":"chunkbatch","t":0.0,"ids":[1],"digests":[0]}\n')
            twins.append(vt)
        got = twins[0]._verified_resume()
        want = journal_oracle.verified_resume(twins[1])
        assert repr(got) == repr(want)
        a, b = (vt.ledger for vt in twins)
        assert a.to_dict() == b.to_dict()
        assert repr(list(a._pending)) == repr(list(b._pending))
        assert a._pend_cum.tolist() == b._pend_cum.tolist()
        assert (a._synced_bytes, a._head, a._folded) == (b._synced_bytes, b._head, b._folded)
