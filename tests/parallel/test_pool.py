"""ParallelMap: ordering, isolation, timeouts, retries, determinism."""

import os
import time

import pytest

from repro.parallel import (
    ParallelMap,
    ParallelMapError,
    available_workers,
    derive_seed,
    parallel_map,
)


def _double(x):
    return 2 * x


def _echo_seeded(item, seed):
    return (item, seed)


def _crash_on_boom(x):
    if x == "boom":
        os._exit(13)  # simulate a segfault/OOM kill: no exception, no cleanup
    return x


def _raise_on_odd(x):
    if x % 2:
        raise ValueError(f"odd {x}")
    return x


def _interrupt_on_two(x):
    if x == 2:
        raise KeyboardInterrupt  # a Ctrl-C while this task runs
    return x


def _sleep_if_slow(x):
    if x == "slow":
        time.sleep(30.0)
    return x


def _pid_of(_item):
    return os.getpid()


class TestBasics:
    def test_available_workers_positive(self):
        assert available_workers() >= 1

    def test_empty_items(self):
        assert ParallelMap(_double, workers=2).map([]) == []

    def test_order_preserved(self):
        outcomes = ParallelMap(_double, workers=3).map(list(range(20)))
        assert [o.index for o in outcomes] == list(range(20))
        assert [o.value for o in outcomes] == [2 * i for i in range(20)]
        assert all(o.ok for o in outcomes)

    def test_chunked_dispatch_preserves_order(self):
        values = ParallelMap(_double, workers=2, chunk_size=4).map_values(list(range(13)))
        assert values == [2 * i for i in range(13)]

    def test_serial_matches_parallel(self):
        items = list(range(10))
        serial = ParallelMap(_double, workers=1).map_values(items)
        parallel = ParallelMap(_double, workers=4).map_values(items)
        assert serial == parallel

    def test_parallel_map_convenience(self):
        assert parallel_map(_double, [1, 2, 3], workers=2) == [2, 4, 6]

    def test_warm_worker_reuse(self):
        """Many more tasks than workers must not fork per task."""
        pids = ParallelMap(_pid_of, workers=2).map_values(list(range(16)))
        assert len(set(pids)) <= 2


class TestFailures:
    def test_exception_isolated_to_task(self):
        outcomes = ParallelMap(_raise_on_odd, workers=2).map(list(range(6)))
        assert [o.ok for o in outcomes] == [True, False, True, False, True, False]
        assert "ValueError" in outcomes[1].error
        assert outcomes[0].value == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failure_keeps_its_traceback(self, workers):
        outcomes = ParallelMap(_raise_on_odd, workers=workers).map([0, 1])
        assert outcomes[0].traceback is None
        assert outcomes[1].error == "ValueError: odd 1"
        trace = outcomes[1].traceback
        assert trace.startswith("Traceback (most recent call last):")
        assert trace.rstrip().endswith("ValueError: odd 1")
        assert 'in _raise_on_odd\n    raise ValueError(f"odd {x}")' in trace

    def test_map_values_raises_with_failures(self):
        with pytest.raises(ParallelMapError) as err:
            ParallelMap(_raise_on_odd, workers=2).map_values(list(range(4)))
        assert len(err.value.failures) == 2
        assert {f.index for f in err.value.failures} == {1, 3}

    def test_crash_isolated_to_task(self):
        """A worker hard-dying fails only its task; the rest complete."""
        items = ["a", "b", "boom", "c", "d"]
        outcomes = ParallelMap(_crash_on_boom, workers=2).map(items)
        assert [o.ok for o in outcomes] == [True, True, False, True, True]
        assert "exitcode" in outcomes[2].error
        assert outcomes[2].traceback is None  # nothing raised: no frame to show
        assert [o.value for o in outcomes if o.ok] == ["a", "b", "c", "d"]

    def test_crash_does_not_kill_parent_for_single_item(self):
        """Even one item goes through the pool when workers > 1."""
        outcomes = ParallelMap(_crash_on_boom, workers=2).map(["boom"])
        assert not outcomes[0].ok

    def test_timeout_kills_hung_worker(self):
        items = ["a", "slow", "b"]
        outcomes = ParallelMap(_sleep_if_slow, workers=2, timeout=0.5).map(items)
        assert [o.ok for o in outcomes] == [True, False, True]
        assert "timeout" in outcomes[1].error


class TestOnOutcome:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_final_outcome_is_reported_once(self, workers):
        seen = []
        outcomes = ParallelMap(
            _raise_on_odd, workers=workers, retries=1, backoff_base=0.01
        ).map(list(range(6)), on_outcome=seen.append)
        seen.sort(key=lambda outcome: outcome.index)
        assert len(seen) == len(outcomes)
        assert all(reported is final for reported, final in zip(seen, outcomes))
        assert [o.attempts for o in seen] == [1, 2, 1, 2, 1, 2]

    def test_outcomes_before_an_interrupt_are_reported(self):
        seen = []
        with pytest.raises(KeyboardInterrupt):
            ParallelMap(_interrupt_on_two, workers=1).map(
                [0, 1, 2, 3], on_outcome=seen.append
            )
        assert [(o.index, o.value) for o in seen] == [(0, 0), (1, 1)]


class TestRetries:
    def test_retry_attempts_counted(self, tmp_path):
        marker = tmp_path / "succeeded-once"

        def flaky(x):
            # Fails until the marker exists (created on the first failure),
            # so the retry attempt succeeds.
            if x == "flaky" and not marker.exists():
                marker.write_text("x")
                raise RuntimeError("transient")
            return x

        outcomes = ParallelMap(flaky, workers=2, retries=2).map(["ok", "flaky"])
        assert all(o.ok for o in outcomes)
        by_value = {o.value: o for o in outcomes}
        assert by_value["ok"].attempts == 1
        assert by_value["flaky"].attempts == 2

    def test_retries_exhausted_reports_attempts(self):
        outcomes = ParallelMap(_raise_on_odd, workers=2, retries=2).map([1])
        assert not outcomes[0].ok
        assert outcomes[0].attempts == 3  # first try + 2 retries

    def test_serial_path_same_retry_policy(self):
        outcomes = ParallelMap(
            _raise_on_odd, workers=1, retries=1, backoff_base=0.01
        ).map([1])
        assert not outcomes[0].ok
        assert outcomes[0].attempts == 2


class TestDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_seeds_stable_across_pool_sizes(self, workers):
        outcomes = ParallelMap(_echo_seeded, workers=workers, root_seed=42).map(
            list(range(8))
        )
        for i, outcome in enumerate(outcomes):
            assert outcome.value == (i, derive_seed(42, i))
            assert outcome.seed == derive_seed(42, i)

    def test_parallel_values_bit_identical_to_serial(self):
        items = list(range(8))
        serial = ParallelMap(_echo_seeded, workers=1, root_seed=7).map_values(items)
        parallel = ParallelMap(_echo_seeded, workers=4, root_seed=7).map_values(items)
        assert serial == parallel

    def test_seed_survives_retry(self, tmp_path):
        marker = tmp_path / "failed-once"

        def flaky(item, seed):
            if not marker.exists():
                marker.write_text("x")
                raise RuntimeError("transient")
            return seed

        outcomes = ParallelMap(flaky, workers=2, root_seed=5, retries=1).map([0])
        assert outcomes[0].ok
        assert outcomes[0].value == derive_seed(5, 0)
