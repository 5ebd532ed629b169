"""``ParallelMap``: a zero-dependency process-pool execution layer.

The experiment harness fans out embarrassingly parallel work — seed
sweeps, experiment grids, population training — that the rest of the repo
runs strictly serially.  ``ParallelMap`` turns those fan-outs into warm
worker processes with the properties scientific sweeps actually need:

* **determinism** — per-task seeds come from
  :func:`repro.parallel.seeds.derive_seed` (a pure function of root seed
  and task index), and results are reassembled in task order, so a
  parallel run is bit-identical to the serial one regardless of pool
  size, scheduling, or retries;
* **warm worker reuse** — ``workers`` processes are forked once per
  :meth:`map` call and pull task chunks from per-worker pipes until the
  sweep drains (no per-task process spawn, no cold numpy import per
  task);
* **chunked dispatch** — ``chunk_size`` tasks travel per pipe message to
  amortise IPC for very light tasks (heavy experiment tasks keep the
  default of 1 for dynamic load balance);
* **crash isolation** — a worker dying (segfault, ``os._exit``, OOM
  kill) fails only the task it was running; unstarted tasks from its
  chunk are re-queued untouched and a replacement worker is forked;
* **timeout / bounded retry** — a task silent for ``timeout`` seconds
  has its worker terminated; failed attempts (exception, crash, timeout)
  are retried up to ``retries`` times after an exponential backoff with
  seeded jitter (:func:`repro.utils.backoff.backoff_delay` — the same
  arithmetic the transfer supervisor uses);
* **per-worker telemetry** — with ``obs_dir`` set, each worker logs to
  its own ``events-worker<k>.jsonl`` in the run directory;
  :func:`repro.parallel.obslog.merge_worker_logs` folds them back into
  the main ``events.jsonl`` so ``automdt obs summary`` works unchanged
  on parallel runs.

The pool requires the ``fork`` start method (Linux/macOS-with-fork): the
mapped callable is captured at worker creation and inherited by the child,
so closures over experiment callables work without pickling.  Task items
and return values do cross process boundaries and must pickle.  Where
``fork`` is unavailable — or ``workers <= 1`` — the pool degrades to an
in-process serial loop with identical seeding and retry semantics.

IPC deliberately avoids ``multiprocessing.Queue``: its writers share one
cross-process lock taken by a background feeder thread, and a worker dying
mid-``os._exit`` while its feeder holds that lock poisons the queue for
every surviving worker (observed reliably on a 1-CPU box).  Instead, task
chunks travel over a per-worker ``Pipe`` (single writer — the parent, no
feeder thread, nothing shared to poison) and results come back over one
shared ``os.pipe`` where each worker writes a length-prefixed frame with a
single ``os.write`` of at most ``PIPE_BUF`` bytes.  POSIX guarantees such
writes are atomic, so frames from concurrent workers never interleave and
a crashing worker either delivered a whole frame or nothing.  Values whose
pickle exceeds the atomic limit are spilled to a temp file and the frame
carries only the path.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import select
import shutil
import tempfile
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.parallel.seeds import derive_seed
from repro.utils.backoff import backoff_delay
from repro.utils.config import require_non_negative, require_positive

__all__ = ["ParallelMap", "ParallelMapError", "TaskOutcome", "available_workers"]

#: Status strings a task moves through in the parent's bookkeeping.
_QUEUED, _ASSIGNED, _STARTED, _RESOLVED = "queued", "assigned", "started", "resolved"

#: Largest result frame (4-byte length prefix included) written in one
#: ``os.write``.  POSIX guarantees pipe writes of at most ``PIPE_BUF``
#: (>= 512, 4096 on Linux) bytes are atomic; staying under that keeps the
#: shared result pipe corruption-free without any cross-process lock.
_FRAME_MAX = min(4096, getattr(select, "PIPE_BUF", 4096))
_INLINE_MAX = _FRAME_MAX - 4

#: First element of a frame whose payload was spilled to a file.
_SPILL = "__parallelmap_spill__"


def available_workers() -> int:
    """Usable CPU count (affinity-aware where the platform exposes it)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


class ParallelMapError(RuntimeError):
    """Raised by :meth:`ParallelMap.map_values` when any task failed."""

    def __init__(self, failures: list["TaskOutcome"]) -> None:
        self.failures = failures
        detail = "; ".join(
            f"task {o.index}: {o.error}" for o in failures[:5]
        )
        more = f" (+{len(failures) - 5} more)" if len(failures) > 5 else ""
        super().__init__(f"{len(failures)} task(s) failed: {detail}{more}")


@dataclass
class TaskOutcome:
    """Result envelope for one mapped task (in input order)."""

    index: int
    ok: bool
    value: Any = None
    error: str | None = None
    #: ``traceback.format_exc()`` of the exception that failed the task;
    #: ``None`` when it succeeded, or its worker crashed or timed out.
    traceback: str | None = None
    attempts: int = 1
    worker: int = -1
    seed: int | None = None
    duration: float = 0.0


class _TaskState:
    """Parent-side bookkeeping for one task across retries."""

    __slots__ = ("index", "item", "seed", "attempts", "status", "worker", "started_at")

    def __init__(self, index: int, item: Any, seed: int | None) -> None:
        self.index = index
        self.item = item
        self.seed = seed
        self.attempts = 0
        self.status = _QUEUED
        self.worker = -1
        self.started_at = 0.0


def _ignore(_outcome: TaskOutcome) -> None:
    """The default ``on_outcome``: keep nothing."""


def _format_exc() -> str:
    """``traceback.format_exc()`` of the exception being handled.

    The module is imported at the first failure, not with this one: every
    program loads this module through :mod:`repro.parallel`, and importing
    ``traceback`` up front cost each one ~0.1 MB of peak RSS and a few ms
    of start-up.
    """
    import traceback

    return traceback.format_exc()


def _call(fn: Callable, item: Any, seed: int | None) -> Any:
    return fn(item) if seed is None else fn(item, seed)


def _send_result(result_fd: int, spill_dir: str, msg: tuple) -> None:
    """Write one done-message as a single atomic pipe frame.

    Oversized payloads go to a spill file so the frame itself always fits
    the ``PIPE_BUF`` atomicity limit; unpicklable return values degrade to
    a task failure instead of a lost message.
    """
    try:
        payload = pickle.dumps(msg, pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # unpicklable return value
        wid, index, _ok, _value, _error, _tb, duration = msg
        payload = pickle.dumps(
            (wid, index, False, None, f"unpicklable result: {exc}",
             _format_exc(), duration),
            pickle.HIGHEST_PROTOCOL,
        )
    if len(payload) > _INLINE_MAX:
        fd, path = tempfile.mkstemp(dir=spill_dir, suffix=".pkl")
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        payload = pickle.dumps((_SPILL, path), pickle.HIGHEST_PROTOCOL)
    os.write(result_fd, len(payload).to_bytes(4, "little") + payload)


class _ResultChannel:
    """Parent-side reader of the shared framed result pipe."""

    def __init__(self) -> None:
        self.read_fd, self.write_fd = os.pipe()
        self._buffer = bytearray()

    def drain(self, timeout: float) -> list[tuple]:
        """Messages that arrived within ``timeout`` seconds (maybe none)."""
        readable, _, _ = select.select([self.read_fd], [], [], timeout)
        if readable:
            self._buffer.extend(os.read(self.read_fd, 1 << 16))
        messages = []
        while len(self._buffer) >= 4:
            size = int.from_bytes(self._buffer[:4], "little")
            if len(self._buffer) < 4 + size:
                break  # partial read of an (atomic) frame: more bytes coming
            msg = pickle.loads(bytes(self._buffer[4:4 + size]))
            del self._buffer[:4 + size]
            if isinstance(msg, tuple) and len(msg) == 2 and msg[0] == _SPILL:
                path = Path(msg[1])
                msg = pickle.loads(path.read_bytes())
                path.unlink(missing_ok=True)
            messages.append(msg)
        return messages

    def close(self) -> None:
        os.close(self.read_fd)
        os.close(self.write_fd)


def _worker_main(worker_id: int, fn: Callable, conn, result_fd: int,
                 spill_dir: str, obs_dir) -> None:
    """Warm worker: pull chunks until the ``None`` sentinel arrives.

    Runs in the forked child.  ``fn`` was inherited through fork; only the
    task tuples and return values cross process boundaries.  The parent
    never relies on a message a crashing worker might fail to deliver —
    chunk assignment is recorded parent-side at dispatch time, and a lost
    ``done`` merely re-runs one deterministic task.
    """
    from repro import obs

    if obs_dir is not None:
        from repro.parallel.obslog import worker_log_name

        # Drop the session inherited from the parent *without* flushing it
        # (its buffered records belong to the parent), then open this
        # worker's own log file in the same run directory.
        obs.discard()
        # ingest_on_close=False: the sweep's parent session is the one run
        # the results store should see, not one row per pool worker.
        obs.configure(obs_dir, label=f"worker{worker_id}",
                      events_filename=worker_log_name(worker_id),
                      ingest_on_close=False)
    else:
        obs.discard()
    try:
        while True:
            try:
                chunk = conn.recv()
            except EOFError:  # parent went away
                break
            if chunk is None:
                break
            for index, item, seed in chunk:
                t0 = time.perf_counter()
                try:
                    value = _call(fn, item, seed)
                except BaseException as exc:  # noqa: BLE001 - isolation boundary
                    msg = (worker_id, index, False, None,
                           f"{type(exc).__name__}: {exc}", _format_exc(),
                           time.perf_counter() - t0)
                else:
                    msg = (worker_id, index, True, value, None, None,
                           time.perf_counter() - t0)
                _send_result(result_fd, spill_dir, msg)
    finally:
        if obs_dir is not None:
            obs.shutdown()


class ParallelMap:
    """Map a callable over items across warm worker processes.

    Parameters
    ----------
    fn:
        ``fn(item)`` — or ``fn(item, seed)`` when ``root_seed`` is set.
        Captured at worker fork, so closures are fine; it is never pickled.
    workers:
        Process count; ``None`` / ``0`` means all available cores.
        ``1`` runs serially in-process (the degenerate pool).
    root_seed:
        When not ``None``, task ``i`` receives ``derive_seed(root_seed, i)``
        as its second argument — stable across pool sizes and orderings.
    timeout:
        Per-task wall-clock budget (seconds).  A worker silent past it is
        terminated and the attempt counts as failed.  ``None`` disables.
    retries:
        Extra attempts per task after the first (exceptions, crashes and
        timeouts all consume attempts).
    backoff_base, backoff_factor, backoff_max, jitter:
        Retry delay shape, see :func:`repro.utils.backoff.backoff_delay`.
        Defaults are snappy (50 ms base) because pool retries gate local
        compute, not remote endpoints.
    chunk_size:
        Tasks per dispatch message (1 = best load balance).
    obs_dir:
        Run directory for per-worker event logs (see module docstring).
    """

    def __init__(
        self,
        fn: Callable,
        *,
        workers: int | None = None,
        root_seed: int | None = None,
        timeout: float | None = None,
        retries: int = 0,
        backoff_base: float = 0.05,
        backoff_factor: float = 2.0,
        backoff_max: float = 2.0,
        jitter: float = 0.25,
        chunk_size: int = 1,
        obs_dir: str | Path | None = None,
        poll_interval: float = 0.02,
    ) -> None:
        require_non_negative(retries, "retries")
        require_positive(chunk_size, "chunk_size")
        if timeout is not None:
            require_positive(timeout, "timeout")
        self.fn = fn
        self.workers = available_workers() if not workers else max(1, int(workers))
        self.root_seed = root_seed
        self.timeout = timeout
        self.retries = int(retries)
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        self.backoff_max = backoff_max
        self.jitter = jitter
        self.chunk_size = int(chunk_size)
        self.obs_dir = str(obs_dir) if obs_dir is not None else None
        self.poll_interval = poll_interval
        self._rng = np.random.default_rng(
            derive_seed(root_seed, 0) if root_seed is not None else 0
        )
        try:
            self._ctx = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platform
            self._ctx = None

    # ------------------------------------------------------------------ public
    def map(
        self,
        items: Sequence[Any],
        *,
        on_outcome: Callable[[TaskOutcome], None] = _ignore,
    ) -> list[TaskOutcome]:
        """Run ``fn`` over ``items``; outcomes come back in input order.

        ``on_outcome`` is called in this process with each task's final
        outcome as soon as it is decided (in completion order), so a caller
        can keep each result before the map ends or is interrupted.
        """
        items = list(items)
        if not items:
            return []
        tasks = [
            _TaskState(
                i, item,
                derive_seed(self.root_seed, i) if self.root_seed is not None else None,
            )
            for i, item in enumerate(items)
        ]
        # Even a single item goes through the pool when workers > 1: the
        # serial path runs in-process and therefore cannot honour crash
        # isolation or timeouts.
        if self.workers <= 1 or self._ctx is None:
            return self._map_serial(tasks, on_outcome)
        return self._map_parallel(tasks, on_outcome)

    def map_values(self, items: Sequence[Any]) -> list[Any]:
        """Like :meth:`map` but returns bare values; raises if any task failed."""
        outcomes = self.map(items)
        failures = [o for o in outcomes if not o.ok]
        if failures:
            raise ParallelMapError(failures)
        return [o.value for o in outcomes]

    # ------------------------------------------------------------------ serial
    def _map_serial(
        self, tasks: list[_TaskState], on_outcome: Callable[[TaskOutcome], None]
    ) -> list[TaskOutcome]:
        """In-process fallback: same seeds, same retry policy, no timeouts."""
        outcomes = []
        for task in tasks:
            while True:
                task.attempts += 1
                t0 = time.perf_counter()
                try:
                    value = _call(self.fn, task.item, task.seed)
                except Exception as exc:  # noqa: BLE001 - mirrors worker boundary
                    if task.attempts <= self.retries:
                        time.sleep(self._retry_delay(task.attempts))
                        continue
                    outcomes.append(TaskOutcome(
                        task.index, False, error=f"{type(exc).__name__}: {exc}",
                        traceback=_format_exc(),
                        attempts=task.attempts, seed=task.seed,
                        duration=time.perf_counter() - t0,
                    ))
                else:
                    outcomes.append(TaskOutcome(
                        task.index, True, value=value, attempts=task.attempts,
                        seed=task.seed, duration=time.perf_counter() - t0,
                    ))
                on_outcome(outcomes[-1])
                break
        return outcomes

    def _retry_delay(self, failed_attempts: int) -> float:
        return backoff_delay(
            failed_attempts,
            base=self.backoff_base, factor=self.backoff_factor,
            max_delay=self.backoff_max, jitter=self.jitter, rng=self._rng,
        )

    # ---------------------------------------------------------------- parallel
    def _map_parallel(
        self, tasks: list[_TaskState], on_outcome: Callable[[TaskOutcome], None]
    ) -> list[TaskOutcome]:
        """Parent-side scheduler: dispatch → drain → police → retry.

        Crash-safety invariant: chunk assignment is recorded *here*, at
        dispatch time, on the parent's side.  Nothing a dying worker fails
        to send can strand a task — on death or timeout the first undone
        task of its chunk is charged an attempt (workers execute chunks in
        order, so that is the task that was running) and the rest go back
        to the ready queue untouched.
        """
        ctx = self._ctx
        results = _ResultChannel()
        spill_dir = tempfile.mkdtemp(prefix="parallelmap-")
        n_workers = min(self.workers, len(tasks))
        outcomes: dict[int, TaskOutcome] = {}
        by_index = {t.index: t for t in tasks}
        #: wid -> {"proc", "conn", "chunk": [undone indices], "t": last activity}
        workers: dict[int, dict] = {}
        ready: list[_TaskState] = list(tasks)
        retry_later: list[tuple[float, _TaskState]] = []  # (ready_at, task)

        def spawn(wid: int) -> None:
            worker_end, parent_end = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_worker_main,
                args=(wid, self.fn, worker_end, results.write_fd,
                      spill_dir, self.obs_dir),
                daemon=True,
            )
            proc.start()
            worker_end.close()  # child holds its own copy after fork
            workers[wid] = {"proc": proc, "conn": parent_end, "chunk": [], "t": 0.0}

        def dispatch(now: float) -> None:
            """Hand one chunk to every idle worker while tasks are ready."""
            for state in workers.values():
                if not ready:
                    return
                if state["chunk"]:
                    continue
                chunk, rest = ready[:self.chunk_size], ready[self.chunk_size:]
                ready[:] = rest
                for t in chunk:
                    t.status = _ASSIGNED
                state["chunk"] = [t.index for t in chunk]
                state["t"] = now
                try:
                    state["conn"].send([(t.index, t.item, t.seed) for t in chunk])
                except (BrokenPipeError, OSError):
                    pass  # worker just died; the liveness check reaps + requeues

        def resolve(task: _TaskState, outcome: TaskOutcome) -> None:
            task.status = _RESOLVED
            outcomes[task.index] = outcome
            on_outcome(outcome)

        def fail_attempt(task: _TaskState, error: str, worker: int, now: float,
                         tb: str | None = None) -> None:
            """One attempt burned (exception / crash / timeout): retry or fail."""
            task.attempts += 1
            if task.attempts <= self.retries:
                retry_later.append((now + self._retry_delay(task.attempts), task))
            else:
                resolve(task, TaskOutcome(
                    task.index, False, error=error, traceback=tb,
                    attempts=task.attempts, worker=worker, seed=task.seed,
                ))

        def reap(wid: int, error: str, now: float, *, kill: bool) -> None:
            """Tear down worker ``wid``; requeue the rest of its chunk."""
            state = workers.pop(wid)
            proc = state["proc"]
            if kill and proc.is_alive():
                proc.terminate()
            proc.join(timeout=5.0)
            state["conn"].close()
            undone = [i for i in state["chunk"] if by_index[i].status != _RESOLVED]
            if undone:
                # Workers run chunks in order: the first undone task is the
                # one that was executing when the worker went down.
                fail_attempt(by_index[undone[0]], error, wid, now)
                for i in undone[1:]:
                    by_index[i].status = _QUEUED
                ready[:0] = [by_index[i] for i in undone[1:]]  # never ran
            if len(outcomes) < len(tasks):
                spawn(wid)

        for wid in range(n_workers):
            spawn(wid)
        dispatch(time.perf_counter())

        try:
            while len(outcomes) < len(tasks):
                # 1. Drain finished-task messages.
                for msg in results.drain(self.poll_interval):
                    wid, index, ok, value, error, tb, duration = msg
                    task = by_index[index]
                    state = workers.get(wid)
                    now = time.perf_counter()
                    if state is not None and index in state["chunk"]:
                        state["chunk"].remove(index)
                        state["t"] = now
                    if task.status == _RESOLVED:
                        pass  # late result after a timeout verdict: drop
                    elif ok:
                        task.attempts += 1
                        task.worker = wid
                        resolve(task, TaskOutcome(
                            index, True, value=value, attempts=task.attempts,
                            worker=wid, seed=task.seed, duration=duration,
                        ))
                    else:
                        task.worker = wid
                        fail_attempt(task, error, wid, now, tb)

                now = time.perf_counter()
                # 2. Enforce per-task timeouts (silence while holding work).
                if self.timeout is not None:
                    for wid in list(workers):
                        state = workers[wid]
                        if state["chunk"] and now - state["t"] > self.timeout:
                            reap(wid, f"timeout after {self.timeout:.1f}s", now,
                                 kill=True)
                # 3. Detect crashed workers.
                for wid in list(workers):
                    state = workers[wid]
                    if not state["proc"].is_alive():
                        code = state["proc"].exitcode
                        reap(wid, f"worker died (exitcode {code})", now, kill=False)
                # 4. Release retries whose backoff has elapsed, then refill
                #    idle workers.
                if retry_later:
                    due = [t for ready_at, t in retry_later if ready_at <= now]
                    retry_later = [(r, t) for r, t in retry_later if r > now]
                    for t in due:
                        t.status = _QUEUED
                    ready.extend(due)
                dispatch(now)
        finally:
            for state in workers.values():
                try:
                    state["conn"].send(None)
                except (BrokenPipeError, OSError):  # pragma: no cover - dead worker
                    pass
            deadline = time.monotonic() + 5.0
            for state in workers.values():
                state["proc"].join(timeout=max(0.1, deadline - time.monotonic()))
                if state["proc"].is_alive():  # pragma: no cover - stuck worker
                    state["proc"].terminate()
                    state["proc"].join(timeout=1.0)
                state["conn"].close()
            results.close()
            shutil.rmtree(spill_dir, ignore_errors=True)

        return [outcomes[i] for i in range(len(tasks))]


def parallel_map(
    fn: Callable,
    items: Sequence[Any],
    *,
    workers: int | None = None,
    **kwargs,
) -> list[Any]:
    """One-shot convenience wrapper: values in order, raising on failure."""
    return ParallelMap(fn, workers=workers, **kwargs).map_values(items)
