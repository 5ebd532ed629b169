"""Process-pool benchmark: serial vs parallel sweeps + simulator hot path.

Three sections, one machine-readable report (``BENCH_parallel.json`` at the
repo root, like the other ``BENCH_*.json`` artifacts):

* ``sweep`` — a real multi-seed experiment sweep (``figure1``) through
  :func:`repro.harness.multirun.run_seeded`, serial vs ``--workers``
  processes.  CPU-bound: the speedup ceiling is the machine's core count,
  which the report records.  On a single-core runner the leg is marked
  ``skipped_single_core`` — pool overhead with no cores to overlap would
  read as a regression it isn't.
* ``io_bound`` — the same pool driving sleep-dominated tasks, isolating
  the orchestration overhead from the compute ceiling: even on one core
  the pool overlaps waiting, so this section demonstrates the dispatch
  machinery works at near-ideal speedup.
* ``sim_hotpath`` — ``IONetworkSimulator.step_second`` against the
  pre-optimisation per-task heap loop over held thread triples (the
  training-loop access pattern), asserting throughput values are
  bit-identical.  The two arms run in alternating order over several
  repeats and report median walls, so the gated ``speedup_vs_reference``
  does not hinge on one timing, or on which arm ran first, on a noisy
  host.
* ``fleet_steps`` — ``BatchedSimulator``, a container of scalar
  simulator columns, against standalone scalar simulators: a lockstep
  sub-run asserts bit-identical outputs, and the ``population`` arm
  steps 8 jittered fig5-read variants the way
  ``train_population(batched=True)`` does, timing the container against
  8 scalar loops, and gates on bit-identity and a ≥0.5× floor.

The report's top-level ``retired`` list names the gated keys of deleted
arms, each with its reason; ``automdt regress`` exempts them while they
stay missing.

Run standalone (what the CI ``bench-smoke`` job does)::

    PYTHONPATH=src python benchmarks/bench_parallel.py --quick

Exits 1 if parallel results diverge from serial, the simulator changes
any throughput value against the reference loop, or the batched simulator misses
bit-identity or its population floor; other speed numbers are reported,
not gated — they are hardware statements, not correctness ones.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Gated keys of arms this bench no longer runs (see ``automdt regress``).
RETIRED = [
    {
        "key": "fleet_steps.min_speedup",
        "reason": "the batch-1/16/64/256 arms measured BatchedSimulator's "
                  "superround engine, deleted once the burst-grouped scalar "
                  "event loop made it slower than per-column stepping",
    },
    {
        "key": "sim_hotpath.cache_speedup",
        "reason": "IONetworkSimulator's per-triple rate cache was deleted: "
                  "with the burst-grouped event loop its gain sat inside "
                  "run-to-run noise (median off/on 1.03, IQR 0.92-1.24 over "
                  "12 alternating pairs)",
    },
]


# ------------------------------------------------------------------ sections
def _sleep_task(seconds: float) -> float:
    time.sleep(seconds)
    return seconds


def bench_io_bound(*, tasks: int = 8, seconds: float = 0.25, workers: int = 4) -> dict:
    """Sleep-dominated tasks: pool overlap without a core-count ceiling."""
    from repro.parallel import ParallelMap

    items = [seconds] * tasks
    t0 = time.perf_counter()
    serial = ParallelMap(_sleep_task, workers=1).map_values(items)
    serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = ParallelMap(_sleep_task, workers=workers).map_values(items)
    parallel_s = time.perf_counter() - t0
    assert serial == parallel
    return {
        "tasks": tasks,
        "seconds_per_task": seconds,
        "workers": workers,
        "serial_wall_s": round(serial_s, 3),
        "parallel_wall_s": round(parallel_s, 3),
        "speedup": round(serial_s / parallel_s, 2),
        "ideal_speedup": min(workers, tasks),
    }


def bench_sweep(*, seeds: int = 10, workers: int = 4) -> dict:
    """Real experiment sweep (figure1 × seeds), serial vs process pool."""
    from repro.harness.experiments import experiment_figure1
    from repro.harness.multirun import run_seeded

    seed_list = list(range(seeds))
    t0 = time.perf_counter()
    serial = run_seeded(experiment_figure1, seed_list, workers=1)
    serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = run_seeded(experiment_figure1, seed_list, workers=workers)
    parallel_s = time.perf_counter() - t0
    identical = serial.stats == parallel.stats
    return {
        "experiment": "figure1",
        "seeds": seeds,
        "workers": workers,
        "serial_wall_s": round(serial_s, 3),
        "parallel_wall_s": round(parallel_s, 3),
        "speedup": round(serial_s / parallel_s, 2),
        "aggregates_identical": identical,
    }


def _make_reference_simulator(config):
    """The pre-optimisation ``step_second`` as a benchmark baseline.

    Replicates the original loop — per-task heap entries, heapify,
    list-indexed accumulators, ``len()``-tracked queue peak — so the
    hot-path section measures before/after.
    """
    import heapq

    from repro.simulator.core import (
        _NETWORK,
        _READ,
        _WRITE,
        IONetworkSimulator,
        StageMetrics,
    )
    from repro.utils.units import bytes_per_sec_to_mbps, mbps_to_bytes_per_sec

    class ReferenceSimulator(IONetworkSimulator):
        def step_second(self, threads):
            cfg = self.config
            n = self._clamp_threads(threads)
            rates = [
                mbps_to_bytes_per_sec(min(tpt, bw / n_i))
                for tpt, bw, n_i in zip(cfg.tpt, cfg.bandwidth, n)
            ]
            chunks = [
                max(cfg.min_chunk_bytes, rate * cfg.chunk_seconds) for rate in rates
            ]
            horizon, eps, overhead = cfg.duration, cfg.epsilon, cfg.task_overhead
            sender_cap = cfg.sender_buffer_capacity
            receiver_cap = cfg.receiver_buffer_capacity
            sender, receiver = self._sender_usage, self._receiver_usage
            bytes_moved = [0.0, 0.0, 0.0]
            last_finish = [0.0, 0.0, 0.0]
            blocked_retries = 0
            queue_peak = 0
            queue = []
            seq = 0
            for stage in (_READ, _NETWORK, _WRITE):
                for _ in range(n[stage]):
                    queue.append((0.0, seq, stage))
                    seq += 1
            heapq.heapify(queue)
            while queue:
                if len(queue) > queue_peak:
                    queue_peak = len(queue)
                t, _, stage = heapq.heappop(queue)
                amount = 0.0
                if stage == _READ:
                    free = sender_cap - sender
                    if free > 0.0:
                        amount = min(chunks[_READ], free)
                        sender += amount
                elif stage == _NETWORK:
                    free = receiver_cap - receiver
                    if sender > 0.0 and free > 0.0:
                        amount = min(chunks[_NETWORK], sender, free)
                        sender -= amount
                        receiver += amount
                else:
                    if receiver > 0.0:
                        amount = min(chunks[_WRITE], receiver)
                        receiver -= amount
                if amount > 0.0:
                    d_task = amount / rates[stage]
                    bytes_moved[stage] += amount
                    finish = t + d_task
                    if finish > last_finish[stage]:
                        last_finish[stage] = finish
                    t_next = t + d_task + overhead
                else:
                    blocked_retries += 1
                    t_next = t + eps
                if t_next < horizon:
                    heapq.heappush(queue, (t_next, seq, stage))
                    seq += 1
            throughputs = [
                bytes_per_sec_to_mbps(bytes_moved[s] / max(horizon, last_finish[s]))
                for s in range(3)
            ]
            self._sender_usage, self._receiver_usage = sender, receiver
            self._elapsed += horizon
            self.last_blocked_retries = blocked_retries
            self.last_queue_peak = queue_peak
            return StageMetrics(
                throughput_read=throughputs[_READ],
                throughput_network=throughputs[_NETWORK],
                throughput_write=throughputs[_WRITE],
                sender_usage=sender,
                receiver_usage=receiver,
                sender_free=sender_cap - sender,
                receiver_free=receiver_cap - receiver,
                threads=n,
            )

    return ReferenceSimulator(config)


def bench_sim_hotpath(*, steps: int = 2000, held_triples: int = 8,
                      repeats: int = 5) -> dict:
    """step_second: pre-optimisation baseline vs the event-loop kernel.

    After one warm-up pass per arm, ``repeats`` rounds time every arm once,
    in forward order on even rounds and reverse order on odd ones; walls
    are the medians over the rounds.
    """
    from repro.simulator.config import SimulatorConfig
    from repro.simulator.core import IONetworkSimulator

    config = SimulatorConfig(
        tpt_read=80.0, tpt_network=160.0, tpt_write=200.0,
        bandwidth_read=1000.0, bandwidth_network=1000.0, bandwidth_write=1000.0,
        max_threads=20, label="bench-parallel",
    )
    rng = np.random.default_rng(0)
    base = [tuple(int(v) for v in rng.integers(1, 21, 3)) for _ in range(held_triples)]
    sequence = (base * (steps // held_triples + 1))[:steps]

    def run(make) -> tuple[float, list]:
        sim = make()
        outputs = []
        t0 = time.perf_counter()
        for triple in sequence:
            outputs.append(sim.step_second(triple).throughputs)
        return time.perf_counter() - t0, outputs

    arms = {
        "reference": lambda: _make_reference_simulator(config),
        "simulator": lambda: IONetworkSimulator(config),
    }
    for make in arms.values():  # warm-up pass per arm
        run(make)
    samples: dict[str, list[float]] = {name: [] for name in arms}
    outs = {}
    for rnd in range(repeats):
        order = list(arms) if rnd % 2 == 0 else list(reversed(arms))
        for name in order:
            wall, outs[name] = run(arms[name])
            samples[name].append(wall)
    walls = {name: statistics.median(times) for name, times in samples.items()}
    return {
        "steps": steps,
        "held_triples": held_triples,
        "repeats": repeats,
        "reference_wall_s": round(walls["reference"], 3),
        "simulator_wall_s": round(walls["simulator"], 3),
        "speedup_vs_reference": round(walls["reference"] / walls["simulator"], 2),
        "throughput_identical": outs["reference"] == outs["simulator"],
    }


def bench_fleet_steps(*, check_steps: int = 12, population_episodes: int = 12) -> dict:
    """``BatchedSimulator`` against one scalar simulator per column.

    A lockstep sub-run in the paper's thread-throttled operating point
    (per-thread bandwidth share above the stage throttle for every stage)
    steps 16 columns and their scalar oracles through one schedule and
    requires every column bit-identical.  The ``population`` arm
    (:func:`bench_population_steps`) times the regime the batched
    simulator's one production consumer, population training, runs in.
    Each column is an ``IONetworkSimulator`` taking its own uninstrumented
    step, so there is no vectorization speedup to gate.
    """
    from repro.simulator.batch import BatchedSimulator
    from repro.simulator.config import SimulatorConfig
    from repro.simulator.core import IONetworkSimulator

    config = SimulatorConfig(
        tpt_read=100.0, tpt_network=100.0, tpt_write=100.0,
        bandwidth_read=3000.0, bandwidth_network=2800.0, bandwidth_write=2600.0,
        max_threads=26, label="bench-fleet",
    )
    check_batch = 16
    rng = np.random.default_rng(3)
    batched = BatchedSimulator(config, check_batch)
    scalars = [IONetworkSimulator(config) for _ in range(check_batch)]
    identical = True
    for _ in range(check_steps):
        threads = rng.integers(20, 27, (check_batch, 3))
        got = batched.step_second(threads)
        for i, sim in enumerate(scalars):
            want = sim.step_second(tuple(int(v) for v in threads[i]))
            identical = identical and got[i] == want
    return {
        "outputs_identical": identical,
        "population": bench_population_steps(episodes=population_episodes),
    }


def bench_population_steps(*, episodes: int, members: int = 8, repeats: int = 3,
                           min_speedup: float = 0.5) -> dict:
    """The population regime: jittered variants vs one scalar loop each.

    ``train_population(batched=True)`` steps K fig5-read variants whose
    ±20 % rate jitter (``sample_scenario``'s) gives every column its own
    cadence.  Each episode resets every column to a random buffer fill
    and steps a random thread triple (``BatchedEnv.reset_all``), then
    takes ten steps (``step_all``).  Both arms replay one pre-drawn
    schedule; ``speedup`` is the K scalar loops' best wall over the
    container's.  Both arms run the same scalar step per column (the
    container through ``IONetworkSimulator.advance``, the loops through
    ``step_second``) and return the same ``StageMetrics`` objects, so the
    ratio prices only the container's own bookkeeping: its diagnostic
    arrays and deferred telemetry counts.  Gated: every column
    bit-identical to its scalar oracle, and ``speedup`` at least
    ``min_speedup``.
    """
    from dataclasses import replace

    from repro.emulator.presets import fig5_read_bottleneck
    from repro.simulator import simulator_config_from_testbed
    from repro.simulator.batch import BatchedSimulator
    from repro.simulator.core import IONetworkSimulator

    rng = np.random.default_rng(11)
    base = simulator_config_from_testbed(fig5_read_bottleneck())
    rates = ("tpt_read", "tpt_network", "tpt_write",
             "bandwidth_read", "bandwidth_network", "bandwidth_write")
    # The jitter is drawn as python floats: numpy-scalar rates would slow
    # the scalar arm's event loop ~1.5x and inflate the speedup.
    variants = [
        replace(base, **{name: getattr(base, name) * f
                         for name, f in zip(rates, rng.uniform(0.8, 1.2, 6).tolist())})
        for _ in range(members)
    ]
    caps = (base.sender_buffer_capacity, base.receiver_buffer_capacity)
    schedule = []
    for _ in range(episodes):
        fills = (rng.uniform(0.0, 0.5, members) * caps[0],
                 rng.uniform(0.0, 0.5, members) * caps[1])
        threads = [rng.integers(1, base.max_threads + 1, (members, 3))
                   for _ in range(11)]
        triples = [[tuple(row) for row in t.tolist()] for t in threads]
        schedule.append((fills, threads, triples))

    def run_batched() -> tuple[float, list]:
        sim = BatchedSimulator(variants)
        outputs = []
        t0 = time.perf_counter()
        for (snd, rcv), threads, _ in schedule:
            sim.reset(sender_usage=snd, receiver_usage=rcv)
            for step in threads:
                outputs.append(sim.step_second(step))
        return time.perf_counter() - t0, outputs

    def run_scalar() -> tuple[float, list]:
        sims = [IONetworkSimulator(c) for c in variants]
        outputs = []
        t0 = time.perf_counter()
        for (snd, rcv), _, triples in schedule:
            for i, sim in enumerate(sims):
                sim.reset(sender_usage=float(snd[i]), receiver_usage=float(rcv[i]))
            for step in triples:
                outputs.append([sim.step_second(t) for sim, t in zip(sims, step)])
        return time.perf_counter() - t0, outputs

    batched_walls, scalar_walls = [], []
    for _ in range(repeats):  # interleaved, best of each
        wall, batched_out = run_batched()
        batched_walls.append(wall)
        wall, scalar_out = run_scalar()
        scalar_walls.append(wall)
    identical = batched_out == scalar_out
    speedup = min(scalar_walls) / min(batched_walls)
    return {
        "members": members,
        "episodes": episodes,
        "steps": 11 * episodes,
        "batched_wall_s": round(min(batched_walls), 4),
        "scalar_wall_s": round(min(scalar_walls), 4),
        "speedup": round(speedup, 2),
        "outputs_identical": identical,
        "min_speedup": min_speedup,
        "meets_floor": speedup >= min_speedup,
    }


# ------------------------------------------------------------------- report
def run_bench(*, quick: bool = False, workers: int = 4,
              out: str | Path | None = None) -> dict:
    from repro.parallel import available_workers

    cores = available_workers()
    if cores < 2:
        # A serial-vs-parallel wall-clock comparison on one core can only
        # show pool overhead (~0.8×), which reads as a regression it isn't.
        # Skip the leg honestly rather than publishing a misleading number.
        sweep: dict = {
            "experiment": "figure1",
            "status": "skipped_single_core",
            "cpu_count": cores,
        }
    else:
        sweep = bench_sweep(seeds=4 if quick else 10, workers=workers)
    report = {
        "bench": "parallel",
        "schema": 1,
        "retired": RETIRED,
        "cpu_count": cores,
        "quick": quick,
        "sweep": sweep,
        "io_bound": bench_io_bound(
            tasks=4 if quick else 8,
            seconds=0.2 if quick else 0.25,
            workers=workers,
        ),
        "sim_hotpath": bench_sim_hotpath(
            steps=800 if quick else 2000, repeats=5 if quick else 9
        ),
        "fleet_steps": bench_fleet_steps(population_episodes=4 if quick else 12),
    }
    sweep_ok = sweep.get("status") == "skipped_single_core" or sweep["aggregates_identical"]
    fleet = report["fleet_steps"]
    population = fleet["population"]
    report["ok"] = bool(
        sweep_ok
        and report["sim_hotpath"]["throughput_identical"]
        and fleet["outputs_identical"]
        and population["outputs_identical"]
        and population["meets_floor"]
    )
    out = Path(out) if out is not None else REPO_ROOT / "BENCH_parallel.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    report["out"] = str(out)

    from repro.obs.store import record_bench_report

    record_bench_report(report, path=out)
    return report


def test_parallel_bench_quick(tmp_path):
    """Pytest entry: quick-mode correctness gates must hold."""
    report = run_bench(quick=True, workers=2, out=tmp_path / "BENCH_parallel.json")
    assert report["ok"], report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="smaller budgets (CI smoke)")
    parser.add_argument("--workers", type=int, default=4, help="pool size for the sweeps")
    parser.add_argument("--out", default=None, help="report path (default: repo root)")
    parser.add_argument("--store", default=None,
                        help="append the report to this results store (also $AUTOMDT_STORE)")
    args = parser.parse_args(argv)
    if args.store:
        from repro.obs.store import set_default_store

        set_default_store(args.store)
    report = run_bench(quick=args.quick, workers=args.workers, out=args.out)
    print(json.dumps(report, indent=2))
    if not report["ok"]:
        print("FAIL: results diverged from serial or the batched simulator "
              "missed an identity/speedup gate", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
