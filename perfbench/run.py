"""Run one perfbench workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pipeline_table1 --seed 1 --seconds 30 --trace 0

Each repetition runs in a fresh worker process with BLAS pinned to one
thread, its own temp/run/artifact directories and no results store.  A run
cycles over the workload's distinct inputs (all drawn from ``--seed``) and
repeats whole cycles while the next one is expected to finish within
``--seconds``; every input runs at least once.  With ``--trace 1`` it runs
the first ``TRACED_INPUTS`` inputs once untraced and once traced, and
reports the per-layer metrics; the traced repetition must reproduce the
untraced one's outputs exactly, as every repeat of an input must.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name → value and unit).  The exit
status is 0 when every check passed, 1 when one failed, 2 when the program's
sources are missing or the arguments are invalid.

Default seed: 1.  Held-out seed for confirming a claimed gain: 104729.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import metrics  # noqa: E402

#: Distinct inputs per run, drawn from the seed and cycled, so that a run
#: both averages over inputs and repeats each one within ``--seconds``.
INPUTS = {"pipeline_table1": 3, "population": 4, "fleet_chaos": 5}
DEFAULT_SEED = 1
HELD_OUT_SEED = 104729
BUILD = ROOT / ".bench_build" / "perfbench"
#: Inputs a traced run covers, each once untraced and once traced; two keep
#: it well inside the time limit on a slow host.
TRACED_INPUTS = 2
#: No cycle starts after this many seconds, so a run ends within 180 s.
LAST_START_S = 120.0
WORKER_TIMEOUT_S = 170.0


def worker_env(tmp: Path) -> dict[str, str]:
    """Single-threaded, isolated environment for one worker process."""
    env = {k: v for k, v in os.environ.items() if k != "AUTOMDT_STORE"}
    env.update({
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        "PYTHONPYCACHEPREFIX": str(BUILD / "pycache"),
        "PYTHONHASHSEED": "0",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "NUMEXPR_NUM_THREADS": "1",
        "VECLIB_MAXIMUM_THREADS": "1",
        "TMPDIR": str(tmp),
        "REPRO_ARTIFACTS": str(tmp / "artifacts"),
    })
    return env


def compile_sources() -> None:
    """Byte-compile the program and the benchmark before any timed run."""
    BUILD.mkdir(parents=True, exist_ok=True)
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(ROOT / "perfbench")],
        env=worker_env(BUILD), check=True, stdout=subprocess.DEVNULL,
    )


class Runner:
    """Spawns worker repetitions for one (workload, seed) and collects results."""

    def __init__(self, workload: str, seed: int, size: str, run_dir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.size = size
        self.run_dir = run_dir
        self.started = time.monotonic()
        self.crashes = 0
        self.count = 0

    def spawn(self, index: int, *, traced: bool = False) -> dict | None:
        """One repetition of input ``index``; None when the worker failed."""
        self.count += 1
        rep_dir = self.run_dir / f"rep{self.count:03d}"
        tmp = rep_dir / "tmp"
        tmp.mkdir(parents=True)
        out = rep_dir / "result.json"
        command = [
            sys.executable, "-m", "perfbench.worker",
            "--workload", self.workload, "--seed", str(self.seed),
            "--index", str(index), "--size", self.size,
            "--work-dir", str(rep_dir / "work"), "--out", str(out),
        ]
        if traced:
            trace_file = BUILD / "traces" / f"{self.workload}-seed{self.seed}-input{index}.json"
            command += ["--trace-out", str(trace_file)]
        remaining = WORKER_TIMEOUT_S - (time.monotonic() - self.started)
        try:
            proc = subprocess.run(
                command + ["--spawned-at", repr(time.monotonic())],
                cwd=ROOT, env=worker_env(tmp), timeout=max(remaining, 1.0),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
        except subprocess.TimeoutExpired:
            print(f"worker for input {index} timed out", file=sys.stderr)
            self.crashes += 1
            return None
        if proc.returncode != 0 or not out.exists():
            sys.stderr.write(proc.stdout + proc.stderr)
            print(f"worker for input {index} exited {proc.returncode}", file=sys.stderr)
            self.crashes += 1
            return None
        return json.loads(out.read_text())

    def cycle(self, inputs: int, *, traced: bool = False) -> list[dict]:
        results = [self.spawn(index, traced=traced) for index in range(inputs)]
        return [r for r in results if r is not None]

    def timed(self, seconds: float) -> list[dict]:
        """Whole cycles over the inputs while the next one fits in ``seconds``.

        Only whole cycles run, so every input of a run has as many
        repetitions as every other, however fast the host happens to be.
        """
        inputs = INPUTS[self.workload]
        results = self.cycle(inputs)
        while not self.crashes:
            elapsed = time.monotonic() - self.started
            if elapsed * (1 + 1 / (self.count // inputs)) > min(seconds, LAST_START_S):
                break
            results += self.cycle(inputs)
        return results


def report(metric_values: dict[str, float], units: dict[str, str], *, correct: bool,
           attempted: int, failed: int) -> str:
    def number(value: float) -> float | None:
        return value if math.isfinite(value) else None  # only when a check failed

    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": number(metric_values[name]), "unit": units[name]}
            for name in units
        },
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(INPUTS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the same code on toy inputs (tests)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    compile_sources()
    run_dir = BUILD / "runs" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    runner = Runner(args.workload, args.seed, args.size, run_dir)
    try:
        if args.trace:
            inputs = min(INPUTS[args.workload], TRACED_INPUTS)
            untraced = runner.cycle(inputs)
            traced = runner.cycle(inputs, traced=True)
            results = untraced + traced
        else:
            results = runner.timed(args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failures = metrics.consistency_failures(results)
    failures += [f"{runner.crashes} worker(s) failed"] if runner.crashes else []
    attempted = sum(r["ops"] for r in results) + runner.crashes
    failed = sum(r["ops_failed"] for r in results) + runner.crashes

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"repetitions={len(results)} inputs={len(metrics.by_input(results))}")
    for index, reps in metrics.by_input(results).items():
        walls = " ".join(f"{r['wall_s']:.3f}" for r in reps)
        print(f"  input {index}: fingerprint {reps[0]['fingerprint']} "
              f"ops {reps[0]['ops']} failed {reps[0]['ops_failed']} "
              f"work {json.dumps(reps[0]['work'], sort_keys=True)} wall_s [{walls}]")
    for failure in failures:
        print(f"  CHECK FAILED: {failure}")
    if not results:
        return 1

    if args.trace:
        values = metrics.per_layer(traced, untraced)
        units = {name: unit for name, (unit, _) in metrics.PER_LAYER.items()}
    else:
        values = metrics.end_to_end(results)
        units = {name: unit for name, (unit, _, _) in metrics.END_TO_END.items()}
        for name, value in metrics.virtual(results).items():
            print(f"  {name:<28} {value:>14.6g} {metrics.PER_LAYER[name][0]} (virtual)")
    for name, unit in units.items():
        print(f"  {name:<28} {values[name]:>14.6g} {unit}")
    correct = not failures
    print(report(values, units, correct=correct, attempted=attempted, failed=failed))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
