"""One repetition of one workload input, in a fresh process.

Started by :mod:`perfbench.run` as::

    python3 -m perfbench.worker --workload W --seed S --index I --size full \
        --spawned-at <monotonic> --work-dir DIR --out result.json [--trace-out spans.json]

It sets up the input, times the measured phase (wall and process CPU), then,
untimed, checks and summarizes the outputs, and writes one JSON result.  With
``--trace-out`` the layer entry points are wrapped by a span recorder that
records during the measured phase only.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args(argv)

    import repro

    source = Path(repro.__file__).resolve()
    root = Path(__file__).resolve().parents[1]
    if root / "src" not in source.parents:
        print(f"repro imported from {source}, not from {root / 'src'}", file=sys.stderr)
        return 2

    from perfbench.workloads import WORKLOADS

    recorder = None
    if args.trace_out is not None:
        from perfbench.trace import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()

    workload = WORKLOADS[args.workload](args.seed, args.index, args.size, args.work_dir)

    setup_s = time.monotonic() - args.spawned_at
    if recorder is not None:
        recorder.enabled = True
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    outputs = workload.measure()
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    if recorder is not None:
        recorder.enabled = False
        recorder.uninstall()

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "index": args.index,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        **workload.summarize(outputs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder is not None:
        from perfbench.trace import layer_summary

        result["trace"] = layer_summary(recorder)
        recorder.dump(args.trace_out, wall0)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
