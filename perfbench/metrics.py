"""Metric definitions and the run-level aggregation of worker results.

End-to-end metrics are measured with tracing off; per-layer metrics come
from the traced run.  ``BENCHMARK.json`` lists the same names, units and
bounds (a test keeps the two in step).
"""

from __future__ import annotations

import math
import re
import statistics
from collections import defaultdict

#: name → (unit, better, bound as a share of the parent's median).
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "cpu_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "setup_s": ("s", "lower", 0.25),
    "goodput_mbps": ("Mbps", "higher", 0.15),
}

#: name → (unit, better).  Layers a workload does not run report 0.
PER_LAYER = {
    "simulator.calls": ("count", "lower"),
    "simulator.self_s": ("s", "lower"),
    "simulator.share": ("fraction", "lower"),
    "simulator.blocked_retries": ("count", "lower"),
    "simulator_batch.calls": ("count", "lower"),
    "simulator_batch.column_steps": ("count", "lower"),
    "simulator_batch.self_s": ("s", "lower"),
    "simulator_batch.share": ("fraction", "lower"),
    "env.calls": ("count", "lower"),
    "env.self_s": ("s", "lower"),
    "ppo.act_calls": ("count", "lower"),
    "ppo.act_self_s": ("s", "lower"),
    "ppo.act_p50_us": ("us", "lower"),
    "ppo.act_tail_us": ("us", "lower"),
    "ppo.act_tail_pct": ("percentile", "higher"),
    "ppo.update_calls": ("count", "lower"),
    "ppo.update_self_s": ("s", "lower"),
    "ppo.update_share": ("fraction", "lower"),
    "stacked.build_s": ("s", "lower"),
    "stacked.act_self_s": ("s", "lower"),
    "stacked.update_calls": ("count", "lower"),
    "stacked.update_self_s": ("s", "lower"),
    "stacked.share": ("fraction", "lower"),
    "exploration.self_s": ("s", "lower"),
    "production.calls": ("count", "lower"),
    "production.self_s": ("s", "lower"),
    "production.p50_us": ("us", "lower"),
    "production.tail_us": ("us", "lower"),
    "production.tail_pct": ("percentile", "higher"),
    "emulator.calls": ("count", "lower"),
    "emulator.self_s": ("s", "lower"),
    "emulator.share": ("fraction", "lower"),
    "engine.runs": ("count", "lower"),
    "engine.self_s": ("s", "lower"),
    "supervisor.runs": ("count", "lower"),
    "supervisor.self_s": ("s", "lower"),
    "supervisor.incidents": ("count", "lower"),
    "integrity.manifest_s": ("s", "lower"),
    "integrity.sync_calls": ("count", "lower"),
    "integrity.sync_self_s": ("s", "lower"),
    "integrity.verify_self_s": ("s", "lower"),
    "integrity.replay_calls": ("count", "lower"),
    "integrity.replay_self_s": ("s", "lower"),
    "integrity.flush_calls": ("count", "lower"),
    "integrity.self_s": ("s", "lower"),
    "integrity.share": ("fraction", "lower"),
    "integrity.chunks": ("count", "higher"),
    "integrity.chunks_resent": ("count", "lower"),
    "integrity.useful_ratio": ("ratio", "higher"),
    "adapt.calls": ("count", "lower"),
    "adapt.self_s": ("s", "lower"),
    "adapt.share": ("fraction", "lower"),
    "adapt.promotions": ("count", "higher"),
    "adapt.rollbacks": ("count", "lower"),
    "fleet.rounds": ("count", "lower"),
    "fleet.slices": ("count", "lower"),
    "fleet.self_s": ("s", "lower"),
    "fleet.share": ("fraction", "lower"),
    "fleet.slice_self_s": ("s", "lower"),
    "fleet.incidents": ("count", "lower"),
    "fleet.retries": ("count", "lower"),
    "fleet.breaker_opens": ("count", "lower"),
    "fleet.preemptions": ("count", "lower"),
    "fleet.admit_lag_p50_s": ("s", "lower"),
    "fleet.dispatch_wait_p50_s": ("s", "lower"),
    "eval_reward": ("reward/episode", "higher"),
    "sojourn_p50_s": ("s", "lower"),
    "sojourn_p90_s": ("s", "lower"),
    "sojourn_requests": ("count", "higher"),
    "untraced.share": ("fraction", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: Percentiles tried, highest first, for a latency tail.
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)


def tail_percentile(count: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it."""
    for pct in TAIL_LADDER:
        if count * (100.0 - pct) / 100.0 >= 10.0:
            return pct
    return 50.0


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile (numpy's default); 0.0 when empty."""
    data = sorted(values)
    if not data:
        return 0.0
    rank = (len(data) - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (rank - lo)


def by_input(results: list[dict]) -> dict[int, list[dict]]:
    """Worker results grouped by input index, in run order."""
    groups: dict[int, list[dict]] = defaultdict(list)
    for result in results:
        groups[result["index"]].append(result)
    return dict(sorted(groups.items()))


def consistency_failures(results: list[dict]) -> list[str]:
    """Checks that failed, and inputs whose repeats disagree."""
    failures = []
    for result in results:
        for check, ok in result["checks"].items():
            if not ok:
                failures.append(f"input {result['index']}: {check}")
    for index, reps in by_input(results).items():
        first = reps[0]
        for rep in reps[1:]:
            for key in ("fingerprint", "work", "goodput", "virtual"):
                if rep[key] != first[key]:
                    failures.append(f"input {index}: repeats differ in {key}")
    return failures


def end_to_end(results: list[dict]) -> dict[str, float]:
    """Per-input timings averaged over the inputs; medians; pooled goodput.

    An input's wall and CPU time is the minimum over its repetitions: they
    do identical work, and other tenants of a shared host only ever slow a
    repetition down.  The mean over inputs then averages out how much work
    each seed-drawn input happens to carry.
    """
    groups = by_input(results).values()
    goodput_num = sum(reps[0]["goodput"][0] for reps in groups)
    goodput_den = sum(reps[0]["goodput"][1] for reps in groups)
    return {
        "wall_s": statistics.fmean(min(r["wall_s"] for r in reps) for reps in groups),
        "cpu_s": statistics.fmean(min(r["cpu_s"] for r in reps) for reps in groups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "goodput_mbps": goodput_num / goodput_den if goodput_den > 0 else 0.0,
    }


def virtual(results: list[dict]) -> dict[str, float]:
    """Workload-specific virtual-clock metrics, pooled over the run's inputs."""
    firsts = [reps[0]["virtual"] for reps in by_input(results).values()]
    rewards = [v["eval_reward"] for v in firsts if "eval_reward" in v]
    sojourn = [s for v in firsts for s in v.get("sojourn_s", [])]
    finished = [math.inf if s is None else s for s in sojourn]
    return {
        "eval_reward": statistics.fmean(rewards) if rewards else 0.0,
        "sojourn_p50_s": percentile(finished, 50.0) if finished else 0.0,
        "sojourn_p90_s": percentile(finished, 90.0) if finished else 0.0,
        "sojourn_requests": float(len(finished)),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Per-layer metrics from the traced workers, one per input.

    ``untraced`` holds the same inputs' untraced repetitions, the base of
    ``trace.overhead_ratio``.
    """
    wall = sum(r["wall_s"] for r in traced)
    base = sum(r["wall_s"] for r in untraced)
    layers: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    counters: dict[str, float] = defaultdict(float)
    latencies: dict[str, list[float]] = defaultdict(list)
    fleet: dict[str, float] = defaultdict(float)
    admit_lag: list[float] = []
    dispatch_wait: list[float] = []
    top_level = 0.0
    for result in traced:
        trace = result["trace"]
        for layer, entry in trace["layers"].items():
            layers[layer]["calls"] += entry["calls"]
            layers[layer]["self_s"] += entry["self_s"]
        for name, value in trace["counters"].items():
            counters[name] += value
        for layer, values in trace["latencies_us"].items():
            latencies[layer].extend(values)
        top_level += trace["top_level_s"]
        for name, value in result["virtual"].get("fleet", {}).items():
            fleet[name] += value
        admit_lag.extend(result["virtual"].get("admit_lag_s", []))
        dispatch_wait.extend(result["virtual"].get("dispatch_wait_s", []))

    def calls(layer: str) -> float:
        return float(layers[layer]["calls"])

    def own(*names: str) -> float:
        return sum(layers[name]["self_s"] for name in names)

    def share(*names: str) -> float:
        return own(*names) / wall if wall > 0 else 0.0

    def latency(layer: str) -> tuple[float, float, float]:
        values = latencies[layer]
        pct = tail_percentile(len(values)) if values else 0.0
        return percentile(values, 50.0), percentile(values, pct), pct

    act_p50, act_tail, act_pct = latency("ppo.act")
    prod_p50, prod_tail, prod_pct = latency("production")
    integrity = (
        "integrity.manifest", "integrity.sync", "integrity.verify",
        "integrity.replay", "integrity.flush", "integrity.run",
    )
    chunks = counters["integrity.chunks"]
    sends = counters["integrity.sends"]
    return {
        "simulator.calls": calls("simulator"),
        "simulator.self_s": own("simulator"),
        "simulator.share": share("simulator"),
        "simulator.blocked_retries": counters["simulator.blocked_retries"],
        "simulator_batch.calls": calls("simulator_batch"),
        "simulator_batch.column_steps": counters["simulator_batch.column_steps"],
        "simulator_batch.self_s": own("simulator_batch"),
        "simulator_batch.share": share("simulator_batch"),
        "env.calls": calls("env"),
        "env.self_s": own("env"),
        "ppo.act_calls": calls("ppo.act"),
        "ppo.act_self_s": own("ppo.act"),
        "ppo.act_p50_us": act_p50,
        "ppo.act_tail_us": act_tail,
        "ppo.act_tail_pct": act_pct,
        "ppo.update_calls": calls("ppo.update"),
        "ppo.update_self_s": own("ppo.update"),
        "ppo.update_share": share("ppo.update"),
        "stacked.build_s": own("stacked.build"),
        "stacked.act_self_s": own("stacked.act"),
        "stacked.update_calls": calls("stacked.update"),
        "stacked.update_self_s": own("stacked.update"),
        "stacked.share": share("stacked.build", "stacked.act", "stacked.update"),
        "exploration.self_s": own("exploration"),
        "production.calls": calls("production"),
        "production.self_s": own("production"),
        "production.p50_us": prod_p50,
        "production.tail_us": prod_tail,
        "production.tail_pct": prod_pct,
        "emulator.calls": calls("emulator"),
        "emulator.self_s": own("emulator"),
        "emulator.share": share("emulator"),
        "engine.runs": calls("engine"),
        "engine.self_s": own("engine"),
        "supervisor.runs": calls("supervisor"),
        "supervisor.self_s": own("supervisor"),
        "supervisor.incidents": counters["supervisor.incidents"],
        "integrity.manifest_s": own("integrity.manifest"),
        "integrity.sync_calls": calls("integrity.sync"),
        "integrity.sync_self_s": own("integrity.sync"),
        "integrity.verify_self_s": own("integrity.verify"),
        "integrity.replay_calls": calls("integrity.replay"),
        "integrity.replay_self_s": own("integrity.replay"),
        "integrity.flush_calls": calls("integrity.flush"),
        "integrity.self_s": own(*integrity),
        "integrity.share": share(*integrity),
        "integrity.chunks": chunks,
        "integrity.chunks_resent": sends - chunks,
        "integrity.useful_ratio": chunks / sends if sends > 0 else 0.0,
        "adapt.calls": calls("adapt"),
        "adapt.self_s": own("adapt"),
        "adapt.share": share("adapt"),
        "adapt.promotions": counters["adapt.promotions"],
        "adapt.rollbacks": counters["adapt.rollbacks"],
        "fleet.rounds": fleet["rounds"],
        "fleet.slices": fleet["slices"],
        "fleet.self_s": own("fleet"),
        "fleet.share": share("fleet"),
        "fleet.slice_self_s": own("fleet.slice"),
        "fleet.incidents": fleet["incidents"],
        "fleet.retries": fleet["retries"],
        "fleet.breaker_opens": fleet["breaker_opens"],
        "fleet.preemptions": fleet["preemptions"],
        "fleet.admit_lag_p50_s": percentile(admit_lag, 50.0),
        "fleet.dispatch_wait_p50_s": percentile(dispatch_wait, 50.0),
        **virtual(traced),
        "untraced.share": (wall - top_level) / wall if wall > 0 else 0.0,
        "trace.overhead_ratio": wall / base if base > 0 else 0.0,
    }
