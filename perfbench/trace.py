"""Span recorder for the traced run, and the per-layer metrics built from it.

The recorder wraps each layer's public entry points (:data:`ENTRY_POINTS`)
from outside the program, inside the traced worker process only.  A span is
``(layer, start, end, parent)``; spans stay in memory during the measured
phase and are written out when the worker exits.  A layer's self time is its
span's duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict
from pathlib import Path


def _blocked_retries(recorder, obj, result) -> None:
    recorder.counters["simulator.blocked_retries"] += int(obj.last_blocked_retries)


def _column_steps(recorder, obj, result) -> None:
    recorder.counters["simulator_batch.column_steps"] += int(obj.batch)


def _supervisor_incidents(recorder, obj, result) -> None:
    if result is not None:
        recorder.counters["supervisor.incidents"] += sum(
            attempt.outcome == "stalled" for attempt in result.attempts
        )


def _keep(kind: str):
    def keep(recorder, obj, result) -> None:
        recorder.instances[kind][id(obj)] = obj

    return keep


#: (module, attribute path, layer, hook).  The hook runs after every traced
#: call with (recorder, self, result); ``result`` is None when the call raised
#: (fleet slices end by exception at every quantum boundary).
#: ``run_exploration`` is patched where ``AutoMDT.explore`` looks it up.
ENTRY_POINTS = (
    ("repro.simulator.core", "IONetworkSimulator.step_second", "simulator", _blocked_retries),
    ("repro.simulator.batch", "BatchedSimulator.step_second", "simulator_batch", _column_steps),
    ("repro.core.env", "SimulatorEnv.step", "env", None),
    ("repro.core.env", "SimulatorEnv.reset", "env", None),
    ("repro.core.batched_env", "BatchedEnv.step_all", "env", None),
    ("repro.core.batched_env", "BatchedEnv.reset_all", "env", None),
    ("repro.core.ppo", "PPOAgent.act", "ppo.act", None),
    ("repro.core.ppo", "PPOAgent.update", "ppo.update", None),
    ("repro.nn.stacked", "StackedPPOAgent.__init__", "stacked.build", None),
    ("repro.nn.stacked", "StackedPPOAgent.act_all", "stacked.act", None),
    ("repro.nn.stacked", "StackedPPOAgent.update_all", "stacked.update", None),
    ("repro.core.agent", "run_exploration", "exploration", None),
    ("repro.core.production", "AutoMDTController.propose", "production", None),
    ("repro.emulator.testbed", "Testbed.advance", "emulator", None),
    ("repro.transfer.engine", "ModularTransferEngine.run", "engine", None),
    ("repro.transfer.supervisor", "TransferSupervisor.run", "supervisor", _supervisor_incidents),
    ("repro.transfer.integrity", "TransferManifest.from_dataset", "integrity.manifest", None),
    ("repro.transfer.integrity", "DestinationLedger.sync", "integrity.sync", None),
    ("repro.transfer.integrity", "DestinationLedger.verify", "integrity.verify", None),
    ("repro.transfer.integrity", "ChunkJournal.replay", "integrity.replay", None),
    ("repro.transfer.integrity", "ChunkJournal.flush", "integrity.flush", None),
    ("repro.transfer.integrity", "VerifiedTransfer.run", "integrity.run", _keep("ledger_owner")),
    ("repro.adapt.controller", "AdaptiveController.propose", "adapt", _keep("adaptive")),
    ("repro.fleet.scheduler", "FleetScheduler.run", "fleet", None),
    ("repro.fleet.job", "FleetJob.run_slice", "fleet.slice", None),
)

#: Layers whose per-call latency distribution is reported.
LATENCY_LAYERS = ("ppo.act", "production")


class SpanRecorder:
    """In-memory spans in parallel lists; recording only while ``enabled``."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.enabled = False
        self.counters: Counter = Counter()
        self.instances: dict[str, dict[int, object]] = defaultdict(dict)
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, fn, layer: str, hook=None, *, bound: bool = True):
        """``fn`` recording one span per call; ``hook`` sees (self, result)."""
        layers, starts, ends, parents, stack = (
            self.layers, self.starts, self.ends, self.parents, self._stack
        )
        clock = time.perf_counter
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            index = len(starts)
            layers.append(layer)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            result = None
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                ends[index] = clock()
                stack.pop()
                if hook is not None:
                    hook(recorder, args[0] if bound else None, result)

        return traced

    def install(self, entry_points=ENTRY_POINTS) -> None:
        """Patch every entry point (classmethods keep their binding)."""
        for module_name, path, layer, hook in entry_points:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name)
            original = inspect.getattr_static(owner, attr)
            if isinstance(original, classmethod):
                patched = classmethod(self.wrap(original.__func__, layer, hook, bound=False))
            else:
                patched = self.wrap(original, layer, hook, bound=isinstance(owner, type))
            self._patches.append((owner, attr, original if attr in vars(owner) else None))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        """Restore every patched attribute (inherited ones by deleting the patch)."""
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path: Path, origin: float) -> None:
        """Write the spans (times relative to ``origin``) as one JSON file."""
        names = sorted(set(self.layers))
        code = {name: i for i, name in enumerate(names)}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "layers": names,
            "layer": [code[name] for name in self.layers],
            "start": [round(t - origin, 7) for t in self.starts],
            "end": [round(t - origin, 7) for t in self.ends],
            "parent": self.parents,
        }, separators=(",", ":")))


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    own = [end - start for start, end in zip(starts, ends)]
    children: dict[int, list[int]] = defaultdict(list)
    for index, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(index)
    for parent, kids in children.items():
        lo, hi = starts[parent], ends[parent]
        own[parent] -= _covered([(max(starts[k], lo), min(ends[k], hi)) for k in kids])
    return own


def layer_summary(recorder: SpanRecorder) -> dict:
    """Per-layer calls and self seconds, per-call latencies, counters.

    Every value is additive across workers, except the latency lists,
    which the runner concatenates before taking percentiles.
    """
    own = self_times(recorder.starts, recorder.ends, recorder.parents)
    layers: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    latencies: dict[str, list[float]] = {name: [] for name in LATENCY_LAYERS}
    top_level = 0.0
    for index, layer in enumerate(recorder.layers):
        duration = recorder.ends[index] - recorder.starts[index]
        entry = layers[layer]
        entry["calls"] += 1
        entry["self_s"] += own[index]
        if layer in latencies:
            latencies[layer].append(duration * 1e6)
        if recorder.parents[index] < 0:
            top_level += duration
    counters = dict(recorder.counters)
    owners = recorder.instances["ledger_owner"].values()
    ledgers = {id(owner.ledger): owner.ledger for owner in owners}.values()
    counters["integrity.chunks"] = sum(len(ledger.manifest) for ledger in ledgers)
    counters["integrity.sends"] = sum(
        int(sum(ledger.send_counts.values())) for ledger in ledgers
    )
    adaptive = recorder.instances["adaptive"].values()
    counters["adapt.promotions"] = sum(c.guard.promotions for c in adaptive)
    counters["adapt.rollbacks"] = sum(c.guard.rollbacks for c in adaptive)
    return {
        "layers": dict(layers),
        "latencies_us": latencies,
        "counters": counters,
        "top_level_s": top_level,
    }
