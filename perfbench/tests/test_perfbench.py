"""Tests of the benchmark itself: tiny runs, span arithmetic, metric tables.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from perfbench import metrics
from perfbench.trace import SpanRecorder, layer_summary, self_times
from perfbench.workloads import (
    JITTER,
    JITTERED_RATES,
    FleetChaos,
    fleet_requests,
    input_rng,
    jittered_variants,
    mixed_dataset,
)

ROOT = Path(__file__).resolve().parents[2]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


# ------------------------------------------------------------- tiny runs
@pytest.mark.parametrize("workload", ["pipeline_table1", "population", "fleet_chaos"])
def test_tiny_run_reports_every_end_to_end_metric(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", "0", "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == set(metrics.END_TO_END)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == metrics.END_TO_END[name][0]
        assert math.isfinite(entry["value"]) and entry["value"] > 0, name


#: A per-layer metric each workload's tiny traced run must exercise.
EXERCISED = {
    "pipeline_table1": ("simulator.calls", "ppo.update_calls", "production.calls",
                        "exploration.self_s", "integrity.chunks"),
    "population": ("simulator_batch.column_steps", "stacked.update_calls", "eval_reward"),
    "fleet_chaos": ("emulator.calls", "adapt.calls", "fleet.slices", "integrity.replay_calls",
                    "sojourn_p90_s"),
}


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_tiny_traced_run_reports_every_per_layer_metric(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", "1", "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"] is True
    assert set(result["metrics"]) == set(metrics.PER_LAYER)
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    for name in EXERCISED[workload]:
        assert values[name] > 0, name
    assert 0.0 <= values["untraced.share"] < 1.0
    assert values["trace.overhead_ratio"] > 0


def test_missing_program_sources_fail_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "population", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ------------------------------------------------------- span arithmetic
def test_self_time_subtracts_children_once():
    # root [0, 10] ⊃ a [1, 4] ⊃ a1 [2, 3];  root ⊃ b [5, 9];  c [11, 12] alone.
    starts = [0.0, 1.0, 2.0, 5.0, 11.0]
    ends = [10.0, 4.0, 3.0, 9.0, 12.0]
    parents = [-1, 0, 1, 0, -1]
    assert self_times(starts, ends, parents) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.0])


def test_self_time_counts_overlapping_children_as_their_union():
    starts = [0.0, 1.0, 2.0, 8.0]
    ends = [10.0, 5.0, 6.0, 12.0]  # children overlap; the last overruns the parent
    parents = [-1, 0, 0, 0]
    assert self_times(starts, ends, parents)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_recorder_wraps_methods_classmethods_and_functions():
    module = types.ModuleType("perfbench_fake_layer")

    class Base:
        def step(self):
            return 7

    class Inner(Base):
        pass

    class Outer:
        inner = Inner()

        def run(self):
            return self.inner.step() + Outer.build()

        @classmethod
        def build(cls):
            return 1

    def helper():
        return Outer().run()

    module.Outer, module.Inner, module.helper = Outer, Inner, helper
    originals = dict(Outer.__dict__), helper
    sys.modules[module.__name__] = module
    recorder = SpanRecorder()
    try:
        recorder.install((
            (module.__name__, "helper", "top", None),
            (module.__name__, "Outer.run", "outer", None),
            (module.__name__, "Outer.build", "build", None),
            (module.__name__, "Inner.step", "inner", None),
        ))
        assert module.helper() == 8 and recorder.layers == []  # not enabled yet
        recorder.enabled = True
        assert module.helper() == 8
    finally:
        recorder.uninstall()
        del sys.modules[module.__name__]
    assert recorder.layers == ["top", "outer", "inner", "build"]
    assert recorder.parents == [-1, 0, 1, 1]
    summary = layer_summary(recorder)
    assert {name: entry["calls"] for name, entry in summary["layers"].items()} == {
        "top": 1, "outer": 1, "inner": 1, "build": 1,
    }
    total = sum(entry["self_s"] for entry in summary["layers"].values())
    assert total == pytest.approx(summary["top_level_s"])
    assert Outer.__dict__["run"] is originals[0]["run"]
    assert Outer.__dict__["build"] is originals[0]["build"]
    assert module.helper is originals[1]
    assert "step" not in vars(Inner) and Inner().step() == 7  # inherited: patch removed


# --------------------------------------------------------- metric tables
def test_metric_names_and_units_are_well_formed():
    for table in (metrics.END_TO_END, metrics.PER_LAYER):
        for name, (unit, better, *_) in table.items():
            assert metrics.NAME.fullmatch(name), name
            assert metrics.UNIT.fullmatch(unit), (name, unit)
            assert better in ("higher", "lower")
    assert not set(metrics.END_TO_END) & set(metrics.PER_LAYER)


def test_benchmark_json_matches_the_metric_tables():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert bench["paths"] == ["perfbench"]
    assert {w["name"] for w in bench["workloads"]} == {"pipeline_table1", "population",
                                                      "fleet_chaos"}
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]} \
        == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} \
        == metrics.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert metrics.tail_percentile(5) == 50.0
    assert metrics.tail_percentile(100) == 90.0
    assert metrics.tail_percentile(1000) == 99.0
    assert metrics.tail_percentile(200_000) == 99.99
    data = list(np.random.default_rng(0).exponential(size=501))
    for pct in (0.0, 50.0, 90.0, 99.9, 100.0):
        assert metrics.percentile(data, pct) == pytest.approx(np.percentile(data, pct))


# ------------------------------------------------------------ inputs
def test_fleet_requests_offer_the_target_load_and_repeat_per_seed():
    a = fleet_requests(input_rng(5, 0), 128)
    b = fleet_requests(input_rng(5, 0), 128)
    c = fleet_requests(input_rng(6, 0), 128)
    assert a == b and a != c
    span = a[-1].submit_at - a[0].submit_at
    offered = sum(r.gigabytes for r in a) * 1e9 / span
    assert offered / 125e6 == pytest.approx(0.9, rel=0.05)
    assert [r.submit_at for r in a] == sorted(r.submit_at for r in a)
    assert {r.tenant for r in a} == {"t0", "t1", "t2", "t3"}


def test_jittered_variants_stratify_each_rate_across_the_members():
    from repro.emulator.presets import fig5_read_bottleneck
    from repro.simulator.scenarios import sample_scenario, simulator_config_from_testbed

    base = simulator_config_from_testbed(fig5_read_bottleneck())
    variants = jittered_variants(input_rng(4, 0), base, 8)
    assert variants == jittered_variants(input_rng(4, 0), base, 8)
    assert variants != jittered_variants(input_rng(4, 1), base, 8)
    for name in JITTERED_RATES:
        factors = np.array([getattr(v, name) / getattr(base, name) for v in variants])
        strata = np.floor((factors - (1 - JITTER)) / (2 * JITTER) * 8).astype(int)
        assert sorted(strata) == list(range(8)), name  # one member per stratum
    # Everything but the six rates is sample_scenario's own output.
    reference = sample_scenario(0, base=base)
    for variant in variants:
        for field in ("sender_buffer_capacity", "max_threads", "duration", "epsilon", "label"):
            assert getattr(variant, field) == getattr(reference, field), field


def test_mixed_dataset_sums_to_its_total():
    dataset = mixed_dataset(input_rng(1, 0), 1e12)
    assert dataset.total_bytes == pytest.approx(1e12, rel=1e-12)
    assert 10_000 < dataset.num_files < 20_000
    assert min(f.size for f in dataset) > 0


def test_fleet_workload_set_up_is_a_pure_function_of_seed(tmp_path):
    one = FleetChaos(9, 1, "tiny", tmp_path / "a")
    two = FleetChaos(9, 1, "tiny", tmp_path / "b")
    assert one.requests == two.requests
    assert one.scheduler.config == two.scheduler.config
