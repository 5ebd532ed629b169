"""End to end: instrumented runs → event log → summary / CLI / exporters.

The acceptance path of the observability subsystem: run a supervised
transfer through an injected link flap (and a tiny training loop) with a
session active, then reconstruct phases, series and incidents from nothing
but the ``events.jsonl`` it left behind.
"""

import json

import pytest

from repro import obs
from repro.baselines import StaticController
from repro.emulator import (
    FaultSchedule,
    LinkFlap,
    NetworkConfig,
    StorageConfig,
    Testbed,
    TestbedConfig,
)
from repro.harness.cli import main as cli_main
from repro.obs.exporters import export_run_csv, write_prometheus_from_events
from repro.obs.summary import (
    RunSummary,
    SpanAggregate,
    diff_runs,
    render_summary,
    summarize_run,
)
from repro.transfer import (
    EngineConfig,
    ModularTransferEngine,
    SupervisorConfig,
    TransferSupervisor,
)
from repro.transfer.files import uniform_dataset
from repro.utils.units import GiB


@pytest.fixture(autouse=True)
def _clean_global_session():
    obs.shutdown()
    yield
    obs.shutdown()


def make_engine(faults=None, *, max_seconds=240.0, gigabytes=5):
    testbed = Testbed(
        TestbedConfig(
            source=StorageConfig(tpt=80, bandwidth=1000),
            destination=StorageConfig(tpt=200, bandwidth=1000),
            network=NetworkConfig(tpt=160, capacity=1000, ramp_time=0.0),
            sender_buffer_capacity=1.0 * GiB,
            receiver_buffer_capacity=1.0 * GiB,
            max_threads=30,
        ),
        rng=0,
        faults=faults,
    )
    return ModularTransferEngine(
        testbed,
        uniform_dataset(gigabytes, 1e9),
        StaticController((13, 7, 5)),
        EngineConfig(max_seconds=max_seconds, seed=0),
    )


@pytest.fixture(scope="module")
def flap_run(tmp_path_factory):
    """One instrumented supervised transfer through a link flap."""
    run_dir = tmp_path_factory.mktemp("flap-run")
    with obs.session(run_dir, label="test:flap"):
        engine = make_engine(FaultSchedule([LinkFlap(start=10.0, duration=8.0)]))
        result = TransferSupervisor(engine, SupervisorConfig(seed=0)).run()
    assert result.completed
    return run_dir, result


class TestTransferSummary:
    def test_spans_reconstructed(self, flap_run):
        run_dir, result = flap_run
        summary = summarize_run(run_dir)
        assert summary.label == "test:flap"
        assert "transfer/supervised" in summary.spans
        assert summary.spans["transfer/run"].count == len(result.attempts)
        # Virtual span time tracks the supervised transfer's virtual clock.
        sup = summary.spans["transfer/supervised"]
        assert sup.virtual_seconds == pytest.approx(result.completion_time, rel=0.05)

    def test_interval_series_reconstructed(self, flap_run):
        run_dir, result = flap_run
        summary = summarize_run(run_dir)
        series = summary.metrics["transfer/interval.throughput_write"]
        total = sum(
            len(s)
            for name, s in summary.metrics.items()
            if name.startswith("transfer/interval.throughput_write")
        )
        assert total == len(result.metrics.throughput_write)
        assert series.mean() > 0

    def test_incident_reconstructed_with_ttd_ttr(self, flap_run):
        run_dir, result = flap_run
        summary = summarize_run(run_dir)
        assert len(summary.incidents) == len(result.metrics.recoveries) == 1
        incident = summary.incidents[0]
        recovery = result.metrics.recoveries[0]
        assert incident.kind == "link_flap"
        assert incident.time_to_detect == pytest.approx(
            recovery.t_detected - recovery.t_onset
        )
        assert incident.time_to_recover == pytest.approx(recovery.time_to_recover)
        assert incident.retries == recovery.retries

    def test_static_controller_decisions_never_change(self, flap_run):
        run_dir, result = flap_run
        summary = summarize_run(run_dir)
        assert summary.decisions == len(result.metrics)
        assert summary.decision_changes == 0
        assert summary.churn == 0.0

    def test_overhead_self_reported(self, flap_run):
        run_dir, _ = flap_run
        summary = summarize_run(run_dir)
        assert summary.overhead_seconds is not None
        assert summary.overhead_seconds >= 0.0

    def test_render_mentions_everything(self, flap_run):
        run_dir, _ = flap_run
        text = render_summary(summarize_run(run_dir))
        assert "transfer/supervised" in text
        assert "link_flap" in text
        assert "transfer/interval.throughput_write" in text


@pytest.fixture(scope="module")
def dropout_run(tmp_path_factory):
    """``automdt run faults_probe_dropout --obs DIR``: intervals with NaN probes."""
    run_dir = tmp_path_factory.mktemp("dropout-run")
    assert cli_main(["run", "faults_probe_dropout", "--obs", str(run_dir)]) == 0
    lines = (run_dir / obs.EVENTS_FILENAME).read_text().splitlines()
    intervals = [json.loads(line) for line in lines if '"name":"transfer/interval"' in line]
    return run_dir, intervals


class TestIntervalSamples:
    def test_one_decision_per_interval_sample(self, dropout_run):
        run_dir, intervals = dropout_run
        summary = summarize_run(run_dir)
        assert len(intervals) > 0
        assert summary.decisions == len(intervals)
        # The experiment logs two transfers (bare, then supervised); each
        # one's clock starts over, and its first decision has no predecessor.
        transfers = [[]]
        for prev, record in zip([None, *intervals], intervals):
            if prev is not None and record["t"] < prev["t"]:
                transfers.append([])
            transfers[-1].append(
                (record["threads_read"], record["threads_network"], record["threads_write"])
            )
        assert len(transfers) == 2
        changes = sum(a != b for triples in transfers for a, b in zip(triples, triples[1:]))
        assert changes > 0
        assert summary.transfers == 2
        assert summary.decision_changes == changes
        assert summary.churn == pytest.approx(changes / (len(intervals) - 2))
        assert f"decisions              : {len(intervals)}" in render_summary(summary)

    def test_log_without_interval_samples_has_no_decisions(self, tmp_path):
        with obs.session(tmp_path):
            obs.metric("x", 1.0, t=0.0)
            obs.sample("other", t=1.0, threads_read=3)
        summary = summarize_run(tmp_path)
        assert summary.decisions == summary.decision_changes == 0
        assert summary.churn == 0.0

    def test_every_interval_line_has_one_schema(self, dropout_run):
        _, intervals = dropout_run
        schemas = {
            tuple((key, type(value).__name__) for key, value in record.items()
                  if not key.startswith("throughput_"))
            for record in intervals
        }
        assert len(schemas) == 1
        assert len({tuple(record) for record in intervals}) == 1
        for record in intervals:
            assert all(type(record[f"threads_{stage}"]) is int
                       for stage in ("read", "network", "write"))
        dropped = [r for r in intervals if r["throughput_read"] is None]
        assert 0 < len(dropped) < len(intervals)
        assert all(r["throughput_network"] is None and r["throughput_write"] is None
                   for r in dropped)


def _cells(text: str, first: str) -> list[str]:
    """The cells of the rendered table row (or ``key : value`` line) that
    starts with ``first``."""
    for line in text.splitlines():
        cells = [c.strip() for c in line.strip("|").replace(" : ", "|").split("|")]
        if cells[0] == first:
            return cells
    raise AssertionError(f"no row {first!r} in:\n{text}")


class TestRenderedNumbers:
    """``render_summary`` prints a float to four significant digits and a
    whole count as an integer; the table renderer would cut both to one
    decimal."""

    @pytest.fixture
    def text(self):
        return render_summary(
            RunSummary(
                events_total=12,
                decisions=4,
                decision_changes=1,
                transfers=1,
                overhead_seconds=0.012931,
                spans={
                    "integrity/verify": SpanAggregate(
                        "integrity/verify", "transfer/run", count=3,
                        wall_seconds=0.0123456, virtual_seconds=41.25,
                    )
                },
                counters={"integrity/chunks_resent": 2500.0},
            )
        )

    def test_header(self, text):
        assert _cells(text, "telemetry overhead (s)") == ["telemetry overhead (s)", "0.01293"]
        assert _cells(text, "decision churn") == ["decision churn", "0.3333"]
        assert _cells(text, "decisions") == ["decisions", "4"]

    def test_span_row(self, text):
        assert _cells(text, "integrity/verify") == [
            "integrity/verify", "transfer/run", "3", "0.01235", "41.25", "0"
        ]

    def test_counter(self, text):
        assert _cells(text, "integrity/chunks_resent") == ["integrity/chunks_resent", "2500"]


class BanditEnv:
    """1-step-quality env: reward = 1 - |action - target|; converges fast."""

    state_dim = 8
    action_dim = 3

    def __init__(self, target=(0.4, 0.2, 0.1), steps=5):
        import numpy as np

        self.target = np.asarray(target)
        self.steps = steps
        self._count = 0

    def reset(self):
        import numpy as np

        self._count = 0
        return np.zeros(8)

    def step(self, action):
        import numpy as np

        err = np.abs(np.asarray(action).reshape(-1) - self.target).mean()
        reward = float(np.clip(1.0 - err, 0.0, 1.0))
        self._count += 1
        return np.zeros(8), reward, self._count >= self.steps, {}


class TestTrainingSummary:
    def test_ppo_series_reconstructed(self, tmp_path):
        from repro.core.ppo import PPOAgent, PPOConfig
        from repro.core.training import TrainingConfig, train

        agent = PPOAgent(
            config=PPOConfig(hidden_dim=16, policy_blocks=1, value_blocks=1), rng=0
        )
        with obs.session(tmp_path, label="test:train"):
            train(
                agent,
                BanditEnv(),
                TrainingConfig(
                    max_episodes=12, steps_per_episode=5, stagnation_episodes=12
                ),
            )
        summary = summarize_run(tmp_path)
        assert "train/offline" in summary.spans
        assert "ppo/update" in summary.spans
        for name in ("ppo/loss", "ppo/entropy", "ppo/approx_kl",
                     "ppo/clip_fraction", "train/episode.reward_fraction"):
            assert name in summary.metrics, name
            assert len(summary.metrics[name]) > 0


class TestCli:
    def test_summary_exit_zero(self, flap_run, capsys):
        run_dir, _ = flap_run
        assert cli_main(["obs", "summary", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "supervisor incidents" in out

    def test_tail(self, flap_run, capsys):
        run_dir, _ = flap_run
        assert cli_main(["obs", "tail", str(run_dir), "-n", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3

    def test_diff_self(self, flap_run, capsys):
        run_dir, _ = flap_run
        assert cli_main(["obs", "diff", str(run_dir), str(run_dir)]) == 0
        assert "+0.0%" in capsys.readouterr().out

    def test_export(self, flap_run, capsys):
        run_dir, _ = flap_run
        assert cli_main(["obs", "export", str(run_dir)]) == 0
        assert (run_dir / "series.csv").read_text().startswith("time,")
        assert "TYPE" in (run_dir / "metrics.from-events.prom").read_text()

    def test_missing_run_exits_two(self, tmp_path, capsys):
        assert cli_main(["obs", "summary", str(tmp_path / "nope")]) == 2
        assert "no event log" in capsys.readouterr().err

    def test_run_command_accepts_obs_flag(self, tmp_path, capsys):
        # The flag is wired through main(); a missing experiment must not
        # leave a dangling global session behind.
        code = cli_main(["run", "definitely-not-an-experiment", "--obs", str(tmp_path)])
        assert code != 0
        assert not obs.enabled()


class TestExporters:
    def test_diff_function_direct(self, flap_run):
        run_dir, _ = flap_run
        a = summarize_run(run_dir)
        text = diff_runs(a, a, label_a="x", label_b="y")
        assert "metric diff" in text

    def test_prometheus_from_events(self, flap_run):
        run_dir, _ = flap_run
        out = write_prometheus_from_events(run_dir, run_dir / "rebuilt.prom")
        text = out.read_text()
        assert 'incidents_total{kind="link_flap"} 1' in text
        assert "span_wall_seconds" in text

    def test_csv_custom_path(self, flap_run, tmp_path):
        run_dir, _ = flap_run
        out = export_run_csv(run_dir, tmp_path / "out.csv")
        header = out.read_text().splitlines()[0]
        assert "transfer/interval.throughput_write" in header
