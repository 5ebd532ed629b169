"""The per-interval decision trace: ``transfer/interval`` samples in the event log.

Each interval the engine applies one thread triple and probes per-stage
throughput; with an obs session active that record lands in
``events.jsonl`` as one ``transfer/interval`` sample.  These tests read the
trace back through the shared event reader and summarise its decisions
with ``summarize_run``.
"""

import json

import pytest

from repro import obs
from repro.baselines import StaticController
from repro.emulator import Testbed, fig5_read_bottleneck
from repro.obs.events import read_events
from repro.obs.summary import summarize_run
from repro.transfer import EngineConfig, ModularTransferEngine
from repro.transfer.files import uniform_dataset

INTERVAL = "transfer/interval"
THREADS = ("threads_read", "threads_network", "threads_write")


@pytest.fixture(autouse=True)
def _clean_global_session():
    obs.shutdown()
    yield
    obs.shutdown()


def make_engine(controller, *, files=3, size=1e9, max_seconds=300):
    return ModularTransferEngine(
        Testbed(fig5_read_bottleneck(), rng=0),
        uniform_dataset(files, size),
        controller,
        EngineConfig(max_seconds=max_seconds),
    )


def load_intervals(path):
    return [r for r in read_events(path) if r.get("name") == INTERVAL]


class TestTraceRecorder:
    def run_traced(self, tmp_path, controller=None):
        with obs.session(tmp_path):
            result = make_engine(controller or StaticController((13, 7, 5))).run()
        return tmp_path / obs.EVENTS_FILENAME, result

    def test_one_record_per_decision(self, tmp_path):
        path, result = self.run_traced(tmp_path)
        records = load_intervals(path)
        assert len(records) == len(result.metrics.throughput_read)
        assert summarize_run(path).decisions == len(records)

    def test_record_schema(self, tmp_path):
        path, _ = self.run_traced(tmp_path)
        record = load_intervals(path)[0]
        assert set(record) == {
            "type", "name", "t",
            "throughput_read", "throughput_network", "throughput_write",
            *THREADS,
            "sender_usage", "receiver_usage", "bytes_written",
        }
        assert record["type"] == "sample"
        assert tuple(record[key] for key in THREADS) == (13, 7, 5)

    def test_valid_jsonl(self, tmp_path):
        path, _ = self.run_traced(tmp_path)
        for line in path.read_text().strip().splitlines():
            json.loads(line)

    def test_reset_appends(self, tmp_path):
        # Resume-safety: a second engine run in the same session extends the
        # trace instead of erasing the first run's records.
        path = tmp_path / obs.EVENTS_FILENAME
        counts = []
        with obs.session(tmp_path) as session:
            for _ in range(2):
                make_engine(
                    StaticController((2, 2, 2)), files=1, size=5e8, max_seconds=120
                ).run()
                session.flush()
                counts.append(len(load_intervals(path)))
        assert counts[1] == 2 * counts[0]
        # The resume boundary is visible as a time reset mid-file.
        records = load_intervals(path)
        assert records[counts[0]]["t"] == records[0]["t"]
        assert records[counts[0] - 1]["t"] > records[counts[0]]["t"]


class TestLoadTraceEdgeCases:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert read_events(path) == []
        assert summarize_run(path).decisions == 0

    def test_truncated_final_line_dropped(self, tmp_path):
        path, _ = TestTraceRecorder().run_traced(tmp_path)
        full = read_events(path)
        # Simulate a process killed mid-append: chop the last line in half.
        text = path.read_text()
        path.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2 - 1])
        assert read_events(path) == full[:-1]

    def test_mid_file_corruption_raises(self, tmp_path):
        path, _ = TestTraceRecorder().run_traced(tmp_path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:5]  # damage an interior line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            read_events(path)
        with pytest.raises(ValueError):
            summarize_run(path)


class TestSummarizeTrace:
    def test_churn_counts_changes(self, tmp_path):
        with obs.session(tmp_path):
            for i in range(5):
                obs.sample(
                    INTERVAL, t=float(i), threads_read=1 + (i % 2),
                    threads_network=1, threads_write=1, throughput_read=0.0,
                )
        summary = summarize_run(tmp_path)
        assert summary.decisions == 5
        assert summary.decision_changes == 4
        assert summary.churn == 1.0

    def test_churn_restarts_at_each_transfer(self, tmp_path):
        # Two transfers in one session under different static controllers:
        # neither controller ever changes its triple, so the switch at the
        # boundary (where the clock resets) is no decision change.
        with obs.session(tmp_path):
            for triple in ((2, 2, 2), (13, 7, 5)):
                make_engine(
                    StaticController(triple), files=1, size=5e8, max_seconds=120
                ).run()
        records = load_intervals(tmp_path / obs.EVENTS_FILENAME)
        summary = summarize_run(tmp_path)
        assert summary.decisions == len(records)
        assert summary.transfers == 2
        assert summary.decision_changes == 0
        assert summary.churn == 0.0
        # The same log's series split at that reset too.
        assert "transfer/interval.threads_read#2" in summary.metrics
