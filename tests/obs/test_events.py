"""JSONL event log: buffered writer lanes and the tolerant reader."""

import json

import pytest

from repro.obs.events import JsonlEventWriter, read_events, tail_events


class TestWriter:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "e.jsonl"
        with JsonlEventWriter(path) as w:
            w.write({"type": "meta", "label": "t"})
            w.write({"type": "metric", "name": "x", "t": 1.0, "value": 2.0})
        records = read_events(path)
        assert [r["type"] for r in records] == ["meta", "metric"]
        assert records[1]["value"] == 2.0

    def test_append_mode_extends(self, tmp_path):
        path = tmp_path / "e.jsonl"
        for i in range(2):
            with JsonlEventWriter(path) as w:
                w.write({"i": i})
        assert [r["i"] for r in read_events(path)] == [0, 1]

    def test_flush_every_threshold(self, tmp_path):
        path = tmp_path / "e.jsonl"
        w = JsonlEventWriter(path, flush_every=3)
        w.write({"i": 0})
        w.write({"i": 1})
        assert not path.exists() or path.read_text() == ""
        w.write({"i": 2})  # crosses the threshold
        assert len(read_events(path)) == 3
        w.close()

    def test_write_sample_deferred_format(self, tmp_path):
        path = tmp_path / "e.jsonl"
        fmt = '{"type":"sample","name":"s","t":%.3f,"v":%.3f}'
        with JsonlEventWriter(path) as w:
            w.write_sample(fmt, (1.0, 2.5))
        rec = read_events(path)[0]
        assert (rec["t"], rec["v"]) == (1.0, 2.5)

    def test_write_columns_zips_at_flush(self, tmp_path):
        path = tmp_path / "e.jsonl"
        fmt = '{"t":%.3f,"a":%.3f,"b":%d}'
        times = [0.0, 1.0, 2.0]
        a = [10.0, 20.0, 30.0]
        b = [1, 2, 3]
        with JsonlEventWriter(path) as w:
            assert w.write_columns(fmt, (times, a, b), 3) == 3
            # Appends after the call must not leak into the flush (the
            # caller only promised the first `count` elements).
            times.append(99.0)
            a.append(99.0)
            b.append(99)
        records = read_events(path)
        assert len(records) == 3
        assert records[-1] == {"t": 2.0, "a": 30.0, "b": 3}

    def test_write_columns_writes_non_finite_as_null(self, tmp_path):
        path = tmp_path / "e.jsonl"
        fmt = '{"t":%.3f,"a":%.3f,"n":%d}'
        nan, inf = float("nan"), float("inf")
        with JsonlEventWriter(path) as w:
            w.write_columns(fmt, ([0.0, 1.0, 2.0, 3.0], [1.5, nan, -inf, 2.0],
                                  [1, 2, 3, 4]), 4)
        assert path.read_text().splitlines() == [
            '{"t":0.000,"a":1.500,"n":1}',
            '{"t":1.000,"a":null,"n":2}',
            '{"t":2.000,"a":null,"n":3}',
            '{"t":3.000,"a":2.000,"n":4}',
        ]

    def test_lanes_preserve_order(self, tmp_path):
        path = tmp_path / "e.jsonl"
        with JsonlEventWriter(path) as w:
            w.write({"i": 0})
            w.write_sample('{"i":%d}', (1,))
            w.write_columns('{"i":%d}', ([2, 3],), 2)
            w.write({"i": 4})
        assert [r["i"] for r in read_events(path)] == [0, 1, 2, 3, 4]

    def test_cost_seconds_accumulates(self, tmp_path):
        w = JsonlEventWriter(tmp_path / "e.jsonl")
        w.write({"i": 0})
        w.close()
        assert w.cost_seconds > 0.0


class TestReader:
    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_events(tmp_path / "nope.jsonl")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text("")
        assert read_events(path) == []

    def test_truncated_final_line_dropped(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text('{"i":0}\n{"i":1}\n{"i":2,"unfin')
        assert [r["i"] for r in read_events(path)] == [0, 1]

    def test_truncated_final_line_strict_raises(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text('{"i":0}\n{"i":1,"unfin')
        with pytest.raises(ValueError):
            read_events(path, strict=True)

    def test_mid_file_corruption_always_raises(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text('{"i":0}\nGARBAGE\n{"i":2}\n')
        with pytest.raises(ValueError):
            read_events(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text('{"i":0}\n\n{"i":1}\n')
        assert len(read_events(path)) == 2

    def test_tail(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text("".join(json.dumps({"i": i}) + "\n" for i in range(10)))
        assert [r["i"] for r in tail_events(path, 3)] == [7, 8, 9]
        assert tail_events(path, 0) == []
