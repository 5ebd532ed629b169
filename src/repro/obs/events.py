"""The JSONL event log: buffered append-only writer and a tolerant reader.

One run directory holds one ``events.jsonl``; every record is a single JSON
object with a ``type`` discriminator (``meta``, ``span``, ``event``,
``metric``, ``sample``).  The writer only ever **appends**, so a
checkpoint-resume (or a second session on the same directory) extends the
log instead of truncating the history that a post-mortem needs.

Records reach the buffer through three lanes, cheapest last: ``write``
(a dict, serialised now), ``write_sample`` (a ``%``-format string and one
value tuple, formatted at flush) and ``write_columns`` (a format string
and references to whole value columns, zipped and formatted at flush,
with every non-finite float written as JSON ``null``).

The reader tolerates a truncated final line — the normal wreckage of a
process killed mid-write — by dropping it; corruption anywhere *else* in the
file still raises, because that indicates real damage rather than an
interrupted append.
"""

from __future__ import annotations

import json
import math
import re
import time
from pathlib import Path

__all__ = ["JsonlEventWriter", "read_events", "tail_events"]

#: One ``%`` conversion spec of a deferred-format string.
_SPEC = re.compile(r"%[-+ #0]*\d*(?:\.\d+)?[diouxXeEfFgGcrsa]")


def _format_with_nulls(fmt: str, row: tuple) -> str:
    """``fmt % row``, with every non-finite float written as JSON ``null``."""
    values = iter(row)

    def convert(match: re.Match) -> str:
        value = next(values)
        if isinstance(value, float) and not math.isfinite(value):
            return "null"
        return match.group() % (value,)

    return _SPEC.sub(convert, fmt)


class JsonlEventWriter:
    """Buffered, append-only writer of one-JSON-object-per-line records.

    ``flush_every`` trades durability against hot-loop cost: a crash loses
    at most that many buffered records (and :func:`read_events` already
    tolerates the torn final line), while a larger buffer keeps
    serialisation and I/O out of the transfer loop entirely — the whole
    point of the deferred-format lanes.

    ``cost_seconds`` self-measures everything the writer spends on
    serialisation and I/O; it is the single accounting point behind
    ``automdt obs summary``'s *telemetry overhead* line.
    """

    def __init__(self, path: str | Path, *, flush_every: int = 4096) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.flush_every = int(flush_every)
        self.cost_seconds = 0.0
        #: str entries are ready lines; tuple entries are ``(fmt, args)``
        #: or ``(fmt, columns, count)``, formatted lazily at flush time.
        self._buffer: list[str | tuple] = []
        self._fh = None

    def _ensure_open(self) -> None:
        if self._fh is None:
            self._fh = self.path.open("a")

    def write(self, record: dict) -> None:
        """Buffer one record; flushed every ``flush_every`` records."""
        t0 = time.perf_counter()
        line = json.dumps(record, separators=(",", ":"))
        self.cost_seconds += time.perf_counter() - t0
        self._buffer.append(line)
        if len(self._buffer) >= self.flush_every:
            self.flush()

    def write_sample(self, fmt: str, args: tuple) -> None:
        """Buffer one deferred-format record (hot-path fast lane).

        Serialisation dominates telemetry cost in tight loops (``json.dumps``
        ≈ 6 µs, ``%``-format ≈ 3 µs in situ, vs ~100 µs per transfer
        interval).  This lane appends just ``(fmt, args)`` — ~0.3 µs — and
        :meth:`flush` formats later, normally after the instrumented loop
        has finished.  The caller guarantees ``fmt % args`` yields one valid
        JSON object with no newline (no NaNs: ``%f`` of NaN is not JSON).
        """
        self._buffer.append((fmt, args))
        if len(self._buffer) >= self.flush_every:
            self.flush()

    def write_columns(self, fmt: str, columns: tuple, count: int) -> int:
        """Buffer a whole column-oriented series as ONE deferred entry.

        The cheapest lane of all: stores references to ``count``-long
        value lists (parallel columns, one per ``fmt`` field) and performs
        the zip + ``%``-format at flush time.  The caller promises the
        first ``count`` elements of each column are final (append-only
        lists are fine; flush slices them).  A non-finite float (a probe
        dropout's NaN throughput) is written as JSON ``null``.  One
        transfer's whole interval history lands in the log for the cost
        of a single list append.
        """
        self._buffer.append((fmt, columns, count))
        # A columns entry counts as `count` records against the flush
        # threshold only approximately; series dumps are end-of-run, so
        # flushing promptly afterwards is the caller's (or close()'s) job.
        if len(self._buffer) >= self.flush_every:
            self.flush()
        return count

    def _lines(self):
        for entry in self._buffer:
            if type(entry) is str:
                yield entry
            elif len(entry) == 2:  # (fmt, args)
                yield entry[0] % entry[1]
            else:  # (fmt, columns, count)
                fmt, columns, count = entry
                for row in zip(*(column[:count] for column in columns)):
                    line = fmt % row
                    if "nan" in line or "inf" in line:  # a float dropout
                        line = _format_with_nulls(fmt, row)
                    yield line

    def flush(self) -> None:
        """Format deferred samples and write buffered records to disk."""
        if self._buffer:
            t0 = time.perf_counter()
            self._ensure_open()
            self._fh.write("\n".join(self._lines()) + "\n")
            self._fh.flush()
            self._buffer.clear()
            self.cost_seconds += time.perf_counter() - t0

    def discard_buffer(self) -> None:
        """Drop buffered-but-unflushed records without writing them.

        This is the crash model of the integrity layer's write-ahead
        journal (:class:`repro.transfer.integrity.ChunkJournal`): a process
        killed mid-run loses exactly its unflushed buffer, while every
        record already flushed stays on disk.
        """
        self._buffer.clear()

    def close(self) -> None:
        """Flush and close (the writer can be reused; it reopens appending)."""
        self.flush()
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlEventWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_events(path: str | Path, *, strict: bool = False) -> list[dict]:
    """Read a JSONL event log back into a list of dicts.

    A malformed **final** line is dropped unless ``strict`` — a process
    killed mid-append leaves exactly that artifact.  Malformed earlier lines
    always raise, as does a malformed final line under ``strict=True``.
    Returns ``[]`` for an empty (or missing-but-empty) file.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no event log at {path}")
    lines = path.read_text().splitlines()
    records: list[dict] = []
    last_index = len(lines) - 1
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            if i == last_index and not strict:
                break  # truncated final write; the rest of the log is intact
            raise ValueError(f"corrupt event log {path} at line {i + 1}: {exc}") from exc
    return records


def tail_events(path: str | Path, n: int = 20) -> list[dict]:
    """The last ``n`` records of an event log (tolerant reader)."""
    records = read_events(path)
    return records[-n:] if n > 0 else []
