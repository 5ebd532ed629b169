"""The observability session: registry + tracer + event log, with a no-op
fast path when disabled.

Instrumentation sites throughout the pipeline call the module-level helpers
(:func:`span`, :func:`metric`, :func:`count`, …).  With no session configured
each helper is a single ``None`` check — the 3% overhead budget measured by
``benchmarks/bench_observability.py`` is mostly about the *enabled* path;
the disabled path must be free.  Hot loops that emit several samples per
iteration grab the session once via :func:`active` and branch on ``None``.

The session self-measures: every wall second the event-log writer spends
serialising and writing is accumulated (see
:attr:`~repro.obs.events.JsonlEventWriter.cost_seconds`), so a run can
report what its own telemetry cost (``automdt obs summary`` prints it).
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

from repro.obs.events import JsonlEventWriter
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import Tracer

__all__ = [
    "ObsSession",
    "active",
    "configure",
    "count",
    "enabled",
    "event",
    "metric",
    "observe",
    "sample",
    "session",
    "set_virtual_time",
    "shutdown",
    "span",
]

EVENTS_FILENAME = "events.jsonl"
PROMETHEUS_FILENAME = "metrics.prom"


class ObsSession:
    """One instrumented run: a registry, a tracer and (optionally) a log.

    Without ``run_dir`` the session is purely in-memory — the registry and
    the tracer's ``finished`` spans are still queryable, which is what unit
    tests and ad-hoc notebook use want.

    ``events_filename`` overrides the log name inside ``run_dir`` — pool
    workers use it to write ``events-worker<k>.jsonl`` next to the parent's
    ``events.jsonl`` (see :mod:`repro.parallel.obslog`).

    With ``ingest_on_close`` (the default) a closing session hands its
    registry snapshot to the active results store, if one is configured —
    pool workers pass ``False`` so a sweep records one run, not one per
    worker.
    """

    def __init__(self, run_dir: str | Path | None = None, *, label: str = "",
                 flush_every: int = 4096,
                 events_filename: str | None = None,
                 ingest_on_close: bool = True) -> None:
        self.run_dir = Path(run_dir) if run_dir is not None else None
        self.label = label
        self.registry = MetricsRegistry()
        self.writer = (
            JsonlEventWriter(self.run_dir / (events_filename or EVENTS_FILENAME),
                             flush_every=flush_every)
            if self.run_dir is not None
            else None
        )
        self.virtual_time: float | None = None
        self.tracer = Tracer(sink=self._sink, virtual_clock=lambda: self.virtual_time)
        self.events_emitted = 0
        self.ingest_on_close = ingest_on_close
        self._closed = False
        if self.writer is not None:
            self._sink({"type": "meta", "label": label, "unix_time": time.time()})

    @property
    def overhead_seconds(self) -> float:
        """Self-measured wall seconds spent serialising + writing events."""
        return self.writer.cost_seconds if self.writer is not None else 0.0

    # ----------------------------------------------------------------- clock
    def set_virtual_time(self, t: float) -> None:
        """Advance the session's notion of virtual (simulated) time."""
        self.virtual_time = float(t)

    # ------------------------------------------------------------------ emit
    def _sink(self, record: dict) -> None:
        """Serialize one record to the event log (writer self-times)."""
        if self.writer is None:
            return
        self.writer.write(record)
        self.events_emitted += 1

    def span(self, name: str, **attrs):
        """Open a traced span (context manager)."""
        return self.tracer.span(name, **attrs)

    def event(self, name: str, *, t: float | None = None, **attrs) -> None:
        """Record a point-in-time event on the current span."""
        self.tracer.event(name, t=t, **attrs)

    def metric(self, name: str, value: float, *, t: float | None = None) -> None:
        """Record one sample of a named series (event log + gauge)."""
        self.registry.gauge(name).set(value)
        if self.writer is not None:
            self.writer.write(
                {
                    "type": "metric",
                    "name": name,
                    "t": t if t is not None else self.virtual_time,
                    "value": value,
                }
            )
            self.events_emitted += 1

    def sample(self, name: str, *, t: float | None = None, **fields) -> None:
        """Record one multi-field sample (e.g. a whole probe interval).

        Cheaper than one :meth:`metric` per field: a single event-log line.
        ``automdt obs summary`` expands numeric fields back into per-field
        series named ``<name>.<field>``.
        """
        if self.writer is not None:
            record = {
                "type": "sample",
                "name": name,
                "t": t if t is not None else self.virtual_time,
            }
            record.update(fields)
            self.writer.write(record)
            self.events_emitted += 1

    def sample_columns(self, fmt: str, columns: tuple, count: int) -> None:
        """Column-oriented bulk sample: one buffered entry for a whole series.

        ``columns`` are parallel lists (first ``count`` elements final);
        the writer zips and formats at flush time, writing non-finite
        floats as ``null``.  See
        :meth:`repro.obs.events.JsonlEventWriter.write_columns`.
        """
        if self.writer is not None:
            self.events_emitted += self.writer.write_columns(fmt, columns, count)

    def count(self, name: str, amount: float = 1.0) -> None:
        """Increment a registry counter (no event-log line)."""
        self.registry.counter(name).inc(amount)

    def observe(self, name: str, value: float, *, buckets=None) -> None:
        """Observe a value into a registry histogram (no event-log line)."""
        if buckets is not None:
            self.registry.histogram(name, buckets=buckets).observe(value)
        else:
            self.registry.histogram(name).observe(value)

    # ----------------------------------------------------------------- report
    def overhead_fraction(self, total_wall_seconds: float) -> float:
        """Self-measured share of ``total_wall_seconds`` spent emitting."""
        if total_wall_seconds <= 0:
            return 0.0
        return self.overhead_seconds / total_wall_seconds

    def prometheus_snapshot(self) -> str:
        """Current registry state in Prometheus text format."""
        return self.registry.to_prometheus()

    def flush(self) -> None:
        """Flush buffered event-log records to disk."""
        if self.writer is not None:
            self.writer.flush()

    def close(self) -> None:
        """Flush the log and write the final registry snapshot."""
        if self._closed:
            return
        self._closed = True
        if self.writer is not None:
            # Flush first so deferred-format samples are costed before the
            # closing meta reports the self-measured overhead.
            self.writer.flush()
            self._sink(
                {
                    "type": "meta",
                    "label": self.label,
                    "closed": True,
                    "events_emitted": self.events_emitted,
                    "overhead_seconds": round(self.overhead_seconds, 6),
                }
            )
            self.writer.close()
        if self.run_dir is not None:
            (self.run_dir / PROMETHEUS_FILENAME).write_text(self.prometheus_snapshot())
        if self.ingest_on_close:
            from repro.obs.store import record_session

            record_session(self)


# --------------------------------------------------------------- module state
_session: ObsSession | None = None
_NULL = nullcontext()


def configure(run_dir: str | Path | None = None, *, label: str = "",
              flush_every: int = 256,
              events_filename: str | None = None,
              ingest_on_close: bool = True) -> ObsSession:
    """Install a global session (closing any previous one) and return it."""
    global _session
    if _session is not None:
        _session.close()
    _session = ObsSession(run_dir, label=label, flush_every=flush_every,
                          events_filename=events_filename,
                          ingest_on_close=ingest_on_close)
    return _session


def shutdown() -> None:
    """Close and remove the global session (idempotent)."""
    global _session
    if _session is not None:
        _session.close()
        _session = None


def discard() -> None:
    """Drop the global session WITHOUT flushing or closing its log.

    Post-fork hygiene for pool workers: a forked child inherits the
    parent's session — including the event-log buffer and open file
    handle.  Closing it normally would write the parent's buffered
    records a second time from the child; ``discard`` empties the buffer
    and forgets the session so the child can :func:`configure` its own.
    """
    global _session
    if _session is not None:
        if _session.writer is not None:
            _session.writer._buffer.clear()
            _session.writer._fh = None  # the fd still belongs to the parent
        _session = None


@contextmanager
def session(run_dir: str | Path | None = None, **kwargs):
    """``with obs.session(dir):`` — configure, yield, always shut down."""
    sess = configure(run_dir, **kwargs)
    try:
        yield sess
    finally:
        shutdown()


def active() -> ObsSession | None:
    """The global session, or ``None`` — hot loops branch on this once."""
    return _session


def enabled() -> bool:
    """Whether instrumentation is currently live."""
    return _session is not None


# ------------------------------------------------------- no-op-able helpers
def span(name: str, **attrs):
    """Span on the global session; a shared null context when disabled."""
    return _session.span(name, **attrs) if _session is not None else _NULL


def event(name: str, *, t: float | None = None, **attrs) -> None:
    """Event on the global session; no-op when disabled."""
    if _session is not None:
        _session.event(name, t=t, **attrs)


def metric(name: str, value: float, *, t: float | None = None) -> None:
    """Series sample on the global session; no-op when disabled."""
    if _session is not None:
        _session.metric(name, value, t=t)


def sample(name: str, *, t: float | None = None, **fields) -> None:
    """Multi-field sample on the global session; no-op when disabled."""
    if _session is not None:
        _session.sample(name, t=t, **fields)


def count(name: str, amount: float = 1.0) -> None:
    """Counter increment on the global session; no-op when disabled."""
    if _session is not None:
        _session.count(name, amount)


def observe(name: str, value: float) -> None:
    """Histogram observation on the global session; no-op when disabled."""
    if _session is not None:
        _session.observe(name, value)


def set_virtual_time(t: float) -> None:
    """Advance the global session's virtual clock; no-op when disabled."""
    if _session is not None:
        _session.set_virtual_time(t)
