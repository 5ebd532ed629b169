"""Reconstruct a run from its JSONL event log: spans, series, incidents.

``summarize_run`` is the inverse of the instrumentation: given a run
directory (or the ``events.jsonl`` inside it) it rebuilds

* the span tree as per-name aggregates (count, wall seconds, virtual
  seconds, parent) — the phase breakdown of the pipeline;
* every ``metric`` series and every numeric field of every ``sample``
  record as :class:`~repro.utils.timeseries.TimeSeries` — PPO loss curves,
  per-interval throughputs, buffer occupancy;
* every supervisor incident, pairing ``incident/detected`` with
  ``incident/recovered`` events into time-to-detect / time-to-recover;
* the controller's decisions: one per ``transfer/interval`` sample, whose
  ``threads_*`` columns hold the triple applied in that interval, so the
  decision churn is the share of consecutive samples of one transfer whose
  triple changed (a sample whose ``t`` precedes the previous one's starts
  the next transfer in the log, the same clock reset that splits a series
  into ``name#2``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.events import read_events
from repro.obs.session import EVENTS_FILENAME, PROMETHEUS_FILENAME
from repro.utils.tables import render_kv, render_table
from repro.utils.timeseries import TimeSeries

__all__ = [
    "IncidentSummary",
    "RunSummary",
    "diff_runs",
    "render_summary",
    "resolve_events_path",
    "summarize_run",
]

#: The transfer engine's per-interval sample: one controller decision each.
_INTERVAL_SAMPLE = "transfer/interval"
_THREAD_FIELDS = ("threads_read", "threads_network", "threads_write")


@dataclass(frozen=True)
class IncidentSummary:
    """One supervisor incident reconstructed from the event log."""

    kind: str
    t_onset: float
    t_detected: float
    t_recovered: float | None
    retries: int
    goodput_lost_bytes: float

    @property
    def time_to_detect(self) -> float:
        """Seconds between losing forward progress and detection."""
        return self.t_detected - self.t_onset

    @property
    def time_to_recover(self) -> float | None:
        """Seconds between onset and recovery (None if never recovered)."""
        if self.t_recovered is None:
            return None
        return self.t_recovered - self.t_onset


@dataclass
class SpanAggregate:
    """All closed spans of one name, rolled up."""

    name: str
    parent: str | None
    count: int = 0
    wall_seconds: float = 0.0
    virtual_seconds: float = 0.0
    errors: int = 0


@dataclass
class RunSummary:
    """Everything reconstructable from one event log."""

    label: str = ""
    events_total: int = 0
    spans: dict[str, SpanAggregate] = field(default_factory=dict)
    metrics: dict[str, TimeSeries] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    incidents: list[IncidentSummary] = field(default_factory=list)
    #: ``transfer/interval`` samples, one controller decision each.
    decisions: int = 0
    #: Samples whose thread triple differs from the previous sample's of
    #: the same transfer.
    decision_changes: int = 0
    #: Transfers the interval samples came from (each clock reset starts one).
    transfers: int = 0
    overhead_seconds: float | None = None

    @property
    def churn(self) -> float:
        """Fraction of decisions that changed their transfer's previous triple.

        A transfer's first decision has no previous one and is not counted.
        """
        pairs = self.decisions - self.transfers
        return self.decision_changes / pairs if pairs > 0 else 0.0


def resolve_events_path(path: str | Path) -> Path:
    """Accept a run directory or a direct path to an ``events.jsonl``."""
    path = Path(path)
    if path.is_dir():
        return path / EVENTS_FILENAME
    return path


def _read_counters(prom_path: Path) -> dict[str, float]:
    """Final counter values from the session's Prometheus snapshot.

    Counters never ride the event log (registry-only, exported once at
    session close), so the snapshot is the only place their totals live.
    """
    counters: dict[str, float] = {}
    if not prom_path.exists():
        return counters
    counter_names: set[str] = set()
    for line in prom_path.read_text().splitlines():
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) == 4 and parts[3] == "counter":
                counter_names.add(parts[2])
            continue
        if not line or line.startswith("#"):
            continue
        name, _, value = line.partition(" ")
        if name in counter_names:
            try:
                counters[name] = float(value)
            except ValueError:
                continue
    return counters


def summarize_run(path: str | Path) -> RunSummary:
    """Rebuild a :class:`RunSummary` from a run directory or event log."""
    events_path = resolve_events_path(path)
    events = read_events(events_path)
    summary = RunSummary(events_total=len(events))
    summary.counters = _read_counters(events_path.with_name(PROMETHEUS_FILENAME))
    seq = 0  # fallback x-axis for records with no virtual timestamp
    last_decision: tuple | None = None
    last_interval_t = 0.0
    for record in events:
        kind = record.get("type")
        if kind == "meta":
            summary.label = record.get("label", summary.label) or summary.label
            if "overhead_seconds" in record:
                summary.overhead_seconds = float(record["overhead_seconds"])
        elif kind == "span":
            agg = summary.spans.get(record["name"])
            if agg is None:
                agg = SpanAggregate(record["name"], record.get("parent"))
                summary.spans[record["name"]] = agg
            agg.count += 1
            if record.get("wall_end") is not None:
                agg.wall_seconds += record["wall_end"] - record["wall_start"]
            if record.get("t_end") is not None and record.get("t_start") is not None:
                agg.virtual_seconds += record["t_end"] - record["t_start"]
            if record.get("error"):
                agg.errors += 1
        elif kind == "metric":
            seq += 1
            t = record.get("t")
            _append(summary.metrics, record["name"], seq if t is None else t,
                    record.get("value"))
        elif kind == "sample":
            seq += 1
            t = record.get("t")
            t = seq if t is None else t
            base = record.get("name", "sample")
            for key, value in record.items():
                if key in ("type", "name", "t"):
                    continue
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    _append(summary.metrics, f"{base}.{key}", t, value)
            if base == _INTERVAL_SAMPLE:
                decision = tuple(record.get(key) for key in _THREAD_FIELDS)
                summary.decisions += 1
                if last_decision is None or t < last_interval_t:
                    summary.transfers += 1  # no previous decision to compare
                elif decision != last_decision:
                    summary.decision_changes += 1
                last_decision, last_interval_t = decision, t
        elif kind == "event":
            name = record.get("name", "")
            attrs = record.get("attrs", {})
            if name == "incident/detected":
                summary.incidents.append(
                    IncidentSummary(
                        kind=attrs.get("kind", "stall"),
                        t_onset=float(attrs.get("t_onset", record.get("t") or 0.0)),
                        t_detected=float(attrs.get("t_detected", record.get("t") or 0.0)),
                        t_recovered=None,
                        retries=0,
                        goodput_lost_bytes=0.0,
                    )
                )
            elif name == "incident/recovered":
                _resolve_incident(summary.incidents, attrs, record)
    return summary


def _append(metrics: dict[str, TimeSeries], name: str, t, value) -> None:
    try:
        tf, vf = float(t), float(value)
    except (TypeError, ValueError):
        return  # non-numeric stray sample: drop, don't die
    key, k = name, 2
    while True:
        series = metrics.get(key)
        if series is None:
            series = TimeSeries(key)
            metrics[key] = series
        try:
            series.append(tf, vf)
            return
        except ValueError:
            # Time went backwards: a second run in the same log restarted its
            # clock.  Keep each run's curve intact as ``name#2``, ``name#3``…
            key = f"{name}#{k}"
            k += 1


def _resolve_incident(incidents: list[IncidentSummary], attrs: dict, record: dict) -> None:
    """Attach a recovery to its detected incident (matched by kind+onset)."""
    resolved = IncidentSummary(
        kind=attrs.get("kind", "stall"),
        t_onset=float(attrs.get("t_onset", 0.0)),
        t_detected=float(attrs.get("t_detected", 0.0)),
        t_recovered=float(attrs.get("t_recovered", record.get("t") or 0.0)),
        retries=int(attrs.get("retries", 0)),
        goodput_lost_bytes=float(attrs.get("goodput_lost_bytes", 0.0)),
    )
    for i, open_incident in enumerate(incidents):
        if (
            open_incident.t_recovered is None
            and open_incident.kind == resolved.kind
            and abs(open_incident.t_onset - resolved.t_onset) < 1e-9
        ):
            incidents[i] = resolved
            return
    incidents.append(resolved)  # recovery without a logged detection


# ------------------------------------------------------------------ rendering
def render_summary(summary: RunSummary) -> str:
    """Human-readable report of one run (what ``obs summary`` prints).

    Every number is formatted here by :func:`_fmt`, not by the table
    renderer, which cuts floats to one decimal.
    """
    parts: list[str] = []
    header = {
        "events": summary.events_total,
        "decisions": summary.decisions,
        "decision churn": _fmt(summary.churn),
    }
    if summary.label:
        header = {"label": summary.label, **header}
    if summary.overhead_seconds is not None:
        header["telemetry overhead (s)"] = _fmt(summary.overhead_seconds)
    parts.append(render_kv(header, title="=== run summary ==="))

    if summary.spans:
        rows = [
            [
                a.name,
                a.parent or "-",
                a.count,
                _fmt(a.wall_seconds),
                _fmt(a.virtual_seconds),
                a.errors,
            ]
            for a in summary.spans.values()
        ]
        parts.append(
            render_table(
                ["span", "parent", "count", "wall (s)", "virtual (s)", "errors"],
                rows,
                title="phases / spans",
            )
        )

    if summary.metrics:
        rows = []
        for name in sorted(summary.metrics):
            s = summary.metrics[name]
            rows.append(
                [name, len(s), _fmt(s.values[0]), _fmt(s.last), _fmt(s.mean()),
                 _fmt(s.min()), _fmt(s.max())]
            )
        parts.append(
            render_table(
                ["series", "n", "first", "last", "mean", "min", "max"],
                rows,
                title="metric series",
            )
        )

    if summary.counters:
        rows = [[name, _fmt(value)] for name, value in sorted(summary.counters.items())]
        parts.append(render_table(["counter", "total"], rows, title="counters"))

    if summary.incidents:
        rows = [
            [
                i + 1,
                inc.kind,
                _fmt(inc.t_onset),
                _fmt(inc.time_to_detect),
                _fmt(inc.time_to_recover) if inc.time_to_recover is not None else "open",
                inc.retries,
                _fmt(inc.goodput_lost_bytes / 1e6),
            ]
            for i, inc in enumerate(summary.incidents)
        ]
        parts.append(
            render_table(
                ["#", "kind", "onset (s)", "detect (s)", "recover (s)", "retries",
                 "lost (MB)"],
                rows,
                title="supervisor incidents",
            )
        )
    return "\n\n".join(parts)


def diff_runs(a: RunSummary, b: RunSummary, *, label_a: str = "A", label_b: str = "B") -> str:
    """Compare two runs: common metric means and span wall times, with deltas."""
    parts: list[str] = []
    common_metrics = sorted(set(a.metrics) & set(b.metrics))
    if common_metrics:
        rows = []
        for name in common_metrics:
            ma, mb = a.metrics[name].mean(), b.metrics[name].mean()
            rows.append([name, _fmt(ma), _fmt(mb), _fmt_delta(ma, mb)])
        parts.append(
            render_table(
                ["series (mean)", label_a, label_b, "delta"], rows, title="metric diff"
            )
        )
    common_spans = sorted(set(a.spans) & set(b.spans))
    if common_spans:
        rows = []
        for name in common_spans:
            wa, wb = a.spans[name].wall_seconds, b.spans[name].wall_seconds
            rows.append([name, _fmt(wa), _fmt(wb), _fmt_delta(wa, wb)])
        parts.append(
            render_table(
                ["span (wall s)", label_a, label_b, "delta"], rows, title="span diff"
            )
        )
    only_a = sorted((set(a.metrics) - set(b.metrics)) | (set(a.spans) - set(b.spans)))
    only_b = sorted((set(b.metrics) - set(a.metrics)) | (set(b.spans) - set(a.spans)))
    extras = {}
    if only_a:
        extras[f"only in {label_a}"] = ", ".join(only_a)
    if only_b:
        extras[f"only in {label_b}"] = ", ".join(only_b)
    if extras:
        parts.append(render_kv(extras))
    if not parts:
        return "no overlapping series or spans to compare"
    return "\n\n".join(parts)


def _fmt(value: float) -> str:
    """A whole number as an integer (a count of 2,500 prints ``2500``), any
    other to four significant digits (``0.01293``); one of 1,000 or more
    keeps every digit of its integer part."""
    if value != value:  # NaN
        return "nan"
    if float(value).is_integer():
        return str(int(value))
    if abs(value) >= 1000:
        return f"{value:.0f}"
    return f"{value:.4g}"


def _fmt_delta(a: float, b: float) -> str:
    if a != a or b != b:
        return "-"
    if a == 0:
        return "-" if b == 0 else "new"
    return f"{(b - a) / abs(a) * 100:+.1f}%"
