"""Per-transfer interval table.

One :class:`TransferMetrics` instance is the record of one transfer's
production loop (§IV-F): one row per probe interval, held as a single
time column plus one value column per field in :data:`FIELDS` — per-stage
throughput, per-stage concurrency, buffer occupancy, the utility/reward
and cumulative bytes written, all on the virtual clock.

* The engines append each value once per interval (:meth:`record`); the
  monotonic-time check runs once per row.
* :class:`~repro.transfer.supervisor.TransferSupervisor` stitches its
  attempts with :meth:`merge_from`: one boundary check, then list extends.
* The engine hands the obs session the whole table in one column-lane
  call (``transfer/interval`` samples).
* Figures read a field through a :class:`~repro.utils.timeseries.TimeSeries`
  view named after it (``metrics.threads_network``).

Supervised transfers additionally log per-incident :class:`FaultEvent` /
:class:`RecoveryRecord` entries (time-to-detect, time-to-recover, goodput
lost).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.timeseries import TimeSeries
from repro.utils.units import bytes_per_sec_to_mbps

#: The table's value columns.  ``utility`` is optional per row: a row
#: recorded without one holds ``None`` there, and the view skips it.
FIELDS = (
    "throughput_read",
    "throughput_network",
    "throughput_write",
    "threads_read",
    "threads_network",
    "threads_write",
    "sender_usage",
    "receiver_usage",
    "utility",
    "bytes_written",
)


@dataclass(frozen=True)
class FaultEvent:
    """One detected incident: forward progress stopped and a watchdog fired.

    ``kind`` names the injected fault classes active at detection time when
    attribution is possible (e.g. ``"link_flap"``), else ``"stall"``.
    """

    kind: str
    t_onset: float
    t_detected: float

    @property
    def time_to_detect(self) -> float:
        """Seconds between losing forward progress and the watchdog firing."""
        return self.t_detected - self.t_onset

    def to_dict(self) -> dict:
        """JSON-friendly form (the attributes of the ``incident/detected`` event)."""
        return {"kind": self.kind, "t_onset": self.t_onset, "t_detected": self.t_detected}


@dataclass(frozen=True)
class RecoveryRecord:
    """How one incident was resolved by the supervisor."""

    kind: str
    t_onset: float
    t_detected: float
    t_recovered: float
    retries: int
    goodput_lost_bytes: float

    @property
    def time_to_recover(self) -> float:
        """Seconds between losing forward progress and progress resuming."""
        return self.t_recovered - self.t_onset

    def to_dict(self) -> dict:
        """JSON-friendly form (the attributes of the ``incident/recovered`` event)."""
        return {
            "kind": self.kind,
            "t_onset": self.t_onset,
            "t_detected": self.t_detected,
            "t_recovered": self.t_recovered,
            "retries": self.retries,
            "goodput_lost_bytes": self.goodput_lost_bytes,
        }


def _view(name: str) -> property:
    def series(self: TransferMetrics) -> TimeSeries:
        return self.series(name)

    return property(series, doc=f"The ``{name}`` column as a :class:`TimeSeries`.")


class TransferMetrics:
    """One transfer's interval table: a time column and one column per field."""

    throughput_read = _view("throughput_read")
    throughput_network = _view("throughput_network")
    throughput_write = _view("throughput_write")
    threads_read = _view("threads_read")
    threads_network = _view("threads_network")
    threads_write = _view("threads_write")
    sender_usage = _view("sender_usage")
    receiver_usage = _view("receiver_usage")
    utility = _view("utility")
    bytes_written = _view("bytes_written")

    def __init__(self) -> None:
        #: Row times (virtual seconds), non-decreasing.
        self.times: list[float] = []
        #: One list per :data:`FIELDS` entry, each as long as :attr:`times`.
        self.columns: dict[str, list] = {name: [] for name in FIELDS}
        self.fault_events: list[FaultEvent] = []
        self.recoveries: list[RecoveryRecord] = []

    def __len__(self) -> int:
        return len(self.times)

    def record(
        self,
        t: float,
        *,
        throughputs: tuple[float, float, float],
        threads: tuple[int, int, int],
        sender_usage: float,
        receiver_usage: float,
        bytes_written_total: float,
        utility: float | None = None,
    ) -> None:
        """Append one probe interval's row at virtual time ``t``."""
        times = self.times
        if times and t < times[-1]:
            raise ValueError(f"interval time {t} precedes the last recorded time {times[-1]}")
        times.append(float(t))
        c = self.columns
        c["throughput_read"].append(float(throughputs[0]))
        c["throughput_network"].append(float(throughputs[1]))
        c["throughput_write"].append(float(throughputs[2]))
        c["threads_read"].append(float(threads[0]))
        c["threads_network"].append(float(threads[1]))
        c["threads_write"].append(float(threads[2]))
        c["sender_usage"].append(float(sender_usage))
        c["receiver_usage"].append(float(receiver_usage))
        c["utility"].append(None if utility is None else float(utility))
        c["bytes_written"].append(float(bytes_written_total))

    def record_fault(self, event: FaultEvent) -> None:
        """Log a detected incident."""
        self.fault_events.append(event)

    def record_recovery(self, record: RecoveryRecord) -> None:
        """Log the resolution of an incident."""
        self.recoveries.append(record)

    def merge_from(self, other: TransferMetrics) -> None:
        """Append another table's rows and incidents (times must follow ours).

        The supervisor uses this to stitch per-attempt tables into one
        transfer-wide record: attempts run on a shared global clock, so each
        attempt's rows continue where the previous one stopped.
        """
        if self.times and other.times and other.times[0] < self.times[-1]:
            raise ValueError(
                f"stitched rows start at {other.times[0]}, before the last "
                f"recorded time {self.times[-1]}"
            )
        self.times.extend(other.times)
        for name, column in self.columns.items():
            column.extend(other.columns[name])
        self.fault_events.extend(other.fault_events)
        self.recoveries.extend(other.recoveries)

    # ---------------------------------------------------------------- queries
    def series(self, name: str) -> TimeSeries:
        """Column ``name`` paired with the time column (a copy)."""
        times, values = self.times, self.columns[name]
        if None in values:  # rows recorded without a utility
            times = [t for t, v in zip(times, values) if v is not None]
            values = [v for v in values if v is not None]
        return TimeSeries(name, zip(times, values))

    @property
    def duration(self) -> float:
        """Last recorded time (0 when empty)."""
        return self.times[-1] if self.times else 0.0

    def average_throughput(self, *, warmup: float = 0.0) -> float:
        """Mean end-to-end (write-stage) throughput in Mbps after ``warmup``."""
        return self.throughput_write.mean(t_start=warmup)

    def effective_throughput(self, total_bytes: float, completion_time: float) -> float:
        """End-to-end Mbps computed from bytes over wall time — the Table I metric."""
        if completion_time <= 0:
            return 0.0
        return bytes_per_sec_to_mbps(total_bytes / completion_time)

    def time_to_network_concurrency(self, level: int, *, sustain: int = 3) -> float | None:
        """When the network concurrency first reached ``level`` (and held).

        This is the paper's convergence-speed measure ("AutoMDT reaches 20
        streams within 7 seconds").
        """
        return self.threads_network.time_to_reach(level, sustain=sustain)

    def concurrency_cost(self) -> float:
        """Mean total thread count across stages — the overhead measure."""
        if not self.times:
            return 0.0
        c = self.columns
        total = np.add(np.add(c["threads_read"], c["threads_network"]), c["threads_write"])
        return float(total.mean())

    def stability(self, series_name: str = "threads_network", *, t_start: float = 0.0) -> float:
        """Standard deviation of a concurrency series (lower = more stable)."""
        return self.series(series_name).std(t_start=t_start)
