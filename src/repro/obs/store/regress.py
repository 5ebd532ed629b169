"""Cross-PR bench regression tracking against the stored trajectory.

``automdt regress`` loads the working tree's ``BENCH_*.json`` artifacts,
compares each suite against its most recent point in the results store,
and exits non-zero when a *gated* key moves the wrong way by more than the
configured threshold.  After the comparison the current reports are
appended to the trajectory (append-only — the old baseline stays), so the
store accumulates one point per suite per run and ``bench_trajectory``
can plot any key across PRs.

Gating is deliberately conservative: only relative, hardware-stable keys
(speedups, overhead fractions, fairness ratios) and boolean gates are
compared by default.  Absolute wall-clock and MB/s numbers are reported
as informational drift — they say more about the runner than the code.

A bench that deletes a gated arm declares it in a top-level ``retired``
list of ``{"key": <dotted key>, "reason": <why>}`` entries; the verdict
prints each one, and a retired key is exempt from the missing-key rule
while it stays missing (see :func:`compare_suite`).  A whole suite goes
the same way: one with a stored baseline and no current report is a
regression unless :data:`REMOVED_SUITES` declares its removal, with a
reason the verdict prints.
"""

from __future__ import annotations

import json
from collections.abc import Collection, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.obs.store.db import KNOWN_BENCH_SCHEMAS, ResultsStore, flatten_numeric
from repro.utils.errors import BenchSchemaError

__all__ = [
    "REMOVED_SUITES",
    "Finding",
    "classify_key",
    "compare_suite",
    "load_bench_file",
    "render_regress",
    "retired_keys",
    "run_regress",
    "skipped_prefixes",
]

HIGHER = "higher_better"
LOWER = "lower_better"
BOOL = "must_stay_true"
INFO = "informational"

#: suffixes of the *last* dotted segment that mark a gated direction.
_HIGHER_SUFFIXES = ("speedup", "speedup_vs_reference", "speedup_x", "cache_speedup")
_LOWER_SUFFIXES = ("goodput_ratio", "overhead_fraction", "overhead_pct", "overhead_ratio")
_BOOL_SUFFIXES = (
    "ok", "identical", "within_bound", "all_completed", "all_recovered",
    "capacity_respected", "throughput_identical", "equivalent", "bit_identical",
)
_INFO_MARKERS = ("wall", "mb_per_s", "mbps", "seconds", "_s", "ms_per_round")

#: Bench suites deleted from the tree, each with the reason it went.  A
#: suite with a stored baseline but no current report passes only when it
#: is listed here; ``regress`` prints the reason instead of comparing.
REMOVED_SUITES: dict[str, str] = {
    "dataplane": (
        "its kernel legs timed checksum code that was deleted; its "
        "equivalence checks are tier-1 tests and its overhead leg is "
        "bench_integrity's"
    ),
}


def skipped_prefixes(report: Mapping) -> tuple[str, ...]:
    """Dotted paths of report legs marked ``status: skipped_*``.

    Benches record honestly-skipped legs (e.g. the parallel sweep on a
    single-core runner) as ``{"status": "skipped_<reason>", ...}``.  Any
    numeric key under such a leg describes the skip, not the code under
    test, so the comparison must not gate it against the trajectory.
    """
    found: list[str] = []

    def walk(node: Mapping, path: str) -> None:
        status = node.get("status")
        if path and isinstance(status, str) and status.startswith("skipped_"):
            found.append(path)
            return
        for name, value in node.items():
            if isinstance(value, Mapping):
                walk(value, f"{path}.{name}" if path else str(name))

    walk(report, "")
    return tuple(found)


def retired_keys(report: Mapping) -> dict[str, str]:
    """The report's ``retired`` declarations as ``{dotted key: reason}``.

    Raises :class:`BenchSchemaError` for an entry that is not a mapping
    with a string ``key`` and a string ``reason``: an arm may only be
    retired on the record.
    """
    retired: dict[str, str] = {}
    for entry in report.get("retired", ()):
        fields = entry if isinstance(entry, Mapping) else {}
        key, reason = fields.get("key"), fields.get("reason")
        if not (isinstance(key, str) and isinstance(reason, str) and reason):
            raise BenchSchemaError(
                f"retired entries need a string 'key' and 'reason', got {entry!r}"
            )
        retired[key] = reason
    return retired


def classify_key(key: str) -> str:
    """Direction of one flattened bench key: gated (higher/lower/bool) or info."""
    leaf = key.rsplit(".", 1)[-1]
    if leaf in _BOOL_SUFFIXES or any(leaf.endswith("_" + s) for s in _BOOL_SUFFIXES):
        return BOOL
    if any(leaf == s or leaf.endswith("_" + s) for s in _HIGHER_SUFFIXES):
        return HIGHER
    if any(leaf == s or leaf.endswith("_" + s) for s in _LOWER_SUFFIXES):
        return LOWER
    if "overhead" in leaf:
        return LOWER
    return INFO


@dataclass(frozen=True)
class Finding:
    """One key's baseline-vs-current comparison."""

    suite: str
    key: str
    direction: str
    baseline: float
    current: float | None  # None: the key is missing from the current report
    change: float | None  # relative, signed; 0.1 == +10%; None when missing
    regressed: bool

    def describe(self) -> str:
        if self.current is None:
            return (
                f"{self.suite}:{self.key} {self.baseline:g} → missing "
                f"({self.direction})"
            )
        pct = f"{self.change * 100:+.1f}%"
        return (
            f"{self.suite}:{self.key} {self.baseline:g} → {self.current:g} "
            f"({pct}, {self.direction})"
        )


def load_bench_file(path: str | Path) -> tuple[str, dict, dict[str, float]]:
    """Read one BENCH_*.json: (suite, raw report, flat numeric values).

    Raises :class:`BenchSchemaError` for a missing/unknown ``schema`` field
    — the same validation the store applies on ingest, surfaced before any
    comparison work happens.
    """
    path = Path(path)
    report = json.loads(path.read_text())
    schema = report.get("schema")
    if not isinstance(schema, int) or isinstance(schema, bool):
        raise BenchSchemaError(f"{path}: no integer 'schema' field (got {schema!r})")
    if schema not in KNOWN_BENCH_SCHEMAS:
        raise BenchSchemaError(
            f"{path}: schema version {schema} is unknown "
            f"(known: {sorted(KNOWN_BENCH_SCHEMAS)})"
        )
    suite = report.get("bench") or path.stem.replace("BENCH_", "")
    flat = {
        key: value
        for key, value in flatten_numeric(report).items()
        if key.split(".", 1)[0] not in {"bench", "schema", "out"}
    }
    return str(suite), report, flat


def compare_suite(
    suite: str,
    baseline: Mapping[str, float],
    current: Mapping[str, float],
    *,
    threshold: float,
    gate_informational: bool = False,
    info_prefixes: Sequence[str] = (),
    retired: Collection[str] = (),
) -> list[Finding]:
    """Per-key findings for one suite.

    Keys present on both sides are compared.  A gated baseline key that is
    missing from the current report is a regression too — an artifact must
    not pass by dropping the arm that carried its ``speedup`` or
    ``bit_identical`` — unless the two reports' ``quick`` flags differ
    (quick runs may carry fewer arms) or the current report lists the key
    as ``retired``.  A retired key that is still present is compared like
    any other.  Keys under any of ``info_prefixes``
    (dotted leg paths, typically from :func:`skipped_prefixes`) are demoted
    to informational regardless of their suffix — a skipped leg's numbers
    carry no gate-worthy signal, and it may carry none at all.
    """

    def direction_of(key: str) -> str:
        if any(key == p or key.startswith(p + ".") for p in info_prefixes):
            return INFO
        return classify_key(key)

    findings: list[Finding] = []
    if baseline.get("quick") == current.get("quick"):
        for key in sorted(set(baseline) - set(current)):
            direction = direction_of(key)
            if direction != INFO and key not in retired:
                findings.append(
                    Finding(
                        suite=suite, key=key, direction=direction,
                        baseline=float(baseline[key]), current=None, change=None,
                        regressed=True,
                    )
                )
    for key in sorted(set(baseline) & set(current)):
        base, cur = float(baseline[key]), float(current[key])
        direction = direction_of(key)
        change = (cur - base) / abs(base) if base != 0 else (0.0 if cur == base else 1.0)
        if direction == BOOL:
            regressed = base >= 1.0 and cur < 1.0
        elif direction == HIGHER:
            regressed = change < -threshold
        elif direction == LOWER:
            regressed = change > threshold
        else:
            regressed = gate_informational and abs(change) > threshold
        findings.append(
            Finding(
                suite=suite, key=key, direction=direction,
                baseline=base, current=cur, change=change, regressed=regressed,
            )
        )
    return findings


def run_regress(
    store: ResultsStore,
    paths: Sequence[str | Path],
    *,
    threshold: float = 0.2,
    ingest: bool = True,
    suites: Sequence[str] | None = None,
    gate_informational: bool = False,
) -> dict:
    """Compare each report against its stored baseline; optionally ingest.

    Returns a JSON-able result with per-suite findings; ``ok`` is False
    iff any gated key regressed or a suite went missing.  Suites with no
    stored baseline are reported as ``no_baseline`` (not a failure — the
    first ingest seeds the trajectory).  Every stored suite (each of
    ``suites`` when given) that ``paths`` holds no report of is reported as
    ``removed`` when :data:`REMOVED_SUITES` declares it, and as ``missing``,
    a regression, when it does not.
    """
    results: dict[str, dict] = {}
    ok = True
    for path in paths:
        suite, report, flat = load_bench_file(path)
        if suites and suite not in suites:
            continue
        point = store.latest_bench(suite)
        entry: dict = {"path": str(path), "keys": len(flat)}
        skipped = skipped_prefixes(report)
        if skipped:
            entry["skipped_legs"] = list(skipped)
        retired = retired_keys(report)
        if retired:
            entry["retired"] = retired
        if point is None:
            entry["status"] = "no_baseline"
            entry["findings"] = []
        else:
            findings = compare_suite(
                suite, point.values, flat,
                threshold=threshold, gate_informational=gate_informational,
                info_prefixes=skipped, retired=retired,
            )
            regressions = [f for f in findings if f.regressed]
            entry["status"] = "regressed" if regressions else "ok"
            entry["baseline_run"] = point.run_id
            entry["baseline_rev"] = point.git_rev
            entry["findings"] = [vars(f) for f in findings]
            ok = ok and not regressions
        if ingest:
            entry["ingested_run"] = store.ingest_bench(suite, report, path=path)
        results[suite] = entry
    for suite in sorted({row["scenario"] for row in store.runs(kind="bench")}):
        if suite in results or (suites and suite not in suites):
            continue
        point = store.latest_bench(suite)
        entry = {"path": None, "keys": 0, "findings": [],
                 "baseline_run": point.run_id, "baseline_rev": point.git_rev}
        if suite in REMOVED_SUITES:
            entry["status"] = "removed"
            entry["reason"] = REMOVED_SUITES[suite]
        else:
            entry["status"] = "missing"
            ok = False
        results[suite] = entry
    return {"ok": ok, "threshold": threshold, "suites": results}


def render_regress(result: Mapping) -> str:
    """Human-readable regression verdict for the CLI."""
    lines: list[str] = []
    for suite, entry in result["suites"].items():
        status = entry["status"]
        retired = [
            f"  retired {key} — {reason}" for key, reason in entry.get("retired", {}).items()
        ]
        if status == "no_baseline":
            lines.append(f"{suite}: no stored baseline ({entry['keys']} keys ingested)")
            lines.extend(retired)
            continue
        if status == "removed":
            lines.append(f"{suite}: removed — {entry['reason']}")
            continue
        if status == "missing":
            lines.append(
                f"{suite}: MISSING — baseline {entry['baseline_rev']} has a report "
                "and the tree has none (a deleted suite belongs in REMOVED_SUITES)"
            )
            continue
        findings = [Finding(**f) for f in entry["findings"]]
        gated = [f for f in findings if f.direction != INFO]
        regressed = [f for f in findings if f.regressed]
        lines.append(
            f"{suite}: {status.upper()} — {len(gated)} gated key(s) vs "
            f"baseline {entry['baseline_rev']}"
        )
        for leg in entry.get("skipped_legs", ()):
            lines.append(f"  leg {leg} skipped — keys informational")
        lines.extend(retired)
        for finding in regressed:
            lines.append(f"  REGRESSION {finding.describe()}")
        if not regressed:
            drifters = sorted(
                (f for f in findings if f.direction == INFO and f.change),
                key=lambda f: -abs(f.change),
            )[:3]
            for finding in drifters:
                lines.append(f"  drift {finding.describe()}")
    verdict = "OK" if result["ok"] else "REGRESSED"
    lines.append(f"regression gate ({result['threshold']:.0%} threshold): {verdict}")
    return "\n".join(lines) + "\n"
