"""Query-driven experiment reports: every number read from the store.

``automdt report`` renders the paper-style baseline comparison — AutoMDT
vs Marlin vs gradient-descent vs monolithic per scenario, with goodput /
overhead / ramp-recovery columns — as markdown and JSON.  Nothing is
hardcoded: the table is assembled from ``metrics`` rows whose names follow
the harness convention ``<policy>_<measure>`` (``automdt_throughput_mbps``,
``marlin_completion_s``, …), aggregated mean/std/min/max over every seed
of the scenario's most recent revision.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from pathlib import Path

import numpy as np

from repro.obs.store.db import ResultsStore
from repro.obs.store.identity import current_git_rev

__all__ = [
    "build_report",
    "render_markdown",
    "sample_stats",
    "split_policy_metric",
    "write_report",
]

#: metric-name prefixes → display label; longest prefix wins.  The order
#: here is also the row order of the rendered tables.
POLICIES: tuple[tuple[str, str], ...] = (
    ("automdt", "AutoMDT"),
    ("marlin", "Marlin"),
    ("multivariate_gd", "gradient-descent"),
    ("gd", "gradient-descent"),
    ("monolithic", "monolithic"),
    ("modular", "modular (static optimal)"),
    ("globus", "Globus"),
    ("online_drl", "online-DRL"),
)

#: column label → metric-name suffixes that feed it (first match wins).
MEASURES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("goodput (Mbps)", ("_throughput_mbps", "_goodput_mbps")),
    ("completion (s)", ("_completion_s",)),
    ("mean threads", ("_mean_total_threads", "_mean_threads")),
    ("ramp/recovery (s)", ("_reach_90pct_s", "_time_to_90pct_s", "_recovery_s")),
)

_POLICY_ORDER = {label: i for i, (_, label) in enumerate(POLICIES)}
_MEASURE_ORDER = {label: i for i, (label, _) in enumerate(MEASURES)}


def split_policy_metric(name: str) -> tuple[str, str] | None:
    """``automdt_throughput_mbps`` → ``("AutoMDT", "goodput (Mbps)")``.

    Returns ``None`` for metric names outside the policy × measure grid.
    """
    for prefix, policy in POLICIES:
        if name.startswith(prefix + "_"):
            rest = name[len(prefix):]
            for column, suffixes in MEASURES:
                if any(rest.endswith(suffix) for suffix in suffixes):
                    return policy, column
            return None
    return None


def sample_stats(values: Sequence[float]) -> dict[str, float]:
    """Mean, population std, min, max and ``n`` (an int) of one sample.

    The per-metric statistic of ``automdt report`` and of the harness's
    multi-seed aggregates alike.
    """
    data = np.asarray(values, dtype=float)
    return {
        "mean": float(data.mean()),
        "std": float(data.std()),
        "min": float(data.min()),
        "max": float(data.max()),
        "n": int(data.size),
    }


def build_report(
    store: ResultsStore,
    *,
    kind: str = "experiment",
    scenarios: Sequence[str] | None = None,
) -> dict:
    """Aggregate the store into a JSON-able report structure.

    Per scenario only the most recent ``git_rev`` present is reported (the
    append-only history stays queryable; the report answers "where are we
    now").  Within that revision every run contributes, aggregated over
    seeds.
    """
    rows = store.metric_rows(kind)
    if scenarios:
        wanted = set(scenarios)
        rows = [row for row in rows if row["scenario"] in wanted]

    # Latest revision per scenario (rows arrive ordered by started).
    latest_rev: dict[str, str] = {}
    for row in rows:
        latest_rev[row["scenario"]] = row["git_rev"]

    scenario_data: dict[str, dict] = {}
    samples: dict[tuple[str, str, str], list[float]] = {}
    plain: dict[tuple[str, str], list[float]] = {}
    for row in rows:
        scenario = row["scenario"]
        if row["git_rev"] != latest_rev[scenario]:
            continue
        entry = scenario_data.setdefault(
            scenario,
            {"git_rev": latest_rev[scenario], "seeds": set(), "run_ids": set()},
        )
        if row["seed"] is not None:
            entry["seeds"].add(int(row["seed"]))
        entry["run_ids"].add(row["run_id"])
        if row["labels"] != "{}":
            continue
        split = split_policy_metric(row["name"])
        if split is not None:
            policy, column = split
            samples.setdefault((scenario, policy, column), []).append(row["value"])
        else:
            plain.setdefault((scenario, row["name"]), []).append(row["value"])

    for (scenario, policy, column), values in samples.items():
        policies = scenario_data[scenario].setdefault("policies", {})
        policies.setdefault(policy, {})[column] = sample_stats(values)
    for (scenario, name), values in plain.items():
        scenario_data[scenario].setdefault("metrics", {})[name] = sample_stats(values)

    report_scenarios = {}
    for scenario in sorted(scenario_data):
        entry = scenario_data[scenario]
        report_scenarios[scenario] = {
            "git_rev": entry["git_rev"],
            "seeds": sorted(entry["seeds"]),
            "runs": len(entry["run_ids"]),
            "policies": {
                policy: dict(
                    sorted(
                        columns.items(),
                        key=lambda kv: _MEASURE_ORDER.get(kv[0], 99),
                    )
                )
                for policy, columns in sorted(
                    entry.get("policies", {}).items(),
                    key=lambda kv: _POLICY_ORDER.get(kv[0], 99),
                )
            },
            "metrics": dict(sorted(entry.get("metrics", {}).items())),
        }
    return {
        "store": str(store.path),
        "kind": kind,
        "generated_at_rev": current_git_rev(),
        "scenarios": report_scenarios,
    }


def _fmt(value: float) -> str:
    if value != value:  # NaN
        return "—"
    if value == int(value) and abs(value) < 1e12:
        return str(int(value))
    if abs(value) >= 100:
        return f"{value:.1f}"
    if abs(value) >= 1:
        return f"{value:.2f}"
    return f"{value:.4g}"


def _cell(stats: Mapping[str, float]) -> str:
    if stats["n"] > 1 and stats["std"] > 0:
        return f"{_fmt(stats['mean'])} ± {_fmt(stats['std'])}"
    return _fmt(stats["mean"])


def render_markdown(report: Mapping, *, max_plain_metrics: int = 14) -> str:
    """The report as a markdown document (what CI publishes)."""
    lines = [
        "# AutoMDT experiment report",
        "",
        f"_store: `{report['store']}` · kind: `{report['kind']}` · "
        f"generated at rev `{report['generated_at_rev']}`_",
        "",
    ]
    if not report["scenarios"]:
        lines.append("_(the store holds no matching runs)_")
        return "\n".join(lines) + "\n"
    for scenario, entry in report["scenarios"].items():
        seeds = entry["seeds"]
        seed_text = (
            f"seeds {seeds[0]}–{seeds[-1]}" if len(seeds) > 1
            else f"seed {seeds[0]}" if seeds else "no seeds"
        )
        lines.append(
            f"## `{scenario}` — {entry['runs']} run(s), {seed_text}, "
            f"rev `{entry['git_rev']}`"
        )
        lines.append("")
        policies = entry.get("policies", {})
        if policies:
            columns = sorted(
                {column for stats in policies.values() for column in stats},
                key=lambda c: _MEASURE_ORDER.get(c, 99),
            )
            lines.append("| policy | " + " | ".join(columns) + " |")
            lines.append("|---" * (len(columns) + 1) + "|")
            for policy, stats in policies.items():
                cells = [
                    _cell(stats[column]) if column in stats else "—"
                    for column in columns
                ]
                lines.append(f"| {policy} | " + " | ".join(cells) + " |")
            lines.append("")
        metrics = entry.get("metrics", {})
        if metrics:
            shown = list(metrics.items())[:max_plain_metrics]
            lines.append("<details><summary>other metrics</summary>")
            lines.append("")
            lines.append("| metric | mean | std | n |")
            lines.append("|---|---|---|---|")
            for name, stats in shown:
                lines.append(
                    f"| `{name}` | {_fmt(stats['mean'])} | "
                    f"{_fmt(stats['std'])} | {int(stats['n'])} |"
                )
            if len(metrics) > len(shown):
                lines.append("")
                lines.append(f"_… and {len(metrics) - len(shown)} more_")
            lines.append("")
            lines.append("</details>")
            lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def write_report(
    store: ResultsStore,
    out: str | Path,
    *,
    kind: str = "experiment",
    scenarios: Sequence[str] | None = None,
) -> Path:
    """Build and write the markdown report; returns the output path."""
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(render_markdown(build_report(store, kind=kind, scenarios=scenarios)))
    return out
