"""The soak kit, across the chaos, fleet and drift soaks.

Every soak records its whole config, a pooled run reports exactly what a
serial one does, and each quick preset's case records and rendered CLI text
stay pinned.
"""

import dataclasses
import hashlib
import json
import tempfile

import pytest

from repro.harness.drift import DriftSoakConfig, render_drift_soak_report, run_drift_soak
from repro.harness.soak import (
    FleetSoakConfig,
    SoakConfig,
    render_fleet_soak_report,
    render_soak_report,
    run_fleet_soak,
    run_soak,
)

SOAKS = {
    "chaos": (run_soak, render_soak_report, SoakConfig),
    "fleet": (run_fleet_soak, render_fleet_soak_report, FleetSoakConfig),
    "drift": (run_drift_soak, render_drift_soak_report, DriftSoakConfig),
}

SMALL = {
    "chaos": SoakConfig(cases=2, gigabytes=0.5, chunk_size=0.125e9, max_crashes=1),
    "fleet": FleetSoakConfig(cases=2, transfers=8, tenants=2, gigabytes=0.1),
    "drift": DriftSoakConfig(cases=3, determinism_check=False),
}

#: sha256 of each quick preset's case records (``dir`` dropped, JSON with
#: sorted keys) and of its rendered CLI text.  Taken before the three soaks
#: shared one kit; a changed case field, fingerprint or rendered line shows
#: here.
QUICK_DIGESTS = {
    "chaos": (
        "8f08ca6341c420633f29ec78edbc9ae9fa5c2688009f80ec079936488ce80fe0",
        "d803493749c5c953ede50500e67e51cc9dc1d5a16a1be80e96f9dbe23f07547a",
    ),
    "fleet": (
        "f789f9d71eb951545e0ff2da2ed7a48ed9427be9c561b56ef429d7f837747222",
        "72250a7a6559928d407295a176628d46228dfb9bbb97df714aac12b9b69b4bd5",
    ),
    "drift": (
        "7ec416a3a01cd876158eee1f8545005cc56641f260f77691fe45461d29bad7ee",
        "fd408e02eb25f12217dcdc3115fb23e4ff57c773fb6e5d0b55dd5b7c13773092",
    ),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def strip_dirs(report: dict) -> list[dict]:
    return [{k: v for k, v in case.items() if k != "dir"} for case in report["cases"]]


def without_workers_and_dirs(report: dict) -> dict:
    stripped = {k: v for k, v in report.items() if k != "report_path"}
    stripped["config"] = {k: v for k, v in report["config"].items() if k != "workers"}
    stripped["cases"] = strip_dirs(report)
    return stripped


@pytest.mark.parametrize("soak", sorted(SOAKS))
def test_parallel_identical_to_serial(soak, tmp_path):
    run = SOAKS[soak][0]
    config = SMALL[soak]
    pooled_config = dataclasses.replace(config, workers=2)
    serial = run(config, out_dir=tmp_path / "serial")
    pooled = run(pooled_config, out_dir=tmp_path / "pooled")
    # The report records every config field, so the store's config
    # fingerprint separates runs whose results differ.
    assert serial["config"] == dataclasses.asdict(config)
    assert pooled["config"] == dataclasses.asdict(pooled_config)
    assert without_workers_and_dirs(serial) == without_workers_and_dirs(pooled)


@pytest.mark.parametrize("soak", sorted(SOAKS))
def test_quick_preset_output_is_pinned(soak, tmp_path):
    run, render, config_type = SOAKS[soak]
    report = run(config_type.quick(), out_dir=tmp_path)
    cases_digest, text_digest = QUICK_DIGESTS[soak]
    assert sha256(json.dumps(strip_dirs(report), sort_keys=True)) == cases_digest
    assert sha256(render(report)) == text_digest


def test_soak_without_out_dir_leaves_no_temp_dirs(tmp_path, monkeypatch):
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    report = run_soak(dataclasses.replace(SMALL["chaos"], cases=1))
    assert report["all_passed"]
    assert [case["dir"] for case in report["cases"]] == [None]
    assert list(scratch.iterdir()) == []
