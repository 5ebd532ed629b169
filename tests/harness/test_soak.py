"""Chaos soak: seeded invariants, determinism, rendering.

parallel == serial is checked for every soak in ``test_soak_kit.py``.
"""

from repro.harness.soak import SoakConfig, render_soak_report, run_soak
from repro.transfer import verify_artifacts


def small_config(**kwargs) -> SoakConfig:
    defaults = dict(cases=2, gigabytes=0.5, chunk_size=0.125e9, max_crashes=1)
    defaults.update(kwargs)
    return SoakConfig(**defaults)


def strip_dirs(report: dict) -> list[dict]:
    return [{k: v for k, v in case.items() if k != "dir"} for case in report["cases"]]


class TestInvariants:
    def test_all_invariants_hold_under_chaos(self, tmp_path):
        report = run_soak(small_config(), out_dir=tmp_path)
        assert report["all_passed"], report["failed_cases"]
        for case in report["cases"]:
            assert case["verified"] and case["completed"]
            assert all(case["invariants"].values()), case["invariants"]
        # Chaos actually happened somewhere across the soak: at least one
        # mid-transfer crash landed and damaged chunks were re-sent.
        assert report["total_crashes"] >= 1
        assert report["total_resent_chunks"] > 0

    def test_case_artifacts_are_independently_verifiable(self, tmp_path):
        report = run_soak(small_config(cases=1), out_dir=tmp_path)
        case_dir = report["cases"][0]["dir"]
        offline = verify_artifacts(case_dir)
        assert offline["all_verified"]
        assert offline["replay_idempotent"]
        assert (tmp_path / "soak_report.json").exists()

    def test_quick_preset(self):
        quick = SoakConfig.quick(root_seed=3)
        assert quick.cases == 3 and quick.root_seed == 3 and quick.crashes


class TestDeterminism:
    def test_same_root_seed_identical_cases(self, tmp_path):
        a = run_soak(small_config(), out_dir=tmp_path / "a")
        b = run_soak(small_config(), out_dir=tmp_path / "b")
        assert strip_dirs(a) == strip_dirs(b)

    def test_different_root_seed_different_cases(self, tmp_path):
        a = run_soak(small_config(cases=1), out_dir=tmp_path / "a")
        b = run_soak(small_config(cases=1, root_seed=1), out_dir=tmp_path / "b")
        assert strip_dirs(a) != strip_dirs(b)


class TestReport:
    def test_render_marks_violations(self, tmp_path):
        report = run_soak(small_config(cases=1), out_dir=tmp_path)
        text = render_soak_report(report)
        assert "PASS" in text and "ALL INVARIANTS HELD" in text
        report["cases"][0]["invariants"]["conservation"] = False
        report["cases"][0]["passed"] = False
        report["all_passed"] = False
        report["failed_cases"] = [0]
        text = render_soak_report(report)
        assert "FAIL" in text and "vdrC" in text  # violated flag uppercased
