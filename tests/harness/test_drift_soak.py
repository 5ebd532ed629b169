"""Drift soak invariants and the CLI's failure-mode surfacing."""

from repro.harness.cli import (
    EXIT_BUDGET_EXHAUSTED,
    _failure_mode,
    _merge_exit,
    main,
)
from repro.harness.drift import (
    DriftSoakConfig,
    render_drift_soak_report,
    run_drift_soak,
)


class TestDriftSoak:
    def test_quick_preset_all_invariants_hold(self, tmp_path):
        report = run_drift_soak(DriftSoakConfig.quick(), out_dir=tmp_path)
        assert report["all_passed"], report["failed_cases"]
        assert {c["scenario"] for c in report["cases"]} == {
            "network_ramp", "read_step", "rollback",
        }
        assert report["total_promotions"] >= 2
        assert report["total_rollbacks"] >= 1
        assert report["max_detection_latency_s"] <= DriftSoakConfig().latency_bound_s
        assert (tmp_path / "drift_soak_report.json").exists()

    def test_same_root_seed_identical_fingerprints(self, tmp_path):
        config = DriftSoakConfig(cases=1, determinism_check=False)
        one = run_drift_soak(config, out_dir=tmp_path / "a")
        two = run_drift_soak(config, out_dir=tmp_path / "b")
        assert [c["fingerprint"] for c in one["cases"]] == [
            c["fingerprint"] for c in two["cases"]
        ]

    def test_render_lists_every_case(self, tmp_path):
        report = run_drift_soak(
            DriftSoakConfig(cases=1, determinism_check=False), out_dir=tmp_path
        )
        rendered = render_drift_soak_report(report)
        assert "network_ramp" in rendered
        assert "ALL INVARIANTS HELD" in rendered

    def test_cli_drift_soak_exit_zero(self, tmp_path, capsys):
        code = main(["soak", "--drift", "--quick", "--out", str(tmp_path / "run")])
        assert code == 0
        assert "drift soak" in capsys.readouterr().out


class TestFailureModes:
    def test_failure_mode_classification(self):
        assert _failure_mode({"supervised_completed": True}) is None
        assert _failure_mode({}) is None  # experiments without the flag
        assert (
            _failure_mode(
                {"supervised_completed": False, "supervised_budget_exhausted": True}
            )
            == "budget_exhausted"
        )
        assert (
            _failure_mode(
                {"supervised_completed": False, "supervised_budget_exhausted": False}
            )
            == "failed"
        )

    def test_merge_exit_generic_failure_wins(self):
        assert _merge_exit(0, "budget_exhausted") == EXIT_BUDGET_EXHAUSTED
        assert _merge_exit(0, "failed") == 1
        assert _merge_exit(1, "budget_exhausted") == 1  # generic 1 sticks
        assert _merge_exit(EXIT_BUDGET_EXHAUSTED, "failed") == 1

    def test_budget_exhaustion_reported_distinctly(self, capsys):
        from repro.harness.cli import _report_failure

        _report_failure("x", "budget_exhausted")
        _report_failure("y", "failed")
        err = capsys.readouterr().err
        assert "BUDGET EXHAUSTED x" in err and "max_elapsed" in err
        assert "FAILED y" in err
        assert "not a stall timeout" in err
