"""`automdt fleet` surface: report artifacts, exit codes, soak mode."""

import json

from repro.harness.cli import main


class TestFleetCommand:
    def test_fleet_writes_report_and_exits_zero(self, capsys, tmp_path):
        code = main(
            ["fleet", "--transfers", "4", "--tenants", "2", "--gb", "0.1",
             "--seed", "0", "--out", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet" in out and "ALL INVARIANTS HELD" in out
        report = json.loads((tmp_path / "fleet_report.json").read_text())
        assert report["all_passed"]
        assert report["admission"]["admitted"] == 4
        assert len(report["tenants"]) == 2
        assert report["unrecovered_jobs"] == []

    def test_fleet_exits_nonzero_on_unrecovered_transfer(self, capsys, tmp_path):
        # A horizon far too small to finish the jobs forces typed failures,
        # which the CLI must surface as a non-zero exit.
        code = main(
            ["fleet", "--transfers", "4", "--tenants", "2", "--gb", "0.5",
             "--seed", "0", "--horizon", "10", "--out", str(tmp_path)]
        )
        assert code == 1
        report = json.loads((tmp_path / "fleet_report.json").read_text())
        assert not report["all_passed"]
        assert report["unrecovered_jobs"]

    def test_fleet_report_is_seed_reproducible(self, capsys, tmp_path):
        argv = ["fleet", "--transfers", "4", "--tenants", "2", "--gb", "0.1",
                "--seed", "7"]
        assert main([*argv, "--out", str(tmp_path / "one")]) == 0
        assert main([*argv, "--out", str(tmp_path / "two")]) == 0
        first = json.loads((tmp_path / "one" / "fleet_report.json").read_text())
        second = json.loads((tmp_path / "two" / "fleet_report.json").read_text())
        assert first["fingerprint"] == second["fingerprint"]


class TestFleetSoakCommand:
    def test_soak_mode_writes_soak_report(self, capsys, tmp_path):
        code = main(
            ["fleet", "--soak", "--cases", "1", "--transfers", "8",
             "--tenants", "2", "--gb", "0.1", "--seed", "0", "--out", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet soak" in out
        report = json.loads((tmp_path / "fleet_soak_report.json").read_text())
        assert report["all_passed"]
        assert len(report["cases"]) == 1

    def test_soak_mode_honours_horizon(self, capsys, tmp_path):
        # --horizon applies on top of --quick, like --workers; a 10 s
        # budget cannot finish the jobs, so the soak fails its invariants.
        code = main(["fleet", "--soak", "--quick", "--horizon", "10", "--out", str(tmp_path)])
        assert code == 1
        report = json.loads((tmp_path / "fleet_soak_report.json").read_text())
        assert report["config"]["horizon"] == 10.0

    def test_soak_mode_rejects_capacity(self, capsys, tmp_path):
        code = main(["fleet", "--soak", "--capacity-mbps", "800", "--out", str(tmp_path)])
        assert code == 2
        assert "--capacity-mbps" in capsys.readouterr().err
        assert not (tmp_path / "fleet_soak_report.json").exists()
