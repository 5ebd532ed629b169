"""CLI integrity surface: soak / verify subcommands and run exit codes."""

import json
import shutil

import pytest

from repro.harness.cli import main
from repro.harness.experiments import EXPERIMENTS, ExperimentResult


@pytest.fixture(scope="module")
def soak_case(tmp_path_factory):
    """One chaos soak case directory, written once for the tampering tests."""
    out = tmp_path_factory.mktemp("soak")
    assert main(["soak", "--cases", "1", "--gb", "0.5", "--out", str(out)]) == 0
    return out / "case000"


def _tampered(soak_case, tmp_path, name, tamper):
    """A copy of ``soak_case`` with ``tamper`` applied to its JSON file ``name``."""
    case = tmp_path / "case"
    shutil.copytree(soak_case, case)
    blob = json.loads((case / name).read_text())
    tamper(blob)
    (case / name).write_text(json.dumps(blob))
    return case


def _rekey(old, new):
    """Move destination chunk entry ``old`` to key ``new`` (count unchanged)."""

    def tamper(blob):
        blob["chunks"][new] = blob["chunks"].pop(old)

    return tamper


def _edit_entry(field, edit):
    """Replace ``field`` of destination chunk ``"0"`` by ``edit(value)``."""

    def tamper(blob):
        entry = blob["chunks"]["0"]
        entry[field] = edit(entry[field])

    return tamper


#: Destination chunk entries ``DestinationLedger.from_dict`` must refuse.
BAD_CHUNK_ENTRIES = {
    "key_past_the_manifest": _rekey("0", "999"),
    "negative_key": _rekey("0", "-1"),
    "non_canonical_key": _rekey("0", "00"),
    "unknown_status": _edit_entry("status", lambda _: "bogus"),
    "float_digest": _edit_entry("digest", float),
    "string_digest": _edit_entry("digest", str),
    "bool_digest": _edit_entry("digest", lambda _: True),
    "negative_sends": _edit_entry("sends", lambda _: -1),
    "float_sends": _edit_entry("sends", lambda sends: sends + 0.5),
    "no_chunk_table": lambda blob: blob.pop("chunks"),
}


def _first_order_entry_listed(blob):
    blob["order"][0] = [blob["order"][0]]


#: Numeric artifact fields that are JSON null or a list, per artifact file.
BAD_NUMERIC_FIELDS = {
    "destination_null_clock": ("destination.json", lambda d: d.update(clock=None)),
    "destination_list_order_entry": ("destination.json", _first_order_entry_listed),
    "manifest_null_chunk_size": ("manifest.json", lambda m: m.update(chunk_size=None)),
}


def _drop(key):
    def tamper(blob):
        del blob[key]

    return tamper


def _set_row(row):
    def tamper(blob):
        blob["chunks"][0] = row(blob["chunks"][0])

    return tamper


#: Manifest shapes ``TransferManifest.from_dict`` must refuse.
BAD_MANIFESTS = {
    "row_with_five_fields": _set_row(lambda row: row[:5]),
    "row_that_is_an_object": _set_row(lambda _: {"0": 1}),
    "missing_chunks": _drop("chunks"),
    "missing_files": _drop("files"),
    "missing_chunk_size": _drop("chunk_size"),
    "missing_algorithm": _drop("algorithm"),
    "string_content_seed": lambda blob: blob.update(content_seed=str(blob["content_seed"])),
    # Chunk 0's row with a flipped digest before its true row, and one
    # extra copy of a row: each id needs exactly one row.
    "flipped_duplicate_row_first": lambda blob: blob["chunks"].insert(
        0, blob["chunks"][0][:5] + [blob["chunks"][0][5] ^ 1]
    ),
    "extra_duplicate_row": lambda blob: blob["chunks"].append(list(blob["chunks"][1])),
    # A row's file, index, offset and size are the build's, like its digest.
    "row_size_edited": lambda blob: blob["chunks"][1].__setitem__(4, 1.0),
    "row_offset_edited": lambda blob: blob["chunks"][1].__setitem__(3, 123.0),
    "row_file_renamed": lambda blob: blob["chunks"][2].__setitem__(1, "other"),
    "row_index_edited": lambda blob: blob["chunks"][2].__setitem__(2, 5),
}


class TestSoakCommand:
    def test_soak_writes_report_and_exits_zero(self, capsys, tmp_path):
        code = main(
            ["soak", "--cases", "1", "--gb", "0.5", "--seed", "0", "--out", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "chaos soak" in out and "ALL INVARIANTS HELD" in out
        report = json.loads((tmp_path / "soak_report.json").read_text())
        assert report["all_passed"]
        assert len(report["cases"]) == 1

    def test_soak_quick_preset_flag(self, capsys, tmp_path):
        code = main(
            ["soak", "--quick", "--no-crashes", "--workers", "2", "--out", str(tmp_path)]
        )
        assert code == 0
        report = json.loads((tmp_path / "soak_report.json").read_text())
        assert len(report["cases"]) == 3  # quick preset pins the case count
        assert not report["config"]["crashes"]
        assert report["config"]["workers"] == 2  # applied on top of the preset


class TestVerifyCommand:
    def test_verify_soak_case_dir(self, capsys, tmp_path):
        assert main(["soak", "--cases", "1", "--gb", "0.5", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        code = main(["verify", str(tmp_path / "case000")])
        assert code == 0
        out = capsys.readouterr().out
        assert "VERIFIED" in out

    def test_verify_missing_dir_is_usage_error(self, capsys, tmp_path):
        assert main(["verify", str(tmp_path / "nope")]) == 2
        assert "cannot verify" in capsys.readouterr().err

    def test_verify_flags_damaged_destination(self, capsys, tmp_path):
        assert main(["soak", "--cases", "1", "--gb", "0.5", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        destination = tmp_path / "case000" / "destination.json"
        blob = json.loads(destination.read_text())
        first = next(iter(blob["chunks"]))
        blob["chunks"][first]["digest"] = 1  # bit rot after the run
        destination.write_text(json.dumps(blob))
        code = main(["verify", str(tmp_path / "case000")])
        assert code == 1
        assert "VERIFICATION FAILED" in capsys.readouterr().out


    def test_verify_manifest_with_unknown_algorithm_is_usage_error(
        self, capsys, tmp_path, soak_case
    ):
        case = _tampered(
            soak_case, tmp_path, "manifest.json", lambda m: m.update(algorithm="xxh32")
        )
        capsys.readouterr()
        assert main(["verify", str(case)]) == 2
        assert "cannot verify" in capsys.readouterr().err

    def test_verify_journal_claim_outside_manifest_is_usage_error(
        self, capsys, tmp_path, soak_case
    ):
        case = _tampered(soak_case, tmp_path, "manifest.json", lambda m: None)
        chunks = len(json.loads((case / "manifest.json").read_text())["chunks"])
        with (case / "journal.jsonl").open("a") as fh:
            fh.write(
                '{"type":"chunkbatch","t":99.000,"ids":[%d],"digests":[1]}\n' % chunks
            )
        capsys.readouterr()
        assert main(["verify", str(case)]) == 2
        assert "cannot verify" in capsys.readouterr().err

    def test_verify_destination_repeating_an_order_id_is_usage_error(
        self, capsys, tmp_path, soak_case
    ):
        case = _tampered(
            soak_case, tmp_path, "destination.json",
            lambda d: d["order"].append(d["order"][0]),
        )
        capsys.readouterr()
        assert main(["verify", str(case)]) == 2
        assert "cannot verify" in capsys.readouterr().err


    @pytest.mark.parametrize("tamper", sorted(BAD_CHUNK_ENTRIES))
    def test_verify_destination_with_a_bad_chunk_entry_is_usage_error(
        self, capsys, tmp_path, soak_case, tamper
    ):
        case = _tampered(soak_case, tmp_path, "destination.json", BAD_CHUNK_ENTRIES[tamper])
        capsys.readouterr()
        assert main(["verify", str(case)]) == 2
        assert "cannot verify" in capsys.readouterr().err


    @pytest.mark.parametrize("tamper", sorted(BAD_NUMERIC_FIELDS))
    def test_verify_non_numeric_field_is_usage_error(
        self, capsys, tmp_path, soak_case, tamper
    ):
        case = _tampered(soak_case, tmp_path, *BAD_NUMERIC_FIELDS[tamper])
        capsys.readouterr()
        assert main(["verify", str(case)]) == 2
        assert "cannot verify" in capsys.readouterr().err

    @pytest.mark.parametrize("tamper", sorted(BAD_MANIFESTS))
    def test_verify_malformed_manifest_is_usage_error(
        self, capsys, tmp_path, soak_case, tamper
    ):
        case = _tampered(soak_case, tmp_path, "manifest.json", BAD_MANIFESTS[tamper])
        capsys.readouterr()
        assert main(["verify", str(case)]) == 2
        assert "cannot verify" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["manifest.json", "destination.json"])
    def test_verify_artifact_that_is_not_an_object_is_usage_error(
        self, capsys, tmp_path, soak_case, name
    ):
        case = _tampered(soak_case, tmp_path, name, lambda blob: None)
        (case / name).write_text("[]")
        capsys.readouterr()
        assert main(["verify", str(case)]) == 2
        assert "cannot verify" in capsys.readouterr().err

    def test_verify_journal_record_with_null_bound_is_usage_error(
        self, capsys, tmp_path, soak_case
    ):
        case = _tampered(soak_case, tmp_path, "manifest.json", lambda m: None)
        with (case / "journal.jsonl").open("a") as fh:
            fh.write('{"type":"chunkrun","t":1.000,"lo":null,"hi":3}\n')
        capsys.readouterr()
        assert main(["verify", str(case)]) == 2
        assert "cannot verify" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "record",
        [
            '{"type":"chunkrun","t":1.000,"lo":true,"hi":3.5}',
            '{"type":"chunkbatch","t":1.000,"ids":[4.0],"digests":[1004.9]}',
        ],
        ids=["run-bool-and-float-bounds", "batch-float-id-and-digest"],
    )
    def test_verify_journal_claim_that_is_not_an_int_is_usage_error(
        self, capsys, tmp_path, soak_case, record
    ):
        case = _tampered(soak_case, tmp_path, "manifest.json", lambda m: None)
        with (case / "journal.jsonl").open("a") as fh:
            fh.write(record + "\n")
        capsys.readouterr()
        assert main(["verify", str(case)]) == 2
        assert "cannot verify" in capsys.readouterr().err


class TestRunExitCodes:
    def test_run_fails_when_supervised_transfer_fails(self, capsys, monkeypatch):
        def doomed(*, fast=True, seed=0):
            return ExperimentResult(
                "doomed", summary={"supervised_completed": False}, tables=[]
            )

        monkeypatch.setitem(EXPERIMENTS, "doomed", doomed)
        code = main(["run", "doomed"])
        assert code == 1
        assert "FAILED doomed" in capsys.readouterr().err

    def test_run_fails_when_verification_fails(self, capsys, monkeypatch):
        def unverified(*, fast=True, seed=0):
            return ExperimentResult(
                "unverified",
                summary={"supervised_completed": True, "verified": False},
                tables=[],
            )

        monkeypatch.setitem(EXPERIMENTS, "unverified", unverified)
        assert main(["run", "unverified"]) == 1

    def test_unsupervised_failure_alone_is_not_an_error(self, capsys, monkeypatch):
        # Bare-engine failure is the *demonstration* in fault experiments;
        # only the supervised/verified outcome drives the exit code.
        def demo(*, fast=True, seed=0):
            return ExperimentResult(
                "demo",
                summary={"unsupervised_completed": False, "supervised_completed": True},
                tables=[],
            )

        monkeypatch.setitem(EXPERIMENTS, "demo", demo)
        assert main(["run", "demo"]) == 0
