"""End-to-end integrity: manifest, journal, ledger, verified resume/repair."""

import copy
import functools
import gc
import hashlib
import operator
import tracemalloc

import numpy as np
import pytest

from repro.baselines import StaticController
from repro.emulator import (
    DataCorruption,
    FaultSchedule,
    NetworkConfig,
    SilentTruncation,
    StorageConfig,
    Testbed,
    TestbedConfig,
    TornWrite,
)
from repro.obs.events import read_events
from repro.transfer import (
    ChunkJournal,
    DestinationLedger,
    EngineConfig,
    IntegrityConfig,
    ModularTransferEngine,
    SupervisorConfig,
    TransferManifest,
    TransferSupervisor,
    VerifiedTransfer,
    verify_artifacts,
)
from repro.transfer.files import uniform_dataset
from repro.utils.checksum import crc32c
from repro.utils.config import dump_json, load_json
from repro.utils.errors import ConfigError, IntegrityError
from repro.utils.units import GiB
from repro.workloads import mixed_dataset
from tests.transfer import journal_oracle


def make_supervisor(faults=None, *, max_seconds=240.0, gigabytes=2, dataset=None, scale=1.0):
    """A supervised transfer of ``gigabytes`` 1 GB files (or ``dataset``)
    over a testbed whose rates and buffers are multiplied by ``scale``."""
    testbed = Testbed(
        TestbedConfig(
            source=StorageConfig(tpt=80 * scale, bandwidth=1000 * scale),
            destination=StorageConfig(tpt=200 * scale, bandwidth=1000 * scale),
            network=NetworkConfig(tpt=160 * scale, capacity=1000 * scale, ramp_time=0.0),
            sender_buffer_capacity=1.0 * GiB * scale,
            receiver_buffer_capacity=1.0 * GiB * scale,
            max_threads=30,
        ),
        rng=0,
        faults=faults,
    )
    engine = ModularTransferEngine(
        testbed,
        dataset if dataset is not None else uniform_dataset(gigabytes, 1e9),
        StaticController((13, 7, 5)),
        EngineConfig(max_seconds=max_seconds, seed=0),
    )
    return TransferSupervisor(engine, SupervisorConfig(seed=0))


def make_manifest(*, files=2, size=1e9, chunk_size=0.25e9, **kwargs):
    return TransferManifest(
        "ds", tuple((f"f{i:02d}", size) for i in range(files)), chunk_size, **kwargs
    )


def statuses(ledger):
    """Per-chunk status names, read through the ledger's snapshot."""
    chunks = ledger.to_dict()["chunks"]
    return [chunks[str(cid)]["status"] for cid in range(len(chunks))]


#: Faults of the pinned faulted input: in-flight corruption, a tear and a
#: truncation, so re-sends and truncation both shape the destination order.
FAULTED = (
    DataCorruption(start=2.0, duration=8.0, rate=0.4),
    TornWrite(at=5.0),
    SilentTruncation(at=12.0, chunks=2),
)


class TestManifest:
    def test_chunking_covers_dataset(self):
        manifest = make_manifest(files=3, size=1e9, chunk_size=0.3e9)
        assert len(manifest) == 3 * 4  # ceil(1e9 / 0.3e9) = 4 per file
        assert manifest.total_bytes == pytest.approx(3e9)
        # The final chunk of the first file, then the first of the second.
        cid, file, index, offset, size, _ = manifest.to_dict()["chunks"][3]
        assert (cid, file, index) == (3, "f00", 3)
        assert offset == pytest.approx(0.9e9)
        assert size == pytest.approx(1e9 - 3 * 0.3e9) == manifest.sizes_np[3]
        assert manifest.to_dict()["chunks"][4][1:4] == ["f01", 0, pytest.approx(1e9)]

    def test_deterministic_and_seed_sensitive(self):
        assert np.array_equal(make_manifest().digests_np, make_manifest().digests_np)
        assert not np.array_equal(
            make_manifest().digests_np, make_manifest(content_seed=1).digests_np
        )

    def test_roundtrip(self, tmp_path):
        manifest = make_manifest(content_seed=3)
        manifest.save(tmp_path / "manifest.json")
        loaded = TransferManifest.load(tmp_path / "manifest.json")
        assert np.array_equal(loaded.digests_np, manifest.digests_np)
        assert loaded.to_dict() == manifest.to_dict()

    def test_tampered_manifest_fails_loudly(self, tmp_path):
        manifest = make_manifest()
        blob = manifest.to_dict()
        blob["chunks"][0][5] ^= 1  # flip a digest bit
        with pytest.raises(IntegrityError):
            TransferManifest.from_dict(blob)

    @pytest.mark.parametrize(
        "edit",
        [
            # Chunk 0's row with a flipped digest, then its true row: a
            # later row for the same id must not override an earlier one.
            lambda rows: rows.insert(0, rows[0][:5] + [rows[0][5] ^ 1]),
            lambda rows: rows.append(list(rows[2])),
            lambda rows: rows.__setitem__(4, rows[3][:1] + rows[4][1:]),
            lambda rows: rows.pop(),
        ],
        ids=["flipped-duplicate-first", "extra-duplicate", "id-repeated-id-missing", "row-missing"],
    )
    def test_chunk_table_needs_one_row_per_id(self, edit):
        blob = make_manifest(files=1, chunk_size=0.2e9).to_dict()
        assert len(blob["chunks"]) == 5
        edit(blob["chunks"])
        with pytest.raises(IntegrityError, match="exactly one row"):
            TransferManifest.from_dict(blob)

    def test_chunk_rows_may_come_in_any_order(self):
        manifest = make_manifest(files=1, chunk_size=0.2e9)
        blob = manifest.to_dict()
        blob["chunks"].reverse()
        assert TransferManifest.from_dict(blob).to_dict() == manifest.to_dict()

    @pytest.mark.parametrize(
        ("row", "field", "edit"),
        [(1, 0, lambda _: True), (0, 5, float), (0, 5, str)],
        ids=["bool-id", "float-digest", "string-digest"],
    )
    def test_non_integer_row_id_or_digest_rejected(self, row, field, edit):
        # ``true`` is chunk 1 to ``int()``, and the float and the numeric
        # string are the right digest: only the JSON-int rule refuses them.
        blob = make_manifest().to_dict()
        blob["chunks"][row][field] = edit(blob["chunks"][row][field])
        with pytest.raises(IntegrityError, match="not an int"):
            TransferManifest.from_dict(blob)

    @pytest.mark.parametrize(
        ("row", "field", "value"),
        [(2, 1, "other"), (2, 2, 3), (1, 3, 123.0), (1, 4, 1.0), (1, 4, float("nan")),
         (1, 4, [0.25e9]), (1, 3, "0.25e9")],
        ids=["file", "index", "offset", "size", "nan-size", "list-size", "string-offset"],
    )
    def test_chunk_row_must_match_the_layout(self, row, field, value):
        # Each row's file, index, offset and size must be the build's, as
        # its id and digest must.
        blob = make_manifest().to_dict()
        blob["chunks"][row][field] = value
        with pytest.raises(IntegrityError, match="layout"):
            TransferManifest.from_dict(blob)

    @pytest.mark.parametrize("size", [-5.0, float("nan"), float("inf")])
    def test_file_size_must_be_finite_and_non_negative(self, size):
        with pytest.raises(ConfigError, match="finite and non-negative"):
            TransferManifest("ds", [("a", size), ("b", 1e9)], 0.25e9)
        # The same file in a manifest file: its row would otherwise load.
        blob = TransferManifest("ds", [("a", 5.0), ("b", 1e9)], 0.25e9).to_dict()
        blob["files"][0][1] = blob["chunks"][0][4] = size
        with pytest.raises(IntegrityError, match="finite and non-negative"):
            TransferManifest.from_dict(blob)
        # A zero-byte file is legal: one empty chunk.
        empty = TransferManifest("ds", [("a", 0.0), ("b", 1e9)], 0.25e9)
        assert len(empty) == 5 and empty.sizes_np[0] == 0.0

    def test_unknown_algorithm_rejected(self):
        # A manifest file comes from outside the program: one naming any
        # digest but CRC32C is refused, not re-derived with CRC32C.
        for algorithm in ("xxh32", "md5"):
            blob = make_manifest().to_dict()
            blob["algorithm"] = algorithm
            with pytest.raises(IntegrityError):
                TransferManifest.from_dict(blob)

    @pytest.mark.parametrize(
        ("name", "files", "content_seed", "digest"),
        [
            (
                "ds",
                (("f00", 1e9), ("f01", 1e9)),
                0,
                "52951b05a2c2b3ca6f9e9c79ac83292b934505e479979da1a11e474cca7d40c1",
            ),
            (
                "ragged-set",
                (("a", 1e9), ("bb", 0.3e9), ("dir/ccc.h5", 2.7e9), ("e", 1.0)),
                7,
                "897e4a9f836b2b9c79adadfdd8c043a198e3e17b7874a49f60389f2bae10b9ca",
            ),
        ],
        ids=["two-files", "ragged"],
    )
    def test_manifest_file_is_pinned(self, tmp_path, name, files, content_seed, digest):
        # sha256 of the saved to_dict() JSON: chunking, tag digests and the
        # file layout (its "algorithm" field included) must not move.
        manifest = TransferManifest(name, files, 0.25e9, content_seed=content_seed)
        manifest.save(tmp_path / "manifest.json")
        assert hashlib.sha256((tmp_path / "manifest.json").read_bytes()).hexdigest() == digest


#: Manifest digest column for the hand-written journals below.
EXPECTED = tuple(range(1000, 1010))


class TestJournal:
    def test_replay_last_record_wins(self, tmp_path):
        with ChunkJournal(tmp_path / "j.jsonl", EXPECTED[:2]) as journal:
            journal.record_batch([0], [111], 1.0)
            journal.record_batch([1], [222], 2.0)
            journal.record_batch([0], [333], 3.0)  # re-send supersedes
        journal = ChunkJournal(tmp_path / "j.jsonl", EXPECTED[:2])
        claims = journal.replay()
        assert claims.dtype == np.int64
        assert claims.tolist() == [333, 222]
        journal.close()

    def test_missing_file_means_no_claims(self, tmp_path):
        journal = ChunkJournal(tmp_path / "never-written.jsonl", EXPECTED[:3])
        assert journal.replay().tolist() == [-1, -1, -1]

    def test_crash_loses_unflushed_buffer(self, tmp_path):
        journal = ChunkJournal(tmp_path / "j.jsonl", EXPECTED[:2], flush_every=1000)
        journal.record_batch([0], [111], 1.0)
        journal.flush()
        journal.record_batch([1], [222], 2.0)  # buffered, never flushed
        journal.crash()
        assert ChunkJournal(tmp_path / "j.jsonl", EXPECTED[:2]).replay().tolist() == [111, -1]

    def test_torn_tail_truncated_and_appendable(self, tmp_path):
        journal = ChunkJournal(tmp_path / "j.jsonl", EXPECTED[:2], flush_every=1)
        journal.record_batch([0], [111], 1.0)
        journal.crash(torn_tail=True)
        resumed = ChunkJournal(tmp_path / "j.jsonl", EXPECTED[:2], flush_every=1)
        assert resumed.replay().tolist() == [111, -1]  # torn fragment dropped
        resumed.record_batch([1], [222], 2.0)  # post-recovery append lands cleanly
        resumed.close()
        assert ChunkJournal(tmp_path / "j.jsonl", EXPECTED[:2]).replay().tolist() == [111, 222]

    def test_replay_idempotent(self, tmp_path):
        journal = ChunkJournal(tmp_path / "j.jsonl", EXPECTED, flush_every=1)
        for i in range(10):
            journal.record_batch([i], [i * 7], float(i))
        journal.crash(torn_tail=True)
        journal = ChunkJournal(tmp_path / "j.jsonl", EXPECTED)
        first = journal.replay()
        assert np.array_equal(journal.replay(), first)
        assert np.array_equal(journal.replay(), first)

    @pytest.mark.parametrize(
        "record",
        [
            '{"type":"chunkbatch","t":1.0,"ids":[0,10],"digests":[5,6]}',
            '{"type":"chunkbatch","t":1.0,"ids":[-1],"digests":[5]}',
            '{"type":"chunkrun","t":1.0,"lo":8,"hi":11}',
            '{"type":"chunkrun","t":1.0,"lo":-2,"hi":3}',
        ],
        ids=["batch-past-end", "batch-negative", "run-past-end", "run-negative"],
    )
    def test_claim_outside_manifest_raises(self, tmp_path, record):
        # A journal claiming a chunk its manifest does not have belongs to
        # another manifest, or is damaged: replay refuses it.
        (tmp_path / "j.jsonl").write_text(record + "\n")
        journal = ChunkJournal(tmp_path / "j.jsonl", EXPECTED)
        with pytest.raises(IntegrityError):
            journal.replay()
        journal.close()

    @pytest.mark.parametrize(
        "record",
        [
            '{"type":"chunkrun","t":1.0,"lo":true,"hi":3}',
            '{"type":"chunkrun","t":1.0,"lo":1,"hi":3.5}',
            '{"type":"chunkbatch","t":1.0,"ids":[4.0],"digests":[1004]}',
            '{"type":"chunkbatch","t":1.0,"ids":[true],"digests":[1001]}',
            '{"type":"chunkbatch","t":1.0,"ids":[4],"digests":[1004.9]}',
            '{"type":"chunkbatch","t":1.0,"ids":[4],"digests":["1004"]}',
            '{"type":"chunkbatch","t":1.0,"ids":[4],"digests":[-1]}',
            '{"type":"chunkbatch","t":1.0,"ids":[4,5],"digests":[1004]}',
        ],
        ids=[
            "run-bool-lo", "run-float-hi", "batch-float-id", "batch-bool-id",
            "batch-float-digest", "batch-string-digest", "batch-negative-digest",
            "batch-missing-digest",
        ],
    )
    def test_claim_field_that_is_not_an_int_raises(self, tmp_path, record):
        # ``int()`` would fold each of these into a claim (a negative digest
        # into "unclaimed", a short digest list into fewer claims): a
        # damaged record is refused instead, and nothing is folded.
        (tmp_path / "j.jsonl").write_text(
            '{"type":"chunkbatch","t":0.5,"ids":[0],"digests":[1000]}\n' + record + "\n"
        )
        journal = ChunkJournal(tmp_path / "j.jsonl", EXPECTED)
        with pytest.raises(IntegrityError, match="malformed claim"):
            journal.replay()
        with pytest.raises(IntegrityError, match="malformed claim"):
            journal.replay()
        journal.close()


class TestLedger:
    def test_sync_maps_bytes_to_chunks_in_order(self):
        manifest = make_manifest(files=1, size=1e9, chunk_size=0.25e9)
        ledger = DestinationLedger(manifest)
        ledger.begin_pass([0, 1, 2, 3], start_bytes=0.0)
        ledger.sync(0.3e9, 1.0)
        assert ledger.status_counts() == {"ok": 1, "missing": 3}
        snapshot = ledger.to_dict()
        assert snapshot["order"] == [0]
        assert snapshot["chunks"]["0"] == {
            "status": "ok", "digest": manifest.digests_np[0].item(), "sends": 1
        }
        assert snapshot["chunks"]["1"] == {"status": "missing", "digest": None, "sends": 0}
        ledger.sync(1e9, 2.0)
        assert ledger.to_dict()["order"] == [0, 1, 2, 3]
        assert ledger.verify() == []
        assert ledger.verified_bytes == pytest.approx(1e9)

    def test_stale_observation_ignored(self):
        ledger = DestinationLedger(make_manifest())
        ledger.begin_pass(list(range(8)), start_bytes=0.0)
        ledger.sync(0.5e9, 1.0)
        before = ledger.to_dict()
        ledger.sync(0.4e9, 2.0)  # byte counts only move forward
        after = ledger.to_dict()
        assert after["clock"] == 2.0
        assert {**after, "clock": 1.0} == before

    def test_overshoot_raises(self):
        manifest = make_manifest(files=1, size=1e9, chunk_size=0.25e9)
        ledger = DestinationLedger(manifest)
        ledger.begin_pass([0], start_bytes=0.0)  # only one chunk pending
        with pytest.raises(IntegrityError):
            ledger.sync(1e9, 1.0)

    def test_inflight_corruption_window(self):
        faults = FaultSchedule(DataCorruption(start=0.0, duration=100.0, rate=1.0))
        manifest = make_manifest()
        ledger = DestinationLedger(manifest, faults, seed=1)
        ledger.begin_pass(list(range(len(manifest))), start_bytes=0.0)
        ledger.sync(manifest.total_bytes, 1.0)
        # rate=1.0 corrupts everything; digests diverge but byte totals don't.
        assert ledger.status_counts() == {"corrupt": len(manifest)}
        assert len(ledger.verify()) == len(manifest)
        assert ledger.verified_bytes == 0.0
        assert ledger.bytes_applied_total == pytest.approx(manifest.total_bytes)

    def test_torn_write_hits_chunk_in_flight(self):
        faults = FaultSchedule(TornWrite(at=5.0))
        manifest = make_manifest(files=1, size=1e9, chunk_size=0.25e9)
        ledger = DestinationLedger(manifest, faults)
        ledger.begin_pass([0, 1, 2, 3], start_bytes=0.0)
        ledger.sync(0.3e9, 1.0)  # chunk 0 lands before the tear
        ledger.sync(0.6e9, 6.0)  # tear fires in [1, 6); chunk 1 completes torn
        assert statuses(ledger)[:2] == ["ok", "torn"]
        assert ledger.verify() == [1, 2, 3]

    def test_silent_truncation_drops_recent_chunks(self):
        faults = FaultSchedule(SilentTruncation(at=5.0, chunks=2))
        manifest = make_manifest(files=1, size=1e9, chunk_size=0.25e9)
        ledger = DestinationLedger(manifest, faults)
        ledger.begin_pass([0, 1, 2, 3], start_bytes=0.0)
        ledger.sync(0.8e9, 1.0)  # chunks 0-2 durable
        ledger.sync(1e9, 6.0)  # truncation fires, then chunk 3 lands
        assert statuses(ledger) == ["ok", "missing", "missing", "ok"]
        assert ledger.to_dict()["order"] == [0, 3]
        assert sorted(ledger.verify()) == [1, 2]

    def test_atrest_corruption_strikes_durable_chunks(self):
        faults = FaultSchedule(
            DataCorruption(start=5.0, duration=1.0, rate=1.0, site="storage")
        )
        manifest = make_manifest(files=1, size=1e9, chunk_size=0.25e9)
        ledger = DestinationLedger(manifest, faults)
        ledger.begin_pass([0, 1, 2, 3], start_bytes=0.0)
        ledger.sync(0.5e9, 1.0)  # chunks 0-1 durable before the strike
        ledger.sync(1e9, 6.0)
        # Chunks 2-3 completed after the instant: untouched.
        assert statuses(ledger) == ["corrupt", "corrupt", "ok", "ok"]
        assert ledger.to_dict()["order"] == [0, 1, 2, 3]  # damage keeps its place

    def test_resend_gets_fresh_corruption_draw(self):
        # A window with rate<1: a chunk corrupted on send 1 can come back
        # clean on send 2 because the draw is keyed on (chunk, send_count).
        faults = FaultSchedule(DataCorruption(start=0.0, duration=1000.0, rate=0.5))
        manifest = make_manifest(files=4, size=1e9, chunk_size=0.25e9)
        ledger = DestinationLedger(manifest, faults, seed=0)
        ledger.begin_pass(list(range(len(manifest))), start_bytes=0.0)
        ledger.sync(manifest.total_bytes, 1.0)
        bad = ledger.verify()
        assert 0 < len(bad) < len(manifest)  # rate 0.5: some of each
        ledger.demote(bad)
        ledger.begin_pass(bad, start_bytes=manifest.total_bytes - sum(
            manifest.sizes_np[bad].tolist()
        ))
        ledger.sync(manifest.total_bytes, 2.0)
        assert len(ledger.verify()) < len(bad)  # fresh draws recover some
        # A re-send moves its chunk to the end of the completion order.
        good = [c for c in range(len(manifest)) if c not in bad]
        assert ledger.to_dict()["order"] == good + bad
        assert ledger.send_counts == {c: 2 if c in bad else 1 for c in range(len(manifest))}

    def test_snapshot_roundtrip(self, tmp_path):
        faults = FaultSchedule([DataCorruption(start=0.0, duration=10.0, rate=0.5)])
        manifest = make_manifest()
        ledger = DestinationLedger(manifest, faults, seed=3)  # chunks 0, 1, 4 re-sent
        ledger.begin_pass(list(range(len(manifest))), start_bytes=0.0)
        ledger.sync(manifest.total_bytes, 1.0)
        bad = ledger.verify()
        ledger.demote(bad)
        ledger.begin_pass(bad, start_bytes=manifest.total_bytes - sum(
            manifest.sizes_np[bad].tolist()
        ))
        ledger.sync(manifest.total_bytes, 20.0)
        ledger.save(tmp_path / "destination.json")

        loaded = DestinationLedger.from_dict(
            manifest, load_json(tmp_path / "destination.json")
        )
        assert loaded.to_dict() == ledger.to_dict()
        assert loaded.to_dict()["order"] != sorted(loaded.to_dict()["order"])
        assert loaded.verified_bytes == ledger.verified_bytes
        assert loaded.bytes_applied_total == ledger.bytes_applied_total

    @pytest.mark.parametrize(
        "order", [[0, 1, 1], [0, 8], [-1, 0]], ids=["repeat", "past-end", "negative"]
    )
    def test_snapshot_with_invalid_order_rejected(self, order):
        manifest = make_manifest()
        blob = DestinationLedger(manifest).to_dict()
        blob["order"] = order
        with pytest.raises(IntegrityError):
            DestinationLedger.from_dict(manifest, blob)


class TestVerifiedTransfer:
    def test_clean_run_nothing_resent(self, tmp_path):
        vt = VerifiedTransfer.for_supervisor(
            make_supervisor(), tmp_path, IntegrityConfig(chunk_size=0.25e9)
        )
        result = vt.run()
        vt.journal.close()
        assert result.clean
        assert result.resent_chunk_ids == ()
        assert result.repair_rounds == 0
        assert vt.ledger.verify() == []
        assert np.array_equal(vt.journal.replay(), vt.manifest.digests_np)

    def test_faulted_run_repairs_only_damaged_chunks(self, tmp_path):
        faults = FaultSchedule(list(FAULTED))
        vt = VerifiedTransfer.for_supervisor(
            make_supervisor(faults), tmp_path, IntegrityConfig(chunk_size=0.25e9, seed=1)
        )
        result = vt.run()
        vt.journal.close()
        assert result.clean
        assert result.repair_rounds >= 1
        resent = set(result.resent_chunk_ids)
        assert resent  # damage happened and was repaired
        assert len(resent) < result.chunks_total  # surgical, not a full re-send
        assert vt.ledger.verify() == []
        sends = vt.ledger.send_counts
        assert all(sends[c] >= 2 for c in resent)

    def test_acceptance_corruption_plus_crash_resends_only_damaged(self, tmp_path):
        """ISSUE acceptance: DataCorruption + mid-transfer crash; the resumed
        run verifies every manifest digest and re-transfers only the
        corrupted/torn chunks — counted by re-sent chunk ids."""
        faults = FaultSchedule(
            [DataCorruption(start=2.0, duration=10.0, rate=0.35), TornWrite(at=6.0)]
        )
        vt = VerifiedTransfer.for_supervisor(
            make_supervisor(faults),
            tmp_path,
            IntegrityConfig(chunk_size=0.25e9, seed=2, journal_flush_every=4),
        )

        crash_at = 12.0

        class Crash(Exception):
            pass

        def crasher(observation):
            if observation.elapsed >= crash_at:
                raise Crash

        with pytest.raises(Crash):
            vt.run(observer=crasher)
        vt.journal.crash(torn_tail=True)

        # State of the world at the crash: some chunks durable and claimed,
        # some durable-but-unclaimed (lost buffer), some damaged.
        claims = vt.journal.replay()
        expected = vt.manifest.digests_np
        claimed = set(np.flatnonzero(claims >= 0).tolist())
        good_claims = set(np.flatnonzero(claims == expected).tolist())
        bad_before = set(vt.ledger.verify())

        result = vt.run(resume=True, resume_elapsed=crash_at)
        vt.journal.close()

        assert result.clean  # completed, every digest verified
        assert vt.ledger.verify() == []
        # Journal claims that matched the manifest were NOT re-transferred...
        resent = set(result.resent_chunk_ids)
        accepted = good_claims - resent
        assert result.resumed_verified_chunks == len(accepted) > 0
        # ...and every chunk that was damaged at crash time was re-sent.
        assert bad_before - good_claims <= resent | (bad_before - claimed)
        # Claimed-then-resent means the claim mismatched: real damage.
        assert resent & claimed <= claimed - good_claims
        assert vt.ledger.bytes_applied_total >= vt.manifest.total_bytes - 1.0

    def test_unrecoverable_damage_reports_honestly(self, tmp_path):
        # rate=1.0 for the whole run: every send of every chunk corrupts, so
        # the repair budget runs out and the result says so.
        faults = FaultSchedule(DataCorruption(start=0.0, duration=1e5, rate=1.0))
        vt = VerifiedTransfer.for_supervisor(
            make_supervisor(faults, gigabytes=1),
            tmp_path,
            IntegrityConfig(chunk_size=0.5e9, max_repair_rounds=2),
        )
        result = vt.run()
        vt.journal.close()
        assert result.completed
        assert not result.verified
        assert result.repair_rounds == 2
        assert result.unrecovered_chunk_ids


class TestVerifyArtifacts:
    def test_clean_run_dir_verifies(self, tmp_path):
        vt = VerifiedTransfer.for_supervisor(
            make_supervisor(), tmp_path, IntegrityConfig(chunk_size=0.25e9)
        )
        vt.run()
        vt.journal.close()
        vt.manifest.save(tmp_path / "manifest.json")
        vt.ledger.save(tmp_path / "destination.json")
        report = verify_artifacts(tmp_path)
        assert report["all_verified"]
        assert report["replay_idempotent"]
        assert report["journal_claims_ok"] == report["chunks_total"]
        assert report["destination_bad_chunks"] == []

    def test_damaged_destination_flagged(self, tmp_path):
        vt = VerifiedTransfer.for_supervisor(
            make_supervisor(), tmp_path, IntegrityConfig(chunk_size=0.25e9)
        )
        vt.run()
        vt.journal.close()
        vt.manifest.save(tmp_path / "manifest.json")
        blob = vt.ledger.to_dict()
        blob["chunks"]["0"].update(status="corrupt", digest=12345)  # bit rot after the run
        dump_json(blob, tmp_path / "destination.json")
        report = verify_artifacts(tmp_path)
        assert not report["all_verified"]
        assert report["destination_bad_chunks"] == [0]


class TestBatchedJournal:
    """Coalescing WAL lanes: chunkbatch, chunkrun, and mixed legacy records."""

    def test_record_batch_replays_like_singles(self, tmp_path):
        journal = ChunkJournal(tmp_path / "j.jsonl", EXPECTED[:5], flush_every=1)
        journal.record_batch([3, 1, 4], [30, 10, 40], 1.0)
        journal.record_batch([1], [99], 2.0)  # later single claim wins for chunk 1
        journal.close()
        assert journal.replay().tolist() == [-1, 99, -1, 30, 40]

    def test_record_runs_coalesces_consecutive_calls(self, tmp_path):
        journal = ChunkJournal(tmp_path / "j.jsonl", EXPECTED, flush_every=100)
        journal.record_runs([0, 1, 2], 1.0)
        journal.record_runs([3, 4], 2.0)  # extends the open run in place
        journal.record_runs([7, 8], 3.0)  # gap: new run
        journal.close()
        lines = (tmp_path / "j.jsonl").read_text().strip().splitlines()
        assert len(lines) == 2  # two coalesced chunkrun records, not four
        assert journal.replay().tolist() == [
            1000, 1001, 1002, 1003, 1004, -1, -1, 1007, 1008, -1
        ]

    def test_chunkrun_replay_requires_expected_digests(self, tmp_path):
        # A chunkrun record elides its digests: only the manifest's digest
        # column resolves them, so a journal cannot be opened without it.
        journal = ChunkJournal(tmp_path / "j.jsonl", (5,), flush_every=1)
        journal.record_runs([0], 1.0)
        journal.close()
        assert ChunkJournal(tmp_path / "j.jsonl", (7,)).replay().tolist() == [7]
        with pytest.raises(TypeError):
            ChunkJournal(tmp_path / "j.jsonl")

    def test_claim_counting_flush_bound(self, tmp_path):
        # Batch appends count *claims*, not lines: 3+3 claims with
        # flush_every=4 must hit disk after the second batch.
        journal = ChunkJournal(tmp_path / "j.jsonl", tuple(range(10)), flush_every=4)
        journal.record_runs([0, 1, 2], 1.0)
        assert (
            not (tmp_path / "j.jsonl").exists()
            or (tmp_path / "j.jsonl").read_text() == ""
        )
        journal.record_runs([3, 4, 5], 2.0)
        on_disk = (tmp_path / "j.jsonl").read_text()
        assert "chunkrun" in on_disk
        journal.crash()  # nothing buffered any more: all claims survive
        resumed = ChunkJournal(tmp_path / "j.jsonl", tuple(range(10)))
        assert resumed.replay().tolist() == [0, 1, 2, 3, 4, 5, -1, -1, -1, -1]
        resumed.close()

    def test_crash_loses_open_coalesced_run(self, tmp_path):
        journal = ChunkJournal(tmp_path / "j.jsonl", tuple(range(8)), flush_every=100)
        journal.record_runs([0, 1], 1.0)
        journal.flush()  # claims 0-1 durable
        journal.record_runs([2, 3], 2.0)  # open run, still buffered
        journal.crash(torn_tail=True)
        resumed = ChunkJournal(tmp_path / "j.jsonl", tuple(range(8)))
        assert resumed.replay().tolist() == [0, 1, -1, -1, -1, -1, -1, -1]
        resumed.close()

    def test_faulted_sync_journals_batch_with_actual_digests(self, tmp_path):
        faults = FaultSchedule(DataCorruption(start=0.0, duration=100.0, rate=1.0))
        manifest = make_manifest()
        ledger = DestinationLedger(manifest, faults, seed=1)
        journal = ChunkJournal(tmp_path / "j.jsonl", manifest.digests_np, flush_every=1)
        ledger.begin_pass(range(len(manifest)), start_bytes=0.0)
        ledger.sync(manifest.total_bytes, 1.0, journal)
        journal.close()
        claims = journal.replay()
        # Every chunk corrupted: journaled digests differ from the manifest.
        assert (claims >= 0).all()
        assert (claims != manifest.digests_np).all()
        text = (tmp_path / "j.jsonl").read_text()
        assert "chunkbatch" in text and "chunkrun" not in text

    @pytest.mark.parametrize(
        ("events", "journal_digest", "destination_digest"),
        [
            (
                None,
                "a87a7675a461f4d799203dcb2f44c19bb3d870eae79e3389dc1f7d178c7ac7ed",
                "e41a287e59371e766706b62dbe54a4893e78c80565454521d25044d85aed98df",
            ),
            (
                FAULTED,
                "b1d834d77c259b7694ffcbfe48ae5585add393c6a6c27086d15a87b7ad6aedb8",
                "5a7ed235df4b8ca7cb0a728eec75ee13dadc2543561ed5012b89164a87ea0529",
            ),
            (
                FAULTED + (DataCorruption(start=9.0, duration=1.0, rate=0.5, site="storage"),),
                "619a9831361ad8c4a731110786b4fc2325b0c06797b52ef395f098dffd152ea1",
                "f4fda592d9f666bfe683bb206434ec42008b0ecef91420b073cc086545e395a1",
            ),
        ],
        ids=["clean", "faulted", "at-rest"],
    )
    def test_journal_file_is_pinned(
        self, tmp_path, events, journal_digest, destination_digest
    ):
        # sha256 of journal.jsonl and the saved destination.json: chunkrun
        # records on the clean path, chunkbatch records with divergent
        # digests on the faulted ones; re-sends, truncation and at-rest
        # damage all shape the destination's completion order.
        faults = FaultSchedule(list(events)) if events else None
        vt = VerifiedTransfer.for_supervisor(
            make_supervisor(faults),
            tmp_path,
            IntegrityConfig(chunk_size=16e6, journal_flush_every=32, seed=1),
        )
        assert vt.run().clean
        vt.journal.close()
        vt.ledger.save(tmp_path / "destination.json")
        assert hashlib.sha256((tmp_path / "journal.jsonl").read_bytes()).hexdigest() == (
            journal_digest
        )
        assert hashlib.sha256(
            (tmp_path / "destination.json").read_bytes()
        ).hexdigest() == destination_digest


#: Manifests for the per-tag oracle, as ``(dataset, files, content_seed)``
#: at 1-byte chunks, so a file's size is its chunk count: the edges of the
#: prefix/tail split that the build's digest combine rests on.
ORACLE_MANIFESTS = {
    "no-files": ("ds", (), 0),
    "zero-byte-file": ("ds", (("empty", 0.0), ("f", 3.0), ("g", 0.0)), 5),
    "non-ascii-and-empty-names": (
        "dätä", (("", 2.0), ("ファイル", 3.0), ("é/ü.h5", 1.0), ("", 1.0)), 9
    ),
    "empty-dataset-name": ("", (("f", 2.0),), 1),
    "negative-seed": ("ds", (("f", 12.0), ("g", 1.0)), -123456789),
    "seed-2**62": ("ds", (("f", 12.0), ("g", 3.0)), 2**62),
    "seed-past-int64": ("ds", (("f", 12.0),), 2**64 + 7),
    "indices-cross-10": ("ds", (("a", 10.0), ("b", 11.0), ("c", 9.0)), 3),
    "indices-cross-100": ("ds", (("a", 101.0), ("b", 100.0), ("c", 1.0)), 3),
    "indices-cross-1000": ("ds", (("a", 99.0), ("b", 1001.0), ("c", 12.0)), 2**61),
    "indices-cross-10000": ("ds", (("a", 10_001.0), ("b", 1.0), ("c", 150.0)), 11),
}


class TestZeroCopyPipeline:
    """Tag digests are combined from prefix and tail digests; divergent
    digests chain off the expected value without the payload bytes."""

    def test_digests_match_per_chunk_oracle(self):
        manifest = make_manifest(content_seed=3)
        for cid, file, index, _offset, _size, digest in manifest.to_dict()["chunks"]:
            tag = f"{manifest.dataset_name}:{file}:{index}:{manifest.content_seed}"
            assert digest == manifest.digests_np[cid] == crc32c(tag.encode())

    @pytest.mark.parametrize("case", sorted(ORACLE_MANIFESTS))
    def test_digest_columns_match_per_tag_oracle(self, case):
        name, files, content_seed = ORACLE_MANIFESTS[case]
        manifest = TransferManifest(name, files, 1.0, content_seed=content_seed)
        oracle = [
            crc32c(f"{name}:{file}:{index}:{content_seed}".encode())
            for _cid, file, index, *_ in manifest.to_dict()["chunks"]
        ]
        assert len(oracle) == sum(max(1, int(size)) for _, size in files)
        assert manifest.digests_np.dtype == np.uint32
        assert manifest.digests_np.tolist() == oracle

    def test_mixed_manifest_digests_are_pinned(self):
        # sha256 of the digest column of a 100 GB Mixed set at 4 MB chunks
        # (1,591 files, 25,881 chunks, in-file indices up to 536).
        manifest = TransferManifest.from_dataset(mixed_dataset(total_bytes=1e11, rng=0), 4e6)
        assert len(manifest) == 25_881
        column = manifest.digests_np.astype("<i8").tobytes()
        assert hashlib.sha256(column).hexdigest() == (
            "246f7d097ab9382777ed6754087544ff5fb3f695aaedf0be4409ab0f811d5c59"
        )

    def test_divergent_digests_unique_per_marker(self):
        # Divergent digests differ from the expected digest and from each
        # other.  They are pinned too: journals and destination files hold
        # them.
        manifest = make_manifest()
        ledger = DestinationLedger(manifest, FaultSchedule(TornWrite(at=1.0)))
        markers = (b"|torn:1", b"|flip:1", b"|rest:1", b"|torn:2")
        digests = [ledger._divergent_digest(c, m) for c in (0, 5) for m in markers]
        assert digests == [
            1008849964, 2345802399, 985935019, 795944920,
            3322313657, 1911928074, 3236135742, 3579217997,
        ]
        assert len({manifest.digests_np[0].item(), *digests[:4]}) == 5


class TestColumnarLedgerViews:
    def test_clean_and_empty_faulted_sync_paths_agree(self):
        # The deferred clean path and the scalar faulted path must produce
        # identical ledger state, completion order included, for the same
        # byte trace.
        manifest = make_manifest()
        clean = DestinationLedger(manifest)
        faulted = DestinationLedger(manifest, FaultSchedule())  # no events
        for ledger in (clean, faulted):
            ledger.begin_pass(range(len(manifest)), start_bytes=0.0)
        step = manifest.total_bytes / 7
        for i in range(1, 8):
            clean.sync(step * i, float(i))
            faulted.sync(step * i, float(i))
            assert clean.to_dict() == faulted.to_dict()
        assert clean.to_dict()["order"] == list(range(len(manifest)))
        assert clean.send_counts == faulted.send_counts
        assert clean.verified_bytes == faulted.verified_bytes


class TestOneColumnPerField:
    def test_one_terabyte_state_is_at_most_64_bytes_a_chunk(self):
        # 1 TB at 4 MB chunks: 250k chunks.  The manifest keeps its size,
        # digest and cumulative-size columns (20 bytes a chunk), and the
        # ledger a queue over the manifest's own cumulative column; no
        # per-chunk copy.
        dataset = uniform_dataset(1000, 1e9)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            manifest = TransferManifest.from_dataset(dataset, 4e6)
            ledger = DestinationLedger(manifest)
            ledger.begin_pass(range(len(manifest)), start_bytes=0.0)
            ledger.sync(manifest.total_bytes / 2, 1.0)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(manifest) == 250_000
        assert retained / len(manifest) <= 64
        assert ledger.status_counts() == {"ok": 125_000, "missing": 125_000}

    def test_resume_start_bytes_is_the_left_to_right_sum(self, tmp_path):
        # One-chunk files: a 2**52-byte one, then half-byte ones.  Added left
        # to right, each half rounds away (a tie, to even); numpy's pairwise
        # ``np.sum`` adds halves together first and keeps them.  The resume
        # checkpoint must carry the left-to-right bits.
        sizes = [2.0**52] + [0.5] * 299
        manifest = TransferManifest(
            "ragged", [(f"f{i:03d}", size) for i, size in enumerate(sizes)], 2.0**53
        )
        ledger = DestinationLedger(manifest)
        journal = ChunkJournal(tmp_path / "j.jsonl", manifest.digests_np)
        ledger.begin_pass(range(len(manifest)), start_bytes=0.0)
        ledger.sync(manifest.total_bytes, 1.0, journal)
        journal.flush()
        lost = [c for c in range(len(manifest)) if c % 3]
        ledger.demote(lost)
        vt = VerifiedTransfer(None, manifest, ledger, journal)
        start_bytes, verified, resent = vt._verified_resume()
        kept = sizes[::3]
        assert (verified, resent) == (len(kept), lost)
        assert start_bytes == functools.reduce(operator.add, kept) == 2.0**52
        assert np.sum(kept) > start_bytes
        assert type(start_bytes) is float
        journal.close()

    @pytest.mark.parametrize(
        ("name", "chunks", "bound"), [("large", 25_000, 22), ("mixed", 25_881, 32)]
    )
    def test_clean_transfer_keeps_only_the_manifest_columns(self, tmp_path, name, chunks, bound):
        # A clean transfer reads only the manifest's sizes and running byte
        # totals, and its final verify reads the ledger's queue: it keeps
        # the manifest's 20 bytes a chunk (8 size, 4 digest, 8 running
        # total) and, on Mixed's 1,591 files, the file table; no ledger
        # column, and no copy of the digest column in the journal.
        if name == "large":
            dataset = uniform_dataset(25, 4e9)
        else:
            dataset = mixed_dataset(total_bytes=1e11, rng=0)
        supervisor = make_supervisor(dataset=dataset, scale=100.0, max_seconds=3600.0)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            vt = VerifiedTransfer.for_supervisor(
                supervisor, tmp_path, IntegrityConfig(chunk_size=4e6)
            )
            result = vt.run()
            vt.journal.close()
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert result.clean
        assert len(vt.manifest) == chunks
        assert kept / chunks <= bound
        assert vt.ledger._status_arr is None
        assert vt.journal._expected is vt.manifest.digests_np


class EagerLedger(DestinationLedger):
    """A ledger that folds its columns after every sync: the reference a
    lazily held ledger's answers must equal."""

    def sync(self, bytes_total, t, journal=None):
        super().sync(bytes_total, t, journal)
        self._materialize()


def ledger_views(ledger):
    """Every query of ``ledger``, asked of a copy (a query may create the
    columns, which would end the laziness under test)."""
    ledger = copy.deepcopy(ledger)
    return {
        "verify": ledger.verify(),
        "mask": ledger.verified_mask().tolist(),
        "verified_bytes": ledger.verified_bytes,
        "status_counts": ledger.status_counts(),
        "send_counts": ledger.send_counts,
        "to_dict": ledger.to_dict(),
    }


def drive_ledger(ledger, scenario, journal):
    """Run ``scenario`` on ``ledger``, yielding after each step: a full or
    partial pass in five syncs, then a pass over the rest, a demote and
    repair pass, or a verified resume after the third sync."""
    manifest = ledger.manifest
    partial = scenario in ("partial", "partial-then-rest")
    ids = [1, 2, 3, 7, 8, 12] if partial else range(len(manifest))
    end = float(manifest.sizes_np[list(ids)].sum())
    ledger.begin_pass(ids, start_bytes=0.0)
    yield
    for i in range(1, 4 if scenario == "resume" else 6):
        ledger.sync(end * i / 5, 3.0 * i, journal)
        yield
    if scenario == "partial-then-rest":
        rest = sorted(set(range(len(manifest))) - set(ids))
        ledger.begin_pass(rest, start_bytes=end)
        yield
        for i in range(1, 4):
            ledger.sync(end + (manifest.total_bytes - end) * i / 3, 15.0 + i, journal)
            yield
    if scenario == "resume":
        journal.flush()
        VerifiedTransfer(None, manifest, ledger, journal)._verified_resume()
        yield
        ledger.sync(end, 10.0, journal)
        yield
    if scenario in ("demote-repair", "faulted"):
        bad = [2, 5, 6] if scenario == "demote-repair" else ledger.verify()
        assert bad
        ledger.demote(bad)
        yield
        rewind = float(manifest.sizes_np[bad].sum())
        ledger.begin_pass(bad, start_bytes=end - rewind)
        for i in range(1, 4):
            ledger.sync(end - rewind + rewind * i / 3, 15.0 + i, journal)
            yield


class TestLazyLedgerColumns:
    @pytest.mark.parametrize(
        "scenario", ["full", "partial", "partial-then-rest", "demote-repair", "resume", "faulted"]
    )
    def test_lazy_ledger_answers_as_an_eager_one(self, tmp_path, scenario):
        manifest = make_manifest(files=3, chunk_size=0.2e9)
        runs = []
        for cls in (DestinationLedger, EagerLedger):
            faults = FaultSchedule(list(FAULTED)) if scenario == "faulted" else None
            ledger = cls(manifest, faults, seed=1)
            journal = ChunkJournal(tmp_path / f"{cls.__name__}.jsonl", manifest.digests_np)
            runs.append((ledger, journal, drive_ledger(ledger, scenario, journal)))
        (lazy, lazy_journal, lazy_steps), (eager, eager_journal, eager_steps) = runs
        for step, _ in enumerate(zip(lazy_steps, eager_steps, strict=True)):
            assert ledger_views(lazy) == ledger_views(eager), (scenario, step)
        lazy_journal.close()
        eager_journal.close()
        # Only a second pass, a demote, a resume (which demotes) or a fault
        # needs the columns.
        assert (lazy._status_arr is None) == (scenario in ("full", "partial"))


def _journal_lines(tmp_path, kind):
    """The journal of a clean run, a faulted run, or a crash-with-torn-tail
    resume of a faulted run, as lines (each with its newline)."""
    faults = None if kind == "clean" else FaultSchedule(list(FAULTED))
    vt = VerifiedTransfer.for_supervisor(
        make_supervisor(faults),
        tmp_path,
        IntegrityConfig(chunk_size=4e6, journal_flush_every=8, seed=1),
    )
    if kind == "crash-resume":

        class Crash(Exception):
            pass

        def crasher(observation):
            if observation.elapsed >= 6.0:
                raise Crash

        with pytest.raises(Crash):
            vt.run(observer=crasher)
        vt.journal.crash(torn_tail=True)
        result = vt.run(resume=True, resume_elapsed=6.0)
    else:
        result = vt.run()
    assert result.clean
    vt.journal.close()
    return (tmp_path / "journal.jsonl").read_text().splitlines(keepends=True), vt.manifest


class TestReplayOracle:
    """The claim column equals the dict-fold oracle at every crash point."""

    @pytest.mark.parametrize("kind", ["clean", "faulted", "crash-resume"])
    def test_every_prefix_matches_oracle(self, tmp_path, kind):
        lines, manifest = _journal_lines(tmp_path / "run", kind)
        expected = manifest.digests_np
        assert len(lines) > 3
        path = tmp_path / "j.jsonl"
        for k in range(len(lines) + 1):
            prefix = "".join(lines[:k])
            # The next record torn halfway, as a process killed mid-write
            # leaves it.
            fragment = lines[k][: len(lines[k]) // 2] if k < len(lines) else '{"type":"chunkb'
            for text in (prefix, prefix + fragment):
                path.write_text(prefix)
                want = journal_oracle.claim_column(
                    journal_oracle.replay(path, expected), len(manifest)
                )
                path.write_text(text)
                journal = ChunkJournal(path, expected)
                assert np.array_equal(journal.replay(), want), (kind, k, text == prefix)
                journal.close()
                assert path.read_text() == prefix

    @pytest.mark.parametrize("kind", ["clean", "faulted", "crash-resume"])
    def test_every_prefix_matches_oracle_incrementally(self, tmp_path, kind):
        """One long-lived journal replays the file as it grows line by line,
        through torn tails, crashes, outside truncation and a malformed line."""
        lines, manifest = _journal_lines(tmp_path / "run", kind)
        expected = manifest.digests_np
        path, reference = tmp_path / "j.jsonl", tmp_path / "oracle.jsonl"
        journal = ChunkJournal(path, expected)

        def check(k, tail=""):
            """Replay equals the oracle at ``lines[:k]``; the file holds that
            prefix (plus ``tail``, a complete line no heal removes)."""
            prefix = "".join(lines[:k])
            reference.write_text(prefix)
            want = journal_oracle.claim_column(
                journal_oracle.replay(reference, expected), len(manifest)
            )
            assert np.array_equal(journal.replay(), want), (kind, k, tail)
            held = path.read_text() if path.exists() else ""
            assert held == prefix + tail, (kind, k)

        def append(text):
            with path.open("a") as fh:
                fh.write(text)

        check(0)  # no file yet
        for k, line in enumerate(lines):
            append(line[: len(line) // 2])  # killed mid-write ...
            check(k)  # ... and healed back to the cursor
            append(line)
            if k % 7 == 3:
                journal.crash(torn_tail=True)  # resume replays, then appends go on
                check(k + 1)
            if k % 11 == 5:
                check(k + 1)
                path.write_text("".join(lines[: k // 2]))  # shorter than the cursor
                check(k // 2)
                append("".join(lines[k // 2 : k + 1]))
            if k % 5 == 2 and k + 1 < len(lines):
                bad = '{"type":"chunkbatch","t":\n'
                append(bad)  # complete but malformed: dropped while it is last
                check(k + 1, tail=bad)
                check(k + 1, tail=bad)
                append(lines[k + 1])  # no longer last: raises, as read_events does
                with pytest.raises(ValueError) as want:
                    read_events(path)
                with pytest.raises(ValueError) as got:
                    journal.replay()
                assert str(got.value) == str(want.value)
                path.write_text("".join(lines[: k + 1]))
            check(k + 1)
        journal.close()
        assert journal._claims is None  # close() releases the kept column
        check(len(lines))


class TestVerifyTelemetry:
    def test_run_counts_verify_bytes_and_times_sweeps(self, tmp_path):
        """Verification reports the bytes it covered and the time it took;
        no bytes-per-second gauge, since the final verify digests no bytes
        (a column compare) and the ratio would not be a hashing rate."""
        from repro import obs

        vt = VerifiedTransfer.for_supervisor(
            make_supervisor(), tmp_path / "run", IntegrityConfig(chunk_size=0.25e9)
        )
        with obs.session(tmp_path / "obs") as sess:
            result = vt.run()
        vt.journal.close()
        assert result.clean
        assert result.verify_seconds > 0.0
        counter = sess.registry.counter("transfer.verify.bytes")
        assert counter.value == pytest.approx(vt.manifest.total_bytes)
        assert "transfer.verify.mb_per_s" not in sess.registry
