"""End-to-end integrity: manifest, journal, ledger, verified resume/repair."""

import hashlib

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
from repro.utils.errors import IntegrityError
from repro.utils.units import GiB


def make_supervisor(faults=None, *, max_seconds=240.0, gigabytes=2):
    testbed = Testbed(
        TestbedConfig(
            source=StorageConfig(tpt=80, bandwidth=1000),
            destination=StorageConfig(tpt=200, bandwidth=1000),
            network=NetworkConfig(tpt=160, capacity=1000, ramp_time=0.0),
            sender_buffer_capacity=1.0 * GiB,
            receiver_buffer_capacity=1.0 * GiB,
            max_threads=30,
        ),
        rng=0,
        faults=faults,
    )
    engine = ModularTransferEngine(
        testbed,
        uniform_dataset(gigabytes, 1e9),
        StaticController((13, 7, 5)),
        EngineConfig(max_seconds=max_seconds, seed=0),
    )
    return TransferSupervisor(engine, SupervisorConfig(seed=0))


def make_manifest(*, files=2, size=1e9, chunk_size=0.25e9, **kwargs):
    return TransferManifest(
        "ds", tuple((f"f{i:02d}", size) for i in range(files)), chunk_size, **kwargs
    )


class TestManifest:
    def test_chunking_covers_dataset(self):
        manifest = make_manifest(files=3, size=1e9, chunk_size=0.3e9)
        assert len(manifest) == 3 * 4  # ceil(1e9 / 0.3e9) = 4 per file
        assert manifest.total_bytes == pytest.approx(3e9)
        last = manifest.chunks[3]  # final chunk of the first file
        assert last.size == pytest.approx(1e9 - 3 * 0.3e9)

    def test_deterministic_and_seed_sensitive(self):
        assert make_manifest().expected() == make_manifest().expected()
        assert make_manifest().expected() != make_manifest(content_seed=1).expected()

    def test_roundtrip(self, tmp_path):
        manifest = make_manifest(content_seed=3)
        manifest.save(tmp_path / "manifest.json")
        loaded = TransferManifest.load(tmp_path / "manifest.json")
        assert loaded.expected() == manifest.expected()
        assert loaded.to_dict() == manifest.to_dict()

    def test_tampered_manifest_fails_loudly(self, tmp_path):
        manifest = make_manifest()
        blob = manifest.to_dict()
        blob["chunks"][0][5] ^= 1  # flip a digest bit
        with pytest.raises(IntegrityError):
            TransferManifest.from_dict(blob)

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


class TestJournal:
    def test_replay_last_record_wins(self, tmp_path):
        with ChunkJournal(tmp_path / "j.jsonl") as journal:
            journal.record_batch([0], [111], 1.0)
            journal.record_batch([1], [222], 2.0)
            journal.record_batch([0], [333], 3.0)  # re-send supersedes
        journal = ChunkJournal(tmp_path / "j.jsonl")
        assert journal.replay() == {0: 333, 1: 222}
        journal.close()

    def test_missing_file_means_no_claims(self, tmp_path):
        journal = ChunkJournal(tmp_path / "never-written.jsonl")
        assert journal.replay() == {}

    def test_crash_loses_unflushed_buffer(self, tmp_path):
        journal = ChunkJournal(tmp_path / "j.jsonl", flush_every=1000)
        journal.record_batch([0], [111], 1.0)
        journal.flush()
        journal.record_batch([1], [222], 2.0)  # buffered, never flushed
        journal.crash()
        assert ChunkJournal(tmp_path / "j.jsonl").replay() == {0: 111}

    def test_torn_tail_truncated_and_appendable(self, tmp_path):
        journal = ChunkJournal(tmp_path / "j.jsonl", flush_every=1)
        journal.record_batch([0], [111], 1.0)
        journal.crash(torn_tail=True)
        resumed = ChunkJournal(tmp_path / "j.jsonl", flush_every=1)
        assert resumed.replay() == {0: 111}  # torn fragment dropped
        resumed.record_batch([1], [222], 2.0)  # post-recovery append lands cleanly
        resumed.close()
        assert ChunkJournal(tmp_path / "j.jsonl").replay() == {0: 111, 1: 222}

    def test_replay_idempotent(self, tmp_path):
        journal = ChunkJournal(tmp_path / "j.jsonl", flush_every=1)
        for i in range(10):
            journal.record_batch([i], [i * 7], float(i))
        journal.crash(torn_tail=True)
        journal = ChunkJournal(tmp_path / "j.jsonl")
        first = journal.replay()
        assert journal.replay() == first
        assert journal.replay() == first


class TestLedger:
    def test_sync_maps_bytes_to_chunks_in_order(self):
        manifest = make_manifest(files=1, size=1e9, chunk_size=0.25e9)
        ledger = DestinationLedger(manifest)
        ledger.begin_pass([0, 1, 2, 3], start_bytes=0.0)
        assert ledger.sync(0.3e9, 1.0) == [(0, manifest.chunks[0].digest)]
        assert ledger.status_counts() == {"ok": 1, "missing": 3}
        assert ledger.status[0] == "ok" and ledger.status[1] == "missing"
        done = ledger.sync(1e9, 2.0)
        assert [cid for cid, _ in done] == [1, 2, 3]
        assert ledger.verify() == []
        assert ledger.verified_bytes == pytest.approx(1e9)

    def test_stale_observation_ignored(self):
        ledger = DestinationLedger(make_manifest())
        ledger.begin_pass(list(range(8)), start_bytes=0.0)
        ledger.sync(0.5e9, 1.0)
        assert ledger.sync(0.4e9, 2.0) == []  # byte counts only move forward

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
        assert set(ledger.status.values()) == {"corrupt"}
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
        assert ledger.status[0] == "ok"
        assert ledger.status[1] == "torn"
        assert not ledger.matches(1)

    def test_silent_truncation_drops_recent_chunks(self):
        faults = FaultSchedule(SilentTruncation(at=5.0, chunks=2))
        manifest = make_manifest(files=1, size=1e9, chunk_size=0.25e9)
        ledger = DestinationLedger(manifest, faults)
        ledger.begin_pass([0, 1, 2, 3], start_bytes=0.0)
        ledger.sync(0.8e9, 1.0)  # chunks 0-2 durable
        ledger.sync(1e9, 6.0)  # truncation fires, then chunk 3 lands
        assert ledger.status[0] == "ok"
        assert ledger.status[1] == "missing" and ledger.status[2] == "missing"
        assert ledger.status[3] == "ok"
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
        assert ledger.status[0] == "corrupt" and ledger.status[1] == "corrupt"
        # Chunks 2-3 completed after the instant: untouched.
        assert ledger.status[2] == "ok" and ledger.status[3] == "ok"

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
            manifest.size_of(c) for c in bad
        ))
        ledger.sync(manifest.total_bytes, 2.0)
        assert len(ledger.verify()) < len(bad)  # fresh draws recover some

    def test_snapshot_roundtrip(self, tmp_path):
        manifest = make_manifest()
        ledger = DestinationLedger(manifest, seed=5)
        ledger.begin_pass(list(range(len(manifest))), start_bytes=0.0)
        ledger.sync(manifest.total_bytes, 1.0)
        ledger.save(tmp_path / "destination.json")
        from repro.utils.config import load_json

        loaded = DestinationLedger.from_dict(
            manifest, load_json(tmp_path / "destination.json")
        )
        assert loaded.status == ledger.status
        assert loaded.digests == ledger.digests
        assert loaded.verified_bytes == ledger.verified_bytes
        assert loaded.bytes_applied_total == ledger.bytes_applied_total


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
        assert vt.journal.replay().keys() == vt.manifest.expected().keys()

    def test_faulted_run_repairs_only_damaged_chunks(self, tmp_path):
        faults = FaultSchedule(
            [
                DataCorruption(start=2.0, duration=8.0, rate=0.4),
                TornWrite(at=5.0),
                SilentTruncation(at=12.0, chunks=2),
            ]
        )
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
        assert all(vt.ledger.send_counts[c] >= 2 for c in resent)

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
        claimed = vt.journal.replay()
        expected = vt.manifest.expected()
        good_claims = {c for c, d in claimed.items() if d == expected[c]}
        bad_before = set(vt.ledger.verify())

        result = vt.run(resume=True, resume_elapsed=crash_at)
        vt.journal.close()

        assert result.clean  # completed, every digest verified
        assert vt.ledger.verify() == []
        # Journal claims that matched the manifest were NOT re-transferred...
        accepted = good_claims & {
            c for c in expected if c not in set(result.resent_chunk_ids)
        }
        assert result.resumed_verified_chunks == len(accepted) > 0
        assert not (accepted & set(result.resent_chunk_ids))
        # ...and every chunk that was damaged at crash time was re-sent.
        resent = set(result.resent_chunk_ids)
        assert bad_before - good_claims <= resent | (bad_before - set(claimed))
        for chunk_id in resent & set(claimed):
            # Claimed-then-resent means the claim mismatched: real damage.
            assert claimed[chunk_id] != expected[chunk_id] or chunk_id not in good_claims
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
        vt.ledger.status[0] = "corrupt"  # bit rot after the run
        vt.ledger.digests[0] = 12345
        vt.ledger.save(tmp_path / "destination.json")
        report = verify_artifacts(tmp_path)
        assert not report["all_verified"]
        assert report["destination_bad_chunks"] == [0]


class TestBatchedJournal:
    """Coalescing WAL lanes: chunkbatch, chunkrun, and mixed legacy records."""

    def test_record_batch_replays_like_singles(self, tmp_path):
        journal = ChunkJournal(tmp_path / "j.jsonl", flush_every=1)
        journal.record_batch([3, 1, 4], [30, 10, 40], 1.0)
        journal.record_batch([1], [99], 2.0)  # later single claim wins for chunk 1
        journal.close()
        assert journal.replay() == {3: 30, 1: 99, 4: 40}

    def test_record_runs_coalesces_consecutive_calls(self, tmp_path):
        expected = {i: 1000 + i for i in range(10)}
        journal = ChunkJournal(
            tmp_path / "j.jsonl", flush_every=100, expected=expected
        )
        journal.record_runs([0, 1, 2], 1.0)
        journal.record_runs([3, 4], 2.0)  # extends the open run in place
        journal.record_runs([7, 8], 3.0)  # gap: new run
        journal.close()
        lines = (tmp_path / "j.jsonl").read_text().strip().splitlines()
        assert len(lines) == 2  # two coalesced chunkrun records, not four
        assert journal.replay() == {c: expected[c] for c in (0, 1, 2, 3, 4, 7, 8)}

    def test_chunkrun_replay_requires_expected_digests(self, tmp_path):
        journal = ChunkJournal(tmp_path / "j.jsonl", flush_every=1, expected={0: 5})
        journal.record_runs([0], 1.0)
        journal.close()
        blind = ChunkJournal(tmp_path / "j.jsonl")
        with pytest.raises(IntegrityError):
            blind.replay()
        blind.close()

    def test_claim_counting_flush_bound(self, tmp_path):
        # Batch appends count *claims*, not lines: 3+3 claims with
        # flush_every=4 must hit disk after the second batch.
        journal = ChunkJournal(
            tmp_path / "j.jsonl", flush_every=4, expected={i: i for i in range(10)}
        )
        journal.record_runs([0, 1, 2], 1.0)
        assert (
            not (tmp_path / "j.jsonl").exists()
            or (tmp_path / "j.jsonl").read_text() == ""
        )
        journal.record_runs([3, 4, 5], 2.0)
        on_disk = (tmp_path / "j.jsonl").read_text()
        assert "chunkrun" in on_disk
        journal.crash()  # nothing buffered any more: all claims survive
        resumed = ChunkJournal(tmp_path / "j.jsonl", expected={i: i for i in range(10)})
        assert resumed.replay() == {i: i for i in range(6)}
        resumed.close()

    def test_crash_loses_open_coalesced_run(self, tmp_path):
        journal = ChunkJournal(
            tmp_path / "j.jsonl", flush_every=100, expected={i: i for i in range(8)}
        )
        journal.record_runs([0, 1], 1.0)
        journal.flush()  # claims 0-1 durable
        journal.record_runs([2, 3], 2.0)  # open run, still buffered
        journal.crash(torn_tail=True)
        resumed = ChunkJournal(tmp_path / "j.jsonl", expected={i: i for i in range(8)})
        assert resumed.replay() == {0: 0, 1: 1}
        resumed.close()

    def test_faulted_sync_journals_batch_with_actual_digests(self, tmp_path):
        faults = FaultSchedule(DataCorruption(start=0.0, duration=100.0, rate=1.0))
        manifest = make_manifest()
        ledger = DestinationLedger(manifest, faults, seed=1)
        journal = ChunkJournal(
            tmp_path / "j.jsonl", flush_every=1, expected=manifest.chunk_digests
        )
        ledger.begin_pass(range(len(manifest)), start_bytes=0.0)
        ledger.sync(manifest.total_bytes, 1.0, journal)
        journal.close()
        claims = journal.replay()
        # Every chunk corrupted: journaled digests differ from the manifest.
        assert claims.keys() == manifest.expected().keys()
        assert all(claims[c] != manifest.chunk_digests[c] for c in claims)
        text = (tmp_path / "j.jsonl").read_text()
        assert "chunkbatch" in text and "chunkrun" not in text

    @pytest.mark.parametrize(
        ("faulted", "digest"),
        [
            (False, "a87a7675a461f4d799203dcb2f44c19bb3d870eae79e3389dc1f7d178c7ac7ed"),
            (True, "b1d834d77c259b7694ffcbfe48ae5585add393c6a6c27086d15a87b7ad6aedb8"),
        ],
        ids=["clean", "faulted"],
    )
    def test_journal_file_is_pinned(self, tmp_path, faulted, digest):
        # sha256 of journal.jsonl: chunkrun records on the clean path,
        # chunkbatch records with divergent digests on the faulted one.
        faults = FaultSchedule(
            [
                DataCorruption(start=2.0, duration=8.0, rate=0.4),
                TornWrite(at=5.0),
                SilentTruncation(at=12.0, chunks=2),
            ]
        ) if faulted else None
        vt = VerifiedTransfer.for_supervisor(
            make_supervisor(faults),
            tmp_path,
            IntegrityConfig(chunk_size=16e6, journal_flush_every=32, seed=1),
        )
        assert vt.run().clean
        vt.journal.close()
        assert hashlib.sha256((tmp_path / "journal.jsonl").read_bytes()).hexdigest() == digest


class TestZeroCopyPipeline:
    """Tag digests come from one arena sweep; divergent digests chain off
    the expected value without the payload bytes."""

    def test_digests_match_per_chunk_oracle(self):
        manifest = make_manifest(content_seed=3)
        for chunk in manifest.chunks:
            tag = f"{manifest.dataset_name}:{chunk.file}:{chunk.index}:{manifest.content_seed}"
            assert chunk.digest == crc32c(tag.encode())

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
        assert len({manifest.chunk_digests[0], *digests[:4]}) == 5


class TestColumnarLedgerViews:
    def test_status_column_behaves_like_dict(self):
        manifest = make_manifest()
        ledger = DestinationLedger(manifest)
        assert ledger.status[0] == "missing"
        assert set(ledger.status.keys()) == set(range(len(manifest)))
        assert ledger.status.values() == ["missing"] * len(manifest)
        ledger.status[2] = "corrupt"
        assert ledger.status.get(2) == "corrupt"
        assert ledger.status.get(99, "absent") == "absent"
        assert dict(ledger.status.items())[2] == "corrupt"
        assert ledger.status == {
            cid: ("corrupt" if cid == 2 else "missing") for cid in range(len(manifest))
        }

    def test_digest_column_none_sentinel(self):
        ledger = DestinationLedger(make_manifest())
        assert ledger.digests[0] is None
        ledger.digests[0] = 123
        assert ledger.digests[0] == 123
        ledger.digests[0] = None
        assert ledger.digests[0] is None

    def test_column_equality_across_ledgers(self):
        a = DestinationLedger(make_manifest())
        b = DestinationLedger(make_manifest())
        assert a.status == b.status and a.digests == b.digests
        b.send_counts[1] = 5
        assert a.send_counts != b.send_counts

    def test_clean_and_empty_faulted_sync_paths_agree(self):
        # The batched clean path and the scalar faulted path must produce
        # identical ledger state for the same byte trace.
        manifest = make_manifest()
        clean = DestinationLedger(manifest)
        faulted = DestinationLedger(manifest, FaultSchedule())  # no events
        for ledger in (clean, faulted):
            ledger.begin_pass(range(len(manifest)), start_bytes=0.0)
        done_clean, done_faulted = [], []
        step = manifest.total_bytes / 7
        for i in range(1, 8):
            done_clean += clean.sync(step * i, float(i))
            done_faulted += faulted.sync(step * i, float(i))
        assert done_clean == done_faulted
        assert clean.status == faulted.status
        assert clean.digests == faulted.digests
        assert clean.send_counts == faulted.send_counts
        assert clean.verified_bytes == faulted.verified_bytes


class TestVerifyTelemetry:
    def test_run_emits_verify_counter_and_gauge(self, tmp_path):
        from repro import obs

        vt = VerifiedTransfer.for_supervisor(
            make_supervisor(), tmp_path / "run", IntegrityConfig(chunk_size=0.25e9)
        )
        with obs.session(tmp_path / "obs") as sess:
            result = vt.run()
        vt.journal.close()
        assert result.clean
        assert result.verify_seconds > 0.0
        assert result.verify_mb_per_s > 0.0
        counter = sess.registry.counter("transfer.verify.bytes")
        assert counter.value == pytest.approx(vt.manifest.total_bytes)
        gauge = sess.registry.gauge("transfer.verify.mb_per_s")
        assert gauge.value == pytest.approx(result.verify_mb_per_s)
