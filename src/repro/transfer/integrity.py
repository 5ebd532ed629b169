"""End-to-end data integrity: checksummed chunks, manifest, WAL, verified resume.

PR 1 made transfers *available* under faults (stall detection, retry,
checkpoint-resume) — but nothing in that stack can detect **wrong bytes**:
a resumed :class:`~repro.transfer.supervisor.TransferCheckpoint` trusts
every previously counted byte.  This module adds the verification layer
production transfer services (GridFTP/Globus-style) treat as table stakes:

* :class:`TransferManifest` — the dataset split into fixed-size chunks,
  each with an expected CRC32C digest of its payload tag; the digests are
  combined from one :func:`~repro.utils.checksum.crc32c_many` sweep over
  the per-file tag prefixes and per-index tag tails, without building a
  tag.
* :class:`ChunkJournal` — an append-only JSONL write-ahead journal of
  chunk completions with a **coalescing writer**: a sync's claims fold
  into one buffered ``chunkbatch`` or ``chunkrun`` record, flushed
  whenever ``flush_every`` claims are buffered, so a crash still loses at
  most ``flush_every`` claims.  Replayed with the torn-tail-tolerant
  reader and last-record-wins semantics into a **claim column** (the
  digest last claimed per chunk id, ``-1`` = unclaimed).
* :class:`DestinationLedger` — the emulator-side destination truth,
  stored **columnar** (numpy per-chunk status, digest, send-count and
  completion-sequence arrays indexed by chunk id) so verification sweeps
  and verified resume are single vector ops.  The
  fluid model moves byte *counts*, not bytes, so each chunk's content is
  identified by a deterministic payload tag; data-plane faults
  (:class:`~repro.emulator.faults.DataCorruption`,
  :class:`~repro.emulator.faults.TornWrite`,
  :class:`~repro.emulator.faults.SilentTruncation`) divert a chunk's
  *digest* without ever changing a byte count — exactly the failures only
  end-to-end verification can catch.
* :class:`VerifiedTransfer` — wraps a
  :class:`~repro.transfer.supervisor.TransferSupervisor`: maps durable
  byte progress onto chunks via the supervisor's interval observer,
  journals completions, re-verifies journaled chunks on resume
  (re-transferring only mismatches), and runs bounded repair passes until
  every manifest digest matches.  Counts ``transfer.verify.bytes`` and
  times its sweeps (``verify_seconds``), so ``automdt obs summary`` shows
  how much verification it did.

Verify-on-resume state machine::

    REPLAY(journal) --> VERIFY(claims vs ledger) --> RESUME(verified bytes)
    RESUME --> TRANSFER(pending chunks) --> FINAL_VERIFY
    FINAL_VERIFY --(mismatches, rounds left)--> REPAIR(bad chunks) --> FINAL_VERIFY
    FINAL_VERIFY --(clean)--> VERIFIED

Everything is deterministic: corruption draws come from
:func:`repro.parallel.seeds.spawn_key` on ``(chunk_id, send_count)``, so a
re-sent chunk gets a fresh draw while identical runs stay bit-identical.
"""

from __future__ import annotations

import json
import os
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import obs
from repro.emulator.faults import (
    DataCorruption,
    FaultSchedule,
    SilentTruncation,
    TornWrite,
)
from repro.obs.events import JsonlEventWriter
from repro.transfer.engine import Observation
from repro.transfer.supervisor import (
    SupervisedTransferResult,
    TransferCheckpoint,
    TransferSupervisor,
)
from repro.utils.checksum import crc32c, crc32c_many, crc32c_zeros
from repro.utils.config import dump_json, load_json, require_positive
from repro.utils.errors import ConfigError, IntegrityError
from repro.parallel.seeds import spawn_key

__all__ = [
    "ChunkJournal",
    "DestinationLedger",
    "IntegrityConfig",
    "TransferManifest",
    "VerifiedTransfer",
    "VerifiedTransferResult",
    "verify_artifacts",
]

#: Serialization version for manifest / destination-ledger JSON files.
MANIFEST_VERSION = 1

#: The digest algorithm a manifest file names; the only one there is.
_ALGORITHM = "crc32c"

#: Engine completion tolerance (the engine declares a transfer done at
#: ``total - 0.5`` bytes), reused as the chunk-completion epsilon so the
#: final chunk completes when the engine says the dataset did.
_COMPLETE_EPS = 0.5

#: Deferred-format journal records — formatted at writer-flush time so
#: journaling inside the transfer loop costs one list append.  A
#: ``chunkbatch`` record carries a whole sync's completions; ``%s`` on a
#: list of ints renders valid JSON (``[1, 2, 3]``).
_BATCH_FMT = '{"type":"chunkbatch","t":%.3f,"ids":%s,"digests":%s}'
_RUN_FMT = '{"type":"chunkrun","t":%.3f,"lo":%d,"hi":%d}'

# Derivation-path tags for seeded corruption draws (first spawn_key level).
_DRAW_INFLIGHT = 1
_DRAW_ATREST = 2

#: Clean-path ledger syncs are batched to ~this many chunk completions per
#: sync: the engine's byte counter is cumulative, so skipped observations
#: lose nothing — completions just land on the next sync.  Claims not yet
#: synced behave exactly like journal-buffered ones on a crash
#: (conservative resume re-sends them), so the effective durability bound
#: is ``journal_flush_every + _SYNC_BATCH_CHUNKS`` claims.  Faulted
#: ledgers always sync every observation: fault instants and in-flight
#: draws depend on the ledger clock advancing interval by interval.
_SYNC_BATCH_CHUNKS = 64

_U64 = float(1 << 64)

#: Ledger chunk statuses, stored as uint8 codes in the columnar arrays.
_STATUS_NAMES = ("missing", "ok", "corrupt", "torn")
_STATUS_CODES = {name: code for code, name in enumerate(_STATUS_NAMES)}
_MISSING, _OK, _CORRUPT, _TORN = range(4)


def _is_count(value) -> bool:
    """Whether a JSON value is an int (not a bool) that fits an int64 column
    and is non-negative: a digest or a send count."""
    return type(value) is int and 0 <= value < 1 << 63


def _int_column(values: list[int]) -> np.ndarray | None:
    """JSON ints as an int64 column; ``None`` when one does not fit."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return None


def _ordered_sum(values: np.ndarray) -> float:
    """Sum of ``values`` added left to right, one rounding per addition (the
    bits of Python 3.11's ``sum`` over the same list, not of ``np.sum``'s
    pairwise sum): a resume checkpoint, and every fingerprint after it,
    carries them."""
    return np.add.accumulate(values).item(-1) if len(values) else 0.0


#: A decoder built as :func:`json.loads` builds its own.
_DECODER = json.JSONDecoder()


def _parse_line(line: str):
    """``json.loads(line)`` for a stripped journal line, without its wrapper.

    ``raw_decode`` runs the scanner ``loads`` runs.  When it reads the whole
    line as one value, ``loads`` returns that value, since a stripped line
    has no whitespace around it to skip.  Any other line (no value, extra
    data, a leading BOM) goes to ``loads`` itself, which returns or raises
    for it as before.
    """
    try:
        value, end = _DECODER.raw_decode(line)
    except json.JSONDecodeError:
        end = -1
    if end != len(line):
        return json.loads(line)
    return value


def _json_number(data: dict, key: str, default, where: str):
    """``data[key]`` (``default`` when absent), which must be a JSON number."""
    value = data.get(key, default)
    if type(value) not in (int, float):
        raise IntegrityError(f"{where} has a non-numeric {key!r}: {value!r}")
    return value


class TransferManifest:
    """Per-file chunk digests for one dataset — what "correct" means.

    The emulator is a fluid model: there are no real bytes to hash, so each
    chunk's canonical content is a deterministic payload tag,
    ``f"{dataset}:{file}:{index}:{content_seed}"``.  Two manifests built
    with the same arguments are identical; a different ``content_seed``
    models a different dataset's contents.  No tag is ever built: a tag is
    a per-file prefix plus a per-index tail, so its digest is the prefix's
    digest advanced through the tail's length in zero bytes
    (:func:`~repro.utils.checksum.crc32c_zeros`) XOR the tail's digest.
    One :func:`~repro.utils.checksum.crc32c_many` sweep digests every
    prefix and every distinct tail, and the per-tag :func:`crc32c` stays
    the oracle the tests hold the columns to.
    """

    def __init__(
        self,
        dataset_name: str,
        files: Iterable[tuple[str, float]],
        chunk_size: float,
        content_seed: int = 0,
    ) -> None:
        require_positive(chunk_size, "chunk_size")
        self.dataset_name = dataset_name
        self.files = tuple((str(n), float(s)) for n, s in files)
        self.chunk_size = float(chunk_size)
        self.content_seed = int(content_seed)
        # Columnar chunk table, built with vector ops: plain arrays of
        # numbers are invisible to the cyclic GC, where thousands of
        # per-chunk objects would be rescanned on every collection for the
        # whole transfer (a measurable slice of the verification overhead
        # budget).  Chunk ids are row indices.  Each per-chunk temporary
        # is dropped once consumed, and the size column is computed in
        # place, so the build holds at most ~24 bytes a chunk.
        file_sizes, counts, file_idx, indices = self._layout()
        digests = self._digest_column(counts, file_idx, indices)
        chunk_bytes = indices.astype(np.float64)
        del indices
        chunk_bytes *= self.chunk_size
        np.subtract(file_sizes[file_idx], chunk_bytes, out=chunk_bytes)
        del file_idx
        np.minimum(self.chunk_size, chunk_bytes, out=chunk_bytes)

        #: The chunk table, one column per field, indexed by chunk id: byte
        #: sizes, expected CRC32C digests (uint32), and the running byte
        #: total at each chunk's end (the ledger's full-pass queue searches
        #: it).  The file, in-file index and offset of each chunk are
        #: recomputed by :meth:`to_dict`, the only reader.
        self.sizes_np = chunk_bytes
        self.digests_np = digests
        self.cum_sizes_np = np.cumsum(chunk_bytes)
        self.total_bytes = self.cum_sizes_np.item(-1) if len(chunk_bytes) else 0.0

    def _digest_column(
        self, counts: np.ndarray, file_idx: np.ndarray, indices: np.ndarray
    ) -> np.ndarray:
        """Each chunk's tag digest, as a uint32 column, by CRC32C linearity.

        A tag is ``prefix + tail``, with ``prefix = f"{dataset}:{file}:"``
        per file and ``tail = f"{index}:{content_seed}"`` per in-file
        index, so ``crc32c(tag) == Z(crc32c(prefix)) ^ crc32c(tail)``,
        where ``Z`` steps the register through ``len(tail)`` zero bytes.
        One sweep digests every prefix and the tail of every index below
        the largest chunk count; the prefix column is advanced past the
        seed part of the tail, then one byte per digit count of the index,
        and each chunk is one gather from the column its index needs.
        """
        n_files = len(self.files)
        max_count = int(counts.max()) if n_files else 0
        suffix = f":{self.content_seed}"
        records = [f"{self.dataset_name}:{name}:".encode() for name, _ in self.files]
        records += [f"{i}{suffix}".encode() for i in range(max_count)]
        record_lengths = np.fromiter(map(len, records), np.int64, len(records))
        record_offsets = np.zeros(len(records), dtype=np.int64)
        np.cumsum(record_lengths[:-1], out=record_offsets[1:])
        crcs = crc32c_many(b"".join(records), record_offsets, record_lengths)
        del records
        # digits[i] == len(str(i)), the only part of a tail's length that varies.
        digits = record_lengths[n_files:] - len(suffix)
        # shifted[d - 1]: the prefix digests advanced past a d-digit tail.
        shifted = np.empty((digits.max(initial=0), n_files), dtype=np.uint32)
        column = crc32c_zeros(crcs[:n_files], len(suffix))
        for d in range(len(shifted)):
            column = shifted[d] = crc32c_zeros(column, 1)
        # The row each index reads, as uint8: gathering it costs a byte a chunk.
        rows = (digits - 1).astype(np.uint8)
        digests = crcs[n_files:][indices]
        digests ^= shifted[rows[indices], file_idx]
        return digests

    def _layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Size and chunk count of each file, and each chunk's file and
        in-file index (int32 columns while the chunk count fits, int64
        beyond).  A file size that is negative, NaN or infinite raises
        :class:`ConfigError` (a zero-byte file is one empty chunk)."""
        file_sizes = np.array([s for _, s in self.files], dtype=np.float64)
        legal = np.isfinite(file_sizes) & (file_sizes >= 0.0)
        if not legal.all():
            name, size = self.files[int(np.argmin(legal))]
            raise ConfigError(
                f"file {name!r} has size {size}; sizes must be finite and non-negative"
            )
        counts = np.maximum(1, np.ceil(file_sizes / self.chunk_size).astype(np.int64))
        n = int(counts.sum())
        index_type = np.int32 if n <= np.iinfo(np.int32).max else np.int64
        file_idx = np.repeat(np.arange(len(self.files), dtype=index_type), counts)
        starts = np.zeros(len(self.files), dtype=index_type)
        np.cumsum(counts[:-1], out=starts[1:])
        indices = np.arange(n, dtype=index_type)
        indices -= np.repeat(starts, counts)
        return file_sizes, counts, file_idx, indices

    @classmethod
    def from_dataset(
        cls, dataset, chunk_size: float, *, content_seed: int = 0
    ) -> "TransferManifest":
        """Build from a :class:`repro.transfer.files.Dataset`."""
        # A generator, not a tuple: each pair is freed as soon as the
        # manifest copies it, so a 16k-file set allocates half as many
        # long-lived tuples, and the collector runs half as often.
        return cls(
            dataset.name,
            ((f.name, f.size) for f in dataset),
            chunk_size,
            content_seed=content_seed,
        )

    def __len__(self) -> int:
        return len(self.sizes_np)

    # ------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        """JSON-friendly form (inverse of :meth:`from_dict`).

        Each chunk is one ``[chunk_id, file, index, offset, size, digest]``
        row.
        """
        names = [name for name, _ in self.files]
        file_idx, indices, offsets = self._row_columns()
        rows = zip(
            file_idx.tolist(),
            indices.tolist(),
            offsets.tolist(),
            self.sizes_np.tolist(),
            self.digests_np.tolist(),
        )
        return {
            "version": MANIFEST_VERSION,
            "dataset": self.dataset_name,
            "algorithm": _ALGORITHM,
            "chunk_size": self.chunk_size,
            "content_seed": self.content_seed,
            "files": [[n, s] for n, s in self.files],
            "chunks": [
                [cid, names[file], index, offset, size, digest]
                for cid, (file, index, offset, size, digest) in enumerate(rows)
            ],
        }

    def _row_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each chunk's file, in-file index and byte offset: the row
        fields :meth:`to_dict` writes beside its size and digest."""
        _, _, file_idx, indices = self._layout()
        offsets = np.zeros(len(self), dtype=np.float64)
        offsets[1:] = self.cum_sizes_np[:-1]
        return file_idx, indices, offsets

    @classmethod
    def from_dict(cls, data: dict) -> "TransferManifest":
        """Rebuild from :meth:`to_dict` output (digests and the chunk layout
        are re-derived by the same build and cross-checked, so a tampered
        manifest file fails loudly).  A missing field, a chunk row that is
        not a six-field list, a field that does not convert (a null or list
        size, say), a file size that is negative or not finite, a row id,
        index, digest or content seed that is not a JSON int (a bool, a
        float, a numeric string), a chunk table without exactly one row for
        each chunk id ``0 … n-1``, or a row whose file, index, offset or
        size is not the build's raises :class:`IntegrityError`."""
        if not isinstance(data, dict):
            raise IntegrityError(f"manifest is a JSON {type(data).__name__}, not an object")
        missing = [k for k in ("dataset", "algorithm", "files", "chunk_size", "chunks")
                   if k not in data]
        if missing:
            raise IntegrityError(f"manifest lacks {', '.join(missing)}")
        if data["algorithm"] != _ALGORITHM:
            raise IntegrityError(
                f"manifest for {data['dataset']!r} uses digest algorithm "
                f"{data['algorithm']!r}; only {_ALGORITHM!r} is supported"
            )
        try:
            manifest = cls(
                data["dataset"],
                tuple((n, float(s)) for n, s in data["files"]),
                float(data["chunk_size"]),
                content_seed=int(data.get("content_seed", 0)),
            )
            rows = data["chunks"]
            if not all(type(row) is list and len(row) == 6 for row in rows):
                raise TypeError("a chunk row is not a list of six fields")
            ids = [row[0] for row in rows]
            digests = [row[5] for row in rows]
        except (ConfigError, TypeError, ValueError) as exc:
            raise IntegrityError(
                f"manifest for {data['dataset']!r} is malformed: {exc}"
            ) from exc
        # JSON ints only: ``int()`` would quietly fold a bool, a float or a
        # numeric string into the right id, index, digest or seed.
        ints = ids + [row[2] for row in rows] + digests + [data.get("content_seed", 0)]
        if not set(map(type, ints)) <= {int}:
            raise IntegrityError(
                f"manifest for {data['dataset']!r} has a chunk id, index, digest "
                "or content seed that is not an int"
            )
        n = len(manifest)
        id_col, digest_col = _int_column(ids), _int_column(digests)
        if id_col is None or not np.array_equal(np.sort(id_col), np.arange(n)):
            raise IntegrityError(
                f"manifest for {data['dataset']!r} needs exactly one row for "
                f"each of its {n} chunk ids"
            )
        if not np.array_equal(digest_col, manifest.digests_np[id_col]):
            raise IntegrityError(
                f"manifest digests for {data['dataset']!r} do not match re-derived values"
            )
        # File, index, offset and size: the columns to_dict writes for the
        # rebuilt manifest, compared as Python values (object arrays).
        file_idx, indices, offsets = manifest._row_columns()
        names = np.array([name for name, _ in manifest.files], dtype=object)
        wrong = np.zeros(n, dtype=bool)
        for field, want in enumerate((names[file_idx], indices, offsets, manifest.sizes_np), 1):
            got = np.fromiter((row[field] for row in rows), dtype=object, count=n)
            wrong |= got != want[id_col]
        if wrong.any():
            row = rows[int(np.argmax(wrong))]
            raise IntegrityError(
                f"manifest for {data['dataset']!r} lists chunk {row[0]} at "
                f"{row[1:5]}, which is not its layout's file, index, offset and size"
            )
        return manifest

    def save(self, path: str | Path) -> None:
        """Persist to JSON."""
        dump_json(self.to_dict(), path)

    @classmethod
    def load(cls, path: str | Path) -> "TransferManifest":
        """Inverse of :meth:`save`."""
        return cls.from_dict(load_json(path))


class ChunkJournal:
    """Append-only write-ahead journal of chunk completions (JSONL).

    Two record shapes share the log: ``chunkbatch`` (a whole sync's
    completions + digests coalesced by :meth:`record_batch` into a single
    buffered write — the faulted-transfer lane, where destination digests
    can differ from the manifest's), and ``chunkrun`` (a contiguous id
    run claimed *at the manifest's expected digests*, written by
    :meth:`record_runs` — the clean-transfer lane, where serialising tens
    of thousands of known digest values would dominate the verification
    overhead budget; replaying it therefore requires the manifest's
    ``expected`` digest column).  Both go through
    :meth:`JsonlEventWriter.write_sample`'s deferred-format lane, so
    journaling inside the transfer loop costs one list append;
    serialisation happens at flush time.  The journal flushes itself
    whenever ``flush_every`` *claims* (not lines) are buffered, so
    batching never weakens the durability bound: a crash loses at most
    ``flush_every`` claims, exactly as with per-record appends.

    :meth:`replay` folds the log into a last-record-wins claim column
    with the torn-tail-tolerant reader, and self-heals a torn tail
    (truncating the record the dying process never finished) so
    post-recovery appends can't corrupt the next record.  Replay is
    incremental: the journal keeps the column and the byte offset it has
    folded (its cursor) and parses only what was appended since.  Replay
    is idempotent: replaying an unchanged journal any number of times
    yields the same claims, and a warm journal's column equals a cold
    journal's fold of the same file.
    """

    def __init__(
        self,
        path: str | Path,
        expected,
        *,
        flush_every: int = 64,
    ) -> None:
        self.path = Path(path)
        self._flush_every = max(1, int(flush_every))
        self._writer = JsonlEventWriter(self.path, flush_every=flush_every)
        self._claims_buffered = 0
        #: The manifest's digest column (``manifest.digests_np``, held by
        #: reference, never copied): its length is the chunk count, and a
        #: slice of it resolves each digest-elided ``chunkrun`` record at
        #: replay.
        self._expected = np.asarray(expected)
        #: Open coalescing run ``[lo, hi, t]`` not yet handed to the
        #: writer: consecutive clean syncs complete consecutive ids, so
        #: most :meth:`record_runs` calls just advance ``hi``.  Counts as
        #: buffered (lost on crash), like any unflushed record.
        self._run: list | None = None
        #: Replay cursor: the claim column folded so far (``None`` before
        #: the first replay and after :meth:`close`), the byte length of
        #: the file prefix it folds (always just past a newline) and that
        #: prefix's line count, which numbers the lines in parse errors.
        self._claims: np.ndarray | None = None
        self._offset = 0
        self._lines = 0

    def record_batch(self, chunk_ids, digests, t: float) -> None:
        """Journal a whole sync's completions as one coalesced record.

        ``chunk_ids`` / ``digests`` are parallel sequences (numpy arrays
        or lists).  The write is a single buffered append regardless of
        batch size; the claim-counting flush bound still holds.
        """
        if type(chunk_ids) is not list:
            chunk_ids = chunk_ids.tolist() if hasattr(chunk_ids, "tolist") else list(chunk_ids)
        if not chunk_ids:
            return
        if type(digests) is not list:
            digests = digests.tolist() if hasattr(digests, "tolist") else list(digests)
        if self._run is not None:
            self._emit_run()  # keep file order == claim order (last wins)
        self._writer.write_sample(_BATCH_FMT, (t, chunk_ids, digests))
        self._bump(len(chunk_ids))

    def record_runs(self, chunk_ids: list[int], t: float) -> None:
        """Journal completions *at the manifest's expected digests*.

        ``chunk_ids`` must be sorted; each maximal contiguous id run
        becomes one tiny ``chunkrun`` record (no digest payload — the
        digests are by definition the manifest's, and re-serialising tens
        of thousands of known values per transfer would dominate the
        verification budget).  Consecutive calls completing consecutive
        ids coalesce into one open run, so the per-sync hot-path cost is
        two integer assignments.  Only the fault-free sync path may use
        this lane: a faulted destination's digests can diverge and must
        go through :meth:`record_batch` verbatim.
        """
        if not chunk_ids:
            return
        lo = chunk_ids[0]
        last = chunk_ids[-1]
        run = self._run
        if last - lo == len(chunk_ids) - 1:  # one contiguous run (common case)
            if run is not None and run[1] == lo:
                run[1] = last + 1  # extend the open run in place
                run[2] = t
            else:
                if run is not None:
                    self._emit_run()
                self._run = [lo, last + 1, t]
            self._bump(len(chunk_ids))
            return
        if run is not None:
            self._emit_run()
        prev = lo
        for cid in chunk_ids[1:]:
            if cid != prev + 1:
                self._writer.write_sample(_RUN_FMT, (t, lo, prev + 1))
                lo = cid
            prev = cid
        self._run = [lo, prev + 1, t]
        self._bump(len(chunk_ids))

    def _emit_run(self) -> None:
        """Hand the open coalesced run to the writer buffer."""
        lo, hi, t = self._run
        self._run = None
        self._writer.write_sample(_RUN_FMT, (t, lo, hi))

    def _bump(self, claims: int) -> None:
        self._claims_buffered += claims
        if self._claims_buffered >= self._flush_every:
            self.flush()

    def flush(self) -> None:
        """Force buffered records to disk (checkpoint barrier)."""
        if self._run is not None:
            self._emit_run()
        self._writer.flush()
        self._claims_buffered = 0

    def close(self) -> None:
        """Flush and close the underlying writer; release the replay column."""
        if self._run is not None:
            self._emit_run()
        self._writer.close()
        self._claims_buffered = 0
        self._rewind()

    def crash(self, *, torn_tail: bool = False) -> None:
        """Simulate dying mid-run: unflushed records are lost.

        With ``torn_tail`` a partial record (no trailing newline) is left
        at the end of the file — the exact wreckage of a process killed
        mid-``write`` — which :meth:`replay` must tolerate and repair.
        """
        self._run = None  # unflushed coalesced claims die with the buffer
        self._writer.discard_buffer()
        self._writer.close()
        self._claims_buffered = 0
        if torn_tail:
            with self.path.open("a") as fh:
                fh.write('{"type":"chunk","id":99')  # deliberately torn

    def replay(self) -> np.ndarray:
        """Fold the journal into its claim column.

        Returns an int64 array with one entry per manifest chunk: the
        digest last claimed for it, ``-1`` if it is unclaimed.  A
        ``chunkbatch`` record's claims land in record order, as if appended
        one by one; a ``chunkrun`` claims its ids at the manifest's
        digests.  Missing file → no claims.  A torn final line is truncated
        away so subsequent appends start clean.  A claim on a chunk id
        outside the manifest raises :class:`IntegrityError`: the journal
        belongs to another manifest, or is damaged; so does a claim record
        that does not parse as one: a missing field, an id, bound or digest
        that is not a JSON int (null, a list, a bool, a float, a string), a
        negative digest, or ids and digests of different lengths.

        Only the bytes appended since the last replay are read and parsed,
        folded into the column that replay returned: exact, because the
        fold is last-record-wins, so folding a prefix and then the rest
        equals folding the whole file.  A file shorter than the cursor
        (truncated from outside) is folded again from byte 0.  Lines (the
        writer ends each with ``\n``) are read as
        :func:`~repro.obs.events.read_events` reads them: a malformed final
        line is dropped, and stays unfolded, so it raises once more lines
        follow it.
        """
        expected = self._expected
        n = len(expected)
        try:
            # Unbuffered: the remainder is read whole, in one call.
            fh = open(self.path, "rb", buffering=0)
        except FileNotFoundError:
            self._rewind()
            return np.full(n, -1, dtype=np.int64)
        with fh:
            if fh.seek(0, os.SEEK_END) < self._offset:
                self._rewind()
            fh.seek(self._offset)
            data = fh.read()
        if data and not data.endswith(b"\n"):
            # Self-heal: truncate the torn tail (a record the dying process
            # never finished) so later appends cannot glue onto it and turn
            # recoverable wreckage into mid-file corruption.
            data = data[: data.rfind(b"\n") + 1]
            os.truncate(self.path, self._offset + len(data))
        lines = data.decode().split("\n")
        lines.pop()  # the empty remainder after the final newline
        records = []
        for i, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(_parse_line(line))
            except json.JSONDecodeError as exc:
                if i < len(lines) - 1:
                    raise ValueError(
                        f"corrupt event log {self.path} at line {self._lines + i + 1}: {exc}"
                    ) from exc
                # A malformed final line is dropped and left past the
                # cursor, so that it raises once more lines follow it.
                del lines[i]
                data = data[: data.rfind(b"\n", 0, len(data) - 1) + 1]
        claims = self._claims
        if claims is None:
            claims = np.full(n, -1, dtype=np.int64)
        try:
            for record in records:
                kind = record.get("type")
                if kind == "chunkbatch":
                    ids, digests = record["ids"], record["digests"]
                    if len(ids) != len(digests):
                        raise ValueError(f"{len(ids)} ids but {len(digests)} digests")
                    # A damaged record raises part-way through its claims;
                    # the rewind below drops the column they went into.
                    for cid, digest in zip(ids, digests):
                        if type(cid) is not int or type(digest) is not int:
                            raise TypeError(f"claim {cid!r}: {digest!r} is not two ints")
                        if not 0 <= cid < n:
                            self._out_of_range(min(ids), max(ids), n)
                        if not 0 <= digest < 1 << 63:
                            raise ValueError(f"digest {digest} is outside 0..2**63-1")
                        claims[cid] = digest
                elif kind == "chunkrun":
                    lo, hi = record["lo"], record["hi"]
                    if type(lo) is not int or type(hi) is not int:
                        raise TypeError(f"run bounds {lo!r}..{hi!r} are not ints")
                    if lo < 0 or hi > n:
                        self._out_of_range(lo, hi - 1, n)
                    claims[lo:hi] = expected[lo:hi]
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            self._rewind()  # the column may hold part of a damaged record
            raise IntegrityError(f"journal {self.path} holds a malformed claim: {exc!r}") from exc
        except BaseException:
            self._rewind()
            raise
        self._claims = claims
        self._offset += len(data)
        self._lines += len(lines)
        return claims.copy()

    def _rewind(self) -> None:
        """Drop the replay cursor: the next replay folds from byte 0."""
        self._claims = None
        self._offset = 0
        self._lines = 0

    def _out_of_range(self, lo: int, hi: int, n: int) -> None:
        raise IntegrityError(
            f"journal {self.path} claims chunk ids {lo}..{hi}, "
            f"outside its manifest's {n} chunks"
        )

    def __enter__(self) -> "ChunkJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class DestinationLedger:
    """The destination's ground truth: per-chunk status and actual digest.

    The engine reports monotone durable byte counts; the ledger maps each
    delta onto pending chunks in id order (a fractional head models the
    chunk currently being written).  Chunk completions draw seeded
    in-flight corruption from the active
    :class:`~repro.emulator.faults.FaultSchedule`; fire-once instants
    (:class:`TornWrite`, :class:`SilentTruncation`, at-rest
    :class:`DataCorruption`) strike between syncs.  **No byte count ever
    changes** — damage is visible only to verification, which is the point.

    State is columnar: status codes, digests, send counts and completion
    sequence numbers as numpy arrays indexed by chunk id, created on first
    need.  On the fault-free path :meth:`sync` only advances the pending
    queue's head: one binary search of the queue's cumulative sizes maps a
    byte delta onto every chunk it completes.  A clean transfer that
    nothing demotes, snapshots or faults never creates the columns: its
    final :meth:`verify` reads the queue alone.

    Statuses: ``missing`` (not durable), ``ok`` (digest matches manifest),
    ``corrupt`` (bit-flipped in flight or at rest), ``torn`` (partial
    persist).
    """

    def __init__(
        self,
        manifest: TransferManifest,
        faults: FaultSchedule | None = None,
        *,
        seed: int = 0,
    ) -> None:
        self.manifest = manifest
        self.faults = faults
        self.seed = int(seed)
        self._sizes_np = manifest.sizes_np
        self._expected_np = manifest.digests_np
        n = len(manifest)
        # NOTE: the columns are created and updated lazily — read them
        # through the query methods (verify/verified_mask/status_counts/
        # send_counts/to_dict), which fold in deferred completions first.
        # ``None`` until :meth:`_materialize` creates them: until then
        # every chunk outside the deferred queue is missing.
        self._status_arr: np.ndarray | None = None
        self._digest_arr: np.ndarray | None = None
        self._send_arr: np.ndarray | None = None
        #: Completion sequence number of each durable chunk, ``-1`` when it
        #: is not durable.  A re-send takes the next number, so the durable
        #: chunks sorted by it are the destination's write order (what
        #: :class:`SilentTruncation` cuts from the end of).
        self._seq_arr: np.ndarray | None = None
        self._next_seq = 0
        #: The pending queue: chunk ids in id order (``range(n)`` for a full
        #: pass, an id array for a partial one) and the running byte total
        #: at each queued chunk's end (the manifest's own column for a full
        #: pass), which :meth:`sync` searches.
        self._pending: range | np.ndarray = range(n)
        self._pend_cum: np.ndarray = manifest.cum_sizes_np
        self._head = 0  # completed entries of the pending queue
        #: Completed entries already in the columns: ``pending[folded:head]``
        #: are the deferred completions, all of them ``ok`` and sent once
        #: more.
        self._folded = 0
        self._partial = 0.0  # bytes already written into the head chunk
        self._consumed = 0.0  # bytes mapped into the current pass's queue
        self._synced_bytes = 0.0  # engine byte count already mapped
        self._clock = 0.0
        self._torn_pending = False
        #: Durable bytes applied across ALL passes (never rewound by
        #: :meth:`begin_pass`) — the conservation side of the accounting.
        self.bytes_applied_total = 0.0

    # ---------------------------------------------------------- fault model
    def _uniform(self, tag: int, chunk_id: int, send: int) -> float:
        """Deterministic uniform draw in [0, 1) for one (chunk, send) pair."""
        return spawn_key(self.seed, (tag, chunk_id, send)) / _U64

    def _divergent_digest(self, chunk_id: int, marker: bytes) -> int:
        """A digest deterministically different from the chunk's expected one.

        Equals ``crc32c(payload + marker [+ "!"*k])``, chained off the
        expected digest: ``crc32c(a + b) == crc32c(b, value=crc32c(a))``,
        and the payload's digest is the manifest's expected value.
        """
        expected = self._expected_np.item(chunk_id)
        digest = crc32c(marker, value=expected)
        while digest == expected:  # 2**-32 collision: keep salting
            digest = crc32c(b"!", value=digest)
        return digest

    def _complete_chunk(self, chunk_id: int, rate: float) -> int:
        """Mark one chunk durable; returns the digest the destination holds.

        ``rate`` is the in-flight corruption probability at the sync's
        instant (:meth:`FaultSchedule.corruption_rate`), read once per sync.
        """
        send = self._send_arr.item(chunk_id) + 1
        self._send_arr[chunk_id] = send
        if self._torn_pending:
            self._torn_pending = False
            code, digest = _TORN, self._divergent_digest(chunk_id, b"|torn:%d" % send)
        else:
            if rate > 0.0 and self._uniform(_DRAW_INFLIGHT, chunk_id, send) < rate:
                code, digest = _CORRUPT, self._divergent_digest(
                    chunk_id, b"|flip:%d" % send
                )
            else:
                code, digest = _OK, self._expected_np.item(chunk_id)
        self._status_arr[chunk_id] = code
        self._digest_arr[chunk_id] = digest
        self._seq_arr[chunk_id] = self._next_seq
        self._next_seq += 1
        return digest

    def _materialize(self) -> None:
        """Create the chunk columns if absent, and fold deferred
        fast-path completions into them.

        The fault-free completion path in :meth:`sync` records durability
        by advancing the pending queue's head alone and defers every column
        write; each reader of the columns calls this first, which folds
        ``pending[folded:head]`` as one vector op.  Faulted ledgers defer
        nothing: :meth:`_complete_chunk` keeps the columns current in-line.
        """
        if self._status_arr is None:
            n = len(self._sizes_np)
            self._status_arr = np.zeros(n, dtype=np.uint8)  # _MISSING
            self._digest_arr = np.full(n, -1, dtype=np.int64)
            self._send_arr = np.zeros(n, dtype=np.int64)
            self._seq_arr = np.full(n, -1, dtype=np.int64)
        head = self._head
        if self._folded == head:
            return
        index = self._deferred()
        count = head - self._folded
        self._status_arr[index] = _OK
        self._digest_arr[index] = self._expected_np[index]
        self._send_arr[index] += 1
        self._seq_arr[index] = np.arange(self._next_seq, self._next_seq + count)
        self._next_seq += count
        self._folded = head

    def _deferred(self) -> slice | np.ndarray:
        """Index of the deferred completions ``pending[folded:head]`` (at
        least one): a slice when their ids are contiguous."""
        ids = self._pending[self._folded : self._head]
        # The queue is in id order, so a full-span check detects the
        # contiguous common case.
        lo, hi = int(ids[0]), int(ids[-1]) + 1
        return slice(lo, hi) if hi - lo == len(ids) else ids

    def _durable_ids(self) -> np.ndarray:
        """Durable chunk ids in completion order, oldest first."""
        durable = np.flatnonzero(self._seq_arr >= 0)
        return durable[np.argsort(self._seq_arr[durable])]

    def _apply_instant(self, event) -> None:
        if isinstance(event, TornWrite):
            # The chunk in flight at the tear completes with a garbage tail.
            if self._head < len(self._pending):
                self._torn_pending = True
        elif isinstance(event, SilentTruncation):
            # The destination silently loses its most recent durable chunks.
            lost = self._durable_ids()[-event.chunks :]
            self._status_arr[lost] = _MISSING
            self._digest_arr[lost] = -1
            self._seq_arr[lost] = -1
        elif isinstance(event, DataCorruption):  # site == "storage", at-rest
            for chunk_id in self._durable_ids().tolist():
                if self._status_arr.item(chunk_id) != _OK:
                    continue
                send = self._send_arr.item(chunk_id)
                if self._uniform(_DRAW_ATREST, chunk_id, send) < event.rate:
                    self._status_arr[chunk_id] = _CORRUPT
                    self._digest_arr[chunk_id] = self._divergent_digest(
                        chunk_id, b"|rest:%d" % send
                    )

    # -------------------------------------------------------------- syncing
    def begin_pass(self, chunk_ids, *, start_bytes: float) -> None:
        """Queue ``chunk_ids`` (id order) for (re-)transfer from ``start_bytes``.

        ``start_bytes`` is the engine byte count the coming pass resumes
        from — the ledger re-bases its mapping there, so repair passes
        (whose checkpoints rewind the byte count) stay consistent.
        """
        if self._head > self._folded:
            self._materialize()  # fold the previous pass before swapping queues
        n = len(self._sizes_np)
        full = isinstance(chunk_ids, range) and chunk_ids == range(n)  # O(1)
        if not full:
            ids = np.sort(np.asarray(chunk_ids, dtype=np.int64))
            full = len(ids) == n and (not n or (ids[0] == 0 and ids[-1] == n - 1))
        if full:
            # Full pass (sorted distinct ids spanning 0..n-1): queue the
            # manifest's own cumulative column instead of a copy of it.
            self._pending = range(n)
            self._pend_cum = self.manifest.cum_sizes_np
        else:
            # ``np.cumsum`` adds left to right (never pairwise), so each
            # bound carries the bits of a sequential sum of the sizes.
            self._pending = ids
            self._pend_cum = np.cumsum(self._sizes_np[ids])
        self._head = 0
        self._folded = 0
        self._partial = 0.0
        self._consumed = 0.0
        self._synced_bytes = float(start_bytes)
        self._torn_pending = False

    def sync(
        self,
        bytes_total: float,
        t: float,
        journal: "ChunkJournal | None" = None,
    ) -> None:
        """Map the engine's durable byte count onto chunk completions.

        Fires pending data-plane fault instants in ``[last sync, t)``,
        then maps the byte delta onto the pending queue.  With ``journal``
        the completions are journaled as they land.  Byte counts only move
        forward; a smaller ``bytes_total`` than already synced is ignored
        (stale observation).

        Fault-free ledgers only advance the queue head (one binary search
        of the queue's cumulative sizes finds every chunk the delta
        completes) and defer the column writes to :meth:`_materialize`.
        Faulted ledgers route per-chunk through :meth:`_complete_chunk`,
        which handles torn/corrupt outcomes and re-send bookkeeping.
        """
        if self.faults is not None:
            if self._status_arr is None:
                self._materialize()  # faulted syncs write the columns in-line
            for event in self.faults.take_data_events(self._clock, t):
                self._apply_instant(event)
            if t > self._clock:
                self._clock = t
            delta = bytes_total - self._synced_bytes
            if delta <= 0.0:
                return
            self._synced_bytes = bytes_total
            self.bytes_applied_total += delta
            self._sync_faulted(delta, t, journal)
            return

        # Fault-free hot path, inlined (runs once per engine interval).
        # One binary search of the pending queue's cumulative sizes finds
        # every chunk the delta completes.
        if t > self._clock:
            self._clock = t
        delta = bytes_total - self._synced_bytes
        if delta <= 0.0:
            return
        self._synced_bytes = bytes_total
        self.bytes_applied_total += delta
        cum = self._pend_cum
        head = self._head
        consumed = self._consumed + delta
        # Chunk j completes when consumed >= cum[j] - eps — identical to the
        # scalar walk, where each completion subtracts its full size and the
        # epsilon forgives at most one shortfall in total.  The search may
        # span the whole queue: every completed chunk ends at or below the
        # bytes consumed so far, so none lies past the insertion point.
        new_head = int(cum.searchsorted(consumed + _COMPLETE_EPS, "right"))
        done = cum.item(new_head - 1) if new_head else 0.0  # where the new head chunk starts
        if new_head >= len(cum) and consumed - done > _COMPLETE_EPS:
            raise IntegrityError(
                f"destination received {consumed - done:.0f} bytes beyond the pending chunk set"
            )
        if new_head > head:
            # Durability is recorded by advancing the head alone; the
            # column writes are deferred to :meth:`_materialize`.  (Safe
            # because a queued chunk is never already durable:
            # :meth:`begin_pass` callers demote first.)
            consumed = max(consumed, done)
            if journal is not None:
                # Clean completions carry the manifest digests by
                # construction — journal them as digest-elided runs.
                ids = self._pending[head:new_head]
                journal.record_runs(ids if type(ids) is range else ids.tolist(), t)
        self._head = new_head
        self._consumed = consumed
        self._partial = consumed - done

    def _sync_faulted(
        self, delta: float, t: float, journal: "ChunkJournal | None"
    ) -> None:
        """Scalar delta mapping for faulted ledgers (torn/corrupt outcomes)."""
        pending, sizes, head, partial = (
            self._pending,
            self._sizes_np,
            self._head,
            self._partial,
        )
        count = len(pending)
        # Python ints from either queue: a ``range`` yields them, and
        # ``ndarray.item`` returns one without building a numpy scalar.
        chunk_at = pending.__getitem__ if type(pending) is range else pending.item
        # Every chunk this sync completes, completes at ``t``.
        rate = self.faults.corruption_rate(t)
        ids: list[int] = []
        digests: list[int] = []
        while delta > 0.0 and head < count:
            chunk_id = chunk_at(head)
            need = sizes.item(chunk_id) - partial
            if delta >= need - _COMPLETE_EPS:
                delta -= need
                partial = 0.0
                head += 1
                ids.append(chunk_id)
                digests.append(self._complete_chunk(chunk_id, rate))
            else:
                partial += delta
                delta = 0.0
        # Every completion is already in the columns: nothing is deferred.
        self._head = self._folded = head
        self._partial = partial
        self._consumed = (self._pend_cum.item(head - 1) if head else 0.0) + partial
        if delta > _COMPLETE_EPS and head >= count:
            raise IntegrityError(
                f"destination received {delta:.0f} bytes beyond the pending chunk set"
            )
        if journal is not None:
            journal.record_batch(ids, digests, t)

    # ------------------------------------------------------------- queries
    def verified_mask(self) -> np.ndarray:
        """Boolean column: the destination holds the manifest's digest."""
        if self._status_arr is None:
            # No columns yet: the deferred completions, each at its
            # manifest digest, are the only durable chunks.
            mask = np.zeros(len(self._sizes_np), dtype=bool)
            if self._head > self._folded:
                mask[self._deferred()] = True
            return mask
        self._materialize()
        return self._digest_arr == self._expected_np

    def verify(self) -> list[int]:
        """Chunk ids whose destination digest is missing or wrong.

        One vector comparison over the digest column — this is the
        verification sweep the repair loop runs after every pass.
        """
        return np.flatnonzero(~self.verified_mask()).tolist()

    def demote(self, chunk_ids: list[int]) -> None:
        """Mark chunks non-durable so a repair pass re-transfers them."""
        if len(chunk_ids):
            self._materialize()
            ids = np.asarray(chunk_ids, dtype=np.int64)
            self._status_arr[ids] = _MISSING
            self._digest_arr[ids] = -1
            self._seq_arr[ids] = -1

    @property
    def verified_bytes(self) -> float:
        """Bytes whose chunks verify against the manifest."""
        return float(self._sizes_np[self.verified_mask()].sum())

    @property
    def send_counts(self) -> dict[int, int]:
        """Snapshot ``{chunk_id: times sent}``; writing to it changes nothing."""
        self._materialize()
        return dict(enumerate(self._send_arr.tolist()))

    def status_counts(self) -> dict[str, int]:
        """Histogram of chunk statuses (``ok``/``corrupt``/``torn``/``missing``)."""
        self._materialize()
        counts = np.bincount(self._status_arr, minlength=len(_STATUS_NAMES))
        return {
            _STATUS_NAMES[code]: int(n) for code, n in enumerate(counts) if n
        }

    # ------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        """JSON-friendly destination snapshot (inverse of :meth:`from_dict`).

        ``order`` lists the durable chunks in completion order.
        """
        self._materialize()
        columns = zip(
            self._status_arr.tolist(),
            self._digest_arr.tolist(),
            self._send_arr.tolist(),
        )
        return {
            "version": MANIFEST_VERSION,
            "seed": self.seed,
            "chunks": {
                str(cid): {
                    "status": _STATUS_NAMES[code],
                    "digest": None if digest < 0 else digest,
                    "sends": sends,
                }
                for cid, (code, digest, sends) in enumerate(columns)
            },
            "order": self._durable_ids().tolist(),
            "synced_bytes": self._synced_bytes,
            "applied_bytes": self.bytes_applied_total,
            "clock": self._clock,
        }

    @classmethod
    def from_dict(
        cls,
        manifest: TransferManifest,
        data: dict,
        faults: FaultSchedule | None = None,
    ) -> "DestinationLedger":
        """Rebuild a destination snapshot against its manifest.

        The snapshot must hold one entry per manifest chunk, keyed ``"0"``
        … ``"n-1"``, each with a known ``status``, a ``digest`` that is
        null or a non-negative int, and a non-negative int ``sends``; its
        ``order`` must list distinct chunk ids of the manifest; and its
        ``seed``, byte counts and ``clock`` must be JSON numbers.  Anything
        else raises :class:`IntegrityError`.
        """
        where = f"destination snapshot for {manifest.dataset_name!r}"
        if not isinstance(data, dict):
            raise IntegrityError(f"{where} is a JSON {type(data).__name__}, not an object")
        ledger = cls(manifest, faults, seed=int(_json_number(data, "seed", 0, where)))
        ledger._materialize()
        chunks = data.get("chunks")
        n = len(manifest)
        if not isinstance(chunks, dict) or len(chunks) != n:
            raise IntegrityError(
                f"destination snapshot for {manifest.dataset_name!r} needs a "
                f"table of the manifest's {n} chunks"
            )
        for cid in range(n):
            entry = chunks.get(str(cid))
            if not isinstance(entry, dict):
                raise IntegrityError(
                    f"destination snapshot for {manifest.dataset_name!r} has no "
                    f"chunk {cid}: its keys must be '0' to '{n - 1}'"
                )
            status, digest, sends = entry.get("status"), entry.get("digest"), entry.get("sends")
            if (
                status not in _STATUS_NAMES
                or not (digest is None or _is_count(digest))
                or not _is_count(sends)
            ):
                raise IntegrityError(
                    f"destination chunk {cid} of {manifest.dataset_name!r} has a "
                    f"malformed entry {entry!r}"
                )
            ledger._status_arr[cid] = _STATUS_CODES[status]
            ledger._digest_arr[cid] = -1 if digest is None else digest
            ledger._send_arr[cid] = sends
        order = data.get("order", [])
        if (
            not isinstance(order, list)
            or not all(_is_count(c) and c < n for c in order)
            or len(set(order)) != len(order)
        ):
            raise IntegrityError(
                f"destination order for {manifest.dataset_name!r} must list "
                f"distinct ids of the manifest's {n} chunks"
            )
        ledger._seq_arr[order] = np.arange(len(order))
        ledger._next_seq = len(order)
        ledger._synced_bytes = float(_json_number(data, "synced_bytes", 0.0, where))
        ledger.bytes_applied_total = float(_json_number(data, "applied_bytes", 0.0, where))
        ledger._clock = float(_json_number(data, "clock", 0.0, where))
        return ledger

    def save(self, path: str | Path) -> None:
        """Persist the destination snapshot to JSON."""
        dump_json(self.to_dict(), path)


@dataclass(frozen=True)
class IntegrityConfig:
    """Knobs of the verification layer."""

    #: Verification/recovery granularity.  Smaller chunks bound the bytes
    #: re-sent per corrupt/torn unit more tightly and make resume
    #: checkpoints finer, at ~20 bytes of manifest state per chunk on a
    #: clean transfer (~5 MB per TB at 4 MB), and 25 more once the
    #: ledger's columns exist (a faulted, demoted or resumed transfer).
    #: The clean-path verification budget is ≤5% of an unverified run's
    #: CPU; at 4 MB, a 200 GB transfer's 50,000 chunks miss it:
    #: ``benchmarks/bench_integrity.py``'s committed run reads 6.8%
    #: (``within_budget: false``).
    chunk_size: float = 4e6
    max_repair_rounds: int = 3
    #: Journal claims buffered between fsync-like flushes.  A crash loses
    #: at most this many claims (conservative resume re-sends them); the
    #: default trades that bounded re-work for fewer write syscalls on the
    #: clean path.  Batched (``chunkbatch``) appends count claims, not
    #: lines, so coalescing never weakens the bound.  Chaos-soak cases pin
    #: this low to stress recovery.
    journal_flush_every: int = 512
    content_seed: int = 0
    seed: int = field(default=0, compare=False)  # corruption-draw stream

    def __post_init__(self) -> None:
        require_positive(self.chunk_size, "chunk_size")
        require_positive(self.max_repair_rounds, "max_repair_rounds")
        require_positive(self.journal_flush_every, "journal_flush_every")


@dataclass(frozen=True)
class VerifiedTransferResult:
    """Outcome of a verified transfer (supervision + verification)."""

    completed: bool  # the supervised transfer moved all pending bytes
    verified: bool  # every manifest digest matches at the destination
    supervised: SupervisedTransferResult  # last supervised pass
    chunks_total: int
    resumed_verified_chunks: int  # journal claims accepted on resume
    resent_chunk_ids: tuple[int, ...]  # chunks re-transferred (mismatch/unclaimed-demote)
    repair_rounds: int
    unrecovered_chunk_ids: tuple[int, ...]  # still bad after repair budget
    verify_seconds: float = 0.0  # wall seconds spent in verification sweeps

    @property
    def clean(self) -> bool:
        """Completed, verified, nothing left to repair."""
        return self.completed and self.verified and not self.unrecovered_chunk_ids


class VerifiedTransfer:
    """A supervised transfer with end-to-end chunk verification.

    Owns a :class:`~repro.transfer.supervisor.TransferSupervisor` and
    threads a ledger-sync observer through it: every interval observation
    maps durable bytes onto chunks, journals completions (one coalesced
    batch record per interval), and (after the supervised run) verifies
    all digests and repairs mismatches with bounded extra passes.
    """

    def __init__(
        self,
        supervisor: TransferSupervisor,
        manifest: TransferManifest,
        ledger: DestinationLedger,
        journal: ChunkJournal,
        config: IntegrityConfig | None = None,
    ) -> None:
        self.supervisor = supervisor
        self.manifest = manifest
        self.ledger = ledger
        self.journal = journal
        self.config = config or IntegrityConfig()

    @classmethod
    def for_supervisor(
        cls,
        supervisor: TransferSupervisor,
        run_dir: str | Path,
        config: IntegrityConfig | None = None,
    ) -> "VerifiedTransfer":
        """Wire manifest, ledger and journal for a supervisor's engine.

        The manifest digests the engine's dataset; the ledger draws its
        corruption stream from the engine testbed's fault schedule; the
        journal lives at ``run_dir/journal.jsonl``.
        """
        config = config or IntegrityConfig()
        engine = supervisor.engine
        manifest = TransferManifest.from_dataset(
            engine.dataset,
            config.chunk_size,
            content_seed=config.content_seed,
        )
        ledger = DestinationLedger(
            manifest, engine.testbed.faults, seed=config.seed
        )
        journal = ChunkJournal(
            Path(run_dir) / "journal.jsonl",
            manifest.digests_np,
            flush_every=config.journal_flush_every,
        )
        return cls(supervisor, manifest, ledger, journal, config)

    # ------------------------------------------------------------- internals
    def _sync(self, bytes_total: float, t: float) -> None:
        self.ledger.sync(bytes_total, t, self.journal)

    def _hook(
        self, extra: Callable[[Observation], None] | None
    ) -> Callable[[Observation], None]:
        # Bound method + journal captured once: this closure runs every
        # engine interval, and each sync coalesces its completions into a
        # single journal batch record.
        ledger_sync = self.ledger.sync
        journal = self.journal
        if self.ledger.faults is not None:

            def observe(observation: Observation) -> None:
                ledger_sync(
                    observation.bytes_written_total, observation.elapsed, journal
                )
                if extra is not None:
                    extra(observation)

            return observe

        # Fault-free destination: batch syncs to ~_SYNC_BATCH_CHUNKS
        # completions.  The byte counter is cumulative, so skipped
        # observations are folded into the next sync; :meth:`_post_sync`
        # maps whatever remains at completion.
        threshold = _SYNC_BATCH_CHUNKS * self.config.chunk_size
        last = [self.ledger._synced_bytes]

        def observe(observation: Observation) -> None:
            bytes_total = observation.bytes_written_total
            if bytes_total - last[0] >= threshold:
                last[0] = bytes_total
                ledger_sync(bytes_total, observation.elapsed, journal)
            if extra is not None:
                extra(observation)

        return observe

    def _post_sync(self, supervised: SupervisedTransferResult) -> None:
        # The engine never calls the interval hook on the completing
        # interval, so the final chunk(s) are mapped here from the last
        # attempt's terminal byte count.
        if supervised.attempts:
            last = supervised.attempts[-1]
            self._sync(last.end_bytes, supervised.completion_time)
        self.journal.flush()

    def _verified_resume(self) -> tuple[float, int, list[int]]:
        """Replay the journal and verify claims; returns the resume state.

        A chunk counts as verified only when the journal *claims* it, the
        claim equals the manifest digest, **and** the destination still
        holds that digest (at-rest damage after journaling is caught
        here).  Every other chunk is demoted and queued for (re-)transfer,
        and the claimed ones among them are reported as re-sent.
        Unclaimed-but-durable chunks (journal buffer lost in the crash)
        are NOT trusted: conservative WAL semantics re-transfer them.
        """
        claims = self.journal.replay()
        ok = claims == self.manifest.digests_np
        ok &= self.ledger.verified_mask()
        unverified = ~ok
        pending = np.flatnonzero(unverified)
        self.ledger.demote(pending)
        start_bytes = _ordered_sum(self.manifest.sizes_np[ok])
        self.ledger.begin_pass(pending, start_bytes=start_bytes)
        unverified &= claims >= 0
        resent = np.flatnonzero(unverified).tolist()
        return start_bytes, len(ok) - len(pending), resent

    # ------------------------------------------------------------------ run
    def run(
        self,
        *,
        resume: bool = False,
        resume_elapsed: float = 0.0,
        observer: Callable[[Observation], None] | None = None,
    ) -> VerifiedTransferResult:
        """Run the verified transfer to a fully-checked destination.

        With ``resume`` the journal is replayed first and only unverified
        chunks are transferred, starting the virtual clock at
        ``resume_elapsed`` (the crash instant).  ``observer`` is chained
        after the ledger sync on every interval — the chaos-soak harness
        injects its crash exceptions there, so a crash always happens
        *after* the bytes it interrupts were accounted.
        """
        cfg = self.config
        resent: list[int] = []
        resumed_verified = 0
        verify_seconds = 0.0
        verify_bytes = 0.0
        if resume:
            with obs.span("integrity/verify_resume", chunks=len(self.manifest)):
                start_bytes, resumed_verified, demoted = self._verified_resume()
                resent.extend(demoted)
            obs.count("integrity/resume_verified_chunks", resumed_verified)
            obs.count("integrity/resume_resent_chunks", len(demoted))
        else:
            start_bytes = 0.0
            self.ledger.begin_pass(range(len(self.manifest)), start_bytes=0.0)

        checkpoint = None
        if start_bytes > 0.0 or resume_elapsed > 0.0:
            checkpoint = TransferCheckpoint(
                bytes_completed=start_bytes, elapsed=resume_elapsed
            )
        supervised = self.supervisor.run(
            resume_from=checkpoint, observer=self._hook(observer)
        )
        self._post_sync(supervised)

        with obs.span("integrity/verify", chunks=len(self.manifest)):
            sweep_start = time.perf_counter()
            bad = self.ledger.verify()
            verify_seconds += time.perf_counter() - sweep_start
            verify_bytes += self.manifest.total_bytes
        obs.count("integrity/verify_passes")

        repair_rounds = 0
        while bad and supervised.completed and repair_rounds < cfg.max_repair_rounds:
            repair_rounds += 1
            obs.count("integrity/repair_rounds")
            obs.count("integrity/chunks_resent", len(bad))
            with obs.span("integrity/repair", round=repair_rounds, chunks=len(bad)):
                self.ledger.demote(bad)
                rewind = _ordered_sum(self.manifest.sizes_np[bad])
                pass_start = self.manifest.total_bytes - rewind
                self.ledger.begin_pass(bad, start_bytes=pass_start)
                resent.extend(bad)
                last_obs = self.supervisor.engine.last_observation
                checkpoint = TransferCheckpoint(
                    bytes_completed=pass_start,
                    elapsed=supervised.completion_time,
                    threads=last_obs.threads if last_obs is not None else (1, 1, 1),
                )
                supervised = self.supervisor.run(
                    resume_from=checkpoint, observer=self._hook(observer)
                )
                self._post_sync(supervised)
                sweep_start = time.perf_counter()
                bad = self.ledger.verify()
                verify_seconds += time.perf_counter() - sweep_start
                verify_bytes += self.manifest.total_bytes

        verified = not bad
        if not verified:
            obs.count("integrity/unrecovered_chunks", len(bad))
        obs.count("transfer.verify.bytes", verify_bytes)
        return VerifiedTransferResult(
            completed=supervised.completed,
            verified=verified,
            supervised=supervised,
            chunks_total=len(self.manifest),
            resumed_verified_chunks=resumed_verified,
            resent_chunk_ids=tuple(resent),
            repair_rounds=repair_rounds,
            unrecovered_chunk_ids=tuple(bad),
            verify_seconds=verify_seconds,
        )


def verify_artifacts(run_dir: str | Path) -> dict:
    """Offline verification of one run directory's integrity artifacts.

    Reads ``manifest.json``, ``journal.jsonl`` and ``destination.json``
    (each optional except the manifest), cross-checks journal claims and
    destination digests against the manifest, and confirms journal-replay
    idempotence.  This is what ``automdt verify`` prints.  A file that
    fails validation raises :class:`IntegrityError`: a manifest whose
    digests or algorithm do not re-derive, a journal claim outside the
    manifest, or a destination ``order`` that repeats or leaves it.
    """
    run_dir = Path(run_dir)
    manifest = TransferManifest.load(run_dir / "manifest.json")

    journal_path = run_dir / "journal.jsonl"
    with ChunkJournal(journal_path, manifest.digests_np) as journal:
        claims = journal.replay()
    # The column against a cold fold of the file that replay healed: the
    # same journal's second replay would read nothing past its cursor.
    with ChunkJournal(journal_path, manifest.digests_np) as cold:
        replay_idempotent = bool(np.array_equal(cold.replay(), claims))
    claimed = claims >= 0
    claimed_ok = claims == manifest.digests_np

    report: dict = {
        "dataset": manifest.dataset_name,
        "algorithm": _ALGORITHM,
        "chunks_total": len(manifest),
        "total_bytes": manifest.total_bytes,
        "journal_claims": int(np.count_nonzero(claimed)),
        "journal_claims_ok": int(np.count_nonzero(claimed_ok)),
        "journal_claims_bad": np.flatnonzero(claimed & ~claimed_ok).tolist(),
        "replay_idempotent": replay_idempotent,
    }

    destination_path = run_dir / "destination.json"
    if destination_path.exists():
        ledger = DestinationLedger.from_dict(manifest, load_json(destination_path))
        bad = ledger.verify()
        report["destination"] = ledger.status_counts()
        report["destination_bad_chunks"] = sorted(bad)
        report["verified_bytes"] = ledger.verified_bytes
        report["all_verified"] = not bad
    else:
        report["all_verified"] = bool(claimed_ok.all())
    return report
