"""Reference oracles for the chunk journal's replay and the verified resume.

:func:`replay` is :meth:`repro.transfer.integrity.ChunkJournal.replay`'s
original dict fold, kept as the test oracle for the claim column.  Laid
into a column by :func:`claim_column` (``-1`` = unclaimed), it must equal
what ``replay`` returns for the same journal file.

:class:`OracleJournal` is the incremental replay as it was before it read
the file unbuffered and parsed each line without :func:`json.loads`'s
wrapper, and :func:`verified_resume` is
:meth:`repro.transfer.integrity.VerifiedTransfer._verified_resume` before
it shared its masks: the production code must return, raise, truncate and
keep as cursor exactly what these do.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from repro.obs.events import read_events
from repro.transfer.integrity import ChunkJournal, _ordered_sum
from repro.utils.errors import IntegrityError


def replay(path: str | Path, expected) -> dict[int, int]:
    """Fold a journal file into ``{chunk_id: last claimed digest}``.

    A missing file holds no claims and a torn final line is skipped (the
    oracle never writes the file).  A ``chunkbatch`` record's claims apply
    in order, as if appended one by one; a ``chunkrun`` claims ``lo..hi-1``
    at the manifest digests ``expected``.
    """
    path = Path(path)
    if not path.exists():
        return {}
    claims: dict[int, int] = {}
    for record in read_events(path):
        kind = record.get("type")
        if kind == "chunkbatch":
            for cid, digest in zip(record["ids"], record["digests"]):
                claims[int(cid)] = int(digest)
        elif kind == "chunkrun":
            for cid in range(int(record["lo"]), int(record["hi"])):
                claims[cid] = expected[cid]
    return claims


def claim_column(claims: dict[int, int], n: int) -> np.ndarray:
    """``claims`` laid into an int64 column of ``n`` chunks, ``-1`` = unclaimed."""
    column = np.full(n, -1, dtype=np.int64)
    for cid, digest in claims.items():
        column[cid] = digest
    return column


class OracleJournal(ChunkJournal):
    """The journal with its original buffered read and per-line ``json.loads``."""

    def replay(self) -> np.ndarray:
        expected = self._expected
        n = len(expected)
        try:
            fh = self.path.open("rb")
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
                records.append(json.loads(line))
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


def verified_resume(verified) -> tuple[float, int, list[int]]:
    """``VerifiedTransfer._verified_resume`` as it was, on ``verified``'s state."""
    claims = verified.journal.replay()
    ok = (claims == verified.manifest.digests_np) & verified.ledger.verified_mask()
    pending = np.flatnonzero(~ok)
    verified.ledger.demote(pending)
    start_bytes = _ordered_sum(verified.manifest.sizes_np[ok])
    verified.ledger.begin_pass(pending, start_bytes=start_bytes)
    resent = np.flatnonzero((claims >= 0) & ~ok).tolist()
    return start_bytes, int(np.count_nonzero(ok)), resent
