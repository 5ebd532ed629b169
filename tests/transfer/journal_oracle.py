"""Reference oracle: the chunk journal replayed as a ``{chunk_id: digest}`` fold.

This is :meth:`repro.transfer.integrity.ChunkJournal.replay`'s original
dict fold, kept as the test oracle for the claim column.  Laid into a
column by :func:`claim_column` (``-1`` = unclaimed), it must equal what
``replay`` returns for the same journal file.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.obs.events import read_events


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
