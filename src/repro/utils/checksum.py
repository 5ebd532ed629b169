"""CRC32C (Castagnoli) for the integrity layer's manifest tags and fault markers.

The integrity layer (:mod:`repro.transfer.integrity`) digests two kinds of
bytes, both small:

* **manifest payload tags** — each chunk's canonical content, a tag of at
  most a few dozen bytes.  A manifest never digests a whole tag: it sweeps
  the per-file prefixes and the distinct index tails with
  :func:`crc32c_many`, then joins a prefix and a tail by the CRC combine
  identity ``crc32c(a + b) == Z(crc32c(a)) ^ crc32c(b)``, where ``Z``
  (:func:`crc32c_zeros`) is ``len(b)`` zero-byte steps of the register,
  as zlib's ``crc32_combine`` does;
* **fault markers** — a few bytes chained onto a chunk's expected digest
  with :func:`crc32c`'s ``value`` to synthesise the divergent digest a
  corrupt or torn chunk holds.

CRC32C is the iSCSI/ext4 CRC (polynomial ``0x1EDC6F41``, reflected).
Known-answer vectors are pinned in ``tests/utils/test_checksum.py``
(``crc32c(b"123456789") == 0xE3069283`` is the standard check value), and
:func:`crc32c` is the oracle :func:`crc32c_many` and the combine identity
must match bit for bit.  All three return unsigned 32-bit values;
:func:`crc32c` and :func:`crc32c_many` accept any bytes-like object.
"""

from __future__ import annotations

import numpy as np

__all__ = ["crc32c", "crc32c_many", "crc32c_zeros"]

_CRC32C_POLY = 0x82F63B78  # 0x1EDC6F41 reflected


def _crc_table() -> tuple[int, ...]:
    table = []
    for n in range(256):
        c = n
        for _ in range(8):
            c = (c >> 1) ^ _CRC32C_POLY if c & 1 else c >> 1
        table.append(c)
    return tuple(table)


_TABLE = _crc_table()
_TABLE_NP = np.array(_TABLE, dtype=np.uint32)


def crc32c(data, value: int = 0) -> int:
    """CRC32C of ``data``; ``value`` chains a previous digest, so
    ``crc32c(a + b) == crc32c(b, crc32c(a))``."""
    crc = (value & 0xFFFFFFFF) ^ 0xFFFFFFFF
    table = _TABLE
    for byte in data:
        crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


def crc32c_many(arena, offsets, lengths):
    """CRC32C of many records of one arena, in one vectorized sweep.

    ``arena`` is any bytes-like; record *i* is
    ``arena[offsets[i] : offsets[i] + lengths[i]]``.  Returns a ``uint32``
    array.  Records are sorted by length once, and each byte position
    updates the whole still-active prefix with one table gather, so the
    sweep costs one numpy step per byte of the longest record.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    n = len(offsets)
    if n == 0:
        return np.empty(0, dtype=np.uint32)
    a8 = np.frombuffer(arena, dtype=np.uint8)
    order = np.argsort(-lengths, kind="stable")
    soff, slen = offsets[order], lengths[order]
    maxlen = int(slen[0])
    # counts[i]: how many records are longer than i bytes (still active).
    counts = n - np.searchsorted(slen[::-1], np.arange(maxlen), side="right")
    crc = np.full(n, 0xFFFFFFFF, dtype=np.uint32)
    m8, s8 = np.uint32(0xFF), np.uint32(8)
    for i in range(maxlen):
        k = counts[i]
        c = crc[:k]
        crc[:k] = _TABLE_NP[(c ^ a8[soff[:k] + i]) & m8] ^ (c >> s8)
    crc ^= np.uint32(0xFFFFFFFF)
    out = np.empty(n, dtype=np.uint32)
    out[order] = crc
    return out


def crc32c_zeros(crcs, n: int):
    """Each digest of ``crcs`` advanced through ``n`` zero bytes.

    This is :func:`crc32c_many`'s table step with no data byte, applied
    ``n`` times to a whole column; it returns a new ``uint32`` array.  It
    joins digests without their bytes: for any ``a`` and ``b``,
    ``crc32c(a + b) == crc32c_zeros([crc32c(a)], len(b))[0] ^ crc32c(b)``.
    """
    crc = np.array(crcs, dtype=np.uint32)
    m8, s8 = np.uint32(0xFF), np.uint32(8)
    for _ in range(n):
        crc = _TABLE_NP[crc & m8] ^ (crc >> s8)
    return crc
