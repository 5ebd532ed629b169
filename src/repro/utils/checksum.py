"""Per-chunk checksums: pure-python reference kernels + vectorized fast paths.

The integrity layer (:mod:`repro.transfer.integrity`) digests every chunk of
a transfer manifest with one of these algorithms:

* **CRC32C** (Castagnoli) — the iSCSI/ext4 CRC (polynomial ``0x1EDC6F41``,
  reflected).  This is what GridFTP-era transfer services checksum blocks
  with.
* **XXH32** — the 32-bit xxHash, a non-cryptographic hash; included as the
  alternate manifest algorithm.

Each algorithm ships as a *pair* of bit-identical kernels plus a batch
variant, with automatic selection behind the public :func:`crc32c` /
:func:`xxh32` entry points:

* ``crc32c_py`` / ``xxh32_py`` — the dependency-free pure-python reference
  oracle.  Known-answer vectors are pinned in
  ``tests/utils/test_checksum.py`` (``crc32c(b"123456789") == 0xE3069283``
  is the standard CRC32C check value), and the property suite there holds
  every other kernel to byte-for-byte agreement with these.
* ``crc32c_np`` — a numpy kernel built on the GF(2)-linearity of CRC:
  16-bit slice-by-8 entry tables turn each 8-byte block into an independent
  32-bit contribution, and a logarithmic *fold* combines all block
  contributions with precomputed ``L^(8·2^s)`` shift operators — ~2 gather
  passes per byte instead of a python-level loop, ≥20× the reference on
  megabyte buffers (``benchmarks/bench_dataplane.py`` gates this).
* ``xxh32_np`` — lane-parallel XXH32: the four lane word streams are
  extracted and premultiplied by ``PRIME2`` in one vectorized pass, leaving
  a tight python loop over stripes (the lane recurrence is sequential by
  construction; this kernel is a constant-factor win, not an asymptotic
  one).
* ``crc32c_many`` / ``xxh32_many`` — *buffer-parallel* kernels digesting
  thousands of small records (manifest payload tags) in one vectorized
  sweep over a shared arena: buffers are sorted by length once and each
  byte/stripe position is processed for the whole still-active prefix with
  numpy table gathers.  This is the "one vectorized pass per verification
  sweep" lane the manifest builder uses.
* :class:`Crc32cStream` / :class:`Xxh32Stream` — streaming digests:
  feeding a buffer in arbitrary splits yields exactly the whole-buffer
  digest, so callers can chain ``memoryview`` slices without ever
  concatenating (the zero-copy invariant of the chunk pipeline).

All functions return unsigned 32-bit integers and accept any C-contiguous
bytes-like object (``bytes``, ``bytearray``, ``memoryview``) without
copying it.
"""

from __future__ import annotations

import numpy as _np

__all__ = [
    "CRC32C_VECTOR_MIN",
    "XXH32_VECTOR_MIN",
    "Crc32cStream",
    "Xxh32Stream",
    "crc32c",
    "crc32c_many",
    "crc32c_np",
    "crc32c_py",
    "digest_many",
    "kernel_info",
    "stream_for",
    "xxh32",
    "xxh32_many",
    "xxh32_np",
    "xxh32_py",
]

#: Below these sizes the pure-python kernels win (table setup + numpy call
#: overhead dominates); the dispatchers fall back automatically.
CRC32C_VECTOR_MIN = 256
XXH32_VECTOR_MIN = 2048

#: Batch kernels switch to per-buffer digesting when any record exceeds
#: this — the buffer-parallel sweep iterates python-side over *positions*,
#: so it is built for many small records, not few large ones.
_MANY_MAX_RECORD = 4096

_M32 = 0xFFFFFFFF
_CRC32C_POLY = 0x82F63B78  # 0x1EDC6F41 reflected


# =========================================================================
# Pure-python reference kernels (the oracle every fast kernel must match)
# =========================================================================
def _crc_table() -> tuple[int, ...]:
    table = []
    for n in range(256):
        c = n
        for _ in range(8):
            c = (c >> 1) ^ _CRC32C_POLY if c & 1 else c >> 1
        table.append(c)
    return tuple(table)


_TABLE = _crc_table()


def crc32c_py(data, value: int = 0) -> int:
    """Reference CRC32C of ``data``; ``value`` chains a previous digest."""
    crc = (value & 0xFFFFFFFF) ^ 0xFFFFFFFF
    table = _TABLE
    for byte in data:
        crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


_P1, _P2, _P3, _P4, _P5 = 2654435761, 2246822519, 3266489917, 668265263, 374761393


def _rotl(x: int, r: int) -> int:
    return ((x << r) | (x >> (32 - r))) & _M32


def xxh32_py(data, seed: int = 0) -> int:
    """Reference XXH32 of ``data`` with ``seed`` (pure python)."""
    seed &= _M32
    n = len(data)
    i = 0
    if n >= 16:
        v1 = (seed + _P1 + _P2) & _M32
        v2 = (seed + _P2) & _M32
        v3 = seed
        v4 = (seed - _P1) & _M32
        while i <= n - 16:
            v1 = (_rotl((v1 + int.from_bytes(data[i : i + 4], "little") * _P2) & _M32, 13) * _P1) & _M32
            v2 = (_rotl((v2 + int.from_bytes(data[i + 4 : i + 8], "little") * _P2) & _M32, 13) * _P1) & _M32
            v3 = (_rotl((v3 + int.from_bytes(data[i + 8 : i + 12], "little") * _P2) & _M32, 13) * _P1) & _M32
            v4 = (_rotl((v4 + int.from_bytes(data[i + 12 : i + 16], "little") * _P2) & _M32, 13) * _P1) & _M32
            i += 16
        acc = (_rotl(v1, 1) + _rotl(v2, 7) + _rotl(v3, 12) + _rotl(v4, 18)) & _M32
    else:
        acc = (seed + _P5) & _M32
    acc = (acc + n) & _M32
    while i <= n - 4:
        acc = (_rotl((acc + int.from_bytes(data[i : i + 4], "little") * _P3) & _M32, 17) * _P4) & _M32
        i += 4
    while i < n:
        acc = (_rotl((acc + data[i] * _P5) & _M32, 11) * _P1) & _M32
        i += 1
    acc ^= acc >> 15
    acc = (acc * _P2) & _M32
    acc ^= acc >> 13
    acc = (acc * _P3) & _M32
    acc ^= acc >> 16
    return acc


# =========================================================================
# Vectorized CRC32C: slice-by-8 entry tables + logarithmic GF(2) fold
# =========================================================================
# CRC over GF(2) is linear: one byte step is crc' = L(crc) ^ T[b] with
# L(c) = T[c & 0xFF] ^ (c >> 8), so an n-byte message folds to
#
#     crc_n = L^n(crc_0)  ^  XOR_i L^(n-1-i)(T[b_i]).
#
# The kernel computes the XOR term blockwise: each 8-byte block contributes
# XOR_j T8[7-j][b_j] (classic slice-by-8, here as four 16-bit-indexed
# tables so a block costs 4 gathers instead of 8), and the per-block
# contributions combine pairwise with precomputed L^(8·2^s) operators —
# log2(m) vectorized levels instead of a sequential walk.
_VTABLES = None  # (_T32, _E16) built lazily on first vectorized call
_OPS8: list = []  # L^(8·2^s) as 4×256 byte-lane tables, index = level s
_OPS16: dict = {}  # same operators as 2×65536 halfword tables (hot levels)


def _build_vtables():
    global _VTABLES
    if _VTABLES is None:
        t8 = _np.empty((8, 256), dtype=_np.uint32)
        t8[0] = _np.array(_TABLE, dtype=_np.uint32)
        for k in range(1, 8):
            prev = t8[k - 1]
            t8[k] = t8[0][prev & 0xFF] ^ (prev >> _np.uint32(8))
        # 16-bit entry tables: block of 8 bytes read as 4 LE uint16 words;
        # word k holds bytes (2k, 2k+1) whose slice-by-8 tables are
        # T8[7-2k] / T8[6-2k].
        w = _np.arange(65536, dtype=_np.uint32)
        lo, hi = w & 0xFF, w >> _np.uint32(8)
        e16 = _np.stack([t8[7 - 2 * k][lo] ^ t8[6 - 2 * k][hi] for k in range(4)])
        _VTABLES = (t8, e16)
    return _VTABLES


def _apply_op8(op, v):
    return (
        op[0][v & 0xFF]
        ^ op[1][(v >> _np.uint32(8)) & 0xFF]
        ^ op[2][(v >> _np.uint32(16)) & 0xFF]
        ^ op[3][v >> _np.uint32(24)]
    )


def _op8(s: int):
    """Byte-lane tables of the linear operator ``L^(8·2^s)`` (lazy)."""
    if not _OPS8:
        t8, _ = _build_vtables()
        base = _np.empty((4, 256), dtype=_np.uint32)
        b = _np.arange(256, dtype=_np.uint32)
        for j in range(4):
            v = b << _np.uint32(8 * j)
            for _ in range(8):  # L^8 = eight zero-byte steps
                v = t8[0][v & 0xFF] ^ (v >> _np.uint32(8))
            base[j] = v
        _OPS8.append(base)
    while len(_OPS8) <= s:  # square: L^(8·2^(s+1)) = (L^(8·2^s))^2
        prev = _OPS8[-1]
        _OPS8.append(_np.stack([_apply_op8(prev, prev[j]) for j in range(4)]))
    return _OPS8[s]


def _op16(s: int):
    """Halfword tables of ``L^(8·2^s)`` — 2 gathers per element (lazy)."""
    op = _OPS16.get(s)
    if op is None:
        op8 = _op8(s)
        w = _np.arange(65536, dtype=_np.uint32)
        lo8, hi8 = w & 0xFF, w >> _np.uint32(8)
        op = _OPS16[s] = (op8[0][lo8] ^ op8[1][hi8], op8[2][lo8] ^ op8[3][hi8])
    return op


def _shift_crc(crc: int, blocks: int) -> int:
    """``L^(8·blocks)`` applied to one scalar crc state (python ints)."""
    s = 0
    while blocks:
        if blocks & 1:
            o0, o1, o2, o3 = _op8(s)
            crc = int(o0[crc & 0xFF]) ^ int(o1[(crc >> 8) & 0xFF]) \
                ^ int(o2[(crc >> 16) & 0xFF]) ^ int(o3[crc >> 24])
        blocks >>= 1
        s += 1
    return crc


def crc32c_np(data, value: int = 0) -> int:
    """Vectorized CRC32C (bit-identical to :func:`crc32c_py`)."""
    n = len(data)
    crc = (value & 0xFFFFFFFF) ^ 0xFFFFFFFF
    mv = memoryview(data)
    head = n % 8  # scalar-align so the block view starts 8-byte-strided
    table = _TABLE
    for byte in mv[:head]:
        crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    m = (n - head) // 8
    if m == 0:
        return crc ^ 0xFFFFFFFF
    _, e16 = _build_vtables()
    words = _np.frombuffer(mv, dtype="<u2", offset=head, count=m * 4).reshape(m, 4)
    x = e16[0][words[:, 0]]
    x ^= e16[1][words[:, 1]]
    x ^= e16[2][words[:, 2]]
    x ^= e16[3][words[:, 3]]
    s = 0
    while len(x) > 64:  # pairwise fold; short tails finish scalar below
        if len(x) & 1:
            # A leading zero block contributes nothing: front-pad to even.
            x = _np.concatenate([_np.zeros(1, dtype=_np.uint32), x])
        lo16, hi16 = _op16(s)
        x = (lo16[x[0::2] & _np.uint16(0xFFFF)] ^ hi16[x[0::2] >> _np.uint32(16)]) ^ x[1::2]
        s += 1
    o0, o1, o2, o3 = (t.tolist() for t in _op8(s))
    acc = 0
    for v in x.tolist():  # XOR_r L^(8·2^s·(len-1-r))(x_r), sequentially
        acc = o0[acc & 0xFF] ^ o1[(acc >> 8) & 0xFF] ^ o2[(acc >> 16) & 0xFF] ^ o3[acc >> 24]
        acc ^= v
    return (_shift_crc(crc, m) ^ acc) ^ 0xFFFFFFFF


# =========================================================================
# Vectorized XXH32: lane-parallel word extraction + premultiply
# =========================================================================
def _lanes_py(v: list[int], data, start: int, stripes: int) -> None:
    """Advance lane state ``v`` over ``stripes`` 16-byte stripes (pure)."""
    v1, v2, v3, v4 = v
    i = start
    for _ in range(stripes):
        v1 = (_rotl((v1 + int.from_bytes(data[i : i + 4], "little") * _P2) & _M32, 13) * _P1) & _M32
        v2 = (_rotl((v2 + int.from_bytes(data[i + 4 : i + 8], "little") * _P2) & _M32, 13) * _P1) & _M32
        v3 = (_rotl((v3 + int.from_bytes(data[i + 8 : i + 12], "little") * _P2) & _M32, 13) * _P1) & _M32
        v4 = (_rotl((v4 + int.from_bytes(data[i + 12 : i + 16], "little") * _P2) & _M32, 13) * _P1) & _M32
        i += 16
    v[0], v[1], v[2], v[3] = v1, v2, v3, v4


def _lanes_np(v: list[int], data, start: int, stripes: int) -> None:
    """Lane-parallel stripe loop: words of all four lanes are extracted and
    premultiplied by ``PRIME2`` in one vectorized pass, so the (inherently
    sequential) recurrence runs over ready-made python ints."""
    mv = memoryview(data)
    words = _np.frombuffer(mv, dtype="<u4", offset=start, count=stripes * 4)
    mw = ((words.astype(_np.uint64) * _P2) & _M32).reshape(stripes, 4)
    l1, l2, l3, l4 = (mw[:, k].tolist() for k in range(4))
    v1, v2, v3, v4 = v
    M, P1 = _M32, _P1
    for w1, w2, w3, w4 in zip(l1, l2, l3, l4):
        a = (v1 + w1) & M
        v1 = (((a << 13) | (a >> 19)) * P1) & M
        a = (v2 + w2) & M
        v2 = (((a << 13) | (a >> 19)) * P1) & M
        a = (v3 + w3) & M
        v3 = (((a << 13) | (a >> 19)) * P1) & M
        a = (v4 + w4) & M
        v4 = (((a << 13) | (a >> 19)) * P1) & M
    v[0], v[1], v[2], v[3] = v1, v2, v3, v4


def _xxh32_tail(acc: int, data, i: int, n: int) -> int:
    """Word/byte tail + avalanche shared by every XXH32 kernel."""
    while i <= n - 4:
        acc = (_rotl((acc + int.from_bytes(data[i : i + 4], "little") * _P3) & _M32, 17) * _P4) & _M32
        i += 4
    while i < n:
        acc = (_rotl((acc + data[i] * _P5) & _M32, 11) * _P1) & _M32
        i += 1
    acc ^= acc >> 15
    acc = (acc * _P2) & _M32
    acc ^= acc >> 13
    acc = (acc * _P3) & _M32
    acc ^= acc >> 16
    return acc


def _lane_init(seed: int) -> list[int]:
    return [(seed + _P1 + _P2) & _M32, (seed + _P2) & _M32, seed, (seed - _P1) & _M32]


def _lane_merge(v: list[int]) -> int:
    return (_rotl(v[0], 1) + _rotl(v[1], 7) + _rotl(v[2], 12) + _rotl(v[3], 18)) & _M32


def xxh32_np(data, seed: int = 0) -> int:
    """Lane-parallel XXH32 (bit-identical to :func:`xxh32_py`)."""
    seed &= _M32
    n = len(data)
    mv = memoryview(data)
    if n >= 16:
        stripes = n // 16
        v = _lane_init(seed)
        _lanes_np(v, mv, 0, stripes)
        acc = _lane_merge(v)
        i = stripes * 16
    else:
        acc = (seed + _P5) & _M32
        i = 0
    return _xxh32_tail((acc + n) & _M32, mv, i, n)


# =========================================================================
# Automatic kernel selection
# =========================================================================
def crc32c(data, value: int = 0) -> int:
    """CRC32C of ``data``; ``value`` chains a previous digest (streaming).

    Dispatches to the vectorized kernel for buffers ≥
    :data:`CRC32C_VECTOR_MIN` bytes; always bit-identical to
    :func:`crc32c_py`.
    """
    if len(data) >= CRC32C_VECTOR_MIN:
        return crc32c_np(data, value)
    return crc32c_py(data, value)


def xxh32(data, seed: int = 0) -> int:
    """XXH32 of ``data`` with ``seed`` (automatic kernel selection)."""
    if len(data) >= XXH32_VECTOR_MIN:
        return xxh32_np(data, seed)
    return xxh32_py(data, seed)


def kernel_info() -> dict:
    """Which kernels the dispatchers select (for benches and docs)."""
    return {
        "numpy": True,
        "crc32c": "numpy-slice8-fold",
        "xxh32": "numpy-lane-parallel",
        "crc32c_vector_min": CRC32C_VECTOR_MIN,
        "xxh32_vector_min": XXH32_VECTOR_MIN,
    }


# =========================================================================
# Buffer-parallel batch kernels (arena + offsets/lengths)
# =========================================================================
def _active_prefix_counts(sorted_lengths, positions):
    """``counts[i]`` = how many sorted-descending lengths exceed
    ``positions[i]`` — the still-active prefix at each sweep position."""
    asc = sorted_lengths[::-1]
    return len(sorted_lengths) - _np.searchsorted(asc, positions, side="right")


def crc32c_many(arena, offsets, lengths):
    """CRC32C of many records of one arena, in one vectorized sweep.

    ``arena`` is any bytes-like; record *i* is
    ``arena[offsets[i] : offsets[i] + lengths[i]]``.  Returns a
    ``uint32`` array.  Records are
    processed byte-position-parallel: buffers are sorted by length once
    and each position updates the whole still-active prefix with one
    table gather — built for thousands of small records (manifest payload
    tags), falling back to the per-buffer kernel when any record exceeds
    ``_MANY_MAX_RECORD`` bytes.
    """
    mv = memoryview(arena)
    offsets = _np.asarray(offsets, dtype=_np.int64)
    lengths = _np.asarray(lengths, dtype=_np.int64)
    n = len(offsets)
    if n == 0:
        return _np.empty(0, dtype=_np.uint32)
    if int(lengths.max()) > _MANY_MAX_RECORD:
        return _np.array(
            [crc32c(mv[o : o + ln]) for o, ln in zip(offsets.tolist(), lengths.tolist())],
            dtype=_np.uint32,
        )
    t32, _ = _build_vtables()
    a8 = _np.frombuffer(mv, dtype=_np.uint8)
    t32 = t32[0]
    order = _np.argsort(-lengths, kind="stable")
    soff, slen = offsets[order], lengths[order]
    maxlen = int(slen[0])
    counts = _active_prefix_counts(slen, _np.arange(maxlen))
    crc = _np.full(n, 0xFFFFFFFF, dtype=_np.uint32)
    m8, s8 = _np.uint32(0xFF), _np.uint32(8)
    for i in range(maxlen):
        k = counts[i]
        c = crc[:k]
        crc[:k] = t32[(c ^ a8[soff[:k] + i]) & m8] ^ (c >> s8)
    crc ^= _np.uint32(0xFFFFFFFF)
    out = _np.empty(n, dtype=_np.uint32)
    out[order] = crc
    return out


def _gather_words(a8, base):
    """Little-endian uint32 words at arbitrary byte offsets ``base``."""
    return (
        a8[base].astype(_np.uint32)
        | (a8[base + 1].astype(_np.uint32) << _np.uint32(8))
        | (a8[base + 2].astype(_np.uint32) << _np.uint32(16))
        | (a8[base + 3].astype(_np.uint32) << _np.uint32(24))
    )


def xxh32_many(arena, offsets, lengths, seed: int = 0):
    """XXH32 of many records of one arena, buffer-parallel (see
    :func:`crc32c_many` for the arena convention and fallback rules)."""
    mv = memoryview(arena)
    seed &= _M32
    offsets = _np.asarray(offsets, dtype=_np.int64)
    lengths = _np.asarray(lengths, dtype=_np.int64)
    n = len(offsets)
    if n == 0:
        return _np.empty(0, dtype=_np.uint32)
    if int(lengths.max()) > _MANY_MAX_RECORD:
        return _np.array(
            [xxh32(mv[o : o + ln], seed) for o, ln in zip(offsets.tolist(), lengths.tolist())],
            dtype=_np.uint32,
        )
    a8 = _np.frombuffer(mv, dtype=_np.uint8)
    order = _np.argsort(-lengths, kind="stable")
    soff, slen = offsets[order], lengths[order]
    m32 = _np.uint64(_M32)
    acc = _np.full(n, (seed + _P5) & _M32, dtype=_np.uint64)
    stripes = slen >> 2 >> 2  # // 16, kept as int64
    n16 = int(_np.count_nonzero(slen >= 16))
    if n16:
        max_stripes = int(stripes[0])
        counts = _active_prefix_counts(stripes[:n16], _np.arange(max_stripes))
        init = _lane_init(seed)
        lanes = [_np.full(n16, init[lane], dtype=_np.uint64) for lane in range(4)]
        for s in range(max_stripes):
            k = counts[s]
            base = soff[:k] + 16 * s
            for lane in range(4):
                w = _gather_words(a8, base + 4 * lane).astype(_np.uint64)
                t = (lanes[lane][:k] + w * _np.uint64(_P2)) & m32
                r = ((t << _np.uint64(13)) | (t >> _np.uint64(19))) & m32
                lanes[lane][:k] = (r * _np.uint64(_P1)) & m32
        rot = [1, 7, 12, 18]
        merged = _np.zeros(n16, dtype=_np.uint64)
        for lane in range(4):
            v = lanes[lane]
            merged += ((v << _np.uint64(rot[lane])) | (v >> _np.uint64(32 - rot[lane]))) & m32
        acc[:n16] = merged & m32
    acc = (acc + slen.astype(_np.uint64)) & m32
    word_base = stripes * 16
    words_left = (slen - word_base) >> 2  # 0..3 remaining 4-byte words
    for j in range(3):
        sel = _np.nonzero(words_left > j)[0]
        if len(sel) == 0:
            break
        w = _gather_words(a8, soff[sel] + word_base[sel] + 4 * j).astype(_np.uint64)
        t = (acc[sel] + w * _np.uint64(_P3)) & m32
        r = ((t << _np.uint64(17)) | (t >> _np.uint64(15))) & m32
        acc[sel] = (r * _np.uint64(_P4)) & m32
    byte_base = word_base + 4 * words_left
    bytes_left = slen - byte_base  # 0..3 trailing bytes
    for j in range(3):
        sel = _np.nonzero(bytes_left > j)[0]
        if len(sel) == 0:
            break
        b = a8[soff[sel] + byte_base[sel] + j].astype(_np.uint64)
        t = (acc[sel] + b * _np.uint64(_P5)) & m32
        r = ((t << _np.uint64(11)) | (t >> _np.uint64(21))) & m32
        acc[sel] = (r * _np.uint64(_P1)) & m32
    acc ^= acc >> _np.uint64(15)
    acc = (acc * _np.uint64(_P2)) & m32
    acc ^= acc >> _np.uint64(13)
    acc = (acc * _np.uint64(_P3)) & m32
    acc ^= acc >> _np.uint64(16)
    out = _np.empty(n, dtype=_np.uint64)
    out[order] = acc
    return out.astype(_np.uint32)


def digest_many(buffers, algorithm: str = "crc32c") -> list[int]:
    """Digest a sequence of bytes-like records in one batch pass.

    Convenience wrapper over the arena kernels: concatenates ``buffers``
    into one arena and returns plain python ints.  Callers that already
    hold an arena (the manifest builder) use :func:`crc32c_many` /
    :func:`xxh32_many` directly and skip the copy.
    """
    lengths = [len(b) for b in buffers]
    offsets = [0] * len(lengths)
    total = 0
    for i, ln in enumerate(lengths):
        offsets[i] = total
        total += ln
    arena = b"".join(bytes(b) for b in buffers)
    if algorithm == "crc32c":
        digests = crc32c_many(arena, offsets, lengths)
    elif algorithm == "xxh32":
        digests = xxh32_many(arena, offsets, lengths)
    else:
        raise ValueError(f"unknown digest algorithm {algorithm!r}")
    return [int(d) for d in digests]


# =========================================================================
# Streaming digests (split-invariant; zero-copy update over memoryviews)
# =========================================================================
class Crc32cStream:
    """Streaming CRC32C: ``update`` in any splits == one-shot digest.

    CRC chains natively (``crc32c(a + b) == crc32c(b, crc32c(a))``), so
    the stream is just the running digest; ``init`` seeds it from a known
    prior digest — the zero-copy trick the integrity layer uses to digest
    ``payload + marker`` without touching the payload bytes again.
    """

    __slots__ = ("_digest",)
    algorithm = "crc32c"

    def __init__(self, init: int = 0) -> None:
        self._digest = int(init) & _M32

    def update(self, data) -> "Crc32cStream":
        self._digest = crc32c(data, self._digest)
        return self

    def digest(self) -> int:
        return self._digest


class Xxh32Stream:
    """Streaming XXH32: lane state + a <16-byte tail buffer.

    ``digest()`` is non-destructive — it finalizes a copy of the state, so
    callers can keep feeding data afterwards (the divergent-digest salting
    loop relies on this).
    """

    __slots__ = ("_seed", "_total", "_v", "_tail")
    algorithm = "xxh32"

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed) & _M32
        self._total = 0
        self._v: list[int] | None = None  # lanes start at the first stripe
        self._tail = b""

    def update(self, data) -> "Xxh32Stream":
        mv = memoryview(data)
        n = len(mv)
        if n == 0:
            return self
        self._total += n
        start = 0
        if self._tail:
            take = min(16 - len(self._tail), n)
            self._tail += bytes(mv[:take])
            start = take
            if len(self._tail) < 16:
                return self
            if self._v is None:
                self._v = _lane_init(self._seed)
            _lanes_py(self._v, self._tail, 0, 1)
            self._tail = b""
        stripes = (n - start) // 16
        if stripes:
            if self._v is None:
                self._v = _lane_init(self._seed)
            if stripes * 16 >= XXH32_VECTOR_MIN:
                _lanes_np(self._v, mv, start, stripes)
            else:
                _lanes_py(self._v, mv, start, stripes)
            start += stripes * 16
        if start < n:
            self._tail = bytes(mv[start:])
        return self

    def digest(self) -> int:
        n = self._total
        if self._v is not None:
            acc = _lane_merge(self._v)
        else:
            acc = (self._seed + _P5) & _M32
        return _xxh32_tail((acc + n) & _M32, self._tail, 0, len(self._tail))


def stream_for(algorithm: str, *, init: int = 0, seed: int = 0):
    """A fresh streaming digest for ``algorithm`` (see the stream classes)."""
    if algorithm == "crc32c":
        return Crc32cStream(init)
    if algorithm == "xxh32":
        return Xxh32Stream(seed)
    raise ValueError(f"unknown digest algorithm {algorithm!r}")
