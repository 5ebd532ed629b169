"""Known-answer vectors, kernel equivalence, and chaining algebra.

:func:`crc32c` is the *reference oracle*: it is pinned against the
standard check values, and the buffer-parallel :func:`crc32c_many` must
be bit-identical to it on every arena shape.  The property tests here
sweep the shapes that matter: every small length, a log-spread of long
records, random chaining split points, and arenas with empty/ragged
records.  :func:`crc32c_zeros` is held to the combine identity the
manifest build rests on.
"""

import random

import numpy as np

from repro.utils.checksum import crc32c, crc32c_many, crc32c_zeros


def _seeded_buffers(count: int, max_len: int, seed: int) -> list[bytes]:
    """Deterministic random buffers: lengths 0..560 exhaustively, then
    log-uniform up to ``max_len`` so long records are hit without
    quadratic test time."""
    rng = random.Random(seed)
    lengths = list(range(min(561, count)))
    while len(lengths) < count:
        lengths.append(int(2 ** rng.uniform(0, max_len.bit_length() - 1)) + rng.randrange(16))
    return [rng.randbytes(n) for n in lengths[:count]]


def _arena(buffers):
    offsets, lengths, pos = [], [], 0
    for b in buffers:
        offsets.append(pos)
        lengths.append(len(b))
        pos += len(b)
    return b"".join(buffers), offsets, lengths


class TestCrc32c:
    def test_standard_check_value(self):
        # The CRC32C check value from the iSCSI spec / every reference impl.
        assert crc32c(b"123456789") == 0xE3069283

    def test_pinned_vectors(self):
        assert crc32c(b"") == 0x00000000
        assert crc32c(b"a") == 0xC1D04330
        assert crc32c(b"abc") == 0x364B3FB7
        assert crc32c(b"\x00" * 32) == 0x8A9136AA

    def test_streaming_chains_to_one_shot(self):
        data = bytes(range(256)) * 3
        split = 100
        chained = crc32c(data[split:], crc32c(data[:split]))
        assert chained == crc32c(data)

    def test_sensitivity_to_single_bit(self):
        data = b"automdt chunk payload"
        flipped = bytes([data[0] ^ 0x01]) + data[1:]
        assert crc32c(data) != crc32c(flipped)

    def test_unsigned_32_bit(self):
        for data in (b"", b"x", bytes(1000)):
            assert 0 <= crc32c(data) <= 0xFFFFFFFF


class TestVectorizedEqualsPure:
    """The buffer-parallel sweep is bit-identical to the oracle."""

    def test_crc32c_pinned_vectors(self):
        vectors = [b"", b"a", b"abc", b"123456789", b"\x00" * 32]
        out = list(crc32c_many(*_arena(vectors)))
        assert out == [0x00000000, 0xC1D04330, 0x364B3FB7, 0xE3069283, 0x8A9136AA]

    def test_crc32c_seeded_sweep(self):
        # 1k records in one arena, lengths 0..~70k: every record ends at a
        # different sweep position, and the long ones run far past the rest.
        buffers = _seeded_buffers(1000, 70_000, seed=1)
        out = list(crc32c_many(*_arena(buffers)))
        assert out == [crc32c(b) for b in buffers]

    def test_memoryview_input(self):
        data = random.Random(4).randbytes(10_000)
        view = memoryview(data)[17:8971]
        assert crc32c(view) == crc32c(bytes(view))
        assert list(crc32c_many(view, [0, 100], [len(view), 50])) == [
            crc32c(bytes(view)),
            crc32c(bytes(view[100:150])),
        ]


class TestStreaming:
    """Chaining over arbitrary split points == the whole-buffer digest."""

    def test_crc_stream_random_splits(self):
        rng = random.Random(10)
        for trial in range(50):
            data = rng.randbytes(rng.randrange(0, 20_000))
            digest = 0
            i = 0
            while i < len(data):
                j = min(len(data), i + rng.randrange(1, 4097))
                digest = crc32c(data[i:j], digest)
                i = j
            assert digest == crc32c(data), (trial, len(data))


class TestBatchKernels:
    """Buffer-parallel kernels digest a whole arena in one pass."""

    def test_crc32c_many_matches_per_buffer(self):
        buffers = _seeded_buffers(200, 4000, seed=20)
        out = list(crc32c_many(*_arena(buffers)))
        assert out == [crc32c(b) for b in buffers]

    def test_empty_and_ragged_records(self):
        rng = random.Random(22)
        buffers = [b"", b"x", b"", rng.randbytes(33), b"", rng.randbytes(5000), b"tiny"]
        assert list(crc32c_many(*_arena(buffers))) == [crc32c(b) for b in buffers]
        assert list(crc32c_many(b"", [0, 0], [0, 0])) == [0, 0]
        assert len(crc32c_many(b"", [], [])) == 0


class TestZeros:
    """``crc32c(a + b) == crc32c_zeros([crc32c(a)], len(b))[0] ^ crc32c(b)``."""

    def test_combine_identity_on_random_pairs(self):
        # An empty ``b`` is the n = 0 case: the digest passes unchanged.
        rng = random.Random(30)
        pairs = [(b"", b""), (b"abc", b""), (b"", b"abc")]
        pairs += [(rng.randbytes(rng.randrange(64)), rng.randbytes(rng.randrange(64)))
                  for _ in range(200)]
        for a, b in pairs:
            shifted = crc32c_zeros([crc32c(a)], len(b))
            assert int(shifted[0]) ^ crc32c(b) == crc32c(a + b), (a, b)

    def test_column_advances_each_digest(self):
        rng = random.Random(31)
        heads = [rng.randbytes(rng.randrange(1, 40)) for _ in range(50)]
        tail = rng.randbytes(23)
        column = np.array([crc32c(h) for h in heads], dtype=np.uint32)
        shifted = crc32c_zeros(column, 23)
        assert shifted.dtype == np.uint32
        assert [int(s) ^ crc32c(tail) for s in shifted] == [crc32c(h + tail) for h in heads]
        assert column.tolist() == [crc32c(h) for h in heads]  # the input is left as it was
        assert len(crc32c_zeros([], 5)) == 0
