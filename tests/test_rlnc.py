"""Q-RLNC codec: systematic behaviour, recovery, incremental decoding."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rlnc import (
    RlncDecoder,
    RlncEncoder,
    RlncError,
    UnknownPacketError,
    frame_payload,
    unframe_payload,
)


def make_packets(n, size_lo=50, size_hi=300, seed=0):
    rng = random.Random(seed)
    return [bytes(rng.randrange(256) for _ in range(rng.randrange(size_lo, size_hi))) for _ in range(n)]


def register_all(encoder, payloads, start=0):
    for i, p in enumerate(payloads):
        encoder.register(start + i, p, timestamp=i * 0.001)


class TestFraming:
    def test_roundtrip(self):
        for payload in (b"", b"x", b"hello world", bytes(1400)):
            assert unframe_payload(frame_payload(payload)) == payload

    def test_frame_adds_two_bytes(self):
        assert len(frame_payload(b"abc")) == 5

    def test_unframe_tolerates_padding(self):
        framed = frame_payload(b"abc") + b"\x00" * 10
        assert unframe_payload(framed) == b"abc"

    def test_corrupt_length_raises(self):
        with pytest.raises(RlncError):
            unframe_payload(b"\xff\xff" + b"short")


class TestEncoder:
    def test_register_and_contains(self):
        enc = RlncEncoder()
        enc.register(5, b"abc")
        assert enc.contains(5)
        assert not enc.contains(4)
        assert len(enc._pool) == 1

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            RlncEncoder().register(-1, b"x")

    def test_release(self):
        enc = RlncEncoder()
        enc.register(1, b"a")
        enc.release(1)
        assert not enc.contains(1)
        enc.release(1)  # idempotent

    def test_release_range(self):
        enc = RlncEncoder()
        register_all(enc, make_packets(5))
        enc.release_range(1, 3)
        assert enc.contains(0) and enc.contains(4)
        assert not any(enc.contains(i) for i in (1, 2, 3))

    def test_encode_unknown_packet_raises(self):
        enc = RlncEncoder()
        enc.register(0, b"a")
        with pytest.raises(UnknownPacketError):
            enc.encode(0, 2, 7)

    def test_encode_count_one_is_framed_original(self):
        enc = RlncEncoder()
        enc.register(3, b"payload")
        assert enc.encode(3, 1, 999) == frame_payload(b"payload")

    def test_encode_count_bounds(self):
        enc = RlncEncoder()
        enc.register(0, b"a")
        with pytest.raises(ValueError):
            enc.encode(0, 0, 1)

    def test_simd_and_scalar_identical(self):
        payloads = make_packets(6, seed=3)
        simd = RlncEncoder(simd=True)
        scalar = RlncEncoder(simd=False)
        register_all(simd, payloads)
        register_all(scalar, payloads)
        for seed in (1, 2, 3):
            assert simd.encode(0, 6, seed) == scalar.encode(0, 6, seed)

    def test_coded_width_is_longest_plus_prefix(self):
        enc = RlncEncoder()
        enc.register(0, b"a" * 10)
        enc.register(1, b"b" * 99)
        assert len(enc.encode(0, 2, 5)) == 101

    def test_encode_batch(self):
        enc = RlncEncoder()
        register_all(enc, make_packets(4, seed=9))
        batch = enc.encode_batch(0, 4, [1, 2, 3])
        assert len(batch) == 3
        assert batch[0] == enc.encode(0, 4, 1)


class TestDecodeRoundtrip:
    def _roundtrip(self, payloads, lost_ids, extra=3, seed=0):
        """Send originals except lost_ids, then recover via coded packets."""
        enc = RlncEncoder()
        register_all(enc, payloads)
        dec = RlncDecoder()
        delivered = {}
        for i, p in enumerate(payloads):
            if i in lost_ids:
                continue
            for pid, data in dec.push(i, 1, 0, enc.encode(i, 1, 0)):
                delivered[pid] = data
        # recovery over the full contiguous range
        n = len(payloads)
        rng = random.Random(seed)
        for _ in range(len(lost_ids) + extra):
            s = rng.randrange(1, 2 ** 32)
            for pid, data in dec.push(0, n, s, enc.encode(0, n, s)):
                delivered[pid] = data
        return delivered

    def test_recover_single_gap(self):
        payloads = make_packets(8, seed=1)
        delivered = self._roundtrip(payloads, {3})
        assert delivered == {i: p for i, p in enumerate(payloads)}

    def test_recover_burst(self):
        payloads = make_packets(12, seed=2)
        delivered = self._roundtrip(payloads, set(range(4, 10)))
        assert delivered == {i: p for i, p in enumerate(payloads)}

    def test_recover_everything_lost(self):
        payloads = make_packets(10, seed=3)
        delivered = self._roundtrip(payloads, set(range(10)))
        assert delivered == {i: p for i, p in enumerate(payloads)}

    def test_coded_only_decoding(self):
        """No originals at all: pure rateless decode of the whole range."""
        payloads = make_packets(6, seed=4)
        enc = RlncEncoder()
        register_all(enc, payloads)
        dec = RlncDecoder()
        delivered = {}
        for s in range(1, 10):
            for pid, data in dec.push(0, 6, s, enc.encode(0, 6, s)):
                delivered[pid] = data
            if len(delivered) == 6:
                break
        assert delivered == {i: p for i, p in enumerate(payloads)}

    def test_duplicate_originals_suppressed(self):
        enc = RlncEncoder()
        enc.register(0, b"abc")
        dec = RlncDecoder()
        out1 = dec.push(0, 1, 0, enc.encode(0, 1, 0))
        out2 = dec.push(0, 1, 0, enc.encode(0, 1, 0))
        assert len(out1) == 1 and out2 == []
        assert dec.stats.duplicates == 1

    def test_dependent_equation_discarded(self):
        payloads = make_packets(4, seed=5)
        enc = RlncEncoder()
        register_all(enc, payloads)
        dec = RlncDecoder()
        dec.push(0, 4, 11, enc.encode(0, 4, 11))
        before = dec._ranges[(0, 4)].rank
        dec.push(0, 4, 11, enc.encode(0, 4, 11))  # same seed = same equation
        assert dec._ranges[(0, 4)].rank == before
        assert dec.stats.dependent_discarded >= 1

    def test_late_original_cross_feeds_open_range(self):
        payloads = make_packets(5, seed=6)
        enc = RlncEncoder()
        register_all(enc, payloads)
        dec = RlncDecoder()
        # four coded equations: rank 4 of 5
        for s in (1, 2, 3, 4):
            dec.push(0, 5, s, enc.encode(0, 5, s))
        assert dec._ranges[(0, 5)].rank == 4
        # a reordered original arrives and completes the range
        out = dec.push(2, 1, 0, enc.encode(2, 1, 0))
        got = dict(out)
        assert set(got) == {0, 1, 2, 3, 4}
        assert got[4] == payloads[4]

    def test_originals_before_coded_seed_new_range(self):
        """Pluribus pattern: block originals first, repairs afterwards."""
        payloads = make_packets(8, seed=7)
        enc = RlncEncoder()
        register_all(enc, payloads)
        dec = RlncDecoder()
        delivered = {}
        for i in range(8):
            if i == 5:
                continue  # one loss
            for pid, data in dec.push(i, 1, 0, enc.encode(i, 1, 0)):
                delivered[pid] = data
        # a single repair over the whole block must now suffice
        out = dec.push(0, 8, 42, enc.encode(0, 8, 42))
        delivered.update(dict(out))
        assert delivered[5] == payloads[5]
        assert len(delivered) == 8

    def test_expire_range_drops_state(self):
        payloads = make_packets(4, seed=8)
        enc = RlncEncoder()
        register_all(enc, payloads)
        dec = RlncDecoder()
        dec.push(0, 4, 9, enc.encode(0, 4, 9))
        assert list(dec._ranges) == [(0, 4)]
        dec.expire_range(0, 4)
        assert not dec._ranges

    def test_on_packet_callback(self):
        seen = []
        enc = RlncEncoder()
        enc.register(0, b"x")
        dec = RlncDecoder(on_packet=lambda pid, data: seen.append((pid, data)))
        dec.push(0, 1, 0, enc.encode(0, 1, 0))
        assert seen == [(0, b"x")]

    def test_stats_counters(self):
        payloads = make_packets(3, seed=9)
        enc = RlncEncoder()
        register_all(enc, payloads)
        dec = RlncDecoder()
        for s in (1, 2, 3, 4, 5, 6):
            dec.push(0, 3, s, enc.encode(0, 3, s))
            if dec.stats.ranges_completed:
                break
        assert dec.stats.ranges_opened == 1
        assert dec.stats.ranges_completed == 1
        assert dec.stats.packets_recovered == 3

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=12),
        lost_seed=st.integers(min_value=0, max_value=1000),
        data_seed=st.integers(min_value=0, max_value=1000),
    )
    def test_roundtrip_property(self, n, lost_seed, data_seed):
        payloads = make_packets(n, seed=data_seed)
        rng = random.Random(lost_seed)
        lost = {i for i in range(n) if rng.random() < 0.5}
        delivered = self._roundtrip(payloads, lost, extra=4, seed=lost_seed + 1)
        assert delivered == {i: p for i, p in enumerate(payloads)}


class TestDecoderValidation:
    def test_count_out_of_range(self):
        dec = RlncDecoder()
        with pytest.raises(ValueError):
            dec.push(0, 0, 0, b"xx")

    def test_recent_retention_bounded(self):
        dec = RlncDecoder()
        enc = RlncEncoder()
        for i in range(dec.RECENT_RETENTION + 100):
            enc.register(i, b"a")
            dec.push(i, 1, 0, enc.encode(i, 1, 0))
            enc.release(i)
        assert len(dec._recent) <= dec.RECENT_RETENTION
