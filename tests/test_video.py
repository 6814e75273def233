"""Video workload: source model, receiver reassembly, QoE analysis."""

import pytest

from repro.emulation.events import EventLoop
from repro.video.qoe import (
    DECODE_MIN_FRACTION,
    QoeReport,
    SSIM_FULL,
    STALL_THRESHOLD,
    analyze_qoe,
    _frame_status,
)
from repro.video.receiver import FrameRecord, VideoReceiver
from repro.video.source import (
    PACKET_HEADER,
    VideoConfig,
    VideoPacketError,
    VideoSource,
    build_packet,
    parse_header,
)


class TestVideoConfig:
    def test_mean_frame_bytes(self):
        cfg = VideoConfig(bitrate_mbps=30.0, fps=30.0)
        assert cfg.mean_frame_bytes == pytest.approx(125_000)

    def test_validation(self):
        with pytest.raises(ValueError):
            VideoConfig(bitrate_mbps=0)
        with pytest.raises(ValueError):
            VideoConfig(gop=0)
        with pytest.raises(ValueError):
            VideoConfig(size_jitter=1.0)


class TestPacketFormat:
    def test_roundtrip(self):
        raw = build_packet(7, 3, 10, True, 1.25, 200)
        frame_id, seq, count, keyframe, capture_ts = parse_header(raw)
        assert (frame_id, seq, count) == (7, 3, 10)
        assert keyframe
        assert capture_ts == pytest.approx(1.25)
        assert len(raw) == 200

    def test_bad_magic(self):
        raw = bytearray(build_packet(1, 0, 1, False, 0.0, 50))
        raw[0] ^= 0xFF
        with pytest.raises(VideoPacketError):
            parse_header(bytes(raw))

    def test_short_packet(self):
        with pytest.raises(VideoPacketError):
            parse_header(b"xx")

    def test_size_below_header_rejected(self):
        with pytest.raises(ValueError):
            build_packet(0, 0, 1, False, 0.0, 4)


class TestVideoSource:
    def _run(self, cfg, seconds):
        loop = EventLoop()
        sent = []
        # the sink gets one burst per frame; the tests read it per packet
        src = VideoSource(loop, lambda burst, fid: sent.extend((p, fid) for p in burst), cfg)
        src.start()
        loop.run_until(seconds)
        src.stop()
        return loop, src, sent

    def test_frame_rate(self):
        cfg = VideoConfig(bitrate_mbps=5.0, fps=30.0, seed=1)
        _loop, src, _sent = self._run(cfg, 2.0)
        assert src.frames_emitted == pytest.approx(60, abs=2)

    def test_bitrate_close_to_target(self):
        cfg = VideoConfig(bitrate_mbps=10.0, fps=30.0, seed=2)
        _loop, src, _sent = self._run(cfg, 5.0)
        mbps = src.bytes_emitted * 8 / 5.0 / 1e6
        assert mbps == pytest.approx(10.0, rel=0.15)

    def test_keyframes_every_gop(self):
        cfg = VideoConfig(bitrate_mbps=5.0, fps=30.0, gop=10, seed=3)
        _loop, _src, sent = self._run(cfg, 2.0)
        keyframes = {parse_header(p)[0] for p, _f in sent if parse_header(p)[3]}
        assert keyframes == {0, 10, 20, 30, 40, 50}

    def test_keyframes_larger(self):
        cfg = VideoConfig(bitrate_mbps=10.0, fps=30.0, gop=30, keyframe_scale=3.0, size_jitter=0.0, seed=4)
        _loop, _src, sent = self._run(cfg, 2.0)
        sizes = {}
        for p, _f in sent:
            frame_id, _seq, _count, keyframe, _ts = parse_header(p)
            sizes.setdefault(frame_id, [0, keyframe])
            sizes[frame_id][0] += len(p)
        key = [s for s, k in sizes.values() if k]
        pfr = [s for s, k in sizes.values() if not k]
        assert min(key) > max(pfr)

    def test_packet_sequence_complete(self):
        cfg = VideoConfig(bitrate_mbps=8.0, fps=30.0, seed=5)
        _loop, _src, sent = self._run(cfg, 1.0)
        by_frame = {}
        for p, _f in sent:
            frame_id, seq, count, _key, _ts = parse_header(p)
            by_frame.setdefault(frame_id, []).append((seq, count))
        for frame_id, pkts in by_frame.items():
            count = pkts[0][1]
            assert sorted(seq for seq, _count in pkts) == list(range(count))


class TestVideoReceiver:
    def test_frame_completion(self):
        rx = VideoReceiver()
        for seq in range(3):
            rx.on_app_packet(seq, build_packet(0, seq, 3, False, 0.0, 100), now=0.1 + seq * 0.01)
        rec = rx.frames[0]
        assert rec.complete
        assert rec.complete_time == pytest.approx(0.12)
        assert rec.received_fraction == 1.0

    def test_duplicates_ignored(self):
        rx = VideoReceiver()
        pkt = build_packet(0, 0, 2, False, 0.0, 100)
        rx.on_app_packet(0, pkt, 0.1)
        rx.on_app_packet(0, pkt, 0.2)
        assert rx.duplicate_packets == 1
        assert not rx.frames[0].complete

    def test_packet_delays_recorded(self):
        rx = VideoReceiver()
        rx.on_app_packet(0, build_packet(0, 0, 1, False, 1.0, 100), now=1.05)
        assert rx.packet_delays == [pytest.approx(0.05)]

    def test_parse_errors_counted(self):
        rx = VideoReceiver()
        rx.on_app_packet(0, b"garbage-not-video", 0.0)
        assert rx.parse_errors == 1

    def test_frame_records_fills_missing(self):
        rx = VideoReceiver()
        rx.on_app_packet(0, build_packet(2, 0, 1, False, 0.0, 100), 0.1)
        records = rx.frame_records(total_frames=4)
        assert len(records) == 4
        assert records[2].complete
        assert records[0].expected_packets == 0  # never seen


def frame(fid, complete_at=None, expected=10, received=None, key=False, capture=None):
    rec = FrameRecord(
        frame_id=fid,
        capture_ts=capture if capture is not None else fid / 30.0,
        keyframe=key,
        expected_packets=expected,
    )
    rec.received_packets = received if received is not None else (expected if complete_at else 0)
    rec.complete_time = complete_at
    if rec.received_packets and complete_at is None:
        rec.first_packet_time = rec.capture_ts + 0.05
    return rec


class TestFrameStatus:
    def test_normal(self):
        assert _frame_status(frame(0, complete_at=0.1)) == "normal"

    def test_corrupt_above_threshold(self):
        f = frame(0, expected=10, received=8)
        assert _frame_status(f) == "corrupt"

    def test_missing_below_threshold(self):
        f = frame(0, expected=10, received=3)
        assert _frame_status(f) == "missing"

    def test_never_seen_is_missing(self):
        assert _frame_status(frame(0, expected=0)) == "missing"


class TestAnalyzeQoe:
    def test_perfect_stream(self):
        frames = [frame(i, complete_at=i / 30.0 + 0.05) for i in range(90)]
        report = analyze_qoe(frames, fps=30.0, duration=3.0)
        assert report.avg_fps == pytest.approx(30.0)
        assert report.stall_ratio == 0.0
        assert report.ssim == pytest.approx(SSIM_FULL)
        assert report.missing_frames == 0

    def test_empty(self):
        report = analyze_qoe([], fps=30.0)
        assert report.avg_fps == 0.0

    def test_gap_counts_as_stall(self):
        # frames 0..29 on time, 30..59 missing, 60..89 on time but late
        frames = []
        for i in range(30):
            frames.append(frame(i, complete_at=i / 30.0 + 0.05))
        for i in range(30, 60):
            frames.append(frame(i, expected=10, received=0))
        for i in range(60, 90):
            frames.append(frame(i, complete_at=i / 30.0 + 0.05))
        report = analyze_qoe(frames, fps=30.0, duration=3.0)
        # a ~1 s hole minus the 200 ms threshold
        assert report.stall_time == pytest.approx(0.8, abs=0.1)
        assert report.stall_events >= 1
        assert report.missing_frames == 30

    def test_all_missing_is_total_stall(self):
        frames = [frame(i, expected=10, received=0) for i in range(30)]
        report = analyze_qoe(frames, fps=30.0, duration=1.0)
        assert report.stall_ratio == 1.0
        assert report.avg_fps == 0.0

    def test_corrupt_frames_lower_ssim(self):
        clean = [frame(i, complete_at=i / 30.0 + 0.05) for i in range(60)]
        dirty = [frame(i, complete_at=i / 30.0 + 0.05) for i in range(30)] + [
            frame(i, expected=10, received=7) for i in range(30, 60)
        ]
        assert analyze_qoe(dirty, 30.0, 2.0).ssim < analyze_qoe(clean, 30.0, 2.0).ssim

    def test_keyframe_resets_propagation(self):
        # corruption, then a complete keyframe restores quality
        frames = [frame(0, expected=10, received=7)]
        frames += [frame(1, complete_at=0.1, key=True)]
        frames += [frame(i, complete_at=i / 30.0 + 0.05) for i in range(2, 30)]
        report = analyze_qoe(frames, 30.0, 1.0)
        # only the first frame is degraded
        assert report.ssim > 0.9

    def test_corruption_propagates_until_keyframe(self):
        frames = [frame(0, expected=10, received=7)]
        frames += [frame(i, complete_at=i / 30.0 + 0.05) for i in range(1, 30)]  # no keyframes
        report = analyze_qoe(frames, 30.0, 1.0)
        # everything after the corrupt frame carries the propagation penalty
        assert report.ssim < SSIM_FULL * 0.9

    def test_late_frames_stall_but_still_count_fps(self):
        frames = [frame(i, complete_at=i / 30.0 + 2.0) for i in range(30)]
        report = analyze_qoe(frames, 30.0, 1.0)
        assert report.avg_fps == pytest.approx(30.0)
        assert report.stall_time > 1.0  # the 2 s startup hole
