import math
import re
import socket
import struct
from functools import partial

import pytest

from facefollow.mavlink import (CRC_EXTRA, FRAME_LEN, BadCrc, BadLength, BadMagic,
                                FileSink, FrameError, NullSink, SinkError, UdpSink,
                                VelocityTargetMessage, WrongMsgId,
                                build_velocity_message, decode_frame, encode_frame,
                                open_sink, x25_crc)

from conftest import fixture_text


def bitwise_x25(data: bytes, crc: int = 0xFFFF) -> int:
    """Independent oracle: bit-at-a-time with the reflected polynomial."""
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ 0x8408 if crc & 1 else crc >> 1
    return crc & 0xFFFF


def f32(v: float) -> float:
    return struct.unpack("<f", struct.pack("<f", v))[0]


class TestMessage:
    def test_zero_command_fields(self):
        m = build_velocity_message(0.0, 0.0, 0.0)
        assert (m.vx, m.vy, m.vz) == (0.0, 0.0, 0.0)
        assert m.coordinate_frame == 9
        assert (m.x, m.y, m.z, m.afx, m.afy, m.afz, m.yaw, m.yaw_rate) == (0,) * 8

    def test_velocities_carried_verbatim(self):
        m = build_velocity_message(0.4, -0.8, -0.5)
        assert (m.vx, m.vy, m.vz) == (0.4, -0.8, -0.5)

    def test_type_mask_never_ignores_velocity(self):
        m = build_velocity_message(1.0, 2.0, 3.0)
        assert m.type_mask & 0b111000 == 0      # velocity bits 3..5 honored
        assert m.type_mask == 0x0DC7

    def test_non_finite_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="finite"):
                build_velocity_message(bad, 0.0, 0.0)

    @pytest.mark.parametrize("field,value,top", [
        ("target_system", 256, 255), ("target_system", -1, 255),
        ("target_component", 999, 255), ("time_boot_ms", -5, 2**32 - 1),
        ("time_boot_ms", 2**32, 2**32 - 1), ("target_system", 1.5, 255),
        ("target_system", True, 255), ("target_component", 1.0, 255)])
    def test_value_outside_its_field_rejected(self, field, value, top):
        with pytest.raises(ValueError, match=re.escape(
                f"{field} must lie in 0..{top}, got {value}")):
            build_velocity_message(0.0, 0.0, 0.0, **{field: value})

    @pytest.mark.parametrize("value", [math.inf, math.nan, 1.9, 5.0, "5", True, None])
    def test_time_boot_ms_takes_ints_only(self, value):
        """No cast: a float, even a whole one, a string or a bool is refused,
        and the message names the field."""
        with pytest.raises(ValueError, match=re.escape(
                f"time_boot_ms must lie in 0..{2**32 - 1}, got {value!r}")):
            build_velocity_message(0.0, 0.0, 0.0, time_boot_ms=value)


class TestWireFormat:
    def test_frame_length_from_field_sizes(self):
        # 6 header + (u32 + 11 f32 + u16 + 3 u8) payload + 2 crc
        expected = 6 + (4 + 11 * 4 + 2 + 3) + 2
        frame = encode_frame(build_velocity_message(0.0, 0.0, 0.0))
        assert len(frame) == expected == FRAME_LEN == 61

    @pytest.mark.parametrize("field,value", [("seq", 256), ("seq", -1), ("sysid", 999),
                                             ("compid", 256), ("compid", -1), ("seq", 1.5),
                                             ("seq", True), ("sysid", 1.5)])
    def test_header_value_outside_0_255_rejected(self, field, value):
        kw = {"seq": 0, "sysid": 1, "compid": 1, field: value}
        with pytest.raises(ValueError, match=re.escape(
                f"{field} must lie in 0..255, got {value}")):
            encode_frame(build_velocity_message(0.0, 0.0, 0.0), kw.pop("seq"), **kw)

    def test_field_extremes_round_trip(self):
        m = build_velocity_message(0.0, 0.0, 0.0, target_system=255, target_component=0,
                                   time_boot_ms=2**32 - 1)
        frame = encode_frame(m, 255, sysid=0, compid=255)
        assert tuple(frame[2:5]) == (255, 0, 255)
        assert decode_frame(frame) == m

    def test_zero_message_crc_matches_bitwise_oracle(self):
        frame = encode_frame(build_velocity_message(0.0, 0.0, 0.0), seq=0,
                             sysid=0, compid=0)
        want = bitwise_x25(frame[1:-2] + bytes((CRC_EXTRA,)))
        assert frame[-2:] == struct.pack("<H", want)

    def test_byte_and_bit_crc_agree_on_random_blobs(self, rng):
        for _ in range(300):
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(70)))
            assert x25_crc(blob) == bitwise_x25(blob)

    def test_golden_frame(self):
        """Frozen reference bytes for one fully pinned message."""
        golden = bytes.fromhex(fixture_text("golden_velocity_frame.hex").strip())
        msg = build_velocity_message(0.4, -0.8, -0.5, target_system=1,
                                     target_component=1, time_boot_ms=123456)
        assert encode_frame(msg, seq=7, sysid=1, compid=1) == golden

    def test_roundtrip_identity(self, rng):
        for _ in range(200):
            msg = build_velocity_message(
                f32(rng.uniform(-20, 20)), f32(rng.uniform(-20, 20)),
                f32(rng.uniform(-20, 20)),
                target_system=rng.randrange(256),
                target_component=rng.randrange(256),
                time_boot_ms=rng.randrange(1 << 32))
            frame = encode_frame(msg, seq=rng.randrange(256),
                                 sysid=rng.randrange(256),
                                 compid=rng.randrange(256))
            assert decode_frame(frame) == msg

    def test_single_bit_flips_all_rejected(self):
        frame = bytearray(encode_frame(build_velocity_message(0.4, -0.8, -0.5),
                                       seq=3, sysid=1, compid=1))
        for byte_i in range(len(frame)):
            for bit in range(8):
                corrupt = bytearray(frame)
                corrupt[byte_i] ^= 1 << bit
                with pytest.raises(FrameError):
                    decode_frame(bytes(corrupt))

    def test_bad_magic(self):
        frame = bytearray(encode_frame(build_velocity_message(0, 0, 0)))
        frame[0] = 0xFD
        with pytest.raises(BadMagic):
            decode_frame(bytes(frame))

    def test_truncated_frame(self):
        frame = encode_frame(build_velocity_message(0, 0, 0))
        with pytest.raises(BadLength):
            decode_frame(frame[:40])

    def test_wrong_msgid(self):
        frame = bytearray(encode_frame(build_velocity_message(0, 0, 0)))
        frame[5] = 85
        with pytest.raises(WrongMsgId):
            decode_frame(bytes(frame))

    def test_bad_crc(self):
        frame = bytearray(encode_frame(build_velocity_message(0, 0, 0)))
        frame[-1] ^= 0xFF
        with pytest.raises(BadCrc):
            decode_frame(bytes(frame))


class TestSinks:
    def test_file_sink_appends_frames_with_sequences(self, tmp_path):
        path = tmp_path / "cmds.bin"
        with FileSink(str(path)) as sink:
            for _ in range(3):
                sink.send(build_velocity_message(0.1, 0.2, 0.3))
        blob = path.read_bytes()
        assert len(blob) == 3 * FRAME_LEN
        seqs = [blob[i * FRAME_LEN + 2] for i in range(3)]
        assert seqs == [0, 1, 2]
        for i in range(3):
            decode_frame(blob[i * FRAME_LEN:(i + 1) * FRAME_LEN])

    def test_sequence_wraps_at_256(self):
        sink = NullSink(initial_seq=255)
        sink.send(build_velocity_message(0, 0, 0))
        assert sink.next_seq == 0
        frame = sink.send(build_velocity_message(0, 0, 0))
        assert frame[2] == 0

    def test_sequence_strictly_increases_mod_256(self):
        sink = NullSink()
        seqs = [sink.send(build_velocity_message(0, 0, 0))[2] for _ in range(600)]
        for a, b in zip(seqs, seqs[1:]):
            assert b == (a + 1) % 256

    @pytest.mark.parametrize("field,value", [("initial_seq", 300), ("initial_seq", -1),
                                             ("sysid", 999), ("compid", 256),
                                             ("compid", -1), ("initial_seq", 1.5),
                                             ("sysid", 1.5), ("compid", True)])
    @pytest.mark.parametrize("kind", ["null", "file", "udp"])
    def test_id_outside_0_255_rejected_when_built(self, tmp_path, monkeypatch,
                                                  kind, field, value):
        """Checked before a file or socket is opened."""
        def no_socket(*a):
            raise AssertionError("socket opened")
        monkeypatch.setattr(socket, "socket", no_socket)
        path = tmp_path / "cmds.bin"
        make = {"null": NullSink, "file": partial(FileSink, str(path)),
                "udp": partial(UdpSink, "127.0.0.1", 14550)}[kind]
        with pytest.raises(ValueError, match=re.escape(
                f"{field} must lie in 0..255, got {value}")):
            make(**{field: value})
        assert not path.exists()

    def test_udp_loopback_byte_identical(self):
        rx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        rx.bind(("127.0.0.1", 0))
        rx.settimeout(5.0)
        port = rx.getsockname()[1]
        with UdpSink("127.0.0.1", port) as sink:
            sent = [sink.send(build_velocity_message(0.4, -0.8, -0.5))
                    for _ in range(3)]
        got = [rx.recv(1024) for _ in range(3)]
        rx.close()
        assert got == sent

    def test_open_sink_dispatch(self, tmp_path):
        s = open_sink(str(tmp_path / "a.bin"))
        assert isinstance(s, FileSink)
        s.close()
        s = open_sink("udp:127.0.0.1:14550")
        assert isinstance(s, UdpSink)
        s.close()
        assert isinstance(open_sink(None), NullSink)

    @pytest.mark.parametrize("port", [0, 65536, 99999])
    def test_udp_port_outside_1_to_65535_rejected_before_the_socket(self, monkeypatch, port):
        def no_socket(*a):
            raise AssertionError("socket opened")
        monkeypatch.setattr(socket, "socket", no_socket)
        message = re.escape(f"bad udp destination 127.0.0.1:{port}, want a port in 1..65535")
        with pytest.raises(SinkError, match=message):
            UdpSink("127.0.0.1", port)
        with pytest.raises(SinkError, match=message):
            open_sink(f"udp:127.0.0.1:{port}")

    @pytest.mark.parametrize("port", [14550.0, True])
    def test_udp_port_must_be_an_int(self, monkeypatch, port):
        def no_socket(*a):
            raise AssertionError("socket opened")
        monkeypatch.setattr(socket, "socket", no_socket)
        with pytest.raises(SinkError, match=re.escape(
                f"bad udp destination 127.0.0.1:{port}, want a port in 1..65535")):
            UdpSink("127.0.0.1", port)

    @pytest.mark.parametrize("port", [1, 65535])
    def test_udp_port_bounds_build(self, port):
        with UdpSink("127.0.0.1", port) as sink:
            assert sink.dest == ("127.0.0.1", port)

    def test_open_sink_bad_udp(self):
        with pytest.raises(OSError, match="udp"):
            open_sink("udp:nope")
