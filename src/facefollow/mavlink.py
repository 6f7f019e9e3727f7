"""MAVLink v1 velocity command frames (SET_POSITION_TARGET_LOCAL_NED).

One-way producer plus its own decoder for tests.  Payload fields are
serialized little-endian in the v1 size-sorted order; the checksum is the
X25 CRC over everything after the start byte, extended with the
per-message CRC_EXTRA constant.
"""

from __future__ import annotations

import socket
import struct
from dataclasses import dataclass

from ._rules import _check, _is_int, _within

MAGIC_V1 = 0xFE
MSG_ID = 84                      # SET_POSITION_TARGET_LOCAL_NED
CRC_EXTRA = 143                  # message-specific CRC seed byte
FRAME_BODY_OFFSET_NED = 9        # MAV_FRAME_BODY_OFFSET_NED
PAYLOAD_LEN = 53
FRAME_LEN = 6 + PAYLOAD_LEN + 2

# ignore position (0..2), acceleration (6..8), yaw (10) and yaw rate (11);
# the velocity bits (3..5) stay clear so vx/vy/vz are honored
TYPE_MASK_VELOCITY_ONLY = 0x0DC7

# v1 size-sorted field order: twelve 4-byte fields, one u16, three u8; frames
# are packed and unpacked by these names
_PAYLOAD_FMT = struct.Struct("<I11fHBBB")
_PAYLOAD_FIELDS = ("time_boot_ms", "x", "y", "z", "vx", "vy", "vz", "afx", "afy", "afz",
                   "yaw", "yaw_rate", "type_mask", "target_system", "target_component",
                   "coordinate_frame")


class FrameError(ValueError):
    pass


class BadMagic(FrameError):
    pass


class BadLength(FrameError):
    pass


class BadCrc(FrameError):
    pass


class WrongMsgId(FrameError):
    pass


class SinkError(OSError):
    pass


def x25_crc(data: bytes, crc: int = 0xFFFF) -> int:
    """Accumulate the X25 checksum (CRC-16/MCRF4XX) over ``data``."""
    for byte in data:
        tmp = (byte ^ crc) & 0xFF
        tmp = (tmp ^ (tmp << 4)) & 0xFF
        crc = ((crc >> 8) ^ (tmp << 8) ^ (tmp << 3) ^ (tmp >> 4)) & 0xFFFF
    return crc


@dataclass(frozen=True)
class VelocityTargetMessage:
    """Velocity-only position target in the body-offset NED frame."""

    time_boot_ms: int
    target_system: int
    target_component: int
    vx: float
    vy: float
    vz: float
    coordinate_frame: int = FRAME_BODY_OFFSET_NED
    type_mask: int = TYPE_MASK_VELOCITY_ONLY
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0
    afx: float = 0.0
    afy: float = 0.0
    afz: float = 0.0
    yaw: float = 0.0
    yaw_rate: float = 0.0


def build_velocity_message(vx: float, vy: float, vz: float, *,
                           target_system: int = 1, target_component: int = 1,
                           time_boot_ms: int = 0) -> VelocityTargetMessage:
    """Populate a velocity-only message; every ignored field stays zero.
    A value that does not fit its frame field raises ValueError."""
    _check("finite", {"vx": vx, "vy": vy, "vz": vz})
    return VelocityTargetMessage(
        time_boot_ms=_within("time_boot_ms", time_boot_ms, 0, 0xFFFFFFFF),
        target_system=_within("target_system", target_system, 0, 0xFF),
        target_component=_within("target_component", target_component, 0, 0xFF),
        vx=vx, vy=vy, vz=vz)


def _checksum(body: bytes) -> int:
    """The X25 CRC of ``body``, the frame after its start byte, extended with
    CRC_EXTRA."""
    return x25_crc(bytes((CRC_EXTRA,)), x25_crc(body))


def encode_frame(m: VelocityTargetMessage, seq: int = 0, *,
                 sysid: int = 255, compid: int = 0) -> bytes:
    """61-octet v1 frame: 6-byte header, 53-byte payload, 2-byte checksum.
    A ``seq``, ``sysid`` or ``compid`` outside 0..255 raises ValueError."""
    body = bytes((PAYLOAD_LEN, _within("seq", seq, 0, 0xFF), _within("sysid", sysid, 0, 0xFF),
                  _within("compid", compid, 0, 0xFF), MSG_ID))
    body += _PAYLOAD_FMT.pack(*(getattr(m, name) for name in _PAYLOAD_FIELDS))
    return bytes((MAGIC_V1,)) + body + struct.pack("<H", _checksum(body))


def decode_frame(data: bytes) -> VelocityTargetMessage:
    """Inverse of encode_frame; rejects malformed frames with typed errors."""
    if len(data) < 1 or data[0] != MAGIC_V1:
        raise BadMagic(f"expected start byte 0x{MAGIC_V1:02X}")
    if len(data) != FRAME_LEN or data[1] != PAYLOAD_LEN:
        raise BadLength(
            f"expected {FRAME_LEN}-octet frame with payload {PAYLOAD_LEN}, "
            f"got {len(data)} octets / payload {data[1] if len(data) > 1 else '?'}")
    if data[5] != MSG_ID:
        raise WrongMsgId(f"expected message id {MSG_ID}, got {data[5]}")
    crc = _checksum(data[1:-2])
    (got,) = struct.unpack("<H", data[-2:])
    if got != crc:
        raise BadCrc(f"checksum 0x{got:04X} != computed 0x{crc:04X}")
    return VelocityTargetMessage(**dict(zip(_PAYLOAD_FIELDS,
                                            _PAYLOAD_FMT.unpack(data[6:-2]))))


class CommandSink:
    """Orders frames onto a destination with a wrapping u8 sequence counter."""

    def __init__(self, initial_seq: int = 0, sysid: int = 255, compid: int = 0):
        """A value outside 0..255 raises ValueError, before a subclass opens
        its destination."""
        self._seq = _within("initial_seq", initial_seq, 0, 0xFF)
        self._sysid = _within("sysid", sysid, 0, 0xFF)
        self._compid = _within("compid", compid, 0, 0xFF)

    @property
    def next_seq(self) -> int:
        return self._seq

    def send(self, m: VelocityTargetMessage) -> bytes:
        frame = encode_frame(m, self._seq, sysid=self._sysid, compid=self._compid)
        self._write(frame)
        self._seq = (self._seq + 1) & 0xFF
        return frame

    def _write(self, frame: bytes):
        raise NotImplementedError

    def close(self):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class FileSink(CommandSink):
    """Appends raw concatenated frames to a file."""

    def __init__(self, path: str, **kw):
        super().__init__(**kw)
        self.path = path
        try:
            self._fh = open(path, "ab")
        except OSError as e:
            raise SinkError(f"cannot open sink file {path}: {e}") from e

    def _write(self, frame: bytes):
        try:
            self._fh.write(frame)
            self._fh.flush()
        except OSError as e:
            raise SinkError(f"write to {self.path} failed: {e}") from e

    def close(self):
        self._fh.close()


class UdpSink(CommandSink):
    """Sends each frame as one UDP datagram."""

    def __init__(self, host: str, port: int, **kw):
        """A port that is not an int in 1..65535 raises SinkError, before the
        socket opens."""
        super().__init__(**kw)
        if not (_is_int(port, 1) and port <= 0xFFFF):
            raise SinkError(f"bad udp destination {host}:{port}, want a port in 1..65535")
        self.dest = (host, port)
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)

    def _write(self, frame: bytes):
        try:
            self._sock.sendto(frame, self.dest)
        except OSError as e:
            raise SinkError(f"udp send to {self.dest[0]}:{self.dest[1]} failed: {e}") from e

    def close(self):
        self._sock.close()


class NullSink(CommandSink):
    """Counts sequence numbers, discards frames; handy for dry runs."""

    def _write(self, frame: bytes):
        pass


def open_sink(dest: str | None, **kw) -> CommandSink:
    """'udp:host:port' for a datagram sink, a path for a file sink, None discards."""
    if dest is None:
        return NullSink(**kw)
    if dest.startswith("udp:"):
        rest = dest[4:]
        host, sep, port = rest.rpartition(":")
        if not sep or not host or not port.isdigit():
            raise SinkError(f"bad udp destination {dest!r}, want udp:host:port")
        return UdpSink(host, int(port), **kw)
    return FileSink(dest, **kw)
