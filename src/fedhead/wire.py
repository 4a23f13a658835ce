"""Byte-exact model serialization and the 4-byte-payload framing layer.

Encoded model layout (all integers little-endian):

    offset  size  field
    0       4     magic "FTL1"
    4       4     u32 embedding_dim
    8       4     u32 num_classes
    12      4     u32 CRC32 (IEEE) of the payload
    16      4*(C*E + C)  payload: float32 values in canonical blob order

Training keeps float64; encoding rounds each value to the nearest float32
once. Encoded size is a pure function of shape: 16 + 4*(C*E + C) bytes.

Frames model a serial link that moves 32 bits at a time. Every frame except
possibly the last carries exactly 4 payload bytes; sequence numbers are
dense from 0; bit 0 of the flags byte marks the final frame. On-the-wire
frame layout: u16 seq | u8 flags | u8 len | len payload bytes.

`Frame` and its stream functions are the byte-layout reference. The runtime
frames a whole message at once with `frame_bytes`/`unframe_bytes`, which
produce and accept the same bytes and raise the same errors. Whole 4-byte
frames, as an encoded model (16 + 4k bytes) has, are (n, 2) little-endian u32
words: the header seq | flags << 16 | len << 24, then the payload.
"""
from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import (
    CorruptionError,
    FrameSequenceError,
    IncompleteStreamError,
    ProtocolError,
    TruncationError,
)
from .nn import ModelBlob

MODEL_MAGIC = b"FTL1"
_MODEL_HEADER = struct.Struct("<4sIII")
MODEL_HEADER_SIZE = _MODEL_HEADER.size  # 16

FRAME_PAYLOAD = 4
FLAG_LAST = 0x01
_FRAME_HEADER = struct.Struct("<HBB")  # seq, flags, len
FRAME_HEADER_SIZE = _FRAME_HEADER.size  # 4
MAX_FRAMES = 1 << 16  # seq is u16

_U32_MAX = (1 << 32) - 1


def encoded_size(embedding_dim: int, num_classes: int) -> int:
    """Total encoded byte count for a given head shape."""
    return MODEL_HEADER_SIZE + 4 * (num_classes * embedding_dim + num_classes)


def encode_model(blob: ModelBlob) -> bytes:
    """Serialize a blob; float64 values round to nearest float32."""
    if blob.embedding_dim > _U32_MAX or blob.num_classes > _U32_MAX:
        raise ProtocolError("embedding_dim and num_classes must fit in 32 bits")
    payload = blob.values.astype("<f4").tobytes()
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return _MODEL_HEADER.pack(MODEL_MAGIC, blob.embedding_dim, blob.num_classes, crc) + payload


def decode_model(data: bytes) -> ModelBlob:
    """Parse and validate encoded bytes. Never fabricates a model: bad magic,
    wrong length, and CRC mismatch each raise their own error type."""
    if len(data) < MODEL_HEADER_SIZE:
        raise TruncationError(
            f"encoded model needs at least {MODEL_HEADER_SIZE} bytes, got {len(data)}"
        )
    magic, dim, classes, crc = _MODEL_HEADER.unpack_from(data, 0)
    if magic != MODEL_MAGIC:
        raise ProtocolError(f"bad magic {magic!r}, expected {MODEL_MAGIC!r}")
    if dim < 1 or classes < 1:
        raise ProtocolError(f"header declares invalid shape E={dim} C={classes}")
    expected = encoded_size(dim, classes)
    if len(data) != expected:
        raise TruncationError(
            f"header for E={dim} C={classes} implies {expected} bytes, got {len(data)}"
        )
    payload = data[MODEL_HEADER_SIZE:]
    actual_crc = zlib.crc32(payload) & 0xFFFFFFFF
    if actual_crc != crc:
        raise CorruptionError(
            f"payload CRC32 {actual_crc:08x} does not match header {crc:08x}"
        )
    values = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    if not np.isfinite(values).all():
        raise ProtocolError("payload contains non-finite parameter values")
    return ModelBlob(values=values, embedding_dim=dim, num_classes=classes)


@dataclass(frozen=True)
class Frame:
    """One 32-bit-payload packet of a framed byte stream."""

    seq: int
    flags: int
    payload: bytes

    def __post_init__(self) -> None:
        if not 0 <= self.seq < MAX_FRAMES:
            raise ProtocolError(f"frame seq {self.seq} out of u16 range")
        if self.flags & ~FLAG_LAST:
            raise ProtocolError(f"frame flags {self.flags:#04x} set reserved bits")
        if len(self.payload) > FRAME_PAYLOAD:
            raise ProtocolError(f"frame payload of {len(self.payload)} bytes exceeds 4")

    @property
    def last(self) -> bool:
        return bool(self.flags & FLAG_LAST)

    def to_bytes(self) -> bytes:
        return _FRAME_HEADER.pack(self.seq, self.flags, len(self.payload)) + self.payload


def _frames_for(nbytes: int) -> int:
    # ceil(nbytes / 4), and one frame for empty input.
    return max(1, -(-nbytes // FRAME_PAYLOAD))


def frame_count(nbytes: int) -> int:
    """Frames that carry an nbytes-long message; ProtocolError if u16
    sequence numbers cannot number them all."""
    count = _frames_for(nbytes)
    if count > MAX_FRAMES:
        raise ProtocolError(
            f"{nbytes} bytes need {count} frames; u16 sequence numbers allow {MAX_FRAMES}"
        )
    return count


def frame_stream(data: bytes) -> list[Frame]:
    """Chop bytes into ceil(len/4) frames. Empty input still produces one
    (empty, last-flagged) frame so the receiver sees an explicit end."""
    count = frame_count(len(data))
    frames = []
    for seq in range(count):
        chunk = data[seq * FRAME_PAYLOAD : (seq + 1) * FRAME_PAYLOAD]
        flags = FLAG_LAST if seq == count - 1 else 0
        frames.append(Frame(seq=seq, flags=flags, payload=chunk))
    return frames


def unframe_stream(frames) -> bytes:
    """Reassemble frames into the original bytes, validating sequencing."""
    frames = list(frames)
    if not frames:
        raise IncompleteStreamError("no frames; stream never ended with a last-frame")
    parts = []
    for i, frame in enumerate(frames):
        if frame.seq != i:
            raise FrameSequenceError(f"expected seq {i}, got {frame.seq}")
        if frame.last and i != len(frames) - 1:
            raise FrameSequenceError(f"last-frame flag at seq {i} with frames following")
        if not frame.last and len(frame.payload) != FRAME_PAYLOAD:
            raise ProtocolError(
                f"non-final frame {i} carries {len(frame.payload)} payload bytes, not 4"
            )
        parts.append(frame.payload)
    if not frames[-1].last:
        raise IncompleteStreamError("stream ended without a last-frame marker")
    return b"".join(parts)


def frames_to_bytes(frames) -> bytes:
    """Concatenated on-the-wire form of a frame sequence."""
    return b"".join(f.to_bytes() for f in frames)


def frames_from_bytes(data: bytes) -> list[Frame]:
    """Parse back-to-back serialized frames; partial trailing data is an error."""
    frames = []
    offset = 0
    while offset < len(data):
        if len(data) - offset < FRAME_HEADER_SIZE:
            raise TruncationError(f"partial frame header at offset {offset}")
        seq, flags, length = _FRAME_HEADER.unpack_from(data, offset)
        if length > FRAME_PAYLOAD:
            raise ProtocolError(f"frame at offset {offset} declares {length} payload bytes")
        offset += FRAME_HEADER_SIZE
        if len(data) - offset < length:
            raise TruncationError(f"partial frame payload at offset {offset}")
        frames.append(Frame(seq=seq, flags=flags, payload=data[offset : offset + length]))
        offset += length
    return frames


def framed_size(nbytes: int) -> int:
    """Bytes on the wire after framing an nbytes-long message."""
    return _frames_for(nbytes) * FRAME_HEADER_SIZE + nbytes


def _full_frame_headers(count: int) -> np.ndarray:
    """Header words of count full frames: seq | flags << 16 | len << 24."""
    headers = np.arange(count, dtype="<u4") | FRAME_PAYLOAD << 24
    headers[-1] |= FLAG_LAST << 16
    return headers


def frame_bytes(data: bytes) -> bytes:
    """The wire form of frame_stream(data): whole 4-byte frames as u32 word
    pairs, any other length through the Frame reference."""
    count = frame_count(len(data))
    if not data or len(data) % FRAME_PAYLOAD:
        return frames_to_bytes(frame_stream(data))
    frames = np.empty((count, 2), dtype="<u4")
    frames[:, 0] = _full_frame_headers(count)
    frames[:, 1] = np.frombuffer(data, dtype="<u4")
    return frames.tobytes()


def unframe_bytes(body: bytes) -> bytes:
    """unframe_stream(frames_from_bytes(body)), checked as u32 word pairs.

    A body of full frames with exactly frame_bytes's header words is unpacked
    here. Anything else, a short last frame included, goes through the Frame
    reference, which returns its bytes or raises its error."""
    count, rest = divmod(len(body), FRAME_HEADER_SIZE + FRAME_PAYLOAD)
    if not rest and 0 < count <= MAX_FRAMES:
        frames = np.frombuffer(body, dtype="<u4").reshape(count, 2)
        if np.array_equal(frames[:, 0], _full_frame_headers(count)):
            return frames[:, 1].tobytes()
    return unframe_stream(frames_from_bytes(body))
