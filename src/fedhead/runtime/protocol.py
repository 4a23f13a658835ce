"""Message layer shared by the server and device agents.

Every message is a fixed 8-byte header followed by the body:

    u8 type | u8 device_id | u16 reserved (zero) | u32 body length | body

MODEL_DATA bodies carry a framed encoded model (wire module). A MODEL_DATA
is meaningful only in context: it either answers the receiver's PULL_MODEL
or follows the sender's PUSH_MODEL announcement. Each side writes an
announcement and its MODEL_DATA in one write, so a receiver labels a
MODEL_DATA as a push exactly when it directly follows a PUSH_MODEL and as a
pull reply otherwise. One write also wakes the receiver once per transfer,
not once per message. The server counts its unanswered pulls per
device, since a push can cross its PULL_MODEL on the way; the agent only
ever receives pushes, and counts their announcements.

Both ends talk through a `Link`: a non-blocking socket in the owner's
selector, the owner's `MessageBuffer` and a queue of bytes the socket has
not taken yet. No write blocks, so a peer that stops reading stalls no one;
once it leaves more than `MAX_QUEUED_WRITES` writes unread, `send` raises
ConnectionError and the owner drops it.
"""
from __future__ import annotations

import enum
import logging
import os
import selectors
import socket
from collections import deque
from dataclasses import dataclass
from struct import Struct

from ..errors import ProtocolError
from ..federation import ModelBlob
from .. import wire

_HEADER = Struct("<BBHI")
HEADER_SIZE = _HEADER.size  # 8

# Body size cap; a desk-scale model is a few KB, real ones a few MB.
MAX_BODY = 1 << 28

# Device ids travel in the u8 header field.
MAX_DEVICE_ID = 0xFF

# Writes a peer may leave unread before its link fails: a few model transfers.
MAX_QUEUED_WRITES = 4

# ASCII status placed in an ACK or ERROR body. Plain ACKs are empty.
STATUS_DATA_EXHAUSTED = b"DATA_EXHAUSTED"


class MessageType(enum.IntEnum):
    HELLO = 1
    PUSH_MODEL = 2
    PULL_MODEL = 3
    MODEL_DATA = 4
    ACK = 5
    ERROR = 6


@dataclass(frozen=True)
class Message:
    type: MessageType
    device_id: int
    body: bytes = b""

    def __post_init__(self) -> None:
        if not 0 <= self.device_id <= MAX_DEVICE_ID:
            raise ProtocolError(f"device_id {self.device_id} outside u8 range")
        if len(self.body) > MAX_BODY:
            raise ProtocolError(f"body of {len(self.body)} bytes exceeds cap {MAX_BODY}")


def encode_message(msg: Message) -> bytes:
    return _HEADER.pack(int(msg.type), msg.device_id, 0, len(msg.body)) + msg.body


class MessageBuffer:
    """Incremental decoder over an ordered byte stream.

    `pop` raises ProtocolError as soon as a header declares a body longer
    than `max_body`, without waiting for that body to arrive.
    """

    def __init__(self, max_body: int = MAX_BODY) -> None:
        self._buf = bytearray()
        self._max_body = max_body

    def feed(self, data: bytes) -> None:
        self._buf.extend(data)

    def pop(self) -> Message | None:
        """Return the next complete message, or None if more bytes are needed."""
        if len(self._buf) < HEADER_SIZE:
            return None
        mtype, device_id, reserved, length = _HEADER.unpack_from(self._buf)
        if reserved != 0:
            raise ProtocolError(f"reserved header field must be 0, got {reserved}")
        try:
            mtype = MessageType(mtype)
        except ValueError:
            raise ProtocolError(f"unknown message type {mtype}") from None
        if length > self._max_body:
            raise ProtocolError(f"declared body of {length} bytes exceeds cap {self._max_body}")
        if len(self._buf) < HEADER_SIZE + length:
            return None
        body = bytes(self._buf[HEADER_SIZE : HEADER_SIZE + length])
        del self._buf[: HEADER_SIZE + length]
        return Message(mtype, device_id, body)


class Link:
    """A peer connection: a non-blocking socket in its owner's selector, keyed to the Link."""

    def __init__(self, sock, sel: selectors.BaseSelector, buf: MessageBuffer) -> None:
        sock.setblocking(False)
        # Rounds are chains of small messages; Nagle + delayed ACK would add ~40 ms to each.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self.buf = buf
        self.closed = False
        self._sel = sel
        self._events = selectors.EVENT_READ
        self._queue: deque[memoryview] = deque()  # bytes the socket has not taken yet
        sel.register(sock, self._events, self)

    def send(self, data: bytes) -> None:
        """One write when nothing is queued; what the socket does not take waits in the queue."""
        if self.closed:
            raise ConnectionError("send on a closed link")
        if len(self._queue) >= MAX_QUEUED_WRITES:
            raise ConnectionError(f"peer left {len(self._queue)} writes unread")
        self._queue.append(memoryview(data))
        if len(self._queue) == 1:
            self.flush()

    def flush(self) -> None:
        """Write queued bytes until the socket would block; watch EVENT_WRITE while any remain."""
        while self._queue:
            try:
                sent = self.sock.send(self._queue[0])
            except BlockingIOError:
                break
            if sent < len(self._queue[0]):
                self._queue[0] = self._queue[0][sent:]
                break
            self._queue.popleft()
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if self._queue else 0)
        if events != self._events and not self.closed:
            self._events = events
            self._sel.modify(self.sock, events, self)

    def messages(self):
        """Read once, then yield each complete message until the link closes; the
        messages before a bad header come before its ProtocolError."""
        if self.closed:
            return
        try:
            data = self.sock.recv(65536)
        except BlockingIOError:  # readiness without data: nothing to read
            return
        if not data:
            raise ConnectionError("peer closed the connection")
        self.buf.feed(data)
        while not self.closed and (msg := self.buf.pop()) is not None:
            yield msg

    def close(self) -> None:
        """Unregister and close the socket, dropping any bytes still queued."""
        if not self.closed:
            self.closed = True
            self._queue.clear()
            self._sel.unregister(self.sock)
            self.sock.close()


def model_data_body(blob: ModelBlob) -> bytes:
    """Encode and frame a blob into a MODEL_DATA body."""
    return wire.frame_bytes(wire.encode_model(blob))


def blob_from_model_data(body: bytes) -> ModelBlob:
    """Inverse of model_data_body; raises WireError subclasses on bad bytes."""
    return wire.decode_model(wire.unframe_bytes(body))


def parse_endpoint(text: str) -> tuple[str, int]:
    """Split 'host:port' with a port in 0-65535. Host may be empty (bind-all)."""
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit() or int(port) > 0xFFFF:
        raise ValueError(f"endpoint must be host:port with a port in 0-65535, got {text!r}")
    return host or "0.0.0.0", int(port)


_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def configure_logging() -> None:
    """Apply FTL_LOG_LEVEL (error|info|debug, default info) to our loggers."""
    raw = os.environ.get("FTL_LOG_LEVEL", "info").lower()
    if raw not in _LEVELS:
        raise ValueError(f"FTL_LOG_LEVEL must be one of {sorted(_LEVELS)}, got {raw!r}")
    logging.basicConfig(format="%(asctime)s %(name)s %(levelname)s %(message)s")
    logging.getLogger("fedhead").setLevel(_LEVELS[raw])
