"""Global-model server: registers device agents, runs aggregation rounds.

Single-threaded selector loop. A round is triggered by policy (every K
device pushes, or a timer), then proceeds: take each live registered
device's contribution, average the contributions in device-id order,
install the mean as the new global, and push it back to everyone. Only
then is the new global scored on the validation set and the round logged,
so the server scores while the devices train on it.

A device's contribution is its latest validated push made after it ACKed
the current global, so a sync agent uploads its model once per round. Live
devices without such a push (timer rounds, free-run agents that have not
pushed, pushes made before the ACK) get a PULL_MODEL and contribute their
MODEL_DATA reply.

Devices that miss the collection deadline are marked stale and excluded
until they next speak; a device whose MODEL_DATA fails wire validation gets
an ERROR reply and drops out of that round only. A declared message body
longer than the session's framed model is a protocol error that drops the
connection. No write blocks the loop: a peer that leaves more than
`MAX_QUEUED_WRITES` writes unread is dropped.
"""
from __future__ import annotations

import logging
import math
import selectors
import socket
import time
import zlib
from dataclasses import dataclass, field

from ..errors import ProtocolError, ShapeError, WireError
from ..federation import ModelBlob, average_blobs, evaluate, stack_validation
from ..nn import StackedSamples
from ..wire import encode_model, frame_bytes
from .protocol import (
    Link,
    Message,
    MessageBuffer,
    MessageType,
    STATUS_DATA_EXHAUSTED,
    encode_message,
    blob_from_model_data,
    model_data_body,  # noqa: F401 - unused; perfbench's server plan patches the name here
)

log = logging.getLogger("fedhead.runtime.server")


@dataclass(frozen=True)
class RoundPolicy:
    """count: aggregate after every `value` device pushes; timer: every `value` s."""

    kind: str
    value: float

    def __post_init__(self) -> None:
        if self.kind not in ("count", "timer"):
            raise ValueError(f"policy kind must be count or timer, got {self.kind!r}")
        if not math.isfinite(self.value):  # no round would ever trigger
            raise ValueError(f"policy value must be finite, got {self.value}")
        if self.kind == "count" and (self.value != int(self.value) or self.value < 1):
            raise ValueError(f"count policy needs a positive integer, got {self.value}")
        if self.kind == "timer" and self.value <= 0:
            raise ValueError(f"timer policy needs a positive interval, got {self.value}")

    @classmethod
    def parse(cls, text: str) -> "RoundPolicy":
        kind, sep, value = text.partition(":")
        if not sep:
            raise ValueError(f"policy must be count:K or timer:SECONDS, got {text!r}")
        return cls(kind, float(value))


def check_round_limits(round_timeout: float, max_rounds: int | None) -> None:
    """Raise ValueError for a collection deadline or round limit that cannot work."""
    if not (math.isfinite(round_timeout) and round_timeout > 0):
        raise ValueError(f"round timeout must be finite and > 0, got {round_timeout}")
    if max_rounds is not None and max_rounds < 1:
        raise ValueError(f"max rounds must be >= 1, got {max_rounds}")


@dataclass(eq=False)
class RoundRecord:
    """One finished round. `val_accuracy` is set once the global is scored,
    after its push: a thread reading `history` while the server runs can
    briefly see None for the newest round."""

    index: int
    blob: ModelBlob
    checksum: int
    participants: tuple[int, ...]
    val_accuracy: float | None = None


class _Conn(Link):
    def __init__(self, sock: socket.socket, addr, sel: selectors.BaseSelector, max_body: int) -> None:
        super().__init__(sock, sel, MessageBuffer(max_body))
        self.addr = addr
        self.device_id: int | None = None
        self.stale = False
        self.announced = False  # the previous message was PUSH_MODEL
        self.pulls = 0  # PULL_MODELs not yet answered by MODEL_DATA or ERROR NO_MODEL
        # Globals pushed and not yet ACKed. A counter, not a flag, so that a
        # late ACK of an older global does not vouch for a push trained on it.
        self.unacked = 0
        # Latest push validated with no global unacked: the next contribution.
        self.pushed: ModelBlob | None = None


class _PendingRound:
    def __init__(self, expected: set[int], deadline: float) -> None:
        self.expected = expected
        self.blobs: dict[int, ModelBlob] = {}
        self.deadline = deadline

    def complete(self) -> bool:
        return self.expected <= set(self.blobs)


@dataclass(eq=False)
class Server:
    host: str
    port: int
    initial_blob: ModelBlob
    policy: RoundPolicy
    validation: list | StackedSamples | None = None
    round_timeout: float = 5.0
    max_rounds: int | None = None
    history: list[RoundRecord] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        check_round_limits(self.round_timeout, self.max_rounds)
        # Framed before binding, so a model u16 frame numbers cannot frame fails here.
        self._install(self.initial_blob)
        # No legitimate message body is larger than a MODEL_DATA of this model.
        self._max_body = len(self._global_body)
        # Stacked once: evaluate scores the same set after every round.
        e = self.initial_blob.embedding_dim
        self._validation = stack_validation(self.validation, e) if self.validation else None
        self._sel = selectors.DefaultSelector()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((self.host, self.port))
        self._listener.listen()
        self._listener.setblocking(False)
        self.address: tuple[str, int] = self._listener.getsockname()
        self._sel.register(self._listener, selectors.EVENT_READ, None)
        self._devices: dict[int, _Conn] = {}
        self._pending: _PendingRound | None = None
        self._updates = 0
        self._last_round = time.monotonic()
        self._stopped = False

    # -- lifecycle ---------------------------------------------------------

    def stop(self) -> None:
        self._stopped = True

    def run(self) -> None:
        """Serve until stop() or max_rounds; safe to run in a worker thread."""
        log.info(
            "serving on %s:%d policy=%s:%g shape=(%d,%d)",
            self.address[0], self.address[1], self.policy.kind, self.policy.value,
            self.global_blob.embedding_dim, self.global_blob.num_classes,
        )
        try:
            while not self._stopped:
                for key, events in self._sel.select(timeout=0.05):
                    if key.data is None:
                        self._accept()
                    else:
                        self._service(key.data, events)
                self._drive_round()
                if self.max_rounds is not None and len(self.history) >= self.max_rounds:
                    break
        finally:
            self._shutdown()

    def _shutdown(self) -> None:
        for key in list(self._sel.get_map().values()):
            if key.data is not None:
                self._drop(key.data)
        self._listener.close()
        self._sel.close()

    # -- connection handling -----------------------------------------------

    def _accept(self) -> None:
        sock, addr = self._listener.accept()
        _Conn(sock, addr, self._sel, self._max_body)
        log.debug("connection from %s", addr)

    def _drop(self, conn: _Conn) -> None:
        conn.close()
        if conn.device_id is not None and self._devices.get(conn.device_id) is conn:
            del self._devices[conn.device_id]
            log.info("device %d disconnected", conn.device_id)
            if self._pending is not None:
                self._pending.expected.discard(conn.device_id)

    def _send(self, conn: _Conn, *msgs: Message) -> bool:
        try:
            conn.send(b"".join(encode_message(m) for m in msgs))
            return True
        except OSError as exc:
            log.warning("send to %s failed: %s", conn.addr, exc)
            self._drop(conn)
            return False

    def _service(self, conn: _Conn, events: int) -> None:
        try:
            if events & selectors.EVENT_WRITE:
                conn.flush()
            if events & selectors.EVENT_READ:
                # A dropped connection yields no more messages: a HELLO behind
                # a failed send must not register a closed connection.
                for msg in conn.messages():
                    self._handle(conn, msg)
        except OSError as exc:  # the peer closed or reset the connection
            log.info("connection from %s closed: %s", conn.addr, exc)
            self._drop(conn)
        except ProtocolError as exc:
            # Header-level corruption: framing is lost, drop the connection.
            log.error("protocol error from %s: %s", conn.addr, exc)
            self._send(conn, Message(MessageType.ERROR, 0, str(exc).encode()))
            self._drop(conn)

    # -- message handling ----------------------------------------------------

    def _handle(self, conn: _Conn, msg: Message) -> None:
        if conn.stale:
            conn.stale = False
            log.info("device %s is live again", conn.device_id)
        # The agent writes PUSH_MODEL and its MODEL_DATA in one write, so a
        # MODEL_DATA that does not directly follow one answers a pull.
        announced, conn.announced = conn.announced, msg.type is MessageType.PUSH_MODEL
        if msg.type is MessageType.HELLO:
            self._register(conn, msg.device_id)
        elif msg.type is MessageType.PUSH_MODEL:
            pass
        elif msg.type is MessageType.MODEL_DATA:
            self._on_model_data(conn, msg, announced)
        elif msg.type is MessageType.ACK:
            conn.unacked = max(0, conn.unacked - 1)
            if msg.body == STATUS_DATA_EXHAUSTED:
                log.info("device %s reports data exhausted", conn.device_id)
        elif msg.type is MessageType.ERROR:
            log.warning("device %s sent ERROR: %s", conn.device_id, msg.body.decode(errors="replace"))
            if msg.body == b"NO_MODEL" and conn.pulls:
                # The device answered a pull with an error, not a model.
                conn.pulls -= 1
                if self._pending is not None:
                    self._pending.expected.discard(conn.device_id)
        else:  # PULL_MODEL has no meaning in the device->server direction
            log.warning("unexpected %s from device %s", msg.type.name, conn.device_id)
            self._send(conn, Message(MessageType.ERROR, 0, b"UNEXPECTED_MESSAGE"))

    def _register(self, conn: _Conn, device_id: int) -> None:
        old = self._devices.get(device_id)
        if old is not None and old is not conn:
            log.warning("device %d re-registered from %s; dropping old connection", device_id, conn.addr)
            self._drop(old)
        conn.device_id = device_id
        self._devices[device_id] = conn
        log.info("device %d registered from %s", device_id, conn.addr)
        # Greet with the current global so the agent can start training.
        self._push_global(conn)

    def _install(self, blob: ModelBlob) -> int:
        """Make `blob` the global, encoded and framed once for every push; return its CRC."""
        encoded = encode_model(blob)
        self.global_blob = blob
        self._global_body = frame_bytes(encoded)
        return zlib.crc32(encoded)

    def _push_global(self, conn: _Conn) -> None:
        conn.pushed = None  # trained on an older global
        conn.unacked += 1
        # One write: the agent wakes once for the announcement and its model.
        self._send(conn, Message(MessageType.PUSH_MODEL, 0),
                   Message(MessageType.MODEL_DATA, 0, self._global_body))

    def _on_model_data(self, conn: _Conn, msg: Message, is_push: bool) -> None:
        if not is_push:
            if not conn.pulls:
                log.warning("MODEL_DATA from device %s with no pending pull or push", conn.device_id)
                self._send(conn, Message(MessageType.ERROR, 0, b"UNEXPECTED_MODEL_DATA"))
                return
            conn.pulls -= 1
        try:
            blob = blob_from_model_data(msg.body)
            if (blob.embedding_dim, blob.num_classes) != (
                self.global_blob.embedding_dim,
                self.global_blob.num_classes,
            ):
                raise ShapeError(
                    f"model shape ({blob.embedding_dim},{blob.num_classes}) does not match session"
                )
        except (WireError, ShapeError) as exc:
            log.warning("bad MODEL_DATA from device %s: %s", conn.device_id, exc)
            self._send(conn, Message(MessageType.ERROR, 0, type(exc).__name__.encode()))
            if not is_push and self._pending is not None:
                self._pending.expected.discard(conn.device_id)
            return
        if is_push:
            self._updates += 1
            if not conn.unacked:
                conn.pushed = blob
            log.debug("device %s pushed an update (%d pending)", conn.device_id, self._updates)
        else:
            if self._pending is not None and conn.device_id in self._pending.expected:
                self._pending.blobs[conn.device_id] = blob
            else:
                log.debug("late pull reply from device %s ignored", conn.device_id)

    # -- rounds ---------------------------------------------------------------

    def _live_devices(self) -> dict[int, _Conn]:
        return {d: c for d, c in self._devices.items() if not c.stale}

    def _drive_round(self) -> None:
        now = time.monotonic()
        if self._pending is None:
            if self._should_trigger(now):
                self._start_round(now)
        if self._pending is not None:
            if self._pending.complete():
                self._finish_round()
            elif now >= self._pending.deadline:
                missing = self._pending.expected - set(self._pending.blobs)
                for device_id in missing:
                    conn = self._devices.get(device_id)
                    if conn is not None:
                        conn.stale = True
                    log.warning("device %d timed out; marked stale for this round", device_id)
                self._finish_round()

    def _should_trigger(self, now: float) -> bool:
        if not self._live_devices():
            return False
        if self.policy.kind == "count":
            return self._updates >= int(self.policy.value)
        return now - self._last_round >= self.policy.value

    def _start_round(self, now: float) -> None:
        live = self._live_devices()
        self._pending = _PendingRound(set(live), now + self.round_timeout)
        for device_id, conn in sorted(live.items()):
            if conn.pushed is not None:
                self._pending.blobs[device_id] = conn.pushed
                conn.pushed = None
            elif self._send(conn, Message(MessageType.PULL_MODEL, 0)):
                conn.pulls += 1
        log.debug("round %d: pushes from %s, pulls for the rest of %s",
                  len(self.history) + 1, sorted(self._pending.blobs), sorted(live))

    def _finish_round(self) -> None:
        pending = self._pending
        self._pending = None
        self._updates = 0
        self._last_round = time.monotonic()
        collected = pending.blobs
        if not collected:
            log.warning("round aborted: no device contributed a model")
            return
        ordered = [collected[d] for d in sorted(collected)]
        checksum = self._install(average_blobs(ordered))
        # Recorded before the push: a device that has the push finds its round.
        record = RoundRecord(len(self.history) + 1, self.global_blob, checksum,
                             tuple(sorted(collected)))
        self.history.append(record)
        # A failed send drops its device from the dict, so iterate a copy.
        for conn in list(self._devices.values()):
            self._push_global(conn)
        # Scored after the push: no device waits on an accuracy it never uses.
        acc = None
        if self._validation is not None:
            acc = record.val_accuracy = evaluate(record.blob, self._validation)
        log.info(
            "round %d: %d devices, checksum %08x%s",
            record.index, len(record.participants), checksum,
            "" if acc is None else f", val_acc {acc:.4f}",
        )
