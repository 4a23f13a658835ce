"""Global-model server: registers device agents, runs aggregation rounds.

`Rounds` is the round protocol, with no socket and no clock: it takes each
message, closed connection and clock tick, and queues the sends (one write
each) and the connections to drop. `Server` is its I/O shell, a
single-threaded selector loop over the listener and one `Link` per
connection: it carries out that queue after every message and tick, drops a
connection whose send fails, and scores each finished round.

A round is triggered by policy (every K device pushes, or a timer), then
proceeds: take each live registered device's contribution, average the
contributions in device-id order, install the mean as the new global, and
push it back to everyone. Only then is the new global scored on the
validation set and the round logged, so the server scores while the devices
train on it. A connection keeps the device id of its first HELLO: a HELLO
naming another id gets ERROR UNEXPECTED_MESSAGE, and one naming an id that
another connection holds replaces that connection. A push from a connection
that has sent no HELLO gets ERROR UNEXPECTED_MODEL_DATA and is not decoded.

A device's contribution is its latest validated push made after it ACKed
the current global, so a sync agent uploads its model once per round. Live
devices without such a push (timer rounds, free-run agents that have not
pushed, pushes made before the ACK) get a PULL_MODEL and contribute their
MODEL_DATA reply. A device is live once its connection has ACKed a global
and while it is not stale: a peer that never ACKs its greeting, or rejects
it, is never pulled, so it holds up no round.

Devices that miss the collection deadline are marked stale and excluded
until they next speak; a device whose MODEL_DATA fails wire validation gets
an ERROR reply and drops out of that round only. A declared message body
longer than the session's framed model is a protocol error that drops the
connection. No write blocks the loop: a peer that leaves more than
`MAX_QUEUED_WRITES` writes unread is dropped.
"""
from __future__ import annotations

import logging
import selectors
import socket
import time
import zlib
from collections.abc import Hashable
from dataclasses import dataclass

from ..errors import ProtocolError, ShapeError, WireError, check_at_least, check_positive
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
        check_positive(f"{self.kind} policy value", self.value)  # finite, or no round triggers
        if self.kind == "count" and self.value != int(self.value):
            raise ValueError(f"count policy needs a positive integer, got {self.value}")

    @classmethod
    def parse(cls, text: str) -> "RoundPolicy":
        kind, _, value = text.partition(":")
        try:
            number = float(value)
        except ValueError:  # no colon, or no number after it
            raise ValueError(f"policy must be count:K or timer:SECONDS, got {text!r}") from None
        return cls(kind, number)


def check_round_limits(round_timeout: float, max_rounds: int | None) -> None:
    """Raise ValueError for a collection deadline or round limit that cannot work."""
    check_positive("round_timeout", round_timeout)
    if max_rounds is not None:
        check_at_least("max_rounds", max_rounds, 1)


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


@dataclass(eq=False)
class _Peer:
    """What the round protocol knows of one connection."""

    device_id: int | None = None
    acked: bool = False  # has ACKed a global: only then does it join rounds
    stale: bool = False
    announced: bool = False  # the previous message was PUSH_MODEL
    pulls: int = 0  # PULL_MODELs not yet answered by MODEL_DATA or ERROR NO_MODEL
    # Globals pushed and not yet ACKed. A counter, not a flag, so that a
    # late ACK of an older global does not vouch for a push trained on it.
    unacked: int = 0
    # Latest push validated with no global unacked: the next contribution.
    pushed: ModelBlob | None = None


class Rounds:
    """The round protocol, driven by `receive`, `disconnect` and `tick(now)`. A
    connection is any hashable key. `output()` takes what is to be done: the
    sends, as (connection, messages) pairs of one write each, and the
    connections to drop. `tick` returns the round it finished, unscored.
    `global_body` is the current global's MODEL_DATA body."""

    def __init__(self, initial_blob: ModelBlob, policy: RoundPolicy, round_timeout: float,
                 now: float) -> None:
        self.policy = policy
        self.round_timeout = round_timeout
        self.history: list[RoundRecord] = []
        self._shape = (initial_blob.embedding_dim, initial_blob.num_classes)
        self._install(initial_blob)
        self._peers: dict[Hashable, _Peer] = {}
        self._devices: dict[int, Hashable] = {}  # registered device id -> its connection
        # The pending round (None between rounds): whom it waits on, what it has, when it closes.
        self._expected: set[int] | None = None
        self._collected: dict[int, ModelBlob] = {}
        self._deadline = now
        self._updates = 0
        self._last_round = now
        self._sends: list[tuple[Hashable, tuple[Message, ...]]] = []
        self._drops: list[Hashable] = []

    def output(self) -> tuple[list[tuple[Hashable, tuple[Message, ...]]], list[Hashable]]:
        out = self._sends, self._drops
        self._sends, self._drops = [], []
        return out

    def _send(self, conn: Hashable, *msgs: Message) -> None:
        self._sends.append((conn, msgs))

    def disconnect(self, conn: Hashable) -> None:
        """Forget a closed connection; one that is unknown or already forgotten is ignored."""
        peer = self._peers.pop(conn, None)
        if peer is None or peer.device_id is None:
            return
        del self._devices[peer.device_id]
        log.info("device %d disconnected", peer.device_id)
        if self._expected is not None:
            self._expected.discard(peer.device_id)

    def receive(self, conn: Hashable, msg: Message) -> None:
        peer = self._peers.setdefault(conn, _Peer())
        if peer.stale:
            peer.stale = False
            log.info("device %s is live again", peer.device_id)
        # The agent writes PUSH_MODEL and its MODEL_DATA in one write, so a
        # MODEL_DATA that does not directly follow one answers a pull.
        announced, peer.announced = peer.announced, msg.type is MessageType.PUSH_MODEL
        if msg.type is MessageType.HELLO:
            self._register(conn, peer, msg.device_id)
        elif msg.type is MessageType.PUSH_MODEL:
            pass
        elif msg.type is MessageType.MODEL_DATA:
            self._on_model_data(conn, peer, msg, announced)
        elif msg.type is MessageType.ACK:
            peer.acked |= peer.unacked > 0  # an ACK that answers a pushed global
            peer.unacked = max(0, peer.unacked - 1)
            if msg.body == STATUS_DATA_EXHAUSTED:
                log.info("device %s reports data exhausted", peer.device_id)
        elif msg.type is MessageType.ERROR:
            log.warning("device %s sent ERROR: %s", peer.device_id, msg.body.decode(errors="replace"))
            if msg.body == b"NO_MODEL" and peer.pulls:
                # The device answered a pull with an error, not a model.
                peer.pulls -= 1
                if self._expected is not None:
                    self._expected.discard(peer.device_id)
        else:  # PULL_MODEL has no meaning in the device->server direction
            log.warning("unexpected %s from device %s", msg.type.name, peer.device_id)
            self._send(conn, Message(MessageType.ERROR, 0, b"UNEXPECTED_MESSAGE"))

    def _register(self, conn: Hashable, peer: _Peer, device_id: int) -> None:
        if peer.device_id not in (None, device_id):
            # Under a second id, the connection would hold the first one after it closes.
            log.warning("device %d sent HELLO as device %d; it keeps its first id",
                        peer.device_id, device_id)
            self._send(conn, Message(MessageType.ERROR, 0, b"UNEXPECTED_MESSAGE"))
            return
        old = self._devices.get(device_id)
        if old is not None and old != conn:
            log.warning("device %d re-registered; dropping old connection", device_id)
            self.disconnect(old)
            self._drops.append(old)
        peer.device_id = device_id
        self._devices[device_id] = conn
        log.info("device %d registered", device_id)
        # Greet with the current global so the agent can start training.
        self._push_global(conn, peer)

    def _install(self, blob: ModelBlob) -> int:
        """Make `blob` the global, encoded and framed once for every push; return its CRC."""
        encoded = encode_model(blob)
        self.global_body = frame_bytes(encoded)
        return zlib.crc32(encoded)

    def _push_global(self, conn: Hashable, peer: _Peer) -> None:
        peer.pushed = None  # trained on an older global
        peer.unacked += 1
        # One write: the agent wakes once for the announcement and its model.
        self._send(conn, Message(MessageType.PUSH_MODEL, 0),
                   Message(MessageType.MODEL_DATA, 0, self.global_body))

    def _on_model_data(self, conn: Hashable, peer: _Peer, msg: Message, is_push: bool) -> None:
        # A push counts only from a registered device, and a reply only to a pull.
        if not (peer.device_id is not None if is_push else peer.pulls):
            log.warning("MODEL_DATA from device %s: a push before HELLO, or no pending pull",
                        peer.device_id)
            self._send(conn, Message(MessageType.ERROR, 0, b"UNEXPECTED_MODEL_DATA"))
            return
        if not is_push:
            peer.pulls -= 1
        try:
            blob = blob_from_model_data(msg.body)
            if (blob.embedding_dim, blob.num_classes) != self._shape:
                raise ShapeError(
                    f"model shape ({blob.embedding_dim},{blob.num_classes}) does not match session"
                )
        except (WireError, ShapeError) as exc:
            log.warning("bad MODEL_DATA from device %s: %s", peer.device_id, exc)
            self._send(conn, Message(MessageType.ERROR, 0, type(exc).__name__.encode()))
            if not is_push and self._expected is not None:
                self._expected.discard(peer.device_id)
            return
        if is_push:
            self._updates += 1
            if not peer.unacked:
                peer.pushed = blob
            log.debug("device %s pushed an update (%d pending)", peer.device_id, self._updates)
        elif self._expected is not None and peer.device_id in self._expected:
            self._collected[peer.device_id] = blob
        else:
            log.debug("late pull reply from device %s ignored", peer.device_id)

    # -- rounds ---------------------------------------------------------------

    def _live_devices(self) -> dict[int, Hashable]:
        """The devices a round waits on: each has ACKed a global and is not stale."""
        return {d: c for d, c in self._devices.items()
                if self._peers[c].acked and not self._peers[c].stale}

    def tick(self, now: float) -> RoundRecord | None:
        """Start the round the policy calls for; finish the pending round once it
        is complete or `now` has reached its deadline, and return it unscored."""
        if self._expected is None:
            due = (self._updates >= int(self.policy.value) if self.policy.kind == "count"
                   else now - self._last_round >= self.policy.value)
            if not (due and self._live_devices()):
                return None
            self._start_round(now)
        missing = self._expected - self._collected.keys()
        if missing and now < self._deadline:
            return None
        for device_id in missing:
            self._peers[self._devices[device_id]].stale = True
            log.warning("device %d timed out; marked stale for this round", device_id)
        return self._finish_round(now)

    def _start_round(self, now: float) -> None:
        live = self._live_devices()
        self._expected, self._deadline = set(live), now + self.round_timeout
        for device_id, conn in sorted(live.items()):
            peer = self._peers[conn]
            if peer.pushed is not None:
                self._collected[device_id], peer.pushed = peer.pushed, None
            else:
                peer.pulls += 1
                self._send(conn, Message(MessageType.PULL_MODEL, 0))
        log.debug("round %d: pushes from %s, pulls for the rest of %s",
                  len(self.history) + 1, sorted(self._collected), sorted(live))

    def _finish_round(self, now: float) -> RoundRecord | None:
        collected = self._collected
        self._expected, self._collected = None, {}
        self._updates = 0
        self._last_round = now
        if not collected:
            log.warning("round aborted: no device contributed a model")
            return None
        participants = tuple(sorted(collected))
        blob = average_blobs([collected[d] for d in participants])
        checksum = self._install(blob)
        # Recorded before the push: a device that has the push finds its round.
        record = RoundRecord(len(self.history) + 1, blob, checksum, participants)
        self.history.append(record)
        for conn in self._devices.values():
            self._push_global(conn, self._peers[conn])
        return record


@dataclass(eq=False)
class Server:
    """The I/O shell around `Rounds`: the listener, a selector, one `Link` per
    connection and the clock."""

    host: str
    port: int
    initial_blob: ModelBlob
    policy: RoundPolicy
    validation: list | StackedSamples | None = None
    round_timeout: float = 5.0
    max_rounds: int | None = None

    def __post_init__(self) -> None:
        check_round_limits(self.round_timeout, self.max_rounds)
        # Framed before binding, so a model u16 frame numbers cannot frame fails here.
        self._rounds = Rounds(self.initial_blob, self.policy, self.round_timeout, time.monotonic())
        # No legitimate message body is larger than a MODEL_DATA of this model.
        self._max_body = len(self._rounds.global_body)
        # Stacked once: evaluate scores the same set after every round.
        e = self.initial_blob.embedding_dim
        self._validation = None if self.validation is None else stack_validation(self.validation, e)
        self._sel = selectors.DefaultSelector()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((self.host, self.port))
        self._listener.listen()
        self._listener.setblocking(False)
        self.address: tuple[str, int] = self._listener.getsockname()
        self._sel.register(self._listener, selectors.EVENT_READ, None)
        self._stopped = False
        self.history = self._rounds.history  # the core's own round list

    # -- lifecycle ---------------------------------------------------------

    def stop(self) -> None:
        self._stopped = True

    def run(self) -> None:
        """Serve until stop() or max_rounds; safe to run in a worker thread."""
        log.info(
            "serving on %s:%d policy=%s:%g shape=(%d,%d)",
            self.address[0], self.address[1], self.policy.kind, self.policy.value,
            self.initial_blob.embedding_dim, self.initial_blob.num_classes,
        )
        try:
            while not self._stopped:
                for key, events in self._sel.select(timeout=0.05):
                    if key.data is None:
                        self._accept()
                    else:
                        self._service(key.data, events)
                record = self._rounds.tick(time.monotonic())
                self._carry_out()
                if record is not None:
                    self._score(record)
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
        Link(sock, self._sel, MessageBuffer(self._max_body))
        log.debug("connection from %s", addr)

    def _drop(self, link: Link) -> None:
        link.close()
        self._rounds.disconnect(link)

    def _send(self, link: Link, msgs: tuple[Message, ...]) -> None:
        if link.closed:  # dropped earlier in the same queue
            return
        try:
            link.send(b"".join(encode_message(m) for m in msgs))
        except OSError as exc:
            log.warning("send to device failed: %s", exc)
            self._drop(link)

    def _carry_out(self) -> None:
        """Send what the core queued, one write per send, then drop what it dropped."""
        sends, drops = self._rounds.output()
        for link, msgs in sends:
            self._send(link, msgs)
        for link in drops:
            self._drop(link)

    def _service(self, link: Link, events: int) -> None:
        try:
            if events & selectors.EVENT_WRITE:
                link.flush()
            if events & selectors.EVENT_READ:
                # A link that a failed send closed yields no more messages.
                for msg in link.messages():
                    self._rounds.receive(link, msg)
                    self._carry_out()
        except OSError as exc:  # the peer closed or reset the connection
            log.info("connection closed: %s", exc)
            self._drop(link)
        except ProtocolError as exc:
            # Header-level corruption: framing is lost, drop the connection.
            log.error("protocol error: %s", exc)
            self._send(link, (Message(MessageType.ERROR, 0, str(exc).encode()),))
            self._drop(link)

    def _score(self, record: RoundRecord) -> None:
        # Scored after the push: no device waits on an accuracy it never uses.
        acc = None
        if self._validation is not None:
            acc = record.val_accuracy = evaluate(record.blob, self._validation)
        log.info(
            "round %d: %d devices, checksum %08x%s",
            record.index, len(record.participants), record.checksum,
            "" if acc is None else f", val_acc {acc:.4f}",
        )
