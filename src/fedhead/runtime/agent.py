"""Device agent: trains a local head between server contacts.

`Device` is the protocol and training, with no socket, selector or clock;
`Agent` is its I/O shell, a single-threaded selector loop over one `Link`
that carries out the device's queued sends after every message and every
step. Each iteration drains the link, then runs at most one training step,
so a PULL_MODEL is always answered within one step's latency and the head
is never touched concurrently.

Two modes:
  free-run (default): keep drawing one sample at a time and training at
      batch size 1; optionally push an unsolicited update every
      `push_every` samples (the trigger for a count-policy server).
  sync (`sync_batch=B`): after each installed global, train exactly one
      batch of B samples, push the result, and idle until the next install.
      With a count:N server policy this reproduces lockstep federated
      rounds, which is what the offline simulator computes.

The device never installs a model that fails CRC or shape checks or cannot
train on its own stream (`federation.check_stream`). A lost connection, or
a server that leaves more than `MAX_QUEUED_WRITES` writes unread, triggers
bounded reconnect with exponential backoff while training continues
offline, pushing nothing.
"""
from __future__ import annotations

import contextlib
import logging
import selectors
import socket
import time

from ..errors import ProtocolError, ShapeError, WireError, check_at_least, check_positive
from ..federation import check_stream
from ..federation import blob_from_head, head_from_blob  # noqa: F401 - perfbench's agent plan patches these
from ..nn import ModelBlob, train_batch
from .protocol import (
    MAX_DEVICE_ID,
    Link,
    Message,
    MessageBuffer,
    MessageType,
    STATUS_DATA_EXHAUSTED,
    blob_from_model_data,
    encode_message,
    model_data_body,
)

log = logging.getLogger("fedhead.runtime.agent")

# Connect attempts before giving up; the offline backoff doubles from BASE to MAX s.
RECONNECT_ATTEMPTS = 5
BACKOFF_BASE = 0.05
BACKOFF_MAX = 2.0


def check_device_settings(device_id: int, learning_rate: float, local_episodes: int,
                          sync_batch: int | None, push_every: int | None) -> None:
    """Raise ValueError for `Device` settings that cannot work."""
    if not 0 <= device_id <= MAX_DEVICE_ID:
        raise ValueError(f"device_id must be in [0, {MAX_DEVICE_ID}], got {device_id}")
    check_positive("learning_rate", learning_rate)
    check_at_least("local_episodes", local_episodes, 1)
    for key, value in (("sync_batch", sync_batch), ("push_every", push_every)):
        if value is not None:
            check_at_least(key, value, 1)
    if sync_batch is not None and push_every is not None:
        raise ValueError("push_every is for free-run mode; a sync_batch step pushes every step")


class Device:
    """The device protocol, driven by `receive`, `step`, `connected` and `disconnected`;
    `output()` takes the queued sends, each a tuple of messages for one write."""

    def __init__(
        self,
        device_id: int,
        stream,
        *,
        learning_rate: float = 0.01,
        local_episodes: int = 20,
        sync_batch: int | None = None,
        push_every: int | None = None,
    ) -> None:
        check_device_settings(device_id, learning_rate, local_episodes, sync_batch, push_every)
        self.device_id = device_id
        self.stream = stream
        self.learning_rate = learning_rate
        self.local_episodes = local_episodes
        self.sync_batch = sync_batch
        self.push_every = push_every

        self.head: ModelBlob | None = None  # trained, framed and sent as it is
        self.installs = 0
        self.samples_trained = 0
        self._need_sync_step = False
        self._since_push = 0
        self._expect = 0  # PUSH_MODEL announcements not yet matched by a MODEL_DATA
        self._online = False  # pushes wait for a link
        self._sends: list[tuple[Message, ...]] = []

    def output(self) -> list[tuple[Message, ...]]:
        out, self._sends = self._sends, []
        return out

    def _send(self, *msgs: Message) -> None:
        self._sends.append(msgs)

    def connected(self) -> None:
        """A new link: drop what was queued for the old one, then greet the server."""
        self.disconnected()
        self._online = True
        self._send(Message(MessageType.HELLO, self.device_id))

    def disconnected(self) -> None:
        """The link is gone: drop what was queued for it; push nothing until `connected`."""
        self._online, self._sends, self._expect = False, [], 0

    # -- message handling --------------------------------------------------------

    def receive(self, msg: Message) -> None:
        if msg.type is MessageType.PULL_MODEL:
            if self.head is None:
                self._send(Message(MessageType.ERROR, self.device_id, b"NO_MODEL"))
            else:
                self._send(self._model_message())
        elif msg.type is MessageType.PUSH_MODEL:
            self._expect += 1
        elif msg.type is MessageType.MODEL_DATA:
            self._on_model_data(msg)
        elif msg.type is MessageType.ACK:
            pass
        elif msg.type is MessageType.ERROR:
            log.warning("device %d got ERROR from server: %s", self.device_id,
                        msg.body.decode(errors="replace"))
        else:
            self._send(Message(MessageType.ERROR, self.device_id, b"UNEXPECTED_MESSAGE"))

    def _on_model_data(self, msg: Message) -> None:
        if not self._expect:
            self._send(Message(MessageType.ERROR, self.device_id, b"UNEXPECTED_MODEL_DATA"))
            return
        self._expect -= 1
        try:
            blob = blob_from_model_data(msg.body)
            check_stream(self.stream, blob)
            if self.head is not None and (blob.embedding_dim, blob.num_classes) != (
                self.head.embedding_dim, self.head.num_classes
            ):
                raise ShapeError("pushed model does not match local shape")
        except (WireError, ShapeError) as exc:
            # Keep the previous head; a bad transfer, or a model that cannot
            # train on this device's data, must never be installed.
            log.warning("device %d rejected a pushed model: %s", self.device_id, exc)
            self._send(Message(MessageType.ERROR, self.device_id, type(exc).__name__.encode()))
            return
        self.head = blob
        self.installs += 1
        self._need_sync_step = True
        status = STATUS_DATA_EXHAUSTED if self._exhausted() else b""
        self._send(Message(MessageType.ACK, self.device_id, status))
        log.debug("device %d installed global #%d", self.device_id, self.installs)

    def _model_message(self) -> Message:
        return Message(MessageType.MODEL_DATA, self.device_id, model_data_body(self.head))

    # -- training ----------------------------------------------------------------

    def _exhausted(self) -> bool:
        return self.stream.remaining() < (self.sync_batch or 1)

    def _has_training_work(self) -> bool:
        if self.head is None or self._exhausted():
            return False
        return self.sync_batch is None or self._need_sync_step

    def step(self) -> bool:
        """Run one training step if there is one to run; True if it ran.

        A sync step trains one batch of sync_batch samples and pushes; a
        free-run step trains one sample and pushes every push_every samples.
        """
        if not self._has_training_work():  # so the stream holds the batch
            return False
        batch = self.stream.take(self.sync_batch or 1)
        self.head = train_batch(self.head, batch, self.learning_rate, self.local_episodes)
        self.samples_trained += len(batch)
        self._need_sync_step = False
        self._since_push += 1
        due = self.sync_batch is not None or (
            self.push_every is not None and self._since_push >= self.push_every)
        if due and self._online:
            # One write: the server wakes once for the announcement and its model.
            self._send(Message(MessageType.PUSH_MODEL, self.device_id), self._model_message())
            self._since_push = 0
        return True


class Agent(Device):
    """The I/O shell around `Device`: one `Link` to the server, a selector and
    bounded reconnect. `settings` are `Device`'s keyword arguments."""

    def __init__(self, host: str, port: int, device_id: int, stream, **settings) -> None:
        super().__init__(device_id, stream, **settings)
        self.host = host
        self.port = port
        self._stopped = False
        self._sel: selectors.BaseSelector | None = None  # made by run()
        self._link: Link | None = None

    # -- lifecycle -----------------------------------------------------------

    def stop(self) -> None:
        self._stopped = True

    def run(self) -> None:
        """Train until stop(); raises ConnectionError once reconnects run out."""
        self._sel = selectors.DefaultSelector()
        try:
            self._connect()
            while not self._stopped:
                ready = self._sel.select(timeout=0.0 if self._has_training_work() else 0.05)
                if ready and not self._drain(ready[0][1]):  # the link is the one key
                    continue
                self.step()
                try:
                    self._carry_out()
                except OSError:  # the push failed
                    self._connect()
        finally:
            self._close_link()
            self._sel.close()

    def _connect(self) -> None:
        """Connect, first closing a lost link; train offline between attempts."""
        if self._link is not None:
            log.warning("device %d lost its connection; reconnecting", self.device_id)
            self._close_link()
        delay = BACKOFF_BASE
        for attempt in range(RECONNECT_ATTEMPTS):
            if self._stopped:
                return
            try:
                sock = socket.create_connection((self.host, self.port), timeout=5.0)
                self._link = Link(sock, self._sel, MessageBuffer())
                self.connected()
                self._carry_out()
                log.info("device %d connected to %s:%d", self.device_id, self.host, self.port)
                return
            except OSError as exc:
                self._close_link()  # if it connected but the HELLO failed
                log.warning(
                    "device %d connect attempt %d failed: %s", self.device_id, attempt + 1, exc
                )
                # Keep learning from the local stream while the link is down.
                deadline = time.monotonic() + delay
                while time.monotonic() < deadline and not self._stopped:
                    if not self.step():
                        time.sleep(min(0.05, delay))
                delay = min(delay * 2, BACKOFF_MAX)
        raise ConnectionError(
            f"device {self.device_id}: gave up after {RECONNECT_ATTEMPTS} attempts"
        )

    def _close_link(self) -> None:
        self.disconnected()
        if self._link is not None:
            self._link.close()
            self._link = None

    # -- socket I/O ------------------------------------------------------------

    def _carry_out(self) -> None:
        """Send what the device queued, one write per send."""
        for msgs in self.output():
            self._link.send(b"".join(encode_message(m) for m in msgs))

    def _drain(self, events: int) -> bool:
        """Flush queued writes, then handle what one read brings; False if the link dropped."""
        try:
            if events & selectors.EVENT_WRITE:
                self._link.flush()
            if events & selectors.EVENT_READ:
                for msg in self._link.messages():
                    self.receive(msg)
                    self._carry_out()
        except ProtocolError as exc:
            log.error("device %d: protocol error: %s", self.device_id, exc)
            self._send(Message(MessageType.ERROR, self.device_id, str(exc).encode()))
            with contextlib.suppress(OSError):
                self._carry_out()
        except OSError:
            pass
        else:
            return True
        self._connect()
        return False
