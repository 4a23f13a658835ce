"""Device agent: trains a local head between server contacts.

Single-threaded: each loop iteration drains the socket, then runs at most
one training step, so a PULL_MODEL is always answered within one step's
latency and the head is never touched concurrently.

Two modes:
  free-run (default): keep drawing one sample at a time and training at
      batch size 1; optionally push an unsolicited update every
      `push_every` samples (the trigger for a count-policy server).
  sync (`sync_batch=B`): after each installed global, train exactly one
      batch of B samples, push the result, and idle until the next install.
      With a count:N server policy this reproduces lockstep federated
      rounds, which is what the offline simulator computes.

The agent never installs a model that fails CRC or shape checks, and a
lost connection triggers bounded reconnect with exponential backoff while
free-run training continues offline.
"""
from __future__ import annotations

import logging
import selectors
import socket
import time
from collections import deque

from ..errors import DataExhaustedError, ProtocolError, ShapeError, WireError
from ..federation import blob_from_head, head_from_blob
from ..nn import DenseHead, train_batch
from .protocol import (
    MAX_DEVICE_ID,
    Message,
    MessageBuffer,
    MessageType,
    STATUS_DATA_EXHAUSTED,
    blob_from_model_data,
    encode_message,
    model_data_body,
)

log = logging.getLogger("fedhead.runtime.agent")


class Agent:
    def __init__(
        self,
        host: str,
        port: int,
        device_id: int,
        stream,
        *,
        learning_rate: float = 0.01,
        local_episodes: int = 20,
        sync_batch: int | None = None,
        push_every: int | None = None,
        reconnect_attempts: int = 5,
        backoff_base: float = 0.05,
        backoff_max: float = 2.0,
    ) -> None:
        if sync_batch is not None and sync_batch < 1:
            raise ValueError(f"sync_batch must be >= 1, got {sync_batch}")
        if push_every is not None and push_every < 1:
            raise ValueError(f"push_every must be >= 1, got {push_every}")
        if not 0 <= device_id <= MAX_DEVICE_ID:
            raise ValueError(f"device_id must be in [0, {MAX_DEVICE_ID}], got {device_id}")
        self.host = host
        self.port = port
        self.device_id = device_id
        self.stream = stream
        self.learning_rate = learning_rate
        self.local_episodes = local_episodes
        self.sync_batch = sync_batch
        self.push_every = push_every
        self.reconnect_attempts = reconnect_attempts
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max

        self.head: DenseHead | None = None
        self.installs = 0
        self.samples_trained = 0
        self._need_sync_step = False
        self._since_push = 0
        self._expect: deque[str] = deque()
        self._stopped = False
        self._sock: socket.socket | None = None
        self._buf = MessageBuffer()

    # -- lifecycle -----------------------------------------------------------

    def stop(self) -> None:
        self._stopped = True

    def run(self) -> None:
        """Train until stop(); raises ConnectionError once reconnects run out."""
        self._connect()
        if self._sock is None:  # stopped while connecting
            return
        sel = selectors.DefaultSelector()
        sel.register(self._sock, selectors.EVENT_READ)
        try:
            while not self._stopped:
                busy = self._has_training_work()
                ready = sel.select(timeout=0.0 if busy else 0.05)
                if ready:
                    if not self._drain(sel):
                        continue
                try:
                    self._train_step()
                except OSError:  # push failed mid-step
                    self._reconnect(sel)
        finally:
            sel.close()
            if self._sock is not None:
                self._sock.close()

    def _connect(self) -> None:
        delay = self.backoff_base
        for attempt in range(self.reconnect_attempts):
            if self._stopped:
                return
            try:
                self._sock = socket.create_connection((self.host, self.port), timeout=5.0)
                self._sock.settimeout(None)
                self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self._buf = MessageBuffer()
                self._expect.clear()
                self._send(Message(MessageType.HELLO, self.device_id))
                log.info("device %d connected to %s:%d", self.device_id, self.host, self.port)
                return
            except OSError as exc:
                log.warning(
                    "device %d connect attempt %d failed: %s", self.device_id, attempt + 1, exc
                )
                # Keep learning from the local stream while the link is down.
                deadline = time.monotonic() + delay
                while time.monotonic() < deadline and not self._stopped:
                    if not self._train_step():
                        time.sleep(min(0.05, delay))
                delay = min(delay * 2, self.backoff_max)
        raise ConnectionError(
            f"device {self.device_id}: gave up after {self.reconnect_attempts} attempts"
        )

    def _reconnect(self, sel: selectors.DefaultSelector) -> None:
        if self._sock is not None:
            try:
                sel.unregister(self._sock)
            except (KeyError, ValueError):
                pass
            self._sock.close()
            self._sock = None
        if self._stopped:
            return
        log.warning("device %d lost its connection; reconnecting", self.device_id)
        self._connect()
        if self._sock is not None:
            sel.register(self._sock, selectors.EVENT_READ)

    # -- socket I/O ------------------------------------------------------------

    def _send(self, *msgs: Message) -> None:
        self._sock.sendall(b"".join(encode_message(m) for m in msgs))

    def _drain(self, sel) -> bool:
        """Read and handle everything available; False if the link dropped."""
        try:
            data = self._sock.recv(65536)
        except OSError:
            data = b""
        if not data:
            self._reconnect(sel)
            return False
        self._buf.feed(data)
        try:
            # One at a time: messages before a bad header are handled, however TCP split them.
            while (msg := self._buf.pop()) is not None:
                self._handle(msg)
        except ProtocolError as exc:
            log.error("device %d: protocol error: %s", self.device_id, exc)
            try:
                self._send(Message(MessageType.ERROR, self.device_id, str(exc).encode()))
            except OSError:
                pass
            self._reconnect(sel)
            return False
        except OSError:
            self._reconnect(sel)
            return False
        return True

    # -- message handling --------------------------------------------------------

    def _handle(self, msg: Message) -> None:
        if msg.type is MessageType.PULL_MODEL:
            if self.head is None:
                self._send(Message(MessageType.ERROR, self.device_id, b"NO_MODEL"))
            else:
                self._send_model()
        elif msg.type is MessageType.PUSH_MODEL:
            self._expect.append("push")
        elif msg.type is MessageType.MODEL_DATA:
            self._on_model_data(msg)
        elif msg.type is MessageType.ACK:
            pass
        elif msg.type is MessageType.ERROR:
            log.warning(
                "device %d got ERROR from server: %s",
                self.device_id, msg.body.decode(errors="replace"),
            )
        else:
            self._send(Message(MessageType.ERROR, self.device_id, b"UNEXPECTED_MESSAGE"))

    def _on_model_data(self, msg: Message) -> None:
        if not self._expect:
            self._send(Message(MessageType.ERROR, self.device_id, b"UNEXPECTED_MODEL_DATA"))
            return
        self._expect.popleft()
        try:
            blob = blob_from_model_data(msg.body)
            head = head_from_blob(blob)
            if self.head is not None and (
                head.embedding_dim != self.head.embedding_dim
                or head.num_classes != self.head.num_classes
            ):
                raise ShapeError("pushed model does not match local shape")
        except (WireError, ShapeError) as exc:
            # Keep the previous head; a bad transfer must never be installed.
            log.warning("device %d rejected a pushed model: %s", self.device_id, exc)
            self._send(Message(MessageType.ERROR, self.device_id, type(exc).__name__.encode()))
            return
        self.head = head
        self.installs += 1
        self._need_sync_step = True
        status = STATUS_DATA_EXHAUSTED if self._exhausted() else b""
        self._send(Message(MessageType.ACK, self.device_id, status))
        log.debug("device %d installed global #%d", self.device_id, self.installs)

    def _model_message(self) -> Message:
        return Message(MessageType.MODEL_DATA, self.device_id, model_data_body(blob_from_head(self.head)))

    def _send_model(self) -> None:
        self._send(self._model_message())

    def _push_model(self) -> None:
        # One write: the server wakes once for the announcement and its model.
        self._send(Message(MessageType.PUSH_MODEL, self.device_id), self._model_message())

    # -- training ----------------------------------------------------------------

    def _exhausted(self) -> bool:
        need = self.sync_batch if self.sync_batch is not None else 1
        return self.stream.remaining() < need

    def _has_training_work(self) -> bool:
        if self.head is None or self._exhausted():
            return False
        if self.sync_batch is not None:
            return self._need_sync_step
        return True

    def _train_step(self) -> bool:
        """Run one training step if there is one to run; True if it ran."""
        if not self._has_training_work():
            return False
        if self.sync_batch is not None:
            batch = self.stream.take(self.sync_batch)
            self.head = train_batch(self.head, batch, self.learning_rate, self.local_episodes)
            self.samples_trained += len(batch)
            self._need_sync_step = False
            if self._sock is not None:
                self._push_model()
            return True
        try:
            batch = self.stream.take(1)
        except DataExhaustedError:
            return False
        self.head = train_batch(self.head, batch, self.learning_rate, self.local_episodes)
        self.samples_trained += 1
        self._since_push += 1
        if self.push_every is not None and self._since_push >= self.push_every and self._sock is not None:
            self._push_model()
            self._since_push = 0
        return True
