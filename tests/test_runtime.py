"""Message layer, server round-driving, and agent behavior over real sockets.

Server tests script a fake device against a threaded Server; agent tests
script a fake server against a threaded Agent. Every socket has a timeout,
so a wedged exchange fails the test instead of hanging it.
"""
import collections
import contextlib
import importlib
import logging
import socket
import struct
import threading
import time
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedhead.data import partition, synth_separable
from fedhead.errors import ProtocolError, ShapeError
from fedhead.federation import (
    ModelBlob, RoundConfig, blob_from_head, evaluate, head_from_blob, run_training,
)
from fedhead.nn import init_head, train_batch
from fedhead.runtime import (
    Agent,
    Message,
    MessageBuffer,
    MessageType,
    RoundPolicy,
    Server,
    STATUS_DATA_EXHAUSTED,
    blob_from_model_data,
    configure_logging,
    encode_message,
    model_data_body,
    parse_endpoint,
)
from fedhead.runtime import server as server_module
from fedhead.runtime.protocol import MAX_BODY
from fedhead.wire import decode_model, encode_model, encoded_size, framed_size


def make_blob(seed, e=8, c=2):
    """A random head whose values are exactly representable in float32."""
    return decode_model(encode_model(blob_from_head(init_head(e, c, "random", seed=seed))))


def make_stream(n, seed=0, e=8):
    ds = synth_separable(e, 2, n, 4.0, seed, val_fraction=0.0)
    (stream,) = partition(ds, 1, seed)
    return stream


def replay_training(blob, samples, *, learning_rate, local_episodes, batch_size=1):
    """What an agent does to an installed blob: train_batch over consecutive
    batches. The same samples in the same order reproduce its head bitwise."""
    head = head_from_blob(blob)
    for i in range(0, len(samples), batch_size):
        head = train_batch(head, samples[i : i + batch_size], learning_rate, local_episodes)
    return blob_from_head(head)


def wait_until(pred, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if pred():
            return True
        time.sleep(0.005)
    return False


class ScriptedPeer:
    """Test-driven end of a connection; reads are message-at-a-time."""

    def __init__(self, sock):
        self.sock = sock
        self.sock.settimeout(5.0)
        self.buf = MessageBuffer()

    @classmethod
    def connect(cls, address):
        return cls(socket.create_connection(address, timeout=5.0))

    def send(self, msg):
        self.sock.sendall(encode_message(msg))

    def read(self):
        while True:
            msg = self.buf.pop()
            if msg is not None:
                return msg
            data = self.sock.recv(65536)
            if not data:
                raise AssertionError("peer closed the connection mid-script")
            self.buf.feed(data)

    def expect(self, mtype):
        msg = self.read()
        assert msg.type is mtype, f"expected {mtype.name}, got {msg.type.name} body={msg.body[:32]!r}"
        return msg

    def expect_push(self):
        self.expect(MessageType.PUSH_MODEL)
        return self.expect(MessageType.MODEL_DATA)

    def push(self, device_id, blob):
        self.send(Message(MessageType.PUSH_MODEL, device_id))
        self.send(Message(MessageType.MODEL_DATA, device_id, model_data_body(blob)))

    def close(self):
        self.sock.close()


@contextlib.contextmanager
def running_server(initial_blob, policy, **kw):
    server = Server("127.0.0.1", 0, initial_blob, policy, **kw)
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    try:
        yield server, thread
    finally:
        server.stop()
        thread.join(5.0)


@contextlib.contextmanager
def running_agent(address, device_id, stream, **kw):
    worker = Agent(address[0], address[1], device_id, stream, **kw)

    def target():
        try:
            worker.run()
        except ConnectionError:
            pass  # server side of a test went away first

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    try:
        yield worker
    finally:
        worker.stop()
        thread.join(5.0)


class ScriptedServer:
    def __init__(self):
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(1)
        self.listener.settimeout(5.0)
        self.address = self.listener.getsockname()

    def accept(self):
        sock, _ = self.listener.accept()
        return ScriptedPeer(sock)

    def close(self):
        self.listener.close()


# -- message layer ---------------------------------------------------------------


def test_message_header_layout():
    msg = Message(MessageType.ACK, 9, b"hi")
    assert encode_message(msg) == struct.pack("<BBHI", 5, 9, 0, 2) + b"hi"
    assert encode_message(Message(MessageType.HELLO, 0)) == struct.pack("<BBHI", 1, 0, 0, 0)


def test_message_type_codes():
    codes = {m.name: int(m) for m in MessageType}
    assert codes == {
        "HELLO": 1, "PUSH_MODEL": 2, "PULL_MODEL": 3,
        "MODEL_DATA": 4, "ACK": 5, "ERROR": 6,
    }


def test_message_validates_device_id():
    with pytest.raises(ProtocolError):
        Message(MessageType.HELLO, 256)
    with pytest.raises(ProtocolError):
        Message(MessageType.HELLO, -1)


def test_buffer_reassembles_byte_at_a_time():
    stream = encode_message(Message(MessageType.HELLO, 4)) + encode_message(
        Message(MessageType.ACK, 4, b"xyz")
    )
    buf = MessageBuffer()
    got = []
    for i, byte in enumerate(stream):
        buf.feed(bytes([byte]))
        if i < len(stream) - 1:
            got.extend(buf.pop_all())
    got.extend(buf.pop_all())
    assert [(m.type, m.body) for m in got] == [
        (MessageType.HELLO, b""),
        (MessageType.ACK, b"xyz"),
    ]
    assert buf.pop() is None


def test_buffer_rejects_nonzero_reserved_field():
    buf = MessageBuffer()
    buf.feed(struct.pack("<BBHI", 1, 0, 7, 0))
    with pytest.raises(ProtocolError):
        buf.pop()


def test_buffer_rejects_unknown_type():
    buf = MessageBuffer()
    buf.feed(struct.pack("<BBHI", 99, 0, 0, 0))
    with pytest.raises(ProtocolError):
        buf.pop()


def test_buffer_rejects_oversized_body_declaration():
    buf = MessageBuffer()
    buf.feed(struct.pack("<BBHI", 1, 0, 0, MAX_BODY + 1))
    with pytest.raises(ProtocolError):
        buf.pop()


E16_MODEL_BODY = model_data_body(make_blob(2, e=16, c=2))
BUFFER_CAP = len(E16_MODEL_BODY)

messages_st = st.lists(
    st.one_of(
        st.builds(Message, st.sampled_from(MessageType), st.integers(0, 255),
                  st.binary(max_size=40)),
        st.builds(Message, st.just(MessageType.MODEL_DATA), st.integers(0, 255),
                  st.just(E16_MODEL_BODY)),
    ),
    max_size=6,
)
bad_headers_st = st.one_of(
    st.builds(lambda r: struct.pack("<BBHI", 1, 0, r, 0), st.integers(1, 0xFFFF)),
    st.builds(lambda t: struct.pack("<BBHI", t, 0, 0, 0), st.integers(7, 255) | st.just(0)),
    st.builds(lambda n: struct.pack("<BBHI", 4, 0, 0, n), st.integers(BUFFER_CAP + 1, 2**32 - 1)),
)


def feed_in_chunks(data, cuts):
    """Feed `data` split at `cuts`, popping after each chunk. Returns the
    messages popped and the ProtocolError message, if one was raised."""
    buf = MessageBuffer(max_body=BUFFER_CAP)
    got = []
    bounds = [0, *sorted(c % (len(data) + 1) for c in cuts), len(data)]
    try:
        for lo, hi in zip(bounds, bounds[1:]):
            buf.feed(data[lo:hi])
            got.extend(buf.pop_all())
    except ProtocolError as exc:
        return got, str(exc)
    return got, None


@settings(max_examples=150, deadline=None)
@given(messages_st, st.lists(st.integers(0, 10**6), max_size=12))
def test_buffer_yields_the_same_messages_under_any_chunking(msgs, cuts):
    data = b"".join(encode_message(m) for m in msgs)
    got, error = feed_in_chunks(data, cuts)
    assert error is None
    assert got == feed_in_chunks(data, [])[0] == msgs


@settings(max_examples=150, deadline=None)
@given(messages_st, bad_headers_st, st.binary(max_size=16), st.lists(st.integers(0, 10**6), max_size=12))
def test_buffer_raises_the_same_error_for_a_bad_header_under_any_chunking(msgs, bad, tail, cuts):
    data = b"".join(encode_message(m) for m in msgs) + bad + tail
    whole, whole_error = feed_in_chunks(data, [])
    got, error = feed_in_chunks(data, cuts)
    assert whole_error is not None and error == whole_error
    assert whole == [] and got == msgs[: len(got)]


def test_model_data_body_round_trip_and_size():
    blob = make_blob(0, e=16, c=3)
    body = model_data_body(blob)
    assert len(body) == framed_size(encoded_size(16, 3))
    back = blob_from_model_data(body)
    assert np.array_equal(back.values, blob.values)


def test_model_data_path_makes_no_frame_objects(monkeypatch):
    from fedhead import wire

    def per_frame_path(*args):
        raise AssertionError("MODEL_DATA bodies must not go through per-frame objects")

    for name in ("frame_stream", "frames_to_bytes", "frames_from_bytes", "unframe_stream"):
        monkeypatch.setattr(wire, name, per_frame_path)
    blob = make_blob(1, e=1280, c=2)
    back = blob_from_model_data(model_data_body(blob))
    assert np.array_equal(back.values, blob.values)


def test_parse_endpoint():
    assert parse_endpoint("127.0.0.1:7700") == ("127.0.0.1", 7700)
    assert parse_endpoint(":9000") == ("0.0.0.0", 9000)
    with pytest.raises(ValueError):
        parse_endpoint("no-port")
    with pytest.raises(ValueError):
        parse_endpoint("host:seven")


def test_round_policy_parsing():
    assert RoundPolicy.parse("count:3") == RoundPolicy("count", 3.0)
    assert RoundPolicy.parse("timer:0.5") == RoundPolicy("timer", 0.5)
    for bad in ("count", "count:0", "count:2.5", "timer:-1", "often:3"):
        with pytest.raises(ValueError):
            RoundPolicy.parse(bad)


def test_configure_logging_level_gate(monkeypatch):
    monkeypatch.setenv("FTL_LOG_LEVEL", "loud")
    with pytest.raises(ValueError):
        configure_logging()
    monkeypatch.setenv("FTL_LOG_LEVEL", "error")
    configure_logging()
    assert logging.getLogger("fedhead").level == logging.ERROR
    monkeypatch.setenv("FTL_LOG_LEVEL", "info")
    configure_logging()


# -- server against a scripted device ---------------------------------------------


def test_server_single_device_round():
    initial = make_blob(1)
    ds = synth_separable(8, 2, 50, 4.0, 1, val_fraction=0.5)
    mine = make_blob(2)
    with running_server(
        initial, RoundPolicy("count", 1), validation=ds.validation_samples(),
        round_timeout=5.0, max_rounds=1,
    ) as (server, thread):
        dev = ScriptedPeer.connect(server.address)
        dev.send(Message(MessageType.HELLO, 3))
        greeting = dev.expect_push()
        assert greeting.body == model_data_body(initial)

        dev.send(Message(MessageType.ACK, 3))
        dev.push(3, mine)
        # The push is the device's contribution: no PULL_MODEL comes first.
        result = dev.expect_push()  # averaged global comes back
        assert result.body == model_data_body(mine)
        thread.join(5.0)
        assert not thread.is_alive()
        dev.close()

    assert len(server.history) == 1
    record = server.history[0]
    assert record.participants == (3,)
    assert np.array_equal(record.blob.values, mine.values)  # mean of one blob
    assert record.checksum == zlib.crc32(encode_model(mine))
    assert record.val_accuracy == evaluate(mine, ds.validation_samples())


def test_server_averages_opposite_models_to_zero():
    initial = make_blob(3)
    v = make_blob(4)
    neg = ModelBlob(-v.values, v.embedding_dim, v.num_classes)
    with running_server(initial, RoundPolicy("count", 2), max_rounds=1) as (server, thread):
        devs = []
        for device_id, blob in ((1, v), (2, neg)):
            dev = ScriptedPeer.connect(server.address)
            dev.send(Message(MessageType.HELLO, device_id))
            dev.expect_push()
            dev.send(Message(MessageType.ACK, device_id))
            dev.push(device_id, blob)
            devs.append(dev)
        for dev in devs:
            dev.expect_push()
            dev.close()
        thread.join(5.0)

    assert server.history[0].participants == (1, 2)
    assert np.all(server.history[0].blob.values == 0.0)


def test_server_drops_corrupt_reply_from_round_then_forgives():
    initial = make_blob(5)
    good = make_blob(6)
    corrupt = bytearray(model_data_body(good))
    corrupt[36] ^= 0xFF  # a model payload byte inside frame 4
    with running_server(initial, RoundPolicy("count", 1), max_rounds=2) as (server, thread):
        # Device 1 pushes its contribution; device 2 never pushes, so it is pulled.
        d1 = ScriptedPeer.connect(server.address)
        d1.send(Message(MessageType.HELLO, 1))
        d1.expect_push()
        d2 = ScriptedPeer.connect(server.address)
        d2.send(Message(MessageType.HELLO, 2))
        d2.expect_push()

        d1.send(Message(MessageType.ACK, 1))
        d1.push(1, good)
        d2.expect(MessageType.PULL_MODEL)
        d2.send(Message(MessageType.MODEL_DATA, 2, bytes(corrupt)))

        err = d2.expect(MessageType.ERROR)
        assert err.body == b"CorruptionError"
        d1.expect_push()
        d2.expect_push()
        assert wait_until(lambda: len(server.history) == 1)
        assert server.history[0].participants == (1,)

        # Round 2: the offender answers cleanly and participates again.
        d1.send(Message(MessageType.ACK, 1))
        d1.push(1, good)
        d2.expect(MessageType.PULL_MODEL)
        d2.send(Message(MessageType.MODEL_DATA, 2, model_data_body(good)))
        d1.expect_push()
        d2.expect_push()
        thread.join(5.0)

    assert server.history[1].participants == (1, 2)
    d1.close()
    d2.close()


def test_server_marks_silent_device_stale_until_it_speaks():
    initial = make_blob(7)
    mine = make_blob(8)
    with running_server(
        initial, RoundPolicy("count", 1), round_timeout=0.3, max_rounds=2
    ) as (server, thread):
        d1 = ScriptedPeer.connect(server.address)
        d1.send(Message(MessageType.HELLO, 1))
        d1.expect_push()
        d2 = ScriptedPeer.connect(server.address)
        d2.send(Message(MessageType.HELLO, 2))
        d2.expect_push()

        d1.send(Message(MessageType.ACK, 1))
        d1.push(1, mine)
        d2.expect(MessageType.PULL_MODEL)  # never answered

        d1.expect_push()  # round 1 closes at the deadline without device 2
        d2.expect_push()
        assert wait_until(lambda: len(server.history) == 1)
        assert server.history[0].participants == (1,)

        # Round 2 must not pull the stale device: its next message after the
        # round-1 result is the round-2 result, with no PULL in between.
        d1.send(Message(MessageType.ACK, 1))
        d1.push(1, mine)
        d1.expect_push()
        d2.expect_push()
        thread.join(5.0)

    assert server.history[1].participants == (1,)
    d1.close()
    d2.close()


def test_server_handles_no_model_reply():
    initial = make_blob(9)
    mine = make_blob(10)
    with running_server(initial, RoundPolicy("count", 1), max_rounds=1) as (server, thread):
        d1 = ScriptedPeer.connect(server.address)
        d1.send(Message(MessageType.HELLO, 1))
        d1.expect_push()
        d2 = ScriptedPeer.connect(server.address)
        d2.send(Message(MessageType.HELLO, 2))
        d2.expect_push()

        d1.send(Message(MessageType.ACK, 1))
        d1.push(1, mine)
        d2.expect(MessageType.PULL_MODEL)
        d2.send(Message(MessageType.ERROR, 2, b"NO_MODEL"))

        d1.expect_push()
        d2.expect_push()
        thread.join(5.0)

    assert server.history[0].participants == (1,)
    d1.close()
    d2.close()


def test_server_timer_policy_runs_rounds_without_pushes():
    initial = make_blob(11)
    mine = make_blob(12)
    with running_server(initial, RoundPolicy("timer", 0.2), max_rounds=1) as (server, thread):
        dev = ScriptedPeer.connect(server.address)
        dev.send(Message(MessageType.HELLO, 1))
        dev.expect_push()
        dev.expect(MessageType.PULL_MODEL)
        dev.send(Message(MessageType.MODEL_DATA, 1, model_data_body(mine)))
        dev.expect_push()
        thread.join(5.0)
    assert len(server.history) == 1
    dev.close()


def test_server_rejects_out_of_context_messages():
    initial = make_blob(13)
    with running_server(initial, RoundPolicy("timer", 999)) as (server, _):
        dev = ScriptedPeer.connect(server.address)
        dev.send(Message(MessageType.HELLO, 1))
        dev.expect_push()
        dev.send(Message(MessageType.PULL_MODEL, 1))
        assert dev.expect(MessageType.ERROR).body == b"UNEXPECTED_MESSAGE"
        dev.send(Message(MessageType.MODEL_DATA, 1, model_data_body(initial)))
        assert dev.expect(MessageType.ERROR).body == b"UNEXPECTED_MODEL_DATA"
        dev.close()


def test_server_replaces_reregistered_device_connection():
    initial = make_blob(14)
    with running_server(initial, RoundPolicy("timer", 999)) as (server, _):
        first = ScriptedPeer.connect(server.address)
        first.send(Message(MessageType.HELLO, 5))
        first.expect_push()
        second = ScriptedPeer.connect(server.address)
        second.send(Message(MessageType.HELLO, 5))
        second.expect_push()
        assert first.sock.recv(65536) == b""  # old connection is closed
        first.close()
        second.close()


class FailingPushSocket:
    """A server-side socket whose PUSH_MODEL sends raise, as on a dead link."""

    def __init__(self, sock):
        self._sock = sock

    def sendall(self, data):
        if data[0] == MessageType.PUSH_MODEL:
            raise OSError("injected send failure")
        self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class RecordingSocket:
    """A socket wrapper that keeps every sendall payload and passes it on."""

    def __init__(self, sock=None):
        self._sock = sock
        self.writes = []

    def sendall(self, data):
        self.writes.append(bytes(data))
        if self._sock is not None:
            self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def message_types(data):
    buf = MessageBuffer()
    buf.feed(data)
    return [m.type for m in buf.pop_all()]


def test_model_transfers_are_one_write_each():
    # Written as two calls, a transfer wakes its receiver twice.
    transfer = [MessageType.PUSH_MODEL, MessageType.MODEL_DATA]
    initial, mine = make_blob(52), make_blob(53)
    with running_server(initial, RoundPolicy("count", 1)) as (server, thread):
        dev = ScriptedPeer.connect(server.address)
        dev.send(Message(MessageType.HELLO, 0))
        dev.expect_push()
        rec = server._devices[0].sock = RecordingSocket(server._devices[0].sock)
        dev.send(Message(MessageType.ACK, 0))
        dev.push(0, mine)
        dev.expect_push()
        dev.close()
    assert [message_types(w) for w in rec.writes] == [transfer]

    agent = Agent("127.0.0.1", 1, 0, make_stream(1))
    agent.head = head_from_blob(mine)
    agent._sock = RecordingSocket()
    agent._push_model()
    assert [message_types(w) for w in agent._sock.writes] == [transfer]


def test_server_survives_a_failed_push_of_the_new_global():
    initial = make_blob(15)
    blobs = {1: make_blob(16), 0: make_blob(17)}
    with running_server(initial, RoundPolicy("count", 1)) as (server, thread):
        # Device 1 registers first, so the post-round push reaches it first.
        devs = {}
        for device_id in (1, 0):
            devs[device_id] = ScriptedPeer.connect(server.address)
            devs[device_id].send(Message(MessageType.HELLO, device_id))
            devs[device_id].expect_push()
        conn = server._devices[1]
        conn.sock = FailingPushSocket(conn.sock)

        # Device 0 pushes its contribution; device 1 is pulled for its own.
        devs[0].send(Message(MessageType.ACK, 0))
        devs[0].push(0, blobs[0])
        devs[1].expect(MessageType.PULL_MODEL)
        devs[1].send(Message(MessageType.MODEL_DATA, 1, model_data_body(blobs[1])))
        pushed = blob_from_model_data(devs[0].expect_push().body)
        assert np.allclose(pushed.values, (blobs[0].values + blobs[1].values) / 2, atol=1e-6)
        assert devs[1].sock.recv(65536) == b""  # the failed device was dropped

        # The server keeps serving: the surviving device runs a round alone.
        devs[0].send(Message(MessageType.ACK, 0))
        devs[0].push(0, blobs[0])
        devs[0].expect_push()
        assert thread.is_alive()
        assert [r.participants for r in server.history] == [(0, 1), (0,)]
        for dev in devs.values():
            dev.close()


def test_server_pulls_a_device_whose_push_came_before_its_ack():
    initial = make_blob(32)
    early, reply = make_blob(33), make_blob(34)
    with running_server(initial, RoundPolicy("count", 1), max_rounds=1) as (server, thread):
        dev = ScriptedPeer.connect(server.address)
        dev.send(Message(MessageType.HELLO, 1))
        dev.expect_push()
        dev.push(1, early)  # counts toward count:1, but the global is not ACKed
        dev.expect(MessageType.PULL_MODEL)
        dev.send(Message(MessageType.MODEL_DATA, 1, model_data_body(reply)))
        dev.expect_push()
        thread.join(5.0)
        dev.close()
    assert np.array_equal(server.history[0].blob.values, reply.values)


def test_server_does_not_take_a_late_ack_of_an_older_global_for_the_newest():
    initial = make_blob(35)
    mine, stale_push, reply = make_blob(36), make_blob(37), make_blob(38)
    with running_server(
        initial, RoundPolicy("count", 1), round_timeout=0.3, max_rounds=2
    ) as (server, thread):
        d1 = ScriptedPeer.connect(server.address)
        d1.send(Message(MessageType.HELLO, 1))
        d1.expect_push()  # global 0, not yet ACKed
        d2 = ScriptedPeer.connect(server.address)
        d2.send(Message(MessageType.HELLO, 2))
        d2.expect_push()
        d2.send(Message(MessageType.ACK, 2))
        d2.push(2, mine)
        d1.expect(MessageType.PULL_MODEL)  # round 1 closes without device 1
        d1.expect_push()  # global 1
        d2.expect_push()

        # Device 1 acknowledges global 0 only, then pushes a model trained on
        # it: the push triggers round 2 but device 1 must be pulled.
        d1.send(Message(MessageType.ACK, 1))
        d1.push(1, stale_push)
        d1.expect(MessageType.PULL_MODEL)
        d1.send(Message(MessageType.MODEL_DATA, 1, model_data_body(reply)))
        d2.expect(MessageType.PULL_MODEL)  # no push since global 1
        d2.send(Message(MessageType.MODEL_DATA, 2, model_data_body(mine)))
        d1.expect_push()
        d2.expect_push()
        thread.join(5.0)
        d1.close()
        d2.close()
    assert server.history[1].participants == (1, 2)
    expected = (reply.values + mine.values) / 2
    assert np.array_equal(server.history[1].blob.values, expected)


def test_server_takes_a_free_run_devices_latest_push():
    initial = make_blob(39)
    first, latest = make_blob(40), make_blob(41)
    with running_server(initial, RoundPolicy("count", 2), max_rounds=1) as (server, thread):
        dev = ScriptedPeer.connect(server.address)
        dev.send(Message(MessageType.HELLO, 1))
        dev.expect_push()
        dev.send(Message(MessageType.ACK, 1))
        dev.push(1, first)
        dev.push(1, latest)
        result = dev.expect_push()  # no PULL_MODEL: the latest push is used
        assert result.body == model_data_body(latest)
        thread.join(5.0)
        dev.close()
    assert np.array_equal(server.history[0].blob.values, latest.values)


def test_server_labels_a_push_that_crosses_its_pull():
    initial = make_blob(42)
    m1, m2, m3 = make_blob(43), make_blob(44), make_blob(45)
    with running_server(initial, RoundPolicy("count", 1), max_rounds=1) as (server, thread):
        dev = ScriptedPeer.connect(server.address)
        dev.send(Message(MessageType.HELLO, 1))
        dev.expect_push()
        dev.push(1, m1)  # before the ACK, so the round pulls
        dev.expect(MessageType.PULL_MODEL)
        # The server sees a second push arrive after its PULL and before the
        # reply, as when a device pushes before it reads the PULL.
        dev.push(1, m2)
        dev.send(Message(MessageType.MODEL_DATA, 1, model_data_body(m3)))
        dev.expect_push()
        thread.join(5.0)
        dev.close()
    assert np.array_equal(server.history[0].blob.values, m3.values)


def test_count_round_of_two_sync_agents_uploads_each_model_once(monkeypatch):
    # Count at the server's two byte boundaries, where a benchmark counts too.
    moved = collections.Counter()  # bytes in both directions, by rounds finished
    sent_types = []
    encode = server_module.encode_message

    def counted_encode(msg):
        data = encode(msg)
        sent_types.append(msg.type)
        moved[len(server.history)] += len(data)
        return data

    class CountedBuffer(server_module.MessageBuffer):
        def feed(self, data):
            moved[len(server.history)] += len(data)
            super().feed(data)

    monkeypatch.setattr(server_module, "encode_message", counted_encode)
    monkeypatch.setattr(server_module, "MessageBuffer", CountedBuffer)
    ds = synth_separable(1280, 2, 40, 4.0, 50, val_fraction=0.0)
    streams = partition(ds, 2, 50)
    blob0 = make_blob(51, e=1280, c=2)
    with running_server(blob0, RoundPolicy("count", 2), max_rounds=3) as (server, thread):
        with running_agent(server.address, 0, streams[0], sync_batch=2, local_episodes=1):
            with running_agent(server.address, 1, streams[1], sync_batch=2, local_episodes=1):
                thread.join(30.0)
                assert not thread.is_alive()

    assert [r.participants for r in server.history] == [(0, 1)] * 3
    assert MessageType.PULL_MODEL not in sent_types
    # Per device and round: one upload (PUSH_MODEL 8 + MODEL_DATA 20,536),
    # the new global (8 + 20,536) and its ACK (8): 41,096 bytes.
    assert moved[1] == moved[2] == 2 * 41_096 == 82_192


def test_server_drops_a_connection_declaring_a_body_over_the_model_size():
    initial = make_blob(46)
    mine = make_blob(47)
    cap = framed_size(encoded_size(8, 2))  # a whole MODEL_DATA body of this model
    with running_server(initial, RoundPolicy("count", 1), max_rounds=1) as (server, thread):
        dev = ScriptedPeer.connect(server.address)
        dev.send(Message(MessageType.HELLO, 1))
        dev.expect_push()
        rogue = ScriptedPeer.connect(server.address)
        rogue.sock.sendall(struct.pack("<BBHI", MessageType.MODEL_DATA, 9, 0, cap + 1))
        assert f"exceeds cap {cap}".encode() in rogue.expect(MessageType.ERROR).body
        assert rogue.sock.recv(65536) == b""  # dropped
        rogue.close()

        dev.send(Message(MessageType.ACK, 1))
        dev.push(1, mine)  # a body of exactly the cap still passes
        dev.expect_push()
        thread.join(5.0)
        dev.close()
    assert server.history[0].participants == (1,)


def test_server_builds_one_model_data_body_per_global(monkeypatch):
    calls = collections.Counter()

    def counting(name):
        original = getattr(server_module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(server_module, name, wrapper)

    for name in ("encode_model", "frame_bytes", "model_data_body"):
        counting(name)
    initial = make_blob(60)
    with running_server(initial, RoundPolicy("count", 3), max_rounds=2) as (server, thread):
        devs = [ScriptedPeer.connect(server.address) for _ in range(3)]
        for device_id, dev in enumerate(devs):
            dev.send(Message(MessageType.HELLO, device_id))
            assert dev.expect_push().body == model_data_body(initial)
        for r in range(2):
            for device_id, dev in enumerate(devs):
                dev.send(Message(MessageType.ACK, device_id))
                dev.push(device_id, make_blob(61 + 3 * r + device_id))
            bodies = {dev.expect_push().body for dev in devs}
            assert len(bodies) == 1  # every device gets the same bytes
            assert bodies == {model_data_body(server.history[r].blob)}
        thread.join(5.0)
        for dev in devs:
            dev.close()
    assert calls == {"encode_model": 3, "frame_bytes": 3}  # the initial global + 2 rounds
    for record in server.history:
        assert record.checksum == zlib.crc32(encode_model(record.blob))


@pytest.mark.parametrize("byte_at_a_time", [False, True])
def test_server_handles_a_valid_push_written_before_a_bad_header(byte_at_a_time):
    initial, mine = make_blob(64), make_blob(65)
    with running_server(initial, RoundPolicy("count", 2)) as (server, thread):
        dev = ScriptedPeer.connect(server.address)
        dev.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        dev.send(Message(MessageType.HELLO, 0))
        dev.expect_push()
        dev.send(Message(MessageType.ACK, 0))
        conn = server._devices[0]
        assert wait_until(lambda: conn.unacked == 0)
        stream = (encode_message(Message(MessageType.PUSH_MODEL, 0))
                  + encode_message(Message(MessageType.MODEL_DATA, 0, model_data_body(mine)))
                  + struct.pack("<BBHI", MessageType.ACK, 0, 1, 0))  # reserved != 0
        if byte_at_a_time:
            for i in range(len(stream)):
                dev.sock.sendall(stream[i : i + 1])
        else:
            dev.sock.sendall(stream)
        assert b"reserved" in dev.expect(MessageType.ERROR).body
        assert dev.sock.recv(65536) == b""  # dropped
        dev.close()
        # The push was validated and counted before the drop.
        assert server._updates == 1
        assert np.array_equal(conn.pushed.values, mine.values)


@pytest.mark.parametrize("byte_at_a_time", [False, True])
def test_agent_installs_a_push_written_before_a_bad_header(byte_at_a_time):
    blob = make_blob(66)
    stream = make_stream(4)
    stream.take(4)
    fake = ScriptedServer()
    with running_agent(fake.address, 4, stream) as worker:
        conn = fake.accept()
        conn.expect(MessageType.HELLO)
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        data = (encode_message(Message(MessageType.PUSH_MODEL, 0))
                + encode_message(Message(MessageType.MODEL_DATA, 0, model_data_body(blob)))
                + struct.pack("<BBHI", MessageType.PULL_MODEL, 0, 1, 0))  # reserved != 0
        if byte_at_a_time:
            for i in range(len(data)):
                conn.sock.sendall(data[i : i + 1])
        else:
            conn.sock.sendall(data)
        assert conn.expect(MessageType.ACK).body == STATUS_DATA_EXHAUSTED
        assert b"reserved" in conn.expect(MessageType.ERROR).body
        assert worker.installs == 1
        conn.close()
    fake.close()


def test_server_rejects_validation_samples_of_another_dim():
    ds = synth_separable(8, 2, 20, 4.0, 1, val_fraction=0.5)
    with pytest.raises(ShapeError, match="dim 8, model expects 16"):
        Server("127.0.0.1", 0, make_blob(1, e=16), RoundPolicy("count", 1),
               validation=ds.validation_samples())


def test_server_scores_a_stacked_validation_set_like_the_list():
    initial = make_blob(1)
    ds = synth_separable(8, 2, 50, 4.0, 1, val_fraction=0.5)
    mine = make_blob(2)
    with running_server(
        initial, RoundPolicy("count", 1), validation=ds.stacked_validation(),
        round_timeout=5.0, max_rounds=1,
    ) as (server, thread):
        dev = ScriptedPeer.connect(server.address)
        dev.send(Message(MessageType.HELLO, 3))
        dev.expect_push()
        dev.send(Message(MessageType.ACK, 3))
        dev.push(3, mine)
        dev.expect_push()
        thread.join(5.0)
        dev.close()
    assert server.history[0].val_accuracy == evaluate(mine, ds.validation_samples())
    with pytest.raises(ShapeError, match="dim 8, model expects 16"):
        Server("127.0.0.1", 0, make_blob(1, e=16), RoundPolicy("count", 1),
               validation=ds.stacked_validation())


def test_server_rejects_a_model_too_large_to_frame():
    # E=1280, C=64 encodes to 327,952 bytes: 81,988 four-byte frames.
    blob = ModelBlob(np.zeros(64 * 1280 + 64), 1280, 64)
    with pytest.raises(ProtocolError, match="81988 frames"):
        Server("127.0.0.1", 0, blob, RoundPolicy("count", 1))


# -- agent against a scripted server -----------------------------------------------


def test_agent_answers_pull_before_install_with_no_model():
    fake = ScriptedServer()
    with running_agent(fake.address, 7, make_stream(4)):
        conn = fake.accept()
        hello = conn.expect(MessageType.HELLO)
        assert hello.device_id == 7
        conn.send(Message(MessageType.PULL_MODEL, 0))
        err = conn.expect(MessageType.ERROR)
        assert err.body == b"NO_MODEL"
        # MODEL_DATA without a preceding PUSH announcement is refused too.
        conn.send(Message(MessageType.MODEL_DATA, 0, model_data_body(make_blob(0))))
        assert conn.expect(MessageType.ERROR).body == b"UNEXPECTED_MODEL_DATA"
        conn.close()
    fake.close()


def test_agent_echoes_installed_model_and_reports_exhaustion():
    blob = make_blob(20)
    stream = make_stream(4)
    stream.take(4)  # nothing left to train on
    fake = ScriptedServer()
    with running_agent(fake.address, 1, stream) as worker:
        conn = fake.accept()
        conn.expect(MessageType.HELLO)
        body = model_data_body(blob)
        conn.send(Message(MessageType.PUSH_MODEL, 0))
        conn.send(Message(MessageType.MODEL_DATA, 0, body))
        ack = conn.expect(MessageType.ACK)
        assert ack.body == STATUS_DATA_EXHAUSTED
        conn.send(Message(MessageType.PULL_MODEL, 0))
        reply = conn.expect(MessageType.MODEL_DATA)
        assert reply.body == body  # byte-identical echo
        assert worker.installs == 1 and worker.samples_trained == 0
        conn.close()
    fake.close()


def test_agent_free_run_matches_offline_replay():
    blob = make_blob(21)
    stream = make_stream(6, seed=3)
    oracle_stream = make_stream(6, seed=3)  # same permutation, untouched
    fake = ScriptedServer()
    with running_agent(
        fake.address, 2, stream, learning_rate=0.05, local_episodes=2
    ) as worker:
        conn = fake.accept()
        conn.expect(MessageType.HELLO)
        conn.send(Message(MessageType.PUSH_MODEL, 0))
        conn.send(Message(MessageType.MODEL_DATA, 0, model_data_body(blob)))
        ack = conn.expect(MessageType.ACK)
        assert ack.body == b""  # data remains
        assert wait_until(lambda: worker.samples_trained == 6)
        conn.send(Message(MessageType.PULL_MODEL, 0))
        reply = conn.expect(MessageType.MODEL_DATA)
        expected = replay_training(
            blob, oracle_stream.take(6), learning_rate=0.05, local_episodes=2
        )
        assert reply.body == model_data_body(expected)
        conn.close()
    fake.close()


def test_agent_rejects_bad_pushes_and_keeps_its_head():
    blob = make_blob(22)
    stream = make_stream(4)
    stream.take(4)
    fake = ScriptedServer()
    with running_agent(fake.address, 3, stream) as worker:
        conn = fake.accept()
        conn.expect(MessageType.HELLO)
        body = model_data_body(blob)
        conn.send(Message(MessageType.PUSH_MODEL, 0))
        conn.send(Message(MessageType.MODEL_DATA, 0, body))
        conn.expect(MessageType.ACK)

        corrupt = bytearray(body)
        corrupt[36] ^= 0xFF
        conn.send(Message(MessageType.PUSH_MODEL, 0))
        conn.send(Message(MessageType.MODEL_DATA, 0, bytes(corrupt)))
        assert conn.expect(MessageType.ERROR).body == b"CorruptionError"

        wrong_shape = model_data_body(make_blob(23, e=9))
        conn.send(Message(MessageType.PUSH_MODEL, 0))
        conn.send(Message(MessageType.MODEL_DATA, 0, wrong_shape))
        assert conn.expect(MessageType.ERROR).body == b"ShapeError"

        conn.send(Message(MessageType.PULL_MODEL, 0))
        assert conn.expect(MessageType.MODEL_DATA).body == body
        assert worker.installs == 1
        conn.close()
    fake.close()


def test_agent_sync_mode_trains_one_batch_per_install():
    blob = make_blob(24)
    stream = make_stream(8, seed=5)
    dup = make_stream(8, seed=5)
    first4, next4 = dup.take(4), dup.take(4)
    fake = ScriptedServer()
    with running_agent(
        fake.address, 4, stream, learning_rate=0.02, local_episodes=3, sync_batch=4
    ) as worker:
        conn = fake.accept()
        conn.expect(MessageType.HELLO)
        conn.send(Message(MessageType.PUSH_MODEL, 0))
        conn.send(Message(MessageType.MODEL_DATA, 0, model_data_body(blob)))
        conn.expect(MessageType.ACK)

        conn.expect(MessageType.PUSH_MODEL)
        push1 = conn.expect(MessageType.MODEL_DATA)
        step1 = replay_training(
            blob, first4, learning_rate=0.02, local_episodes=3, batch_size=4
        )
        assert push1.body == model_data_body(step1)

        time.sleep(0.2)  # no install, so the agent must idle
        assert worker.samples_trained == 4

        conn.send(Message(MessageType.PUSH_MODEL, 0))
        conn.send(Message(MessageType.MODEL_DATA, 0, push1.body))
        conn.expect(MessageType.ACK)
        conn.expect(MessageType.PUSH_MODEL)
        push2 = conn.expect(MessageType.MODEL_DATA)
        # The reinstall passed through the wire, so the oracle must start
        # from the float32 copy, not from the agent's float64 step1 state.
        step2 = replay_training(
            blob_from_model_data(push1.body), next4,
            learning_rate=0.02, local_episodes=3, batch_size=4,
        )
        assert push2.body == model_data_body(step2)
        assert worker.samples_trained == 8
        conn.close()
    fake.close()


@pytest.mark.parametrize("sync_batch", [None, 4])
def test_agent_head_is_bitwise_stacked_training_and_its_install_is_unchanged(
    monkeypatch, sync_batch
):
    # The agent draws list batches; the same training on stacked batches must
    # give its head bit for bit, and must not write into the installed blob,
    # whose values the head starts out viewing.
    agent_module = importlib.import_module("fedhead.runtime.agent")
    decoded = []

    def recording(body):
        blob = blob_from_model_data(body)
        decoded.append((blob, blob.values.copy()))
        return blob

    monkeypatch.setattr(agent_module, "blob_from_model_data", recording)
    stream, twin = make_stream(8, seed=9), make_stream(8, seed=9)
    fake = ScriptedServer()
    with running_agent(
        fake.address, 6, stream, learning_rate=0.3, local_episodes=3, sync_batch=sync_batch
    ) as worker:
        conn = fake.accept()
        conn.expect(MessageType.HELLO)
        conn.push(0, make_blob(25))
        conn.expect(MessageType.ACK)
        if sync_batch is None:
            assert wait_until(lambda: worker.samples_trained == 8)
            batches = [twin.take(1, stacked=True) for _ in range(8)]
        else:
            conn.expect_push()
            assert worker.samples_trained == 4
            batches = [twin.take(4, stacked=True)]
        (installed, values), = decoded
        head = head_from_blob(installed)
        for batch in batches:
            head = train_batch(head, batch, 0.3, 3)
        assert np.array_equal(worker.head.weights, head.weights)
        assert np.array_equal(worker.head.bias, head.bias)
        assert np.array_equal(installed.values, values)
        conn.close()
    fake.close()


def test_agent_gives_up_after_bounded_reconnects_but_trains_offline():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    dead_port = probe.getsockname()[1]
    probe.close()

    stream = make_stream(12, seed=6)
    worker = Agent(
        "127.0.0.1", dead_port, 5, stream,
        learning_rate=0.05, local_episodes=1,
        reconnect_attempts=2, backoff_base=0.2, backoff_max=0.2,
    )
    worker.head = init_head(8, 2, "random", seed=6)  # as if previously installed
    start = time.monotonic()
    with pytest.raises(ConnectionError, match="device 5"):
        worker.run()
    assert time.monotonic() - start < 5.0
    assert worker.samples_trained == 12  # offline training during backoff


def test_agent_rejects_device_id_outside_header_byte():
    for device_id in (-1, 256, 300):
        with pytest.raises(ValueError, match="device_id"):
            Agent("h", 1, device_id, make_stream(4))


def test_agent_validates_mode_arguments():
    with pytest.raises(ValueError):
        Agent("h", 1, 0, make_stream(4), sync_batch=0)
    with pytest.raises(ValueError):
        Agent("h", 1, 0, make_stream(4), push_every=0)


# -- end to end: live rounds equal the offline simulation ---------------------------


def test_loopback_rounds_match_offline_simulation():
    rounds, batch = 6, 5
    ds = synth_separable(8, 2, 90, 4.0, 30, val_fraction=1 / 3)
    blob0 = make_blob(31)
    sim = run_training(
        RoundConfig(num_devices=2, batch_size=batch, local_episodes=2,
                    learning_rate=0.05, epochs=rounds),
        partition(ds, 2, 30),
        ds.validation_samples(),
        "pretrained",
        init_blob=blob0,
    )

    streams = partition(ds, 2, 30)
    with running_server(blob0, RoundPolicy("count", 2), max_rounds=rounds) as (server, thread):
        with running_agent(
            server.address, 0, streams[0],
            learning_rate=0.05, local_episodes=2, sync_batch=batch,
        ):
            with running_agent(
                server.address, 1, streams[1],
                learning_rate=0.05, local_episodes=2, sync_batch=batch,
            ):
                thread.join(30.0)
                assert not thread.is_alive()

    assert len(server.history) == rounds
    for t, record in enumerate(server.history):
        assert record.participants == (0, 1)
        drift = np.max(np.abs(record.blob.values - sim.round_blobs[t].values))
        assert drift <= 1e-6, f"round {t + 1} drifted by {drift}"
    live_acc = evaluate(server.history[-1].blob, ds.validation_samples())
    assert abs(live_acc - sim.history[-1].val_accuracy) <= 0.1
