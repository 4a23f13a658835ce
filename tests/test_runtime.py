"""Message layer, and the server and agent over sockets.

Loopback tests script a fake device against a threaded Server, or a fake
server against a threaded Agent, for what only the I/O shells do: socket
reads split at any byte, one write per transfer, unread writes, reconnect and
backoff, scoring and logging each round, and the names the benchmark
patches. The socket-free cores, the server's `Rounds` and the agent's
`Device`, are tested in tests/test_cores.py, by example and under their
fault models. Every socket has a timeout, so a wedged exchange fails the
test instead of hanging it.
"""
import collections
import contextlib
import importlib
import logging
import pathlib
import selectors
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
from fedhead.federation import ModelBlob, RoundConfig, evaluate, run_training
from fedhead.nn import StackedSamples, init_head, stack_samples
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
from fedhead.runtime import agent as agent_module
from fedhead.runtime import server as server_module
from fedhead.runtime.protocol import MAX_BODY, MAX_QUEUED_WRITES, Link
from fedhead.wire import encode_model, encoded_size, framed_size
from nn_reference import wire_rounded_rounds
from test_cores import count_calls, device, make_blob, make_stream, push, tell


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
            got.extend(iter(buf.pop, None))
    got.extend(iter(buf.pop, None))
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
            got.extend(iter(buf.pop, None))
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
    assert whole == got == msgs  # every message before the bad header is popped


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
    assert parse_endpoint("h:0") == ("h", 0)
    assert parse_endpoint("h:65535") == ("h", 65535)
    for text in ("h:65536", "127.0.0.1:70000", "127.0.0.1:73236"):
        with pytest.raises(ValueError, match="0-65535"):
            parse_endpoint(text)


def test_link_queues_what_the_socket_does_not_take_and_flushes_it_in_order():
    mine, theirs = loopback_pair()
    mine.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 65536)
    theirs.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 65536)
    sel = selectors.DefaultSelector()
    link = Link(mine, sel, MessageBuffer())
    sel.register(theirs, selectors.EVENT_READ, None)
    # Far more than the connection buffers, so the first write is partial.
    payloads = [bytes([i]) * 300_000 for i in range(MAX_QUEUED_WRITES)]
    try:
        for payload in payloads:
            link.send(payload)
        assert sel.get_key(mine).events == selectors.EVENT_READ | selectors.EVENT_WRITE
        with pytest.raises(ConnectionError, match="unread"):
            link.send(b"one write too many")
        received = bytearray()
        while len(received) < sum(map(len, payloads)):
            for key, events in sel.select(timeout=5.0):
                if key.data is None:
                    received += theirs.recv(1 << 20)
                elif events & selectors.EVENT_WRITE:
                    link.flush()
        assert received == b"".join(payloads)
        assert sel.get_key(mine).events == selectors.EVENT_READ
        link.send(b"queue empty again")
        assert theirs.recv(64) == b"queue empty again"
    finally:
        link.close()
        theirs.close()
        sel.close()
    with pytest.raises(ConnectionError):
        link.send(b"closed")


def test_round_policy_parsing():
    assert RoundPolicy.parse("count:3") == RoundPolicy("count", 3.0)
    assert RoundPolicy.parse("timer:0.5") == RoundPolicy("timer", 0.5)
    for bad in ("count:0", "count:2.5", "timer:-1", "often:3",
                "count:inf", "count:nan", "timer:inf", "timer:nan"):
        with pytest.raises(ValueError):
            RoundPolicy.parse(bad)
    for bad in ("count", "count:x", "timer:"):  # no number: the message names the text
        with pytest.raises(ValueError) as caught:
            RoundPolicy.parse(bad)
        assert str(caught.value) == f"policy must be count:K or timer:SECONDS, got {bad!r}"


def test_configure_logging_level_gate(monkeypatch):
    monkeypatch.setenv("FTL_LOG_LEVEL", "loud")
    with pytest.raises(ValueError):
        configure_logging()
    monkeypatch.setenv("FTL_LOG_LEVEL", "error")
    configure_logging()
    assert logging.getLogger("fedhead").level == logging.ERROR
    monkeypatch.setenv("FTL_LOG_LEVEL", "info")
    configure_logging()


# -- the server over loopback sockets -----------------------------------------------


class RecordingSocket:
    """A socket wrapper that keeps every send payload and passes it on."""

    def __init__(self, sock):
        self._sock = sock
        self.writes = []

    def send(self, data):
        self.writes.append(bytes(data))
        return self._sock.send(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def loopback_pair():
    """The two ends of one loopback TCP connection."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        mine = socket.create_connection(listener.getsockname(), timeout=5.0)
        theirs, _ = listener.accept()
    theirs.settimeout(5.0)
    return mine, theirs


def message_types(data):
    buf = MessageBuffer()
    buf.feed(data)
    return [m.type for m in iter(buf.pop, None)]


def test_model_transfers_are_one_write_each():
    # Written as two calls, a transfer wakes its receiver twice.
    transfer = [MessageType.PUSH_MODEL, MessageType.MODEL_DATA]
    initial, mine = make_blob(52), make_blob(53)
    with running_server(initial, RoundPolicy("count", 1)) as (server, thread):
        dev = ScriptedPeer.connect(server.address)
        dev.send(Message(MessageType.HELLO, 0))
        dev.expect_push()
        rec = server._rounds._devices[0].sock = RecordingSocket(server._rounds._devices[0].sock)
        dev.send(Message(MessageType.ACK, 0))
        dev.push(0, mine)
        dev.expect_push()
        dev.close()
    assert [message_types(w) for w in rec.writes] == [transfer]

    # The device queues its push as one send, and the agent writes each send at once.
    dev = device(make_stream(1), sync_batch=1)
    tell(dev, *push(initial))
    assert dev.step()
    assert [[m.type for m in msgs] for msgs in dev.output()] == [transfer]


def test_server_keeps_running_rounds_past_a_peer_that_stops_reading(caplog):
    # The deaf peer's socket buffers fill with pushed globals (about 102 KB
    # each at E = 1280, C = 10); once MAX_QUEUED_WRITES more wait, it is dropped.
    caplog.set_level(logging.WARNING, logger="fedhead.runtime.server")
    ds = synth_separable(1280, 10, 400, 4.0, 72, val_fraction=0.0)
    (stream,) = partition(ds, 1, 72)
    blob0 = make_blob(72, e=1280, c=10)
    with running_server(blob0, RoundPolicy("count", 1), round_timeout=0.2) as (server, _):
        with running_agent(server.address, 0, stream, sync_batch=1, local_episodes=1):
            assert wait_until(lambda: len(server.history) >= 1)
            deaf = socket.socket()
            deaf.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            deaf.connect(server.address)
            deaf.sendall(encode_message(Message(MessageType.HELLO, 9)))
            start = len(server.history)
            assert wait_until(lambda: len(server.history) >= start + 200, timeout=30.0)
            assert wait_until(lambda: 9 not in server._rounds._devices)
            deaf.close()
    assert any("writes unread" in r.getMessage() for r in caplog.records)


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


def test_server_calls_each_name_the_benchmark_patches_on_it(monkeypatch):
    # perfbench's traced server wraps these names where this module looks them
    # up; one the server stopped calling there would read as zero calls.
    # model_data_body is wrapped there too, though only the agent calls it.
    monkeypatch.syspath_prepend(pathlib.Path(__file__).parents[1] / "perfbench")
    names = {attr for owner, attr, _, _ in importlib.import_module("layers").server_plan()
             if owner is server_module} - {"model_data_body"}
    assert names == {"evaluate", "average_blobs", "encode_model", "encode_message",
                     "blob_from_model_data"}
    calls = count_calls(monkeypatch, names)
    ds = synth_separable(8, 2, 90, 4.0, 32, val_fraction=1 / 3)
    streams = partition(ds, 2, 32)
    with running_server(make_blob(33), RoundPolicy("count", 2), max_rounds=1,
                        validation=ds.validation_samples()) as (server, thread):
        with running_agent(server.address, 0, streams[0], sync_batch=5):
            with running_agent(server.address, 1, streams[1], sync_batch=5):
                thread.join(30.0)
                assert not thread.is_alive()
    assert calls.keys() == names


@pytest.mark.parametrize("byte_at_a_time", [False, True])
def test_server_handles_a_valid_push_written_before_a_bad_header(byte_at_a_time):
    initial, mine = make_blob(64), make_blob(65)
    with running_server(initial, RoundPolicy("count", 2)) as (server, thread):
        dev = ScriptedPeer.connect(server.address)
        dev.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        dev.send(Message(MessageType.HELLO, 0))
        dev.expect_push()
        dev.send(Message(MessageType.ACK, 0))
        conn = server._rounds._peers[server._rounds._devices[0]]
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
        assert server._rounds._updates == 1
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


def test_server_stacks_a_validation_list_e_major():
    ds = synth_separable(1280, 2, 1250, 4.0, 43, val_fraction=0.8)
    samples = ds.validation_samples()
    with running_server(make_blob(1, e=1280), RoundPolicy("count", 1),
                        validation=samples) as (server, _):
        got = server._validation
    assert got.features.dtype == np.float64 and got.features.flags.f_contiguous
    assert np.array_equal(got.features, stack_samples(samples).features)
    assert np.array_equal(got.labels, ds.labels[ds.validation_indices()])


def test_server_pushes_the_new_global_before_it_scores_it(monkeypatch):
    # Scoring waits for the device to hold the new global; scored first, the
    # push would come only after the wait timed out.
    pushed, waits = threading.Event(), []

    def gated_evaluate(blob, samples):
        waits.append(pushed.wait(2.0))
        return evaluate(blob, samples)

    monkeypatch.setattr(server_module, "evaluate", gated_evaluate)
    initial, mine = make_blob(1), make_blob(2)
    ds = synth_separable(8, 2, 50, 4.0, 1, val_fraction=0.5)
    with running_server(initial, RoundPolicy("count", 1), validation=ds.validation_samples(),
                        max_rounds=1) as (server, thread):
        dev = ScriptedPeer.connect(server.address)
        dev.send(Message(MessageType.HELLO, 3))
        dev.expect_push()
        dev.send(Message(MessageType.ACK, 3))
        dev.push(3, mine)
        assert dev.expect_push().body == model_data_body(mine)
        pushed.set()
        thread.join(5.0)
        assert not thread.is_alive()
        dev.close()
    assert waits == [True]
    assert server.history[0].val_accuracy == evaluate(mine, ds.validation_samples())


def test_server_logs_each_rounds_checksum_and_accuracy_in_order(caplog):
    caplog.set_level(logging.INFO, logger="fedhead.runtime.server")
    ds = synth_separable(8, 2, 90, 4.0, 32, val_fraction=1 / 3)
    streams = partition(ds, 2, 32)
    with running_server(make_blob(33), RoundPolicy("count", 2), max_rounds=3,
                        validation=ds.validation_samples()) as (server, thread):
        with running_agent(server.address, 0, streams[0], sync_batch=5, local_episodes=2):
            with running_agent(server.address, 1, streams[1], sync_batch=5, local_episodes=2):
                thread.join(30.0)
                assert not thread.is_alive()

    logged = [r.getMessage() for r in caplog.records
              if r.name == "fedhead.runtime.server" and r.getMessage().startswith("round ")]
    assert logged == [
        f"round {r.index}: 2 devices, checksum {r.checksum:08x}, val_acc {r.val_accuracy:.4f}"
        for r in server.history
    ]
    assert [r.index for r in server.history] == [1, 2, 3]
    for r in server.history:
        assert r.checksum == zlib.crc32(encode_model(r.blob))
        assert r.val_accuracy == evaluate(r.blob, ds.validation_samples())
        assert r.val_accuracy == evaluate(r.blob, ds.stacked_validation())


def test_server_rejects_a_model_too_large_to_frame():
    # E=1280, C=64 encodes to 327,952 bytes: 81,988 four-byte frames.
    blob = ModelBlob(np.zeros(64 * 1280 + 64), 1280, 64)
    with pytest.raises(ProtocolError, match="81988 frames"):
        Server("127.0.0.1", 0, blob, RoundPolicy("count", 1))


# -- the agent over loopback sockets ------------------------------------------------


def test_agent_calls_each_name_the_benchmark_patches_on_it(monkeypatch):
    # perfbench's traced load generator wraps these names where the agent
    # module looks them up, so Device and its shell must both live there.
    monkeypatch.syspath_prepend(pathlib.Path(__file__).parents[1] / "perfbench")
    names = {attr for owner, attr, _, _ in importlib.import_module("layers").agent_plan()
             if owner is agent_module} - {"blob_from_head", "head_from_blob"}
    assert names == {"train_batch", "encode_message", "model_data_body", "blob_from_model_data"}
    calls = count_calls(monkeypatch, names, agent_module)
    # A sync agent installs the greeting, trains a step and pushes it.
    with running_server(make_blob(34), RoundPolicy("count", 1), max_rounds=1) as (server, thread):
        with running_agent(server.address, 0, make_stream(8), sync_batch=4):
            thread.join(30.0)
            assert not thread.is_alive()
    assert calls.keys() == names


def test_free_run_agent_reconnects_when_its_server_stops_reading():
    ds = synth_separable(1280, 10, 300, 4.0, 74, val_fraction=0.0)
    (stream,) = partition(ds, 1, 74)
    fake = ScriptedServer()
    with running_agent(fake.address, 3, stream, push_every=1, local_episodes=1) as worker:
        deaf = fake.accept()
        deaf.expect(MessageType.HELLO)
        deaf.sock.sendall(
            encode_message(Message(MessageType.PUSH_MODEL, 0))
            + encode_message(Message(MessageType.MODEL_DATA, 0,
                                     model_data_body(make_blob(74, e=1280, c=10))))
        )
        # The server reads nothing more: each push (about 102 KB) stays unread.
        again = fake.accept()
        again.expect(MessageType.HELLO)
        trained = worker.samples_trained
        assert wait_until(lambda: worker.samples_trained > trained)
        again.close()
        deaf.close()
    fake.close()


@pytest.mark.parametrize("kw", [
    {"round_timeout": 0.0}, {"round_timeout": -1.0}, {"round_timeout": float("nan")},
    {"round_timeout": float("inf")}, {"max_rounds": 0},
])
def test_server_rejects_round_limits_that_cannot_work(kw):
    with pytest.raises(ValueError, match="round"):
        Server("127.0.0.1", 0, make_blob(1), RoundPolicy("count", 1), **kw)



def test_server_rejects_a_non_finite_validation_set_at_construction():
    ds = synth_separable(8, 2, 50, 4.0, 9, val_fraction=0.2)
    validation = ds.validation_samples()
    validation[4].features[1] = np.inf  # a view of ds.features
    with pytest.raises(ValueError, match="validation features must be finite"):
        Server("127.0.0.1", 0, make_blob(1), RoundPolicy("count", 1), validation=validation)
    # An empty set, as a list or stacked, is no set to score on, not "no validation".
    for empty in ([], StackedSamples(np.empty((0, 8)), np.empty(0, dtype=np.int64))):
        with pytest.raises(ValueError, match="validation set must be non-empty"):
            Server("127.0.0.1", 0, make_blob(1), RoundPolicy("count", 1), validation=empty)


def test_agent_gives_up_after_bounded_reconnects_but_trains_offline():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    dead_port = probe.getsockname()[1]
    probe.close()

    stream = make_stream(12, seed=6)
    worker = Agent(
        "127.0.0.1", dead_port, 5, stream,
        learning_rate=0.05, local_episodes=1,
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
    # The training settings follow train_batch's own rules.
    for kw in ({"sync_batch": 0}, {"push_every": 0}, {"local_episodes": 0},
               {"learning_rate": -0.1}, {"learning_rate": float("nan")},
               {"learning_rate": float("inf")}, {"sync_batch": 4, "push_every": 10}):
        with pytest.raises(ValueError):
            Agent("h", 1, 0, make_stream(4), **kw)


# -- end to end: live rounds equal the offline simulation ---------------------------


@pytest.mark.parametrize("fault", ["garbage_after_hello", "disconnect_mid_model_data"])
def test_faulty_peer_leaves_loopback_rounds_equal_to_offline_simulation(fault):
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
    kw = dict(learning_rate=0.05, local_episodes=2, sync_batch=batch)
    with running_server(blob0, RoundPolicy("count", 2), max_rounds=rounds) as (server, thread):
        with running_agent(server.address, 0, streams[0], **kw):
            # Device 0 has pushed; round 1 waits for device 1's push.
            assert wait_until(lambda: server._rounds._updates == 1)
            rogue = ScriptedPeer.connect(server.address)
            if fault == "garbage_after_hello":
                rogue.sock.sendall(encode_message(Message(MessageType.HELLO, 9)) + b"\xff" * 64)
                rogue.expect_push()
                rogue.expect(MessageType.ERROR)
                assert rogue.sock.recv(65536) == b""  # dropped
            else:
                rogue.send(Message(MessageType.HELLO, 9))
                rogue.expect_push()
                rogue.send(Message(MessageType.ACK, 9))  # so that rounds wait on it
                upload = encode_message(Message(MessageType.MODEL_DATA, 9, model_data_body(blob0)))
                rogue.send(Message(MessageType.PUSH_MODEL, 9))
                rogue.sock.sendall(upload[: len(upload) // 2])
            with running_agent(server.address, 1, streams[1], **kw):
                if fault == "disconnect_mid_model_data":
                    rogue.expect(MessageType.PULL_MODEL)  # round 1 waits on the rogue
                    rogue.close()
                thread.join(30.0)
                assert not thread.is_alive()
            rogue.close()

    # The healthy devices' rounds are the wire-rounded oracle's, bit for bit,
    # and stay within the wire's float32 rounding of the simulator's rounds.
    oracle = wire_rounded_rounds(partition(ds, 2, 30), blob0, batch, 0.05, 2, rounds)
    assert len(server.history) == rounds
    for t, (record, want) in enumerate(zip(server.history, oracle, strict=True)):
        assert record.participants == (0, 1)
        assert np.array_equal(record.blob.values, want.values)
        assert record.checksum == zlib.crc32(encode_model(want))
        drift = np.max(np.abs(record.blob.values - sim.round_blobs[t].values))
        assert drift <= 1e-6, f"round {t + 1} drifted by {drift}"
