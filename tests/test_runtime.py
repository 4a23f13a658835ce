"""Message layer, the round and device cores, and the server and agent over real sockets.

Protocol tests drive the two socket-free cores, the server's `Rounds` and
the agent's `Device`, with messages and a fake clock; a stateful fault model
drives `Rounds` with misbehaving peers, and the two cores run rounds against
each other. Loopback tests script a fake device against a threaded Server,
or a fake server against a threaded Agent, for what only the I/O shells do.
Every socket has a timeout, so a wedged exchange fails the test instead of
hanging it.
"""
import collections
import contextlib
import functools
import importlib
import itertools
import logging
import math
import pathlib
import selectors
import socket
import struct
import threading
import time
import types
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, rule, run_state_machine_as_test,
)

from fedhead.data import partition, synth_separable
from fedhead.errors import ProtocolError, ShapeError
from fedhead.federation import (
    ModelBlob, RoundConfig, average_blobs, evaluate, run_training,
)
from fedhead.nn import StackedSamples, init_head, stack_samples, train_batch
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
from fedhead.wire import decode_model, encode_model, encoded_size, framed_size


def make_blob(seed, e=8, c=2):
    """A random head whose values are exactly representable in float32."""
    return decode_model(encode_model(init_head(e, c, "random", seed=seed)))


def make_stream(n, seed=0, e=8):
    ds = synth_separable(e, 2, n, 4.0, seed, val_fraction=0.0)
    (stream,) = partition(ds, 1, seed)
    return stream


def replay_training(blob, samples, *, learning_rate, local_episodes, batch_size=1):
    """What an agent does to an installed blob: train_batch over consecutive
    batches. The same samples in the same order reproduce its head bitwise."""
    for i in range(0, len(samples), batch_size):
        blob = train_batch(blob, samples[i : i + batch_size], learning_rate, local_episodes)
    return blob


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
    for bad in ("count", "count:0", "count:2.5", "timer:-1", "often:3",
                "count:inf", "count:nan", "timer:inf", "timer:nan"):
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


# -- the round core, on a fake clock ----------------------------------------------------

hello = functools.partial(Message, MessageType.HELLO)
ack = functools.partial(Message, MessageType.ACK)
PULL = (Message(MessageType.PULL_MODEL, 0),)


def reply(device_id, blob):
    return Message(MessageType.MODEL_DATA, device_id, model_data_body(blob))


def push(blob, device_id=0):
    """One transfer, as one write carries it: PUSH_MODEL and its MODEL_DATA."""
    return (Message(MessageType.PUSH_MODEL, device_id), reply(device_id, blob))


def error(body, device_id=0):
    return (Message(MessageType.ERROR, device_id, body),)


def core(initial, policy, *device_ids, round_timeout=5.0):
    """A `Rounds` at time 0 with a connection registered per id, keyed by the id."""
    rounds = server_module.Rounds(initial, policy, round_timeout, 0.0)
    for device_id in device_ids:
        deliver(rounds, device_id, hello(device_id))
    return rounds


def deliver(rounds, conn, *msgs):
    """Feed `msgs` from `conn` to the core; return the sends it queued."""
    for msg in msgs:
        rounds.receive(conn, msg)
    sends, drops = rounds.output()
    assert drops == []
    return sends


def tick(rounds, now):
    """Tick the core; return the round it finished and the sends it queued."""
    return rounds.tick(now), deliver(rounds, None)  # None delivers no message


def count_calls(monkeypatch, names, module=server_module):
    """Count the calls of each of `names` where `module` looks it up."""
    calls = collections.Counter()

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


def test_server_single_device_round():
    initial, mine = make_blob(1), make_blob(2)
    rounds = core(initial, RoundPolicy("count", 1))
    assert deliver(rounds, 3, hello(3)) == [(3, push(initial))]
    # The push is the device's contribution: no PULL_MODEL comes first.
    assert deliver(rounds, 3, ack(3), *push(mine, 3)) == []
    record, sends = tick(rounds, 0.0)
    assert sends == [(3, push(mine))]  # the averaged global comes back
    assert rounds.history == [record] and record.participants == (3,)
    assert np.array_equal(record.blob.values, mine.values)  # mean of one blob
    assert record.checksum == zlib.crc32(encode_model(mine))
    assert record.val_accuracy is None  # the server scores it, after the push


def test_server_drops_corrupt_reply_from_round_then_forgives():
    good = make_blob(6)
    corrupt = bytearray(model_data_body(good))
    corrupt[36] ^= 0xFF  # a model payload byte inside frame 4
    rounds = core(make_blob(5), RoundPolicy("count", 1), 1, 2)
    deliver(rounds, 2, ack(2))  # device 2 joins rounds once it has ACKed a global
    bad = Message(MessageType.MODEL_DATA, 2, bytes(corrupt))
    for answer, errors, participants in ((bad, [(2, error(b"CorruptionError"))], (1,)),
                                         (reply(2, good), [], (1, 2))):
        # Device 1 pushes its contribution; device 2 never pushes, so it is pulled.
        deliver(rounds, 1, ack(1), *push(good, 1))
        assert tick(rounds, 0.0) == (None, [(2, PULL)])
        assert deliver(rounds, 2, answer) == errors
        record, sends = tick(rounds, 0.0)
        assert record.participants == participants and [c for c, _ in sends] == [1, 2]


def test_server_marks_silent_device_stale_until_it_speaks():
    mine = make_blob(8)
    rounds = core(make_blob(7), RoundPolicy("count", 1), 1, 2, round_timeout=0.5)
    deliver(rounds, 2, ack(2))  # live, then silent
    deliver(rounds, 1, ack(1), *push(mine, 1))
    assert tick(rounds, 1.0) == (None, [(2, PULL)])  # never answered
    assert tick(rounds, 1.25) == (None, [])
    for _ in range(2):  # round 1 closes at its deadline; round 2 does not pull device 2
        record, sends = tick(rounds, 1.5)
        assert record.participants == (1,) and [c for c, _ in sends] == [1, 2]
        deliver(rounds, 1, ack(1), *push(mine, 1))
    deliver(rounds, 2, ack(2))  # once it speaks again, the next round pulls it
    assert tick(rounds, 1.5) == (None, [(2, PULL)])


def test_a_peer_that_never_acks_a_global_holds_no_round():
    # At the default round_timeout, a round that pulled such a peer would wait 5 s.
    initial = make_blob(80)
    rounds = core(initial, RoundPolicy("count", 2), 1, 2)
    assert rounds.round_timeout == 5.0
    assert deliver(rounds, 9, hello(9)) == [(9, push(initial))]  # then silence
    deliver(rounds, 8, hello(8), Message(MessageType.ERROR, 8, b"ShapeError"))  # rejects it
    # An ACK that answers no global, here one before the HELLO, vouches for nothing.
    assert deliver(rounds, 7, ack(7), hello(7)) == [(7, push(initial))]  # then silence
    for r in range(3):
        for d in (1, 2):
            deliver(rounds, d, ack(d), *push(make_blob(81 + 2 * r + d), d))
        record, sends = tick(rounds, 0.0)
        assert record.participants == (1, 2)
        assert [c for c, _ in sends] == [1, 2, 9, 8, 7]  # each still gets every global


def test_server_handles_no_model_reply():
    rounds = core(make_blob(9), RoundPolicy("count", 1), 1, 2)
    deliver(rounds, 2, ack(2))
    deliver(rounds, 1, ack(1), *push(make_blob(10), 1))
    assert tick(rounds, 0.0) == (None, [(2, PULL)])
    assert deliver(rounds, 2, Message(MessageType.ERROR, 2, b"NO_MODEL")) == []
    assert tick(rounds, 0.0)[0].participants == (1,)


def test_server_timer_policy_runs_rounds_without_pushes():
    mine = make_blob(12)
    rounds = core(make_blob(11), RoundPolicy("timer", 0.5), 1)
    deliver(rounds, 1, ack(1))
    assert tick(rounds, 0.25) == (None, [])
    assert tick(rounds, 0.5) == (None, [(1, PULL)])
    deliver(rounds, 1, reply(1, mine))
    assert tick(rounds, 0.75) == (rounds.history[0], [(1, push(mine))])
    assert tick(rounds, 1.0) == (None, [])  # the next round is due 0.5 s after this one
    assert tick(rounds, 1.25) == (None, [(1, PULL)])


def test_server_rejects_out_of_context_messages():
    initial = make_blob(13)
    rounds = core(initial, RoundPolicy("timer", 999), 1)
    pull = Message(MessageType.PULL_MODEL, 1)
    assert deliver(rounds, 1, pull) == [(1, error(b"UNEXPECTED_MESSAGE"))]
    assert deliver(rounds, 1, reply(1, initial)) == [(1, error(b"UNEXPECTED_MODEL_DATA"))]


def test_a_connection_keeps_its_first_device_id():
    initial, mine = make_blob(70), make_blob(71)
    rounds = core(initial, RoundPolicy("count", 1), 1)
    assert deliver(rounds, 1, hello(2)) == [(1, error(b"UNEXPECTED_MESSAGE"))]
    assert rounds._devices == {1: 1}
    assert deliver(rounds, 1, hello(1)) == [(1, push(initial))]  # its own id: greeted again
    rounds.receive("again", hello(1))  # the id from another connection replaces this one
    assert rounds.output() == ([("again", push(initial))], [1])
    assert rounds._devices == {1: "again"}
    rounds.disconnect("again")
    # No id is left on a closed connection for a healthy device's round to wait on.
    deliver(rounds, 3, hello(3), ack(3), *push(mine, 3))
    assert tick(rounds, 0.0) == (rounds.history[0], [(3, push(mine))])


def test_server_survives_a_failed_push_of_the_new_global():
    blobs = {1: make_blob(16), 0: make_blob(17)}
    # Device 1 registers first, so the post-round push reaches it first.
    rounds = core(make_blob(15), RoundPolicy("count", 1), 1, 0)
    deliver(rounds, 1, ack(1))
    deliver(rounds, 0, ack(0), *push(blobs[0], 0))
    assert tick(rounds, 0.0) == (None, [(1, PULL)])
    deliver(rounds, 1, reply(1, blobs[1]))
    assert [c for c, _ in tick(rounds, 0.0)[1]] == [1, 0]
    rounds.disconnect(1)  # what the server does when that push fails
    deliver(rounds, 0, ack(0), *push(blobs[0], 0))  # the survivor runs a round alone
    assert tick(rounds, 0.0)[1] == [(0, push(blobs[0]))]
    assert [r.participants for r in rounds.history] == [(0, 1), (0,)]


def test_server_does_not_take_a_late_ack_of_an_older_global_for_the_newest():
    mine, stale_push, answer = make_blob(36), make_blob(37), make_blob(38)
    rounds = core(make_blob(35), RoundPolicy("count", 1), 1, 2, round_timeout=0.5)
    deliver(rounds, 1, ack(1))  # device 1 ACKs global 0, then falls behind
    deliver(rounds, 2, ack(2), *push(mine, 2))
    assert tick(rounds, 0.0) == (None, [(1, PULL)])
    assert tick(rounds, 0.5)[0].participants == (2,)  # closes without device 1: global 1
    deliver(rounds, 2, ack(2), *push(mine, 2))
    assert tick(rounds, 0.5)[0].participants == (2,)  # device 1 is stale: global 2
    # Device 1 acknowledges global 1 only, then pushes a model trained on it:
    # the push triggers round 3, but device 1 must be pulled.
    deliver(rounds, 1, ack(1), *push(stale_push, 1))
    assert tick(rounds, 1.0) == (None, [(1, PULL), (2, PULL)])  # 2: no push since global 2
    deliver(rounds, 1, reply(1, answer))
    deliver(rounds, 2, reply(2, mine))
    record, _ = tick(rounds, 1.0)
    assert record.participants == (1, 2)
    assert np.array_equal(record.blob.values, (answer.values + mine.values) / 2)


def test_server_takes_a_free_run_devices_latest_push():
    first, latest = make_blob(40), make_blob(41)
    rounds = core(make_blob(39), RoundPolicy("count", 2), 1)
    deliver(rounds, 1, ack(1), *push(first, 1), *push(latest, 1))
    # No PULL_MODEL: the latest push is the contribution.
    assert tick(rounds, 0.0) == (rounds.history[0], [(1, push(latest))])


def test_pushes_from_a_connection_that_never_sent_hello_start_no_count_round():
    rounds = core(make_blob(95), RoundPolicy("count", 2), 0, 1)
    deliver(rounds, 0, ack(0))
    deliver(rounds, 1, ack(1))
    deliver(rounds, "stranger", *push(make_blob(96), 7), *push(make_blob(97), 7))
    assert tick(rounds, 0.0) == (None, [])  # no device is pulled
    deliver(rounds, 0, *push(make_blob(98), 0), *push(make_blob(99), 0))
    assert tick(rounds, 0.0) == (None, [(1, PULL)])


def test_server_labels_a_push_that_crosses_its_pull():
    m0, m1, m2, m3 = make_blob(46), make_blob(43), make_blob(44), make_blob(45)
    rounds = core(make_blob(42), RoundPolicy("count", 1), 1)
    deliver(rounds, 1, ack(1), *push(m0, 1))
    assert tick(rounds, 0.0)[0].participants == (1,)  # global 1, not yet ACKed
    deliver(rounds, 1, *push(m1, 1))  # counts toward count:1, but before the ACK: pulled
    assert tick(rounds, 0.0) == (None, [(1, PULL)])
    # A second push arrives after the PULL and before the reply, as when a
    # device pushes before it reads the PULL.
    deliver(rounds, 1, *push(m2, 1), reply(1, m3))
    assert np.array_equal(tick(rounds, 0.0)[0].blob.values, m3.values)


def test_server_builds_one_model_data_body_per_global(monkeypatch):
    calls = count_calls(monkeypatch, ("encode_model", "frame_bytes", "model_data_body"))
    initial = make_blob(60)
    rounds = core(initial, RoundPolicy("count", 3))
    for d in range(3):
        assert deliver(rounds, d, hello(d)) == [(d, push(initial))]
    for r in range(2):
        for d in range(3):
            deliver(rounds, d, ack(d), *push(make_blob(61 + 3 * r + d), d))
        record, sends = tick(rounds, 0.0)
        assert sends == [(d, push(record.blob)) for d in range(3)]  # the same bytes to each
    assert calls == {"encode_model": 3, "frame_bytes": 3}  # the initial global + 2 rounds
    for record in rounds.history:
        assert record.checksum == zlib.crc32(encode_model(record.blob))


# -- a stateful fault model of the round core --------------------------------------------

FAULT_TIMEOUT = 2.0
WRONG_SHAPE_BODY = model_data_body(make_blob(91, e=5))
PICKS = st.integers(0, 15)
# A MODEL_DATA body: valid, one byte flipped, cut short, or a model of another shape.
BODIES = st.tuples(st.sampled_from(["valid", "flip", "cut", "shape"]), st.integers(0, 1 << 16))


class RoundFaults(RuleBasedStateMachine):
    """Prompt agents, which answer all they are sent at once (a sync agent
    uploads after each ACK, a pulled one only answers pulls), and peers that
    do anything in any order, against a `Rounds` on a fake clock."""

    def __init__(self):
        super().__init__()
        self.rounds, self.now = None, 0.0
        # Per connection not yet closed: its first HELLO's id, the globals and
        # pulls it was sent and has not answered, and whether it has ACKed.
        self.open = {}
        self.prompt, self.failing = {}, set()  # prompt: conn -> whether it uploads
        self.waited_on = set()  # the prompt connections as the pending round started
        self.uploads = collections.defaultdict(set)  # device id -> its valid models' values
        self.early = set()  # values pushed while a global was not ACKed
        self.conns, self.seeds, self.averaged = itertools.count(), itertools.count(), []
        self.average = server_module.average_blobs
        server_module.average_blobs = self.recording_average

    def recording_average(self, blobs):
        self.averaged.append(blobs)
        return self.average(blobs)

    def teardown(self):
        server_module.average_blobs = self.average

    def pick(self, i, lazy=True):
        conns = sorted(self.open.keys() - (self.prompt.keys() if lazy else set()))
        return conns[i % len(conns)] if conns else None

    def send(self, conn, *msgs):
        for msg in msgs:
            if conn in self.open:  # a failed send closes it
                self.rounds.receive(conn, msg)
                assert not self.rounds._peers[conn].stale  # stale only until it speaks
                self.carry_out()

    def carry_out(self):
        """Do with the core's output what the server does."""
        sends, drops = self.rounds.output()
        for conn, msgs in sends:
            types = [m.type for m in msgs]
            assert types in (  # a PUSH_MODEL is one write with its MODEL_DATA
                [MessageType.PUSH_MODEL, MessageType.MODEL_DATA],
                [MessageType.PULL_MODEL], [MessageType.ERROR])
            if conn in self.failing:
                self.close(conn)
            elif conn in self.open:
                self.open[conn].unacked += types[0] is MessageType.PUSH_MODEL
                self.open[conn].pulls += types[0] is MessageType.PULL_MODEL
        for conn in set(drops) & self.open.keys():
            self.close(conn)

    def close(self, conn):
        del self.open[conn]
        self.prompt.pop(conn, None)
        self.failing.discard(conn)
        self.rounds.disconnect(conn)

    def model_data(self, conn, body, push=False):
        (kind, at), device = body, self.open[conn]
        values = np.random.default_rng(next(self.seeds)).standard_normal(10).astype(np.float32)
        data = bytearray(model_data_body(ModelBlob(values, 4, 2)))
        if kind == "shape":
            data = WRONG_SHAPE_BODY
        elif kind == "flip":
            data[at % len(data)] ^= 0xFF
        elif kind == "cut":
            del data[at % len(data):]
        else:
            self.uploads[device.device_id].add(values.astype(np.float64).tobytes())
            if push and device.unacked:
                self.early.add(values.astype(np.float64).tobytes())
        return Message(MessageType.MODEL_DATA, device.device_id, bytes(data))

    def upload(self, conn, body):
        msg = self.model_data(conn, body, push=True)
        self.send(conn, Message(MessageType.PUSH_MODEL, self.open[conn].device_id), msg)

    def pump(self):
        """Prompt agents, highest id first, answer each global and each pull."""
        for conn, uploads in sorted(self.prompt.items(), key=lambda p: -self.open[p[0]].device_id):
            device, installed = self.open[conn], self.open[conn].unacked
            while device.unacked:
                device.unacked -= 1
                device.acked = True
                self.send(conn, ack(device.device_id))
            if installed and uploads:
                self.upload(conn, ("valid", 0))
            while device.pulls:
                device.pulls -= 1
                self.send(conn, self.model_data(conn, ("valid", 0)))

    @initialize(policy=st.sampled_from([RoundPolicy("count", 1), RoundPolicy("count", 3),
                                        RoundPolicy("timer", 1.0)]))
    def start(self, policy):
        self.rounds = server_module.Rounds(make_blob(90, e=4), policy, FAULT_TIMEOUT, 0.0)

    @rule(device_id=st.integers(0, 3), kind=st.sampled_from(["lazy", "sync", "pulled"]),
          ack_first=st.booleans())
    def connect(self, device_id, kind, ack_first):
        conn = next(self.conns)  # an id another connection holds replaces that one
        self.open[conn] = types.SimpleNamespace(device_id=device_id, unacked=0, pulls=0,
                                                acked=False)
        if kind != "lazy":
            self.prompt[conn] = kind == "sync"
        if ack_first:  # an ACK that answers no global
            self.send(conn, ack(device_id))
        self.send(conn, hello(device_id))
        self.tick()

    @rule(i=PICKS)
    def ack_one(self, i):  # with more globals unanswered, a late ACK of an older one;
        conn = self.pick(i)  # with none, an ACK that answers no global
        if conn is not None:
            device = self.open[conn]
            device.acked |= device.unacked > 0
            device.unacked = max(0, device.unacked - 1)
            self.send(conn, ack(device.device_id))
        self.tick()

    @rule(i=PICKS, body=BODIES)
    def push_model(self, i, body):
        if (conn := self.pick(i)) is not None:
            self.upload(conn, body)
        self.tick()

    @rule(i=PICKS, body=BODIES | st.none())
    def answer_pull(self, i, body):  # with no pull to answer, a MODEL_DATA never asked for
        if (conn := self.pick(i)) is not None:
            device = self.open[conn]
            device.pulls = max(0, device.pulls - 1)
            self.send(conn, Message(MessageType.ERROR, device.device_id, b"NO_MODEL")
                      if body is None else self.model_data(conn, body))
        self.tick()

    @rule(i=PICKS, device_id=st.integers(0, 3))
    def hello_again(self, i, device_id):
        if (conn := self.pick(i)) is not None:
            self.send(conn, hello(device_id))
        self.tick()

    @rule(i=PICKS, at_once=st.booleans())
    def disconnect(self, i, at_once):  # now, or at the next send to it
        conn = self.pick(i, lazy=False)
        if conn is not None and at_once:
            self.close(conn)
        elif conn is not None:
            self.failing.add(conn)
        self.tick()

    def tick(self):
        """What the server does after each message: tick the core at `now`."""
        rounds = self.rounds
        self.pump()
        if rounds._expected is None:  # a round that starts now waits on these
            self.waited_on = set(self.prompt)
        deadline = math.inf if rounds._expected is None else rounds._deadline
        averaged = len(self.averaged)
        record = rounds.tick(self.now)
        assert self.now < deadline or rounds._expected is None  # no round outlives its deadline
        self.carry_out()
        if record is not None:
            (contributions,) = self.averaged[averaged:]
            assert list(record.participants) == sorted(record.participants)
            for device_id, blob in zip(record.participants, contributions, strict=True):
                assert blob.values.tobytes() in self.uploads[device_id] - self.early
            assert np.array_equal(record.blob.values, average_blobs(contributions).values)
            # A device that answers every pull in time is never left out.
            prompt_ids = {self.open[c].device_id for c in self.waited_on & self.prompt.keys()}
            assert prompt_ids <= set(record.participants)
        self.pump()

    @rule(dt=st.sampled_from([0.5, FAULT_TIMEOUT]))
    def advance(self, dt):
        self.now += dt
        self.tick()

    @invariant()
    def only_live_connections_hold_ids(self):
        for device_id, conn in getattr(self.rounds, "_devices", {}).items():
            assert conn in self.open and self.open[conn].device_id == device_id
        if self.rounds is not None and self.rounds._expected is not None:
            assert self.rounds._expected <= self.rounds._devices.keys()
            # A round waits only on connections that have ACKed a global.
            for device_id in self.rounds._expected:
                assert self.open[self.rounds._devices[device_id]].acked


def test_round_core_keeps_its_invariants_under_faulty_peers():
    run_state_machine_as_test(RoundFaults, settings=settings(
        max_examples=100, stateful_step_count=40, deadline=None))


# -- the device core, with no socket -------------------------------------------------


def device(stream, device_id=0, **settings):
    """A `Device` on a new link, its HELLO taken."""
    dev = agent_module.Device(device_id, stream, **settings)
    dev.connected()
    assert dev.output() == [(hello(device_id),)]
    return dev


def tell(dev, *msgs):
    """Feed `msgs` to the device; return the sends it queued."""
    for msg in msgs:
        dev.receive(msg)
    return dev.output()


def test_agent_answers_pull_before_install_with_no_model():
    dev = device(make_stream(4), 7)
    assert tell(dev, *PULL) == [error(b"NO_MODEL", 7)]
    # MODEL_DATA without a preceding PUSH announcement is refused too.
    assert tell(dev, reply(0, make_blob(0))) == [error(b"UNEXPECTED_MODEL_DATA", 7)]


def test_agent_echoes_installed_model_and_reports_exhaustion():
    blob = make_blob(20)
    stream = make_stream(4)
    stream.take(4)  # nothing left to train on
    dev = device(stream, 1)
    assert tell(dev, *push(blob)) == [(ack(1, STATUS_DATA_EXHAUSTED),)]
    assert not dev.step()
    assert tell(dev, *PULL) == [(reply(1, blob),)]  # byte-identical echo
    assert dev.installs == 1 and dev.samples_trained == 0


def test_agent_free_run_matches_offline_replay():
    blob = make_blob(21)
    stream = make_stream(6, seed=3)
    samples = make_stream(6, seed=3).take(6)  # same permutation, untouched
    dev = device(stream, 2, learning_rate=0.05, local_episodes=2)
    assert tell(dev, *push(blob)) == [(ack(2),)]  # data remains
    while dev.step():
        pass
    assert dev.samples_trained == 6 and dev.output() == []  # no push_every, no push
    expected = replay_training(blob, samples, learning_rate=0.05, local_episodes=2)
    assert tell(dev, *PULL) == [(reply(2, expected),)]


def test_agent_free_run_pushes_every_push_every_samples():
    blob = make_blob(25)
    stream = make_stream(6, seed=4)
    samples = make_stream(6, seed=4).take(6)  # same permutation, untouched
    dev = device(stream, 5, learning_rate=0.05, local_episodes=2, push_every=3)
    tell(dev, *push(blob))
    for n in range(1, 7):
        assert dev.step()
        trained = replay_training(blob, samples[:n], learning_rate=0.05, local_episodes=2)
        assert dev.output() == ([push(trained, 5)] if n % 3 == 0 else [])
    assert not dev.step() and dev.samples_trained == 6


def test_agent_rejects_bad_pushes_and_keeps_its_head():
    blob = make_blob(22)
    stream = make_stream(4)
    stream.take(4)
    dev = device(stream, 3)
    tell(dev, *push(blob))
    corrupt = bytearray(model_data_body(blob))
    corrupt[36] ^= 0xFF
    announce = Message(MessageType.PUSH_MODEL, 0)
    assert tell(dev, announce, Message(MessageType.MODEL_DATA, 0, bytes(corrupt))) == [
        error(b"CorruptionError", 3)]
    assert tell(dev, *push(make_blob(23, e=9))) == [error(b"ShapeError", 3)]
    assert tell(dev, *PULL) == [(reply(3, blob),)]
    assert dev.installs == 1


def test_agent_sync_mode_trains_one_batch_per_install():
    blob = make_blob(24)
    dup = make_stream(8, seed=5)
    first4, next4 = dup.take(4), dup.take(4)
    dev = device(make_stream(8, seed=5), 4, learning_rate=0.02, local_episodes=3, sync_batch=4)
    assert tell(dev, *push(blob)) == [(ack(4),)]
    assert dev.step()
    step1 = replay_training(blob, first4, learning_rate=0.02, local_episodes=3, batch_size=4)
    assert dev.output() == [push(step1, 4)]
    assert not dev.step() and dev.samples_trained == 4  # no install, so the device idles

    assert tell(dev, *push(step1)) == [(ack(4),)]
    assert dev.step()
    # The reinstall passed through the wire, so the oracle must start
    # from the float32 copy, not from the device's float64 step1 state.
    step2 = replay_training(
        blob_from_model_data(model_data_body(step1)), next4,
        learning_rate=0.02, local_episodes=3, batch_size=4,
    )
    assert dev.output() == [push(step2, 4)]
    assert dev.samples_trained == 8


@pytest.mark.parametrize("sync_batch", [None, 4])
def test_agent_head_is_bitwise_stacked_training_and_its_install_is_unchanged(
    monkeypatch, sync_batch
):
    # The device draws list batches; the same training on stacked batches
    # gathered by `take_into`, the round's draw, must give its head bit for
    # bit, and must not write into the installed blob, whose values the head
    # starts out viewing.
    decoded = []

    def recording(body):
        blob = blob_from_model_data(body)
        decoded.append((blob, blob.values.copy()))
        return blob

    monkeypatch.setattr(agent_module, "blob_from_model_data", recording)
    stream, twin = make_stream(8, seed=9), make_stream(8, seed=9)
    dev = device(stream, 6, learning_rate=0.3, local_episodes=3, sync_batch=sync_batch)
    tell(dev, *push(make_blob(25)))
    while dev.step():
        pass
    sizes = [1] * 8 if sync_batch is None else [4]
    assert dev.samples_trained == sum(sizes)
    batches = [StackedSamples(np.empty((n, 8)), np.empty(n, dtype=np.int64)) for n in sizes]
    for batch in batches:
        twin.take_into(batch.features, batch.labels)
    (installed, values), = decoded
    head = installed
    for batch in batches:
        head = train_batch(head, batch, 0.3, 3)
    assert np.array_equal(dev.head.weights, head.weights)
    assert np.array_equal(dev.head.bias, head.bias)
    assert np.array_equal(installed.values, values)


@pytest.mark.parametrize("sync_batch", [None, 4])
def test_agent_step_builds_one_blob_and_frames_that_blob(monkeypatch, sync_batch):
    # The device's model is the ModelBlob train_batch returns; a push frames
    # that object, with no copy into another blob, and goes out as one write.
    dev = device(make_stream(8), local_episodes=2, sync_batch=sync_batch,
                 push_every=1 if sync_batch is None else None)
    tell(dev, *push(make_blob(26)))
    built, framed = [], []
    original_post_init, original_body = ModelBlob.__post_init__, agent_module.model_data_body

    def counting(self):
        built.append(self)
        original_post_init(self)

    def recording(blob):
        framed.append(blob)
        return original_body(blob)

    monkeypatch.setattr(ModelBlob, "__post_init__", counting)
    monkeypatch.setattr(agent_module, "model_data_body", recording)
    assert dev.step()
    assert len(built) == 1 and len(framed) == 1
    assert framed[0] is built[0] is dev.head
    assert len(dev.output()) == 1


@pytest.mark.parametrize("e, classes", [(8, 3), (16, 2)])
def test_agent_rejects_a_global_that_cannot_train_on_its_stream(e, classes):
    # Installed, such a global (E = 8, C = 2) would kill the agent at its
    # first training step; it replies ERROR ShapeError, sends no ACK, and
    # keeps running.
    ds = synth_separable(e, classes, 60, 4.0, 5, val_fraction=0.0)
    (stream,) = partition(ds, 1, 5)
    dev = device(stream, sync_batch=5)
    assert tell(dev, *push(make_blob(40))) == [error(b"ShapeError")]
    assert not dev.step()
    assert dev.installs == 0 and dev.head is None
    assert stream.samples_seen == 0


def test_a_device_on_a_new_link_sends_nothing_meant_for_the_old_one():
    blob = make_blob(27)
    dev = device(make_stream(8), 2, sync_batch=2)
    for msg in (*push(blob), *PULL, Message(MessageType.PUSH_MODEL, 0)):  # lost mid-transfer
        dev.receive(msg)
    assert dev.step()  # its push joins the ACK and the pull's reply in the queue
    dev.connected()
    assert dev.output() == [(hello(2),)]  # the first write on the new link
    # The old link's announcement is forgotten: a MODEL_DATA on the new one is refused.
    assert tell(dev, reply(0, blob)) == [error(b"UNEXPECTED_MODEL_DATA", 2)]
    assert tell(dev, *push(blob)) == [(ack(2),)]
    dev.disconnected()
    assert dev.step() and dev.output() == []  # trains offline, pushes nothing
    assert dev.samples_trained == 4


def test_device_and_round_cores_reproduce_offline_rounds():
    # Two sync devices and a count:2 round core on a fake clock, each core's
    # messages handed to the other unchanged, run the simulator's rounds.
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
    server = server_module.Rounds(blob0, RoundPolicy("count", 2), 5.0, 0.0)
    devices = [agent_module.Device(d, stream, learning_rate=0.05, local_episodes=2,
                                   sync_batch=batch)
               for d, stream in enumerate(partition(ds, 2, 30))]
    for dev in devices:
        dev.connected()
    sends = []
    for _ in range(rounds + 1):  # the greetings, then one round per pass
        for d, msgs in sends:
            for msg in msgs:
                devices[d].receive(msg)
        sends = []
        for d, dev in enumerate(devices):
            dev.step()
            sends += deliver(server, d, *itertools.chain(*dev.output()))
        sends += tick(server, 0.0)[1]

    assert len(server.history) == rounds
    for t, record in enumerate(server.history):
        assert record.participants == (0, 1)
        drift = np.max(np.abs(record.blob.values - sim.round_blobs[t].values))
        assert drift <= 1e-6, f"round {t + 1} drifted by {drift}"
    live_acc = evaluate(server.history[-1].blob, ds.validation_samples())
    assert abs(live_acc - sim.history[-1].val_accuracy) <= 0.1


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
        rec = server._devices[0].sock = RecordingSocket(server._devices[0].sock)
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
            assert wait_until(lambda: 9 not in server._devices)
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
        conn = server._rounds._peers[server._devices[0]]
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

    assert len(server.history) == rounds
    for t, record in enumerate(server.history):
        assert record.participants == (0, 1)
        drift = np.max(np.abs(record.blob.values - sim.round_blobs[t].values))
        assert drift <= 1e-6, f"round {t + 1} drifted by {drift}"
