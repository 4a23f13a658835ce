"""The socket-free runtime cores: by example, under one fault model each, and paired.

`DeviceFaults` is a server that sends one `runtime.agent.Device` anything in
any order over links that come and go: valid pushes, pushes with a byte
flipped, cut short, of another shape or unable to train on the device's
stream, MODEL_DATA never announced, PULL, ACK, ERROR and HELLO. `RoundFaults`
runs a `runtime.server.Rounds` on a fake clock against real sync and
free-run `Device`s, joined to it by a network that delivers any prefix of
each link's queued writes and may cut a link, and against bad peers that
send anything in any order. Each machine keeps its own model of what the
core must do, down to every send, and checks the core against it after every
step; a round that only real devices trained, one step each from the previous
global, must equal the wire-rounded oracle in `nn_reference` bit for bit. The
paired-core test runs the two cores' rounds against each other and against
the offline simulator. The examples script each core with messages and a
fake clock where its machine cannot see: the calls `Rounds` makes and a line
it logs, and the `Device` cases that guard mended defects or that
`DeviceFaults` does not model, such as one blob built per step and memory
that stays flat.

Nothing here opens a socket, starts a thread or builds a `Server` or an
`Agent` (tests/test_hygiene.py checks this file), so every core test stays
on the cores; tests/test_runtime.py keeps what only the I/O shells do.
"""
import collections
import functools
import itertools
import logging
import tracemalloc
import types
import zlib

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, precondition, rule, run_state_machine_as_test,
)

from fedhead.data import DeviceStream, partition, synth_separable
from fedhead.errors import WireError
from fedhead.federation import ModelBlob, RoundConfig, average_blobs, evaluate, run_training
from fedhead.nn import StackedSamples, init_head, train_batch
from fedhead.runtime import (
    Message, MessageType, RoundPolicy, STATUS_DATA_EXHAUSTED, blob_from_model_data,
    model_data_body,
)
from fedhead.runtime import agent as agent_module
from fedhead.runtime import server as server_module
from fedhead.wire import decode_model, encode_model
from nn_reference import wire_rounded, wire_rounded_rounds


def make_blob(seed, e=8, c=2):
    """A random head whose values are exactly representable in float32."""
    return decode_model(encode_model(init_head(e, c, "random", seed=seed)))


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


# -- a stateful fault model of the device core -----------------------------------------

DEVICE_ID = 6
DEVICE_LR, DEVICE_EPISODES = 0.3, 2
# A MODEL_DATA body: a model that trains on the stream, one byte flipped, cut
# short, a model of three classes (it trains on the stream's two, but matches
# no installed two-class head), or one that cannot train on the stream.
DEVICE_BODIES = st.tuples(
    st.sampled_from(["valid", "flip", "cut", "shape", "untrainable"]),
    st.integers(0, 1 << 16),
)


class DeviceFaults(RuleBasedStateMachine):
    """A server that sends one `Device` anything in any order, over links that
    come and go. The machine models the head the device must hold and every
    send it must queue, and checks each step's output against that model."""

    @initialize(sync=st.booleans(), push_every=st.sampled_from([None, 1, 3]),
                samples=st.sampled_from([2, 7, 12]),  # few, so that steps exhaust them
                installed=st.booleans())
    def start(self, sync, push_every, samples, installed):
        ds = synth_separable(8, 2, samples, 4.0, 0, val_fraction=0.0)
        (stream,) = partition(ds, 1, 0)
        # The twin draws what the device must draw, in the round's stacked form.
        self.twin = DeviceStream(DEVICE_ID, ds, stream.indices)
        self.sync, self.batch = sync, 3 if sync else 1
        self.push_every = None if sync else push_every
        self.dev = agent_module.Device(
            DEVICE_ID, stream, learning_rate=DEVICE_LR, local_episodes=DEVICE_EPISODES,
            sync_batch=self.batch if sync else None, push_every=self.push_every)
        self.head, self.installs = None, 0  # the head the device must hold, and its installs
        self.installed = None  # the last installed blob, and a copy of its values
        self.online, self.announced, self.untrained, self.since_push = False, 0, False, 0
        if installed:  # so that most runs train
            self.connect()
            self.push(("valid", 0))

    def expect(self, *sends):
        """The device queued exactly `sends`, each one message or a push and its model."""
        assert self.dev.output() == list(sends)

    def model(self, kind, at):
        """A MODEL_DATA body of `kind` and the blob it carries, or None if it is no model."""
        e, c = {"shape": (8, 3), "untrainable": [(9, 2), (8, 1)][at % 2]}.get(kind, (8, 2))
        values = np.random.default_rng(at).standard_normal(c * e + c).astype(np.float32)
        blob = ModelBlob(values, e, c)
        body = bytearray(model_data_body(blob))
        if kind == "flip":
            body[at % len(body)] ^= 0xFF
        elif kind == "cut":
            del body[at % len(body):]
        return bytes(body), None if kind in ("flip", "cut") else blob

    @rule()
    def connect(self):
        self.dev.connected()
        self.online, self.announced = True, 0
        self.expect((hello(DEVICE_ID),))  # what was queued for the old link is dropped

    @rule()
    def disconnect(self):
        self.dev.disconnected()
        self.online, self.announced = False, 0
        self.expect()

    @precondition(lambda self: self.online)
    @rule()
    def announce(self):
        self.dev.receive(Message(MessageType.PUSH_MODEL, 0))
        self.announced += 1
        self.expect()

    @precondition(lambda self: self.online)
    @rule(body=DEVICE_BODIES)
    def model_data(self, body):  # with no announcement pending, a MODEL_DATA never asked for
        (kind, at), announced = body, self.announced
        data, blob = self.model(kind, at)
        self.dev.receive(Message(MessageType.MODEL_DATA, 0, data))
        self.announced = max(0, announced - 1)
        shape = None if self.head is None else (self.head.embedding_dim, self.head.num_classes)
        if not announced:
            self.expect(error(b"UNEXPECTED_MODEL_DATA", DEVICE_ID))
        elif blob is None:  # refused: an ERROR naming the codec's error for the body
            try:
                blob_from_model_data(data)
            except WireError as exc:
                self.expect(error(type(exc).__name__.encode(), DEVICE_ID))
            else:
                raise AssertionError(f"a {kind} body decoded")
        elif kind == "untrainable" or shape not in (None, (blob.embedding_dim, blob.num_classes)):
            self.expect(error(b"ShapeError", DEVICE_ID))
        else:  # installed: the head is the decoded body, bit for bit
            self.head, self.untrained, self.installs = blob, True, self.installs + 1
            self.installed = (self.dev.head, self.dev.head.values.copy())
            status = STATUS_DATA_EXHAUSTED if self.twin.remaining() < self.batch else b""
            self.expect((ack(DEVICE_ID, status),))

    @precondition(lambda self: self.online)
    @rule(body=DEVICE_BODIES)
    def push(self, body):
        self.announce()
        self.model_data(body)

    @precondition(lambda self: self.online)
    @rule()
    def pull(self):
        self.dev.receive(*PULL)
        if self.head is None:
            self.expect(error(b"NO_MODEL", DEVICE_ID))
        else:  # the head's own body, byte for byte
            self.expect((reply(DEVICE_ID, self.head),))

    @precondition(lambda self: self.online)
    @rule(mtype=st.sampled_from([MessageType.ACK, MessageType.ERROR, MessageType.HELLO]),
          body=st.sampled_from([b"", STATUS_DATA_EXHAUSTED, b"UNEXPECTED_MESSAGE"]))
    def other(self, mtype, body):
        self.dev.receive(Message(mtype, 0, body))
        if mtype is MessageType.HELLO:  # no meaning in the server->device direction
            self.expect(error(b"UNEXPECTED_MESSAGE", DEVICE_ID))
        else:
            self.expect()

    @rule(steps=st.integers(1, 4))
    def step(self, steps):
        for _ in range(steps):
            can_train = (self.head is not None and self.twin.remaining() >= self.batch
                         and (self.untrained or not self.sync))
            assert self.dev.step() == can_train
            if not can_train:
                return self.expect()
            # Exactly the samples the twin draws, trained from the previous head.
            batch = StackedSamples(np.empty((self.batch, 8)), np.empty(self.batch, dtype=np.int64))
            self.twin.take_into(batch.features, batch.labels)
            self.head = train_batch(self.head, batch, DEVICE_LR, DEVICE_EPISODES)
            self.untrained, self.since_push = False, self.since_push + 1
            due = self.sync or (self.push_every is not None and self.since_push >= self.push_every)
            if due and self.online:  # nothing is queued while offline
                self.since_push = 0
                self.expect(push(self.head, DEVICE_ID))
            else:
                self.expect()

    @precondition(lambda self: self.online and self.sync)
    @rule(at=st.integers(0, 1 << 16))
    def install_and_step_twice(self, at):  # a sync device trains one batch per install
        self.push(("valid", at))
        self.step(2)

    @precondition(lambda self: self.online and self.push_every is not None
                  and self.twin.remaining() > self.push_every)
    @rule(at=st.integers(0, 1 << 16))
    def install_and_step_past_a_push(self, at):  # the push falls on the push_every-th step
        self.push(("valid", at))
        self.step(self.push_every + 1)

    @invariant()
    def the_head_changes_only_on_an_install_or_a_step(self):
        assert self.dev.installs == self.installs
        if self.head is None:
            assert self.dev.head is None
        else:
            assert (self.dev.head.embedding_dim, self.dev.head.num_classes) == (
                self.head.embedding_dim, self.head.num_classes)
            assert np.array_equal(self.dev.head.values, self.head.values)

    @invariant()
    def the_stream_is_one_shot(self):
        assert self.dev.samples_trained == self.dev.stream.samples_seen == self.twin.samples_seen

    @invariant()
    def an_installed_model_is_never_written(self):
        if self.installed is not None:
            blob, values = self.installed
            assert np.array_equal(blob.values, values)


def test_device_core_keeps_its_invariants_under_a_faulty_server():
    run_state_machine_as_test(DeviceFaults, settings=settings(
        max_examples=100, stateful_step_count=40, deadline=None))


# -- a stateful fault model of the round core, with real devices --------------------------

FAULT_TIMEOUT = 2.0
WRONG_SHAPE_BODY = model_data_body(make_blob(91, e=5))
PICKS = st.integers(0, 15)
# A MODEL_DATA body: valid, one byte flipped, cut short, or a model of another shape.
BODIES = st.tuples(st.sampled_from(["valid", "flip", "cut", "shape"]), st.integers(0, 1 << 16))
# The real devices' data: each id draws its own shard, at the session's E = 4, C = 2.
FAULT_DATA = synth_separable(4, 2, 160, 4.0, 92, val_fraction=0.0)
FAULT_SYNC_BATCH, FAULT_LR, FAULT_EPISODES = 2, 0.05, 2


def decoded(body):
    """The blob a MODEL_DATA body carries at the session's E = 4, C = 2, or None
    and the body of the ERROR that refuses it."""
    try:
        blob = blob_from_model_data(body)
    except WireError as exc:
        return None, type(exc).__name__.encode()
    if (blob.embedding_dim, blob.num_classes) != (4, 2):
        return None, b"ShapeError"
    return blob, None


class RoundFaults(RuleBasedStateMachine):
    """Real devices and bad peers against a `Rounds` on a fake clock.

    A real device is a sync `Device` or a free-run one with no push_every,
    which only answers pulls. A fake network carries its link: it holds each
    write in a queue per direction, delivers any prefix of a queue, and may
    cut the link, after which the device connects on a new one. A prompt
    device's link carries everything at once and the device steps, before
    and after each tick; any link may start or stop lagging. Bad peers send
    anything in any order, and the core's sends reach them at once. Some
    rules play a whole scene, such as an ACK and the pushes trained on the
    global it answers, or a pull answered after its deadline, so that it
    still comes up when hypothesis switches other rules off for an example.

    The machine keeps its own model of the round protocol: what each
    connection has told the core, the registered ids in registration order,
    the global, the policy's count and clock, and the pending round. From it,
    it predicts the exact sends and drops that `Rounds.output()` returns after
    every message and tick, and the round that each tick finishes. Each run
    ends with closing rounds (`teardown`), so that what the core holds of a
    peer, and has not yet sent on, shows before the run is over."""

    def __init__(self):
        super().__init__()
        self.rounds, self.now = None, 0.0
        self.open, self.closed = {}, set()  # see `new_conn`; closed: every connection closed so far
        self.failing = set()
        self.real, self.prompt = {}, set()  # device id -> its real Device; the prompt ids
        self.link = {}  # device id -> the real device's connection
        self.installed = {}  # device id -> the body installed on its current link
        self.trained = {}  # device id -> (installed body, cursor, head) of its one step
        # The model: registered id -> connection, in registration order; the
        # valid pushes from registered connections since the last round, its
        # time and the rounds so far; the pending round's ids (None between
        # rounds), their models and its deadline, and whom it waited on at its
        # start; and the sends and drops the core must have queued.
        self.devices, self.pushes, self.last, self.finished = {}, 0, 0.0, 0
        self.expected, self.collected, self.deadline, self.waited = None, {}, None, {}
        self.sends, self.drops = [], []
        self.conns, self.seeds = itertools.count(), itertools.count()

    def pick(self, i, real=False, where=None):
        """An open connection of a bad peer, of a real device (True) or of either (None),
        whose model `where` holds for, if given."""
        conns = sorted(c for c, p in self.open.items()
                       if (real is None or (p.dev is not None) == real) and (not where or where(p)))
        return conns[i % len(conns)] if conns else None

    def waits_on(self, peer):
        """The pending round has pulled `peer` and waits on it."""
        return peer.pulls and peer.id in (self.expected or ())

    def new_conn(self, device_id, dev=None):
        conn = next(self.conns)
        # The id it sends, and what the core must know of it: its first
        # HELLO's id, the globals it was sent and has not ACKed, whether it has
        # ACKed one, whether it is stale, whether its last message was a
        # PUSH_MODEL, its pulls unanswered and its contribution; for a real
        # device, the device and the writes in flight each way.
        self.open[conn] = types.SimpleNamespace(
            device_id=device_id, id=None, unacked=0, acked=False, stale=False, announced=False,
            pulls=0, pushed=None, dev=dev, down=collections.deque(), up=collections.deque())
        return conn

    def send(self, conn, *msgs):
        """Deliver `msgs` from `conn` to the core, and do what the server does with its output."""
        for msg in msgs:
            if conn in self.open:  # a failed send closes it
                self.rounds.receive(conn, msg)
                self.receive(conn, self.open[conn], msg)
                self.carry_out()

    def receive(self, conn, peer, msg):
        """What the core must do with `msg` from `conn`."""
        peer.stale = False  # stale only until it speaks
        # A MODEL_DATA that does not directly follow a PUSH_MODEL answers a pull.
        announced, peer.announced = peer.announced, msg.type is MessageType.PUSH_MODEL
        if msg.type is MessageType.HELLO and peer.id in (None, msg.device_id):
            old = self.devices.get(msg.device_id, conn)
            if old != conn:  # the id from another connection replaces that one
                self.forget(old, self.open[old])
                self.drops.append(old)
            peer.id, self.devices[msg.device_id] = msg.device_id, conn
            self.push_global(conn, peer)
        elif msg.type in (MessageType.HELLO, MessageType.PULL_MODEL):  # a second id, or a PULL
            self.sends.append((conn, error(b"UNEXPECTED_MESSAGE")))
        elif msg.type is MessageType.MODEL_DATA:
            self.receive_model(conn, peer, msg.body, announced)
        elif msg.type is MessageType.ACK:  # with no global unanswered, it answers none
            peer.acked |= peer.unacked > 0
            peer.unacked = max(0, peer.unacked - 1)
        elif msg.type is MessageType.ERROR and msg.body == b"NO_MODEL" and peer.pulls:
            peer.pulls -= 1
            self.leave_round(peer)

    def receive_model(self, conn, peer, body, is_push):
        # A push counts only from a registered connection, and a reply only to a pull.
        if not (peer.id is not None if is_push else peer.pulls):
            return self.sends.append((conn, error(b"UNEXPECTED_MODEL_DATA")))
        peer.pulls -= not is_push
        blob, refused = decoded(body)
        if refused:
            self.sends.append((conn, error(refused)))
            if not is_push:
                self.leave_round(peer)
        elif is_push:
            self.pushes += 1
            if not peer.unacked:  # made after an ACK of the current global
                peer.pushed = blob
        elif self.expected is not None and peer.id in self.expected:
            self.collected[peer.id] = blob  # a reply after its round closed is ignored

    def leave_round(self, peer):
        if self.expected is not None:
            self.expected.discard(peer.id)

    def forget(self, conn, peer):
        """What the core must do when `conn` closes; a connection forgotten already is ignored."""
        if self.devices.get(peer.id) == conn:
            del self.devices[peer.id]
            self.leave_round(peer)

    def push_global(self, conn, peer):
        # A pending push was trained on an older global.
        peer.pushed, peer.unacked = None, peer.unacked + 1
        self.sends.append((conn, push(self.global_)))

    def carry_out(self):
        """Check the core's sends and drops against the model's, and do what the
        server does with them."""
        sends, drops = self.rounds.output()
        assert (sends, drops) == (self.sends, self.drops)
        self.sends, self.drops = [], []
        for conn, msgs in sends:
            if conn in self.failing:
                self.close(conn)
            elif conn in self.open and self.open[conn].dev is not None:
                self.open[conn].down.append(msgs)  # a bad peer gets its sends at once
        for conn in set(drops) & self.open.keys():
            self.close(conn)

    def close(self, conn):
        peer = self.open.pop(conn)
        self.closed.add(conn)
        self.failing.discard(conn)
        self.rounds.disconnect(conn)
        self.forget(conn, peer)
        if peer.dev is not None:  # the device's shell connects again, on a new link
            self.link_up(peer.dev)

    def link_up(self, dev):
        d = dev.device_id
        self.link[d] = self.new_conn(d, dev)
        self.installed[d] = self.trained[d] = None
        dev.connected()
        self.collect(dev)

    def collect(self, dev):
        """Queue the device's sends on its link."""
        self.open[self.link[dev.device_id]].up.extend(dev.output())

    def deliver_down(self, dev, msgs):
        for msg in msgs:
            installs = dev.installs
            dev.receive(msg)
            if dev.installs > installs:
                self.installed[dev.device_id], self.trained[dev.device_id] = msg.body, None
        self.collect(dev)

    def step_device(self, dev):
        cursor = dev.stream.samples_seen
        d = dev.device_id
        if dev.step() and dev.sync_batch and self.installed[d] and self.trained[d] is None:
            self.trained[d] = (self.installed[d], cursor, dev.head)
        self.collect(dev)

    def flow(self, conn, up, n=None):
        """The network delivers the first `n` writes, or all, queued one way on a device's link."""
        for _ in itertools.count() if n is None else range(n):
            peer = self.open.get(conn)
            queue = None if peer is None else peer.up if up else peer.down
            if not queue:
                return
            if up:
                self.send(conn, *queue.popleft())
            else:
                self.deliver_down(peer.dev, queue.popleft())

    def model_data(self, conn, body):
        (kind, at), peer = body, self.open[conn]
        values = np.random.default_rng(next(self.seeds)).standard_normal(10).astype(np.float32)
        data = bytearray(model_data_body(ModelBlob(values, 4, 2)))
        if kind == "shape":
            data = WRONG_SHAPE_BODY
        elif kind == "flip":
            data[at % len(data)] ^= 0xFF
        elif kind == "cut":
            del data[at % len(data):]
        return Message(MessageType.MODEL_DATA, peer.device_id, bytes(data))

    def upload(self, conn, body):
        msg = self.model_data(conn, body)
        self.send(conn, Message(MessageType.PUSH_MODEL, self.open[conn].device_id), msg)

    @initialize(policy=st.sampled_from([RoundPolicy("count", 1), RoundPolicy("count", 2),
                                        RoundPolicy("timer", 1.0)]),
                prompt_sync=st.integers(0, 2), live=st.integers(1, 2), lazy=st.booleans())
    def start(self, policy, prompt_sync, live, lazy):
        self.global_ = make_blob(90, e=4)
        self.rounds = server_module.Rounds(self.global_, policy, FAULT_TIMEOUT, 0.0)
        for device_id in range(prompt_sync):  # so that healthy rounds of several devices run
            self.connect(device_id, "sync", False, True)
        for device_id in range(2, 2 + live):  # bad peers that rounds wait on
            self.send(self.new_conn(device_id), hello(device_id), ack(device_id))
        if lazy:  # and one whose only ACK, before its HELLO, answers no global: it falls behind
            self.send(self.new_conn(5), ack(5), hello(5))

    @rule(device_id=st.integers(0, 3), kind=st.sampled_from(["lazy", "sync", "pulled"]),
          ack_first=st.booleans(), prompt=st.booleans())
    def connect(self, device_id, kind, ack_first, prompt):
        if kind == "lazy":  # an id another connection holds replaces that one
            conn = self.new_conn(device_id)
            if ack_first:  # an ACK that answers no global
                self.send(conn, ack(device_id))
            self.send(conn, hello(device_id))
        elif device_id not in self.real:  # one real device per id
            self.real[device_id] = agent_module.Device(
                device_id, partition(FAULT_DATA, 4, 0)[device_id], learning_rate=FAULT_LR,
                local_episodes=FAULT_EPISODES,
                sync_batch=FAULT_SYNC_BATCH if kind == "sync" else None)
            if prompt:
                self.prompt.add(device_id)
            self.link_up(self.real[device_id])
        self.tick()

    @rule(i=PICKS, down=st.integers(0, 3), up=st.integers(0, 3))
    def deliver(self, i, down, up):  # a prefix of each way's writes on one device's link
        if (conn := self.pick(i, real=True)) is not None:
            self.flow(conn, False, down)
            self.flow(conn, True, up)
        self.tick()

    @rule(i=PICKS)
    def step(self, i):
        if (conn := self.pick(i, real=True)) is not None:
            self.step_device(self.open[conn].dev)
        self.tick()

    @rule(i=PICKS)
    def lag(self, i):  # a prompt device's link starts to lag, or a lagging one catches up
        if (conn := self.pick(i, real=True)) is not None:
            self.prompt ^= {self.open[conn].device_id}
        self.tick()

    @rule(i=PICKS, behind=st.booleans(), pushes=st.integers(0, 2))
    def ack_one(self, i, behind, pushes):  # then pushes models trained on the global it answers:
        # with none unanswered, the ACK answers no global; `behind`, with more than
        # one, it is a late ACK of an older global, and its pushes contribute nothing
        if (conn := self.pick(i, where=behind and (lambda p: p.unacked > 1))) is not None:
            self.send(conn, ack(self.open[conn].device_id))
        for _ in range(pushes):
            if conn in self.open:
                self.upload(conn, ("valid", 0))
        self.tick()

    @rule(i=PICKS)
    def pull(self, i):  # PULL_MODEL has no meaning in the device->server direction
        if (conn := self.pick(i)) is not None:
            self.send(conn, Message(MessageType.PULL_MODEL, self.open[conn].device_id))
        self.tick()

    @rule(i=PICKS, body=BODIES)
    def push_model(self, i, body):
        if (conn := self.pick(i)) is not None:
            self.upload(conn, body)
        self.tick()

    @rule(i=PICKS, body=BODIES | st.none())
    def answer_pull(self, i, body):  # by a peer the pending round waits on; if there is none,
        if (conn := self.pick(i, where=self.waits_on)) is None:  # any peer's, never asked for
            conn = self.pick(i)
        if conn is not None:
            self.send(conn, Message(MessageType.ERROR, self.open[conn].device_id, b"NO_MODEL")
                      if body is None else self.model_data(conn, body))
        self.tick()

    @rule(i=PICKS)
    def answer_late(self, i):  # the deadline passes, then a peer the round waited on answers
        conn = self.pick(i, where=self.waits_on)
        self.advance(FAULT_TIMEOUT)
        if conn in self.open:  # with a model
            self.send(conn, self.model_data(conn, ("valid", 0)))
        self.tick()

    @rule(body=BODIES)
    def push_before_hello(self, body):  # from a new connection, which may greet later
        self.upload(self.new_conn(7), body)
        self.tick()

    @rule(i=PICKS, device_id=st.none() | st.integers(0, 3))
    def hello_again(self, i, device_id):  # None: its own id again, which greets it again
        if (conn := self.pick(i)) is not None:
            self.send(conn, hello(self.open[conn].device_id if device_id is None else device_id))
        self.tick()

    @rule(i=PICKS, at_once=st.booleans())
    def disconnect(self, i, at_once):  # now, or at the next send to it; a real device's link is cut
        conn = self.pick(i, real=None)
        if conn is not None and at_once:
            self.close(conn)
        elif conn is not None:
            self.failing.add(conn)
        self.tick()

    @rule(dt=st.sampled_from([0.5, 1.0, FAULT_TIMEOUT]))  # 1.0: the timer policy's interval
    def advance(self, dt):
        self.now += dt
        self.tick()

    def pump(self):
        """Prompt devices get all that is sent to them and step once; all they send arrives."""
        for step in (True, False):
            while links := [self.link[d] for d in sorted(self.prompt)
                            if self.open[self.link[d]].up or self.open[self.link[d]].down]:
                for conn in links:
                    self.flow(conn, up=False)
                    self.flow(conn, up=True)
            for d in sorted(self.prompt) if step else ():
                self.step_device(self.real[d])

    def tick(self):
        """What the server does after each message: tick the core at `now`, and check
        the round it finishes against the model and, if real devices trained it, the oracle."""
        self.pump()
        previous = self.global_
        record, want = self.rounds.tick(self.now), self.finish()
        assert (record is None) == (want is None)
        if record is not None:
            participants, contributions = want
            history = self.rounds.history
            assert history[-1] is record and record.index == len(history) == self.finished
            assert (record.participants, record.val_accuracy) == (participants, None)
            assert np.array_equal(record.blob.values, self.global_.values)
            assert record.checksum == zlib.crc32(encode_model(self.global_))
            self.check_oracle(record, contributions, previous)
        self.carry_out()
        self.pump()

    def finish(self):
        """Start the round the policy calls for, and finish the pending round once it is
        complete or `now` has reached its deadline: its participants and their models
        in device-id order, or None."""
        peers = {d: self.open[c] for d, c in self.devices.items()}
        if self.expected is None:
            policy = self.rounds.policy
            due = (self.pushes >= policy.value if policy.kind == "count"
                   else self.now - self.last >= policy.value)
            # A round waits on the devices that have ACKed a global and are not stale.
            live = [d for d in sorted(peers) if peers[d].acked and not peers[d].stale]
            if not (due and live):
                return None
            self.expected, self.deadline = set(live), self.now + FAULT_TIMEOUT
            self.waited = {d: self.devices[d] for d in live}
            for d in live:  # a push made after the ACK is the contribution; the rest are pulled
                if peers[d].pushed is not None:
                    self.collected[d], peers[d].pushed = peers[d].pushed, None
                else:
                    peers[d].pulls += 1
                    self.sends.append((self.devices[d], PULL))
        missing = self.expected - self.collected.keys()
        if missing and self.now < self.deadline:
            return None
        for d in missing:
            peers[d].stale = True
        collected = self.collected
        self.check_no_answered_device_left_out(collected)
        self.expected, self.collected, self.pushes, self.last = None, {}, 0, self.now
        if not collected:  # no device contributed: the round is aborted
            return None
        participants = tuple(sorted(collected))
        contributions = [collected[d] for d in participants]
        self.global_, self.finished = average_blobs(contributions), self.finished + 1
        for conn in self.devices.values():  # the new global, in registration order
            self.push_global(conn, self.open[conn])
        return participants, contributions

    def check_oracle(self, record, contributions, previous):
        """A round that only real sync devices trained, each one step from the
        previous global installed on its current link, is the oracle's round."""
        streams, previous_body = [], model_data_body(previous)
        for d, blob in zip(record.participants, contributions):
            trained = self.trained.get(d)
            if trained is None or trained[0] != previous_body or (
                    blob.values.tobytes() != wire_rounded(trained[2]).values.tobytes()):
                return
            streams.append(DeviceStream(d, FAULT_DATA, self.real[d].stream.indices[trained[1]:]))
        (want,) = wire_rounded_rounds(streams, previous, FAULT_SYNC_BATCH, FAULT_LR,
                                      FAULT_EPISODES, 1)
        assert np.array_equal(record.blob.values, want.values)
        assert record.checksum == zlib.crc32(encode_model(want))
        ORACLE_ROUNDS.append(record.participants)

    def check_no_answered_device_left_out(self, collected):
        """A real device the round waited on is left out only if its link was cut
        or the network still holds the round's PULL or the device's answer."""
        for d, conn in self.waited.items():
            peer = self.open.get(conn)
            if d in collected or peer is None or peer.dev is None:
                continue
            assert any(m.type is MessageType.PULL_MODEL for w in peer.down for m in w) or any(
                [m.type for m in w] == [MessageType.MODEL_DATA] for w in peer.up), d

    def teardown(self):
        # The run ends with rounds that show what the core holds of each peer.
        # Once a pending round has closed, a new connection pushes before its
        # HELLO, which counts for nothing, and greets. Then it pushes twice
        # after each ACK, so that a count round falls due, and the clock runs on
        # past a deadline, so that a pending round closes, then by exactly the
        # timer's interval, so that a timer round falls due; twice, each checked.
        if self.rounds is None:
            return
        self.advance(FAULT_TIMEOUT)
        closer = self.new_conn(4)
        self.upload(closer, ("valid", 0))
        self.tick()
        self.send(closer, hello(4))
        for dt in (FAULT_TIMEOUT, 1.0) * 2:
            self.send(closer, ack(4))
            self.upload(closer, ("valid", 0))
            self.upload(closer, ("valid", 0))
            self.advance(dt)
        # Last, with no round pending, a new peer is greeted twice, so that it is
        # two globals behind, ACKs once and pushes: the ACK answers the older
        # global, so the round that falls due pulls the peer instead of taking
        # its push.
        self.advance(FAULT_TIMEOUT)
        late = self.new_conn(6)
        self.send(late, hello(6), hello(6), ack(6))
        self.upload(late, ("valid", 0))
        self.upload(late, ("valid", 0))
        self.advance(FAULT_TIMEOUT)

    @invariant()
    def only_open_connections_are_peers(self):
        # A closed connection is forgotten, so `_peers` does not grow with reconnects.
        assert getattr(self.rounds, "_peers", {}).keys() & self.closed == set()

    @invariant()
    def no_unregistered_peer_holds_a_blob(self):
        for peer in getattr(self.rounds, "_peers", {}).values():
            assert peer.device_id is not None or peer.pushed is None


ORACLE_ROUNDS = []  # the participants of each round checked against the oracle


def test_round_core_keeps_its_invariants_under_faulty_peers():
    ORACLE_ROUNDS.clear()
    run_state_machine_as_test(RoundFaults, settings=settings(
        max_examples=100, stateful_step_count=40, deadline=None))
    # The oracle check must have run, on rounds of more than one device too.
    assert any(len(p) > 1 for p in ORACLE_ROUNDS), len(ORACLE_ROUNDS)


# -- the two cores against each other ---------------------------------------------------


def test_device_and_round_cores_reproduce_offline_rounds():
    # Two sync devices and a count:2 round core on a fake clock, each core's
    # messages handed to the other unchanged, run the wire-rounded oracle's
    # rounds bit for bit; the oracle stays within the wire's float32 rounding
    # of the simulator's rounds, and the live run ends near its accuracy.
    rounds, batch = 6, 5
    for e, classes, seed in ((8, 2, 30), (1280, 10, 31)):
        ds = synth_separable(e, classes, 90, 4.0, seed, val_fraction=1 / 3)
        blob0 = make_blob(31, e, classes)
        sim = run_training(
            RoundConfig(num_devices=2, batch_size=batch, local_episodes=2,
                        learning_rate=0.05, epochs=rounds),
            partition(ds, 2, seed),
            ds.validation_samples(),
            "pretrained",
            init_blob=blob0,
        )
        oracle = wire_rounded_rounds(partition(ds, 2, seed), blob0, batch, 0.05, 2, rounds)
        server = server_module.Rounds(blob0, RoundPolicy("count", 2), 5.0, 0.0)
        devices = [agent_module.Device(d, stream, learning_rate=0.05, local_episodes=2,
                                       sync_batch=batch)
                   for d, stream in enumerate(partition(ds, 2, seed))]
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
        for t, (record, want) in enumerate(zip(server.history, oracle, strict=True)):
            assert record.participants == (0, 1)
            assert np.array_equal(record.blob.values, want.values)
            assert record.checksum == zlib.crc32(encode_model(want))
            drift = np.max(np.abs(want.values - sim.round_blobs[t].values))
            assert drift <= 1e-6, f"round {t + 1} drifted by {drift}"
        live_acc = evaluate(server.history[-1].blob, ds.validation_samples())
        assert abs(live_acc - sim.history[-1].val_accuracy) <= 0.1


# -- the round core by example, on a fake clock ---------------------------------------


def core(initial, policy, *device_ids, round_timeout=5.0):
    """A `Rounds` at time 0 with a connection registered per id, keyed by the id."""
    rounds = server_module.Rounds(initial, policy, round_timeout, 0.0)
    for device_id in device_ids:
        deliver(rounds, device_id, hello(device_id))
    return rounds


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


def test_server_counts_an_ack_that_reports_exhaustion_as_an_ack(caplog):
    caplog.set_level(logging.INFO, logger="fedhead.runtime.server")
    mine = make_blob(15)
    rounds = core(make_blob(14), RoundPolicy("count", 1), 1)
    assert deliver(rounds, 1, ack(1, STATUS_DATA_EXHAUSTED)) == []
    assert "device 1 reports data exhausted" in [r.getMessage() for r in caplog.records]
    # The ACK answered the global, so the push that follows is a contribution.
    deliver(rounds, 1, *push(mine, 1))
    record, sends = tick(rounds, 0.0)
    assert record.participants == (1,) and sends == [(1, push(mine))]


def test_a_push_from_a_connection_that_never_sent_hello_is_refused_undecoded(monkeypatch):
    rounds = core(make_blob(95), RoundPolicy("count", 1), 0)
    calls = count_calls(monkeypatch, ("blob_from_model_data",))
    assert deliver(rounds, "stranger", *push(make_blob(96), 7)) == [
        ("stranger", error(b"UNEXPECTED_MODEL_DATA"))]
    assert calls == {} and rounds._peers["stranger"].pushed is None


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


# -- the device core by example ----------------------------------------------------------


def make_stream(n, seed=0, e=8):
    ds = synth_separable(e, 2, n, 4.0, seed, val_fraction=0.0)
    (stream,) = partition(ds, 1, seed)
    return stream


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


def test_a_free_run_devices_memory_stays_flat():
    # At E = 1280 a blob is 2,562 float64 values. A step keeps nothing but the
    # head and this thread's training scratch, so 950 more steps, pushing every
    # 10th head, leave memory where 50 left it, to within one blob.
    ds = synth_separable(1280, 2, 1000, 4.0, 75, val_fraction=0.0)
    (stream,) = partition(ds, 1, 75)
    dev = device(stream, local_episodes=1, push_every=10)
    tell(dev, *push(make_blob(76, e=1280)))
    tracemalloc.start()
    try:
        traced = []
        for steps in (50, 1000):
            while dev.samples_trained < steps:
                assert dev.step()
                dev.output()
            traced.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert abs(traced[1] - traced[0]) <= 2562 * 8, traced
