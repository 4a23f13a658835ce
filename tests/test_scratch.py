"""Reused training buffers cannot leak: `train_batch` keeps per-thread
scratch buffers for the last shape it trained, the only per-thread state in
fedhead (`federated_round` allocates its batch per call), so no returned
value may view them, a shape change must re-size them, and two threads must
never share them."""
import sys
import threading

import numpy as np
import pytest

import fedhead.nn as nn
from fedhead.data import partition, synth_separable
from fedhead.federation import RoundConfig, federated_round, run_training
from fedhead.nn import StackedSamples, init_head, train_batch


def in_fresh_thread(fn, *args):
    """fn(*args) in a new thread, whose scratch starts empty."""
    out = []
    worker = threading.Thread(target=lambda: out.append(fn(*args)))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive() and out, "the call raised or hung in its thread"
    return out[0]


def random_batch(rng, devices, n, e, c):
    lead = () if devices is None else (devices,)
    return StackedSamples(rng.normal(size=(*lead, n, e)), rng.integers(0, c, size=(*lead, n)))


def rows_of(result):
    return result.values if isinstance(result, nn.ModelBlob) else result


def setup(seed, num_devices, n=120):
    ds = synth_separable(8, 2, n * num_devices, 4.0, seed, val_fraction=0.2)
    return ds, partition(ds, num_devices, seed)


@pytest.mark.parametrize("num_devices", [1, 2, 4])
def test_run_training_round_blobs_are_a_chain_of_rounds(num_devices):
    cfg = RoundConfig(num_devices=num_devices, batch_size=5, local_episodes=3,
                      learning_rate=0.05, epochs=12)
    ds, streams = setup(31, num_devices)
    _, twins = setup(31, num_devices)
    val = ds.stacked_validation()
    result = run_training(cfg, streams, val, init_seed=8)
    blob, chain = init_head(8, 2, "random", seed=8), []
    for _ in range(cfg.epochs):
        blob, _, _ = federated_round(twins, blob, cfg, val)
        chain.append(blob.values.copy())  # copied before the next round runs
    assert all(np.array_equal(b.values, v) for b, v in zip(result.round_blobs, chain))
    assert not np.array_equal(chain[0], chain[-1])


def test_a_trained_blob_survives_the_next_call():
    rng = np.random.default_rng(32)
    head = init_head(16, 2, "random", seed=2)
    first = train_batch(head, random_batch(rng, None, 20, 16, 2), 0.1, 5)
    kept = first.values.copy()
    second = train_batch(head, random_batch(rng, None, 20, 16, 2), 0.1, 5)
    assert np.array_equal(first.values, kept)
    assert not np.array_equal(second.values, kept)


def test_shape_changes_in_one_thread_match_fresh_buffers():
    rng = np.random.default_rng(33)
    calls = []
    for devices, n, e, c in [(1, 20, 16, 2), (4, 20, 16, 2), (1, 20, 16, 2), (None, 20, 16, 3),
                             (None, 20, 16, 2), (None, 5, 16, 2), (None, 20, 16, 2),
                             (2, 20, 1280, 2), (2, 20, 16, 2)]:
        calls.append((init_head(e, c, "random", seed=len(calls)), random_batch(rng, devices, n, e, c)))

    def in_order():
        return [rows_of(train_batch(head, batch, 0.05, 3)) for head, batch in calls]

    reused = in_fresh_thread(in_order)
    for (head, batch), rows in zip(calls, reused):
        fresh = in_fresh_thread(lambda: rows_of(train_batch(head, batch, 0.05, 3)))
        assert np.array_equal(rows, fresh)


def test_threads_train_as_one_thread_would():
    # Three threads on two cores, all of one shape, so buffers shared between
    # them would be written by one while another trains on them.
    rng = np.random.default_rng(34)
    jobs = [[random_batch(rng, devices, 20, 16, 2) for _ in range(200)]
            for devices in (None, 1, None)]

    def chain(batches, barrier=None):
        head, rows = init_head(16, 2, "random", seed=4), []
        try:
            for batch in batches:
                if barrier is not None:
                    barrier.wait()  # start each call in step with the other threads
                out = train_batch(head, batch, 0.05, 5)
                rows.append(rows_of(out))
                head = out if isinstance(out, nn.ModelBlob) else nn.ModelBlob(out[0], 16, 2)
        except Exception:
            if barrier is not None:
                barrier.abort()  # so the other threads stop waiting
            raise
        return rows

    alone = in_fresh_thread(lambda: [chain(batches) for batches in jobs])
    barrier, together = threading.Barrier(len(jobs), timeout=60), [None] * len(jobs)
    workers = [threading.Thread(target=lambda i=i: together.__setitem__(i, chain(jobs[i], barrier)))
               for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    for a, t in zip(alone, together):
        assert t is not None and all(np.array_equal(x, y) for x, y in zip(a, t))


def test_a_run_sizes_its_scratch_once(monkeypatch):
    sized = []
    original = nn._size_scratch

    def counting(shape):
        sized.append(shape)
        return original(shape)

    monkeypatch.setattr(nn, "_size_scratch", counting)
    cfg = RoundConfig(num_devices=2, batch_size=4, local_episodes=2, learning_rate=0.05,
                      epochs=100)
    ds, streams = setup(35, 2, n=520)
    in_fresh_thread(run_training, cfg, streams, ds.stacked_validation())
    assert sized == [(2, 4, 8, 2)]
