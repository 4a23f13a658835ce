"""End-to-end acceptance suite.

Each test exercises one headline guarantee of the package and prints a
single [PASS]/[FAIL] line with the measured numbers, then asserts. Seeds
are fixed throughout, so every run reproduces the same measurements.
"""
import dataclasses
import threading
import time

import numpy as np

from fedhead.data import partition, synth_separable, synth_sparse
from fedhead.errors import CorruptionError
from fedhead.federation import (
    ModelBlob,
    RoundConfig,
    average_blobs,
    blob_from_head,
    head_from_blob,
    run_training,
)
from fedhead.nn import (
    footprint_bytes,
    gradient_check,
    init_head,
    sample_gradients,
    train_batch,
)
from fedhead.runtime import Agent, RoundPolicy, Server
from fedhead.simulator import default_presets, run_sweep
from fedhead.wire import (
    decode_model,
    encode_model,
    encoded_size,
    frame_stream,
    frames_from_bytes,
    frames_to_bytes,
    unframe_stream,
)


def _report(index: int, claim: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {index}: {claim} ({detail})")
    assert ok, f"acceptance {index}: {claim} ({detail})"


def test_acceptance_01_gradients_match_finite_differences():
    start = time.perf_counter()
    worst = gradient_check(trials=100, seed=0, step=1e-5, max_dim=8, max_classes=4)
    elapsed = time.perf_counter() - start
    _report(
        1, "analytic gradients match central finite differences",
        worst <= 1e-5 and elapsed < 5.0,
        f"max rel err {worst:.2e} over 100 instances, tol 1e-05, {elapsed:.2f}s",
    )


def test_acceptance_02_single_device_is_bitwise_sequential_sgd():
    start = time.perf_counter()
    ds = synth_separable(16, 2, 700, 4.0, 2, val_fraction=0.2)
    cfg = RoundConfig(num_devices=1, batch_size=5, local_episodes=2,
                      learning_rate=0.01, epochs=100)
    fed = run_training(cfg, partition(ds, 1, 2), ds.validation_samples(),
                       "random", init_seed=2)
    (dup,) = partition(ds, 1, 2)  # same seed, same sample order
    head = init_head(16, 2, "random", seed=2)
    identical = True
    for blob in fed.round_blobs:
        head = train_batch(head, dup.take(5), 0.01, 2)
        identical = identical and np.array_equal(blob_from_head(head).values, blob.values)
    elapsed = time.perf_counter() - start
    _report(
        2, "one-device federation equals sequential training bitwise",
        identical and elapsed < 5.0,
        f"100 rounds compared, {elapsed:.2f}s",
    )


def test_acceptance_03_averaging_matches_naive_oracle():
    rng = np.random.default_rng(3)
    blobs_used = 0
    exact = True
    while blobs_used < 1000:
        k = int(rng.integers(1, 9))
        e = int(rng.integers(1, 7))
        c = int(rng.integers(1, 5))
        n = c * e + c
        group = [ModelBlob(rng.normal(0.0, 2.0, n), e, c) for _ in range(k)]
        got = average_blobs(group).values
        for i in range(n):
            acc = float(group[0].values[i])
            for b in group[1:]:
                acc = acc + float(b.values[i])
            acc = acc / k
            exact = exact and got[i] == acc
        blobs_used += k

    single = ModelBlob(rng.normal(0.0, 2.0, 10), 4, 2)
    identity = np.array_equal(average_blobs([single]).values, single.values)
    opposite = ModelBlob(-single.values, 4, 2)
    cancels = np.all(average_blobs([single, opposite]).values == 0.0)
    _report(
        3, "averaging equals the per-index mean oracle exactly",
        exact and identity and bool(cancels),
        f"{blobs_used} random blobs, identity and symmetric-pair cases included",
    )


def test_acceptance_04_wire_round_trips_and_corruption_detection():
    rng = np.random.default_rng(4)
    cases = 0
    lossless = True
    for _ in range(5000):
        e = int(rng.integers(1, 33))
        c = int(rng.integers(1, 6))
        values = rng.normal(0.0, 3.0, c * e + c)
        back = decode_model(encode_model(ModelBlob(values, e, c)))
        want = values.astype(np.float32).astype(np.float64)
        lossless = lossless and np.array_equal(back.values, want)
        cases += 1
    for _ in range(5000):
        payload = rng.bytes(int(rng.integers(0, 201)))
        frames = frame_stream(payload)
        lossless = lossless and unframe_stream(frames) == payload
        lossless = lossless and frames_from_bytes(frames_to_bytes(frames)) == frames
        cases += 1

    encoded = encode_model(ModelBlob(rng.normal(0.0, 1.0, 18), 8, 2))
    flips = 0
    caught = 0
    for offset in range(16, len(encoded)):  # every payload byte
        for mask in (0x01, 0x80, 0xFF):
            corrupt = bytearray(encoded)
            corrupt[offset] ^= mask
            flips += 1
            try:
                decode_model(bytes(corrupt))
            except CorruptionError:
                caught += 1
    sized = encoded_size(256, 2) == 2072
    _report(
        4, "wire codecs are float32-lossless and corruption is detected",
        lossless and caught == flips and sized,
        f"{cases} round trips, {caught}/{flips} payload flips caught, "
        f"encoded_size(256,2)={encoded_size(256, 2)}",
    )


def test_acceptance_05_footprint_constant_over_streamed_samples():
    ds = synth_separable(16, 2, 10000, 4.0, 5, val_fraction=0.0)
    (stream,) = partition(ds, 1, 5)
    head0 = init_head(16, 2, "random", seed=5)
    before = (
        footprint_bytes(head0.embedding_dim, head0.num_classes),
        head0.param_count,
        head0.weights.size + head0.bias.size,
    )
    head1 = head0
    for sample in stream.take(10000):
        head1 = train_batch(head1, [sample], 0.01, 1)
    after = (
        footprint_bytes(head1.embedding_dim, head1.num_classes),
        head1.param_count,
        head1.weights.size + head1.bias.size,
    )
    _report(
        5, "model footprint is unchanged by streamed one-shot training",
        before == after and stream.samples_seen == 10000,
        f"{before[0]} bytes, {before[1]} live parameters across 10000 samples",
    )


def test_acceptance_06_accuracy_ordering_across_device_counts():
    start = time.perf_counter()
    # The criterion constrains only N in {1, 2, 4}. Each repetition's seeds
    # derive from base_seed + r alone (simulator module contract), so these
    # points' statistics are identical whether or not N=8 also runs.
    cfg = dataclasses.replace(default_presets()["fig2"], sweep_values=[1, 2, 4])
    result = run_sweep(cfg)
    finals = {p.sweep_value: p.epochs[-1].val_acc_mean for p in result.points}
    elapsed = time.perf_counter() - start
    ok = (
        finals[1] >= 0.90
        and finals[2] >= 0.90
        and finals[1] + 0.02 >= finals[2] >= finals[4] - 0.02
        and elapsed < 60.0
    )
    _report(
        6, "more devices never helps final accuracy beyond tolerance",
        ok,
        f"final means N=1 {finals[1]:.4f}, N=2 {finals[2]:.4f}, N=4 {finals[4]:.4f}, "
        f"{elapsed:.1f}s",
    )


def test_acceptance_07_small_batches_raise_run_variability():
    # Only B=1 and B=20 appear in the claim; same seed-independence argument
    # as acceptance 6 lets the other preset values stay out of the run.
    cfg = dataclasses.replace(default_presets()["fig3"], sweep_values=[1, 20])
    result = run_sweep(cfg)
    spread = {
        p.sweep_value: float(np.mean([s.val_acc_std for s in p.epochs]))
        for p in result.points
    }
    _report(
        7, "batch size 1 shows more epoch-to-epoch spread than 20",
        spread[1] > spread[20],
        f"mean per-epoch std B=1 {spread[1]:.5f} > B=20 {spread[20]:.5f}",
    )


def test_acceptance_08_random_and_pretrained_inits_reach_parity():
    result = run_sweep(default_presets()["fig1"])
    finals = {p.sweep_value: p.epochs[-1] for p in result.points}
    mr, sr = finals["random"].val_acc_mean, finals["random"].val_acc_std
    mp, sp = finals["pretrained"].val_acc_mean, finals["pretrained"].val_acc_std
    pooled = float(np.sqrt((sr ** 2 + sp ** 2) / 2.0))
    _report(
        8, "random and pretrained inits land within the pooled std",
        abs(mr - mp) < pooled,
        f"random {mr:.4f}±{sr:.4f}, pretrained {mp:.4f}±{sp:.4f}, "
        f"|diff| {abs(mr - mp):.5f} < pooled {pooled:.5f}",
    )


def test_acceptance_09_live_deployment_matches_simulation():
    start = time.perf_counter()
    rounds, batch = 50, 4
    ds = synth_separable(16, 2, 500, 4.0, 9, val_fraction=0.2)
    # Both sides start from the same float32-exact parameters, so the only
    # divergence left is the per-round encode rounding.
    blob0 = decode_model(encode_model(blob_from_head(init_head(16, 2, "random", seed=9))))
    sim = run_training(
        RoundConfig(num_devices=2, batch_size=batch, local_episodes=2,
                    learning_rate=0.01, epochs=rounds),
        partition(ds, 2, 9), ds.validation_samples(), "pretrained", init_blob=blob0,
    )

    streams = partition(ds, 2, 9)
    server = Server("127.0.0.1", 0, blob0, RoundPolicy("count", 2), max_rounds=rounds)
    server_thread = threading.Thread(target=server.run, daemon=True)
    server_thread.start()
    agents = [
        Agent(server.address[0], server.address[1], device_id, streams[device_id],
              learning_rate=0.01, local_episodes=2, sync_batch=batch)
        for device_id in (0, 1)
    ]

    def run_quiet(worker):
        try:
            worker.run()
        except ConnectionError:
            pass  # the server exits first once the rounds are done

    agent_threads = [threading.Thread(target=run_quiet, args=(a,), daemon=True) for a in agents]
    for t in agent_threads:
        t.start()
    server_thread.join(55.0)
    for a in agents:
        a.stop()
    for t in agent_threads:
        t.join(5.0)

    finished = not server_thread.is_alive() and len(server.history) == rounds
    worst = 0.0
    if finished:
        for record, expected in zip(server.history, sim.round_blobs):
            worst = max(worst, float(np.max(np.abs(record.blob.values - expected.values))))
    elapsed = time.perf_counter() - start
    _report(
        9, "two-agent loopback reproduces the simulator round for round",
        finished and worst <= 1e-5 and elapsed < 60.0,
        f"{len(server.history)} rounds, worst per-parameter gap {worst:.2e}, "
        f"tol 1e-05, {elapsed:.1f}s",
    )


def test_acceptance_10_sparse_embeddings_converge_with_frozen_dead_dims():
    ds = synth_sparse(256, 16, 2, 3000, 0)
    res = run_training(
        RoundConfig(num_devices=2, batch_size=20, local_episodes=5,
                    learning_rate=0.01, epochs=60),
        partition(ds, 2, 0), ds.validation_samples(), "random", init_seed=0,
    )
    accuracy = res.history[-1].val_accuracy
    dead = np.flatnonzero(~np.any(ds.features != 0.0, axis=0))

    w_init = init_head(256, 2, "random", seed=0).weights
    frozen = all(
        np.array_equal(head_from_blob(blob).weights[:, dead], w_init[:, dead])
        for blob in res.round_blobs
    )
    grads_zero = True
    final_head = head_from_blob(res.final_blob)
    for sample in ds.validation_samples()[:5]:
        g = sample_gradients(final_head, sample)
        grads_zero = grads_zero and bool(np.all(g.d_weights[:, dead] == 0.0))
    _report(
        10, "sparse task converges while dead dimensions never move",
        accuracy >= 0.9 and len(dead) == 240 and frozen and grads_zero,
        f"val acc {accuracy:.4f}, {len(dead)} dead dims frozen across "
        f"{len(res.round_blobs)} rounds",
    )
