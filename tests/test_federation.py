"""Round averaging, the N=1 baseline identity, and full training runs."""
import warnings

import numpy as np
import pytest

from fedhead.data import partition, synth_separable
from fedhead.errors import DataExhaustedError, ShapeError
from fedhead.federation import (
    DeviceState,
    ModelBlob,
    RoundConfig,
    average_blobs,
    blob_from_head,
    evaluate,
    federated_round,
    head_from_blob,
    run_training,
)
from fedhead.nn import (
    DenseHead, EmbeddingSample, StackedSamples, init_head, predict, stack_samples, train_batch,
)


def random_blob(rng, e=3, c=2):
    return ModelBlob(rng.normal(size=c * e + c), e, c)


# -- ModelBlob ----------------------------------------------------------------


def test_blob_length_is_validated():
    with pytest.raises(ShapeError):
        ModelBlob(np.zeros(7), 3, 2)  # needs 2*3+2 = 8
    blob = ModelBlob(np.zeros(8), 3, 2)
    assert blob.param_count == 8


def test_blob_head_round_trip_is_lossless():
    rng = np.random.default_rng(0)
    head = init_head(5, 3, "random", seed=1)
    blob = blob_from_head(head)
    assert np.array_equal(blob.values[:15], head.weights.ravel())
    assert np.array_equal(blob.values[15:], head.bias)
    back = head_from_blob(blob)
    assert np.array_equal(back.weights, head.weights)
    assert np.array_equal(back.bias, head.bias)
    # and the reverse direction
    blob2 = blob_from_head(head_from_blob(random_blob(rng)))
    assert blob2.param_count == 8


def test_blob_rejects_nonfinite():
    with pytest.raises(ValueError):
        ModelBlob(np.array([0.0, np.inf, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]), 3, 2)


# -- average_blobs --------------------------------------------------------------


def test_average_identity_is_exact():
    blob = random_blob(np.random.default_rng(1))
    out = average_blobs([blob])
    assert np.array_equal(out.values, blob.values)


def test_average_of_equal_blobs_is_that_blob():
    blob = random_blob(np.random.default_rng(2))
    out = average_blobs([blob, blob, blob])
    assert np.allclose(out.values, blob.values, rtol=0, atol=1e-15)


def test_average_symmetric_pair_is_zero():
    blob = random_blob(np.random.default_rng(3))
    neg = ModelBlob(-blob.values, blob.embedding_dim, blob.num_classes)
    out = average_blobs([blob, neg])
    assert np.all(out.values == 0.0)


def test_average_matches_naive_per_index_oracle_exactly():
    rng = np.random.default_rng(4)
    blobs = [ModelBlob(rng.normal(size=10), 4, 2) for _ in range(3)]
    out = average_blobs(blobs)
    for i in range(10):
        acc = blobs[0].values[i]
        for b in blobs[1:]:
            acc = acc + b.values[i]
        assert out.values[i] == acc / 3


def test_average_permutation_within_tolerance():
    rng = np.random.default_rng(5)
    blobs = [random_blob(rng, e=6, c=3) for _ in range(5)]
    a = average_blobs(blobs)
    b = average_blobs(list(reversed(blobs)))
    assert np.max(np.abs(a.values - b.values)) <= 1e-12


def test_average_usage_errors():
    with pytest.raises(ValueError):
        average_blobs([])
    rng = np.random.default_rng(6)
    with pytest.raises(ShapeError):
        average_blobs([random_blob(rng, 3, 2), random_blob(rng, 4, 2)])


def test_average_preserves_shape_metadata():
    rng = np.random.default_rng(7)
    out = average_blobs([random_blob(rng, 5, 3) for _ in range(4)])
    assert (out.embedding_dim, out.num_classes, out.param_count) == (5, 3, 18)


# -- evaluate --------------------------------------------------------------------


def balanced_samples(rng, n, e=4):
    return [EmbeddingSample(rng.normal(size=e), i % 2) for i in range(n)]


def test_evaluate_zero_head_on_balanced_set_is_half():
    rng = np.random.default_rng(8)
    samples = balanced_samples(rng, 40)
    blob = blob_from_head(init_head(4, 2, "zeros"))
    assert evaluate(blob, samples) == 0.5


def test_evaluate_perfect_separator_is_one():
    samples = [
        EmbeddingSample(np.array([1.0, 0.0]), 0),
        EmbeddingSample(np.array([0.0, 1.0]), 1),
    ] * 5
    blob = blob_from_head(
        head_from_blob(ModelBlob(np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0]), 2, 2))
    )
    assert evaluate(blob, samples) == 1.0


def test_evaluate_matches_argmax_oracle():
    rng = np.random.default_rng(9)
    blob = random_blob(rng, 6, 3)
    head = head_from_blob(blob)
    samples = [EmbeddingSample(rng.normal(size=6), int(rng.integers(3))) for _ in range(97)]
    correct = sum(1 for s in samples if predict(head, s.features) == s.label)
    assert evaluate(blob, samples) == correct / 97


def test_evaluate_empty_is_usage_error():
    with pytest.raises(ValueError):
        evaluate(random_blob(np.random.default_rng(10)), [])


def test_evaluate_empty_stacked_set_is_usage_error():
    blob = random_blob(np.random.default_rng(10))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no "Mean of empty slice" on the way
        for empty in ((np.empty((0, 3)), np.empty(0)),
                      StackedSamples(np.empty((0, 3)), np.empty(0, dtype=np.int64))):
            with pytest.raises(ValueError):
                evaluate(blob, empty)


def test_evaluate_stacked_set_matches_list():
    rng = np.random.default_rng(11)
    blob = random_blob(rng, 6, 3)
    samples = [EmbeddingSample(rng.normal(size=6), int(rng.integers(3))) for _ in range(97)]
    stacked = stack_samples(samples)
    assert evaluate(blob, stacked) == evaluate(blob, samples)
    assert evaluate(blob, (stacked.features, stacked.labels)) == evaluate(blob, samples)


# -- federated_round --------------------------------------------------------------


def small_setup(seed, n=200, num_devices=2, e=8):
    ds = synth_separable(e, 2, n, 4.0, seed, val_fraction=0.2)
    streams = partition(ds, num_devices, seed)
    return ds, streams


def test_round_n1_is_bitwise_sequential_training():
    ds, (stream,) = small_setup(0, num_devices=1)
    ds2, (oracle_stream,) = small_setup(0, num_devices=1)
    cfg = RoundConfig(num_devices=1, batch_size=4, local_episodes=3, learning_rate=0.05, epochs=1)
    global_blob = blob_from_head(init_head(8, 2, "random", seed=5))
    devices = [DeviceState(0, head_from_blob(global_blob), stream)]
    oracle_head = head_from_blob(global_blob)
    for _ in range(10):
        result = federated_round(devices, global_blob, cfg, ds.validation_samples())
        global_blob = result.global_blob
        oracle_head = train_batch(oracle_head, oracle_stream.take(4), 0.05, 3)
        assert np.array_equal(global_blob.values, blob_from_head(oracle_head).values)


def list_path_round(devices, global_blob, cfg, val):
    """One round computed from EmbeddingSample lists: each batch is taken as
    a list, and training and scoring each stack it on their own."""
    train_accuracies = []
    for d in devices:
        batch = d.stream.take(cfg.batch_size)
        d.head = train_batch(head_from_blob(global_blob), batch, cfg.learning_rate,
                             cfg.local_episodes)
        train_accuracies.append(evaluate(blob_from_head(d.head), batch))
    ordered = sorted(devices, key=lambda d: d.device_id)
    new_global = average_blobs([blob_from_head(d.head) for d in ordered])
    return new_global, evaluate(new_global, val), train_accuracies


@pytest.mark.parametrize("num_devices", [1, 3])
def test_round_on_stacked_batches_is_bitwise_the_list_path(num_devices):
    ds, streams = small_setup(12, n=300, num_devices=num_devices)
    _, twins = small_setup(12, n=300, num_devices=num_devices)
    cfg = RoundConfig(num_devices=num_devices, batch_size=6, local_episodes=3,
                      learning_rate=0.05, epochs=1)
    start = blob_from_head(init_head(8, 2, "random", seed=13))
    devices = [DeviceState(s.device_id, head_from_blob(start), s) for s in streams]
    oracle = [DeviceState(s.device_id, head_from_blob(start), s) for s in twins]
    val_list, val_stacked = ds.validation_samples(), ds.stacked_validation()
    blob, oracle_blob = start, start
    for _ in range(8):
        result = federated_round(devices, blob, cfg, val_stacked)
        oracle_blob, oracle_acc, oracle_train = list_path_round(oracle, oracle_blob, cfg, val_list)
        blob = result.global_blob
        assert np.array_equal(blob.values, oracle_blob.values)
        assert result.val_accuracy == oracle_acc
        assert result.train_accuracies == oracle_train
    assert [s.samples_seen for s in streams] == [s.samples_seen for s in twins]


def test_round_over_devices_out_of_id_order_is_bitwise_the_list_path():
    ds, streams = small_setup(14, n=400, num_devices=4)
    _, twins = small_setup(14, n=400, num_devices=4)
    cfg = RoundConfig(num_devices=4, batch_size=5, local_episodes=2, learning_rate=0.2, epochs=1)
    start = blob_from_head(init_head(8, 2, "random", seed=14))
    order = [2, 0, 3, 1]
    devices = [DeviceState(streams[i].device_id, head_from_blob(start), streams[i]) for i in order]
    oracle = [DeviceState(twins[i].device_id, head_from_blob(start), twins[i]) for i in order]
    blob, oracle_blob = start, start
    for _ in range(5):
        result = federated_round(devices, blob, cfg, ds.stacked_validation())
        oracle_blob, oracle_acc, oracle_train = list_path_round(
            oracle, oracle_blob, cfg, ds.validation_samples())
        blob = result.global_blob
        assert np.array_equal(blob.values, oracle_blob.values)
        assert result.val_accuracy == oracle_acc
        assert result.train_accuracies == oracle_train
        for d, o in zip(devices, oracle):
            assert np.array_equal(blob_from_head(d.head).values, blob_from_head(o.head).values)


def test_round_with_a_nan_feature_changes_no_device_state():
    ds, streams = small_setup(15, n=300, num_devices=3)
    cfg = RoundConfig(num_devices=3, batch_size=6, local_episodes=2, learning_rate=0.1, epochs=1)
    global_blob = blob_from_head(init_head(8, 2, "random", seed=15))
    heads = [init_head(8, 2, "random", seed=i) for i in range(3)]
    devices = [DeviceState(s.device_id, h, s, samples_seen=7) for s, h in zip(streams, heads)]
    bad = streams[1]
    ds.features[bad.indices[bad.cursor + 3], 2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        federated_round(devices, global_blob, cfg, ds.stacked_validation())
    assert all(d.head is h for d, h in zip(devices, heads))
    assert [d.samples_seen for d in devices] == [7, 7, 7]


def test_round_rejects_a_stream_of_another_shape_before_any_take():
    ds, (stream,) = small_setup(16, num_devices=1)
    narrow = partition(synth_separable(4, 2, 200, 4.0, 16), 1, 16)[0]
    three = partition(synth_separable(8, 3, 200, 4.0, 16), 1, 16)[0]
    cfg = RoundConfig(num_devices=2, batch_size=5, local_episodes=1, learning_rate=0.1, epochs=1)
    global_blob = blob_from_head(init_head(8, 2, "zeros"))
    for other, match in ((narrow, "device 1: stream has dim 4"), (three, "3 classes")):
        devices = [DeviceState(0, head_from_blob(global_blob), stream),
                   DeviceState(1, head_from_blob(global_blob), other)]
        with pytest.raises(ShapeError, match=match):
            federated_round(devices, global_blob, cfg, ds.stacked_validation())
        assert stream.samples_seen == other.samples_seen == 0


def test_round_rejects_validation_of_another_dim_before_training():
    ds, (stream,) = small_setup(17, num_devices=1)
    other = synth_separable(4, 2, 50, 4.0, 17)
    cfg = RoundConfig(num_devices=1, batch_size=5, local_episodes=1, learning_rate=0.1, epochs=1)
    global_blob = blob_from_head(init_head(8, 2, "zeros"))
    devices = [DeviceState(0, head_from_blob(global_blob), stream)]
    for val in (other.validation_samples(), other.stacked_validation()):
        with pytest.raises(ShapeError, match="dim 4, model expects 8"):
            federated_round(devices, global_blob, cfg, val)
    assert stream.samples_seen == 0


def test_head_from_blob_views_the_blob_values():
    blob = random_blob(np.random.default_rng(2), e=5, c=3)
    head = head_from_blob(blob)
    assert np.shares_memory(head.weights, blob.values)
    assert np.shares_memory(head.bias, blob.values)


def test_round_leaves_the_callers_global_blob_unchanged():
    ds, streams = small_setup(18, n=300, num_devices=3)
    cfg = RoundConfig(num_devices=3, batch_size=6, local_episodes=5, learning_rate=0.5, epochs=1)
    global_blob = blob_from_head(init_head(8, 2, "random", seed=18))
    before = global_blob.values.copy()
    devices = [DeviceState(s.device_id, head_from_blob(global_blob), s) for s in streams]
    result = federated_round(devices, global_blob, cfg, ds.stacked_validation())
    assert np.array_equal(global_blob.values, before)
    assert not np.array_equal(result.global_blob.values, before)


def test_round_builds_at_most_two_heads_beyond_the_devices(monkeypatch):
    # One start head, one trained head per device and one to score the new
    # global; building a head re-checks every parameter for finiteness.
    ds, streams = small_setup(19, n=300, num_devices=3)
    cfg = RoundConfig(num_devices=3, batch_size=6, local_episodes=5, learning_rate=0.05, epochs=1)
    global_blob = blob_from_head(init_head(8, 2, "random", seed=19))
    devices = [DeviceState(s.device_id, head_from_blob(global_blob), s) for s in streams]
    val = ds.stacked_validation()
    built = []
    original = DenseHead.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(DenseHead, "__post_init__", counting)
    federated_round(devices, global_blob, cfg, val)
    assert len(built) <= cfg.num_devices + 2


def test_round_identical_devices_average_to_themselves():
    ds, _ = small_setup(1, n=100, num_devices=1)
    # two streams over the same underlying samples, same order
    s_a = partition(ds, 1, 3)[0]
    s_b = partition(ds, 1, 3)[0]
    cfg = RoundConfig(num_devices=2, batch_size=5, local_episodes=2, learning_rate=0.01, epochs=1)
    global_blob = blob_from_head(init_head(8, 2, "random", seed=6))
    devices = [
        DeviceState(0, head_from_blob(global_blob), s_a),
        DeviceState(1, head_from_blob(global_blob), s_b),
    ]
    result = federated_round(devices, global_blob, cfg, ds.validation_samples())
    assert np.allclose(
        result.global_blob.values, blob_from_head(devices[0].head).values, rtol=0, atol=1e-15
    )


def test_round_exhaustion_names_device():
    ds, streams = small_setup(2, n=100, num_devices=2)
    cfg = RoundConfig(num_devices=2, batch_size=41, local_episodes=1, learning_rate=0.01, epochs=1)
    global_blob = blob_from_head(init_head(8, 2, "zeros"))
    devices = [DeviceState(i, head_from_blob(global_blob), s) for i, s in enumerate(streams)]
    with pytest.raises(DataExhaustedError, match="device 0"):
        federated_round(devices, global_blob, cfg, ds.validation_samples())
    # the failed round must not have consumed anything
    assert devices[0].samples_seen == 0 and devices[1].samples_seen == 0


def test_round_advances_cursors_by_batch():
    ds, streams = small_setup(3, n=100, num_devices=2)
    cfg = RoundConfig(num_devices=2, batch_size=7, local_episodes=1, learning_rate=0.01, epochs=1)
    global_blob = blob_from_head(init_head(8, 2, "zeros"))
    devices = [DeviceState(i, head_from_blob(global_blob), s) for i, s in enumerate(streams)]
    federated_round(devices, global_blob, cfg, ds.validation_samples())
    assert all(d.samples_seen == 7 for d in devices)
    federated_round(devices, average_blobs([blob_from_head(d.head) for d in devices]), cfg,
                    ds.validation_samples())
    assert all(d.samples_seen == 14 for d in devices)


def test_two_devices_reach_high_accuracy_on_separable_data():
    ds = synth_separable(16, 2, 2500, 4.0, 12, val_fraction=0.2)
    cfg = RoundConfig(num_devices=2, batch_size=20, local_episodes=5, learning_rate=0.01, epochs=50)
    result = run_training(cfg, partition(ds, 2, 12), ds.validation_samples(), "random", init_seed=12)
    assert result.history[-1].val_accuracy >= 0.95


# -- run_training -------------------------------------------------------------------


def test_run_training_history_and_accounting():
    ds, streams = small_setup(4, n=300, num_devices=2)
    cfg = RoundConfig(num_devices=2, batch_size=5, local_episodes=2, learning_rate=0.01, epochs=9)
    result = run_training(cfg, streams, ds.validation_samples(), "random", init_seed=1)
    assert len(result.history) == 9
    for t, rec in enumerate(result.history, start=1):
        assert rec.epoch == t
        assert rec.examples_seen == 2 * 5 * t
        assert 0.0 <= rec.val_accuracy <= 1.0
        assert 0.0 <= rec.train_accuracy <= 1.0
    # one-shot accounting: every consumed index consumed exactly once
    assert all(s.samples_seen == 5 * 9 for s in streams)
    assert len(result.round_blobs) == 9
    assert np.array_equal(result.final_blob.values, result.round_blobs[-1].values)


def test_run_training_is_deterministic():
    def run():
        ds, streams = small_setup(5, n=200, num_devices=2)
        cfg = RoundConfig(num_devices=2, batch_size=4, local_episodes=1,
                          learning_rate=0.02, epochs=6)
        return run_training(cfg, streams, ds.validation_samples(), "random", init_seed=77)

    a, b = run(), run()
    assert [r.val_accuracy for r in a.history] == [r.val_accuracy for r in b.history]
    assert np.array_equal(a.final_blob.values, b.final_blob.values)


def test_run_training_with_a_stacked_validation_set_is_bitwise_the_list():
    def run(stacked):
        ds, streams = small_setup(14, n=300, num_devices=3)
        cfg = RoundConfig(num_devices=3, batch_size=5, local_episodes=2,
                          learning_rate=0.05, epochs=12)
        val = ds.stacked_validation() if stacked else ds.validation_samples()
        return run_training(cfg, streams, val, "random", init_seed=15)

    a, b = run(False), run(True)
    assert len(a.round_blobs) == len(b.round_blobs) == 12
    for x, y in zip(a.round_blobs, b.round_blobs):
        assert np.array_equal(x.values, y.values)
    assert [(r.epoch, r.examples_seen, r.val_accuracy, r.train_accuracy) for r in a.history] == [
        (r.epoch, r.examples_seen, r.val_accuracy, r.train_accuracy) for r in b.history
    ]


def test_run_training_rejects_an_empty_stacked_validation_set():
    ds, streams = small_setup(16, n=100, num_devices=1)
    cfg = RoundConfig(num_devices=1, batch_size=1, local_episodes=1, learning_rate=0.1, epochs=1)
    with pytest.raises(ValueError, match="validation set must be non-empty"):
        run_training(cfg, streams, ds.stack(np.arange(0)), "zeros")
    assert streams[0].samples_seen == 0


def test_run_training_minimal_configuration():
    ds, streams = small_setup(6, n=50, num_devices=1)
    cfg = RoundConfig(num_devices=1, batch_size=1, local_episodes=1, learning_rate=0.1, epochs=1)
    result = run_training(cfg, streams, ds.validation_samples(), "zeros")
    assert len(result.history) == 1


def test_run_training_validates_partition_count():
    ds, streams = small_setup(7, n=100, num_devices=2)
    cfg = RoundConfig(num_devices=3, batch_size=1, local_episodes=1, learning_rate=0.01, epochs=1)
    with pytest.raises(ValueError):
        run_training(cfg, streams, ds.validation_samples(), "zeros")


def test_run_training_checks_data_upfront():
    ds, streams = small_setup(8, n=100, num_devices=2)  # 40 train samples per device
    cfg = RoundConfig(num_devices=2, batch_size=5, local_episodes=1, learning_rate=0.01, epochs=9)
    with pytest.raises(DataExhaustedError):
        run_training(cfg, streams, ds.validation_samples(), "zeros")


def test_federated_close_to_centralized_at_desk_scale():
    ds = synth_separable(16, 2, 6000, 4.0, 21, val_fraction=0.2)
    cfg2 = RoundConfig(num_devices=2, batch_size=20, local_episodes=5, learning_rate=0.01, epochs=60)
    cfg1 = RoundConfig(num_devices=1, batch_size=20, local_episodes=5, learning_rate=0.01, epochs=60)
    fed = run_training(cfg2, partition(ds, 2, 21), ds.validation_samples(), "random", init_seed=2)
    central = run_training(cfg1, partition(ds, 1, 21), ds.validation_samples(), "random", init_seed=2)
    assert abs(fed.history[-1].val_accuracy - central.history[-1].val_accuracy) <= 0.05


def test_round_config_validation():
    with pytest.raises(ValueError):
        RoundConfig(num_devices=0, batch_size=1, local_episodes=1, learning_rate=0.1, epochs=1)
    with pytest.raises(ValueError):
        RoundConfig(num_devices=1, batch_size=1, local_episodes=1, learning_rate=0.0, epochs=1)
    with pytest.raises(ValueError):
        RoundConfig(num_devices=1, batch_size=1, local_episodes=1, learning_rate=0.1, epochs=0)
