"""Round averaging, the N=1 baseline identity, and full training runs."""
import tracemalloc
import warnings

import numpy as np
import pytest

from fedhead.data import EmbeddingDataset, partition, synth_separable
from fedhead.errors import DataExhaustedError, ShapeError
from fedhead.federation import (
    ModelBlob,
    RoundConfig,
    StackedBlobs,
    average_blobs,
    blob_from_head,
    evaluate,
    federated_round,
    head_from_blob,
    run_training,
    stack_validation,
)
from fedhead.nn import (
    EmbeddingSample, StackedSamples, batch_predict, init_head, stack_samples, train_batch,
)
from nn_reference import predict


def random_blob(rng, e=3, c=2):
    return ModelBlob(rng.normal(size=c * e + c), e, c)


# -- ModelBlob ----------------------------------------------------------------


def test_blob_length_is_validated():
    with pytest.raises(ShapeError):
        ModelBlob(np.zeros(7), 3, 2)  # needs 2*3+2 = 8
    blob = ModelBlob(np.zeros(8), 3, 2)
    assert blob.param_count == 8


def test_blob_head_round_trip_is_lossless():
    # A head is its blob: the two former conversions are the identity.
    rng = np.random.default_rng(0)
    head = init_head(5, 3, "random", seed=1)
    assert isinstance(head, ModelBlob)
    assert np.array_equal(head.values[:15], head.weights.ravel())
    assert np.array_equal(head.values[15:], head.bias)
    assert blob_from_head(head) is head and head_from_blob(head) is head
    blob = random_blob(rng)
    assert blob_from_head(head_from_blob(blob)) is blob


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


@pytest.mark.parametrize("e, c", [(1, 1), (1, 2), (6, 3)])
def test_average_adds_rows_left_to_right_at_every_count(e, c):
    # From eight terms on, a one-column reduce would sum pairwise instead.
    rng = np.random.default_rng(6)
    for k in range(2, 20):
        rows = rng.normal(size=(k, c * e + c)) * 10.0 ** rng.integers(-3, 4, size=(k, c * e + c))
        acc = rows[0].copy()
        for row in rows[1:]:
            acc = acc + row
        want = (acc / k).tobytes()
        assert average_blobs([ModelBlob(row, e, c) for row in rows]).values.tobytes() == want
        assert average_blobs(StackedBlobs(rows, e, c)).values.tobytes() == want


def test_average_permutation_within_tolerance():
    rng = np.random.default_rng(5)
    blobs = [random_blob(rng, e=6, c=3) for _ in range(5)]
    a = average_blobs(blobs)
    b = average_blobs(list(reversed(blobs)))
    assert np.max(np.abs(a.values - b.values)) <= 1e-12


def test_average_usage_errors():
    with pytest.raises(ValueError):
        average_blobs([])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="empty"):
            average_blobs(StackedBlobs(np.empty((0, 8)), 3, 2))
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
    blob = init_head(4, 2, "zeros")
    assert evaluate(blob, samples) == 0.5


def test_evaluate_perfect_separator_is_one():
    samples = [
        EmbeddingSample(np.array([1.0, 0.0]), 0),
        EmbeddingSample(np.array([0.0, 1.0]), 1),
    ] * 5
    blob = ModelBlob(np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0]), 2, 2)
    assert evaluate(blob, samples) == 1.0


def test_evaluate_matches_argmax_oracle():
    rng = np.random.default_rng(9)
    blob = random_blob(rng, 6, 3)
    samples = [EmbeddingSample(rng.normal(size=6), int(rng.integers(3))) for _ in range(97)]
    correct = sum(1 for s in samples if predict(blob, s.features) == s.label)
    assert evaluate(blob, samples) == correct / 97


def test_evaluate_empty_is_usage_error():
    with pytest.raises(ValueError):
        evaluate(random_blob(np.random.default_rng(10)), [])


def test_evaluate_empty_stacked_set_is_usage_error():
    blob = random_blob(np.random.default_rng(10))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no "Mean of empty slice" on the way
        with pytest.raises(ValueError):
            evaluate(blob, StackedSamples(np.empty((0, 3)), np.empty(0, dtype=np.int64)))


def test_evaluate_scores_the_blob_views_bitwise_like_its_head():
    rng = np.random.default_rng(23)
    for e, c in ((1, 2), (16, 2), (7, 10)):
        blob = random_blob(rng, e, c)
        feats = rng.normal(size=(101, e))
        feats[::9] = 0.0  # exact ties
        labels = rng.integers(0, c, size=101)
        want = np.count_nonzero(batch_predict((blob.weights, blob.bias), feats) == labels) / 101
        assert evaluate(blob, StackedSamples(feats, labels)) == want
        assert np.shares_memory(blob.weights, blob.values)
        assert np.shares_memory(blob.bias, blob.values)


def test_evaluate_stacked_set_matches_list():
    rng = np.random.default_rng(11)
    blob = random_blob(rng, 6, 3)
    samples = [EmbeddingSample(rng.normal(size=6), int(rng.integers(3))) for _ in range(97)]
    stacked = stack_samples(samples)
    assert evaluate(blob, stacked) == evaluate(blob, samples)


# -- validation layout --------------------------------------------------------------


def traced_peak(fn, *args):
    """(result, peak bytes tracemalloc saw while fn ran)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_validation_sets_stack_e_major_in_one_pass():
    # E = 1280, n = 1000: the paper's MobileNet head, as the live server scores it.
    ds = synth_separable(1280, 2, 1250, 4.0, 41, val_fraction=0.8)
    samples = ds.validation_samples()
    row_major = stack_samples(samples)
    stacked, peak = traced_peak(stack_validation, samples, 1280)
    assert stacked.features.nbytes == 10_240_000
    # Straight into column-major: a row-major stack plus a copy would peak at 2x.
    assert peak <= 1.25 * stacked.features.nbytes
    for got in (stacked, ds.stacked_validation()):
        assert got.features.dtype == np.float64 and got.features.flags.f_contiguous
        assert got.features.T.flags.c_contiguous
        assert np.array_equal(got.features, row_major.features)
        assert np.array_equal(got.labels, row_major.labels)


def test_evaluate_scores_a_passed_set_as_given():
    ds = synth_separable(1280, 2, 1250, 4.0, 42, val_fraction=0.8)
    blob = random_blob(np.random.default_rng(42), 1280, 2)
    e_major = ds.stacked_validation()
    for val in (e_major, stack_samples(ds.validation_samples())):
        assert stack_validation(val, 1280) is val
        accuracy, peak = traced_peak(evaluate, blob, val)
        assert peak < 1_000_000  # no 10 MB re-layout per call
    assert accuracy == evaluate(blob, e_major)  # these logits agree in both layouts


@pytest.mark.parametrize("e", [1, 16, 1280])
@pytest.mark.parametrize("c", [2, 3, 10])
def test_a_listed_and_a_stacked_validation_set_score_bitwise_alike(e, c):
    rng = np.random.default_rng(e * c)
    ds = EmbeddingDataset(rng.normal(size=(400, e)), rng.integers(0, c, size=400),
                          rng.integers(0, 2, size=400), c)
    for _ in range(3):
        blob = random_blob(rng, e, c)
        assert evaluate(blob, ds.validation_samples()) == evaluate(blob, ds.stacked_validation())



@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_validation_set_fails_when_stacked(bad):
    # batch_predict scores a NaN row as class 0, so stacking checks the set once.
    ds = synth_separable(8, 2, 200, 4.0, 44, val_fraction=0.2)
    ds.features[ds.validation_indices()[[3, 17]], 5] = bad
    blob = random_blob(np.random.default_rng(44), 8, 2)
    for stack in (ds.stacked_validation, lambda: stack_validation(ds.validation_samples(), 8),
                  lambda: evaluate(blob, ds.validation_samples())):
        with pytest.raises(ValueError, match="2 of 40 samples"):
            stack()
    # A caller's stacked set is scored as given: no check on the per-round pass-through.
    given = stack_samples(ds.validation_samples(), order="F")
    assert stack_validation(given, 8) is given
    assert 0.0 <= evaluate(blob, given) <= 1.0

# -- federated_round --------------------------------------------------------------


def small_setup(seed, n=200, num_devices=2, e=8):
    ds = synth_separable(e, 2, n, 4.0, seed, val_fraction=0.2)
    streams = partition(ds, num_devices, seed)
    return ds, streams


def test_round_n1_is_bitwise_sequential_training():
    ds, (stream,) = small_setup(0, num_devices=1)
    ds2, (oracle_stream,) = small_setup(0, num_devices=1)
    cfg = RoundConfig(num_devices=1, batch_size=4, local_episodes=3, learning_rate=0.05, epochs=1)
    global_blob = init_head(8, 2, "random", seed=5)
    oracle_head = global_blob
    for _ in range(10):
        global_blob, _, _ = federated_round([stream], global_blob, cfg, ds.validation_samples())
        oracle_head = train_batch(oracle_head, oracle_stream.take(4), 0.05, 3)
        assert np.array_equal(global_blob.values, oracle_head.values)


def list_path_round(streams, global_blob, cfg, val):
    """One round computed from EmbeddingSample lists: each batch is taken as
    a list, and training and scoring each stack it on their own."""
    trained, train_accuracies = {}, []
    for s in streams:
        batch = s.take(cfg.batch_size)
        trained[s.device_id] = train_batch(global_blob, batch, cfg.learning_rate,
                                           cfg.local_episodes)
        train_accuracies.append(evaluate(trained[s.device_id], batch))
    new_global = average_blobs([trained[i] for i in sorted(trained)])
    return new_global, evaluate(new_global, val), train_accuracies


@pytest.mark.parametrize("num_devices", [1, 3])
def test_round_on_stacked_batches_is_bitwise_the_list_path(num_devices):
    ds, streams = small_setup(12, n=300, num_devices=num_devices)
    _, twins = small_setup(12, n=300, num_devices=num_devices)
    cfg = RoundConfig(num_devices=num_devices, batch_size=6, local_episodes=3,
                      learning_rate=0.05, epochs=1)
    start = init_head(8, 2, "random", seed=13)
    val_list, val_stacked = ds.validation_samples(), ds.stacked_validation()
    blob, oracle_blob = start, start
    for _ in range(8):
        blob, acc, train = federated_round(streams, blob, cfg, val_stacked)
        oracle_blob, oracle_acc, oracle_train = list_path_round(twins, oracle_blob, cfg, val_list)
        assert np.array_equal(blob.values, oracle_blob.values)
        assert acc == oracle_acc
        assert train == oracle_train
    assert [s.samples_seen for s in streams] == [s.samples_seen for s in twins]


def test_round_over_devices_out_of_id_order_is_bitwise_the_list_path():
    ds, streams = small_setup(14, n=400, num_devices=4)
    _, twins = small_setup(14, n=400, num_devices=4)
    cfg = RoundConfig(num_devices=4, batch_size=5, local_episodes=2, learning_rate=0.2, epochs=1)
    start = init_head(8, 2, "random", seed=14)
    order = [2, 0, 3, 1]
    streams, twins = [streams[i] for i in order], [twins[i] for i in order]
    blob, oracle_blob = start, start
    for _ in range(5):
        blob, acc, train = federated_round(streams, blob, cfg, ds.stacked_validation())
        oracle_blob, oracle_acc, oracle_train = list_path_round(
            twins, oracle_blob, cfg, ds.validation_samples())
        assert np.array_equal(blob.values, oracle_blob.values)
        assert acc == oracle_acc
        assert train == oracle_train


def test_round_over_nine_devices_in_and_out_of_id_order_is_bitwise_alike():
    # In id order the trained rows are averaged as they are; out of order they
    # are sorted first. Nine rows cross numpy's 8-element pairwise block.
    ds, streams = small_setup(17, n=900, num_devices=9)
    _, twins = small_setup(17, n=900, num_devices=9)
    cfg = RoundConfig(num_devices=9, batch_size=7, local_episodes=2, learning_rate=0.3, epochs=1)
    order = [4, 0, 8, 2, 7, 1, 5, 3, 6]
    shuffled = [twins[i] for i in order]
    blob = shuffled_blob = init_head(8, 2, "random", seed=17)
    val = ds.stacked_validation()
    for _ in range(4):
        blob, acc, train = federated_round(streams, blob, cfg, val)
        shuffled_blob, shuffled_acc, shuffled_train = federated_round(shuffled, shuffled_blob,
                                                                      cfg, val)
        assert np.array_equal(blob.values, shuffled_blob.values)
        assert acc == shuffled_acc
        assert shuffled_train == [train[i] for i in order]


def test_round_with_a_nan_feature_raises_and_leaves_the_global_blob_unchanged():
    ds, streams = small_setup(15, n=300, num_devices=3)
    cfg = RoundConfig(num_devices=3, batch_size=6, local_episodes=2, learning_rate=0.1, epochs=1)
    global_blob = init_head(8, 2, "random", seed=15)
    before = global_blob.values.copy()
    bad = streams[1]
    ds.features[bad.indices[bad.cursor + 3], 2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        federated_round(streams, global_blob, cfg, ds.stacked_validation())
    assert np.array_equal(global_blob.values, before)


def test_round_whose_mean_overflows_raises_and_leaves_the_global_blob_unchanged():
    # Zero weights and equal huge biases train to finite rows (every logit
    # is the bias), but two such rows sum past the largest float64.
    ds, streams = small_setup(20, n=300, num_devices=2)
    cfg = RoundConfig(num_devices=2, batch_size=6, local_episodes=2, learning_rate=0.1, epochs=1)
    huge = np.finfo(np.float64).max / 1.5
    global_blob = ModelBlob(np.concatenate([np.zeros(2 * 8), [huge, huge]]), 8, 2)
    before = global_blob.values.copy()
    rows = train_batch(global_blob,
                       StackedSamples(np.zeros((2, 6, 8)), np.zeros((2, 6), dtype=np.int64)),
                       cfg.learning_rate, cfg.local_episodes)
    with np.errstate(over="ignore"):
        assert np.isfinite(rows).all() and not np.isfinite(rows[0] + rows[1]).all()
        with pytest.raises(ValueError, match="finite"):
            federated_round(streams, global_blob, cfg, ds.stacked_validation())
    assert np.array_equal(global_blob.values, before)


def test_round_rejects_a_stream_of_another_shape_before_any_take():
    ds, (stream,) = small_setup(16, num_devices=1)
    narrow = partition(synth_separable(4, 2, 200, 4.0, 16), 1, 16)[0]
    three = partition(synth_separable(8, 3, 200, 4.0, 16), 1, 16)[0]
    narrow.device_id = three.device_id = 1
    cfg = RoundConfig(num_devices=2, batch_size=5, local_episodes=1, learning_rate=0.1, epochs=1)
    global_blob = init_head(8, 2, "zeros")
    for other, match in ((narrow, "device 1: stream has dim 4"), (three, "3 classes")):
        with pytest.raises(ShapeError, match=match):
            federated_round([stream, other], global_blob, cfg, ds.stacked_validation())
        assert stream.samples_seen == other.samples_seen == 0


def test_round_rejects_a_one_class_global_before_any_take():
    ds, (stream,) = small_setup(21, num_devices=1)
    cfg = RoundConfig(num_devices=1, batch_size=5, local_episodes=1, learning_rate=0.1, epochs=1)
    with pytest.raises(ShapeError, match="at least 2 classes"):
        federated_round([stream], ModelBlob(np.zeros(9), 8, 1), cfg, ds.stacked_validation())
    assert stream.samples_seen == 0


def test_round_rejects_validation_of_another_dim_before_training():
    ds, (stream,) = small_setup(17, num_devices=1)
    other = synth_separable(4, 2, 50, 4.0, 17)
    cfg = RoundConfig(num_devices=1, batch_size=5, local_episodes=1, learning_rate=0.1, epochs=1)
    global_blob = init_head(8, 2, "zeros")
    for val in (other.validation_samples(), other.stacked_validation()):
        with pytest.raises(ShapeError, match="dim 4, model expects 8"):
            federated_round([stream], global_blob, cfg, val)
    assert stream.samples_seen == 0


def test_head_from_blob_views_the_blob_values():
    blob = random_blob(np.random.default_rng(2), e=5, c=3)
    head = head_from_blob(blob)
    assert head is blob
    assert head.weights.shape == (3, 5) and head.bias.shape == (3,)
    assert np.shares_memory(head.weights, blob.values)
    assert np.shares_memory(head.bias, blob.values)
    assert np.array_equal(np.concatenate([head.weights.ravel(), head.bias]), blob.values)


def test_round_leaves_the_callers_global_blob_unchanged():
    ds, streams = small_setup(18, n=300, num_devices=3)
    cfg = RoundConfig(num_devices=3, batch_size=6, local_episodes=5, learning_rate=0.5, epochs=1)
    global_blob = init_head(8, 2, "random", seed=18)
    before = global_blob.values.copy()
    new_global, _, _ = federated_round(streams, global_blob, cfg, ds.stacked_validation())
    assert np.array_equal(global_blob.values, before)
    assert not np.array_equal(new_global.values, before)


def test_round_builds_no_head_and_one_blob(monkeypatch):
    # Building a blob re-checks every parameter for finiteness; the round
    # checks its result once, as the new global blob.
    ds, streams = small_setup(19, n=300, num_devices=3)
    cfg = RoundConfig(num_devices=3, batch_size=6, local_episodes=5, learning_rate=0.05, epochs=1)
    global_blob = init_head(8, 2, "random", seed=19)
    val = ds.stacked_validation()
    built = []
    original = ModelBlob.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(ModelBlob, "__post_init__", counting)
    new_global, _, _ = federated_round(streams, global_blob, cfg, val)
    assert built == [new_global]


def test_round_identical_devices_average_to_themselves():
    ds, _ = small_setup(1, n=100, num_devices=1)
    # three streams over the same underlying samples, same order
    s_a, s_b, twin = (partition(ds, 1, 3)[0] for _ in range(3))
    s_b.device_id = 1
    cfg = RoundConfig(num_devices=2, batch_size=5, local_episodes=2, learning_rate=0.01, epochs=1)
    global_blob = init_head(8, 2, "random", seed=6)
    new_global, _, _ = federated_round([s_a, s_b], global_blob, cfg, ds.validation_samples())
    alone = train_batch(global_blob, twin.take(5), 0.01, 2)
    assert np.allclose(new_global.values, alone.values, rtol=0, atol=1e-15)


def test_round_exhaustion_names_device():
    ds, streams = small_setup(2, n=100, num_devices=2)
    cfg = RoundConfig(num_devices=2, batch_size=41, local_episodes=1, learning_rate=0.01, epochs=1)
    global_blob = init_head(8, 2, "zeros")
    with pytest.raises(DataExhaustedError, match="device 0"):
        federated_round(streams, global_blob, cfg, ds.validation_samples())
    # the failed round must not have consumed anything
    assert streams[0].samples_seen == 0 and streams[1].samples_seen == 0


def test_round_advances_cursors_by_batch():
    ds, streams = small_setup(3, n=100, num_devices=2)
    cfg = RoundConfig(num_devices=2, batch_size=7, local_episodes=1, learning_rate=0.01, epochs=1)
    global_blob = init_head(8, 2, "zeros")
    global_blob, _, _ = federated_round(streams, global_blob, cfg, ds.validation_samples())
    assert all(s.samples_seen == 7 for s in streams)
    federated_round(streams, global_blob, cfg, ds.validation_samples())
    assert all(s.samples_seen == 14 for s in streams)


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


@pytest.mark.parametrize("num_devices", [1, 2, 7, 8, 9, 16])
def test_run_training_train_accuracy_is_bitwise_np_mean(monkeypatch, num_devices):
    # Arbitrary floats make the summation order show in the last bit: past
    # eight values numpy's pairwise sum is not a left-to-right sum.
    import fedhead.federation as fed

    rng = np.random.default_rng(num_devices)
    returned = []

    def round_with_given_accuracies(streams, global_blob, cfg, val):
        returned.append(rng.random(len(streams)).tolist())
        return global_blob, 0.5, returned[-1]

    monkeypatch.setattr(fed, "federated_round", round_with_given_accuracies)
    ds, streams = small_setup(6, n=40 * num_devices, num_devices=num_devices)
    cfg = RoundConfig(num_devices=num_devices, batch_size=2, local_episodes=1,
                      learning_rate=0.1, epochs=12)
    history = run_training(cfg, streams, ds.validation_samples(), "zeros").history
    assert len(history) == len(returned) == 12
    for record, accuracies in zip(history, returned):
        assert type(record.train_accuracy) is float
        assert record.train_accuracy == float(np.mean(accuracies))


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
        run_training(cfg, streams, StackedSamples(np.empty((0, 8)), np.empty(0, dtype=np.int64)),
                     "zeros")
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


@pytest.mark.parametrize("e, c", [(8, 3), (5, 3), (2, 6)])
def test_run_training_rejects_a_pretrained_blob_of_another_shape_before_any_take(e, c):
    # (5, 3) and (2, 6) hold as many values as the partitions' (8, 2) model: 18.
    ds, streams = small_setup(9, n=100, num_devices=2)
    cfg = RoundConfig(num_devices=2, batch_size=5, local_episodes=1, learning_rate=0.01, epochs=2)
    blob = ModelBlob(np.zeros(c * e + c), e, c)
    with pytest.raises(ShapeError, match=f"init blob has dim {e} and {c} classes"):
        run_training(cfg, streams, ds.validation_samples(), "pretrained", init_blob=blob)
    assert [s.remaining() for s in streams] == [40, 40]


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
