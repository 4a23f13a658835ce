"""Dataset file format, partitioning, one-shot streams, synthetic tasks."""
import struct
import tracemalloc

import numpy as np
import pytest

from fedhead.data import (
    EmbeddingDataset,
    SPLIT_TRAIN,
    SPLIT_VALIDATION,
    load_dataset,
    partition,
    save_dataset,
    synth_separable,
    synth_sparse,
)
from fedhead.errors import DataExhaustedError, DatasetFormatError
from fedhead.federation import RoundConfig, run_training
from fedhead.nn import stack_samples


def golden_file_bytes():
    # Authored straight from the normative layout: 16-byte header
    # ("FTED", u32 E, u32 C, u32 n), then per record
    # u8 split, u8 label, 2 pad bytes, E float32 features.
    header = struct.pack("<4sIII", b"FTED", 4, 2, 3)
    rec1 = struct.pack("<BBxx4f", 0, 0, 1.0, 2.0, 3.0, 4.0)
    rec2 = struct.pack("<BBxx4f", 0, 1, -1.0, -2.0, -3.0, -4.0)
    rec3 = struct.pack("<BBxx4f", 1, 0, 0.5, 0.25, 0.125, 0.0625)
    return header + rec1 + rec2 + rec3


def test_load_golden_file(tmp_path):
    path = tmp_path / "golden.ds"
    path.write_bytes(golden_file_bytes())
    ds = load_dataset(path)
    assert ds.embedding_dim == 4 and ds.num_classes == 2
    assert np.array_equal(ds.labels, [0, 1, 0])
    assert np.array_equal(ds.splits, [SPLIT_TRAIN, SPLIT_TRAIN, SPLIT_VALIDATION])
    assert np.array_equal(ds.features[0], [1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(ds.features[2], [0.5, 0.25, 0.125, 0.0625])
    assert ds.train_indices().tolist() == [0, 1]
    assert ds.validation_indices().tolist() == [2]


def test_save_load_round_trip_is_lossless(tmp_path):
    ds = synth_separable(8, 2, 50, 4.0, 0, val_fraction=0.2)
    path = tmp_path / "rt.ds"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert back.embedding_dim == ds.embedding_dim
    assert back.num_classes == ds.num_classes
    assert np.array_equal(back.features, ds.features)  # float32 both sides
    assert np.array_equal(back.labels, ds.labels)
    assert np.array_equal(back.splits, ds.splits)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ds"
    path.write_bytes(b"JUNK" + golden_file_bytes()[4:])
    with pytest.raises(DatasetFormatError):
        load_dataset(path)


def test_load_rejects_truncated_record(tmp_path):
    path = tmp_path / "short.ds"
    path.write_bytes(golden_file_bytes()[:-5])
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(path)
    assert "record" in str(err.value) or "length" in str(err.value)


def test_load_rejects_trailing_garbage(tmp_path):
    path = tmp_path / "long.ds"
    path.write_bytes(golden_file_bytes() + b"\x00")
    with pytest.raises(DatasetFormatError):
        load_dataset(path)


def test_load_rejects_out_of_range_label(tmp_path):
    data = bytearray(golden_file_bytes())
    data[16 + 1] = 7  # first record's label byte; C is 2
    path = tmp_path / "label.ds"
    path.write_bytes(bytes(data))
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(path)
    assert "record 0" in str(err.value)


def test_load_rejects_bad_split_tag(tmp_path):
    data = bytearray(golden_file_bytes())
    data[16 + 20] = 9  # second record's split byte
    path = tmp_path / "split.ds"
    path.write_bytes(bytes(data))
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(path)
    assert "record 1" in str(err.value)


def test_load_names_the_first_bad_record(tmp_path):
    data = bytearray(golden_file_bytes())
    data[16 + 2 * 20 + 1] = 7  # third record's label byte
    data[16 + 20] = 9  # second record's split byte
    path = tmp_path / "two-bad.ds"
    path.write_bytes(bytes(data))
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(path)
    assert "record 1 (offset 36): bad split tag 9" in str(err.value)


def per_record_file_bytes(ds):
    """The format written one record at a time with struct, as the spec reads."""
    out = [struct.pack("<4sIII", b"FTED", ds.embedding_dim, ds.num_classes, len(ds))]
    for i in range(len(ds)):
        out.append(struct.pack("<BBH", int(ds.splits[i]), int(ds.labels[i]), 0))
        out.append(ds.features[i].astype("<f4").tobytes())
    return b"".join(out)


def test_save_matches_per_record_writer_at_mobilenet_width(tmp_path):
    ds = synth_separable(1280, 3, 40, 4.0, 7, val_fraction=0.25)
    path = tmp_path / "e1280.ds"
    save_dataset(ds, path)
    assert path.read_bytes() == per_record_file_bytes(ds)


def test_header_shape_error_names_offset(tmp_path):
    path = tmp_path / "hdr.ds"
    path.write_bytes(golden_file_bytes()[:10])
    with pytest.raises(DatasetFormatError):
        load_dataset(path)


@pytest.mark.parametrize("dim", [0x7FFFFFFF, 0xFFFFFFFF])
def test_a_header_declaring_more_dims_than_the_file_holds_names_both_sizes(tmp_path, dim):
    # numpy cannot build a record dtype this wide, so the sizes are checked first.
    path = tmp_path / "wide.ds"
    path.write_bytes(struct.pack("<4sIII", b"FTED", dim, 2, 3) + bytes(64))
    with pytest.raises(DatasetFormatError,
                       match=f"file is 80 bytes, header implies {16 + 3 * (4 + 4 * dim)} "):
        load_dataset(path)


def test_a_header_declaring_records_too_wide_for_numpy_names_the_dim_and_the_limit(tmp_path):
    # No records, so the file size matches; numpy's own error would name neither.
    path = tmp_path / "wide.ds"
    path.write_bytes(struct.pack("<4sIII", b"FTED", 0x7FFFFFFF, 2, 0))
    with pytest.raises(DatasetFormatError, match="embedding_dim 2147483647; numpy's C-int "
                                                 "itemsize limit allows 536870911"):
        load_dataset(path)


def test_load_holds_about_one_copy_of_the_file(tmp_path):
    ds = synth_separable(1280, 2, 1000, 4.0, 3)
    path = tmp_path / "e1280.ds"
    save_dataset(ds, path)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        back = load_dataset(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * size
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)
    assert np.array_equal(back.splits, ds.splits)


# -- partition ---------------------------------------------------------------


def test_partition_single_device_is_full_permutation():
    ds = synth_separable(4, 2, 40, 4.0, 1, val_fraction=0.25)
    (stream,) = partition(ds, 1, 3)
    assert stream.remaining() == 30
    taken = stream.take(30)
    assert len(taken) == 30
    assert sorted(stream.indices.tolist()) == ds.train_indices().tolist()


def test_partition_two_devices_even_split():
    ds = synth_separable(4, 2, 10, 4.0, 2, val_fraction=0.0)
    a, b = partition(ds, 2, 0)
    assert a.remaining() == 5 and b.remaining() == 5
    assert set(a.indices) & set(b.indices) == set()
    assert sorted(set(a.indices) | set(b.indices)) == list(range(10))


def test_partition_remainder_goes_to_last_device():
    ds = synth_separable(4, 2, 10, 4.0, 3, val_fraction=0.0)
    shards = partition(ds, 3, 0)
    assert [s.remaining() for s in shards] == [3, 3, 4]


def test_partition_is_seeded():
    ds = synth_separable(4, 2, 30, 4.0, 4, val_fraction=0.0)
    a = partition(ds, 3, 9)
    b = partition(ds, 3, 9)
    c = partition(ds, 3, 10)
    for s1, s2 in zip(a, b):
        assert np.array_equal(s1.indices, s2.indices)
    assert any(not np.array_equal(s1.indices, s3.indices) for s1, s3 in zip(a, c))


def test_partition_disjoint_exhaustive_property():
    ds = synth_separable(4, 2, 57, 4.0, 5, val_fraction=0.2)
    train = set(ds.train_indices().tolist())
    for n in (1, 2, 3, 7):
        for seed in (0, 1, 2):
            shards = partition(ds, n, seed)
            seen = []
            for s in shards:
                seen.extend(s.indices.tolist())
            assert len(seen) == len(train)
            assert set(seen) == train


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_partition_is_one_shuffle_then_contiguous_shards(n):
    ds = synth_separable(4, 2, 57, 4.0, 5, val_fraction=0.2)  # 46 training samples
    order = np.random.default_rng(11).permutation(ds.train_indices())
    base = len(order) // n  # the remainder, 46 % n, goes to the last device
    want = [order[d * base : (d + 1) * base] for d in range(n - 1)] + [order[(n - 1) * base :]]
    (whole,) = partition(ds, 1, 11)
    for streams in (partition(ds, n, 11), whole.shard(n), whole.shard(n)):
        assert [s.device_id for s in streams] == list(range(n))
        for s, indices in zip(streams, want, strict=True):
            assert s.dataset is ds and s.samples_seen == 0
            assert np.array_equal(s.indices, indices)
    assert whole.samples_seen == 0  # sharding moves no cursor
    whole.take(4)
    assert np.array_equal(np.concatenate([s.indices for s in whole.shard(n)]), order[4:])
    for bad in (0, len(order) - 3):
        with pytest.raises(ValueError):
            whole.shard(bad)


def test_partition_rejects_more_devices_than_samples():
    ds = synth_separable(4, 2, 6, 4.0, 6, val_fraction=0.5)
    with pytest.raises(ValueError):
        partition(ds, 4, 0)


def test_partition_never_contains_validation_samples():
    ds = synth_separable(4, 2, 50, 4.0, 7, val_fraction=0.3)
    val = set(ds.validation_indices().tolist())
    for s in partition(ds, 2, 0):
        assert not (set(s.indices.tolist()) & val)


# -- one-shot streams -----------------------------------------------------------


def test_stream_is_one_shot_and_errors_on_exhaustion():
    ds = synth_separable(4, 2, 12, 4.0, 8, val_fraction=0.0)
    (stream,) = partition(ds, 1, 0)
    first = stream.take(5)
    second = stream.take(7)
    assert stream.remaining() == 0
    seen = [tuple(s.features.tolist()) for s in first + second]
    assert len(set(seen)) == 12  # no sample delivered twice
    with pytest.raises(DataExhaustedError, match="device 0"):
        stream.take(1)


def test_stream_take_validates_count():
    ds = synth_separable(4, 2, 12, 4.0, 9, val_fraction=0.0)
    (stream,) = partition(ds, 1, 0)
    with pytest.raises(ValueError):
        stream.take(0)


def test_stream_samples_seen_is_monotone():
    ds = synth_separable(4, 2, 12, 4.0, 10, val_fraction=0.0)
    (stream,) = partition(ds, 1, 0)
    counts = []
    for _ in range(4):
        stream.take(3)
        counts.append(stream.samples_seen)
    assert counts == [3, 6, 9, 12]


def test_take_into_gathers_the_stacked_sample_list_in_place():
    ds = synth_separable(6, 3, 90, 4.0, 17, val_fraction=0.2)
    (stream,) = partition(ds, 1, 4)
    (twin,) = partition(ds, 1, 4)
    for count, seen in ((1, 1), (7, 8), (20, 28)):
        features, labels = np.empty((count, 6)), np.empty(count, dtype=np.int64)
        stream.take_into(features, labels)
        want = stack_samples(twin.take(count))
        assert np.array_equal(features, want.features)
        assert np.array_equal(labels, want.labels)
        assert stream.samples_seen == twin.samples_seen == seen
    over = stream.remaining() + 1
    features, labels = np.full((over, 6), 7.0), np.full(over, 7, dtype=np.int64)
    with pytest.raises(DataExhaustedError, match="device 0"):
        stream.take_into(features, labels)
    assert stream.samples_seen == 28
    assert (features == 7.0).all() and (labels == 7).all()


def test_take_into_from_a_loaded_file_copies_only_its_batch(tmp_path):
    # A loaded file's features are a strided view of its records, so a gather
    # that first made them contiguous would copy the whole 15 MB file per call.
    path = tmp_path / "e1280.ds"
    save_dataset(synth_separable(1280, 2, 3000, 4.0, 18, val_fraction=0.0), path)
    (stream,) = partition(load_dataset(path), 1, 18)
    features, labels = np.empty((20, 1280)), np.empty(20, dtype=np.int64)
    tracemalloc.start()
    try:
        for _ in range(10):
            stream.take_into(features, labels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert stream.samples_seen == 200


def test_stacked_validation_is_the_stacked_sample_list():
    ds = synth_separable(5, 2, 77, 4.0, 18, val_fraction=0.3)
    got = ds.stacked_validation()
    want = stack_samples(ds.validation_samples())
    assert len(got) == len(ds.validation_indices()) == 23
    assert got.features.dtype == np.float64
    assert np.array_equal(got.features, want.features)
    assert np.array_equal(got.labels, want.labels)


# -- synth_separable ------------------------------------------------------------


def test_synth_empty_dataset():
    ds = synth_separable(4, 2, 0, 4.0, 0)
    assert len(ds.labels) == 0


def test_synth_class_means_respect_margin():
    ds = synth_separable(16, 3, 3000, 4.0, 11, val_fraction=0.0)
    means = [ds.features[ds.labels == c].mean(axis=0) for c in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            # sample means sit within sampling error of centroids placed
            # exactly `margin` apart
            assert np.linalg.norm(means[i] - means[j]) >= 4.0 * 0.9


def test_synth_labels_balanced():
    ds = synth_separable(8, 3, 1000, 4.0, 12, val_fraction=0.0)
    counts = np.bincount(ds.labels, minlength=3)
    assert counts.max() - counts.min() <= 1


def test_synth_central_training_reaches_high_accuracy():
    ds = synth_separable(16, 2, 1500, 4.0, 13, val_fraction=0.2)
    cfg = RoundConfig(num_devices=1, batch_size=20, local_episodes=5,
                      learning_rate=0.01, epochs=60)
    result = run_training(cfg, partition(ds, 1, 13), ds.validation_samples(), "random", init_seed=13)
    assert result.history[-1].val_accuracy >= 0.95


def test_synth_validation_split_size():
    ds = synth_separable(4, 2, 100, 4.0, 14, val_fraction=0.2)
    assert len(ds.validation_indices()) == 20
    assert len(ds.train_indices()) == 80


def test_synth_parameter_validation():
    with pytest.raises(ValueError):
        synth_separable(4, 2, 10, 0.0, 0)
    with pytest.raises(ValueError):
        synth_separable(2, 4, 10, 4.0, 0)  # more classes than dimensions
    with pytest.raises(ValueError):
        synth_separable(4, 2, 10, 4.0, 0, val_fraction=1.0)


def one_shot_clusters(rng, dim, num_classes, n, margin):
    """Labels and float64 features of the whole set drawn in one step."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, num_classes)))
    centroids = (q * (margin / np.sqrt(2.0))).T
    labels = np.arange(n, dtype=np.int64) % num_classes
    return labels, centroids[labels] + margin / 6.0 * rng.standard_normal((n, dim))


def assert_last_rows_are_validation(build, n, features):
    """build(val_fraction) tags exactly its last round(n * val_fraction) rows
    validation, for no split, the default and a fraction that rounds, and
    draws the same features whatever the fraction."""
    for val_fraction in (0.0, 0.2, 0.37):
        ds = build(val_fraction)
        val = round(n * val_fraction)
        want = np.r_[np.full(n - val, SPLIT_TRAIN), np.full(val, SPLIT_VALIDATION)]
        assert ds.splits.dtype == np.uint8 and np.array_equal(ds.splits, want)
        assert ds.features.tobytes() == features.tobytes()


@pytest.mark.parametrize("dim,classes,n", [
    (16, 2, 20000), (16, 3, 1001), (1280, 2, 1001), (5, 5, 7), (4, 2, 0),
])
def test_separable_blocks_match_the_one_shot_formula(dim, classes, n):
    labels, dense = one_shot_clusters(np.random.default_rng(19), dim, classes, n, 3.0)
    ds = synth_separable(dim, classes, n, 3.0, 19)
    assert ds.features.dtype == np.float32
    assert ds.features.tobytes() == dense.astype(np.float32).tobytes()
    assert np.array_equal(ds.labels, labels)
    assert_last_rows_are_validation(
        lambda vf: synth_separable(dim, classes, n, 3.0, 19, val_fraction=vf), n, ds.features)


@pytest.mark.parametrize("dim,active,classes,n", [(300, 200, 3, 1001), (16, 4, 2, 9), (8, 2, 2, 0)])
def test_sparse_blocks_match_the_one_shot_formula(dim, active, classes, n):
    rng = np.random.default_rng(20)
    dims = np.sort(rng.choice(dim, size=active, replace=False))
    labels, dense = one_shot_clusters(rng, active, classes, n, 4.0)
    features = np.zeros((n, dim))
    features[:, dims] = dense
    ds = synth_sparse(dim, active, classes, n, 20)
    assert ds.features.tobytes() == features.astype(np.float32).tobytes()
    assert np.array_equal(ds.labels, labels)
    assert_last_rows_are_validation(
        lambda vf: synth_sparse(dim, active, classes, n, 20, val_fraction=vf), n, ds.features)


def test_synth_holds_about_one_copy_of_its_features():
    tracemalloc.start()
    try:
        ds = synth_separable(1280, 2, 11000, 4.0, 21)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.features.dtype == np.float32
    assert peak <= 1.25 * ds.features.nbytes


# -- synth_sparse -----------------------------------------------------------------


def test_sparse_has_exactly_k_live_dimensions():
    ds = synth_sparse(256, 16, 2, 400, 0)
    nonzero_dims = np.flatnonzero(np.any(ds.features != 0.0, axis=0))
    assert len(nonzero_dims) == 16
    per_sample_zeros = (ds.features == 0.0).sum(axis=1)
    assert np.all(per_sample_zeros >= 240)


def test_sparse_full_k_has_no_dead_dimension():
    ds = synth_sparse(16, 16, 2, 500, 1)
    assert np.all(np.any(ds.features != 0.0, axis=0))


def test_sparse_signal_dims_are_seeded():
    a = synth_sparse(64, 8, 2, 50, 5)
    b = synth_sparse(64, 8, 2, 50, 5)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_sparse_k_bounds():
    with pytest.raises(ValueError):
        synth_sparse(16, 17, 2, 10, 0)
    with pytest.raises(ValueError):
        synth_sparse(16, 0, 2, 10, 0)


# -- dataset validation ---------------------------------------------------------


def test_dataset_invariants_enforced():
    feats = np.zeros((3, 4), dtype=np.float32)
    with pytest.raises(ValueError):
        EmbeddingDataset(feats, np.array([0, 1, 2]), np.zeros(3, np.uint8), 2)
    with pytest.raises(ValueError):
        EmbeddingDataset(feats, np.array([0, 1, 0]), np.full(3, 5, np.uint8), 2)


@pytest.mark.parametrize("tag", [2, 255])
def test_dataset_rejects_a_split_tag_past_validation(tag):
    feats = np.zeros((3, 4), dtype=np.float32)
    labels = np.array([0, 1, 0])
    EmbeddingDataset(feats, labels, np.array([SPLIT_TRAIN, SPLIT_VALIDATION, 0], np.uint8), 2)
    with pytest.raises(DatasetFormatError, match=r"split tags must be 0 \(train\) or 1"):
        EmbeddingDataset(feats, labels, np.array([0, tag, 1], np.uint8), 2)


def test_save_rejects_labels_beyond_byte_range(tmp_path):
    feats = np.zeros((2, 3), dtype=np.float32)
    ds = EmbeddingDataset(feats, np.array([0, 299]), np.zeros(2, np.uint8), 300)
    with pytest.raises(ValueError):
        save_dataset(ds, tmp_path / "wide.ds")
