"""Embedding dataset files, per-device one-shot streams, and synthetic tasks.

Feature extraction happens upstream; this module only ingests precomputed
embedding vectors. The on-disk format is binary and fixed:

    header (16 bytes, little-endian):
        magic "FTED" | u32 embedding_dim | u32 num_classes | u32 sample_count
    then one record per sample:
        u8 split_tag (0=train, 1=validation) | u8 label | 2 pad bytes |
        embedding_dim x float32 features

The synthetic generators cover two regimes: cleanly separable Gaussian
clusters, and the sparse-extractor pathology where only k of E embedding
dimensions ever carry signal (the rest are exactly zero).
"""
from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DataExhaustedError, DatasetFormatError, check_at_least
from .nn import EmbeddingSample, StackedSamples, check_finite_validation

DATASET_MAGIC = b"FTED"
_HEADER = struct.Struct("<4sIII")

SPLIT_TRAIN = 0
SPLIT_VALIDATION = 1


@dataclass(eq=False)
class EmbeddingDataset:
    """An ordered collection of embedding samples with train/validation tags.

    Features are stored float32, matching the file format exactly, so a
    save/load round trip is lossless. Training code widens to float64 on use.
    """

    features: np.ndarray  # (n, E) float32
    labels: np.ndarray  # (n,) int64
    splits: np.ndarray  # (n,) uint8
    num_classes: int

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.splits = np.asarray(self.splits, dtype=np.uint8)
        if self.features.ndim != 2:
            raise DatasetFormatError(f"features must be (n, E), got {self.features.shape}")
        n = self.features.shape[0]
        if self.labels.shape != (n,) or self.splits.shape != (n,):
            raise DatasetFormatError("labels and splits must have one entry per sample")
        if self.num_classes < 1:
            raise DatasetFormatError("num_classes must be >= 1")
        if n and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise DatasetFormatError("labels must lie in [0, num_classes)")
        if n and not (self.splits <= SPLIT_VALIDATION).all():  # uint8, so exactly {0, 1}
            raise DatasetFormatError("split tags must be 0 (train) or 1 (validation)")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def embedding_dim(self) -> int:
        return self.features.shape[1]

    def sample(self, index: int) -> EmbeddingSample:
        return EmbeddingSample(self.features[index], int(self.labels[index]))

    def train_indices(self) -> np.ndarray:
        return np.flatnonzero(self.splits == SPLIT_TRAIN)

    def validation_indices(self) -> np.ndarray:
        return np.flatnonzero(self.splits == SPLIT_VALIDATION)

    def validation_samples(self) -> list[EmbeddingSample]:
        """The validation samples as an EmbeddingSample list: the list API, for
        callers that want samples (acceptance 2, 9 and 10, perfbench's
        `server_proc` and live reference run). `stacked_validation` is the
        fast path that training and the server score with."""
        return [self.sample(i) for i in self.validation_indices()]

    def stacked_validation(self) -> StackedSamples:
        """The validation samples, stacked E-major straight from the arrays and
        checked finite (ValueError)."""
        i = self.validation_indices()
        val = StackedSamples(self.features[i].astype(np.float64, order="F"), self.labels[i])
        check_finite_validation(val)
        return val


def _record_dtype(dim: int) -> np.dtype:
    """One file record; the pad field is written as zero and ignored on read."""
    return np.dtype([("split", "u1"), ("label", "u1"), ("pad", "<u2"), ("features", "<f4", (dim,))])


def check_file_classes(num_classes: int) -> None:
    """Raise ValueError unless the format's u8 labels can hold `num_classes` classes."""
    if num_classes > 256:
        raise ValueError(f"num_classes must be <= 256 for the file's u8 labels, got {num_classes}")


def save_dataset(dataset: EmbeddingDataset, path) -> None:
    """Write a dataset in the binary format above."""
    check_file_classes(dataset.num_classes)
    records = np.zeros(len(dataset), dtype=_record_dtype(dataset.embedding_dim))
    records["split"] = dataset.splits
    records["label"] = dataset.labels
    records["features"] = dataset.features
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(DATASET_MAGIC, dataset.embedding_dim, dataset.num_classes, len(dataset)))
        records.tofile(fh)


def load_dataset(path) -> EmbeddingDataset:
    """Read and validate a dataset file; errors carry the failing record/offset.

    The records are read straight into one array and the features stay a
    float32 view of it, so loading holds about one copy of the file."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _HEADER.size:
            raise DatasetFormatError(f"file is {size} bytes; header needs {_HEADER.size}")
        magic, dim, classes, count = _HEADER.unpack(fh.read(_HEADER.size))
        if magic != DATASET_MAGIC:
            raise DatasetFormatError(f"bad magic {magic!r} at offset 0, expected {DATASET_MAGIC!r}")
        if dim < 1:
            raise DatasetFormatError("header declares embedding_dim < 1")
        if classes < 1:
            raise DatasetFormatError("header declares num_classes < 1")
        # In Python integers: numpy cannot build the record dtype of every u32 dim.
        record_size = 4 + 4 * dim
        expected = _HEADER.size + count * record_size
        if size != expected:
            raise DatasetFormatError(
                f"file is {size} bytes, header implies {expected} "
                f"({count} records of {record_size} bytes)"
            )
        if 4 * dim > np.iinfo(np.intc).max:  # numpy's limit on a record's feature field
            raise DatasetFormatError(f"header declares embedding_dim {dim}; numpy's C-int "
                                     f"itemsize limit allows {np.iinfo(np.intc).max // 4}")
        records = np.fromfile(fh, dtype=_record_dtype(dim), count=count)
    bad_split = records["split"] > SPLIT_VALIDATION
    bad_label = records["label"] >= classes
    bad = np.flatnonzero(bad_split | bad_label)
    if bad.size:
        i = int(bad[0])
        problem = (
            f"bad split tag {records['split'][i]}" if bad_split[i]
            else f"label {records['label'][i]} out of range for {classes} classes"
        )
        raise DatasetFormatError(f"record {i} (offset {_HEADER.size + i * record_size}): {problem}")
    return EmbeddingDataset(
        features=records["features"],
        labels=records["label"].astype(np.int64),
        splits=records["split"].copy(),
        num_classes=classes,
    )


@dataclass(eq=False)
class DeviceStream:
    """A device's private, one-shot view of the training split.

    Indices are disjoint across devices. Each index is yielded at most once;
    running past the end raises instead of wrapping around.
    """

    device_id: int
    dataset: EmbeddingDataset
    indices: np.ndarray
    cursor: int = field(default=0, init=False)

    def remaining(self) -> int:
        return len(self.indices) - self.cursor

    @property
    def samples_seen(self) -> int:
        return self.cursor

    def _consume(self, count: int) -> np.ndarray:
        """The indices of the next `count` unseen samples; the cursor moves past them."""
        check_at_least("count", count, 1)
        if self.remaining() < count:
            raise DataExhaustedError(
                f"device {self.device_id}: requested {count} samples, "
                f"only {self.remaining()} unseen remain"
            )
        chosen = self.indices[self.cursor : self.cursor + count]
        self.cursor += count
        return chosen

    def take(self, count: int) -> list[EmbeddingSample]:
        """The next `count` unseen samples as an EmbeddingSample list: the list
        API, used by the agent's train step, acceptance 2 and 5 and perfbench's
        `ProbeStream`. `take_into` is the fast path that rounds train from."""
        return [self.dataset.sample(int(i)) for i in self._consume(count)]

    def take_into(self, features: np.ndarray, labels: np.ndarray) -> None:
        """Take the next len(labels) unseen samples into `features` (n, E) and
        `labels` (n,) in place: one gather from the stored float32 rows,
        widened as it is written."""
        chosen = self._consume(len(labels))
        features[...] = self.dataset.features[chosen]
        labels[...] = self.dataset.labels[chosen]

    def shard(self, num_devices: int) -> list[DeviceStream]:
        """Split the unseen indices, in order, into `num_devices` streams with
        ids 0..N-1: contiguous shards of equal size, the remainder going to the
        last. This stream's cursor does not move, so each call shards the same
        samples: a sweep shuffles once per repetition and shards that order for
        every point."""
        check_at_least("num_devices", num_devices, 1)
        unseen = self.indices[self.cursor :]
        if num_devices > len(unseen):
            raise ValueError(
                f"cannot split {len(unseen)} training samples across {num_devices} devices"
            )
        base = len(unseen) // num_devices
        bounds = [d * base for d in range(num_devices)] + [len(unseen)]
        return [DeviceStream(device_id=d, dataset=self.dataset, indices=unseen[start:stop])
                for d, (start, stop) in enumerate(zip(bounds, bounds[1:]))]


def partition(dataset: EmbeddingDataset, num_devices: int, seed=None) -> list[DeviceStream]:
    """Split the train split into disjoint, exhaustive per-device streams.

    A seeded shuffle, whose whole order is the one stream of
    `partition(dataset, 1, seed)`, then that order's `DeviceStream.shard`.
    """
    check_at_least("num_devices", num_devices, 1)
    train = dataset.train_indices()
    if len(train) == 0:
        raise ValueError("dataset has no training samples")
    order = np.random.default_rng(seed).permutation(train)
    return DeviceStream(device_id=0, dataset=dataset, indices=order).shard(num_devices)


# Noise values drawn per block by the synthetic generators: the float64
# working set is one block (512 KB), not a float64 copy of every feature.
_SYNTH_BLOCK_VALUES = 1 << 16


def _fill_clusters(out, cols, centroids, labels, sigma, rng) -> None:
    """Write centroids[labels] + sigma * N(0, 1) noise into out[:, cols].

    The noise is drawn block by block in row order, which yields the same
    values as one (n, width) draw, so the float32 rows are bit-identical to
    rounding the whole float64 formula at once.
    """
    width = centroids.shape[1]
    rows = max(1, _SYNTH_BLOCK_VALUES // width)
    for start in range(0, labels.shape[0], rows):
        block = labels[start : start + rows]
        noise = rng.standard_normal((block.shape[0], width))
        noise *= sigma
        noise += centroids[block]
        out[start : start + block.shape[0], cols] = noise


# A feature of a margin-m task lies within m/sqrt(2) + (m/6)|z| of zero, z a
# standard normal draw, so up to this margin every float32 feature is finite
# unless |z| > 43, which numpy's sampler never draws.
MAX_SYNTH_MARGIN = float(np.finfo(np.float32).max) / 8


def check_synth_task(embedding_dim: int, num_classes: int, n: int, margin: float,
                     val_fraction: float, active_dims: int | None = None) -> None:
    """Raise ValueError unless the synthetic generators can build this task.

    `active_dims` is the sparse task's signal-carrying dims; None is the
    separable task, whose signal spans all E dims.
    """
    if not 0 < margin <= MAX_SYNTH_MARGIN:
        raise ValueError(f"margin must be > 0 and <= {MAX_SYNTH_MARGIN:.4g}, got {margin}")
    check_at_least("num_classes", num_classes, 2)
    check_at_least("embedding_dim", embedding_dim, 1)
    if active_dims is None:
        if num_classes > embedding_dim:
            raise ValueError("centroid construction needs num_classes <= embedding_dim")
    elif not 1 <= active_dims <= embedding_dim:
        raise ValueError(f"active_dims must be in [1, {embedding_dim}], got {active_dims}")
    elif num_classes > active_dims:
        raise ValueError("centroid construction needs num_classes <= active_dims")
    check_at_least("samples", n, 0)
    if not 0 <= val_fraction < 1:
        raise ValueError(f"val_fraction must be in [0, 1), got {val_fraction}")


def validation_count(n: int, val_fraction: float) -> int:
    """How many of n synthetic samples are tagged validation: the last ones."""
    return int(round(n * val_fraction))


def _synth_clusters(embedding_dim: int, num_classes: int, n: int, margin: float, seed,
                    val_fraction: float, active_dims: int | None = None) -> EmbeddingDataset:
    """Gaussian class clusters: centroids `margin` apart, isotropic noise with
    sigma = margin/6, balanced interleaved labels, and the last
    round(n * val_fraction) samples tagged validation.

    `active_dims` None spreads the signal over all E dims (the separable task);
    otherwise a seeded subset of that many dims, drawn first, carries it and
    every other dim is exactly zero (the sparse task).
    """
    check_synth_task(embedding_dim, num_classes, n, margin, val_fraction, active_dims)
    rng = np.random.default_rng(seed)
    if active_dims is None:  # every value is written by _fill_clusters
        cols, features = slice(None), np.empty((n, embedding_dim), dtype=np.float32)
    else:
        cols = np.sort(rng.choice(embedding_dim, size=active_dims, replace=False))
        features = np.zeros((n, embedding_dim), dtype=np.float32)
    # Orthonormal directions scaled so every centroid pair sits exactly
    # `margin` apart: |a*q_i - a*q_j| = a*sqrt(2) with a = margin/sqrt(2).
    q, _ = np.linalg.qr(rng.standard_normal((active_dims or embedding_dim, num_classes)))
    centroids = (q * (margin / np.sqrt(2.0))).T  # (C, width)
    labels = np.arange(n, dtype=np.int64) % num_classes
    _fill_clusters(features, cols, centroids, labels, margin / 6.0, rng)
    splits = np.full(n, SPLIT_TRAIN, dtype=np.uint8)
    splits[n - validation_count(n, val_fraction) :] = SPLIT_VALIDATION
    return EmbeddingDataset(features, labels, splits, num_classes)


def synth_separable(embedding_dim: int, num_classes: int, n: int, margin: float, seed=None,
                    *, val_fraction: float = 0.2) -> EmbeddingDataset:
    """Linearly separable clusters whose signal spans all E dims (see _synth_clusters)."""
    return _synth_clusters(embedding_dim, num_classes, n, margin, seed, val_fraction)


def synth_sparse(embedding_dim: int, active_dims: int, num_classes: int, n: int, seed=None,
                 *, margin: float = 4.0, val_fraction: float = 0.2) -> EmbeddingDataset:
    """Sparse-extractor pathology: a fixed seeded subset of `active_dims`
    dimensions carries class signal; the other E-k dimensions are exactly
    zero in every sample (see _synth_clusters).
    """
    return _synth_clusters(embedding_dim, num_classes, n, margin, seed, val_fraction, active_dims)
