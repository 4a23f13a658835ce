"""Federated averaging over flat model rows (`ModelBlob`).

One round: every device loads the global parameters, trains on its next
unseen batch, and the server replaces the global model with the uniform
mean of the device models. Devices consume their private streams one-shot;
no sample is ever revisited.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .data import DeviceStream
from .errors import DataExhaustedError, ShapeError
from .nn import (
    EmbeddingSample,
    ModelBlob,
    StackedSamples,
    batch_predict,
    check_classifier,
    check_finite_validation,
    init_head,
    stack_samples,
    train_batch,
)

# Each thread's round batch (`_size_round_batch`).
_local = threading.local()


@dataclass(eq=False)
class StackedBlobs:
    """N blobs' values stacked as (N, C*E + C) rows in blob order, such as
    the rows `train_batch` returns. The rows are unchecked: item i builds
    row i's checked ModelBlob, and `average_blobs` reads the rows directly."""

    values: np.ndarray
    embedding_dim: int
    num_classes: int

    def __getitem__(self, i: int) -> ModelBlob:
        """Reached through `blobs[0]` by perfbench's patched `average_blobs` in
        test_sim_gate_rejects_a_federation_that_keeps_one_device."""
        return ModelBlob(self.values[i], self.embedding_dim, self.num_classes)


def blob_from_head(model: ModelBlob) -> ModelBlob:
    """The model itself: a head is its ModelBlob. This name and
    `head_from_blob` stay for callers of the former two-type API."""
    return model


head_from_blob = blob_from_head


def average_blobs(blobs: list[ModelBlob] | StackedBlobs) -> ModelBlob:
    """Element-wise arithmetic mean, accumulated left to right.

    `blobs` is a list of ModelBlob or a StackedBlobs, whose unchecked rows
    are checked once, in the mean's ModelBlob: a non-finite row, or finite
    rows whose sum overflows, leave the mean non-finite. No blobs, in either
    form, is a ValueError.

    The fixed accumulation order makes the result reproducible; callers that
    care about device order (the round loop does) sort by device id first.
    The mean of one blob has that blob's values (x / 1 == x).
    """
    stacked = isinstance(blobs, StackedBlobs)
    rows = blobs.values if stacked else [b.values for b in blobs]
    if len(rows) == 0:
        raise ValueError("cannot average an empty list of blobs")
    if stacked:
        e, c = blobs.embedding_dim, blobs.num_classes
    else:
        e, c = blobs[0].embedding_dim, blobs[0].num_classes
        for b in blobs[1:]:
            if (b.embedding_dim, b.num_classes) != (e, c):
                raise ShapeError(
                    f"blob shape E={b.embedding_dim} C={b.num_classes} does not match "
                    f"E={e} C={c}"
                )
    if len(rows) == 1:
        return ModelBlob(rows[0], e, c)
    # A row holds C * (E + 1) >= 2 values, so the reduce over the outer axis
    # adds whole rows, left to right (a single column would be summed pairwise).
    acc = np.add.reduce(rows, axis=0)
    acc /= len(rows)
    return ModelBlob(acc, e, c)


@dataclass
class RoundConfig:
    """Federation hyperparameters for one training run."""

    num_devices: int = 2
    batch_size: int = 20
    local_episodes: int = 5
    learning_rate: float = 0.01
    epochs: int = 100

    def __post_init__(self) -> None:
        # Messages name the config key; num_devices is set by `devices`.
        for key, value in (("devices", self.num_devices), ("batch_size", self.batch_size),
                           ("local_episodes", self.local_episodes), ("epochs", self.epochs)):
            if value < 1:
                raise ValueError(f"{key} must be >= 1, got {value}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")


def stack_validation(val, embedding_dim: int) -> StackedSamples:
    """Stack a validation set once, checked non-empty and of the model's dim. A
    list stacks E-major, straight into column-major (n, E) float64, so BLAS takes
    `batch_predict`'s x.T without a transposing pack, and is checked finite; a
    StackedSamples is used as given."""
    if not isinstance(val, StackedSamples):
        val = stack_samples(val, order="F")
        check_finite_validation(val)
    if not val:
        raise ValueError("validation set must be non-empty")
    if val.features.shape[1] != embedding_dim:
        raise ShapeError(f"validation samples have dim {val.features.shape[1]}, "
                         f"model expects {embedding_dim}")
    return val


def check_stream(stream: DeviceStream, model: ModelBlob) -> None:
    """Raise ShapeError unless `model` can train on `stream`: a classifier of
    the stream's dim with at least the stream's classes."""
    check_classifier(model)
    ds, e, c = stream.dataset, model.embedding_dim, model.num_classes
    if ds.embedding_dim != e or ds.num_classes > c:
        raise ShapeError(
            f"device {stream.device_id}: stream has dim {ds.embedding_dim} and "
            f"{ds.num_classes} classes, model has dim {e} and {c} classes"
        )


def evaluate(blob: ModelBlob, samples) -> float:
    """Fraction of samples whose argmax prediction matches the label.

    `samples`, checked by `stack_validation`, is an EmbeddingSample list (stacked
    E-major) or a StackedSamples scored as given; stack a set scored every round once.
    """
    check_classifier(blob)
    val = stack_validation(samples, blob.embedding_dim)
    hits = batch_predict((blob.weights, blob.bias), val.features) == val.labels
    return np.count_nonzero(hits) / len(val)


def _size_round_batch(shape: tuple[int, int, int]) -> StackedSamples:
    """Build this thread's (N, B, E) round batch and keep it for its next
    round of that shape."""
    n, b, _ = shape
    _local.batch = batch = StackedSamples(np.empty(shape), np.empty((n, b), dtype=np.int64))
    return batch


def federated_round(
    streams: list[DeviceStream],
    global_blob: ModelBlob,
    cfg: RoundConfig,
    val: list[EmbeddingSample] | StackedSamples,
) -> tuple[ModelBlob, float, list[float]]:
    """Run one global round and advance every stream's cursor by batch_size.

    Returns (new global blob, validation accuracy, per-stream train
    accuracies in `streams` order). Every device starts from the global
    blob, so a device carries nothing between rounds but its stream.

    Each stream's batch is gathered straight into one (N, B, E) batch, trained
    from the global blob by one `train_batch` call into fresh (N, C*E + C)
    rows, averaged in device-id order into the new global blob, whose check is
    the one check of the result, and scored by one `batch_predict` call; no
    per-device blob is built. The batch is this thread's scratch, kept for the
    shape it last took, as `train_batch` keeps its buffers (and checks the
    labels by counting its one-hot's ones); nothing returned views either.
    A validation list is stacked once per call; pass it stacked to reuse it.
    The validation dim and every stream's data shape (`check_stream`) and
    unseen data are checked before any batch is taken, so such a failed round
    consumes nothing. A round that fails in training raises and leaves
    `global_blob` unchanged; its batches stay consumed.
    """
    if not streams:
        raise ValueError("need at least one device")
    e, c = global_blob.embedding_dim, global_blob.num_classes
    val = stack_validation(val, e)
    for s in streams:
        check_stream(s, global_blob)
        if s.remaining() < cfg.batch_size:
            raise DataExhaustedError(
                f"device {s.device_id}: round needs {cfg.batch_size} samples, "
                f"only {s.remaining()} unseen remain"
            )
    n = len(streams)
    batch = getattr(_local, "batch", None)
    if batch is None or batch.features.shape != (n, cfg.batch_size, e):
        batch = _size_round_batch((n, cfg.batch_size, e))
    for s, features, labels in zip(streams, batch.features, batch.labels):
        s.take_into(features, labels)
    params = train_batch(global_blob, batch, cfg.learning_rate, cfg.local_episodes)
    order = sorted(range(n), key=lambda i: streams[i].device_id)
    rows = params if order == list(range(n)) else params[order]
    new_global = average_blobs(StackedBlobs(rows, e, c))
    weights, bias = params[:, : c * e].reshape(n, c, e), params[:, c * e :]
    hits = np.add.reduce(batch_predict((weights, bias), batch.features) == batch.labels, axis=1)
    return new_global, evaluate(new_global, val), (hits / cfg.batch_size).tolist()


@dataclass(eq=False)
class EpochRecord:
    epoch: int  # 1-based round number
    examples_seen: int  # cumulative across all devices
    val_accuracy: float
    train_accuracy: float  # np.mean of the per-device batch accuracies, bitwise


@dataclass(eq=False)
class RunResult:
    history: list[EpochRecord]
    round_blobs: list[ModelBlob]

    @property
    def final_blob(self) -> ModelBlob:
        return self.round_blobs[-1]


def run_training(
    cfg: RoundConfig,
    partitions: list[DeviceStream],
    val: list[EmbeddingSample] | StackedSamples,
    init_mode: str = "random",
    *,
    init_seed=None,
    init_blob: ModelBlob | None = None,
) -> RunResult:
    """Run cfg.epochs federated rounds from a freshly initialized global head.

    The run state is the global blob and the `partitions` streams, which
    every round takes directly. The validation set is stacked and checked
    once here, scored every round.
    """
    if len(partitions) != cfg.num_devices:
        raise ValueError(
            f"got {len(partitions)} partitions for {cfg.num_devices} devices"
        )
    e = partitions[0].dataset.embedding_dim
    c = partitions[0].dataset.num_classes
    if init_blob is not None and (init_blob.embedding_dim, init_blob.num_classes) != (e, c):
        raise ShapeError(f"init blob has dim {init_blob.embedding_dim} and {init_blob.num_classes} "
                         f"classes, partitions have dim {e} and {c} classes")
    val = stack_validation(val, e)
    needed = cfg.batch_size * cfg.epochs
    for stream in partitions:
        if stream.remaining() < needed:
            raise DataExhaustedError(
                f"device {stream.device_id}: {cfg.epochs} epochs of {cfg.batch_size} "
                f"need {needed} samples, stream has {stream.remaining()}"
            )
    global_blob = init_head(e, c, init_mode, seed=init_seed,
                            blob=None if init_blob is None else init_blob.values)
    history: list[EpochRecord] = []
    round_blobs: list[ModelBlob] = []
    for t in range(1, cfg.epochs + 1):
        global_blob, val_accuracy, train_accuracies = federated_round(
            partitions, global_blob, cfg, val)
        round_blobs.append(global_blob)
        history.append(
            EpochRecord(
                epoch=t,
                examples_seen=cfg.num_devices * cfg.batch_size * t,
                val_accuracy=val_accuracy,
                train_accuracy=float(np.add.reduce(train_accuracies) / len(train_accuracies)),
            )
        )
    return RunResult(history=history, round_blobs=round_blobs)
