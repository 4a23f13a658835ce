"""Federated averaging over dense heads.

One round: every device loads the global parameters, trains on its next
unseen batch, and the server replaces the global model with the uniform
mean of the device models. Devices consume their private streams one-shot;
no sample is ever revisited.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import DeviceStream
from .errors import DataExhaustedError, ShapeError
from .nn import (
    DenseHead,
    EmbeddingSample,
    StackedSamples,
    batch_predict,
    init_head,
    stack_samples,
    train_batch,
)


@dataclass(eq=False)
class ModelBlob:
    """Canonical flat parameter sequence: weight rows row-major by class,
    then bias. This is the unit of averaging and of wire transfer."""

    values: np.ndarray
    embedding_dim: int
    num_classes: int

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64).ravel()
        e, c = int(self.embedding_dim), int(self.num_classes)
        if e < 1 or c < 1:
            raise ShapeError(f"blob needs E >= 1 and C >= 1, got E={e} C={c}")
        expected = c * e + c
        if self.values.shape[0] != expected:
            raise ShapeError(
                f"blob for E={e} C={c} needs {expected} values, got {self.values.shape[0]}"
            )
        if not np.isfinite(self.values).all():
            raise ValueError("blob values must be finite")

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def param_count(self) -> int:
        return self.values.shape[0]


def blob_from_head(head: DenseHead) -> ModelBlob:
    """Flatten a head into canonical order. Lossless (float64 throughout)."""
    return ModelBlob(
        values=np.concatenate([head.weights.ravel(), head.bias]),
        embedding_dim=head.embedding_dim,
        num_classes=head.num_classes,
    )


def head_from_blob(blob: ModelBlob) -> DenseHead:
    """Inverse of blob_from_head in O(1): weights and bias are (C, E) and (C,)
    views of `blob.values`; blobs and heads are never written in place."""
    e, c = blob.embedding_dim, blob.num_classes
    return DenseHead(weights=blob.values[: c * e].reshape(c, e), bias=blob.values[c * e :])


def average_blobs(blobs: list[ModelBlob]) -> ModelBlob:
    """Element-wise arithmetic mean, accumulated left to right.

    The fixed accumulation order makes the result reproducible; callers that
    care about device order (the round loop does) sort by device id first.
    The mean of one blob is that blob (x / 1 == x).
    """
    if not blobs:
        raise ValueError("cannot average an empty list of blobs")
    first = blobs[0]
    for b in blobs[1:]:
        if (b.embedding_dim, b.num_classes) != (first.embedding_dim, first.num_classes):
            raise ShapeError(
                f"blob shape E={b.embedding_dim} C={b.num_classes} does not match "
                f"E={first.embedding_dim} C={first.num_classes}"
            )
    if len(blobs) == 1:
        return first
    acc = first.values.copy()
    for b in blobs[1:]:
        acc += b.values
    acc /= len(blobs)
    return ModelBlob(acc, first.embedding_dim, first.num_classes)


@dataclass
class RoundConfig:
    """Federation hyperparameters for one training run."""

    num_devices: int = 2
    batch_size: int = 20
    local_episodes: int = 5
    learning_rate: float = 0.01
    epochs: int = 100

    def __post_init__(self) -> None:
        for name in ("num_devices", "batch_size", "local_episodes", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")


@dataclass(eq=False)
class DeviceState:
    """One simulated device: its current head and its private stream."""

    device_id: int
    head: DenseHead
    stream: DeviceStream
    samples_seen: int = field(default=0)


@dataclass(eq=False)
class RoundResult:
    global_blob: ModelBlob
    val_accuracy: float
    train_accuracies: list[float]


def stack_validation(val, embedding_dim: int) -> StackedSamples:
    """Stack a validation set and check that it is non-empty and of the model's dim."""
    val = stack_samples(val)
    if not val:
        raise ValueError("validation set must be non-empty")
    if val.features.shape[1] != embedding_dim:
        raise ShapeError(f"validation samples have dim {val.features.shape[1]}, "
                         f"model expects {embedding_dim}")
    return val


def evaluate(blob: ModelBlob, samples) -> float:
    """Fraction of samples whose argmax prediction matches the label.

    `samples` is a list of EmbeddingSample or its stacked form (see
    `stack_samples`); a set scored every round should be stacked once.
    """
    stacked = stack_samples(samples)
    if not stacked:
        raise ValueError("cannot evaluate on an empty sample set")
    feats, labels = stacked.features, stacked.labels
    if feats.shape[1] != blob.embedding_dim:
        raise ShapeError(
            f"samples have dim {feats.shape[1]}, head expects {blob.embedding_dim}"
        )
    return np.count_nonzero(batch_predict(head_from_blob(blob), feats) == labels) / len(labels)


def federated_round(
    devices: list[DeviceState],
    global_blob: ModelBlob,
    cfg: RoundConfig,
    val: list[EmbeddingSample] | StackedSamples,
) -> RoundResult:
    """Run one global round and advance every device's cursor by batch_size.

    The N device batches are stacked into one (N, B, E) batch, trained from
    the global blob by one `train_batch` call and scored by one
    `batch_predict` call; each device's blob is a row view of the result. A
    validation list is stacked once per call; pass it stacked to reuse it.
    The validation dim and every device's data shape and unseen data are
    checked before any batch is taken, so such a failed round consumes
    nothing; a round that fails in training changes no DeviceState.
    """
    if not devices:
        raise ValueError("need at least one device")
    e, c = global_blob.embedding_dim, global_blob.num_classes
    val = stack_validation(val, e)
    for d in devices:
        data = d.stream.dataset
        if data.embedding_dim != e or data.num_classes > c:
            raise ShapeError(
                f"device {d.device_id}: stream has dim {data.embedding_dim} and "
                f"{data.num_classes} classes, model has dim {e} and {c} classes"
            )
        if d.stream.remaining() < cfg.batch_size:
            raise DataExhaustedError(
                f"device {d.device_id}: round needs {cfg.batch_size} samples, "
                f"only {d.stream.remaining()} unseen remain"
            )
    batch = StackedSamples(np.empty((len(devices), cfg.batch_size, e)),
                           np.empty((len(devices), cfg.batch_size), dtype=np.int64))
    for i, d in enumerate(devices):
        taken = d.stream.take(cfg.batch_size, stacked=True)
        batch.features[i], batch.labels[i] = taken.features, taken.labels
    params = train_batch(head_from_blob(global_blob), batch, cfg.learning_rate,
                         cfg.local_episodes)
    blobs = [ModelBlob(row, e, c) for row in params]  # the one check of the result
    preds = batch_predict((params[:, : c * e].reshape(-1, c, e), params[:, c * e :]),
                          batch.features)
    for d, blob in zip(devices, blobs):
        d.head = head_from_blob(blob)
        d.samples_seen += cfg.batch_size
    order = sorted(range(len(devices)), key=lambda i: devices[i].device_id)
    new_global = average_blobs([blobs[i] for i in order])
    hits = np.add.reduce(preds == batch.labels, axis=1)
    return RoundResult(
        global_blob=new_global,
        val_accuracy=evaluate(new_global, val),
        train_accuracies=(hits / cfg.batch_size).tolist(),
    )


@dataclass(eq=False)
class EpochRecord:
    epoch: int  # 1-based round number
    examples_seen: int  # cumulative across all devices
    val_accuracy: float
    train_accuracy: float  # mean of the per-device batch accuracies


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
    init_blob=None,
) -> RunResult:
    """Run cfg.epochs federated rounds from a freshly initialized global head.

    The validation set is stacked and checked once here, scored every round.
    """
    if len(partitions) != cfg.num_devices:
        raise ValueError(
            f"got {len(partitions)} partitions for {cfg.num_devices} devices"
        )
    e = partitions[0].dataset.embedding_dim
    c = partitions[0].dataset.num_classes
    val = stack_validation(val, e)
    needed = cfg.batch_size * cfg.epochs
    for stream in partitions:
        if stream.remaining() < needed:
            raise DataExhaustedError(
                f"device {stream.device_id}: {cfg.epochs} epochs of {cfg.batch_size} "
                f"need {needed} samples, stream has {stream.remaining()}"
            )
    blob_arg = init_blob.values if isinstance(init_blob, ModelBlob) else init_blob
    head = init_head(e, c, init_mode, seed=init_seed, blob=blob_arg)
    global_blob = blob_from_head(head)
    devices = [
        DeviceState(device_id=s.device_id, head=head_from_blob(global_blob), stream=s)
        for s in partitions
    ]
    history: list[EpochRecord] = []
    round_blobs: list[ModelBlob] = []
    for t in range(1, cfg.epochs + 1):
        result = federated_round(devices, global_blob, cfg, val)
        global_blob = result.global_blob
        round_blobs.append(global_blob)
        history.append(
            EpochRecord(
                epoch=t,
                examples_seen=cfg.num_devices * cfg.batch_size * t,
                val_accuracy=result.val_accuracy,
                train_accuracy=float(np.mean(result.train_accuracies)),
            )
        )
    return RunResult(history=history, round_blobs=round_blobs)
