"""From-scratch dense classification head: its one model type `ModelBlob`,
scoring, the softmax cross-entropy SGD kernel `train_batch` (the only
gradient code), and its finite-difference check.

This is the only trainable part of the stack. Inputs are embedding vectors
produced upstream by a frozen feature extractor; the head is a single fully
connected layer followed by softmax. All training math runs in float64;
float32 appears only at the storage/wire boundary (see `fedhead.wire`).
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, check_at_least, check_positive, check_seed

# Probability clamp for the loss; keeps -log finite on confident mistakes.
PROB_CLAMP = 1e-12

INIT_MODES = ("random", "zeros", "pretrained")

# Each thread's `train_batch` buffers (`_size_scratch`), so agents training in
# threads of one process never share one.
_local = threading.local()


@dataclass(eq=False)
class ModelBlob:
    """The model: the head's parameters as one flat float64 row, weight rows
    row-major by class, then bias, trained, averaged and sent as it is.
    `weights` (C, E) and `bias` (C,) view `values`; treat it as immutable.
    The wire carries C = 1, but training and scoring need C >= 2."""

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

    @property
    def param_count(self) -> int:
        return self.values.shape[0]

    @property
    def weights(self) -> np.ndarray:
        c, e = self.num_classes, self.embedding_dim
        return self.values[: c * e].reshape(c, e)

    @property
    def bias(self) -> np.ndarray:
        return self.values[self.num_classes * self.embedding_dim :]


def check_classifier(model: ModelBlob) -> None:
    """Raise ShapeError for a model that cannot classify: it needs C >= 2."""
    if model.num_classes < 2:
        raise ShapeError("a classification head needs at least 2 classes")


def check_sgd_settings(lr: float, local_episodes: int) -> None:
    """Raise ValueError for training settings `train_batch` cannot run. The
    kernel trains at lr = 0; a run's learning rate setting must be > 0."""
    check_at_least("local_episodes", local_episodes, 1)
    if not math.isfinite(lr) or lr < 0:
        raise ValueError(f"learning rate must be finite and >= 0, got {lr}")


@dataclass(eq=False)
class EmbeddingSample:
    """One unit of training data: an extractor output plus its class label."""

    features: np.ndarray
    label: int

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features)
        if self.features.ndim != 1:
            raise ShapeError(f"features must be 1-d, got shape {self.features.shape}")
        self.label = int(self.label)
        if self.label < 0:
            raise IndexError(f"label must be non-negative, got {self.label}")


@dataclass(eq=False)
class StackedSamples:
    """A sample set stacked once: float64 features (n, E) and labels (n,), or
    with a leading device axis (N, n, E) and (N, n), one row per device.

    Training and evaluation take it in place of an EmbeddingSample list, so a
    set used more than once is stacked once. len() is the sample count, N·n.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels)
        if self.features.ndim not in (2, 3) or self.labels.shape != self.features.shape[:-1]:
            raise ShapeError(
                f"stacked samples need features ([N,] n, E) and labels ([N,] n), "
                f"got {self.features.shape} and {self.labels.shape}"
            )

    def __len__(self) -> int:
        return self.labels.size


def stack_samples(samples, order: str = "C") -> StackedSamples:
    """Stack an EmbeddingSample list once into `order` features; a StackedSamples passes through.

    An empty list stacks to an empty StackedSamples; callers reject it.
    """
    if isinstance(samples, StackedSamples):
        return samples
    if not samples:
        return StackedSamples(np.empty((0, 0)), np.empty(0, dtype=np.int64))
    if len({s.features.shape for s in samples}) != 1:
        raise ShapeError("samples must all have the same feature shape")
    return StackedSamples(
        np.array([s.features for s in samples], dtype=np.float64, order=order),
        np.array([s.label for s in samples]),
    )


def check_finite_validation(val: StackedSamples) -> None:
    """Raise ValueError unless a newly stacked validation set's features are all
    finite: `batch_predict` would score a non-finite row as class 0 without a word."""
    finite = np.isfinite(val.features)
    if not finite.all():
        bad = len(val) - np.count_nonzero(finite.all(axis=-1))
        raise ValueError(f"validation features must be finite; {bad} of {len(val)} samples are not")


@dataclass(eq=False)
class Gradients:
    """Mean loss gradients shaped like the head's (weights, bias), with a
    leading device axis for a device-stacked batch."""

    d_weights: np.ndarray
    d_bias: np.ndarray


def batch_predict(head: tuple[np.ndarray, np.ndarray], x: np.ndarray) -> np.ndarray:
    """Argmax class of each row of (n, E) features: np.argmax(x @ W.T + b, axis=1).

    `head` is a (weights, bias) pair: (C, E) and (C,), or (N, C, E) and
    (N, C) to score (N, n, E) features device by device into (N, n).
    The class-major logits W @ x.T + b are bitwise its transpose for C-ordered
    and strided x. Validation sets are stacked E-major (column-major x, so BLAS
    takes x.T untransposed); those logits may differ from the C-ordered ones in
    the last bits (below 1e-13 seen), so fedhead stacks every such set alike.
    Logits holding a NaN go to np.argmax; else C - 1 vector comparisons with
    the running max take the argmax, their strict > keeping ties lowest.
    """
    weights, bias = head
    logits = weights @ x.swapaxes(-1, -2)
    logits += bias[..., None]
    if np.isnan(logits).any():
        return np.argmax(logits, axis=-2)
    by_class = logits.swapaxes(0, -2)  # (C, [N,] n); row 0 becomes the running max
    preds = (by_class[1] > by_class[0]).astype(np.intp)
    for c in range(2, by_class.shape[0]):
        np.maximum(by_class[0], by_class[c - 1], out=by_class[0])
        np.copyto(preds, c, where=by_class[c] > by_class[0])
    return preds


def _size_scratch(shape: tuple[int, int, int, int]) -> tuple:
    """Build this thread's `train_batch` buffers for `shape` (N, n, E, C), with
    their views, and keep them for its next call of that shape."""
    devices, n, e, c = shape
    onehot = np.empty((devices, n, c))  # Y
    params = np.empty((devices, c * e + c))
    grads = np.empty_like(params)  # the gradients, in the same flat layout
    w, gw = (a[:, : c * e].reshape(devices, c, e) for a in (params, grads))
    delta = np.empty((devices, n, c))  # softmax(x @ w.T + b) - onehot, in place
    rows = np.empty((devices, n, 1))  # each row's class max, then class sum
    # A binary head's two class columns of `delta`, and `rows`, as 1-D (N·n,) views:
    # only a C = 2 kernel reads them.
    columns = (*delta.reshape(-1, 2).T, rows.reshape(-1)) if c == 2 else None
    buffers = (onehot, params, grads, w.transpose(0, 2, 1), params[:, None, c * e :], gw,
               grads[:, c * e :], delta, delta.transpose(0, 2, 1), rows, columns, np.arange(c))
    _local.train = shape, buffers
    return buffers


def train_batch(model: ModelBlob, batch, lr: float, local_episodes: int) -> ModelBlob | np.ndarray:
    """Train on one batch for `local_episodes` passes.

    `batch` is an EmbeddingSample list, stacked here into features X (n, E),
    or a StackedSamples used as is. Each episode is one SGD step along the
    mean softmax cross-entropy gradient g / n, g being (P - Y)^T X for the
    weights and the column sum of P - Y for the bias (P the row softmax, Y
    the one-hot labels): every parameter p becomes p - lr * (g / n), in that
    order (divide by n, scale by lr, subtract). `batch_gradients` reads this
    step back, and `gradient_check` checks it against central differences.

    A device-stacked batch, features (N, n, E), trains N copies of `model`
    and returns their (N, C*E + C) parameters, one flat row per device in
    blob order; every product is the same BLAS call as on one device, so row
    i is bitwise `train_batch(model, batch_i, ...).values`. A 2-D batch is
    the N = 1 case and returns a ModelBlob.

    The episodes run in place on this thread's scratch buffers (Y, the
    parameter and gradient rows, the softmax rows and their views), which
    it keeps for the shape it last trained, (N, n, E, C), so a run of
    same-shaped calls allocates them once. The result is a copy: no returned
    row or ModelBlob views the scratch, which the next call overwrites.
    A binary head (C = 2) reads its two class columns as 1-D (N·n,) strided
    views: each row's class max and class sum is one np.maximum and one np.add
    of them, and each column is shifted and normalised by its own 1-D call;
    from three classes on these are class-axis reductions and broadcasts.

    Inputs are checked once, before the first step. Y is built in one np.equal
    of the labels with 0..C-1, and the label check counts its ones: a label
    that is not an integer in [0, C) has none. The result is checked once, as
    a ModelBlob or by the caller: a non-finite gradient leaves its parameter
    non-finite for good (at lr = 0 too, as 0 * inf is nan), so it raises as
    a per-episode check would.
    """
    check_sgd_settings(lr, local_episodes)
    check_classifier(model)
    batch = stack_samples(batch)
    if not batch:
        raise ValueError("batch must be non-empty")
    c, e = model.num_classes, model.embedding_dim
    x, labels = batch.features, batch.labels
    if x.shape[-1] != e:
        raise ShapeError(f"batch features must all have shape ({e},)")
    if not np.isfinite(x).all():
        raise ValueError("input features must be finite")
    per_device = x.ndim == 3
    if not per_device:
        x, labels = x[None], labels[None]
    shape = (*labels.shape, e, c)
    sized, buffers = getattr(_local, "train", (None, None))
    if sized != shape:
        buffers = _size_scratch(shape)
    onehot, params, grads, wt, b, gw, gb, delta, dt, rows, columns, classes = buffers
    np.equal(labels[..., None], classes, out=onehot)
    if np.count_nonzero(onehot) != labels.size:
        raise IndexError(f"labels must be integers in [0, C), here C = {c}")
    # As 0-d float64 arrays, n and lr spare each step a Python scalar's conversion.
    n, lr = np.array(float(shape[1])), np.array(float(lr))
    params[:] = model.values
    # Over two classes a reduce is one maximum or one a + b, so 1-D calls skip a
    # reduction's and a broadcast's set-up, bit for bit; from C = 3 reductions win.
    binary = c == 2
    if binary:
        first, second, row = columns
    for _ in range(local_episodes):
        np.matmul(x, wt, out=delta)
        delta += b
        if binary:
            np.maximum(first, second, out=row)
            np.subtract(first, row, out=first)
            np.subtract(second, row, out=second)
        else:
            np.maximum.reduce(delta, axis=2, keepdims=True, out=rows)
            delta -= rows
        np.exp(delta, out=delta)
        if binary:
            np.add(first, second, out=row)
            np.divide(first, row, out=first)
            np.divide(second, row, out=second)
        else:
            np.add.reduce(delta, axis=2, keepdims=True, out=rows)
            delta /= rows
        delta -= onehot
        np.matmul(dt, x, out=gw)
        np.add.reduce(delta, axis=1, out=gb)
        grads /= n
        grads *= lr
        params -= grads  # p - lr * (g / n): divide, scale, subtract
    if per_device:
        return params.copy()
    return ModelBlob(params[0].copy(), e, c)


def batch_gradients(model: ModelBlob, batch) -> Gradients:
    """The mean loss gradient `train_batch` steps along, read off the kernel.

    One episode at lr = 1 moves the parameters p0 to p1 = p0 - g, rounded,
    and this returns p0 - p1: g to within half an ulp of p0, and exactly 0
    where g is. `batch` is taken as `train_batch` takes it; a device-stacked
    batch gives (N, C, E) and (N, C) gradients, one row per device.
    """
    batch = stack_samples(batch)
    one = batch.features.ndim == 2
    if one:  # trained as one device, so the kernel returns rows either way
        batch = StackedSamples(batch.features[None], batch.labels[None])
    g = model.values - train_batch(model, batch, 1.0, 1)
    if one:
        g = g[0]
    c, e = model.num_classes, model.embedding_dim
    return Gradients(g[..., : c * e].reshape(*g.shape[:-1], c, e), g[..., c * e :])


def sample_gradients(model: ModelBlob, sample: EmbeddingSample) -> Gradients:
    """Gradients for a single sample: the n = 1 case of `batch_gradients`."""
    return batch_gradients(model, [sample])


def init_head(
    embedding_dim: int,
    num_classes: int,
    mode: str = "random",
    *,
    seed=None,
    blob=None,
) -> ModelBlob:
    """Create a model in one of three ways.

    random:      i.i.d. uniform on [-s, s], s = sqrt(6 / (E + C)), drawn from
                 a seeded generator (the C*E weights first, then the C biases).
    zeros:       all parameters zero.
    pretrained:  copy parameters from a flat value sequence of length C*E + C
                 (weight rows row-major by class, then bias).
    """
    e, c = int(embedding_dim), int(num_classes)
    if e < 1 or c < 2:
        raise ShapeError(f"need embedding_dim >= 1 and num_classes >= 2, got E={e} C={c}")
    if mode == "zeros":
        return ModelBlob(np.zeros(c * e + c), e, c)
    if mode == "random":
        rng = np.random.default_rng(seed)
        s = np.sqrt(6.0 / (e + c))
        weights = rng.uniform(-s, s, size=c * e)
        return ModelBlob(np.concatenate([weights, rng.uniform(-s, s, size=c)]), e, c)
    if mode == "pretrained":
        return ModelBlob(np.array(blob, dtype=np.float64), e, c)  # a copy, checked
    raise ValueError(f"unknown init mode {mode!r}; expected one of {INIT_MODES}")


def footprint_bytes(embedding_dim: int, num_classes: int) -> int:
    """Parameter storage cost in bytes: 4 * (C*E + C) float32 values.

    A pure function of the shape. Training never changes it, which is the
    point: streaming any number of one-shot samples leaves the footprint
    fixed.
    """
    e, c = int(embedding_dim), int(num_classes)
    if e < 1 or c < 1:
        raise ShapeError(f"need embedding_dim >= 1 and num_classes >= 1, got E={e} C={c}")
    return 4 * (c * e + c)


def finite_difference_gradients(model: ModelBlob, batch, step: float = 1e-5) -> Gradients:
    """Central differences of each device's mean clamped cross-entropy, shaped
    like `batch_gradients`; `batch` may also be one EmbeddingSample. Losses are
    evaluated and differenced in np.longdouble: in float64 the round-off, about
    eps * loss / step = 1e-11, is 1e-5 of a coordinate at gradient_check's floor.
    """
    batch = stack_samples([batch] if isinstance(batch, EmbeddingSample) else batch)
    c, e = model.num_classes, model.embedding_dim
    x, labels = batch.features.astype(np.longdouble), batch.labels[..., None]

    def mean_loss(params: np.ndarray) -> np.ndarray:
        logits = x @ params[: c * e].reshape(c, e).T + params[c * e :]
        logits -= logits.max(axis=-1, keepdims=True)
        probs = np.exp(logits)
        true = np.take_along_axis(probs, labels, axis=-1) / probs.sum(axis=-1, keepdims=True)
        return -np.log(np.maximum(true, PROB_CLAMP)).mean(axis=(-2, -1))

    p = model.values.astype(np.longdouble)
    g = np.empty((*labels.shape[:-2], p.size))
    for i in range(p.size):
        plus, minus = p.copy(), p.copy()
        plus[i] += step
        minus[i] -= step
        g[..., i] = (mean_loss(plus) - mean_loss(minus)) / (2 * np.longdouble(step))
    return Gradients(g[..., : c * e].reshape(*g.shape[:-1], c, e), g[..., c * e :])


def check_gradient_check_args(
    trials: int, seed: int, step: float, max_dim: int, max_classes: int
) -> None:
    """Raise ValueError for `gradient_check` arguments that cannot check anything."""
    check_at_least("trials", trials, 1)
    check_seed("seed", seed)
    check_positive("step", step)
    check_at_least("max_dim", max_dim, 1)
    check_at_least("max_classes", max_classes, 2)


def gradient_check(
    trials: int = 100,
    seed: int = 0,
    step: float = 1e-5,
    max_dim: int = 8,
    max_classes: int = 4,
) -> float:
    """Max per-coordinate relative error between the gradient `train_batch`
    steps along and central differences of the loss.

    Random small heads; trials cycle through a single sample
    (`sample_gradients`), a batch of 1 to 20 samples and a device-stacked
    batch of 1 to 3 devices (`batch_gradients`), and each device's gradient
    is compared with central differences of that device's mean loss. The
    relative error uses a 1e-6 floor in the denominator so near-zero true
    coordinates do not blow up the ratio; a NaN error returns NaN.
    """
    check_gradient_check_args(trials, seed, step, max_dim, max_classes)
    rng = np.random.default_rng(seed)
    errors = []
    for trial in range(trials):
        e = int(rng.integers(1, max_dim + 1))
        c = int(rng.integers(2, max_classes + 1))
        # Small parameters keep softmax away from saturation, where true
        # gradient coordinates shrink below the finite-difference noise floor.
        model = ModelBlob(np.concatenate([rng.normal(0, 0.5, size=c * e),
                                          rng.normal(0, 0.5, size=c)]), e, c)
        form = trial % 3  # a single sample, a batch, a device-stacked batch
        lead = (int(rng.integers(1, 4)),) if form == 2 else ()
        n = int(rng.integers(1, 21)) if form else 1
        batch = StackedSamples(rng.normal(0, 1, size=(*lead, n, e)),
                               rng.integers(0, c, size=(*lead, n)))
        if form == 0:
            analytic = sample_gradients(model, EmbeddingSample(batch.features[0], batch.labels[0]))
        else:
            analytic = batch_gradients(model, batch)
        numeric = finite_difference_gradients(model, batch, step)
        for a, f in ((analytic.d_weights, numeric.d_weights), (analytic.d_bias, numeric.d_bias)):
            denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-6)
            errors.append((np.abs(a - f) / denom).max())
    return float(np.max(errors))  # np.max, unlike max(), keeps a NaN
