"""From-scratch dense classification head: inference, softmax cross-entropy,
backpropagation, and SGD.

This is the only trainable part of the stack. Inputs are embedding vectors
produced upstream by a frozen feature extractor; the head is a single fully
connected layer followed by softmax. All training math runs in float64;
float32 appears only at the storage/wire boundary (see `fedhead.wire`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

# Probability clamp for the loss; keeps -log finite on confident mistakes.
PROB_CLAMP = 1e-12

INIT_MODES = ("random", "zeros", "pretrained")


@dataclass(eq=False)
class DenseHead:
    """Trainable parameters of the classification layer.

    weights: (C, E) float64, one row per class.
    bias:    (C,) float64.

    Treat instances as immutable: every training operation returns a new head,
    and a head may view a ModelBlob's values (see `head_from_blob`).
    """

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ShapeError(f"weights must be 2-d, got shape {self.weights.shape}")
        if self.bias.ndim != 1 or self.bias.shape[0] != self.weights.shape[0]:
            raise ShapeError(
                f"bias shape {self.bias.shape} does not match weights {self.weights.shape}"
            )
        if self.num_classes < 2:
            raise ShapeError("a classification head needs at least 2 classes")
        if self.embedding_dim < 1:
            raise ShapeError("embedding_dim must be >= 1")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise ValueError("head parameters must be finite")

    @property
    def num_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def embedding_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def param_count(self) -> int:
        return self.weights.size + self.bias.size


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


def stack_samples(samples) -> StackedSamples:
    """Stack an EmbeddingSample list once; stacked input passes through.

    `samples` may also be a StackedSamples or a (features, labels) pair. An
    empty set stacks to an empty StackedSamples; callers reject it.
    """
    if isinstance(samples, StackedSamples):
        return samples
    if isinstance(samples, tuple):
        return StackedSamples(*samples)
    if not samples:
        return StackedSamples(np.empty((0, 0)), np.empty(0, dtype=np.int64))
    if len({s.features.shape for s in samples}) != 1:
        raise ShapeError("samples must all have the same feature shape")
    return StackedSamples(
        np.array([s.features for s in samples], dtype=np.float64),
        np.array([s.label for s in samples]),
    )


@dataclass(eq=False)
class Gradients:
    """Loss gradients with the same shapes as the head they came from."""

    d_weights: np.ndarray
    d_bias: np.ndarray


def forward(head: DenseHead, x: np.ndarray) -> np.ndarray:
    """Compute logits: logits[c] = bias[c] + sum_e weights[c][e] * x[e]."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != head.embedding_dim:
        raise ShapeError(
            f"input of length {x.shape} does not match embedding_dim {head.embedding_dim}"
        )
    if not np.isfinite(x).all():
        raise ValueError("input features must be finite")
    return head.weights @ x + head.bias


def batch_predict(head: DenseHead | tuple[np.ndarray, np.ndarray], x: np.ndarray) -> np.ndarray:
    """Argmax class of each row of (n, E) features: np.argmax(x @ W.T + b, axis=1).

    `head` is a DenseHead, or a (weights, bias) pair of (N, C, E) and (N, C)
    arrays that scores (N, n, E) features device by device into (N, n).
    The class-major logits W @ x.T + b are bitwise its transpose for C-ordered
    and strided x (not for a C-ordered x.T). The argmax takes C - 1 vector steps;
    the strict > keeps the lowest index on ties, and a NaN defers to np.argmax.
    """
    weights, bias = (head.weights, head.bias) if isinstance(head, DenseHead) else head
    logits = weights @ x.swapaxes(-1, -2)
    logits += bias[..., None]
    by_class = logits.swapaxes(0, -2)  # (C, [N,] n)
    best = by_class[0]
    preds = np.zeros(best.shape, dtype=np.intp)
    for c in range(1, by_class.shape[0]):
        preds[by_class[c] > best] = c
        best = np.maximum(best, by_class[c])
    return np.argmax(logits, axis=-2) if np.isnan(best).any() else preds


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis (max-subtracted before
    exponentiation), so a (n, C) array gives one distribution per row."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def cross_entropy(probs: np.ndarray, label: int) -> float:
    """Negative log-likelihood of the true class, clamped at PROB_CLAMP."""
    probs = np.asarray(probs, dtype=np.float64)
    if not 0 <= label < probs.shape[0]:
        raise IndexError(f"label {label} out of range for {probs.shape[0]} classes")
    return float(-np.log(max(probs[label], PROB_CLAMP)))


def backward(head: DenseHead, x: np.ndarray, probs: np.ndarray, label: int) -> Gradients:
    """Gradients of softmax cross-entropy w.r.t. the head's parameters.

    With delta[c] = probs[c] - 1{c == label}:
        d_bias         = delta
        d_weights[c,e] = delta[c] * x[e]
    """
    x = np.asarray(x, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    if x.shape != (head.embedding_dim,):
        raise ShapeError(f"input shape {x.shape} does not match head ({head.embedding_dim},)")
    if probs.shape != (head.num_classes,):
        raise ShapeError(f"probs shape {probs.shape} does not match head ({head.num_classes},)")
    if not 0 <= label < head.num_classes:
        raise IndexError(f"label {label} out of range for {head.num_classes} classes")
    delta = probs.copy()
    delta[label] -= 1.0
    return Gradients(d_weights=np.outer(delta, x), d_bias=delta)


def sgd_step(head: DenseHead, g: Gradients, lr: float) -> DenseHead:
    """One gradient-descent update: p <- p - lr * g_p. Returns a new head."""
    if not np.isfinite(lr) or lr < 0:
        raise ValueError(f"learning rate must be finite and >= 0, got {lr}")
    if g.d_weights.shape != head.weights.shape or g.d_bias.shape != head.bias.shape:
        raise ShapeError("gradient shapes do not match head")
    if not (np.isfinite(g.d_weights).all() and np.isfinite(g.d_bias).all()):
        raise ValueError("gradients must be finite")
    return DenseHead(
        weights=head.weights - lr * g.d_weights,
        bias=head.bias - lr * g.d_bias,
    )


def sample_gradients(head: DenseHead, sample: EmbeddingSample) -> Gradients:
    """Gradients for a single sample: forward, softmax, backward in one go."""
    probs = softmax(forward(head, sample.features))
    return backward(head, sample.features, probs, sample.label)


def train_batch(
    head: DenseHead,
    batch,
    lr: float,
    local_episodes: int,
) -> DenseHead | np.ndarray:
    """Train on one batch for `local_episodes` passes.

    `batch` is an EmbeddingSample list, stacked here into features X (n, E),
    or a StackedSamples used as is. Each episode is one SGD step with the
    mean gradient: (P - Y)^T X / n for the weights and the column mean of
    P - Y for the bias, P being the row softmax and Y the one-hot labels,
    bitwise `sgd_step` on those gradients. This matches averaging
    `sample_gradients` up to summation order.

    A device-stacked batch, features (N, n, E), trains N copies of `head`
    and returns their (N, C*E + C) parameters, one flat row per device in
    blob order; every product is the same BLAS call as on one device, so row
    i is bitwise `train_batch(head, batch_i, ...)`. A 2-D batch is the N = 1
    case and returns a DenseHead.

    Inputs are checked once, before the first step, and the episodes run on
    raw arrays. The result is checked once, as a DenseHead or by the caller:
    a non-finite gradient leaves its parameter non-finite for good (at
    lr = 0 too, as 0 * inf is nan), so it raises as a per-episode check would.
    """
    if local_episodes < 1:
        raise ValueError(f"local_episodes must be >= 1, got {local_episodes}")
    batch = stack_samples(batch)
    if not batch:
        raise ValueError("batch must be non-empty")
    x, labels = batch.features, batch.labels
    if x.shape[-1] != head.embedding_dim:
        raise ShapeError(f"batch features must all have shape ({head.embedding_dim},)")
    if not np.isfinite(x).all():
        raise ValueError("input features must be finite")
    if labels.min() < 0 or labels.max() >= head.num_classes:
        raise IndexError(f"labels must lie in [0, {head.num_classes}), got {labels.tolist()}")
    if not np.isfinite(lr) or lr < 0:
        raise ValueError(f"learning rate must be finite and >= 0, got {lr}")
    per_device = x.ndim == 3
    if not per_device:
        x, labels = x[None], labels[None]
    devices, n = labels.shape
    c, e = head.weights.shape
    onehot = np.zeros((devices, n, c))
    onehot.reshape(-1, c)[np.arange(devices * n), labels.ravel()] = 1.0
    params = np.empty((devices, c * e + c))
    params[:, : c * e] = head.weights.reshape(-1)
    params[:, c * e :] = head.bias
    grads = np.empty_like(params)  # the gradients, in the same flat layout
    w, gw = (a[:, : c * e].reshape(devices, c, e) for a in (params, grads))
    bias, gb = params[:, None, c * e :], grads[:, c * e :]
    delta = np.empty((devices, n, c))  # softmax(x @ w.T + b) - onehot, in place
    rows = np.empty((devices, n, 1))
    wt, dt = w.transpose(0, 2, 1), delta.transpose(0, 2, 1)
    for _ in range(local_episodes):
        np.matmul(x, wt, out=delta)
        delta += bias
        delta -= np.maximum.reduce(delta, axis=2, keepdims=True, out=rows)
        np.exp(delta, out=delta)
        delta /= np.add.reduce(delta, axis=2, keepdims=True, out=rows)
        delta -= onehot
        np.matmul(dt, x, out=gw)
        np.add.reduce(delta, axis=1, out=gb)
        grads /= n
        grads *= lr
        params -= grads  # p - lr * (g / n), sgd_step's operation order
    if per_device:
        return params
    return DenseHead(w[0], params[0, c * e :])


def predict(head: DenseHead, x: np.ndarray) -> int:
    """Argmax class; ties go to the lowest class index."""
    return int(np.argmax(forward(head, x)))


def init_head(
    embedding_dim: int,
    num_classes: int,
    mode: str = "random",
    *,
    seed=None,
    blob=None,
) -> DenseHead:
    """Create a head in one of three ways.

    random:      i.i.d. uniform on [-s, s], s = sqrt(6 / (E + C)), drawn from
                 a seeded generator (weights first, then bias).
    zeros:       all parameters zero.
    pretrained:  copy parameters from a flat value sequence of length C*E + C
                 (weight rows row-major by class, then bias).
    """
    e, c = int(embedding_dim), int(num_classes)
    if e < 1 or c < 2:
        raise ShapeError(f"need embedding_dim >= 1 and num_classes >= 2, got E={e} C={c}")
    if mode == "zeros":
        return DenseHead(np.zeros((c, e)), np.zeros(c))
    if mode == "random":
        rng = np.random.default_rng(seed)
        s = np.sqrt(6.0 / (e + c))
        return DenseHead(rng.uniform(-s, s, size=(c, e)), rng.uniform(-s, s, size=c))
    if mode == "pretrained":
        values = np.asarray(blob, dtype=np.float64).ravel()
        if values.shape[0] != c * e + c:
            raise ShapeError(
                f"pretrained blob has {values.shape[0]} values, expected {c * e + c}"
            )
        return DenseHead(values[: c * e].reshape(c, e).copy(), values[c * e :].copy())
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


def finite_difference_gradients(
    head: DenseHead, sample: EmbeddingSample, step: float = 1e-5
) -> Gradients:
    """Central-difference estimate of the loss gradient, one coordinate at a time.

    Slow by construction; exists for self-checks against `backward`.
    """

    def loss_at(weights: np.ndarray, bias: np.ndarray) -> float:
        h = DenseHead(weights, bias)
        probs = softmax(forward(h, sample.features))
        return cross_entropy(probs, sample.label)

    dw = np.zeros_like(head.weights)
    for c in range(head.num_classes):
        for e in range(head.embedding_dim):
            wp = head.weights.copy()
            wm = head.weights.copy()
            wp[c, e] += step
            wm[c, e] -= step
            dw[c, e] = (loss_at(wp, head.bias) - loss_at(wm, head.bias)) / (2 * step)
    db = np.zeros_like(head.bias)
    for c in range(head.num_classes):
        bp = head.bias.copy()
        bm = head.bias.copy()
        bp[c] += step
        bm[c] -= step
        db[c] = (loss_at(head.weights, bp) - loss_at(head.weights, bm)) / (2 * step)
    return Gradients(dw, db)


def gradient_check(
    trials: int = 100,
    seed: int = 0,
    step: float = 1e-5,
    max_dim: int = 8,
    max_classes: int = 4,
) -> float:
    """Max per-coordinate relative error between analytic and numeric gradients.

    Random small heads and samples; relative error uses a 1e-6 floor in the
    denominator so near-zero true coordinates do not blow up the ratio.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        e = int(rng.integers(1, max_dim + 1))
        c = int(rng.integers(2, max_classes + 1))
        # Small parameters keep softmax away from saturation, where true
        # gradient coordinates shrink below the finite-difference noise floor.
        head = DenseHead(rng.normal(0, 0.5, size=(c, e)), rng.normal(0, 0.5, size=c))
        sample = EmbeddingSample(rng.normal(0, 1, size=e), int(rng.integers(0, c)))
        analytic = sample_gradients(head, sample)
        numeric = finite_difference_gradients(head, sample, step)
        for a, f in ((analytic.d_weights, numeric.d_weights), (analytic.d_bias, numeric.d_bias)):
            denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-6)
            worst = max(worst, float((np.abs(a - f) / denom).max()))
    return worst
