"""The per-sample reference path of the dense head, kept for the tests.

`fedhead.nn.train_batch` is the only gradient code in the package. These are
the forward pass, softmax, clamped cross-entropy, backpropagation and SGD
step it was built from, one sample and one array at a time; the parity tests
compare the kernel against them, bitwise where the operation order is the
same. `finite_difference_gradients` is the float64 form of the package's
central-difference oracle, which works in np.longdouble.
"""
import numpy as np

from fedhead.errors import ShapeError
from fedhead.nn import PROB_CLAMP, Gradients, ModelBlob, StackedSamples, stack_samples


def make_head(weights, bias) -> ModelBlob:
    """The ModelBlob of a (C, E) weights and (C,) bias pair."""
    weights = np.asarray(weights, dtype=np.float64)
    return ModelBlob(np.concatenate([weights.ravel(), np.asarray(bias, dtype=np.float64)]),
                     weights.shape[1], weights.shape[0])


def forward(head: ModelBlob, x: np.ndarray) -> np.ndarray:
    """Compute logits: logits[c] = bias[c] + sum_e weights[c][e] * x[e]."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != head.embedding_dim:
        raise ShapeError(
            f"input of length {x.shape} does not match embedding_dim {head.embedding_dim}"
        )
    if not np.isfinite(x).all():
        raise ValueError("input features must be finite")
    return head.weights @ x + head.bias


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


def backward(head: ModelBlob, x: np.ndarray, probs: np.ndarray, label: int) -> Gradients:
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


def sgd_step(head: ModelBlob, g: Gradients, lr: float) -> ModelBlob:
    """One gradient-descent update: p <- p - lr * g_p. Returns a new head."""
    if not np.isfinite(lr) or lr < 0:
        raise ValueError(f"learning rate must be finite and >= 0, got {lr}")
    if g.d_weights.shape != head.weights.shape or g.d_bias.shape != head.bias.shape:
        raise ShapeError("gradient shapes do not match head")
    if not (np.isfinite(g.d_weights).all() and np.isfinite(g.d_bias).all()):
        raise ValueError("gradients must be finite")
    return make_head(head.weights - lr * g.d_weights, head.bias - lr * g.d_bias)


def sample_gradients(head: ModelBlob, sample) -> Gradients:
    """Gradients for a single sample: forward, softmax, backward in one go."""
    probs = softmax(forward(head, sample.features))
    return backward(head, sample.features, probs, sample.label)


def reduction_train_batch(head: ModelBlob, batch: StackedSamples, lr: float,
                          local_episodes: int) -> np.ndarray:
    """`fedhead.nn.train_batch`'s episodes on a device-stacked batch, (N, n, E)
    features, with each row's class max and class sum taken by reductions over
    the class axis at every C, as the kernel takes them from three classes on.
    The products and steps are the kernel's, so at C = 2 its binary-head path
    must match this bitwise. Returns the (N, C*E + C) trained rows, unchecked."""
    c, e = head.num_classes, head.embedding_dim
    x, labels = batch.features, batch.labels
    devices, n = labels.shape
    onehot = np.equal(labels[..., None], np.arange(c)).astype(np.float64)
    params = np.tile(head.values, (devices, 1))
    for _ in range(local_episodes):
        w, b = params[:, : c * e].reshape(devices, c, e), params[:, None, c * e :]
        delta = x @ w.transpose(0, 2, 1) + b
        delta -= np.maximum.reduce(delta, axis=2, keepdims=True)
        delta = np.exp(delta)
        delta /= np.add.reduce(delta, axis=2, keepdims=True)
        delta -= onehot
        d_weights = (delta.transpose(0, 2, 1) @ x).reshape(devices, c * e)
        grads = np.concatenate([d_weights, np.add.reduce(delta, axis=1)], axis=1)
        params = params - lr * (grads / n)
    return params


def predict(head: ModelBlob, x: np.ndarray) -> int:
    """Argmax class; ties go to the lowest class index."""
    return int(np.argmax(forward(head, x)))


def finite_difference_gradients(head: ModelBlob, batch, step: float = 1e-5) -> Gradients:
    """Central differences of each device's mean clamped cross-entropy in
    float64, the oracle's old precision: each difference carries round-off of
    about eps * loss / step. `batch` is stacked, 2-D or device-stacked."""
    batch = stack_samples(batch)
    if batch.features.ndim == 3:
        per_device = [finite_difference_gradients(head, StackedSamples(f, y), step)
                      for f, y in zip(batch.features, batch.labels)]
        return Gradients(np.array([g.d_weights for g in per_device]),
                         np.array([g.d_bias for g in per_device]))
    x, labels = batch.features, batch.labels
    rows = np.arange(len(labels))

    def mean_loss(weights, bias):
        probs = softmax(x @ weights.T + bias)
        return np.mean(-np.log(np.maximum(probs[rows, labels], PROB_CLAMP)))

    dw = np.zeros_like(head.weights)
    for c in range(head.num_classes):
        for e in range(head.embedding_dim):
            wp = head.weights.copy()
            wm = head.weights.copy()
            wp[c, e] += step
            wm[c, e] -= step
            dw[c, e] = (mean_loss(wp, head.bias) - mean_loss(wm, head.bias)) / (2 * step)
    db = np.zeros_like(head.bias)
    for c in range(head.num_classes):
        bp = head.bias.copy()
        bm = head.bias.copy()
        bp[c] += step
        bm[c] -= step
        db[c] = (mean_loss(head.weights, bp) - mean_loss(head.weights, bm)) / (2 * step)
    return Gradients(dw, db)
