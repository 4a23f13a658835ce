"""Independent numpy reference for the sim-fig correctness gate.

It recomputes every sweep point's mean validation accuracy after each epoch
from the same seeds, with its own data generation, partitioning, head init,
batch-mean SGD and averaging, so it shares no code with fedhead. Its values
match the curves fedhead produced at the commit that defined this benchmark
(see ``pinned_sim_fig.json`` and the tests); the gate compares a run against it.
"""
from __future__ import annotations

import numpy as np


def _separable(dim, classes, n, margin, seed, val_fraction):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, classes)))
    centroids = (q * (margin / np.sqrt(2.0))).T
    labels = np.arange(n, dtype=np.int64) % classes
    features = centroids[labels] + (margin / 6.0) * rng.standard_normal((n, dim))
    n_val = int(round(n * val_fraction))
    return features.astype(np.float32).astype(np.float64), labels, n - n_val


def _train(w, b, x, y, lr, episodes):
    rows = np.arange(len(y))
    for _ in range(episodes):
        logits = x @ w.T + b
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        p[rows, y] -= 1.0
        w = w - lr * (p.T @ x) / len(y)
        b = b - lr * p.sum(axis=0) / len(y)
    return w, b


def val_curve(rep_seed, devices, *, dim, classes, samples, margin,
              val_fraction, batch, episodes, lr, epochs) -> list[float]:
    """Validation accuracy after each of `epochs` rounds of one seeded repetition."""
    data_ss, part_ss, init_ss = np.random.SeedSequence([rep_seed]).spawn(3)
    x, y, n_train = _separable(dim, classes, samples, margin, data_ss, val_fraction)
    order = np.random.default_rng(part_ss).permutation(np.arange(n_train))
    shard = n_train // devices
    shards = [order[d * shard:(d + 1) * shard] for d in range(devices)]
    x_val, y_val = x[n_train:], y[n_train:]
    rng = np.random.default_rng(init_ss)
    s = np.sqrt(6.0 / (dim + classes))
    w = rng.uniform(-s, s, size=(classes, dim))
    b = rng.uniform(-s, s, size=classes)
    curve = []
    for t in range(epochs):
        trained = [
            _train(w, b, x[idx[t * batch:(t + 1) * batch]], y[idx[t * batch:(t + 1) * batch]],
                   lr, episodes)
            for idx in shards
        ]
        w, b = trained[0][0].copy(), trained[0][1].copy()
        for tw, tb in trained[1:]:  # device order, left to right, like fedhead
            w += tw
            b += tb
        w, b = w / devices, b / devices
        curve.append(float(np.mean(np.argmax(x_val @ w.T + b, axis=1) == y_val)))
    return curve


def sweep_curves(cfg) -> dict:
    """{sweep value: mean validation accuracy after each epoch} for a devices sweep."""
    spec = cfg.dataset
    out = {}
    for devices in cfg.sweep_values:
        curves = [
            val_curve(
                cfg.base_seed + r, int(devices), dim=spec.embedding_dim,
                classes=spec.num_classes, samples=spec.samples, margin=spec.margin,
                val_fraction=spec.val_fraction, batch=cfg.batch_size,
                episodes=cfg.local_episodes, lr=cfg.learning_rate, epochs=cfg.epochs,
            )
            for r in range(cfg.repetitions)
        ]
        out[devices] = [float(v) for v in np.mean(curves, axis=0)]
    return out
