"""Dense-head numerics: the training kernel and its gradient check, scoring,
init, and the per-sample reference path (tests/nn_reference.py) the kernel
is compared against."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedhead.nn as nn
import nn_reference
from fedhead.errors import ShapeError
from fedhead.federation import evaluate
from fedhead.nn import (
    EmbeddingSample,
    Gradients,
    ModelBlob,
    StackedSamples,
    batch_predict,
    finite_difference_gradients,
    footprint_bytes,
    gradient_check,
    init_head,
    stack_samples,
    train_batch,
)
from nn_reference import (
    backward,
    cross_entropy,
    forward,
    make_head,
    predict,
    sample_gradients,
    sgd_step,
    softmax,
)


def random_head(rng, e, c, scale=0.5):
    return make_head(rng.normal(0, scale, size=(c, e)), rng.normal(0, scale, size=c))


# -- forward --------------------------------------------------------------


def test_forward_zero_head_gives_zero_logits():
    head = make_head(np.zeros((2, 3)), np.zeros(2))
    assert np.array_equal(forward(head, np.array([1.0, -2.0, 7.0])), np.zeros(2))


def test_forward_basis_projection():
    head = make_head([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
    assert np.array_equal(forward(head, np.array([3.0, -1.0])), np.array([3.0, -1.0]))


def test_forward_matches_naive_dot_product_oracle():
    rng = np.random.default_rng(0)
    head = random_head(rng, 3, 2, scale=0.1)
    x = rng.normal(size=3)
    logits = forward(head, x)
    for c in range(2):
        naive = head.bias[c]
        for e in range(3):
            naive += head.weights[c, e] * x[e]
        assert abs(logits[c] - naive) <= 1e-12


def test_forward_rejects_wrong_length_and_nonfinite():
    head = make_head(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ShapeError):
        forward(head, np.zeros(4))
    with pytest.raises(ValueError):
        forward(head, np.array([1.0, np.nan, 0.0]))


# -- softmax / cross-entropy ---------------------------------------------------


def test_softmax_uniform_cases():
    assert np.allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5], atol=1e-15)
    big = softmax(np.array([1000.0, 1000.0]))
    assert np.all(np.isfinite(big))
    assert np.allclose(big, [0.5, 0.5], atol=1e-15)


def test_softmax_closed_form():
    probs = softmax(np.array([2.0, 0.0]))
    e2 = math.exp(2.0)
    assert np.allclose(probs, [e2 / (e2 + 1), 1 / (e2 + 1)], atol=1e-12)
    assert abs(probs[0] - 0.8808) < 5e-5 and abs(probs[1] - 0.1192) < 5e-5


@given(st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=2, max_size=8))
def test_softmax_sums_to_one_for_large_logits(logits):
    probs = softmax(np.array(logits))
    assert np.all(np.isfinite(probs))
    # Gaps beyond ~746 underflow exp() to exactly 0, so the bound is closed.
    assert np.all(probs >= 0) and np.all(probs <= 1)
    assert abs(probs.sum() - 1.0) <= 1e-9


@given(st.lists(st.floats(min_value=-300, max_value=300), min_size=2, max_size=8))
def test_softmax_strictly_positive_below_underflow(logits):
    # (dominant probs round to exactly 1.0 once the gap passes ~37, so only
    # the lower bound stays strict at these magnitudes)
    probs = softmax(np.array(logits))
    assert np.all(probs > 0)


def test_cross_entropy_examples():
    assert abs(cross_entropy(np.array([0.5, 0.5]), 0) - math.log(2)) <= 1e-12
    assert cross_entropy(np.array([1 - 1e-12, 1e-12]), 0) <= 2e-12
    probs = softmax(np.array([2.0, 0.0]))
    assert abs(cross_entropy(probs, 1) - 2.1269) < 5e-4


def test_cross_entropy_clamps_zero_probability():
    loss = cross_entropy(np.array([1.0, 0.0]), 1)
    assert math.isfinite(loss)
    assert abs(loss - (-math.log(1e-12))) <= 1e-9


def test_cross_entropy_label_out_of_range():
    with pytest.raises(IndexError):
        cross_entropy(np.array([0.5, 0.5]), 2)


# -- backward -----------------------------------------------------------------


def test_backward_zero_head_two_classes():
    head = make_head(np.zeros((2, 3)), np.zeros(2))
    x = np.array([1.0, 2.0, -3.0])
    probs = softmax(forward(head, x))
    g = backward(head, x, probs, 0)
    assert np.array_equal(g.d_bias, np.array([-0.5, 0.5]))
    assert np.array_equal(g.d_weights, np.vstack([-0.5 * x, 0.5 * x]))


def test_backward_perfect_prediction_is_fixed_point():
    head = make_head(np.zeros((2, 2)), np.zeros(2))
    g = backward(head, np.array([1.0, 1.0]), np.array([0.0, 1.0]), 1)
    assert np.all(g.d_weights == 0.0)
    assert np.all(g.d_bias == 0.0)


def _loss_of(head, x, label):
    return cross_entropy(softmax(forward(head, x)), label)


def test_backward_matches_finite_differences_small_instance():
    # Independent central-difference oracle coded here, not the library one.
    rng = np.random.default_rng(42)
    head = random_head(rng, 4, 3)
    x = rng.normal(size=4)
    label = 2
    g = backward(head, x, softmax(forward(head, x)), label)
    step = 1e-5
    for c in range(3):
        for e in range(4):
            w_plus = head.weights.copy()
            w_minus = head.weights.copy()
            w_plus[c, e] += step
            w_minus[c, e] -= step
            est = (
                _loss_of(make_head(w_plus, head.bias.copy()), x, label)
                - _loss_of(make_head(w_minus, head.bias.copy()), x, label)
            ) / (2 * step)
            denom = max(abs(est), abs(g.d_weights[c, e]), 1e-6)
            assert abs(g.d_weights[c, e] - est) / denom <= 1e-5
    for c in range(3):
        b_plus = head.bias.copy()
        b_minus = head.bias.copy()
        b_plus[c] += step
        b_minus[c] -= step
        est = (
            _loss_of(make_head(head.weights.copy(), b_plus), x, label)
            - _loss_of(make_head(head.weights.copy(), b_minus), x, label)
        ) / (2 * step)
        denom = max(abs(est), abs(g.d_bias[c]), 1e-6)
        assert abs(g.d_bias[c] - est) / denom <= 1e-5


def test_backward_shape_mismatch():
    head = make_head(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ShapeError):
        backward(head, np.zeros(2), np.array([0.5, 0.5]), 0)


def test_gradient_check_suite_is_tight():
    assert gradient_check(trials=100, seed=0) <= 1e-5


def test_gradient_check_reads_the_training_kernel(monkeypatch):
    # A kernel that steps 1e-4 too far must fail: the analytic side of the
    # check is the step train_batch takes, not a separate derivation.
    kernel = nn.train_batch
    monkeypatch.setattr(nn, "train_batch", lambda head, batch, lr, episodes:
                        kernel(head, batch, lr * (1 + 1e-4), episodes))
    assert gradient_check(trials=30, seed=0) > 1e-5


def test_gradient_check_reports_a_nan_gradient(monkeypatch):
    kernel, calls = nn.batch_gradients, []

    def nan_on_fifth_call(head, batch):
        g = kernel(head, batch)
        calls.append(batch)
        if len(calls) == 5:
            g.d_weights[..., 0, 0] = np.nan
        return g

    monkeypatch.setattr(nn, "batch_gradients", nan_on_fifth_call)
    assert math.isnan(gradient_check(trials=10, seed=0))
    assert len(calls) == 10


@pytest.mark.parametrize("seed", [8, 15, 40])
def test_gradient_check_oracle_resolves_coordinates_near_the_floor(monkeypatch, seed):
    # At these seeds a float64 oracle's round-off, about eps * loss / step,
    # reads as more than 1e-6 of error; the longdouble oracle's does not.
    with monkeypatch.context() as m:
        m.setattr(nn, "finite_difference_gradients", nn_reference.finite_difference_gradients)
        assert gradient_check(seed=seed) > 1e-6
    assert gradient_check(seed=seed) <= 1e-6


@pytest.mark.parametrize("kwargs", [
    {"trials": 0}, {"trials": -1}, {"seed": -1}, {"step": 0.0}, {"step": -1e-5},
    {"step": float("nan")}, {"step": float("inf")}, {"max_dim": 0}, {"max_classes": 1},
])
def test_gradient_check_rejects_arguments_that_check_nothing(kwargs):
    with pytest.raises(ValueError):
        gradient_check(**kwargs)


@pytest.mark.parametrize("devices", [None, 1, 3])
@pytest.mark.parametrize("n", [1, 5, 20])
def test_batch_gradients_are_the_mean_of_the_per_sample_reference(devices, n):
    rng = np.random.default_rng(100 * n + (devices or 0))
    head = random_head(rng, 6, 3)
    lead = () if devices is None else (devices,)
    x = rng.normal(size=(*lead, n, 6))
    x[..., 2] = 0.0  # a dead dimension: its weight gradient is exactly 0
    labels = rng.integers(0, 3, size=(*lead, n))
    got = nn.batch_gradients(head, StackedSamples(x, labels))
    for i in range(devices or 1):
        xs, ys, gw, gb = ((x, labels, got.d_weights, got.d_bias) if devices is None else
                          (x[i], labels[i], got.d_weights[i], got.d_bias[i]))
        want = [sample_gradients(head, EmbeddingSample(f, y)) for f, y in zip(xs, ys)]
        assert np.max(np.abs(gw - np.mean([g.d_weights for g in want], axis=0))) <= 1e-12
        assert np.max(np.abs(gb - np.mean([g.d_bias for g in want], axis=0))) <= 1e-12
        assert np.all(gw[:, 2] == 0.0)
    sample = EmbeddingSample(x.reshape(-1, 6)[0], labels.ravel()[0])
    one, want = nn.sample_gradients(head, sample), sample_gradients(head, sample)
    assert np.max(np.abs(one.d_weights - want.d_weights)) <= 1e-12
    assert np.max(np.abs(one.d_bias - want.d_bias)) <= 1e-12


def test_library_finite_differences_agree_with_backward():
    rng = np.random.default_rng(3)
    head = random_head(rng, 5, 3)
    sample = EmbeddingSample(rng.normal(size=5), 1)
    g = sample_gradients(head, sample)
    fd = finite_difference_gradients(head, sample)
    assert np.allclose(g.d_weights, fd.d_weights, rtol=1e-6, atol=1e-9)
    assert np.allclose(g.d_bias, fd.d_bias, rtol=1e-6, atol=1e-9)


# -- sgd_step / train_batch -------------------------------------------------


def test_sgd_step_zero_lr_is_identity():
    rng = np.random.default_rng(1)
    head = random_head(rng, 3, 2)
    g = Gradients(rng.normal(size=(2, 3)), rng.normal(size=2))
    out = sgd_step(head, g, 0.0)
    assert np.array_equal(out.weights, head.weights)
    assert np.array_equal(out.bias, head.bias)


def test_sgd_step_unit_lr_from_zero():
    g_w = np.arange(6, dtype=np.float64).reshape(2, 3)
    g_b = np.array([1.0, -2.0])
    out = sgd_step(make_head(np.zeros((2, 3)), np.zeros(2)), Gradients(g_w, g_b), 1.0)
    assert np.array_equal(out.weights, -g_w)
    assert np.array_equal(out.bias, -g_b)


def test_sgd_step_rejects_nonfinite_gradients():
    head = make_head(np.zeros((2, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        sgd_step(head, Gradients(np.array([[np.inf, 0.0], [0.0, 0.0]]), np.zeros(2)), 0.1)


def test_successive_steps_decrease_batch_loss():
    # Two classes on opposite sides of the origin; descent must help.
    batch = [
        EmbeddingSample(np.array([1.0, 0.5]), 0),
        EmbeddingSample(np.array([-1.0, -0.5]), 1),
    ]
    head = make_head(np.zeros((2, 2)), np.zeros(2))

    def batch_loss(h):
        return sum(_loss_of(h, s.features, s.label) for s in batch)

    l0 = batch_loss(head)
    head = train_batch(head, batch, 0.1, 1)
    l1 = batch_loss(head)
    head = train_batch(head, batch, 0.1, 1)
    l2 = batch_loss(head)
    assert l1 < l0 and l2 < l1


def test_train_batch_degenerate_equals_single_step():
    rng = np.random.default_rng(7)
    head = random_head(rng, 4, 2)
    sample = EmbeddingSample(rng.normal(size=4), 1)
    direct = sgd_step(head, sample_gradients(head, sample), 0.05)
    batched = train_batch(head, [sample], 0.05, 1)
    assert isinstance(batched, ModelBlob)
    assert np.array_equal(direct.weights, batched.weights)
    assert np.array_equal(direct.bias, batched.bias)


def test_train_batch_symmetric_pair_cancels():
    # Same input under both labels: uniform probs give exactly opposite
    # gradients, so the mean update is zero.
    head = make_head(np.zeros((2, 3)), np.zeros(2))
    x = np.array([0.3, -1.2, 2.0])
    out = train_batch(head, [EmbeddingSample(x, 0), EmbeddingSample(x, 1)], 0.5, 3)
    assert np.array_equal(out.weights, head.weights)
    assert np.array_equal(out.bias, head.bias)


def test_train_batch_usage_errors():
    head = make_head(np.zeros((2, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        train_batch(head, [], 0.1, 1)
    with pytest.raises(ValueError):
        train_batch(head, [EmbeddingSample(np.zeros(2), 0)], 0.1, 0)


def test_episode_count_equals_repeated_single_episode_bitwise():
    rng = np.random.default_rng(11)
    head = random_head(rng, 6, 3)
    batch = [EmbeddingSample(rng.normal(size=6), int(i % 3)) for i in range(5)]
    multi = train_batch(head, batch, 0.02, 4)
    single = head
    for _ in range(4):
        single = train_batch(single, batch, 0.02, 1)
    assert np.array_equal(multi.weights, single.weights)
    assert np.array_equal(multi.bias, single.bias)


def reference_train_batch(head, batch, lr, local_episodes):
    """The per-sample path: mean of sample_gradients, then sgd_step, per episode."""
    for _ in range(local_episodes):
        grads = [sample_gradients(head, s) for s in batch]
        mean = Gradients(
            np.mean([g.d_weights for g in grads], axis=0),
            np.mean([g.d_bias for g in grads], axis=0),
        )
        head = sgd_step(head, mean, lr)
    return head


@pytest.mark.parametrize("n", [1, 5, 20])
@pytest.mark.parametrize("e,c,episodes", [(1, 2, 1), (6, 3, 4), (16, 2, 5), (1280, 2, 2), (40, 10, 3)])
def test_train_batch_matches_per_sample_reference(n, e, c, episodes):
    rng = np.random.default_rng(1000 * n + e + c)
    head = random_head(rng, e, c)
    batch = [EmbeddingSample(rng.normal(size=e), int(rng.integers(c))) for _ in range(n)]
    got = train_batch(head, batch, 0.05, episodes)
    want = reference_train_batch(head, batch, 0.05, episodes)
    assert np.max(np.abs(got.weights - want.weights)) <= 1e-12
    assert np.max(np.abs(got.bias - want.bias)) <= 1e-12


def test_train_batch_keeps_all_zero_feature_columns_frozen():
    rng = np.random.default_rng(13)
    head = random_head(rng, 12, 3)
    dead = [0, 5, 11]
    batch = []
    for i in range(9):
        x = rng.normal(size=12)
        x[dead] = 0.0
        batch.append(EmbeddingSample(x, i % 3))
    out = train_batch(head, batch, 0.5, 6)
    assert np.array_equal(out.weights[:, dead], head.weights[:, dead])
    live = [d for d in range(12) if d not in dead]
    assert not np.array_equal(out.weights[:, live], head.weights[:, live])


def head_and_gradients_train_batch(head, batch, lr, local_episodes):
    """The matrix kernel built from the reference pieces: a ModelBlob, a
    Gradients and an sgd_step (with its checks) every episode."""
    x, labels = batch.features, batch.labels
    n = len(batch)
    onehot = np.zeros((n, head.num_classes))
    onehot[np.arange(n), labels] = 1.0
    for _ in range(local_episodes):
        delta = softmax(x @ head.weights.T + head.bias) - onehot
        head = sgd_step(head, Gradients(delta.T @ x / n, delta.sum(0) / n), lr)
    return head


@pytest.mark.parametrize("e", [1, 16, 1280])
@pytest.mark.parametrize("c", [2, 10])
@pytest.mark.parametrize("n", [1, 20, 50])
def test_array_episodes_are_bitwise_the_head_and_gradients_loop(e, c, n):
    rng = np.random.default_rng(e * 100 + c * 10 + n)
    head = random_head(rng, e, c)
    batch = StackedSamples(rng.normal(size=(n, e)), rng.integers(0, c, size=n))
    for episodes in (1, 5):
        for lr in (0.0, 0.01, 1.0):
            got = train_batch(head, batch, lr, episodes)
            want = head_and_gradients_train_batch(head, batch, lr, episodes)
            assert np.array_equal(got.weights, want.weights)
            assert np.array_equal(got.bias, want.bias)


@pytest.mark.parametrize("episodes", [1, 5])
@pytest.mark.parametrize("lr", [0.0, 0.01])
def test_train_batch_raises_when_logits_overflow_at_the_first_step(episodes, lr):
    # Finite features near 1e200 against weights near 1e150: every logit is
    # +inf, so the softmax and the gradients are nan from the first step.
    rng = np.random.default_rng(3)
    head = make_head(rng.uniform(1, 2, size=(2, 4)) * 1e150, np.zeros(2))
    batch = StackedSamples(rng.uniform(1, 2, size=(3, 4)) * 1e200, np.array([0, 1, 0]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError):
            train_batch(head, batch, lr, episodes)
        with pytest.raises(ValueError):
            head_and_gradients_train_batch(head, batch, lr, episodes)


def test_train_batch_raises_when_parameters_overflow_mid_training():
    # The first step is finite but moves the weights to about 1e200; the
    # second step's logits overflow. Only the result's check can see it.
    rng = np.random.default_rng(4)
    head = random_head(rng, 4, 2)
    batch = StackedSamples(rng.uniform(1, 2, size=(3, 4)) * 1e200, np.array([0, 1, 0]))
    with np.errstate(over="ignore", invalid="ignore"):
        once = train_batch(head, batch, 1.0, 1)
        assert np.isfinite(once.weights).all() and np.abs(once.weights).max() > 1e199
        with pytest.raises(ValueError):
            train_batch(head, batch, 1.0, 5)
        with pytest.raises(ValueError):
            head_and_gradients_train_batch(head, batch, 1.0, 5)


@pytest.mark.parametrize("batch,lr,error", [
    ([EmbeddingSample(np.zeros(3), 0), EmbeddingSample(np.zeros(2), 1)], 0.1, ShapeError),
    ([EmbeddingSample(np.zeros(2), 0), EmbeddingSample(np.array([0.0, np.inf]), 1)], 0.1, ValueError),
    ([EmbeddingSample(np.zeros(2), 0), EmbeddingSample(np.zeros(2), 2)], 0.1, IndexError),
    ([EmbeddingSample(np.zeros(2), 0)], float("nan"), ValueError),
    ([EmbeddingSample(np.zeros(2), 0)], -0.1, ValueError),
])
def test_train_batch_rejects_bad_input_like_the_per_sample_path(batch, lr, error):
    head = make_head([[1.0, 2.0], [3.0, 4.0]], [0.5, -0.5])
    with pytest.raises(error):
        train_batch(head, batch, lr, 2)
    with pytest.raises(error):
        reference_train_batch(head, batch, lr, 2)
    assert np.array_equal(head.weights, [[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(head.bias, [0.5, -0.5])


def test_train_batch_on_a_stacked_batch_is_bitwise_the_list_path():
    rng = np.random.default_rng(31)
    head = random_head(rng, 6, 3)
    batch = [EmbeddingSample(rng.normal(size=6).astype(np.float32), i % 3) for i in range(11)]
    stacked = stack_samples(batch)
    assert len(stacked) == 11 and stacked.features.dtype == np.float64
    for episodes in (1, 4):
        a = train_batch(head, batch, 0.3, episodes)
        b = train_batch(head, stacked, 0.3, episodes)
        assert np.array_equal(b.weights, a.weights)
        assert np.array_equal(b.bias, a.bias)


@pytest.mark.parametrize("devices", [1, 3, 4])
@pytest.mark.parametrize("n", [1, 20, 50])
@pytest.mark.parametrize("e", [16, 1280])
@pytest.mark.parametrize("c", [2, 10])
def test_device_stacked_train_batch_rows_are_bitwise_per_device(devices, n, e, c):
    rng = np.random.default_rng(devices * 10000 + n * 100 + e + c)
    head = random_head(rng, e, c)
    batch = StackedSamples(rng.normal(size=(devices, n, e)), rng.integers(0, c, size=(devices, n)))
    assert len(batch) == devices * n
    for episodes in (1, 5):
        params = train_batch(head, batch, 0.3, episodes)
        assert params.shape == (devices, c * e + c) and params.dtype == np.float64
        for i in range(devices):
            one = train_batch(head, StackedSamples(batch.features[i], batch.labels[i]), 0.3, episodes)
            assert np.array_equal(params[i], np.concatenate([one.weights.ravel(), one.bias]))


def test_device_stacked_samples_are_validated():
    with pytest.raises(ShapeError):
        StackedSamples(np.zeros((2, 3, 4)), np.zeros((2, 4), dtype=np.int64))
    with pytest.raises(ShapeError):
        StackedSamples(np.zeros((1, 2, 3, 4)), np.zeros((1, 2, 3), dtype=np.int64))
    head = make_head([[1.0, 2.0], [3.0, 4.0]], [0.5, -0.5])
    for features, labels, error in (
        (np.zeros((2, 3, 3)), np.zeros((2, 3), dtype=np.int64), ShapeError),
        (np.zeros((2, 0, 2)), np.zeros((2, 0), dtype=np.int64), ValueError),
        (np.array([[[0.0, 0.0]], [[np.nan, 0.0]]]), np.zeros((2, 1), dtype=np.int64), ValueError),
        (np.zeros((2, 1, 2)), np.array([[0], [2]]), IndexError),
    ):
        with pytest.raises(error):
            train_batch(head, StackedSamples(features, labels), 0.1, 2)


@pytest.mark.parametrize("features,labels,error", [
    (np.zeros((0, 2)), np.zeros(0, dtype=np.int64), ValueError),
    (np.zeros((2, 3)), [0, 1], ShapeError),
    ([[0.0, 0.0], [0.0, np.inf]], [0, 1], ValueError),
    (np.zeros((2, 2)), [0, 2], IndexError),
    (np.zeros((2, 2)), [-1, 0], IndexError),
    (np.zeros((2, 2)), [0, 0.5], IndexError),
    (np.zeros((2, 2)), [0, np.nan], IndexError),
])
def test_train_batch_checks_a_stacked_batch_like_a_list(features, labels, error):
    head = make_head([[1.0, 2.0], [3.0, 4.0]], [0.5, -0.5])
    with pytest.raises(error):
        train_batch(head, StackedSamples(features, labels), 0.1, 2)
    assert np.array_equal(head.weights, [[1.0, 2.0], [3.0, 4.0]])


def test_stacked_samples_shape_is_validated():
    with pytest.raises(ShapeError):
        StackedSamples(np.zeros(4), np.zeros(4, dtype=np.int64))
    with pytest.raises(ShapeError):
        StackedSamples(np.zeros((4, 2)), np.zeros(3, dtype=np.int64))
    assert len(stack_samples([])) == 0
    with pytest.raises(ShapeError):
        stack_samples([EmbeddingSample(np.zeros(2), 0), EmbeddingSample(np.zeros(3), 1)])


def test_training_is_deterministic():
    def run():
        head = init_head(8, 2, "random", seed=123)
        rng = np.random.default_rng(5)
        for _ in range(10):
            batch = [EmbeddingSample(rng.normal(size=8), int(rng.integers(2))) for _ in range(4)]
            head = train_batch(head, batch, 0.01, 2)
        return head

    a, b = run(), run()
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.bias, b.bias)


# -- init_head / footprint --------------------------------------------------


def test_init_zeros_shape_and_count():
    head = init_head(256, 2, "zeros")
    assert head.param_count == 514
    assert np.all(head.weights == 0.0) and np.all(head.bias == 0.0)


def test_init_random_is_seeded_and_bounded():
    a = init_head(16, 4, "random", seed=9)
    b = init_head(16, 4, "random", seed=9)
    c = init_head(16, 4, "random", seed=10)
    assert np.array_equal(a.weights, b.weights) and np.array_equal(a.bias, b.bias)
    assert not np.array_equal(a.weights, c.weights)
    s = math.sqrt(6 / (16 + 4))
    assert np.all(np.abs(a.weights) <= s) and np.all(np.abs(a.bias) <= s)


def test_init_pretrained_copies_blob_and_checks_length():
    blob = np.arange(2562, dtype=np.float64)
    head = init_head(1280, 2, "pretrained", blob=blob)
    assert head.param_count == 2562
    assert np.array_equal(head.weights.ravel(), blob[:2560])
    assert np.array_equal(head.bias, blob[2560:])
    with pytest.raises(ShapeError):
        init_head(1280, 2, "pretrained", blob=np.arange(2561, dtype=np.float64))


def test_init_unknown_mode():
    with pytest.raises(ValueError):
        init_head(4, 2, "xavier")


def test_footprint_bytes_values():
    assert footprint_bytes(256, 2) == 2056
    assert footprint_bytes(1280, 2) == 10248


def test_footprint_invariant_under_training():
    head = init_head(16, 2, "random", seed=0)
    before = footprint_bytes(head.embedding_dim, head.num_classes)
    rng = np.random.default_rng(0)
    for _ in range(100):
        head = train_batch(head, [EmbeddingSample(rng.normal(size=16), 0)], 0.01, 1)
    assert footprint_bytes(head.embedding_dim, head.num_classes) == before
    assert head.param_count == 16 * 2 + 2


# -- head validation / predict ----------------------------------------------


def test_dense_head_validation():
    with pytest.raises(ShapeError):
        ModelBlob(np.zeros(9), 3, 2)  # needs 2*3+2 = 8 values
    with pytest.raises(ShapeError):
        ModelBlob(np.zeros(0), 0, 2)  # E >= 1
    with pytest.raises(ValueError):
        ModelBlob(np.full(6, np.nan), 2, 2)
    head = make_head([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], [7.0, 8.0])
    assert head.weights.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
    assert head.bias.tolist() == [7.0, 8.0]
    assert np.shares_memory(head.weights, head.values) and np.shares_memory(head.bias, head.values)


def test_a_one_class_model_cannot_train_or_score():
    # The wire carries a C = 1 blob, but a classification head needs C >= 2.
    one = ModelBlob(np.zeros(4), 3, 1)
    batch = [EmbeddingSample(np.zeros(3), 0)]
    stacked = StackedSamples(np.zeros((2, 1, 3)), np.zeros((2, 1), dtype=np.int64))
    for call in (lambda: train_batch(one, batch, 0.1, 1),
                 lambda: train_batch(one, stacked, 0.1, 1),
                 lambda: nn.batch_gradients(one, batch),
                 lambda: nn.batch_gradients(one, stacked),
                 lambda: nn.sample_gradients(one, batch[0]),
                 lambda: evaluate(one, batch)):
        with pytest.raises(ShapeError, match="at least 2 classes"):
            call()


def test_parameters_stay_finite_through_training():
    head = init_head(4, 2, "random", seed=2)
    rng = np.random.default_rng(2)
    for _ in range(200):
        sample = EmbeddingSample(rng.normal(size=4) * 100, int(rng.integers(2)))
        head = train_batch(head, [sample], 0.1, 1)
        assert np.all(np.isfinite(head.weights)) and np.all(np.isfinite(head.bias))


def test_predict_breaks_ties_toward_lowest_index():
    head = make_head(np.zeros((3, 2)), np.zeros(3))
    assert predict(head, np.array([1.0, 1.0])) == 0


def argmax_oracle(head, x):
    """Row-major logits and numpy's argmax: lowest index on ties, first NaN wins."""
    return np.argmax(x @ head.weights.T + head.bias, axis=1)


def assert_scores_like_the_oracle(head, x, labels):
    want = argmax_oracle(head, x)
    got = batch_predict((head.weights, head.bias), x)
    assert got.dtype == np.intp and got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    acc = evaluate(head, StackedSamples(x, labels))
    assert acc == np.count_nonzero(want == labels) / len(labels)


@pytest.mark.parametrize("e", [1, 16, 1280])
@pytest.mark.parametrize("c", [2, 3, 10])
def test_batch_predict_is_the_row_major_argmax(e, c):
    rng = np.random.default_rng(e * 100 + c)
    head = random_head(rng, e, c)
    base = rng.normal(size=(2 * 4000, e))
    for n in (1, 2, 20, 129, 1000, 4000):
        labels = rng.integers(0, c, size=n)
        for x in (base[:n], base[: 2 * n : 2]):  # C-ordered, row-strided
            assert_scores_like_the_oracle(head, x, labels)
        # Validation sets are stacked E-major; their logits are the class-major ones.
        x = np.asfortranarray(base[:n])
        want = np.argmax(head.weights @ x.T + head.bias[:, None], axis=0)
        np.testing.assert_array_equal(batch_predict((head.weights, head.bias), x), want)


def test_batch_predict_breaks_exact_ties_toward_lowest_index():
    # Small integers make every logit exact; rows 0 and 2 of the head are equal.
    head = make_head([[1.0, -1.0], [0.0, 1.0], [1.0, -1.0], [-1.0, 0.0]], [0.0, 1.0, 0.0, 0.0])
    grid = np.array([[a, b] for a in (-2.0, -1.0, 0.0, 1.0, 2.0) for b in (-2.0, -1.0, 0.0, 1.0)])
    assert_scores_like_the_oracle(head, grid, np.arange(len(grid)) % 4)
    one = np.array([[1.0, 0.0]])
    assert batch_predict((head.weights, head.bias), one).tolist() == [0]  # logits 1, 1, 1, -1


def test_batch_predict_on_infinite_logits():
    # Finite parameters and features whose products overflow to +-inf.
    big = 1e200
    head = make_head([[big], [-big], [1.0], [big]], [0.0, 0.0, 0.0, 0.0])
    x = np.array([[big], [-big], [0.0], [1.0]])  # logits: inf, -inf, 1e200, inf ...
    with np.errstate(over="ignore", invalid="ignore"):
        assert_scores_like_the_oracle(head, x, np.array([0, 1, 2, 3]))
        assert batch_predict((head.weights, head.bias), x).tolist() == [0, 1, 0, 0]


@pytest.mark.parametrize("nan_class", [0, 1, 2])
def test_batch_predict_on_nan_logits(nan_class):
    # Rows 0 and 3 score inf - inf = nan in the nan_class row and +inf in the
    # others, whatever order or fused multiply-adds the matmul uses.
    weights = np.ones((3, 2))
    weights[nan_class] = [1.0, -1.0]
    head = make_head(weights, np.zeros(3))
    x = np.array([[np.inf, np.inf], [1.0, 2.0], [-1.0, 5.0], [np.inf, np.inf]])
    with np.errstate(over="ignore", invalid="ignore"):
        preds = batch_predict((head.weights, head.bias), x)
        assert_scores_like_the_oracle(head, x, np.array([0, 1, 2, nan_class]))
    assert preds[0] == preds[3] == nan_class


def test_stacked_batch_predict_is_the_per_device_scorer():
    # Small integers make ties exact. On two rows device 2 scores inf, nan,
    # inf, -inf, which sends the whole stack to the np.argmax fallback.
    rng = np.random.default_rng(8)
    weights = rng.integers(-2, 3, size=(3, 4, 2)).astype(np.float64)
    weights[2] = [[1.0, 1.0], [1.0, -1.0], [2.0, 1.0], [-1.0, -2.0]]
    bias = rng.integers(-1, 2, size=(3, 4)).astype(np.float64)
    x = rng.integers(-2, 3, size=(3, 30, 2)).astype(np.float64)
    x[2, [5, 17]] = np.inf
    for stack in (slice(0, 2), slice(0, 3)):  # without and with the nan rows
        with np.errstate(over="ignore", invalid="ignore"):
            got = batch_predict((weights[stack], bias[stack]), x[stack])
            want = [batch_predict((w, b), f)
                    for w, b, f in zip(weights[stack], bias[stack], x[stack])]
        assert got.dtype == np.intp
        np.testing.assert_array_equal(got, want)
    assert got[2, 5] == got[2, 17] == 1


def test_one_head_scores_stacked_features_device_by_device():
    # A (C, E) head over (N, n, E) features, with N below, at and above C.
    rng = np.random.default_rng(9)
    head = random_head(rng, 4, 3)
    for devices in (2, 3, 5):
        x = rng.normal(size=(devices, 7, 4))
        want = [batch_predict((head.weights, head.bias), f) for f in x]
        np.testing.assert_array_equal(batch_predict((head.weights, head.bias), x), want)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 10]), st.sampled_from([(), (1,), (3,)]),
       st.integers(min_value=1, max_value=12), st.sampled_from([0.0, 0.1, 0.5]),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_batch_predict_is_np_argmax_on_ties_infinities_and_nans(c, lead, n, rate, seed):
    # Small integers make every finite logit exact and tie often. The last two
    # features are 0, or +-inf in some rows; every class weighs them +-1, so such
    # a row scores +inf, -inf or inf - inf = nan in each class, whatever order or
    # fused multiply-adds the matmul uses. Some biases are +-inf or nan.
    rng = np.random.default_rng(seed)
    weights = rng.integers(-2, 3, size=(*lead, c, 4)).astype(np.float64)
    weights[..., 2:] = rng.choice([-1.0, 1.0], size=(*lead, c, 2))
    bias = rng.integers(-2, 3, size=(*lead, c)).astype(np.float64)
    special = rng.random(bias.shape) < rate / 4
    bias[special] = rng.choice([np.inf, -np.inf, np.nan], size=np.count_nonzero(special))
    x = rng.integers(-2, 3, size=(*lead, n, 4)).astype(np.float64)
    x[..., 2:] = np.where(rng.random((*lead, n, 2)) < rate,
                          rng.choice([np.inf, -np.inf], size=(*lead, n, 2)), 0.0)
    with np.errstate(invalid="ignore"):
        logits = weights @ x.swapaxes(-1, -2) + bias[..., None]
        got = batch_predict((weights, bias), x)
    assert got.dtype == np.intp
    np.testing.assert_array_equal(got, np.argmax(logits, axis=-2), strict=True)


@pytest.mark.parametrize("lead", [(), (3,)])
def test_train_batch_one_hot_does_not_depend_on_the_label_dtype(lead):
    rng = np.random.default_rng(42)
    head = random_head(rng, 5, 4)
    features = rng.normal(size=(*lead, 9, 5))
    labels = rng.integers(0, 4, size=(*lead, 9))

    def trained_rows(dtype):
        out = train_batch(head, StackedSamples(features, labels.astype(dtype)), 0.3, 3)
        return out if lead else out.values

    want = trained_rows(np.int64)
    for dtype in (np.int32, np.uint8):
        assert np.array_equal(trained_rows(dtype), want)


@settings(max_examples=200, deadline=None)
@given(devices=st.integers(1, 4), n=st.integers(1, 6), e=st.integers(1, 5),
       tie=st.booleans(), large=st.booleans(), lr=st.sampled_from([0.0, 0.01, 1.0]),
       episodes=st.integers(1, 3), seed=st.integers(0, 2**31 - 1))
def test_binary_head_episodes_are_bitwise_the_class_reductions(devices, n, e, tie, large, lr,
                                                               episodes, seed):
    # A tied head gives every sample two equal logits at the first step. With
    # |x . w| <= 0.5 * E <= 2.5, a large bias puts every first-step logit at 700
    # or more in magnitude, where exp of an unshifted logit overflows.
    rng = np.random.default_rng(seed)
    weights, bias = rng.uniform(-0.5, 0.5, size=(2, e)), rng.uniform(-0.5, 0.5, size=2)
    if large:
        bias = rng.choice([-1.0, 1.0], size=2) * rng.uniform(703, 5000, size=2)
    if tie:
        weights[1], bias[1] = weights[0], bias[0]
    head = make_head(weights, bias)
    batch = StackedSamples(rng.uniform(-1, 1, size=(devices, n, e)),
                           rng.integers(0, 2, size=(devices, n)))
    got = train_batch(head, batch, lr, episodes)
    want = nn_reference.reduction_train_batch(head, batch, lr, episodes)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("e", [1, 16, 1280])
@pytest.mark.parametrize("devices", [1, 2, 4])
def test_binary_head_episodes_are_bitwise_the_class_reductions_at_workload_shapes(devices, e):
    # numpy sums 8 or more elements pairwise, so batches of 8 and more (and
    # E = 1280) would show a reduction whose order changed. The weights keep
    # |x . w| <= 0.5, so a large bias puts every first-step logit at 700 or
    # more in magnitude; a tied head gives every sample two equal logits.
    rng = np.random.default_rng(devices * 10_000 + e)
    for n in (1, 7, 8, 20, 24):
        for kind in ("plain", "tied", "large"):
            weights, bias = rng.uniform(-0.5, 0.5, size=(2, e)) / e, rng.uniform(-0.5, 0.5, 2)
            if kind == "tied":
                weights[1], bias[1] = weights[0], bias[0]
            elif kind == "large":
                bias = rng.choice([-1.0, 1.0], size=2) * rng.uniform(703, 5000, size=2)
            head = make_head(weights, bias)
            batch = StackedSamples(rng.uniform(-1, 1, size=(devices, n, e)),
                                   rng.integers(0, 2, size=(devices, n)))
            for episodes in (1, 5):
                for lr in (0.0, 0.01):
                    got = train_batch(head, batch, lr, episodes)
                    want = nn_reference.reduction_train_batch(head, batch, lr, episodes)
                    assert got.tobytes() == want.tobytes(), (n, kind, episodes, lr)


@settings(max_examples=50)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=2, max_value=4),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_gradcheck_property_random_instances(e, c, seed):
    rng = np.random.default_rng(seed)
    head = random_head(rng, e, c)
    sample = EmbeddingSample(rng.normal(size=e), int(rng.integers(c)))
    g = sample_gradients(head, sample)
    fd = finite_difference_gradients(head, sample)
    denom = np.maximum(np.maximum(np.abs(fd.d_weights), np.abs(g.d_weights)), 1e-6)
    assert np.max(np.abs(g.d_weights - fd.d_weights) / denom) <= 1e-5
