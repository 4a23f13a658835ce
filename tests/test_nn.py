"""Dense-head numerics: forward, softmax/cross-entropy, backprop, SGD, init."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedhead.errors import ShapeError
from fedhead.federation import blob_from_head, evaluate
from fedhead.nn import (
    DenseHead,
    EmbeddingSample,
    Gradients,
    StackedSamples,
    backward,
    batch_predict,
    cross_entropy,
    finite_difference_gradients,
    footprint_bytes,
    forward,
    gradient_check,
    init_head,
    predict,
    sample_gradients,
    sgd_step,
    softmax,
    stack_samples,
    train_batch,
)


def make_head(weights, bias):
    return DenseHead(np.asarray(weights, dtype=np.float64), np.asarray(bias, dtype=np.float64))


def random_head(rng, e, c, scale=0.5):
    return DenseHead(rng.normal(0, scale, size=(c, e)), rng.normal(0, scale, size=c))


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
                _loss_of(DenseHead(w_plus, head.bias.copy()), x, label)
                - _loss_of(DenseHead(w_minus, head.bias.copy()), x, label)
            ) / (2 * step)
            denom = max(abs(est), abs(g.d_weights[c, e]), 1e-6)
            assert abs(g.d_weights[c, e] - est) / denom <= 1e-5
    for c in range(3):
        b_plus = head.bias.copy()
        b_minus = head.bias.copy()
        b_plus[c] += step
        b_minus[c] -= step
        est = (
            _loss_of(DenseHead(head.weights.copy(), b_plus), x, label)
            - _loss_of(DenseHead(head.weights.copy(), b_minus), x, label)
        ) / (2 * step)
        denom = max(abs(est), abs(g.d_bias[c]), 1e-6)
        assert abs(g.d_bias[c] - est) / denom <= 1e-5


def test_backward_shape_mismatch():
    head = make_head(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ShapeError):
        backward(head, np.zeros(2), np.array([0.5, 0.5]), 0)


def test_gradient_check_suite_is_tight():
    assert gradient_check(trials=100, seed=0) <= 1e-5


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
    """The matrix kernel built from the reference pieces: a DenseHead, a
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
    head = DenseHead(rng.uniform(1, 2, size=(2, 4)) * 1e150, np.zeros(2))
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
        c = train_batch(head, (stacked.features, stacked.labels), 0.3, episodes)
        for out in (b, c):
            assert np.array_equal(out.weights, a.weights)
            assert np.array_equal(out.bias, a.bias)


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
])
def test_train_batch_checks_a_stacked_batch_like_a_list(features, labels, error):
    head = make_head([[1.0, 2.0], [3.0, 4.0]], [0.5, -0.5])
    for batch in (StackedSamples(features, labels), (np.asarray(features), np.asarray(labels))):
        with pytest.raises(error):
            train_batch(head, batch, 0.1, 2)
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
        DenseHead(np.zeros((2, 3)), np.zeros(3))
    with pytest.raises(ShapeError):
        DenseHead(np.zeros((1, 3)), np.zeros(1))  # C >= 2
    with pytest.raises(ValueError):
        DenseHead(np.full((2, 2), np.nan), np.zeros(2))


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
    got = batch_predict(head, x)
    assert got.dtype == np.intp and got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    acc = evaluate(blob_from_head(head), StackedSamples(x, labels))
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


def test_batch_predict_breaks_exact_ties_toward_lowest_index():
    # Small integers make every logit exact; rows 0 and 2 of the head are equal.
    head = make_head([[1.0, -1.0], [0.0, 1.0], [1.0, -1.0], [-1.0, 0.0]], [0.0, 1.0, 0.0, 0.0])
    grid = np.array([[a, b] for a in (-2.0, -1.0, 0.0, 1.0, 2.0) for b in (-2.0, -1.0, 0.0, 1.0)])
    assert_scores_like_the_oracle(head, grid, np.arange(len(grid)) % 4)
    assert batch_predict(head, np.array([[1.0, 0.0]])).tolist() == [0]  # logits 1, 1, 1, -1


def test_batch_predict_on_infinite_logits():
    # Finite parameters and features whose products overflow to +-inf.
    big = 1e200
    head = make_head([[big], [-big], [1.0], [big]], [0.0, 0.0, 0.0, 0.0])
    x = np.array([[big], [-big], [0.0], [1.0]])  # logits: inf, -inf, 1e200, inf ...
    with np.errstate(over="ignore", invalid="ignore"):
        assert_scores_like_the_oracle(head, x, np.array([0, 1, 2, 3]))
        assert batch_predict(head, x).tolist() == [0, 1, 0, 0]


@pytest.mark.parametrize("nan_class", [0, 1, 2])
def test_batch_predict_on_nan_logits(nan_class):
    # Rows 0 and 3 score inf - inf = nan in the nan_class row and +inf in the
    # others, whatever order or fused multiply-adds the matmul uses.
    weights = np.ones((3, 2))
    weights[nan_class] = [1.0, -1.0]
    head = make_head(weights, np.zeros(3))
    x = np.array([[np.inf, np.inf], [1.0, 2.0], [-1.0, 5.0], [np.inf, np.inf]])
    with np.errstate(over="ignore", invalid="ignore"):
        preds = batch_predict(head, x)
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
            want = [batch_predict(make_head(w, b), f)
                    for w, b, f in zip(weights[stack], bias[stack], x[stack])]
        assert got.dtype == np.intp
        np.testing.assert_array_equal(got, want)
    assert got[2, 5] == got[2, 17] == 1


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
