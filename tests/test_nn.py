"""Tests for the float network: forward math, backprop, Adam, training."""

import math
import tracemalloc

import numpy as np
import pytest

import model_oracle
from rfmc import nn
from rfmc.nn import AdamState, NetworkParams
from rfmc.seeding import split_seed


def zero_net(dims):
    return NetworkParams(
        [np.zeros((o, i)) for i, o in zip(dims[:-1], dims[1:])],
        [np.zeros(o) for o in dims[1:]],
    )


def toy_net(seed, dims=(4, 3, 2), kink_margin=5e-2):
    """Random toy net plus an input/label whose hidden pre-activations
    stay away from the ReLU kink, so central differences are valid."""
    rng = np.random.default_rng(seed)
    while True:
        params = NetworkParams(
            [rng.normal(0.0, 0.8, (o, i)) for i, o in zip(dims[:-1], dims[1:])],
            [rng.normal(0.0, 0.5, o) for o in dims[1:]],
        )
        x = rng.normal(0.0, 1.0, dims[0])
        y = int(rng.integers(0, dims[-1]))
        h = x
        margins = []
        for w, b in zip(params.weights[:-1], params.biases[:-1]):
            z = w @ h + b
            margins.append(np.min(np.abs(z)))
            h = np.maximum(z, 0.0)
        if min(margins) > kink_margin:
            return params, x, y


def gradients(params, frames, labels):
    """Analytic mean gradients over a batch, as ``nn.train`` computes them."""
    grads, _ = nn._forward_backward(params, np.atleast_2d(frames), np.asarray(labels))
    return grads


def loss(params, frames, labels):
    """Mean cross-entropy loss over a batch, as ``nn.train`` computes it."""
    _, value = nn._forward_backward(params, np.atleast_2d(frames), np.asarray(labels))
    return value


def numeric_gradients(params, x, y, h=1e-5):
    """Central finite differences of the batch-mean cross-entropy loss."""
    x2 = np.atleast_2d(x)
    y1 = np.atleast_1d(y)

    def loss_at(p):
        probs = nn.softmax(nn.forward_batch(p, x2))
        picked = probs[np.arange(len(y1)), y1]
        return float(np.mean(-np.log(np.maximum(picked, nn.LOSS_CLAMP))))

    grad_w = [np.zeros_like(w) for w in params.weights]
    grad_b = [np.zeros_like(b) for b in params.biases]
    for li in range(params.n_layers):
        for idx in np.ndindex(*params.weights[li].shape):
            p = params.copy()
            p.weights[li][idx] += h
            up = loss_at(p)
            p.weights[li][idx] -= 2 * h
            down = loss_at(p)
            grad_w[li][idx] = (up - down) / (2 * h)
        for idx in range(len(params.biases[li])):
            p = params.copy()
            p.biases[li][idx] += h
            up = loss_at(p)
            p.biases[li][idx] -= 2 * h
            down = loss_at(p)
            grad_b[li][idx] = (up - down) / (2 * h)
    return grad_w, grad_b


def assert_close_relative(analytic, numeric, rtol=1e-4, floor=1e-3):
    # floor guards finite-difference roundoff on near-zero components
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    assert np.all(np.abs(analytic - numeric) / denom <= rtol)


def separable_toy(n=50, seed=5):
    """50 points split by a fixed hyperplane with margin 0.3."""
    rng = np.random.default_rng(seed)
    w_star = np.array([1.0, -2.0, 0.5, 1.5])
    xs, ys = [], []
    while len(xs) < n:
        x = rng.standard_normal(4)
        m = w_star @ x
        if abs(m) > 0.3:
            xs.append(x)
            ys.append(1 if m > 0 else 0)
    return np.array(xs), np.array(ys)


def perceptron_separable(x, y, max_epochs=1000):
    """Oracle: the perceptron converges iff the data is linearly separable."""
    aug = np.hstack([x, np.ones((len(x), 1))])
    w = np.zeros(aug.shape[1])
    for _ in range(max_epochs):
        errors = 0
        for xi, yi in zip(aug, y):
            pred = 1 if w @ xi > 0 else 0
            if pred != yi:
                w += (1 if yi == 1 else -1) * xi
                errors += 1
        if errors == 0:
            return True
    return False


class TestRelu:
    def test_definition(self):
        assert np.array_equal(nn.relu(np.array([-2.0, 0.0, 3.0])), [0.0, 0.0, 3.0])

    def test_all_negative(self):
        assert np.array_equal(nn.relu(np.array([-1.0, -5.0, -0.1])), [0.0, 0.0, 0.0])

    def test_nonnegative_identity(self):
        v = np.array([0.0, 0.5, 2.0])
        assert np.array_equal(nn.relu(v), v)


class TestSoftmax:
    def test_uniform(self):
        assert np.allclose(nn.softmax(np.zeros(3)), [1 / 3] * 3, atol=1e-15)

    @pytest.mark.parametrize("c", [-100.0, -1.0, 0.0, 17.25, 99.0])
    def test_shifted_log2_ratio(self, c):
        probs = nn.softmax(np.array([c, c + math.log(2.0)]))
        assert probs == pytest.approx([1 / 3, 2 / 3], abs=1e-12)

    def test_large_logit_no_overflow(self):
        probs = nn.softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(probs))
        assert probs[0] == pytest.approx(1.0, abs=1e-12)

    def test_sum_and_shift_invariance(self, rng):
        for _ in range(200):
            z = rng.normal(0, 5, size=7)
            c = rng.uniform(-50, 50)
            p = nn.softmax(z)
            assert abs(p.sum() - 1.0) < 1e-9
            assert np.max(np.abs(p - nn.softmax(z + c))) < 1e-12
            assert np.argmax(p) == np.argmax(z)


class TestForward:
    def test_zero_network_uniform(self):
        params = zero_net(nn.ARCH)
        frame = np.linspace(-1, 1, 1800)
        _, probs = nn.forward(params, frame)
        assert probs == pytest.approx(np.full(7, 1 / 7), abs=1e-15)

    TOY_2_2_2 = NetworkParams(
        [np.array([[1.0, -1.0], [0.5, 0.25]]), np.array([[2.0, 1.0], [-1.0, 0.5]])],
        [np.array([0.1, -0.2]), np.array([0.05, 0.15])],
    )

    def test_toy_2_2_2_hand_computation(self):
        # Hand-worked with scalar math; no matrix routine involved.
        x = np.array([0.3, -0.6])
        # z1 = (0.3 + 0.6 + 0.1, 0.15 - 0.15 - 0.2) = (1.0, -0.2); a1 = (1.0, 0.0)
        # logits = (2*1.0 + 0.05, -1*1.0 + 0.15) = (2.05, -0.85)
        logits, probs = nn.forward(self.TOY_2_2_2, x)
        assert logits == pytest.approx([2.05, -0.85], abs=1e-12)
        e0, e1 = math.exp(2.05), math.exp(-0.85)
        assert probs == pytest.approx([e0 / (e0 + e1), e1 / (e0 + e1)], abs=1e-12)

    def test_activations_are_each_layer_input_then_logits(self):
        # The same hand computation, layer by layer, for a batch of two.
        x = np.array([[0.3, -0.6], [0.0, 0.0]])
        acts = nn.activations(self.TOY_2_2_2, x)
        assert len(acts) == 3 and acts[0] is x
        assert np.allclose(acts[1], [[1.0, 0.0], [0.1, 0.0]], rtol=0, atol=1e-12)
        assert np.allclose(acts[2], [[2.05, -0.85], [0.25, 0.05]], rtol=0, atol=1e-12)
        assert np.array_equal(nn.forward_batch(self.TOY_2_2_2, x), acts[2])

    def test_probs_sum_to_one(self, rng):
        params = nn.init_params((1800, 100, 20, 7), seed=1)
        for _ in range(5):
            _, probs = nn.forward(params, rng.standard_normal(1800))
            assert abs(probs.sum() - 1.0) < 1e-9

    def test_wrong_length_rejected(self):
        params = nn.init_params((1800, 100, 20, 7), seed=1)
        with pytest.raises(ValueError):
            nn.forward(params, np.zeros(900))


class TestClassify:
    """The per-frame classifier that the stream server's float replies are
    checked against."""

    def test_dominant_probability(self):
        params = zero_net((4, 7))
        params.biases[0][:] = np.log([0.9, 0.02, 0.02, 0.02, 0.02, 0.01, 0.01])
        assert model_oracle.classify(params, np.zeros(4)) == 0

    def test_tie_breaks_to_lower_index(self):
        params = zero_net((4, 7))
        params.biases[0][:2] = 1.0  # exact two-way tie between classes 0 and 1
        assert model_oracle.classify(params, np.zeros(4)) == 0

    def test_argmax_matches_logits(self, rng):
        params = nn.init_params((10, 5, 7), seed=3)
        for _ in range(50):
            frame = rng.standard_normal(10)
            logits, probs = nn.forward(params, frame)
            assert np.argmax(logits) == np.argmax(probs) == model_oracle.classify(params, frame)


def one_hot_net(cls):
    """A 4-7 net whose softmax puts probability exactly 1 on ``cls``."""
    params = zero_net((4, 7))
    params.biases[0][cls] = 1000.0  # exp(-1000) underflows to 0
    return params


class TestCrossEntropy:
    def test_perfect_prediction(self):
        assert loss(one_hot_net(3), np.zeros(4), [3]) == 0.0

    def test_uniform(self):
        assert loss(zero_net((4, 7)), np.zeros(4), [0]) == pytest.approx(math.log(7), abs=1e-12)

    def test_zero_probability_clamped(self):
        value = loss(one_hot_net(0), np.zeros(4), [6])
        assert math.isfinite(value)
        assert value == pytest.approx(-math.log(1e-12), abs=1e-9)


class TestGradients:
    def test_matches_finite_differences_single_sample(self):
        params, x, y = toy_net(seed=0)
        grads = gradients(params, x, np.array([y]))
        num_w, num_b = numeric_gradients(params, x, y)
        for analytic, numeric in zip(grads.weights + grads.biases, num_w + num_b):
            assert_close_relative(analytic, numeric)

    def test_duplicate_batch_equals_single(self):
        params, x, y = toy_net(seed=1)
        single = gradients(params, x, np.array([y]))
        double = gradients(params, np.stack([x, x]), np.array([y, y]))
        for a, b in zip(single.weights + single.biases, double.weights + double.biases):
            assert np.allclose(a, b, atol=1e-15)

    def test_zero_network_output_bias_gradient(self):
        params = zero_net((6, 4, 7))
        x = np.linspace(-1, 1, 6)
        grads = gradients(params, x, np.array([2]))
        expected = np.full(7, 1 / 7)
        expected[2] -= 1.0
        assert np.allclose(grads.biases[-1], expected, atol=1e-15)

    def test_gradients_keep_the_dtype_of_params_and_frames(self):
        params, x, y = toy_net(seed=3)
        params32 = params.astype(np.float32)
        x32 = np.stack([x, -x]).astype(np.float32)
        labels = np.array([y, 1 - y])
        g32 = gradients(params32, x32, labels)
        # the float64 oracle runs on the same, exactly widened, values
        g64 = gradients(params32.astype(np.float64), x32.astype(np.float64), labels)
        for a, b in zip(g32.weights + g32.biases, g64.weights + g64.biases):
            assert a.dtype == np.float32 and b.dtype == np.float64
            # float32 carries 24 bits: a few ulps of error on this tiny net
            assert np.allclose(a, b, rtol=1e-5, atol=1e-6)


class TestAdamStep:
    def test_zero_gradient_keeps_parameters(self):
        params = nn.init_params((4, 3, 2), seed=7)
        grads = NetworkParams(
            [np.zeros_like(w) for w in params.weights],
            [np.zeros_like(b) for b in params.biases],
        )
        out, state = nn.adam_step(params, grads, AdamState.zeros(params))
        for a, b in zip(out.weights + out.biases, params.weights + params.biases):
            assert np.array_equal(a, b)
        assert state.step_count == 1

    def test_first_step_magnitude_is_learning_rate(self, rng):
        params = nn.init_params((4, 3, 2), seed=8)
        grads = NetworkParams(
            [rng.uniform(0.5, 2.0, w.shape) * np.sign(rng.standard_normal(w.shape))
             for w in params.weights],
            [rng.uniform(0.5, 2.0, b.shape) for b in params.biases],
        )
        out, _ = nn.adam_step(params, grads, AdamState.zeros(params))
        for before, after, g in zip(params.weights, out.weights, grads.weights):
            step = after - before
            assert np.allclose(np.abs(step), nn.LEARNING_RATE, rtol=1e-3)
            assert np.all(np.sign(step) == -np.sign(g))

    def test_deterministic_sequences(self):
        params, x, y = toy_net(seed=2)

        def run():
            p, s = params.copy(), AdamState.zeros(params)
            for _ in range(5):
                g = gradients(p, x, np.array([y]))
                p, s = nn.adam_step(p, g, s)
            return p

        a, b = run(), run()
        for wa, wb in zip(a.weights + a.biases, b.weights + b.biases):
            assert np.array_equal(wa, wb)

    def test_shape_mismatch_rejected(self):
        params = nn.init_params((4, 3, 2), seed=9)
        bad = NetworkParams(
            [np.zeros((1, 1)) for _ in params.weights],
            [np.zeros_like(b) for b in params.biases],
        )
        with pytest.raises(ValueError):
            nn.adam_step(params, bad, AdamState.zeros(params))


class TestTrain:
    def test_separable_toy_reaches_full_accuracy(self):
        x, y = separable_toy()
        assert perceptron_separable(x, y), "oracle: toy set must be separable"
        # One optimizer step an epoch: the 1400 steps of 200 epochs at batch 8.
        params, history = nn.train(x, y, epochs=1400, seed=2, layer_dims=(4, 8, 2))
        assert np.array_equal(np.argmax(nn.forward_batch(params, x), axis=1), y)
        assert len(history) == 1400

    def test_smoothed_loss_non_increasing(self):
        # nn.BATCH_SIZE >= n makes each epoch exactly one optimizer step
        x, y = separable_toy()
        assert len(x) <= nn.BATCH_SIZE
        _, history = nn.train(x, y, epochs=200, seed=2, layer_dims=(4, 8, 2))
        smoothed = np.convolve(history, np.ones(10) / 10, mode="valid")
        assert np.all(np.diff(smoothed) <= 1e-6)

    def test_deterministic(self):
        # several batches an epoch, so the per-epoch reshuffle counts
        x, y = separable_toy(n=200)
        a, _ = nn.train(x, y, epochs=20, seed=11, layer_dims=(4, 8, 2))
        b, _ = nn.train(x, y, epochs=20, seed=11, layer_dims=(4, 8, 2))
        for wa, wb in zip(a.weights + a.biases, b.weights + b.biases):
            assert np.array_equal(wa, wb)

    def test_zero_epochs_returns_initialization(self):
        x, y = separable_toy()
        params, history = nn.train(x, y, epochs=0, seed=13, layer_dims=(4, 8, 2))
        init_seed, _ = split_seed(13, 2)
        reference = nn.init_params((4, 8, 2), seed=init_seed)
        assert history == []
        for a, b in zip(params.weights + params.biases, reference.weights + reference.biases):
            assert np.array_equal(a, b)

    def test_returns_float64_holding_float32_values(self):
        x, y = separable_toy()
        params, _ = nn.train(x, y, epochs=3, seed=2, layer_dims=(4, 8, 2))
        for p in params.weights + params.biases:
            assert p.dtype == np.float64
            assert np.array_equal(p.astype(np.float32).astype(np.float64), p)

    def test_peak_memory_stays_below_the_frames(self):
        # float64 training would copy the frames at twice their float32 size
        rng = np.random.default_rng(6)
        frames = rng.standard_normal((2100, nn.ARCH[0]), dtype=np.float32)
        labels = np.arange(2100) % nn.ARCH[-1]
        tracemalloc.start()
        try:
            nn.train(frames, labels, epochs=1, seed=4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < frames.nbytes

    def test_missing_class_rejected(self):
        x, y = separable_toy()
        with pytest.raises(ValueError):
            nn.train(x, np.zeros_like(y), epochs=1, layer_dims=(4, 8, 2))

    def test_negative_epochs_rejected(self):
        x, y = separable_toy()
        with pytest.raises(ValueError, match="epochs must be >= 0"):
            nn.train(x, y, epochs=-1, layer_dims=(4, 8, 2))


class TestGradientProperty:
    def test_random_toys_match_finite_differences(self):
        # 10 random toy networks, each against central differences
        for seed in range(10):
            params, x, y = toy_net(seed=100 + seed)
            grads = gradients(params, x, np.array([y]))
            num_w, num_b = numeric_gradients(params, x, y)
            for analytic, numeric in zip(grads.weights + grads.biases, num_w + num_b):
                assert_close_relative(analytic, numeric)
