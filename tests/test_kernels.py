"""Tests for the integer layer kernel against a Python big-int oracle."""

import numpy as np
import pytest

from rfmc import kernels, quant

INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1


ROUND_SHIFT_CASES = [
    (3, 1, 2),      # 1.5 rounds away to 2
    (-3, 1, -2),    # -1.5 rounds away to -2
    (1, 1, 1),      # 0.5 rounds away to 1
    (-1, 1, -1),
    (5, 1, 3),      # 2.5 -> 3
    (100, 0, 100),
    (7, -2, 28),    # negative shift is a left shift
    (-7, 3, -1),    # -0.875 -> -1
    (4, 3, 1),      # 0.5 -> 1
]


def kernel_shift(values, shift):
    """round_shift through ``round_saturate``, as the requantizer does it, unclamped."""
    scaled = np.asarray(values, dtype=np.float64) * 2.0**-shift
    return kernels.round_saturate(scaled, -np.inf, np.inf).astype(np.int64)


class TestRoundShift:
    @pytest.mark.parametrize("value,shift,expected", ROUND_SHIFT_CASES)
    def test_half_away_from_zero(self, value, shift, expected):
        assert kernels.round_shift(np.array([value]), shift)[0] == expected

    @pytest.mark.parametrize("value,shift,expected", ROUND_SHIFT_CASES)
    def test_round_saturate_half_away_from_zero(self, value, shift, expected):
        assert kernel_shift(np.array([value]), shift)[0] == expected

    def test_matches_exact_rational_rounding(self, rng):
        values = rng.integers(-(2**40), 2**40, size=1000)
        for shift in (1, 3, 7, 15):
            for rounder in (kernels.round_shift, kernel_shift):
                got = rounder(values, shift)
                for v, g in zip(values.tolist(), got.tolist()):
                    exact = abs(v) / 2**shift
                    expected = int(exact + 0.5) * (1 if v >= 0 else -1)
                    assert g == expected


class TestRoundSaturate:
    def test_in_place_and_clamped(self):
        x = np.array([-7.5, -2.5, -0.5, -0.0, 0.0, 0.49, 0.5, 2.5, 7.5])
        out = kernels.round_saturate(x, -5, 3)
        assert out is x
        assert x.tolist() == [-5, -3, -1, 0, 0, 0, 1, 3, 3]

    def test_stated_exceptions(self):
        # the module docstring's one inexact input below 2**52, and an odd
        # integer above it; everything else rounds exactly (the oracle tests)
        below_half = np.nextafter(0.5, 0)
        x = np.array([below_half, -below_half, 2.0**52 + 1, 2.0**52 + 2])
        assert kernels.round_saturate(x, -np.inf, np.inf).tolist() == [
            1, -1, 2**52 + 2, 2**52 + 2]


def random_layer(rng, n_out, n_in, n_frames=None):
    # magnitudes drawn per layer so that requantized outputs land inside
    # int16 as often as they saturate; x is one frame, or a batch of
    # n_frames
    w_bits = int(rng.integers(1, 16))
    x_bits = int(rng.integers(1, 16))
    weights = rng.integers(-(2**w_bits), 2**w_bits, size=(n_out, n_in)).astype(np.int16)
    bias = rng.integers(INT32_MIN, INT32_MAX, size=n_out, endpoint=True).astype(np.int64)
    x_shape = n_in if n_frames is None else (n_frames, n_in)
    x = rng.integers(-(2**x_bits), 2**x_bits, size=x_shape).astype(np.int16)
    return np.ascontiguousarray(weights), bias, np.ascontiguousarray(x)


def python_accumulators(weights, bias, x) -> list[int]:
    """W @ x + b in Python integers: no numpy dtype anywhere."""
    xs = [int(v) for v in x]
    return [
        sum(int(w) * v for w, v in zip(row, xs)) + int(b)
        for row, b in zip(weights, bias)
    ]


def python_epilogue(acc: int, shift: int, apply_relu: bool, requantize: bool) -> int:
    """ReLU, then a shift rounding half away from zero, then int16 saturation."""
    if apply_relu:
        acc = max(acc, 0)
    if requantize:
        if shift > 0:
            magnitude = (abs(acc) + (1 << (shift - 1))) >> shift
            acc = magnitude if acc >= 0 else -magnitude
        else:
            acc <<= -shift
        acc = max(-32768, min(32767, acc))
    return acc


SHIFTS = range(-2, 21)
# (apply_relu, requantize): the output layer's raw accumulators (shift
# None) and a hidden layer's requantized ReLU
FLAGS = [(False, False), (True, True)]


def assert_matches_oracle(weights, bias, x, shifts=SHIFTS):
    """x is one frame (in,) or a batch (n, in); each row must match the oracle."""
    w64 = kernels.prepare_weights(weights, bias)
    accs = [python_accumulators(weights, bias, row) for row in np.atleast_2d(x)]
    for shift in shifts:
        for apply_relu, requantize in FLAGS:
            got = kernels.layer_forward(w64, bias, x, shift if requantize else None)
            assert got.shape == (*np.shape(x)[:-1], len(bias))
            assert np.array_equal(got, np.trunc(got))
            expected = [
                [python_epilogue(a, shift, apply_relu, requantize) for a in row]
                for row in accs
            ]
            assert np.atleast_2d(got).tolist() == expected, (shift, apply_relu, requantize)


class TestBackends:
    def test_exactness_against_python_ints(self, rng):
        for n_in in [1, 2, 17, 100, 1800, *rng.integers(1, 1801, size=12).tolist()]:
            n_out = int(rng.integers(1, 6))
            assert_matches_oracle(*random_layer(rng, n_out, int(n_in)))

    def test_batches_against_python_ints(self, rng):
        for n_frames in [1, 2, 3, *rng.integers(4, 24, size=5).tolist()]:
            n_in = int(rng.integers(1, 1801))
            n_out = int(rng.integers(1, 6))
            layer = random_layer(rng, n_out, n_in, n_frames=n_frames)
            assert_matches_oracle(*layer, shifts=[-2, 0, 1, 7, 13, 20])

    def test_ties_and_saturation_against_python_ints(self):
        # a 1-input layer of unit weights makes each accumulator its bias,
        # so every shift is tried on exact halves, their neighbours and
        # the int32 edges
        for shift in SHIFTS:
            half = 1 << max(shift - 1, 0)
            accs = {INT32_MIN, INT32_MAX, 0}
            for k in range(-9, 10, 2):
                accs |= {k * half - 1, k * half, k * half + 1}
            bias = np.array(sorted(a for a in accs if INT32_MIN <= a <= INT32_MAX), np.int64)
            weights = np.ones((len(bias), 1), np.int16)
            assert_matches_oracle(weights, bias, np.ones(1, np.int16), shifts=[shift])

    def test_extreme_values_against_python_ints(self):
        n_in = 1800
        weights = np.array(
            [[-32768] * n_in, [32767] * n_in, [-32768, 32767] * (n_in // 2), [-32768] * n_in],
            np.int16,
        )
        bias = np.array([INT32_MIN, INT32_MAX, INT32_MIN, INT32_MAX], np.int64)
        lowest = np.full(n_in, -32768, np.int16)
        highest = np.full(n_in, 32767, np.int16)
        for x in (lowest, highest, np.stack([lowest, highest, lowest])):
            assert_matches_oracle(weights, bias, x)

    def test_readonly_buffers_against_python_ints(self, rng):
        # weights, biases and frames as fileio.load_model and the stream
        # server hand them over: views of immutable bytes
        weights, bias, x = random_layer(rng, 7, 1800)
        ro_w = np.frombuffer(weights.astype("<i2").tobytes(), "<i2").reshape(weights.shape)
        ro_b = np.frombuffer(bias.astype("<i4").tobytes(), "<i4").astype(np.int64)
        ro_x = np.frombuffer(x.astype("<i2").tobytes(), "<i2")
        assert not (ro_w.flags.writeable or ro_x.flags.writeable)
        assert_matches_oracle(ro_w, ro_b, ro_x, shifts=[0, 13])

        qnet = quant.QuantizedNetwork([ro_w], [ro_b], [15], [13])
        logits, _ = quant.quantized_forward(qnet, ro_x)
        assert logits.tolist() == python_accumulators(weights, bias, x)

    def test_readonly_multi_frame_blob_against_python_ints(self, rng):
        # a batch as the stream server and classify --raw hand it over: one
        # read-only view of several frames' bytes, including the extremes
        weights, bias, frames = random_layer(rng, 7, 1800, n_frames=4)
        frames[1] = -32768
        frames[2] = 32767
        weights[0] = -32768
        blob = frames.astype("<i2").tobytes()
        ro_frames = np.frombuffer(blob, "<i2").reshape(4, 1800)
        assert not ro_frames.flags.writeable
        assert_matches_oracle(weights, bias, ro_frames, shifts=[0, 13])

        qnet = quant.QuantizedNetwork([weights], [bias], [15], [13])
        logits = quant.quantized_logits(qnet, ro_frames)
        assert logits.dtype == np.int64
        assert logits.tolist() == [python_accumulators(weights, bias, f) for f in frames]
        for i, frame in enumerate(ro_frames):
            assert np.array_equal(logits[i], quant.quantized_forward(qnet, frame)[0])


class TestBatchedNetwork:
    def test_rows_equal_single_frame_passes(self, rng):
        # a three-layer network with requantization between layers, at
        # random batch sizes including one
        layers = [random_layer(rng, n_out, n_in) for n_in, n_out in ((1800, 100), (100, 20), (20, 7))]
        qnet = quant.QuantizedNetwork(
            [w for w, _, _ in layers],
            [b // 2**16 for _, b, _ in layers],
            weight_frac=[12, 12, 12],
            act_frac=[13, 4, 4],
        )
        for n_frames in [1, *rng.integers(2, 40, size=4).tolist()]:
            frames = rng.integers(-32768, 32768, size=(n_frames, 1800)).astype(np.int16)
            logits = quant.quantized_logits(qnet, frames)
            assert logits.shape == (n_frames, 7)
            for i in range(n_frames):
                assert np.array_equal(logits[i], quant.quantized_forward(qnet, frames[i])[0])


class TestStaticBound:
    def test_bound_matches_python_ints(self, rng):
        weights, bias, _ = random_layer(rng, 5, 300)
        weights[0, :] = -32768
        expected = max(
            sum(abs(int(w)) for w in row) * 32768 + abs(int(b))
            for row, b in zip(weights, bias)
        )
        assert kernels.accumulator_bound(weights, bias) == expected

    def test_over_limit_layer_rejected(self):
        # 2**17 inputs at -32768 give a bound of exactly 2**47
        n_in = kernels.ACC_LIMIT // (32768 * 32768)
        bias = np.zeros(1, np.int64)
        at_limit = np.full((1, n_in), -32768, np.int16)
        with pytest.raises(ValueError, match="48-bit"):
            kernels.prepare_weights(at_limit, bias)
        below = at_limit[:, 1:]
        assert kernels.accumulator_bound(below, bias) == kernels.ACC_LIMIT - 32768 * 32768
        assert kernels.prepare_weights(below, bias).dtype == np.float64
