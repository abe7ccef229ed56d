"""Tests for fixed-point quantization and the integer inference path."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from model_oracle import quantize_value
from rfmc import data, model, nn, quant
from rfmc.kernels import ACC_LIMIT, INT16_MAX, INT16_MIN
from rfmc.quant import INPUT_FORMAT, QuantizedNetwork

FORMATS = st.integers(min_value=0, max_value=15)


def min_value(frac: int) -> float:
    """The most negative value format ``frac`` holds: int16 -32768 scaled."""
    return -(2.0 ** (15 - frac))


def max_value(frac: int) -> float:
    """The largest value format ``frac`` holds: int16 32767 scaled."""
    return (2.0**15 - 1) / (1 << frac)


def hand_toy_qnet() -> QuantizedNetwork:
    """2-2-2 network with power-of-two values, checkable by hand.

    Formats: input a0=13 (Q2.13, as for every network), w0=14, a1=12, w1=13.
    Float view: W0=[[1,-0.5],[0.25,0.25]], b0=[0.5,-0.25] (bias at 2^27),
    W1=[[1,-1],[0.5,1]], b1=[0,0.125] (bias at 2^25).
    """
    return QuantizedNetwork(
        weights=[
            np.array([[16384, -8192], [4096, 4096]], np.int16),
            np.array([[8192, -8192], [4096, 8192]], np.int16),
        ],
        biases=[
            np.array([67108864, -33554432], np.int64),
            np.array([0, 4194304], np.int64),
        ],
        weight_frac=[14, 13],
        act_frac=[13, 12],
    )


def per_neuron_accumulators(qnet: QuantizedNetwork, frame_q: np.ndarray) -> list[list[int]]:
    """Reference forward pass, neuron by neuron in Python integers.

    Returns every layer's accumulators; hidden layers are requantized as
    the datapath does (ReLU, right shift rounding half away from zero,
    int16 saturation) before they feed the next layer. The last entry
    holds the logits.
    """
    x = [int(v) for v in frame_q]
    layers = []
    for i in range(qnet.n_layers):
        accs = [
            sum(int(w) * v for w, v in zip(row, x)) + int(b)
            for row, b in zip(qnet.weights[i], qnet.biases[i])
        ]
        layers.append(accs)
        if i < qnet.n_layers - 1:
            shift = qnet.requant_shift(i)
            relu = [max(a, 0) for a in accs]
            if shift > 0:
                x = [(a + (1 << (shift - 1))) >> shift for a in relu]
            else:
                x = [a << -shift for a in relu]
            x = [max(INT16_MIN, min(INT16_MAX, a)) for a in x]
    return layers


class TestQuantizeValue:
    """The scalar quantizer that ``quantize_array`` is checked against."""

    def test_zero(self):
        assert quantize_value(0.0, 7) == 0

    def test_unit_at_q14(self):
        assert quantize_value(1.0, 14) == 16384

    def test_saturates_high(self):
        assert quantize_value(10.0, 14) == 32767

    def test_saturates_low(self):
        assert quantize_value(-10.0, 14) == -32768

    def test_half_away_from_zero(self):
        assert quantize_value(0.25, 1) == 1    # 0.5 scaled -> away
        assert quantize_value(-0.25, 1) == -1
        # the kernel behind quantize_array rounds the same ties
        assert quant.quantize_array(np.array([0.25, -0.25, 0.75, -1.25]), 1).tolist() == [
            1, -1, 2, -3]

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            quantize_value(float("nan"), 3)

    @given(frac=FORMATS, x=st.floats(-10.0, 10.0, allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_monotonic(self, frac, x):
        eps = 2.0 ** (-frac) / 3
        assert quantize_value(x, frac) <= quantize_value(x + eps, frac)


class TestDequantizeValue:
    def test_unit(self):
        assert quant.dequantize_array(16384, 14) == 1.0

    def test_range_edge(self):
        assert quant.dequantize_array(-32768, 14) == -2.0

    @given(frac=FORMATS, data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_round_trip_bound_in_range(self, frac, data):
        x = data.draw(st.floats(min_value(frac), max_value(frac), allow_nan=False))
        back = quant.dequantize_array(quant.quantize_array(x, frac), frac)
        assert abs(x - back) <= 2.0 ** (-frac - 1)

    def test_saturation_edges_exact(self):
        for frac in range(16):
            assert quantize_value(max_value(frac), frac) == 32767
            assert quantize_value(min_value(frac), frac) == -32768
            assert quant.dequantize_array(-32768, frac) == min_value(frac)
            assert quant.dequantize_array(32767, frac) == max_value(frac)


class TestChooseFormats:
    def test_weights_within_unit_get_full_fraction(self):
        assert quant.fmt_for_magnitude(0.999) == 15

    def test_activation_example(self):
        # max |activation| 3.2 needs range +-4 -> 13 fractional bits
        assert quant.fmt_for_magnitude(3.2) == 13

    def test_power_of_two_boundaries(self):
        assert quant.fmt_for_magnitude(1.0) == 15
        assert quant.fmt_for_magnitude(2.0) == 14
        assert quant.fmt_for_magnitude(4.0) == 13

    def test_powers_of_two_and_neighbours_match_brute_force(self):
        def brute_force(peak):
            covering = [f for f in range(16) if 2.0 ** (15 - f) >= peak]
            return max(covering, default=0)

        peaks = [0.0, 5e-324, 1e308, np.finfo(np.float64).max]
        for k in range(-30, 31):
            p = 2.0**k
            peaks += [np.nextafter(p, 0), p, np.nextafter(p, np.inf)]
        for peak in peaks:
            assert quant.fmt_for_magnitude(float(peak)) == brute_force(peak), peak

    @pytest.mark.parametrize("peak", [math.inf, -math.inf, math.nan])
    def test_non_finite_peak_rejected(self, peak):
        with pytest.raises(ValueError):
            quant.fmt_for_magnitude(peak)

    def test_all_layers_reported_in_range(self):
        params = nn.init_params((16, 8, 5, 7), seed=0)
        rng = np.random.default_rng(1)
        wf, af = quant.choose_formats(params, rng.standard_normal((32, 16)))
        assert len(wf) == len(af) == 3
        assert all(0 <= f <= 15 for f in wf + af)

    def test_empty_calibration_rejected(self):
        params = nn.init_params((16, 8, 7), seed=0)
        with pytest.raises(ValueError):
            quant.choose_formats(params, np.empty((0, 16)))

    def test_slices_give_the_unsliced_formats(self, monkeypatch):
        params = nn.init_params((16, 8, 5, 7), seed=2)
        rng = np.random.default_rng(3)
        scales = rng.permutation(np.geomspace(0.01, 100.0, 50))
        cal = (rng.standard_normal((50, 16)) * scales[:, None]).astype(np.float32)

        def covering(values):
            peak = np.percentile(np.abs(values), quant.CALIBRATION_PERCENTILE)
            return quant.fmt_for_magnitude(float(peak))

        # oracle: one unsliced float64 pass over every frame
        unsliced = [covering(h) for h in nn.activations(params, cal.astype(np.float64))[1:-1]]
        monkeypatch.setattr(quant, "LOGITS_SLICE", 7)  # 50 frames: 7 slices of 7, then 1
        _, act_frac = quant.choose_formats(params, cal)
        assert act_frac == [INPUT_FORMAT] + unsliced
        # the frames are spread so that one slice alone calibrates differently
        assert quant.choose_formats(params, cal[:7])[1] != act_frac

    def test_peak_memory_stays_below_the_frames(self):
        # an unsliced float64 pass peaks above twice the float32 frames
        params = nn.init_params(nn.ARCH, seed=1)
        rng = np.random.default_rng(4)
        frames = rng.standard_normal((4 * quant.LOGITS_SLICE, nn.ARCH[0]), dtype=np.float32)
        tracemalloc.start()
        try:
            quant.choose_formats(params, frames)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < frames.nbytes


class TestQuantizeNetwork:
    def test_zero_network_is_all_zero(self):
        params = nn.NetworkParams(
            [np.zeros((4, 8)), np.zeros((2, 4))],
            [np.zeros(4), np.zeros(2)],
        )
        qnet = quant.quantize_network(params, np.zeros((4, 8)) + 0.5)
        for w, b in zip(qnet.weights, qnet.biases):
            assert not w.any()
            assert not b.any()

    def test_deterministic(self):
        params = nn.init_params((16, 8, 7), seed=4)
        cal = np.random.default_rng(0).standard_normal((64, 16))
        a = quant.quantize_network(params, cal)
        b = quant.quantize_network(params, cal)
        for wa, wb in zip(a.weights + a.biases, b.weights + b.biases):
            assert np.array_equal(wa, wb)
        assert a.weight_frac == b.weight_frac and a.act_frac == b.act_frac

    def test_weight_round_trip_bound(self):
        params = nn.init_params((16, 8, 7), seed=5)
        cal = np.random.default_rng(0).standard_normal((64, 16))
        qnet = quant.quantize_network(params, cal)
        for w_float, w_q, frac in zip(params.weights, qnet.weights, qnet.weight_frac):
            in_range = (w_float >= min_value(frac)) & (w_float <= max_value(frac))
            err = np.abs(quant.dequantize_array(w_q, frac) - w_float)
            assert np.all(err[in_range] <= 2.0 ** (-frac - 1) + 1e-15)

    def test_input_format_is_q2_13_where_calibration_would_widen_it(self):
        # high-SNR frames peak below 2, where a calibrated input format
        # would be Q1.14; the input still reads Q2.13
        frames = data.build_dataset(data.DatasetSpec(
            frames_per_class=10, snr_grid=(10.0, 12.0, 14.0, 16.0, 18.0), master_seed=3
        )).frames
        peak = float(np.percentile(np.abs(frames), quant.CALIBRATION_PERCENTILE))
        assert quant.fmt_for_magnitude(peak) == 14
        qnet = quant.quantize_network(nn.init_params(nn.ARCH, seed=1), frames)
        assert qnet.act_frac[0] == INPUT_FORMAT == 13

    @pytest.mark.parametrize("input_frac", [0, 12, 14, 15])
    def test_other_input_format_rejected(self, input_frac):
        toy = hand_toy_qnet()
        with pytest.raises(ValueError, match="Q2.13"):
            QuantizedNetwork(toy.weights, toy.biases, toy.weight_frac, [input_frac, 12])

    @pytest.mark.parametrize("weight_frac, act_frac", [
        ([16, 13], [13, 12]), ([-1, 13], [13, 12]), ([14, 13], [13, 16]), ([14, 13], [13, -1]),
    ])
    def test_format_outside_0_to_15_rejected(self, weight_frac, act_frac):
        toy = hand_toy_qnet()
        with pytest.raises(ValueError, match=r"^frac_bits must be in 0\.\.15$"):
            QuantizedNetwork(toy.weights, toy.biases, weight_frac, act_frac)

    @pytest.mark.parametrize("weight_frac, act_frac, bad", [
        ([14.5, 13], [13, 12], "14.5"),
        ([14, 13.0], [13, 12], "13.0"),
        ([14, 13], [13.0, 12], "13.0"),
        ([14, 13], [13, np.float64(12)], "12.0"),
    ])
    def test_non_integer_format_rejected(self, weight_frac, act_frac, bad):
        toy = hand_toy_qnet()
        with pytest.raises(ValueError, match=rf"^frac_bits must be integers, got {bad}$"):
            QuantizedNetwork(toy.weights, toy.biases, weight_frac, act_frac)

    def test_numpy_integer_formats_accepted(self):
        toy = hand_toy_qnet()
        qnet = QuantizedNetwork(toy.weights, toy.biases, [np.int64(14), np.uint8(13)],
                                [np.int16(13), np.int32(12)])
        x = quant.quantize_array(np.array([[0.75, 0.5], [-1.0, 0.25]]), INPUT_FORMAT)
        assert np.array_equal(quant.quantized_logits(qnet, x), quant.quantized_logits(toy, x))


FLOAT64_MAX = float(np.finfo(np.float64).max)


def aligned_bias_oracle(bias: float, acc_frac: int) -> int:
    """bias * 2**acc_frac rounded half away from zero, saturated to int32,
    in exact rationals."""
    scaled = abs(Fraction(bias)) * 2**acc_frac
    q = math.floor(scaled + Fraction(1, 2))
    return max(quant.INT32_MIN, min(quant.INT32_MAX, q if bias >= 0 else -q))


class TestAlignBias:
    def test_ties_and_saturation_against_exact_rationals(self):
        for acc_frac in range(31):
            unit = 2.0**-acc_frac
            ties = [(k + 0.5) * unit for k in
                    (0, 1, 2, 3, 1000, 2**20 + 1, 2**30, 2**31 - 2, 2**31 - 1, 2**31)]
            limits = [(2**31 - 1) * unit, 2.0**31 * unit, 1e290, FLOAT64_MAX]
            # every neighbour but the one below the first tie, the kernel's
            # one inexact input (tests/test_kernels.py), and the inf above the max
            values = ties + limits + [np.nextafter(v, np.inf) for v in ties + limits[:-1]]
            values += [np.nextafter(v, 0) for v in ties[1:] + limits]
            values += [0.0, unit, 3 * unit]
            spread = np.random.default_rng(acc_frac).standard_normal(50) * 2.0**20
            values += (spread * unit).tolist()
            values += [-v for v in values]
            got = quant._align_bias(np.array(values), acc_frac)
            assert got.dtype == np.int64
            assert got.tolist() == [aligned_bias_oracle(v, acc_frac) for v in values], acc_frac

    def test_saturates_at_both_int32_limits(self):
        # at acc_frac 30 the int32 range is [-2, 2 - 2**-30]
        values = [2.0, 1e290, FLOAT64_MAX, -2.0, -2.5, -1e290, -FLOAT64_MAX, 0.5, -0.5]
        got = quant._align_bias(np.array(values), 30)
        assert got.tolist() == [quant.INT32_MAX] * 3 + [quant.INT32_MIN] * 4 + [2**29, -(2**29)]


class TestQuantizeFrame:
    def test_zero_frame(self):
        assert not quant.quantize_frame(np.zeros(1800), 14).any()

    def test_unit_values(self):
        assert np.all(quant.quantize_frame(np.ones(1800), 14) == 16384)

    def test_length_preserved(self):
        out = quant.quantize_frame(np.linspace(-2, 2, 1800), 13)
        assert out.shape == (1800,)
        assert out.dtype == np.int16


class TestQuantizeArray:
    def test_matches_scalar_oracle_on_every_format(self):
        for frac in range(16):
            halves = (np.arange(-9, 9) + 0.5) / (1 << frac)
            edges = np.array([max_value(frac), min_value(frac), 0.0, -0.0, 1e9, -1e9,
                              1e300, -1e300, 5e-324, -5e-324, 2.0**-frac / 2])
            values = np.concatenate([
                halves, np.nextafter(halves, np.inf), np.nextafter(halves, -np.inf),
                edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
                np.random.default_rng(frac).standard_normal(200) * 2.0 ** (15 - frac),
            ])
            got = quant.quantize_array(values, frac)
            assert got.dtype == np.int16
            assert got.tolist() == [quantize_value(float(v), frac) for v in values]

    def test_shape_kept_and_input_untouched(self):
        x = np.random.default_rng(3).standard_normal((4, 5))
        before = x.copy()
        q = quant.quantize_array(x, 12)
        assert q.shape == (4, 5)
        assert np.array_equal(x, before)

    def test_float32_input_matches_oracle(self):
        x = np.random.default_rng(4).standard_normal(300).astype(np.float32)
        assert quant.quantize_array(x, 13).tolist() == [
            quantize_value(float(v), 13) for v in x
        ]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            quant.quantize_array(np.array([[0.5, bad]]), 3)

    def test_in_place_gives_the_same_integers(self):
        x = np.random.default_rng(5).standard_normal((4, 300)) * 3
        expected = quant.quantize_array(x, 13)
        assert np.array_equal(quant.quantize_in_place(x, 13), expected)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_in_place_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            quant.quantize_in_place(np.array([[0.5, bad]]), 3)


class TestQuantizedForward:
    def test_all_zero_input_yields_bias_argmax(self):
        qnet = hand_toy_qnet()
        x = np.zeros(2, dtype=np.int16)
        logits, label = quant.quantized_forward(qnet, x)
        # layer 0 from biases: acc=(2^26, -2^25) -> relu -> shift 15 -> (2048, 0)
        # layer 1: (8192*2048, 4096*2048 + 4194304) = (16777216, 12582912)
        assert list(logits) == [16777216, 12582912]
        assert label == 0

    def test_hand_toy_exact_integers(self):
        qnet = hand_toy_qnet()
        x = quant.quantize_frame(np.array([0.75, 0.5]), INPUT_FORMAT)
        assert list(x) == [6144, 4096]
        logits, label = quant.quantized_forward(qnet, x)
        assert list(logits) == [31457280, 23068672]
        assert label == 0

    @pytest.mark.parametrize("batched", [False, True], ids=["single", "batch"])
    def test_matches_per_neuron_oracle(self, batched, rng):
        params = nn.init_params((32, 12, 7), seed=6)
        qnet = quant.quantize_network(params, rng.standard_normal((64, 32)))
        frames_q = np.stack([
            quant.quantize_frame(rng.standard_normal(32), INPUT_FORMAT) for _ in range(10)
        ])
        expected = [per_neuron_accumulators(qnet, f)[-1] for f in frames_q]
        if batched:
            logits = quant.quantized_logits(qnet, frames_q)
        else:
            logits = np.stack([quant.quantized_forward(qnet, f)[0] for f in frames_q])
        assert logits.dtype == np.int64
        assert logits.tolist() == expected

    def test_ties_break_low(self):
        qnet = QuantizedNetwork(
            weights=[np.zeros((3, 2), np.int16)],
            biases=[np.array([7, 7, 1], np.int64)],
            weight_frac=[10],
            act_frac=[13],
        )
        _, label = quant.quantized_forward(qnet, np.zeros(2, np.int16))
        assert label == 0

    def test_wrong_dtype_rejected(self):
        qnet = hand_toy_qnet()
        with pytest.raises(ValueError):
            quant.quantized_forward(qnet, np.zeros(2, dtype=np.float64))

    def test_wrong_length_rejected(self):
        qnet = hand_toy_qnet()
        with pytest.raises(ValueError):
            quant.quantized_forward(qnet, np.zeros(3, dtype=np.int16))

    def test_batch_wrong_shape_or_dtype_rejected(self):
        qnet = hand_toy_qnet()
        for frames in (np.zeros(2, np.int16), np.zeros((3, 3), np.int16),
                       np.zeros((3, 2), np.float64), np.zeros((1, 3, 2), np.int16)):
            with pytest.raises(ValueError):
                quant.quantized_logits(qnet, frames)
        assert quant.quantized_logits(qnet, np.zeros((0, 2), np.int16)).shape == (0, 2)

    def test_agreement_with_float_on_random_frames(self, small_pipeline):
        # Decision-level analogue of the quantized-gap claim: both paths,
        # 1e4 random frames, trained network.
        params = small_pipeline["params"]
        qnet = small_pipeline["qnet"]
        rng = np.random.default_rng(31)
        n = 10**4
        frames_q = quant.quantize_array(rng.standard_normal((n, 1800)) * np.sqrt(0.5),
                                        INPUT_FORMAT)
        float_labels = np.argmax(model.raw_logits(params, frames_q), axis=1)
        q_labels = np.argmax(model.raw_logits(qnet, frames_q), axis=1)
        assert np.mean(float_labels == q_labels) >= 0.98

    def test_audit_passes_on_real_network(self, small_pipeline):
        # every accumulator of every layer, in Python integers, stays
        # inside the 48-bit register, and the engine's logits equal them
        qnet = small_pipeline["qnet"]
        frame_q = small_pipeline["test"].frames_q[0]
        layers = per_neuron_accumulators(qnet, frame_q)
        assert max(abs(a) for accs in layers for a in accs) < ACC_LIMIT
        logits, _ = quant.quantized_forward(qnet, frame_q)
        assert logits.tolist() == layers[-1]


def int64_logits(qnet: QuantizedNetwork, frames_q: np.ndarray) -> np.ndarray:
    """The datapath in numpy int64, layer by layer: products, sums, ReLU,
    a right shift rounding half up (the ReLU'd values are >= 0) and int16
    saturation. Exact, since every accumulator stays below 2**47."""
    x = frames_q.astype(np.int64)
    for i in range(qnet.n_layers):
        acc = x @ qnet.weights[i].astype(np.int64).T + qnet.biases[i]
        if i == qnet.n_layers - 1:
            return acc
        shift = qnet.requant_shift(i)
        relu = np.maximum(acc, 0)
        x = (relu + (1 << (shift - 1))) >> shift if shift > 0 else relu << -shift
        x = np.clip(x, INT16_MIN, INT16_MAX)


class TestEngineAtProgramBatchSizes:
    """``quantized_logits`` on the trained 1800-100-20-7 network at the batch
    sizes the program runs (``LOGITS_SLICE`` is 256), against ``int64_logits``."""

    @pytest.fixture(scope="class")
    def case(self, small_pipeline):
        qnet = small_pipeline["qnet"]
        assert [w.shape for w in qnet.weights] == [(100, 1800), (20, 100), (7, 20)]
        rng = np.random.default_rng(12)
        gains = np.geomspace(0.05, 8.0, 255)[:, None]  # up to far past Q2.13's +-4
        frames_q = np.concatenate([
            np.full((1, 1800), INT16_MIN, np.int16),
            np.full((1, 1800), INT16_MAX, np.int16),
            quant.quantize_array(rng.standard_normal((255, 1800)) * gains, INPUT_FORMAT),
        ])
        return qnet, frames_q, int64_logits(qnet, frames_q)

    @pytest.mark.parametrize("batch", [1, 8, 64, 256, 257])
    def test_every_frame_matches_the_int64_oracle(self, case, batch):
        qnet, frames_q, expected = case
        got = np.concatenate([quant.quantized_logits(qnet, frames_q[i : i + batch])
                              for i in range(0, len(frames_q), batch)])
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    def test_input_order_leaves_every_logit_bit_identical(self, case, order):
        # the kernels docstring: exact in any summation order
        qnet, frames_q, expected = case
        n_in = qnet.weights[0].shape[1]
        perm = (np.arange(n_in)[::-1] if order == "reversed"
                else np.random.default_rng(13).permutation(n_in))
        permuted = QuantizedNetwork(
            [np.ascontiguousarray(qnet.weights[0][:, perm]), *qnet.weights[1:]],
            qnet.biases, qnet.weight_frac, qnet.act_frac,
        )
        assert np.array_equal(quant.quantized_logits(permuted, frames_q[:, perm]), expected)


class TestAccumulatorBound:
    def test_worst_case_within_48_bits(self):
        # adversarial: every weight and input at +-32767, bias at int32 edge
        n_in = 1800
        weights = np.full((1, n_in), 32767, np.int16)
        x = np.full(n_in, 32767, np.int16)
        bias = np.array([2**31 - 1], np.int64)
        qnet = QuantizedNetwork([weights], [bias], [15], [13])
        logits, _ = quant.quantized_forward(qnet, x)
        expected = 1800 * 32767 * 32767 + 2**31 - 1  # python big ints
        assert int(logits[0]) == expected
        assert expected < ACC_LIMIT

    def test_negative_worst_case(self):
        n_in = 1800
        weights = np.full((1, n_in), -32768, np.int16)
        x = np.full(n_in, 32767, np.int16)
        bias = np.array([-(2**31), 0], np.int64)[:1]
        qnet = QuantizedNetwork([weights], [bias], [15], [13])
        logits, _ = quant.quantized_forward(qnet, x)
        expected = -1800 * 32768 * 32767 - 2**31
        assert int(logits[0]) == expected
        assert abs(expected) < ACC_LIMIT

    def test_over_limit_network_rejected(self):
        # 2**17 inputs at -32768 and a zero bias: static bound exactly 2**47
        weights = np.full((1, 2**17), -32768, np.int16)
        with pytest.raises(ValueError, match="48-bit"):
            QuantizedNetwork([weights], [np.zeros(1, np.int64)], [15], [13])


class TestArgmaxInvariance:
    def test_rescaled_integer_logits_keep_argmax(self, rng):
        # softmax omission is safe: any shared positive rescale of the
        # integer logits and the float softmax of their dequantized view
        # pick the same class
        for _ in range(200):
            logits = rng.integers(-(2**40), 2**40, size=7)
            scale = float(rng.uniform(0.1, 100.0))
            assert np.argmax(logits) == np.argmax(logits * scale)
            probs = nn.softmax(logits / 2.0**25)
            assert np.argmax(probs) == np.argmax(logits)
