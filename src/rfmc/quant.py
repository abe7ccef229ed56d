"""16-bit fixed-point quantization and the integer-only inference path.

Scaling is symmetric power-of-two per layer: weights/activations are
stored as int16, biases as int32 pre-aligned to the accumulator position
(weight_frac + act_frac), and each hidden layer requantizes its 48-bit
accumulator down to the next layer's activation format with a right
shift; each of these rounds through ``kernels.round_saturate``. The
output layer never requantizes: the classifier decision is the argmax of
the raw integer accumulators (softmax, being monotone, cannot change an
argmax).

A format is n fractional bits of an int16 container: Q(15-n).n, with n
in 0..15, so a value q stands for q / 2**n. Every format here, from
calibration through the model file to the engine, is that one int n.

The weight formats and the hidden activation formats are calibrated from
data; the input format is not. Every network reads its int16 input in
``INPUT_FORMAT``, 13 (Q2.13), so a raw frame means the same to every model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .kernels import INT16_MAX, INT16_MIN
from .nn import NetworkParams, activations, check_layers

INT32_MIN = -(1 << 31)
INT32_MAX = (1 << 31) - 1

# Percentile of |values| that the chosen format must cover.
CALIBRATION_PERCENTILE = 99.9

# Frames per slice when a large batch runs through a network: calibration
# here, ``rfmc.model``'s ``logits`` and ``raw_logits``, ``rfmc classify
# --raw``, which reads, classifies and prints at most this many frames a
# turn, and ``rfmc.data.load_dataset``/``save_dataset``, this many records a
# turn. A slice's float64 working copy takes 14.4 KB per frame: 3.7 MB at
# 256 frames against 14.7 MB at 1024, so far less memory is touched. On the
# benchmark's offline workload (2 vCPUs, OpenBLAS 0.3.31; 10 alternating
# pairs at 45 s, seeds 1401-1410) 256 against 1024 moved p50_ms from 15.1
# to 10.3 ms and p99_ms from 20.1 to 16.1 ms, better in 10 and 9 pairs of
# 10. 128 was not taken: on 14,000 frames it changed the float path's
# logits in the last bits (up to 8.9e-15) on 48 frames, while 256 and 512
# give the bits of 1024. Labels were equal at every size.
LOGITS_SLICE = 256


# The one meaning of an int16 input sample, for every model of either kind:
# Q2.13 covers +-4, about four sigma of a unit-power frame at 0 dB SNR.
INPUT_FORMAT = 13


def quantize_array(x: np.ndarray, frac_bits: int) -> np.ndarray:
    """x * 2**frac_bits, rounded and saturated to int16 by ``kernels.round_saturate``."""
    x = np.array(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("cannot quantize non-finite values")
    x *= 1 << frac_bits
    return kernels.round_saturate(x, INT16_MIN, INT16_MAX).astype(np.int16)


def dequantize_array(q: np.ndarray, frac_bits: int) -> np.ndarray:
    """Exact: q / 2**frac_bits, as float64."""
    return np.asarray(q, dtype=np.float64) / (1 << frac_bits)


def fmt_for_magnitude(peak: float) -> int:
    """The format covering ``peak``: the largest n whose range +-2**(15-n)
    covers it, that is 15 minus the smallest k >= 0 with 2**k >= peak,
    exactly by ``math.frexp``. Raises ``ValueError`` for a non-finite peak."""
    if not math.isfinite(peak):
        raise ValueError(f"cannot choose a fixed-point format for the peak {peak}")
    mantissa, exponent = math.frexp(max(peak, 0.0))
    int_bits = max(0, exponent - (mantissa == 0.5))
    return max(0, 15 - int_bits)


def choose_formats(
    params: NetworkParams, calibration: np.ndarray
) -> tuple[list[int], list[int]]:
    """Per-layer (weight frac_bits, input activation frac_bits).

    The first layer's input is ``INPUT_FORMAT``. The hidden activation
    ranges are observed by running the float network over the calibration
    frames, ``LOGITS_SLICE`` at a time, keeping only the hidden layers;
    each format covers the 99.9th percentile of the absolute values seen,
    independently for weights and activations.
    """
    cal = np.atleast_2d(np.asarray(calibration))
    if cal.shape[0] == 0:
        raise ValueError("calibration set must be non-empty")
    if cal.shape[1] != params.weights[0].shape[1]:
        raise ValueError("calibration frames do not match the network input dim")

    def covering(values: np.ndarray) -> int:
        peak = float(np.percentile(np.abs(values), CALIBRATION_PERCENTILE))
        return fmt_for_magnitude(peak)

    hidden = [
        activations(params, np.asarray(cal[i : i + LOGITS_SLICE], dtype=np.float64))[1:-1]
        for i in range(0, len(cal), LOGITS_SLICE)
    ]
    weight_frac = [covering(w) for w in params.weights]
    act_frac = [INPUT_FORMAT] + [covering(np.concatenate(h)) for h in zip(*hidden)]
    return weight_frac, act_frac


@dataclass
class QuantizedNetwork:
    """int16 network plus per-layer fixed-point bookkeeping.

    ``biases[i]`` is stored pre-aligned at the layer's accumulator
    position ``weight_frac[i] + act_frac[i]`` (int32 range, int64 dtype
    so it feeds the kernels directly). Every format is an integer in
    0..15, and ``act_frac[0]`` must be ``INPUT_FORMAT``, 13.

    Construction validates the network (the layer stack by
    ``nn.check_layers``), converts the weights to float64 once for the
    kernel engine (``weights_f64``) and raises ``ValueError`` if any
    layer's static accumulator bound reaches ``ACC_LIMIT``, so no network
    reaches the engine or a model file unchecked.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    weight_frac: list[int]
    act_frac: list[int]
    weights_f64: list[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.validate()
        self.weights_f64 = [
            kernels.prepare_weights(w, b) for w, b in zip(self.weights, self.biases)
        ]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def acc_frac(self, layer: int) -> int:
        """Fixed-point position of the layer's accumulator."""
        return self.weight_frac[layer] + self.act_frac[layer]

    def requant_shift(self, layer: int) -> int:
        """Right shift from accumulator position to the next activation format."""
        return self.acc_frac(layer) - self.act_frac[layer + 1]

    def validate(self) -> None:
        check_layers(self.weights, self.biases)
        if not len(self.weights) == len(self.weight_frac) == len(self.act_frac):
            raise ValueError("per-layer lists must have equal length")
        for w, b in zip(self.weights, self.biases):
            if w.dtype != np.int16 or b.dtype != np.int64:
                raise ValueError("weights must be int16 and biases int64")
            if np.any(b < INT32_MIN) or np.any(b > INT32_MAX):
                raise ValueError("aligned biases must fit in int32")
        for f in (*self.weight_frac, *self.act_frac):
            if not isinstance(f, (int, np.integer)):
                raise ValueError(f"frac_bits must be integers, got {f}")
            if not 0 <= f <= 15:
                raise ValueError("frac_bits must be in 0..15")
        if self.act_frac[:1] != [INPUT_FORMAT]:
            raise ValueError(f"the input format must be Q2.13, got act_frac {self.act_frac[:1]}")


def _align_bias(bias: np.ndarray, acc_frac: int) -> np.ndarray:
    """bias * 2**acc_frac, rounded and saturated to int32 by ``kernels.round_saturate``."""
    with np.errstate(over="ignore"):  # a scale that overflows to inf saturates
        scaled = np.asarray(bias, dtype=np.float64) * 2.0**acc_frac
    return kernels.round_saturate(scaled, INT32_MIN, INT32_MAX).astype(np.int64)


def quantize_network(params: NetworkParams, calibration: np.ndarray) -> QuantizedNetwork:
    """Quantize a trained float network: input ``INPUT_FORMAT``, the other
    per-layer formats calibrated on ``calibration``. Weights and biases
    round and saturate through ``kernels.round_saturate``."""
    params.validate()
    weight_frac, act_frac = choose_formats(params, calibration)
    weights = [
        np.ascontiguousarray(quantize_array(w, wf))
        for w, wf in zip(params.weights, weight_frac)
    ]
    biases = [
        _align_bias(b, wf + af)
        for b, wf, af in zip(params.biases, weight_frac, act_frac)
    ]
    return QuantizedNetwork(weights, biases, weight_frac, act_frac)


def quantize_frame(frame: np.ndarray, frac_bits: int) -> np.ndarray:
    """Quantize a 1800-real frame (or any flat frame) to int16.

    No program path calls it (they quantize batches with
    ``quantize_array``); it stays because the benchmark traces it.
    """
    frame = np.asarray(frame)
    if frame.ndim != 1:
        raise ValueError("frame must be a flat vector")
    return quantize_array(frame, frac_bits)


def quantized_logits(qnet: QuantizedNetwork, frames_q: np.ndarray) -> np.ndarray:
    """Integer forward pass of a batch: (n, n_in) int16 -> (n, n_out) int64 logits.

    ``frames_q`` holds int16 samples in ``INPUT_FORMAT`` (Q2.13), the
    input format of every network, so raw frames need no conversion.
    Each layer runs through ``kernels.layer_forward``, a float64 BLAS
    matmul on the network's pre-converted ``weights_f64``. The logits are
    the exact integers of the modelled datapath, whatever the batch size,
    because construction of ``qnet`` proved every layer's accumulator
    bound below ``ACC_LIMIT`` (the ``kernels`` docstring gives the proof).
    """
    frames_q = np.asarray(frames_q)
    if frames_q.dtype != np.int16:
        raise ValueError("frames must be int16 (quantized under the input format)")
    n_in = qnet.weights[0].shape[1]
    if frames_q.ndim != 2 or frames_q.shape[1] != n_in:
        raise ValueError(f"frames must have shape (n, {n_in}), got {frames_q.shape}")

    x = frames_q
    for i in range(qnet.n_layers):
        shift = qnet.requant_shift(i) if i < qnet.n_layers - 1 else None
        x = kernels.layer_forward(qnet.weights_f64[i], qnet.biases[i], x, shift)
    return x.astype(np.int64)


def quantized_forward(qnet: QuantizedNetwork, frame_q: np.ndarray) -> tuple[np.ndarray, int]:
    """Integer forward pass of one frame: (int logits, label).

    The one-row case of ``quantized_logits``, which rejects a ``frame_q``
    not int16 of shape ``(n_in,)``. No program path calls it; it stays
    because the benchmark traces it and checks its logits against an oracle.
    """
    logits = quantized_logits(qnet, np.asarray(frame_q)[np.newaxis])[0]
    return logits, int(np.argmax(logits))
