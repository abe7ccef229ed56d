"""Independent integer oracle for the quantized datapath.

The benchmark checks the program's quantized outputs against this code,
not against the program's own kernels, so an engine that changes any
integer fails the run. The arithmetic is the datapath's definition:
int16 weights and activations multiplied into int64 accumulators, the
pre-aligned bias added, ReLU on hidden layers, a right shift rounding
half away from zero, and saturation to int16. The output layer keeps its
raw accumulators.
"""

from __future__ import annotations

import numpy as np

INT16_MIN = -32768
INT16_MAX = 32767


def quantize_frames(frames: np.ndarray, frac_bits: int) -> np.ndarray:
    """round(x * 2**frac) half away from zero, saturated to int16."""
    x = np.asarray(frames, dtype=np.float64)
    magnitude = np.floor(np.abs(x) * float(1 << frac_bits) + 0.5)
    q = np.where(x >= 0, magnitude, -magnitude)
    return np.clip(q, INT16_MIN, INT16_MAX).astype(np.int16)


def shift_round_half_away(acc: np.ndarray, shift: int) -> np.ndarray:
    """acc / 2**shift rounded half away from zero; negative shift is exact."""
    if shift <= 0:
        return acc << np.int64(-shift)
    half = np.int64(1) << np.int64(shift - 1)
    magnitude = (np.abs(acc) + half) >> np.int64(shift)
    return np.where(acc >= 0, magnitude, -magnitude)


def logits(qnet, frames_q: np.ndarray) -> np.ndarray:
    """(n, n_out) int64 output accumulators for (n, n_in) int16 frames.

    Reads only the model's stored integers and formats (``weights``,
    ``biases``, ``weight_frac``, ``act_frac``).
    """
    x = np.atleast_2d(np.asarray(frames_q)).astype(np.int64)
    n_layers = len(qnet.weights)
    for i in range(n_layers):
        acc = x @ np.asarray(qnet.weights[i]).astype(np.int64).T
        acc += np.asarray(qnet.biases[i]).astype(np.int64)
        if i == n_layers - 1:
            return acc
        np.maximum(acc, 0, out=acc)
        shift = qnet.weight_frac[i] + qnet.act_frac[i] - qnet.act_frac[i + 1]
        x = np.clip(shift_round_half_away(acc, shift), INT16_MIN, INT16_MAX)
    raise ValueError("model has no layers")


def labels(qnet, frames_q: np.ndarray) -> np.ndarray:
    """Argmax of the reference logits, ties to the lowest index."""
    return np.argmax(logits(qnet, frames_q), axis=1)
