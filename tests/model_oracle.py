"""Per-value and per-frame forms of the inference path, kept as test oracles.

The package quantizes and classifies whole batches. The functions here do
one value or one frame at a time, the way the package did before it
batched them, so the batch code can be checked against them.
"""

from __future__ import annotations

import math

import numpy as np

from rfmc import nn
from rfmc.kernels import INT16_MAX, INT16_MIN
from rfmc.nn import NetworkParams


def quantize_value(x: float, frac_bits: int) -> int:
    """round(x * 2**frac_bits) half away from zero, saturated to int16."""
    if not math.isfinite(x):
        raise ValueError("cannot quantize a non-finite value")
    scaled = math.floor(abs(x) * (1 << frac_bits) + 0.5)
    q = scaled if x >= 0 else -scaled
    return max(INT16_MIN, min(INT16_MAX, q))


def classify(params: NetworkParams, frame: np.ndarray) -> int:
    """Argmax class, ties broken by lowest index."""
    logits, _ = nn.forward(params, frame)
    return int(np.argmax(logits))
