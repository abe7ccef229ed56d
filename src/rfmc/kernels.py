"""Integer layer kernels for the fixed-point inference path.

The datapath multiplies int16 weights by int16 activations into a signed
48-bit accumulator (the modeled DSP register), adds the bias pre-aligned
at the accumulator position, clamps with ReLU on hidden layers, and
requantizes with a right shift, saturated to int16.

Every float-to-integer step of the datapath (input and weight
quantization, bias alignment, the requantizer, ``round_shift``) goes
through one kernel, ``round_saturate``: ``trunc(x + copysign(1/2, x))``,
then a clamp. That is round half away from zero, ``floor(|x| + 1/2)``
with x's sign, exact for every float64 below 2**52 in magnitude but one:
for the double just below 1/2, ``x + 1/2`` rounds up to 1. (From 2**52
on, odd integers round up by one, far above every clamp used.) Callers
first scale by a power of two, which is exact; a requantized accumulator,
an integer times 2**-shift with shift at most 30, never meets the
exception.

The engine computes the multiply-accumulate as a float64 BLAS matmul on
weights converted to float64 once per network (``prepare_weights``).
This is exact, not approximate: every integer of magnitude below 2**53
is a float64, and ``prepare_weights`` rejects a layer unless its static
bound ``max_j(sum_k |W_jk| * 32768 + |b_j|)`` is below ``ACC_LIMIT``
(2**47). Every partial sum of every row therefore is an exact integer
whatever order BLAS sums in, and the accumulators equal the int64 ones
bit for bit. (For the 1800-input first layer each int16 product is at
most 2**30, so the bound stays below 2**42.)
"""

from __future__ import annotations

import numpy as np

INT16_MIN = -32768
INT16_MAX = 32767

# Accumulators must stay within a signed 48-bit register.
ACC_LIMIT = 1 << 47


def round_saturate(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Round float64 ``x`` half away from zero and clamp it to [lo, hi], in place."""
    x += np.copysign(0.5, x)
    np.trunc(x, out=x)
    np.minimum(x, hi, out=x)
    np.maximum(x, lo, out=x)
    return x


def round_shift(values: np.ndarray, shift: int) -> np.ndarray:
    """int64 ``values * 2**-shift`` by ``round_saturate``, unclamped; a
    negative ``shift`` shifts left. Exact while values and results are below
    2**52 in magnitude (from there on an odd result rounds up by one). No
    program path calls it; it stays because the benchmark's tracer self-test
    targets it."""
    scaled = np.asarray(values, dtype=np.float64) * 2.0**-shift
    return round_saturate(scaled, -np.inf, np.inf).astype(np.int64)


def accumulator_bound(weights: np.ndarray, bias_acc: np.ndarray) -> int:
    """Upper bound on |accumulator| over every int16 input to this layer.

    ``max_j(sum_k |W_jk| * 32768 + |b_j|)`` for int16 ``weights``. The
    magnitudes are taken in int32, which holds every |int16| (32768
    included), and summed in int64, which cannot overflow for any layer
    that fits in memory; no int64 copy of the weights is made.
    """
    row_sums = np.abs(weights, dtype=np.int32).sum(axis=1, dtype=np.int64)
    bounds = row_sums * -INT16_MIN + np.abs(np.asarray(bias_acc, dtype=np.int64))
    return int(bounds.max(initial=0))


def prepare_weights(weights: np.ndarray, bias_acc: np.ndarray) -> np.ndarray:
    """float64 copy of an int16 weight matrix, for ``layer_forward``.

    Raises ``ValueError`` if the layer's static accumulator bound reaches
    ``ACC_LIMIT``: such a layer could overflow the 48-bit register, and
    the float64 engine would no longer be exact.
    """
    bound = accumulator_bound(weights, bias_acc)
    if bound >= ACC_LIMIT:
        raise ValueError(
            f"layer accumulator bound {bound} reaches the 48-bit limit {ACC_LIMIT}"
        )
    return np.ascontiguousarray(weights, dtype=np.float64)


def layer_forward(
    weights: np.ndarray, bias_acc: np.ndarray, x: np.ndarray, shift: int | None = None
) -> np.ndarray:
    """One quantized layer: the raw accumulators if ``shift`` is None (the
    output layer), else the ReLU'd activations requantized to int16 by a
    right shift of ``shift`` bits (a hidden layer).

    ``weights`` must come from ``prepare_weights``; ``x`` holds int16
    activations in any integer or float dtype, one frame ``(in,)`` or a
    batch ``(n, in)``. Every output is one row's dot product with one
    frame, so the static bound keeps it exact at any batch size. The
    result is float64, ``(out,)`` or ``(n, out)``, and holds exact
    integers, so it feeds the next layer without conversion.
    """
    acc = np.asarray(x, dtype=np.float64) @ weights.T
    acc += bias_acc
    if shift is not None:
        # ReLU commutes with the monotone rounding, so it folds in as lo = 0
        acc *= 2.0**-shift
        round_saturate(acc, 0, INT16_MAX)
    return acc
