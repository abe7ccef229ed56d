"""Additive white Gaussian noise at a configurable per-sample SNR.

SNR is defined against the synthesizer's unit complex-sample power, so a
frame at ``snr_db`` carries complex noise of variance 10**(-snr_db/10)
(half per real component). Every SNR must be finite.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .seeding import rng_from_seed

# Default train/eval sweep: 0, 2, ..., 18 dB.
DEFAULT_SNR_GRID = tuple(float(s) for s in range(0, 19, 2))


def noise_variance(snr_db: float) -> float:
    """Per-complex-sample noise variance for a unit-power signal."""
    return 10.0 ** (-snr_db / 10.0)


def apply_awgn_batch(
    frames: np.ndarray, snr_db: Sequence[float], rngs: Sequence[np.random.Generator]
) -> np.ndarray:
    """``frames`` (n, ...) plus complex white Gaussian noise: row i gets it at
    ``snr_db[i]``, drawn from ``rngs[i]`` alone. A ``None``, NaN or infinite
    entry raises ``ValueError`` naming it."""
    frames = np.asarray(frames, dtype=np.float64)
    if not len(frames) == len(snr_db) == len(rngs):
        raise ValueError("frames, snr_db and rngs must have the same length")
    for snr in snr_db:
        if snr is None or not math.isfinite(snr):
            raise ValueError(f"snr_db must be finite, got {snr}")
    sigma = np.array([math.sqrt(noise_variance(snr) / 2.0) for snr in snr_db])
    noise = np.empty_like(frames)
    for row, rng in zip(noise, rngs):
        rng.standard_normal(out=row)
    noise *= sigma.reshape((-1,) + (1,) * (frames.ndim - 1))
    # in place: noise + frames has the same bits as frames + noise
    noise += frames
    return noise


def apply_awgn(frame: np.ndarray, snr_db: float, seed: int = 0) -> np.ndarray:
    """``frame`` plus complex white Gaussian noise at ``snr_db``: one row of
    ``apply_awgn_batch``, drawing from the generator keyed by ``seed``. No
    program path calls it; it stays because the benchmark traces it."""
    return apply_awgn_batch(np.asarray(frame)[np.newaxis], [snr_db], [rng_from_seed(seed)])[0]
