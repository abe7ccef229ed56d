"""Additive white Gaussian noise at a configurable per-sample SNR.

SNR is defined against the synthesizer's unit complex-sample power, so a
frame at ``snr_db`` carries complex noise of variance 10**(-snr_db/10)
(half per real component). The sentinel ``CLEAN`` adds nothing.
"""

from __future__ import annotations

import math

import numpy as np

from .seeding import rng_from_seed

# Sentinel SNR meaning "no noise added".
CLEAN = None

# Default train/eval sweep: 0, 2, ..., 18 dB.
DEFAULT_SNR_GRID = tuple(float(s) for s in range(0, 19, 2))


def noise_variance(snr_db: float) -> float:
    """Per-complex-sample noise variance for a unit-power signal."""
    return 10.0 ** (-snr_db / 10.0)


def apply_awgn(frame: np.ndarray, snr_db: float | None, seed: int = 0) -> np.ndarray:
    """Return ``frame`` plus complex white Gaussian noise at ``snr_db``.

    ``snr_db=CLEAN`` returns the input unchanged. Deterministic for a
    fixed seed.
    """
    if snr_db is CLEAN:
        return frame
    if not math.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite or CLEAN, got {snr_db}")
    frame = np.asarray(frame, dtype=np.float64)
    sigma = math.sqrt(noise_variance(snr_db) / 2.0)
    rng = rng_from_seed(seed)
    return frame + sigma * rng.standard_normal(frame.shape)
