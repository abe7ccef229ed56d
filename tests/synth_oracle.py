"""Per-frame synthesis by direct convolution, kept as a test oracle.

``rfmc.sigsynth`` shapes a whole class of frames with one matrix product.
The functions here build one frame at a time with ``np.convolve``, the
way the package did before it batched synthesis, and draw from the
generator they are given exactly as the package does. Fed the same
generators, they must give the package's frames to within float64
rounding. The module also holds the unit-power constellations,
``deinterleave`` and the analytic phase-increment bound
``max_phase_increment``, which the synthesis tests check frames against.

``seedsequence_dataset`` rebuilds, bit for bit, the datasets the package
wrote while each frame's generator was keyed by a ``SeedSequence`` hash
of (master seed, class, index, stream), with the frames quantized to
Q2.13 as datasets store them now.
"""

from __future__ import annotations

import math

import numpy as np

from rfmc import data, quant
from rfmc.sigsynth import (
    FRAME_LEN,
    FRAME_SAMPLES,
    LINEAR_LABELS,
    NUM_CLASSES,
    RRC_ROLLOFF,
    RRC_SPAN_SYMBOLS,
    SAMPLES_PER_SYMBOL,
    ModulationLabel,
    _frequency_pulse,
    label_name,
    rrc_taps,
)

PHASE_LABELS = (ModulationLabel.CPM, ModulationLabel.GFSK, ModulationLabel.GMSK)

# Unit-average-power constellations, in the package's point order.
_CONSTELLATIONS = {
    ModulationLabel.BPSK: np.array([1.0 + 0.0j, -1.0 + 0.0j]),
    ModulationLabel.QPSK: np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]) / math.sqrt(2.0),
    ModulationLabel.QAM16: np.array(
        [complex(i, q) for i in (-3, -1, 1, 3) for q in (-3, -1, 1, 3)]
    ) / math.sqrt(10.0),
}


def constellation(label: ModulationLabel) -> np.ndarray:
    """Unit-average-power constellation of a linear modulation."""
    try:
        return _CONSTELLATIONS[ModulationLabel(label)].copy()
    except KeyError:
        raise ValueError(f"{label_name(label)} has no constellation") from None


def gen_symbols(label: ModulationLabel, n_symbols: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n_symbols`` i.i.d. uniform points from a linear constellation."""
    points = constellation(label)
    return points[rng.integers(0, len(points), size=n_symbols)]


def deinterleave(frame: np.ndarray) -> np.ndarray:
    """Interleaved I,Q real vector -> complex samples."""
    frame = np.asarray(frame, dtype=np.float64)
    return frame[0::2] + 1j * frame[1::2]


def max_phase_increment(label: ModulationLabel) -> float:
    """Analytic per-sample bound on |phase difference| for a CPM-family label.

    Worst case is an all-ones symbol stream: pi*h/sps times the largest
    stride-sps sum of the frequency pulse.
    """
    label = ModulationLabel(label)
    if label not in PHASE_LABELS:
        raise ValueError(f"{label_name(label)} is not phase-modulated")
    pulse, h = _frequency_pulse(label)
    sps = SAMPLES_PER_SYMBOL
    worst = max(pulse[r::sps].sum() for r in range(sps))
    return math.pi * h / sps * worst


def _linear(label, rng):
    sps = SAMPLES_PER_SYMBOL
    n_syms = FRAME_SAMPLES // sps + RRC_SPAN_SYMBOLS
    symbols = gen_symbols(label, n_syms, rng)
    taps = rrc_taps(sps, RRC_SPAN_SYMBOLS, RRC_ROLLOFF)
    upsampled = np.zeros(n_syms * sps, dtype=np.complex128)
    upsampled[::sps] = symbols
    return np.convolve(upsampled, taps, mode="valid")[:FRAME_SAMPLES]


def _phase(label, rng):
    sps = SAMPLES_PER_SYMBOL
    pulse, h = _frequency_pulse(label)
    n_syms = FRAME_SAMPLES // sps + -(-(len(pulse) - 1) // sps)
    symbols = rng.integers(0, 2, size=n_syms) * 2 - 1
    impulses = np.zeros(n_syms * sps, dtype=np.float64)
    impulses[::sps] = symbols
    freq = np.convolve(impulses, pulse, mode="valid")[:FRAME_SAMPLES]
    return np.exp(1j * np.cumsum(math.pi * h / sps * freq))


def modulate(label: ModulationLabel, rng: np.random.Generator) -> np.ndarray:
    """One interleaved 1800-real frame, RMS complex-sample power 1."""
    iq = _linear(label, rng) if label in LINEAR_LABELS else _phase(label, rng)
    iq = iq / np.sqrt(np.mean(np.abs(iq) ** 2))
    out = np.empty(FRAME_LEN)
    out[0::2] = iq.real
    out[1::2] = iq.imag
    return out


def noise_frame(rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal(FRAME_LEN) * math.sqrt(0.5)


def awgn(frame: np.ndarray, snr_db: float, rng: np.random.Generator) -> np.ndarray:
    sigma = math.sqrt(10.0 ** (-snr_db / 10.0) / 2.0)
    return frame + sigma * rng.standard_normal(frame.shape)


def seedsequence_rng(master_seed: int, class_id: int, index: int, stream: int) -> np.random.Generator:
    """The generator of one frame's stream, keyed by a ``SeedSequence`` hash."""
    mask = (1 << 128) - 1
    ss = np.random.SeedSequence((master_seed & mask, class_id, index, stream))
    key = int(ss.generate_state(1, np.uint64)[0])
    return np.random.Generator(np.random.Philox(key=key))


def seedsequence_dataset(spec: data.DatasetSpec) -> data.Dataset:
    """A dataset exactly as the package built it under ``SeedSequence`` keys,
    its frames quantized to Q2.13 as ``data.build_dataset`` quantizes them."""
    n = spec.frames_per_class
    frames = np.empty((NUM_CLASSES * n, FRAME_LEN), dtype=np.float64)
    labels = np.repeat(np.arange(NUM_CLASSES, dtype=np.uint8), n)
    snr_db = np.full(NUM_CLASSES * n, np.nan, dtype=np.float32)
    for cls in range(NUM_CLASSES):
        for idx in range(n):
            row = cls * n + idx
            rng = seedsequence_rng(spec.master_seed, cls, idx, 0)
            if cls == ModulationLabel.NOISE:
                frames[row] = noise_frame(rng)
                continue
            snr = spec.snr_grid[idx % len(spec.snr_grid)]
            clean = modulate(ModulationLabel(cls), rng)
            frames[row] = awgn(clean, snr, seedsequence_rng(spec.master_seed, cls, idx, 1))
            snr_db[row] = snr
    return data.Dataset(quant.quantize_array(frames, quant.INPUT_FORMAT), labels, snr_db)
