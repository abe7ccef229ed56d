"""Baseband I/Q frame synthesis for six modulation classes plus noise.

A frame is 900 complex samples carried as 1800 interleaved reals
(I, Q, I, Q, ...). Linear classes (BPSK/QPSK/QAM16) are RRC pulse-shaped
constellation streams; CPM/GFSK/GMSK are continuous-phase waveforms built
from a frequency pulse and a running phase integral.

Every class is synthesized with one fixed waveform set: the module
constants ``SAMPLES_PER_SYMBOL`` through ``CPM_MOD_INDEX``.

Synthesis is batch-first: ``modulate_batch`` shapes every frame of a
batch with one matrix product. Pulse shaping is linear in the symbols, so
per label it is one cached synthesis matrix: the 18 x 900 RRC matrix of
a linear class, or the frequency-pulse matrix scaled by pi*h/sps of a
phase class. Its entries sit on a power-of-two grid on which the product
with integer symbols is exact, so each frame is a pure function of
(label, the generator it draws from): its bits depend neither on the
BLAS build nor on the other frames of its batch. ``data.build_dataset``
runs the batch functions; ``modulate`` and ``gen_noise_frame`` are their
one-row calls, kept only because the benchmark traces them.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from enum import IntEnum

import numpy as np

from .seeding import rng_from_seed

FRAME_LEN = 1800      # interleaved reals per frame
FRAME_SAMPLES = 900   # complex samples per frame


class ModulationLabel(IntEnum):
    NOISE = 0
    BPSK = 1
    QPSK = 2
    CPM = 3
    GFSK = 4
    QAM16 = 5
    GMSK = 6


LABEL_NAMES = ("noise", "BPSK", "QPSK", "CPM", "GFSK", "QAM16", "GMSK")
NUM_CLASSES = len(LABEL_NAMES)

LINEAR_LABELS = (ModulationLabel.BPSK, ModulationLabel.QPSK, ModulationLabel.QAM16)


def label_name(label: int) -> str:
    return LABEL_NAMES[int(label)]


# The one waveform set every class is synthesized with. 90 samples per
# symbol (it must divide 900: 10 symbols per frame for the linear
# classes) is what the stock classifier is tuned for: denser symbol
# packing makes held-out accuracy collapse. GFSK and GMSK differ only by
# the Gaussian filter's bandwidth-time product and share FSK_MOD_INDEX;
# CPM uses a one-symbol rectangular frequency pulse and its own index.
SAMPLES_PER_SYMBOL = 90
RRC_ROLLOFF = 0.35
RRC_SPAN_SYMBOLS = 8
GAUSSIAN_SPAN_SYMBOLS = 4
GFSK_BT = 0.5
GMSK_BT = 0.3
FSK_MOD_INDEX = 0.5
CPM_MOD_INDEX = 0.5

# Constellations on the integer grid; the RMS normalization of each
# frame absorbs their scale.
_INTEGER_POINTS = {
    ModulationLabel.BPSK: np.array([1.0 + 0.0j, -1.0 + 0.0j]),
    ModulationLabel.QPSK: np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]),
    ModulationLabel.QAM16: np.array([complex(i, q) for i in (-3, -1, 1, 3) for q in (-3, -1, 1, 3)]),
}
def interleave(iq: np.ndarray) -> np.ndarray:
    """Complex samples (..., n) -> interleaved I,Q reals (..., 2n).

    A C-contiguous complex128 array viewed as float64 has exactly this
    layout, so the result shares memory with ``iq`` when ``iq`` is one.
    """
    return np.ascontiguousarray(iq, dtype=np.complex128).view(np.float64)


def rrc_taps(sps: int, span_symbols: int, rolloff: float) -> np.ndarray:
    """Root-raised-cosine taps over ``span_symbols`` symbols, unit energy."""
    n = span_symbols * sps + 1
    t = (np.arange(n) - (n - 1) / 2.0) / sps  # in symbol periods
    beta = rolloff

    with np.errstate(divide="ignore", invalid="ignore"):
        num = np.sin(np.pi * t * (1 - beta)) + 4 * beta * t * np.cos(np.pi * t * (1 + beta))
        den = np.pi * t * (1 - (4 * beta * t) ** 2)
        taps = num / den

    taps[np.isclose(t, 0.0, atol=1e-12)] = 1.0 - beta + 4 * beta / np.pi
    singular = np.isclose(np.abs(t), 1.0 / (4 * beta), atol=1e-12)
    taps[singular] = (beta / math.sqrt(2.0)) * (
        (1 + 2 / np.pi) * math.sin(np.pi / (4 * beta))
        + (1 - 2 / np.pi) * math.cos(np.pi / (4 * beta))
    )
    return taps / np.sqrt(np.sum(taps**2))


def gaussian_taps(sps: int, span_symbols: int, bt: float) -> np.ndarray:
    """Gaussian filter taps with unit DC gain; sigma set by the BT product."""
    sigma = math.sqrt(math.log(2.0)) / (2.0 * math.pi * bt)  # in symbol periods
    n = span_symbols * sps + 1
    t = (np.arange(n) - (n - 1) / 2.0) / sps
    taps = np.exp(-(t**2) / (2.0 * sigma**2))
    return taps / taps.sum()


def _frequency_pulse(label: ModulationLabel) -> tuple[np.ndarray, float]:
    """Per-sample frequency pulse (sums to sps) and modulation index."""
    rect = np.ones(SAMPLES_PER_SYMBOL)
    if label == ModulationLabel.CPM:
        return rect, CPM_MOD_INDEX
    bt = GMSK_BT if label == ModulationLabel.GMSK else GFSK_BT
    # NRZ shaping folded into the pulse: rect(sps) * gaussian, sum = sps.
    pulse = np.convolve(rect, gaussian_taps(SAMPLES_PER_SYMBOL, GAUSSIAN_SPAN_SYMBOLS, bt))
    return pulse, FSK_MOD_INDEX


def _exact_grid(matrix: np.ndarray, max_symbol: float) -> np.ndarray:
    """``matrix`` rounded to the finest power-of-two grid on which
    ``symbols @ matrix`` is exact for integer symbols up to ``max_symbol``
    in magnitude.

    Every product and partial sum is then a multiple of the grid step
    below 2**53 steps, which float64 holds exactly, so the product comes
    out bit for bit the same in any summation order: whatever the BLAS
    build, and whichever other frames share the batch. The rounding moves
    an entry by at most half a step, 2**-52 of the output bound.
    """
    bound = max_symbol * np.abs(matrix).sum(axis=0).max()
    step = 2.0 ** (math.ceil(math.log2(bound)) - 52)
    return np.round(matrix / step) * step


@functools.cache
def _synthesis_matrix(label: ModulationLabel) -> np.ndarray:
    """(n_symbols, 900) matrix taking one frame's symbols to its samples.

    Row k holds the class's pulse placed at symbol k: the RRC taps for a
    linear class (complex128, to meet complex symbols in one BLAS call),
    the frequency pulse scaled by pi*h/sps for a phase class. Row k,
    column j is ``pulse[len(pulse) - 1 + j - k*sps]`` (0 outside the
    pulse), which is the fully overlapped ("valid") convolution of the
    upsampled symbols with the pulse, so ``symbols @ matrix`` shapes a
    whole class of frames in one product. Entries sit on the exact grid
    of ``_exact_grid``. Read-only, because it is cached.
    """
    sps = SAMPLES_PER_SYMBOL
    if label in LINEAR_LABELS:
        pulse = rrc_taps(sps, RRC_SPAN_SYMBOLS, RRC_ROLLOFF)
        points = _INTEGER_POINTS[label]
        max_symbol = max(np.abs(points.real).max(), np.abs(points.imag).max())
    else:
        pulse, h = _frequency_pulse(label)
        pulse = math.pi * h / sps * pulse
        max_symbol = 1.0
    n = len(pulse)
    n_symbols = FRAME_SAMPLES // sps + -(-(n - 1) // sps)  # ceil division
    tap = n - 1 + np.arange(FRAME_SAMPLES) - sps * np.arange(n_symbols)[:, None]
    matrix = np.where((tap >= 0) & (tap < n), pulse[np.clip(tap, 0, n - 1)], 0.0)
    matrix = _exact_grid(matrix, max_symbol)
    if label in LINEAR_LABELS:
        matrix = matrix.astype(np.complex128)
    matrix.flags.writeable = False
    return matrix


def modulate_batch(label: ModulationLabel, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Synthesize one frame per generator: (len(rngs), 1800) float64.

    Frame i draws its symbols from ``rngs[i]`` alone, and its bits do not
    depend on the other frames of the batch. A linear class computes
    ``points[symbols] @ T`` with the constellation's integer points (the
    RMS normalization absorbs their scale); a phase class computes
    ``exp(1j * cumsum(symbols @ F))``, with ``T`` and ``F`` the cached
    synthesis matrix of ``label``. Each frame's RMS
    complex-sample power is normalized to 1.
    """
    label = ModulationLabel(label)
    if label == ModulationLabel.NOISE:
        raise ValueError("modulate: the noise class is generated by gen_noise_batch")
    matrix = _synthesis_matrix(label)
    n_symbols = matrix.shape[0]

    if label in LINEAR_LABELS:
        points = _INTEGER_POINTS[label]
        symbols = np.array([rng.integers(0, len(points), size=n_symbols) for rng in rngs])
        iq = points[symbols] @ matrix
    else:
        symbols = np.array([rng.integers(0, 2, size=n_symbols) * 2.0 - 1.0 for rng in rngs])
        iq = np.exp(1j * np.cumsum(symbols @ matrix, axis=1))

    iq /= np.sqrt(np.mean(np.abs(iq) ** 2, axis=1, keepdims=True))
    return interleave(iq)


def modulate(label: ModulationLabel, seed: int = 0) -> np.ndarray:
    """Synthesize one 1800-real frame, RMS complex-sample power normalized to 1.

    One row of ``modulate_batch``, drawing from the generator keyed by
    ``seed``. No program path calls it; it stays because the benchmark
    traces it.
    """
    return modulate_batch(label, [rng_from_seed(seed)])[0]


def gen_noise_batch(rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Noise-class frames, one per generator: (len(rngs), 1800) i.i.d.
    N(0, 0.5) reals (unit complex variance)."""
    frames = np.empty((len(rngs), FRAME_LEN))
    for row, rng in zip(frames, rngs):
        rng.standard_normal(out=row)
    frames *= math.sqrt(0.5)
    return frames


def gen_noise_frame(seed: int) -> np.ndarray:
    """Noise-class frame: one row of ``gen_noise_batch``, drawing from the
    generator keyed by ``seed``. No program path calls it; it stays because
    the benchmark traces it."""
    return gen_noise_batch([rng_from_seed(seed)])[0]
