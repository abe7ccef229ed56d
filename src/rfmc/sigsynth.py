"""Baseband I/Q frame synthesis for six modulation classes plus noise.

A frame is 900 complex samples carried as 1800 interleaved reals
(I, Q, I, Q, ...). Linear classes (BPSK/QPSK/QAM16) are RRC pulse-shaped
constellation streams; CPM/GFSK/GMSK are continuous-phase waveforms built
from a frequency pulse and a running phase integral.

Synthesis is batch-first: ``modulate_batch`` shapes every frame of a
class with one matrix product. Pulse shaping is linear in the symbols, so
per ``(label, WaveformParams)`` it is one cached synthesis matrix: the
18 x 900 RRC matrix of a linear class (at the default 90 samples per
symbol), or the frequency-pulse matrix scaled by pi*h/sps of a phase
class. Its entries sit on a power-of-two grid on which the product with
integer symbols is exact, so each frame is a pure function of (label,
params, the generator it draws from): its bits depend neither on the BLAS
build nor on the other frames of its batch. ``data.build_dataset`` runs
the batch functions; ``modulate`` and ``gen_noise_frame`` are their
one-row calls, kept only because the benchmark traces them.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
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


@dataclass(frozen=True)
class WaveformParams:
    """Waveform knobs shared by all classes of one dataset.

    GFSK and GMSK differ only by the Gaussian filter's bandwidth-time
    product; both use ``fsk_dev_index`` as the modulation index. CPM uses
    its own index and a rectangular ("rect") or raised-cosine ("rc")
    frequency pulse of ``cpm_pulse_len_symbols`` symbols.

    ``samples_per_symbol`` must divide 900. The default of 90 (10 symbols
    per frame for the linear classes) is what the stock classifier is
    tuned for: denser symbol packing makes held-out accuracy collapse.
    """

    samples_per_symbol: int = 90
    rrc_rolloff: float = 0.35
    rrc_span_symbols: int = 8
    gfsk_bt: float = 0.5
    gmsk_bt: float = 0.3
    gaussian_span_symbols: int = 4
    fsk_dev_index: float = 0.5
    cpm_mod_index: float = 0.5
    cpm_pulse: str = "rect"
    cpm_pulse_len_symbols: int = 1

    def validate(self) -> None:
        if self.samples_per_symbol < 2:
            raise ValueError("samples_per_symbol must be >= 2")
        if FRAME_SAMPLES % self.samples_per_symbol != 0:
            raise ValueError(
                f"{FRAME_SAMPLES} must be an integer multiple of "
                f"samples_per_symbol={self.samples_per_symbol}"
            )
        if not 0.0 < self.rrc_rolloff <= 1.0:
            raise ValueError("rrc_rolloff must be in (0, 1]")
        for name in ("gfsk_bt", "gmsk_bt"):
            bt = getattr(self, name)
            if not 0.0 < bt <= 1.0:
                raise ValueError(f"{name} must be in (0, 1]")
        if self.fsk_dev_index <= 0 or self.cpm_mod_index <= 0:
            raise ValueError("modulation indices must be > 0")
        if self.cpm_pulse not in ("rect", "rc"):
            raise ValueError("cpm_pulse must be 'rect' or 'rc'")
        if self.cpm_pulse_len_symbols < 1:
            raise ValueError("cpm_pulse_len_symbols must be >= 1")
        if self.rrc_span_symbols < 1 or self.gaussian_span_symbols < 1:
            raise ValueError("filter spans must be >= 1 symbol")


DEFAULT_WAVEFORM = WaveformParams()

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


def _frequency_pulse(label: ModulationLabel, params: WaveformParams) -> tuple[np.ndarray, float]:
    """Per-sample frequency pulse (sums to sps) and modulation index."""
    sps = params.samples_per_symbol
    if label == ModulationLabel.CPM:
        length = params.cpm_pulse_len_symbols * sps
        if params.cpm_pulse == "rect":
            pulse = np.full(length, 1.0 / params.cpm_pulse_len_symbols)
        else:  # raised-cosine frequency pulse
            k = np.arange(length) + 0.5
            pulse = (1.0 - np.cos(2.0 * np.pi * k / length)) / params.cpm_pulse_len_symbols
        return pulse, params.cpm_mod_index
    bt = params.gmsk_bt if label == ModulationLabel.GMSK else params.gfsk_bt
    gauss = gaussian_taps(sps, params.gaussian_span_symbols, bt)
    # NRZ shaping folded into the pulse: rect(sps) * gaussian, sum = sps.
    pulse = np.convolve(np.ones(sps), gauss)
    return pulse, params.fsk_dev_index


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


@functools.lru_cache(maxsize=32)
def _synthesis_matrix(label: ModulationLabel, params: WaveformParams) -> np.ndarray:
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
    sps = params.samples_per_symbol
    if label in LINEAR_LABELS:
        pulse = rrc_taps(sps, params.rrc_span_symbols, params.rrc_rolloff)
        points = _INTEGER_POINTS[label]
        max_symbol = max(np.abs(points.real).max(), np.abs(points.imag).max())
    else:
        pulse, h = _frequency_pulse(label, params)
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


def modulate_batch(
    label: ModulationLabel, params: WaveformParams | None, rngs: Sequence[np.random.Generator]
) -> np.ndarray:
    """Synthesize one frame per generator: (len(rngs), 1800) float64.

    Frame i draws its symbols from ``rngs[i]`` alone, and its bits do not
    depend on the other frames of the batch. A linear class computes
    ``points[symbols] @ T`` with the constellation's integer points (the
    RMS normalization absorbs their scale); a phase class computes
    ``exp(1j * cumsum(symbols @ F))``, with ``T`` and ``F`` the cached
    synthesis matrix of ``(label, params)``. Each frame's RMS
    complex-sample power is normalized to 1.
    """
    label = ModulationLabel(label)
    if label == ModulationLabel.NOISE:
        raise ValueError("modulate: the noise class is generated by gen_noise_frame")
    params = params or DEFAULT_WAVEFORM
    params.validate()
    matrix = _synthesis_matrix(label, params)
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


def modulate(label: ModulationLabel, params: WaveformParams | None = None, seed: int = 0) -> np.ndarray:
    """Synthesize one 1800-real frame, RMS complex-sample power normalized to 1.

    One row of ``modulate_batch``, drawing from the generator keyed by
    ``seed``. No program path calls it; it stays because the benchmark
    traces it.
    """
    return modulate_batch(label, params, [rng_from_seed(seed)])[0]


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
