"""Wall-clock latency and throughput measurement for frame classifiers.

Frames are pre-generated before any clock starts, so synthesis and input
quantization never pollute the numbers. ``rfmc bench`` hands both model
kinds the same raw int16 frames, in the Q2.13 format every model reads
(see ``rfmc.model``), so the float and the quantized path are timed on
the same int16-in path that ``rfmc serve`` runs, on unit-power noise-class
frames (``sigsynth.gen_noise_batch`` on the streams of ``FRAME_SEED``).
Frames are classified one at a time in one thread, so each sample is one
frame's latency, and the rate is the frames over the timed loop's wall
time. Per-frame samples are kept on the report for auditing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

MIN_FRAMES = 100

# Master seed of the frames ``rfmc bench`` times.
FRAME_SEED = 12345

# Paper-reported per-sample latencies, printed as context only; host-CPU
# numbers are not comparable to any of them.
REFERENCE_LATENCIES = (
    ("FPGA (reference)", 24e-6),
    ("Xavier GPU (reference)", 3.6e-3),
    ("Nano GPU (reference)", 4.1e-3),
)


@dataclass
class LatencyReport:
    min_ns: float
    p50_ns: float
    p99_ns: float
    mean_ns: float
    frames_per_second: float
    samples_ns: np.ndarray = field(repr=False)


def bench_inference(classifier, frames, warmup: int = 100) -> LatencyReport:
    """Time single-frame classification of every frame in ``frames``.

    ``classifier`` maps one frame to its label; ``rfmc bench`` passes int16
    frames for either path. The first ``warmup`` frames are classified and
    discarded before measurement begins.
    """
    n_frames = len(frames)
    if n_frames < MIN_FRAMES:
        raise ValueError(f"n_frames must be >= {MIN_FRAMES}")

    for frame in frames[:max(warmup, 0)]:
        classifier(frame)

    samples = np.empty(n_frames, dtype=np.int64)

    wall_start = time.perf_counter_ns()
    for i, frame in enumerate(frames):
        t0 = time.perf_counter_ns()
        classifier(frame)
        samples[i] = time.perf_counter_ns() - t0
    wall_ns = time.perf_counter_ns() - wall_start

    return LatencyReport(
        min_ns=float(samples.min()),
        p50_ns=float(np.percentile(samples, 50)),
        p99_ns=float(np.percentile(samples, 99)),
        mean_ns=float(samples.mean()),
        frames_per_second=n_frames / (wall_ns / 1e9),
        samples_ns=samples,
    )


def format_latency_report(report: LatencyReport) -> str:
    lines = [
        f"frames {len(report.samples_ns)}",
        f"min_us {report.min_ns / 1e3:.2f}",
        f"p50_us {report.p50_ns / 1e3:.2f}",
        f"p99_us {report.p99_ns / 1e3:.2f}",
        f"mean_us {report.mean_ns / 1e3:.2f}",
        f"frames_per_second {report.frames_per_second:.1f}",
    ]
    for name, seconds in REFERENCE_LATENCIES:
        lines.append(f"{name} {seconds * 1e6:.1f} us/sample")
    return "\n".join(lines)
