"""Wall-clock latency and throughput measurement for frame classifiers.

Frames are pre-generated before any clock starts, so synthesis and input
quantization never pollute the numbers. ``rfmc bench`` hands both model
kinds the same raw int16 frames, in the Q2.13 format every model reads
(see ``rfmc.model``), so the float and the quantized path are timed on
the same int16-in path that ``rfmc serve`` runs. Frames are classified one
at a time in one thread, so each sample is one frame's latency. Per-frame
samples are kept on the report for auditing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .seeding import rng_from_seed
from .sigsynth import FRAME_LEN

MIN_FRAMES = 100

# Paper-reported per-sample latencies, printed as context only; host-CPU
# numbers are not comparable to any of them.
REFERENCE_LATENCIES = (
    ("FPGA (reference)", 24e-6),
    ("Xavier GPU (reference)", 3.6e-3),
    ("Nano GPU (reference)", 4.1e-3),
)


@dataclass
class LatencyReport:
    path: str
    min_ns: float
    p50_ns: float
    p99_ns: float
    mean_ns: float
    frames_per_second: float
    samples_ns: np.ndarray = field(repr=False)
    labels: np.ndarray = field(repr=False)


def gaussian_frames(n: int, seed: int = 12345) -> list[np.ndarray]:
    """Seeded unit-power Gaussian frames for timing runs."""
    rng = rng_from_seed(seed)
    return [rng.standard_normal(FRAME_LEN) * np.sqrt(0.5) for _ in range(n)]


def bench_inference(
    classifier,
    n_frames: int,
    frames: list[np.ndarray],
    warmup: int = 100,
    path: str = "float",
) -> LatencyReport:
    """Time single-frame classification over the first ``n_frames`` of ``frames``.

    ``rfmc bench`` passes int16 frames for either path. Warmup frames are
    classified and discarded before measurement begins.
    """
    if n_frames < MIN_FRAMES:
        raise ValueError(f"n_frames must be >= {MIN_FRAMES}")
    if len(frames) < n_frames:
        raise ValueError("not enough pre-generated frames")
    frames = frames[:n_frames]

    for i in range(min(warmup, len(frames))):
        classifier(frames[i])

    samples = np.empty(n_frames, dtype=np.int64)
    labels = np.empty(n_frames, dtype=np.int64)

    wall_start = time.perf_counter_ns()
    for i in range(n_frames):
        t0 = time.perf_counter_ns()
        label = classifier(frames[i])
        samples[i] = time.perf_counter_ns() - t0
        labels[i] = label
    wall_ns = time.perf_counter_ns() - wall_start

    return LatencyReport(
        path=path,
        min_ns=float(samples.min()),
        p50_ns=float(np.percentile(samples, 50)),
        p99_ns=float(np.percentile(samples, 99)),
        mean_ns=float(samples.mean()),
        frames_per_second=n_frames / (wall_ns / 1e9),
        samples_ns=samples,
        labels=labels,
    )


def bench_throughput(classifier, duration_seconds: float, frames: list[np.ndarray]) -> float:
    """Sustained frames/second over at least ``duration_seconds``, cycling through ``frames``."""
    if duration_seconds < 1.0:
        raise ValueError("duration_seconds must be >= 1")
    classifier(frames[0])  # warm any lazy compilation
    count = 0
    start = time.perf_counter()
    while True:
        classifier(frames[count % len(frames)])
        count += 1
        elapsed = time.perf_counter() - start
        if elapsed >= duration_seconds:
            return count / elapsed


def format_latency_report(report: LatencyReport) -> str:
    lines = [
        f"path {report.path}",
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
