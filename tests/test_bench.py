"""Tests for the latency/throughput harness."""

import math
import time
import zlib

import numpy as np
import pytest

from rfmc import bench, nn, quant
from rfmc.seeding import rng_from_seed

FIXED_COST_S = 1e-3


def fixed_cost_classifier(frame):
    """Busy-waits FIXED_COST_S on the clock: its cost does not depend on the
    engine's or the host's speed, so a timing run lasts long enough that a
    millisecond host stall between frames stays a small share of it."""
    deadline = time.perf_counter() + FIXED_COST_S
    while time.perf_counter() < deadline:
        pass
    return 0


@pytest.fixture(scope="module")
def quantized_setup():
    params = nn.init_params(nn.ARCH, seed=50)
    rng = rng_from_seed(51)
    qnet = quant.quantize_network(params, rng.standard_normal((64, nn.ARCH[0])))
    frames = [
        quant.quantize_frame(f, quant.INPUT_FORMAT) for f in bench.gaussian_frames(400, seed=52)
    ]

    def classifier(frame_q):
        return quant.quantized_forward(qnet, frame_q)[1]

    return classifier, frames, params


class TestBenchInference:
    def test_too_few_frames_rejected(self, quantized_setup):
        classifier, frames, _ = quantized_setup
        with pytest.raises(ValueError):
            bench.bench_inference(classifier, frames[:99], warmup=0)

    def test_report_fields_ordered(self, quantized_setup):
        classifier, frames, _ = quantized_setup
        report = bench.bench_inference(classifier, frames[:200], warmup=20)
        assert report.min_ns <= report.p50_ns <= report.p99_ns
        assert report.mean_ns > 0
        assert len(report.samples_ns) == 200

    def test_fps_consistent_with_mean_latency(self, quantized_setup):
        _, frames, _ = quantized_setup
        report = bench.bench_inference(fixed_cost_classifier, frames[:300], warmup=50)
        assert report.frames_per_second == pytest.approx(1e9 / report.mean_ns, rel=0.05)

    def test_two_runs_both_report(self, quantized_setup):
        # repeatability is reported, never asserted as equality
        classifier, frames, _ = quantized_setup
        a = bench.bench_inference(classifier, frames[:150], warmup=20)
        b = bench.bench_inference(classifier, frames[:150], warmup=20)
        assert a.mean_ns > 0 and b.mean_ns > 0

    def test_labels_unchanged_by_benchmarking(self, quantized_setup):
        classifier, frames, _ = quantized_setup
        report = bench.bench_inference(classifier, frames[:150], warmup=10)
        plain = np.array([classifier(f) for f in frames[:150]], dtype=np.int64)
        assert zlib.crc32(report.labels.tobytes()) == zlib.crc32(plain.tobytes())

    def test_quantized_not_slower_than_float_by_much(self, quantized_setup):
        # The paths take turns, a block of 100 frames each, so a slow phase
        # of the shared host falls on both, and the medians pass over the
        # odd stalled frame.
        classifier, frames, params = quantized_setup
        float_frames = bench.gaussian_frames(300, seed=60)

        def float_classifier(frame):
            return int(np.argmax(nn.forward(params, frame)[0]))

        paths = {"quantized": (classifier, frames[:300]), "float": (float_classifier, float_frames)}
        samples_ns = {path: [] for path in paths}
        for start in range(0, 300, bench.MIN_FRAMES):
            for path, (path_classifier, path_frames) in paths.items():
                report = bench.bench_inference(
                    path_classifier, path_frames[start : start + bench.MIN_FRAMES],
                    warmup=50 if start == 0 else 0,
                )
                samples_ns[path].append(report.samples_ns)
        q_median, f_median = (np.median(np.concatenate(samples_ns[path])) for path in paths)
        assert q_median <= f_median * 1.5


class TestBenchThroughput:
    def test_quantized_rate_exceeds_1000_fps(self, quantized_setup):
        # oracle first: one fused MAC pass over the 182k weights must beat
        # 1 ms by a wide margin before the end-to-end claim is tested
        classifier, frames, _ = quantized_setup
        import time

        w = np.full((100, 1800), 123, np.int16)
        x = np.full(1800, -45, np.int16)
        t0 = time.perf_counter()
        for _ in range(100):
            w.astype(np.int64) @ x.astype(np.int64)
        per_layer = (time.perf_counter() - t0) / 100
        assert per_layer < 1e-3, "MAC microbenchmark: first layer alone must be < 1 ms"

        # the frames repeat until the timed loop lasts at least a second, so
        # a host stall of a few milliseconds is a small share of the rate
        tiles = 1
        while True:
            report = bench.bench_inference(classifier, frames * tiles, warmup=50)
            wall_s = len(report.samples_ns) / report.frames_per_second
            if wall_s >= 1.0:
                break
            tiles = math.ceil(tiles * 1.2 / wall_s)
        assert report.frames_per_second >= 1000


class TestGaussianFrames:
    def test_one_draw_equals_a_draw_per_frame(self):
        rng = rng_from_seed(7)
        per_frame = [rng.standard_normal(1800) * np.sqrt(0.5) for _ in range(3)]
        assert np.array_equal(bench.gaussian_frames(3, seed=7), np.stack(per_frame))


class TestFormatReport:
    def test_contains_reference_context(self, quantized_setup):
        classifier, frames, _ = quantized_setup
        report = bench.bench_inference(classifier, frames[:150], warmup=10)
        text = bench.format_latency_report(report)
        assert "mean_us" in text
        assert "FPGA (reference) 24.0 us/sample" in text
        assert "Xavier GPU (reference) 3600.0 us/sample" in text
