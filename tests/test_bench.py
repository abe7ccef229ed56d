"""Tests for the latency/throughput harness."""

import math
import time

import numpy as np
import pytest

from rfmc import bench, model, nn, quant, sigsynth
from rfmc.seeding import FrameStreams, rng_from_seed
from rfmc.sigsynth import ModulationLabel

FIXED_COST_S = 1e-3


def fixed_cost_classifier(frame):
    """Busy-waits FIXED_COST_S on the clock: its cost does not depend on the
    engine's or the host's speed, so a timing run lasts long enough that a
    millisecond host stall between frames stays a small share of it."""
    deadline = time.perf_counter() + FIXED_COST_S
    while time.perf_counter() < deadline:
        pass
    return 0


def noise_frames_q(n, seed):
    """``n`` int16 unit-power noise frames drawn as ``rfmc bench`` draws them."""
    streams = FrameStreams(seed, ModulationLabel.NOISE, n)
    return list(quant.quantize_array(sigsynth.gen_noise_batch(streams), quant.INPUT_FORMAT))


def row_classifier(net):
    """The one-row ``model.raw_logits`` call that ``rfmc bench`` times."""
    return lambda frame_q: int(np.argmax(model.raw_logits(net, frame_q[np.newaxis])[0]))


@pytest.fixture(scope="module")
def quantized_setup():
    params = nn.init_params(nn.ARCH, seed=50)
    rng = rng_from_seed(51)
    qnet = quant.quantize_network(params, rng.standard_normal((64, nn.ARCH[0])))
    return row_classifier(qnet), noise_frames_q(400, seed=52), params


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

    def test_quantized_not_slower_than_float_by_much(self, quantized_setup):
        # The paths take turns, 10 blocks of 100 frames each, so a slow
        # phase of the shared host falls on both sides of a block's ratio;
        # the medians pass over the odd stalled frame and the odd stalled
        # block.
        classifier, frames, params = quantized_setup
        paths = {"quantized": (classifier, frames[:300]),
                 "float": (row_classifier(params), noise_frames_q(300, seed=60))}
        ratios = []
        for block in range(10):
            start = block * bench.MIN_FRAMES % 300
            q_median, f_median = (
                bench.bench_inference(
                    path_classifier, path_frames[start : start + bench.MIN_FRAMES],
                    warmup=50 if block == 0 else 0,
                ).p50_ns
                for path_classifier, path_frames in paths.values()
            )
            ratios.append(q_median / f_median)
        assert np.median(ratios) <= 1.5


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


class TestFormatReport:
    def test_contains_reference_context(self, quantized_setup):
        classifier, frames, _ = quantized_setup
        report = bench.bench_inference(classifier, frames[:150], warmup=10)
        text = bench.format_latency_report(report)
        assert "mean_us" in text
        assert "FPGA (reference) 24.0 us/sample" in text
        assert "Xavier GPU (reference) 3600.0 us/sample" in text
