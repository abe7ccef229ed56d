"""Tests for the evaluation harness: confusion, per-class error, SNR buckets."""

import numpy as np
import pytest

from rfmc import data, evaluation, model
from rfmc.sigsynth import NUM_CLASSES

# Paper context (not asserted: the hardware dataset is unavailable):
# reported per-class errors were noise 3.2%, BPSK 8.2%, QPSK 8.6%,
# CPM 13.9%, GFSK 13.9%, QAM16 0.10%, GMSK 3%.


def oracle_classifier(dataset):
    """A perfect classifier: ground truth looked up by frame identity."""
    index = {dataset.frames_q[i].tobytes(): int(dataset.labels[i]) for i in range(len(dataset))}

    def classify(frames_q: np.ndarray) -> np.ndarray:
        return np.array([index[f.tobytes()] for f in np.asarray(frames_q, dtype=np.int16)])

    return classify


@pytest.fixture(scope="module")
def tiny_dataset():
    return data.build_dataset(
        data.DatasetSpec(frames_per_class=6, snr_grid=(0.0, 12.0), master_seed=17)
    )


class TestEvaluate:
    def test_oracle_classifier_is_perfect(self, tiny_dataset):
        report = evaluation.evaluate(oracle_classifier(tiny_dataset), tiny_dataset)
        assert report.overall_accuracy == 1.0
        assert np.array_equal(report.confusion, np.diag([6] * NUM_CLASSES))
        assert np.allclose(report.per_class_error, 0.0)
        assert all(acc == 1.0 for _, _, acc in report.by_snr)

    def test_constant_classifier(self, tiny_dataset):
        report = evaluation.evaluate(lambda frames: np.zeros(len(frames)), tiny_dataset)
        assert report.overall_accuracy == pytest.approx(1 / 7)
        assert report.confusion[:, 0].sum() == len(tiny_dataset)
        assert report.confusion[:, 1:].sum() == 0

    def test_confusion_total_and_trace(self, tiny_dataset):
        report = evaluation.evaluate(lambda frames: frames[:, 0] > 0, tiny_dataset)
        assert report.confusion.sum() == len(tiny_dataset)
        assert report.overall_accuracy == np.trace(report.confusion) / len(tiny_dataset)

    def test_snr_buckets_aggregate_to_overall(self, tiny_dataset):
        report = evaluation.evaluate(lambda frames: (frames[:, 1] > 0) * 3, tiny_dataset)
        bucket_correct = sum(n * acc for _, n, acc in report.by_snr)
        noise_correct = report.confusion[0, 0]
        assert bucket_correct + noise_correct == pytest.approx(np.trace(report.confusion))
        # noise class is excluded from the buckets but not from the total
        assert sum(n for _, n, acc in report.by_snr) == (tiny_dataset.labels != 0).sum()

    def test_deterministic_and_order_independent(self, tiny_dataset):
        classifier = lambda frames: np.abs(frames[:, 2].astype(int)) % 7  # noqa: E731
        a = evaluation.evaluate(classifier, tiny_dataset)
        b = evaluation.evaluate(classifier, tiny_dataset)
        assert np.array_equal(a.confusion, b.confusion)
        assert a.by_snr == b.by_snr

    def test_empty_dataset_rejected(self):
        empty = data.Dataset(
            np.empty((0, 1800), np.int16), np.empty(0, np.uint8), np.empty(0, np.float32)
        )
        with pytest.raises(ValueError):
            evaluation.evaluate(lambda frames: np.zeros(len(frames)), empty)


    def test_wrong_label_count_rejected(self, tiny_dataset):
        for classifier in (lambda frames: 0, lambda frames: np.zeros(len(frames) - 1)):
            with pytest.raises(ValueError):
                evaluation.evaluate(classifier, tiny_dataset)


class TestCompareReports:
    def test_float_vs_quantized_gap_small(self, small_pipeline):
        test_ds = small_pipeline["test"]
        float_report, quant_report = (
            evaluation.evaluate(
                lambda frames_q: np.argmax(model.raw_logits(net, frames_q), axis=1), test_ds)
            for net in (small_pipeline["params"], small_pipeline["qnet"])
        )
        assert abs(quant_report.overall_accuracy - float_report.overall_accuracy) <= 0.015


class TestFormatReport:
    def test_text_contains_documented_sections(self, tiny_dataset):
        report = evaluation.evaluate(oracle_classifier(tiny_dataset), tiny_dataset)
        text = evaluation.format_report(report)
        assert "overall_accuracy 1.000000" in text
        assert "confusion (rows = truth, cols = predicted)" in text
        assert "per_class_error" in text
        assert "snr_db,n,accuracy" in text
        # CSV rows parse back
        csv_lines = text.split("snr_db,n,accuracy\n")[1].splitlines()
        for line, (snr, n, acc) in zip(csv_lines, report.by_snr):
            parts = line.split(",")
            assert float(parts[0]) == snr
            assert int(parts[1]) == n
            assert float(parts[2]) == pytest.approx(acc, abs=1e-6)
