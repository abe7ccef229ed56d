"""Confusion-matrix evaluation of frame classifiers.

A classifier here is any callable mapping a batch of a dataset's frames,
its (n, 1800) int16 ``frames_q`` in Q2.13, to n label ids. Both inference
paths are scored by the same code: the CLI passes the argmax of
``rfmc.model.raw_logits``, so a model is scored on the integers it is
served (raw int16 input is defined in ``rfmc.model``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import Dataset
from .sigsynth import LABEL_NAMES, NUM_CLASSES

@dataclass
class EvalReport:
    confusion: np.ndarray        # (7, 7) counts, rows = truth, cols = predicted
    overall_accuracy: float
    per_class_error: np.ndarray  # (7,), NaN for classes absent from the data
    by_snr: list[tuple[float, int, float]]  # (snr_db, n, accuracy), sorted


def evaluate(classifier: Callable[[np.ndarray], np.ndarray], dataset: Dataset) -> EvalReport:
    """Classify every record in one call and tally the results.

    Noise-class records (snr = NaN) are excluded from the per-SNR buckets
    but count toward the confusion matrix and overall accuracy.
    """
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    predictions = np.asarray(classifier(dataset.frames_q), dtype=np.int64)
    if predictions.shape != (len(dataset),):
        raise ValueError(
            f"classifier returned shape {predictions.shape} for {len(dataset)} frames"
        )

    confusion = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
    np.add.at(confusion, (dataset.labels.astype(np.int64), predictions), 1)

    overall = float(np.trace(confusion)) / len(dataset)
    row_sums = confusion.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        per_class_error = 1.0 - np.diag(confusion) / row_sums

    correct = predictions == dataset.labels
    by_snr = []
    valid = ~np.isnan(dataset.snr_db)
    for snr in np.unique(dataset.snr_db[valid]):
        mask = dataset.snr_db == snr
        by_snr.append((float(snr), int(mask.sum()), float(correct[mask].mean())))
    return EvalReport(confusion, overall, per_class_error, by_snr)


def format_report(report: EvalReport) -> str:
    """Human-readable key-value text plus the matrix and per-SNR CSV rows."""
    lines = [
        f"records {int(report.confusion.sum())}",
        f"overall_accuracy {report.overall_accuracy:.6f}",
        "",
        "confusion (rows = truth, cols = predicted)",
    ]
    header = " ".join(f"{name:>6s}" for name in LABEL_NAMES)
    lines.append(f"{'':8s}{header}")
    for c, name in enumerate(LABEL_NAMES):
        row = " ".join(f"{int(v):6d}" for v in report.confusion[c])
        lines.append(f"{name:>8s}{row}")
    lines.append("")
    lines.append("per_class_error")
    for c, name in enumerate(LABEL_NAMES):
        err = report.per_class_error[c]
        lines.append(f"  {name:>6s} {'n/a' if np.isnan(err) else f'{err:.4f}'}")
    lines.append("")
    lines.append("snr_db,n,accuracy")
    for snr, n, acc in report.by_snr:
        lines.append(f"{snr:g},{n},{acc:.6f}")
    return "\n".join(lines)
