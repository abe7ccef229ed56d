"""Acceptance: a default-spec model scores held-out frames as measured.

The steps of ``rfmc gen-data``, ``train``, ``quantize`` and ``eval
--compare`` at the default spec: 2000 frames per class from seed 0, a
``cli.TRAIN_FRACTION`` split, ``nn.EPOCHS`` (30) epochs from seed 0,
quantization calibrated on the whole training dataset, and a score on 500
held-out frames per class from seed 1, every model reading the datasets'
Q2.13 int16 frames. Measured on x86-64 (numpy with OpenBLAS): 92.60%
overall, 86.67% at 0 dB, and quantized labels equal to the float labels
on every one of the 3,500 frames. Each bar is that figure minus the
margin stated beside it. Training seed 0 is the low end of the spread:
seeds 1 to 5 scored 92.83% to 96.37% overall on the same frames.
"""

import numpy as np
import pytest

from rfmc import cli, data, evaluation, model, nn, quant

# 92.60% less 0.60 points: 21 of 3,500 frames.
OVERALL_BAR = 0.92
# 86.67% less 2.67 points: 8 of the 300 frames at 0 dB.
ZERO_DB_BAR = 0.84
# None measured; up to 17 of 3,500 frames may differ. This also bounds the
# quantized-minus-float accuracy gap.
MAX_LABEL_DISAGREEMENT = 0.005


@pytest.fixture(scope="module")
def scored():
    dataset = data.build_dataset(data.DatasetSpec(frames_per_class=2000, master_seed=0))
    train_ds, _ = data.split(dataset, cli.TRAIN_FRACTION, seed=0)
    params, _ = nn.train(train_ds.frames, train_ds.labels, epochs=nn.EPOCHS, seed=0)
    del train_ds
    qnet = quant.quantize_network(params, dataset.frames)
    del dataset
    heldout = data.build_dataset(data.DatasetSpec(frames_per_class=500, master_seed=1))
    float_labels = np.argmax(model.raw_logits(params, heldout.frames_q), axis=1)
    quant_labels = np.argmax(model.raw_logits(qnet, heldout.frames_q), axis=1)
    return evaluation.evaluate(lambda _: float_labels, heldout), float_labels, quant_labels


def test_overall_accuracy(scored):
    report, _, _ = scored
    assert report.overall_accuracy >= OVERALL_BAR, report.overall_accuracy


def test_accuracy_at_0_db(scored):
    report, _, _ = scored
    at_0_db = {snr: accuracy for snr, _, accuracy in report.by_snr}[0.0]
    assert at_0_db >= ZERO_DB_BAR, at_0_db


def test_quantized_labels_match_the_float_labels(scored):
    _, float_labels, quant_labels = scored
    disagreement = np.mean(float_labels != quant_labels)
    assert disagreement <= MAX_LABEL_DISAGREEMENT, disagreement
