"""Shared fixtures: a small trained pipeline reused by module tests."""

from __future__ import annotations

import numpy as np
import pytest

from rfmc import blas, data, nn, quant


@pytest.fixture(scope="session")
def small_pipeline():
    """Small but real pipeline: dataset, split, trained net, quantized net.

    Sized for speed, not for the accuracy of a default-spec model.
    """
    spec = data.DatasetSpec(
        frames_per_class=150,
        snr_grid=(0.0, 6.0, 12.0, 18.0),
        master_seed=777,
    )
    dataset = data.build_dataset(spec)
    train_ds, test_ds = data.split(dataset, 0.8, seed=1)
    params, history = nn.train(train_ds.frames, train_ds.labels, epochs=8, seed=3)
    qnet = quant.quantize_network(params, train_ds.frames)
    return {
        "dataset": dataset,
        "train": train_ds,
        "test": test_ds,
        "params": params,
        "history": history,
        "qnet": qnet,
    }


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


@pytest.fixture
def blas_threads():
    """numpy's BLAS set to two threads for the test, so a hold at one thread
    shows; yields the count getter, and puts back the count in force before."""
    if blas._library is None:
        pytest.skip("numpy's BLAS exposes no thread control")
    get, set_ = blas._library
    before = get()
    set_(2)
    yield get
    set_(before)
